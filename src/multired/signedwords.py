"""Signed-word transformations: free deletion, relation equivalence on
positive or negative factors, and the two word-reversing moves.

These are the elementary moves that keep the represented group element
fixed; the random-walk generator of unital multifractions is built on them.
A reversing rewrite takes the lcm of the atoms s and t from the monoid
(`MonoidContext.lcm`): the right lcm for s^-1 t, the left lcm for s t^-1.
Its complements x and y, from the relation s*x = t*y (x*s = y*t on the
left), come as canonical words, which need not be spelt as in the
relation; a pair with no lcm has no reversing step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .monoid import MonoidContext, Side
from .multifraction import SignedWord


class TransformKind(Enum):
    FREE_DELETE = "free_delete"
    POS_EQUIV = "pos_equiv"
    NEG_EQUIV = "neg_equiv"
    RIGHT_REVERSE = "right_reverse"
    LEFT_REVERSE = "left_reverse"


@dataclass(frozen=True)
class Step:
    kind: TransformKind
    position: int
    length: int  # length of the replaced factor
    replacement: SignedWord


def _inverse_word(word: tuple[int, ...]) -> SignedWord:
    return tuple((a, -1) for a in reversed(word))


def _positive(word: tuple[int, ...]) -> SignedWord:
    return tuple((a, 1) for a in word)


def cancels(w: SignedWord, k: int) -> bool:
    """w[k] w[k+1] is an inverse pair s s^-1 or s^-1 s."""
    return 0 <= k < len(w) - 1 and w[k][0] == w[k + 1][0] and w[k][1] == -w[k + 1][1]


def applicable_steps(ctx: MonoidContext, w: SignedWord) -> list[Step]:
    """All applicable elementary transformations, ordered by position then
    kind (enum order), then relation declaration order."""
    steps: list[Step] = []
    n = len(w)
    for pos in range(n):
        if cancels(w, pos):
            steps.append(Step(TransformKind.FREE_DELETE, pos, 2, ()))
        # equivalence: a relation side, or the inverse of one, as a factor
        for kind, spelling in (
            (TransformKind.POS_EQUIV, _positive),
            (TransformKind.NEG_EQUIV, _inverse_word),
        ):
            for lhs, rhs in ctx.pres.relations:
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    f = spelling(src)
                    if w[pos:pos + len(f)] == f:
                        steps.append(Step(kind, pos, len(f), spelling(dst)))
        if pos + 1 == n:
            continue
        # reversing: s^-1 t -> (t past s)(s past t)^-1 on the RIGHT and
        # s t^-1 -> (t past s)^-1 (s past t) on the LEFT, the complements
        # of the side lcm of the atoms s and t
        (s, sign), (t, t_sign) = w[pos], w[pos + 1]
        if s == t or sign == t_sign:
            continue
        side = Side.RIGHT if sign < 0 else Side.LEFT
        r = ctx.lcm(ctx.atoms()[s], ctx.atoms()[t], side)
        if r is None:
            continue
        _, s_past_t, t_past_s = r
        if side is Side.RIGHT:
            kind, first, second = TransformKind.RIGHT_REVERSE, _positive, _inverse_word
        else:
            kind, first, second = TransformKind.LEFT_REVERSE, _inverse_word, _positive
        steps.append(Step(kind, pos, 2, first(t_past_s.word) + second(s_past_t.word)))
    return steps


def apply_step(w: SignedWord, step: Step) -> SignedWord:
    if not 0 <= step.position <= len(w) - step.length:
        raise ValueError("step not applicable: bad position")
    return w[: step.position] + step.replacement + w[step.position + step.length :]


def free_reduce(w: SignedWord) -> SignedWord:
    """Delete adjacent inverse pairs until none remain."""
    out: list[tuple[int, int]] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(w: SignedWord) -> SignedWord:
    return tuple((a, -s) for a, s in reversed(w))
