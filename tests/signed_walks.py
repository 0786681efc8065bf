"""Signed words and the random walk on them: a source of unital
multifractions that are not built from a central cross, and the only one
of odd depth.

The elementary transformations are free deletion, relation equivalence on
positive or negative factors, and the two word-reversing moves; each keeps
the represented group element fixed.  A reversing rewrite takes the lcm of
the atoms s and t from the monoid (`MonoidContext.lcm`): the right lcm for
s^-1 t, the left lcm for s t^-1.  Its complements x and y, from the
relation s*x = t*y (x*s = y*t on the left), come as canonical words, which
need not be spelt as in the relation; a pair with no lcm has no reversing
step.

A walk from the empty word inserts cancelling pairs, applies random
transformations and deletes inverse pairs, so its end is unital and the
list of its steps proves it: `replay_walk` plays such a list back, and
refuses a malformed step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from multired.monoid import MonoidContext, Side
from multired.multifraction import (
    EMPTY,
    Multifraction,
    SignedWord,
    from_signed_word,
)


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


def to_signed_word(a: Multifraction) -> SignedWord:
    """The signed word of a: each entry's letters, reversed and inverted
    at a negative index."""
    out: list[tuple[int, int]] = []
    for i, e in enumerate(a.entries, 1):
        s = a.sign(i)
        if s > 0:
            out.extend((atom, 1) for atom in e.word)
        else:
            out.extend((atom, -1) for atom in reversed(e.word))
    return tuple(out)


def trim_trailing_units(a: Multifraction) -> Multifraction:
    """a without its trailing trivial entries; right reduction is
    sensitive to them, so nothing trims them unasked."""
    entries = list(a.entries)
    while entries and entries[-1].is_identity:
        entries.pop()
    if not entries:
        return EMPTY
    return Multifraction(a.first_sign, tuple(entries))


_WALK_INSERT = 0.5
_WALK_TRANSFORM = 0.4  # remainder is deletion


def _replay_walk_step(ctx: MonoidContext, w: SignedWord, item) -> SignedWord | None:
    """w after one recorded walk step; None when the step is malformed: no
    dict with a known op, a missing or non-integer field, an insert whose
    sign is not 1 or -1 or whose atom or position is out of range, a
    delete of no inverse pair, a transform index out of range."""
    op = item.get("op") if type(item) is dict else None
    if op == "insert":
        pos, atom, sign = item.get("pos"), item.get("atom"), item.get("sign")
        if {type(pos), type(atom), type(sign)} == {int} and sign in (1, -1) and (
            0 <= atom < ctx.pres.n_atoms and 0 <= pos <= len(w)
        ):
            return w[:pos] + ((atom, sign), (atom, -sign)) + w[pos:]
    elif op == "delete" and type(item.get("pos")) is int and cancels(w, item["pos"]):
        return w[:item["pos"]] + w[item["pos"] + 2:]
    elif op == "transform" and type(item.get("index")) is int:
        steps, k = applicable_steps(ctx, w), item["index"]
        if 0 <= k < len(steps):
            return apply_step(w, steps[k])
    return None


def replay_walk(ctx: MonoidContext, walk) -> Multifraction | None:
    """The multifraction a recorded walk ends at, None when the walk is
    not a list or one of its steps is malformed."""
    if type(walk) is not list:
        return None
    w: SignedWord = ()
    for item in walk:
        w = _replay_walk_step(ctx, w, item)
        if w is None:
            return None
    return from_signed_word(ctx, w)


def gen_unital_brownian(
    ctx: MonoidContext, target_length: int, seed: int
) -> tuple[Multifraction, list[dict]]:
    """Random walk on signed words from the empty word: insert cancelling
    pairs, apply random elementary transformations, occasionally delete an
    inverse pair.  Every step preserves the represented group element, so
    the result is unital and the recorded walk proves it."""
    rng = random.Random(seed)
    w: SignedWord = ()
    walk: list[dict] = []
    max_steps = 40 + 20 * target_length
    for _ in range(max_steps):
        if len(w) >= target_length:
            break
        roll = rng.random()
        if roll < _WALK_INSERT or not w:
            pos = rng.randint(0, len(w))
            atom = rng.randrange(ctx.pres.n_atoms)
            sign = rng.choice((1, -1))
            item = {"op": "insert", "pos": pos, "atom": atom, "sign": sign}
        elif roll < _WALK_INSERT + _WALK_TRANSFORM:
            steps = applicable_steps(ctx, w)
            if not steps:
                continue
            item = {"op": "transform", "index": rng.randrange(len(steps))}
        else:
            pairs = [k for k in range(len(w) - 1) if cancels(w, k)]
            if not pairs:
                continue
            item = {"op": "delete", "pos": rng.choice(pairs)}
        w = _replay_walk_step(ctx, w, item)
        walk.append(item)
    return from_signed_word(ctx, w), walk
