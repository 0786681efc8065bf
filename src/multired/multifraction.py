"""Signed alternating sequences of monoid elements ("multifractions").

A depth-n multifraction represents the group element
e(a_1) e(a_2)^-1 e(a_3) ... (positive first sign) or its mirror image.
Alternation is structural: only the first sign is stored, the sign of
index i is the first sign flipped i-1 times.  Entries are kept canonical,
so equality is structural.  The empty multifraction is the unit of the
product and carries no sign.

Trailing trivial entries are never trimmed automatically: right reduction
is sensitive to them.  `trim_trailing_units` is provided for callers that
explicitly want the shorter form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import IDENTITY, Element, MonoidContext, MultiredError, Side
from .presentation import PresentationError, format_word, parse_word

# a signed letter is (atom index, +1 | -1)
SignedWord = tuple[tuple[int, int], ...]


class MultifractionParseError(MultiredError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Multifraction:
    first_sign: int  # +1 or -1; empty multifraction stores +1
    entries: tuple[Element, ...]

    def __post_init__(self):
        if self.first_sign not in (1, -1):
            raise ValueError(f"first sign must be +1 or -1, not {self.first_sign!r}")
        # computed once, as for Element, with the dataclass-generated value
        object.__setattr__(self, "_hash", hash((self.first_sign, self.entries)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def is_trivial(self) -> bool:
        return bool(self.entries) and all(e.is_identity for e in self.entries)

    def sign(self, i: int) -> int:
        """Sign of index i (1-based)."""
        if not 1 <= i <= self.depth:
            raise IndexError(i)
        return self.first_sign if i % 2 == 1 else -self.first_sign

    def entry(self, i: int) -> Element:
        return self.entries[i - 1]

    def total_length(self) -> int:
        return sum(e.length for e in self.entries)

    def weight(self) -> int:
        """Signed length sum; a nonzero weight certifies non-unitality."""
        return sum(self.sign(i) * e.length for i, e in enumerate(self.entries, 1))

    def replace_entries(self, *changes: tuple[int, Element]) -> "Multifraction":
        """A copy with entry i set to x for each (i, x) given, in order."""
        entries = list(self.entries)
        for i, x in changes:
            entries[i - 1] = x
        return Multifraction(self.first_sign, tuple(entries))


EMPTY = Multifraction(1, ())


def due_side(a: Multifraction, i: int) -> Side:
    """Division side at level i: RIGHT when i is positive in a, that is
    when i is odd and a starts positive or i is even and a starts
    negative.  i is not range-checked: every caller has checked it."""
    return Side.RIGHT if (a.first_sign > 0) == (i % 2 == 1) else Side.LEFT


def unit(p: int) -> Multifraction:
    """The trivial multifraction of depth |p|, negative for p < 0."""
    if p == 0:
        return EMPTY
    return Multifraction(1 if p > 0 else -1, (IDENTITY,) * abs(p))


def product(ctx: MonoidContext, a: Multifraction, b: Multifraction) -> Multifraction:
    """Concatenation, merging the junction entries when their signs agree."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if a.sign(a.depth) == b.first_sign:
        merged = ctx.attach(a.entries[-1], b.entries[0], due_side(a, a.depth))
        return Multifraction(a.first_sign, a.entries[:-1] + (merged,) + b.entries[1:])
    return Multifraction(a.first_sign, a.entries + b.entries)


def inverse(a: Multifraction) -> Multifraction:
    """Entry-reversal; represents the inverse group element."""
    if a.is_empty:
        return EMPTY
    return Multifraction(-a.sign(a.depth), tuple(reversed(a.entries)))


def trim_trailing_units(a: Multifraction) -> Multifraction:
    entries = list(a.entries)
    while entries and entries[-1].is_identity:
        entries.pop()
    if not entries:
        return EMPTY
    return Multifraction(a.first_sign, tuple(entries))


def from_signed_word(ctx: MonoidContext, w: SignedWord) -> Multifraction:
    """Evaluate a signed word as a positive multifraction: the product of
    its letters as depth-1 multifractions, from unit(1).  A run of
    inverse letters s~ t~ ... merges into the inverse of ...ts, and a
    leading negative run follows a trivial first entry, so the result is
    always positive (the word-problem pipeline works in positive
    multifractions)."""
    out = unit(1)
    for atom, sign in w:
        out = product(ctx, out, Multifraction(sign, (ctx.canonical((atom,)),)))
    return out


def to_signed_word(a: Multifraction) -> SignedWord:
    out: list[tuple[int, int]] = []
    for i, e in enumerate(a.entries, 1):
        s = a.sign(i)
        if s > 0:
            out.extend((atom, 1) for atom in e.word)
        else:
            out.extend((atom, -1) for atom in reversed(e.word))
    return tuple(out)


def format_multifraction(ctx: MonoidContext, a: Multifraction) -> str:
    if a.is_empty:
        return ""
    body = "/".join(format_word(ctx.pres, e.word) for e in a.entries)
    return ("/" + body) if a.first_sign < 0 else body


def parse_multifraction(ctx: MonoidContext, text: str) -> Multifraction:
    text = text.strip()
    if not text:
        return EMPTY
    first_sign = 1
    if text.startswith("/"):
        first_sign = -1
        text = text[1:]
        if not text:
            raise MultifractionParseError("dangling '/'", 0)
    entries = []
    pos = 0
    for chunk in text.split("/"):
        if not chunk:
            raise MultifractionParseError("empty entry", pos)
        try:
            word = parse_word(ctx.pres, chunk)
        except PresentationError as e:
            raise MultifractionParseError(str(e), pos) from e
        entries.append(ctx.canonical(word))
        pos += len(chunk) + 1
    return Multifraction(first_sign, tuple(entries))

