"""Signed alternating sequences of monoid elements ("multifractions").

A depth-n multifraction represents the group element
e(a_1) e(a_2)^-1 e(a_3) ... (positive first sign) or its mirror image.
Alternation is structural: only the first sign is stored, the sign of
index i is the first sign flipped i-1 times.  Entries are kept canonical,
so equality is structural.  The empty multifraction is the unit of the
product and carries no sign.

Trailing trivial entries are never trimmed: right reduction is sensitive
to them.

A Multifraction is the tuple (first_sign, entries), so that it hashes and
compares in C: it is the key of every reduct graph and closure index.  Its
hash is hash((first_sign, entries)).  An entry is an element, its least
word, a str whose hash is salted per process, so the hash and the
iteration order of a set or dict of multifractions differ from one
process to the next; no output rests on them.  The tuple is there for
hashing and equality only: no code treats a multifraction as a sequence
(its depth is `depth`, its entries `entries`).  The constructor refuses
a first sign other than +1 or -1 with a ValueError, also under `python
-O`; `with_entries` takes the sign of a multifraction already built.
"""

from __future__ import annotations

from typing import NamedTuple

from .monoid import IDENTITY, LEFT, RIGHT, Element, MonoidContext, MultiredError, Side
from .presentation import PresentationError, format_word, parse_word

# a signed letter is (atom index, +1 | -1)
SignedWord = tuple[tuple[int, int], ...]


class MultifractionParseError(MultiredError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class _Fields(NamedTuple):
    first_sign: int  # +1 or -1; empty multifraction stores +1
    entries: tuple[Element, ...]


# a NamedTuple may not define __new__, so the sign check lives in a
# subclass; it builds the tuple directly, one Python call per multifraction
class Multifraction(_Fields):
    __slots__ = ()

    def __new__(cls, first_sign: int, entries: tuple[Element, ...]):
        if first_sign not in (1, -1):
            raise ValueError(f"first sign must be +1 or -1, not {first_sign!r}")
        return tuple.__new__(cls, (first_sign, entries))

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def is_trivial(self) -> bool:
        return bool(self.entries) and not any(self.entries)

    def sign(self, i: int) -> int:
        """Sign of index i (1-based)."""
        if not 1 <= i <= self.depth:
            raise IndexError(i)
        return self.first_sign if i % 2 == 1 else -self.first_sign

    def entry(self, i: int) -> Element:
        return self.entries[i - 1]

    def total_length(self) -> int:
        return sum(map(len, self.entries))

    def weight(self) -> int:
        """Signed length sum; a nonzero weight certifies non-unitality."""
        return sum(self.sign(i) * len(e) for i, e in enumerate(self.entries, 1))

    def with_entries(self, entries: tuple[Element, ...]) -> "Multifraction":
        """A multifraction with this one's first sign and the given entries,
        as a move builds its reduct.  The sign was checked when this one
        was built, so it is not checked again."""
        return tuple.__new__(Multifraction, (self.first_sign, entries))


EMPTY = Multifraction(1, ())


def due_side(a: Multifraction, i: int) -> Side:
    """Division side at level i: RIGHT when i is positive in a, that is
    when i is odd and a starts positive or i is even and a starts
    negative.  i is not range-checked: every caller has checked it."""
    return RIGHT if (a.first_sign > 0) == (i % 2 == 1) else LEFT


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


def from_signed_word(ctx: MonoidContext, w: SignedWord) -> Multifraction:
    """Evaluate a signed word as a positive multifraction: the product of
    its letters as depth-1 multifractions, from unit(1).  A run of
    inverse letters s~ t~ ... merges into the inverse of ...ts, and a
    leading negative run follows a trivial first entry, so the result is
    always positive (the word-problem pipeline works in positive
    multifractions)."""
    out = unit(1)
    for atom, sign in w:
        out = product(ctx, out, Multifraction(sign, (ctx.canonical(chr(atom)),)))
    return out


def format_multifraction(ctx: MonoidContext, a: Multifraction) -> str:
    if a.is_empty:
        return ""
    body = "/".join(format_word(ctx.pres, e) for e in a.entries)
    return ("/" + body) if a.first_sign < 0 else body


def parse_multifraction(ctx: MonoidContext, text: str) -> Multifraction:
    """The multifraction `text` spells; an error's position is an offset
    into `text` as given."""
    body = text.lstrip()
    pos = len(text) - len(body)  # where body starts in text
    body = body.rstrip()
    if not body:
        return EMPTY
    first_sign = 1
    if body.startswith("/"):
        first_sign = -1
        body = body[1:]
        if not body:
            raise MultifractionParseError("dangling '/'", pos)
        pos += 1
    entries = []
    for chunk in body.split("/"):
        if not chunk:
            raise MultifractionParseError("empty entry", pos)
        try:
            word = parse_word(ctx.pres, chunk)
        except PresentationError as e:
            raise MultifractionParseError(str(e), pos) from e
        entries.append(ctx.canonical(word))
        pos += len(chunk) + 1
    return Multifraction(first_sign, tuple(entries))

