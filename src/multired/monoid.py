"""Exact arithmetic in a homogeneous gcd-monoid, on one engine: word
reversing over a complement table (Dehornoy, "Complete positive group
presentations", J. Algebra 2003).

Reversing a word a against a word b gives (a past b, b past a), the words
that extend b and a to their lcm, or None when there is no common
multiple.  A grid cell not yet in the table is reversed letter by letter
and stored (the iterated-lcm rule); a cell met again inside its own
reversal has no common multiple.  A cell with an empty word is trivial
and is skipped: a row ends where its letter is used up, and a column
that is used up is passed over.  Cells are basic elements, a finite set
in Artin-Tits monoids (Dehornoy-Dyer-Hohlweg, "Garside families in
Artin-Tits monoids and low elements in Coxeter groups", 2015).  The atom
table is read off the relations: the presentation is complemented, so the
relation whose sides start (RIGHT) or end (LEFT) with atoms u and v is
their lcm, and a pair no relation covers has no common multiple.
Reversing is exact when it is complete, which for homogeneous
presentations is the cube condition on atom triples; a side's table is
checked on first use, and a failure raises LatticeViolation.  A side
whose atom table equals the other side's checked table, as in every
Artin-Tits monoid, runs no check and shares that side's reversing store;
its basic elements are then the mirror images of the other side's
(`basic_table`).  A table built directly reverses each pair of basic
elements row by row: the row of one letter against the rest of a word is
itself a cell of the store, so pairs that share a prefix share its rows.

An atom s left-divides w exactly when reversing s against w leaves s
nothing to add; what is left of w is the quotient.  That reversing row
(`_peel`) reads the table one letter of w at a time: each cell is one
lookup in the reversing store, keyed by what is left of s and the
letter.  An element is represented by its lexicographically
least word (atom order = declaration order), built by peeling off the
least dividing atom again and again.  Which atoms divide an element, and
the quotients, are one memoised table per element and side
(`atom_quotients`).  The least word settles part of it with no reversing:
its first letter (LEFT) or last letter (RIGHT) divides it, the rest of the
word being the quotient's least word, and no atom below its first letter
left-divides it.  Each quotient is checked by one multiplication when its
table is built, and every division reads the table: the
move enumeration of `reduction` reads a level's atomic moves off it,
`divides` divides x's letters off one at a time, a gcd peels the least
atom present in both tables again and again, and `divisors` searches over
its entries.  lcms are reversals, each checked once when it is memoised.
These checks raise InternalInvariantError, also under `python -O`; the
moves of `reduction` rest on them and multiply nothing back; the one
product a move forms, its deposit, is an `attach`, whose length is
checked like every product's.  `lcm_oracle` is a brute-force search
kept for the tests to cross-check `lcm` against; nothing in the package
calls it.  The breadth-first search it rests on,
`multiples`, also lists the elements up to a length (`elements_up_to`).
Whether an Artin-Tits presentation is of type FC is decided by reversing
too (`fc`), with no table of Coxeter graphs.

A word is a str whose k-th character has the code point of its k-th
atom's index (`Word`), so a presentation has at most sys.maxunicode + 1
atoms (`presentation.validate`).  An element is its least word, that str
itself (`Element`), so the identity is "" and the only falsy element.  A
str caches its hash and concatenates, slices and compares in C: the
memos (the canonical memo, the quotient tables, the lcm, divisor and
multiples memos) are keyed by elements, and reducts and graph nodes hold
them, so each element is hashed once however many keys hold it, and a
product is one concatenation.  Code-point order is index order, so a
word's (length, word) order (`sort_key`) is that of its index sequence.
A str's hash is salted per process: the hashes of an element and of a
Multifraction, and the iteration order of a set or dict of them, differ
from one process to the next, and no output rests on them.

A cap overflow is a CapExceeded and nothing else: raised by the
computation that overflows, or held as a value where outcomes are kept
for the caller to raise or report at their turn (`result_of`).  So an lcm
is a tuple (the common multiple), None (a proof that there is none), or
a raised CapExceeded (unknown), which callers report as inconclusive,
never as a no.

reversing_cap bounds only the grid of a reversal that a query asks for,
an lcm's, the cube check's or a basic-table pair's, cell by cell whether
the store holds a cell or not; a pair whose grid fits the cap cannot
overflow it and is reversed by rows (`basic_table`).  A peel row, a
pair's row and a nested reversal of a cell the store lacks are not
charged; basics_cap guards the nested reversals, whose words are basic
elements.  So canonical forms, quotient rows, `divides`, `gcd` and
`divisors` overflow only where a side's reversing table cannot be built,
or at that guard.  A memo hit skips only work that charges no
reversing_cap, and an overflow is never memoised: whether a query
overflows reversing_cap depends on the query and the cap, not on what
its context computed before.  The guard fires only at a basics_cap below
the longest basic element's length, and there a least word that a
context interned without peeling it (`atom_quotients`, `divisors`) is
read, not peeled, so a fresh context can meet the guard where a warmed
one does not.

One side convention serves every operation that takes a Side: RIGHT
attaches on the right and LEFT on the left.  `attach(y, x, side)` is y*x
for RIGHT and x*y for LEFT, and it is the one place that orders a
product by its side; `divides(x, a, side)` is the q with
attach(q, x, side) == a, and the lcm m of a and b is
attach(a, compB, side) == attach(b, compA, side).

`Side` is the public enum, whose values name the sides in JSON and on
the command line.  Inside the package the sides are read as this
module's names LEFT and RIGHT, and a memo kept per side is indexed by
`side is LEFT`: reading a member off the enum class, and hashing a
member, both run in Python, and the move enumeration of `reduction`
does both once per move tried.  A test keeps every function reading the
module names.

Everything is cached in a MonoidContext.  Caches are pure-function memos
(same key, same value), so concurrent reads plus idempotent concurrent
inserts are safe; build the basic tables before sharing a context across
workers.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from enum import Enum

from .presentation import Presentation, format_word, not_a_word, parse_word, validate

# the k-th character of a word has the code point of its k-th atom's index
Word = str
# (a past b, b past a), or None when a and b have no common multiple
Reversal = tuple[Word, Word] | None

_MISSING = object()


class MultiredError(Exception):
    pass


class CapExceeded(MultiredError):
    cap = ""  # the Caps field that overflowed


class ReversingCapExceeded(CapExceeded):
    cap = "reversing_cap"


class BasicsCapExceeded(CapExceeded):
    cap = "basics_cap"


class GraphNodeCapExceeded(CapExceeded):
    cap = "graph_node_cap"


class InternalInvariantError(MultiredError):
    """A memoised fact failed the equation that defines it: a bug, not a
    property of the presentation.  Raised, not asserted, so the checks
    hold under `python -O` too."""


class LatticeViolation(MultiredError):
    """The presentation does not define a gcd-monoid: its atom table is not
    complemented or fails the cube condition, or `lcm_oracle` met two
    minimal common multiples."""


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return RIGHT if self is LEFT else LEFT


# the sides as module names, which every function of the package reads
# (see the module docstring)
LEFT, RIGHT = Side.LEFT, Side.RIGHT


# an element is its least word (atom order = index order), the word that
# `canonical` returns; a word that is not least is not an element, and no
# type tells the two apart
Element = str
IDENTITY = ""


def sort_key(x: Element) -> tuple[int, Word]:
    """The (length, word) order of elements."""
    return (len(x), x)


@dataclass(frozen=True)
class Caps:
    reversing_cap: int = 10_000
    basics_cap: int = 5_000
    graph_node_cap: int = 50_000


@dataclass(frozen=True)
class BasicTable:
    side: Side
    basics: tuple[Element, ...]
    # the number of ordered pairs (u, v) of basics with no common multiple
    # on this side; every other pair has an lcm, and its complements
    # (`MonoidContext.lcm`) are basics
    no_multiple: int

    @property
    def C(self) -> int:
        return 1 + max(map(len, self.basics))


def result_of(outcome):
    """The result an outcome stands for: the outcome itself, unless it is
    the CapExceeded of a computation that overflowed, which is raised.
    `atom_quotients` and the move enumeration of `reduction` hold such
    outcomes, so that an overflow is raised or reported at its turn."""
    if isinstance(outcome, CapExceeded):
        raise outcome
    return outcome


class MonoidContext:
    def __init__(self, pres: Presentation, caps: Caps | None = None):
        self.pres = validate(pres)
        self.caps = caps or Caps()
        self._atoms = tuple(chr(i) for i in range(pres.n_atoms))
        self._canon: dict[Word, Element] = {IDENTITY: IDENTITY}
        # the per-side memos below that a hot path reads are indexed by
        # `side is LEFT`, not keyed by the Side, whose hash runs in Python.
        # The atom-quotient tables, one dict per side keyed by the element:
        # every level of every enumerated node looks one up
        self._quotients: tuple[dict[Element, tuple[Element | None, ...]], ...] = ({}, {})
        self._lcm: dict[tuple[Element, Element, bool], tuple[Element, Element, Element] | None] = {}
        self._divisors: dict[tuple[Element, bool], tuple[Element, ...]] = {}
        self._tables: dict[Side, BasicTable] = {}
        # per side, the reversing table: (x, t) -> (x past t, t past x) | None;
        # one dict for both sides when their atom tables are equal
        self._stores: list[dict[tuple[Word, Word], Reversal] | None] = [None, None]
        self._multiples: dict[tuple[Element, Side], list[set[Element]]] = {}

    # ------------------------------------------------------------------
    # the reversing core

    def _store(self, side: Side) -> dict[tuple[Word, Word], Reversal]:
        """The reversing table of a side, read off the relations and
        checked on first use, then filled as reversals resolve cells.

        RIGHT reverses plain words to the right.  LEFT does the same on
        mirror images: read backwards, a left lcm is a right lcm of the
        mirror-image presentation.  A side whose check fails keeps no
        store: each later use runs the check again, from a fresh atom
        table under the same caps, and so fails again the same way (a cap
        overflow raises a fresh CapExceeded of the same class and
        message).

        The check reads nothing but the atom table and the caps, and every
        cell of a store is a function of its atom table.  So when a side's
        atom table equals that of the other side, whose check passed, as it
        does in every Artin-Tits monoid (each relation reads as itself, or
        with its sides swapped, backwards), the side runs no check and
        shares the other side's store: one reversing table serves both
        sides, and a cell either side stores is read by both.  No overflow
        depends on what a store holds: a query's reversal counts every
        cell of its own grid against reversing_cap, stored or not, and a
        nested reversal, of a cell the store lacks, is not counted."""
        store = self._stores[side is LEFT]
        if store is None:
            store = self._atom_store(side)
            mirror = self._stores[side is not LEFT]
            if mirror is not None and store == self._atom_store(side.other):
                store = mirror
            else:
                self._check_cube(side, store)
            self._stores[side is LEFT] = store
        return store

    def check_atom_tables(self) -> None:
        """Judge the presentation now: build and check both sides' atom
        tables, raising LatticeViolation if either fails."""
        self._store(RIGHT)
        self._store(LEFT)

    def _atom_store(self, side: Side) -> dict[tuple[Word, Word], Reversal]:
        """Complements of atom pairs, read off the relations.

        RIGHT: a relation u*x = v*y is the lcm of u and v, so u past v is y
        and v past u is x.  LEFT: x*u = y*v gives the same on mirror
        images.  A pair no relation covers is left out: `_cell` reads a
        missing atom pair as having no common multiple.
        """
        verb = "start" if side is RIGHT else "end"
        store: dict[tuple[Word, Word], Reversal] = {}
        for relation in self.pres.relations:
            lhs, rhs = relation
            if side is LEFT:
                lhs, rhs = lhs[::-1], rhs[::-1]
            u, v = lhs[:1], rhs[:1]
            if u == v or (u, v) in store:  # named only when refused
                rel = " = ".join(format_word(self.pres, w) for w in relation)
                if u == v:
                    raise LatticeViolation(
                        f"both sides of {rel} {verb} with {format_word(self.pres, u)}: "
                        f"no {side.value} complement for the relation"
                    )
                raise LatticeViolation(
                    f"{rel} and another relation both {verb} with "
                    f"{format_word(self.pres, u)} and {format_word(self.pres, v)}"
                )
            store[(u, v)] = (rhs[1:], lhs[1:])
            store[(v, u)] = (lhs[1:], rhs[1:])
        return store

    def _check_cube(self, side: Side, store: dict[tuple[Word, Word], Reversal]) -> None:
        """Raise LatticeViolation unless word reversing over the atom table
        is complete.

        For a homogeneous complemented presentation that is the cube
        condition on atoms: for distinct r, s, t, (r\\s)\\(r\\t) and
        (s\\r)\\(s\\t) are both undefined, or both defined and equal, where
        x\\y extends x to the lcm of x and y (on the left for LEFT).  Two
        words are equal when reversing one against the other leaves both
        empty.  Both are undefined when r and s have no common multiple.

        The condition on (s, r, t) is that on (r, s, t) with its sides
        swapped, and reversing b against a fills the transposed grid of a
        against b, cell for cell.  So once (r, s, t) holds, (s, r, t) holds
        and stores nothing new: the scan runs over r < s only, and it
        stores, overflows and fails where a scan over every ordered pair
        does, naming the same atoms.
        """

        def under(x: Word | None, y: Word | None) -> Word | None:
            if x is None or y is None:
                return None
            r = self._right_reverse(store, x, y)
            return None if r is None else r[1]

        atoms = [chr(i) for i in range(self.pres.n_atoms)]
        for r, s in itertools.combinations(atoms, 2):
            if store.get((r, s)) is None:
                continue
            for t in atoms:
                if t == r or t == s:
                    continue
                one = under(under(r, s), under(r, t))
                two = under(under(s, r), under(s, t))
                if (one is None) != (two is None) or (
                    one is not None and self._right_reverse(store, one, two) != ("", "")
                ):
                    names = ", ".join(format_word(self.pres, x) for x in (r, s, t))
                    raise LatticeViolation(
                        f"cube condition fails on atoms ({names}) for the {side.value} "
                        "complement: word reversing is incomplete; add the relations "
                        "for the missing atom lcms"
                    )

    def _right_reverse(self, store, a: Word, b: Word, stack=None) -> Reversal:
        """Reverse a against b to the right over `store`: b*(a past b) =
        a*(b past a) is their lcm.  One row per letter of a, one cell per
        letter of b, each read off the store, or reversed by `_cell` when
        the store lacks it.

        A cell with an empty word is trivial and stores nothing: (x, "")
        passes x on and ("", t) leaves t as it is.  So a used-up column is
        skipped, and a row ends where its state x is used up, at a letter
        equal to it or at a stored cell that empties it.

        reversing_cap bounds the cells of a query's reversal, a call made
        without a `stack`, each counted whether the store holds it or not.
        A cell's count is its place in the grid, row by row, and the first
        cell past the cap raises, trivial or not: a non-trivial one before
        it is filled, skipped ones at the end of their row, which raises
        the same since a trivial cell has no effect.  A nested reversal,
        of a cell the store lacks, is not counted: it reverses two basic
        elements, which basics_cap bounds."""
        n = len(b)
        if stack is None:
            stack, cap = set(), self.caps.reversing_cap
            room = max(cap, 0)  # the cells from the start of this row up to the cap
        else:  # a grid has len(a) * len(b) cells, so this never overflows
            cap = room = len(a) * n
        top = list(b)
        ends = []
        for x in a:
            for j, t in enumerate(top):
                if not t:
                    continue
                if j >= room:
                    raise ReversingCapExceeded(f"reversing exceeded {cap} cell fills")
                if x == t:
                    top[j] = x = ""
                    break
                r = store.get((x, t), _MISSING)
                if r is _MISSING:
                    r = self._cell(store, x, t, stack)
                if r is None:
                    return None
                x, top[j] = r
                if not x:
                    break
            if room < n:
                raise ReversingCapExceeded(f"reversing exceeded {cap} cell fills")
            room -= n
            ends.append(x)
        return "".join(ends), "".join(top)

    def _cell(self, store, x: Word, t: Word, stack: set) -> Reversal:
        """A grid cell the store lacks, (x past t, t past x) for two
        non-empty words x != t, reversed letter by letter and stored.  The
        callers (`_right_reverse`, `_peel`, the rows of `basic_table`) read
        trivial cells and stored ones themselves.

        A missing pair of atoms is one no relation covers: it has no
        common multiple.  Every sub-lcm of an existing lcm exists and spans
        a strictly shorter segment of its reversing diagram, so the
        recursion ends whenever the lcm exists; a pair met again while it
        is being reversed (`stack`) therefore has no common multiple.

        The words of a cell are basic elements, so the one guard on a
        nested reversal is basics_cap: a cell the store lacks whose word is
        longer than basics_cap raises BasicsCapExceeded, with
        `basic_table`'s message.  Every key of the store passed that guard
        or is a pair of atoms, so a longer cell is always missing: the
        guard fires on such a cell whatever the store holds.
        """
        if len(x) == len(t) == 1 or (x, t) in stack or (t, x) in stack:
            got = None
        else:
            if max(len(x), len(t)) > self.caps.basics_cap:
                raise self._basics_exceeded()
            stack.add((x, t))
            try:
                got = self._right_reverse(store, x, t, stack)
            finally:
                stack.discard((x, t))
        store[(x, t)] = got
        store[(t, x)] = None if got is None else (got[1], got[0])
        return got

    def _peel(self, store, s: Word, w: Word) -> Word | None:
        """The quotient q with s*q = w over `store`, or None when the atom
        s does not divide w: one reversing row of s against w, one cell per
        letter, read off the store, or reversed by `_cell` and stored there
        when the store lacks it.

        The state x, what is left of s, is used up at the first letter
        equal to it, whose cell is ("", ""), and no store holds such a
        cell; in a homogeneous monoid no other cell uses a state up.  What
        the row has collected, followed by the rest of w, is q.  A row is
        linear in w and charges no cap; a nested reversal is bounded by
        `_cell`'s guard."""
        x, out = s, []
        for t in w:
            if x == t:
                return "".join(out) + w[len(out) + 1 :]
            r = store.get((x, t), _MISSING)
            if r is _MISSING:
                r = self._cell(store, x, t, set())
            if r is None:
                return None
            x, c = r
            out.append(c)
        return None

    def _reverse(self, a: Word, b: Word, side: Side) -> Reversal:
        """(a past b, b past a): RIGHT b*(a past b) = a*(b past a), LEFT
        (a past b)*b = (b past a)*a, the lcm of a and b."""
        store = self._store(side)
        if side is RIGHT:
            return self._right_reverse(store, a, b)
        r = self._right_reverse(store, a[::-1], b[::-1])
        return None if r is None else (r[0][::-1], r[1][::-1])

    # ------------------------------------------------------------------
    # canonical forms

    def atoms(self) -> tuple[Element, ...]:
        return self._atoms

    def canonical(self, word: Word) -> Element:
        """The element of `word`, as the least word equal to it: the least
        atom that left-divides it, then the least word of the quotient.
        The first letter always divides, so only smaller atoms are tried,
        each by one reversing row (`_peel`) over the RIGHT store."""
        memo = self._canon
        cached = memo.get(word)
        if cached is not None:
            return cached
        if not isinstance(word, str):
            raise not_a_word(word)
        n_atoms = self.pres.n_atoms
        if word and ord(max(word)) >= n_atoms:
            i = next(i for i in map(ord, word) if i >= n_atoms)
            raise MultiredError(f"atom index {i} outside presentation")
        store = self._store(RIGHT)
        peeled = []
        rest = word
        while rest not in memo:
            first = ord(rest[0])
            for s in range(first):
                q = self._peel(store, chr(s), rest)
                if q is not None:
                    break
            else:
                s, q = first, rest[1:]
            peeled.append((rest, s))
            rest = q
        elem = memo[rest]
        for w, s in reversed(peeled):
            least = chr(s) + elem
            elem = memo.setdefault(least, least)
            memo[w] = elem
        return elem

    def element(self, text: str) -> Element:
        return self.canonical(parse_word(self.pres, text))

    def word_str(self, x: Element) -> str:
        return format_word(self.pres, x)

    def multiply(self, x: Element, y: Element) -> Element:
        z = self.canonical(x + y)
        if len(z) != len(x) + len(y):
            raise InternalInvariantError(
                f"{self.word_str(x)} times {self.word_str(y)} is "
                f"{self.word_str(z)}: length must be additive"
            )
        return z

    def attach(self, y: Element, x: Element, side: Side) -> Element:
        """y with x attached on the given side: y*x for RIGHT, x*y for LEFT.
        The one place that orders a product by its side."""
        return self.multiply(y, x) if side is RIGHT else self.multiply(x, y)

    def product(self, items) -> Element:
        out = IDENTITY
        for x in items:
            out = self.multiply(out, x)
        return out

    # ------------------------------------------------------------------
    # divisibility

    def divides(self, x: Element, a: Element, side: Side) -> Element | None:
        """Quotient q with x*q = a (LEFT) or q*x = a (RIGHT), else None: x's
        letters divided off a one at a time (first to last on the LEFT, last
        to first on the RIGHT), each read off an `atom_quotients` table."""
        if len(x) > len(a):
            return None
        for s in map(ord, x if side is LEFT else reversed(x)):
            a = result_of(self.atom_quotients(a, side)[s])
            if a is None:
                return None
        return a

    def atom_quotients(self, a: Element, side: Side) -> tuple[Element | CapExceeded | None, ...]:
        """For each atom s, in atom order, the q with attach(q, s, side) ==
        a, or None when s does not side-divide a.

        a is a least word, which settles part of the row.  Its first
        letter (LEFT) or last letter (RIGHT) divides it, and the quotient
        is the rest of the word: a suffix or prefix of a least word is
        least (a smaller word for it would make a smaller), so it is
        interned as it is, as `divisors` interns its words.  On
        the LEFT no atom below the first letter divides a, or a would have
        a least word starting with it.  Each other atom is divided off by
        one reversing row (`_peel`) over the other side's store, on the
        mirror image for RIGHT, and its quotient is made canonical.

        Each quotient found is checked once, here, by multiplying it back:
        attach(q, s, side) must be a, else InternalInvariantError.  A row
        reads two reversing stores, the other side's to peel and RIGHT's to
        make quotients canonical, and both are built before anything else.
        A peel charges no reversing_cap, so a row overflows it only when a
        store cannot be built; the row is then that store's CapExceeded in
        every atom's place, for the caller to raise or report at an atom's
        turn, and is not memoised.  Every other row is memoised, and a
        nested reversal past basics_cap raises out of the row (`_cell`)."""
        left = side is LEFT
        tables = self._quotients[left]
        got = tables.get(a)
        if got is not None:
            return got
        n = self.pres.n_atoms
        if not a:  # no atom divides 1, and no reversing table is built
            return tables.setdefault(a, (None,) * n)
        try:  # building a reversing table on first use may overflow
            store = self._store(side.other)
            self._store(RIGHT)
        except CapExceeded as e:
            return (e,) * n
        w = a if left else a[::-1]
        first = ord(w[0])
        memo = self._canon
        out = [None] * n
        for s in range(first if left else 0, n):
            atom = self._atoms[s]
            if s == first:
                least = a[1:] if left else a[:-1]
                q = memo.setdefault(least, least)
            else:
                q = self._peel(store, atom, w)
                if q is None:
                    continue
                q = self.canonical(q if left else q[::-1])
            if self.attach(q, atom, side) != a:
                raise InternalInvariantError(
                    f"{self.word_str(q)} with {self.word_str(atom)} attached "
                    f"on the {side.value} is not {self.word_str(a)}"
                )
            out[s] = q
        return tables.setdefault(a, tuple(out))

    def divisors(self, a: Element, side: Side) -> tuple[Element, ...]:
        """All side-divisors of a, canonical, ordered by (length, word).

        A search over cofactors, one level per divisor length: the
        cofactor of a divisor d is the r with attach(r, d, side) == a, and
        each level maps its cofactors to the least words of their
        divisors.  An atom that side-divides r, with quotient q, makes the
        word w of d one letter longer, w + t on the LEFT and t + w on the
        RIGHT for the atom t, a word of the divisor whose cofactor is q.

        Of the candidates for one q the least is that divisor's canonical
        word.  The monoid is homogeneous, so all words of an element have
        one length, and a prefix (LEFT) or suffix (RIGHT) of a least word
        is the least word of its own element: a smaller word for it would
        make the whole word smaller.  That prefix or suffix is a divisor
        one level down, whose least word is kept there, so the least word
        of the new divisor is one of the candidates, and no candidate is
        less than it.  Hence the search multiplies nothing and calls no
        `canonical`; each word goes into the canonical memo as it is, and
        the sorted words of each level are the (length, word) order.  A
        quotient table holding an overflow raises it at that atom's turn.
        """
        left = side is LEFT
        key = (a, left)
        got = self._divisors.get(key)
        if got is not None:
            return got
        memo = self._canon
        found = [IDENTITY]
        level: dict[Element, Word] = {a: ""}
        while level:
            nxt: dict[Element, Word] = {}
            for r, w in level.items():
                for atom, q in zip(self._atoms, self.atom_quotients(r, side)):
                    if q is None:
                        continue
                    if isinstance(q, CapExceeded):
                        raise q
                    cand = w + atom if left else atom + w
                    least = nxt.get(q)
                    if least is None or cand < least:
                        nxt[q] = cand
            for w in sorted(nxt.values()):
                found.append(memo.setdefault(w, w))
            level = nxt
        out = tuple(found)
        self._divisors[key] = out
        return out

    # ------------------------------------------------------------------
    # gcd

    def gcd(self, a: Element, b: Element, side: Side) -> Element:
        """Greatest common side-divisor.

        An atom that side-divides both a and b divides their gcd, so the
        gcd is that atom attached to the gcd of the two quotients: peel the
        least atom present in both tables until none is left, then attach
        the peeled atoms back.  The cube condition, checked on the atom
        table the quotients are read off, makes the gcd exist.  An
        overflow is raised at its atom's turn.
        """
        peeled = []
        while True:
            qb_all = None
            for s, qa in enumerate(self.atom_quotients(a, side)):
                if result_of(qa) is None:
                    continue
                if qb_all is None:
                    qb_all = self.atom_quotients(b, side)
                qb = result_of(qb_all[s])
                if qb is not None:
                    break
            else:
                break
            peeled.append(self._atoms[s])
            a, b = qa, qb
        g = IDENTITY
        for s in reversed(peeled):
            g = self.attach(g, s, side)
        return g

    # ------------------------------------------------------------------
    # lcm: bounded oracle and reversing

    def multiples(self, a: Element, extra: int, side: Side) -> list[set[Element]]:
        """Distinct side-multiples of a, graded by extension length 0..extra.
        Levels are memoized and extended on demand.  `elements_up_to` (the
        3-Ore scan) and `lcm_oracle` read the levels, and the benchmark's
        span tracer wraps this method by name."""
        levels = self._multiples.setdefault((a, side), [{a}])
        while len(levels) <= extra:
            nxt: set[Element] = set()
            for m in levels[-1]:
                nxt.update(self.attach(m, s, side) for s in self._atoms)
            levels.append(nxt)
        return levels[: extra + 1]

    def lcm_oracle(
        self, a: Element, b: Element, side: Side, slack: int = 2
    ) -> tuple[Element, Element, Element] | None:
        """Least common multiple by brute-force search.

        RIGHT: common right multiples, result (m, compA, compB) with
        m = b*compA = a*compB.  LEFT: common left multiples with
        m = compA*b = compB*a.  Searches lengths up to
        length(a)+length(b)+slack; the first length carrying hits must
        carry exactly one, which is the lcm.  None = nothing in the window.

        Only tests call it, to cross-check `lcm`.  It stays here because
        the benchmark's span tracer (`perfbench/tracing.py`) wraps it by
        name and refuses a name that is missing.
        """
        if len(a) < len(b):
            r = self.lcm_oracle(b, a, side, slack)
            if r is None:
                return None
            return (r[0], r[2], r[1])
        div_side = side.other
        for level in self.multiples(a, len(b) + slack, side):
            hits = sorted(
                (m for m in level if self.divides(b, m, div_side) is not None),
                key=sort_key,
            )
            if hits:
                if len(hits) > 1:
                    raise LatticeViolation(
                        f"two minimal common multiples of {self.word_str(a)} and "
                        f"{self.word_str(b)}: not a gcd-monoid"
                    )
                m = hits[0]
                compA = self.divides(b, m, div_side)
                compB = self.divides(a, m, div_side)
                if compA is None or compB is None:
                    raise InternalInvariantError(
                        f"{self.word_str(m)} is not a common {side.value} multiple of "
                        f"{self.word_str(a)} and {self.word_str(b)}"
                    )
                return (m, compA, compB)
        return None

    def lcm(
        self, a: Element, b: Element, side: Side
    ) -> tuple[Element, Element, Element] | None:
        """Conditional lcm by reversing.

        RIGHT: m = a \\/ b with m = b*compA = a*compB.
        LEFT:  m = a \\/~ b with m = compA*b = compB*a.
        None is a proof that no common multiple exists; cap overflow
        raises, which callers treat as inconclusive.  The equation is
        checked once, when the lcm is memoised: the two products must be
        one element, else InternalInvariantError.
        """
        key = (a, b, side is LEFT)
        got = self._lcm.get(key, _MISSING)
        if got is not _MISSING:
            return got
        r = self._reverse(a, b, side)
        result = None
        if r is not None:
            compA, compB = self.canonical(r[0]), self.canonical(r[1])
            m = self.attach(a, compB, side)
            if m != self.attach(b, compA, side):
                raise InternalInvariantError(
                    f"reversing on the {side.value}: {self.word_str(a)} with "
                    f"{self.word_str(compB)} attached is not {self.word_str(b)} with "
                    f"{self.word_str(compA)} attached"
                )
            result = (m, compA, compB)
        self._lcm[key] = result
        return result

    @functools.cached_property
    def fc(self) -> bool | None:
        """Whether the presentation is Artin-Tits of type FC: every set of
        atoms whose pairs all have relations generates a finite parabolic
        subgroup.  None when the relations are not Artin-Tits
        (`Presentation.coxeter`).

        In an Artin-Tits monoid a set of atoms has a common multiple iff it
        generates a finite parabolic subgroup (Brieskorn-Saito 1972), so
        reversing decides it, with no classification of Coxeter graphs.  A
        subset of such a set is one too, and a pair's relation is its lcm,
        so one RIGHT fold per maximal set of three atoms or more settles
        every set: the set's first atoms have the common multiple m, a
        word, and m followed by the next atom past m is the next one.

        The answer is the presentation's, not a query's: the fold runs in a
        context of its own under no cap, so no cap or memo of this context
        changes it.  Reversing an Artin-Tits presentation ends, and the
        fold reverses words without canonical forms, each step one row per
        letter of m."""
        labels = self.pres.coxeter
        if labels is None:
            return None
        near: dict[int, set[int]] = {s: set() for s in range(self.pres.n_atoms)}
        for s, t in labels:
            near[s].add(t)
            near[t].add(s)
        uncapped = MonoidContext(self.pres, Caps(reversing_cap=sys.maxsize, basics_cap=sys.maxsize))
        for clique in _maximal_cliques(near, [], set(near), set()):
            if len(clique) < 3:
                continue
            m = chr(clique[0])
            for s in clique[1:]:
                r = uncapped._reverse(m, chr(s), RIGHT)
                if r is None:
                    return False
                m += r[1]
        return True

    # ------------------------------------------------------------------
    # basic elements

    def basic_table(self, side: Side) -> BasicTable:
        """The basic elements (the closure of the atoms under complements)
        and the number of ordered pairs of them with no common multiple.
        A worklist: each new basic u is reversed once against itself and
        every earlier one v, and the complements of the pair, made
        canonical, join the basics; they are not kept.

        A pair is reversed one row per letter of u, and a row is a cell:
        the row of u's next letter x against the current top word t (v past
        the letters of u used so far) is the cell (x, t), read off the
        side's store, or reversed by `_cell` under its basics_cap guard and
        stored there for the next pair.  The words of a cell are basic
        elements, so the rows are the store's ordinary cells, and pairs
        whose words start with the same letters read the rows of that
        prefix off the store: the closure costs about one store read per
        letter, not one cell per place of the len(u)*len(v) grid.  A grid
        of at most reversing_cap cells cannot overflow it; a pair whose
        grid could, len(u)*len(v) > reversing_cap, is reversed as a query
        is, cell by cell (`_reverse`).  Every overflow, class and message,
        is then the one that reversing every pair by its grid raises, and
        a test holds the build to that one at tight caps.

        When both sides share one reversing store, as in every Artin-Tits
        monoid (`_store`), reversing a word is an anti-automorphism: a
        LEFT reversal is a RIGHT one of the reversed words, over the same
        store.  So a side's table is the mirror image of the other side's,
        once that one is built (`_mirror_table`).  The mirror is taken
        only where the direct build cannot overflow at these caps, which
        then builds that same table: no pair grid, of at most (C-1)**2
        cells, passes reversing_cap, and neither a nested cell's word, a
        basic element, nor the closure, as large as the other side's,
        passes basics_cap."""
        got = self._tables.get(side)
        if got is not None:
            return got
        store = self._store(side)  # a bad atom table is refused before anything else
        other = self._tables.get(side.other)
        if (
            other is not None
            and self._stores[0] is self._stores[1]
            and (other.C - 1) ** 2 <= self.caps.reversing_cap
            and max(other.C - 1, len(other.basics)) <= self.caps.basics_cap
        ):
            return self._tables.setdefault(side, self._mirror_table(other))
        canon = self._canon
        flip = slice(None, None, -1 if side is LEFT else 1)  # LEFT reverses mirror images
        cap = self.caps.reversing_cap
        basics = [IDENTITY, *self.atoms()]
        known = set(basics)
        no_multiple = 0
        for k, u in enumerate(basics):  # grows while it is walked
            a = u[flip]
            for v in basics[: k + 1]:
                if len(a) * len(v) > cap:
                    r = self._reverse(u, v, side)
                else:  # one row, one cell of the store, per letter of a
                    ends, t = "", v[flip]
                    for x in a:
                        r = store.get((x, t), _MISSING)
                        if r is _MISSING:
                            if not t or x == t:  # trivial: x passes, or both are used up
                                r = ("" if t else x, "")
                            else:
                                r = self._cell(store, x, t, set())
                        if r is None:
                            break
                        e, t = r
                        ends += e
                    else:
                        r = ends[flip], t[flip]
                if r is None:  # (u, v) and (v, u): u != v, as u is a multiple of u
                    no_multiple += 2
                    continue
                for w in r:
                    c = canon.get(w) or self.canonical(w)
                    if c not in known:
                        known.add(c)
                        basics.append(c)
                if len(basics) > self.caps.basics_cap:
                    raise self._basics_exceeded()
        table = BasicTable(
            side=side,
            basics=tuple(sorted(basics, key=sort_key)),
            no_multiple=no_multiple,
        )
        self._tables[side] = table
        return table

    def _mirror_table(self, table: BasicTable) -> BasicTable:
        """`table` read on the other side: each basic x as canonical(x
        reversed), and the same count of pairs with no common multiple,
        since reversal maps the pair (u, v) to a pair of mirror images."""
        return BasicTable(
            side=table.side.other,
            basics=tuple(sorted((self.canonical(x[::-1]) for x in table.basics), key=sort_key)),
            no_multiple=table.no_multiple,
        )

    def _basics_exceeded(self) -> BasicsCapExceeded:
        return BasicsCapExceeded(
            f"basic-element closure exceeds basics_cap={self.caps.basics_cap}; "
            "finiteness not witnessed"
        )

    # ------------------------------------------------------------------
    # enumeration and bounds

    def elements_up_to(self, max_length: int) -> list[Element]:
        """All elements of length <= max_length, ordered by (length, word):
        the right multiples of 1 up to that length."""
        levels = self.multiples(IDENTITY, max_length, RIGHT)
        return sorted(set().union(*levels), key=sort_key)

    def basic_bound_C(self) -> int:
        """1 + max length over basic elements (either side)."""
        return max(self.basic_table(RIGHT).C, self.basic_table(LEFT).C)


def _maximal_cliques(near: dict[int, set[int]], clique: list[int], room: set[int], done: set[int]):
    """The maximal cliques of the graph `near` that extend `clique` by
    vertices of `room` and by none of `done` (Bron-Kerbosch), each a list
    of increasing vertices.  Only vertices that the pivot, the vertex with
    the most neighbours in `room`, does not neighbour start a branch, so a
    complete graph takes one branch per level, not one per subset."""
    if not room and not done:
        yield sorted(clique)
        return
    pivot = max(room | done, key=lambda u: len(room & near[u]))
    for v in sorted(room - near[pivot]):
        yield from _maximal_cliques(near, [*clique, v], room & near[v], done & near[v])
        room = room - {v}
        done = done | {v}
