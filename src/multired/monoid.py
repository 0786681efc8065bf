"""Exact arithmetic in a homogeneous gcd-monoid, on one engine: word
reversing over a complement table (Dehornoy, "Complete positive group
presentations", J. Algebra 2003).

Reversing a word a against a word b gives (a past b, b past a), the words
that extend b and a to their lcm, or None when there is no common
multiple.  A grid cell not yet in the table is reversed letter by letter
and stored (the iterated-lcm rule); a cell met again inside its own
reversal has no common multiple.  Cells are basic elements, a finite set
in Artin-Tits monoids (Dehornoy-Dyer-Hohlweg, "Garside families in
Artin-Tits monoids and low elements in Coxeter groups", 2015).  The atom
table is read off the relations: the presentation is complemented, so the
relation whose sides start (RIGHT) or end (LEFT) with atoms u and v is
their lcm, and a pair no relation covers has no common multiple.
Reversing is exact when it is complete, which for homogeneous
presentations is the cube condition on atom triples; a side's table is
checked on first use, unless it equals the other side's checked table,
and a failure raises LatticeViolation.

An atom s left-divides w exactly when reversing s against w leaves s
nothing to add; what is left of w is the quotient.  That reversing row
(`_peel`) reads the table one atom at a time, as a state machine: each
state, what is left of s, is a basic word interned once as an int, and a
cell is a list lookup.  An element is represented by its lexicographically
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
moves of `reduction` rest on them and multiply nothing back.  `lcm_oracle`
is a brute-force search kept for the tests to cross-check `lcm` against;
nothing in the package calls it.  The breadth-first search it rests on,
`multiples`, also lists the elements up to a length (`elements_up_to`).

A cap overflow is a CapExceeded and nothing else: raised by the
computation that overflows, or held as a value where outcomes are kept
for the caller to raise or report at their turn (`result_of`).  So an lcm
is a tuple (the common multiple), None (a proof that there is none), or
a raised CapExceeded (unknown), which callers report as inconclusive,
never as a no.

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

import itertools
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .presentation import Presentation, format_word, parse_word, validate

Word = tuple[int, ...]
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


class Element(NamedTuple):
    """A monoid element, by its least word.  A tuple type so that it hashes
    and compares in C, as every memo, graph and closure key does; the
    tuple is for hashing and equality only, and no code treats an element
    as a sequence.  Its hash is hash((word,)), on which set and dict
    iteration order depend."""

    word: Word

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def sort_key(self) -> tuple[int, Word]:
        return (len(self.word), self.word)


IDENTITY = Element(())


@dataclass(frozen=True)
class Caps:
    reversing_cap: int = 10_000
    basics_cap: int = 5_000
    graph_node_cap: int = 50_000


@dataclass(frozen=True)
class BasicTable:
    side: Side
    basics: tuple[Element, ...]
    # complement[(u, v)] = the residue of u past v:
    #   RIGHT: u \/ v = v * comp(u,v)      LEFT: u \/~ v = comp(u,v) * v
    complement: dict[tuple[Element, Element], Element]
    no_multiple: frozenset[tuple[Element, Element]]

    @property
    def C(self) -> int:
        return 1 + max(b.length for b in self.basics)


def _concat(words) -> Word:
    return tuple(itertools.chain.from_iterable(words))


def result_of(outcome):
    """The result an outcome stands for: the outcome itself, unless it is
    the CapExceeded of a computation that overflowed, which is raised.
    `atom_quotients` and the move enumeration of `reduction` hold such
    outcomes, so that an overflow is raised or reported at its turn."""
    if isinstance(outcome, CapExceeded):
        raise outcome
    return outcome


class _Rows:
    """One side's reversing store as `_peel` reads it: a state machine over
    interned states.

    A state is what is left of the atom being peeled, a basic word.  It
    gets an int id once, each atom its own index, and -1 is the empty word
    (the atom is used up).  next[x][t] is the cell of state x and atom t
    as (the id of x past t, t past x), None when they have no common
    multiple, or _MISSING until `MonoidContext._fill` reads it.  The store
    stays the only source of truth: every transition is a copy of one of
    its cells, so reversing_cap counts what it counted before."""

    __slots__ = ("store", "n_atoms", "words", "ids", "next", "_lock")

    def __init__(self, store: dict[tuple[Word, Word], Reversal], n_atoms: int):
        self.store, self.n_atoms = store, n_atoms
        self.words: list[Word] = [(s,) for s in range(n_atoms)]
        self.ids: dict[Word, int] = {w: s for s, w in enumerate(self.words)}
        self.next: list[list] = [[_MISSING] * n_atoms for _ in self.words]
        self._lock = threading.Lock()  # an id is handed out once

    def intern(self, word: Word) -> int:
        if not word:
            return -1
        got = self.ids.get(word)
        if got is None:
            with self._lock:
                got = self.ids.get(word)
                if got is None:
                    self.words.append(word)
                    self.next.append([_MISSING] * self.n_atoms)
                    got = self.ids[word] = len(self.words) - 1
        return got


class MonoidContext:
    def __init__(self, pres: Presentation, caps: Caps | None = None):
        self.pres = validate(pres)
        self.caps = caps or Caps()
        self._atoms = tuple(Element((i,)) for i in range(pres.n_atoms))
        self._canon: dict[Word, Element] = {(): IDENTITY}
        # the per-side memos below that a hot path reads are indexed by
        # `side is LEFT`, not keyed by the Side, whose hash runs in Python.
        # The atom-quotient tables, one dict per side keyed by the word:
        # every level of every enumerated node looks one up
        self._quotients: tuple[dict[Word, tuple[Element | None, ...]], ...] = ({}, {})
        self._lcm: dict[tuple[Word, Word, bool], tuple[Element, Element, Element] | None] = {}
        self._divisors: dict[tuple[Word, bool], tuple[Element, ...]] = {}
        self._tables: dict[Side, BasicTable] = {}
        # per side, the reversing table: (x, t) -> (x past t, t past x) | None
        self._stores: list[dict[tuple[Word, Word], Reversal] | None] = [None, None]
        # per side whose cube check passed, a copy of its store as the check
        # left it
        self._checked: dict[Side, dict[tuple[Word, Word], Reversal]] = {}
        # per side, its store's peeling rows over interned states
        self._row_index: list[_Rows | None] = [None, None]
        self._multiples: dict[tuple[Word, Side], list[set[Element]]] = {}

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

        The check reads nothing but the atom table and the caps.  So when a
        side's atom table equals that of the other side, whose check
        passed, as it does in every Artin-Tits monoid (each relation reads
        as itself, or with its sides swapped, backwards), the side starts
        from a copy of the other side's store as the check left it and runs
        no check.  A copy, not the other side's live store: reversing_cap
        counts only the cells a store lacks, so a shared store would let
        one side's reversals change whether the other's overflow."""
        store = self._stores[side is LEFT]
        if store is None:
            store = self._atom_store(side)
            mirror = self._checked.get(side.other)
            if mirror is not None and store == self._atom_store(side.other):
                store = dict(mirror)
            else:
                self._check_cube(side, store)
                self._checked[side] = dict(store)
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

        n = self.pres.n_atoms
        for r, s in itertools.combinations(range(n), 2):
            if store.get(((r,), (s,))) is None:
                continue
            for t in range(n):
                if t == r or t == s:
                    continue
                one = under(under((r,), (s,)), under((r,), (t,)))
                two = under(under((s,), (r,)), under((s,), (t,)))
                if (one is None) != (two is None) or (
                    one is not None and self._right_reverse(store, one, two) != ((), ())
                ):
                    names = ", ".join(format_word(self.pres, (x,)) for x in (r, s, t))
                    raise LatticeViolation(
                        f"cube condition fails on atoms ({names}) for the {side.value} "
                        "complement: word reversing is incomplete; add the relations "
                        "for the missing atom lcms"
                    )

    def _right_reverse(self, store, a: Word, b: Word, stack=None) -> Reversal:
        """Reverse a against b to the right over `store`: b*(a past b) =
        a*(b past a) is their lcm.  One row per letter of a, one cell per
        letter of b; reversing_cap bounds the cells of one call, a cell
        whose row is used up included (a nested reversal counts its own)."""
        if stack is None:
            stack = set()
        cells, cap = 0, self.caps.reversing_cap
        top = [(t,) for t in b]
        ends = []
        for s in a:
            x = (s,)
            for j, t in enumerate(top):
                cells += 1
                if cells > cap:
                    raise ReversingCapExceeded(f"reversing exceeded {cap} cell fills")
                r = self._cell(store, x, t, stack)
                if r is None:
                    return None
                x, top[j] = r
            ends.append(x)
        return _concat(ends), _concat(top)

    def _cell(self, store, x: Word, t: Word, stack: set) -> Reversal:
        """One grid cell: (x past t, t past x) from the table, or reversed
        letter by letter and stored.

        Every sub-lcm of an existing lcm exists and spans a strictly
        shorter segment of its reversing diagram, so the recursion ends
        whenever the lcm exists; a pair met again while it is being
        reversed (`stack`) therefore has no common multiple.
        """
        if not x or not t:
            return x, t
        if x == t:
            return (), ()
        got = store.get((x, t), _MISSING)
        if got is _MISSING:
            if len(x) == len(t) == 1 or (x, t) in stack or (t, x) in stack:
                got = None
            else:
                stack.add((x, t))
                try:
                    got = self._right_reverse(store, x, t, stack)
                finally:
                    stack.discard((x, t))
            store[(x, t)] = got
            store[(t, x)] = None if got is None else (got[1], got[0])
        return got

    def _rows(self, side: Side) -> _Rows:
        """The peeling rows of a side's reversing store (see `_Rows`),
        built with the store on first use."""
        rows = self._row_index[side is LEFT]
        if rows is None:
            rows = self._row_index[side is LEFT] = _Rows(self._store(side), self.pres.n_atoms)
        return rows

    def _peel(self, rows: _Rows, s: int, w: Word) -> Word | None:
        """The quotient q with s*q = w over the store of `rows`, or None
        when the atom s does not divide w: one reversing row of s against
        w, read one state transition per letter.

        The row stops at the letter where s is used up; what it has
        collected, followed by the rest of w, is q.  reversing_cap bounds
        the cells of the row up to that letter (a nested reversal counts
        its own)."""
        cap = self.caps.reversing_cap
        nxt = rows.next
        x, out = s, []
        for j, t in enumerate(w):
            if j >= cap:
                raise ReversingCapExceeded(f"reversing exceeded {cap} cell fills")
            r = nxt[x][t]
            if r is _MISSING:
                r = self._fill(rows, x, t)
            if r is None:
                return None
            x, c = r
            out.append(c)
            if x < 0:
                return _concat(out) + w[j + 1 :]
        return None

    def _fill(self, rows: _Rows, x: int, t: int) -> tuple[int, Word] | None:
        """The transition of state x by atom t, read off the store's cell,
        or reversed by `_cell` and stored there when the store lacks it."""
        r = self._cell(rows.store, rows.words[x], (t,), set())
        if r is not None:
            rest, c = r
            r = (rows.intern(rest), c)
        rows.next[x][t] = r
        return r

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
        The first letter always divides, so only smaller atoms are tried."""
        memo = self._canon
        cached = memo.get(word)
        if cached is not None:
            return cached
        n_atoms = self.pres.n_atoms
        for i in word:
            if not 0 <= i < n_atoms:
                raise MultiredError(f"atom index {i} outside presentation")
        rows = self._rows(RIGHT)
        peeled = []
        rest = word
        while rest not in memo:
            for s in range(rest[0]):
                q = self._peel(rows, s, rest)
                if q is not None:
                    break
            else:
                s, q = rest[0], rest[1:]
            peeled.append((rest, s))
            rest = q
        elem = memo[rest]
        for w, s in reversed(peeled):
            least = (s,) + elem.word
            elem = memo.get(least)
            if elem is None:
                elem = memo[least] = Element(least)
            memo[w] = elem
        return elem

    def element(self, text: str) -> Element:
        return self.canonical(parse_word(self.pres, text))

    def word_str(self, x: Element) -> str:
        return format_word(self.pres, x.word)

    def multiply(self, x: Element, y: Element) -> Element:
        xw, yw = x.word, y.word
        z = self.canonical(xw + yw)
        if len(z.word) != len(xw) + len(yw):
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
        xw = x.word
        if len(xw) > len(a.word):
            return None
        for s in xw if side is LEFT else reversed(xw):
            a = result_of(self.atom_quotients(a, side)[s])
            if a is None:
                return None
        return a

    def atom_quotients(self, a: Element, side: Side) -> tuple[Element | CapExceeded | None, ...]:
        """For each atom s, in atom order, the q with attach(q, s, side) ==
        a, or None when s does not side-divide a.

        a's word is its least word, which settles part of the row.  Its
        first letter (LEFT) or last letter (RIGHT) divides it, and the
        quotient is the rest of the word: a suffix or prefix of a least
        word is least (a smaller word for it would make a's word smaller),
        so it is interned as it is, as `divisors` interns its words.  On
        the LEFT no atom below the first letter divides a, or a would have
        a least word starting with it.  Each other atom is divided off by
        one reversing row (`_peel`) over the other side's table, on the
        mirror image for RIGHT, and its quotient is made canonical.

        Each quotient found is checked once, here, by multiplying it back:
        attach(q, s, side) must be a, else InternalInvariantError.  A row
        that overflows a cap, while dividing or while checking, leaves its
        CapExceeded in that atom's place, for the caller to raise or report
        at that atom's turn, and a table holding one is not memoised; when
        the other side's table overflows as it is built, its overflow sits
        in every atom's place."""
        left = side is LEFT
        word = a.word
        tables = self._quotients[left]
        got = tables.get(word)
        if got is not None:
            return got
        n = self.pres.n_atoms
        if not word:  # no atom divides 1, and no reversing table is built
            return tables.setdefault(word, (None,) * n)
        try:  # building the reversing table on first use may overflow
            rows = self._rows(side.other)
        except CapExceeded as e:
            return (e,) * n
        w = word if left else word[::-1]
        first = w[0]
        memo = self._canon
        out, complete = [None] * n, True
        for s in range(first if left else 0, n):
            atom = self._atoms[s]
            try:
                if s == first:
                    least = word[1:] if left else word[:-1]
                    q = memo.get(least)
                    if q is None:
                        q = memo[least] = Element(least)
                else:
                    q = self._peel(rows, s, w)
                    if q is None:
                        continue
                    q = self.canonical(q if left else q[::-1])
                if self.attach(q, atom, side) != a:
                    raise InternalInvariantError(
                        f"{self.word_str(q)} with {self.word_str(atom)} attached "
                        f"on the {side.value} is not {self.word_str(a)}"
                    )
            except CapExceeded as e:
                q, complete = e, False
            out[s] = q
        table = tuple(out)
        if complete:
            tables[word] = table
        return table

    def divisors(self, a: Element, side: Side) -> tuple[Element, ...]:
        """All side-divisors of a, canonical, ordered by (length, word).

        A search over cofactors, one level per divisor length: the
        cofactor of a divisor d is the r with attach(r, d, side) == a, and
        each level maps its cofactors to the least words of their
        divisors.  An atom t that side-divides r, with quotient q, makes
        the word w of d one letter longer, w + (t,) on the LEFT and
        (t,) + w on the RIGHT, a word of the divisor whose cofactor is q.

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
        key = (a.word, left)
        got = self._divisors.get(key)
        if got is not None:
            return got
        memo = self._canon
        found = [IDENTITY]
        level: dict[Element, Word] = {a: ()}
        while level:
            nxt: dict[Element, Word] = {}
            for r, w in level.items():
                for t, q in enumerate(self.atom_quotients(r, side)):
                    if q is None:
                        continue
                    if isinstance(q, CapExceeded):
                        raise q
                    cand = w + (t,) if left else (t,) + w
                    least = nxt.get(q)
                    if least is None or cand < least:
                        nxt[q] = cand
            for w in sorted(nxt.values()):
                d = memo.get(w)
                if d is None:
                    d = memo[w] = Element(w)
                found.append(d)
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
            for s, qa in zip(self._atoms, self.atom_quotients(a, side)):
                if result_of(qa) is None:
                    continue
                if qb_all is None:
                    qb_all = self.atom_quotients(b, side)
                qb = result_of(qb_all[s.word[0]])
                if qb is not None:
                    break
            else:
                break
            peeled.append(s)
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
        levels = self._multiples.setdefault((a.word, side), [{a}])
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
        if a.length < b.length:
            r = self.lcm_oracle(b, a, side, slack)
            if r is None:
                return None
            return (r[0], r[2], r[1])
        div_side = side.other
        for level in self.multiples(a, b.length + slack, side):
            hits = sorted(
                (m for m in level if self.divides(b, m, div_side) is not None),
                key=Element.sort_key,
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
        key = (a.word, b.word, side is LEFT)
        got = self._lcm.get(key, _MISSING)
        if got is not _MISSING:
            return got
        r = self._reverse(a.word, b.word, side)
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

    # ------------------------------------------------------------------
    # basic elements

    def basic_table(self, side: Side) -> BasicTable:
        """The basic elements (the closure of the atoms under complements)
        and the complements of every pair of them.  A worklist: each new
        basic is reversed once against itself and every earlier one."""
        got = self._tables.get(side)
        if got is not None:
            return got
        self._store(side)  # a bad atom table is refused before anything else
        basics = [IDENTITY, *self.atoms()]
        known = set(basics)
        complement: dict[tuple[Element, Element], Element] = {}
        no_multiple: set[tuple[Element, Element]] = set()
        for k, u in enumerate(basics):  # grows while it is walked
            for v in basics[: k + 1]:
                r = self._reverse(u.word, v.word, side)
                if r is None:
                    no_multiple.update(((u, v), (v, u)))
                    continue
                cu, cv = self.canonical(r[0]), self.canonical(r[1])
                complement[(u, v)], complement[(v, u)] = cu, cv
                for c in (cu, cv):
                    if c not in known:
                        known.add(c)
                        basics.append(c)
                if len(basics) > self.caps.basics_cap:
                    raise BasicsCapExceeded(
                        f"basic-element closure exceeds basics_cap="
                        f"{self.caps.basics_cap}; finiteness not witnessed"
                    )
        table = BasicTable(
            side=side,
            basics=tuple(sorted(basics, key=Element.sort_key)),
            complement=complement,
            no_multiple=frozenset(no_multiple),
        )
        self._tables[side] = table
        return table

    # ------------------------------------------------------------------
    # enumeration and bounds

    def elements_up_to(self, max_length: int) -> list[Element]:
        """All elements of length <= max_length, ordered by (length, word):
        the right multiples of 1 up to that length."""
        levels = self.multiples(IDENTITY, max_length, RIGHT)
        return sorted(set().union(*levels), key=Element.sort_key)

    def basic_bound_C(self) -> int:
        """1 + max length over basic elements (either side)."""
        return max(self.basic_table(RIGHT).C, self.basic_table(LEFT).C)
