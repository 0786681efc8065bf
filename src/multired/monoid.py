"""Exact arithmetic in a homogeneous gcd-monoid.

Elements are represented by the lexicographically least word of their
rewrite-equivalence class (atom order = declaration order).  Homogeneity
makes every class finite, so breadth-first closure of a word under
single-relation rewrites decides equality; the closure runs on byte
strings (one byte per atom, hence at most 256 atoms), whose order is the
order of the atom tuples.  Divisibility peels boundary atoms off rewrite
classes, and gcds are computed by dividing out joins of common boundary
atoms.

Conditional lcms are computed by grid reversing against a table of basic
elements (the closure of the atoms under lcm-complement).  The presentation
is complemented: the relation whose two sides start (RIGHT) or end (LEFT)
with two atoms u and v is their lcm, so the atom table is read off the
relations, and a pair no relation covers has no common multiple.  That
reading is exact when word reversing is complete, which for homogeneous
presentations is the cube condition on atom triples (Dehornoy, "Complete
positive group presentations", J. Algebra 2003); `basic_table` checks it
and raises LatticeViolation when it fails.  Complements of longer basics
follow from the atom table by the iterated-lcm recursion.  `lcm_oracle`,
`multiples` and `divides_scan` are brute-force searches kept for the tests
to cross-check against; nothing in the package calls them.

Everything is cached in a MonoidContext.  Caches are pure-function memos
(same key, same value), so concurrent reads plus idempotent concurrent
inserts are safe; build the basic tables before sharing a context across
workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .presentation import Presentation, format_word, parse_word

Word = tuple[int, ...]


class MultiredError(Exception):
    pass


class CapExceeded(MultiredError):
    cap = ""  # the Caps field that overflowed


class ClassCapExceeded(CapExceeded):
    cap = "class_cap"


class ReversingCapExceeded(CapExceeded):
    cap = "reversing_cap"


class BasicsCapExceeded(CapExceeded):
    cap = "basics_cap"


class GraphNodeCapExceeded(CapExceeded):
    cap = "graph_node_cap"


class LatticeViolation(MultiredError):
    """The presentation does not define a gcd-monoid (incomparable maximal
    common divisors, or common multiples without a least one)."""


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class TriState(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Element:
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
    class_cap: int = 200_000
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


MAX_ATOMS = 256  # rewrite classes are closed on byte strings, one byte per atom


class MonoidContext:
    def __init__(self, pres: Presentation, caps: Caps | None = None):
        if pres.n_atoms > MAX_ATOMS:
            raise MultiredError(
                f"{pres.n_atoms} atoms: at most {MAX_ATOMS} are supported"
            )
        self.pres = pres
        self.caps = caps or Caps()
        self._rules: list[tuple[bytes, bytes]] = []
        for lhs, rhs in pres.relations:
            self._rules.append((bytes(lhs), bytes(rhs)))
            self._rules.append((bytes(rhs), bytes(lhs)))
        self._canon: dict[Word, Element] = {(): IDENTITY}
        self._class: dict[Element, frozenset[Word]] = {IDENTITY: frozenset({()})}
        self._divides: dict[tuple[Word, Word, Side], Element | None] = {}
        self._gcd: dict[tuple[Word, Word, Side], Element] = {}
        self._lcm: dict[tuple[Word, Word, Side], tuple[Element, Element, Element] | None] = {}
        self._divisors: dict[tuple[Word, Side], tuple[Element, ...]] = {}
        self._tables: dict[Side, BasicTable] = {}
        # live complement caches shared with the tables (idempotent inserts)
        self._comp: dict[Side, dict[tuple[Element, Element], Element]] = {}
        self._absent: dict[Side, set[tuple[Element, Element]]] = {}
        self._multiples: dict[tuple[Word, Side], list[set[Element]]] = {}
        self._bound_C: int | None = None

    # ------------------------------------------------------------------
    # canonical forms

    def atoms(self) -> tuple[Element, ...]:
        return tuple(Element((i,)) for i in range(self.pres.n_atoms))

    def canonical(self, word: Word) -> Element:
        cached = self._canon.get(word)
        if cached is not None:
            return cached
        for i in word:
            if not 0 <= i < self.pres.n_atoms:
                raise MultiredError(f"atom index {i} outside presentation")
        start = bytes(word)
        seen = {start}
        found = [start]  # discovery order: a bytes set iterates in a per-process order
        frontier = [start]
        while frontier:
            if len(seen) > self.caps.class_cap:
                raise ClassCapExceeded(
                    f"rewrite class of a length-{len(word)} word exceeds "
                    f"class_cap={self.caps.class_cap}"
                )
            nxt = []
            for w in frontier:
                for lhs, rhs in self._rules:
                    pos = w.find(lhs)
                    while pos >= 0:
                        w2 = w[:pos] + rhs + w[pos + len(lhs):]
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
                        pos = w.find(lhs, pos + 1)
            found += nxt
            frontier = nxt
        cls = frozenset(map(tuple, found))
        elem = Element(tuple(min(found)))
        self._class[elem] = cls
        self._canon.update(dict.fromkeys(cls, elem))
        return elem

    def class_of(self, x: Element) -> frozenset[Word]:
        got = self._class.get(x)
        if got is None:
            x = self.canonical(x.word)
            got = self._class[x]
        return got

    def element(self, text: str) -> Element:
        return self.canonical(parse_word(self.pres, text))

    def word_str(self, x: Element) -> str:
        return format_word(self.pres, x.word)

    def multiply(self, x: Element, y: Element) -> Element:
        z = self.canonical(x.word + y.word)
        assert z.length == x.length + y.length, "length must be additive"
        return z

    def product(self, items) -> Element:
        out = IDENTITY
        for x in items:
            out = self.multiply(out, x)
        return out

    # ------------------------------------------------------------------
    # divisibility

    def boundary_atoms(self, x: Element, side: Side) -> frozenset[int]:
        """Atoms that begin (LEFT) or end (RIGHT) some word of x's class."""
        cls = self.class_of(x)
        if side is Side.LEFT:
            return frozenset(w[0] for w in cls if w)
        return frozenset(w[-1] for w in cls if w)

    def divides(self, x: Element, a: Element, side: Side) -> Element | None:
        """Quotient q with x*q = a (LEFT) or q*x = a (RIGHT), else None.

        Peels one boundary atom of x at a time; cancellativity (part of the
        gcd-monoid assumption) makes the atom quotient unique, so following
        a single class word is enough.  `divides_scan` is the slow oracle
        twin used by the tests.
        """
        if x.is_identity:
            return a
        if x.length > a.length:
            return None
        key = (x.word, a.word, side)
        if key in self._divides:
            return self._divides[key]
        if side is Side.LEFT:
            s = x.word[0]
            rest = self.canonical(x.word[1:])
        else:
            s = x.word[-1]
            rest = self.canonical(x.word[:-1])
        result: Element | None = None
        for w in self.class_of(a):
            if side is Side.LEFT and w[0] == s:
                result = self.divides(rest, self.canonical(w[1:]), side)
                break
            if side is Side.RIGHT and w[-1] == s:
                result = self.divides(rest, self.canonical(w[:-1]), side)
                break
        self._divides[key] = result
        return result

    def divides_scan(self, x: Element, a: Element, side: Side) -> Element | None:
        """Divisibility by direct prefix/suffix scan of the rewrite class."""
        if x.length > a.length:
            return None
        k = x.length
        for w in self.class_of(a):
            if side is Side.LEFT:
                head, tail = w[:k], w[k:]
            else:
                head, tail = w[len(w) - k:], w[:len(w) - k]
            if self.canonical(head) == x:
                return self.canonical(tail)
        return None

    def divisors(self, a: Element, side: Side) -> tuple[Element, ...]:
        """All side-divisors of a, canonical, ordered by (length, word)."""
        key = (a.word, side)
        got = self._divisors.get(key)
        if got is not None:
            return got
        found: set[Element] = set()
        for w in self.class_of(a):
            for k in range(len(w) + 1):
                piece = w[:k] if side is Side.LEFT else w[len(w) - k:]
                found.add(self.canonical(piece))
        out = tuple(sorted(found, key=Element.sort_key))
        self._divisors[key] = out
        return out

    # ------------------------------------------------------------------
    # gcd

    def gcd(self, a: Element, b: Element, side: Side) -> Element:
        """Greatest common side-divisor.

        The join (conditional lcm) of the common boundary atoms divides
        both arguments; divide it out and recurse.  In a gcd-monoid the
        join always exists and the result is the unique maximal common
        divisor; a failure raises LatticeViolation.
        """
        if a.is_identity or b.is_identity:
            return IDENTITY
        key = (a.word, b.word, side) if a.word <= b.word else (b.word, a.word, side)
        got = self._gcd.get(key)
        if got is not None:
            return got
        common = sorted(self.boundary_atoms(a, side) & self.boundary_atoms(b, side))
        if not common:
            result = IDENTITY
        else:
            m = Element((common[0],))
            join_side = Side.RIGHT if side is Side.LEFT else Side.LEFT
            for s in common[1:]:
                r = self.lcm(m, Element((s,)), join_side)
                if r is None:
                    raise LatticeViolation(
                        "common divisors without a join: not a gcd-monoid"
                    )
                m = r[0]
            qa = self.divides(m, a, side)
            qb = self.divides(m, b, side)
            if qa is None or qb is None:
                raise LatticeViolation(
                    "join of common divisors fails to divide: not a gcd-monoid"
                )
            sub = self.gcd(qa, qb, side)
            result = self.multiply(m, sub) if side is Side.LEFT else self.multiply(sub, m)
        self._gcd[key] = result
        return result

    # ------------------------------------------------------------------
    # lcm: bounded oracle and grid reversing

    def multiples(self, a: Element, extra: int, side: Side) -> list[set[Element]]:
        """Distinct side-multiples of a, graded by extension length 0..extra.
        Levels are memoized and extended on demand."""
        levels = self._multiples.setdefault((a.word, side), [{a}])
        while len(levels) <= extra:
            nxt: set[Element] = set()
            for m in levels[-1]:
                for i in range(self.pres.n_atoms):
                    if side is Side.RIGHT:
                        nxt.add(self.canonical(m.word + (i,)))
                    else:
                        nxt.add(self.canonical((i,) + m.word))
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
        """
        if a.length < b.length:
            r = self.lcm_oracle(b, a, side, slack)
            if r is None:
                return None
            return (r[0], r[2], r[1])
        div_side = Side.LEFT if side is Side.RIGHT else Side.RIGHT
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
                assert compA is not None and compB is not None
                return (m, compA, compB)
        return None

    # ------------------------------------------------------------------
    # basic elements

    def basic_table(self, side: Side) -> BasicTable:
        got = self._tables.get(side)
        if got is not None:
            return got
        comp, absent = self._atom_table(side)
        self._check_cube(side, comp, absent)
        self._comp[side] = comp
        self._absent[side] = absent
        basics: set[Element] = {IDENTITY, *self.atoms()}
        changed = True
        while changed:
            changed = False
            for u, v in itertools.product(sorted(basics, key=Element.sort_key), repeat=2):
                if (u, v) in comp or (u, v) in absent:
                    continue
                r = self._grid(u, v, side, comp, absent)
                changed = True
                if r is None:
                    absent.add((u, v))
                else:
                    comp[(u, v)] = r[1]
            fresh = {w for (u, v), w in comp.items() if u in basics and v in basics}
            if not fresh <= basics:
                basics |= fresh
                changed = True
                if len(basics) > self.caps.basics_cap:
                    raise BasicsCapExceeded(
                        f"basic-element closure exceeds basics_cap="
                        f"{self.caps.basics_cap}; finiteness not witnessed"
                    )
        table = BasicTable(
            side=side,
            basics=tuple(sorted(basics, key=Element.sort_key)),
            complement=comp,
            no_multiple=frozenset(absent),
        )
        self._tables[side] = table
        return table

    def _atom_table(
        self, side: Side
    ) -> tuple[dict[tuple[Element, Element], Element], set[tuple[Element, Element]]]:
        """Complements of atom pairs, read off the relations.

        RIGHT: a relation u*x = v*y is the lcm of u and v, so
        comp(u,v) = y and comp(v,u) = x.  LEFT: x*u = y*v gives the same.
        A pair no relation covers has no common multiple.
        """
        comp: dict[tuple[Element, Element], Element] = {(IDENTITY, IDENTITY): IDENTITY}
        atoms = self.atoms()
        for u in atoms:
            comp[(IDENTITY, u)] = IDENTITY
            comp[(u, IDENTITY)] = u
            comp[(u, u)] = IDENTITY
        if side is Side.RIGHT:
            k, rest, verb = 0, slice(1, None), "start"
        else:
            k, rest, verb = -1, slice(-1), "end"
        for lhs, rhs in self.pres.relations:
            u, v = Element((lhs[k],)), Element((rhs[k],))
            rel = f"{format_word(self.pres, lhs)} = {format_word(self.pres, rhs)}"
            if u == v:
                raise LatticeViolation(
                    f"both sides of {rel} {verb} with {self.word_str(u)}: "
                    f"no {side.value} complement for the relation"
                )
            if (u, v) in comp:
                raise LatticeViolation(
                    f"{rel} and another relation both {verb} with "
                    f"{self.word_str(u)} and {self.word_str(v)}"
                )
            comp[(u, v)] = self.canonical(rhs[rest])
            comp[(v, u)] = self.canonical(lhs[rest])
        absent = {(u, v) for u in atoms for v in atoms if (u, v) not in comp}
        return comp, absent

    def _check_cube(
        self,
        side: Side,
        comp: dict[tuple[Element, Element], Element],
        absent: set[tuple[Element, Element]],
    ) -> None:
        """Raise LatticeViolation unless word reversing over the atom table
        is complete.

        For a homogeneous complemented presentation that is the cube
        condition on atoms: for distinct r, s, t, (r\\s)\\(r\\t) and
        (s\\r)\\(s\\t) are both undefined or both defined and equal, where
        x\\y extends x to the lcm of x and y (on the left for LEFT).
        The reversals fill copies, so the table is left as read.
        """
        comp, absent = dict(comp), set(absent)

        def past(x: Element | None, y: Element | None) -> Element | None:
            if x is None or y is None:
                return None
            r = self._grid(x, y, side, comp, absent)
            return None if r is None else r[2]

        for r, s, t in itertools.permutations(self.atoms(), 3):
            one = past(past(r, s), past(r, t))
            two = past(past(s, r), past(s, t))
            if one != two:
                names = ", ".join(self.word_str(x) for x in (r, s, t))
                raise LatticeViolation(
                    f"cube condition fails on atoms ({names}) for the {side.value} "
                    "complement: word reversing is incomplete; add the relations "
                    "for the missing atom lcms"
                )

    def _grid(
        self,
        a: Element,
        b: Element,
        side: Side,
        comp: dict[tuple[Element, Element], Element],
        absent: set[tuple[Element, Element]],
        stack: set[tuple[Element, Element]] | None = None,
    ) -> tuple[Element, Element, Element] | None:
        """Grid reversing of a against b over a complement table.

        Cell pairs not yet in the table are resolved recursively letter by
        letter (the iterated-lcm rule), so the atom-level table suffices to
        bootstrap.  Returns (m, compA, compB) with the lcm_oracle
        conventions, or None when some cell pair has no common multiple.

        Every sub-lcm of an existing lcm exists and spans a strictly
        shorter segment of its reversing diagram, so the recursion
        terminates whenever the lcm exists; re-entering a pair already
        being resolved therefore proves that pair has no common multiple.
        """
        if stack is None:
            stack = set()
        cells = 0

        def cell(x: Element, t: Element) -> tuple[Element, Element] | None:
            nonlocal cells
            cells += 1
            if cells > self.caps.reversing_cap:
                raise ReversingCapExceeded(
                    f"reversing exceeded {self.caps.reversing_cap} cell fills"
                )
            if x.is_identity:
                return (x, t)
            if t.is_identity:
                return (x, t)
            if x == t:
                return (IDENTITY, IDENTITY)
            if (x, t) in absent or (t, x) in absent:
                return None
            cx = comp.get((x, t))
            ct = comp.get((t, x))
            if cx is None or ct is None:
                if (x, t) in stack or (t, x) in stack:
                    absent.add((x, t))
                    absent.add((t, x))
                    return None
                stack.add((x, t))
                try:
                    r = self._grid(x, t, side, comp, absent, stack)
                finally:
                    stack.discard((x, t))
                if r is None:
                    absent.add((x, t))
                    absent.add((t, x))
                    return None
                _, cx, ct = r
                comp[(x, t)] = cx
                comp[(t, x)] = ct
            return (cx, ct)

        if side is Side.RIGHT:
            rows = [Element((i,)) for i in a.word]
            top = [Element((i,)) for i in b.word]
        else:
            rows = [Element((i,)) for i in reversed(a.word)]
            top = [Element((i,)) for i in reversed(b.word)]
        rowends: list[Element] = []
        for x in rows:
            new_top: list[Element] = []
            for t in top:
                r = cell(x, t)
                if r is None:
                    return None
                x, t2 = r
                new_top.append(t2)
            top = new_top
            rowends.append(x)
        if side is Side.RIGHT:
            compA = self.product(rowends)
            compB = self.product(top)
            m = self.multiply(a, compB)
            assert m == self.multiply(b, compA)
        else:
            compA = self.product(reversed(rowends))
            compB = self.product(reversed(top))
            m = self.multiply(compB, a)
            assert m == self.multiply(compA, b)
        return (m, compA, compB)

    def lcm(
        self, a: Element, b: Element, side: Side
    ) -> tuple[Element, Element, Element] | None:
        """Conditional lcm via grid reversing over the basic table.

        RIGHT: m = a \\/ b with m = b*compA = a*compB.
        LEFT:  m = a \\/~ b with m = compA*b = compB*a.
        None is a proof that no common multiple exists (given the table);
        cap overflow raises, which callers treat as inconclusive.
        """
        key = (a.word, b.word, side)
        if key in self._lcm:
            return self._lcm[key]
        self.basic_table(side)
        result = self._grid(a, b, side, self._comp[side], self._absent[side])
        self._lcm[key] = result
        return result

    def common_multiple_exists(self, a: Element, b: Element, side: Side) -> TriState:
        try:
            return TriState.NO if self.lcm(a, b, side) is None else TriState.YES
        except CapExceeded:
            return TriState.INCONCLUSIVE

    # ------------------------------------------------------------------
    # enumeration and bounds

    def elements_up_to(self, max_length: int) -> list[Element]:
        """All elements of length <= max_length, ordered by (length, word)."""
        seen: set[Element] = {IDENTITY}
        level = [IDENTITY]
        for _ in range(max_length):
            nxt = []
            for x in level:
                for i in range(self.pres.n_atoms):
                    y = self.canonical(x.word + (i,))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            level = nxt
        return sorted(seen, key=Element.sort_key)

    def basic_bound_C(self) -> int:
        """1 + max length over basic elements (either side)."""
        if self._bound_C is None:
            self._bound_C = max(self.basic_table(Side.RIGHT).C, self.basic_table(Side.LEFT).C)
        return self._bound_C
