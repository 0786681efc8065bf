"""The multifraction rewrite systems.

Left reduction R(i,x) extracts x from entry i+1, pushes it through entry i
by an lcm and deposits the remainder in entry i-1; right reduction R~(i,x)
is the mirror image pushing from i-1 to i+1, with a truncated rule at the
top level i = depth.  Division D(i,x) is the remainder-free case where x
divides both adjacent entries, making them shorter.  On top of the raw
moves this module provides:

  * reducer enumeration (atomic / all / maximal / tame) and the greatest
    tame reducer (gcd of the maximal reducers);
  * derdiv, the composite of maximal divisions from the top level down,
    which always lands on a prime multifraction;
  * red_tame, the composite of greatest-tame reductions along the
    universal level sequence u(n) = (1..n-1) ++ u(n-2);
  * strategy-driven exhaustive reduction (`reduce_left`, `reduce_right`),
    atomic reduct graphs with DOT/JSON export, and the tower step bound;
  * the right walk of the Cunif tester (`right_roots`): the breadth-first
    search of `reduct_graph` on the right, keeping the node index and the
    roots of the left closure walk instead of edges;
  * left reduct closures of many roots at once (`left_closures`): left
    reduct graphs are acyclic, so one post-order walk of their shared
    graph gives every node its closure as an int bitset, the union of
    its reducts' closures; the common reducts of some roots
    (`LeftClosures.common`) are then an intersection of bitsets instead
    of one graph search per root.  Given target nodes, a root whose
    closure holds another target, found by a breadth-first search, is
    left out of the walk: its closure changes no intersection.

Sign conventions: `due_side`, defined in `multifraction` and imported
here, is the one map from a level's sign to a Side; `product` merges its
junction entries on it too.  The due side at a positively-signed level
is RIGHT (entries are divided on the right, lcms are left lcms), and
LEFT at a negatively-signed level.  Which side a factor goes on is then
`MonoidContext.attach`'s decision alone, so one move core serves both
sides.

Where a move's defining equations are checked: a move R(i,x) rests on two
facts, the quotient q of entry i+1 by x on the due side and the lcm of x
with entry i on the other.  `MonoidContext` checks each fact once, when
it memoises it, and raises InternalInvariantError (also under `python
-O`) when one fails: an atom quotient when its `atom_quotients` row is
built (a multi-letter `divides` quotient is built from such rows), an lcm
when it is first reversed.  An applied move only places those checked
values; the one product it forms is the deposit.  The entries it changes
are adjacent, so it builds its reduct as one slice of the parent's
entries, with the parent's checked sign (`Multifraction.with_entries`).

How the atomic moves of a node are found: an atomic move R(i,s) applies
only when the atom s divides entry i+1 on the due side and has a common
multiple with entry i (mirrored for R~), so `_level_moves` reads, once per
level, the `MonoidContext.atom_quotients` table of the entry divided (both
entries' for a truncated division rule), takes lcms only for the atoms in
it, and returns one list of every atom's attempt at that level;
`_atomic_moves` walks the levels in strategy order and passes on the
attempts that applied or overflowed.  An attempt that overflows a cap is
a value in that stream, its CapExceeded at its atom's turn: `_reduce`
raises it through `result_of`, `reduct_graph` records it as an
inconclusive edge, `right_roots` counts it as undecided and
`left_closures` counts it against its node.

The single-move API: a Move's kind is its Side.  `_apply` holds the
geometry of one move on either side: the level range check, the level
map `_frame` (shared with `_level_moves`, `is_division` and
`ReductGraph.to_dot`), the truncated rule and the push.  It tests one
given x with `MonoidContext.divides` instead of reading a level's atoms
off one table, so it is an oracle independent of the level enumeration
in `_level_moves`, though not of the arithmetic: `divides` is built on
the same `atom_quotients` tables, and both build a push with `_push`.
`apply_left` and `apply_right` are one call into it each, `apply_move`
dispatches on the kind, `apply_division` is D(i,x), and `is_division`
tells whether an applied move was a division.  Tests inject
overflows by wrapping the module attributes `_level_moves` (every
enumerated attempt) and `apply_left` (single left moves, as `red_tame`
and `apply_move` make them), looked up by name at call time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .monoid import (
    CapExceeded,
    Element,
    GraphNodeCapExceeded,
    IDENTITY,
    InternalInvariantError,
    LEFT,
    MonoidContext,
    MultiredError,
    RIGHT,
    Side,
    result_of,
)
from .multifraction import Multifraction, due_side, format_multifraction, inverse


class Move(NamedTuple):
    """One atomic or composite move, R(level,x) when its kind is LEFT and
    R~(level,x) when it is RIGHT.  A tuple type, so that it hashes and
    compares in C; no code treats a move as a sequence.  Its hash,
    hash((kind, level, x)), varies from process to process (a Side hashes
    by its name string), so no output may depend on it."""

    kind: Side
    level: int
    x: Element

    def label(self, ctx: MonoidContext) -> str:
        sym = "R" if self.kind is LEFT else "R̃"
        return f"{sym}({self.level},{ctx.word_str(self.x)})"

    def to_json(self, ctx: MonoidContext) -> dict:
        return {"kind": self.kind.value, "level": self.level, "x": ctx.word_str(self.x)}


@dataclass(frozen=True)
class ReductionTrace:
    start: Multifraction
    moves: tuple[Move, ...]
    end: Multifraction


STRATEGIES = ("low_lex", "low_antilex", "high_lex", "high_antilex")


# ----------------------------------------------------------------------
# elementary moves


def _frame(side: Side, i: int) -> tuple[int, int, int]:
    """The level map of a move at level i, as (level, src, dst): the level
    whose due side divides, the entry x is divided out of and the entry
    the remainder is deposited in.  R(i,x) divides entry i+1 at level i
    and deposits in entry i-1; R~(i,x) divides entry i-1 at level i-1 and
    deposits in entry i+1.  A dst outside 1..depth is the truncated rule,
    the division D(level,x)."""
    return (i, i + 1, i - 1) if side is LEFT else (i - 1, i - 1, i + 1)


def _push(
    ctx: MonoidContext,
    a: Multifraction,
    i: int,
    x: Element,
    q: Element,
    src: int,
    dst: int,
    side: Side,
) -> Multifraction | None:
    """The move core shared by both sides: given the quotient q of entry
    src by x on `side`, the due side of level min(i, src), take the
    opposite-side lcm of x with entry i and deposit the complement of x in
    entry dst.  Left reduction pushes from i+1 to i-1, right reduction
    from i-1 to i+1.

    Nothing is multiplied back: q, with x attached on `side`, is entry
    src by the checks of `atom_quotients`, and comp, with x attached on
    `side`, is entry i with xp attached on `lcm_side` by the check of
    `lcm`.  The deposit is the one product formed.  The three entries
    changed, src, i and dst, are i-1, i and i+1 in some order, so the
    reduct is one slice of a's entries with them in it."""
    lcm_side = side.other
    entries = a.entries
    r = ctx.lcm(x, entries[i - 1], lcm_side)
    if r is None:
        return None
    _, xp, comp = r  # comp with x attached on `side` = entry i with xp on `lcm_side`
    deposit = ctx.attach(entries[dst - 1], xp, lcm_side)
    three = (deposit, comp, q) if src > dst else (q, comp, deposit)
    return a.with_entries(entries[: i - 2] + three + entries[i + 1 :])


def _apply(ctx: MonoidContext, a: Multifraction, side: Side, i: int, x: Element) -> Multifraction | None:
    """a . R(i,x) (LEFT) or a . R~(i,x) (RIGHT), or None when the move
    does not apply.  Left levels run 1..depth-1 and right levels 1..depth;
    x != 1.  Right level 1 never applies (there is no entry 0 to extract
    from); the truncated rules at left level 1 and right level depth are
    D(1,x) and D(depth-1,x).  Cap overflow from the underlying lcm
    propagates (the move's applicability is then unknown)."""
    n = len(a.entries)
    top = n - 1 if side is LEFT else n
    if not 1 <= i <= top:
        raise ValueError(f"{side.value} reduction level {i} outside 1..{top}")
    if not x.word:
        raise ValueError("reducer must be nontrivial")
    level, src, dst = _frame(side, i)
    if level == 0:
        return None
    if not 0 < dst <= n:
        return apply_division(ctx, a, level, x)
    due = due_side(a, level)
    q = ctx.divides(x, a.entries[src - 1], due)
    return None if q is None else _push(ctx, a, i, x, q, src, dst, due)


def apply_left(ctx: MonoidContext, a: Multifraction, i: int, x: Element) -> Multifraction | None:
    """a . R(i,x), or None when the rule does not apply (see `_apply`)."""
    return _apply(ctx, a, LEFT, i, x)


def apply_right(ctx: MonoidContext, a: Multifraction, i: int, x: Element) -> Multifraction | None:
    """a . R~(i,x), or None when the rule does not apply (see `_apply`)."""
    return _apply(ctx, a, RIGHT, i, x)


def apply_division(ctx: MonoidContext, a: Multifraction, i: int, x: Element) -> Multifraction | None:
    """a . D(i,x): divide entries i and i+1 by x on the due side."""
    n = len(a.entries)
    if not 1 <= i < n:
        raise ValueError(f"division level {i} outside 1..{n - 1}")
    if not x.word:
        raise ValueError("divisor must be nontrivial")
    side = due_side(a, i)
    entries = a.entries
    qi = ctx.divides(x, entries[i - 1], side)
    if qi is None:
        return None
    qj = ctx.divides(x, entries[i], side)
    if qj is None:
        return None
    # qi and qj are divides quotients, built from checked atom quotients
    return a.with_entries(entries[: i - 1] + (qi, qj) + entries[i + 1 :])


def is_division(move: Move, a: Multifraction, b: Multifraction) -> bool:
    """Whether the move from a to b is the division D(level,x), level as
    in `_frame`: the truncated rule, or a push that leaves its deposit
    entry unchanged.  `_push` deposits the cofactor xp of entry i in the
    lcm of x and entry i, which is 1 exactly when x divides entry i too.
    A division is both a left and a right reduction."""
    dst = _frame(move.kind, move.level)[2]
    return not 0 < dst <= len(a.entries) or a.entries[dst - 1] == b.entries[dst - 1]


def apply_move(ctx: MonoidContext, a: Multifraction, move: Move) -> Multifraction | None:
    apply = apply_left if move.kind is LEFT else apply_right
    return apply(ctx, a, move.level, move.x)


def replay(ctx: MonoidContext, a: Multifraction, moves) -> Multifraction:
    """a after the moves, in order; raises when one does not apply.  Only
    tests call it so far; it is kept as the checker a certificate given
    as a move list needs."""
    cur = a
    for m in moves:
        nxt = apply_move(ctx, cur, m)
        if nxt is None:
            raise MultiredError(f"move {m} not applicable during replay")
        cur = nxt
    return cur


# ----------------------------------------------------------------------
# reducers

REDUCER_FILTERS = ("atomic", "all", "maximal", "tame")


def reducers(ctx: MonoidContext, a: Multifraction, i: int, filter: str = "all") -> tuple[Element, ...]:
    """The nontrivial x for which a . R(i,x) is defined, filtered.

    atomic: the applicable atoms; all: every applicable x; maximal:
    divisibility-maximal among all (due side); tame: those dividing every
    maximal one.  Deterministic (length, word) order.  The package reads
    only "maximal" (`greatest_tame_reducer`); the other filters are the
    paper's reducer sets, which the acceptance tests check.
    """
    n = a.depth
    if not 1 <= i < n:
        raise ValueError(f"reducer level {i} outside 1..{n - 1}")
    if filter not in REDUCER_FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    if filter == "atomic":
        moves = _level_moves(ctx, a, LEFT, i, ctx.atoms())
        return tuple(s for s, b in moves if result_of(b) is not None)
    side = due_side(a, i)
    lcm_side = side.other
    if i == 1:
        g = ctx.gcd(a.entry(1), a.entry(2), side)
        all_red = [d for d in ctx.divisors(g, side) if not d.is_identity]
    else:
        all_red = [
            d
            for d in ctx.divisors(a.entry(i + 1), side)
            if not d.is_identity and ctx.lcm(d, a.entry(i), lcm_side) is not None
        ]
    if filter == "all":
        return tuple(all_red)
    maximal = [
        x
        for x in all_red
        if not any(y != x and ctx.divides(x, y, side) is not None for y in all_red)
    ]
    if filter == "maximal":
        return tuple(maximal)
    tame = [
        x for x in all_red if all(ctx.divides(x, y, side) is not None for y in maximal)
    ]
    return tuple(tame)


def greatest_tame_reducer(ctx: MonoidContext, a: Multifraction, i: int) -> Element:
    """Due-side gcd of the maximal i-reducers (identity when none).

    Always a multiple of the due-side gcd of entries i and i+1.
    """
    maximal = reducers(ctx, a, i, "maximal")
    side = due_side(a, i)
    if not maximal:
        g = IDENTITY
    else:
        g = maximal[0]
        for y in maximal[1:]:
            g = ctx.gcd(g, y, side)
    adj = ctx.gcd(a.entry(i), a.entry(i + 1), side)
    if not adj.is_identity and ctx.divides(adj, g, side) is None:
        raise InternalInvariantError(
            "greatest tame reducer is no multiple of the adjacent gcd"
        )
    return g


def div_max(ctx: MonoidContext, a: Multifraction, i: int) -> Multifraction:
    """Division by the due-side gcd of entries i, i+1 (identity action when
    the gcd is trivial)."""
    g = ctx.gcd(a.entry(i), a.entry(i + 1), due_side(a, i))
    if g.is_identity:
        return a
    b = apply_division(ctx, a, i, g)
    if b is None:
        raise InternalInvariantError("an adjacent gcd must divide its entries")
    return b


def derdiv(ctx: MonoidContext, a: Multifraction) -> Multifraction:
    """Composite of maximal divisions from the top level down; the result
    is prime and is a common reduct of every division-reduct of a."""
    b = a
    for i in range(a.depth - 1, 0, -1):
        b = div_max(ctx, b, i)
    if not is_prime(ctx, b):
        raise InternalInvariantError("derdiv must end on a prime multifraction")
    return b


def universal_sequence(n: int) -> tuple[int, ...]:
    """u(n): empty for n <= 1, else (1..n-1) followed by u(n-2)."""
    if n < 0:
        raise ValueError(n)
    out: list[int] = []
    while n >= 2:
        out.extend(range(1, n))
        n -= 2
    return tuple(out)


def red_tame(
    ctx: MonoidContext, a: Multifraction, collect: list[Move] | None = None
) -> Multifraction:
    """Apply the greatest tame reduction at each level of u(depth).

    Levels whose greatest tame reducer is trivial act as the identity;
    when `collect` is given every level visit is recorded (trivial ones
    with an identity reducer), which the van Kampen builder relies on.
    """
    b = a
    for i in universal_sequence(a.depth):
        g = greatest_tame_reducer(ctx, b, i)
        if collect is not None:
            collect.append(Move(LEFT, i, g))
        if g.is_identity:
            continue
        nxt = apply_left(ctx, b, i, g)
        if nxt is None:
            raise InternalInvariantError("greatest tame reducer must be applicable")
        b = nxt
    return b


FIXPOINT_MAX_ITER = 64


def red_tame_fixpoint(ctx: MonoidContext, a: Multifraction):
    """Iterate red_tame to a fixed point; returns (fixpoint, iterations)."""
    cur = a
    for k in range(FIXPOINT_MAX_ITER):
        nxt = red_tame(ctx, cur)
        if nxt == cur:
            return cur, k
        cur = nxt
    raise MultiredError("red_tame failed to stabilize")


# ----------------------------------------------------------------------
# strategies and exhaustive reduction


def _level_moves(ctx: MonoidContext, a: Multifraction, side: Side, i: int, atoms):
    """Try the atomic moves R(i,s) (LEFT) or R~(i,s) (RIGHT) of a for each
    atom s of `atoms`, in that order: a list of (s, outcome), one for every
    atom, where the outcome is the reduct, None when the move does not
    apply, or the CapExceeded of an attempt that overflowed a cap.

    The level divided, the entry divided and the deposit entry are
    `_frame`'s, as in `_apply`.  Whether s applies is read off the
    `atom_quotients` table of the entry divided, and the lcm is taken only
    for an atom in it.  The truncated rules, D(1,s) at left level 1 and
    D(depth-1,s) at right level depth, read the tables of both entries
    they divide, and put the two checked quotients in place.  A push is
    built by `_push`, the core of `_apply`.
    """
    entries = a.entries
    level, src, dst = _frame(side, i)
    due = due_side(a, level)
    if 0 < dst <= len(entries):
        quotients = ctx.atom_quotients(entries[src - 1], due)
        moves = []
        for s in atoms:
            b = quotients[s.word[0]]
            if isinstance(b, Element):
                try:
                    b = _push(ctx, a, i, s, b, src, dst, due)
                except CapExceeded as e:
                    b = e
            moves.append((s, b))
        return moves
    lower = ctx.atom_quotients(entries[level - 1], due)
    upper = None  # read only once an atom divides the lower entry
    moves = []
    for s in atoms:
        b = lower[s.word[0]]
        if isinstance(b, Element):
            if upper is None:
                upper = ctx.atom_quotients(entries[level], due)
            qj = upper[s.word[0]]
            if isinstance(qj, Element):
                b = a.with_entries(entries[: level - 1] + (b, qj) + entries[level + 1 :])
            else:
                b = qj
        moves.append((s, b))
    return moves


def _atomic_moves(ctx, a, side: Side, strategy: str = "low_lex"):
    """The atomic move attempts of one side that applied or overflowed, in
    strategy order, as (level, atom, outcome): the reduct, or the
    CapExceeded of an attempt that overflowed a cap.

    This is the one place that maps a side to its levels (1..depth-1 on
    the left, 2..depth on the right); `_level_moves` tries the atoms of
    one level, and is looked up by module-global name at call time, so a
    wrapper installed on the module attribute (the tests inject overflows
    so) sees every attempt.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    levels = range(1, a.depth) if side is LEFT else range(2, a.depth + 1)
    if strategy.startswith("high"):
        levels = levels[::-1]
    atoms = ctx.atoms()
    if strategy.endswith("antilex"):
        atoms = atoms[::-1]
    for i in levels:
        for s, b in _level_moves(ctx, a, side, i, atoms):
            if b is not None:
                yield i, s, b


def _reduce(ctx: MonoidContext, a: Multifraction, strategy: str, side: Side) -> ReductionTrace:
    """Apply the first atomic move the strategy finds until there is none.

    A step count past the tower bound is an InternalInvariantError.  The
    tower is monotone in C, and C >= 2 as soon as there is an atom (an
    atom is basic), so the guard takes the bound at C = 2 (C = 1 without
    atoms) once per run and asks `within_step_bound`, which builds the
    basic tables for the true C, only for a count past it.  It still
    raises at the first step past the bound.
    """
    # a right reduction sequence from a is a left reduction sequence of the
    # same length from inverse(a), so both sides share the tower bound
    bounded = a if side is LEFT else inverse(a)
    cleared = _tower(2 if ctx.atoms() else 1, [e.length for e in bounded.entries], sys.maxsize)
    moves: list[Move] = []
    cur = a
    while True:
        i, s, nxt = next(_atomic_moves(ctx, cur, side, strategy), (None, None, None))
        if nxt is None:
            break
        cur = result_of(nxt)
        moves.append(Move(side, i, s))
        k = len(moves)
        if k > cleared and not within_step_bound(ctx, bounded, k):
            raise InternalInvariantError("reduction exceeded the tower step bound")
    return ReductionTrace(a, tuple(moves), cur)


def reduce_left(ctx: MonoidContext, a: Multifraction, strategy: str = "low_lex") -> ReductionTrace:
    """Exhaust atomic left reductions under the given strategy.

    Terminates by noetherianity; the number of steps is checked against
    the tower bound (a violation is an internal error).
    """
    return _reduce(ctx, a, strategy, LEFT)


def reduce_right(ctx: MonoidContext, a: Multifraction, strategy: str = "low_lex") -> ReductionTrace:
    """The mirror image of reduce_left: exhaust atomic right reductions."""
    return _reduce(ctx, a, strategy, RIGHT)


def is_prime(ctx: MonoidContext, a: Multifraction) -> bool:
    """Trivial due-side gcds between all adjacent entries."""
    return all(
        ctx.gcd(a.entry(i), a.entry(i + 1), due_side(a, i)).is_identity
        for i in range(1, a.depth)
    )


# ----------------------------------------------------------------------
# reduct graphs


@dataclass
class ReductGraph:
    root: Multifraction
    side: Side
    nodes: list[Multifraction] = field(default_factory=list)
    index: dict[Multifraction, int] = field(default_factory=dict)
    edges: list[tuple[int, Move, int]] = field(default_factory=list)
    inconclusive: list[tuple[int, int, Element, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.inconclusive

    def sinks(self) -> list[Multifraction]:
        has_out = {src for src, _, _ in self.edges}
        unsure = {src for src, _, _, _ in self.inconclusive}
        return [
            node
            for k, node in enumerate(self.nodes)
            if k not in has_out and k not in unsure
        ]

    def to_dot(self, ctx: MonoidContext) -> str:
        def fmt(mf):
            return format_multifraction(ctx, mf) or "()"

        lines = ["digraph reducts {"]
        for k, node in enumerate(self.nodes):
            lines.append(f'  n{k} [label="{fmt(node)}"];')
        for src, move, dst in self.edges:
            label = move.label(ctx)
            if is_division(move, self.nodes[src], self.nodes[dst]):
                level = _frame(move.kind, move.level)[0]
                label = f"D({level},{ctx.word_str(move.x)})"
            lines.append(f'  n{src} -> n{dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self, ctx: MonoidContext) -> dict:
        return {
            "side": self.side.value,
            "root": format_multifraction(ctx, self.root),
            "nodes": [format_multifraction(ctx, n) for n in self.nodes],
            "edges": [{"src": s, "dst": d, **m.to_json(ctx)} for s, m, d in self.edges],
            "inconclusive": [
                {"src": s, "level": i, "x": ctx.word_str(x), "reason": r}
                for s, i, x, r in self.inconclusive
            ],
            "complete": self.complete,
        }


def reduct_graph(ctx: MonoidContext, a: Multifraction, side: Side = LEFT) -> ReductGraph:
    """Exhaustive closure of a under the atomic moves of one side, by a
    breadth-first search from a.

    Every reduction decomposes into atomic steps at the same level, so the
    atomic closure reaches every reduct.  Applicability failures from cap
    overflow are recorded as inconclusive edges rather than guessed at.
    The left closures of many roots at once come from `left_closures`.
    """
    cap = ctx.caps.graph_node_cap
    g = ReductGraph(root=a, side=side)
    g.nodes.append(a)
    g.index[a] = 0
    for src, cur in enumerate(g.nodes):  # the node list is the queue
        for i, s, b in _atomic_moves(ctx, cur, side):
            if isinstance(b, CapExceeded):
                g.inconclusive.append((src, i, s, str(b)))
                continue
            if b not in g.index:
                if len(g.nodes) >= cap:
                    raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                g.index[b] = len(g.nodes)
                g.nodes.append(b)
            g.edges.append((src, Move(side, i, s), g.index[b]))
    return g


def right_roots(ctx: MonoidContext, a: Multifraction):
    """The right reducts of a and the roots of its left closure walk, by
    the breadth-first walk of `reduct_graph(ctx, a, RIGHT)` keeping no
    edges: (index, roots, undecided).

    index numbers the reducts as the graph's index does.  roots holds a
    and every reduct with no division move out (see `is_division`), in
    that order.  A division r -> r' is a left reduction too, so the left
    closure of r' lies in that of r, and r changes no intersection of
    closures; divisions shorten entries, so every chain of them ends at a
    root kept.  a is kept for its own closure.  undecided counts the move
    attempts that overflowed a cap, the graph's inconclusive edges.
    Raises GraphNodeCapExceeded where `reduct_graph` does, with its
    message."""
    cap = ctx.caps.graph_node_cap
    nodes = [a]
    index = {a: 0}
    roots = []
    undecided = 0
    for cur in nodes:  # the node list is the queue
        entries = cur.entries
        divided = False
        for i, _, b in _atomic_moves(ctx, cur, RIGHT):
            if isinstance(b, CapExceeded):
                undecided += 1
                continue
            # R~(i,x) deposits in entry i+1: a division is the truncated
            # rule at i = depth, or a move that leaves that entry unchanged
            divided = divided or i == len(entries) or entries[i] == b.entries[i]
            if b not in index:
                if len(nodes) >= cap:
                    raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                index[b] = len(nodes)
                nodes.append(b)
        if cur is a or not divided:
            roots.append(cur)
    return index, roots, undecided


@dataclass
class LeftClosures:
    """Left reduct closures as int bitsets: bit k stands for nodes[k].

    closure[k] holds k and every node k left-reduces to; overflows[k]
    counts the move attempts of node k itself that overflowed a cap, and
    `overflowed` holds the nodes with any, so a closure `bits` is complete
    when `bits & overflowed` is 0; `sinks` holds the nodes with no move
    and no overflow of their own.  Nodes are numbered in the order their
    walks finish, so closure[k] holds no bit above k.  `walked` holds the
    roots whose closures were computed, in root order: every root but
    those a redundancy search left out (see `left_closures`).
    """

    nodes: list[Multifraction] = field(default_factory=list)
    index: dict[Multifraction, int] = field(default_factory=dict)
    closure: list[int] = field(default_factory=list)
    overflows: list[int] = field(default_factory=list)
    overflowed: int = 0
    sinks: int = 0
    walked: list[Multifraction] = field(default_factory=list)

    def members(self, bits: int) -> list[Multifraction]:
        """The nodes of a bitset, in bit order."""
        return [self.nodes[k] for k in _bit_indices(bits)]

    def closure_of(self, root: Multifraction) -> int:
        """The closure of a root."""
        return self.closure[self.index[root]]

    def incomplete_edges(self, bits: int) -> int:
        """The overflowed move attempts of the nodes of a bitset: for a
        closure, the inconclusive edges of that root's `reduct_graph`."""
        return sum(self.overflows[k] for k in _bit_indices(bits & self.overflowed))

    def common(self, roots) -> tuple[int, bool]:
        """The common left reducts of one or more roots, as the AND of
        their closures, and whether none of those closures holds an
        overflowed attempt (the set is then exact)."""
        bits, union = -1, 0
        for root in roots:
            closure = self.closure_of(root)
            bits &= closure
            union |= closure
        return bits, not union & self.overflowed

    def latest_common_ancestors(self, root: Multifraction, targets: int) -> list[Multifraction]:
        """The members of root's closure whose closure holds every target,
        less those whose closure holds another such member."""
        closure = self.closure
        members = _bit_indices(self.closure_of(root))
        found = [k for k in members if closure[k] & targets == targets]
        found_bits = sum(1 << k for k in found)
        return [self.nodes[k] for k in found if closure[k] & found_bits == 1 << k]


def _bit_indices(bits: int) -> list[int]:
    return [k for k, c in enumerate(reversed(bin(bits)[2:])) if c == "1"]


def left_closures(ctx: MonoidContext, roots, targets=()) -> LeftClosures:
    """The left reduct closures of the roots, each node expanded once.

    Left reduction is noetherian, so left reduct graphs are acyclic and
    the closure of a node is the node plus the closures of its reducts by
    one atomic move.  One iterative post-order walk from each root not yet
    reached computes them bottom-up; nodes reached by an earlier walk are
    not walked again.  A move attempt that overflows a cap makes the
    closures holding its node incomplete, as in `reduct_graph`.

    With `targets`, a container of nodes holding the roots, each root
    after the first that no walk has reached is first searched
    breadth-first over its left moves.  It is left out of `walked` at the
    first node found that is another target, or an already walked node
    whose closure holds a walked target: its closure then strictly holds
    that target's.  So when the closure of every target holds a root,
    the closures of the walked roots have the intersection of those of
    all targets.  The search does not enter walked nodes, and a root it
    clears is walked over the moves the search found, so each node's
    moves are enumerated once.  The search is breadth-first because it
    stops at the nearest target, where a depth-first one would follow a
    deep path first.

    Raises GraphNodeCapExceeded, with `reduct_graph`'s message, as soon
    as one walk or search finds more than graph_node_cap nodes or a
    closure holds more: without targets, exactly when a fresh
    reduct_graph of some root would raise.
    """
    cap = ctx.caps.graph_node_cap
    out = LeftClosures()
    nodes, index, closure, overflows = out.nodes, out.index, out.closure, out.overflows
    walking: set[Multifraction] = set()
    expanded: dict[Multifraction, tuple[list[Multifraction], int]] = {}  # searched, not walked
    walked_targets = 0

    def expand(node):
        # (reducts, overflowed attempts) of one node
        outcomes = [b for _, _, b in _atomic_moves(ctx, node, LEFT)]
        reducts = [b for b in outcomes if not isinstance(b, CapExceeded)]
        return reducts, len(outcomes) - len(reducts)

    def frame(node):
        # [node, reducts, next reduct, closure so far, overflowed attempts]
        reducts, overflowed = expanded.pop(node, None) or expand(node)
        walking.add(node)
        return [node, reducts, 0, 0, overflowed]

    def redundant(root) -> bool:
        # whether the closure of root holds another target
        seen = {root}
        order = [root]  # the search's queue and its nodes so far
        for node in order:
            if node not in expanded:
                expanded[node] = expand(node)
            for b in expanded[node][0]:
                if b in seen:
                    continue
                seen.add(b)
                k = index.get(b)
                if k is not None:
                    if closure[k] & walked_targets:
                        return True
                elif b in targets:
                    return True
                else:
                    if len(order) >= cap:
                        raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                    order.append(b)
        return False

    for root in roots:
        if root in index:
            out.walked.append(root)
            continue
        if targets and out.walked and redundant(root):
            continue
        out.walked.append(root)
        found = 1
        stack = [frame(root)]
        while stack:
            top = stack[-1]
            node, reducts, pos = top[0], top[1], top[2]
            if pos < len(reducts):
                top[2] = pos + 1
                b = reducts[pos]
                k = index.get(b)
                if k is not None:
                    top[3] |= closure[k]
                elif b in walking:
                    raise InternalInvariantError("left reduct graph has a cycle")
                else:
                    if found >= cap:
                        raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                    found += 1
                    stack.append(frame(b))
                continue
            stack.pop()
            walking.discard(node)
            k = len(nodes)
            bits = top[3] | 1 << k
            if reducts and bits.bit_count() > cap:
                raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
            nodes.append(node)
            index[node] = k
            closure.append(bits)
            overflows.append(top[4])
            if top[4]:
                out.overflowed |= 1 << k
            elif not reducts:
                out.sinks |= 1 << k
            if node in targets:
                walked_targets |= 1 << k
            if stack:
                stack[-1][3] |= bits
    return out


# ----------------------------------------------------------------------
# step bound


def _tower(C: int, lengths, cap: int | None = None) -> int:
    """F(lengths), the tower bound: F1(x) = x+2 and Fn(x1..xn) =
    (x1+1) * C ** F(n-1)(x2..xn); 0 for no lengths.

    Without a cap the value is exact, and a guard refuses to materialize
    numbers beyond ~10^7 digits.  With a cap it is min(F, cap): each
    exponent is clipped at cap.bit_length(), beyond which a power of
    C >= 2 already exceeds the cap (for C = 1 every power is 1).
    """
    if not lengths:
        return 0
    f = lengths[-1] + 2
    for x in reversed(lengths[:-1]):
        if cap is None:
            if f > 40_000_000:
                raise MultiredError(
                    "step bound too large to materialize; use within_step_bound"
                )
            f = (x + 1) * C**f
        else:
            f = min((x + 1) * C ** min(f, cap.bit_length()), cap)
    return f if cap is None else min(f, cap)


def step_bound(ctx: MonoidContext, a: Multifraction):
    """Tower bound on the number of reduction steps from a, exact.

    C is one more than the maximal basic length.  The value is
    astronomically large as soon as the depth exceeds 3 (use
    within_step_bound for comparisons).  Only tests call it: it states
    the paper's bound exactly, which the acceptance tests pin.
    """
    return _tower(ctx.basic_bound_C(), [e.length for e in a.entries])


def within_step_bound(ctx: MonoidContext, a: Multifraction, k: int) -> bool:
    """Whether k <= step_bound(a), by the bound capped at k + 1.

    It builds the basic tables for C; `_reduce` asks it only for a step
    count past the bound at C = 2, which needs none.
    """
    return k <= _tower(ctx.basic_bound_C(), [e.length for e in a.entries], k + 1)
