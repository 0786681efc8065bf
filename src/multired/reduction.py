"""The multifraction rewrite systems.

Left reduction R(i,x) extracts x from entry i+1, pushes it through entry i
by an lcm and deposits the remainder in entry i-1; right reduction R~(i,x)
is the mirror image pushing from i-1 to i+1, with a truncated rule at the
top level i = depth.  Division D(i,x) is the remainder-free case where x
divides both adjacent entries, making them shorter.  On top of the raw
moves this module provides:

  * the maximal reducers of a level (`reducers`) and the greatest tame
    reducer (gcd of the maximal reducers).  Every i-reducer divides
    one element, the gcd of entries 1 and 2 at level 1 and entry i+1
    above, and in a gcd-monoid that element is the only maximal reducer
    whenever it is a reducer at all, which one gcd (level 1) or one lcm
    with entry i (levels i >= 2) decides; only when that lcm does not
    exist are the divisors of entry i+1 listed;
  * derdiv, the composite of maximal divisions from the top level down,
    which always lands on a prime multifraction;
  * red_tame, the composite of greatest-tame reductions along the
    universal level sequence u(n) = (1..n-1) ++ u(n-2);
  * strategy-driven exhaustive reduction (`reduce_left`, `reduce_right`),
    atomic reduct graphs with DOT/JSON export, and the tower step bound
    guard (`within_step_bound`);
  * the right walk of the Cunif tester (`right_roots`): the breadth-first
    search of `reduct_graph` on the right, keeping the node index and the
    roots of the left closure walk instead of edges;
  * the one answer to "which of these targets does each root
    left-reduce to?" (`reaches`), which the Conjecture A, word-problem,
    depth-4 and four-strategy deciders ask: left reduct graphs are
    acyclic, so one depth-first post-order search of the roots' shared
    graph gives every node an int over the targets, its own bit OR its
    reducts' values, and enters no more reducts of a node whose value
    holds them all;
  * left reduct closures of many roots at once (`left_closures`), for
    the Cunif tester alone: one post-order walk of the roots' shared
    graph keeps each node's reducts, and one pass down gives every node
    an int over the walked roots whose closures hold it; the common
    reducts of those roots (`LeftClosures.common`) are the nodes with
    every bit, in memory linear in the walk.  Given target nodes, a root
    whose closure holds another target, found by a breadth-first search,
    is left out of the walk: its closure changes no intersection.

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
multiple with entry i (mirrored for R~), so one move core, `_push`,
runs one loop over a table of levels (`_frames`) and an atom order: it
reads each level's `MonoidContext.atom_quotients` row of the entry
divided once, takes each atom in it through its lcm (`MonoidContext.lcm`)
and its deposit (`MonoidContext.attach`), and lists the attempts that
applied or overflowed.  A truncated division rule runs the same loop:
its row is the lower entry's, and where a push takes its lcm it reads
the atom's place in the upper entry's row.  A move
keeps the depth and the first sign, so the frames of a node serve all
its reducts.  `reduct_graph`, `right_roots`, `reaches` and
`left_closures` (its walk and its redundancy search) build them once per
walk, or once per root a walk starts from, with every atom in atom order
(`_walk`, over every level of their side, `_levels`), then ask the core
once per node they expand (the last two through `_left_reducts`), and
hash each new reduct once.  An attempt that overflows a cap is a value
in that list, its CapExceeded at its atom's place: `reduct_graph`
records it as an inconclusive edge, `right_roots` and `reaches` count
it as undecided and `left_closures` counts it against its node.  A
strategy run (`_reduce`) reads its strategy and its frames once, into a
level order and an atom order, and each step asks the core to stop at
the first attempt that applies or overflows, and raises an overflow.
Its move is the first attempt of the core asked over every atom one
level at a time in level order, or the last of that level for antilex;
the tests keep that run as the reference.

The single-move API: a Move's kind is its Side.  `_apply` holds the
geometry of one move on either side: the level range check, the level
map `_frame` (shared with `_frames`, `is_division` and
`ReductGraph.to_dot`), the truncated rule and the push, the core run for
x alone.  It tests x with `MonoidContext.divides` instead of reading a
level's atoms off one row, so it is an oracle for how the core reads a
row, not for the push (the tests check that against `lcm` and `attach`)
nor for the arithmetic.  `apply_left` and `apply_right` are one call
into it each, `apply_move` dispatches on the kind, `apply_division` is
D(i,x), and `is_division` tells whether an applied move was a division.
Tests inject overflows by wrapping the module attributes `_push` (every
attempt of the walks and of the strategy runs, which call it by that
name) and `apply_left` (single left moves, as `red_tame` and
`apply_move` make them), looked up by name at call time.
"""

from __future__ import annotations

import functools
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
from .multifraction import Multifraction, due_side, format_multifraction, inverse, unit


class Move(NamedTuple):
    """One atomic or composite move, R(level,x) when its kind is LEFT and
    R~(level,x) when it is RIGHT.  A tuple type, so that it hashes and
    compares in C; no code treats a move as a sequence.  Its hash,
    hash((kind, level, x)), varies from process to process (a Side hashes
    by its name string, and x, an element, is a str), so no output may
    depend on it."""

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


@functools.lru_cache(maxsize=1024)  # a few keys per depth met
def _frames(left: bool, positive: bool, levels) -> tuple:
    """(i, src, dst, due, other) for each level of a side, given
    whether the first sign is positive: `_frame` with src and dst 0-based,
    the level's `due_side` and the other side; none for right level 1.
    The src of a truncated rule is the lower of the two entries it
    divides, entry level: entry 1 for D(1,x), as for D(depth-1,x)."""
    side = LEFT if left else RIGHT
    signed = unit(1 if positive else -1)  # due_side reads the first sign
    out = []
    for i in levels:
        level, src, dst = _frame(side, i)
        if level == 0:  # no entry 0 to extract from
            continue
        due = due_side(signed, level)
        out.append((i, level - 1 if dst == 0 else src - 1, dst - 1, due, due.other))
    return tuple(out)


def _push(
    ctx: MonoidContext, a: Multifraction, side: Side, frames, order, x: Element | None = None, first=False
) -> list:
    """The move core of walks, runs and single moves: the attempts of a
    that applied or overflowed, as a list of (level, atom, outcome), at
    the levels of `frames` (a `_frames` table) in its order, each level's
    atoms in `order`, a sequence of atom indices; of x alone when given
    (`order` is then (0,), and `_apply` gives x only at a level with a
    deposit entry).  With `first` it returns at the first such attempt.

    A level reads the `atom_quotients` row of its src entry once (x's
    quotient is `divides`', which raises an overflow; a trivial entry
    has none) and tries each atom s in it that divides that entry.  At a
    push, `MonoidContext.lcm` gives the complements of s and of entry i
    in their lcm on the side opposite the due side, comp and xp, and
    `MonoidContext.attach` the deposit, the deposit entry with xp
    attached there.  Left reduction pushes from i+1 to i-1, right
    reduction from i-1 to i+1, and the reduct is one slice of a's
    entries with the three it changes.  At a truncated rule, D(1,s) at
    left level 1 or D(depth-1,s) at right level depth, src is the lower
    of the two entries divided, and the row of the upper one, read once
    an atom divides the lower, stands where a push takes its lcm: the
    reduct is the slice with both quotients.  A cap overflow in a row, the
    lcm or the deposit is the attempt's outcome.  The quotients and the
    lcm were checked when memoised and the deposit's length is checked,
    so nothing is multiplied back; a call with `first` reads no row and
    takes no lcm past the attempt it returns."""
    entries = a.entries
    n = len(entries)
    atoms = ctx.atoms() if x is None else (x,)
    quotients = ctx.atom_quotients
    left = side is LEFT
    moves: list = []
    for i, src, dst, due, other in frames:
        if not entries[src]:
            continue  # no atom divides 1
        row = quotients(entries[src], due) if x is None else (ctx.divides(x, entries[src], due),)
        push = 0 <= dst < n
        upper = None  # a truncated rule's upper row, read once an atom divides src
        for t in order:
            q = row[t]
            if q is None:
                continue
            s = atoms[t]
            if isinstance(q, Element):
                if push:
                    try:
                        r = ctx.lcm(s, entries[i - 1], other)
                        if r is None:
                            continue
                        _, xp, comp = r
                        deposit = ctx.attach(entries[dst], xp, other)
                    except CapExceeded as exc:
                        q = exc
                    else:
                        three = (deposit, comp, q) if left else (q, comp, deposit)
                        q = a.with_entries(entries[: i - 2] + three + entries[i + 1 :])
                else:
                    if upper is None:
                        upper = quotients(entries[src + 1], due)
                    qj = upper[t]
                    if qj is None:
                        continue
                    if isinstance(qj, Element):
                        q = a.with_entries(entries[:src] + (q, qj) + entries[src + 2 :])
                    else:
                        q = qj  # the upper row's overflow
            moves.append((i, s, q))  # the reduct, or a row's, the lcm's or the deposit's overflow
            if first:
                return moves
    return moves


def _apply(ctx: MonoidContext, a: Multifraction, side: Side, i: int, x: Element) -> Multifraction | None:
    """a . R(i,x) (LEFT) or a . R~(i,x) (RIGHT), or None when the move
    does not apply.  Left levels run 1..depth-1 and right levels 1..depth;
    x != 1.  Right level 1 never applies (there is no entry 0 to extract
    from); the truncated rules at left level 1 and right level depth are
    D(1,x) and D(depth-1,x).  Any other move is the core `_push` asked
    for x alone at level i.  Cap overflow from the underlying lcm
    propagates (the move's applicability is then unknown)."""
    n = len(a.entries)
    top = n - 1 if side is LEFT else n
    if not 1 <= i <= top:
        raise ValueError(f"{side.value} reduction level {i} outside 1..{top}")
    if not x:
        raise ValueError("reducer must be nontrivial")
    level, _, dst = _frame(side, i)
    if level == 0:
        return None
    if not 0 < dst <= n:
        return apply_division(ctx, a, level, x)
    moves = _push(ctx, a, side, _frames(side is LEFT, a.first_sign > 0, (i,)), (0,), x)
    return result_of(moves[0][2]) if moves else None


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
    if not x:
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
            raise MultiredError(f"move {m.label(ctx)} not applicable during replay")
        cur = nxt
    return cur


# ----------------------------------------------------------------------
# reducers

def reducers(ctx: MonoidContext, a: Multifraction, i: int) -> tuple[Element, ...]:
    """The maximal i-reducers of a: the nontrivial x for which a . R(i,x)
    is defined that divide no other such x on the due side, in (length,
    word) order.

    `greatest_tame_reducer` asks for them at a level i >= 2 whose entries
    i+1 and i have no lcm: elsewhere the one maximal reducer is known in
    closed form.  Every i-reducer divides one element on the due side,
    and the listing runs over its divisors: at level 1 the gcd of entries
    1 and 2, every divisor of which is a reducer, and above it entry i+1,
    a divisor of which is a reducer when it has an lcm with entry i.  The
    paper's other listings (atomic, all and tame reducers) are test
    oracles.
    """
    n = a.depth
    if not 1 <= i < n:
        raise ValueError(f"reducer level {i} outside 1..{n - 1}")
    side = due_side(a, i)
    lcm_side = side.other
    if i == 1:
        g = ctx.gcd(a.entry(1), a.entry(2), side)
        all_red = ctx.divisors(g, side)[1:]  # the first divisor is 1
    else:
        all_red = [
            d
            for d in ctx.divisors(a.entry(i + 1), side)
            if d and ctx.lcm(d, a.entry(i), lcm_side) is not None
        ]
    return tuple(
        x
        for x in all_red
        if not any(y != x and ctx.divides(x, y, side) is not None for y in all_red)
    )


def greatest_tame_reducer(ctx: MonoidContext, a: Multifraction, i: int) -> Element:
    """Due-side gcd of the maximal i-reducers (identity when none).

    Always a multiple of the due-side gcd of entries i and i+1.

    Every i-reducer divides one element on the due side: at level 1 the
    gcd g of entries 1 and 2 (the truncated rule is the division D(1,x)),
    at level i >= 2 entry i+1.  At level 1 every divisor of g is a
    reducer, so the answer is g.  At level i >= 2 a trivial entry i+1
    leaves no reducer; when entry i+1 has an lcm with entry i on the other
    side, a common multiple of entry i and any divisor of entry i+1 exists
    (Paper I, arXiv 1606.08991), so entry i+1 is the only maximal reducer
    and the answer.  Only when that lcm does not exist are the maximal
    reducers listed (`reducers`) and their gcd folded, checking that it is
    a multiple of the adjacent gcd, as each closed form is by
    construction.  The closed forms take other gcds and lcms than the
    listing, so under a cap either may overflow where the other finishes.
    """
    n = a.depth
    if not 1 <= i < n:
        raise ValueError(f"reducer level {i} outside 1..{n - 1}")
    side = due_side(a, i)
    entries = a.entries
    if i == 1:
        return ctx.gcd(entries[0], entries[1], side)
    top = entries[i]
    if not top:
        return IDENTITY
    if ctx.lcm(top, entries[i - 1], side.other) is not None:
        return top
    maximal = reducers(ctx, a, i)
    if not maximal:
        g = IDENTITY
    else:
        g = maximal[0]
        for y in maximal[1:]:
            g = ctx.gcd(g, y, side)
    adj = ctx.gcd(a.entry(i), a.entry(i + 1), side)
    if adj and ctx.divides(adj, g, side) is None:
        raise InternalInvariantError(
            "greatest tame reducer is no multiple of the adjacent gcd"
        )
    return g


def div_max(ctx: MonoidContext, a: Multifraction, i: int) -> Multifraction:
    """Division by the due-side gcd of entries i, i+1 (identity action when
    the gcd is trivial)."""
    g = ctx.gcd(a.entry(i), a.entry(i + 1), due_side(a, i))
    if not g:
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
        if not g:
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


def _levels(a: Multifraction, side: Side) -> range:
    """The levels of a's atomic moves on one side, low to high: 1..depth-1
    on the left, 2..depth on the right (right level 1 never applies)."""
    return range(1, a.depth) if side is LEFT else range(2, a.depth + 1)


def _walk(ctx: MonoidContext, a: Multifraction, side: Side) -> tuple:
    """The frames of every level of a's side (`_frames` over `_levels`),
    and every atom in atom order: what a walk from a passes to `_push` for
    each node it expands.  A move keeps the depth and the first sign, so
    one table serves every reduct of a."""
    return _frames(side is LEFT, a.first_sign > 0, _levels(a, side)), range(len(ctx.atoms()))


def _reduce(ctx: MonoidContext, a: Multifraction, strategy: str, side: Side) -> ReductionTrace:
    """Apply the first atomic move the strategy finds until there is none.

    The strategy is read once per run: it fixes the level order (`_levels`,
    high to low for `high_*`) and the atom order within a level, forward
    for `*_lex` and reversed for `*_antilex`.  So are the run's frames
    (`_frames`): a move keeps the depth and the first sign.  Each step
    asks the core `_push` to stop at the first attempt in that order that
    applies or overflows: the first attempt of the core over every atom
    asked one level at a time in level order, or the last of a level for
    antilex.  An overflowed attempt raises.  The core is looked up by
    module-global name at call time, so a wrapper installed on the module attribute
    (the tests inject overflows so) sees every step.

    A step count past the tower bound is an InternalInvariantError.  The
    tower is monotone in C, and C >= 2 as soon as there is an atom (an
    atom is basic), so the guard takes the bound at C = 2 (C = 1 without
    atoms) once per run and asks `within_step_bound`, which builds the
    basic tables for the true C, only for a count past it.  It still
    raises at the first step past the bound.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    step = -1 if strategy.startswith("high") else 1
    frames = _frames(side is LEFT, a.first_sign > 0, _levels(a, side)[::step])
    order = range(len(ctx.atoms()))
    if strategy.endswith("antilex"):
        order = order[::-1]
    # a right reduction sequence from a is a left reduction sequence of the
    # same length from inverse(a), so both sides share the tower bound
    bounded = a if side is LEFT else inverse(a)
    cleared = _tower(2 if ctx.atoms() else 1, list(map(len, bounded.entries)), sys.maxsize)
    moves: list[Move] = []
    cur = a
    while True:
        found = _push(ctx, cur, side, frames, order, first=True)
        if not found:
            break
        i, s, b = found[0]
        cur = result_of(b)
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
    return not any(
        ctx.gcd(a.entry(i), a.entry(i + 1), due_side(a, i)) for i in range(1, a.depth)
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
    atomic closure reaches every reduct.  The walk takes a's frames once
    (`_walk`) and asks the core `_push` for every move of each node it
    dequeues.  Applicability failures from cap overflow are recorded as
    inconclusive edges rather than guessed at.  The left closures of many
    roots at once come from `left_closures`, and which targets some roots
    reach from `reaches`.
    """
    cap = ctx.caps.graph_node_cap
    g = ReductGraph(root=a, side=side)
    nodes, index, edges = g.nodes, g.index, g.edges
    nodes.append(a)
    index[a] = 0
    frames, order = _walk(ctx, a, side)
    for src, cur in enumerate(nodes):  # the node list is the queue
        for i, s, b in _push(ctx, cur, side, frames, order):
            if isinstance(b, CapExceeded):
                g.inconclusive.append((src, i, s, str(b)))
                continue
            k = len(nodes)
            dst = index.setdefault(b, k)  # one hash of b, new or not
            if dst == k:
                if k >= cap:
                    raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                nodes.append(b)
            edges.append((src, Move(side, i, s), dst))
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
    Like `reduct_graph`, it takes a's frames once and asks `_push` once
    per node for every right level.  Raises GraphNodeCapExceeded where
    `reduct_graph` does, with its message."""
    cap = ctx.caps.graph_node_cap
    nodes = [a]
    index = {a: 0}
    roots = []
    undecided = 0
    frames, order = _walk(ctx, a, RIGHT)
    n = a.depth
    for cur in nodes:  # the node list is the queue
        entries = cur.entries
        divided = False
        for i, _, b in _push(ctx, cur, RIGHT, frames, order):
            if isinstance(b, CapExceeded):
                undecided += 1
                continue
            # R~(i,x) deposits in entry i+1: a division is the truncated
            # rule at i = depth, or a move that leaves that entry unchanged
            divided = divided or i == n or entries[i] == b.entries[i]
            k = len(nodes)
            if index.setdefault(b, k) == k:  # one hash of b, new or not
                if k >= cap:
                    raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                nodes.append(b)
        if cur is a or not divided:
            roots.append(cur)
    return index, roots, undecided


@dataclass
class LeftClosures:
    """Left reduct closures indexed by root: bit j stands for walked[j].

    `walked` holds, in root order, every root but those a redundancy
    search left out (see `left_closures`).  Nodes are numbered in the
    order their walks finish, so each index in reducts[k], the nodes k
    reduces to by one atomic move, is below k; overflows[k] counts the
    move attempts of node k itself that overflowed a cap.  reach[k] holds
    the bit of every walked root whose closure holds node k, and every
    node has one.
    """

    nodes: list[Multifraction] = field(default_factory=list)
    index: dict[Multifraction, int] = field(default_factory=dict)
    reducts: list[list[int]] = field(default_factory=list)
    overflows: list[int] = field(default_factory=list)
    walked: list[Multifraction] = field(default_factory=list)
    reach: list[int] = field(default_factory=list)

    def common(self) -> tuple[list[Multifraction], int]:
        """The common left reducts of the walked roots, the nodes with
        every root bit, and the undecided moves of their closures, the
        overflowed attempts of all nodes; the list is exact when it is 0."""
        full = (1 << len(self.walked)) - 1
        return [n for n, v in zip(self.nodes, self.reach) if v == full], sum(self.overflows)

    def irreducible(self) -> list[int]:
        """The irreducible left reducts of walked[0]: the nodes with its
        bit, no reduct and no overflowed move attempt."""
        return [
            k
            for k, v in enumerate(self.reach)
            if v & 1 and not self.reducts[k] and not self.overflows[k]
        ]

    def latest_common_ancestors(self, targets) -> list[Multifraction]:
        """The nodes of walked[0]'s closure whose closure holds every
        target node and none of whose reducts' closures does, by one
        bottom-up pass giving each node an int over the targets."""
        below = [0] * len(self.nodes)
        for j, t in enumerate(targets):
            below[t] = 1 << j
        for k, kids in enumerate(self.reducts):
            for c in kids:
                below[k] |= below[c]
        full = (1 << len(targets)) - 1
        holds = [v == full for v in below]
        return [
            self.nodes[k]
            for k, kids in enumerate(self.reducts)
            if holds[k] and self.reach[k] & 1 and not any(map(holds.__getitem__, kids))
        ]


def _left_reducts(ctx: MonoidContext, node: Multifraction, walk) -> tuple[list[Multifraction], int]:
    """The reducts of node by one atomic left move, in `_push` order, and
    the number of its move attempts that overflowed a cap; walk is the
    `_walk` of a root that node reduces from, taken once per root."""
    frames, order = walk
    reducts = []
    overflowed = 0
    for _, _, b in _push(ctx, node, LEFT, frames, order):
        if isinstance(b, CapExceeded):
            overflowed += 1
        else:
            reducts.append(b)
    return reducts, overflowed


class Reach(NamedTuple):
    """What `reaches` found: hits[k], the targets that roots[k] left-reduces
    to, as a bitset over target positions; nodes, the nodes it found; and
    undecided, the overflowed move attempts of those nodes."""

    hits: list[int]
    nodes: int
    undecided: int


def reaches(ctx: MonoidContext, roots, targets) -> Reach:
    """Which of the distinct targets each root left-reduces to, by one
    depth-first search of the roots' shared left reduct graph.

    Left reduct graphs are acyclic, so one iterative post-order walk gives
    every node its value, the bits of the targets it reduces to: its own
    bit, OR the values of its reducts by one atomic move, taken in
    `_push` order.  Each root not yet found takes its frames once
    (`_walk`); each node found has its moves listed once, by the core over
    its root's frames, and its overflowed attempts counted; once its
    value holds every target, no more of its reducts are entered.  A node
    reached again keeps its value, also from another root.  So the search
    keeps one int per node over the targets, where `left_closures` keeps
    one over the walked roots.

    A root's miss is exact when undecided is 0: a node whose value lacks
    a target entered all its reducts, and so did every node it reduces to.
    Otherwise a hit still holds, and a miss is a lower bound.  Raises
    GraphNodeCapExceeded, with `reduct_graph`'s message, once more than
    graph_node_cap nodes are found; a one-root search that misses finds
    the nodes of that root's `reduct_graph` and as many overflowed
    attempts as it has inconclusive edges."""
    cap = ctx.caps.graph_node_cap
    bit = {t: 1 << k for k, t in enumerate(targets)}
    full = (1 << len(bit)) - 1
    value: dict[Multifraction, int] = {}  # -1 while the node is on the stack
    found = undecided = 0

    def frame(node, walk):
        # [node, reducts, next reduct, value so far]
        nonlocal found, undecided
        if found and found >= cap:  # the first node fits any cap, as in reduct_graph
            raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
        found += 1
        reducts, overflowed = _left_reducts(ctx, node, walk)
        undecided += overflowed
        value[node] = -1
        return [node, reducts, 0, bit.get(node, 0)]

    for root in roots:
        if root in value:
            continue
        walk = _walk(ctx, root, LEFT)
        stack = [frame(root, walk)]
        while stack:
            top = stack[-1]
            node, reducts, pos, v = top
            if v != full and pos < len(reducts):
                top[2] = pos + 1
                b = reducts[pos]
                w = value.get(b)
                if w is None:
                    stack.append(frame(b, walk))
                elif w < 0:
                    raise InternalInvariantError("left reduct graph has a cycle")
                else:
                    top[3] = v | w
                continue
            stack.pop()
            value[node] = v
            if stack:
                stack[-1][3] |= v
    return Reach([value[root] for root in roots], found, undecided)


def left_closures(ctx: MonoidContext, roots, targets=()) -> LeftClosures:
    """The left reduct closures of the roots, each node expanded once.

    Left reduction is noetherian, so left reduct graphs are acyclic.  One
    iterative post-order walk from each root not yet reached numbers the
    nodes and keeps their reducts; nodes reached by an earlier walk are
    not walked again.  Such a root takes its frames once (`_walk`), and
    its search and its walk ask the core `_push` over them once per node.
    A move attempt that overflows a cap makes the closures holding its
    node incomplete, as in `reduct_graph`.  Then one pass from the top
    index down ORs each node's root bits into its reducts.

    With `targets`, a container of nodes holding the roots, each root
    after the first that no walk has reached is first searched
    breadth-first over its left moves.  It is left out of `walked` at the
    first node found that is another target, or an already walked node
    whose closure holds a target: its closure then strictly holds that
    target's.  So when the closure of every target holds a root, the
    closures of the walked roots have the intersection of those of all
    targets.  The search does not enter walked nodes, and a root it
    clears is walked over the moves the search found, so each node's
    moves are enumerated once.  The search is breadth-first because it
    stops at the nearest target, where a depth-first one would follow a
    deep path first.

    Raises GraphNodeCapExceeded, with `reduct_graph`'s message, as soon
    as one walk or search finds more than graph_node_cap nodes, and after
    the walks when a closure holds more: without targets, exactly when a
    fresh reduct_graph of some root would raise.
    """
    cap = ctx.caps.graph_node_cap
    out = LeftClosures()
    nodes, index, reducts, overflows = out.nodes, out.index, out.reducts, out.overflows
    expanded: dict[Multifraction, tuple[list[Multifraction], int]] = {}  # searched, not walked
    held: list[bool] = []  # whether a node's closure holds a target

    def frame(node, walk):
        # [node, reducts, next reduct, reduct indices, overflows, holds a target]
        got, overflowed = expanded.pop(node, None) or _left_reducts(ctx, node, walk)
        index[node] = -1  # on the stack until its walk finishes
        return [node, got, 0, [], overflowed, node in targets]

    def redundant(root, walk) -> bool:
        # whether the closure of root holds another target
        seen = {root: 0}
        order = [root]  # the search's queue and its nodes so far
        for node in order:
            got = expanded.get(node)
            if got is None:
                got = expanded[node] = _left_reducts(ctx, node, walk)
            for b in got[0]:
                m = len(seen)
                if seen.setdefault(b, m) != m:  # one hash of b, new or not
                    continue
                k = index.get(b)
                if k is not None:
                    if held[k]:
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
        walk = _walk(ctx, root, LEFT)
        if targets and out.walked and redundant(root, walk):
            continue
        out.walked.append(root)
        found = 1
        stack = [frame(root, walk)]
        while stack:
            top = stack[-1]
            node, kids, pos = top[0], top[1], top[2]
            if pos < len(kids):
                top[2] = pos + 1
                b = kids[pos]
                k = index.get(b)
                if k is None:
                    if found >= cap:
                        raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                    found += 1
                    stack.append(frame(b, walk))
                elif k < 0:
                    raise InternalInvariantError("left reduct graph has a cycle")
                else:
                    top[3].append(k)
                    if held[k]:
                        top[5] = True
                continue
            stack.pop()
            k = len(nodes)
            nodes.append(node)
            index[node] = k
            reducts.append(top[3])
            overflows.append(top[4])
            held.append(top[5])
            if stack:
                stack[-1][3].append(k)
                if top[5]:
                    stack[-1][5] = True
    reach = out.reach = [0] * len(nodes)
    for j, root in enumerate(out.walked):
        reach[index[root]] |= 1 << j
    for kids, v in zip(reversed(reducts), reversed(reach)):  # v is final: all above it ORed in
        for c in kids:
            reach[c] |= v
    most = max(cap, 1)  # a closure of one node fits any cap, as in reduct_graph
    if len(nodes) > most and any(
        sum(v >> j & 1 for v in reach) > most for j in range(len(out.walked))
    ):
        raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
    return out


# ----------------------------------------------------------------------
# step bound


def _tower(C: int, lengths, cap: int) -> int:
    """min(F(lengths), cap), F the tower bound: F1(x) = x+2 and
    Fn(x1..xn) = (x1+1) * C ** F(n-1)(x2..xn); 0 for no lengths.  Each
    exponent is clipped at cap.bit_length(), beyond which a power of
    C >= 2 already exceeds the cap (for C = 1 every power is 1)."""
    if not lengths:
        return 0
    f = lengths[-1] + 2
    for x in reversed(lengths[:-1]):
        f = min((x + 1) * C ** min(f, cap.bit_length()), cap)
    return min(f, cap)


def within_step_bound(ctx: MonoidContext, a: Multifraction, k: int) -> bool:
    """Whether k is at most the tower bound on the number of reduction
    steps from a, C being one more than the maximal basic length: the
    bound is taken capped at k + 1.

    It builds the basic tables for C; `_reduce` asks it only for a step
    count past the bound at C = 2, which needs none.
    """
    return k <= _tower(ctx.basic_bound_C(), list(map(len, a.entries)), k + 1)
