"""Reduction questions the tests ask of the package and the package does
not ask itself: the paper's atomic, all and tame reducer listings, the
exact tower step bound, the atomic moves of some levels (`atomic_moves`)
and a strategy run over them one level at a time, a zigzag of maximal
steps between two reducts, the composed moves of a trace, the
cross-confluence of one pair, the unique-fraction probe, the witness
roots of a right reduct graph read off its edges, and the mirror image
of a multifraction.  Each is built on the package's moves, graphs and
closures, as the tests that use it are.
"""

from __future__ import annotations

from collections import deque

from multired.harness import Verdict, has_central_cross
from multired.monoid import CapExceeded, Element, MonoidContext, MultiredError, Side, result_of
from multired.multifraction import Multifraction, format_multifraction
from multired import reduction as red
from multired.reduction import Move, ReductionTrace


def atomic_reducers(ctx: MonoidContext, a: Multifraction, i: int) -> tuple[Element, ...]:
    """The atoms s for which a . R(i,s) is defined, in atom order, each
    tried by `apply_left`: independent of the move enumeration of `_push`.
    An overflowed attempt raises."""
    return tuple(s for s in ctx.atoms() if red.apply_left(ctx, a, i, s) is not None)


def all_reducers(ctx: MonoidContext, a: Multifraction, i: int) -> tuple[Element, ...]:
    """Every nontrivial x for which a . R(i,x) is defined, in (length,
    word) order: the due-side divisors of entry i+1 that `apply_left`
    applies (at level 1, the truncated rule D(1,x), those that divide
    entry 1 too)."""
    side = red.due_side(a, i)
    return tuple(
        d
        for d in ctx.divisors(a.entry(i + 1), side)
        if d and red.apply_left(ctx, a, i, d) is not None
    )


def tame_reducers(ctx: MonoidContext, a: Multifraction, i: int) -> tuple[Element, ...]:
    """The i-reducers that divide every maximal one on the due side."""
    side = red.due_side(a, i)
    maximal = red.reducers(ctx, a, i)
    return tuple(
        x
        for x in all_reducers(ctx, a, i)
        if all(ctx.divides(x, y, side) is not None for y in maximal)
    )


def tower(C: int, lengths) -> int:
    """The tower bound F(lengths) exactly, where `red._tower` caps it:
    F1(x) = x+2 and Fn(x1..xn) = (x1+1) * C ** F(n-1)(x2..xn); 0 for no
    lengths.  Refuses to materialize numbers beyond ~10^7 digits."""
    if not lengths:
        return 0
    f = lengths[-1] + 2
    for x in reversed(lengths[:-1]):
        if f > 40_000_000:
            raise MultiredError("step bound too large to materialize; use within_step_bound")
        f = (x + 1) * C**f
    return f


def step_bound(ctx: MonoidContext, a: Multifraction) -> int:
    """The tower bound on the number of reduction steps from a, exact: C
    is one more than the maximal basic length.  Astronomically large as
    soon as the depth exceeds 3 (the package compares counts with
    `red.within_step_bound`)."""
    return tower(ctx.basic_bound_C(), [len(e) for e in a.entries])


def atomic_moves(ctx: MonoidContext, a: Multifraction, side: Side, levels) -> list:
    """The atomic moves R(i,s) (LEFT) or R~(i,s) (RIGHT) of a at the given
    levels, a range or a tuple, that applied or overflowed, as one list
    of (level, atom, outcome): the reduct, or the CapExceeded of an
    attempt that overflowed a cap.  Levels come in the order given, and
    atoms in atom order within a level.  An atom that does not divide,
    or whose lcm does not exist, gives no entry.  The core `red._push`
    over every atom, with a `red._frames` table built for this call, as
    a walk builds one per walk."""
    frames = red._frames(side is Side.LEFT, a.first_sign > 0, levels)
    return red._push(ctx, a, side, frames, range(len(ctx.atoms())))


def moves_run(ctx: MonoidContext, a: Multifraction, side: Side, strategy: str) -> ReductionTrace:
    """The strategy run of `red.reduce_left` (LEFT) or `red.reduce_right`
    (RIGHT) over `atomic_moves`, the reference for their step loop: each
    step asks `atomic_moves` for one level at a time in the strategy's
    level order and takes the first attempt of the first level that has
    one, or the last for antilex; an overflowed attempt raises.  It takes
    no step bound."""
    step = -1 if strategy.startswith("high") else 1
    order = [(i,) for i in red._levels(a, side)[::step]]
    pick = -1 if strategy.endswith("antilex") else 0
    moves: list[Move] = []
    cur = a
    while True:
        for level in order:
            found = atomic_moves(ctx, cur, side, level)
            if found:
                break
        else:
            return ReductionTrace(a, tuple(moves), cur)
        i, s, nxt = found[pick]
        cur = result_of(nxt)
        moves.append(Move(side, i, s))


def composed_moves(ctx: MonoidContext, trace: ReductionTrace) -> tuple[Move, ...]:
    """Coalesce consecutive same-kind same-level moves (reductions at a
    fixed level compose).  The reducers multiply in extraction order:
    left reductions strip the due side of entry i+1, right reductions
    the opposite side of entry i-1, so a later reducer has the earlier
    one attached on the side it was stripped from."""
    out: list[Move] = []
    for m in trace.moves:
        if out and out[-1].kind is m.kind and out[-1].level == m.level:
            prev = out.pop()
            side = red.due_side(trace.start, red._frame(m.kind, m.level)[0])
            out.append(Move(m.kind, m.level, ctx.attach(m.x, prev.x, side)))
        else:
            out.append(m)
    return tuple(out)


def maximal_moves(ctx: MonoidContext, a: Multifraction):
    """The left moves of a by a maximal reducer, with their reducts."""
    for i in range(1, a.depth):
        for x in red.reducers(ctx, a, i):
            b = red.apply_left(ctx, a, i, x)
            if b is not None:
                yield Move(Side.LEFT, i, x), b


def connect_by_maximal_zigzag(
    ctx: MonoidContext,
    b: Multifraction,
    c: Multifraction,
    source: Multifraction,
    budget: int = 10_000,
):
    """Chain of maximal reductions and their inverses connecting b to c.

    b and c must be reducts of `source`; the search runs over the
    maximal-reduction relation restricted to the (finite) reduct set of
    the source.  Returns a list of ("fwd"|"bwd", Move) steps read from b,
    or None when the budget runs out (not a refutation).
    """
    if b == c:
        return []
    if budget <= 0:
        return None
    graph = red.reduct_graph(ctx, source, Side.LEFT)
    if not (b in graph.index and c in graph.index):
        raise ValueError("endpoints are not reducts of the given source")
    # undirected adjacency by maximal steps among the reducts
    adj: dict[Multifraction, list[tuple[Multifraction, str, Move]]] = {
        n: [] for n in graph.nodes
    }
    for node in graph.nodes:
        for move, nxt in maximal_moves(ctx, node):
            adj[node].append((nxt, "fwd", move))
            adj[nxt].append((node, "bwd", move))
    parent: dict[Multifraction, tuple[Multifraction, str, Move] | None] = {b: None}
    queue = deque([b])
    visited = 1
    while queue:
        cur = queue.popleft()
        for nxt, direction, move in adj[cur]:
            if nxt in parent:
                continue
            parent[nxt] = (cur, direction, move)
            visited += 1
            if nxt == c:
                path = []
                node = nxt
                while parent[node] is not None:
                    prev, direction, move = parent[node]
                    path.append((direction, move))
                    node = prev
                return list(reversed(path))
            if visited >= budget:
                return None
            queue.append(nxt)
    return None


def cross_confluence_pair(
    ctx: MonoidContext, b: Multifraction, c: Multifraction, a: Multifraction
) -> Verdict:
    """b, c right reducts of a: search for a common left reduct, in the
    common left reducts of b and c (`LeftClosures.common`)."""
    try:
        lc = red.left_closures(ctx, (b, c))
    except CapExceeded as e:
        return Verdict("inconclusive", {"reason": str(e)})
    bits, undecided = lc.common((b, c))
    common = lc.members(bits)
    if common:
        witness = min(common, key=lambda m: (m.total_length(), format_multifraction(ctx, m)))
        return Verdict(
            "confirmed",
            {
                "witness": format_multifraction(ctx, witness),
                "common": sorted(format_multifraction(ctx, x) for x in common),
            },
        )
    if not undecided:
        return Verdict(
            "counterexample",
            {"b_nodes": lc.closure_of(b).bit_count(), "c_nodes": lc.closure_of(c).bit_count()},
        )
    return Verdict("inconclusive", {})


def mirror(ctx: MonoidContext, a: Multifraction) -> Multifraction:
    """The mirror image of a: its entries in reverse order, each word
    reversed and made canonical, with a's last sign as its first.  Every
    preset's relations read the same reversed, so word reversal is an
    anti-automorphism of its monoid, and the left moves of a are the
    right moves of mirror(a)."""
    entries = tuple(ctx.canonical(e[::-1]) for e in reversed(a.entries))
    return Multifraction(a.sign(a.depth), entries)


def witness_roots(rg: red.ReductGraph) -> list[Multifraction]:
    """The root of a right reduct graph and its nodes with no division
    edge out, in node order, read off the graph's edges: the oracle of
    the roots `red.right_roots` finds without keeping edges."""
    nodes = rg.nodes
    divided = {s for s, move, d in rg.edges if red.is_division(move, nodes[s], nodes[d])}
    return [r for k, r in enumerate(nodes) if k == 0 or k not in divided]


def unique_fraction_probe(
    ctx: MonoidContext, a: Element, b: Element, c: Element, d: Element
) -> dict:
    """For a b^-1 = c d^-1 certified in the group: reduced numerators and
    denominators must coincide; in general the common cofactors x, y with
    a = x(a /\\~ b), b = y(a /\\~ b), c = x(c /\\~ d), d = y(c /\\~ d) are
    the rays of the central cross of a/b/d/c, which exists only when
    those four equations hold."""
    cross = has_central_cross(ctx, Multifraction(1, (a, b, d, c)))
    if cross is None:
        raise MultiredError("inputs do not represent the same fraction")
    x, gab, y, gcd_ = cross
    report = {
        "x": ctx.word_str(x),
        "y": ctx.word_str(y),
        "gcd_ab": ctx.word_str(gab),
        "gcd_cd": ctx.word_str(gcd_),
        "factorization_holds": True,
        "reduced_pair_equal": None,
    }
    if not gab and not gcd_:
        report["reduced_pair_equal"] = a == c and b == d
    return report
