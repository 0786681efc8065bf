"""Reduction questions the tests ask of the package and the package does
not ask itself: a zigzag of maximal steps between two reducts, the
composed moves of a trace, the cross-confluence of one pair, the
unique-fraction probe, and the witness roots of a right reduct graph read
off its edges.  Each is built on the package's moves, graphs and
closures, as the tests that use it are.
"""

from __future__ import annotations

from collections import deque

from multired.harness import Verdict, has_central_cross
from multired.monoid import CapExceeded, Element, MonoidContext, MultiredError, Side
from multired.multifraction import Multifraction, format_multifraction
from multired import reduction as red
from multired.reduction import Move, ReductionTrace


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
        for x in red.reducers(ctx, a, i, "maximal"):
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
    bits, complete = lc.common((b, c))
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
    if complete:
        return Verdict(
            "counterexample",
            {"b_nodes": lc.closure_of(b).bit_count(), "c_nodes": lc.closure_of(c).bit_count()},
        )
    return Verdict("inconclusive", {})


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
    if gab.is_identity and gcd_.is_identity:
        report["reduced_pair_equal"] = a == c and b == d
    return report
