"""Reduction questions the tests ask of the package and the package does
not ask itself: the paper's atomic, all and tame reducer listings, the
exact tower step bound, the atomic moves of some levels (`atomic_moves`)
and a strategy run over them one level at a time, a zigzag of maximal
steps between two reducts, the composed moves of a trace, the
cross-confluence of one pair, the unique-fraction probe, the witness
roots of a right reduct graph read off its edges, the left closures as
bitsets over all nodes (`bitset_closures`, the walk `red.left_closures`
replaced, kept as its oracle) and the members of one walked root's
closure, and the mirror image of a multifraction.  Each is built on the
package's moves, graphs and closures, as the tests that use it are.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from multired.harness import Verdict, has_central_cross
from multired.monoid import (
    CapExceeded,
    Element,
    GraphNodeCapExceeded,
    MonoidContext,
    MultiredError,
    Side,
    result_of,
)
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
    common, undecided = lc.common()  # b and c are both walked
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
            {"b_nodes": len(closure_members(lc, 0)), "c_nodes": len(closure_members(lc, 1))},
        )
    return Verdict("inconclusive", {})


@dataclass
class BitsetClosures:
    """Left reduct closures as int bitsets over all nodes: bit k stands for
    nodes[k].  The oracle of `red.LeftClosures`, which keeps one int over
    the walked roots per node instead.

    closure[k] holds k and every node k left-reduces to; overflows[k]
    counts the move attempts of node k itself that overflowed a cap, and
    `overflowed` holds the nodes with any, so a closure `bits` is complete
    when `bits & overflowed` is 0 (`common` counts them); `sinks` holds
    the nodes with no move and no overflow of their own.  Nodes are
    numbered in the order their walks finish, so closure[k] holds no bit
    above k.  `walked` holds the roots whose closures were computed, in
    root order: every root but those a redundancy search left out (see
    `bitset_closures`).
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
        return [self.nodes[k] for k in bit_indices(bits)]

    def closure_of(self, root: Multifraction) -> int:
        """The closure of a root."""
        return self.closure[self.index[root]]

    def common(self, roots) -> tuple[int, int]:
        """The common left reducts of one or more roots, as the AND of
        their closures, and the undecided moves of those closures: the
        overflowed move attempts of the nodes in the union of the
        closures, each counted once.  The set is exact when that count is
        0."""
        bits, union = -1, 0
        for root in roots:
            closure = self.closure_of(root)
            bits &= closure
            union |= closure
        return bits, sum(self.overflows[k] for k in bit_indices(union & self.overflowed))

    def latest_common_ancestors(self, root: Multifraction, targets: int) -> list[Multifraction]:
        """The members of root's closure whose closure holds every target,
        less those whose closure holds another such member."""
        closure = self.closure
        members = bit_indices(self.closure_of(root))
        found = [k for k in members if closure[k] & targets == targets]
        found_bits = sum(1 << k for k in found)
        return [self.nodes[k] for k in found if closure[k] & found_bits == 1 << k]


def bit_indices(bits: int) -> list[int]:
    return [k for k, c in enumerate(reversed(bin(bits)[2:])) if c == "1"]


def bitset_closures(ctx: MonoidContext, roots, targets=()) -> BitsetClosures:
    """The left reduct closures of the roots as bitsets, by the walk of
    `red.left_closures` (its numbering, its redundancy search with
    `targets`, its moves through `red._left_reducts` over each root's
    `red._walk`), with every node's closure the union of its reducts'
    closures, taken as each node's walk finishes.  Raises
    GraphNodeCapExceeded, with `reduct_graph`'s message, as soon as one
    walk or search finds more than graph_node_cap nodes or a closure of a
    node with a reduct holds more."""
    cap = ctx.caps.graph_node_cap
    out = BitsetClosures()
    nodes, index, closure, overflows = out.nodes, out.index, out.closure, out.overflows
    expanded: dict[Multifraction, tuple[list[Multifraction], int]] = {}  # searched, not walked
    walked_targets = 0

    def frame(node, walk):
        # [node, reducts, next reduct, closure so far, overflowed attempts]
        reducts, overflowed = expanded.pop(node, None) or red._left_reducts(ctx, node, walk)
        index[node] = -1  # on the stack until its walk finishes
        return [node, reducts, 0, 0, overflowed]

    def redundant(root, walk) -> bool:
        # whether the closure of root holds another target
        seen = {root: 0}
        order = [root]  # the search's queue and its nodes so far
        for node in order:
            got = expanded.get(node)
            if got is None:
                got = expanded[node] = red._left_reducts(ctx, node, walk)
            for b in got[0]:
                m = len(seen)
                if seen.setdefault(b, m) != m:
                    continue
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
        walk = red._walk(ctx, root, Side.LEFT)
        if targets and out.walked and redundant(root, walk):
            continue
        out.walked.append(root)
        found = 1
        stack = [frame(root, walk)]
        while stack:
            top = stack[-1]
            node, reducts, pos = top[0], top[1], top[2]
            if pos < len(reducts):
                top[2] = pos + 1
                b = reducts[pos]
                k = index.get(b)
                if k is None:
                    if found >= cap:
                        raise GraphNodeCapExceeded(f"reduct graph exceeded {cap} nodes")
                    found += 1
                    stack.append(frame(b, walk))
                elif k < 0:
                    raise red.InternalInvariantError("left reduct graph has a cycle")
                else:
                    top[3] |= closure[k]
                continue
            stack.pop()
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


def closure_members(lc: red.LeftClosures, root: int = 0) -> list[Multifraction]:
    """The nodes of walked[root]'s closure, read off the root bits of
    `red.left_closures`' result."""
    return [n for n, v in zip(lc.nodes, lc.reach) if v >> root & 1]


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
