"""Van Kampen diagrams of the universal annular shape for unital
multifractions that tame reduction sends to the trivial one.

The shape for depth n is built from n-2 four-triangle cells glued in an
annulus around the shape for depth n-2, bottoming out at the single cell
of depth 4 (whose labeling is a central cross).  One annulus corresponds
to one sweep of reductions at levels 1..m-1: cell k is the commuting
square of the step at level k, its inner edges carrying the reducer x_k,
the complement x'_{k+1} of the next step, and the partially reduced
entries.  Every triangle states one product equality in the monoid, and
the outer boundary read from the base vertex is the input multifraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import (
    Element,
    IDENTITY,
    InternalInvariantError,
    MonoidContext,
    MultiredError,
    RIGHT,
)
from .multifraction import Multifraction, format_multifraction
from .harness import has_central_cross
from .reduction import Move, apply_left, due_side, red_tame


class VanKampenFailure(MultiredError):
    pass


@dataclass(frozen=True)
class VKEdge:
    src: str
    dst: str
    label: Element


@dataclass
class VanKampenDiagram:
    depth: int
    base: str
    vertices: list[str]
    edges: dict[str, VKEdge]
    # (e1, e2, e3): the path e1 then e2 closes against e3
    triangles: list[tuple[str, str, str]]
    boundary: list[str]  # edge ids for entries 1..n

    def to_json(self, ctx: MonoidContext) -> dict:
        return {
            "depth": self.depth,
            "base": self.base,
            "vertices": self.vertices,
            "edges": {
                k: {"src": e.src, "dst": e.dst, "label": ctx.word_str(e.label)}
                for k, e in sorted(self.edges.items())
            },
            "triangles": self.triangles,
            "boundary": self.boundary,
        }


def validate_diagram(ctx: MonoidContext, diagram: VanKampenDiagram, a: Multifraction) -> None:
    """Every triangle must commute and the boundary must spell out a."""
    for e1, e2, e3 in diagram.triangles:
        a1, a2, a3 = diagram.edges[e1], diagram.edges[e2], diagram.edges[e3]
        if a1.dst != a2.src or a1.src != a3.src or a2.dst != a3.dst:
            raise VanKampenFailure(f"triangle {(e1, e2, e3)} is not a path pair")
        if ctx.multiply(a1.label, a2.label) != a3.label:
            raise VanKampenFailure(f"triangle {(e1, e2, e3)} does not commute")
    if len(diagram.boundary) != a.depth:
        raise VanKampenFailure("boundary length mismatch")
    cursor = diagram.base
    for i, eid in enumerate(diagram.boundary, 1):
        e = diagram.edges[eid]
        if e.label != a.entry(i):
            raise VanKampenFailure(f"boundary entry {i} label mismatch")
        tail, head = (e.src, e.dst) if a.sign(i) > 0 else (e.dst, e.src)
        if tail != cursor:
            raise VanKampenFailure(f"boundary entry {i} detached")
        cursor = head
    if cursor != diagram.base:
        raise VanKampenFailure("boundary does not close at the base vertex")


class _Builder:
    def __init__(self):
        self.vertices: list[str] = []
        self.edges: dict[str, VKEdge] = {}
        self.triangles: list[tuple[str, str, str]] = []

    def vertex(self, name: str) -> str:
        """Add a vertex; every name the diagram builds is new."""
        self.vertices.append(name)
        return name

    def edge(self, src: str, dst: str, label: Element) -> str:
        eid = f"e{len(self.edges)}"
        self.edges[eid] = VKEdge(src, dst, label)
        return eid

    def triangle(self, e1: str, e2: str, e3: str):
        self.triangles.append((e1, e2, e3))


def _complement(ctx: MonoidContext, c: Multifraction, i: int, x: Element) -> Element:
    """The remainder x' deposited at entry i-1 by the step R(i,x) on c."""
    if not x or i == 1:
        return IDENTITY
    side = due_side(c, i).other
    r = ctx.lcm(x, c.entry(i), side)
    if r is None:
        raise InternalInvariantError(
            f"R({i},{ctx.word_str(x)}) applies, yet {ctx.word_str(x)} and entry {i} "
            f"have no {side.value} lcm"
        )
    return r[1]


def _apply(ctx, c, i, x):
    if not x:
        return c
    b = apply_left(ctx, c, i, x)
    if b is None:
        raise InternalInvariantError(
            f"the traced step R({i},{ctx.word_str(x)}) does not apply on replay"
        )
    return b


def _ring_edges(builder, names, mf):
    """Boundary edges of the outer ring."""
    ids = []
    for i in range(1, mf.depth + 1):
        u, v = names[i - 1], names[i % mf.depth]
        if mf.sign(i) < 0:
            u, v = v, u
        ids.append(builder.edge(u, v, mf.entry(i)))
    return ids


def van_kampen(ctx: MonoidContext, a: Multifraction) -> VanKampenDiagram:
    """Build the universal-shape diagram for a positive unital even-depth
    multifraction.

    The diagram is read off the trace of red_tame along the universal
    level sequence, identity steps kept: one annulus per sweep, down to
    the depth-4 core.  Raises ValueError for an odd depth, a depth below
    4 or a negative multifraction, and VanKampenFailure when red_tame
    does not send the input to the trivial multifraction.
    """
    n = a.depth
    if n % 2 != 0 or n < 4:
        raise ValueError("universal diagrams need even depth >= 4")
    if a.first_sign < 0:
        raise ValueError("positive multifractions only")
    moves: list[Move] = []
    end = red_tame(ctx, a, collect=moves)
    if not end.is_trivial:
        raise VanKampenFailure(
            "no universal-sequence trace to the trivial multifraction "
            f"(tame reduct: {format_multifraction(ctx, end)})"
        )
    builder = _Builder()
    base = builder.vertex("*")
    cur = a
    ring = 0
    outer_names = [base] + [builder.vertex(f"r0v{j}") for j in range(1, n)]
    outer_ids = _ring_edges(builder, outer_names, cur)
    boundary = list(outer_ids)
    m = n
    while m > 4:
        segment = moves[: m - 1]
        moves = moves[m - 1 :]
        cur, outer_names, outer_ids = _annulus(
            builder, ctx, cur, segment, outer_names, outer_ids, ring
        )
        ring += 1
        m -= 2
    # base cell: the depth-4 inner multifraction carries a central cross
    rays = has_central_cross(ctx, cur)
    if rays is None:
        raise VanKampenFailure("depth-4 core admits no central cross")
    x1, x2, x3, x4 = rays
    hub = builder.vertex(f"r{ring}hub")
    w0, w1, w2, w3 = outer_names
    e_x1 = builder.edge(w0, hub, x1)
    e_x2 = builder.edge(hub, w1, x2)
    e_x3 = builder.edge(w2, hub, x3)
    e_x4 = builder.edge(hub, w3, x4)
    builder.triangle(e_x1, e_x2, outer_ids[0])
    builder.triangle(e_x3, e_x2, outer_ids[1])
    builder.triangle(e_x3, e_x4, outer_ids[2])
    builder.triangle(e_x1, e_x4, outer_ids[3])
    diagram = VanKampenDiagram(
        depth=n,
        base=base,
        vertices=builder.vertices,
        edges=builder.edges,
        triangles=builder.triangles,
        boundary=boundary,
    )
    validate_diagram(ctx, diagram, a)
    return diagram


def _annulus(builder, ctx, c, segment, outer_names, outer_ids, ring):
    """One sweep at levels 1..m-1: m-2 cells between the ring labeled by c
    and the ring labeled by the (depth m-2) result."""
    m = c.depth
    if len(segment) != m - 1:
        raise InternalInvariantError(
            f"a depth-{m} sweep holds {len(segment)} traced steps, not {m - 1}"
        )
    xs = {mv.level: mv.x for mv in segment}
    inter = {0: c}
    for i in range(1, m):
        inter[i] = _apply(ctx, inter[i - 1], i, xs[i])
    comp = {i: _complement(ctx, inter[i - 1], i, xs[i]) for i in range(1, m)}
    end = inter[m - 1]
    if end.entry(m - 1) or end.entry(m):
        raise VanKampenFailure("sweep does not trivialize the top entries")
    d = Multifraction(c.first_sign, end.entries[: m - 2])
    inner_names = [outer_names[0]] + [
        builder.vertex(f"r{ring + 1}v{j}") for j in range(1, m - 2)
    ]
    # the cells set every inner edge: 0, 1..m-4 and m-3
    inner_ids: list[str | None] = [None] * (m - 2)
    U = outer_names + [outer_names[0]]
    W = inner_names + [inner_names[0]]
    centers = [builder.vertex(f"r{ring}x{k}") for k in range(1, m - 1)]

    # cell 1: couples the steps at levels 1 and 2
    X1 = centers[0]
    e_c11 = builder.edge(U[0], X1, inter[1].entry(1))
    e_x1 = builder.edge(X1, U[1], xs[1])
    e_c12 = builder.edge(U[2], X1, inter[1].entry(2))
    e_cmp2 = builder.edge(X1, W[1], comp[2])
    shared = builder.edge(U[2], W[1], ctx.multiply(inter[1].entry(2), comp[2]))
    e_d1 = builder.edge(W[0], W[1], d.entry(1))
    inner_ids[0] = e_d1
    builder.triangle(e_c11, e_x1, outer_ids[0])
    builder.triangle(e_c12, e_x1, outer_ids[1])
    builder.triangle(e_c12, e_cmp2, shared)
    builder.triangle(e_c11, e_cmp2, e_d1)

    # middle cells: cell k couples the steps at levels k and k+1.  They are
    # drawn for a negative level k (due side LEFT); at a positive one every
    # edge is reversed and the first two edges of each triangle swap
    for k in range(2, m - 2):
        Xk = centers[k - 1]
        side = due_side(c, k)
        flip = side is RIGHT
        e_xk, e_ck1, e_ckk, e_cmp, new_shared, e_dk = (
            builder.edge(v, u, label) if flip else builder.edge(u, v, label)
            for u, v, label in (
                (U[k], Xk, xs[k]),
                (Xk, U[k + 1], inter[k].entry(k + 1)),
                (Xk, W[k - 1], inter[k].entry(k)),
                (W[k], Xk, comp[k + 1]),
                (W[k], U[k + 1], ctx.attach(inter[k].entry(k + 1), comp[k + 1], side)),
                (W[k], W[k - 1], d.entry(k)),
            )
        )
        for e1, e2, e3 in (
            (e_xk, e_ck1, outer_ids[k]),
            (e_xk, e_ckk, shared),
            (e_cmp, e_ckk, e_dk),
            (e_cmp, e_ck1, new_shared),
        ):
            builder.triangle(*((e2, e1) if flip else (e1, e2)), e3)
        inner_ids[k - 1] = e_dk
        shared = new_shared

    # final cell: couples the steps at levels m-2 and m-1 and closes the ring
    Xf = centers[m - 3]
    k = m - 2  # even: level m-2 is negative
    e_xf = builder.edge(U[k], Xf, xs[k])
    e_cf1 = builder.edge(Xf, U[k + 1], inter[k].entry(k + 1))
    e_cfk = builder.edge(Xf, W[k - 1], inter[k].entry(k))
    e_cmp = builder.edge(U[0], Xf, comp[m - 1])
    e_dlast = builder.edge(W[0], W[k - 1], d.entry(m - 2))
    inner_ids[m - 3] = e_dlast
    builder.triangle(e_xf, e_cf1, outer_ids[m - 2])
    builder.triangle(e_xf, e_cfk, shared)
    builder.triangle(e_cmp, e_cf1, outer_ids[m - 1])
    builder.triangle(e_cmp, e_cfk, e_dlast)

    return d, inner_names, inner_ids
