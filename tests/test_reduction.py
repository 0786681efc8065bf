import random

import pytest

from multired.monoid import (
    BasicsCapExceeded,
    CapExceeded,
    Caps,
    GraphNodeCapExceeded,
    IDENTITY,
    InternalInvariantError,
    MonoidContext,
    ReversingCapExceeded,
    Side,
)
from multired.multifraction import (
    Multifraction,
    format_multifraction,
    inverse,
    parse_multifraction,
    unit,
)
from multired.presentation import preset
from multired import reduction as red
from multired.harness import gen_multifraction
from overflows import overflow_left_moves
from reduct_oracles import (
    all_reducers,
    atomic_moves,
    atomic_reducers,
    bitset_closures,
    closure_members,
    composed_moves,
    connect_by_maximal_zigzag,
    maximal_moves,
    mirror,
    moves_run,
    step_bound,
    tame_reducers,
)
from test_campaign_golden import PRESETS as GOLDEN_PRESETS


def mf(ctx, text):
    return parse_multifraction(ctx, text)


def fmt(ctx, a):
    return format_multifraction(ctx, a)


def test_apply_left_att_example(att):
    a = mf(att, "1/c/aba")
    assert fmt(att, red.apply_left(att, a, 2, att.element("a"))) == "ac/ca/ba"
    assert fmt(att, red.apply_left(att, a, 2, att.element("b"))) == "bc/cb/ab"
    assert red.apply_left(att, a, 1, att.element("a")) is None


def test_apply_left_validates_level(att):
    a = mf(att, "a/b")
    with pytest.raises(ValueError):
        red.apply_left(att, a, 2, att.element("a"))
    with pytest.raises(ValueError):
        red.apply_left(att, a, 1, IDENTITY)


def test_apply_right_examples(att):
    chain = mf(att, "1/a/bc/1")
    step1 = red.apply_left(att, chain, 2, att.element("b"))
    step2 = red.apply_right(att, step1, 3, att.element("a"))
    assert fmt(att, step2) == "ba/b/ca/ac"
    two = mf(att, "a/a")
    assert fmt(att, red.apply_right(att, two, 2, att.element("a"))) == "1/1"
    assert red.apply_right(att, mf(att, "1/c/aba"), 2, att.element("a")) is None
    assert red.apply_right(att, mf(att, "a/b"), 1, att.element("a")) is None


def test_apply_division_examples(braid3):
    a = mf(braid3, "a/aba/b")
    assert fmt(braid3, red.apply_division(braid3, a, 2, braid3.element("b"))) == "a/ab/1"
    assert fmt(braid3, red.apply_division(braid3, a, 1, braid3.element("a"))) == "1/ab/b"
    two = mf(braid3, "a/a")
    assert fmt(braid3, red.apply_division(braid3, two, 1, braid3.element("a"))) == "1/1"


def test_reducers_examples(att):
    a = mf(att, "1/a/cabab")
    maximal = red.reducers(att, a, 2)
    assert sorted(att.word_str(x) for x in maximal) == ["caa", "cab"]
    atomic = atomic_reducers(att, mf(att, "1/c/aba"), 2)
    assert sorted(att.word_str(x) for x in atomic) == ["a", "b"]
    assert all_reducers(att, unit(2), 1) == ()
    # tame reducers divide every maximal one
    tame = tame_reducers(att, a, 2)
    for t in tame:
        for m in maximal:
            assert att.divides(t, m, Side.LEFT) is not None


def test_greatest_tame_reducer(att):
    assert att.word_str(red.greatest_tame_reducer(att, mf(att, "1/a/cabab"), 2)) == "ca"
    assert red.greatest_tame_reducer(att, mf(att, "1/c/aba"), 2) == IDENTITY
    assert att.word_str(red.greatest_tame_reducer(att, mf(att, "a/a"), 1)) == "a"
    a = mf(att, "ab/ba/ca")
    for i in (0, a.depth):  # levels run 1..depth-1
        with pytest.raises(ValueError, match="^reducer level"):
            red.greatest_tame_reducer(att, a, i)


SPHERICAL = ("braid(4)", "braid(5)", "I2(5)")


def reference_gtr(ctx, a, i):
    """The greatest tame reducer by the paper's definition: the due-side
    gcd fold of the maximal reducers, or the identity when there are
    none."""
    maximal = red.reducers(ctx, a, i)
    g = maximal[0] if maximal else IDENTITY
    for y in maximal[1:]:
        g = ctx.gcd(g, y, red.due_side(a, i))
    return g


def outcome(f, *args):
    """f(*args), or None when a cap overflows."""
    try:
        return f(*args)
    except CapExceeded:
        return None


@pytest.mark.parametrize("reversing_cap", [None, 3, 4, 5, 6])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_greatest_tame_reducer_matches_reducer_listing(name, reversing_cap):
    # the closed forms (level 1, a trivial entry i+1, an lcm of entries i+1
    # and i) and the listing they fall back to give the gcd of the maximal
    # reducers at every level, on both first signs.  The two sides run in
    # contexts of their own; under a cap they take different lcms and gcds,
    # so either may overflow where the other finishes, and they are compared
    # where both finish
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, ref = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    inputs = MonoidContext(preset(name))  # random words canonical under any cap
    compared = closed = listed = 0
    for depth in range(2, 9):
        for seed in range(3):
            entries = gen_multifraction(inputs, depth, 5, 1000 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                for i in range(1, depth):
                    got = outcome(red.greatest_tame_reducer, fast, a, i)
                    want = outcome(reference_gtr, ref, a, i)
                    if reversing_cap is None:
                        assert got is not None and want is not None
                    if got is None or want is None:
                        continue
                    assert got == want, (fmt(inputs, a), i)
                    compared += 1
                    side = red.due_side(a, i).other
                    if i == 1 or not a.entry(i + 1) or outcome(
                        inputs.lcm, a.entry(i + 1), a.entry(i), side
                    ):
                        closed += 1
                    else:
                        listed += 1
    assert compared > 0
    if reversing_cap is None:
        # in a spherical monoid every two elements have an lcm
        assert closed > 0 and (listed > 0) == (name not in SPHERICAL)


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_red_tame_collects_the_reference_sweep(name):
    # red_tame records one move per level of u(depth), the reference's
    # reducer at that level, and ends where applying them ends
    ctx = MonoidContext(preset(name))
    for depth in range(2, 9):
        for seed in range(3):
            entries = gen_multifraction(ctx, depth, 5, 2000 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                want, b = [], a
                for i in red.universal_sequence(depth):
                    g = reference_gtr(ctx, b, i)
                    want.append(red.Move(Side.LEFT, i, g))
                    if g:
                        b = red.apply_left(ctx, b, i, g)
                got = []
                assert red.red_tame(ctx, a, collect=got) == b
                assert got == want, fmt(ctx, a)


def test_div_max(braid3, att):
    a = mf(braid3, "a/aba/b")
    assert fmt(braid3, red.div_max(braid3, a, 2)) == "a/ab/1"
    b = mf(att, "1/c/aba")
    assert red.div_max(att, b, 1) == b
    assert red.div_max(att, mf(att, "a/a"), 1) == unit(2)


def test_derdiv(att):
    assert fmt(att, red.derdiv(att, mf(att, "ab/aba/aca"))) == "ab/ba/ca"
    assert red.derdiv(att, mf(att, "a/a/a/a")) == unit(4)
    assert red.derdiv(att, unit(2)) == unit(2)
    assert red.is_prime(att, red.derdiv(att, mf(att, "ac/aca/aba")))


def test_universal_sequence():
    assert red.universal_sequence(0) == ()
    assert red.universal_sequence(1) == ()
    assert red.universal_sequence(2) == (1,)
    assert red.universal_sequence(3) == (1, 2)
    assert red.universal_sequence(4) == (1, 2, 3, 1)
    assert red.universal_sequence(6) == (1, 2, 3, 4, 5, 1, 2, 3, 1)


def test_red_tame_values(att):
    assert red.red_tame(att, mf(att, "1/c/aba")) == mf(att, "1/c/aba")
    assert red.red_tame(att, mf(att, "ac/aca/aba")) == mf(att, "1/c/aba")
    first = red.red_tame(att, mf(att, "1/c/aba/cb"))
    assert fmt(att, first) == "1/c/ba/c"


@pytest.mark.parametrize("check", ["gtr", "div_max", "derdiv", "red_tame"])
def test_composite_moves_raise_on_a_broken_invariant(att, monkeypatch, check):
    # each invariant of the composite moves is a raise that python -O keeps
    a = mf(att, "ac/aca/aba")
    if check == "gtr":  # a maximal reducer that is no multiple of the adjacent gcd a
        # entries 3 and 2 of 1/ac/aba have no lcm, so level 2 lists its
        # maximal reducers instead of taking a closed form
        monkeypatch.setattr(red, "reducers", lambda ctx, b, i: (att.element("b"),))
        call = lambda: red.greatest_tame_reducer(att, mf(att, "1/ac/aba"), 2)
    elif check == "div_max":
        monkeypatch.setattr(red, "apply_division", lambda ctx, b, i, x: None)
        call = lambda: red.div_max(att, mf(att, "a/a"), 1)
    elif check == "derdiv":
        monkeypatch.setattr(red, "is_prime", lambda ctx, b: False)
        call = lambda: red.derdiv(att, a)
    else:
        monkeypatch.setattr(red, "apply_left", lambda ctx, b, i, x: None)
        call = lambda: red.red_tame(att, a)
    with pytest.raises(red.InternalInvariantError):
        call()


def test_red_tame_second_pass_moves(att):
    # the second pass applies exactly R(2,b) then R(3,c); the intermediate
    # after R(2,b) is bc/cb/a/c and the final value keeps the R(3,c) effect
    first = mf(att, "1/c/ba/c")
    moves = []
    out = red.red_tame(att, first, collect=moves)
    applied = [(m.level, att.word_str(m.x)) for m in moves if m.x]
    assert applied == [(2, "b"), (3, "c")]
    intermediate = red.apply_left(att, first, 2, att.element("b"))
    assert fmt(att, intermediate) == "bc/cb/a/c"
    assert fmt(att, out) == "bc/accb/ca/1"


def test_reduce_unital(att):
    b6 = mf(att, "ac/ca/ba/ab/cb/bc")
    for strategy in red.STRATEGIES:
        tr = red.reduce_left(att, b6, strategy)
        assert tr.end == unit(6)
        assert red.replay(att, b6, tr.moves) == tr.end
    assert red.reduce_left(att, unit(3)).moves == ()


def test_reduce_unique_sequence(att):
    a = mf(att, "1/ba/cb/ca/ab")
    tr = red.reduce_left(att, a, "low_lex")
    composed = composed_moves(att, tr)
    assert [(m.level, att.word_str(m.x)) for m in composed] == [
        (4, "a"),
        (2, "bc"),
        (3, "a"),
        (4, "b"),
    ]


def test_reduct_graph_examples(att):
    g = red.reduct_graph(att, mf(att, "1/c/aba"))
    assert sorted(fmt(att, s) for s in g.sinks()) == ["ac/ca/ba", "bc/cb/ab"]
    assert red.reduct_graph(att, unit(2)).nodes == [unit(2)]
    irr = red.reduct_graph(att, mf(att, "ab/aba/aca")).sinks()
    assert sorted(fmt(att, s) for s in irr) == ["ab/ba/ca", "cb/bc/ac"]
    assert red.reduct_graph(att, unit(3)).sinks() == [unit(3)]


def test_reduct_graph_cap():
    ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=3))
    with pytest.raises(GraphNodeCapExceeded):
        red.reduct_graph(ctx, mf(ctx, "ac/ca/ba/ab/cb/bc"))


def test_graph_serialization(att):
    g = red.reduct_graph(att, mf(att, "1/c/aba"))
    dot = g.to_dot(att)
    assert dot.startswith("digraph") and "R(2,a)" in dot
    payload = g.to_json(att)
    assert payload["complete"] and payload["root"] == "1/c/aba"
    assert len(payload["nodes"]) == len(g.nodes)
    assert [e["kind"] for e in payload["edges"]] == ["left", "left"]
    right = red.reduct_graph(att, mf(att, "ac/ca/ba"), Side.RIGHT).to_json(att)
    assert right["side"] == "right"
    assert [e["kind"] for e in right["edges"]] == ["right", "right"]


# the presets and shapes of the seeded division checks: (depth, entry length)
DIVISION_PRESETS = ("A2tilde", "braid(4)", "K(4,3)", "C2tilde", "I2(5)")
DIVISION_SHAPES = ((4, 3), (6, 1))


def seeded_graphs(ctx, side):
    for depth, length in DIVISION_SHAPES:
        for seed in range(4):
            yield red.reduct_graph(ctx, gen_multifraction(ctx, depth, length, seed), side)


@pytest.mark.parametrize("name", DIVISION_PRESETS)
def test_is_division_matches_apply_division(name):
    # on every edge of seeded left and right graphs, a move is a division
    # exactly when D(level,x) applies to its source, and it then lands
    # where D(level,x) does; the DOT output labels an edge D exactly so
    ctx = MonoidContext(preset(name))
    seen = {True: 0, False: 0}
    for side in Side:
        for g in seeded_graphs(ctx, side):
            edge_lines = g.to_dot(ctx).splitlines()[len(g.nodes) + 1:-1]
            assert len(edge_lines) == len(g.edges)
            for (src, move, dst), line in zip(g.edges, edge_lines):
                level = red._frame(move.kind, move.level)[0]
                d = red.apply_division(ctx, g.nodes[src], level, move.x)
                division = red.is_division(move, g.nodes[src], g.nodes[dst])
                assert division == (d is not None)
                assert d is None or d == g.nodes[dst]
                label = f"D({level},{ctx.word_str(move.x)})" if division else move.label(ctx)
                assert line == f'  n{src} -> n{dst} [label="{label}"];'
                seen[division] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", DIVISION_PRESETS)
def test_division_edges_nest_left_closures(name):
    # a division r -> r' of a right graph is a left reduction too: the
    # left closure of r' lies strictly inside that of r
    ctx = MonoidContext(preset(name))
    divisions = 0
    for rg in seeded_graphs(ctx, Side.RIGHT):
        lc = red.left_closures(ctx, rg.nodes)
        assert lc.walked == rg.nodes  # the closure of nodes[k] is bit k's
        for src, move, dst in rg.edges:
            if red.is_division(move, rg.nodes[src], rg.nodes[dst]):
                inner, outer = set(closure_members(lc, dst)), set(closure_members(lc, src))
                assert inner < outer
                divisions += 1
    assert divisions


def test_is_prime(att):
    assert red.is_prime(att, mf(att, "ab/ac/ca/cb/bc/ba"))
    assert red.is_prime(att, mf(att, "ac/ca/ba/ab/cb/bc"))
    assert not red.is_prime(att, mf(att, "a/a"))


def test_step_bound(att, free2):
    one = Multifraction(1, (att.element("ababa"),))
    assert step_bound(att, one) == 7
    two = unit(2)
    assert step_bound(att, two) == 9  # (0+1) * 3**F1(0) with C = 3
    a = mf(att, "1/c/aba")
    # F3(0,1,3) = (0+1) * C**F2(1,3), F2(1,3) = 2*3**5
    assert step_bound(att, a) == 3 ** (2 * 3**5)
    assert red.within_step_bound(att, a, 10)
    assert not red.within_step_bound(att, unit(1), 4)  # F1(0) = 2
    # F2(0,0) = C**2: with C = 2 the bound allows 4 steps, so k = 5..10
    # reach the basic tables and their C = 3
    assert [red.within_step_bound(att, two, k) for k in range(11)] == [True] * 10 + [False]
    # the capped bound agrees with the exact one wherever that materializes:
    # depth <= 2, or depth 3 with entries of length <= 1
    rng = random.Random(16)
    for ctx in (att, MonoidContext(preset("braid(4)")), free2):
        for _ in range(40):
            depth = rng.randint(1, 3)
            a = gen_multifraction(ctx, depth, 1 if depth == 3 else 4, rng.randrange(10**9))
            if rng.random() < 0.5:
                a = Multifraction(-1, a.entries)
            bound = step_bound(ctx, a)
            for k in (bound - 1, bound, bound + 1):
                assert red.within_step_bound(ctx, a, k) == (k <= bound)


@pytest.mark.parametrize("side", ["left", "right"])
def test_step_bound_guard(att, monkeypatch, side):
    # a right reduction from a is bounded as a left reduction from inverse(a);
    # with the bound at C = 2 read as 0, the guard asks for the first count
    a = mf(att, "ac/ca/ba/ab/cb/bc")
    reduce_fn = red.reduce_left if side == "left" else red.reduce_right
    bounded = a if side == "left" else inverse(a)
    seen = []

    def refuse(ctx, b, k):
        seen.append((b, k))
        return False

    monkeypatch.setattr(red, "_tower", lambda *args: 0)
    monkeypatch.setattr(red, "within_step_bound", refuse)
    with pytest.raises(red.InternalInvariantError):
        reduce_fn(att, a)
    assert seen == [(bounded, 1)]


@pytest.mark.parametrize("side", ["left", "right"])
def test_step_guard_raises_at_the_first_step_past_the_bound(att, monkeypatch, side):
    # with a bound of 5 steps, a reduction of 10 (right) or 15 (left)
    # steps raises once it has found its sixth move, at the guard's count 6
    a = mf(att, "ac/ca/ba/ab/cb/bc")
    reduce_fn = red.reduce_left if side == "left" else red.reduce_right
    assert len(reduce_fn(att, a).moves) > 5
    seen, searched = [], set()
    push = red._push

    def five(ctx, b, k):
        seen.append(k)
        return k <= 5

    def counted(ctx, b, *args, **kwargs):
        searched.add(b)
        return push(ctx, b, *args, **kwargs)

    monkeypatch.setattr(red, "_tower", lambda *args: 0)
    monkeypatch.setattr(red, "within_step_bound", five)
    monkeypatch.setattr(red, "_push", counted)
    with pytest.raises(red.InternalInvariantError, match="tower step bound"):
        reduce_fn(att, a)
    assert len(searched) == 6 and seen == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("side", ["left", "right"])
def test_step_guard_takes_the_bound_once_per_run(monkeypatch, side):
    # a run within the bound at C = 2 never asks for the true C
    ctx = MonoidContext(preset("braid(4)"))
    a = gen_multifraction(ctx, 8, 16, 1)
    reduce_fn = red.reduce_left if side == "left" else red.reduce_right
    tower = red._tower
    towers, guards = [], []

    def counted(*args):
        towers.append(args)
        return tower(*args)

    monkeypatch.setattr(red, "_tower", counted)
    monkeypatch.setattr(red, "within_step_bound", lambda *args: guards.append(args))
    n = len(reduce_fn(ctx, a).moves)
    assert n > 80
    assert len(towers) == 1 and guards == []


def flip(strategy: str) -> str:
    """The strategy that tries the mirrored levels in the same order:
    low and high swap, lex and antilex stay."""
    end, atoms = strategy.split("_")
    return {"low": "high", "high": "low"}[end] + "_" + atoms


def test_duality():
    # the truncated rules are divisions, and R~(i,x) on a is R(n+1-i,x) on
    # inverse(a), read back through inverse; so are runs under mirrored
    # strategies and whole reduct graphs, on every golden preset,
    # mirror-symmetric or not (graphs up to depth 5: at depth 6 they reach
    # 20,000 nodes and would take ten seconds)
    applied = runs = graphs = 0
    for name in GOLDEN_PRESETS:
        ctx = MonoidContext(preset(name))
        for depth in range(2, 7):
            for seed in range(4):
                entries = gen_multifraction(ctx, depth, 3, 10 * depth + seed).entries
                for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                    n, inv = a.depth, inverse(a)
                    for s in ctx.atoms():
                        assert red.apply_left(ctx, a, 1, s) == red.apply_division(ctx, a, 1, s)
                        assert red.apply_right(ctx, a, n, s) == red.apply_division(ctx, a, n - 1, s)
                        assert red.apply_right(ctx, a, 1, s) is None
                        for i in range(2, n + 1):
                            b = red.apply_left(ctx, inv, n + 1 - i, s)
                            want = None if b is None else inverse(b)
                            assert red.apply_right(ctx, a, i, s) == want, (name, fmt(ctx, a), i)
                            applied += b is not None
                    for strategy in red.STRATEGIES:
                        right = red.reduce_right(ctx, a, strategy)
                        left = red.reduce_left(ctx, inv, flip(strategy))
                        assert [(m.level, m.x) for m in right.moves] == [
                            (n + 1 - m.level, m.x) for m in left.moves
                        ]
                        assert right.end == inverse(left.end)
                        runs += 1
                    if depth < 6:
                        right = red.reduct_graph(ctx, a, Side.RIGHT)
                        left = red.reduct_graph(ctx, inv, Side.LEFT)
                        assert set(right.nodes) == {inverse(b) for b in left.nodes}
                        graphs += 1
    assert (runs, graphs) == (1280, 256) and applied > 500


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_reduct_graphs_mirror_across_the_sides(name):
    # word reversal is an anti-automorphism of every preset's monoid, so
    # R(i,s) on a is R~(n+1-i,s) on mirror(a): the right reduct graph of
    # mirror(a) is the left reduct graph of a mirrored, node for node and
    # edge for edge, on seeded inputs of depth 2-5 (entries of up to 3
    # letters) and both first signs.  No graph here passes 7,000 nodes; the
    # node cap stops a wrong move whose graph grows without end
    ctx = MonoidContext(preset(name), Caps(graph_node_cap=10000))
    graphs = 0
    for depth in range(2, 6):
        for seed in range(6):
            entries = gen_multifraction(ctx, depth, 3, 10 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                left = red.reduct_graph(ctx, a, Side.LEFT)
                right = red.reduct_graph(ctx, mirror(ctx, a), Side.RIGHT)
                assert left.complete and right.complete
                nodes = [mirror(ctx, b) for b in left.nodes]
                want = {
                    (nodes[src], red.Move(Side.RIGHT, depth + 1 - m.level, m.x), nodes[dst])
                    for src, m, dst in left.edges
                }
                got = {(right.nodes[src], m, right.nodes[dst]) for src, m, dst in right.edges}
                # counted, so that a failure does not print two large sets
                stray = len(set(nodes) ^ set(right.nodes)), len(got ^ want)
                assert stray == (0, 0), fmt(ctx, a)
                assert (len(right.nodes), len(right.edges)) == (len(nodes), len(left.edges))
                graphs += 1
    assert graphs == 48


def test_local_confluence_division_vs_reduction(att):
    # commuting a maximal division past a reduction one level up keeps
    # the division maximal
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        a = gen_multifraction(att, rng.randint(3, 4), 3, rng.randrange(10**9))
        n = a.depth
        for i in range(1, n - 1):
            y = att.gcd(a.entry(i), a.entry(i + 1), red.due_side(a, i))
            if not y:
                continue
            for x in atomic_reducers(att, a, i + 1):
                b = red.apply_left(att, a, i + 1, x)
                c = red.apply_division(att, a, i, y)
                assert c is not None
                lhs = red.div_max(att, b, i)
                rhs = red.apply_left(att, c, i + 1, x)
                assert rhs is not None
                assert lhs == rhs
                checked += 1


def test_connect_by_maximal_zigzag(att):
    source = mf(att, "ab/ba/ca/bcbc")
    sinks = red.reduct_graph(att, source).sinks()
    assert sorted(fmt(att, s) for s in sinks) == ["1/ab/ca/cb", "cb/abbc/ba/bc"]
    b, c = sinks
    path = connect_by_maximal_zigzag(att, b, c, source)
    assert path is not None and len(path) > 0
    assert connect_by_maximal_zigzag(att, b, b, source) == []
    assert connect_by_maximal_zigzag(att, b, c, source, budget=0) is None


def test_trace_composed_moves(att):
    b6 = mf(att, "ac/ca/ba/ab/cb/bc")
    tr = red.reduce_left(att, b6)
    composed = composed_moves(att, tr)
    assert red.replay(att, b6, composed) == tr.end
    assert len(composed) <= len(tr.moves)



def test_replay_names_a_move_that_does_not_apply(att):
    # the message names the move as the output does, by its label
    move = red.Move(Side.LEFT, 1, att.element("c"))
    with pytest.raises(red.MultiredError) as raised:
        red.replay(att, mf(att, "a/b"), [move])
    assert str(raised.value) == "move R(1,c) not applicable during replay"

def test_division_reducts_reach_derdiv(att):
    # the maximal-division composite is a common reduct of every
    # division-reduct
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        a = gen_multifraction(att, rng.randint(3, 4), 2, rng.randrange(10**9))
        d = red.derdiv(att, a)
        frontier = [a]
        seen = {a}
        while frontier:
            cur = frontier.pop()
            for i in range(1, cur.depth):
                side = red.due_side(cur, i)
                g = att.gcd(cur.entry(i), cur.entry(i + 1), side)
                for x in att.divisors(g, side):
                    if not x:
                        continue
                    b = red.apply_division(att, cur, i, x)
                    if b is not None and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        for b in seen:
            assert d in red.reduct_graph(att, b, Side.LEFT).index
            checked += 1


def test_wild_reducers_on_tame_irreducible(att):
    # tame-irreducible 6-multifraction with two wild reducers at each of
    # levels 2 and 5; the 2-reducts reconverge, the 5-reducts do not
    c = mf(att, "1/c/aba/bc/a/bcb")
    assert red.red_tame(att, c) == c
    assert [att.word_str(x) for x in atomic_reducers(att, c, 2)] == ["a", "b"]
    assert [att.word_str(x) for x in atomic_reducers(att, c, 5)] == ["b", "c"]
    assert tame_reducers(att, c, 2) == ()
    assert tame_reducers(att, c, 5) == ()
    r2a = red.apply_left(att, c, 2, att.element("a"))
    r2b = red.apply_left(att, c, 2, att.element("b"))
    ga = red.reduct_graph(att, r2a, Side.LEFT)
    gb = red.reduct_graph(att, r2b, Side.LEFT)
    joined = mf(att, "bc/accb/ca/ab/ca/cb")
    assert joined in ga.index and joined in gb.index
    r5b = red.apply_left(att, c, 5, att.element("b"))
    r5c = red.apply_left(att, c, 5, att.element("c"))
    g5b = red.reduct_graph(att, r5b, Side.LEFT)
    g5c = red.reduct_graph(att, r5c, Side.LEFT)
    assert not any(n in g5c.index for n in g5b.nodes)


def test_tame_routes_through_trivial_entries(att):
    # both irreducible reducts of 1/c/1/1/aba are reachable by tame-only
    # moves; relocating a factor through the trivial entries also gives the
    # two one-step reducts a common reduct
    a = mf(att, "1/c/1/1/aba")
    for route, end in (
        ([(4, "a"), (2, "a"), (4, "ba")], "ac/ca/ba/1/1"),
        ([(4, "b"), (2, "b"), (4, "ab")], "bc/cb/ab/1/1"),
    ):
        cur = a
        for i, x in route:
            assert att.element(x) in tame_reducers(att, cur, i)
            cur = red.apply_left(att, cur, i, att.element(x))
        assert cur == mf(att, end)
    b1 = red.apply_left(att, a, 4, att.element("a"))
    b2 = red.apply_left(att, a, 4, att.element("b"))
    g1 = red.reduct_graph(att, b1, Side.LEFT)
    assert mf(att, "1/c/aba/1/1") in g1.index
    g2 = red.reduct_graph(att, b2, Side.LEFT)
    assert mf(att, "1/c/aba/1/1") in g2.index


def test_reduct_lattice_has_no_universal_join(att):
    # two maximal common reducts that no single common reduct dominates
    a = mf(att, "1/a/bcb/bcb/a")
    b = red.apply_left(att, a, 2, att.element("b"))
    c = red.apply_left(att, a, 2, att.element("c"))
    assert b == mf(att, "ba/ab/cb/bcb/a")
    assert c == mf(att, "ca/ac/bc/bcb/a")
    d1 = red.apply_division(att, b, 3, att.element("b"))
    d2 = red.apply_division(att, c, 3, att.element("c"))
    assert d1 == mf(att, "ba/ab/c/bc/a")
    assert d2 == mf(att, "ca/ac/b/cb/a")
    gb = red.reduct_graph(att, b, Side.LEFT)
    gc = red.reduct_graph(att, c, Side.LEFT)
    common = [n for n in gb.nodes if n in gc.index]
    assert d1 in common and d2 in common
    for d in common:
        g = red.reduct_graph(att, d, Side.LEFT)
        assert not (d1 in g.index and d2 in g.index)


def probe_moves(ctx, a, side, strategy):
    """The atomic move attempts of one side that applied or overflowed, as
    (level, atom, reduct or CapExceeded), found by probing every (level,
    atom) pair with apply_left or apply_right in strategy order: the
    enumeration that atom-quotient tables replaced, kept as an oracle with
    the same stream contract."""
    if side is Side.LEFT:
        levels, apply_fn = range(1, a.depth), red.apply_left
    else:
        levels, apply_fn = range(2, a.depth + 1), red.apply_right
    if strategy.startswith("high"):
        levels = levels[::-1]
    atoms = ctx.atoms()
    if strategy.endswith("antilex"):
        atoms = atoms[::-1]
    for i in levels:
        for s in atoms:
            try:
                b = apply_fn(ctx, a, i, s)
            except CapExceeded as e:
                b = e
            if b is not None:
                yield i, s, b


def strategy_moves(ctx, a, side, strategy):
    """The atomic move attempts of one side that applied or overflowed, in
    strategy order, as (level, atom, reduct or CapExceeded): `atomic_moves`
    asked one level at a time, low to high or high to low, each level's
    list reversed for antilex.  A strategy run takes the first attempt of
    this stream at each step."""
    levels = range(1, a.depth) if side is Side.LEFT else range(2, a.depth + 1)
    if strategy.startswith("high"):
        levels = levels[::-1]
    for i in levels:
        moves = atomic_moves(ctx, a, side, (i,))
        yield from reversed(moves) if strategy.endswith("antilex") else moves


def reference_run(moves_fn, ctx, a, side, strategy):
    """The nodes a strategy run passes through, a first, and how it ends:
    the moves it made and its end, or the message of the overflow it
    raised, taking the first attempt of `moves_fn`'s stream at each step."""
    nodes, moves = [a], []
    while True:
        i, s, b = next(moves_fn(ctx, nodes[-1], side, strategy), (None, None, None))
        if b is None:
            return nodes, (tuple(moves), nodes[-1])
        if isinstance(b, CapExceeded):
            return nodes, str(b)
        nodes.append(b)
        moves.append(red.Move(side, i, s))


def with_messages(moves):
    """A (level, atom, outcome) stream as a list, each overflow as its
    message."""
    return [(i, s, str(b) if isinstance(b, CapExceeded) else b) for i, s, b in moves]


def enumerate_moves(moves_fn, ctx, a, side, strategy):
    """The (level, atom, outcome) list of one enumeration, each overflow
    as its message."""
    return with_messages(moves_fn(ctx, a, side, strategy))


def push_by_lcm(ctx, a, side, i, s):
    """a . R(i,s) (LEFT) or a . R~(i,s) (RIGHT) for an atom s that applies,
    by the move's defining equations alone: the quotients by `divides`, the
    lcm by `lcm` and the deposit by `attach`, not by the move core."""
    level, src, dst = red._frame(side, i)
    due = red.due_side(a, level)
    e = list(a.entries)
    if not 0 < dst <= len(e):  # the truncated rule D(level, s)
        e[level - 1] = ctx.divides(s, e[level - 1], due)
        e[level] = ctx.divides(s, e[level], due)
    else:
        _, xp, comp = ctx.lcm(s, e[i - 1], due.other)
        e[src - 1] = ctx.divides(s, e[src - 1], due)
        e[i - 1] = comp
        e[dst - 1] = ctx.attach(e[dst - 1], xp, due.other)
    return Multifraction(a.first_sign, tuple(e))


def sample_inputs(ctx, depths=range(3, 9), seeds=range(3)):
    """Seeded multifractions of each depth, entries up to 4 letters, each
    with both first signs."""
    for depth in depths:
        for seed in seeds:
            entries = gen_multifraction(ctx, depth, 4, 100 * depth + seed).entries
            yield Multifraction(1, entries)
            yield Multifraction(-1, entries)


@pytest.mark.parametrize("reversing_cap", [None, 1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_atomic_moves_match_probe_oracle(name, reversing_cap):
    # the strategy-order stream of `atomic_moves` asked one level at a time is the
    # one that probing every (level, atom) pair finds: the same moves and
    # the same overflows, each at the same place among the moves, under
    # every strategy.  The two run in contexts of their own, so that
    # neither reads the other's memos.  At reversing caps 1-3 most presets
    # overflow while checking their reversing table, so every attempt
    # overflows; A2tilde, C2tilde, K(4,3), free(2) and I2(5) also apply
    # moves under some of those caps
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, probe = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    inputs = MonoidContext(preset(name))  # random words canonical under any cap
    applied = overflowed = 0
    for a in sample_inputs(inputs):
        for side in Side:
            for strategy in red.STRATEGIES:
                got = enumerate_moves(strategy_moves, fast, a, side, strategy)
                want = enumerate_moves(probe_moves, probe, a, side, strategy)
                assert got == want, (fmt(inputs, a), side, strategy)
                overflows = sum(isinstance(b, str) for _, _, b in want)
                applied += len(want) - overflows
                overflowed += overflows
    if reversing_cap is None:
        assert applied > 0 and overflowed == 0
    else:
        assert overflowed > 0


@pytest.mark.parametrize("reversing_cap", [None, 1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_moves_match_probe_oracle(name, reversing_cap):
    # atomic_moves over every level of a side, low to high and high to low, is
    # the low_lex and the high_lex stream that probing every (level, atom)
    # pair finds, each overflow at its place, on both first signs.  As in
    # test_atomic_moves_match_probe_oracle, the two run in contexts of
    # their own, and under caps 1-3 some presets overflow every attempt.
    # The probe pushes through the same core, so each reduct is also
    # checked against the move's equations, by lcm and attach themselves.
    # Right level 1, which never applies, is asked too and gives nothing
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, probe = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    inputs = MonoidContext(preset(name))
    applied = overflowed = 0
    for a in sample_inputs(inputs):
        for side in Side:
            levels = range(1, a.depth + (side is Side.RIGHT))
            for order, strategy in ((levels, "low_lex"), (levels[::-1], "high_lex")):
                moves = atomic_moves(fast, a, side, order)
                want = enumerate_moves(probe_moves, probe, a, side, strategy)
                assert with_messages(moves) == want, (fmt(inputs, a), side, strategy)
                for i, s, b in moves:
                    if not isinstance(b, CapExceeded):
                        assert b == push_by_lcm(inputs, a, side, i, s), (fmt(inputs, a), side, i)
                overflows = sum(isinstance(b, str) for _, _, b in want)
                applied += len(want) - overflows
                overflowed += overflows
    if reversing_cap is None:
        assert applied > 0 and overflowed == 0
    else:
        assert overflowed > 0


def deposits(ctx, a, side):
    """The pushes among a's atomic moves on one side, as (level, atom,
    deposit word): the word whose canonical form is the deposit, the
    deposit entry with the complement of entry i attached."""
    out = []
    for i, s, b in atomic_moves(ctx, a, side, red._levels(a, side)):
        level, _, dst = red._frame(side, i)
        if 0 < dst <= a.depth:
            other = red.due_side(a, level).other
            xp, d = ctx.lcm(s, a.entry(i), other)[1], a.entry(dst)
            out.append((i, s, xp + d if other is Side.LEFT else d + xp))
    return out


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("name", ["A2tilde", "braid(4)"])
def test_memo_hit_deposit_keeps_length_check(name, side):
    # a deposit read off the canonical memo is checked as a product is:
    # a word of the wrong length planted there for one deposit makes
    # atomic_moves raise, as multiply raises on the same memo
    ctx = MonoidContext(preset(name))
    for a in sample_inputs(ctx, depths=(5,)):
        pushes = [p for p in deposits(ctx, a, side) if p[2]]
        if pushes:
            break
    i, _, word = pushes[0]
    ctx._canon[word] = word + word[-1]
    with pytest.raises(InternalInvariantError, match="length must be additive"):
        atomic_moves(ctx, a, side, (i,))
    with pytest.raises(InternalInvariantError, match="length must be additive"):
        ctx.multiply(word[:1], word[1:])


def warmed(name, a, side, lcms):
    """A fresh context that holds the quotient rows a's moves on one side
    read and, with lcms, the lcms their pushes take, but no deposit."""
    ctx = MonoidContext(preset(name))
    for i in red._levels(a, side):
        level, src, dst = red._frame(side, i)
        due = red.due_side(a, level)
        if not 0 < dst <= a.depth:  # a truncated rule reads entries level and level+1
            ctx.atom_quotients(a.entry(level), due)
            ctx.atom_quotients(a.entry(level + 1), due)
            continue
        row = ctx.atom_quotients(a.entry(src), due)
        if lcms:
            for s, q in zip(ctx.atoms(), row):
                if q is not None:
                    ctx.lcm(s, a.entry(i), due.other)
    return ctx


@pytest.mark.parametrize("fact", ["lcm", "deposit"])
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_overflow_on_a_memo_miss_lands_at_its_atom(monkeypatch, name, side, fact):
    # a cap overflow while taking an lcm or forming a deposit on a memo
    # miss is that attempt's outcome, at its atom's place, and the other
    # attempts are as without it.  The rows, and for a deposit the lcms
    # too, are memoised first, so that the overflowing computation is
    # the only miss left: every lcm (a ReversingCapExceeded), or every
    # deposit that the canonical memo lacks (a BasicsCapExceeded)
    inputs = MonoidContext(preset(name))
    for a in sample_inputs(inputs, depths=(5, 6, 7, 8)):
        ctx = warmed(name, a, side, lcms=fact == "deposit")
        pushes = {(i, s): w for i, s, w in deposits(inputs, a, side)}
        missing = {w for w in pushes.values() if w not in ctx._canon}
        if missing:
            break
    levels = red._levels(a, side)
    want = atomic_moves(inputs, a, side, levels)
    if fact == "deposit":
        error, method = BasicsCapExceeded("basic-element closure exceeds basics_cap=0"), "attach"
    else:
        error, method = ReversingCapExceeded("reversing exceeded 0 cell fills"), "lcm"
    calls = []

    def overflowing(self, *args):
        calls.append(args)
        raise error

    monkeypatch.setattr(MonoidContext, method, overflowing)
    got = atomic_moves(ctx, a, side, levels)
    if fact == "deposit":
        assert len(calls) == len(missing)
        assert [(i, s) for i, s, _ in got] == [(i, s) for i, s, _ in want]
        for (i, s, b), (_, _, c) in zip(got, want):
            assert b is error if pushes.get((i, s)) in missing else b == c
    else:
        # every atom that divides has an overflowed lcm, in atom order
        expected = []
        for i in levels:
            level, src, dst = red._frame(side, i)
            if 0 < dst <= a.depth:
                row = ctx.atom_quotients(a.entry(src), red.due_side(a, level))
                expected += [(i, s, error) for s, q in zip(ctx.atoms(), row) if q is not None]
            else:
                expected += [m for m in want if m[0] == i]
        assert len(calls) == sum(b is error for _, _, b in expected)
        assert got == expected


@pytest.mark.parametrize("reversing_cap", [None, 1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_runs_match_reference_run(monkeypatch, name, reversing_cap):
    # reduce_left and reduce_right pass through the nodes, make the moves
    # and reach the end of the reference run that takes the first attempt
    # of strategy_moves at each step, or raise its overflow at the same
    # node, under every strategy, on both sides and both first signs.  The
    # run under test and the reference run in contexts of their own; at
    # default caps a run over probe_moves, in a third, agrees too.  The
    # nodes a run passes through are the ones it asks `_push` about
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, ref, probe = (MonoidContext(preset(name), caps) for _ in range(3))
    inputs = MonoidContext(preset(name))
    push, passed = red._push, []

    def recorded(ctx, b, *args, **kwargs):
        if ctx is fast and passed[-1] != b:
            passed.append(b)
        return push(ctx, b, *args, **kwargs)

    monkeypatch.setattr(red, "_push", recorded)
    steps = overflowed = 0
    for depth in range(3, 7):
        for seed in range(3):
            entries = gen_multifraction(inputs, depth, 4, 100 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                for side in Side:
                    reduce_fn = red.reduce_left if side is Side.LEFT else red.reduce_right
                    for strategy in red.STRATEGIES:
                        passed[:] = [a]
                        try:
                            tr = reduce_fn(fast, a, strategy)
                            got = (tr.moves, tr.end)
                        except CapExceeded as e:
                            got = str(e)
                        want = reference_run(strategy_moves, ref, a, side, strategy)
                        assert (passed, got) == want, (fmt(inputs, a), side, strategy)
                        if reversing_cap is None:
                            assert reference_run(probe_moves, probe, a, side, strategy) == want
                        steps += len(passed) - 1
                        overflowed += isinstance(got, str)
    if reversing_cap is None:
        assert steps > 0 and overflowed == 0
    else:
        assert overflowed > 0


def run_outcome(run, *args):
    """A run's moves and end, or the class and message of the overflow it
    raised."""
    try:
        tr = run(*args)
    except CapExceeded as e:
        return type(e), str(e)
    return tr.moves, tr.end


def push_key(a, side, i, s):
    """The arguments of the `lcm_attach` call of a's push R(i,s) (LEFT) or
    R~(i,s) (RIGHT), or None for a truncated rule."""
    level, _, dst = red._frame(side, i)
    if not 0 < dst <= a.depth:
        return None
    return s, a.entry(i), a.entry(dst), red.due_side(a, level).other


def overflow_lcm_attach(mp, key, error):
    """Make `lcm_attach` raise error when called with key's arguments."""
    lcm_attach = MonoidContext.lcm_attach

    def overflowing(self, *args):
        if args == key:
            raise error
        return lcm_attach(self, *args)

    mp.setattr(MonoidContext, "lcm_attach", overflowing)


def overflow_row(mp, entry, due, t, error):
    """Put error at atom t of the `atom_quotients` row of entry on due."""
    atom_quotients = MonoidContext.atom_quotients

    def overflowing(self, a, side):
        row = atom_quotients(self, a, side)
        return row[:t] + (error,) + row[t + 1 :] if (a, side) == (entry, due) else row

    mp.setattr(MonoidContext, "atom_quotients", overflowing)


def both_runs(fast, ref, a, side, strategy):
    """The outcome of a's run in fast, checked to be that of `moves_run`,
    the run over `atomic_moves` asked one level at a time, in ref."""
    reduce_fn = red.reduce_left if side is Side.LEFT else red.reduce_right
    got = run_outcome(reduce_fn, fast, a, strategy)
    assert got == run_outcome(moves_run, ref, a, side, strategy), (fmt(fast, a), side, strategy)
    return got


@pytest.mark.parametrize("reversing_cap", [None, 1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_step_loop_matches_moves_run(name, reversing_cap):
    # a run's step loop makes the moves and reaches the end of `moves_run`,
    # or raises its overflow (class and message), under every strategy, on
    # both sides and first signs, at depths 0-8, each run in a context of
    # its own.  Under caps 1-3 most presets overflow every attempt
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, ref = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    steps = overflowed = 0
    for a in sample_inputs(MonoidContext(preset(name)), depths=range(9)):
        for side in Side:
            for strategy in red.STRATEGIES:
                got = both_runs(fast, ref, a, side, strategy)
                if isinstance(got[0], type):
                    overflowed += 1
                else:
                    steps += len(got[0])
    if reversing_cap is None:
        assert steps > 0 and overflowed == 0
    else:
        assert overflowed > 0


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_step_loop_raises_only_the_attempt_it_takes(monkeypatch, name):
    # an overflow injected into a run that moves, as in
    # test_step_loop_matches_moves_run: at an lcm of a's `atomic_moves` stream
    # after the attempt the run takes, whose arguments no move of the run
    # has, the run is as without it; at the row of the entry the first
    # move divides, or at that move's lcm, the run raises that overflow
    fast, ref = MonoidContext(preset(name)), MonoidContext(preset(name))
    row_error = BasicsCapExceeded("basic-element closure exceeds basics_cap=0")
    lcm_error = ReversingCapExceeded("reversing exceeded 0 cell fills")
    untaken = taken = 0
    for a in sample_inputs(MonoidContext(preset(name)), depths=range(9)):
        for side in Side:
            for strategy in red.STRATEGIES:
                moves, end = both_runs(fast, ref, a, side, strategy)
                if not moves:
                    continue
                nodes = [a]
                for m in moves:
                    nodes.append(red.apply_move(fast, nodes[-1], m))
                keys = {push_key(b, side, m.level, m.x) for b, m in zip(nodes, moves)}
                later = [
                    (i, s, key)
                    for i, s, b in list(strategy_moves(ref, a, side, strategy))[1:]
                    if isinstance(b, Multifraction)
                    and (key := push_key(a, side, i, s)) is not None
                    and key not in keys
                ]
                if later:
                    i, s, key = later[0]
                    with monkeypatch.context() as mp:
                        overflow_lcm_attach(mp, key, lcm_error)
                        stream = with_messages(strategy_moves(ref, a, side, strategy))
                        assert (i, s, str(lcm_error)) in stream
                        assert both_runs(fast, ref, a, side, strategy) == (moves, end)
                    untaken += 1
                first = moves[0]
                level, src, dst = red._frame(side, first.level)
                entry = a.entry(src if 0 < dst <= a.depth else level)
                t = fast.atoms().index(first.x)
                key = push_key(a, side, first.level, first.x)
                with monkeypatch.context() as mp:
                    overflow_row(mp, entry, red.due_side(a, level), t, row_error)
                    assert both_runs(fast, ref, a, side, strategy) == (BasicsCapExceeded, str(row_error))
                if key is not None:
                    with monkeypatch.context() as mp:
                        overflow_lcm_attach(mp, key, lcm_error)
                        assert both_runs(fast, ref, a, side, strategy) == (ReversingCapExceeded, str(lcm_error))
                    taken += 1
    assert untaken > 0 and taken > 0


def probe_graph(ctx, a, side):
    """The nodes in order, the edges and the inconclusive edges of a's
    reduct graph on one side, by a breadth-first search over the
    low_lex stream of `probe_moves`."""
    nodes, index, edges, inconclusive = [a], {a: 0}, [], []
    for src, cur in enumerate(nodes):
        for i, s, b in probe_moves(ctx, cur, side, "low_lex"):
            if isinstance(b, CapExceeded):
                inconclusive.append((src, i, s, str(b)))
                continue
            if b not in index:
                index[b] = len(nodes)
                nodes.append(b)
            edges.append((src, red.Move(side, i, s), index[b]))
    return nodes, edges, inconclusive


@pytest.mark.parametrize("reversing_cap", [None, 1, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_reduct_graph_matches_probe_bfs(name, reversing_cap):
    # reduct_graph is the breadth-first search over the moves that probing
    # finds: the same nodes in the same order, the same edges and the same
    # inconclusive edges, on seeded depth-3 to depth-5 inputs of both
    # first signs, on both sides, in contexts of their own.  Every capped
    # run overflows some attempt but free(2)'s at cap 3.  No graph here
    # passes 2,500 nodes; the node cap stops a wrong move enumeration
    # whose graph grows without end before the search with no cap runs
    caps = Caps(graph_node_cap=5000)
    if reversing_cap is not None:
        caps = Caps(reversing_cap=reversing_cap, graph_node_cap=5000)
    fast, probe = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    inputs = MonoidContext(preset(name))
    edges = inconclusive = 0
    for depth in range(3, 6):
        for seed in range(2):
            entries = gen_multifraction(inputs, depth, 3, 10 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                for side in Side:
                    g = red.reduct_graph(fast, a, side)
                    want = probe_graph(probe, a, side)
                    assert (g.nodes, g.edges, g.inconclusive) == want, (fmt(inputs, a), side)
                    edges += len(g.edges)
                    inconclusive += len(g.inconclusive)
    if reversing_cap is None:
        assert edges > 0 and inconclusive == 0
    else:
        assert inconclusive > 0 or (name, reversing_cap) == ("free(2)", 3)


def latest_common_ancestors_oracle(graph, targets):
    """Nodes of a left reduct graph from which every target is reachable
    and no strictly later such node exists, by a search over its edges."""
    order = list(range(len(graph.nodes)))
    succ: dict[int, set[int]] = {k: set() for k in order}
    for s, _, d in graph.edges:
        succ[s].add(d)
    target_idx = {graph.index[t] for t in targets}

    def reachable(k, memo={}):
        if k in memo:
            return memo[k]
        out = {k}
        for d in succ[k]:
            out |= reachable(d)
        memo[k] = out
        return out

    candidates = [k for k in order if target_idx <= reachable(k)]
    latest = [
        k
        for k in candidates
        if not any(j in candidates for j in reachable(k) - {k})
    ]
    return [graph.nodes[k] for k in latest]


@pytest.mark.parametrize("overflow", ["plain", "every", "applied"])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_left_closures_match_fresh_graphs(monkeypatch, name, overflow):
    # for every right reduct of seeded Cunif inputs, its closure is the node
    # set of a fresh left reduct graph, with the same completeness and
    # count of inconclusive edges, sinks and latest common ancestors of the
    # sinks.  The overflows hit every attempt at level 2, so that a node
    # has several, or the atom c at level 2 only where the move applies, so
    # that a node without that move is incomplete through its reducts;
    # overflows of a node that the walk of another root reached first
    # still count
    ctx = MonoidContext(preset(name))
    if overflow != "plain":
        x = ctx.atoms()[min(2, ctx.pres.n_atoms - 1)]  # c; b on two atoms

        def overflowing(a, i, y, b):
            return i == 2 and (overflow == "every" or y == x and b is not None)

        overflow_left_moves(monkeypatch, overflowing)
    incomplete = inherited = shared = several = 0
    for seed in range(6):
        a = gen_multifraction(ctx, 4, 3, seed)
        roots = red.reduct_graph(ctx, a, Side.RIGHT).nodes
        lc = red.left_closures(ctx, roots)
        assert lc.walked == roots
        assert all(0 < v < 1 << len(roots) for v in lc.reach)
        walked = set()  # the closures of the roots before this one
        graphs = []
        for j, root in enumerate(roots):
            fresh = red.reduct_graph(ctx, root, Side.LEFT)
            graphs.append(fresh)
            members = {lc.index[n] for n in closure_members(lc, j)}
            overflowed = {k for k in members if lc.overflows[k]}
            assert {lc.nodes[k] for k in members} == set(fresh.nodes)
            assert (not overflowed) == fresh.complete
            assert sum(lc.overflows[k] for k in overflowed) == len(fresh.inconclusive)
            # the sinks of this closure, and the latest common ancestors of
            # them, which `LeftClosures` gives for walked[0]: read off this
            # walk for root 0 and off a one-root walk for every root
            irr = [k for k in sorted(members) if not lc.reducts[k] and not lc.overflows[k]]
            assert {lc.nodes[k] for k in irr} == set(fresh.sinks())
            one = red.left_closures(ctx, [root])
            one_irr = one.irreducible()
            assert {one.nodes[k] for k in one_irr} == set(fresh.sinks())
            if j == 0:
                assert lc.irreducible() == irr
            if irr:
                expected = set(latest_common_ancestors_oracle(fresh, fresh.sinks()))
                assert set(one.latest_common_ancestors(one_irr)) == expected
                if j == 0:
                    assert set(lc.latest_common_ancestors(irr)) == expected
            incomplete += not fresh.complete
            inherited += not fresh.complete and all(src for src, *_ in fresh.inconclusive)
            shared += bool(overflowed & walked)
            walked |= members
        # the common reducts are those of every fresh graph, and their
        # undecided moves the inconclusive edges of the fresh graphs, each
        # (node, level, atom) counted once however many graphs hold it
        common, undecided = lc.common()
        assert set(common) == set.intersection(*(set(g.nodes) for g in graphs))
        assert undecided == len(
            {(g.nodes[src], i, x) for g in graphs for src, i, x, _ in g.inconclusive}
        )
        several += max(lc.overflows) > 1
    assert (incomplete > 0) == (overflow != "plain")
    assert (shared > 0) == (overflow != "plain")
    assert (several > 0) == (overflow == "every")
    assert (inherited > 0) == (overflow == "applied")


def test_left_closures_node_cap(att):
    # the closures raise, with the same message, exactly when a fresh
    # left reduct graph of some root raises, and so does the bitset walk
    raised = []
    for cap in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
        for seed in range(6):
            a = gen_multifraction(att, 4, 3, seed)
            roots = red.reduct_graph(att, a, Side.RIGHT).nodes
            fresh = None
            for root in roots:
                try:
                    red.reduct_graph(ctx, root, Side.LEFT)
                except GraphNodeCapExceeded as e:
                    fresh = str(e)
                    break
            for walk in (red.left_closures, bitset_closures):
                closures = None
                try:
                    walk(ctx, roots)
                except GraphNodeCapExceeded as e:
                    closures = str(e)
                assert closures == fresh, (cap, seed, walk)
            raised.append(fresh is not None)
    assert any(raised) and not all(raised)
    # an irreducible root's closure is one node, which fits any cap, as
    # its reduct graph does
    ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=0))
    sink = mf(att, "a/b")
    assert red.reduct_graph(ctx, sink, Side.LEFT).nodes == [sink]
    for walk in (red.left_closures, bitset_closures):
        assert walk(ctx, [sink, sink]).nodes == [sink]



# seeded right walks whose roots' left closures mostly fit the largest
# cap; the smaller caps make some walks, searches or closures overflow
BITSET_CAPS = (2000, 60, 20, 5)
BITSET_SHAPES = ((4, 4), (6, 2))  # depth, longest entry


@pytest.mark.parametrize("overflow", ["plain", "every", "applied"])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_left_closures_match_bitset_oracle(monkeypatch, name, overflow):
    # the closures indexed by root against the bitset walk they replace,
    # from the roots of seeded right walks, without targets and with the
    # right reducts as targets, under the overflows of
    # test_left_closures_match_fresh_graphs: both raise the same message
    # on the same inputs, and otherwise walk the same roots, number the
    # same nodes and give each walked root the same closure, the same
    # witnesses and undecided count, the same irreducible left reducts of
    # the first root and the same latest common ancestors of them.  Each
    # node's int over the walked roots is below 1 << len(walked)
    ctx = MonoidContext(preset(name))
    x = ctx.atoms()[min(2, ctx.pres.n_atoms - 1)]
    if overflow != "plain":

        def overflowing(a, i, y, b):
            return i == 2 and (overflow == "every" or y == x and b is not None)

        overflow_left_moves(monkeypatch, overflowing)
    capped = [MonoidContext(preset(name), Caps(graph_node_cap=cap)) for cap in BITSET_CAPS]
    raised = compared = left_out = undecided = 0
    for depth, length in BITSET_SHAPES:
        for seed in range(4):
            a = gen_multifraction(ctx, depth, length, seed)
            index, roots, _ = red.right_roots(ctx, a)
            for small in capped:
                for targets in ((), index):
                    try:
                        oc = bitset_closures(small, roots, targets)
                    except GraphNodeCapExceeded as e:
                        with pytest.raises(GraphNodeCapExceeded) as got:
                            red.left_closures(small, roots, targets)
                        assert str(got.value) == str(e)
                        raised += 1
                        continue
                    lc = red.left_closures(small, roots, targets)
                    assert lc.walked == oc.walked and lc.nodes == oc.nodes
                    assert all(v < 1 << len(lc.walked) for v in lc.reach)
                    for j, root in enumerate(lc.walked):
                        assert closure_members(lc, j) == oc.members(oc.closure_of(root))
                    common, count = lc.common()
                    bits, oc_count = oc.common(oc.walked)
                    assert (common, count) == (oc.members(bits), oc_count)
                    irr = lc.irreducible()
                    oc_irr = oc.closure_of(roots[0]) & oc.sinks
                    assert [lc.nodes[k] for k in irr] == oc.members(oc_irr)
                    if irr:
                        assert lc.latest_common_ancestors(irr) == oc.latest_common_ancestors(
                            roots[0], oc_irr
                        )
                    compared += 1
                    left_out += len(roots) - len(lc.walked)
                    undecided += count > 0
    assert raised and compared and left_out
    assert (undecided > 0) == (overflow != "plain")


REACH_CAP = 2000
REACH_SHAPES = ((4, 3), (6, 2))  # depth, longest entry


@pytest.mark.parametrize("overflow", ["plain", "every", "applied"])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_reaches_matches_left_closures(name, overflow):
    # the roots are right reducts of seeded inputs, and the targets nodes
    # of one root's left closure, with a node of any closure on odd seeds.
    # Each hit bit is membership in the root's closure, also under the
    # overflows of test_left_closures_match_fresh_graphs.  A one-root
    # search gives the same bits; when it misses a target it finds the
    # nodes of the root's left reduct graph and counts its inconclusive
    # edges, and when it hits them all it finds no more nodes
    ctx = MonoidContext(preset(name), Caps(graph_node_cap=REACH_CAP))
    x = ctx.atoms()[min(2, ctx.pres.n_atoms - 1)]

    def overflowing(a, i, y, b):
        return i == 2 and (overflow == "every" or y == x and b is not None)

    hits = misses = undecided = 0
    with pytest.MonkeyPatch.context() as mp:
        if overflow != "plain":
            overflow_left_moves(mp, overflowing)
        for depth, length in REACH_SHAPES:
            for seed in range(4):
                a = gen_multifraction(ctx, depth, length, seed)
                try:
                    roots = red.reduct_graph(ctx, a, Side.RIGHT).nodes[:8]
                    lc = red.left_closures(ctx, roots)
                except GraphNodeCapExceeded:
                    continue
                rng = random.Random(seed)
                assert lc.walked == roots
                near = closure_members(lc, seed % len(roots))
                targets = rng.sample(near, min(3, len(near)))
                extra = rng.choice(lc.nodes)
                if seed % 2 and extra not in targets:
                    targets.append(extra)
                full = (1 << len(targets)) - 1
                reach = red.reaches(ctx, roots, targets)
                assert len(reach.hits) == len(roots)
                for j, (root, got) in enumerate(zip(roots, reach.hits)):
                    held = [lc.reach[lc.index[t]] >> j & 1 for t in targets]
                    assert got == sum(1 << k for k, h in enumerate(held) if h)
                    one = red.reaches(ctx, [root], targets)
                    graph = red.reduct_graph(ctx, root, Side.LEFT)
                    assert one.hits == [got]
                    if got == full:
                        assert one.nodes <= len(graph.nodes)
                        hits += 1
                    else:
                        assert (one.nodes, one.undecided) == (len(graph.nodes), len(graph.inconclusive))
                        misses += 1
                        undecided += one.undecided > 0
    assert hits and misses
    assert (undecided > 0) == (overflow != "plain")


def test_reaches_node_cap(att):
    # past graph_node_cap the search raises with the left reduct graph's
    # message: a one-root miss exactly when a fresh graph of its root
    # raises, and a hit only then
    raised = []
    for cap in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
        for seed in range(6):
            a = gen_multifraction(att, 4, 3, seed)
            try:
                red.reduct_graph(ctx, a, Side.LEFT)
                fits = True
            except GraphNodeCapExceeded:
                fits = False
            for target in (red.reduce_left(att, a).end, unit(4)):
                try:
                    reach = red.reaches(ctx, [a], [target])
                except GraphNodeCapExceeded as e:
                    assert str(e) == f"reduct graph exceeded {cap} nodes" and not fits
                    raised.append(True)
                else:
                    assert fits or reach.hits == [1]
                    raised.append(False)
    assert any(raised) and not all(raised)


def test_reaches_refuses_a_cycle(att, monkeypatch):
    a = mf(att, "ac/ca/ba")
    monkeypatch.setattr(red, "_push", lambda ctx, *args, **kwargs: [(1, ctx.atoms()[0], a)])
    with pytest.raises(red.InternalInvariantError, match="cycle"):
        red.reaches(att, [a], [unit(3)])


def test_walks_build_their_frames_once_per_root(att, monkeypatch):
    # each walk builds its `_frames` table once, or once per root it walks
    # from, and passes it to `_push` for every node it expands: a move
    # keeps the depth and the first sign, so the table serves every node
    frames, push = red._frames, red._push
    built, expanded = [], []

    def counted_frames(*args):
        built.append(args)
        return frames(*args)

    def counted_push(ctx, b, *args, **kwargs):
        expanded.append(b)
        return push(ctx, b, *args, **kwargs)

    monkeypatch.setattr(red, "_frames", counted_frames)
    monkeypatch.setattr(red, "_push", counted_push)

    def walked(walk, *args):
        built.clear()
        expanded.clear()
        out = walk(att, *args)
        return out, len(built), len(set(expanded))

    a = mf(att, "ac/ca/ba/ab/cb/bc")
    for side in Side:
        g, calls, nodes = walked(red.reduct_graph, a, side)
        assert calls == 1 and nodes == len(g.nodes) > 1
    (index, roots, _), calls, nodes = walked(red.right_roots, a)
    assert calls == 1 and nodes == len(index) > 1
    lc, calls, nodes = walked(red.left_closures, roots, index)
    assert 1 <= calls <= len(roots) < nodes and len(lc.walked) > 1
    # two roots of different depths, neither a reduct of the other
    two = [mf(att, "ac/ca/ba"), mf(att, "ab/ba/ca/bcbc")]
    reach, calls, nodes = walked(red.reaches, two, [unit(3), unit(4)])
    assert calls == 2 and nodes == reach.nodes > 2


def test_maximal_granularity_misses_reducts(att):
    # maximal steps from ab/ba/ca/bcbc reach only one irreducible; atomic
    # closure also finds cb/abbc/ba/bc
    a = mf(att, "ab/ba/ca/bcbc")
    atomic = red.reduct_graph(att, a, Side.LEFT)
    reached = {a: False}  # node -> has a maximal move
    queue = [a]
    while queue:
        cur = queue.pop(0)
        for _, b in maximal_moves(att, cur):
            reached[cur] = True
            if b not in reached:
                reached[b] = False
                queue.append(b)
    hidden = mf(att, "cb/abbc/ba/bc")
    assert hidden in atomic.index
    assert hidden not in reached
    assert [n for n, moves in reached.items() if not moves] == [mf(att, "1/ab/ca/cb")]
