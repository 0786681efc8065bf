import random

import pytest

from multired.monoid import (
    CapExceeded,
    Caps,
    GraphNodeCapExceeded,
    IDENTITY,
    MonoidContext,
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
from reduct_oracles import composed_moves, connect_by_maximal_zigzag, maximal_moves
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
    maximal = red.reducers(att, a, 2, "maximal")
    assert sorted(att.word_str(x) for x in maximal) == ["caa", "cab"]
    atomic = red.reducers(att, mf(att, "1/c/aba"), 2, "atomic")
    assert sorted(att.word_str(x) for x in atomic) == ["a", "b"]
    assert red.reducers(att, unit(2), 1, "all") == ()
    # tame reducers divide every maximal one
    tame = red.reducers(att, a, 2, "tame")
    for t in tame:
        for m in maximal:
            assert att.divides(t, m, Side.LEFT) is not None


def test_greatest_tame_reducer(att):
    assert att.word_str(red.greatest_tame_reducer(att, mf(att, "1/a/cabab"), 2)) == "ca"
    assert red.greatest_tame_reducer(att, mf(att, "1/c/aba"), 2) == IDENTITY
    assert att.word_str(red.greatest_tame_reducer(att, mf(att, "a/a"), 1)) == "a"


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
        monkeypatch.setattr(red, "reducers", lambda ctx, b, i, f: (att.element("b"),))
        call = lambda: red.greatest_tame_reducer(att, mf(att, "a/a"), 1)
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
    applied = [(m.level, att.word_str(m.x)) for m in moves if not m.x.is_identity]
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
        for src, move, dst in rg.edges:
            r, reduct = rg.nodes[src], rg.nodes[dst]
            if red.is_division(move, r, reduct):
                inner, outer = lc.closure_of(reduct), lc.closure_of(r)
                assert inner & ~outer == 0 and inner != outer
                divisions += 1
    assert divisions


def test_is_prime(att):
    assert red.is_prime(att, mf(att, "ab/ac/ca/cb/bc/ba"))
    assert red.is_prime(att, mf(att, "ac/ca/ba/ab/cb/bc"))
    assert not red.is_prime(att, mf(att, "a/a"))


def test_step_bound(att, free2):
    one = Multifraction(1, (att.element("ababa"),))
    assert red.step_bound(att, one) == 7
    two = unit(2)
    assert red.step_bound(att, two) == 9  # (0+1) * 3**F1(0) with C = 3
    a = mf(att, "1/c/aba")
    # F3(0,1,3) = (0+1) * C**F2(1,3), F2(1,3) = 2*3**5
    assert red.step_bound(att, a) == 3 ** (2 * 3**5)
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
            bound = red.step_bound(ctx, a)
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
    seen, searches = [], []
    moves = red._atomic_moves

    def five(ctx, b, k):
        seen.append(k)
        return k <= 5

    def counted(*args):
        searches.append(args)
        return moves(*args)

    monkeypatch.setattr(red, "_tower", lambda *args: 0)
    monkeypatch.setattr(red, "within_step_bound", five)
    monkeypatch.setattr(red, "_atomic_moves", counted)
    with pytest.raises(red.InternalInvariantError, match="tower step bound"):
        reduce_fn(att, a)
    assert len(searches) == 6 and seen == [1, 2, 3, 4, 5, 6]


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
            if y.is_identity:
                continue
            for x in red.reducers(att, a, i + 1, "atomic"):
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
                    if x.is_identity:
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
    assert [att.word_str(x) for x in red.reducers(att, c, 2, "atomic")] == ["a", "b"]
    assert [att.word_str(x) for x in red.reducers(att, c, 5, "atomic")] == ["b", "c"]
    assert red.reducers(att, c, 2, "tame") == ()
    assert red.reducers(att, c, 5, "tame") == ()
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
            assert att.element(x) in red.reducers(att, cur, i, "tame")
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


def enumerate_moves(moves_fn, ctx, a, side, strategy):
    """The (level, atom, outcome) list of one enumeration, each overflow
    as its message."""
    return [
        (i, s, str(b) if isinstance(b, CapExceeded) else b)
        for i, s, b in moves_fn(ctx, a, side, strategy)
    ]


@pytest.mark.parametrize("reversing_cap", [None, 1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_atomic_moves_match_probe_oracle(name, reversing_cap):
    # the move stream read off atom-quotient tables is the one that probing
    # every (level, atom) pair finds: the same moves and the same overflows,
    # each at the same place among the moves.  The two run in contexts of
    # their own, so that neither reads the other's memos.  At reversing
    # caps 1-3 most presets overflow while checking their reversing table,
    # so every attempt overflows; A2tilde, C2tilde, K(4,3), free(2) and
    # I2(5) also apply moves under some of those caps
    caps = Caps() if reversing_cap is None else Caps(reversing_cap=reversing_cap)
    fast, probe = MonoidContext(preset(name), caps), MonoidContext(preset(name), caps)
    inputs = MonoidContext(preset(name))  # random words canonical under any cap
    applied = overflowed = 0
    for depth in range(3, 7):
        for seed in range(3):
            entries = gen_multifraction(inputs, depth, 4, 100 * depth + seed).entries
            for a in (Multifraction(1, entries), Multifraction(-1, entries)):
                for side in Side:
                    for strategy in red.STRATEGIES:
                        got = enumerate_moves(red._atomic_moves, fast, a, side, strategy)
                        want = enumerate_moves(probe_moves, probe, a, side, strategy)
                        assert got == want, (fmt(inputs, a), side, strategy)
                        overflows = sum(isinstance(b, str) for _, _, b in want)
                        applied += len(want) - overflows
                        overflowed += overflows
    if reversing_cap is None:
        assert applied > 0 and overflowed == 0
    else:
        assert overflowed > 0


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
        walked = 0  # the closures of the roots before this one
        graphs = []
        for root in roots:
            fresh = red.reduct_graph(ctx, root, Side.LEFT)
            graphs.append(fresh)
            bits = lc.closure_of(root)
            assert set(lc.members(bits)) == set(fresh.nodes)
            assert (not bits & lc.overflowed) == fresh.complete
            assert lc.incomplete_edges(bits) == len(fresh.inconclusive)
            irr = bits & lc.sinks
            assert set(lc.members(irr)) == set(fresh.sinks())
            if irr:
                expected = latest_common_ancestors_oracle(fresh, fresh.sinks())
                assert set(lc.latest_common_ancestors(root, irr)) == set(expected)
            incomplete += not fresh.complete
            inherited += not fresh.complete and all(src for src, *_ in fresh.inconclusive)
            shared += bool(bits & walked & lc.overflowed)
            walked |= bits
        # the common reducts are those of every fresh graph, exact when
        # every fresh graph is complete
        bits, complete = lc.common(roots)
        assert set(lc.members(bits)) == set.intersection(*(set(g.nodes) for g in graphs))
        assert complete == all(g.complete for g in graphs)
        several += max(lc.overflows) > 1
    assert (incomplete > 0) == (overflow != "plain")
    assert (shared > 0) == (overflow != "plain")
    assert (several > 0) == (overflow == "every")
    assert (inherited > 0) == (overflow == "applied")


def test_left_closures_node_cap(att):
    # the closures raise, with the same message, exactly when a fresh
    # left reduct graph of some root raises
    raised = []
    for cap in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
        for seed in range(6):
            a = gen_multifraction(att, 4, 3, seed)
            roots = red.reduct_graph(att, a, Side.RIGHT).nodes
            fresh = closures = None
            for root in roots:
                try:
                    red.reduct_graph(ctx, root, Side.LEFT)
                except GraphNodeCapExceeded as e:
                    fresh = str(e)
                    break
            try:
                red.left_closures(ctx, roots)
            except GraphNodeCapExceeded as e:
                closures = str(e)
            assert closures == fresh, (cap, seed)
            raised.append(fresh is not None)
    assert any(raised) and not all(raised)


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
