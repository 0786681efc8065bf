import concurrent.futures
import hashlib
import io
import json
import random
import re
from types import SimpleNamespace

import pytest

from multired.monoid import (
    Caps,
    GraphNodeCapExceeded,
    IDENTITY,
    MonoidContext,
    MultiredError,
    ReversingCapExceeded,
    Side,
)
from multired.multifraction import (
    Multifraction,
    format_multifraction,
    parse_multifraction,
    product,
    unit,
)
from multired.presentation import format_presentation, parse_presentation, preset
from multired import harness as H
from multired import reduction as red
from census import CENSUS
from overflows import overflow_left_moves
from reduct_oracles import (
    closure_members,
    cross_confluence_pair,
    unique_fraction_probe,
    witness_roots,
)
from signed_walks import gen_unital_brownian, replay_walk
from test_campaign_golden import PRESETS as GOLDEN_PRESETS
from test_reduction import DIVISION_PRESETS, seeded_graphs


def mf(ctx, text):
    return parse_multifraction(ctx, text)


def fmt(ctx, a):
    return format_multifraction(ctx, a)


def cross_cert(*rays):
    """The certificate of the central cross on the rays, expanded by no
    lcm-expansion step."""
    return H.UnitalCertificate("lcm_expansion_chain", {"rays": list(rays), "choices": []})


def test_gen_element(att, free2):
    assert H.gen_element(att, 0, 1) == IDENTITY
    assert len(H.gen_element(att, 3, 5)) == 3
    assert H.gen_element(att, 3, 5) == H.gen_element(att, 3, 5)
    w = H.gen_element(free2, 4, 9)
    assert len(w) == 4


def test_brownian_contract(att):
    a, walk = gen_unital_brownian(att, 0, 3)
    assert a == unit(1)
    a, walk = gen_unital_brownian(att, 12, 42)
    assert replay_walk(att, walk) == a
    # deterministic per seed (golden value pinned from the first run)
    again, _ = gen_unital_brownian(att, 12, 42)
    assert again == a
    # Conjecture A on the walk's end, which the walk proves unital
    assert H._reaches_trivial(att, a).status == "confirmed"


def test_central_cross_shapes(att):
    a, rays = H.gen_central_cross(att, 2, 2, 11)
    assert a.entry(1) == a.entry(2) == att.multiply(rays[0], rays[1])
    b, _ = H.gen_central_cross(att, 4, 0, 0)
    assert b == unit(4)
    rays = tuple(att.element(w) for w in ("aba", "1", "aca", "1", "cbc", "1"))
    c = H.assemble_cross(att, rays)
    assert c == mf(att, "aba/aca/cac/cbc/bcb/bab")
    assert red.reduce_left(att, c).end == unit(6)


def test_lcm_expand_degenerate(att):
    x = att.element("ab")
    a = Multifraction(1, (x, x))
    assert H.lcm_expand(att, a, choices=[IDENTITY, IDENTITY]) == unit(2)
    assert H.lcm_expand(att, a, choices=[x, x]) == unit(2)


def test_lcm_expand_absent():
    ctx = MonoidContext(preset("free(3)"))
    rays = tuple(ctx.element(w) for w in ("a", "b", "c", "a"))
    a = H.assemble_cross(ctx, rays)
    choices = [a.entry(1), a.entry(2), a.entry(3), a.entry(4)]
    assert H.lcm_expand(ctx, a, choices=choices) is None


def test_lcm_expand_preserves_unitality(att):
    rng = random.Random(31)
    produced = 0
    for _ in range(25):
        a, _ = H.gen_central_cross(att, 4, 2, rng.randrange(10**9))
        draws = random.Random(rng.randrange(10**9))
        b = H.lcm_expand(att, a, choices=H._random_left_divisors(att, a, draws))
        if b is None or b.total_length() > 24:
            continue
        assert red.reduce_left(att, b).end == unit(4)
        produced += 1
    assert produced >= 10


def test_conjecture_A_rejects_bad_certificate(att):
    a = mf(att, "a/b")
    cert = cross_cert("a", "a")
    with pytest.raises(Exception):
        H.test_conjecture_A(att, a, cert)


def test_conjecture_B_trivial(att):
    cert = cross_cert(*["1"] * 6)
    v = H.test_conjecture_B(att, unit(6), cert)
    assert v.status == "confirmed"


def test_depth4_agreement_with_cross_existence(att):
    rng = random.Random(7)
    for _ in range(30):
        a, _ = H.gen_central_cross(att, 4, 2, rng.randrange(10**9))
        cert = cross_cert(*[att.word_str(r) for r in H.has_central_cross(att, a)])
        assert H.test_conjecture_B(att, a, cert).status == "confirmed"


def test_cross_confluence_pair_examples(att):
    a = mf(att, "ca/cb/bc/ba")
    b = a
    for i, x in [(3, "cb"), (2, "ca"), (4, "a")]:
        b = red.apply_right(att, b, i, att.element(x))
    assert fmt(att, b) == "1/1/ac/ab"
    v = cross_confluence_pair(att, b, a, a)
    c = mf(att, "ac/cab/c/1")
    expected = sorted([fmt(att, c), fmt(att, red.apply_division(att, c, 2, att.element("c")))])
    assert v.status == "confirmed"
    assert v.evidence["common"] == expected
    same = cross_confluence_pair(att, b, b, a)
    assert same.status == "confirmed" and same.evidence["witness"] == fmt(att, b)
    small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=1))
    v = cross_confluence_pair(small, mf(small, fmt(att, b)), a, a)
    assert v.status == "inconclusive"
    assert v.evidence == {"reason": "reduct graph exceeded 1 nodes"}


def test_cross_confluence_pair_incomplete_closures(att, monkeypatch):
    # b and c are irreducible and distinct, so they share no left reduct:
    # that is a counterexample only when neither closure dropped a move on
    # a cap overflow (b and c need not be right reducts of a for this)
    b, c, a = mf(att, "a/1"), mf(att, "b/1"), unit(2)
    v = cross_confluence_pair(att, b, c, a)
    assert v.status == "counterexample"
    assert v.evidence == {"b_nodes": 1, "c_nodes": 1}
    for node in (b, c):
        monkeypatch.undo()
        overflow_left_moves(monkeypatch, lambda a, i, x, _, node=node: a == node)
        assert cross_confluence_pair(att, b, c, a).status == "inconclusive"


def test_conjecture_C_uniform_trivial_and_braid(att, braid3):
    v = H.test_conjecture_C_uniform(att, unit(3))
    assert v.status == "confirmed" and fmt(att, unit(3)) in v.evidence["witnesses"]
    rng = random.Random(20)
    for _ in range(10):
        a = H.gen_multifraction(braid3, 3, 3, rng.randrange(10**9))
        v = H.test_conjecture_C_uniform(braid3, a)
        assert v.status == "confirmed"
        irr = red.reduct_graph(braid3, a).sinks()
        assert len(irr) == 1
        assert fmt(braid3, irr[0]) in v.evidence["witnesses"]


@pytest.mark.parametrize("overflow", ["plain", "every", "applied"])
@pytest.mark.parametrize("name", DIVISION_PRESETS)
def test_cunif_witness_roots_match_all_roots(name, overflow):
    # Cunif walks the left closures of a and of the right reducts with no
    # division edge out, less those whose closure holds another right
    # reduct.  Without overflows its witness set and exactness are those
    # of the closures of every right reduct, the oracle.  With move
    # attempts that overflow (every attempt at level 2, or the atom c at
    # level 2 where it applies) its witnesses are still common left
    # reducts of every right reduct; they are exact whenever the oracle's
    # are, and then also when only closures left out hold an overflow
    ctx = MonoidContext(preset(name))
    x = ctx.atoms()[min(2, ctx.pres.n_atoms - 1)]

    def overflowing(a, i, y, b):
        return i == 2 and (overflow == "every" or y == x and b is not None)

    left_out = incomplete = 0
    for rg in seeded_graphs(ctx, Side.RIGHT):
        roots = witness_roots(rg)
        assert roots[0] == rg.root and set(roots) <= set(rg.nodes)
        truth = red.left_closures(ctx, rg.nodes)
        assert truth.walked == rg.nodes
        true_witnesses = set(truth.common()[0])
        with pytest.MonkeyPatch.context() as mp:
            if overflow != "plain":
                overflow_left_moves(mp, overflowing)
            oracle = red.left_closures(ctx, rg.nodes)
            oracle_witnesses, undecided = oracle.common()
            complete = not undecided
            walked = red.left_closures(ctx, roots, rg.index)
            walked_witnesses, walked_undecided = walked.common()
            walked_complete = not walked_undecided
            v = H.test_conjecture_C_uniform(ctx, rg.root)
        witnesses = set(walked_witnesses)
        assert v.evidence["witnesses"] == sorted(fmt(ctx, w) for w in witnesses)
        assert v.evidence.get("incomplete_closure_edges", 0) == walked_undecided
        assert witnesses <= true_witnesses
        if overflow == "plain":
            assert witnesses == set(oracle_witnesses)
            assert walked_complete == complete
        assert walked_complete or not complete
        if walked_complete:
            assert witnesses == true_witnesses
        left_out += len(rg.nodes) - len(walked.walked)
        incomplete += not complete
    assert left_out > 0
    assert (incomplete > 0) == (overflow != "plain")


# seeded Cunif inputs whose right graph and left closures fit this cap
ORACLE_CAP = 2000
ORACLE_SHAPES = ((4, 4), (6, 2))  # depth, longest entry


@pytest.mark.parametrize("overflow", ["plain", "every", "applied"])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_cunif_search_matches_all_closures(name, overflow):
    # the walk Cunif makes, with the right reducts as targets, leaves out
    # every witness root whose closure holds another right reduct, and
    # only those: a fresh walk of each root left out holds one, and a
    # root walked from holds none.  Each node's moves are found once.
    # Without overflows, the witnesses, their exactness, the irreducible
    # left reducts of a and their latest common ancestors are those of
    # the closures of every right reduct.  With overflows (as in
    # test_cunif_witness_roots_match_all_roots) the witnesses are true
    # ones, exact when the walked closures are complete, and a
    # counterexample needs those closures complete
    ctx = MonoidContext(preset(name), Caps(graph_node_cap=ORACLE_CAP))
    x = ctx.atoms()[min(2, ctx.pres.n_atoms - 1)]

    def overflowing(a, i, y, b):
        return i == 2 and (overflow == "every" or y == x and b is not None)

    inputs = left_out = 0
    for depth, length in ORACLE_SHAPES:
        for seed in range(4):
            a = H.gen_multifraction(ctx, depth, length, seed)
            try:
                rg = red.reduct_graph(ctx, a, Side.RIGHT)
                truth = red.left_closures(ctx, rg.nodes)
            except GraphNodeCapExceeded:
                continue
            assert truth.walked == rg.nodes and rg.nodes[0] == a  # bit 0 is a
            true_common, true_undecided = truth.common()
            assert not true_undecided
            true_witnesses = set(true_common)
            roots = witness_roots(rg)
            expanded = []
            with pytest.MonkeyPatch.context() as mp:
                if overflow != "plain":
                    overflow_left_moves(mp, overflowing)
                v = H.test_conjecture_C_uniform(ctx, a)
                push = red._push  # with the overflows, if any

                def counted(c, node, *args, **kwargs):
                    expanded.append(node)
                    return push(c, node, *args, **kwargs)

                mp.setattr(red, "_push", counted)
                lc = red.left_closures(ctx, roots, rg.index)
            # each node's moves are found once, by the search or the walk
            assert len(expanded) == len(set(expanded)) and set(lc.nodes) <= set(expanded)
            assert lc.walked[0] == a and set(lc.walked) <= set(roots)
            # a root walked from, after a, holds no other right reduct
            reached = set()
            for j, r in enumerate(lc.walked):
                members = closure_members(lc, j)
                others = [n for n in members if n != r and n in rg.index]
                assert r == a or r in reached or not others
                reached.update(members)
            common, undecided = lc.common()
            complete = not undecided
            witnesses = set(common)
            assert v.evidence["witnesses"] == sorted(fmt(ctx, w) for w in witnesses)
            assert v.evidence.get("incomplete_closure_edges", 0) == undecided
            assert witnesses <= true_witnesses
            if complete:
                assert witnesses == true_witnesses
            if v.status == "counterexample":
                assert complete
            if overflow == "plain":
                assert complete and v.status == "confirmed"
                irr, true_irr = lc.irreducible(), truth.irreducible()
                assert {lc.nodes[k] for k in irr} == {truth.nodes[k] for k in true_irr}
                assert set(lc.latest_common_ancestors(irr)) == set(
                    truth.latest_common_ancestors(true_irr)
                )
            for r in set(roots) - set(lc.walked):
                fresh = red.reduct_graph(ctx, r, Side.LEFT)
                assert any(n != r and n in rg.index for n in fresh.nodes)
                left_out += 1
            inputs += 1
    assert inputs >= 6 and left_out > 0


# the depths and lengths of the overflow and depth-6 Cunif campaigns of
# the golden file
RIGHT_WALK_SHAPES = ((4, 16), (6, 18))


@pytest.mark.parametrize("reversing_cap", [Caps().reversing_cap, 4])
@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_right_roots_match_reduct_graph(name, reversing_cap):
    # the right walk that keeps no edges numbers the nodes of the right
    # reduct graph as the graph does, keeps the roots read off its edges,
    # in node order, and counts its inconclusive edges, also where right
    # moves overflow (reversing_cap=4); past graph_node_cap both raise the
    # same message.  The inputs are drawn under the default caps, and each
    # walk has a context of its own, so that it meets the memos the other
    # does
    inputs = MonoidContext(preset(name))
    caps = Caps(reversing_cap=reversing_cap, graph_node_cap=ORACLE_CAP)
    graphs, walks = (MonoidContext(preset(name), caps) for _ in range(2))
    fits = undecided = 0
    for depth, length in RIGHT_WALK_SHAPES:
        for k in range(4):
            a = H.gen_multifraction(inputs, depth, max(1, length // depth), H.derive_seed(1, k))
            try:
                rg = red.reduct_graph(graphs, a, Side.RIGHT)
            except GraphNodeCapExceeded as e:
                with pytest.raises(GraphNodeCapExceeded) as raised:
                    red.right_roots(walks, a)
                assert str(raised.value) == str(e)
                continue
            index, roots, count = red.right_roots(walks, a)
            assert index == rg.index and list(index) == rg.nodes
            assert roots == witness_roots(rg)
            assert count == len(rg.inconclusive)
            fits += 1
            undecided += count
    assert fits >= 4
    assert (undecided > 0) == (reversing_cap == 4)


def test_right_roots_node_cap(att):
    # the walk raises where reduct_graph does: on the first node past the cap
    a = mf(att, "a/bac/bb/aca")
    n = len(red.reduct_graph(att, a, Side.RIGHT).nodes)
    for cap in (1, n - 1, n):
        small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
        if cap < n:
            for walk in (red.right_roots, lambda c, a: red.reduct_graph(c, a, Side.RIGHT)):
                with pytest.raises(GraphNodeCapExceeded) as raised:
                    walk(small, a)
                assert str(raised.value) == f"reduct graph exceeded {cap} nodes"
        else:
            assert len(red.right_roots(small, a)[0]) == n


def test_cunif_redundancy_search_node_cap(att):
    # the breadth-first search of a root after the first counts the nodes
    # it finds against graph_node_cap, and raises with reduct_graph's
    # message past it.  Here the other targets are an irreducible first
    # root and a sink of the root searched, which the search meets after
    # the nodes reduct_graph numbers before it (both search breadth-first,
    # in the same move order)
    a, root = mf(att, "ac/ca/ba"), mf(att, "ab/ba/ca/bcbc")
    graph = red.reduct_graph(att, root, Side.LEFT)
    sink = max(graph.sinks(), key=graph.index.get)
    before = graph.index[sink]  # the nodes found when the sink is met
    targets = {a, root, sink}
    for cap in (1, before - 1, before, len(graph.nodes)):
        small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
        if cap < before:
            with pytest.raises(GraphNodeCapExceeded) as raised:
                red.left_closures(small, (a, root), targets)
            assert str(raised.value) == f"reduct graph exceeded {cap} nodes"
        else:
            lc = red.left_closures(small, (a, root), targets)
            assert lc.walked == [a] and root not in lc.index
    # walking the root instead raises on its closure, which is larger
    with pytest.raises(GraphNodeCapExceeded):
        red.left_closures(MonoidContext(preset("A2tilde"), Caps(graph_node_cap=before)), (a, root))


@pytest.mark.parametrize("cap, rescued, inconclusive", [(20, [1, 6, 9, 13, 19], 4), (60, [1, 9, 12], 1)])
def test_cunif_node_cap_fires_on_walked_closures(att, cap, rescued, inconclusive):
    # the graph_node_cap overflow campaigns of the golden file: a trial
    # confirmed under the cap has the record of the uncapped run, and its
    # right graph and the left closures it walked fit the cap; any other
    # trial is inconclusive on that cap.  The trials `rescued` are
    # confirmed though the closure of a witness root left out does not fit
    config = H.CampaignConfig("A2tilde", "Cunif", depth=4, length=16, trials=20, seed=1)
    uncapped = H.run_campaign(att, config).records
    ctx = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=cap))
    report = H.run_campaign(ctx, config)
    assert report.counts == {"confirmed": 20 - inconclusive, "inconclusive": inconclusive}

    def fits(root, side=Side.LEFT):
        return len(red.reduct_graph(att, root, side).nodes) <= cap

    found = []
    for k, (rec, want) in enumerate(zip(report.records, uncapped)):
        if rec["verdict"] == "confirmed":
            assert {**rec, "millis": 0} == {**want, "millis": 0}
            a = mf(att, want["input"])
            rg = red.reduct_graph(att, a, Side.RIGHT)
            walked = red.left_closures(att, witness_roots(rg), rg.index).walked
            assert fits(a, Side.RIGHT) and all(fits(r) for r in walked)
            if not all(fits(r) for r in witness_roots(rg)):
                found.append(k)
        else:
            assert rec["verdict"] == "inconclusive"
            assert rec["evidence"] == {"reason": f"reduct graph exceeded {cap} nodes"}
    assert found == rescued


def test_conjecture_C_uniform_red_tame_overflow_keeps_witnesses(att, monkeypatch):
    # the tame reduct is a candidate alongside the witnesses: its overflow
    # records it null, and the witnesses still decide the verdict
    a = mf(att, "abb/acbb/c/bacb")
    want = H.test_conjecture_C_uniform(att, a)

    def overflowing(ctx, a):
        raise ReversingCapExceeded("reversing exceeded 0 cell fills")

    monkeypatch.setattr(H, "red_tame", overflowing)
    got = H.test_conjecture_C_uniform(att, a)
    assert got.status == want.status == "confirmed"
    assert got.evidence["red_tame"] is None and got.evidence["red_tame_is_witness"] is False
    assert got.evidence["witnesses"] == want.evidence["witnesses"] != []
    assert got.evidence["right_reducts"] == want.evidence["right_reducts"]


def test_four_strategy_probe(att, braid3):
    irr = mf(att, "ac/ca/ba")
    v = H.four_strategy_C_probe(att, irr)
    assert v.status == "confirmed" and v.evidence["forall_k_forall_j"]
    rng = random.Random(2)
    for _ in range(8):
        a = H.gen_multifraction(braid3, 4, 3, rng.randrange(10**9))
        v = H.four_strategy_C_probe(braid3, a)
        assert v.status == "confirmed" and v.evidence["forall_k_forall_j"]


def test_has_central_cross_examples(att):
    assert H.has_central_cross(att, unit(4)) == (IDENTITY,) * 4
    rng = random.Random(13)
    for _ in range(20):
        a, cross = H.gen_central_cross(att, 4, 2, rng.randrange(10**9))
        got = H.has_central_cross(att, a)
        assert got is not None and H.assemble_cross(att, got, a.first_sign) == a
    assert H.has_central_cross(att, mf(att, "ab/ac/1/1")) is None
    # negative multifractions: the gcds and quotients are taken on the left
    neg = Multifraction(-1, mf(att, "ab/ab/1/1").entries)
    assert H.has_central_cross(att, neg) == (IDENTITY, att.element("ab"), IDENTITY, IDENTITY)
    assert H.has_central_cross(att, Multifraction(-1, mf(att, "ab/ac/1/1").entries)) is None
    # every cross assembled at first sign -1 is found, and what is found is a cross
    for name in ("A2tilde", "braid(4)", "K(4,3)", "I2(5)"):
        ctx = MonoidContext(preset(name))
        rng = random.Random(name)
        for _ in range(50):
            rays = [H.gen_element(ctx, rng.randint(0, 3), rng.randrange(10**9)) for _ in range(4)]
            a = H.assemble_cross(ctx, rays, first_sign=-1)
            got = H.has_central_cross(ctx, a)
            assert got is not None and H.assemble_cross(ctx, got, -1) == a, (name, fmt(ctx, a))


def test_check_depth4_equivalences(att):
    r = H.check_depth4_equivalences(att, unit(4))
    assert r["agree"] and r["central_cross"]
    bad = mf(att, "a/b/1/1")
    r = H.check_depth4_equivalences(att, bad)
    assert r["agree"] and not r["central_cross"]


def test_unique_fraction_probe(att):
    a, b = att.element("ab"), att.element("cb")
    r = unique_fraction_probe(att, a, b, a, b)
    assert r["factorization_holds"]
    # a reduced pair (right gcd 1) is compared; ab/cb, with gcd b, is not
    for x, y, reduced in (("a", "b", True), ("ab", "c", True), ("aba", "c", True),
                          ("ab", "cb", None)):
        x, y = att.element(x), att.element(y)
        assert unique_fraction_probe(att, x, y, x, y)["reduced_pair_equal"] is reduced
    # seeded: a/b and c/d from a common cross
    rng = random.Random(3)
    reports = []
    for _ in range(20):
        x, y, g1, g2 = (
            H.gen_element(att, rng.randint(0, 2), rng.randrange(10**9)) for _ in range(4)
        )
        a1 = att.multiply(x, g1)
        b1 = att.multiply(y, g1)
        c1 = att.multiply(x, g2)
        d1 = att.multiply(y, g2)
        if att.gcd(x, y, Side.RIGHT) != IDENTITY:
            continue
        r = unique_fraction_probe(att, a1, b1, c1, d1)
        assert r["factorization_holds"]
        if att.gcd(a1, b1, Side.RIGHT) == g1 == IDENTITY and att.gcd(c1, d1, Side.RIGHT) == g2 == IDENTITY:
            assert r["reduced_pair_equal"]
        reports.append(r)
    # all 19 reports pinned; the digest was taken when the probe computed
    # x, y and both gcds by its own gcd and division calls
    payload = json.dumps(reports, sort_keys=True)
    assert len(reports) == 19
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "deb36b34c0218095627bca7e6bbd14d50ce85b6bdbf255a87291e230df815b71"
    )


def test_cross_preserved_by_moves(att):
    rng = random.Random(40)
    checked = 0
    for _ in range(40):
        if rng.random() < 0.5:
            a, _ = H.gen_central_cross(att, 4, 1, rng.randrange(10**9))
        else:
            a = H.gen_multifraction(att, 4, 2, rng.randrange(10**9))
        before = H.has_central_cross(att, a) is not None
        for i in range(1, 4):
            for s in att.atoms():
                b = red.apply_left(att, a, i, s)
                if b is not None:
                    assert (H.has_central_cross(att, b) is not None) == before
                    checked += 1
        for i in range(2, 5):
            for s in att.atoms():
                b = red.apply_right(att, a, i, s)
                if b is not None:
                    assert (H.has_central_cross(att, b) is not None) == before
                    checked += 1
    assert checked >= 100


def test_cross_transitivity(att):
    rng = random.Random(50)
    for _ in range(30):
        rays1 = tuple(H.gen_element(att, rng.randint(0, 2), rng.randrange(10**9)) for _ in range(4))
        a = H.assemble_cross(att, rays1)
        # build b with b1 = a4 and b2 = a3 via a cross sharing the seam
        x1, x2, x3, x4 = rays1
        y4 = H.gen_element(att, rng.randint(0, 2), rng.randrange(10**9))
        rays2 = (x1, x4, x3, y4)
        b = H.assemble_cross(att, rays2)
        assert b.entry(1) == a.entry(4) and b.entry(2) == a.entry(3)
        spliced = Multifraction(1, (a.entry(1), a.entry(2), b.entry(3), b.entry(4)))
        assert H.has_central_cross(att, spliced) is not None


def test_local_cross_confluence_witness(att):
    rng = random.Random(60)
    checked = 0
    while checked < 40:
        a = H.gen_multifraction(att, rng.randint(3, 4), 2, rng.randrange(10**9))
        d = red.derdiv(att, a)
        moves = []
        for i in range(2, a.depth + 1):
            for s in att.atoms():
                b = red.apply_right(att, a, i, s)
                if b is not None:
                    moves.append(b)
        for b in moves[:3]:
            g = red.reduct_graph(att, b, Side.LEFT)
            assert d in g.index
            checked += 1


def test_depth23_semiconvergence(att):
    rng = random.Random(70)
    for _ in range(40):
        a = H.gen_element(att, rng.randint(0, 3), rng.randrange(10**9))
        b = H.gen_element(att, rng.randint(0, 3), rng.randrange(10**9))
        two = Multifraction(1, (a, b))
        graph = red.reduct_graph(att, two, Side.LEFT)
        assert (unit(2) in graph.index) == (a == b)
        three = Multifraction(1, (a, att.multiply(b, a), b))
        assert red.reduce_left(att, three).end == unit(3)


def test_depth5_prescribed_sequence(att):
    rng = random.Random(80)
    done = 0
    while done < 25:
        rays = tuple(H.gen_element(att, rng.randint(0, 2), rng.randrange(10**9)) for _ in range(4))
        x1, x2, x3, x4 = rays
        prod = att.multiply(x1, x2)
        divs = att.divisors(prod, Side.LEFT)
        a5 = divs[rng.randrange(len(divs))]
        a1 = att.divides(a5, prod, Side.LEFT)
        a = Multifraction(
            1,
            (
                a1,
                att.multiply(x3, x2),
                att.multiply(x3, x4),
                att.multiply(x1, x4),
                a5,
            ),
        )
        cur = a
        for kind, i, x in (
            ("div", 2, x3),
            ("div", 3, x4),
            ("red", 3, x1),
            ("red", 4, a5),
            ("div", 1, a1),
            ("div", 2, a5),
        ):
            if not x:
                continue
            fn = red.apply_division if kind == "div" else red.apply_left
            cur = fn(att, cur, i, x)
            assert cur is not None
        assert cur == unit(5)
        done += 1


def test_padding_preserves_confirmation(att):
    rng = random.Random(90)
    for _ in range(10):
        a, _ = H.gen_central_cross(att, 4, 1, rng.randrange(10**9))
        padded = product(att, a, unit(2))
        assert padded.depth == 6
        assert red.reduce_left(att, padded).end == unit(6)


def test_word_problem(att, braid3):
    s = ((0, 1), (0, -1))
    assert H.word_problem(att, s)["verdict"] == "trivial"
    ab_inv = ((0, 1), (1, -1))
    r = H.word_problem(braid3, ab_inv)
    assert r["verdict"] == "nontrivial" and r["unconditional"]
    r = H.word_problem(att, ab_inv)
    assert r["verdict"] == "nontrivial"
    # balanced nontrivial word in a non-FC preset: conditional wording
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    r = H.word_problem(att, w)
    if r["verdict"] == "nontrivial" and r["basis"].startswith("exhaustive"):
        assert not r["unconditional"]


AB_AB = ((0, 1), (1, 1), (0, -1), (1, -1))  # ab AB, the multifraction ab/ba
CONDITIONAL = {
    "verdict": "nontrivial",
    "unconditional": False,
    "basis": "exhaustive, conditional on semi-convergence",
}


def _weight_zero_words(n_atoms, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 4)
        letters = [(rng.randrange(n_atoms), e) for e in [1] * k + [-1] * k]
        rng.shuffle(letters)
        yield tuple(letters)


def test_word_problem_reads_fc_off_the_relations_of_a_file():
    # a file that spells braid(4)'s relations is licensed as the preset
    # is: each word gets the preset's answer, ab AB an unconditional one
    pres = preset("braid(4)")
    spelled = MonoidContext(parse_presentation(format_presentation(pres), "spelled"))
    ctx = MonoidContext(pres)
    for w in [AB_AB, *_weight_zero_words(pres.n_atoms, 40, 43)]:
        assert H.word_problem(spelled, w) == H.word_problem(ctx, w), w
    assert H.word_problem(spelled, AB_AB)["basis"] == "exhaustive-fc"
    assert H.word_problem(MonoidContext(preset("A2tilde")), AB_AB).items() >= CONDITIONAL.items()


def test_word_problem_is_conditional_without_an_fc_decision():
    # a relation that is no braid relation leaves the answer conditional
    odd = MonoidContext(parse_presentation("atoms: a b\nrel: aab = bba\n"))
    assert H.word_problem(odd, AB_AB).items() >= CONDITIONAL.items()
    assert odd.fc is None


# braid(n) answers from reversing_cap 16 and basics_cap 2 on
TIGHT_CAPS = [*(Caps(reversing_cap=r) for r in range(14, 30)), *(Caps(basics_cap=b) for b in range(8))]


@pytest.mark.parametrize("name", ["braid(4)", "braid(5)", "braid(6)", "braid(8)", "I2(3)", "I2(5)"])
def test_fc_answers_stay_unconditional_at_tight_caps(name):
    # type FC belongs to the presentation, so no cap of the query's context
    # weakens a negative answer to conditional: a fold run under the
    # context's own caps overflowed at basics_cap 2 on braid(4), and at
    # reversing_cap 16 on braid(8), whose fold reverses 21 letters against g
    answered = []
    for caps in TIGHT_CAPS:
        ctx = MonoidContext(preset(name), caps)
        assert ctx.fc is True
        for w in [((0, 1), (1, -1)), AB_AB]:  # a B and ab AB
            try:
                r = H.word_problem(ctx, w)
            except MultiredError:
                continue
            if r["verdict"] == "nontrivial":
                assert r["unconditional"] and r["basis"] == "exhaustive-fc", (caps, w)
                answered.append(caps)
    assert {Caps(basics_cap=2), Caps(reversing_cap=16)} <= set(answered)


def test_three_ore_scans(att, braid3, free2):
    assert H.three_ore_scan(braid3, 3)["violations"] == []
    report = H.three_ore_scan(att, 1)
    assert report["violations"] == [["a", "b", "c"]]
    assert report["inconclusive"] == []
    assert H.three_ore_scan(free2, 2)["violations"] == []


@pytest.mark.parametrize("max_len, overflowing, inconclusive", [
    (1, ("a", "c"), [["a", "b", "c"]]),  # a pair's lcm
    (1, ("aba", "c"), [["a", "b", "c"]]),  # the first pair's lcm against the third
    (2, ("a", "c"), [["a", "b", "c"], ["a", "c", "aa"], ["a", "c", "ac"],
                     ["a", "c", "bb"], ["a", "c", "ca"], ["a", "c", "cc"]]),
])
def test_three_ore_scan_overflow_inconclusive(monkeypatch, max_len, overflowing, inconclusive):
    # one lcm overflows: each triple that reads it is inconclusive, never a
    # violation, and every other triple reads as it does without the overflow
    violations = H.three_ore_scan(MonoidContext(preset("A2tilde")), max_len)["violations"]
    ctx = MonoidContext(preset("A2tilde"))
    lcm = ctx.lcm

    def overflowing_lcm(a, b, side):
        if (ctx.word_str(a), ctx.word_str(b)) == overflowing:
            raise ReversingCapExceeded("reversing exceeded 0 cell fills")
        return lcm(a, b, side)

    monkeypatch.setattr(ctx, "lcm", overflowing_lcm)
    report = H.three_ore_scan(ctx, max_len)
    assert report["inconclusive"] == inconclusive
    assert report["violations"] == [t for t in violations if t not in inconclusive]


def test_mixed_cycle(att):
    report = H.mixed_cycle_probe(att, iterations=3)
    assert report["ok"]
    assert report["iterations"][0]["value"] == "bacbac/a/bc/acbacb"
    with pytest.raises(MultiredError, match="iterations must be >= 1; got 0"):
        H.mixed_cycle_probe(att, iterations=0)


def test_mixed_cycle_reports_a_miss(att, monkeypatch):
    # an iteration whose value misses its expected one makes the probe
    # fail, here the second, whose expected outer entries are cut short
    product = att.product
    short = [att.element("bacbac")] * 2

    def cut(items):
        return product(items[1:] if list(items) == short else items)

    monkeypatch.setattr(att, "product", cut)
    report = H.mixed_cycle_probe(att, iterations=3)
    assert [r["matches"] for r in report["iterations"]] == [True, False, True]
    assert report["ok"] is False


def test_campaign_small(att):
    config = H.CampaignConfig(preset="A2tilde", conjecture="A", depth=4, length=16, trials=8, seed=5)
    log = io.StringIO()
    report = H.run_campaign(att, config, log_stream=log)
    assert report.counts == {"confirmed": 8}
    lines = [json.loads(line) for line in log.getvalue().splitlines()]
    assert len(lines) == 8 and all("seed" in r for r in lines)
    with pytest.raises(MultiredError, match="trials must be >= 1; got 0"):
        H.run_campaign(att, H.CampaignConfig("A2tilde", "B", trials=0))


@pytest.mark.parametrize("config, message", [
    (H.CampaignConfig("A2tilde", "X", trials=2, jobs=2),
     "unknown conjecture 'X'; the kinds are A, B, C, Cunif, depth4"),
    (H.CampaignConfig("braid(4)", "A", trials=2, jobs=2),
     "the campaign names preset 'braid(4)', but the context holds 'A2tilde'"),
    (H.CampaignConfig("A2tilde", "A", trials=2, jobs=0), "jobs must be >= 1; got 0"),
])
def test_campaign_refused_before_any_trial(att, monkeypatch, config, message):
    # no trial runs, no log line is written and no worker pool starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(H, "run_trial", no_pool)
    log = io.StringIO()
    with pytest.raises(MultiredError, match=f"^{re.escape(message)}$"):
        H.run_campaign(att, config, log_stream=log)
    assert log.getvalue() == ""


def test_campaign_expansions_fixed(att):
    # one lcm-expansion step at most: not a setting, but in the report
    with pytest.raises(TypeError):
        H.CampaignConfig("A2tilde", "A", expansions=2)
    report = H.run_campaign(att, H.CampaignConfig("A2tilde", "B", length=8, trials=1))
    assert report.to_json()["config"]["expansions"] == 1


def test_campaign_parallel(att):
    config = H.CampaignConfig(
        preset="A2tilde", conjecture="B", depth=4, length=12, trials=4, seed=9, jobs=2
    )
    report = H.run_campaign(att, config)
    assert report.counts == {"confirmed": 4}
    serial = H.run_campaign(att, H.CampaignConfig(
        preset="A2tilde", conjecture="B", depth=4, length=12, trials=4, seed=9, jobs=1
    ))
    assert [r["input"] for r in report.records] == [r["input"] for r in serial.records]


def test_campaign_pool_has_no_more_workers_than_trials(att, monkeypatch):
    # a pool stand-in that runs its workers' calls in this process records
    # how many workers the campaign asks for, and forks nothing
    workers = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(H, "_worker", H._worker)  # restored after the test
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = H.CampaignConfig("A2tilde", "A", depth=4, length=16, trials=2, seed=1, jobs=8)
    pooled = H.run_campaign(att, config).to_json(include_timing=False)
    serial = H.run_campaign(att, H.CampaignConfig(
        "A2tilde", "A", depth=4, length=16, trials=2, seed=1, jobs=1
    )).to_json(include_timing=False)
    assert workers == [2]
    assert pooled["records"] == serial["records"] and len(serial["records"]) == 2


def test_campaign_cap_overflow_in_generation():
    # the input generator overflows reversing_cap; each trial is inconclusive
    ctx = MonoidContext(preset("A2tilde"), Caps(reversing_cap=1))
    report = H.run_campaign(ctx, H.CampaignConfig("A2tilde", "A", length=12, trials=3, seed=2))
    assert report.counts == {"inconclusive": 3}
    for rec in report.records:
        assert rec["input"] is None and rec["moves"] is None
        assert rec["evidence"]["cap"] == "reversing_cap"


def test_cube_check_overflow_kept(monkeypatch):
    # a side whose cube check overflowed reversing_cap keeps no store: each
    # later use re-runs its check once and raises a fresh overflow of the
    # same class and message, and the campaign report keeps its digest
    calls = []
    check = MonoidContext._check_cube

    def spy(self, side, store):
        calls.append(side)
        return check(self, side, store)

    monkeypatch.setattr(MonoidContext, "_check_cube", spy)
    ctx = MonoidContext(preset("braid(4)"), Caps(reversing_cap=12))
    config = H.CampaignConfig("braid(4)", "Cunif", length=8, trials=20, seed=1)
    report = H.run_campaign(ctx, config)
    assert report.counts == {"confirmed": 1, "inconclusive": 19}
    text = json.dumps(report.to_json(include_timing=False), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4063a1603c4572d8bcef81fbcf4dbe18536318bdb2cd6c751a1d5092de38ebb3"
    )
    a, _, c = ctx.atoms()
    for side in Side:
        raised = []
        for _ in range(2):
            calls.clear()
            with pytest.raises(ReversingCapExceeded, match="reversing exceeded 12 cell fills") as e:
                ctx.lcm(a, c, side)
            assert calls == [side]
            raised.append(e.value)
        assert raised[0] is not raised[1]


def test_counterexample_dump(att, tmp_path):
    record = {"trial": 0, "seed": 1, "input": "a/b", "verdict": "counterexample"}
    paths = H.dump_counterexample(att, record, str(tmp_path))
    assert len(paths) == 2
    dot = open(paths[0]).read()
    assert dot.startswith("digraph")
    replayed = json.load(open(paths[1]))
    assert replayed["input"] == "a/b"


def test_derive_seed_stable():
    assert H.derive_seed(1, 2) == H.derive_seed(1, 2)
    assert H.derive_seed(1, 2) != H.derive_seed(1, 3)


def test_brownian_golden_value(att):
    a, _ = gen_unital_brownian(att, 12, 42)
    assert fmt(att, a) == "1/b/c/ac/cab/cab/ab"


def test_brownian_walk_with_delete_replays(att):
    a, walk = gen_unital_brownian(att, 12, 0)
    assert "delete" in [item["op"] for item in walk]
    assert replay_walk(att, walk) == a


def _insert(pos, atom, sign):
    return {"op": "insert", "pos": pos, "atom": atom, "sign": sign}


@pytest.mark.parametrize("walk", [
    # a sign 2 insertion would put a^2 a^-2 in the word, not a cancelling pair
    [_insert(0, 0, 2)],
    [_insert(0, 3, 1)],
    [_insert(1, 0, 1)],
    # a delete of "ab", which is no inverse pair
    [_insert(0, 0, 1), _insert(1, 1, 1), {"op": "delete", "pos": 0}],
    [_insert(0, 0, 1), {"op": "delete", "pos": 1}],
    [_insert(0, 0, 1), {"op": "transform", "index": 7}],
    [_insert(0, 0, 1), {"op": "transform", "index": -1}],
    [{"op": "bogus"}],
    [{"op": "insert", "pos": 0, "atom": 0}],
    [_insert(0, 0.5, 1)],
], ids=["sign", "atom", "insert_pos", "delete_pair", "delete_pos", "transform", "transform_neg",
        "op", "missing_sign", "atom_not_int"])
def test_forged_brownian_steps_rejected(att, walk):
    # each walk is well formed up to its last step, which the replay refuses
    assert replay_walk(att, walk[:-1]) is not None
    assert replay_walk(att, walk) is None


# a walk whose replay ends at ab/ab: a b b^-1 a^-1
_AB_AB_WALK = [_insert(0, 0, 1), _insert(1, 1, 1)]


@pytest.mark.parametrize("kind, payload", [
    # the cross ab/ab with a choice c that does not left-divide ab
    ("lcm_expansion_chain", {"rays": ["a", "b"], "choices": [["c", "1"]]}),
    ("lcm_expansion_chain", {"rays": ["a", "b"], "choices": [["a"]]}),
    ("lcm_expansion_chain", {"rays": ["a", "z"], "choices": []}),
    ("lcm_expansion_chain", None),
    ("lcm_expansion_chain", []),
    ("lcm_expansion_chain", "x"),
    # kinds the replay does not read, with payloads that would prove ab/ab unital
    ("brownian_trace", {"walk": _AB_AB_WALK}),
    ("central_cross_seed", {"rays": ["a", "b"]}),
    ("cross", {"rays": ["a", "b"], "choices": []}),
], ids=["choice_not_divisor", "too_few_choices", "unknown_atom", "payload_none", "payload_list",
        "payload_str", "brownian_trace", "central_cross_seed", "unknown_kind"])
def test_forged_certificate_payloads_rejected(att, kind, payload):
    _assert_refused(att, mf(att, "ab/ab"), H.UnitalCertificate(kind, payload))


def _assert_refused(att, a, cert):
    # explicit checks, not asserts: the replay refuses these under python -O too
    assert not H.validate_certificate(att, a, cert)
    for tester in (H.test_conjecture_A, H.test_conjecture_B):
        with pytest.raises(MultiredError, match="certificate does not prove the input unital"):
            tester(att, a, cert)


def test_conjecture_A_graph_fallback(att, monkeypatch):
    # a strategy run that misses the trivial multifraction hands over to
    # the left reduct graph
    a = mf(att, "a/a")
    cert = cross_cert("a", "1")
    stuck = lambda ctx, b, *args: SimpleNamespace(end=b)
    monkeypatch.setattr(H, "reduce_left", stuck)
    v = H.test_conjecture_A(att, a, cert)
    assert (v.status, v.evidence) == ("confirmed", {"via": "graph", "nodes": 2})
    small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=1))
    v = H.test_conjecture_A(small, a, cert)
    assert (v.status, v.evidence) == ("inconclusive", {"reason": "reduct graph exceeded 1 nodes"})

    overflow_left_moves(monkeypatch, lambda *attempt: True)
    v = H.test_conjecture_A(att, a, cert)
    assert (v.status, v.evidence) == ("inconclusive", {"incomplete_edges": 3})
    monkeypatch.undo()
    # a/1 is not unital: a certificate forced through gives a counterexample
    # read off its complete one-node graph
    monkeypatch.setattr(H, "validate_certificate", lambda ctx, b, c: True)
    v = H.test_conjecture_A(att, mf(att, "a/1"), cert)
    assert (v.status, v.evidence) == (
        "counterexample", {"nodes": 1, "certificate": "lcm_expansion_chain"}
    )


def test_word_problem_graph_branches(att, monkeypatch):
    w = ((0, 1), (0, -1))  # a a^-1, the multifraction a/a
    monkeypatch.setattr(H, "reduce_left", lambda ctx, b, *args: SimpleNamespace(end=b))
    r = H.word_problem(att, w)
    assert (r["verdict"], r["basis"], r["unconditional"]) == ("trivial", "graph", True)
    small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=1))
    r = H.word_problem(small, w)
    assert (r["verdict"], r["basis"]) == ("inconclusive", "reduct graph exceeded 1 nodes")

    overflow_left_moves(monkeypatch, lambda *attempt: True)
    r = H.word_problem(att, w)
    assert (r["verdict"], r["basis"]) == ("inconclusive", "incomplete graph")


def test_four_strategy_counterexample(att, monkeypatch):
    # strategy left reducts that no right reduct's complete closure holds
    a = mf(att, "ac/ca/ba")
    far = mf(att, "b/b/b")
    monkeypatch.setattr(H, "reduce_left", lambda ctx, b, *args: SimpleNamespace(end=far))
    v = H.four_strategy_C_probe(att, a)
    assert v.status == "counterexample"
    assert v.evidence == {
        "rights": ["1/c/aba"] * 4,
        "lefts": ["b/b/b"] * 4,
        "exists_k_forall_j": False,
        "forall_k_forall_j": False,
    }


def test_four_strategy_overflowing_runs_keep_evidence(att, monkeypatch):
    # a strategy run that overflows leaves its reduct null; the other runs
    # and the closures of the finished right reducts are still reported
    c = att.element("c")
    overflow_left_moves(monkeypatch, lambda a, i, x, b: i == 2 and x == c)
    config = H.CampaignConfig("A2tilde", "C", depth=4, length=12, trials=20, seed=1)
    report = H.run_campaign(att, config)
    assert report.counts == {"inconclusive": 20}
    for rec in report.records:
        ev = rec["evidence"]
        assert "cap" not in ev and len(ev["rights"]) == len(ev["lefts"]) == 4
        assert None in ev["rights"] + ev["lefts"]
        assert not ev["exists_k_forall_j"] and ev["incomplete_edges"] >= 0
    assert any(None not in rec["evidence"]["rights"] for rec in report.records)


def test_four_strategy_closure_overflow_keeps_runs():
    # closures that overflow still report the eight finished strategy runs
    small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=1))
    v = H.four_strategy_C_probe(small, mf(small, "ac/ca/ba"))
    assert v.status == "inconclusive"
    assert v.evidence == {
        "rights": ["1/c/aba"] * 4,
        "lefts": ["ac/ca/ba"] * 4,
        "reason": "reduct graph exceeded 1 nodes",
    }


def test_four_strategy_exists_without_forall(att):
    # seeded regression case: one strategy left reduct is reachable from
    # all four strategy right reducts, but not every pair connects
    a = H.gen_multifraction(att, 4, 3, 739498)
    assert fmt(att, a) == "bca/b/ca/bcb"
    v = H.four_strategy_C_probe(att, a)
    assert v.status == "confirmed"
    assert v.evidence["exists_k_forall_j"]
    assert not v.evidence["forall_k_forall_j"]


def test_four_strategy_probe_incomplete_graphs(att, monkeypatch):
    # a failure read off a search that dropped moves on a cap overflow is
    # no counterexample.  Every left attempt overflows outside the left
    # reducts of a, so the left runs finish, while the search starts at
    # right ends that are no left reducts of a and meets only overflows
    a = H.gen_multifraction(att, 4, 4, seed=3)
    clean = H.four_strategy_C_probe(att, a)
    assert clean.status == "confirmed"
    region = red.reduct_graph(att, a).index
    overflow_left_moves(monkeypatch, lambda b, *attempt: b not in region)
    v = H.four_strategy_C_probe(att, a)
    assert v.status == "inconclusive"
    assert v.evidence["lefts"] == clean.evidence["lefts"] and None not in v.evidence["lefts"]
    assert not any(parse_multifraction(att, b) in region for b in v.evidence["rights"])
    assert not v.evidence["exists_k_forall_j"]
    assert v.evidence["incomplete_edges"] > 0


@pytest.mark.parametrize("name", GOLDEN_PRESETS)
def test_search_misses_with_undecided_moves_are_no_counterexamples(name):
    # A: under overflows of the applied level-2 moves, a search from a
    # unital cross (even seeds) or a seeded input (odd seeds) that misses
    # the trivial multifraction with an undecided move is inconclusive,
    # with the search's count; an exact miss is a counterexample, and it
    # is one without the overflows too.  C: with every left attempt
    # overflowing outside the left reducts of a, the left runs finish, and
    # a probe whose search has an undecided move is never a counterexample
    ctx = MonoidContext(preset(name), Caps(graph_node_cap=2000))
    trivial = unit(4)
    inconclusive = {"A": 0, "C": 0}
    for seed in range(8):
        if seed % 2:
            a = H.gen_multifraction(ctx, 4, 3, seed)
        else:
            a, _ = H.gen_central_cross(ctx, 4, 2, seed)
        try:
            region = red.reduct_graph(ctx, a).index
            clean = red.reaches(ctx, [a], [trivial])
        except GraphNodeCapExceeded:
            continue
        with pytest.MonkeyPatch.context() as mp:
            overflow_left_moves(mp, lambda b, i, x, r: i == 2 and r is not None)
            reach = red.reaches(ctx, [a], [trivial])
            v = H._reaches_trivial(ctx, a)
        if reach.hits == [1]:
            assert v.status == "confirmed"
        elif reach.undecided:
            assert (v.status, v.evidence) == ("inconclusive", {"incomplete_edges": reach.undecided})
            inconclusive["A"] += 1
        else:
            assert (v.status, v.evidence) == ("counterexample", {"nodes": reach.nodes})
            assert clean.hits == [0]
        with pytest.MonkeyPatch.context() as mp:
            overflow_left_moves(mp, lambda b, *attempt: b not in region)
            c = H.four_strategy_C_probe(ctx, a)
            ends = [parse_multifraction(ctx, b) for b in c.evidence["rights"]]
            targets = [parse_multifraction(ctx, b) for b in dict.fromkeys(c.evidence["lefts"])]
            reach = red.reaches(ctx, list(dict.fromkeys(ends)), targets)
        assert c.status != "counterexample"
        if c.status == "inconclusive":
            assert c.evidence["incomplete_edges"] == reach.undecided > 0
            inconclusive["C"] += 1
    assert inconclusive["A"] and inconclusive["C"]


def test_four_strategy_depth6_trials_past_the_closure_cap():
    # braid(4) trials 25, 29 and 37 of the depth-6 C campaign once walked
    # the right ends' left closures past 50,000 nodes; the search confirms
    # them, with both flags true
    ctx = MonoidContext(preset("braid(4)"))
    config = H.CampaignConfig("braid(4)", "C", depth=6, length=18, trials=40, seed=1)
    for index in (25, 29, 37):
        rec = H.run_trial(ctx, config, index)
        assert rec["verdict"] == "confirmed", index
        assert rec["evidence"]["exists_k_forall_j"] and rec["evidence"]["forall_k_forall_j"]


def test_depth4_incomplete_graph_inconclusive(att, monkeypatch):
    # a left graph that dropped moves on a cap overflow cannot show that the
    # trivial multifraction is out of reach: the trial is inconclusive and
    # the campaign goes on
    c = att.element("c")
    overflow_left_moves(monkeypatch, lambda a, i, x, b: i == 2 and x == c)
    config = H.CampaignConfig("A2tilde", "depth4", length=16, trials=20)
    report = H.run_campaign(att, config)
    undecided = [r for r in report.records if "incomplete_edges" in r["evidence"]]
    assert undecided and report.counterexample is None
    for rec in undecided:
        assert rec["verdict"] == "inconclusive"
        assert rec["evidence"]["reduces_to_trivial"] is None
        assert rec["evidence"]["agree"] is None
        assert rec["evidence"]["incomplete_edges"] > 0
    # a disagreement read off a complete graph still raises
    monkeypatch.undo()
    monkeypatch.setattr(H, "has_central_cross", lambda ctx, a: None)
    with pytest.raises(MultiredError, match="depth-4 equivalence violated"):
        H.check_depth4_equivalences(att, unit(4))


def test_conjecture_A_trivial_empty_trace(att):
    cert = cross_cert(*["1"] * 4)
    v = H.test_conjecture_A(att, unit(4), cert)
    assert v.status == "confirmed" and v.evidence["steps"] == 0


def test_affine_presets_scan():
    a3 = MonoidContext(preset("A3tilde"))
    # every 3-subset of the 4-cycle diagram is a path, hence spherical:
    # no violation among atoms
    assert H.three_ore_scan(a3, 1)["violations"] == []
    c2 = MonoidContext(preset("C2tilde"))
    assert H.three_ore_scan(c2, 1)["violations"] == [["a", "b", "c"]]
    config = H.CampaignConfig(preset="C2tilde", conjecture="B", depth=4, length=10, trials=15, seed=2)
    assert H.run_campaign(c2, config).counts == {"confirmed": 15}


def test_reaches_trivial_after_an_overflowed_run(att, monkeypatch):
    # a strategy run that overflows hands over to the search, which counts
    # the overflowed attempt as an undecided move and stops at the trivial
    # multifraction: 14 of the 317 nodes of the left reduct graph
    a = mf(att, "ac/ca/ba/ab/cb/bc")
    first = red.reduce_left(att, a).moves[0]
    overflow_left_moves(monkeypatch, lambda b, i, x, r: b == a and (i, x) == (first.level, first.x))
    with pytest.raises(ReversingCapExceeded):
        red.reduce_left(att, a)
    v = H._reaches_trivial(att, a)
    assert (v.status, v.evidence) == ("confirmed", {"via": "graph", "nodes": 14})
    assert len(red.reduct_graph(att, a).nodes) == 317
    # with both moves of a undecided, the search finds a alone
    monkeypatch.undo()
    overflow_left_moves(monkeypatch, lambda b, i, x, r: b == a and r is not None)
    v = H._reaches_trivial(att, a)
    assert (v.status, v.evidence) == ("inconclusive", {"incomplete_edges": 2})


def test_reaches_trivial_at_a_negative_first_sign(att, monkeypatch):
    # the trivial end of a negative input is found by the run and, with
    # the run's first move overflowed, by the graph over the other route
    a = mf(att, "/aba/aba")
    v = H._reaches_trivial(att, a)
    assert (v.status, v.evidence) == ("confirmed", {"trace_levels": [1, 1, 1], "steps": 3})
    first = red.reduce_left(att, a).moves[0]
    overflow_left_moves(monkeypatch, lambda b, i, x, r: b == a and (i, x) == (first.level, first.x))
    with pytest.raises(ReversingCapExceeded):
        red.reduce_left(att, a)
    v = H._reaches_trivial(att, a)
    assert (v.status, v.evidence) == ("confirmed", {"via": "graph", "nodes": 4})


def test_depth4_graph_past_its_cap_keeps_the_report():
    # reachability undecided by a graph past its cap leaves the other two
    # predicates in the report, with the reason and no cap name
    small = MonoidContext(preset("A2tilde"), Caps(graph_node_cap=30))
    config = H.CampaignConfig("A2tilde", "depth4", length=16, trials=50, seed=1)
    report = H.run_campaign(small, config)
    assert report.counts == {"confirmed": 47, "inconclusive": 3}
    for rec in report.records:
        ev = rec["evidence"]
        assert "cap" not in ev and {"red_tame_trivial", "central_cross"} <= set(ev)
        if rec["verdict"] == "inconclusive":
            assert ev["reason"] == "reduct graph exceeded 30 nodes"
            assert ev["reduces_to_trivial"] is None and ev["agree"] is None


def _overflow_right_moves(monkeypatch, when):
    """Overflow the right move attempts of a whose outcome b is a reduct,
    when when(a, i, x, b) holds, in the lists of the move core `_push`,
    which the walks call by that name."""
    push = red._push

    def overflowing(ctx, a, side, *args, **kwargs):
        return [
            (i, s, ReversingCapExceeded("reversing exceeded 0 cell fills"))
            if side is Side.RIGHT and isinstance(b, Multifraction) and when(a, i, s, b)
            else (i, s, b)
            for i, s, b in push(ctx, a, side, *args, **kwargs)
        ]

    monkeypatch.setattr(red, "_push", overflowing)


def test_cunif_incomplete_right_graph_inconclusive(att, monkeypatch):
    # common reducts of the walked closures confirm nothing while right
    # reducts behind undecided moves go unchecked; the witnesses are kept
    a = H.gen_multifraction(att, 4, 4, seed=0)
    v = H.test_conjecture_C_uniform(att, a)
    assert v.status == "confirmed" and v.evidence["right_reducts"] > 1
    _overflow_right_moves(monkeypatch, lambda b, i, x, r: b == a)
    undecided = H.test_conjecture_C_uniform(att, a)
    assert undecided.status == "inconclusive" and undecided.evidence["witnesses"]
    assert undecided.evidence["right_reducts"] == 1
    assert undecided.evidence["incomplete_right_edges"] > 0
    assert "incomplete_right_edges" not in v.evidence
    monkeypatch.undo()
    # reversing_cap=4 overflows right moves of 4 of these 20 trials
    small = MonoidContext(preset("A2tilde"), Caps(reversing_cap=4))
    config = H.CampaignConfig("A2tilde", "Cunif", depth=4, length=16, trials=20, seed=1)
    report = H.run_campaign(small, config)
    assert report.counts == {"confirmed": 16, "inconclusive": 4}
    assert all(rec["evidence"]["witnesses"] for rec in report.records)
    first = report.records[0]
    assert first["verdict"] == "inconclusive"
    assert (first["evidence"]["right_reducts"], first["evidence"]["witnesses"]) == (
        11, ["ccabac/cb/1/1", "ccba/c/b/1"]
    )
    assert first["evidence"]["incomplete_right_edges"] == 3
    for rec in report.records:
        undecided = rec["evidence"].get("incomplete_right_edges")
        assert (rec["verdict"] == "inconclusive") == (undecided is not None)
        assert undecided is None or undecided > 0


def test_cunif_counts_incomplete_closure_edges():
    # walked closures that hold an overflowed attempt make the witnesses a
    # lower bound, and the evidence counts those attempts whatever the
    # verdict: at reversing_cap=3, 13 of these 30 trials have them, and
    # trial 24 is confirmed with 4; trial 16 is confirmed over closures
    # that hold none.  At default caps no trial has them
    config = H.CampaignConfig("A2tilde", "Cunif", depth=4, length=16, trials=30, seed=1)
    small = H.run_campaign(MonoidContext(preset("A2tilde"), Caps(reversing_cap=3)), config)
    counted = {
        rec["trial"]: (rec["verdict"], rec["evidence"]["incomplete_closure_edges"])
        for rec in small.records
        if "incomplete_closure_edges" in rec["evidence"]
    }
    assert len(counted) == 13 and all(n > 0 for _, n in counted.values())
    assert counted[24] == ("confirmed", 4)
    assert small.records[16]["verdict"] == "confirmed" and 16 not in counted
    full = H.run_campaign(MonoidContext(preset("A2tilde")), config)
    assert not any("incomplete_closure_edges" in rec["evidence"] for rec in full.records)


def test_census_counterexample_pinned():
    # the census presentation, a gcd-monoid that is not Artin-Tits, fails
    # Cunif and four-strategy C on a/bab/ab/cc at default caps: its right
    # reducts form one chain, the first left-reduces only to one sink, the
    # last only to another, and the three between them to both, each left
    # closure read off its own reduct graph
    ctx = MonoidContext(CENSUS)
    a = mf(ctx, "a/bab/ab/cc")
    sink_a, sink_b = "acb/abaaca/cb/c", "a/ccb/ab/ba"
    cunif = H.test_conjecture_C_uniform(ctx, a)
    assert (cunif.status, cunif.evidence) == ("counterexample", {
        "right_reducts": 5,
        "witnesses": [],
        "red_tame": sink_a,
        "red_tame_is_witness": False,
        "latest_common_ancestors": [sink_a],
        "lca_is_witness": False,
    })
    probe = H.four_strategy_C_probe(ctx, a)
    assert probe.status == "counterexample"
    assert probe.evidence["rights"] == ["1/cc/bbc/bab"] * 4
    assert probe.evidence["lefts"] == [sink_a] * 4
    index, roots, undecided = red.right_roots(ctx, a)
    assert len(index) == 5 and undecided == 0
    assert [fmt(ctx, r) for r in roots] == ["a/bab/ab/cc", "a/b/ca/babb", "1/cc/bbc/bab"]
    rg = red.reduct_graph(ctx, a, Side.RIGHT)
    assert rg.complete and [(s, d) for s, _, d in rg.edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert re.findall(r'-> n\d+ \[label="([^"]*)"', rg.to_dot(ctx)) == ["R̃(3,b)", "D(2,a)", "R̃(2,a)", "D(3,b)"]
    closures = []
    for b in rg.nodes:
        g = red.reduct_graph(ctx, b, Side.LEFT)
        assert g.complete
        closures.append((len(g.nodes), sorted(fmt(ctx, c) for c in g.sinks())))
    assert closures == [
        (3, [sink_a]),
        (18, [sink_b, sink_a]),
        (13, [sink_b, sink_a]),
        (18, [sink_b, sink_a]),
        (5, [sink_b]),
    ]


@pytest.mark.parametrize("kind", ["A", "B"])
def test_unital_inputs_at_short_lengths(att, kind):
    # when no drawn ray lengths fit the length, the rays are empty
    for length in range(4):
        config = H.CampaignConfig("A2tilde", kind, depth=8, length=length, trials=20)
        report = H.run_campaign(att, config)
        assert len(report.records) == 20
        assert set(report.counts) <= {"confirmed", "inconclusive"}
        for rec in report.records:
            assert mf(att, rec["input"]).total_length() <= length


def test_four_strategy_overflowed_right_run(att, monkeypatch):
    # an unfinished right run empties the common reducts: no confirmation
    a = mf(att, "ac/ca/ba")
    assert H.four_strategy_C_probe(att, a).status == "confirmed"
    reduce_right = H.reduce_right

    def overflowing(ctx, b, strategy="low_lex"):
        if strategy == "high_lex":
            raise ReversingCapExceeded("reversing exceeded 0 cell fills")
        return reduce_right(ctx, b, strategy)

    monkeypatch.setattr(H, "reduce_right", overflowing)
    v = H.four_strategy_C_probe(att, a)
    assert v.status == "inconclusive"
    assert v.evidence["rights"] == ["1/c/aba", "1/c/aba", None, "1/c/aba"]
    assert v.evidence["lefts"] == ["ac/ca/ba"] * 4
    assert not v.evidence["exists_k_forall_j"]


def test_four_strategy_counts_each_undecided_move_once(att, monkeypatch):
    # with every left attempt overflowing, the four right runs all end at
    # 1/c/aba and no left run finishes.  The undecided moves are those of
    # the one closure walked, each counted once, not once per run that
    # ended at its root: the inconclusive edges of its left reduct graph
    a = mf(att, "ac/ca/ba")
    overflow_left_moves(monkeypatch, lambda *attempt: True)
    v = H.four_strategy_C_probe(att, a)
    assert v.status == "inconclusive"
    assert v.evidence["rights"] == ["1/c/aba"] * 4
    assert v.evidence["lefts"] == [None] * 4
    graph = red.reduct_graph(att, mf(att, "1/c/aba"), Side.LEFT)
    assert v.evidence["incomplete_edges"] == len(graph.inconclusive) == 6


def test_conjecture_B_counterexample(att, monkeypatch):
    # a tame pass that leaves a nontrivial unital input as it is fails
    # Conjecture B; the iterated fixpoint is still recorded
    a = mf(att, "a/a")
    monkeypatch.setattr(H, "red_tame", lambda ctx, b: b)
    v = H.test_conjecture_B(att, a, cross_cert("a", "1"))
    assert (v.status, v.evidence) == (
        "counterexample", {"red_tame": "a/a", "fixpoint": "1/1", "fixpoint_iterations": 1}
    )
