"""Acceptance suite: one test per criterion, each printing a PASS line.

Two sub-checks replay worked examples quoted from the source whose values
are inconsistent with the defining equations, and pin where and how each
quote departs from them:
  - criterion 2: the second quoted reduction trace applies R(3,ac) where
    ac does not right-divide entry 4; R(3,ab), the only level-3 reducer
    that differs from ac in a single letter, takes its place and the
    trace completes;
  - criterion 4: the quoted value of the second tame pass is the state
    after its first nontrivial step R(2,b); the pass goes on with R(3,c)
    and ends elsewhere.
The source's example section is not held here, so neither check claims
more than that inconsistency.
"""

import random

import pytest

from class_oracle import word_class
from multired.monoid import IDENTITY, MonoidContext, Side
from multired.multifraction import (
    Multifraction,
    format_multifraction,
    inverse,
    parse_multifraction,
    unit,
)
from multired.presentation import parse_word, preset
from multired import harness as H
from multired import reduction as red
from multired.vankampen import validate_diagram, van_kampen
from reduct_oracles import all_reducers, atomic_reducers, step_bound
from words import word


def mf(ctx, text):
    return parse_multifraction(ctx, text)


def fmt(ctx, a):
    return format_multifraction(ctx, a)


def ok(n, detail=""):
    print(f"ACCEPTANCE {n} PASS {detail}".rstrip())


def test_criterion_01_example_exact_reducts(att):
    a = mf(att, "1/c/aba")
    ra = red.apply_left(att, a, 2, att.element("a"))
    rb = red.apply_left(att, a, 2, att.element("b"))
    assert ra == mf(att, "ac/ca/ba")
    assert rb == mf(att, "bc/cb/ab")
    for out in (ra, rb):
        for i in (1, 2):
            assert atomic_reducers(att, out, i) == ()
    ok(1, "R(2,a)=ac/ca/ba R(2,b)=bc/cb/ab, both irreducible")


def test_criterion_02_strategies_and_first_trace(att):
    b6 = mf(att, "ac/ca/ba/ab/cb/bc")
    for strategy in red.STRATEGIES:
        assert red.reduce_left(att, b6, strategy).end == unit(6)
    cur = b6
    for i, x in [(3, "ab"), (4, "cb"), (5, "bc"), (1, "ac"), (2, "cbc"), (3, "bc"), (1, "bc")]:
        cur = red.apply_left(att, cur, i, att.element(x))
        assert cur is not None
    assert cur == unit(6)
    ok(2, "four strategies and the first explicit trace reach the trivial one")


# The second trace from ac/ca/ba/ab/cb/bc, as quoted.
SECOND_TRACE = [(5, "bc"), (3, "ac"), (1, "ac"), (3, "b"), (4, "c"), (2, "c")]


def _one_letter_apart(ctx, x, word):
    """Whether some word of x's class differs from `word` in exactly one
    letter position (a substitution, not an insertion or deletion)."""
    return any(
        len(w) == len(word) and sum(p != q for p, q in zip(w, word)) == 1
        for w in word_class(ctx.pres, x)
    )


def test_criterion_02_second_trace_as_printed(att):
    """R(5,bc) gives ac/ca/ba/aba/c/1, where the left lcm of bc and cb is
    bcb = b.cb = c.bc.  Level 3 is positive there, so R(3,ac) needs ac to
    right-divide entry 4 = aba, whose class {aba, bab} has no word ending
    in ac.  Of the level-3 reducers a, b, ab, ba, aba only ab differs from
    ac in a single letter, and with R(3,ab) in its place the other printed
    moves apply unchanged and reach the trivial multifraction."""
    start = mf(att, "ac/ca/ba/ab/cb/bc")
    after_first = red.apply_left(att, start, 5, att.element("bc"))
    assert after_first == mf(att, "ac/ca/ba/aba/c/1")

    printed = parse_word(att.pres, "ac")
    assert red.apply_left(att, after_first, 3, att.element("ac")) is None
    assert not any(w[-2:] == printed for w in word_class(att.pres, after_first.entry(4)))

    level3 = all_reducers(att, after_first, 3)
    assert sorted(att.word_str(x) for x in level3) == ["a", "ab", "aba", "b", "ba"]
    corrections = [x for x in level3 if _one_letter_apart(att, x, printed)]
    assert [att.word_str(x) for x in corrections] == ["ab"]

    cur, rejected = start, []
    for i, x in SECOND_TRACE:
        nxt = red.apply_left(att, cur, i, att.element(x))
        if nxt is None:
            rejected.append((i, x))
            nxt = red.apply_left(att, cur, i, corrections[0])
        assert nxt is not None
        cur = nxt
    assert rejected == [(3, "ac")]
    assert cur == unit(6)
    ok(2, "second explicit trace: only R(3,ac) is rejected, after R(5,bc); "
          "R(3,ab) is its unique one-letter correction and completes it")


def test_criterion_02_second_trace_single_letter_correction(att):
    b6 = mf(att, "ac/ca/ba/ab/cb/bc")
    cur = b6
    for i, x in [(5, "bc"), (3, "ab"), (1, "ac"), (3, "b"), (4, "c"), (2, "c")]:
        cur = red.apply_left(att, cur, i, att.element(x))
        assert cur is not None
    assert cur == unit(6)
    ok(2, "second explicit trace completes with R(3,ab)")


def test_criterion_03_derdiv_and_irr(att):
    a = mf(att, "ab/aba/aca")
    assert red.derdiv(att, a) == mf(att, "ab/ba/ca")
    assert sorted(fmt(att, x) for x in red.reduct_graph(att, a).sinks()) == [
        "ab/ba/ca",
        "cb/bc/ac",
    ]
    a4 = mf(att, "a/a/a/a")
    assert red.derdiv(att, a4) == unit(4)
    cur = a4
    for i in (1, 2, 3):
        g = att.gcd(a4.entry(i), a4.entry(i + 1), red.due_side(a4, i))
        cur = red.apply_left(att, cur, i, g)
    assert cur == mf(att, "a/a/1/1")
    ok(3, "derdiv values, Irr set, and the naive bottom-up composite")


def test_criterion_04_red_tame_values(att):
    assert red.red_tame(att, mf(att, "1/c/aba")) == mf(att, "1/c/aba")
    b = mf(att, "ac/aca/aba")
    assert red.red_tame(att, b) == mf(att, "1/c/aba")
    assert red.derdiv(att, b) == mf(att, "ac/ca/ba")
    assert red.red_tame(att, mf(att, "1/c/aba/cb")) == mf(att, "1/c/ba/c")
    ok(4, "single-pass tame values and the division reduct")


def test_criterion_04_second_application_as_stated(att):
    """The second pass runs over u(4) = (1,2,3,1) from 1/c/ba/c.  Level 1
    is trivial since entry 1 is 1.  At level 2 the greatest tame reducer is
    b, and R(2,b) gives the quoted bc/cb/a/c, the right lcm of b and c
    being bcb = b.cb = c.bc.  At level 3, c is the only right divisor of
    entry 4 = c, with left lcm aca = cac against entry 3 = a, so R(3,c)
    gives bc/accb/ca/1; the last level 1 is trivial.  No level order gives
    both quoted values: the first needs a level-3 visit with no level-2
    visit after it, the second a level-2 visit with no level-3 visit after
    it."""
    first = red.red_tame(att, mf(att, "1/c/aba/cb"))
    assert first == mf(att, "1/c/ba/c")
    visits = []
    second = red.red_tame(att, first, collect=visits)
    assert [m.level for m in visits] == [1, 2, 3, 1]
    moves = [m for m in visits if m.x]
    assert [(m.level, att.word_str(m.x)) for m in moves] == [(2, "b"), (3, "c")]

    quoted = mf(att, "bc/cb/a/c")
    assert red.replay(att, first, moves[:1]) == quoted
    assert second == mf(att, "bc/accb/ca/1")
    assert second != quoted
    # each quoted value still has a nontrivial tame move at the other level
    assert att.word_str(red.greatest_tame_reducer(att, first, 2)) == "b"
    assert att.word_str(red.greatest_tame_reducer(att, quoted, 3)) == "c"
    ok(4, "second tame pass: the quoted bc/cb/a/c is the state after R(2,b); "
          "R(3,c) follows and the pass ends at bc/accb/ca/1")


def test_criterion_05_tame_reducers(att):
    a = mf(att, "1/a/cabab")
    maximal = red.reducers(att, a, 2)
    assert sorted(att.word_str(x) for x in maximal) == ["caa", "cab"]
    assert att.word_str(red.greatest_tame_reducer(att, a, 2)) == "ca"
    ok(5, "maximal 2-reducers {caa, cab}, greatest tame reducer ca")


def test_criterion_06_divisions(braid3):
    a = mf(braid3, "a/aba/b")
    d2 = red.apply_division(braid3, a, 2, braid3.element("b"))
    d1 = red.apply_division(braid3, a, 1, braid3.element("a"))
    assert d2 == mf(braid3, "a/ab/1")
    assert d1 == mf(braid3, "1/ab/b")
    assert red.is_prime(braid3, d2) and red.is_prime(braid3, d1)
    assert red.apply_left(braid3, d1, 2, braid3.element("b")) == d2
    ok(6, "divisions in the 3-strand braid monoid and restored confluence")


def test_criterion_07_mixed_cycle(att):
    report = H.mixed_cycle_probe(att, iterations=3)
    assert report["ok"]
    assert report["iterations"][0]["value"] == "bacbac/a/bc/acbacb"
    for p, rec in enumerate(report["iterations"], 1):
        a = mf(att, rec["value"])
        assert a.entry(1) == att.product([att.element("bacbac")] * p)
        assert a.entry(4) == att.product([att.element("acbacb")] * p)
    ok(7, "six-move cycle value and its p = 2, 3 iterates")


def test_criterion_08_basic_counts(att, k43):
    table = att.basic_table(Side.RIGHT)
    names = {att.word_str(b) for b in table.basics}
    assert names == {"1", "a", "b", "c", "ab", "ba", "ac", "ca", "bc", "cb"}
    assert len(table.basics) == 10
    assert len(k43.basic_table(Side.RIGHT).basics) == 17
    ok(8, "10 right basics in the rank-3 monoid, 17 after rank-4 closure")


def _mixed_depth4(ctx, rng):
    if rng.random() < 0.5:
        a, _ = H.gen_central_cross(ctx, 4, rng.randint(0, 2), rng.randrange(10**9))
        return a
    return H.gen_multifraction(ctx, 4, 2, rng.randrange(10**9))


def test_criterion_09_depth4_equivalences(att):
    rng = random.Random(1009)
    agree = 0
    for _ in range(500):
        a = _mixed_depth4(att, rng)
        report = H.check_depth4_equivalences(att, a)
        assert report["agree"]
        agree += 1
    assert agree >= 500
    ok(9, f"{agree} depth-4 instances, three predicates agree")


def test_criterion_10_cross_preservation(att):
    rng = random.Random(1010)
    checked = 0
    while checked < 500:
        a = _mixed_depth4(att, rng)
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
    ok(10, f"{checked} moves preserve central-cross existence both ways")


def test_criterion_11_local_cross_confluence(att):
    rng = random.Random(1011)
    pairs = 0
    while pairs < 500:
        a = H.gen_multifraction(att, rng.randint(3, 4), 2, rng.randrange(10**9))
        d = red.derdiv(att, a)
        reducts = []
        for i in range(2, a.depth + 1):
            for s in att.atoms():
                b = red.apply_right(att, a, i, s)
                if b is not None:
                    reducts.append(b)
        if len(reducts) < 2:
            continue
        graphs = {}
        for b in reducts:
            if b not in graphs:
                graphs[b] = red.reduct_graph(att, b, Side.LEFT)
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                assert d in graphs[reducts[i]].index
                assert d in graphs[reducts[j]].index
                pairs += 1
                if pairs >= 500:
                    break
            if pairs >= 500:
                break
    ok(11, f"{pairs} right-reduct pairs share the division reduct")


def test_criterion_12_duality(att):
    rng = random.Random(1012)
    checked = 0
    while checked < 1000:
        a = H.gen_multifraction(att, rng.randint(2, 5), 3, rng.randrange(10**9))
        n = a.depth
        for i in range(1, n):
            for s in att.atoms():
                b = red.apply_left(att, a, i, s)
                if b is None:
                    continue
                assert inverse(b) == red.apply_right(att, inverse(a), n + 1 - i, s)
                checked += 1
    ok(12, f"{checked} instances of the left/right mirror identity")


def test_criterion_13_left_right_division_identities(att):
    rng = random.Random(1013)
    first = second = 0
    while first < 500 or second < 500:
        a = H.gen_multifraction(att, rng.randint(2, 4), 3, rng.randrange(10**9))
        n = a.depth
        if first < 500:
            for i in range(1, n):
                for x in all_reducers(att, a, i)[:3]:
                    b = red.apply_left(att, a, i, x)
                    if b is None:
                        continue
                    pos = a.sign(i) > 0
                    ai = a.entry(i)
                    lcm_side = Side.LEFT if pos else Side.RIGHT
                    gcd_side = Side.RIGHT if pos else Side.LEFT
                    xp = att.lcm(x, ai, lcm_side)[1]
                    xh = att.gcd(ai, x, gcd_side)
                    lhs = red.apply_right(att, b, i, xp) if xp else b
                    rhs = red.apply_division(att, a, i, xh) if xh else a
                    assert lhs == rhs
                    first += 1
        if second < 500:
            for i in range(2, n + 1):
                for s in att.atoms():
                    b = red.apply_right(att, a, i, s)
                    if b is None:
                        continue
                    pos = a.sign(i) > 0
                    ai = a.entry(i)
                    lcm_side = Side.RIGHT if pos else Side.LEFT
                    gcd_side = Side.LEFT if pos else Side.RIGHT
                    xp = att.lcm(s, ai, lcm_side)[1]
                    xh = att.gcd(ai, s, gcd_side)
                    lhs = red.apply_left(att, b, i, xp) if xp else b
                    rhs = red.apply_division(att, a, i - 1, xh) if xh else a
                    assert lhs == rhs
                    second += 1
    ok(13, f"{first} + {second} composition identities hold exactly")


def test_criterion_14_fc_oracle(braid3):
    rng = random.Random(1014)
    for _ in range(200):
        a = H.gen_multifraction(braid3, rng.randint(2, 5), 3, rng.randrange(10**9))
        irr = red.reduct_graph(braid3, a).sinks()
        assert len(irr) == 1
        fix, iters = red.red_tame_fixpoint(braid3, a)
        assert fix == irr[0]
        assert red.red_tame(braid3, a) == fix  # one pass suffices here
    ok(14, "200 instances: unique irreducible reduct = tame fixpoint")


def test_criterion_15_lattice_suite(att, braid3, k43, free2):
    instances = 0
    for ctx in (att, braid3, k43, free2):
        rng = random.Random(1015)
        n_atoms = ctx.pres.n_atoms
        for _ in range(90):
            def rand(max_len=3):
                return ctx.canonical(
                    word(*(rng.randrange(n_atoms) for _ in range(rng.randint(0, max_len))))
                )

            a, b, c = rand(), rand(), rand()
            assert len(ctx.multiply(a, b)) == len(a) + len(b)
            for side in Side:
                g = ctx.gcd(a, b, side)
                assert ctx.divides(g, a, side) is not None
                assert ctx.divides(g, b, side) is not None
            d = rand(2)
            x, y = ctx.multiply(d, a), ctx.multiply(d, b)
            assert ctx.divides(d, ctx.gcd(x, y, Side.LEFT), Side.LEFT) is not None
            r = ctx.lcm(a, b, Side.RIGHT)
            if r is not None:
                m, comp_a, comp_b = r
                assert m == ctx.multiply(a, comp_b) == ctx.multiply(b, comp_a)
                assert ctx.gcd(comp_a, comp_b, Side.RIGHT) == IDENTITY
                assert ctx.divides(a, m, Side.LEFT) is not None
                assert ctx.divides(b, m, Side.LEFT) is not None
            bc = ctx.multiply(b, c)
            direct = ctx.lcm(a, bc, Side.RIGHT)
            step1 = ctx.lcm(a, b, Side.RIGHT)
            if step1 is None:
                assert direct is None
            else:
                step2 = ctx.lcm(step1[1], c, Side.RIGHT)
                if step2 is None:
                    assert direct is None
                else:
                    assert direct is not None
                    assert direct[0] == ctx.multiply(bc, step2[1])
            if ctx.gcd(a, b, Side.LEFT) == IDENTITY and step1 is not None:
                if ctx.gcd(step1[1], c, Side.LEFT) == IDENTITY:
                    assert ctx.gcd(a, bc, Side.LEFT) == IDENTITY
            instances += 8
    assert instances >= 1000

    # grid against brute force: conclusive window on short pairs, published
    # window agreement plus direct verification elsewhere
    els3 = att.elements_up_to(3)
    C = att.basic_bound_C()
    for a in els3:
        for b in els3:
            slack = max(2, (C - 2) * min(len(a), len(b)))
            grid = att.lcm(a, b, Side.RIGHT)
            oracle = att.lcm_oracle(a, b, Side.RIGHT, slack=slack)
            assert (grid is None) == (oracle is None)
            if grid is not None:
                assert grid == oracle
    els4 = att.elements_up_to(4)
    beyond = 0
    for a in els4:
        for b in els4:
            grid = att.lcm(a, b, Side.RIGHT)
            oracle = att.lcm_oracle(a, b, Side.RIGHT, slack=2)
            if grid is None:
                assert oracle is None
            elif len(grid[0]) <= len(a) + len(b) + 2:
                assert oracle == grid
            else:
                assert oracle is None  # the lcm lies beyond the window
                m = grid[0]
                assert att.divides(a, m, Side.LEFT) is not None
                assert att.divides(b, m, Side.LEFT) is not None
                beyond += 1
    ok(15, f"{instances} lattice-law instances; {len(els4)**2} oracle pairs "
           f"({beyond} beyond the published window, verified directly)")


def test_criterion_16_step_bound(att, braid3):
    rng = random.Random(1016)
    observed = 0
    for ctx in (att, braid3):
        for _ in range(80):
            a = H.gen_multifraction(ctx, rng.randint(2, 5), 4, rng.randrange(10**9))
            tr = red.reduce_left(ctx, a)
            assert red.within_step_bound(ctx, a, len(tr.moves))
            observed += 1
    a = mf(att, "1/c/aba")
    assert step_bound(att, a) == 3 ** (2 * 3**5)
    assert step_bound(att, Multifraction(1, (att.element("ababa"),))) == 7
    ok(16, f"{observed} traces within the tower bound (also asserted inside reduce)")


def test_criterion_17_word_problem(att, braid3):
    w = tuple(
        (att.pres.atom_names.index(ch.lower()), 1 if ch.islower() else -1)
        for ch in "acACbaBAcbCB"
    )
    r = H.word_problem(att, w)
    assert r["verdict"] == "trivial" and r["unconditional"]
    rng = random.Random(1017)
    done = 0
    while done < 100:
        word = tuple(
            (rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(1, 8))
        )
        mfr = None
        from multired.multifraction import from_signed_word

        mfr = from_signed_word(braid3, word)
        if mfr.weight() == 0:
            continue  # independent certificate of nontriviality needed
        r = H.word_problem(braid3, word)
        assert r["verdict"] == "nontrivial" and r["unconditional"]
        g = red.reduct_graph(braid3, mfr, Side.LEFT)
        assert g.complete and unit(mfr.depth) not in g.index
        done += 1
    ok(17, "unital example word plus 100 certified-nontrivial words")


def test_criterion_18_crossconf_figure(att):
    a1 = mf(att, "a/bac/bb/aca")
    lg = red.reduct_graph(att, a1, Side.LEFT)
    rg = red.reduct_graph(att, a1, Side.RIGHT)
    left_irr = sorted(fmt(att, x) for x in lg.sinks())
    right_irr = sorted(fmt(att, x) for x in rg.sinks())
    assert left_irr == ["1/bac/cb/ca", "a/baac/ab/ac"]
    assert right_irr == ["1/ac/cb/aca"]
    v = H.test_conjecture_C_uniform(att, a1)
    assert v.status == "confirmed"
    assert v.evidence["witnesses"] == ["1/bac/cb/ca"]
    assert v.evidence["red_tame"] == "a/ac/b/aca"
    assert v.evidence["latest_common_ancestors"] == ["a/ac/b/aca"]
    assert not v.evidence["red_tame_is_witness"]
    assert not v.evidence["lca_is_witness"]
    ok(
        18,
        f"two left-irreducible, one right-irreducible, unique witness; "
        f"raw reduct counts (informational): {len(lg.nodes)} left, {len(rg.nodes)} right",
    )


def test_criterion_19_van_kampen(att):
    rng = random.Random(1019)
    built = 0
    tries = 0
    while built < 50 and tries < 400:
        tries += 1
        depth = 4 if tries % 2 else 6
        a, _ = H.gen_central_cross(att, depth, 2, rng.randrange(10**9))
        if rng.random() < 0.4:
            draws = random.Random(rng.randrange(10**9))
            b = H.lcm_expand(att, a, choices=H._random_left_divisors(att, a, draws))
            if b is not None and b.total_length() <= 22:
                a = b
        if red.red_tame(att, a) != unit(depth):
            continue
        diagram = van_kampen(att, a)
        validate_diagram(att, diagram, a)
        built += 1
    assert built >= 50
    ok(19, f"{built} universal-shape diagrams validated")


def test_criterion_20_campaigns(att):
    for conjecture, trials, depth, length in (("A", 1000, 4, 20), ("B", 1000, 4, 20)):
        config = H.CampaignConfig(
            preset="A2tilde",
            conjecture=conjecture,
            depth=depth,
            length=length,
            trials=trials,
            seed=1020,
        )
        report = H.run_campaign(att, config)
        assert report.counterexample is None, report.counterexample
        assert report.counts == {"confirmed": trials}
    config = H.CampaignConfig(
        preset="A2tilde", conjecture="Cunif", depth=3, length=9, trials=200, seed=1021
    )
    report = H.run_campaign(att, config)
    assert report.counterexample is None
    assert report.counts == {"confirmed": 200}
    ok(20, "1000-trial campaigns for both unital conjectures, 200 uniform probes")
