"""Whether a query overflows reversing_cap is a function of the query and
the caps, not of what its context computed before.

reversing_cap bounds the grid of a reversal that a query asks for, an lcm's,
the cube check's or a basic-table pair's, cell by cell whether the
reversing store holds a cell or not.  Memoised answers and stored cells
only skip work that charges no cap, so a context warmed by other queries
and a fresh one give each query the same outcome: its value, or its
overflow's class and message.  The fresh context per query, or per
trial, is the oracle.

A nested reversal, of a cell the store lacks, reverses two basic elements
and charges no reversing_cap; basics_cap is its guard, which a basics_cap
of at least the longest basic element's length never meets.
"""

import random
import zlib

import pytest

from multired import harness as H
from multired import reduction as red
from multired.monoid import BasicsCapExceeded, CapExceeded, Caps, MonoidContext, Side
from multired.presentation import preset
from reduct_oracles import atomic_moves
from test_campaign_golden import PRESETS as GOLDEN_PRESETS

# (preset, reversing_cap): caps at which many queries overflow, so that a
# memo hit that skipped a charge would show, and braid(4), whose cube
# check passes only from cap 16, as a control
SETTINGS = [
    *(("A2tilde", cap) for cap in (2, 3, 4)),
    *(("C2tilde", cap) for cap in (3, 4, 5)),
    *(("K(4,3)", cap) for cap in (2, 3)),
    *(("I2(5)", cap) for cap in (1, 2, 3)),
    *(("braid(4)", cap) for cap in range(16, 21)),
]
QUERIES = 400


def _plain(value):
    """A query's value with every CapExceeded in it as its class and
    message, so that two outcomes compare by what they say."""
    if isinstance(value, CapExceeded):
        return type(value), str(value)
    if type(value) in (tuple, list):
        return [_plain(v) for v in value]
    return value


def _outcome(query, ctx):
    try:
        return _plain(query(ctx))
    except CapExceeded as e:
        return type(e), str(e)


def _with_tables(pres, caps):
    """A context under `caps` that built both sides' basic tables first,
    at default caps: a basics_cap below the basic count refuses the
    closure itself."""
    ctx = MonoidContext(pres)
    ctx.basic_table(Side.RIGHT)
    ctx.basic_table(Side.LEFT)
    ctx.caps = caps
    return ctx


def _untimed(record):
    return {k: v for k, v in record.items() if k != "millis"}


def _queries(preset_name, count):
    """Seeded queries over elements and multifractions built at default
    caps, each a function of the context it runs on."""
    probe = MonoidContext(preset(preset_name))
    n = probe.pres.n_atoms
    rng = random.Random(zlib.crc32(preset_name.encode()))

    def elem():
        return H.gen_element(probe, rng.randint(0, 12), rng.randrange(10**9))

    out = []
    for k in range(count):
        side = rng.choice(list(Side))
        a, b = elem(), elem()
        kind = k % 7
        if kind == 0:
            out.append(lambda c, a=a, b=b, side=side: c.lcm(a, b, side))
        elif kind == 1:
            x = rng.choice(probe.divisors(a, side)) if rng.random() < 0.5 else b
            out.append(lambda c, x=x, a=a, side=side: c.divides(x, a, side))
        elif kind == 2:
            out.append(lambda c, a=a, side=side: c.atom_quotients(a, side))
        elif kind == 3:
            out.append(lambda c, a=a, b=b, side=side: c.gcd(a, b, side))
        elif kind == 4:
            out.append(lambda c, a=a, side=side: c.divisors(a, side))
        elif kind == 5:
            w = "".join(chr(rng.randrange(n)) for _ in range(rng.randint(1, 12)))
            out.append(lambda c, w=w: c.canonical(w))
        else:
            m = H.gen_multifraction(probe, rng.randint(2, 5), 5, rng.randrange(10**9))
            out.append(lambda c, m=m, side=side: atomic_moves(c, m, side, red._levels(m, side)))
    return out


@pytest.mark.parametrize("preset_name, cap", SETTINGS)
def test_a_warmed_context_answers_as_a_fresh_one(preset_name, cap):
    # one context runs every query in turn; each query also runs on a
    # context of its own.  An overflow outcome is a (class, message) tuple,
    # and some queries of every setting overflow, some do not
    caps = Caps(reversing_cap=cap)
    warmed = MonoidContext(preset(preset_name), caps)
    overflowed = 0
    for query in _queries(preset_name, QUERIES):
        got = _outcome(query, warmed)
        assert got == _outcome(query, MonoidContext(preset(preset_name), caps))
        overflowed += type(got) is tuple
    assert 0 < overflowed < QUERIES


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("kind", ["Cunif", "C", "depth4"])
@pytest.mark.parametrize("preset_name", ["A2tilde", "C2tilde"])
def test_a_campaign_runs_as_fresh_trials(preset_name, kind, cap):
    # oracle: each trial on a context of its own.  One context carried
    # through the campaign gives the same records, timing left out, so the
    # records cannot depend on how trials are shared out among workers
    caps = Caps(reversing_cap=cap)
    config = H.CampaignConfig(preset_name, kind, depth=4, length=16, trials=30, seed=1)
    report = H.run_campaign(MonoidContext(preset(preset_name), caps), config)
    for index, rec in enumerate(report.records):
        fresh = H.run_trial(MonoidContext(preset(preset_name), caps), config, index)
        assert _untimed(rec) == _untimed(fresh)
    assert "inconclusive" in report.counts and len(report.records) == 30


@pytest.mark.parametrize("preset_name", [
    "A2tilde", "A3tilde", "C2tilde", "K(4,3)", "braid(3)", "braid(4)", "braid(5)", "free(2)",
    "I2(5)",
])
def test_basics_cap_at_the_basic_count_changes_nothing(preset_name):
    # the words of a nested reversal are basic elements, shorter than the
    # basic count on every preset, so a basics_cap that just holds the
    # basic elements leaves every campaign's bytes as at default caps
    pres = preset(preset_name)
    count = len(MonoidContext(pres).basic_table(Side.RIGHT).basics)
    with pytest.raises(BasicsCapExceeded):
        MonoidContext(pres, Caps(basics_cap=count - 1)).basic_table(Side.RIGHT)
    tight, default = MonoidContext(pres, Caps(basics_cap=count)), MonoidContext(pres)
    assert tight.basic_table(Side.RIGHT).basics == default.basic_table(Side.RIGHT).basics
    for kind in ("Cunif", "A", "C", "depth4"):
        config = H.CampaignConfig(preset_name, kind, depth=4, length=16, trials=20, seed=1)
        assert (
            H.run_campaign(tight, config).to_json(include_timing=False)
            == H.run_campaign(default, config).to_json(include_timing=False)
        )


@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_basics_cap_at_the_longest_basic_sees_no_history(preset_name):
    # the guard on nested reversals fires only at a basics_cap below C-1,
    # the longest basic element's length, where a warmed context can read a
    # least word that a fresh one peels.  At C-1 no query or trial meets it:
    # a warmed context answers as a fresh one and as default caps, and one
    # context carried through a campaign gives each trial's fresh record.
    # A context that built both basic tables first, whose rows left
    # (letter, basic word) cells in its store, answers as a fresh one too,
    # under C-1 and under default caps.  At C-2 some query meets the
    # guard, on every preset with a nested reversal
    pres = preset(preset_name)
    longest = MonoidContext(pres).basic_table(Side.RIGHT).C - 1
    caps = Caps(basics_cap=longest)
    warmed, default = MonoidContext(pres, caps), MonoidContext(pres)
    built = [_with_tables(pres, caps), _with_tables(pres, Caps())]
    below = MonoidContext(pres, Caps(basics_cap=longest - 1))
    guarded = 0
    for query in _queries(preset_name, QUERIES):
        got = _outcome(query, warmed)
        assert got == _outcome(query, MonoidContext(pres, caps)) == _outcome(query, default)
        assert [_outcome(query, ctx) for ctx in built] == [got, got]
        low = _outcome(query, below)
        guarded += type(low) is tuple and low[0] is BasicsCapExceeded
    assert (guarded == 0) == (preset_name == "free(2)")
    for kind in ("Cunif", "A", "C", "depth4"):
        config = H.CampaignConfig(preset_name, kind, depth=4, length=16, trials=20, seed=1)
        report = H.run_campaign(MonoidContext(pres, caps), config)
        assert report.to_json(include_timing=False) == (
            H.run_campaign(MonoidContext(pres), config).to_json(include_timing=False)
        )
        for index, rec in enumerate(report.records):
            fresh = H.run_trial(MonoidContext(pres, caps), config, index)
            assert _untimed(rec) == _untimed(fresh)
