import itertools
import random
import sys
import threading
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import basic_oracle
import quotient_oracle
from census import CENSUS
from class_oracle import divides_scan, word_class
from multired.harness import derive_seed, gen_element
from multired.monoid import (
    BasicsCapExceeded,
    CapExceeded,
    Caps,
    Element,
    IDENTITY,
    InternalInvariantError,
    LatticeViolation,
    MonoidContext,
    MultiredError,
    ReversingCapExceeded,
    Side,
    result_of,
    sort_key,
)
from multired import reduction as red
from multired.multifraction import Multifraction
from multired.presentation import format_word, parse_presentation, parse_word, preset
from reduct_oracles import atomic_moves
from test_campaign_golden import PRESETS as GOLDEN_PRESETS
from test_history_free_caps import _plain
from words import index_words, word

words = index_words(3, min_size=0, max_size=6)


def test_canonical_examples(att):
    assert att.word_str(att.element("bab")) == "aba"
    assert att.word_str(att.element("abab")) == "aaba"
    assert att.element("") == IDENTITY


# one preset of each family preset() knows
EVERY_PRESET = [
    "A2tilde", "A3tilde", "C2tilde", "K(4,3)", "braid(4)", "braid(5)", "free(2)", "I2(5)",
]


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_canonical_matches_tuple_closure(preset_name, data):
    pres = preset(preset_name)
    word = data.draw(index_words(pres.n_atoms, max_size=10))
    ctx = MonoidContext(pres)  # fresh, so that nothing is memoised
    cls = word_class(pres, word)
    x = ctx.canonical(word)
    assert x == min(cls)
    assert all(ctx.canonical(w) == x for w in cls)


def test_canonical_refuses_an_unknown_atom(att):
    with pytest.raises(MultiredError, match="^atom index 3 outside presentation$"):
        att.canonical(word(0, 3, 1, 4))


def test_canonical_refuses_a_tuple_word(att):
    # a word is a str; a tuple of atom indices is named as such
    for bad in ((0, 1), ()):
        with pytest.raises(TypeError, match="^a word is a str, one code point per atom index, not tuple$"):
            att.canonical(bad)


def test_atom_limit():
    ctx = MonoidContext(preset("free(257)"))
    assert ctx.canonical(word(256, 3, 0)) == word(256, 3, 0)


def test_words_order_as_their_index_tuples():
    # a word's k-th character has the code point of its k-th atom's index,
    # so words compare as their index tuples, and (length, word) order,
    # every tie-break's, is theirs; also past 256 atoms, where a byte per
    # atom would no longer do
    rng = random.Random(300)
    tuples = [
        tuple(rng.randrange(n) for _ in range(rng.randint(0, 6)))
        for n in (2, 3, 256, 257, 300)
        for _ in range(100)
    ]
    by_word = sorted((word(*t) for t in tuples), key=sort_key)
    by_tuple = sorted(tuples, key=lambda t: (len(t), t))
    assert by_word == [word(*t) for t in by_tuple]
    for t, u in zip(tuples, reversed(tuples)):
        assert (word(*t) < word(*u)) == (t < u)
    # each word spells and parses back over atoms named s0.s1 ...
    pres = preset("free(300)")
    assert pres.atom_names[299] == "s299"
    for t in tuples:
        w = word(*t)
        assert parse_word(pres, format_word(pres, w)) == w


def test_braid5_delta_squared():
    # the Garside square of braid(5) is central
    ctx = MonoidContext(preset("braid(5)"))
    delta = word(0, 1, 0, 2, 1, 0, 3, 2, 1, 0)
    dd = ctx.canonical(delta + delta)
    assert len(dd) == 20
    for s in ctx.atoms():
        assert ctx.canonical(dd + s) == ctx.canonical(s + dd)


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_length_additive(u, v):
    ctx = _att()
    x, y = ctx.canonical(u), ctx.canonical(v)
    assert len(ctx.multiply(x, y)) == len(x) + len(y)


_ATT = None


def _att():
    global _ATT
    if _ATT is None:
        _ATT = MonoidContext(preset("A2tilde"))
    return _ATT


def test_divides_examples(att):
    b, ba, a = att.element("b"), att.element("ba"), att.element("a")
    assert att.divides(b, ba, Side.LEFT) == a
    assert att.divides(a, ba, Side.LEFT) is None
    assert att.divides(IDENTITY, a, Side.LEFT) == a
    # the scan oracle agrees with the recursive route
    rng = random.Random(0)
    for _ in range(300):
        x = att.canonical(word(*(rng.randrange(3) for _ in range(rng.randint(0, 3)))))
        y = att.canonical(word(*(rng.randrange(3) for _ in range(rng.randint(0, 5)))))
        for side in Side:
            assert (att.divides(x, y, side) is None) == (divides_scan(att, x, y, side) is None)


def test_divisors(att):
    names = sorted(att.word_str(d) for d in att.divisors(att.element("ba"), Side.LEFT))
    assert names == ["1", "b", "ba"]
    assert att.divisors(IDENTITY, Side.LEFT) == (IDENTITY,)
    aba = sorted(att.word_str(d) for d in att.divisors(att.element("aba"), Side.LEFT))
    assert aba == ["1", "a", "ab", "aba", "b", "ba"]


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_divisors_match_class_prefixes(preset_name):
    # oracle: the divisors of a are the canonical prefixes (LEFT) or
    # suffixes (RIGHT) of the words of its rewrite class; the probe
    # context computes them, the other one only runs `divisors`
    pres = preset(preset_name)
    ctx, probe = MonoidContext(pres), MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    for a in _random_elements(probe, rng, 30, max_len=7):
        words = word_class(pres, a)
        for side in Side:
            parts = {
                w[:k] if side is Side.LEFT else w[len(w) - k:]
                for w in words
                for k in range(len(w) + 1)
            }
            expected = sorted({probe.canonical(p) for p in parts}, key=sort_key)
            assert ctx.divisors(a, side) == tuple(expected)


def _divisors_dfs(ctx, a, side):
    """The depth-first search `divisors` once ran: each divisor found comes
    with the rest of a, and every atom in the rest's table extends it by
    one product."""
    found = {IDENTITY}
    todo = [(IDENTITY, a)]
    while todo:
        d, rest = todo.pop()
        for s, q in zip(ctx.atoms(), ctx.atom_quotients(rest, side)):
            if result_of(q) is None:
                continue
            e = ctx.attach(d, s, side.other)
            if e not in found:
                found.add(e)
                todo.append((e, q))
    return tuple(sorted(found, key=sort_key))


def _capped_outcome(search, pres, cap, a, side):
    ctx = MonoidContext(pres, Caps(reversing_cap=cap))  # fresh: no memo carries over
    try:
        return search(ctx, a, side)
    except CapExceeded as e:
        return type(e), str(e)


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("preset_name", ["braid(4)", "A3tilde"])
def test_divisors_overflow_as_the_dfs(preset_name, cap):
    # at these caps the atom table's cube check overflows, so every
    # element but 1 raises its overflow, as the search it replaced did
    pres = preset(preset_name)
    probe = MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()) + cap)
    for a in [IDENTITY, *_random_elements(probe, rng, 12, max_len=8)]:
        for side in Side:
            new = _capped_outcome(MonoidContext.divisors, pres, cap, a, side)
            assert new == _capped_outcome(_divisors_dfs, pres, cap, a, side)
            if a:
                assert new == (ReversingCapExceeded, f"reversing exceeded {cap} cell fills")


@pytest.mark.parametrize(
    "preset_name, cap, max_len", [("braid(4)", 16, 24), ("A3tilde", 17, 24), ("A2tilde", 3, 8)]
)
def test_divisors_under_a_cap_are_exact_or_inconclusive(preset_name, cap, max_len):
    # at these caps the cube check passes, and the words divided are
    # longer than the cap.  An atom division is a reversing row, which
    # charges no cap, so on a fresh context the level search and the DFS,
    # which divide in different orders, both return every divisor
    pres = preset(preset_name)
    probe = MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    elements = _random_elements(probe, rng, 20, max_len=max_len)
    assert any(len(a) > cap for a in elements)
    for a in elements:
        for side in Side:
            exact = _divisors_dfs(probe, a, side)
            assert _capped_outcome(MonoidContext.divisors, pres, cap, a, side) == exact
            assert _capped_outcome(_divisors_dfs, pres, cap, a, side) == exact


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_atom_quotients_match_divides(preset_name):
    # a table holds, atom by atom, the quotient the class-scan oracle
    # finds; the two read contexts of their own
    pres = preset(preset_name)
    tables, probe = MonoidContext(pres), MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    for a in _random_elements(probe, rng, 40, max_len=6):
        for side in Side:
            expected = tuple(divides_scan(probe, s, a, side) for s in probe.atoms())
            assert tables.atom_quotients(a, side) == expected


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_divides_quotients_match_scan(preset_name):
    # multi-letter divisors, each a true prefix (LEFT) or suffix (RIGHT) of
    # a word of a, or a random element; the quotient, not only whether
    # there is one, must be the class-scan oracle's
    pres = preset(preset_name)
    ctx, probe = MonoidContext(pres), MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    n = pres.n_atoms
    for _ in range(150):
        w = word(*(rng.randrange(n) for _ in range(rng.randint(2, 7))))
        k = rng.randint(2, len(w))
        a = ctx.canonical(w)
        for side in Side:
            part = w[:k] if side is Side.LEFT else w[len(w) - k:]
            guess = word(*(rng.randrange(n) for _ in range(rng.randint(2, 4))))
            true = ctx.canonical(part)
            assert ctx.divides(true, a, side) is not None
            for x in (true, ctx.canonical(guess)):
                q = ctx.divides(x, a, side)
                assert q == divides_scan(probe, x, a, side)
                assert q is None or ctx.attach(q, x, side) == a


def test_atom_quotients_keep_overflows_unmemoised(att):
    # a row charges no cap, so at reversing_cap=3 the row of abcab is the
    # default-cap row, and it is memoised.  Where the cube check of the
    # atom table overflows (cap 1), no reversing table can be built: the
    # overflow sits in every atom's place, `divides` raises it, and the
    # row is not memoised
    ctx = MonoidContext(preset("A2tilde"), Caps(reversing_cap=3))
    a = att.element("abcab")
    table = ctx.atom_quotients(a, Side.LEFT)
    assert table == att.atom_quotients(a, Side.LEFT) == (att.element("bcab"), None, None)
    assert ctx.atom_quotients(a, Side.LEFT) is table
    tight = MonoidContext(preset("A2tilde"), Caps(reversing_cap=1))
    row = tight.atom_quotients(a, Side.LEFT)
    message = "reversing exceeded 1 cell fills"
    assert len(row) == 3
    assert all(type(q) is ReversingCapExceeded and str(q) == message for q in row)
    with pytest.raises(ReversingCapExceeded, match=message):
        tight.divides(att.element("b"), a, Side.LEFT)
    assert tight.atom_quotients(a, Side.LEFT) is not row
    assert a not in tight._quotients[True]  # the LEFT tables


@pytest.mark.parametrize("side", list(Side))
def test_atom_quotients_check_each_quotient(monkeypatch, side):
    # a reversing row that finds a wrong quotient is caught when its table
    # is built, by a raise that python -O keeps.  The row of b is peeled on
    # both sides of aba = bab: b is neither its first nor its last letter
    ctx = MonoidContext(preset("A2tilde"))
    a, b = ctx.element("aba"), ctx.element("b")
    w = a if side is Side.LEFT else a[::-1]  # the word peeled
    peel = ctx._peel

    def wrong_for_b(store, s, word):
        q = peel(store, s, word)
        if word == w and s == b:
            return q[::-1]  # the quotient's letters reversed: "ba", not "ab"
        return q

    monkeypatch.setattr(ctx, "_peel", wrong_for_b)
    with pytest.raises(InternalInvariantError, match=f"on the {side.value} is not aba"):
        ctx.atom_quotients(a, side)


def _seeded_elements(ctx, seed, count, max_len):
    """Elements from `gen_element`, each followed by a random left and a
    random right divisor of it."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        a = gen_element(ctx, rng.randint(1, max_len), derive_seed(seed, k))
        out.append(a)
        out.extend(rng.choice(ctx.divisors(a, side)) for side in Side)
    return out


@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_atom_quotients_match_every_atom_peeled(preset_name):
    # oracle: the rule that peeled every atom and made every quotient
    # canonical (tests/quotient_oracle.py).  Neither charges a row, so the
    # rows equal the reference's at every cap, overflows included, and a
    # row overflows only where the atom table's cube check does: at caps
    # 1-3 on braid(4), braid(5) and A3tilde, cap 1 on A2tilde and K(4,3),
    # caps 1-2 on C2tilde.  Cap 16 gives braid(4), braid(5) and A3tilde
    # rows longer than the cap to divide
    pres = preset(preset_name)
    seed = zlib.crc32(preset_name.encode())
    elements = _seeded_elements(MonoidContext(pres), seed, 10, max_len=24)
    assert any(len(a) > 16 for a in elements)
    kinds = set()
    for cap in (None, 1, 2, 3, 16):
        caps = Caps() if cap is None else Caps(reversing_cap=cap)
        cube = _outcome(MonoidContext(pres, caps).check_atom_tables)
        ctx = MonoidContext(pres, caps)
        for a in elements:
            for side in Side:
                got = _plain(ctx.atom_quotients(a, side))
                assert got == _plain(quotient_oracle.atom_quotients(ctx, a, side))
                if cube is None or not a:
                    assert not any(isinstance(q, CapExceeded) for q in ctx.atom_quotients(a, side))
                    kinds.add("equal" if cap is None else "equal under a cap")
                else:
                    assert got == [cube] * pres.n_atoms
                    kinds.add("both overflow")
    assert {"equal", "equal under a cap"} <= kinds
    if preset_name not in ("free(2)", "I2(5)"):  # their cube checks fit every cap
        assert "both overflow" in kinds


@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_created_elements_hold_least_words(preset_name):
    # atom_quotients rules out the atoms below a's first letter and interns
    # the rest of a's word as least: both rest on every element holding
    # the least word of its class.  Every element that canonical,
    # multiply, divides, gcd, lcm, divisors and atom_quotients create, and
    # every entry of a reduct the move core builds, is a plain str that
    # goes into the canonical memo, and each memo entry is the least word
    # of its key's class (class closure as the oracle, up to the 7 letters
    # of the longest seeded element: a longer class is slow to close)
    pres = preset(preset_name)
    ctx = MonoidContext(pres)
    memo = ctx._canon
    seed = zlib.crc32(preset_name.encode())
    elements = _seeded_elements(ctx, seed, 12, max_len=7)
    created = list(elements)
    for a in elements:
        for side in Side:
            created.extend(ctx.divisors(a, side))
            created.extend(q for q in ctx.atom_quotients(a, side) if q is not None)
    for a, b in itertools.combinations(elements[:12], 2):
        created.append(ctx.multiply(a, b))
        for side in Side:
            created.extend(x for x in (ctx.divides(b, a, side), ctx.gcd(a, b, side)) if x is not None)
            created.extend(ctx.lcm(a, b, side) or ())
    for k in range(0, len(elements) - 3, 4):
        a = Multifraction(1, tuple(elements[k : k + 4]))
        for side in Side:
            for _, _, b in atomic_moves(ctx, a, side, red._levels(a, side)):
                created.extend(b.entries)
    assert len(created) > 200
    assert all(type(e) is str and memo[e] is e for e in created)
    for w, e in memo.items():
        assert type(e) is str
        if len(w) <= 7:
            cls = word_class(pres, w)
            assert e in cls and e == min(cls), format_word(pres, w)


@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_mirror_images_swap_the_sides(preset_name):
    # every preset's relations read the same reversed, so reversing words
    # is an anti-automorphism of its monoid: each side's atom quotients,
    # lcms and gcds are the other side's on mirror images.  One context
    # answers both, off both sides' reversing stores
    ctx = MonoidContext(preset(preset_name))

    def mirror(e):
        return e if not isinstance(e, Element) else ctx.canonical(e[::-1])

    seed = zlib.crc32(preset_name.encode())
    elements = _seeded_elements(ctx, seed, 10, max_len=8)
    found = set()
    for a in elements:
        for side in Side:
            want = ctx.atom_quotients(mirror(a), side.other)
            assert tuple(map(mirror, ctx.atom_quotients(a, side))) == want
    for a, b in itertools.combinations(elements, 2):
        for side in Side:
            m = ctx.lcm(a, b, side)
            want = ctx.lcm(mirror(a), mirror(b), side.other)
            assert (m if m is None else tuple(map(mirror, m))) == want
            g = ctx.gcd(a, b, side)
            assert mirror(g) == ctx.gcd(mirror(a), mirror(b), side.other)
            found.add("no lcm" if m is None else "lcm")
            found.add("gcd" if g else "gcd 1")
    assert {"lcm", "gcd", "gcd 1"} <= found


def test_quotient_tables_shared_across_threads():
    # a context is safe to share across threads: four threads (more than
    # the cores of a small host) build the quotient tables of one fresh
    # context, switching often, so they fill its reversing stores
    # together, and every table is the serial one
    pres = preset("braid(5)")
    elements = _seeded_elements(MonoidContext(pres), 7, 12, max_len=16)
    serial = MonoidContext(pres)
    expected = [serial.atom_quotients(a, side) for a in elements for side in Side]
    shared = MonoidContext(pres)
    shared.check_atom_tables()
    results, errors = {}, []

    def work(k):
        try:
            results[k] = [shared.atom_quotients(a, side) for a in elements for side in Side]
        except Exception as e:  # reported below, after the join
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert all(results[k] == expected for k in range(4))


@pytest.mark.parametrize("side", list(Side))
def test_lcm_checks_its_complements(monkeypatch, side):
    # complements that do not make one common multiple are caught when the
    # lcm is memoised, by a raise that python -O keeps
    ctx = MonoidContext(preset("A2tilde"))
    a, b = ctx.element("a"), ctx.element("b")
    reverse = ctx._reverse

    def swapped(x, y, s):
        r = reverse(x, y, s)
        return None if r is None else (r[1], r[0])

    monkeypatch.setattr(ctx, "_reverse", swapped)
    with pytest.raises(InternalInvariantError, match=f"reversing on the {side.value}"):
        ctx.lcm(a, b, side)
    assert (a, b, side is Side.LEFT) not in ctx._lcm


def test_canonical_and_lcm_memo_sizes_count_hits():
    """`perfbench/tracing.py` (`MEMOS`) reads `ctx._canon` and `ctx._lcm`
    by name and counts a call that leaves the memo's size unchanged as a
    hit: each is one flat dict, whose size grows on a miss and stays the
    same on a hit."""
    ctx = MonoidContext(preset("braid(4)"))
    assert type(ctx._canon) is dict and type(ctx._lcm) is dict
    w = word(2, 1, 0, 2, 1)
    before = len(ctx._canon)
    x = ctx.canonical(w)
    grown = len(ctx._canon)
    assert grown > before
    assert ctx.canonical(w) is x and len(ctx._canon) == grown
    a, b = ctx.element("ab"), ctx.element("cb")
    for side in Side:
        before = len(ctx._lcm)
        m = ctx.lcm(a, b, side)
        assert len(ctx._lcm) == before + 1
        canon = len(ctx._canon)
        assert ctx.lcm(a, b, side) is m
        assert len(ctx._lcm) == before + 1 and len(ctx._canon) == canon
    # flat: a word keys the canonical memo, (word, word, LEFT?) the lcm memo
    assert all(type(w) is str for w in ctx._canon)
    assert (a, b, True) in ctx._lcm and (a, b, False) in ctx._lcm


def test_gcd_examples(att):
    e = att.element
    assert att.gcd(e("ac"), e("ca"), Side.RIGHT) == IDENTITY
    assert att.gcd(e("a"), IDENTITY, Side.LEFT) == IDENTITY
    assert att.gcd(e("aba"), e("aca"), Side.LEFT) == e("a")


def test_lcm_examples(att):
    e = att.element
    m, comp_a, comp_b = att.lcm(e("a"), e("b"), Side.RIGHT)
    assert (att.word_str(m), att.word_str(comp_a), att.word_str(comp_b)) == ("aba", "ab", "ba")
    assert att.lcm(e("b"), e("ca"), Side.RIGHT) is None
    x = e("ab")
    m, comp_a, comp_b = att.lcm(x, IDENTITY, Side.RIGHT)
    assert m == x and comp_a == x and comp_b == IDENTITY


def test_common_multiple_tristate(att):
    # an lcm answers yes (a tuple), no (None) or, past a cap, raises
    e = att.element
    assert att.lcm(e("b"), e("ca"), Side.RIGHT) is None
    assert att.lcm(e("a"), e("c"), Side.RIGHT) is not None
    assert att.lcm(e("ab"), e("ab"), Side.RIGHT) is not None
    capped = MonoidContext(preset("A2tilde"), Caps(reversing_cap=2))
    capped.check_atom_tables()
    with pytest.raises(ReversingCapExceeded):
        capped.lcm(capped.element("ab"), capped.element("ba"), Side.RIGHT)


def test_basic_tables(att, k43, free2, braid3):
    t = att.basic_table(Side.RIGHT)
    expected = {"1", "a", "b", "c", "ab", "ba", "ac", "ca", "bc", "cb"}
    assert {att.word_str(b) for b in t.basics} == expected
    assert t.C == 3
    tl = att.basic_table(Side.LEFT)
    assert {att.word_str(b) for b in tl.basics} == expected
    assert len(k43.basic_table(Side.RIGHT).basics) == 17
    # in a free monoid only a pair of equal words or with 1 has an lcm
    f = free2.basic_table(Side.RIGHT)
    assert len(f.basics) == 3 and f.no_multiple == 2
    for u in f.basics:
        for v in f.basics:
            has = free2.lcm(u, v, Side.RIGHT) is not None
            assert has == (u == v or IDENTITY in (u, v))
    b = braid3.basic_table(Side.RIGHT)
    assert {braid3.word_str(x) for x in b.basics} == {"1", "a", "b", "ab", "ba"}
    assert b.C == 3




def test_closure_of_complements():
    # the table is the closure of the atoms under complements: each lcm
    # of two basic elements, read off `lcm`, whose equation is checked,
    # has basic complements, and the ordered pairs with no common
    # multiple are as many as the table counts.  The other side is built
    # first, so that the table is a mirror where both sides share a store
    for pres in [*(preset(name) for name in [*EVERY_PRESET, "braid(3)", "K(5,3)", "I2(7)"]), CENSUS]:
        for side in Side:
            ctx = MonoidContext(pres)
            ctx.basic_table(side.other)
            t = ctx.basic_table(side)
            basics = set(t.basics)
            none = 0
            for u in t.basics:
                for v in t.basics:
                    r = ctx.lcm(u, v, side)
                    if r is None:
                        none += 1
                    else:
                        assert {r[1], r[2]} <= basics, (pres.name, side, u, v)
            assert none == t.no_multiple, (pres.name, side)
            assert (ctx._stores[0] is ctx._stores[1]) == (pres is not CENSUS)


def test_basic_table_allocates_no_pair_map():
    # a table keeps its basics and one count, not the complements of every
    # pair: a braid(5) right table, 119 basics and 14,161 pairs, peaks at
    # about 200 KB of traced allocations, where a map of the pairs'
    # complements and a set of the pairs without one peaked at 1.7 MB
    ctx = MonoidContext(preset("braid(5)"))
    ctx.check_atom_tables()
    tracemalloc.start()
    try:
        ctx.basic_table(Side.RIGHT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 600_000


def _random_elements(ctx, rng, count, max_len=4):
    out = []
    for _ in range(count):
        atoms = [rng.randrange(ctx.pres.n_atoms) for _ in range(rng.randint(0, max_len))]
        out.append(ctx.canonical(word(*atoms)))
    return out


@pytest.mark.parametrize("preset_name", ["A2tilde", "braid(3)", "K(4,3)", "free(2)"])
def test_lattice_laws(preset_name):
    ctx = MonoidContext(preset(preset_name))
    rng = random.Random(zlib.crc32(preset_name.encode()))
    for _ in range(120):
        a, b = _random_elements(ctx, rng, 2)
        for side in Side:
            g = ctx.gcd(a, b, side)
            assert ctx.divides(g, a, side) is not None
            assert ctx.divides(g, b, side) is not None
        # any common divisor divides the gcd
        d, u, v = _random_elements(ctx, rng, 3, max_len=2)
        x, y = ctx.multiply(d, u), ctx.multiply(d, v)
        assert ctx.divides(d, ctx.gcd(x, y, Side.LEFT), Side.LEFT) is not None
        r = ctx.lcm(a, b, Side.RIGHT)
        if r is not None:
            m, comp_a, comp_b = r
            assert m == ctx.multiply(a, comp_b) == ctx.multiply(b, comp_a)
            # gcd of the two complements is trivial
            assert ctx.gcd(comp_a, comp_b, Side.RIGHT) == IDENTITY


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_gcd_against_common_divisors(preset_name):
    # oracle: the common divisors that `divisors` finds; the gcd is one of
    # them and every one of them divides it
    ctx = MonoidContext(preset(preset_name))
    rng = random.Random(zlib.crc32(preset_name.encode()))
    for side in Side:
        for _ in range(40):
            d, u, v = _random_elements(ctx, rng, 3, max_len=3)
            a, b = ctx.attach(u, d, side), ctx.attach(v, d, side)
            common = set(ctx.divisors(a, side)) & set(ctx.divisors(b, side))
            g = ctx.gcd(a, b, side)
            assert g in common
            assert all(ctx.divides(x, g, side) is not None for x in common)


def test_reversing_cap_counts_every_cell_of_a_grid():
    # reversing_cap bounds the cells of one reversal, each cell of its own
    # grid counted whether the store holds it or not: once a default-cap
    # context has reversed aa against ba on A2tilde, all 4 cells are
    # stored, and the same reversal still overflows at cap 3
    ctx = MonoidContext(preset("A2tilde"))
    store = ctx._store(Side.RIGHT)
    aa, ba = word(0, 0), word(1, 0)
    want = ctx._right_reverse(store, aa, ba)
    stored = dict(store)
    ctx.caps = Caps(reversing_cap=3)
    with pytest.raises(ReversingCapExceeded, match="exceeded 3 cell fills"):
        ctx._right_reverse(store, aa, ba)
    ctx.caps = Caps(reversing_cap=4)
    assert ctx._right_reverse(store, aa, ba) == want and store == stored
    # a cell the store lacks is reversed by a nested reversal, which is not
    # counted: over C2tilde's atom table, a against ba is a 2-cell grid
    # whose second cell, aba against a, is not stored and takes a nested
    # 3-cell reversal.  At cap 2 it gives the same pair before and after a
    # default-cap reversal has stored that cell
    tight = MonoidContext(preset("C2tilde"), Caps(reversing_cap=2))
    store = tight._atom_store(Side.RIGHT)
    a, ba = word(0), word(1, 0)
    want = (word(1, 0), word(1, 0, 1))
    assert (word(0, 1, 0), a) not in store
    assert tight._right_reverse(tight._atom_store(Side.RIGHT), a, ba) == want
    assert MonoidContext(preset("C2tilde"))._right_reverse(store, a, ba) == want
    assert (word(0, 1, 0), a) in store
    assert tight._right_reverse(store, a, ba) == want


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_peel_matches_full_row(preset_name, side):
    # oracle: the whole reversing row of s against w, run past the letter
    # where s is used up; each path fills the store of its own context
    pres = preset(preset_name)
    new, old = MonoidContext(pres), MonoidContext(pres)
    new_store, old_store = new._store(side), old._store(side)

    def full_row(s, w):
        if w and w[0] == chr(s):
            return w[1:]
        r = old._right_reverse(old_store, chr(s), w)
        return r[1] if r is not None and not r[0] else None

    rng = random.Random(zlib.crc32(preset_name.encode()))
    inner = 0
    for _ in range(30):
        w = word(*(rng.randrange(pres.n_atoms) for _ in range(rng.randint(0, 10))))
        for s in range(pres.n_atoms):
            q = new._peel(new_store, chr(s), w)
            assert q == full_row(s, w), (s, w)
            inner += q is not None and w[0] != chr(s)
    assert inner or preset_name == "free(2)"  # some rows run past their first cell


def test_gcd_of_a_deep_common_divisor(free2):
    # one loop turn per atom of the gcd, so no recursion limit is met
    w = "ab" * 700
    a, b = free2.element("a" + w), free2.element("b" + w)
    assert free2.gcd(a, b, Side.RIGHT) == free2.element(w)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("preset_name", ["A2tilde", "braid(4)", "C2tilde"])
def test_attach_is_the_side_convention(preset_name, side):
    # attach orders every sided product: divides undoes it, and lcm builds
    # its multiple with it from either complement (checked here, not only
    # by lcm's assert, so that it holds under python -O too)
    ctx = MonoidContext(preset(preset_name))
    a, b = ctx.element("a"), ctx.element("b")
    assert ctx.word_str(ctx.attach(a, b, side)) == ("ab" if side is Side.RIGHT else "ba")
    rng = random.Random(17)
    for _ in range(80):
        a, b, q, x = _random_elements(ctx, rng, 4)
        assert ctx.divides(x, ctx.attach(q, x, side), side) == q
        r = ctx.lcm(a, b, side)
        if r is not None:
            m, comp_a, comp_b = r
            assert m == ctx.attach(a, comp_b, side) == ctx.attach(b, comp_a, side)


@pytest.mark.parametrize("preset_name", ["A2tilde", "braid(3)"])
def test_iterated_lcm_consistency(preset_name):
    ctx = MonoidContext(preset(preset_name))
    rng = random.Random(99)
    for _ in range(150):
        a, b, c = _random_elements(ctx, rng, 3, max_len=3)
        bc = ctx.multiply(b, c)
        direct = ctx.lcm(a, bc, Side.RIGHT)
        first = ctx.lcm(a, b, Side.RIGHT)
        if first is None:
            assert direct is None
            continue
        rest = ctx.lcm(first[1], c, Side.RIGHT)
        if rest is None:
            assert direct is None
            continue
        assert direct is not None
        assert direct[0] == ctx.multiply(bc, rest[1])


def test_iterated_gcd(att):
    rng = random.Random(5)
    checked = 0
    while checked < 120:
        a, b, c = _random_elements(att, rng, 3, max_len=3)
        if att.gcd(a, b, Side.LEFT) != IDENTITY:
            continue
        r = att.lcm(a, b, Side.RIGHT)
        if r is None:
            continue
        a_past_b = r[1]
        if att.gcd(a_past_b, c, Side.LEFT) != IDENTITY:
            continue
        assert att.gcd(a, ctx_mul(att, b, c), Side.LEFT) == IDENTITY
        checked += 1


def ctx_mul(ctx, x, y):
    return ctx.multiply(x, y)


def test_grid_vs_oracle_small(att):
    els = att.elements_up_to(3)
    C = att.basic_bound_C()
    for a in els:
        for b in els:
            slack = max(2, (C - 2) * min(len(a), len(b)))
            grid = att.lcm(a, b, Side.RIGHT)
            oracle = att.lcm_oracle(a, b, Side.RIGHT, slack=slack)
            assert (grid is None) == (oracle is None), (att.word_str(a), att.word_str(b))
            if grid is not None:
                assert grid == oracle


def test_grid_vs_oracle_left_side(att):
    els = att.elements_up_to(2)
    for a in els:
        for b in els:
            grid = att.lcm(a, b, Side.LEFT)
            oracle = att.lcm_oracle(a, b, Side.LEFT, slack=4)
            assert (grid is None) == (oracle is None)
            if grid is not None:
                assert grid == oracle


def test_elements_up_to(att, braid3):
    els = att.elements_up_to(2)
    assert len(els) == 1 + 3 + 9
    assert els == sorted(els, key=sort_key)
    b = braid3.elements_up_to(3)
    assert len({len(e) for e in b}) == 4


def elements_up_to_loop(ctx, max_length):
    """The elements of length <= max_length by a breadth-first loop of
    its own, one atom appended at a time: the enumeration
    `elements_up_to` ran before it read `multiples`, kept as its oracle."""
    seen, level = {IDENTITY}, [IDENTITY]
    for _ in range(max_length):
        nxt = []
        for x in level:
            for i in range(ctx.pres.n_atoms):
                y = ctx.canonical(x + word(i))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        level = nxt
    return sorted(seen, key=sort_key)


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_elements_up_to_matches_loop(preset_name):
    # in contexts of their own, so that neither reads the other's memos
    ctx, oracle = MonoidContext(preset(preset_name)), MonoidContext(preset(preset_name))
    for max_length in range(5):
        got = ctx.elements_up_to(max_length)
        assert got == elements_up_to_loop(oracle, max_length), max_length
    assert ctx.elements_up_to(2) == elements_up_to_loop(oracle, 2)


def test_grid_vs_oracle_second_preset(k43):
    els = k43.elements_up_to(2)
    for a in els:
        for b in els:
            grid = k43.lcm(a, b, Side.RIGHT)
            oracle = k43.lcm_oracle(a, b, Side.RIGHT, slack=max(2, min(len(a), len(b))))
            assert (grid is None) == (oracle is None), (k43.word_str(a), k43.word_str(b))
            if grid is not None:
                assert grid == oracle


@pytest.mark.parametrize("side", list(Side))
def test_lcm_oracle_checks_its_complements(monkeypatch, side):
    # a common multiple the longer element does not divide is caught by a
    # raise that python -O keeps
    ctx = MonoidContext(preset("A2tilde"))
    a, b = ctx.element("ab"), ctx.element("a")
    divides = ctx.divides
    monkeypatch.setattr(
        ctx, "divides", lambda x, m, s: None if x == a else divides(x, m, s)
    )
    with pytest.raises(InternalInvariantError, match=f"common {side.value} multiple of ab and a"):
        ctx.lcm_oracle(a, b, side)


def test_complement_unit_rows(att):
    for side in Side:
        for u in att.basic_table(side).basics:
            assert att.lcm(u, u, side)[1:] == (IDENTITY, IDENTITY)
            assert att.lcm(IDENTITY, u, side)[1] == IDENTITY
            assert att.lcm(u, IDENTITY, side)[1] == u


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize(
    "pres",
    [*(preset(name) for name in ["A2tilde", "braid(3)", "braid(4)", "I2(5)", "free(2)"]), CENSUS],
    ids=lambda pres: pres.name,
)
def test_atom_complements_match_oracle(pres, side):
    # the lcm of two atoms, or its absence, is the brute-force search's,
    # and its complements are basic
    ctx = MonoidContext(pres)
    basics = set(ctx.basic_table(side).basics)
    slack = 2 * (1 + max((len(l) for l, _ in ctx.pres.relations), default=1))
    for u in ctx.atoms():
        for v in ctx.atoms():
            if u == v:
                continue
            r = ctx.lcm_oracle(u, v, side, slack=slack)
            got = ctx.lcm(u, v, side)
            if r is None:
                assert got is None, (u, v)
            else:
                assert got[1] == r[1] and got[1] in basics, (u, v)


@pytest.mark.parametrize("text, side, message", [
    # a and c have the common multiple ab = bc = ca, which no relation lists
    ("atoms: a b c\nrel: ab = bc\nrel: bc = ca\n", Side.RIGHT,
     r"cube condition fails on atoms \(a, b, c\)"),
    # both sides of the cube are defined: (a\b)\(a\c) = 1, (b\a)\(b\c) = a
    ("atoms: a b c\nrel: aa = ba\nrel: aa = ca\nrel: bb = cc\n", Side.RIGHT,
     r"cube condition fails on atoms \(a, b, c\)"),
    ("atoms: a b c\nrel: ab = cb\n", Side.LEFT, "both sides of ab = cb end with b"),
    ("atoms: a b c\nrel: ca = ab\nrel: cb = ba\n", Side.LEFT,
     "cb = ba and another relation both end with b and a"),
    # identical starts and a duplicate start pair: parsing leaves both to the atom table
    ("atoms: a b\nrel: ab = ab\n", Side.RIGHT, "both sides of ab = ab start with a"),
    ("atoms: a b\nrel: ab = ba\nrel: aab = bba\n", Side.RIGHT,
     "aab = bba and another relation both start with a and b"),
])
def test_incomplete_presentations_rejected(text, side, message):
    ctx = MonoidContext(parse_presentation(text))
    with pytest.raises(LatticeViolation, match=message):
        ctx.basic_table(side)


def _check_cube_every_pair(ctx, side, store):
    """The cube check over every ordered pair of atoms, as first written:
    the oracle of `MonoidContext._check_cube`, which scans r < s only."""

    def under(x, y):
        if x is None or y is None:
            return None
        r = ctx._right_reverse(store, x, y)
        return None if r is None else r[1]

    n = ctx.pres.n_atoms
    for r, s in itertools.permutations(range(n), 2):
        if store.get((word(r), word(s))) is None:
            continue
        for t in range(n):
            if t == r or t == s:
                continue
            one = under(under(word(r), word(s)), under(word(r), word(t)))
            two = under(under(word(s), word(r)), under(word(s), word(t)))
            if (one is None) != (two is None) or (
                one is not None and ctx._right_reverse(store, one, two) != ("", "")
            ):
                names = ", ".join(format_word(ctx.pres, word(x)) for x in (r, s, t))
                raise LatticeViolation(
                    f"cube condition fails on atoms ({names}) for the {side.value} "
                    "complement: word reversing is incomplete; add the relations "
                    "for the missing atom lcms"
                )


def _outcome(run):
    try:
        return run()
    except (LatticeViolation, CapExceeded) as e:
        return type(e), str(e)


def _scanned_store(pres, caps, side):
    """The side's store as its own scan over every ordered pair leaves it,
    on a fresh context, or the failure that scan raises."""
    ctx = MonoidContext(pres, caps)

    def run():
        store = ctx._atom_store(side)
        _check_cube_every_pair(ctx, side, store)
        return store

    return _outcome(run)


# every preset family, and presentation files: one whose mirror image
# differs, so that both sides are checked, and ones the cube refuses
STORE_CASES = [
    *(preset(name) for name in EVERY_PRESET + ["braid(3)", "K(5,3)"]),
    parse_presentation("atoms: a b c\nrel: aa = bc\nrel: ab = cc\nrel: bb = ca\n",
                       name="mirror-differs"),
    parse_presentation("atoms: a b c\nrel: ab = bc\nrel: bc = ca\nrel: ca = ab\n",
                       name="completed"),
    parse_presentation("atoms: a b c\nrel: ab = bc\nrel: bc = ca\n", name="cube-fails"),
    parse_presentation("atoms: a b c\nrel: aa = ba\nrel: aa = ca\nrel: bb = cc\n",
                       name="cube-fails-defined"),
]


@pytest.fixture
def cube_scans(monkeypatch):
    """The sides whose cube check runs, in order."""
    scans = []
    check = MonoidContext._check_cube

    def spy(self, side, store):
        scans.append(side)
        return check(self, side, store)

    monkeypatch.setattr(MonoidContext, "_check_cube", spy)
    return scans


@pytest.mark.parametrize("cap", [3, 12, Caps.reversing_cap])
@pytest.mark.parametrize("first", list(Side), ids=lambda side: f"{side.value}-first")
@pytest.mark.parametrize("pres", STORE_CASES, ids=lambda pres: pres.name)
def test_store_matches_every_pair_scan(pres, first, cap, cube_scans):
    # whichever side is used first, each side's reversing store is, cell
    # for cell, the one its own scan over every ordered pair leaves, and
    # each check raises what that scan raises.  A side whose atom table is
    # the other side's, which passed its check, runs no check of its own
    caps = Caps(reversing_cap=cap)
    ctx = MonoidContext(pres, caps)
    order = (first, first.other)
    got = {side: _outcome(lambda: ctx._store(side)) for side in order}
    tables = {side: _outcome(lambda: ctx._atom_store(side)) for side in order}
    if isinstance(got[first], dict) and tables[first] == tables[first.other]:
        assert cube_scans == [first]
    else:
        assert cube_scans == [side for side in order if isinstance(tables[side], dict)]
    for side in Side:
        assert got[side] == _scanned_store(pres, caps, side)


@pytest.mark.parametrize(
    "pres",
    [pres for pres in STORE_CASES if not pres.name.startswith("cube-fails")],
    ids=lambda pres: pres.name,
)
def test_mirror_store_is_shared(pres):
    # a side whose atom table equals the checked one of the other side
    # shares that side's store: one dict on every preset, whose relations
    # read the same backwards, and two for the files whose mirror image
    # differs.  A shared store holds the cells either side's reversals
    # stored
    ctx = MonoidContext(pres)
    right = ctx._store(Side.RIGHT)
    left = ctx._store(Side.LEFT)
    shared = pres.name not in ("mirror-differs", "completed")
    assert (left is right) == shared
    if shared:
        n = len(right)
        ctx.lcm(ctx.canonical(word(0, 1)), ctx.canonical(word(1, 0)), Side.LEFT)
        assert len(right) > n
    else:
        assert left != right


def test_completed_presentation_table():
    # the lcm of a and c listed: the table the brute-force search found
    text = "atoms: a b c\nrel: ab = bc\nrel: bc = ca\nrel: ca = ab\n"
    ctx = MonoidContext(parse_presentation(text))
    expected = {
        Side.RIGHT: {"ab": "c", "ac": "a", "ba": "b", "bc": "a", "ca": "b", "cb": "c"},
        Side.LEFT: {"ab": "a", "ac": "b", "ba": "c", "bc": "b", "ca": "c", "cb": "a"},
    }
    for side, pairs in expected.items():
        t = ctx.basic_table(side)
        assert [ctx.word_str(b) for b in t.basics] == ["1", "a", "b", "c"]
        assert t.no_multiple == 0
        assert all(ctx.lcm(u, v, side) for u in t.basics for v in t.basics)
        got = {ctx.word_str(u) + ctx.word_str(v): ctx.word_str(ctx.lcm(u, v, side)[1])
               for u in ctx.atoms() for v in ctx.atoms() if u != v}
        assert got == pairs


# reversing_caps up to 8, at which many grids overflow (a negative cap
# admits no cell), the default, and basics_caps at which nested
# reversals meet their guard
KERNEL_CAPS = [
    *(Caps(reversing_cap=cap) for cap in range(-1, 9)),
    Caps(),
    *(Caps(basics_cap=cap) for cap in (1, 2, 3)),
]


@pytest.mark.parametrize("caps", KERNEL_CAPS, ids=repr)
@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_right_reverse_matches_cell_by_cell_oracle(preset_name, caps):
    # the kernel skips trivial cells and ends a row where its state is
    # used up; the oracle fills every cell (tests/quotient_oracle.py).
    # Over one seeded sequence of word pairs, each on its own fresh
    # context and atom store, they give the same reversal or the same
    # overflow, and leave the same store after every pair
    pres = preset(preset_name)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    for side in Side:
        new, old = MonoidContext(pres, caps), MonoidContext(pres, caps)
        new_store, old_store = new._atom_store(side), old._atom_store(side)
        for _ in range(40):
            a, b = (
                word(*(rng.randrange(pres.n_atoms) for _ in range(rng.randint(0, 6))))
                for _ in range(2)
            )
            got = _outcome(lambda: new._right_reverse(new_store, a, b))
            want = _outcome(lambda: quotient_oracle.right_reverse(old, old_store, a, b))
            assert got == want, (side, a, b)
            assert new_store == old_store, (side, a, b)


def _table_outcome(ctx, side, build=MonoidContext.basic_table):
    def run():
        t = build(ctx, side)
        return t.side, t.basics, t.no_multiple, t.C

    return _outcome(run)


def _mirror_caps(pres):
    """Caps about the bounds of the mirror: reversing_cap (C-1)**2 - 1 and
    (C-1)**2, and basics_cap C-2, C-1 and the basic count less 1 and
    itself, each with the other caps at their defaults."""
    t = MonoidContext(pres).basic_table(Side.RIGHT)
    longest, count = t.C - 1, len(t.basics)
    return [
        Caps(),
        *(Caps(reversing_cap=longest**2 + d) for d in (-1, 0)),
        *(Caps(basics_cap=cap) for cap in (longest - 1, longest, count - 1, count)),
    ]


@pytest.mark.parametrize("first", list(Side), ids=lambda side: f"{side.value}-first")
@pytest.mark.parametrize(
    "pres",
    [pres for pres in STORE_CASES if not pres.name.startswith("cube-fails")],
    ids=lambda pres: pres.name,
)
def test_mirrored_table_matches_direct_build(pres, first, monkeypatch):
    # the second side's table, read off the first side's where both sides
    # share one store, is the table a fresh context builds directly, or
    # the same overflow: with the first side built at default caps and
    # the second asked for at each cap about the mirror's bounds.  The
    # files whose mirror image differs are always built directly
    mirrored = []
    mirror = MonoidContext._mirror_table

    def spy(self, table):
        mirrored.append(table.side)
        return mirror(self, table)

    monkeypatch.setattr(MonoidContext, "_mirror_table", spy)
    side = first.other
    shared = pres.name not in ("mirror-differs", "completed")
    for caps in _mirror_caps(pres):
        ctx = MonoidContext(pres)
        other = ctx.basic_table(first)
        ctx.caps = caps
        mirrored.clear()
        got = _table_outcome(ctx, side)
        assert got == _table_outcome(MonoidContext(pres, caps), side), caps
        fits = (other.C - 1) ** 2 <= caps.reversing_cap and max(
            other.C - 1, len(other.basics)
        ) <= caps.basics_cap
        assert mirrored == ([first] if shared and fits else []), caps


def _tight_caps(pres):
    """Caps about each bound of the build: the defaults; reversing_cap
    0-39 with basics_cap C-2, C-1, the basic count less 1, the count or
    the default; and basics_cap 0-25 with reversing_cap (C-1)**2 - 1,
    (C-1)**2 or the default.  Pair grids overflow, and nested cells or the
    closure meet their guard, each alone or with the other."""
    t = MonoidContext(pres).basic_table(Side.RIGHT)
    longest, count = t.C - 1, len(t.basics)
    basics_caps = {longest - 1, longest, count - 1, count, Caps.basics_cap}
    reversing_caps = {longest**2 - 1, longest**2, Caps.reversing_cap}
    return sorted(
        {
            Caps(),
            *(Caps(reversing_cap=r, basics_cap=b) for r in range(40) for b in basics_caps),
            *(Caps(reversing_cap=r, basics_cap=b) for r in reversing_caps for b in range(26)),
        },
        key=repr,
    )


@pytest.mark.parametrize("preset_name", [
    "A2tilde", "A3tilde", "C2tilde", "K(4,3)", "braid(3)", "braid(4)", "braid(5)", "free(2)",
    "free(3)", "I2(5)", "I2(7)",
])
def test_basic_table_matches_grid_oracle(preset_name):
    # a table whose pairs are reversed row by row, each row one cell of
    # the reversing store, is the table the per-pair grid reversal builds
    # (tests/basic_oracle.py), or the same overflow, class and message: on
    # both sides, in both build orders, at every tight cap.  Every preset
    # meets all three outcomes
    pres = preset(preset_name)
    seen = set()
    for caps in _tight_caps(pres):
        for first in Side:
            new, old = MonoidContext(pres, caps), MonoidContext(pres, caps)
            for side in (first, first.other):
                got = _table_outcome(new, side)
                assert got == _table_outcome(old, side, basic_oracle.basic_table), (caps, side)
                seen.add(got[0] if isinstance(got[0], type) else "table")
    assert seen == {"table", ReversingCapExceeded, BasicsCapExceeded}


@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_basic_table_reverses_no_grid_within_caps(preset_name, monkeypatch):
    # at default caps every pair fits reversing_cap, so no pair of either
    # table is a grid reversal: each row is read off the store or filled
    # once into it, and the second side is read off the first
    grids = []
    reverse = MonoidContext._reverse

    def spy(self, a, b, side):
        grids.append((a, b, side))
        return reverse(self, a, b, side)

    monkeypatch.setattr(MonoidContext, "_reverse", spy)
    ctx = MonoidContext(preset(preset_name))
    ctx.basic_table(Side.RIGHT)
    ctx.basic_table(Side.LEFT)
    assert grids == []
