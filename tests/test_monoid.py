import itertools
import random
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import quotient_oracle
from class_oracle import divides_scan, tuple_class
from multired.harness import derive_seed, gen_element
from multired.monoid import (
    CapExceeded,
    Caps,
    Element,
    IDENTITY,
    InternalInvariantError,
    LatticeViolation,
    MonoidContext,
    ReversingCapExceeded,
    Side,
    result_of,
)
from multired.presentation import format_word, parse_presentation, preset
from test_campaign_golden import PRESETS as GOLDEN_PRESETS

words = st.lists(st.integers(0, 2), min_size=0, max_size=6).map(tuple)


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
    word = tuple(data.draw(st.lists(st.integers(0, pres.n_atoms - 1), max_size=10)))
    ctx = MonoidContext(pres)  # fresh, so that nothing is memoised
    cls = tuple_class(pres, word)
    x = ctx.canonical(word)
    assert x == Element(min(cls))
    assert all(ctx.canonical(w) == x for w in cls)


def test_atom_limit():
    ctx = MonoidContext(preset("free(257)"))
    assert ctx.canonical((256, 3, 0)).word == (256, 3, 0)


def test_braid5_delta_squared():
    # the Garside square of braid(5) is central
    ctx = MonoidContext(preset("braid(5)"))
    delta = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0)
    dd = ctx.canonical(delta + delta)
    assert dd.length == 20
    for s in ctx.atoms():
        assert ctx.canonical(dd.word + s.word) == ctx.canonical(s.word + dd.word)


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_length_additive(u, v):
    ctx = _att()
    x, y = ctx.canonical(u), ctx.canonical(v)
    assert ctx.multiply(x, y).length == x.length + y.length


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
        x = att.canonical(tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))))
        y = att.canonical(tuple(rng.randrange(3) for _ in range(rng.randint(0, 5))))
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
        words = tuple_class(pres, a.word)
        for side in Side:
            parts = {
                w[:k] if side is Side.LEFT else w[len(w) - k:]
                for w in words
                for k in range(len(w) + 1)
            }
            expected = sorted({probe.canonical(p) for p in parts}, key=Element.sort_key)
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
    return tuple(sorted(found, key=Element.sort_key))


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
            if not a.is_identity:
                assert new == (ReversingCapExceeded, f"reversing exceeded {cap} cell fills")


@pytest.mark.parametrize(
    "preset_name, cap, max_len", [("braid(4)", 16, 24), ("A3tilde", 17, 24), ("A2tilde", 3, 8)]
)
def test_divisors_under_a_cap_are_exact_or_inconclusive(preset_name, cap, max_len):
    # at these caps the cube check passes and the atom divisions of long
    # elements overflow.  A division's cell count depends on the cells
    # that earlier divisions stored, so the level search and the DFS,
    # which divide in different orders, may disagree on whether the cap
    # is reached; when either returns, it returns every divisor
    pres = preset(preset_name)
    probe = MonoidContext(pres)
    rng = random.Random(zlib.crc32(preset_name.encode()))
    message = (ReversingCapExceeded, f"reversing exceeded {cap} cell fills")
    kinds = set()
    for a in _random_elements(probe, rng, 20, max_len=max_len):
        for side in Side:
            exact = _divisors_dfs(probe, a, side)
            new = _capped_outcome(MonoidContext.divisors, pres, cap, a, side)
            old = _capped_outcome(_divisors_dfs, pres, cap, a, side)
            assert new in (exact, message) and old in (exact, message)
            kinds.add((new == exact, old == exact))
    assert {(True, True), (False, False)} <= kinds


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
        w = tuple(rng.randrange(n) for _ in range(rng.randint(2, 7)))
        k = rng.randint(2, len(w))
        a = ctx.canonical(w)
        for side in Side:
            part = w[:k] if side is Side.LEFT else w[len(w) - k:]
            guess = tuple(rng.randrange(n) for _ in range(rng.randint(2, 4)))
            true = ctx.canonical(part)
            assert ctx.divides(true, a, side) is not None
            for x in (true, ctx.canonical(guess)):
                q = ctx.divides(x, a, side)
                assert q == divides_scan(probe, x, a, side)
                assert q is None or ctx.attach(q, x, side) == a


def test_atom_quotients_keep_overflows_unmemoised(att):
    # an atom whose division overflows holds the overflow that `divides`
    # raises, the other atoms their quotients; only a complete table is
    # memoised
    ctx = MonoidContext(preset("A2tilde"), Caps(reversing_cap=3))
    probe = MonoidContext(preset("A2tilde"), Caps(reversing_cap=3))
    a = att.element("abcab")
    table = ctx.atom_quotients(a, Side.LEFT)
    assert table[0] == att.element("bcab") and table[2] is None
    assert isinstance(table[1], ReversingCapExceeded)
    with pytest.raises(ReversingCapExceeded, match=str(table[1])):
        probe.divides(att.element("b"), a, Side.LEFT)
    assert ctx.atom_quotients(a, Side.LEFT) is not table
    b = att.element("aab")
    complete = ctx.atom_quotients(b, Side.LEFT)
    assert complete == (att.element("ab"), None, None)
    assert ctx.atom_quotients(b, Side.LEFT) is complete


@pytest.mark.parametrize("side", list(Side))
def test_atom_quotients_check_each_quotient(monkeypatch, side):
    # a reversing row that finds a wrong quotient is caught when its table
    # is built, by a raise that python -O keeps.  The row of b is peeled on
    # both sides of aba = bab: b is neither its first nor its last letter
    ctx = MonoidContext(preset("A2tilde"))
    a, b = ctx.element("aba"), ctx.element("b").word[0]
    w = a.word if side is Side.LEFT else a.word[::-1]  # the word peeled
    peel = ctx._peel

    def wrong_for_b(rows, s, word):
        q = peel(rows, s, word)
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
    # canonical (tests/quotient_oracle.py).  Under a reversing cap a
    # division's cells depend on the cells earlier ones stored, so the
    # reference reads each row first, on the same context; the row then
    # meets at least the cells the reference met.  It may decide an entry
    # whose reference overflowed (an atom that the least word rules out or
    # divides off with no reversing), never the reverse.  At caps 1-3 the
    # cube check of braid(4), braid(5) and A3tilde overflows, so cap 16
    # gives them rows to divide under a cap
    pres = preset(preset_name)
    seed = zlib.crc32(preset_name.encode())
    elements = _seeded_elements(MonoidContext(pres), seed, 10, max_len=24)
    kinds = set()
    for cap in (None, 1, 2, 3, 16):
        ctx = MonoidContext(pres, Caps() if cap is None else Caps(reversing_cap=cap))
        for a in elements:
            for side in Side:
                want = quotient_oracle.atom_quotients(ctx, a, side)
                got = ctx.atom_quotients(a, side)
                for g, w in zip(got, want):
                    if isinstance(g, CapExceeded):
                        assert (type(g), str(g)) == (type(w), str(w))
                        kinds.add("both overflow")
                    elif isinstance(w, CapExceeded):
                        kinds.add("decided past an overflow")
                    else:
                        assert g == w
                        kinds.add("equal" if cap is None else "equal under a cap")
        if cap is None:
            assert "both overflow" not in kinds and "decided past an overflow" not in kinds
    assert {"equal", "equal under a cap"} <= kinds
    if preset_name != "free(2)":  # free(2) has no cell to overflow
        assert "both overflow" in kinds
    # on A3tilde every entry that overflows at cap 16 is one that
    # atom_quotients divides by a reversing row too
    if preset_name not in ("free(2)", "A3tilde"):
        assert "decided past an overflow" in kinds


@pytest.mark.parametrize("preset_name", GOLDEN_PRESETS)
def test_created_elements_hold_least_words(preset_name):
    # atom_quotients rules out the atoms below a's first letter and interns
    # the rest of a's word as least: both rest on every element holding
    # the least word of its class.  Every element that canonical, divisors
    # and atom_quotients create goes into the canonical memo, and each
    # memo entry is the least word of its key's class (class closure as
    # the oracle)
    pres = preset(preset_name)
    ctx = MonoidContext(pres)
    memo = ctx._canon
    seed = zlib.crc32(preset_name.encode())
    created = []
    for a in _seeded_elements(ctx, seed, 12, max_len=7):
        created.append(a)
        for side in Side:
            created.extend(ctx.divisors(a, side))
            created.extend(q for q in ctx.atom_quotients(a, side) if q is not None)
    assert all(memo[e.word] is e for e in created)
    for w, e in memo.items():
        cls = tuple_class(pres, w)
        assert e.word in cls and e.word == min(cls), format_word(pres, w)


def test_peeling_rows_shared_across_threads():
    # a context is safe to share across threads: four threads (more than
    # the cores of a small host) read the same rows of one fresh context,
    # switching often, so they meet new states together; each state keeps
    # one id, and every row is the serial one
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
    for side in Side:
        rows = shared._rows(side)
        assert len(rows.words) == len(rows.next) == len(rows.ids)
        assert all(rows.ids[w] == i for i, w in enumerate(rows.words))


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
    assert (a.word, b.word, side is Side.LEFT) not in ctx._lcm


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
    f = free2.basic_table(Side.RIGHT)
    assert len(f.basics) == 3
    assert all(
        (u == v or IDENTITY in (u, v))
        for (u, v) in f.complement
    )
    b = braid3.basic_table(Side.RIGHT)
    assert {braid3.word_str(x) for x in b.basics} == {"1", "a", "b", "ab", "ba"}
    assert b.C == 3


def test_closure_of_complements(att):
    t = att.basic_table(Side.RIGHT)
    basics = set(t.basics)
    for (u, v), w in t.complement.items():
        assert w in basics


def _random_elements(ctx, rng, count, max_len=4):
    out = []
    for _ in range(count):
        out.append(ctx.canonical(tuple(rng.randrange(ctx.pres.n_atoms) for _ in range(rng.randint(0, max_len)))))
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


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("preset_name", EVERY_PRESET)
def test_peel_matches_full_row(preset_name, side):
    # oracle: the whole reversing row of s against w, run past the letter
    # where s is used up; each path fills the store of its own context
    pres = preset(preset_name)
    new, old = MonoidContext(pres), MonoidContext(pres)
    new_rows, old_store = new._rows(side), old._store(side)

    def full_row(s, w):
        if w and w[0] == s:
            return w[1:]
        r = old._right_reverse(old_store, (s,), w)
        return r[1] if r is not None and not r[0] else None

    rng = random.Random(zlib.crc32(preset_name.encode()))
    inner = 0
    for _ in range(30):
        w = tuple(rng.randrange(pres.n_atoms) for _ in range(rng.randint(0, 10)))
        for s in range(pres.n_atoms):
            q = new._peel(new_rows, s, w)
            assert q == full_row(s, w), (s, w)
            inner += q is not None and w[0] != s
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
            slack = max(2, (C - 2) * min(a.length, b.length))
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
    assert els == sorted(els, key=lambda e: e.sort_key())
    b = braid3.elements_up_to(3)
    assert len({e.length for e in b}) == 4


def elements_up_to_loop(ctx, max_length):
    """The elements of length <= max_length by a breadth-first loop of
    its own, one atom appended at a time: the enumeration
    `elements_up_to` ran before it read `multiples`, kept as its oracle."""
    seen, level = {IDENTITY}, [IDENTITY]
    for _ in range(max_length):
        nxt = []
        for x in level:
            for i in range(ctx.pres.n_atoms):
                y = ctx.canonical(x.word + (i,))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        level = nxt
    return sorted(seen, key=Element.sort_key)


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
            oracle = k43.lcm_oracle(a, b, Side.RIGHT, slack=max(2, min(a.length, b.length)))
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
    t = att.basic_table(Side.RIGHT)
    for u in t.basics:
        assert t.complement[(u, u)] == IDENTITY
        assert t.complement[(IDENTITY, u)] == IDENTITY
        assert t.complement[(u, IDENTITY)] == u


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("preset_name", ["A2tilde", "braid(3)", "braid(4)", "I2(5)", "free(2)"])
def test_atom_complements_match_oracle(preset_name, side):
    ctx = MonoidContext(preset(preset_name))
    t = ctx.basic_table(side)
    slack = 2 * (1 + max((len(l) for l, _ in ctx.pres.relations), default=1))
    for u in ctx.atoms():
        for v in ctx.atoms():
            if u == v:
                continue
            r = ctx.lcm_oracle(u, v, side, slack=slack)
            if r is None:
                assert (u, v) in t.no_multiple and (u, v) not in t.complement
            else:
                assert t.complement[(u, v)] == r[1]


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
        if store.get(((r,), (s,))) is None:
            continue
        for t in range(n):
            if t == r or t == s:
                continue
            one = under(under((r,), (s,)), under((r,), (t,)))
            two = under(under((s,), (r,)), under((s,), (t,)))
            if (one is None) != (two is None) or (
                one is not None and ctx._right_reverse(store, one, two) != ((), ())
            ):
                names = ", ".join(format_word(ctx.pres, (x,)) for x in (r, s, t))
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


def test_mirror_store_is_a_copy():
    # the second side starts from the first side's store as its check left
    # it, not from that store as later reversals filled it
    ctx = MonoidContext(preset("braid(4)"))
    right = ctx._store(Side.RIGHT)
    checked = dict(right)
    ctx.lcm(ctx.element("abcab"), ctx.element("cbacb"), Side.RIGHT)
    assert len(right) > len(checked)
    left = ctx._store(Side.LEFT)
    assert left == checked and left is not right
    ctx.lcm(ctx.element("acb"), ctx.element("bca"), Side.LEFT)
    assert right != left


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
        assert not t.no_multiple and len(t.complement) == 16
        got = {ctx.word_str(u) + ctx.word_str(v): ctx.word_str(w)
               for (u, v), w in t.complement.items() if u.length == v.length == 1 and u != v}
        assert got == pairs
