"""The values that hash and compare in C: an element, which is its least
word, a str, and the tuple types Multifraction and Move.

An element's hash is its word's, and the hash of a Multifraction or a
Move is the hash of the tuple of its fields.  A word is a str and a Move's
kind a Side, both hashed with the per-process salt, so these hashes, and
set and dict iteration order, differ from one process to the next; no
output rests on them (tests/test_campaign_golden.py recomputes digests
under two hash seeds).  They are frozen, keep their repr text, and
survive pickling (the campaign pool) and copying.  The tuple of a
Multifraction or a Move is there for hashing and equality only: no code
treats one as a sequence.  An element is a sequence of letters by design.
"""

import copy
import pickle

import pytest

from multired import reduction as red
from multired.harness import CONJECTURES, CampaignConfig, run_campaign
from multired.monoid import IDENTITY, Element, MonoidContext, Side
from multired.multifraction import EMPTY, Multifraction, format_multifraction, parse_multifraction, unit
from multired.presentation import preset
from multired.reduction import Move
from words import word

WORD = word(0, 2, 1)
ELEMENT: Element = WORD
MULTIFRACTION = Multifraction(-1, (ELEMENT, IDENTITY))
MOVE = Move(Side.RIGHT, 2, ELEMENT)
VALUES = {
    "element": ELEMENT, "identity": IDENTITY, "multifraction": MULTIFRACTION,
    "empty": EMPTY, "move": MOVE, "left_move": Move(Side.LEFT, 1, IDENTITY),
}


def test_hash_is_the_hash_of_the_fields():
    assert type(ELEMENT) is str and type(IDENTITY) is str
    assert hash(ELEMENT) == hash(WORD)
    assert hash(IDENTITY) == hash("")
    assert hash(MULTIFRACTION) == hash((-1, (ELEMENT, IDENTITY)))
    assert hash(EMPTY) == hash((1, ()))
    assert hash(MOVE) == hash((Side.RIGHT, 2, ELEMENT))


@pytest.mark.parametrize(
    "name, field",
    [("multifraction", "first_sign"), ("multifraction", "entries"),
     ("move", "kind"), ("move", "level"), ("move", "x")],
)
def test_fields_are_frozen(name, field):
    with pytest.raises(AttributeError):
        setattr(VALUES[name], field, None)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_no_other_attribute_can_be_set(value):
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_text():
    assert repr(MULTIFRACTION) == r"Multifraction(first_sign=-1, entries=('\x00\x02\x01', ''))"
    assert repr(EMPTY) == "Multifraction(first_sign=1, entries=())"
    assert repr(MOVE) == (
        r"Move(kind=<Side.RIGHT: 'right'>, level=2, x='\x00\x02\x01')"
    )


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips_keep_value_and_type(value, round_trip):
    got = round_trip(value)
    assert got == value and type(got) is type(value)
    assert hash(got) == hash(value)


def test_values_are_not_used_as_sequences(monkeypatch):
    # a campaign of each kind runs with every sequence operation of the
    # two tuple types refused
    def refuse(self, *args):
        raise TypeError(f"{type(self).__name__} used as a sequence")

    for cls in (Multifraction, Move):
        for name in ("__len__", "__getitem__", "__iter__", "__contains__", "__lt__"):
            monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(TypeError, match="Multifraction used as a sequence"):
        len(MULTIFRACTION)
    ctx = MonoidContext(preset("A2tilde"))
    for kind in CONJECTURES:
        config = CampaignConfig("A2tilde", kind, depth=4, length=16, trials=10, seed=1)
        assert run_campaign(ctx, config).counts == {"confirmed": 10}


def test_identity_through_every_entry_point():
    # the identity is "", the one falsy element; every entry point that
    # takes an element gives for it what it gave when an element was a
    # one-field tuple, whose identity was truthy (the values below were
    # recorded from that representation)
    ctx = MonoidContext(preset("A2tilde"))  # fresh, so that nothing is memoised

    def spell(x):
        if type(x) is tuple:  # a row or an lcm
            return tuple(map(spell, x))
        return x if x is None else ctx.word_str(x)

    one, a, ab, c = IDENTITY, ctx.element("a"), ctx.element("ab"), ctx.element("c")
    assert spell(ctx.atom_quotients(one, Side.LEFT)) == (None, None, None)
    assert spell(ctx.multiply(one, ab)) == spell(ctx.multiply(ab, one)) == "ab"
    assert spell(ctx.multiply(one, one)) == "1"
    for side, divisors, pushed in ((Side.LEFT, ("1", "a", "ab"), ("ab", "b")),
                                   (Side.RIGHT, ("1", "b", "ab"), ("b", "1"))):
        assert spell(ctx.attach(one, ab, side)) == spell(ctx.attach(ab, one, side)) == "ab"
        assert spell(ctx.divides(one, ab, side)) == "ab"
        assert spell(ctx.divides(ab, one, side)) is None
        assert spell(ctx.divides(one, one, side)) == "1"
        for x, y in ((one, ab), (ab, one), (one, one)):
            assert spell(ctx.gcd(x, y, side)) == "1"
        assert spell(ctx.lcm(one, ab, side)) == ("ab", "1", "ab")
        assert spell(ctx.lcm(ab, one, side)) == ("ab", "ab", "1")
        assert spell(ctx.lcm(one, one, side)) == ("1", "1", "1")
        assert spell(ctx.lcm_attach(one, ab, c, side)) == ("ab", "c")
        assert spell(ctx.lcm_attach(ab, one, c, side)) == ("1", "abc" if side is Side.LEFT else "cab")
        assert spell(ctx.lcm_attach(a, ab, one, side)) == pushed
        assert spell(ctx.lcm_attach(one, one, one, side)) == ("1", "1")
        assert spell(ctx.divisors(one, side)) == ("1",)
        assert spell(ctx.divisors(ab, side)) == divisors
        assert spell(ctx.atom_quotients(one, side)) == (None, None, None)

    def mf(text):
        return parse_multifraction(ctx, text)

    # greatest tame reducers at levels with trivial entries
    for text, i, want in (("1/c/aba", 2, "1"), ("1/1/a", 1, "1"), ("a/b/1", 2, "1"),
                          ("1/1/1/1", 2, "1"), ("1/a/1/b", 2, "1"), ("1/a/1/b", 3, "b")):
        assert spell(red.greatest_tame_reducer(ctx, mf(text), i)) == want
    # red_tame records every level visit, a trivial one with reducer 1
    for text, end, visits in (
        ("1/1/1/1", "1/1/1/1", "1 1 1 1"),
        ("ac/ca/ba/ab/cb/bc", "1/1/1/1/1/1", "1 1 ab cb bc ac bcb bc bc"),
        ("1/a/1/b/1/1", "1/ba/1/1/1/1", "1 1 b 1 1 1 1 1 1"),
    ):
        collect = []
        b = red.red_tame(ctx, mf(text), collect=collect)
        assert format_multifraction(ctx, b) == end
        assert [m.kind for m in collect] == [Side.LEFT] * len(collect)
        assert " ".join(spell(m.x) for m in collect) == visits
    # no move by 1
    for move, message in ((red.apply_left, "reducer"), (red.apply_right, "reducer"),
                          (red.apply_division, "divisor")):
        with pytest.raises(ValueError, match=f"^{message} must be nontrivial$"):
            move(ctx, mf("a/a/a"), 1, one)
    for text, trivial, weight in (("1/1/1", True, 0), ("1/a/1", False, -1), ("", False, 0),
                                  ("a/1/ab", False, 3), ("/1/ab/1", False, 2)):
        assert (mf(text).is_trivial, mf(text).weight()) == (trivial, weight)
    assert unit(2).is_trivial and Multifraction(1, (one, one)).is_trivial
