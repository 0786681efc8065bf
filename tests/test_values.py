"""The value types Element, Multifraction and Move: tuple types that hash
and compare in C.

Each hash is the hash of the tuple of its fields.  A word is a str and a
Move's kind a Side, both hashed with the per-process salt, so these hashes,
and set and dict iteration order, differ from one process to the next; no
output rests on them (tests/test_campaign_golden.py recomputes digests
under two hash seeds).  They are frozen, keep their repr text, and
survive pickling (the campaign pool) and copying.  The tuple is there for
hashing and equality only: no code treats them as sequences.
"""

import copy
import pickle

import pytest

from multired.harness import CONJECTURES, CampaignConfig, run_campaign
from multired.monoid import IDENTITY, Element, MonoidContext, Side
from multired.multifraction import EMPTY, Multifraction
from multired.presentation import preset
from multired.reduction import Move
from words import word

WORD = word(0, 2, 1)
ELEMENT = Element(WORD)
MULTIFRACTION = Multifraction(-1, (ELEMENT, IDENTITY))
MOVE = Move(Side.RIGHT, 2, ELEMENT)
VALUES = {
    "element": ELEMENT, "identity": IDENTITY, "multifraction": MULTIFRACTION,
    "empty": EMPTY, "move": MOVE, "left_move": Move(Side.LEFT, 1, IDENTITY),
}


def test_hash_is_the_hash_of_the_fields():
    assert hash(ELEMENT) == hash((WORD,))
    assert hash(IDENTITY) == hash(("",))
    assert hash(MULTIFRACTION) == hash((-1, (ELEMENT, IDENTITY)))
    assert hash(EMPTY) == hash((1, ()))
    assert hash(MOVE) == hash((Side.RIGHT, 2, ELEMENT))


@pytest.mark.parametrize(
    "name, field",
    [("element", "word"), ("multifraction", "first_sign"), ("multifraction", "entries"),
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
    assert repr(ELEMENT) == r"Element(word='\x00\x02\x01')"
    assert repr(MULTIFRACTION) == (
        r"Multifraction(first_sign=-1, entries=(Element(word='\x00\x02\x01'), Element(word='')))"
    )
    assert repr(EMPTY) == "Multifraction(first_sign=1, entries=())"
    assert repr(MOVE) == (
        r"Move(kind=<Side.RIGHT: 'right'>, level=2, x=Element(word='\x00\x02\x01'))"
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
    # three types refused
    def refuse(self, *args):
        raise TypeError(f"{type(self).__name__} used as a sequence")

    for cls in (Element, Multifraction, Move):
        for name in ("__len__", "__getitem__", "__iter__", "__contains__", "__lt__"):
            monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(TypeError, match="Element used as a sequence"):
        len(ELEMENT)
    ctx = MonoidContext(preset("A2tilde"))
    for kind in CONJECTURES:
        config = CampaignConfig("A2tilde", kind, depth=4, length=16, trials=10, seed=1)
        assert run_campaign(ctx, config).counts == {"confirmed": 10}
