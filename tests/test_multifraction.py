import random

import pytest
from hypothesis import given, settings, strategies as st

from multired.monoid import IDENTITY, MonoidContext
from multired.multifraction import (
    EMPTY,
    Multifraction,
    MultifractionParseError,
    format_multifraction,
    from_signed_word,
    inverse,
    parse_multifraction,
    product,
    unit,
)
from multired.presentation import preset
from signed_walks import to_signed_word, trim_trailing_units

_CTX = None


def ctx():
    global _CTX
    if _CTX is None:
        _CTX = MonoidContext(preset("A2tilde"))
    return _CTX


@st.composite
def multifractions(draw):
    c = ctx()
    depth = draw(st.integers(0, 5))
    if depth == 0:
        return EMPTY
    sign = draw(st.sampled_from((1, -1)))
    entries = tuple(
        c.canonical(tuple(draw(st.lists(st.integers(0, 2), max_size=3))))
        for _ in range(depth)
    )
    return Multifraction(sign, entries)


def test_unit():
    assert unit(2) == Multifraction(1, (IDENTITY, IDENTITY))
    assert unit(-2) == Multifraction(-1, (IDENTITY, IDENTITY))
    assert unit(0) == EMPTY
    assert unit(2).is_trivial and not EMPTY.is_trivial


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_first_sign_is_checked(sign):
    # a raise, so that python -O keeps it too
    with pytest.raises(ValueError, match="first sign must be"):
        Multifraction(sign, (IDENTITY,))


def test_product_examples(att):
    a = parse_multifraction(att, "ac/ca/ba")
    b = parse_multifraction(att, "/ab/cb/bc")
    assert format_multifraction(att, product(att, a, b)) == "ac/ca/ba/ab/cb/bc"
    x = parse_multifraction(att, "a")
    y = parse_multifraction(att, "b")
    assert format_multifraction(att, product(att, x, y)) == "ab"
    assert product(att, a, EMPTY) == a and product(att, EMPTY, a) == a


def test_inverse_examples(att):
    a = parse_multifraction(att, "bc/cb/ab")
    assert format_multifraction(att, inverse(a)) == "/ab/cb/bc"
    two = parse_multifraction(att, "a/b")
    assert format_multifraction(att, inverse(two)) == "b/a"


@settings(max_examples=80, deadline=None)
@given(multifractions(), multifractions(), multifractions())
def test_product_associative(a, b, c):
    k = ctx()
    assert product(k, product(k, a, b), c) == product(k, a, product(k, b, c))


@settings(max_examples=80, deadline=None)
@given(multifractions(), multifractions())
def test_inverse_antihomomorphism(a, b):
    k = ctx()
    assert inverse(product(k, a, b)) == product(k, inverse(b), inverse(a))
    assert inverse(inverse(a)) == a
    assert inverse(a).depth == a.depth


@settings(max_examples=80, deadline=None)
@given(multifractions(), multifractions())
def test_product_depth(a, b):
    k = ctx()
    d = product(k, a, b).depth
    if a.is_empty or b.is_empty:
        assert d == a.depth + b.depth
    else:
        assert d in (a.depth + b.depth, a.depth + b.depth - 1)


def test_signed_word_roundtrip(att):
    a, b, c = 0, 1, 2
    w = ((a, 1), (b, -1), (c, 1))
    mf = from_signed_word(att, w)
    assert format_multifraction(att, mf) == "a/b/c"
    w2 = ((b, -1), (a, 1))
    assert format_multifraction(att, from_signed_word(att, w2)) == "1/b/a"
    # a c c~ a~ evaluates to ac/ac
    w3 = ((a, 1), (c, 1), (c, -1), (a, -1))
    assert format_multifraction(att, from_signed_word(att, w3)) == "ac/ac"
    assert to_signed_word(mf) == w
    neg = parse_multifraction(att, "/a/b")
    assert to_signed_word(neg) == ((a, -1), (b, 1))
    assert to_signed_word(EMPTY) == ()


@settings(max_examples=100, deadline=None)
@given(multifractions())
def test_to_from_signed_word(a):
    k = ctx()
    if a.is_empty or a.first_sign < 0:
        return
    # trivial entries past the first collapse sign runs, the one ambiguity
    # of the word encoding; everywhere else the round trip is structural
    if any(e.is_identity for e in a.entries[1:]):
        return
    assert from_signed_word(k, to_signed_word(a)) == a


def test_codec(att):
    a = parse_multifraction(att, "1/c/aba")
    assert a.first_sign == 1 and a.depth == 3
    assert att.word_str(a.entry(1)) == "1"
    neg = parse_multifraction(att, "/cbac/ccb/ca")
    assert neg.first_sign == -1 and neg.depth == 3
    assert parse_multifraction(att, "") == EMPTY
    assert format_multifraction(att, EMPTY) == ""
    for text in ("1/c/aba", "/cbac/ccb/ca", "a", "/a"):
        mf = parse_multifraction(att, text)
        assert format_multifraction(att, mf) == text


@pytest.mark.parametrize("text, position", [
    ("/a/zz", 3),
    ("  a/zz", 4),
    (" /zz", 2),
])
def test_parse_error_positions(att, text, position):
    # positions count in the text as given: leading spaces and the
    # leading "/" of a negative multifraction included
    with pytest.raises(MultifractionParseError, match=f"^position {position}: ") as e:
        parse_multifraction(att, text)
    assert e.value.position == position
    assert text[position:position + 2] == "zz"


def test_trim(att):
    a = parse_multifraction(att, "a/b/1/1")
    assert format_multifraction(att, trim_trailing_units(a)) == "a/b"
    assert trim_trailing_units(unit(3)) == EMPTY


def test_weight(att):
    assert parse_multifraction(att, "ac/ca/ba/ab/cb/bc").weight() == 0
    assert parse_multifraction(att, "aba/c").weight() == 2
