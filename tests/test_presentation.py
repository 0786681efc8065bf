import pytest

from multired.monoid import LatticeViolation, MonoidContext, Side
from multired.presentation import (
    Presentation,
    PresentationError,
    PresentationSyntaxError,
    UnknownPreset,
    ValidationFailure,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    preset,
    validate,
)


def test_parse_att():
    p = parse_presentation("atoms: a b c\nrel: aba = bab\nrel: bcb = cbc\nrel: cac = aca\n")
    assert p.atom_names == ("a", "b", "c")
    assert len(p.relations) == 3


def test_parse_free_monoid():
    p = parse_presentation("atoms: a\n")
    assert p.n_atoms == 1 and p.relations == ()


def test_format_word_spelling():
    # one-letter names side by side, longer ones joined by ".", and the
    # empty word as 1; each spelling parses back to its word
    abc = parse_presentation("atoms: a b c\nrel: aba = bab\n")
    x12 = parse_presentation("atoms: x1 x2\nrel: x1.x2.x1 = x2.x1.x2\n")
    mixed = parse_presentation("atoms: a x2\n")
    cases = {
        abc: {(): "1", (2,): "c", (0, 1, 2, 2): "abcc"},
        x12: {(): "1", (1,): "x2", (0, 1, 0): "x1.x2.x1"},
        mixed: {(): "1", (0,): "a", (1, 0, 0): "x2.a.a"},
    }
    for p, spelled in cases.items():
        for _ in range(2):  # the names are read once, then reused
            assert {w: format_word(p, w) for w in spelled} == spelled
        assert all(parse_word(p, text) == w for w, text in spelled.items())


def test_identical_starts_refused_at_first_element():
    # parsing leaves complementedness to the atom table, which names the relation
    ctx = MonoidContext(parse_presentation("atoms: a b\nrel: ab = ab\n"))
    with pytest.raises(LatticeViolation, match="both sides of ab = ab start with a"):
        ctx.element("a")


def test_parse_comments_and_errors():
    p = parse_presentation("# heading\natoms: a b\n# mid\nrel: ab = ba\n")
    assert len(p.relations) == 1
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rel: ab = ba\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("atoms: a b\nrel: ab ba\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("atoms: a b\nnonsense\n")


def test_validate_names_and_homogeneity():
    p = parse_presentation("atoms: a b c\nrel: aba = bab\nrel: bcb = cbc\nrel: cac = aca\n")
    assert validate(p) is p
    ab = ("a", "b")
    with pytest.raises(ValidationFailure, match="homogeneous: 1 non-homogeneous"):
        validate(Presentation("odd", ab, (((0, 1), (1,)),)))
    with pytest.raises(ValidationFailure, match="homogeneous"):
        parse_presentation("atoms: a b\nrel: a = b\n")
    with pytest.raises(ValidationFailure, match="atom_names: duplicates"):
        parse_presentation("atoms: a a\n")
    with pytest.raises(ValidationFailure, match="atom_names: bad names: \\['a/b'\\]"):
        parse_presentation("atoms: a/b c\n")
    # a duplicated pair {a, b} is left to the atom table
    dup = Presentation("dup", ab, (((0, 1), (1, 0)), ((0, 0, 1), (1, 1, 0))))
    assert validate(dup) is dup
    with pytest.raises(LatticeViolation, match="both start with a and b"):
        MonoidContext(dup).basic_table(Side.RIGHT)


def test_atom_named_1_refused():
    # "1" spells the identity: a word over an atom of that name would print
    # as 1 and read back as the identity
    with pytest.raises(ValidationFailure, match="atom_names: bad names: \\['1'\\]"):
        parse_presentation("atoms: 1 b\nrel: 1b1 = b1b\n")
    with pytest.raises(ValidationFailure, match="atom_names: bad names: \\['1'\\]"):
        MonoidContext(Presentation("one", ("1", "b"), ()))
    # a longer name holding the digit is usable
    assert parse_presentation("atoms: x1 b\n").atom_names == ("x1", "b")


def test_context_validates_a_presentation_built_in_code():
    # a Presentation built without parsing is judged when a context takes
    # it: an inhomogeneous relation would leave canonical forms undefined
    odd = Presentation("odd", ("a", "b"), (((0, 1), (1,)),))
    with pytest.raises(ValidationFailure, match="homogeneous: 1 non-homogeneous"):
        MonoidContext(odd)


def test_atom_index_is_its_position():
    # a presentation holds names only: the word a is read and spelled
    # through the same position, in any declaration order
    ba = Presentation("ba", ("b", "a"), ())
    assert ba.index_of == {"b": 0, "a": 1} and ba.index_of is ba.index_of
    assert parse_word(ba, "a") == (1,) and format_word(ba, (1,)) == "a"
    ctx = MonoidContext(ba)
    assert [ctx.word_str(ctx.element(w)) for w in ("a", "b", "ab")] == ["a", "b", "ab"]
    # two atoms of one name are refused, also when built in code
    with pytest.raises(ValidationFailure, match="atom_names: duplicates"):
        MonoidContext(Presentation("aa", ("a", "a"), ()))


def test_presets():
    att = preset("A2tilde")
    assert att.n_atoms == 3 and len(att.relations) == 3
    b3 = preset("braid(3)")
    assert b3.n_atoms == 2 and len(b3.relations) == 1 and b3.fc
    assert preset("braid3").relations == b3.relations
    k43 = preset("K(4,3)")
    assert k43.n_atoms == 4 and len(k43.relations) == 6
    assert all(len(l) == 3 for l, _ in k43.relations)
    assert preset("free(2)").relations == ()
    i25 = preset("I2(5)")
    assert len(i25.relations[0][0]) == 5
    a3t = preset("A3tilde")
    assert a3t.n_atoms == 4 and len(a3t.relations) == 6
    c2t = preset("C2tilde")
    assert max(len(l) for l, _ in c2t.relations) == 4
    with pytest.raises(UnknownPreset):
        preset("nope")
    with pytest.raises(UnknownPreset):
        preset("braid(1)")
    for name in ("A2tilde", "braid(4)", "K(4,3)", "free(3)", "I2(2)", "A3tilde", "C2tilde"):
        p = preset(name)
        assert validate(p) is p, name


def test_roundtrip():
    for name in ("A2tilde", "braid(4)", "K(4,3)", "free(2)", "C2tilde"):
        p = preset(name)
        again = parse_presentation(format_presentation(p), name=p.name)
        assert again.atom_names == p.atom_names
        assert again.relations == p.relations


def test_preset_a2tilde_equals_k33():
    assert preset("A2tilde").relations == preset("K(3,3)").relations
