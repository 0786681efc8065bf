import dataclasses
import itertools
import sys
from fractions import Fraction

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
from words import word


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
        abc: {word(): "1", word(2): "c", word(0, 1, 2, 2): "abcc"},
        x12: {word(): "1", word(1): "x2", word(0, 1, 0): "x1.x2.x1"},
        mixed: {word(): "1", word(0): "a", word(1, 0, 0): "x2.a.a"},
    }
    for p, spelled in cases.items():
        for _ in range(2):  # the names are read once, then reused
            assert {w: format_word(p, w) for w in spelled} == spelled
        assert all(parse_word(p, text) == w for w, text in spelled.items())


def test_format_word_refuses_a_tuple_word():
    # a word is a str; a tuple of atom indices is named as such
    abc = parse_presentation("atoms: a b c\nrel: aba = bab\n")
    with pytest.raises(TypeError, match="^a word is a str, one code point per atom index, not tuple$"):
        format_word(abc, (0, 1))


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


@pytest.mark.parametrize("text", ["a..b", ".a", "a."])
def test_empty_atom_name_refused(text):
    # a "." separates two atom names, so neither side of it is empty
    with pytest.raises(PresentationError, match=f"^empty atom name in word {text!r}$"):
        parse_word(preset("A2tilde"), text)


def test_validate_names_and_homogeneity():
    p = parse_presentation("atoms: a b c\nrel: aba = bab\nrel: bcb = cbc\nrel: cac = aca\n")
    assert validate(p) is p
    ab = ("a", "b")
    with pytest.raises(ValidationFailure, match="homogeneous: 1 non-homogeneous"):
        validate(Presentation("odd", ab, ((word(0, 1), word(1)),)))
    with pytest.raises(ValidationFailure, match="homogeneous"):
        parse_presentation("atoms: a b\nrel: a = b\n")
    with pytest.raises(ValidationFailure, match="atom_names: duplicates"):
        parse_presentation("atoms: a a\n")
    with pytest.raises(ValidationFailure, match="atom_names: bad names: \\['a/b'\\]"):
        parse_presentation("atoms: a/b c\n")
    # a duplicated pair {a, b} is left to the atom table
    dup = Presentation("dup", ab, ((word(0, 1), word(1, 0)), (word(0, 0, 1), word(1, 1, 0))))
    assert validate(dup) is dup
    with pytest.raises(LatticeViolation, match="both start with a and b"):
        MonoidContext(dup).basic_table(Side.RIGHT)


def test_more_atoms_than_code_points_refused():
    # a word spells atom i as the character of code point i, so there are
    # at most sys.maxunicode + 1 atoms.  More are refused before anything
    # spells a word: the count is judged first, so the names here may all
    # be one (index_of reads "a" as the last index, past every code point)
    n = sys.maxunicode + 2
    message = f"^atom_names: {n} atoms, at most {n - 1}$"
    many = Presentation("many", ("a",) * n, ())
    with pytest.raises(ValidationFailure, match=message):
        validate(many)
    with pytest.raises(ValidationFailure, match=message):
        MonoidContext(many)
    with pytest.raises(ValidationFailure, match=message):
        parse_presentation("atoms:" + " a" * n + "\nrel: aa = aa\n")


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
    odd = Presentation("odd", ("a", "b"), ((word(0, 1), word(1)),))
    with pytest.raises(ValidationFailure, match="homogeneous: 1 non-homogeneous"):
        MonoidContext(odd)


def test_atom_index_is_its_position():
    # a presentation holds names only: the word a is read and spelled
    # through the same position, in any declaration order
    ba = Presentation("ba", ("b", "a"), ())
    assert ba.index_of == {"b": 0, "a": 1} and ba.index_of is ba.index_of
    assert parse_word(ba, "a") == word(1) and format_word(ba, word(1)) == "a"
    ctx = MonoidContext(ba)
    assert [ctx.word_str(ctx.element(w)) for w in ("a", "b", "ab")] == ["a", "b", "ab"]
    # two atoms of one name are refused, also when built in code
    with pytest.raises(ValidationFailure, match="atom_names: duplicates"):
        MonoidContext(Presentation("aa", ("a", "a"), ()))


def test_presets():
    att = preset("A2tilde")
    assert att.n_atoms == 3 and len(att.relations) == 3
    b3 = preset("braid(3)")
    assert b3.n_atoms == 2 and len(b3.relations) == 1
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


def _braid_relation(s, t, m):
    return word(*([s, t] * m)[:m]), word(*([t, s] * m)[:m])


# the (s, t, m) triples each preset is built from, one braid relation
# sts... = tst... of m letters a side per triple
LABELS = {
    **{
        f"braid({n})": [(i, j, 2 + (j == i + 1)) for i, j in itertools.combinations(range(n - 1), 2)]
        for n in range(2, 9)
    },
    **{f"free({n})": [] for n in range(1, 5)},
    **{f"I2({m})": [(0, 1, m)] for m in range(2, 10)},
    **{f"K({n},3)": [(i, j, 3) for i, j in itertools.combinations(range(n), 2)] for n in range(3, 7)},
    "A2tilde": [(0, 1, 3), (0, 2, 3), (1, 2, 3)],
    "A3tilde": [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3), (0, 2, 2), (1, 3, 2)],
    "C2tilde": [(0, 1, 4), (1, 2, 4), (0, 2, 2)],
}


@pytest.mark.parametrize("name", LABELS)
def test_coxeter_labels_are_read_off_the_relations(name):
    # keyed by the pair in index order, whichever atom its relation starts with
    assert preset(name).coxeter == {(min(s, t), max(s, t)): m for s, t, m in LABELS[name]}


@pytest.mark.parametrize("name", LABELS)
def test_fc_is_computed_from_the_relations(name):
    # the flags the presets were once built with: braid(n), free(n) and
    # I2(m) are of type FC, the affine presets and K(n,3) are not
    assert MonoidContext(preset(name)).fc is name.startswith(("braid", "free", "I2"))


def test_fc_of_three_atoms_is_the_triangle_rule():
    # three atoms whose pairs all have relations, with labels p, q and r,
    # are of type FC iff they generate a finite Coxeter group, iff 1/p + 1/q
    # + 1/r > 1; a pair with no relation (m = infinity) leaves only pairs
    pairs = ((0, 1), (1, 2), (0, 2))
    for labels in itertools.product((2, 3, 4, 6, None), repeat=3):
        rels = tuple(_braid_relation(s, t, m) for (s, t), m in zip(pairs, labels) if m)
        ctx = MonoidContext(Presentation("triangle", ("a", "b", "c"), rels))
        expected = None in labels or sum(Fraction(1, m) for m in labels) > 1
        assert ctx.fc is expected, labels


def test_a3tilde_is_not_fc_though_every_triple_is_spherical():
    # a check of triples alone would call A3tilde FC: each of its triples
    # has a common multiple, only the four atoms have none
    ctx = MonoidContext(preset("A3tilde"))
    for x, y, z in itertools.combinations(ctx.atoms(), 3):
        assert ctx.lcm(ctx.lcm(x, y, Side.RIGHT)[0], z, Side.RIGHT) is not None
    assert ctx.fc is False


def test_coxeter_needs_one_braid_relation_per_pair():
    # either atom may come first; a relation that is no braid relation, or
    # a second relation on a pair, leaves no labels and no FC decision
    assert parse_presentation("atoms: a b\nrel: bab = aba\n").coxeter == {(0, 1): 3}
    odd = parse_presentation("atoms: a b\nrel: aab = bba\n")
    assert odd.coxeter is None and MonoidContext(odd).fc is None
    two = parse_presentation("atoms: a b\nrel: ab = ba\nrel: aba = bab\n")
    assert two.coxeter is None
    # nothing else sets the licence: a presentation holds no FC flag
    assert "fc" not in {f.name for f in dataclasses.fields(Presentation)}
