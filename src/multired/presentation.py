"""Monoid presentations: atoms plus homogeneous relations.

A presentation is the ground data for everything else in this package.
Parsing checks the atom names and that every relation is homogeneous
(both sides of the same length, at least 2), which gives a length function
additive under multiplication; a `MonoidContext` runs the same check
(`validate`) on a presentation built in code.  Whether the relations are
complemented (one relation per pair of starting atoms, its sides starting
with distinct atoms) is decided by the atom table of a `MonoidContext`
alone: it refuses a presentation that is not at its first element, with
a LatticeViolation naming the relation.  Whether the relations are
Artin-Tits is read off them too, presets and files alike: `coxeter` gives
the label m of each pair a braid relation covers, or None, and a
`MonoidContext` decides type FC from those labels (`MonoidContext.fc`).

An atom is its name.  Atom order is declaration order, and an atom's
index is its position in `atom_names`.  A word is a str spelled in
indices: its k-th character has the code point of its k-th atom's index,
so there are at most MAX_ATOMS atoms, one per code point.  Index order
fixes every lexicographic tie-break downstream, and code-point order is
index order, so parsing is fully deterministic.  `format_word` spells an
index by position and `parse_word` reads a name through the one
name-to-index map cached on the presentation (`index_of`), so each reads
back what the other writes.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import sys
from dataclasses import dataclass

FORBIDDEN_NAME_CHARS = set("/^-.")
# a word spells atom i as the character with code point i
MAX_ATOMS = sys.maxunicode + 1


class PresentationError(Exception):
    """Base class for presentation parsing/validation failures."""


class PresentationSyntaxError(PresentationError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ValidationFailure(PresentationError):
    """Raised when a structural invariant of a presentation is violated."""


@dataclass(frozen=True)
class Presentation:
    name: str
    # in declaration order: an atom's index is its position
    atom_names: tuple[str, ...]
    # each relation is a pair of words, a word being a str whose k-th
    # character has the code point of its k-th atom's index
    relations: tuple[tuple[str, str], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @functools.cached_property
    def index_of(self) -> dict[str, int]:
        """Each atom name's index, the map words are read through."""
        return {n: i for i, n in enumerate(self.atom_names)}

    @functools.cached_property
    def coxeter(self) -> dict[tuple[int, int], int] | None:
        """The Coxeter labels read off the relations: each pair s < t of
        atom indices that a relation covers, mapped to m, the length of
        that relation's sides; a pair no relation covers has m = infinity.
        None unless every relation is a braid relation sts... = tst... (s
        != t, either atom first) and no two cover one pair."""
        labels: dict[tuple[int, int], int] = {}
        for lhs, rhs in self.relations:
            if not lhs or not rhs or lhs[0] == rhs[0]:
                return None
            s, t, m = ord(lhs[0]), ord(rhs[0]), len(lhs)
            pair = (min(s, t), max(s, t))
            if pair in labels or (lhs, rhs) != (_braid_word(s, t, m), _braid_word(t, s, m)):
                return None
            labels[pair] = m
        return labels

    @functools.cached_property
    def _spelling(self) -> tuple[tuple[str, ...], str]:
        """The atom names and the separator `format_word` joins them with:
        none when every name is one letter, "." otherwise."""
        names = self.atom_names
        return names, "" if all(len(n) == 1 for n in names) else "."


def not_a_word(word) -> TypeError:
    """The error for a word given as anything but a str, such as a tuple
    of atom indices."""
    return TypeError(
        f"a word is a str, one code point per atom index, not {type(word).__name__}"
    )


def format_word(p: Presentation, word: str) -> str:
    if not word:
        return "1"
    names, sep = p._spelling
    try:
        return sep.join([names[ord(c)] for c in word])
    except TypeError:  # ord() of a str's character never raises one
        raise not_a_word(word) from None


def parse_word(p: Presentation, text: str) -> str:
    """Parse a word over the presentation's atom names.

    Tokens separated by '.' are individual atom names, so none is empty.
    A token without '.' is first tried as a whole atom name, otherwise
    read letter by letter (only possible when every letter is a
    single-character atom name).
    """
    text = text.strip()
    if text == "" or text == "1":
        return ""
    by_name = p.index_of
    out: list[str] = []
    for token in text.split("."):
        if not token:
            raise PresentationError(f"empty atom name in word {text!r}")
        if token in by_name:
            out.append(chr(by_name[token]))
            continue
        for ch in token:
            if ch not in by_name:
                raise PresentationError(f"unknown atom {ch!r} in word {text!r}")
            out.append(chr(by_name[ch]))
    return "".join(out)


def validate(p: Presentation) -> Presentation:
    """p, when its atom names are usable and its relations homogeneous;
    raises ValidationFailure otherwise.  There are at most MAX_ATOMS names,
    one per code point, and a name is unusable when it is empty, holds a
    space or a character of FORBIDDEN_NAME_CHARS, or is "1", which spells
    the identity.  Complementedness is left to the atom table of a
    `MonoidContext`."""
    _check_atom_count(p.atom_names)
    bad_names = [
        n
        for n in p.atom_names
        if n in ("", "1") or any(c.isspace() or c in FORBIDDEN_NAME_CHARS for c in n)
    ]
    if bad_names or len(set(p.atom_names)) != len(p.atom_names):
        detail = f"bad names: {bad_names}" if bad_names else "duplicates"
        raise ValidationFailure(f"atom_names: {detail}")
    uneven = sum(len(lhs) != len(rhs) or len(lhs) < 2 for lhs, rhs in p.relations)
    if uneven:
        raise ValidationFailure(f"homogeneous: {uneven} non-homogeneous relation(s)")
    return p


def _check_atom_count(names) -> None:
    if len(names) > MAX_ATOMS:
        raise ValidationFailure(f"atom_names: {len(names)} atoms, at most {MAX_ATOMS}")


def parse_presentation(text: str, name: str = "parsed") -> Presentation:
    """Parse the line-oriented presentation format.

    ``atoms: a b c`` then any number of ``rel: aba = bab`` lines.  ``#``
    starts a comment.  Raises PresentationSyntaxError with a position, or
    ValidationFailure from `validate`.
    """
    partial: Presentation | None = None  # the atoms, once their line is read
    relations: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if partial is not None:
                raise PresentationSyntaxError("duplicate atoms: line", lineno)
            names = line[len("atoms:"):].split()
            if not names:
                raise PresentationSyntaxError("empty atom list", lineno, line.index(":"))
            _check_atom_count(names)  # before a relation spells an atom
            partial = Presentation(name, tuple(names), ())
        elif line.startswith("rel:"):
            if partial is None:
                raise PresentationSyntaxError("rel: before atoms:", lineno)
            body = line[len("rel:"):]
            if "=" not in body:
                raise PresentationSyntaxError("relation without '='", lineno, line.index(":"))
            lhs_text, rhs_text = body.split("=", 1)
            try:
                lhs = parse_word(partial, lhs_text)
                rhs = parse_word(partial, rhs_text)
            except PresentationError as e:
                raise PresentationSyntaxError(str(e), lineno) from e
            relations.append((lhs, rhs))
        else:
            raise PresentationSyntaxError(f"unrecognized line {line!r}", lineno)
    if partial is None:
        raise PresentationSyntaxError("missing atoms: line", 1)
    return validate(dataclasses.replace(partial, relations=tuple(relations)))


def format_presentation(p: Presentation) -> str:
    lines = ["atoms: " + " ".join(p.atom_names)]
    for lhs, rhs in p.relations:
        lines.append(f"rel: {format_word(p, lhs)} = {format_word(p, rhs)}")
    return "\n".join(lines) + "\n"


def _letters(n: int) -> list[str]:
    base = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(base):
        return list(base[:n])
    return [f"s{i}" for i in range(n)]


def _braid_word(s: int, t: int, m: int) -> str:
    return "".join(chr(s if k % 2 == 0 else t) for k in range(m))


def _artin(name: str, n: int, labels) -> Presentation:
    """The Artin-Tits presentation on n atoms named a, b, ...: one braid
    relation sts... = tst... of m letters a side per (s, t, m) triple, in
    the order given, which is the order the atom table reads them in."""
    rels = tuple((_braid_word(s, t, m), _braid_word(t, s, m)) for s, t, m in labels)
    return Presentation(name, tuple(_letters(n)), rels)


class UnknownPreset(PresentationError):
    pass


def preset(name: str) -> Presentation:
    """Standard presentations by name.

    Accepted: A2tilde, A3tilde, C2tilde, K(n,3) for n >= 3, braid(n) for
    n >= 2, free(n) for n >= 1, I2(m) for m >= 2.  Parenthesis-free forms
    like braid3 or K4,3 are accepted too.
    """
    raw = name.strip()
    compact = raw.replace(" ", "")

    if compact in ("A2tilde", "A~2"):
        return dataclasses.replace(preset("K(3,3)"), name="A2tilde")

    m = re.fullmatch(r"K\(?(\d+),(\d+)\)?", compact)
    if m:
        n, label = int(m.group(1)), int(m.group(2))
        if n < 3 or label != 3:
            raise UnknownPreset(f"unsupported complete-graph preset {raw!r}")
        pairs = [(i, j, 3) for i in range(n) for j in range(i + 1, n)]
        return _artin(f"K({n},3)", n, pairs)

    m = re.fullmatch(r"braid\(?(\d+)\)?", compact)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise UnknownPreset("braid(n) needs n >= 2")
        k = n - 1
        pairs = [(i, j, 3 if j == i + 1 else 2) for i in range(k) for j in range(i + 1, k)]
        return _artin(f"braid({n})", k, pairs)

    m = re.fullmatch(r"free\(?(\d+)\)?", compact)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownPreset("free(n) needs n >= 1")
        return _artin(f"free({n})", n, [])

    m = re.fullmatch(r"I2\(?(\d+)\)?", compact)
    if m:
        mm = int(m.group(1))
        if mm < 2:
            raise UnknownPreset("I2(m) needs m >= 2")
        return _artin(f"I2({mm})", 2, [(0, 1, mm)])

    if compact == "A3tilde":
        pairs = [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3), (0, 2, 2), (1, 3, 2)]
        return _artin("A3tilde", 4, pairs)

    if compact == "C2tilde":
        return _artin("C2tilde", 3, [(0, 1, 4), (1, 2, 4), (0, 2, 2)])

    raise UnknownPreset(f"unknown preset {raw!r}")


def preset_names() -> list[str]:
    return ["A2tilde", "A3tilde", "C2tilde", "K(n,3)", "braid(n)", "free(n)", "I2(m)"]
