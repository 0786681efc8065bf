"""The census presentation <a, b, c | aaa = bac, abb = cbc, bcb = cca>,
read from census.pres, the one copy of it that the tests and the CI's
end-to-end campaign share.  It is a gcd-monoid that is not Artin-Tits,
where the Cunif conjecture fails (ROADMAP.md records the counterexample),
and its two sides' atom tables differ, so its sides share no reversing
store: the rows a truncated division rule reads come from a store that
no preset exercises.
"""

from pathlib import Path

from multired.presentation import parse_presentation, preset

PATH = Path(__file__).with_name("census.pres")
CENSUS = parse_presentation(PATH.read_text(), name="census")


def presentation(name: str):
    """The preset called name, or the census presentation for "census"."""
    return CENSUS if name == "census" else preset(name)
