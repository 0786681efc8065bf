"""Words as the tests spell them by atom index.

A word of the package is a str whose k-th character has the code point of
its k-th atom's index (`multired.monoid.Word`).  Tests that think in
indices build their words here, so that each reads as the index list it
stands for.
"""

from hypothesis import strategies as st


def word(*atoms: int) -> str:
    """The word of the atom indices `atoms`, in order."""
    return "".join(map(chr, atoms))


def index_words(n_atoms: int, **size) -> st.SearchStrategy[str]:
    """Words over atoms 0 .. n_atoms-1, with st.lists' size bounds."""
    return st.lists(st.integers(0, n_atoms - 1), **size).map(lambda atoms: word(*atoms))
