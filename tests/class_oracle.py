"""Rewrite-class closure on atom tuples: the reference for the byte-string
closure in `MonoidContext.canonical`.

It slices the word at every position for every rule, which is slow but
obviously right; the tests compare the package's classes against it.
"""


def tuple_class(pres, word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All words equal to `word` under the relations of `pres`."""
    rules = [rule for lhs, rhs in pres.relations for rule in ((lhs, rhs), (rhs, lhs))]
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for lhs, rhs in rules:
                L = len(lhs)
                for pos in range(len(w) - L + 1):
                    if w[pos:pos + L] == lhs:
                        w2 = w[:pos] + rhs + w[pos + L:]
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
        frontier = nxt
    return frozenset(seen)
