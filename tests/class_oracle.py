"""Rewrite-class closure on words: the reference the tests hold
`MonoidContext`'s reversing-based canonical forms and divisibility to.

It slices the word at every position for every rule, which is slow but
obviously right.
"""

from multired.monoid import Side


def word_class(pres, word: str) -> frozenset[str]:
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


def divides_scan(ctx, x, a, side):
    """Quotient q with x*q = a (LEFT) or q*x = a (RIGHT), else None, by a
    prefix (suffix) scan of every word of a's class."""
    if len(x) > len(a):
        return None
    k = len(x)
    for w in word_class(ctx.pres, a):
        if side is Side.LEFT:
            head, tail = w[:k], w[k:]
        else:
            head, tail = w[len(w) - k:], w[:len(w) - k]
        if ctx.canonical(head) == x:
            return ctx.canonical(tail)
    return None
