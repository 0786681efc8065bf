"""The rule `MonoidContext.atom_quotients` once followed, kept as the
reference its rows are held to: every atom is peeled off the element's
word, by a reversing row read cell by cell off the other side's store,
and every quotient found is made canonical and multiplied back.

It reads nothing of the element's word but its letters: no atom is ruled
out or divided off by its place in the least word.  Like the package's
rows, a row charges no cap: it overflows only where a reversing store
cannot be built, or where a nested reversal meets `_cell`'s basics_cap
guard.
"""

from multired.monoid import CapExceeded, InternalInvariantError, Side


def peel(ctx, store, s, w):
    """The q with s*q = w, or None: one reversing row of s against w over
    `store`, which stops where s is used up."""
    x = chr(s)
    if w and w[0] == x:
        return w[1:]
    stack, out = set(), []
    for j, t in enumerate(w):
        r = ctx._cell(store, x, t, stack)
        if r is None:
            return None
        x, c = r
        out.append(c)
        if not x:
            return "".join(out) + w[j + 1:]
    return None


def atom_quotients(ctx, a, side):
    """For each atom s, the q with attach(q, s, side) == a, None, or the
    CapExceeded its division or check raised; nothing is memoised."""
    left = side is Side.LEFT
    if not a.word:
        return (None,) * ctx.pres.n_atoms
    w = a.word if left else a.word[::-1]
    out = []
    for s, atom in enumerate(ctx.atoms()):
        try:
            q = peel(ctx, ctx._store(side.other), s, w)
            if q is not None:
                q = ctx.canonical(q if left else q[::-1])
                if ctx.attach(q, atom, side) != a:
                    raise InternalInvariantError(f"wrong quotient of {a} by {atom}")
        except CapExceeded as e:
            q = e
        out.append(q)
    return tuple(out)
