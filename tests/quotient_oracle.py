"""The reversing rules `MonoidContext` once followed, kept as the
references its kernel and its quotient rows are held to.

`right_reverse` reverses a against b cell by cell: every cell of the grid
is filled, a trivial one included, and each counts against
reversing_cap when the reversal is a query's (made without a `stack`).
`cell` fills one cell, reversing a cell the store lacks by a nested
`right_reverse` and storing it, with basics_cap as the one guard on a
nested reversal.  Neither calls the context's kernel: they read its caps
and the store they are given.

`atom_quotients` peels every atom off the element's word, by a reversing
row read cell by cell off the other side's store, and makes every
quotient found canonical and multiplies it back.  It reads nothing of the
element's word but its letters: no atom is ruled out or divided off by
its place in the least word.  Like the package's rows, a row charges no
cap: it overflows only where a reversing store cannot be built, or where
a nested reversal meets `cell`'s basics_cap guard.
"""

from multired.monoid import (
    BasicsCapExceeded,
    CapExceeded,
    InternalInvariantError,
    ReversingCapExceeded,
    Side,
)

_MISSING = object()


def right_reverse(ctx, store, a, b, stack=None):
    """(a past b, b past a) over `store`, or None when a and b have no
    common multiple: one row per letter of a, one cell per letter of b,
    every cell filled and, for a query's reversal, counted."""
    if stack is None:
        stack, cap = set(), ctx.caps.reversing_cap
    else:
        cap = len(a) * len(b)
    cells = 0
    top = list(b)
    ends = []
    for x in a:
        for j, t in enumerate(top):
            cells += 1
            if cells > cap:
                raise ReversingCapExceeded(f"reversing exceeded {cap} cell fills")
            r = cell(ctx, store, x, t, stack)
            if r is None:
                return None
            x, top[j] = r
        ends.append(x)
    return "".join(ends), "".join(top)


def cell(ctx, store, x, t, stack):
    """One grid cell: (x past t, t past x) from the store, or reversed
    letter by letter and stored; a pair met again while it is being
    reversed has no common multiple."""
    if not x or not t:
        return x, t
    if x == t:
        return "", ""
    got = store.get((x, t), _MISSING)
    if got is _MISSING:
        if len(x) == len(t) == 1 or (x, t) in stack or (t, x) in stack:
            got = None
        else:
            if max(len(x), len(t)) > ctx.caps.basics_cap:
                raise BasicsCapExceeded(
                    f"basic-element closure exceeds basics_cap={ctx.caps.basics_cap}; "
                    "finiteness not witnessed"
                )
            stack.add((x, t))
            try:
                got = right_reverse(ctx, store, x, t, stack)
            finally:
                stack.discard((x, t))
        store[(x, t)] = got
        store[(t, x)] = None if got is None else (got[1], got[0])
    return got


def peel(ctx, store, s, w):
    """The q with s*q = w, or None: one reversing row of s against w over
    `store`, which stops where s is used up."""
    x = chr(s)
    if w and w[0] == x:
        return w[1:]
    stack, out = set(), []
    for j, t in enumerate(w):
        r = cell(ctx, store, x, t, stack)
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
    if not a:
        return (None,) * ctx.pres.n_atoms
    w = a if left else a[::-1]
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
