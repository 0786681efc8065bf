"""The basic-table build `MonoidContext` once followed, kept as the
reference its row-by-row build is held to.

`basic_table` runs the same worklist as the package: each new basic is
reversed once against itself and every earlier one.  Each pair is a
query's reversal (`MonoidContext._reverse`), its whole grid counted
against reversing_cap, cell by cell.  The second side's table is read off
the first one's where the package reads it so (`_mirror_table`), and the
table is kept on the context, as the package keeps it.
"""

from multired.monoid import IDENTITY, BasicTable, sort_key


def basic_table(ctx, side):
    got = ctx._tables.get(side)
    if got is not None:
        return got
    ctx._store(side)
    other = ctx._tables.get(side.other)
    if (
        other is not None
        and ctx._stores[0] is ctx._stores[1]
        and (other.C - 1) ** 2 <= ctx.caps.reversing_cap
        and max(other.C - 1, len(other.basics)) <= ctx.caps.basics_cap
    ):
        return ctx._tables.setdefault(side, ctx._mirror_table(other))
    basics = [IDENTITY, *ctx.atoms()]
    known = set(basics)
    complement = {}
    no_multiple = set()
    for k, u in enumerate(basics):
        for v in basics[: k + 1]:
            r = ctx._reverse(u, v, side)
            if r is None:
                no_multiple.update(((u, v), (v, u)))
                continue
            cu, cv = ctx.canonical(r[0]), ctx.canonical(r[1])
            complement[(u, v)], complement[(v, u)] = cu, cv
            for c in (cu, cv):
                if c not in known:
                    known.add(c)
                    basics.append(c)
            if len(basics) > ctx.caps.basics_cap:
                raise ctx._basics_exceeded()
    table = BasicTable(
        side=side,
        basics=tuple(sorted(basics, key=sort_key)),
        complement=complement,
        no_multiple=frozenset(no_multiple),
    )
    ctx._tables[side] = table
    return table
