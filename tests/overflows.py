"""Cap overflows injected into left move attempts, for the tests of how
verdicts degrade when a move's applicability is unknown.

A left move is tried in three places, each looked up by module-global
name: the walks try the atoms of some levels through `reduction._moves`,
a strategy run takes its next move from `reduction._first_move`, and a
single move is applied by `reduction.apply_left` (`red_tame` applies its
reducers so).  `overflow_left_moves` wraps all three, so an attempt
overflows wherever it is made: an attempt of x at level i of a whose
outcome is b (the reduct, or None when the move does not apply)
overflows when when(a, i, x, b) holds.  `_moves` lists only the
attempts that applied or overflowed, so the wrapper rebuilds each
level's attempt of every atom, with None where `_moves` gave no entry,
before it asks `when`; the enumeration then carries the overflow at that
atom's turn, as it does a real one.  A run's step rebuilds the attempts
of the run's levels and atom order in the same way, from that stream,
and raises at the first that overflows unless an attempt before it
applied, as `_first_move` raises a real one; apply_left raises it too.
"""

from multired import reduction as red
from multired.monoid import CapExceeded, ReversingCapExceeded, Side

MESSAGE = "reversing exceeded 0 cell fills"


def overflow_left_moves(monkeypatch, when) -> None:
    moves, first_move, apply_left = red._moves, red._first_move, red.apply_left

    def attempts(ctx, a, levels, atoms):
        # every left attempt at the levels, in the order given, overflowed
        # where `when` holds
        for i in levels:
            outcomes = {s: b for _, s, b in moves(ctx, a, Side.LEFT, (i,))}
            for s in atoms:
                b = outcomes.get(s)
                if when(a, i, s, b):
                    b = ReversingCapExceeded(MESSAGE)
                yield i, s, b

    def overflowing_moves(ctx, a, side, levels):
        if side is not Side.LEFT:
            return moves(ctx, a, side, levels)
        return [m for m in attempts(ctx, a, levels, ctx.atoms()) if m[2] is not None]

    def overflowing_step(ctx, a, side, frames, order):
        if side is not Side.LEFT:
            return first_move(ctx, a, side, frames, order)
        atoms = [ctx.atoms()[t] for t in order]
        for i, s, b in attempts(ctx, a, [f[0] for f in frames], atoms):
            if isinstance(b, CapExceeded):
                raise b
            if b is not None:
                return i, s, b
        return None

    def overflowing_move(ctx, a, i, x):
        b = apply_left(ctx, a, i, x)
        if when(a, i, x, b):
            raise ReversingCapExceeded(MESSAGE)
        return b

    monkeypatch.setattr(red, "_moves", overflowing_moves)
    monkeypatch.setattr(red, "_first_move", overflowing_step)
    monkeypatch.setattr(red, "apply_left", overflowing_move)
