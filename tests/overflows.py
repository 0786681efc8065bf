"""Cap overflows injected into left move attempts, for the tests of how
verdicts degrade when a move's applicability is unknown.

A left move is tried in two places, both looked up by module-global name:
the move enumeration tries the atoms of some levels through
`reduction._moves`, and a single move is applied by
`reduction.apply_left` (`red_tame` applies its reducers so).
`overflow_left_moves` wraps both, so an attempt overflows wherever it is
made: an attempt of x at level i of a whose outcome is b (the reduct, or
None when the move does not apply) overflows when when(a, i, x, b) holds.
`_moves` lists only the attempts that applied or overflowed, so the
wrapper rebuilds each level's attempt of every atom, with None where
`_moves` gave no entry, before it asks `when`; the enumeration then
carries the overflow at that atom's turn, as it does a real one, and
apply_left raises it.
"""

from multired import reduction as red
from multired.monoid import ReversingCapExceeded, Side

MESSAGE = "reversing exceeded 0 cell fills"


def overflow_left_moves(monkeypatch, when) -> None:
    moves, apply_left = red._moves, red.apply_left

    def overflowing_moves(ctx, a, side, levels):
        found = moves(ctx, a, side, levels)
        if side is not Side.LEFT:
            return found
        outcomes = {(i, s): b for i, s, b in found}
        out = []
        for i in levels:
            for s in ctx.atoms():
                b = outcomes.get((i, s))
                if when(a, i, s, b):
                    b = ReversingCapExceeded(MESSAGE)
                if b is not None:
                    out.append((i, s, b))
        return out

    def overflowing_move(ctx, a, i, x):
        b = apply_left(ctx, a, i, x)
        if when(a, i, x, b):
            raise ReversingCapExceeded(MESSAGE)
        return b

    monkeypatch.setattr(red, "_moves", overflowing_moves)
    monkeypatch.setattr(red, "apply_left", overflowing_move)
