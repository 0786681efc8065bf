"""Cap overflows injected into left move attempts, for the tests of how
verdicts degrade when a move's applicability is unknown.

A left move is tried in two places, both looked up by module-global name:
the move enumeration tries the atoms of one level through
`reduction._level_moves`, and a single move is applied by
`reduction.apply_left` (`red_tame` applies its reducers so).
`overflow_left_moves` wraps both, so an attempt overflows wherever it is
made: an attempt of x at level i of a whose outcome is b (the reduct, or
None when the move does not apply) overflows when when(a, i, x, b) holds.
The enumeration then carries the overflow in its move stream at that
atom's turn, as it does a real one, and apply_left raises it.
"""

from multired import reduction as red
from multired.monoid import ReversingCapExceeded, Side

MESSAGE = "reversing exceeded 0 cell fills"


def overflow_left_moves(monkeypatch, when) -> None:
    level_moves, apply_left = red._level_moves, red.apply_left

    def overflowing_level(ctx, a, side, i, atoms):
        for s, b in level_moves(ctx, a, side, i, atoms):
            if side is Side.LEFT and when(a, i, s, b):
                b = ReversingCapExceeded(MESSAGE)
            yield s, b

    def overflowing_move(ctx, a, i, x):
        b = apply_left(ctx, a, i, x)
        if when(a, i, x, b):
            raise ReversingCapExceeded(MESSAGE)
        return b

    monkeypatch.setattr(red, "_level_moves", overflowing_level)
    monkeypatch.setattr(red, "apply_left", overflowing_move)
