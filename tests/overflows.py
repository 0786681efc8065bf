"""Cap overflows injected into left move attempts, for the tests of how
verdicts degrade when a move's applicability is unknown.

A left move is tried in two places, each looked up by module-global
name: every attempt of the atoms of some levels goes through the move
core `reduction._push`, which a walk calls once per node it expands and
a strategy run once per step, stopping at its first attempt that
applies or overflows; and a single move is applied by
`reduction.apply_left` (`red_tame` applies its reducers so), which
calls the core for its x alone.  `overflow_left_moves` wraps the core
and apply_left, and passes the core's calls for x alone through, so an
attempt overflows once wherever it is made: an attempt of x at level i
of a whose outcome is b (the reduct, or None when the move does not
apply) overflows when when(a, i, x, b) holds.  The core lists only the
attempts that applied or overflowed, so the wrapper rebuilds each
level's attempt of every atom, in the call's atom order, with None
where the core gave no entry, before it asks `when`; the list then
carries the overflow at that atom's place, as it does a real one.  A
call that stops at the first attempt stops at the first rebuilt attempt
that applies or overflows, so the run raises that overflow as it raises
a real one; apply_left raises it too.  A test that wraps `_push` again
after this wrapper, to count the nodes a walk expands, sees one call per
node, each with the overflows in its list.
"""

from multired import reduction as red
from multired.monoid import ReversingCapExceeded, Side

MESSAGE = "reversing exceeded 0 cell fills"


def overflow_left_moves(monkeypatch, when) -> None:
    push, apply_left = red._push, red.apply_left

    def overflowing_push(ctx, a, side, frames, order, x=None, first=False):
        if side is not Side.LEFT or x is not None:
            return push(ctx, a, side, frames, order, x, first)
        atoms, every = ctx.atoms(), range(len(ctx.atoms()))
        moves = []
        for frame in frames:
            i = frame[0]
            outcomes = {s: b for _, s, b in push(ctx, a, side, (frame,), every)}
            for t in order:
                s = atoms[t]
                b = outcomes.get(s)
                if when(a, i, s, b):
                    b = ReversingCapExceeded(MESSAGE)
                if b is not None:
                    moves.append((i, s, b))
                    if first:
                        return moves
        return moves

    def overflowing_move(ctx, a, i, x):
        b = apply_left(ctx, a, i, x)
        if when(a, i, x, b):
            raise ReversingCapExceeded(MESSAGE)
        return b

    monkeypatch.setattr(red, "_push", overflowing_push)
    monkeypatch.setattr(red, "apply_left", overflowing_move)
