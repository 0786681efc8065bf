import random

from multired.monoid import MonoidContext
from multired.multifraction import from_signed_word, unit
from multired.presentation import preset
from multired.reduction import reduce_left, reduct_graph
from multired.signedwords import (
    Step,
    TransformKind,
    applicable_steps,
    apply_step,
    free_reduce,
    inverse_word,
)


def letters(text):
    out = []
    for ch in text:
        idx = "abc".index(ch.lower())
        out.append((idx, 1 if ch.islower() else -1))
    return tuple(out)


def test_free_delete(att):
    w = letters("aA")
    steps = applicable_steps(att, w)
    frees = [s for s in steps if s.kind is TransformKind.FREE_DELETE]
    assert len(frees) == 1 and frees[0].position == 0
    assert apply_step(w, frees[0]) == ()


def test_right_reverse(att):
    w = letters("Ab")
    steps = [s for s in applicable_steps(att, w) if s.kind is TransformKind.RIGHT_REVERSE]
    assert len(steps) == 1
    assert apply_step(w, steps[0]) == letters("baBA")


def test_left_reverse_preserves_element(att):
    w = letters("aB")
    steps = [s for s in applicable_steps(att, w) if s.kind is TransformKind.LEFT_REVERSE]
    assert len(steps) == 1
    out = apply_step(w, steps[0])
    assert out == letters("BAba")
    # a b^-1 (b^-1 a^-1 b a)^-1 must represent the unit
    combined = from_signed_word(att, w + inverse_word(out))
    assert reduce_left(att, combined).end == unit(combined.depth)


def test_pos_equiv(att):
    w = letters("aba")
    steps = [s for s in applicable_steps(att, w) if s.kind is TransformKind.POS_EQUIV]
    assert letters("bab") in [apply_step(w, s) for s in steps]


def test_neg_equiv(att):
    w = inverse_word(letters("aba"))
    steps = [s for s in applicable_steps(att, w) if s.kind is TransformKind.NEG_EQUIV]
    assert inverse_word(letters("bab")) in [apply_step(w, s) for s in steps]


def test_enumeration_order(att):
    w = letters("aAba")
    steps = applicable_steps(att, w)
    assert steps == sorted(
        steps, key=lambda s: (s.position, list(TransformKind).index(s.kind))
    )


def test_steps_preserve_group_element():
    for name in ("A2tilde", "braid(4)", "I2(5)", "free(2)"):
        ctx = MonoidContext(preset(name))
        rng = random.Random(4)
        checked = []
        for _ in range(80):
            w = tuple(
                (rng.randrange(ctx.pres.n_atoms), rng.choice((1, -1)))
                for _ in range(rng.randint(2, 6))
            )
            for step in applicable_steps(ctx, w):
                out = apply_step(w, step)
                # w * inverse(out) must represent 1: reduce the evaluation
                combined = w + inverse_word(out)
                mf = from_signed_word(ctx, free_reduce(combined))
                end = reduce_left(ctx, mf).end
                if end != unit(end.depth):
                    g = reduct_graph(ctx, mf)
                    assert g.contains(unit(mf.depth)), (name, w, step)
                checked.append(step.kind)
        assert len(checked) > 40, name
        if ctx.pres.relations:
            reversing = {TransformKind.RIGHT_REVERSE, TransformKind.LEFT_REVERSE}
            assert reversing <= set(checked), name


def test_free_reduce_roundtrip(att):
    rng = random.Random(9)
    for _ in range(100):
        w = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))
        )
        assert free_reduce(w + inverse_word(w)) == ()
