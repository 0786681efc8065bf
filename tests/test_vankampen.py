import hashlib
import json
import random

import pytest

from multired.multifraction import Multifraction, format_multifraction, parse_multifraction, unit
from multired import harness as H
from multired import reduction as red
from multired import vankampen as vk
from multired.vankampen import (
    VanKampenFailure,
    VKEdge,
    validate_diagram,
    van_kampen,
)


def test_trivial_depth4(att):
    d = van_kampen(att, unit(4))
    assert len(d.vertices) == 5 and len(d.triangles) == 4
    assert not any(e.label for e in d.edges.values())


def test_depth6_shape(att):
    a = parse_multifraction(att, "ab/ba/ca/ac/bc/cb")
    d = van_kampen(att, a)
    assert len(d.vertices) == 14  # 6 outer, 3 inner, 4 cell centers, 1 hub
    assert len(d.triangles) == 20
    payload = d.to_json(att)
    assert payload["depth"] == 6 and len(payload["boundary"]) == 6


def test_att2_six_multifraction(att):
    a = parse_multifraction(att, "ac/ca/ba/ab/cb/bc")
    d = van_kampen(att, a)
    assert len(d.vertices) == 14


def test_replayed_step_that_fails_to_apply_is_an_invariant_error(att, monkeypatch):
    # a traced step that does not apply on replay is caught by a raise that
    # python -O keeps, not by an attribute error on None
    calls = []

    def none_once(ctx, c, i, x):
        calls.append(i)
        return None if len(calls) == 1 else red.apply_left(ctx, c, i, x)

    monkeypatch.setattr(vk, "apply_left", none_once)
    with pytest.raises(red.InternalInvariantError, match="does not apply on replay"):
        van_kampen(att, parse_multifraction(att, "ac/ca/ba/ab/cb/bc"))
    assert len(calls) == 1  # raised at the first replayed step


# diagrams of depth 8 and up nest one annulus inside another; the digests
# pin edge ids, orientations and triangle order of their middle cells,
# which meet levels of both signs
@pytest.mark.parametrize("text, digest", [
    ("ab/ba/c/ac/1/1/aba/ab",
     "22b787c059e9ecff154560772c09aa7ffd399edd9c7e27ebff6ffee7a6e69105"),
    ("1/bcba/bcb/1/aba/ba/1/bc/bc/1",
     "66e213f49b0618f40a5ca1f1b08237a289b082a65d80846ff237d8f3eb523b8f"),
    ("ab/ba/ca/ac/bc/cb",
     "dcf83ce0bac13dd75c92b1fede7145d99399352205a31faa7934c4698c1d280c"),
])
def test_diagram_json_pinned(att, text, digest):
    a = parse_multifraction(att, text)
    d = van_kampen(att, a)
    validate_diagram(att, d, a)
    payload = json.dumps(d.to_json(att), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_non_unital_fails(att):
    with pytest.raises(VanKampenFailure):
        van_kampen(att, parse_multifraction(att, "a/b/1/1"))


def test_odd_or_small_depth_rejected(att):
    with pytest.raises(ValueError):
        van_kampen(att, unit(3))
    with pytest.raises(ValueError):
        van_kampen(att, unit(2))


def test_validation_catches_tampering(att):
    d = van_kampen(att, unit(4))
    eid = d.boundary[0]
    edge = d.edges[eid]
    d.edges[eid] = VKEdge(edge.src, edge.dst, att.element("a"))
    with pytest.raises(VanKampenFailure):
        validate_diagram(att, d, unit(4))


def _swap_path(d, a):
    e1, e2, e3 = d.triangles[0]
    d.triangles[0] = (e2, e1, e3)
    return rf"^triangle \('{e2}', '{e1}', '{e3}'\) is not a path pair$"


def _drop_entry(d, a):
    d.boundary.pop()
    return "^boundary length mismatch$"


def _relabel(d, a):
    d.boundary[0] = next(k for k, e in d.edges.items() if e.label != a.entry(1))
    return "^boundary entry 1 label mismatch$"


def _detach(d, a):
    d.edges["loose"] = VKEdge("nowhere", "nowhere", a.entry(2))
    d.boundary[1] = "loose"
    return "^boundary entry 2 detached$"


def _open_end(d, a):
    # entry 6 is negative: its edge is walked from dst to src
    e = d.edges[d.boundary[-1]]
    d.edges["loose"] = VKEdge("nowhere", e.dst, e.label)
    d.boundary[-1] = "loose"
    return "^boundary does not close at the base vertex$"


@pytest.mark.parametrize("tamper", [_swap_path, _drop_entry, _relabel, _detach, _open_end],
                         ids=lambda f: f.__name__.strip("_"))
def test_validation_names_each_defect(att, tamper):
    # one defect per diagram, each refused by its own check; the diagram
    # as built passes
    a = parse_multifraction(att, "ab/ba/ca/ac/bc/cb")
    d = van_kampen(att, a)
    validate_diagram(att, d, a)
    assert a.sign(6) < 0
    message = tamper(d, a)
    with pytest.raises(VanKampenFailure, match=message):
        validate_diagram(att, d, a)


def test_batch_depths_4_and_6(att):
    rng = random.Random(77)
    built = 0
    tries = 0
    while built < 30 and tries < 120:
        tries += 1
        depth = 4 if tries % 2 else 6
        a, _ = H.gen_central_cross(att, depth, 2, rng.randrange(10**9))
        if rng.random() < 0.4:
            draws = random.Random(rng.randrange(10**9))
            b = H.lcm_expand(att, a, choices=H._random_left_divisors(att, a, draws))
            if b is not None and b.total_length() <= 22:
                a = b
        if red.red_tame(att, a) != unit(depth):
            continue
        d = van_kampen(att, a)
        validate_diagram(att, d, a)
        built += 1
    assert built >= 30
