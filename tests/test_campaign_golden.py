"""Campaign golden: sha256 digests of timing-free campaign reports.

Each digest is the sha256 of `CampaignReport.to_json(include_timing=False)`
dumped as JSON with sorted keys.  The grid runs every conjecture kind on
every preset below at depth 4, length 8, 6 trials, seed 3; three more
campaigns pin how cap overflows degrade Cunif trials to inconclusive, and
two pin Cunif at depth 6 (the campaigns of the CI depth-6 smoke step).  A
change to the reduction or harness code must leave every digest as it is,
under every hash seed.

    PYTHONPATH=src python tests/test_campaign_golden.py

rewrites tests/campaign_golden.json from the code in the checkout.  Run
it only on a commit whose outputs are the reference (the parent of a
change), never to make a failing comparison pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from multired.harness import CampaignConfig, run_campaign
from multired.monoid import Caps, MonoidContext
from multired.presentation import preset
from overflows import overflow_left_moves

GOLDEN = os.path.join(os.path.dirname(__file__), "campaign_golden.json")

PRESETS = ("A2tilde", "A3tilde", "C2tilde", "K(4,3)", "braid(4)", "braid(5)", "free(2)", "I2(5)")
CONJECTURES = ("A", "B", "C", "Cunif", "depth4")
OVERFLOWS = ("graph_node_cap=20", "graph_node_cap=60", "apply_left_level2_c")
DEPTH6 = ("A3tilde", "braid(4)")

_CONTEXTS: dict[tuple, MonoidContext] = {}


def _context(name: str, caps: Caps = Caps()) -> MonoidContext:
    key = (name, caps)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = MonoidContext(preset(name), caps)
    return _CONTEXTS[key]


def _digest(report) -> str:
    text = json.dumps(report.to_json(include_timing=False), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def grid_digest(name: str, conjecture: str) -> str:
    config = CampaignConfig(name, conjecture, depth=4, length=8, trials=6, seed=3)
    return _digest(run_campaign(_context(name), config))


def overflow_digest(case: str) -> str:
    """Cunif on A2tilde, length 16, 20 trials, seed 1, under one overflow."""
    config = CampaignConfig("A2tilde", "Cunif", depth=4, length=16, trials=20, seed=1)
    if case.startswith("graph_node_cap="):
        caps = Caps(graph_node_cap=int(case.split("=")[1]))
        return _digest(run_campaign(_context("A2tilde", caps), config))
    assert case == "apply_left_level2_c"
    ctx = _context("A2tilde")
    c = ctx.element("c")
    with pytest.MonkeyPatch.context() as mp:
        overflow_left_moves(mp, lambda a, i, x, b: i == 2 and x == c)
        return _digest(run_campaign(ctx, config))


def depth6_digest(name: str) -> str:
    """Cunif at depth 6, length 18, 20 trials, seed 1."""
    config = CampaignConfig(name, "Cunif", depth=6, length=18, trials=20, seed=1)
    return _digest(run_campaign(_context(name), config))


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("conjecture", CONJECTURES)
@pytest.mark.parametrize("name", PRESETS)
def test_campaign_grid(name, conjecture):
    assert grid_digest(name, conjecture) == _golden()["grid"][f"{conjecture} {name}"]


@pytest.mark.parametrize("case", OVERFLOWS)
def test_campaign_overflow(case):
    assert overflow_digest(case) == _golden()["overflow"][case]


@pytest.mark.parametrize("name", DEPTH6)
def test_campaign_depth6(name):
    assert depth6_digest(name) == _golden()["depth6"][name]


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    # an element is its word, a str, whose hash is salted per process, and
    # a Move hashes its Side by name: the hashes of elements, Multifraction
    # and Move, and the order of every set of them, change with the hash
    # seed.  A report does not: one digest of each kind, recomputed in a
    # process of its own
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    code = (
        "from test_campaign_golden import depth6_digest, grid_digest, overflow_digest\n"
        "print(grid_digest('A3tilde', 'Cunif'), overflow_digest('graph_node_cap=60'),"
        " depth6_digest('braid(4)'))"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join([src, tests])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    golden = _golden()
    assert run.stdout.split() == [
        golden["grid"]["Cunif A3tilde"],
        golden["overflow"]["graph_node_cap=60"],
        golden["depth6"]["braid(4)"],
    ]


if __name__ == "__main__":
    golden = {
        "grid": {
            f"{conj} {name}": grid_digest(name, conj)
            for name in PRESETS
            for conj in CONJECTURES
        },
        "overflow": {case: overflow_digest(case) for case in OVERFLOWS},
        "depth6": {name: depth6_digest(name) for name in DEPTH6},
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, golden.values()))} digests to {GOLDEN}")
