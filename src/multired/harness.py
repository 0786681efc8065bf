"""Experimental harness: generators of unital multifractions, conjecture
testers, depth-4 central-cross machinery, bounded 3-Ore scans, the word
problem, and seeded campaign runs.

Verdict discipline: cap overflows degrade verdicts to "inconclusive", and
a "counterexample" is reported only when nothing was left undecided.  It
lives in two decisions.  Whether some roots left-reduce to some targets
is one search, `red.reaches`, exact when it counts no undecided move:
`_reaches_trivial` asks it whether a reaches the trivial multifraction,
for Conjecture A, the word problem and the depth-4 check, after one
strategy run that ends elsewhere or overflows a cap, and the
four-strategy probe asks it which strategy left ends each strategy
right end reaches.  `LeftClosures.common` gives the common left reducts
of the walked roots and whether that set is exact, for the Cunif tester, which
confirms only over a complete right walk (`right_roots`, which keeps no
edges), and walks left closures from a and from no other right reduct
whose closure holds another right reduct, as such a closure changes no
intersection.  A central cross is
its tuple of rays: `assemble_cross` builds the multifraction from them, and
`has_central_cross` reads them back off a depth-4 one.  The A and B
testers take a certificate of unitality with their input, the
lcm-expansion chain that built it from a central cross, and replay it
first; the replay rejects malformed steps, and a failed replay raises.
Negative word-problem answers are unconditional for presentations whose
relations are Artin-Tits of FC type, files included, which the context
decides from the relations (`MonoidContext.fc`), and whenever the signed
length is nonzero; conditional on semi-convergence otherwise.  The 3-Ore scan
reads each lcm as it comes: a tuple, None, or an overflow that leaves its
triple inconclusive.

A campaign's kind is one of CONJECTURES, which the command line offers
as its choices.  `run_campaign` refuses, before any trial and before a
worker pool starts, a kind not among them, settings the kind would not
read or could not run (`check_config`), and a config naming a preset
other than its context's.  The number of lcm-expansion steps of an A or
B input is fixed, not a setting (`CampaignConfig.expansions`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field

from .monoid import (
    CapExceeded,
    Element,
    IDENTITY,
    InternalInvariantError,
    LEFT,
    MonoidContext,
    MultiredError,
    RIGHT,
    Side,
)
from .multifraction import (
    Multifraction,
    SignedWord,
    format_multifraction,
    from_signed_word,
    parse_multifraction,
)
from .presentation import PresentationError
from . import reduction as red
from .reduction import (
    Move,
    apply_left,  # part of this namespace: perfbench/test_perfbench.py traces it here
    apply_move,
    red_tame,
    red_tame_fixpoint,
    reduce_left,
    reduce_right,
    reduct_graph,
)


def derive_seed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# certificates and verdicts


@dataclass(frozen=True)
class UnitalCertificate:
    kind: str  # lcm_expansion_chain, the one kind replayed
    payload: dict


@dataclass
class Verdict:
    status: str  # confirmed | counterexample | inconclusive
    evidence: dict = field(default_factory=dict)


def assemble_cross(ctx: MonoidContext, rays, first_sign: int = 1) -> Multifraction:
    """Entries from a ray sequence: entry i is x_i*x_{i+1} at positive
    indices and x_{i+1}*x_i at negative ones, indices wrapping."""
    rays = tuple(rays)
    n = len(rays)
    if n % 2 != 0 or n < 2:
        raise ValueError("central crosses need even depth >= 2")
    shell = Multifraction(first_sign, (IDENTITY,) * n)
    entries = tuple(
        ctx.attach(rays[i - 1], rays[i % n], red.due_side(shell, i)) for i in range(1, n + 1)
    )
    return Multifraction(first_sign, entries)


def _replay_elements(ctx: MonoidContext, texts) -> list[Element] | None:
    """The elements a certificate spells, None unless texts is a list of
    words over the atoms."""
    if type(texts) is not list or not all(type(t) is str for t in texts):
        return None
    try:
        return [ctx.element(t) for t in texts]
    except PresentationError:
        return None


def validate_certificate(ctx: MonoidContext, a: Multifraction, cert: UnitalCertificate) -> bool:
    """Replay an lcm-expansion chain and check that it ends at a: the
    central cross on the payload's "rays", expanded once per entry of its
    "choices", is unital.  Any other kind, and a malformed payload, proves
    nothing: the replay returns False."""
    payload = cert.payload
    if cert.kind != "lcm_expansion_chain" or type(payload) is not dict:
        return False
    rays = _replay_elements(ctx, payload.get("rays"))
    chain = payload.get("choices")
    # crosses have even depth >= 2
    if rays is None or len(rays) % 2 or not rays or type(chain) is not list:
        return False
    cur = assemble_cross(ctx, rays)
    for texts in chain:
        choices = _replay_elements(ctx, texts)
        if choices is None or len(choices) != cur.depth:
            return False
        cur = lcm_expand(ctx, cur, choices=choices)
        if cur is None:
            return False
    return cur == a


# ----------------------------------------------------------------------
# generators


def gen_element(ctx: MonoidContext, length: int, seed: int) -> Element:
    if not length:
        return IDENTITY  # no letter to draw, so no generator to seed
    rng = random.Random(seed)
    word = "".join(chr(rng.randrange(ctx.pres.n_atoms)) for _ in range(length))
    e = ctx.canonical(word)
    if len(e) != length:
        raise InternalInvariantError(
            f"a word of length {length} has the canonical form {ctx.word_str(e)}"
        )
    return e


def gen_multifraction(ctx: MonoidContext, depth: int, max_entry_len: int, seed: int) -> Multifraction:
    rng = random.Random(seed)
    entries = [
        gen_element(ctx, rng.randint(0, max_entry_len), derive_seed(seed, i))
        for i in range(depth)
    ]
    return Multifraction(1, tuple(entries))


def gen_central_cross(
    ctx: MonoidContext, depth: int, ray_length: int, seed: int
) -> tuple[Multifraction, tuple[Element, ...]]:
    """Multifraction with a random central cross, and the cross's rays,
    each of length up to ray_length; unital by construction.  The depth
    is `assemble_cross`'s to check."""
    rays = gen_multifraction(ctx, depth, ray_length, seed).entries
    return assemble_cross(ctx, rays), rays


def _random_left_divisors(ctx: MonoidContext, a: Multifraction, rng: random.Random) -> list[Element]:
    """One uniformly drawn left divisor of each entry, in entry order."""
    choices = []
    for i in range(1, a.depth + 1):
        divs = ctx.divisors(a.entry(i), LEFT)
        choices.append(divs[rng.randrange(len(divs))])
    return choices


def lcm_expand(
    ctx: MonoidContext, a: Multifraction, choices: list[Element]
) -> Multifraction | None:
    """One lcm-expansion step of an even-depth unital multifraction.

    `choices` holds a left divisor a'_i of each entry, in entry order
    (`_random_left_divisors` draws them).  At each source vertex
    (negative index i) the right lcm of a'_i and a'_{i+1} contributes the
    second factors of the new entries; at each sink vertex (positive
    index i) the left lcm of the remainders a''_i and a''_{i+1}
    contributes the first factors.  Indices wrap.
    Returns None when a choice does not left-divide its entry or a
    required lcm does not exist.  The result is conjugate to a in the
    enveloping group, hence unital when a is.
    """
    n = a.depth
    if n % 2 != 0 or n < 2:
        raise ValueError("lcm expansion needs even depth")
    seconds = [ctx.divides(d, a.entry(i), LEFT) for i, d in enumerate(choices, 1)]
    if any(q is None for q in seconds):
        return None

    bp: dict[int, Element] = {}
    bpp: dict[int, Element] = {}
    for i in range(1, n + 1):
        # a source vertex gives b''_{i-1} and b''_i, a sink vertex b'_{i-1} and b'_i
        if a.sign(i) < 0:
            parts, side, out = choices, RIGHT, bpp
        else:
            parts, side, out = seconds, LEFT, bp
        r = ctx.lcm(parts[i - 1], parts[i % n], side)
        if r is None:
            return None
        _, compA, compB = r  # m = attach(part i, compB) = attach(part i+1, compA)
        out[(i - 2) % n + 1] = compB
        out[i] = compA
    entries = tuple(ctx.multiply(bp[i], bpp[i]) for i in range(1, n + 1))
    return Multifraction(a.first_sign, entries)


# ----------------------------------------------------------------------
# conjecture testers


def _reaches_trivial(ctx: MonoidContext, a: Multifraction) -> Verdict:
    """Does a left-reduce to the trivial multifraction?  Confirmed by one
    `low_lex` run ("steps", "trace_levels") or, when the run ends
    elsewhere or overflows a cap, by a search of the left reduct graph
    (`red.reaches`; "via": "graph", "nodes" the nodes it found).  A
    counterexample ("nodes") is read only off a search that missed with
    no undecided move; a search past its cap ("reason") or one that
    missed with overflowed moves ("incomplete_edges") is inconclusive.
    Conjecture A, the word problem and the depth-4 check all ask this."""
    try:
        tr = reduce_left(ctx, a)
        if tr.end.is_trivial:
            return Verdict(
                "confirmed",
                {"trace_levels": [m.level for m in tr.moves], "steps": len(tr.moves)},
            )
    except CapExceeded:  # the search counts the overflowed attempt as undecided
        pass
    trivial = Multifraction(a.first_sign, (IDENTITY,) * a.depth)
    try:
        (hit,), nodes, undecided = red.reaches(ctx, [a], [trivial])
    except CapExceeded as e:
        return Verdict("inconclusive", {"reason": str(e)})
    if hit:
        return Verdict("confirmed", {"via": "graph", "nodes": nodes})
    if not undecided:
        return Verdict("counterexample", {"nodes": nodes})
    return Verdict("inconclusive", {"incomplete_edges": undecided})


def test_conjecture_A(
    ctx: MonoidContext, a: Multifraction, certificate: UnitalCertificate
) -> Verdict:
    """Semi-convergence on one unital instance: a must reduce to the
    trivial multifraction (`_reaches_trivial`)."""
    if not validate_certificate(ctx, a, certificate):
        raise MultiredError("certificate does not prove the input unital")
    verdict = _reaches_trivial(ctx, a)
    if verdict.status == "counterexample":
        verdict.evidence["certificate"] = certificate.kind
    return verdict


def test_conjecture_B(
    ctx: MonoidContext, a: Multifraction, certificate: UnitalCertificate
) -> Verdict:
    """One tame pass must trivialize a unital multifraction.  The iterated
    fixpoint is recorded alongside (a single pass is what the conjecture
    asserts)."""
    if not validate_certificate(ctx, a, certificate):
        raise MultiredError("certificate does not prove the input unital")
    out = red_tame(ctx, a)
    fix, iters = red_tame_fixpoint(ctx, out)  # out is the first pass from a
    evidence = {
        "red_tame": format_multifraction(ctx, out),
        "fixpoint": format_multifraction(ctx, fix),
        "fixpoint_iterations": iters + (out != a),
    }
    if out.is_trivial:
        return Verdict("confirmed", evidence)
    return Verdict("counterexample", evidence)


def test_conjecture_C_uniform(ctx: MonoidContext, a: Multifraction) -> Verdict:
    """Uniform cross-confluence on one instance: a single d with every
    right reduct of a left-reducing to d.  The two natural candidates
    (the tame reduct and the latest common ancestor of the irreducible
    left reducts) are evaluated alongside the witness set.

    One breadth-first right walk that keeps no edges (`right_roots`) gives
    the right reducts and the roots of the left walk: a and every right
    reduct with no division move out (a division is a left move too).  The
    left closures are walked from those roots in one walk of their shared
    left graph (`left_closures`), with the right reducts as targets: a root
    after a whose closure holds another right reduct is left out, found by a
    breadth-first search, and the cap fires on the right walk and on the
    left walks and searches alone.  The witnesses are the common reducts of
    the roots walked (`LeftClosures.common`), exact when those closures are
    complete; the irreducible left reducts of a, the first root walked, are
    the sinks in its closure, and a latest common ancestor is a member of
    a's closure whose closure holds them all and none of whose reducts'
    closures does.  Walked closures that hold an overflowed move attempt
    make the witnesses a lower bound, and the evidence counts those
    attempts, each once (`LeftClosures.common`, "incomplete_closure_edges");
    with no witness the trial is then inconclusive.  An incomplete right
    walk leaves the trial inconclusive with its count of undecided moves
    ("incomplete_right_edges")."""
    try:
        reducts, roots, undecided_right = red.right_roots(ctx, a)
        lc = red.left_closures(ctx, roots, reducts)
    except CapExceeded as e:
        return Verdict("inconclusive", {"reason": str(e)})
    common, undecided_left = lc.common()
    witnesses = set(common)
    irr = lc.irreducible()  # a is the first root walked
    lca = lc.latest_common_ancestors(irr) if irr else []
    try:
        tame = red_tame(ctx, a)
    except CapExceeded:  # the witnesses still decide
        tame = None
    evidence = {
        "right_reducts": len(reducts),
        "witnesses": sorted(format_multifraction(ctx, w) for w in witnesses),
        "red_tame": None if tame is None else format_multifraction(ctx, tame),
        "red_tame_is_witness": tame in witnesses,
        "latest_common_ancestors": sorted(format_multifraction(ctx, x) for x in lca),
        "lca_is_witness": any(x in witnesses for x in lca),
    }
    if undecided_left:  # the witnesses are a lower bound
        evidence["incomplete_closure_edges"] = undecided_left
    if undecided_right:  # a right reduct behind an undecided move goes unchecked
        evidence["incomplete_right_edges"] = undecided_right
        return Verdict("inconclusive", evidence)
    if witnesses:
        return Verdict("confirmed", evidence)
    return Verdict("inconclusive" if undecided_left else "counterexample", evidence)


def _strategy_end(run, ctx: MonoidContext, a: Multifraction, strategy: str) -> Multifraction | None:
    """End of one strategy run, None when the run overflows a cap."""
    try:
        return run(ctx, a, strategy).end
    except CapExceeded:
        return None


def four_strategy_C_probe(ctx: MonoidContext, a: Multifraction) -> Verdict:
    """Strategy-restricted cross-confluence: the four strategy right
    reducts must all left-reduce to one of the four strategy left reducts
    (whether they all reduce to all four is recorded as well).  One
    search (`red.reaches`) from the distinct right reducts, with the
    distinct left reducts as targets in strategy order, answers both.  A
    strategy run that overflows a cap leaves its reduct None: an
    unfinished right run leaves no target reached by all, an unfinished
    left one is no target.  A search past its cap leaves only the runs'
    reducts and the reason; a failure is a counterexample only when all
    eight runs finished and the search counted no undecided move.
    Otherwise the evidence counts the overflowed move attempts of the
    nodes searched, each once, however many runs ended at a root
    ("incomplete_edges")."""
    rights = [_strategy_end(reduce_right, ctx, a, s) for s in red.STRATEGIES]
    lefts = [_strategy_end(reduce_left, ctx, a, s) for s in red.STRATEGIES]
    runs = {
        "rights": [None if b is None else format_multifraction(ctx, b) for b in rights],
        "lefts": [None if c is None else format_multifraction(ctx, c) for c in lefts],
    }
    ends = list(dict.fromkeys(b for b in rights if b is not None))
    targets = list(dict.fromkeys(c for c in lefts if c is not None))
    try:
        hits, _, undecided = red.reaches(ctx, ends, targets)
    except CapExceeded as e:
        return Verdict("inconclusive", {**runs, "reason": str(e)})
    common = 0 if None in rights else -1
    for bits in hits:
        common &= bits
    reached = [c in targets and common >> targets.index(c) & 1 == 1 for c in lefts]
    evidence = {
        **runs,
        "exists_k_forall_j": any(reached),
        "forall_k_forall_j": all(reached),
    }
    if any(reached):
        return Verdict("confirmed", evidence)
    if None not in rights + lefts and not undecided:
        return Verdict("counterexample", evidence)
    evidence["incomplete_edges"] = undecided
    return Verdict("inconclusive", evidence)


# ----------------------------------------------------------------------
# depth-4 central-cross machinery


def has_central_cross(ctx: MonoidContext, a: Multifraction) -> tuple[Element, ...] | None:
    """The rays x_1..x_4 of a central cross of a depth-4 multifraction
    (`assemble_cross` gives a back from them), or None when it has none:
    decided through the adjacent-gcd quotient equations."""
    if a.depth != 4:
        raise ValueError("central-cross decision is depth-4 only")
    side = red.due_side(a, 1)
    g12 = ctx.gcd(a.entry(1), a.entry(2), side)
    g34 = ctx.gcd(a.entry(3), a.entry(4), side)
    x = ctx.divides(g12, a.entry(1), side)
    y = ctx.divides(g12, a.entry(2), side)
    if x is None or y is None:
        raise InternalInvariantError("a gcd does not divide the entries it is the gcd of")
    if a.entry(3) != ctx.attach(y, g34, side) or a.entry(4) != ctx.attach(x, g34, side):
        return None
    rays = (x, g12, y, g34)
    if assemble_cross(ctx, rays, a.first_sign) != a:
        raise InternalInvariantError(
            f"the cross read off {format_multifraction(ctx, a)} is not central"
        )
    return rays


def check_depth4_equivalences(ctx: MonoidContext, a: Multifraction) -> dict:
    """The three depth-4 predicates (left reduction to the trivial
    multifraction, one-pass tame trivialization, central cross) must agree;
    raises when they do not.  Reachability is `_reaches_trivial`'s
    verdict; when that is inconclusive, `reduces_to_trivial` and `agree`
    are None and its evidence is merged in: `incomplete_edges`, the
    undecided moves of its search, or `reason`, a search past its cap."""
    if a.depth != 4:
        raise ValueError("depth-4 check")
    reach = _reaches_trivial(ctx, a)
    reaches = {"confirmed": True, "counterexample": False}.get(reach.status)
    report = {
        "reduces_to_trivial": reaches,
        "red_tame_trivial": red_tame(ctx, a).is_trivial,
        "central_cross": has_central_cross(ctx, a) is not None,
    }
    if reaches is None:
        report.update(agree=None, **reach.evidence)
        return report
    report["agree"] = reaches == report["red_tame_trivial"] == report["central_cross"]
    if not report["agree"]:
        raise MultiredError(f"depth-4 equivalence violated: {report}")
    return report


# ----------------------------------------------------------------------
# 3-Ore scan, word problem, mixed cycle


def three_ore_scan(ctx: MonoidContext, max_len: int, side: Side = RIGHT) -> dict:
    """Bounded scan for triples violating the 3-Ore condition: pairwise
    common multiples but no global one.

    Each lcm reads as an answer: a tuple is a common multiple, None is
    none, and a cap overflow leaves the triple inconclusive.  All three
    pairs are reversed before any is read, then the lcm of the first pair
    against the third element.  Whether an lcm overflows depends only on
    its two elements and the caps, not on the lcms computed before it."""
    if max_len < 1:
        raise MultiredError(f"max_len must be >= 1; got {max_len}")

    def lcm(a, b):
        try:
            return ctx.lcm(a, b, side)
        except CapExceeded as e:
            return e

    elements = ctx.elements_up_to(max_len)[1:]  # all but 1, the first
    violations = []
    inconclusive = []
    for x, y, z in itertools.combinations(elements, 3):
        pairs = [lcm(x, y), lcm(y, z), lcm(x, z)]
        if None in pairs:
            continue
        overflowed = any(isinstance(r, CapExceeded) for r in pairs)
        whole = None if overflowed else lcm(pairs[0][0], z)
        if overflowed or isinstance(whole, CapExceeded):
            inconclusive.append([ctx.word_str(t) for t in (x, y, z)])
        elif whole is None:
            violations.append([ctx.word_str(t) for t in (x, y, z)])
    return {
        "max_len": max_len,
        "side": side.value,
        "elements": len(elements),
        "violations": violations,
        "inconclusive": inconclusive,
    }


def word_problem(ctx: MonoidContext, w: SignedWord) -> dict:
    """Does the signed word represent the group unit?

    verdict: trivial | nontrivial | inconclusive.  Positive answers are
    unconditional.  Negative answers are unconditional when the signed
    length is nonzero or the presentation's relations are Artin-Tits of FC
    type, files included (`MonoidContext.fc`), where left reduction
    converges (Dehornoy, arXiv 1606.08991), and conditional on
    semi-convergence otherwise.
    """
    a = from_signed_word(ctx, w)
    result = {
        "multifraction": format_multifraction(ctx, a),
        "depth": a.depth,
    }
    if a.weight() != 0:
        result.update(verdict="nontrivial", unconditional=True, basis="signed-length")
        return result
    verdict = _reaches_trivial(ctx, a)
    evidence = verdict.evidence
    if verdict.status == "confirmed":
        result.update(verdict="trivial", unconditional=True, basis=evidence.get("via", "trace"))
        if "steps" in evidence:
            result["steps"] = evidence["steps"]
        return result
    if verdict.status == "inconclusive":
        result.update(verdict="inconclusive", basis=evidence.get("reason", "incomplete graph"))
        return result
    fc = ctx.fc
    result.update(
        verdict="nontrivial",
        unconditional=bool(fc),
        basis="exhaustive-fc" if fc else "exhaustive, conditional on semi-convergence",
    )
    return result


def mixed_cycle_probe(ctx: MonoidContext, iterations: int = 3) -> dict:
    """Replay the alternating left/right six-move cycle that scales the
    outer entries of 1/a/bc/1, witnessing that the joint rewrite system
    does not terminate."""
    if iterations < 1:
        raise MultiredError(f"iterations must be >= 1; got {iterations}")
    el = ctx.element
    start = Multifraction(1, (IDENTITY, el("a"), el("bc"), IDENTITY))
    seq = [
        (LEFT, 2, "b"),
        (RIGHT, 3, "a"),
        (LEFT, 2, "c"),
        (RIGHT, 3, "b"),
        (LEFT, 2, "a"),
        (RIGHT, 3, "c"),
    ]
    outer_left = el("bacbac")
    outer_right = el("acbacb")
    results = []
    cur = start
    for p in range(1, iterations + 1):
        for kind, i, x in seq:
            cur = apply_move(ctx, cur, Move(kind, i, el(x)))
            if cur is None:
                raise MultiredError("mixed cycle move failed to apply")
        expected = Multifraction(
            1,
            (
                ctx.product([outer_left] * p),
                el("a"),
                el("bc"),
                ctx.product([outer_right] * p),
            ),
        )
        results.append(
            {"p": p, "value": format_multifraction(ctx, cur), "matches": cur == expected}
        )
    ok = all(r["matches"] for r in results)
    return {"start": format_multifraction(ctx, start), "iterations": results, "ok": ok}


# ----------------------------------------------------------------------
# campaigns


# the kinds `run_trial` runs, in the order the command line lists them
CONJECTURES = ("A", "B", "C", "Cunif", "depth4")


@dataclass
class CampaignConfig:
    preset: str  # the name of the context's presentation
    conjecture: str  # one of CONJECTURES
    depth: int = 4
    length: int = 20
    trials: int = 100
    seed: int = 0
    jobs: int = 1
    # lcm-expansion steps an A or B input takes at most: fixed, not a
    # setting, and echoed in the report
    expansions: int = field(default=1, init=False)


@dataclass
class CampaignReport:
    config: CampaignConfig
    counts: dict
    trace_lengths: dict
    records: list[dict]
    counterexample: dict | None = None

    def to_json(self, include_timing: bool = True) -> dict:
        """Timings, each record's millis, are only reproducible run to run
        when excluded; the CLI prints the timing-free form and keeps
        timings in the trial log."""
        out = {
            "config": asdict(self.config),
            "counts": self.counts,
            "trace_lengths": self.trace_lengths,
            "counterexample": self.counterexample,
            "records": self.records,
        }
        if not include_timing:
            out["records"] = [
                {k: v for k, v in rec.items() if k != "millis"} for rec in self.records
            ]
            if self.counterexample is not None:  # the last record: it halts the run
                out["counterexample"] = out["records"][-1]
        return out


def _gen_unital_for_campaign(ctx, depth, length, expansions, seed):
    """Cross-seeded unital input of bounded total length, with a chained
    certificate over the expansion steps.  Ray lengths are drawn up to 50
    times; when no draw fits the length, the rays are empty, which fit
    any length."""
    rng = random.Random(seed)
    ray_cap = max(1, length // depth)
    for attempt in range(50):
        lengths = [rng.randint(0, ray_cap) for _ in range(depth)]
        if 2 * sum(lengths) <= length:  # each ray lies in two entries of the cross
            break
    else:
        lengths = [0] * depth
    rays = tuple(
        gen_element(ctx, n, derive_seed(seed, 100 + 7 * attempt + i))
        for i, n in enumerate(lengths)
    )
    a = assemble_cross(ctx, rays)
    chain = []
    for _ in range(rng.randint(0, expansions)):
        choices = _random_left_divisors(ctx, a, rng)
        nxt = lcm_expand(ctx, a, choices=choices)
        if nxt is None or nxt.total_length() > length:
            break
        chain.append([ctx.word_str(c) for c in choices])
        a = nxt
    cert = UnitalCertificate(
        "lcm_expansion_chain",
        {"rays": [ctx.word_str(r) for r in rays], "choices": chain},
    )
    return a, cert


def run_trial(ctx: MonoidContext, config: CampaignConfig, index: int) -> dict:
    """One seeded trial.  A cap overflow, while generating the input or
    judging it, makes the trial inconclusive; the campaign goes on."""
    seed = derive_seed(config.seed, index)
    start = time.perf_counter()
    a = None
    try:
        if config.conjecture in ("A", "B"):
            a, cert = _gen_unital_for_campaign(
                ctx, config.depth, config.length, config.expansions, seed
            )
            tester = test_conjecture_A if config.conjecture == "A" else test_conjecture_B
            verdict = tester(ctx, a, cert)
        elif config.conjecture in ("C", "Cunif"):
            a = gen_multifraction(ctx, config.depth, max(1, config.length // config.depth), seed)
            verdict = (
                test_conjecture_C_uniform(ctx, a)
                if config.conjecture == "Cunif"
                else four_strategy_C_probe(ctx, a)
            )
        else:  # depth4, the last of CONJECTURES; check_config refuses the rest
            if index % 2 == 0:
                a, _ = gen_central_cross(ctx, 4, max(1, config.length // 8), seed)
            else:
                a = gen_multifraction(ctx, 4, max(1, config.length // 4), seed)
            report = check_depth4_equivalences(ctx, a)
            verdict = Verdict("confirmed" if report["agree"] else "inconclusive", report)
    except CapExceeded as e:
        verdict = Verdict("inconclusive", {"reason": str(e), "cap": e.cap})
    millis = (time.perf_counter() - start) * 1000.0
    return {
        "trial": index,
        "seed": seed,
        "input": None if a is None else format_multifraction(ctx, a),
        "verdict": verdict.status,
        "moves": verdict.evidence.get("steps"),
        "millis": round(millis, 3),
        "evidence": verdict.evidence,
    }


_worker: tuple = ()  # (context, config) of a pool process, set by _init_worker


def _init_worker(pres, caps, config: CampaignConfig) -> None:
    global _worker
    _worker = (MonoidContext(pres, caps), config)


def _pool_trial(index: int) -> dict:
    return run_trial(*_worker, index)


def check_config(config: CampaignConfig) -> None:
    """Refuse settings a campaign would not read or could not run."""
    kind, depth = config.conjecture, config.depth
    if kind not in CONJECTURES:
        raise MultiredError(
            f"unknown conjecture {kind!r}; the kinds are {', '.join(CONJECTURES)}"
        )
    if kind in ("A", "B") and (depth < 2 or depth % 2):
        raise MultiredError(
            f"conjecture {kind} runs on central crosses, which need an even depth "
            f">= 2; got depth {depth}"
        )
    if kind == "depth4" and depth != 4:
        raise MultiredError(f"conjecture depth4 runs at depth 4 only; got depth {depth}")
    if kind in ("C", "Cunif") and depth < 1:
        raise MultiredError(f"conjecture {kind} needs depth >= 1; got depth {depth}")
    for name in ("trials", "jobs"):
        if getattr(config, name) < 1:
            raise MultiredError(f"{name} must be >= 1; got {getattr(config, name)}")
    if config.length < 0:
        raise MultiredError(f"length must be >= 0; got {config.length}")


def run_campaign(
    ctx: MonoidContext,
    config: CampaignConfig,
    log_stream=None,
) -> CampaignReport:
    """Run seeded independent trials; any counterexample halts the run and
    is dumped with its full evidence for replay.  Settings a campaign would
    not read or could not run, and a preset other than the context's,
    raise MultiredError before any trial."""
    check_config(config)
    if config.preset != ctx.pres.name:
        raise MultiredError(
            f"the campaign names preset {config.preset!r}, but the context "
            f"holds {ctx.pres.name!r}"
        )
    records: list[dict] = []
    counterexample = None
    pool = None
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # under fork a pool starts all its workers at the first submit, so
        # it gets no more workers than there are trials
        pool = ProcessPoolExecutor(
            max_workers=min(config.jobs, config.trials),
            initializer=_init_worker,
            initargs=(ctx.pres, ctx.caps, config),
        )
        trials = pool.map(_pool_trial, range(config.trials))
    else:
        trials = (run_trial(ctx, config, i) for i in range(config.trials))
    try:
        for rec in trials:  # in trial order either way
            records.append(rec)
            if log_stream is not None:
                log_stream.write(json.dumps(rec, sort_keys=True) + "\n")
            if rec["verdict"] == "counterexample":
                counterexample = rec
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
    lengths = [rec["moves"] for rec in records if isinstance(rec.get("moves"), int)]
    trace_lengths = {
        "min": min(lengths) if lengths else None,
        "max": max(lengths) if lengths else None,
        "mean": (sum(lengths) / len(lengths)) if lengths else None,
    }
    return CampaignReport(
        config=config,
        counts=counts,
        trace_lengths=trace_lengths,
        records=records,
        counterexample=counterexample,
    )


def dump_counterexample(ctx: MonoidContext, record: dict, directory: str) -> list[str]:
    """Write the replayable record (JSON) of a counterexample as given,
    then its input's left reduct graph (DOT) when the graph fits within
    its caps; a graph that overflows is left out, with the reason on
    stderr.  The CLI gives the timing-free record it prints, so the dump
    of a seeded campaign is the same run to run."""
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"counterexample_{record['trial']}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    try:
        graph = reduct_graph(ctx, parse_multifraction(ctx, record["input"]), LEFT)
    except CapExceeded as e:
        print(f"counterexample graph not dumped: {e}", file=sys.stderr)
        return [stem + ".json"]
    with open(stem + ".dot", "w") as fh:
        fh.write(graph.to_dot(ctx))
    return [stem + ".dot", stem + ".json"]
