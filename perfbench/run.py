"""The multired benchmark: one workload per process, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `multired` from
`src/` there and nothing else.  Workloads (see NOTES.md for why):

  cli_cold        a fixed corpus of one-shot `cli.main(argv)` queries, each
                  building a fresh context as a shell invocation does
  campaign_graph  a `conjecture Cunif` campaign on A2tilde, depth 4, length 16
  campaign_long   a `conjecture A` campaign on braid(4), depth 4, length 32

A pass sets up once, a fresh `MonoidContext` plus both basic tables, then
runs the whole corpus (cli_cold in an order drawn from the seed).
Untraced runs make a fixed number of passes, at least three, that fill
about --seconds on a quiet host, and time each operation by its median
over the passes.  Each time is scaled to the host's quiet speed by a
calibration kernel run around and inside it (see `calibrate`); the raw
times are reported beside the scaled ones.  Traced runs make exactly one
pass, so their counts depend only on the seed.  Every output is checked
against `golden.json`, taken at the reference commit, and against paper
values pinned in the test suite.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
lines before it are a readable summary.  Details, and with --trace 1 the
spans, go to .bench_build/perfbench/.  Exit code 2 means the benchmark
could not run (no source tree, no golden file); no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

# ----------------------------------------------------------------------
# workloads

A2 = "A2tilde"
B4 = "braid(4)"
I25 = "I2(5)"

# (argv, check on stdout lines or None).  The checks pin values from
# tests/test_acceptance.py and tests/test_cli.py; golden.json pins the
# full stdout and exit code of every query.
CLI_CORPUS = (
    (["reduce", "--preset", A2, "ac/ca/ba/ab/cb/bc"], lambda out: out[-1] == "-> 1/1/1/1/1/1"),
    (["irr", "--preset", A2, "1/c/aba"], lambda out: out == ["ac/ca/ba", "bc/cb/ab"]),
    (["derdiv", "--preset", A2, "ab/aba/aca"], lambda out: out == ["ab/ba/ca"]),
    (["redtame", "--preset", A2, "ac/aca/aba"], lambda out: out == ["1/c/aba"]),
    (["wordproblem", "--preset", "braid3", "a B"], lambda out: out == ["nontrivial (unconditional)"]),
    (["vankampen", "--preset", A2, "--format", "json", "ab/ba/ca/ac/bc/cb"],
     lambda out: len(json.loads("\n".join(out))["vertices"]) == 14),
    (["wordproblem", "--preset", B4, "aba BAB"], lambda out: out == ["trivial"]),
    (["basics", "--preset", I25], None),
)
CLI_PRESETS = (A2, B4, I25)  # set up once per pass

# Campaign corpora.  The campaign seeds are fixed rather than drawn from
# --seed: the cost of a campaign varies by a fifth or more between campaign
# seeds (NOTES.md), which would swamp every bound.
CAMPAIGNS = {
    "campaign_graph": {"preset": A2, "conjecture": "Cunif", "depth": 4, "length": 16,
                       "trials": 120, "seed": 1},
    "campaign_long": {"preset": B4, "conjecture": "A", "depth": 4, "length": 32,
                      "trials": 150, "seed": 1},
}
WORKLOADS = ("cli_cold", *CAMPAIGNS)

# A pass sets up once and runs the whole corpus.  The number of passes
# follows from --seconds and a nominal pass length (raw time over host
# slowdown, on a 2-core host), never from the clock during the run, so that
# both sides of a comparison take the same number of samples.
PASS_S = {"cli_cold": 7.5, "campaign_graph": 3.7, "campaign_long": 5.3}
MIN_PASSES = 3


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


EXIT_CANNOT_RUN = 2


class CannotRun(Exception):
    pass


def load_package():
    """Import multired from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "multired" / "__init__.py").is_file():
        raise CannotRun(f"no multired package under {src}")
    sys.path.insert(0, str(src))
    import multired

    if Path(multired.__file__).resolve().parent != (src / "multired").resolve():
        raise CannotRun(f"multired imported from {multired.__file__}, not from {src}")
    return multired


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_key(argv) -> str:
    return " ".join(argv)


def campaign_key(spec: dict) -> str:
    return (f"{spec['conjecture']} {spec['preset']} d{spec['depth']} l{spec['length']} "
            f"t{spec['trials']} s{spec['seed']}")


def campaign_config(harness, spec: dict):
    return harness.CampaignConfig(
        preset=spec["preset"], conjecture=spec["conjecture"], depth=spec["depth"],
        length=spec["length"], trials=spec["trials"], seed=spec["seed"], jobs=1,
    )


def record_digest(record: dict) -> str:
    return digest(json.dumps({k: v for k, v in record.items() if k != "millis"}, sort_keys=True))


def report_digest(report) -> str:
    return digest(json.dumps(report.to_json(include_timing=False), sort_keys=True))


def run_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def set_up(pkg, preset_name: str):
    ctx = pkg.MonoidContext(pkg.preset(preset_name))
    ctx.basic_table(pkg.Side.RIGHT)
    ctx.basic_table(pkg.Side.LEFT)
    return ctx


# Host-speed calibration.  Other tenants of the shared host slow all work
# here by up to 1.7x, in phases that last tens of seconds (NOTES.md), longer
# than a run.  So a fixed kernel of the benchmark's own runs at every
# boundary between timed steps, and every SAMPLE_S of wall time inside a
# step, from a timer signal.  Each step's time, less the kernel runs inside
# it, is scaled by CAL_NOMINAL_S over the mean of the kernel's times from
# the step's start to its end: the step's time at the host's quiet speed.
# The kernel calls nothing of the program, so a change to the program moves
# the scaled time as much as the raw one.
CAL_TABLE = {(i, i * 7 % 101): i for i in range(1000)}
CAL_NOMINAL_S = 0.0017  # the kernel's time on a quiet host
SAMPLE_S = 0.05


def calibrate() -> float:
    """Run the calibration kernel and return its time.  The collector is
    held off, so that the program's heap does not reach the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table, acc = CAL_TABLE, 0
    for i in range(6000):
        acc += table.get((i % 1000, i * 7 % 101), 0) + table.get((i % 997, i % 89), 0)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Run:
    """Samples and failures of one workload run.

    An operation (query or trial) runs once per pass; `samples` keeps its
    (raw, scaled) time from every pass."""

    def __init__(self, tracer=None):
        self.setups: list[tuple[float, float]] = []
        self.samples: dict[tuple, list[tuple[float, float]]] = {}
        self.kernels: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer
        self.next_op = 0
        self._in_step = False
        self._step_kernels: list[float] = []
        self._stolen = 0.0
        self._last = 0.0

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel inside steps, every SAMPLE_S, while in the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _sample(self, signum, frame) -> None:
        if self._in_step:
            start = time.perf_counter()
            self._step_kernels.append(self._calibrate())
            self._stolen += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)  # one-shot: never nested

    def _calibrate(self) -> float:
        kernel = calibrate()
        self.kernels.append(kernel)
        return kernel

    def _begin_step(self, kernel: float) -> None:
        self._step_kernels = [kernel]
        self._stolen = 0.0
        self._in_step = True
        self._last = time.perf_counter()

    def start_clock(self) -> None:
        self._in_step = False
        self._begin_step(self._calibrate())

    def lap(self) -> tuple[float, float]:
        """Raw and scaled seconds since the last start or lap; the next
        step starts with the lap."""
        self._in_step = False
        raw = time.perf_counter() - self._last - self._stolen
        kernel = self._calibrate()
        scaled = raw * CAL_NOMINAL_S / statistics.fmean(self._step_kernels + [kernel])
        self._begin_step(kernel)
        return raw, scaled

    def begin_op(self):
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1

    def end_op(self, key: tuple):
        self.samples.setdefault(key, []).append(self.lap())

    def end_ops(self):
        if self.tracer is not None:
            self.tracer.op = -1

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def cli_pass(pkg, golden: dict, rng: random.Random, run: Run) -> None:
    from multired import cli

    gc.collect()
    run.start_clock()
    for name in CLI_PRESETS:
        set_up(pkg, name)
    run.setups.append(run.lap())
    order = list(CLI_CORPUS)
    rng.shuffle(order)
    for argv, check in order:
        key = cli_key(argv)
        gc.collect()
        run.attempted += 1
        run.begin_op()
        run.start_clock()
        try:
            code, out = run_cli(cli, argv)
        except Exception as e:  # a crash is a failed query, not a failed run
            run.fail(1, f"{key}: {type(e).__name__}: {e}")
            continue
        finally:
            run.end_op((key,))
        want = golden["cli"][key]
        if code != 0 or code != want["exit"]:
            run.fail(1, f"{key}: exit {code}")
        elif digest(out) != want["stdout"]:
            run.fail(1, f"{key}: stdout differs from the reference")
        elif check is not None and not check(out.splitlines()):
            run.fail(1, f"{key}: pinned value not reproduced")
    run.end_ops()


class _TrialClock:
    """Log stream for `run_campaign`: it writes one line per trial right
    after the trial, so the gaps between writes time each trial."""

    def __init__(self, run: Run):
        self.run = run
        self.trial = 0

    def write(self, line: str) -> None:
        self.run.end_op((self.trial,))
        self.trial += 1
        self.run.begin_op()


def campaign_pass(pkg, golden: dict, run: Run, spec: dict) -> None:
    from multired import harness

    key = campaign_key(spec)
    want = golden["campaigns"][key]
    gc.collect()
    run.start_clock()
    ctx = set_up(pkg, spec["preset"])
    run.setups.append(run.lap())
    config = campaign_config(harness, spec)
    run.attempted += config.trials
    run.begin_op()
    try:
        report = harness.run_campaign(ctx, config, log_stream=_TrialClock(run))
    except Exception as e:  # the whole campaign counts as failed
        run.fail(config.trials, f"{key}: {type(e).__name__}: {e}")
        return
    finally:
        run.end_ops()
        del ctx
    bad = [
        r["trial"] for r, d in zip(report.records, want["records"])
        if r["verdict"] != "confirmed" or record_digest(r) != d
    ]
    missing = config.trials - len(report.records)
    if bad or missing:
        run.fail(len(bad) + missing, f"{key}: trials {bad[:5]} wrong, {missing} missing")
    elif report_digest(report) != want["report"]:
        run.fail(config.trials, f"{key}: report differs from the reference")


def one_pass(pkg, workload: str, golden: dict, rng: random.Random, run: Run) -> None:
    if workload == "cli_cold":
        cli_pass(pkg, golden, rng, run)
    else:
        campaign_pass(pkg, golden, run, CAMPAIGNS[workload])


# ----------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(run: Run, scaled: bool) -> dict:
    """The timings from the scaled or the raw times.  An operation's time
    is its median over the passes."""
    k = 1 if scaled else 0
    per_op = [statistics.median(s[k] for s in samples) for samples in run.samples.values()]
    return {
        "setup_s": statistics.median(s[k] for s in run.setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1000.0,
        "op_p90_ms": p90_ms(per_op),
    }


def p90_ms(samples: list[float]) -> float | None:
    """90th percentile, reported only with at least ten samples above it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[-1] * 1000.0


def per_layer(tracer) -> dict:
    calls, inclusive = tracer.totals()
    self_s = tracer.self_times()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "monoid.basic_table.right_s": inclusive.get("monoid.basic_table.right", 0.0),
        "monoid.basic_table.left_s": inclusive.get("monoid.basic_table.left", 0.0),
    }
    for name in ("monoid.lcm_oracle", "monoid.canonical", "monoid.divides", "monoid.multiply",
                 "monoid.lcm", "monoid.gcd", "monoid.divisors", "reduction.apply_left",
                 "reduction.apply_right", "reduction.reduct_graph", "reduction.reduce_left"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("monoid.lcm_oracle", "monoid.multiples", "monoid.canonical", "monoid.divides",
                 "monoid.multiply", "monoid.lcm", "monoid.gcd", "monoid.divisors",
                 "reduction.apply_left", "reduction.apply_right", "reduction.reduct_graph",
                 "reduction.reduce_left", "reduction.red_tame", "reduction.reducers",
                 "reduction.within_step_bound", "harness.assemble_cross", "harness.lcm_expand",
                 "harness.validate_certificate", "harness.run_trial", "cli.main",
                 "multifraction.parse_multifraction", "multifraction.format_multifraction",
                 "vankampen.van_kampen"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("monoid.canonical", "monoid.divides", "monoid.lcm"):
        out[f"{name}.hit_ratio"] = ratio(c[f"{name}.hits"], calls.get(name, 0))
    out["monoid.canonical.words_added"] = c["monoid.canonical.added"]
    for name in ("reduction.apply_left", "reduction.apply_right"):
        out[f"{name}.applied_ratio"] = ratio(c[f"{name}.applied"], calls.get(name, 0))
    out["reduction.reduct_graph.nodes"] = c["reduction.reduct_graph.nodes"]
    out["reduction.reduce_left.steps"] = c["reduction.reduce_left.steps"]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def benchmark(args) -> dict:
    """Run one workload; returns the details, including the result line."""
    pkg = load_package()
    if not GOLDEN.is_file():
        raise CannotRun(f"missing {GOLDEN.name}")
    golden = json.loads(GOLDEN.read_text())
    wanted = [cli_key(argv) for argv, _ in CLI_CORPUS] + [campaign_key(spec) for spec in CAMPAIGNS.values()]
    if not set(wanted) <= golden["cli"].keys() | golden["campaigns"].keys():
        raise CannotRun(f"{GOLDEN.name} does not cover the corpus")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rng = random.Random(f"{args.workload}:{args.seed}")
    run = Run(tracer)
    passes = 1 if tracer is not None else pass_count(args.workload, args.seconds)
    start = time.perf_counter()
    # traced runs leave the sampler off, so that it adds nothing to spans
    with contextlib.nullcontext() if tracer is not None else run.sampling():
        for _ in range(passes):
            one_pass(pkg, args.workload, golden, rng, run)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    scaled, raw = end_to_end(run, scaled=True), end_to_end(run, scaled=False)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "wall_s": wall_s,
        "setups": len(run.setups),
        "ops": len(run.samples),
        "host_slowdown": statistics.median(run.kernels) / CAL_NOMINAL_S,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "end_to_end": scaled | {"peak_rss_mb": peak_rss_mb()},
        "raw": raw,
    }
    if tracer is None:
        e2e = details["end_to_end"]
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    else:
        layers = per_layer(tracer)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        details["unmeasured_layers"] = list(tracing.UNMEASURED)
        details["spans"] = len(tracer.span_start)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write_spans(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    details["result"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return details


def summary(d: dict) -> list[str]:
    e, r = d["end_to_end"], d["raw"]
    per_op = f"{d['ops']} operations, median of {d['passes']} pass(es)"
    lines = [
        f"workload {d['workload']} seed {d['seed']} trace {d['trace']}: "
        f"{d['passes']} pass(es) in {d['wall_s']:.1f} s; host {d['host_slowdown']:.2f}x "
        f"slower than nominal",
        f"  metric           scaled        raw",
        f"  setup_s      {e['setup_s']:10.4f} {r['setup_s']:10.4f} s     median of {d['setups']} set-ups",
        f"  ops_per_s    {e['ops_per_s']:10.4f} {r['ops_per_s']:10.4f} 1/s   {per_op}",
        f"  op_p50_ms    {e['op_p50_ms']:10.4f} {r['op_p50_ms']:10.4f} ms    {per_op}",
    ]
    if e["op_p90_ms"] is None:
        lines.append(f"  op_p90_ms    {'-':>10} {'-':>10} ms    not reported below 100 operations")
    else:
        lines.append(f"  op_p90_ms    {e['op_p90_ms']:10.4f} {r['op_p90_ms']:10.4f} ms    {per_op}")
    lines += [
        f"  peak_rss_mb  {e['peak_rss_mb']:10.4f} {'':10} MB",
        f"  fail_ratio   {d['fail_ratio']:10.4f} {'':10}       "
        f"{d['result']['failed']} of {d['result']['attempted']} failed",
    ]
    lines += [f"  problem: {p}" for p in d["problems"]]
    if d["trace"]:
        lines.append(f"  traced: {d['spans']} spans written to {d['spans_file']}; "
                     f"unmeasured layers: {', '.join(d['unmeasured_layers'])}")
    return lines


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        details = benchmark(args)
    except CannotRun as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True)
    )
    for line in summary(details):
        print(line)
    print(json.dumps(details["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
