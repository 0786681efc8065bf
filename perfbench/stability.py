"""Stability check: repeat each workload and compare spreads with bounds.

    python3 perfbench/stability.py

Runs the benchmark command from BENCHMARK.json ten times per workload, with
seeds 1 to 10, and then the same ten runs again.  For every end-to-end
metric it prints, per set, the median, quartiles and spread (the distance
between the quartiles as a share of the median) against the metric's
bound.  Every spread, setup_s included, must stay within the bound, and
should stay below a third of it.  Each metric's second median must not be
worse than the first by more than the bound.  The table also gives
op_p90_ms (only from runs of at least 100 operations), fail_ratio and the
sample counts, the range of host slowdowns the runs saw, and the raw
spread of each timing next to the reported (scaled) one.  Last, one
traced run per workload is set against the untraced run just before it by
ops_per_s, scaled and raw: the tracing overhead.

Exits 1 when a spread or a median shift exceeds its bound or any operation
failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
RUNS = 10
SETS = 2


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    details = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "details": details}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    ok = True
    report = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for k in range(SETS):
            sets.append([run_once(bench, workload, seed, 0) for seed in range(1, RUNS + 1)])
            print(f"# {workload}: set {k + 1} done", file=sys.stderr, flush=True)
        runs = [r for one_set in sets for r in one_set]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        ok &= failed == 0
        ops = [r["details"]["ops"] for r in runs]
        setups = [r["details"]["setups"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, {min(ops)}-{max(ops)} operations and "
              f"{min(setups)}-{max(setups)} set-ups per run")
        print(f"  {'metric':12} {'unit':>5} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6} {'raw':>7}  verdict")
        entry = report[workload] = {}
        for m in metrics:
            name = m["name"]
            for k, one_set in enumerate(sets):
                values = [r["result"]["metrics"][name]["value"] for r in one_set]
                med, q1, q3, sp = spread(values)
                raw = [r["details"]["raw"][name] for r in one_set if name in r["details"]["raw"]]
                raw_sp = f"{spread(raw)[3]:7.1%}" if raw else f"{'-':>7}"
                if sp > m["bound"]:
                    verdict, ok = "TOO WIDE", False
                else:
                    verdict = "steady" if sp < m["bound"] / 3 else "within bound"
                if k > 0:
                    shift = worse_by(m, entry[name]["median"], med)
                    verdict += f"; {shift:+.1%} worse than set 1"
                    if shift > m["bound"]:
                        verdict, ok = verdict + " (OVER BOUND)", False
                else:
                    entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
                print(f"  {name:12} {m['unit']:>5} {med:11.4f} {q1:11.4f} {q3:11.4f} {sp:7.1%} "
                      f"{m['bound']:6.0%} {raw_sp}  {verdict}")
        p90 = [r["details"]["end_to_end"]["op_p90_ms"] for r in runs]
        if p90[0] is not None:
            med, q1, q3, sp = spread(p90)
            print(f"  {'op_p90_ms':12} {'ms':>5} {med:11.4f} {q1:11.4f} {q3:11.4f} {sp:7.1%} {'-':>6} "
                  f"{'':>7}  not in BENCHMARK.json")
        else:
            print(f"  {'op_p90_ms':12} {'ms':>5} {'-':>11}  not reported: fewer than 100 operations per run")
        print(f"  {'fail_ratio':12} {'':>5} {failed / attempted:11.4f}  {failed} of {attempted} operations failed")
        slowdown = [r["details"]["host_slowdown"] for r in runs]
        print(f"  host slowdown over the runs: {min(slowdown):.2f}x to {max(slowdown):.2f}x")
        entry["fail_ratio"] = failed / attempted
        # set against the run just before it: the host's speed drifts
        traced = run_once(bench, workload, RUNS, 1)["details"]
        last = runs[-1]["details"]
        for kind, key in (("scaled", "end_to_end"), ("raw", "raw")):
            t_ops, u_ops = traced[key]["ops_per_s"], last[key]["ops_per_s"]
            entry[f"tracing_overhead_{kind}"] = u_ops / t_ops
            print(f"  tracing overhead, {kind}: one traced pass {t_ops:.4f} 1/s against "
                  f"{u_ops:.4f} 1/s in the untraced run before it ({u_ops / t_ops:.2f}x)")
        print(f"  traced pass: {traced['spans']} spans")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "stability.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
