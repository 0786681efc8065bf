"""Write golden.json, the reference outputs the benchmark checks against.

    python3 perfbench/golden.py

It runs every cli_cold query and every corpus campaign once, untimed, and
records the exit code and a digest of stdout of each query, and digests
of each timing-free campaign report and of each of its trial records.
Run it only at the commit whose behaviour is the reference: the checks are
only worth anything while golden.json stays fixed.
"""

import json

import run as bench


def main() -> None:
    pkg = bench.load_package()
    from multired import cli, harness

    golden = {"cli": {}, "campaigns": {}}
    for argv, _ in bench.CLI_CORPUS:
        code, out = bench.run_cli(cli, argv)
        golden["cli"][bench.cli_key(argv)] = {"exit": code, "stdout": bench.digest(out)}
    for spec in bench.CAMPAIGNS.values():
        ctx = bench.set_up(pkg, spec["preset"])
        report = harness.run_campaign(ctx, bench.campaign_config(harness, spec))
        golden["campaigns"][bench.campaign_key(spec)] = {
            "counts": report.counts,
            "report": bench.report_digest(report),
            "records": [bench.record_digest(r) for r in report.records],
        }
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
