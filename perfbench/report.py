#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics.

Usage, from the root of a permrat checkout:

    python3 perfbench/report.py [--seed N] [--workload NAME ...]

Prints one end-to-end row per workload (wall_s, cpu_s, setup_s, peak_rss_mb
and failed_frac, the share of commands whose output failed a check), then
every per-layer metric per workload, with units.  The raw results, with the
environment of each run, go to .perfbench_out/report.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} (trace {trace}): exit {res.returncode}")
    env_line, result_line = res.stdout.splitlines()[-2:]
    return {**json.loads(result_line), **json.loads(env_line)}


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    chosen = args.workload or names

    results = {}
    for w in chosen:
        results[w] = {"e2e": run(w, args.seed, bench["run_seconds"], 0),
                      "layers": run(w, args.seed, bench["run_seconds"], 1)}

    e2e_names = [m["name"] for m in bench["end_to_end"]]
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in bench["end_to_end"]]
    header += ["failed_frac [ratio]", "correct"]
    rows = []
    for w in chosen:
        r = results[w]["e2e"]
        rows.append([w] + [_fmt(r["metrics"][n]["value"]) for n in e2e_names]
                    + [_fmt(r["failed"] / r["attempted"]), str(r["correct"])])
    _table(header, rows)
    print()

    layer_rows = []
    for m in bench["per_layer"]:
        layer_rows.append([f"{m['name']} [{m['unit']}]"]
                          + [_fmt(results[w]["layers"]["metrics"][m["name"]]["value"])
                             for w in chosen])
    _table(["per-layer metric (traced pass)"] + chosen, layer_rows)
    print()
    for w in chosen:
        env = results[w]["layers"]["env"]
        print(f"{w}: backend ran {env.get('backend_ran')}, python {env['python']}, "
              f"numpy {env['numpy']}, nproc {env['nproc']}, commit {env['commit']}")

    out = ROOT / ".perfbench_out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "results": results}, indent=2) + "\n",
                   encoding="utf-8")
    return 0 if all(r["e2e"]["correct"] and r["layers"]["correct"]
                    for r in results.values()) else 1


def _table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(wd) if i == 0 else c.rjust(wd)
                        for i, (c, wd) in enumerate(zip(r, widths))))


if __name__ == "__main__":
    sys.exit(main())
