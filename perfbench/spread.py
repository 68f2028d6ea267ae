"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workload NAME ...]
                                [--out perfbench/results/FILE.json]

Each run is ``perfbench/run.py --trace 0`` with ``run_seconds`` from
BENCHMARK.json.  For every workload and end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread (Q3 - Q1) / median next to the metric's bound.  The spread of
``setup_s`` is shown but has no limit.  ``--out`` keeps every result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True, timeout=600).stdout.splitlines()
            runs.append({"seed": seed, "result": json.loads(out[-1])})
        stats = {}
        print(f"== {name}: {args.runs} runs")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            limited = m["name"] != "setup_s"
            ok = not limited or spread < m["bound"] / 3
            steady &= ok
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": m["bound"]}
            print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {spread:7.2%} bound {m['bound']:.0%}"
                  + ("" if ok else "  WIDER THAN BOUND/3"))
        correct = all(r["result"]["correct"] for r in runs)
        steady &= correct
        print(f"  all runs correct: {correct}")
        report["workloads"][name] = {"stats": stats, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
