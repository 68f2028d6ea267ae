"""Benchmark of soqrs: seeded workloads, end-to-end metrics, traced per-layer runs.

    python3 perfbench/run.py --workload tower-build --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a soqrs checkout; it imports the package from
``src/`` there and nowhere else.  A run measures set-up in fresh
interpreters, runs one untimed warm-up pass at the smoke size, then runs
timed passes until the next one would end after ``--seconds``.  With
``--trace 0`` every item is untraced and the end-to-end metrics are
reported; with ``--trace 1`` passes alternate between traced and
untraced, the per-layer metrics come from the traced ones, and the
tracing overhead is the difference between the two.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 3
MIN_PASSES = 2

# Threaded BLAS would make timings depend on how busy the machine is.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() else NPROC)


def _import_workloads():
    """Import the workloads against this checkout's ``src/``, or exit with an error."""
    if not (ROOT / "src" / "soqrs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no soqrs sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if Path(workloads.soqrs.__file__).resolve().parent != ROOT / "src" / "soqrs":
        sys.exit(f"perfbench: imported soqrs from {workloads.soqrs.__file__}")
    return workloads


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _setup_probe(name: str, seed: int, size: str) -> float:
    """Seconds from launching a fresh interpreter until its first item could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--size", size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def _run_pass(items, tr, wl, ids, latencies: list, failures: list) -> None:
    for (fn, args), item in zip(items, ids):
        if tr.enabled and wl.probe is not None:
            wl.probe(tr, item, *args)
        t0 = time.perf_counter()
        try:
            with tr.span("item", item):
                fn(tr, item, *args)
        except Exception:
            failures.append(item)
            sys.stderr.write(f"perfbench: item {item} {fn.__name__}{args} failed\n"
                             + traceback.format_exc())
        else:
            latencies.append(time.perf_counter() - t0)


def _p90(xs: list) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _layer_metrics(tr, n_passes: int, overhead: float) -> dict:
    """Per-layer metrics per traced pass, from span self times and counts."""
    t = tr.self_times()
    c = tr.counts
    per = 1.0 / n_passes
    build_s = t.get("degenrep.build", 0.0) + t.get("degenrep.build_primed", 0.0)
    checks = c.get("verify.metric_checks", 0.0)
    values = {name + "_s": t.get(name, 0.0) * per for name in (
        "gtbasis.space", "compactrep.class1", "degenrep.build", "degenrep.build_primed",
        "verify.relations", "verify.star", "verify.metric", "verify.intertwiner",
        "classify.irreducible", "classify.star", "classify.predict", "classify.cross_check",
        "cli.build", "cli.verify_dump", "cli.verify", "cli.compact_suite",
        "cli.classify", "cli.scan")}
    values.update({name: c.get(name, 0.0) * per for name in (
        "gtbasis.dim", "gtbasis.blocks", "compactrep.nnz", "degenrep.calls",
        "degenrep.nnz", "verify.metric_checks", "classify.disagreements",
        "classify.unclassified", "cli.dump_bytes")})
    values["degenrep.ns_per_nnz"] = (
        1e9 * build_s / c["degenrep.nnz"] if c.get("degenrep.nnz") else 0.0)
    values["verify.metric_agree_ratio"] = (
        c.get("verify.metric_agree", 0.0) / checks if checks else 0.0)
    values["trace.spans"] = len(tr.spans) * per
    values["trace.overhead_s"] = overhead
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> tuple[dict, dict]:
    """Run one workload; returns (result line, informational details)."""
    wl_mod = _import_workloads()
    from spans import Tracer

    wl = wl_mod.WORKLOADS[name]
    cfg = wl.sizes[size]
    setups = [_setup_probe(name, seed, size)
              for _ in range(SETUP_PROBES if size == "full" else 1)]
    wl_mod.OUT_DIR.mkdir(exist_ok=True)

    # The warm-up pass runs every code path at the smoke size, so that the
    # time of a full-size warm-up goes into the timed passes instead.
    ids = itertools.count()
    untraced = Tracer(enabled=False)
    warm_lat, warm_fail = [], []
    _run_pass(wl.make_pass(_rng(name, seed), wl.sizes["smoke"]), untraced, wl, ids,
              warm_lat, warm_fail)

    rng = _rng(name, seed)

    tracer = Tracer()
    lat = {True: [], False: []}
    failures = []
    passes = {True: 0, False: 0}
    busy = {True: 0.0, False: 0.0}
    longest = 0.0
    start = time.perf_counter()
    while True:
        traced = trace and passes[True] <= passes[False]
        items = wl.make_pass(rng, cfg)
        t0 = time.perf_counter()
        _run_pass(items, tracer if traced else untraced, wl, ids, lat[traced], failures)
        elapsed = time.perf_counter() - t0
        longest = max(longest, elapsed)
        busy[traced] += elapsed
        passes[traced] += 1
        n = passes[True] + passes[False]
        if n >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            break

    ok = lat[False]
    attempted = len(lat[True]) + len(ok) + len(failures)
    info = {
        "workload": name, "seed": seed, "size": size, "trace": int(trace),
        "passes": passes[False] + passes[True], "traced_passes": passes[True],
        "items_per_pass": len(items), "samples": len(ok),
        "warmup_failed": len(warm_fail), "setup_probes": len(setups),
        "env": {"nproc": NPROC, "python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
                "platform": platform.platform(),
                "threads": os.environ["OMP_NUM_THREADS"]},
    }
    if trace:
        overhead = (statistics.median(lat[True]) - statistics.median(ok)
                    if lat[True] and ok else 0.0)
        metrics = _layer_metrics(tracer, max(passes[True], 1), overhead)
        trace_path = wl_mod.OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(ok) / busy[False],
            "item_p50_s": statistics.median(ok) if ok else 0.0,
            "item_p90_s": _p90(ok) if ok else 0.0,
            "peak_rss_mb": _peak_rss_mb(wl.child_rss),
        }
    result = {
        "correct": not failures and not warm_fail,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def _with_units(result: dict, bench: dict, trace: bool) -> dict:
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    return result


def _table(name: str, result: dict) -> str:
    lines = [f"== {name}"]
    for k, m in result["metrics"].items():
        lines.append(f"  {k:28s} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"  {'fail_ratio':28s} {result['failed'] / result['attempted']:>16.6g} "
                 f"ratio ({result['failed']} of {result['attempted']} items)")
    return "\n".join(lines)


def _validate(result: dict, bench: dict, trace: bool) -> list[str]:
    """Schema problems of one result line, against BENCHMARK.json."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed is not a whole number")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for k, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(k):
            errors.append(f"metric {k}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"metric {k} is not a finite number: {m['value']}")
    return errors


def _run_child(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One workload in its own interpreter, so peak memory is its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {name} exited {proc.returncode}")
    return json.loads(lines[-1])


def smoke(bench: dict) -> int:
    """Every workload at its smoke size, traced and untraced, schema-checked."""
    names = [w["name"] for w in bench["workloads"]]
    errors = []
    if sorted(names) != sorted(_import_workloads().WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} differ from workloads.py")
    for name in names:
        for trace in (0, 1):
            result = _run_child(name, 1, 0.0, trace, "smoke")
            errors += [f"{name} trace={trace}: {e}"
                       for e in _validate(result, bench, bool(trace))]
    for e in errors:
        print(f"smoke: {e}")
    print("smoke ok" if not errors else f"smoke failed: {len(errors)} problems")
    return 0 if not errors else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check the output schema")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        wl_mod = _import_workloads()
        wl = wl_mod.WORKLOADS[args.workload]
        wl.make_pass(_rng(args.workload, args.seed), wl.sizes[args.size])
        print("ready", flush=True)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        results = {name: _run_child(name, args.seed, args.seconds, args.trace, args.size)
                   for name in names}
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }))
        return 0
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size)
    result = _with_units(result, bench, bool(args.trace))
    print(json.dumps({"info": info}))
    print(_table(args.workload, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
