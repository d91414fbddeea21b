"""centralspin benchmark: one workload, closed loop, certificate-aware metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload line_profile --seed 1 --seconds 30 --trace 0

Runs the workload's iterations one after another for about ``--seconds``
of measured time (the iteration count whose total comes nearest to it, at
least two), checks every output outside the timed region, and prints a
provenance line and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, each
the median over the run's iterations; with ``--trace 1`` untraced and
traced iterations alternate and the metrics are the per-layer ones, each
the median over the traced iterations.  Exits 2 when the checkout holds no
centralspin sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of SETUP_SAMPLES imports.  Sample k is taken at the
# first gap between iterations after k/SETUP_SAMPLES of the measured time,
# so the samples spread over the run evenly whatever an iteration's length;
# those still due when the run ends are taken then.
SETUP_SAMPLES = 9
MIN_ITERATIONS = 2


def import_seconds(env: dict, cwd: Path) -> float:
    """Seconds from spawning a fresh interpreter until `import centralspin` is done."""
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c",
                        "import time, centralspin; print(repr(time.monotonic()))"],
                       env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                       check=True)
    return float(p.stdout) - t0


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_iteration(workload, package, trace=None):
    """One timed iteration; with a tracer, in-process calls are wrapped
    around it and the originals restored afterwards."""
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    workload.prepare()
    installed = trace.install(package) if trace is not None and workload.in_process else []
    try:
        c0, t0 = cpu_seconds(who), time.perf_counter()
        ops = workload.iteration(trace)
        wall, cpu = time.perf_counter() - t0, cpu_seconds(who) - c0
    finally:
        tracer.Tracer.restore(installed)
    return wall, cpu, ops


def measure(workload, package, reference, seconds: float, traced: bool,
            between=None) -> dict:
    """The closed loop; returns samples, failure tallies and certificates.
    ``between(spent)`` runs before the first iteration and after each
    iteration's check, outside the timed region, with the measured time so
    far."""
    out = {"walls": [], "cpus": [], "traced_walls": [], "layers": [],
           "attempted": 0, "failed": 0, "reasons": {},
           "cert": workloads.Certificates()}
    spent = 0.0
    if between is not None:
        between(spent)
    while True:
        n = len(out["walls"]) + len(out["traced_walls"])
        trace = tracer.Tracer(tracer.COUNTERS) if traced and n % 2 else None
        wall, cpu, ops = run_iteration(workload, package, trace)
        if trace is None:
            out["walls"].append(wall)
            out["cpus"].append(cpu)
        else:
            out["traced_walls"].append(wall)
            out["layers"].append(tracer.layer_metrics(trace.spans, wall))
        fails = workload.check(ops, reference)
        out["attempted"] += len(ops)
        out["failed"] += len(fails)
        for name, why in fails.items():
            out["reasons"].setdefault(f"{name}: {why}", 0)
            out["reasons"][f"{name}: {why}"] += 1
        workload.certificates({k: v for k, v in ops.items() if k not in fails}, out["cert"])
        del ops
        spent += wall
        if between is not None:
            between(spent)
        n += 1
        # stop at the iteration count whose total comes nearest to seconds
        if n >= MIN_ITERATIONS and spent + spent / n / 2 > seconds:
            return out


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def provenance(args, samples: int) -> dict:
    threads = os.environ.get("CENTRALSPIN_THREADS")
    cpus = os.cpu_count() or 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": samples,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "centralspin_threads_env": threads,
        # the seed's rules: ramsey.evaluate_profile uses min(8, cpu_count)
        # threads, cKDTree queries use workers=-1 (every core)
        "ramsey_threads": max(1, int(threads)) if threads else min(8, cpus),
        "kdtree_workers": int(threads) if threads else -1,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "centralspin" / "__init__.py").is_file():
        print(f"error: no centralspin sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import centralspin

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.WORKLOADS[args.workload](centralspin, args.seed, Path(tmp))
        metrics, setup = {}, []
        env = workloads.child_env(SRC)

        def sample_setup(spent: float):
            due = min(SETUP_SAMPLES, 1 + int(spent / args.seconds * SETUP_SAMPLES))
            while len(setup) < due:
                setup.append(import_seconds(env, Path(tmp)))

        if not args.trace:
            import_seconds(env, Path(tmp))  # compiles bytecode, warms the file cache
        res = measure(workload, centralspin, workloads.load_reference(),
                      args.seconds, bool(args.trace),
                      None if args.trace else sample_setup)
        if not args.trace:
            sample_setup(args.seconds)  # the samples still due
        if setup:
            metrics["setup_s"] = statistics.median(setup)

    if args.trace:
        metrics.update(median_metrics(res["layers"]))
        metrics["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                       - statistics.median(res["walls"]))
        declared = spec["per_layer"]
    else:
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        metrics.update({
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
            **res["cert"].metrics(),
        })
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        diff = sorted(set(metrics) ^ {m["name"] for m in declared})
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {diff}")

    for why, count in sorted(res["reasons"].items()):
        print(f"FAILED x{count}: {why}", file=sys.stderr)
    info = provenance(args, len(res["walls"]) + len(res["traced_walls"]))
    info["wall_samples"] = res["walls"]
    info["traced_wall_samples"] = res["traced_walls"]
    info["setup_samples"] = setup
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
