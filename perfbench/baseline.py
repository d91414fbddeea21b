"""Repeat the benchmark over seeds and summarize each metric's median and quartiles.

Usage (from the repository root):

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload of BENCHMARK.json, makes RUNS untraced runs and
TRACE_RUNS traced runs, one after another, with seeds SEED_BASE,
SEED_BASE + 1, ...  Writes, with ``--out``, for every metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``),
the spread (quartile distance over the median) and, for end-to-end
metrics, the bound from BENCHMARK.json.  Prints one line per end-to-end
metric and exits 1 when a run was incorrect or a spread reaches a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

RUNS, TRACE_RUNS, SEED_BASE = 10, 5, 201


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with the run's own duration added as ``run_s``."""
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "n": len(values), "values": values}
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds_from": SEED_BASE,
              "workloads": {}}
    ok = True
    for w in [wl["name"] for wl in spec["workloads"]]:
        entry = {}
        for trace, n, key in ((0, RUNS, "end_to_end"), (1, TRACE_RUNS, "per_layer")):
            results = [one_run(w, SEED_BASE + i, spec["run_seconds"], trace)
                       for i in range(n)]
            ok &= all(r["correct"] for r in results)
            entry[key] = summarize(results)
            entry[key + "_failed"] = sum(r["failed"] for r in results)
            entry[key + "_attempted"] = sum(r["attempted"] for r in results)
            entry[key + "_run_s"] = [r["run_s"] for r in results]
        for name, s in entry.get("end_to_end", {}).items():
            s["bound"] = bounds[name]
            steady = s["spread"] < bounds[name] / 3.0
            ok &= steady
            print(f"{w:13s} {name:18s} median {s['median']:.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}"
                  f"{'' if steady else '  <-- not steady'}", flush=True)
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
