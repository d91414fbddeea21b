"""Before/after pairs of perfbench/run.py on two checkouts of this repository.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent P --change C \
        --workloads line_profile geometry_3d cli_session \
        --seeds 801 802 803 804 805 806 807 808 809 810 --trace-seed 851 \
        --seconds 30 --out BENCH_<n>.json --note "what the change does"

P and C are separate copies of the two trees (``git archive`` of each
commit), each holding no ``__pycache__``.  For every workload and seed the
two sides run ``perfbench/run.py`` unchanged, one after the other, and
alternate which runs first; then one traced pair (``--trace 1``) per
workload runs at the trace seed.  Every child runs with
``PYTHONDONTWRITEBYTECODE=1``, so both trees stay free of bytecode and
each import compiles afresh on both sides.

The output JSON holds, per workload and end-to-end metric, each side's
median and quartiles (linear interpolation, as ``numpy.percentile``) and
the number of pairs in which the change read better or worse, in the
direction that metric's ``better`` field of BENCHMARK.json gives; the traced
pair's per-layer metrics; every run's iteration count next to its
``peak_rss_mb``; and the last two stdout lines of every run.  The file is
rewritten after each run, so an interrupted batch keeps what it measured.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parent.parent


def directions(path: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """Each declared metric's ``better`` direction, "lower" or "higher"."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec.get("per_layer", [])}


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> list[dict]:
    """One perfbench run; returns its provenance and result lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{p.returncode}:\n{p.stderr}")
    return [json.loads(line) for line in p.stdout.splitlines()[-2:]]


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's spread and the pairs won.

    A pair is won when the change reads better than the parent in the
    metric's ``better`` direction, and lost when it reads worse; ties count
    for neither.  A metric with no declared direction is refused.
    """
    out = {}
    for r in runs:
        if r["trace"]:
            continue
        w = out.setdefault(r["workload"], {})
        for name, m in r["lines"][-1]["metrics"].items():
            w.setdefault(name, {}).setdefault(r["side"], {})[r["pair"]] = m["value"]
    for w in out.values():
        for name, by_side in list(w.items()):
            common = sorted(set(by_side.get("parent", {}))
                            & set(by_side.get("change", {})))
            if not common:
                del w[name]
                continue
            par = [by_side["parent"][i] for i in common]
            chg = [by_side["change"][i] for i in common]
            pm, cm = statistics.median(par), statistics.median(chg)
            sign = {"lower": 1, "higher": -1}[better[name]]
            w[name] = {
                "parent": spread(par), "change": spread(chg),
                "better": better[name],
                "change_better_in_pairs":
                    sum(sign * c < sign * p for p, c in zip(par, chg)),
                "change_worse_in_pairs":
                    sum(sign * c > sign * p for p, c in zip(par, chg)),
                "ratio_of_medians": cm / pm if pm else None,
            }
    return out


def traced(runs: list[dict]) -> dict:
    out = {}
    for r in runs:
        if r["trace"]:
            out.setdefault(r["workload"], {})[r["side"]] = {
                k: m["value"] for k, m in r["lines"][-1]["metrics"].items()}
    return out


def iterations(runs: list[dict]) -> list[dict]:
    rows = []
    for r in runs:
        rss = r["lines"][-1]["metrics"].get("peak_rss_mb")
        rows.append({"workload": r["workload"], "side": r["side"],
                     "seed": r["seed"], "pair": r["pair"], "trace": r["trace"],
                     "iterations": r["lines"][0]["provenance"]["iterations"],
                     "peak_rss_mb": rss["value"] if rss else None})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"--{side}: no perfbench/run.py under {tree}")
        if any("__pycache__" in dirs for _, dirs, _ in os.walk(tree)):
            ap.error(f"--{side}: {tree} holds __pycache__; use a fresh copy")

    schedule = []  # (workload, seed, pair, trace, first side)
    for w in args.workloads:
        for pair, seed in enumerate(args.seeds):
            schedule.append((w, seed, pair, 0, SIDES[pair % 2]))
        if args.trace_seed is not None:
            schedule.append((w, args.trace_seed, 0, 1, "parent"))
    better = directions()
    runs = []
    for w, seed, pair, trace, first in schedule:
        order = SIDES if first == "parent" else SIDES[::-1]
        for side in order:
            lines = run_once(trees[side], w, seed, args.seconds, trace)
            runs.append({"side": side, "workload": w, "seed": seed,
                         "pair": pair, "first": first, "trace": trace,
                         "lines": lines})
            wall = lines[-1]["metrics"].get("wall_s")
            print(f"{w} seed {seed} trace {trace} {side}: "
                  f"wall_s {wall['value'] if wall else '-'}", flush=True)
            record = {
                "description": args.note,
                "protocol": {"seconds": args.seconds, "seeds": args.seeds,
                             "trace_seed": args.trace_seed,
                             "workloads": args.workloads,
                             "env": {"PYTHONDONTWRITEBYTECODE": "1"},
                             "quartiles": "linear interpolation"},
                "summary_untraced": summarize(runs, better),
                "traced_per_layer": traced(runs),
                "iterations": iterations(runs),
                "runs": runs,
            }
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    for w, metrics in record["summary_untraced"].items():
        for name, s in metrics.items():
            print(f"{w:13s} {name:17s} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  "
                  f"change {s['change']['median']:.6g} "
                  f"[{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]  "
                  f"{s['better']} (better) in "
                  f"{s['change_better_in_pairs']}/{s['parent']['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
