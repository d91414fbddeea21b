"""The pair summary of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(side, pair, metrics, trace=0):
    return {"side": side, "workload": "w", "seed": 100 + pair, "pair": pair,
            "trace": trace,
            "lines": [{"provenance": {"iterations": 3}},
                      {"metrics": {k: {"value": v} for k, v in metrics.items()}}]}


def test_pairs_are_won_in_each_metric_declared_direction():
    parent = {"wall_s": [1.0, 2.0, 3.0, 4.0, 5.0],
              "ok_frac": [1.0, 1.0, 0.5, 0.5, 0.5]}
    change = {"wall_s": [0.5, 2.0, 3.5, 3.0, 1.0],
              "ok_frac": [1.0, 0.5, 1.0, 1.0, 0.5]}
    runs = [_run(side, i, {k: v[i] for k, v in vals.items()})
            for i in range(5)
            for side, vals in (("parent", parent), ("change", change))]
    runs.append(_run("change", 0, {"wall_s": 99.0, "ok_frac": 0.0}, trace=1))
    got = bench_pairs.summarize(runs, {"wall_s": "lower", "ok_frac": "higher"})["w"]
    wall, ok = got["wall_s"], got["ok_frac"]
    # medians and linear-interpolation quartiles of each side; the traced
    # run is left out
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert wall["change"] == {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 5}
    assert ok["parent"] == {"median": 0.5, "q1": 0.5, "q3": 1.0, "n": 5}
    # lower wall_s wins pairs 0, 3 and 4, loses pair 2, ties pair 1
    assert (wall["change_better_in_pairs"], wall["change_worse_in_pairs"]) == (3, 1)
    # higher ok_frac wins pairs 2 and 3, loses pair 1, ties pairs 0 and 4
    assert (ok["change_better_in_pairs"], ok["change_worse_in_pairs"]) == (2, 1)
    assert wall["ratio_of_medians"] == pytest.approx(2.0 / 3.0)


def test_directions_come_from_the_benchmark_declaration():
    better = bench_pairs.directions()
    assert better["wall_s"] == "lower"
    assert better["ok_frac"] == "higher" and better["certified_frac"] == "higher"
    with pytest.raises(KeyError):
        bench_pairs.summarize([_run("parent", 0, {"new_metric": 1.0}),
                               _run("change", 0, {"new_metric": 2.0})], better)
