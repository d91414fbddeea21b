"""Tests of the benchmark itself: output check, self time, wrapper restore.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import importlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import centralspin  # noqa: E402

REF = workloads.load_reference()
LINE = workloads.LineProfile


def fake_profile(alpha: float) -> SimpleNamespace:
    """A profile that matches the stored reference rows exactly."""
    r = REF[LINE.name][str(alpha)]
    values = np.zeros(LINE.TIMES.size)
    err = np.zeros(LINE.TIMES.size)
    values[::r["rows"]["stride"]] = r["rows"]["value"]
    err[::r["rows"]["stride"]] = r["rows"]["err"]
    cv = lambda pair: SimpleNamespace(value=pair[0], err=pair[1])  # noqa: E731
    return SimpleNamespace(times=LINE.TIMES.copy(), values=values, err=err,
                           s2=cv(r["s2"]), s4=cv(r["s4"]))


def fake_library(evaluate_profile) -> SimpleNamespace:
    return SimpleNamespace(
        gen_lattice=lambda d, R: SimpleNamespace(n_points=2 * int(R)),
        measure_radii=lambda ps: SimpleNamespace(r_pack=0.5, r_cover=0.5, r_cover_upper=0.5),
        evaluate_profile=evaluate_profile,
        compact_bound_check=lambda prof: SimpleNamespace(envelope_ok=True))


def test_output_check_accepts_the_reference_and_rejects_a_moved_value():
    lib = fake_library(lambda ps, radii, a, r, times, tol: fake_profile(a))
    line = LINE(lib, 0, None)
    ops = line.iteration()
    assert line.check(ops, REF) == {}

    prof = ops["evaluate_profile[1.0]"]
    k = 7 * REF[LINE.name]["1.0"]["rows"]["stride"]
    # inside the two intervals plus the allowance: still accepted
    prof.values[k] += 1.9 * prof.err[k]
    assert line.check(ops, REF) == {}
    # moved outside: rejected, and only that operation fails
    prof.values[k] += 0.2 * prof.err[k] + 1e-9
    assert list(line.check(ops, REF)) == ["evaluate_profile[1.0]"]


def test_output_check_rejects_a_tail_sum_outside_its_interval():
    ref = REF[LINE.name]["2.0"]["s4"]
    assert workloads.intervals_meet([ref[0]], [ref[1]], [ref[0]], [ref[1]])
    moved = ref[0] * (1 + 1e-9)
    assert not workloads.intervals_meet([moved], [ref[1]], [ref[0]], [ref[1]])


def test_an_unexpected_refusal_counts_as_a_failure():
    def refuse(ps, radii, a, r, times, tol):
        if a == 1.5:
            raise ValueError("truncation certificate 0.06 exceeds tol=0.05")
        return fake_profile(a)

    line = LINE(fake_library(refuse), 0, None)
    ops = line.iteration()
    fails = line.check(ops, REF)
    assert set(fails) == {"evaluate_profile[1.5]", "compact_bound_check[1.5]"}
    assert "exceeds tol" in fails["evaluate_profile[1.5]"]
    assert len(ops) == 8


def test_self_time_of_a_toy_nested_call():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("bounds.inner", lambda: None)

    def outer_fn():
        inner()  # 1.0 .. 4.0
        inner()  # 5.0 .. 6.0

    tr.wrap("ramsey.outer", outer_fn)()  # 0.0 .. 10.0
    s = tracer.summarize(tr.spans)
    assert s["ramsey.outer"]["s"] == 6.0
    assert s["ramsey.outer"]["incl"] == 10.0
    assert s["bounds.inner"] == {"s": 4.0, "incl": 4.0, "calls": 2}
    m = tracer.layer_metrics(tr.spans, wall=11.0)
    assert (m["ramsey.s"], m["bounds.s"], m["trace.unattributed_s"]) == (6.0, 4.0, 1.0)


def _bindings():
    mods = [centralspin] + [importlib.import_module(f"centralspin.{m}")
                            for m in tracer.LAYERS]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    out["CosProduct.evaluate"] = centralspin.CosProduct.evaluate
    return out


class _Toy(workloads.Workload):
    def __init__(self, fail=False):
        self.fail = fail

    def iteration(self, trace=None):
        ps = centralspin.gen_lattice(1, 10.0)
        centralspin.CosProduct(2, depth=5).evaluate(1.0)
        centralspin.ramsey.delone_tail_sum(ps, centralspin.measure_radii(ps), 4.0, 2.0)
        if self.fail:
            raise RuntimeError("boom")
        return {}


@pytest.mark.parametrize("fail", [False, True])
def test_wrappers_are_restored_after_a_traced_run(fail):
    before = _bindings()
    tr = tracer.Tracer(tracer.COUNTERS)
    if fail:
        with pytest.raises(RuntimeError):
            run.run_iteration(_Toy(fail), centralspin, tr)
    else:
        run.run_iteration(_Toy(fail), centralspin, tr)
    names = {sp.name for sp in tr.spans}
    assert {"pointsets.gen_lattice", "spectra.CosProduct.evaluate",
            "bounds.delone_tail_sum", "pointsets.measure_radii"} <= names
    sums = tracer.summarize(tr.spans)
    assert sums["pointsets.gen_lattice"]["sites"] == 20
    assert sums["bounds.delone_tail_sum"]["terms"] == 18
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
