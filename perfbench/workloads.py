"""The benchmark's three workloads, their output checks and certificates.

Each workload is a closed loop with one caller: ``prepare`` does the
untimed housekeeping before an iteration; ``iteration`` issues its calls
one after another and returns every operation's output (or a ``Failed``
marker) by name; ``check`` returns the operations whose output is wrong,
outside the timed region; ``certificates`` collects the error bars that
the outputs which passed their checks carry.

Sizes are scaled so that one iteration takes a few seconds on a 2-core
machine, which lets a 30 s run take a median over several iterations.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer

# A run's interval [v - e, v + e] passes when it intersects the reference
# interval up to this allowance.  The seed's err leaves out float rounding;
# its values are exactly rounded sums, so the relative allowance covers
# them.  Profile values lie in [-1, 1] and may also move by the absolute
# allowance (a re-ordered product moved them by at most 1.8e-12).
REL_ALLOWANCE = 1e-12
ABS_ALLOWANCE_PROFILE = 1e-10
# Measured r_pack and exact covering radii are compared up to rounding of
# a square root.
RADIUS_SLACK = 1e-12

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


class Failed:
    """Marks an operation that produced no output."""

    def __init__(self, reason: str):
        self.reason = reason


def call(ops: dict, name: str, fn, *args):
    """Run one operation, recording its output or why it has none."""
    if any(isinstance(a, Failed) for a in args):
        ops[name] = Failed("an input failed")
    else:
        try:
            ops[name] = fn(*args)
        except Exception as exc:  # a raise or refusal is a failed operation
            ops[name] = Failed(f"{type(exc).__name__}: {exc}")
    return ops[name]


def intervals_meet(values, errs, ref_values, ref_errs, abs_allow=0.0) -> bool:
    values, errs = np.asarray(values, float), np.asarray(errs, float)
    ref_values, ref_errs = np.asarray(ref_values, float), np.asarray(ref_errs, float)
    if values.shape != ref_values.shape:
        return False
    slack = abs_allow + REL_ALLOWANCE * np.maximum(np.abs(values), np.abs(ref_values))
    return bool(np.all(np.abs(values - ref_values) <= errs + ref_errs + slack))


def rows_meet(times, values, errs, ref: dict, abs_allow=ABS_ALLOWANCE_PROFILE) -> bool:
    """Subsampled rows (every ``ref['stride']``-th) against a reference."""
    s = ref["stride"]
    times = np.asarray(times)[::s]
    if times.shape != (len(ref["t"]),) or not np.array_equal(times, ref["t"]):
        return False
    return intervals_meet(np.asarray(values)[::s], np.asarray(errs)[::s],
                          ref["value"], ref["err"], abs_allow)


def subsample(times, values, errs, stride: int) -> dict:
    return {"stride": stride, "t": np.asarray(times)[::stride].tolist(),
            "value": np.asarray(values)[::stride].tolist(),
            "err": np.asarray(errs)[::stride].tolist()}


def child_env(src: Path) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def packing_ok(ps, radii) -> bool:
    return radii.r_pack >= float(ps.meta["r_pack_structural"]) * (1.0 - RADIUS_SLACK)


class Workload:
    """What every workload shares: in-process by default, nothing to prepare."""

    in_process = True

    def prepare(self) -> None:
        """Housekeeping before an iteration, outside the timed region."""


@dataclass
class Certificates:
    """Error bars of the certified numbers a run produced."""

    row_errs: list = field(default_factory=list)  # profile err(t) arrays
    tails: list = field(default_factory=list)  # (value, err) of tail sums
    cover_ratios: list = field(default_factory=list)  # (r_cover + probe_resolution) / r_cover

    def add_radii(self, radii) -> None:
        self.cover_ratios.append(radii.r_cover_upper / radii.r_cover)

    def metrics(self) -> dict:
        rows = np.concatenate(self.row_errs) if self.row_errs else np.empty(0)
        tails = np.array(self.tails, dtype=float).reshape(-1, 2)
        rel = tails[:, 1] / tails[:, 0]
        n = rows.size + rel.size
        if not n or not self.cover_ratios:
            return {"certified_frac": 0.0, "err_mean": 0.0,
                    "tail_relerr_mean": 0.0, "cover_ratio_max": 0.0}
        informative = np.count_nonzero(rows < 2.0) + np.count_nonzero(rel < 1.0)
        return {
            "certified_frac": informative / n,
            "err_mean": (float(rows.sum()) + float(rel.sum())) / n,
            "tail_relerr_mean": float(rel.mean()) if rel.size else 0.0,
            "cover_ratio_max": max(self.cover_ratios),
        }


# ---------------------------------------------------------------------------
# line_profile: ramsey does ~95% of the work


class LineProfile(Workload):
    """d=1 lattice, R = 5e4; three profiles at r = 10 over 601 times in [0, 6]
    with tol = 0.05, each followed by compact_bound_check (criterion 05's
    line job, scaled from R = 5e5).  Takes no seed: the lattice is fixed."""

    name = "line_profile"
    R_MAX = 5.0e4
    ALPHAS = (1.0, 1.5, 2.0)
    R_INNER = 10.0
    TOL = 0.05
    TIMES = np.linspace(0.0, 6.0, 601)
    STRIDE = 10

    def __init__(self, cs, seed: int, tmp: Path):
        self.cs = cs

    def iteration(self, trace=None) -> dict:
        cs, ops = self.cs, {}
        ps = call(ops, "gen_lattice", cs.gen_lattice, 1, self.R_MAX)
        radii = call(ops, "measure_radii", cs.measure_radii, ps)
        for a in self.ALPHAS:
            prof = call(ops, f"evaluate_profile[{a}]", cs.evaluate_profile,
                        ps, radii, a, self.R_INNER, self.TIMES, self.TOL)
            call(ops, f"compact_bound_check[{a}]", cs.compact_bound_check, prof)
        return ops

    def reference(self, ops: dict) -> dict:
        out = {}
        for a in self.ALPHAS:
            prof = ops[f"evaluate_profile[{a}]"]
            out[str(a)] = {"rows": subsample(prof.times, prof.values, prof.err, self.STRIDE),
                           "s2": [prof.s2.value, prof.s2.err],
                           "s4": [prof.s4.value, prof.s4.err]}
        return out

    def check(self, ops: dict, ref: dict) -> dict:
        ref = ref[self.name]

        def profile_ok(a, prof):
            r = ref[str(a)]
            return (rows_meet(prof.times, prof.values, prof.err, r["rows"])
                    and intervals_meet([prof.s2.value, prof.s4.value],
                                       [prof.s2.err, prof.s4.err],
                                       [r["s2"][0], r["s4"][0]],
                                       [r["s2"][1], r["s4"][1]]))

        checks = {
            "gen_lattice": lambda ps: ps.n_points == 2 * int(self.R_MAX),
            # Z has r_pack = r_cover = 1/2 exactly
            "measure_radii": lambda rd: (rd.r_pack >= 0.5 * (1 - RADIUS_SLACK)
                                        and rd.r_cover <= 0.5 <= rd.r_cover_upper + RADIUS_SLACK),
        }
        for a in self.ALPHAS:
            checks[f"evaluate_profile[{a}]"] = lambda p, a=a: profile_ok(a, p)
            checks[f"compact_bound_check[{a}]"] = lambda d: d.envelope_ok
        return failures(ops, checks)

    def certificates(self, ops: dict, cert: Certificates) -> None:
        if "measure_radii" in ops:
            cert.add_radii(ops["measure_radii"])
        for a in self.ALPHAS:
            prof = ops.get(f"evaluate_profile[{a}]")
            if prof is not None:
                cert.row_errs.append(np.asarray(prof.err))
                cert.tails += [(prof.s2.value, prof.s2.err), (prof.s4.value, prof.s4.err)]


def failures(ops: dict, checks: dict) -> dict:
    """Failed operations by name, with the reason."""
    out = {}
    for name, res in ops.items():
        if isinstance(res, Failed):
            out[name] = res.reason
            continue
        check = checks.get(name) or checks.get(name.split("[")[0])
        try:
            ok = check(res)
        except Exception as exc:  # a malformed output fails its check
            ok, why = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            why = "output check rejected it"
        if not ok:
            out[name] = why
    return out


# ---------------------------------------------------------------------------
# geometry_3d: pointsets does ~90% of the work, ramsey is never called


class Geometry3D(Workload):
    """d=3 lattice and jittered sets (R = 20, eta = 0.25) and a Poisson-disk
    set (R = 15, r_min = 1.5), each measured with margin 2, then the
    sandwich over alpha in {d+0.5, d+1, d+2} and 8 radii from
    3 r_cover_upper to R/2, and 100 annulus checks (criteria 03 and 04,
    scaled from R = 40/30).  The seed drives the jitter, the Poisson sample
    and the annulus radii.

    Iterations take SAMPLES input sets derived from the seed in turn, so a
    run's median time and peak memory rest on several samples.  The count
    is odd, so the untraced and traced iterations of a traced run, which
    alternate, each see every sample."""

    name = "geometry_3d"
    R_GRID = 20.0
    R_POISSON = 15.0
    ETA = 0.25
    R_MIN = 1.5
    MARGIN = 2.0
    ALPHAS = (3.5, 4.0, 5.0)
    N_RADII = 8
    N_ANNULI = 100
    KINDS = ("lattice", "jitter", "poisson")
    SAMPLES = 3

    def __init__(self, cs, seed: int, tmp: Path):
        self.cs = cs
        self.inputs = [(s, np.random.default_rng([s, 4]).random((self.N_ANNULI, 2)))
                       for s in range(seed * self.SAMPLES, (seed + 1) * self.SAMPLES)]
        self.count = -1

    def prepare(self) -> None:
        self.count += 1

    def iteration(self, trace=None) -> dict:
        cs, ops = self.cs, {}
        seed, annulus_u = self.inputs[self.count % self.SAMPLES]
        sets = {
            "lattice": call(ops, "gen_lattice", cs.gen_lattice, 3, self.R_GRID),
            "jitter": call(ops, "gen_jittered", cs.gen_jittered, 3, self.R_GRID,
                           self.ETA, seed),
            "poisson": call(ops, "gen_poisson_disk", cs.gen_poisson_disk, 3,
                            self.R_POISSON, self.R_MIN, seed),
        }
        radii = {k: call(ops, f"measure_radii[{k}]", cs.measure_radii, ps, self.MARGIN)
                 for k, ps in sets.items()}
        for k, ps in sets.items():
            rd = radii[k]
            for a in self.ALPHAS:
                for i in range(self.N_RADII):
                    name = f"sandwich_check[{k},{a},{i}]"
                    if isinstance(rd, Failed):
                        ops[name] = Failed("an input failed")
                        continue
                    r = np.linspace(3.0 * rd.r_cover_upper, ps.region_radius / 2.0,
                                    self.N_RADII)[i]
                    call(ops, name, cs.sandwich_check, ps, rd, a, float(r))
        for j, (u1, u2) in enumerate(annulus_u):
            k = self.KINDS[j % 3]
            ps, rd = sets[k], radii[k]
            name = f"check_annulus_bounds[{j}]"
            if isinstance(rd, Failed):
                ops[name] = Failed("an input failed")
                continue
            R, rp = ps.region_radius, rd.r_pack
            a = rp * 1.01 + u1 * (R / 2.0 - rp)
            b = a + 0.1 + u2 * (R - a - 0.1)
            call(ops, name, cs.check_annulus_bounds, ps, rd, float(a), float(b))
        return ops

    def check(self, ops: dict, ref: dict) -> dict:
        ref = ref[self.name]
        sets = {"lattice": ops["gen_lattice"], "jitter": ops["gen_jittered"],
                "poisson": ops["gen_poisson_disk"]}
        cover = math.sqrt(3.0) / 2.0  # exact covering radius of Z^3

        def radii_ok(k, rd):
            ps = sets[k]
            if not packing_ok(ps, rd):
                return False
            return k != "lattice" or rd.r_cover <= cover <= rd.r_cover_upper + RADIUS_SLACK

        checks = {
            "gen_lattice": lambda ps: ps.n_points == ref["lattice_points"],
            "gen_jittered": lambda ps: ps.n_points > 0,
            "gen_poisson_disk": lambda ps: (ps.n_points > 0
                                            and self.cs.insertable_probes(ps).shape[0] == 0),
            "sandwich_check": lambda res: res.holds,
            "check_annulus_bounds": lambda res: res.holds,
        }
        for k in self.KINDS:
            checks[f"measure_radii[{k}]"] = lambda rd, k=k: radii_ok(k, rd)
        return failures(ops, checks)

    def certificates(self, ops: dict, cert: Certificates) -> None:
        for name, res in ops.items():
            if name.startswith("measure_radii"):
                cert.add_radii(res)
            elif name.startswith("sandwich_check"):
                cert.tails.append((res.finite_sum, res.tail_err))


# ---------------------------------------------------------------------------
# cli_session: fresh `python -m centralspin` processes, one after another


@dataclass
class Proc:
    """A CLI process that exited with 0, and where it wrote its outputs."""

    stdout: str
    stderr: str
    outdir: Path


class CliSession(Workload):
    """Nine fresh CLI processes (the only workload that reaches spectra,
    basis and the CLI's I/O).  The ramsey windows and the Cantor sample are
    smaller than the first probe's, so that each process's own work is
    about as long as its import.  The seed drives the Poisson, Cantor and
    basis seeds."""

    name = "cli_session"
    in_process = False
    TIMEOUT_S = 150
    CANTOR_DEPTH = 40  # the CLI default
    CANTOR_N = 300
    ROW_STRIDES = {"ramsey_d1": 40, "ramsey_d2": 8, "ramsey_d3": 8,
                   "spectra_product": 20}

    def __init__(self, cs, seed: int, tmp: Path):
        self.cs, self.seed, self.tmp = cs, seed, tmp
        self.src = Path(cs.__file__).resolve().parent.parent
        self.env = child_env(self.src)
        self.count = 0

    def commands(self) -> dict:
        s = str(self.seed)
        return {
            "points": ["points", "--dim", "2", "--set", "poisson", "--rmax", "50",
                       "--seed", s, "--out", "points.csv"],
            "bounds": ["bounds", "--dim", "1", "--rmax", "10000", "--r", "10", "30", "100",
                       "--out", "bounds.json"],
            # the tail certificate at t = 1000 needs rmax >= 2421.24
            "ramsey_d1": ["ramsey", "--dim", "1", "--alpha", "2", "--r", "10", "--rmax", "3000",
                          "--tmax", "1000", "--dt", "0.125", "--tol", "0.2",
                          "--out", "ramsey_d1.csv"],
            "ramsey_d2": ["ramsey", "--dim", "2", "--alpha", "1.5", "--tol", "2", "--rmax", "100",
                          "--out", "ramsey_d2.csv"],
            "ramsey_d3": ["ramsey", "--dim", "3", "--alpha", "2", "--tol", "2", "--rmax", "15",
                          "--out", "ramsey_d3.csv"],
            "spectra_product": ["spectra", "product", "--out", "spectra_product.csv"],
            "spectra_cantor": ["spectra", "cantor", "--n", str(self.CANTOR_N), "--seed", s,
                               "--out", "spectra_cantor.csv"],
            "basis": ["basis", "--seed", s, "--out", "basis.json"],
            "verify": ["verify", "--quick"],
        }

    def prepare(self) -> None:
        """Removes the previous session's outputs and makes one empty
        directory per command for the next."""
        shutil.rmtree(self.tmp / f"session{self.count}", ignore_errors=True)
        self.count += 1
        for name in self.commands():
            (self.tmp / f"session{self.count}" / name).mkdir(parents=True)

    def iteration(self, trace: tracer.Tracer | None = None) -> dict:
        return {name: self._run(argv, self.tmp / f"session{self.count}" / name, trace)
                for name, argv in self.commands().items()}

    def _run(self, argv, outdir: Path, trace):
        if trace is None:
            cmd = [sys.executable, "-m", "centralspin", *argv]
        else:
            spans_path = outdir / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.src),
                   str(spans_path), *argv]
        spawn = time.monotonic()
        try:
            p = subprocess.run(cmd, cwd=outdir, env=self.env, capture_output=True,
                               text=True, timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Failed(f"timed out after {self.TIMEOUT_S} s")
        if p.returncode != 0:
            return Failed(f"exit code {p.returncode}: {p.stderr.strip()[-300:]}")
        proc = Proc(p.stdout, p.stderr, outdir)
        if trace is not None:
            child = json.loads(spans_path.read_text())
            spans_path.unlink()
            trace.spans.append(tracer.Span("startup", spawn, child["ready"]))
            base = len(trace.spans)
            for sd in child["spans"]:
                sp = tracer.Span(**sd)
                if sp.parent >= 0:
                    sp.parent += base
                trace.spans.append(sp)
            trace.spans[base].counts["bytes_out"] = bytes_out(proc)
        return proc

    def reference(self, ops: dict) -> dict:
        out = {}
        for name, stride in self.ROW_STRIDES.items():
            cols = csv_columns(ops[name], name)
            out[name] = subsample(cols[0], cols[1], cols[2], stride)
            if name.startswith("ramsey"):
                side = sidecar(ops[name], name)
                out[name + ".s2"] = [side["s2"]["value"], side["s2"]["err"]]
                out[name + ".s4"] = [side["s4"]["value"], side["s4"]["err"]]
        rows = report(ops["bounds"], "bounds")["rows"]
        out["bounds"] = {"r": [r["r"] for r in rows], "sum": [r["sum"] for r in rows],
                         "err": [r["err"] for r in rows]}
        return out

    def check(self, ops: dict, ref: dict) -> dict:
        ref = ref[self.name]
        cs = self.cs

        def points_ok(p):
            side = sidecar(p, "points")
            pts = np.loadtxt(p.outdir / "points.csv", delimiter=",", skiprows=1, ndmin=2)
            ps = cs.PointSet(2, pts, side["config"]["params"]["rmax"], side["meta"])
            rd = cs.DeloneRadii(**side["radii"])
            return (side["n_points"] == ps.n_points and packing_ok(ps, rd)
                    and cs.insertable_probes(ps).shape[0] == 0)

        def bounds_ok(p):
            rep = report(p, "bounds")
            r = ref["bounds"]
            return (rep["all_hold"] and [row["r"] for row in rep["rows"]] == r["r"]
                    and intervals_meet([row["sum"] for row in rep["rows"]],
                                       [row["err"] for row in rep["rows"]],
                                       r["sum"], r["err"]))

        def rows_ok(p, name):
            t, v, e = csv_columns(p, name)[:3]
            if not rows_meet(t, v, e, ref[name]):
                return False
            if not name.startswith("ramsey"):
                return True
            side = sidecar(p, name)
            s2, s4 = ref[name + ".s2"], ref[name + ".s4"]
            return side["compact_bound_ok"] and intervals_meet(
                [side["s2"]["value"], side["s4"]["value"]],
                [side["s2"]["err"], side["s4"]["err"]], [s2[0], s4[0]], [s2[1], s4[1]])

        def cantor_ok(p):
            x, _, c = csv_columns(p, "spectra_cantor")
            budget = 2.0 ** -self.CANTOR_DEPTH + 3.0 ** -self.CANTOR_DEPTH + 1e-12
            return x.size == self.CANTOR_N and bool(np.all(np.abs(c - x) <= budget))

        def basis_ok(p):
            rep = report(p, "basis")
            return (all(q["inner"] == q["expected"] for q in rep["orthonormality"])
                    and all(abs(abs(complex(f["re"], f["im"])) - f["predicted_mag"]) <= 1e-12
                            for f in rep["fourier_support"]))

        checks = {
            "points": points_ok,
            "bounds": bounds_ok,
            "spectra_cantor": cantor_ok,
            "basis": basis_ok,
            "verify": lambda p: re.search(r"^all \d+ checks passed$", p.stdout, re.M) is not None,
        }
        for name in self.ROW_STRIDES:
            checks[name] = lambda p, name=name: rows_ok(p, name)
        return failures(ops, checks)

    def certificates(self, ops: dict, cert: Certificates) -> None:
        # The Poisson radii of `points` are left out: their probe gap is one
        # sample per seed, so it would spread with the seed (geometry_3d
        # bounds the gap over six seeded sets per run instead).
        if "bounds" in ops:
            rep = report(ops["bounds"], "bounds")
            cert.add_radii(self.cs.DeloneRadii(**rep["radii"]))
            cert.tails += [(r["sum"], r["err"]) for r in rep["rows"]]
        for name in ("ramsey_d1", "ramsey_d2", "ramsey_d3"):
            p = ops.get(name)
            if p is None:
                continue
            cert.row_errs.append(csv_columns(p, name)[2])
            side = sidecar(p, name)
            cert.tails += [(side["s2"]["value"], side["s2"]["err"]),
                           (side["s4"]["value"], side["s4"]["err"])]


def csv_columns(p: Proc, name: str) -> np.ndarray:
    return np.loadtxt(p.outdir / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2).T


def sidecar(p: Proc, name: str) -> dict:
    return json.loads((p.outdir / f"{name}.csv.json").read_text())


def report(p: Proc, name: str) -> dict:
    return json.loads((p.outdir / f"{name}.json").read_text())


def bytes_out(p: Proc) -> int:
    files = sum(f.stat().st_size for f in p.outdir.iterdir() if f.name != "spans.json")
    return files + len(p.stdout.encode()) + len(p.stderr.encode())


WORKLOADS = {w.name: w for w in (LineProfile, Geometry3D, CliSession)}
