"""Command-line front end: plot-ready CSV/JSON emission and verification.

Subcommands
-----------
points   generate a point set (lattice / jitter / poisson), write CSV + sidecar
bounds   certified tail sums and sandwich checks as a JSON report
ramsey   dephasing profile CSV: t, C, err, gauss, bound_rhs
spectra  cosine-product CSV (t, C, err); `spectra cantor` emits (x, D, C(D))
basis    orthonormality and Fourier reports as JSON
verify   run the property suite, print a PASS/FAIL table, exit nonzero on failure

Every CSV carries a header row and 17-significant-digit values, plus a JSON
sidecar (same path + ".json") echoing the full configuration and the library
version, so identical config + seed reproduces byte-identical files.  Exit
codes: 0 success, 1 verification failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Callable

import numpy as np

from . import __version__
from . import basis as basis_mod
from . import bounds as bounds_mod
from . import pointsets, ramsey, spectra
from ._rng import counter_uniform, counter_uniform_open

__all__ = ["main", "run"]


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _write_json(path: str, args, params: dict | None = None, **fields) -> None:
    """Write a sidecar or report: the run's config, the version and ``fields``.

    ``config.params`` defaults to every parsed flag of the subcommand.
    """
    if params is None:
        params = {k: v for k, v in vars(args).items()
                  if k not in ("func", "subcommand")}
    payload = {"config": {"subcommand": args.subcommand, "params": params},
               "version": __version__, **fields}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


# window defaults per dimension for `ramsey` (d = 1 affords a very wide
# window; the certificate budget at alpha = 1 needs one)
_RAMSEY_RMAX = {1: 1.0e6, 2: 200.0, 3: 60.0}
# the most rows a --tmax/--dt time grid, `spectra cantor --n` or `basis
# --pairs` may ask for, refused before any allocation (the largest grid any
# test or benchmark runs has 8,001 rows)
_MAX_ROWS = 2 ** 24
# the deepest digit map `spectra cantor` reads: its samples are odd multiples
# of 2^-53, dyadic rationals of level 53 that d_map_exact refuses at depth 53
_CANTOR_MAX_DEPTH = 52


def _build_set(args) -> pointsets.PointSet:
    """The set the flags ask for.  A lattice or jittered window is refused
    before any generator runs when the volume omega_d (R + sqrt(d))^d of
    its ball exceeds ``bounds._MAX_SITES``: every candidate either
    enumerates has its unit cube in that ball, so this bounds the sites.
    Non-finite windows are left to the generators, Poisson windows to
    their occupancy-grid refusal."""
    if args.rmax is None:
        args.rmax = _RAMSEY_RMAX[args.dim]
    d, R = args.dim, args.rmax
    # the radius form of the volume test, which cannot overflow
    omega = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    limit = (bounds_mod._MAX_SITES / omega) ** (1 / d) - math.sqrt(d)
    if args.set != "poisson" and limit < R < math.inf:
        raise ValueError(f"--rmax {R:g} exceeds {limit:.6g}, the largest "
                         f"window in d = {d} whose ball holds at most the "
                         f"cap of {bounds_mod._MAX_SITES} sites")
    if args.set == "lattice":
        return pointsets.gen_lattice(args.dim, args.rmax)
    if args.set == "jitter":
        return pointsets.gen_jittered(args.dim, args.rmax, args.jitter, args.seed)
    return pointsets.gen_poisson_disk(args.dim, args.rmax, args.rmin, args.seed)


def _add_set_flags(p: argparse.ArgumentParser,
                   default_rmax: float | None, margin: bool) -> None:
    """The point-set flags; ``margin`` adds ``--margin`` for the subcommands
    that measure radii."""
    p.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--set", choices=("lattice", "jitter", "poisson"),
                   default="lattice")
    p.add_argument("--rmax", type=float, default=default_rmax,
                   help="window radius (ramsey default depends on --dim)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.25,
                   help="jitter amplitude eta for --set jitter")
    p.add_argument("--rmin", type=float, default=1.0,
                   help="hard-core distance for --set poisson")
    if margin:
        p.add_argument("--margin", type=float, default=0.0,
                       help="shrink the covering-radius probe domain to "
                            "|q| <= rmax - margin")


def _time_grid(args) -> np.ndarray:
    """Times 0, dt, 2 dt, ... through tmax; refuses flags that build no grid,
    or one of more than ``_MAX_ROWS`` rows, before allocating it."""
    if not (math.isfinite(args.tmax) and args.tmax >= 0.0
            and math.isfinite(args.dt) and args.dt > 0.0):
        raise ValueError("--tmax must be finite and >= 0, --dt finite and > 0")
    rows = args.tmax / args.dt + 0.5  # np.arange gives its ceiling
    if rows > _MAX_ROWS:
        raise ValueError(f"--tmax/--dt ask for {rows:.4g} time rows, more "
                         f"than the cap of {_MAX_ROWS}")
    return np.arange(0.0, args.tmax + 0.5 * args.dt, args.dt)


def _check_rows(flag: str, count: int, what: str) -> None:
    """Refuse a ``flag`` that asks for more than ``_MAX_ROWS`` ``what``."""
    if count > _MAX_ROWS:
        raise ValueError(f"{flag} asks for {count} {what}, more than the cap "
                         f"of {_MAX_ROWS}")


def _cmd_points(args) -> int:
    pointsets._check_margin(args.margin)
    ps = _build_set(args)
    radii = pointsets.measure_radii(ps, margin=args.margin)
    _write_csv(args.out, [f"x{i + 1}" for i in range(ps.dim)],
               list(ps.points.T))
    _write_json(args.out + ".json", args, n_points=ps.n_points, meta=dict(ps.meta),
                radii=asdict(radii))
    return 0


def _cmd_bounds(args) -> int:
    if args.alpha is None:
        args.alpha = float(args.dim + 1)
    bounds_mod._check_tail_exponent(args.dim, args.alpha)
    pointsets._check_margin(args.margin)
    ps = _build_set(args)
    radii = pointsets.measure_radii(ps, margin=args.margin)
    rows = []
    ok_all = True
    for r in args.r:
        res = bounds_mod.sandwich_check(ps, radii, args.alpha, r)
        ok_all &= res.holds
        rows.append({"r": res.r, "lower": res.lower, "sum": res.finite_sum,
                     "err": res.tail_err, "upper": res.upper,
                     "holds": res.holds})
    _write_json(args.out, args, radii=asdict(radii), rows=rows,
                all_hold=bool(ok_all))
    return 0


def _cmd_ramsey(args) -> int:
    if args.alpha is None:
        args.alpha = (args.dim + 1) / 2
    times = _time_grid(args)
    ramsey._check_profile_args(args.dim, args.alpha, args.tol)
    # the profile reads only the set's own packing radius: no radii
    prof = ramsey.evaluate_profile(_build_set(args), None, args.alpha, args.r,
                                   times, args.tol)
    diag = ramsey.compact_bound_check(prof)
    _write_csv(args.out, ["t", "C", "err", "gauss", "bound_rhs"],
               [prof.times, prof.values, prof.err, prof.gaussian,
                diag.bound_rhs])
    _write_json(args.out + ".json", args, s2=asdict(prof.s2),
                s4=asdict(prof.s4),
                sup_dist=ramsey.gaussian_sup_distance(prof),
                compact_bound_ok=diag.envelope_ok)
    return 0


def _cmd_spectra(args) -> int:
    if args.mode == "cantor":
        if args.n < 1:
            raise ValueError("--n must be >= 1")
        _check_rows("--n", args.n, "samples")
        if not 1 <= args.depth <= _CANTOR_MAX_DEPTH:
            raise ValueError(f"--depth must be in [1, {_CANTOR_MAX_DEPTH}] "
                             f"for cantor, got {args.depth}")
        idx = np.arange(args.n, dtype=np.int64)
        # open-interval sampler: odd 53-bit mantissas are never dyadic at
        # any level the digit map inspects, so D(x) is always defined
        xs = counter_uniform_open(args.seed, idx)
        ds = [spectra.d_map_exact(float(x), args.depth) for x in xs]
        _write_csv(args.out, ["x", "D", "C_of_D"],
                   [xs, [float(d) for d in ds],
                    [spectra.cantor_function(d, args.depth) for d in ds]])
        keys = ("n", "seed")
    else:
        times = _time_grid(args)
        if args.tmax >= math.pi and math.pi not in times:
            # pi is the natural probe point for self-similar products, and
            # a grid holds fl(pi) only if its step lands on it (dt = pi/2)
            times = np.sort(np.append(times, math.pi))
        vals, errs = spectra.CosProduct(args.base, args.depth).evaluate(times)
        _write_csv(args.out, ["t", "C", "err"], [times, vals, errs])
        keys = ("base", "tmax", "dt")
    # the sidecar records only the flags this mode reads
    _write_json(args.out + ".json", args,
                {k: getattr(args, k) for k in ("mode", *keys, "depth", "out")})
    return 0


def _cmd_basis(args) -> int:
    if args.pairs < 0 or args.nrange < 0:
        raise ValueError("--pairs and --nrange must be >= 0")
    _check_rows("--pairs", args.pairs, "pairs")
    # the Fourier loop's largest |m| is 2^kmax * nrange + 2^(kmax-1), and
    # fourier_coeff takes k <= 20 and |m| <= 10^6
    k = args.kmax
    if not 0 <= k <= 20 or (k and (args.nrange << k) + (1 << (k - 1)) > 10 ** 6):
        raise ValueError("--kmax must be in [0, 20] with largest Fourier index "
                         "2^kmax * nrange + 2^(kmax-1) <= 10^6, got --kmax "
                         f"{k} --nrange {args.nrange}")
    pairs = []
    for a, b in _index_pairs(args.seed, args.pairs, args.kmax):
        ip = basis_mod.inner_product(a, b)
        pairs.append({"alpha": list(a), "beta": list(b), "inner": ip,
                      "expected": 1.0 if a == b else 0.0})
    fourier = []
    for k in range(1, args.kmax + 1):
        for n in range(-args.nrange, args.nrange + 1):
            m, mag = _fourier_support(k, n)
            c = basis_mod.fourier_coeff(k, m)
            fourier.append({"k": k, "n": n, "m": m,
                            "re": c.real, "im": c.imag,
                            "predicted_mag": mag})
    _write_json(args.out, args, orthonormality=pairs, fourier_support=fourier)
    return 0


def _random_index(u: float, kmax: int) -> tuple[int, ...]:
    """Small random ascending index set decoded from one uniform draw."""
    bits = int(u * (1 << kmax)) & ((1 << kmax) - 1)
    return tuple(n + 1 for n in range(kmax) if (bits >> n) & 1)


def _index_pairs(seed: int, count: int, kmax: int):
    """Yield ``count`` pairs of random index sets (``_random_index``), pair
    i decoded from draws 2i and 2i + 1 of ``counter_uniform(seed, .)``."""
    u = counter_uniform(seed, np.arange(2 * count, dtype=np.int64))
    for i in range(count):
        yield _random_index(u[2 * i], kmax), _random_index(u[2 * i + 1], kmax)


def _fourier_support(k: int, n: int) -> tuple[int, float]:
    """The Fourier index m = 2^k n + 2^(k-1) of level k and the magnitude
    (1/pi) / |n + 1/2| its coefficient should have."""
    return (1 << k) * n + (1 << (k - 1)), (1.0 / math.pi) / abs(n + 0.5)


# ---------------------------------------------------------------------------
# verify: the self-contained property suite


def _verify_checks(quick: bool) -> list[tuple[str, Callable[[], bool]]]:
    checks: list[tuple[str, Callable[[], bool]]] = []

    def viete() -> bool:
        ts = np.arange(0.1, 50.0 + 1e-9, 0.1)
        value, _ = spectra.CosProduct(2, depth=40).evaluate(ts)
        return bool(np.max(np.abs(value - np.sin(ts) / ts)) <= 1e-10)

    checks.append(("product(base 2) equals sin(t)/t on (0,50]", viete))

    def oscillation() -> bool:
        value, err = spectra.cos_product(3, math.pi, 1e-13)
        if abs(value - spectra.L_ORACLE) > 1e-12 + err:
            return False
        seq = spectra.persistent_oscillation(3, 8 if quick else 12)
        return all(abs(v - (-1.0) ** i * spectra.L_ORACLE) <= 1e-10
                   for i, v in seq)

    checks.append(("oscillation C(3^i pi) = (-1)^i C(pi), non-decaying",
                   oscillation))

    def recursion() -> bool:
        idx = np.arange(20 if quick else 100, dtype=np.int64)
        return all(spectra.recursion_check(
            b, counter_uniform(7, idx, np.int64(b)) * 60.0 - 30.0).all()
            for b in (2, 3, 4, 5))

    checks.append(("rescaling identity C(b t) = cos(t) C(t)", recursion))

    def sandwich() -> bool:
        for d in (1, 2):
            ps = pointsets.gen_lattice(d, 60.0)
            radii = pointsets.measure_radii(ps, margin=0.0 if d == 1 else 20.0)
            for alpha in (d + 0.5, d + 1.0):
                for r in np.linspace(3.0 * radii.r_cover_upper, 30.0, 4):
                    res = bounds_mod.sandwich_check(ps, radii, alpha, float(r))
                    if not res.holds:
                        return False
        return True

    checks.append(("integral sandwich brackets every tail sum", sandwich))

    def annulus() -> bool:
        ps = pointsets.gen_jittered(2, 40.0, 0.25, 11)
        radii = pointsets.measure_radii(ps, margin=10.0)
        n = 20 if quick else 100
        u = counter_uniform(13, np.arange(2 * n, dtype=np.int64))
        for i in range(n):
            a = radii.r_pack + u[2 * i] * 20.0
            b = a + 0.5 + u[2 * i + 1] * 15.0
            rep = pointsets.check_annulus_bounds(ps, radii, float(a), float(b))
            if not rep.holds:
                return False
        return True

    checks.append(("volume bounds bracket every annulus count", annulus))

    def compact() -> bool:
        ps = pointsets.gen_lattice(1, 2000.0)
        times = np.arange(0.0, 6.0 + 1e-9, 0.02)
        for r in (10.0, 30.0):
            prof = ramsey.evaluate_profile(ps, None, 2.0, r, times, 0.1)
            if not ramsey.compact_bound_check(prof).envelope_ok:
                return False
        return True

    checks.append(("Gaussian distance below (t^4/12) S4/S2^2", compact))

    def orthonormal() -> bool:
        for a, b in _index_pairs(17, 50 if quick else 200, 12):
            expected = 1.0 if a == b else 0.0
            if basis_mod.inner_product(a, b) != expected:
                return False
        for nn in range(0, 13):
            pw = basis_mod.partial_sum_x(nn)
            if abs(basis_mod.l2_distance_to_x(pw)
                   - 2.0 ** (-nn) / math.sqrt(3.0)) > 1e-12:
                return False
        return True

    checks.append(("basis orthonormality and staircase error law",
                   orthonormal))

    def fourier() -> bool:
        kmax = 5 if quick else 10
        for k in range(1, kmax + 1):
            for n in (-3, -1, 0, 1, 4):
                m, mag = _fourier_support(k, n)
                c = basis_mod.fourier_coeff(k, m)
                if abs(abs(c) - mag) > 1e-12:
                    return False
                if abs(basis_mod.fourier_coeff(k, m + 1)) > 1e-12:
                    return False
        return t_check(kmax)

    def t_check(kmax: int) -> bool:
        return all(basis_mod.t_fourier_action_check(k, 20)
                   for k in range(1, min(kmax, 4) + 1))

    checks.append(("Fourier support, magnitudes, and doubling action",
                   fourier))

    def cantor_roundtrip() -> bool:
        n = 100 if quick else 1000
        depth = 40 if quick else 50
        budget = 2.0 ** (-depth) + 3.0 ** (-depth) + 1e-12
        xs = counter_uniform_open(23, np.arange(n, dtype=np.int64))
        for x in xs:
            d_val = spectra.d_map_exact(float(x), depth)
            c_val = spectra.cantor_function(d_val, depth + 5)
            if abs(c_val - float(x)) > budget:
                return False
        rep = spectra.char_function_check(10 ** 4, [1.0, math.pi], 29)
        return rep.all_ok

    checks.append(("Cantor transport C(D(x)) = x and its spectrum",
                   cantor_roundtrip))

    def soundness() -> bool:
        ps1 = pointsets.gen_lattice(1, 500.0)
        ps2 = pointsets.gen_lattice(1, 1000.0)
        for alpha, r in ((1.0, 5.0), (1.5, 3.0), (2.0, 8.0)):
            a = bounds_mod.delone_tail_sum(ps1, None, 2 * alpha, r)
            b = bounds_mod.delone_tail_sum(ps2, None, 2 * alpha, r)
            if not (a.lo <= b.value <= a.hi):
                return False
        times = np.arange(0.0, 5.0, 0.05)
        p1 = ramsey.evaluate_profile(ps1, None, 2.0, 10.0, times, 0.1)
        p2 = ramsey.evaluate_profile(ps2, None, 2.0, 10.0, times, 0.1)
        return bool(np.all(np.abs(p1.values - p2.values)
                           <= p1.err + p2.err))

    checks.append(("doubling the window stays inside certificates",
                   soundness))
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(args.quick)
    width = max(len(name) for name, _ in checks) + 2
    failures = 0
    for name, fn in checks:
        try:
            ok = fn()
            detail = ""
        except Exception as exc:  # a crash is a failure with a reason
            ok = False
            detail = f"  ({exc})"
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{name:<{width}} {status}{detail}")
    print(f"{failures} of {len(checks)} checks failed"
          if failures else f"all {len(checks)} checks passed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="centralspin",
        description="Certified central-spin dephasing on Delone point sets")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("points", help="generate a point set")
    _add_set_flags(p, default_rmax=20.0, margin=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("bounds", help="certified tail sums + sandwich report")
    _add_set_flags(p, default_rmax=60.0, margin=True)
    p.add_argument("--alpha", type=float, help="default: dim + 1")
    p.add_argument("--r", type=float, nargs="+", default=[5.0, 10.0])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("ramsey", help="dephasing profile CSV")
    _add_set_flags(p, default_rmax=None, margin=False)
    p.add_argument("--alpha", type=float, help="default: (dim + 1) / 2")
    p.add_argument("--r", type=float, default=10.0)
    p.add_argument("--tmax", type=float, default=8.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("spectra", help="cosine-product / Cantor emission")
    p.add_argument("mode", nargs="?", choices=("product", "cantor"),
                   default="product")
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--n", type=int, default=200,
                   help="sample count for cantor mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("basis", help="orthonormality + Fourier JSON report")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--nrange", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return ap


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # refusals (tolerance not certifiable, region too small, bad ranges)
        # are expected outcomes, not crashes: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
