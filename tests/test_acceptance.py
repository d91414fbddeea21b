"""Acceptance suite: ten certified end-to-end checks with runtime budgets.

Each test is one acceptance criterion; run with ``pytest -v`` to get one
pass/fail line per criterion.  Every test asserts its own wall-clock budget
in addition to the numerical statement, so a slow build fails loudly.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import centralspin as cs
from centralspin._rng import counter_uniform, counter_uniform_open
from centralspin.spectra import L_ORACLE
from conftest import GRID_RMAX, KIND_ID, KINDS


@contextmanager
def budget(seconds, preload=0.0):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0 + preload
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds {seconds}s budget"


def test_criterion_01_dyadic_product_matches_sinc_to_1e10():
    with budget(1.0):
        times = np.arange(1, 501) * 0.1
        value, _ = cs.CosProduct(2, depth=40).evaluate(times)
        assert np.max(np.abs(value - np.sin(times) / times)) <= 1e-10


def test_criterion_02_triadic_value_and_persistent_oscillation():
    with budget(1.0):
        value, _ = cs.cos_product(3, math.pi, 1e-13)
        assert round(float(value), 2) == 0.47
        assert abs(value - L_ORACLE) <= 1e-12
        out = cs.persistent_oscillation(3, 8)
        assert len(out) == 9
        for i, v in out:
            assert math.copysign(1.0, v) == (-1.0) ** i
            assert abs(abs(v) - L_ORACLE) <= 1e-10


def test_criterion_03_tail_sandwich_holds_on_the_full_grid(grid_sets):
    sets, build_seconds = grid_sets
    with budget(120.0, preload=build_seconds):
        failures = []
        for d in (1, 2, 3):
            for kind in KINDS:
                ps, radii = sets[(d, kind)]
                r_lo = 3.0 * radii.r_cover_upper
                r_hi = GRID_RMAX[d] / 2.0
                for alpha in (d + 0.5, d + 1.0, d + 2.0):
                    for r in np.linspace(r_lo, r_hi, 8):
                        res = cs.sandwich_check(ps, radii, alpha, float(r))
                        if not res.holds:
                            failures.append((d, kind, alpha, float(r)))
        assert failures == []


def test_criterion_04_annulus_counts_within_volume_bounds(grid_sets):
    sets, _ = grid_sets
    with budget(30.0):
        failures = []
        for d in (1, 2, 3):
            for kind in KINDS:
                ps, radii = sets[(d, kind)]
                R = GRID_RMAX[d]
                rp = radii.r_pack
                seed = 4100 + 10 * KIND_ID[kind] + d
                for j in range(100):
                    u1 = float(counter_uniform(seed, j, 0))
                    u2 = float(counter_uniform(seed, j, 1))
                    a = rp * 1.01 + u1 * (R / 2.0 - rp)
                    b = a + 0.1 + u2 * (R - a - 0.1)
                    rep = cs.check_annulus_bounds(ps, radii, a, b)
                    if not rep.holds:
                        failures.append((d, kind, a, b))
        assert failures == []


def test_criterion_05_fourth_moment_bound_pointwise(line_large, plane_kilo):
    with budget(120.0):
        times = np.arange(0.0, 6.0 + 0.005, 0.01)
        jobs = [(line_large[0], 1, alpha, r, 0.05)
                for alpha in (1.0, 1.5, 2.0) for r in (10.0, 30.0, 100.0)]
        jobs += [(plane_kilo, 2, alpha, r, 2.0)
                 for alpha in (1.5, 2.0) for r in (10.0, 30.0, 100.0)]
        for ps, d, alpha, r, tol in jobs:
            assert 2.0 * alpha > d
            prof = cs.evaluate_profile(ps, None, alpha, r, times, tol)
            diag = cs.compact_bound_check(prof)
            assert diag.envelope_ok, (d, alpha, r)


def test_criterion_06_gaussian_distance_shrinks_with_inner_radius(line_large):
    ps, _ = line_large
    with budget(60.0):
        times = np.arange(0.0, 8.0 + 0.005, 0.01)
        rep = cs.uniform_convergence_scan(ps, 1.0, (10.0, 30.0, 100.0),
                                          times, tol=0.05)
        sups = [s for _, s in rep]
        assert sups[0] > sups[1] > sups[2]
        assert rep.non_increasing
        assert sups[-1] <= 0.05


def test_criterion_07_decay_envelope_recalibrates_and_transfers(line_wide):
    ps, radii = line_wide
    with budget(120.0):
        T = 50.0
        cal_times = np.arange(T, 500.0 + 0.125, 0.25)
        cal = cs.evaluate_profile(ps, radii, 2.0, 10.0, cal_times, tol=0.2)
        k = cs.calibrate_envelope(cal, T)
        assert k > 0.0
        ver_times = np.arange(T, 1000.0 + 0.0625, 0.125)
        for r in (10.0, 20.0):
            prof = cs.evaluate_profile(ps, radii, 2.0, r, ver_times, tol=0.2)
            assert cs.decay_envelope_check(prof, k, T), r


def test_criterion_08_orthonormality_fourier_and_partial_sums():
    with budget(30.0):
        # 200 random index pairs over levels 1..12, exact inner products
        for j in range(200):
            bits_a = int(float(counter_uniform(8080, j, 0)) * 4096.0)
            bits_b = int(float(counter_uniform(8080, j, 1)) * 4096.0)
            alpha = tuple(k + 1 for k in range(12) if bits_a >> k & 1)
            beta = tuple(k + 1 for k in range(12) if bits_b >> k & 1)
            want = 1.0 if alpha == beta else 0.0
            assert cs.inner_product(alpha, beta) == want
        # Fourier magnitudes at 50 support points for every k <= 10
        for k in range(1, 11):
            for n in range(-25, 25):
                m = (1 << k) * n + (1 << (k - 1))
                got = abs(cs.fourier_coeff(k, m))
                want = (1.0 / math.pi) / abs(n + 0.5)
                assert abs(got - want) <= 1e-12, (k, n)
        # partial-sum distances follow the exact geometric law
        for N in range(1, 21):
            got = cs.l2_distance_to_x(cs.partial_sum_x(N))
            assert abs(got - 2.0 ** (-N) / math.sqrt(3.0)) <= 1e-12, N


def test_criterion_09_cantor_transport_and_characteristic_function():
    with budget(60.0):
        tol = 2.0 ** -50 + 3.0 ** -50 + 1e-12
        for j in range(1000):
            x = float(counter_uniform_open(909, j))
            y = cs.d_map_exact(x, 50)
            assert abs(cs.cantor_function(y, 50) - x) <= tol
        n = 10 ** 5
        rep = cs.char_function_check(n, [1.0, math.pi, 3.0 * math.pi], seed=13)
        assert rep.all_ok
        for emp, ref in zip(rep.empirical, rep.reference):
            assert abs(emp - ref) <= 4.0 / math.sqrt(n)


def test_criterion_10_doubling_the_region_stays_inside_certificates():
    with budget(180.0):
        # ten certified tail sums on lattices in d = 1 and 2
        for i in range(10):
            d = 1 + i % 2
            u0, u1, u2 = (float(counter_uniform(1010, i, k)) for k in range(3))
            alpha = d + 0.6 + 2.0 * u0
            R1 = (80.0 + 80.0 * u1) if d == 1 else (50.0 + 30.0 * u1)
            ps1 = cs.gen_lattice(d, R1)
            radii1 = cs.measure_radii(ps1)
            r = 3.0 * radii1.r_cover_upper + 5.0 * u2
            small = cs.delone_tail_sum(ps1, radii1, alpha, r)
            ps2 = cs.gen_lattice(d, 2.0 * R1)
            big = cs.delone_tail_sum(ps2, cs.measure_radii(ps2), alpha, r)
            assert big.value in small, (d, alpha, R1, r)
        # ten dephasing profiles on growing line windows
        times = np.linspace(0.0, 6.0, 301)
        for i in range(10):
            u0, u1, u2 = (float(counter_uniform(2020, i, k)) for k in range(3))
            alpha = 1.2 + 1.3 * u0
            r = 8.0 + 7.0 * u1
            R1 = 3000.0 + 2000.0 * u2
            ps1 = cs.gen_lattice(1, R1)
            prof1 = cs.evaluate_profile(ps1, cs.measure_radii(ps1), alpha, r,
                                        times, tol=1.0)
            ps2 = cs.gen_lattice(1, 2.0 * R1)
            prof2 = cs.evaluate_profile(ps2, cs.measure_radii(ps2), alpha, r,
                                        times, tol=1.0)
            inside = np.abs(prof2.values - prof1.values) <= prof1.err
            assert inside.all(), (alpha, r, R1)
