"""Dephasing profiles, Gaussian comparison, envelopes, and Bloch output."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import centralspin as cs
from centralspin import ramsey
from conftest import mirrored_times


def synthetic_profile(times, values, err=None, dim=2, alpha=1.0, s2=(1.0, 0.0)):
    """A hand-built profile (d/alpha = 2 by default: Gaussian-type decay)."""
    if err is None:
        err = np.zeros_like(values, dtype=float)
    return cs.RamseyProfile(
        r=1.0, times=np.asarray(times, float), values=np.asarray(values, float),
        err=np.asarray(err, float), s2=cs.CertifiedValue(*s2),
        s4=cs.CertifiedValue(1.0, 0.0), dim=dim, alpha=alpha)


# -------------------------------------------------------------- two-site oracle

def toy_pair():
    ps = cs.PointSet(1, np.array([[1.0], [-1.0]]), 1.0e9,
                     meta={"r_pack_structural": 1.0})
    radii = cs.DeloneRadii(r_pack=1.0, r_cover=1.0, probe_resolution=0.0)
    return ps, radii


def test_two_site_profile_is_cos_squared():
    ps, radii = toy_pair()
    times = np.linspace(0.0, 6.0, 601)
    prof = cs.evaluate_profile(ps, radii, 2.0, 1.0, times, tol=0.1)
    # S2 = 2, both couplings 1: C(t) = cos(t/sqrt(2))^2 up to the tiny
    # unsampled-tail shift in the measured S2
    want = np.cos(times / math.sqrt(2.0)) ** 2
    assert np.abs(prof.values - want).max() < 1e-8
    assert prof.err.max() < 1e-8
    closed_form_sup = np.abs(want - np.exp(-times ** 2 / 2.0)).max()
    assert abs(cs.gaussian_sup_distance(prof) - closed_form_sup) < 1e-8


def test_profile_starts_at_one_with_zero_error():
    ps, radii = toy_pair()
    prof = cs.evaluate_profile(ps, radii, 2.0, 1.0, np.array([0.0]), tol=0.1)
    assert prof.values[0] == 1.0
    assert prof.err[0] == 0.0


def test_profile_is_even_in_time():
    ps, radii = toy_pair()
    times = mirrored_times(4.0, 201)
    prof = cs.evaluate_profile(ps, radii, 2.0, 1.0, times, tol=0.1)
    assert np.array_equal(prof.values, prof.values[::-1])
    assert np.array_equal(prof.err, prof.err[::-1])


# ------------------------------------------------------------- brute crossover

def test_profile_matches_direct_cosine_product():
    line = (cs.gen_lattice(1, 50.0),)
    line += (cs.measure_radii(line[0]),)
    # (split, point set, r, times, tol): near and far sites both present,
    # every site near (the two-site toy), every site far (a short grid)
    cases = [("both", *line, 5.0, np.linspace(0.0, 5.0, 101), 1.0),
             ("near", *toy_pair(), 1.0, np.linspace(0.0, 6.0, 601), 0.1),
             ("far", *line, 5.0, np.linspace(0.0, 0.5, 51), 1.0)]
    for split, ps, radii, r, times, tol in cases:
        prof = cs.evaluate_profile(ps, radii, 2.0, r, times, tol=tol)
        norms = ps.radii[ps.radii >= r]
        s2 = prof.s2.value
        args = np.outer(times, norms ** -2.0 / math.sqrt(s2))
        far = args[-1] <= ramsey._X0
        assert {"both": 0 < far.sum() < far.size, "near": not far.any(),
                "far": far.all()}[split]
        direct = np.cos(args).prod(axis=1)
        assert np.abs(prof.values - direct).max() < 1e-12


# ---------------------------------------------------------- far-site series

def logcos_coefficient(k):
    """c_k of -log cos x = sum_k c_k x^(2k), at the current mpmath precision."""
    return (4 ** k - 1) * mpmath.zeta(2 * k) / (k * mpmath.pi ** (2 * k))


def test_logcos_coefficients_are_within_an_ulp():
    assert len(ramsey._LOGCOS) == ramsey._K + 1
    with mpmath.workdps(50):
        for k, c in enumerate(ramsey._LOGCOS, start=1):
            assert abs(mpmath.mpf(c) - logcos_coefficient(k)) <= math.ulp(c)


def test_logcos_coefficient_ratio_stays_below_four_over_pi_squared():
    with mpmath.workdps(50):
        c = [logcos_coefficient(k) for k in range(1, 42)]
        assert all(b / a < 4 / mpmath.pi ** 2 for a, b in zip(c, c[1:]))


def test_profile_within_far_bound_of_mpmath_product():
    ps = cs.gen_lattice(1, 200.0)
    radii = cs.measure_radii(ps)
    alpha, r = 2.0, 5.0
    times = np.linspace(0.0, 3.0, 31)
    prof = cs.evaluate_profile(ps, radii, alpha, r, times, tol=1.0)
    # the arguments exactly as evaluate_profile forms them
    u_radii, counts = np.unique(ps.radii[ps.radii >= r], return_counts=True)
    u = u_radii ** (-alpha) * (1.0 / math.sqrt(prof.s2.value))
    far = u * times[-1] <= ramsey._X0
    assert far.any() and not far.all()
    _, bound = ramsey._far_series(u[far], counts[far], times, times[-1])
    assert bound[0] == 0.0 and bound.max() < 1e-11
    # err leaves out the near factors' libm error; allow 8 eps per near site
    allowance = 8 * int(counts[~far].sum()) * np.finfo(float).eps
    with mpmath.workdps(40):
        for t, value, b in zip(times, prof.values, bound):
            exact = mpmath.fprod(mpmath.cos(mpmath.mpf(x) * mpmath.mpf(t)) ** int(c)
                                 for x, c in zip(u, counts))
            assert abs(mpmath.mpf(value) - exact) <= b + allowance, t


# ------------------------------------------------------------- normalization

def test_profile_normalizations_are_the_tail_sums_at_two_and_four_alpha(line_large):
    ps, radii = line_large
    prof = cs.evaluate_profile(ps, radii, 1.5, 10.0, np.linspace(0.0, 1.0, 11),
                               tol=0.05)
    assert prof.s2 == cs.delone_tail_sum(ps, radii, 3.0, 10.0)
    assert prof.s4 == cs.delone_tail_sum(ps, radii, 6.0, 10.0)


# ------------------------------------------------------------ coupling law

def test_coupling_validation():
    ps = cs.gen_lattice(3, 4.0)
    radii = cs.DeloneRadii(r_pack=0.5, r_cover=1.0)
    times = np.linspace(0.0, 1.0, 11)
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            cs.evaluate_profile(ps, radii, alpha, 1.0, times, tol=0.1)
    with pytest.raises(ValueError, match="unless 2\\*alpha > dim"):
        cs.evaluate_profile(ps, radii, 1.0, 1.0, times, tol=0.1)  # 2*alpha = 2 < 3
    for r in (-1.0, 4.5, math.nan):  # the cut must lie in [0, region_radius]
        with pytest.raises(ValueError, match="need 0 <= r <= region_radius"):
            cs.evaluate_profile(ps, radii, 2.0, r, times, tol=0.1)


# -------------------------------------------------------------------- refusal

def test_profile_refuses_uncertifiable_tolerance():
    ps = cs.gen_lattice(1, 500.0)
    radii = cs.measure_radii(ps)
    times = np.linspace(0.0, 8.0, 81)
    with pytest.raises(ValueError, match="region_radius >="):
        cs.evaluate_profile(ps, radii, 1.0, 10.0, times, tol=1e-3)
    # a window too small for the largest dropped argument to stay below 1
    ps = cs.gen_lattice(1, 50.0)
    radii = cs.measure_radii(ps)
    with pytest.raises(ValueError, match=re.escape(
            "dropped cosine arguments reach 1 at t=1000; "
            "need region_radius > 549.577")):
        cs.evaluate_profile(ps, radii, 1.0, 1.0, np.linspace(0.0, 1000.0, 11),
                            tol=2.0)


def test_window_exponent_past_expm1_range_gives_the_trivial_error():
    # t_max^2 * s_tail is far above 709, where expm1 overflows: every row
    # but t = 0 carries the trivial err 2, with no overflow warning
    ps = cs.gen_lattice(1, 560.0)
    radii = cs.measure_radii(ps)
    times = np.arange(0.0, 1001.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = cs.evaluate_profile(ps, radii, 1.0, 1.0, times, tol=2.0)
    assert prof.err[0] == 0.0 and (prof.err[1:] == 2.0).all()
    s2 = prof.s2
    assert times[-1] ** 2 * 2.0 * s2.err / s2.value > 709.0


def test_refusal_radius_uses_the_certificate_packing_radius():
    # one extra site 0.3 from its neighbour: the measured r_pack (0.15) is
    # below the structural 0.5 in the meta, and the tail bound uses it
    base = cs.gen_lattice(1, 500.0)
    ps = cs.PointSet(1, np.vstack([base.points, [[100.3]]]), 500.0,
                     meta={"r_pack_structural": 0.5})
    radii = cs.measure_radii(ps)
    assert radii.r_pack == pytest.approx(0.15)
    times = np.linspace(0.0, 8.0, 81)
    with pytest.raises(ValueError, match="region_radius >=") as refusal:
        cs.evaluate_profile(ps, radii, 1.0, 10.0, times, tol=1e-3)
    need = float(re.search(r"region_radius >= (\S+)", str(refusal.value)).group(1))
    # delone_tail_sum's bound at the suggested radius meets the target tail
    s2 = cs.delone_tail_sum(ps, radii, 2.0, 10.0)
    target = math.log1p(1e-3) * s2.value / 8.0 ** 2
    rp = radii.r_pack
    tail = 3.0 / rp * cs.integral_tail(2.0, 1, need - rp)
    assert tail == pytest.approx(target, rel=1e-5)
    assert need == pytest.approx(5.65549e6, rel=1e-5)  # 1.69665e6 with r_pack 0.5


@pytest.mark.parametrize("R, alpha, tol, times, message", [
    (1000.0, 0.505, 1e-6, np.arange(0.0, 8.005, 0.01),
     "truncation certificate 2 exceeds tol=1e-06 at t=8; "
     "no finite region_radius meets it"),
    (100.0, 0.6, 1e-300, np.arange(0.0, 8.005, 0.01),
     "truncation certificate 2 exceeds tol=1e-300 at t=8; "
     "no finite region_radius meets it"),
    (100.0, 0.6, 5e-324, np.arange(0.0, 8.005, 0.01),
     "truncation certificate 2 exceeds tol=4.94066e-324 at t=8; "
     "no finite region_radius meets it"),
    (100.0, 0.6, 0.1, np.array([0.0, 1e299, 1e300]),
     "dropped cosine arguments reach 1 at t=1e+300; "
     "no finite region_radius meets it"),
], ids=["alpha-near-half", "tol-1e-300", "tol-target-underflows", "tmax-1e300"])
def test_a_window_radius_past_the_float_range_is_refused_by_name(R, alpha, tol,
                                                                 times, message):
    # the radius a refusal asks for overflows, or inverts a target tail that
    # underflows to 0: no finite window meets the certificate, a refusal
    # rather than an OverflowError or a ZeroDivisionError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cs.evaluate_profile(cs.gen_lattice(1, R), None, alpha, 10.0, times, tol)


def test_compact_bound_refuses_an_s2_interval_that_reaches_zero():
    # no Poisson site lies at |p| >= 10 in a window of radius 10: S2's
    # certified lower end is 0, and S4/S2^2 has no finite bound
    ps = cs.gen_poisson_disk(2, 10.0, 1.0, seed=0)
    prof = cs.evaluate_profile(ps, None, 1.5, 10.0, np.arange(0.0, 8.005, 0.01),
                               tol=2.0)
    assert prof.s2.value - prof.s2.err == 0.0
    for p in (prof, synthetic_profile([0.0, 1.0], [1.0, 0.5], s2=(1.0, 1.5))):
        with pytest.raises(ValueError, match="^S2's certified lower end "
                           "-?[0-9.e+-]+ is not > 0: S4/S2\\^2 has no finite bound$"):
            cs.compact_bound_check(p)


# ------------------------------------------------------------- compact bound

def test_compact_bound_holds_on_certified_profile(line_large):
    ps, radii = line_large
    times = np.arange(0.0, 6.0 + 0.005, 0.01)
    prof = cs.evaluate_profile(ps, radii, 1.0, 10.0, times, tol=0.05)
    diag = cs.compact_bound_check(prof)
    assert diag.envelope_ok
    # rhs is the pure fourth-moment term at the worst certified corner;
    # the truncation error joins on the comparison side
    worst = prof.s4.hi / prof.s2.lo ** 2
    assert np.allclose(diag.bound_rhs, times ** 4 / 12.0 * worst,
                       rtol=1e-13, atol=0)
    lhs = np.abs(prof.values - prof.gaussian)
    assert (lhs <= diag.bound_rhs + prof.err).all()


# ----------------------------------------------------------- envelope calibrate

def test_exact_gaussian_calibrates_to_nine_tenths():
    times = np.linspace(0.0, 10.0, 2001)
    prof = synthetic_profile(times, np.exp(-times ** 2))
    k = cs.calibrate_envelope(prof, T=2.0)
    assert abs(k - 0.9) < 1e-12
    assert cs.decay_envelope_check(prof, k, T=2.0)
    assert not cs.decay_envelope_check(prof, 1.1, T=2.0)


def test_envelope_tolerates_exact_zeros():
    times = np.linspace(0.0, 10.0, 2001)
    vals = np.where(times < 5.0, np.exp(-times ** 2), 0.0)
    prof = synthetic_profile(times, vals)
    k = cs.calibrate_envelope(prof, T=2.0)
    assert math.isfinite(k) and k > 0.0
    assert cs.decay_envelope_check(prof, k, T=2.0)


def test_calibration_refuses_insufficient_or_undecayed_grids():
    times = np.linspace(0.0, 3.0, 50)
    prof = synthetic_profile(times, np.exp(-times ** 2))
    with pytest.raises(ValueError):
        cs.calibrate_envelope(prof, T=2.0)  # < 100 points beyond T
    times = np.linspace(0.0, 10.0, 2001)
    prof = synthetic_profile(times, np.full_like(times, 1.0))
    with pytest.raises(ValueError, match="not yet decaying"):
        cs.calibrate_envelope(prof, T=2.0)


# -------------------------------------------------------------- uniform scan

def test_uniform_scan_reports_descending_sups(line_large):
    ps, _ = line_large
    times = np.arange(0.0, 8.0 + 0.02, 0.04)
    rep = cs.uniform_convergence_scan(ps, 1.0, (10.0, 30.0), times, tol=0.05)
    assert len(rep) == 2
    assert rep.non_increasing
    (r1, s1), (r2, s2) = rep
    assert (r1, r2) == (10.0, 30.0)
    assert s2 <= s1
    # an empty ladder is refused before any profile runs
    with pytest.raises(ValueError, match="nonempty"):
        cs.uniform_convergence_scan(ps, 2.0, [], times, 0.1)


# ---------------------------------------------------------------- gaussian fit

def test_gaussian_fit_recovers_the_width():
    times = np.linspace(0.0, 6.0, 601)
    assert abs(cs.fit_gaussian(synthetic_profile(times, np.exp(-times ** 2 / 2.0))) - 1.0) < 1e-9
    assert abs(cs.fit_gaussian(synthetic_profile(times, np.exp(-times ** 2 / 8.0))) - 2.0) < 1e-9


def _residual(prof, beta):
    """The fit's objective: squared residual of exp(-beta t^2) over the
    values above 0.05."""
    sel = prof.values > 0.05
    t2 = prof.times[sel] ** 2
    return float(((prof.values[sel] - np.exp(-beta * t2)) ** 2).sum())


def _brute_force_beta(prof):
    """argmin of the residual over beta: a log grid on [1e-3, 1e2], then a
    golden-section search between the grid neighbours of its minimum."""
    grid = np.geomspace(1e-3, 1e2, 2001)
    i = int(np.argmin([_residual(prof, b) for b in grid]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 1e-13 * b:
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        a, b = (a, d) if _residual(prof, c) < _residual(prof, d) else (c, b)
    return 0.5 * (a + b)


def test_gaussian_fit_minimises_the_residual_of_non_gaussian_profiles():
    # Newton iterates on each (an exact Gaussian converges in one step) and
    # lands on the brute-force least-squares width.  The two-site profile
    # cos^2(t/sqrt(2)) stops at t = 3: past it the profile revives and the
    # residual has a second, lower minimum that Newton does not reach
    times = np.linspace(0.0, 4.0, 401)
    line = cs.gen_lattice(1, 2000.0)
    profiles = [
        synthetic_profile(times, np.exp(-times ** 2 / 2.0) * (1.0 + 0.1 * times ** 2)),
        synthetic_profile(times[:301], np.cos(times[:301] / math.sqrt(2.0)) ** 2),
        cs.evaluate_profile(line, None, 2.0, 10.0, times, 0.1),
        cs.evaluate_profile(line, None, 1.0, 3.0, times, 2.0),
    ]
    for prof in profiles:
        beta = 1.0 / (2.0 * cs.fit_gaussian(prof) ** 2)
        want = _brute_force_beta(prof)
        assert abs(beta - want) <= 1e-6 * want, (beta, want)
        assert _residual(prof, beta) <= _residual(prof, want) * (1.0 + 1e-12)


def test_gaussian_fit_safeguards():
    # a flat profile is fitted best by beta -> 0: every Newton step lands
    # below 0 and is halved, and the width grows without bound
    times = np.linspace(0.0, 3.0, 5)
    assert cs.fit_gaussian(synthetic_profile(times, np.ones(5))) > 1e6
    # the Hessian of the residual is negative at the first Newton iterate:
    # the fit stops there, below the log-linear start's residual (the
    # least-squares beta, near 4.09, lies past a non-convex stretch)
    values = np.array([0.1, 0.1, 0.1, 0.1, 1.0])
    prof = synthetic_profile(times, values)
    t2 = times ** 2
    beta0 = float((t2 * -np.log(values)).sum() / (t2 ** 2).sum())
    g = np.exp(-beta0 * t2)
    resid = values - g  # the fit's own expressions, so beta1 is its float
    beta1 = beta0 - float((resid * t2 * g).sum()) / float(
        (t2 ** 2 * g * (g - resid)).sum())
    g1 = np.exp(-beta1 * t2)
    assert float((t2 ** 2 * g1 * (2.0 * g1 - values)).sum()) < 0.0
    assert cs.fit_gaussian(prof) == 1.0 / math.sqrt(2.0 * beta1)
    assert _residual(prof, beta1) < _residual(prof, beta0)


def test_gaussian_fit_needs_points_near_the_origin():
    times = np.linspace(4.0, 8.0, 401)
    prof = synthetic_profile(times, np.exp(-times ** 2 / 2.0))
    with pytest.raises(ValueError):
        cs.fit_gaussian(prof)


# -------------------------------------------------------------------- bloch

def test_bloch_rows_scale_the_transverse_components():
    times = np.linspace(0.0, 3.0, 31)
    vals = np.exp(-times ** 2)
    prof = synthetic_profile(times, vals)
    out = cs.bloch_evolution(prof, (0.48, -0.64, 0.6))
    assert out.shape == (31, 3)
    assert np.array_equal(out[:, 0], vals * 0.48)
    assert np.array_equal(out[:, 1], vals * -0.64)
    assert np.array_equal(out[:, 2], np.full(31, 0.6))
    with pytest.raises(ValueError):
        cs.bloch_evolution(prof, (1.0, 1.0, 0.0))  # |v0| > 1


def test_bloch_refuses_a_nan_vector():
    prof = synthetic_profile([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="v0"):
        cs.bloch_evolution(prof, (math.nan, 0.0, 0.0))


@pytest.mark.parametrize("field, message", [("values", "<= 1 violated"),
                                            ("err", "nonnegative")])
def test_profile_refuses_nan_values_and_errors(field, message):
    arrays = {"values": [1.0, 0.5], "err": [0.0, 0.0]}
    arrays[field][1] = math.nan
    with pytest.raises(ValueError, match=message):
        synthetic_profile([0.0, 1.0], arrays["values"], arrays["err"])


_FLAT = synthetic_profile(np.linspace(0.0, 3.0, 7), np.full(7, 0.5))


@pytest.mark.parametrize("call, message", [
    (lambda: synthetic_profile([0.0, 1.0], [1.0]),
     "times/values/err must be 1-D arrays of equal length"),
    (lambda: synthetic_profile([[0.0, 1.0]], [[1.0, 0.5]]),
     "times/values/err must be 1-D arrays of equal length"),
    (lambda: synthetic_profile([1.0, 0.0], [0.5, 1.0]),
     "times must be strictly ascending"),
    (lambda: synthetic_profile([0.0, 0.0], [1.0, 1.0]),
     "times must be strictly ascending"),
    (lambda: cs.evaluate_profile(cs.gen_lattice(1, 50.0), None, 1.0, 1.0,
                                 np.array([]), 0.1),
     "times must be a nonempty finite 1-D grid"),
    (lambda: cs.evaluate_profile(cs.gen_lattice(1, 50.0), None, 1.0, 1.0,
                                 np.array([0.0, math.nan]), 0.1),
     "times must be a nonempty finite 1-D grid"),
    (lambda: cs.decay_envelope_check(_FLAT, 0.0, 1.0), "need k > 0 and T > 0"),
    (lambda: cs.decay_envelope_check(_FLAT, 1.0, -1.0), "need k > 0 and T > 0"),
    (lambda: cs.decay_envelope_check(_FLAT, 1.0, 3.5),
     "grid does not extend beyond T"),
    (lambda: cs.fit_gaussian(synthetic_profile(np.linspace(0.0, 3.0, 7),
                                               np.full(7, 0.05))),
     "no values above 0.05 to fit"),
], ids=["lengths-differ", "not-1d", "descending", "repeated", "empty-times",
        "nan-time", "envelope-k-0", "envelope-T-negative", "envelope-T-past-grid",
        "fit-nothing-above-0.05"])
def test_ramsey_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------- properties

@given(alpha=st.floats(0.8, 3.0), r=st.floats(5.0, 20.0))
def test_profile_values_bounded_and_error_monotone(alpha, r):
    ps = cs.gen_lattice(1, 2000.0)
    radii = cs.measure_radii(ps)
    times = np.linspace(0.0, 6.0, 61)
    prof = cs.evaluate_profile(ps, radii, alpha, r, times, tol=2.0)
    assert np.abs(prof.values).max() <= 1.0 + 1e-12
    assert (prof.err >= 0.0).all()
    assert (np.diff(prof.err) >= -1e-15).all()
