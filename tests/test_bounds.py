"""Certified tail sums, integral sandwiches, and midpoint comparisons."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import centralspin as cs
from centralspin import bounds


# ------------------------------------------------------------ CertifiedValue

def test_certified_value_interval_semantics():
    v = cs.CertifiedValue(value=2.0, err=0.25)
    assert v.lo == 1.75 and v.hi == 2.25
    assert 2.2 in v and 1.75 in v and 2.26 not in v


def test_certified_value_rejects_negative_err():
    with pytest.raises(ValueError):
        cs.CertifiedValue(value=0.0, err=-1e-9)


# ------------------------------------------------------------- integral_tail

def test_integral_tail_literals():
    assert cs.integral_tail(2.0, 1, 1.0) == 1.0
    assert cs.integral_tail(3.0, 1, 1.0) == 0.5
    assert cs.integral_tail(4.0, 2, 1.0) == 0.5


@given(alpha=st.floats(1.1, 8.0), d=st.integers(1, 3), r=st.floats(0.1, 50.0))
def test_integral_tail_formula(alpha, d, r):
    if alpha <= d + 1e-6:
        return
    got = cs.integral_tail(alpha, d, r)
    assert math.isclose(got, r ** (d - alpha) / (alpha - d), rel_tol=1e-12)


def test_integral_tail_domain_errors():
    with pytest.raises(ValueError):
        cs.integral_tail(1.0, 1, 2.0)  # alpha == d diverges
    with pytest.raises(ValueError):
        cs.integral_tail(0.5, 1, 2.0)  # alpha < d diverges
    with pytest.raises(ValueError):
        cs.integral_tail(2.0, 1, 0.0)  # empty tail domain


# ------------------------------------------------------------ delone_tail_sum

def test_line_tail_sum_brackets_the_zeta_values():
    ps = cs.gen_lattice(1, 1.0e4)
    radii = cs.measure_radii(ps)
    # sum over |n| >= 1 of n^-2 = pi^2/3; of n^-4 = pi^4/45
    s2 = cs.delone_tail_sum(ps, radii, 2.0, 1.0)
    assert math.pi ** 2 / 3.0 in s2
    s4 = cs.delone_tail_sum(ps, radii, 4.0, 1.0)
    assert math.pi ** 4 / 45.0 in s4
    # sum over |n| >= 3 of n^-2 = pi^2/3 - 2 - 1/2
    s2r3 = cs.delone_tail_sum(ps, radii, 2.0, 3.0)
    assert (math.pi ** 2 / 3.0 - 2.5) in s2r3
    # the interval's lower endpoint is the exact window sum, 1e-4 under
    # the infinite one at this region size
    assert abs(s2r3.lo - 0.7898681336964528) < 2e-4


def test_tail_sum_interval_sits_on_the_window_sum(grid_sets):
    ps, radii = grid_sets[0][(2, "jitter")]
    alpha, r = 3.0, 5.0
    got = cs.delone_tail_sum(ps, radii, alpha, r)
    # the certified interval is [window sum, window sum + unsampled-tail
    # bound]: its lower endpoint is the brute-force sum over the sample
    norms = np.linalg.norm(ps.points, axis=1)
    finite = float(np.sum(np.sort(norms[norms >= r])[::-1] ** (-alpha)))
    assert math.isclose(got.lo, finite, rel_tol=1e-10)
    assert got.hi > finite


def test_tail_sum_matches_a_fresh_sort_at_every_cut():
    # the finite sum reads a prefix of the once-sorted radii; it must add
    # the same terms in the same order as sorting the selection afresh,
    # also when r equals a radius (|p| >= r is closed) or cuts nothing
    ps = cs.gen_jittered(2, 12.0, 0.2, seed=5)
    lat = cs.gen_lattice(2, 12.0)
    for pset in (ps, lat):
        radii = cs.measure_radii(pset)
        rr = pset.radii
        for alpha in (2.5, 4.0):
            for r in (0.0, 1.0, 2.0, float(rr[17]), 7.3, float(rr.max()), 12.0):
                got = cs.delone_tail_sum(pset, radii, alpha, r)
                sel = rr[rr >= r]
                finite = (bounds._fsum_chunked(np.sort(sel)[::-1] ** (-alpha))
                          if sel.size else 0.0)
                assert got.value == finite + got.err
    assert ps.radii_desc is ps.radii_desc  # sorted once, then cached


def test_tail_sum_refuses_divergent_or_oversized_requests(grid_sets):
    ps, radii = grid_sets[0][(1, "lattice")]
    with pytest.raises(ValueError):
        cs.delone_tail_sum(ps, radii, 1.0, 5.0)  # alpha == d diverges
    with pytest.raises(ValueError):
        cs.delone_tail_sum(ps, radii, 2.0, 250.0)  # r beyond the region
    # a structural packing radius exceeding the region kills the tail bound
    tiny = cs.PointSet(1, np.array([[1.0]]), 1.0,
                       meta={"r_pack_structural": 2.0})
    tiny_radii = cs.DeloneRadii(r_pack=2.0, r_cover=1.0, probe_resolution=0.0)
    with pytest.raises(ValueError, match="region"):
        cs.delone_tail_sum(tiny, tiny_radii, 2.0, 0.5)


def test_sets_without_a_structural_packing_radius_are_refused_alike():
    ps = cs.PointSet(1, np.arange(1.0, 50.0).reshape(-1, 1), 50.0)
    radii = cs.DeloneRadii(r_pack=0.5, r_cover=0.5)
    calls = [lambda: cs.delone_tail_sum(ps, radii, 2.0, 10.0),
             lambda: cs.sandwich_check(ps, radii, 2.0, 10.0),
             lambda: cs.check_annulus_bounds(ps, radii, 2.0, 20.0)]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="r_pack_structural") as refusal:
            call()
        messages.add(str(refusal.value))
    assert len(messages) == 1


# -------------------------------------------------------------- sandwich_check

def test_sandwich_fields_reproduce_the_formulas(grid_sets):
    ps, radii = grid_sets[0][(1, "lattice")]
    alpha, r = 2.0, 10.0
    res = cs.sandwich_check(ps, radii, alpha, r)
    rp = min(radii.r_pack, ps.meta.get("r_pack_structural", math.inf))
    rc = radii.r_cover_upper
    assert math.isclose(
        res.lower, cs.integral_tail(alpha, 1, r + rc) / (3.0 * rc),
        rel_tol=1e-12)
    assert math.isclose(
        res.upper, 3.0 / rp * cs.integral_tail(alpha, 1, r - rp),
        rel_tol=1e-12)
    assert res.holds
    assert res.lower <= res.finite_sum - res.tail_err
    assert res.finite_sum + res.tail_err <= res.upper


def test_sandwich_requires_three_covering_radii(grid_sets):
    ps, radii = grid_sets[0][(2, "poisson")]
    with pytest.raises(ValueError):
        cs.sandwich_check(ps, radii, 3.0, 2.9 * radii.r_cover_upper)


@given(alpha_off=st.floats(0.4, 3.0), frac=st.floats(0.0, 1.0))
def test_sandwich_property_on_the_plane(grid_sets, alpha_off, frac):
    ps, radii = grid_sets[0][(2, "lattice")]
    alpha = 2.0 + alpha_off
    r_lo, r_hi = 3.0 * radii.r_cover_upper, 100.0
    r = r_lo + frac * (r_hi - r_lo)
    assert cs.sandwich_check(ps, radii, alpha, r).holds


# ------------------------------------------------------ seq_sum_integral_check

def test_midpoint_comparison_certifies_across_parameters():
    for alpha in (1.5, 2.0, 3.0, 4.5):
        for M in (2, 5, 10, 100):
            rep = cs.seq_sum_integral_check(alpha, M)
            assert rep.holds, (alpha, M)
            assert math.isclose(
                rep.integral, (M - 0.5) ** (1.0 - alpha) / (alpha - 1.0),
                rel_tol=1e-14)
            assert rep.integral in cs.CertifiedValue(
                rep.seq_sum.value, rep.seq_sum.err + rep.correction_bound)


def test_midpoint_comparison_rejects_divergent_exponent():
    with pytest.raises(ValueError):
        cs.seq_sum_integral_check(1.0, 5)
    with pytest.raises(ValueError):
        cs.seq_sum_integral_check(2.0, 1)


# ------------------------------------------------------------ asymptotic_ratio

def test_scaled_tail_approaches_the_line_constant(line_large):
    ps, radii = line_large
    ratio, window = cs.asymptotic_ratio(ps, radii, 2.0, 100.0)
    assert abs(ratio - 2.0) <= 0.05
    assert ratio in window
    # the window pinches as the inner radius grows
    _, window_far = cs.asymptotic_ratio(ps, radii, 2.0, 1000.0)
    assert window_far.err < window.err


def test_asymptotic_window_is_the_closed_form_bracket(grid_sets):
    for d, kind in ((1, "poisson"), (2, "jitter"), (3, "lattice")):
        ps, radii = grid_sets[0][(d, kind)]
        rp = min(radii.r_pack, ps.meta["r_pack_structural"])
        rc = radii.r_cover_upper
        for alpha in (d + 0.5, d + 2.0):
            for r in (3.0 * rc, 25.0):
                _, window = cs.asymptotic_ratio(ps, radii, alpha, r)
                lo = (d / (3.0 ** d * rc ** d * (alpha - d))
                      * (1.0 + rc / r) ** (d - alpha))
                hi = (3.0 ** d * d / (rp ** d * (alpha - d))
                      * (1.0 - rp / r) ** (d - alpha))
                # centre and half-width; lo itself is a cancellation when hi >> lo
                assert math.isclose(window.value, 0.5 * (lo + hi),
                                    rel_tol=1e-14), (d, alpha, r)
                assert math.isclose(window.err, 0.5 * (hi - lo),
                                    rel_tol=1e-14), (d, alpha, r)


def test_asymptotic_window_contains_the_40_digit_bracket(grid_sets):
    # the window's own endpoints, value -/+ err as floats, against the closed
    # forms evaluated to 40 digits at the same float inputs
    with mpmath.workdps(40):
        for d, kind in ((1, "poisson"), (2, "jitter"), (3, "lattice")):
            ps, radii = grid_sets[0][(d, kind)]
            rp = mpmath.mpf(min(radii.r_pack, ps.meta["r_pack_structural"]))
            rc = mpmath.mpf(radii.r_cover_upper)
            for alpha in (d + 0.5, d + 2.0):
                for r in (3.0 * radii.r_cover_upper, 25.0):
                    _, window = cs.asymptotic_ratio(ps, radii, alpha, r)
                    e, rr = mpmath.mpf(alpha) - d, mpmath.mpf(r)
                    lo = d / (3 ** d * rc ** d * e) * (1 + rc / rr) ** -e
                    hi = 3 ** d * d / (rp ** d * e) * (1 - rp / rr) ** -e
                    assert window.lo <= lo and hi <= window.hi, (d, alpha, r)
