"""Certified tail sums, integral sandwiches, and midpoint comparisons."""

import math
from fractions import Fraction

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


@pytest.mark.parametrize("alpha, r", [(math.nan, 1.0), (3.0, math.nan),
                                      (math.inf, 0.5)])
def test_integral_tail_refuses_non_finite_inputs(alpha, r):
    with pytest.raises(ValueError):
        cs.integral_tail(alpha, 1, r)


def test_integral_tail_refuses_overflow_by_name():
    # 0.7^-1999 is beyond the float range
    with pytest.raises(ValueError, match="alpha = 2000.0 overflows"):
        cs.integral_tail(2000.0, 1, 0.7)


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


def _exact_sum(x, counts=None):
    """The oracle: the exact rational sum of the repeated terms, rounded
    once; an exact zero is -0.0 only when every term held is -0.0."""
    x = np.asarray(x, dtype=np.float64).tolist()
    c = [1] * len(x) if counts is None else np.asarray(counts).tolist()
    held = [(v, k) for v, k in zip(x, c) if k > 0]
    total = float(sum((Fraction(v) * k for v, k in held), Fraction(0)))
    if total == 0.0 and held and all(math.copysign(1.0, v) < 0 for v, _ in held):
        return -0.0
    return total


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _counted(x, counts):
    """The counted sum rounded once, as ``delone_tail_sum`` rounds it.  A
    Fraction has no -0.0, so an exact zero compares equal to either sign."""
    return float(bounds._exact_counted(x, counts))


def test_counted_sum_is_the_exact_sum_rounded_once():
    # shells added once with their site counts give the exact sum of the
    # repeated terms, rounded once, whatever the order of the terms
    sets = [cs.gen_lattice(1, 3000.0), cs.gen_lattice(2, 40.0),
            cs.gen_lattice(3, 12.0), cs.gen_jittered(2, 30.0, 0.2, seed=5),
            cs.gen_poisson_disk(2, 20.0, 0.8, seed=3)]
    for ps in sets:
        for r in (0.0, float(ps.radii[ps.n_points // 3]), ps.region_radius):
            rho, cnt = ps.shells(r)
            for alpha in (2.5, 7.0):
                x = rho ** (-alpha)
                got = _counted(x, cnt)
                assert _same_float(got, _exact_sum(x, cnt))
                assert _same_float(_counted(x[::-1], cnt[::-1]), got)
    # exact sums pinned; math.fsum over 4096-site chunks, largest first,
    # gives 13.251247540666155 in place of the first
    z2 = sets[1].shells(0.0)
    z3 = sets[2].shells(float(sets[2].radii[sets[2].n_points // 3]))
    assert _counted(z2[0] ** -2.5, z2[1]) == 13.251247540666153
    assert _counted(z2[0] ** -7.0, z2[1]) == 4.423117775396062
    assert _counted(z3[0] ** -7.0, z3[1]) == 0.002494757166321473
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 2.0, 5000) * 10.0 ** rng.integers(-30, 30, 5000)
    # 4096 to 4098 sites in all, in shells of 1 to 3 sites
    cases = [np.full(2048, 2), np.full(4097, 1), np.full(2049, 2),
             np.array([3] * 1365 + [1]), np.array([3] * 1365 + [2])]
    for c in cases:
        xs = x[:c.size]
        assert _same_float(_counted(xs, c), _exact_sum(xs, c))
    # one hand-built shell of 9000 sites, between two others
    x3, c3 = np.array([0.1, 1.0 / 3.0, 0.7]), np.array([5, 9000, 3])
    assert _same_float(_counted(x3, c3), _exact_sum(x3, c3))
    # signed, zero and subnormal terms, as the basis callers pass them
    tiny = 5e-324 * rng.integers(-1000, 1000, 9000)
    signed = rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000)
    signed[::7] = 0.0
    signed[3::7] = -0.0
    for xs in (tiny, signed, -signed, np.full(5000, -0.0), np.zeros(3),
               np.sign(rng.standard_normal(8193)), np.array([1.0, -1.0]),
               np.array([]), np.concatenate([np.full(4096, -0.0), [1.5]])):
        assert _same_float(bounds._fsum(xs), _exact_sum(xs))
        counts = rng.integers(0, 3, xs.size)
        assert _counted(xs, counts) == _exact_sum(xs, counts)
    assert _same_float(bounds._fsum(np.full(5000, -0.0)), -0.0)
    # alternating signs over 2^14 terms, as fourier_coeff(14, 0) sums them:
    # an exact zero, and +0.0 because not every term is -0.0
    alt = np.tile([-1.0, 1.0], 1 << 13)
    assert _same_float(bounds._fsum(alt), 0.0)
    for c in (np.ones(alt.size, dtype=np.int64), np.full(alt.size, 3)):
        assert _same_float(_counted(alt, c), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        bounds._exact_counted(np.array([1.0, math.inf, 2.0]), np.array([1, 1, 1]))
    for bad in ([1.0, math.inf], [math.nan, 2.0], [math.inf, -math.inf]):
        with pytest.raises(ValueError):
            bounds._fsum(np.array(bad))


_finite = st.floats(-1e300, 1e300, allow_nan=False)


@given(terms=st.lists(st.tuples(_finite, st.integers(0, 1000)), max_size=60))
def test_counted_sum_matches_the_exact_oracle_on_random_terms(terms):
    x = np.array([v for v, _ in terms], dtype=np.float64)
    c = np.array([k for _, k in terms], dtype=np.int64)
    assert _counted(x, c) == _exact_sum(x, c)
    assert _same_float(bounds._fsum(x), _exact_sum(x))


def test_counted_sum_refuses_counts_beyond_the_exact_range():
    # every exponent bin stays below 2^53 only up to 2^26 sites in all; the
    # largest mantissa half (2^27 - 1) times 2^26 sites is still exact
    x = np.array([np.nextafter(1.0, 0.0)])
    edge = np.array([1 << 26])
    assert _counted(x, edge) == _exact_sum(x, edge)
    assert _counted(-x, edge) == -_exact_sum(x, edge)
    for bad in (np.array([(1 << 26) + 1]), np.array([1 << 25, (1 << 25) + 1]),
                np.array([-1]), np.array([2, -1])):
        with pytest.raises(ValueError, match="2\\^26"):
            bounds._exact_counted(np.resize(x, bad.size), bad)
    with pytest.raises(ValueError, match="integers"):
        bounds._exact_counted(x, np.array([1.5]))


def test_tail_sum_matches_a_fresh_sort_at_every_cut():
    # the finite sum reads the shells of the once-sorted radii beyond r; it
    # must hold the same terms as the selection made afresh, also when r
    # equals a radius (|p| >= r is closed) or cuts nothing.  The value is
    # the window sum plus half the tail bound; err is that half rounded
    # outward (test_tail_sum_interval_is_rounded_outward)
    ps = cs.gen_jittered(2, 12.0, 0.2, seed=5)
    lat = cs.gen_lattice(2, 12.0)
    for pset in (ps, lat):
        radii = cs.measure_radii(pset)
        rr = pset.radii
        rp = pset._r_pack_certified
        for alpha in (2.5, 4.0):
            tail = 9.0 * 2 / rp ** 2 * cs.integral_tail(alpha, 2, 12.0 - rp)
            for r in (0.0, 1.0, 2.0, float(rr[17]), 7.3, float(rr.max()), 12.0):
                got = cs.delone_tail_sum(pset, radii, alpha, r)
                finite = _exact_sum(rr[rr >= r] ** (-alpha))
                assert got.value == finite + 0.5 * tail
    assert ps.shells(7.3)[0].base is ps.shells(0.0)[0].base  # sorted once, then cached


def test_tail_sum_interval_is_rounded_outward():
    # [lo, hi] holds [S, S + tail] for S the exact sum of the same float
    # terms, err is the least float >= tail/2 that does so, and the value is
    # unchanged; at the commit before outward rounding, lo > S in 144 of
    # these 324 cases and hi < S + tail in 168
    for ps in (cs.gen_lattice(1, 500.0), cs.gen_lattice(2, 40.0),
               cs.gen_lattice(3, 12.0)):
        d, R = ps.dim, ps.region_radius
        for alpha in d + np.linspace(0.25, 9.0, 12):
            alpha = float(alpha)
            tail = (3.0 ** d) * d / 0.5 ** d * cs.integral_tail(alpha, d, R - 0.5)
            for r in np.linspace(0.5, 4.5, 9):
                got = cs.delone_tail_sum(ps, None, alpha, float(r))
                terms, counts = np.unique(ps.radii[ps.radii >= r] ** -alpha,
                                          return_counts=True)
                exact = sum((Fraction(x) * int(k) for x, k in
                             zip(terms.tolist(), counts.tolist())), Fraction(0))
                assert got.value == float(exact) + 0.5 * tail
                assert Fraction(got.lo) <= exact
                assert Fraction(got.hi) >= exact + Fraction(tail)
                if got.err > 0.5 * tail:
                    less = cs.CertifiedValue(got.value,
                                             math.nextafter(got.err, 0.0))
                    assert (Fraction(less.lo) > exact
                            or Fraction(less.hi) < exact + Fraction(tail))


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


def test_tail_sum_refuses_terms_below_the_normal_range():
    # S(10) ~ 2e-400 at alpha = 400: its terms and tail bound read 0
    line = cs.gen_lattice(1, 100.0)
    with pytest.raises(ValueError, match="alpha = 400.0 leaves the normal"):
        cs.delone_tail_sum(line, None, 400.0, 10.0)
    # the tail bound alone underflows when the window is empty
    wide = cs.gen_lattice(1, 100.5)
    assert wide.shells(100.5)[0].size == 0
    with pytest.raises(ValueError, match="alpha = 400.0 leaves the normal"):
        cs.delone_tail_sum(wide, None, 400.0, 100.5)
    # the smallest term (1e2)^-150 = 1e-300 and the tail bound are normal
    s = cs.delone_tail_sum(line, None, 150.0, 10.0)
    assert s.lo > 0.0 and math.isclose(s.value, 2 * 10.0 ** -150, rel_tol=1e-6)


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
        # M = 5000 sums its 5001 head terms (to N = 2M) in one rounding
        for M in (2, 5, 10, 100, 5000):
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
    # non-finite exponents are refused by name, before any sum
    with pytest.raises(ValueError, match="sum diverges unless alpha > 1"):
        cs.seq_sum_integral_check(math.nan, 5)
    with pytest.raises(ValueError, match="alpha must be finite"):
        cs.seq_sum_integral_check(math.inf, 5)
    # a fractional M would sum n = M, M + 1, ... but report int(M)
    with pytest.raises(ValueError, match="M must be an integer"):
        cs.seq_sum_integral_check(2.0, 2.5)
    assert cs.seq_sum_integral_check(2.0, np.int64(5)).M == 5


def test_midpoint_comparison_contains_the_60_digit_tail():
    # sum_{n >= M} n^-alpha, exactly: 3000 terms summed directly, then
    # zeta(alpha, M + 3000) (zeta(alpha, M) alone is off by 7e-11 relative
    # at alpha = 33.3, M = 1000)
    with mpmath.workdps(60):
        for alpha in (1.1, 1.5, 2.0, 3.0, 5.5, 8.0, 12.0, 20.0, 33.3, 50.0,
                      77.0):
            a = mpmath.mpf(alpha)
            terms = [mpmath.mpf(n) ** -a for n in range(2, 4002)]
            for M in (2, 3, 5, 10, 100, 1000):
                exact = (mpmath.fsum(terms[M - 2:M + 2998])
                         + mpmath.zeta(a, M + 3000))
                seq = cs.seq_sum_integral_check(alpha, M).seq_sum
                assert seq.lo <= exact <= seq.hi, (alpha, M)


def test_midpoint_comparison_refuses_what_it_cannot_sum():
    # above 2^25 the head leaves the exact-sum range; refused before any array
    with pytest.raises(ValueError, match="M <= 2\\^25"):
        cs.seq_sum_integral_check(2.0, (1 << 25) + 1)
    # 2000^-120 underflows; 0.5^-1101 overflows
    for alpha, M in ((120.0, 1000), (1100.0, 2)):
        with pytest.raises(ValueError, match=f"alpha = {alpha!r} leaves"):
            cs.seq_sum_integral_check(alpha, M)


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
