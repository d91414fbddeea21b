"""Self-similar cosine products, Cantor function, and digit maps."""

import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import centralspin as cs
from centralspin.spectra import L_ORACLE
from centralspin._rng import counter_uniform_open


# ---------------------------------------------------------------- cos_product

def test_base_two_product_is_sinc():
    for t in (0.5, 1.0, 2.0, 10.0, 40.0):
        value, err = cs.cos_product(2, t, 1e-12)
        assert abs(value - math.sin(t) / t) <= err + 1e-11


def test_base_three_value_matches_frozen_oracle():
    value, _ = cs.cos_product(3, math.pi, 1e-13)
    assert abs(value - L_ORACLE) < 1e-12
    assert round(float(value), 2) == 0.47


def test_product_certificate_brackets_deeper_truncations():
    shallow = cs.CosProduct(3, depth=25)
    deep = cs.CosProduct(3, depth=60)
    for t in (0.3, 1.0, math.pi, 9.42, 25.0):
        (a, a_err), (b, _) = shallow.evaluate(t), deep.evaluate(t)
        assert abs(a - b) <= a_err + 1e-15


def test_product_at_zero_is_exact_one():
    value, err = cs.cos_product(5, 0.0, 1e-12)
    assert value == 1.0 and err == 0.0


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_cos_product_refuses_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        cs.cos_product(3, t, 1e-12)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_fixed_depth_product_refuses_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        cs.CosProduct(3, 5).evaluate(t)


def _mp_product(base, t):
    """prod cos(t / base^k) at 80 digits, until the arguments drop below 1e-40."""
    with mpmath.workdps(80):
        x, out = mpmath.mpf(t) / base, mpmath.mpf(1)
        while abs(x) >= mpmath.mpf(10) ** -40:
            out *= mpmath.cos(x)
            x /= base
        return out


@pytest.mark.parametrize("base", range(2, 10))
def test_product_intervals_contain_the_mpmath_product(base):
    for t in (0.0, 0.3, math.pi, 30.0, 1e6, 1e12, 1e20, 3 ** 40 * math.pi):
        exact = _mp_product(base, t)
        for value, err in (cs.cos_product(base, t, 1e-12),
                           cs.cos_product(base, t, 1e-14),
                           cs.CosProduct(base, depth=5).evaluate(t)):
            assert abs(mpmath.mpf(float(value)) - exact) <= err, (t, value, err)


@pytest.mark.parametrize("evaluate", [
    lambda: cs.cos_product(3, 1.2e154, 1e-12),
    lambda: cs.cos_product(3, 1.4e154, 1e-12),
    lambda: cs.CosProduct(3, 5).evaluate(1e200),
    lambda: cs.cos_product(2, -sys.float_info.max, 1e-12),
    lambda: cs.CosProduct(2 ** 53, 5000).evaluate(sys.float_info.max),
], ids=["1.2e154", "1.4e154", "depth5-1e200", "base2-max", "base2^53-max"])
def test_huge_times_get_the_trivial_interval(evaluate):
    value, err = evaluate()
    assert abs(value) <= 1.0 and err == 2.0


def test_depth_stops_at_the_last_finite_power():
    # 3^645 < 2^1023 < 3^646: deeper factors are exactly 1.0 and go to the tail
    value, err = cs.CosProduct(3, depth=10 ** 5).evaluate(1.0)
    assert (value, err) == cs.CosProduct(3, depth=645).evaluate(1.0)
    assert 0.0 < err < 1e-14


@pytest.mark.parametrize("base", [1, 2 ** 53 + 1, 10 ** 200, 10 ** 400],
                         ids=["1", "2^53+1", "10^200", "10^400"])
def test_bases_outside_two_to_two_to_the_53_are_refused(base):
    with pytest.raises(ValueError, match=r"base must be an integer in \[2, 2\^53\]"):
        cs.cos_product(base, 1e10, 1e-12)
    with pytest.raises(ValueError, match="base must be"):
        cs.CosProduct(base, 3)


# sha256 of every (value, err) pair below, as float64 bytes in loop order,
# recorded when err began to cover the rounding of the kept arguments and
# of the product; the values alone hash as they did before.  Each grid's
# (value, err) rows hash as its times would one at a time.
COS_PRODUCT_DIGEST = \
    "9c6d4ab212de357b8ceee598ff15888f7835e87ca47283e3295738b2402469f4"


def test_products_are_bit_identical_to_recorded_digest():
    times = np.array([*np.linspace(-60.0, 60.0, 1201).tolist(),
                      0.0, -0.0, math.pi, 3 ** 5 * math.pi, 1e6])
    h = hashlib.sha256()
    for base in range(2, 10):
        for tol in (1e-14, 1e-13, 1e-12, 1e-8, 1e-3, 0.5):
            h.update(np.column_stack(cs.cos_product(base, times, tol)).tobytes())
        for depth in (1, 5, 25, 40, 60):
            prod = cs.CosProduct(base, depth=depth)
            h.update(np.column_stack(prod.evaluate(times)).tobytes())
    for base in (3, 4, 5):
        for i, v in cs.persistent_oscillation(base, 12):
            h.update(np.array([float(i), v]).tobytes())
    assert h.hexdigest() == COS_PRODUCT_DIGEST


def _bits(pair):
    return np.column_stack([np.ravel(a) for a in pair]).view(np.uint64)


@pytest.mark.parametrize("evaluate", [
    lambda t: cs.CosProduct(3, depth=40).evaluate(t),
    lambda t: cs.CosProduct(2, depth=1023).evaluate(t),
    lambda t: cs.cos_product(3, t, 1e-14),
    lambda t: cs.cos_product(7, t, 0.5),
], ids=["base3-depth40", "base2-depth1023", "base3-tol1e-14", "base7-tol0.5"])
def test_grid_outputs_equal_one_element_calls_bit_for_bit(evaluate, monkeypatch):
    # times from 1e-3 to 1e6 keep different depths K in one grid; at depth
    # 1023 a block holds 256 rows, and a 600-factor block splits every grid
    ramp = np.linspace(-30.0, 30.0, 2001)
    spread = np.geomspace(1e-3, 1e6, 181) * np.resize([1.0, -1.0], 181)
    for times in (ramp, spread):
        one = [evaluate(float(t)) for t in times]
        assert all(v.shape == () == e.shape for v, e in one)
        assert np.array_equal(_bits(evaluate(times)), _bits(zip(*one)))
        with monkeypatch.context() as m:
            m.setattr(cs.spectra, "_BLOCK", 600)
            assert np.array_equal(_bits(evaluate(times)), _bits(zip(*one)))
    value, err = evaluate(0.5)
    assert value.shape == err.shape == () and value.dtype == np.float64
    value, err = evaluate([0.5])
    assert value.shape == err.shape == (1,)
    grid = ramp[:12].reshape(3, 4)
    value, err = evaluate(grid)
    assert value.shape == err.shape == (3, 4)
    assert np.array_equal(_bits((value, err)), _bits(evaluate(grid.ravel())))


def test_a_large_grid_is_evaluated_in_blocks():
    # the whole (times x depth) matrix of this grid would hold 32 MB
    times = np.linspace(-30.0, 30.0, 10 ** 5)
    prod = cs.CosProduct(3, depth=40)
    tracemalloc.start()
    try:
        prod.evaluate(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


@pytest.mark.parametrize("depth", [1.5, 2.5, 0, -3, "2"])
def test_depth_must_be_a_positive_integer(depth):
    with pytest.raises(ValueError, match="depth must be an integer >= 1"):
        cs.CosProduct(3, depth=depth)


@given(base=st.integers(2, 9), t=st.floats(-30.0, 30.0))
def test_rescaling_identity_property(base, t):
    assert cs.recursion_check(base, t)


def test_rescaling_identity_on_a_grid():
    times = np.linspace(-30.0, 30.0, 601)
    holds = cs.recursion_check(3, times)
    assert holds.shape == times.shape and holds.dtype == bool and holds.all()


@pytest.mark.parametrize("t", [1e308, -1e308, [0.5, 1e308]])
def test_rescaling_identity_refuses_an_overflowing_base_times_t(t):
    # t is finite; base * t is not, and the refusal says so
    with pytest.raises(ValueError, match=r"base \* t overflows"):
        cs.recursion_check(3, t)


# ------------------------------------------------------- persistent oscillation

def test_oscillation_alternates_for_odd_base():
    out = cs.persistent_oscillation(3, 8)
    assert [i for i, _ in out] == list(range(9))
    for i, v in out:
        assert math.copysign(1.0, v) == (-1.0) ** i
        assert abs(abs(v) - L_ORACLE) < 1e-10


def test_oscillation_locks_negative_for_even_base():
    out = cs.persistent_oscillation(4, 6)
    assert out[0][1] > 0.0
    assert all(v < 0.0 for i, v in out if i >= 1)
    mags = {abs(v) for _, v in out}
    assert max(mags) - min(mags) < 1e-15


def test_oscillation_never_decays():
    for base in (3, 4, 5):
        vals = [abs(v) for _, v in cs.persistent_oscillation(base, 8)]
        assert min(vals) >= 0.99 * vals[0]


def test_oscillation_argument_validation():
    with pytest.raises(ValueError):
        cs.persistent_oscillation(2, 4)
    with pytest.raises(ValueError):
        cs.persistent_oscillation(3, 13)


# -------------------------------------------------------------- cantor function

def test_cantor_landmark_values():
    assert cs.cantor_function(Fraction(0), 60) == 0.0
    assert cs.cantor_function(Fraction(1), 60) == 1.0
    assert cs.cantor_function(Fraction(1, 3), 60) == 0.5
    assert cs.cantor_function(Fraction(1, 4), 60) == 1.0 / 3.0


def test_cantor_constant_on_removed_intervals():
    mid = {cs.cantor_function(Fraction(n, 300), 50) for n in range(101, 200, 7)}
    assert mid == {0.5}
    sub = {cs.cantor_function(Fraction(n, 900), 50) for n in range(101, 200, 9)}
    assert sub == {0.25}


def test_cantor_is_monotone_on_random_grid():
    xs = sorted(counter_uniform_open(999, j) for j in range(2000))
    vals = [cs.cantor_function(x, 45) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cantor_self_similarity():
    for n in range(1, 40, 3):
        y = Fraction(n, 41)
        lhs = cs.cantor_function(y / 3, 60)
        rhs = cs.cantor_function(y, 60) / 2.0
        assert abs(lhs - rhs) < 1e-15


# -------------------------------------------------------------------- digit map

def test_digit_map_exact_endpoint_behaviour():
    got = cs.d_map_exact(1 - Fraction(1, 3 ** 50), 40)
    assert got == 1 - Fraction(1, 2 * 3 ** 40)


def test_digit_map_rejects_shallow_dyadics():
    with pytest.raises(ValueError, match="dyadic"):
        cs.d_map_exact(0.5, 10)
    with pytest.raises(ValueError, match="dyadic"):
        cs.d_map_exact(0.75, 10)
    # a dyadic deeper than the inspected digits is fine
    assert 0.0 < float(cs.d_map_exact(1.0 / 2 ** 60, 50)) < 1e-15


def test_digit_map_image_avoids_removed_thirds():
    # D sends binary digits to ternary digits in {0, 2} (plus a final 1):
    # the image never enters the open middle third at any inspected level
    for j in range(50):
        x = counter_uniform_open(77, j)
        y = cs.d_map_exact(float(x), 30)
        scaled = y
        for _ in range(10):
            scaled = scaled * 3
            digit = int(scaled)
            scaled -= digit
            assert digit in (0, 2)


def test_transport_roundtrip_brackets():
    for j in range(200):
        x = float(counter_uniform_open(5, j))
        y = cs.d_map_exact(x, 50)
        back = cs.cantor_function(y, 50)
        assert abs(back - x) <= 2.0 ** -50 + 3.0 ** -50 + 1e-12


# ---------------------------------------------------- characteristic function

def test_char_function_monte_carlo_within_tolerance():
    rep = cs.char_function_check(10 ** 4, [1.0, math.pi], seed=29)
    assert rep.all_ok
    for t, emp, ref, tol, ok in zip(rep.t, rep.empirical, rep.reference,
                                    rep.tolerance, rep.holds):
        assert ok
        assert abs(emp - ref) <= tol
        assert tol >= 4.0 / math.sqrt(10 ** 4)


def test_char_function_validates_sample_count():
    with pytest.raises(ValueError):
        cs.char_function_check(100, [1.0], seed=0)


def test_char_function_refuses_a_seed_outside_int64():
    for seed in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(ValueError, match=f"got {seed}$"):
            cs.char_function_check(10 ** 4, [1.0], seed=seed)
    # the int64 edges still draw
    for seed in (-2 ** 63, 2 ** 63 - 1):
        assert cs.char_function_check(10 ** 4, [1.0], seed=seed).all_ok


def test_char_function_refuses_an_empty_time_list():
    with pytest.raises(ValueError, match="at least one time"):
        cs.char_function_check(10 ** 4, [], seed=1)


def test_char_function_refuses_nan_time_before_sampling():
    with pytest.raises(ValueError, match=r"\|t\| must be <= 50"):
        cs.char_function_check(10 ** 4, [1.0, math.nan], seed=0)
