"""Digit-sign orthonormal system: exact inner products, Fourier data, sums."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import centralspin as cs
from centralspin.basis import theta_alpha_eval
from centralspin._rng import counter_uniform_open


# ------------------------------------------------------------ theta evaluation

def test_theta_values_at_quarter_point():
    assert cs.theta_eval(1, 0.25) == 1
    assert cs.theta_eval(2, 0.25) == -1
    assert theta_alpha_eval((1, 2), 0.25) == -1


def test_theta_matches_doubling_recursion():
    def recursion(n, x):
        y = Fraction(x)
        for _ in range(n - 1):
            y = 2 * y - (1 if y >= 0 else -1)
        return 1 if y >= 0 else -1

    for j in range(500):
        x = Fraction(counter_uniform_open(314, j)) * 2 - 1
        n = 1 + (j % 20)
        assert cs.theta_eval(n, x) == recursion(n, x)


@given(j=st.integers(0, 10 ** 9), n=st.integers(1, 30))
def test_theta_is_a_sign(j, n):
    x = counter_uniform_open(1000, j) * 2.0 - 1.0
    assert cs.theta_eval(n, x) in (-1, 1)


# ------------------------------------------------------------- piecewise form

def test_piecewise_cells_match_midpoint_evaluation():
    for alpha in ((), (1,), (2,), (1, 2), (3,)):
        cells = cs.to_piecewise(alpha)
        level = max(alpha) if alpha else 0
        n_cells = 1 << level
        assert cells.dtype == np.float64 and cells.shape == (n_cells,)
        mids = [-1.0 + (2 * i + 1) / n_cells for i in range(n_cells)]
        want = [theta_alpha_eval(alpha, m) for m in mids]
        assert cells.tolist() == want


def test_second_function_cells():
    cells = cs.to_piecewise((2,))
    assert len(cells) == 4
    assert cells.tolist() == [-1.0, 1.0, -1.0, 1.0]


def test_piecewise_evaluate_agrees_pointwise():
    cells = cs.to_piecewise((1, 3))
    for j in range(100):
        x = counter_uniform_open(8, j) * 2.0 - 1.0
        cell = int((x + 1.0) * 0.5 * len(cells))  # x < 1: no cell past the end
        assert cells[cell] == theta_alpha_eval((1, 3), x)


def test_piecewise_level_cap():
    with pytest.raises(ValueError):
        cs.to_piecewise((23,))


# --------------------------------------------------------------- inner product

def test_inner_product_is_exactly_orthonormal():
    assert cs.inner_product((1, 3), (1, 3)) == 1.0
    assert cs.inner_product((1, 2), (2, 3)) == 0.0
    assert cs.inner_product((25,), (26,)) == 0.0
    assert cs.inner_product((1, 25), (1, 25)) == 1.0
    assert cs.inner_product((), ()) == 1.0
    assert cs.inner_product((), (4,)) == 0.0
    # above 20 differing indices the pattern sum is 0 by factorization
    assert cs.inner_product(range(1, 22), ()) == 0.0
    assert cs.inner_product(range(1, 26), range(1, 26)) == 1.0


def test_index_container_normalizes_and_validates():
    for j in range(50):
        x = counter_uniform_open(9, j) * 2.0 - 1.0
        # order does not matter, and a repeated index counts once
        assert theta_alpha_eval([3, 1, 2], x) == theta_alpha_eval((1, 2, 3), x)
        assert theta_alpha_eval([1, 1], x) == theta_alpha_eval((1,), x)
    assert cs.inner_product([3, 1, 2], (1, 2, 3)) == 1.0
    assert cs.inner_product([1, 1], (1,)) == 1.0
    assert cs.to_piecewise([3, 1, 2]).tolist() == cs.to_piecewise((1, 2, 3)).tolist()
    for bad in ([0], [2, 0]):
        with pytest.raises(ValueError, match="positive integers"):
            theta_alpha_eval(bad, 0.25)
        with pytest.raises(ValueError, match="positive integers"):
            cs.inner_product(bad, ())
    # the symmetric difference {1, 3} is nonempty: orthogonal
    assert cs.inner_product([1, 2], [2, 3]) == 0.0


# ------------------------------------------------------------------- fourier

def test_fourier_support_literals():
    assert abs(cs.fourier_coeff(1, 1) - (-2j / math.pi)) < 1e-15
    assert abs(cs.fourier_coeff(2, 2) - (2j / math.pi)) < 1e-15
    assert abs(cs.fourier_coeff(1, 2)) < 1e-15
    assert abs(cs.fourier_coeff(3, 10)) < 1e-15  # not of the form 8n + 4


def test_fourier_support_magnitude_law():
    for k in (1, 2, 5, 9):
        for n in (-7, -1, 0, 3, 11):
            m = (1 << k) * n + (1 << (k - 1))
            got = abs(cs.fourier_coeff(k, m))
            want = (1.0 / math.pi) / abs(n + 0.5)
            assert abs(got - want) < 1e-12


def test_fourier_parseval_partial():
    total = math.fsum(
        abs(cs.fourier_coeff(2, 4 * n + 2)) ** 2 for n in range(-300, 300))
    assert total < 1.0
    assert total > 0.998


def test_fourier_doubling_action():
    for k in (1, 2, 3, 6):
        assert cs.t_fourier_action_check(k, 40)


def test_fourier_argument_validation():
    with pytest.raises(ValueError):
        cs.fourier_coeff(0, 1)
    with pytest.raises(ValueError):
        cs.fourier_coeff(21, 1)


# ------------------------------------------------------------------ L2 sums

def test_partial_sums_approach_identity_at_geometric_rate():
    for N in (1, 5, 12, 20):
        got = cs.l2_distance_to_x(cs.partial_sum_x(N))
        assert abs(got - 2.0 ** (-N) / math.sqrt(3.0)) < 1e-12


def test_l2_distance_refuses_a_malformed_cell_array():
    for bad in (np.zeros((2, 2)), np.zeros(0), np.zeros(3)):
        with pytest.raises(ValueError, match="2\\^level cell values"):
            cs.l2_distance_to_x(bad)
    # a list of 2^level values is read as its array
    assert cs.l2_distance_to_x([0.0]) == cs.l2_distance_to_x(cs.partial_sum_x(0))


def test_cauchy_tail_norm_closed_form():
    A = [2.0 ** -k for k in range(1, 5)]
    assert abs(cs.l2_cauchy_check(A, 2, 4) - math.sqrt(5.0) / 16.0) < 1e-15
    assert cs.l2_cauchy_check(A, 3, 3) == 0.0
    harmonic = [1.0 / k for k in range(1, 21)]
    want = math.sqrt(sum(1.0 / k ** 2 for k in range(11, 21)))
    assert abs(cs.l2_cauchy_check(harmonic, 10, 20) - want) < 1e-14
    # the closed form is the square root of a correctly rounded sum of
    # squares: pinned to the floats that math.fsum over x * x gives
    geometric = [3.0 ** -k for k in range(1, 21)]
    assert cs.l2_cauchy_check(A, 2, 4) == 0.13975424859373686
    assert cs.l2_cauchy_check(harmonic, 10, 20) == 0.21539617625780322
    assert cs.l2_cauchy_check(harmonic, 0, 12) == 1.2509902631199423
    assert cs.l2_cauchy_check(geometric, 1, 20) == 0.11785113019775792


def test_cauchy_rejects_bad_ranges():
    with pytest.raises(ValueError):
        cs.l2_cauchy_check([1.0], 2, 1)  # M < N
    with pytest.raises(ValueError):
        cs.l2_cauchy_check([1.0, 2.0], 1, 31)  # beyond the level cap
    with pytest.raises(ValueError, match="<= 20"):
        cs.l2_cauchy_check([1.0] * 21, 0, 21)  # one level past the cap
    with pytest.raises(ValueError, match="coupling prefix shorter than M"):
        cs.l2_cauchy_check([1.0, 0.5], 0, 3)  # A_3 is missing


@pytest.mark.parametrize("call, message", [
    (lambda: cs.theta_eval(0, 0.5), "n must be a positive integer"),
    (lambda: cs.theta_eval(1.0, 0.5), "n must be a positive integer"),
    (lambda: cs.theta_eval(1, 1.5), "x must lie in [-1, 1]"),
    (lambda: cs.theta_eval(1, -1.25), "x must lie in [-1, 1]"),
    (lambda: cs.fourier_coeff(1, 10 ** 6 + 1), "need integer |m| <= 10^6"),
    (lambda: cs.fourier_coeff(1, -10 ** 6 - 1), "need integer |m| <= 10^6"),
    (lambda: cs.fourier_coeff(1, 2.0), "need integer |m| <= 10^6"),
    (lambda: cs.t_fourier_action_check(0, 3), "need integer 1 <= k <= 19"),
    (lambda: cs.t_fourier_action_check(20, 3), "need integer 1 <= k <= 19"),
    (lambda: cs.partial_sum_x(-1), "need 0 <= N <= 22"),
    (lambda: cs.partial_sum_x(23), "need 0 <= N <= 22"),
], ids=["theta-n-0", "theta-n-float", "theta-x-above", "theta-x-below",
        "fourier-m-above", "fourier-m-below", "fourier-m-float", "action-k-0",
        "action-k-20", "partial-N-negative", "partial-N-23"])
def test_basis_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n", [1, 2, 7, 52, 60])
def test_theta_at_one_is_the_all_ones_digit(n):
    # x = 1 takes the all-ones expansion of (x + 1)/2 = 1: every digit is 1
    assert cs.theta_eval(n, 1.0) == 1
    assert cs.theta_eval(n, Fraction(1)) == 1
