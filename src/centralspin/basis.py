"""Exact dyadic sign basis: evaluation, inner products, Fourier data.

Purpose
-------
The functions theta_n on [-1, 1] are defined by theta_1 = sign and the
doubling action theta_{n+1}(x) = theta_n(2x - sigma(x)), sigma = sign, and
for a finite index set alpha, theta_alpha = prod_{n in alpha} theta_n
(theta_empty = 1).  With the normalized inner product
<f, g> = (1/2) integral_{-1}^{1} f g dx this family is orthonormal, and
sum_k theta_k / 2^k converges to x in L^2: its level-N partial sum is the
midpoint staircase with exact error 2^(-N)/sqrt(3).

Everything here is computed exactly.  theta_n(x) is the n-th binary digit
of (x + 1)/2, extracted in integer arithmetic from the exact rational value
of x (floats are binary rationals, so this is lossless); every integrand is
piecewise constant on dyadic cells (possibly times e^(-i pi m x), which
integrates in closed form per cell), so there is no quadrature error
anywhere, only final-rounding ulps.

Conventions
-----------
sign(0) := +1 throughout, which matches taking the terminating binary
expansion of dyadic rationals (and the all-ones expansion at x = 1).  Cell
j of level N is [-1 + 2j/2^N, -1 + 2(j+1)/2^N); on it theta_n is the sign
2*bit - 1 of bit N-n (counting from the least significant bit) of j.  Cell
arrays materialize only up to level 22; inner products at any level
iterate cells implicitly through these bit patterns in exact integer
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bounds import _fsum

__all__ = [
    "theta_eval",
    "theta_alpha_eval",
    "to_piecewise",
    "inner_product",
    "fourier_coeff",
    "t_fourier_action_check",
    "partial_sum_x",
    "l2_distance_to_x",
    "l2_cauchy_check",
]

_MATERIALIZE_MAX_LEVEL = 22
# agreement required of the two sides of each identity check
_TOL = 1e-12


def _index(alpha) -> tuple[int, ...]:
    """alpha as the ascending tuple of its distinct entries, each >= 1.

    The empty tuple denotes theta = 1.
    """
    idx = tuple(sorted({int(n) for n in alpha}))
    if idx and idx[0] < 1:
        raise ValueError("indices must be positive integers")
    return idx


def _digit(y: Fraction, n: int) -> int:
    """n-th binary digit of y in [0, 1], terminating expansion; all-ones at 1."""
    if y == 1:
        return 1
    return (y.numerator << n) // y.denominator & 1


def theta_eval(n: int, x: float | Fraction) -> int:
    """theta_n(x) in {-1, +1} via the n-th binary digit of (x + 1)/2.

    Equivalent to unrolling the doubling recursion from the sign function
    (property-tested against it); dyadic points follow sign(0) = +1.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    xf = Fraction(x)
    if not -1 <= xf <= 1:
        raise ValueError("x must lie in [-1, 1]")
    return 2 * _digit((xf + 1) / 2, n) - 1


def theta_alpha_eval(alpha, x: float | Fraction) -> int:
    """Product of theta_n over n in alpha; the empty index gives 1."""
    out = 1
    for n in _index(alpha):
        out *= theta_eval(n, x)
    return out


def _cell_signs(indices: tuple[int, ...], level: int) -> np.ndarray:
    """Vector of theta_alpha cell values (+-1 int8) at the given level."""
    j = np.arange(1 << level, dtype=np.int64)
    out = np.ones(1 << level, dtype=np.int8)
    for n in indices:
        bit = (j >> (level - n)) & 1
        out *= (2 * bit - 1).astype(np.int8)
    return out


def to_piecewise(alpha) -> np.ndarray:
    """The 2^level float64 cell values of theta_alpha, level = max(alpha).

    The cell value is theta_alpha at the cell midpoint, computed from the
    bits of the cell index (the midpoint's digits ARE those bits, followed
    by a 1 that no index in alpha reaches).
    """
    idx = _index(alpha)
    level = idx[-1] if idx else 0
    if level > _MATERIALIZE_MAX_LEVEL:
        raise ValueError(f"index {level} too large to materialize "
                         f"(cap {_MATERIALIZE_MAX_LEVEL})")
    return _cell_signs(idx, level).astype(np.float64)


def inner_product(alpha, beta) -> float:
    """<theta_alpha, theta_beta> = (1/2^N) sum over level-N cells, exactly.

    theta_alpha * theta_beta = theta_{alpha XOR beta}, whose cell signs
    depend only on the |gamma| bits picked by the symmetric difference.  The
    sum is grouped by those bit patterns: each of the 2^|gamma| patterns
    occurs in exactly 2^(N-|gamma|) cells, so the total is 2^(N-|gamma|)
    times the signs of gamma compressed to the indices 1..|gamma|, summed
    over the 2^|gamma| cells of that level in integer arithmetic (for
    |gamma| <= 20; above, the pattern sum is 0 by factorization).  The
    result is exactly 1.0 for alpha == beta and exactly 0.0 otherwise.
    """
    a, b = _index(alpha), _index(beta)
    level = max(a + b + (1,))
    g = len(set(a) ^ set(b))
    if g <= 20:
        # compressed to the indices 1..g, each sign pattern is one cell
        signs = _cell_signs(tuple(range(1, g + 1)), g)
        pattern_sum = int(signs.astype(np.int64).sum())
    else:
        # the pattern sum factorizes over bits as prod of ((+1) + (-1)) = 0
        pattern_sum = 0
    total = pattern_sum * (1 << (level - g))
    return float(Fraction(total, 1 << level))


def fourier_coeff(k: int, m: int) -> complex:
    """(theta_k)_m = (1/2) integral_{-1}^1 theta_k(x) e^(-i pi m x) dx, exactly.

    Per level-k cell the exponential integrates in closed form; the phases
    at the cell endpoints -1 + j 2^(1-k) are reduced modulo 2 pi in integer
    arithmetic ((m j) mod 2^k), so no large-argument trigonometry occurs.
    The support lies on m = 2^k n + 2^(k-1) with magnitude (1/pi)/|n + 1/2|.
    """
    if not (isinstance(k, int) and 1 <= k <= 20):
        raise ValueError("need integer 1 <= k <= 20")
    if not (isinstance(m, int) and abs(m) <= 10 ** 6):
        raise ValueError("need integer |m| <= 10^6")
    n_cells = 1 << k
    h = 2.0 ** (1 - k)
    j = np.arange(n_cells + 1, dtype=np.int64)
    signs = (2 * (j[:-1] & 1) - 1).astype(np.float64)
    if m == 0:
        return complex(_fsum(signs) * h / 2.0)
    q = (m * j) % n_cells  # endpoint phase: (-1)^m * exp(-i pi h q)
    endpoint = np.exp(-1j * math.pi * h * q)
    terms = signs * (endpoint[:-1] - endpoint[1:])
    total = complex(_fsum(terms.real), _fsum(terms.imag))
    sign_m = -1.0 if m % 2 else 1.0
    return total * sign_m * (-1j) / (2.0 * math.pi * m)


def t_fourier_action_check(k: int, n_range: int) -> bool:
    """Check the doubling action on Fourier data: theta_k maps to theta_{k+1}.

    The action sends f_n to (Tf)_{2n} = (-1)^n f_n and (Tf)_{2n+1} = 0;
    both target families are compared against fourier_coeff(k+1, .) for
    |n| <= n_range, within 1e-12.
    """
    if not (isinstance(k, int) and 1 <= k <= 19):
        raise ValueError("need integer 1 <= k <= 19")
    for n in range(-n_range, n_range + 1):
        even = fourier_coeff(k + 1, 2 * n)
        expected = (-1.0 if n % 2 else 1.0) * fourier_coeff(k, n)
        if abs(even - expected) > _TOL:
            return False
        odd = fourier_coeff(k + 1, 2 * n + 1)
        if abs(odd) > _TOL:
            return False
    return True


def partial_sum_x(N: int) -> np.ndarray:
    """S_N = sum_{k<=N} theta_k / 2^k, the level-N midpoint staircase.

    Summing the bit signs telescopes to the cell midpoint,
    S_N(cell j) = (2j + 1)/2^N - 1, exact in floating point for N <= 52.
    """
    if not (isinstance(N, int) and 0 <= N <= _MATERIALIZE_MAX_LEVEL):
        raise ValueError(f"need 0 <= N <= {_MATERIALIZE_MAX_LEVEL}")
    j = np.arange(1 << N, dtype=np.float64)
    return (2.0 * j + 1.0) / (1 << N) - 1.0


def l2_distance_to_x(cells) -> float:
    """||f - x||_2 under (1/2)dx, by exact per-cell quadratic integration.

    f is given by its cell values, a 1-D array of 2^level entries with
    level <= 22.  On a cell with midpoint m_j and width h the integral of
    (v_j - x)^2 is h (v_j - m_j)^2 + h^3/12, so the distance needs no
    quadrature grid.
    """
    cells = np.asarray(cells, dtype=np.float64)
    n_cells = cells.size
    if (cells.ndim != 1 or not n_cells or n_cells & (n_cells - 1)
            or n_cells > 1 << _MATERIALIZE_MAX_LEVEL):
        raise ValueError(f"need a 1-D array of 2^level cell values, level "
                         f"in [0, {_MATERIALIZE_MAX_LEVEL}]")
    h = 2.0 / n_cells
    j = np.arange(n_cells, dtype=np.float64)
    mid = -1.0 + (2.0 * j + 1.0) / n_cells
    sq = h * (cells - mid) ** 2 + h ** 3 / 12.0
    return math.sqrt(_fsum(sq) / 2.0)


def l2_cauchy_check(A, N: int, M: int) -> float:
    """||phi_M - phi_N||_2 for phi_K = sum_{k<=K} A_k theta_k, two ways.

    Orthonormality gives the closed form sqrt(sum_{N<k<=M} A_k^2); the same
    number is recomputed as an honest piecewise integral over the 2^M dense
    cells of level M, and the two must agree within 1e-12.  Levels are
    capped at M <= 20, which bounds those cells at 2^20.  A is the coupling
    prefix A_1..A_M (index k at A[k-1]), refused when shorter; N == M
    returns 0.  Raises AssertionError on disagreement.
    """
    if not (0 <= N <= M <= 20):
        raise ValueError("need 0 <= N <= M <= 20 (the level cap)")
    if M == N:
        return 0.0
    if len(A) < M:
        raise ValueError("coupling prefix shorter than M")
    a = [float(A[k - 1]) for k in range(N + 1, M + 1)]
    closed = math.sqrt(_fsum(np.square(a)))
    j = np.arange(1 << M, dtype=np.int64)
    diff = np.zeros(1 << M, dtype=np.float64)
    for k in range(N + 1, M + 1):
        bit = (j >> (M - k)) & 1
        diff += a[k - N - 1] * (2 * bit - 1)
    integral = math.sqrt(_fsum(diff ** 2) / (1 << M))
    if abs(closed - integral) > _TOL:
        raise AssertionError(
            f"closed form {closed!r} and piecewise integral {integral!r} "
            f"disagree beyond {_TOL:g}")
    return closed
