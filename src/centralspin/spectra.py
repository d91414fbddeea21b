"""Exponential-coupling counterexamples: cosine products and Cantor spectra.

Purpose
-------
When the couplings decay geometrically, A_k = b^(-k) for an integer base
b >= 2, the dephasing profile collapses to the infinite product

    C(t) = prod_{k >= 1} cos(t / b^k),

which does NOT vanish at infinity for b >= 3: reindexing the product gives
the recursion C(b t) = cos(t) C(t), so C(b^i pi) = +/- C(pi) forever.  For
b = 2 the product telescopes to sinc(t) = sin(t)/t (which does decay), and
for b = 3 the value l = C(pi) is the persistent oscillation amplitude.  The
same machinery houses the Cantor function C, the measure-transport map

    D(x) = sum_n theta_n(2x - 1)/3^n + 1/2,

which pushes Lebesgue measure on [0,1] to the Cantor distribution
(C(D(x)) = x almost everywhere), and the Monte-Carlo check that e^(it/2)
prod cos(t/3^k) is the characteristic function of D(uniform).

Conventions
-----------
``CosProduct(base, depth).evaluate(t)`` (tol = inf) and
``cos_product(base, t, tol)`` (depth = 1) take a float or an array of times
and return ``(value, err)``, float64 arrays of t's shape, by one depth
rule: K is the least depth >= max(depth, ceil(log |t| / log b), 1) whose
tail (below) is <= tol, capped at the last power of base below
2^1023.  With u = 2^-53 and n the number of factors that are not 1.0,

    |value - C(t)| <= err = min(2, s + (|value| + s) expm1(tail)),
    s = 4u |t| / (b - 1) + n u / (1 - n u) |value|,

two being the trivial bound; err = 0 at t = 0.  Each a_k = fl(t / fl(b^k))
is within 3u / (1 - 2u) of t / b^k relatively (pow within 1 ulp, the
quotient within half an ulp); as |cos a - cos a'| <= |a - a'| and every
factor lies in [-1, 1], the kept product moves by at most 3u/(1 - 2u) |t| /
(b - 1), and 4u also covers the rounding of that term.  Products by 1.0 are
exact, so at most n - 1 products round, in any order.  Every dropped
argument is below 1, where -log cos x <= x^2, so the dropped factors lie in
[e^-tail, 1] with tail = sum_{k > K} (t/b^k)^2 = (t/b^K)^2 / (b^2 - 1), and
move the kept product, of modulus <= |value| + s, by at most (|value| + s)
expm1(tail); the bound's slack (-log cos 1 = 0.616) absorbs the rounding of
tail and of err.  Where 2^1023 caps K below what |t| needs, |t| > 2^1023 / b,
so s >= 2.  Left outside err: the libm error of cos and pow (assumptions
about numpy's kernels) and underflow.  Bases above 2^53 are refused, so b
is exact.

Grid values and errs are bit for bit those of one-element calls: rows go
through blocks of at most 2^18 factors, factors past a row's K are exactly
1.0, and np.multiply.reduce(axis=1) multiplies each row in order.  The
primitives stay scalar where numpy's vector forms move bits (x86-64, numpy
2.4.6): the tail's b^K is Python's float ** int (numpy's pow, used for the
divisors, differs at 31 of 645 base-3 exponents), expm1 is math.expm1
(np.expm1 differs on 1% of tails), and the depth rule takes math.log per
time (np.log differs at 33 of 200,000 times).

Digit manipulations for the Cantor function and D-map run in exact
rational arithmetic (fractions.Fraction), so the only float rounding is in
the final cast; Monte-Carlo sampling uses the counter generator keyed on
(seed, index) and draws with an odd 53-bit mantissa, so no sample is ever a
dyadic rational of level <= 52 and theta digits are exact bit extractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import counter_uniform_open
from .bounds import _EPS, _gamma

__all__ = [
    "L_ORACLE",
    "CosProduct",
    "CharFunctionReport",
    "cos_product",
    "recursion_check",
    "persistent_oscillation",
    "cantor_function",
    "d_map_exact",
    "char_function_check",
]

# C(pi) for base 3, computed once offline with 30-digit arithmetic at
# depth 60 (mpmath); the literature value is 0.46 to two digits.
L_ORACLE = 0.46627457895504917055732477549818
# truncation tolerance and float slack of the identity checks
_TOL = 1e-12
# factors per block of product rows, as in ramsey
_BLOCK = 1 << 18
# binary digits of each sample that char_function_check maps through D
_CHAR_DEPTH = 50


def _check_base(base: int) -> None:
    if not (isinstance(base, int) and 2 <= base <= 2 ** 53):
        raise ValueError("base must be an integer in [2, 2^53]")


def _product(base: int, t, depth: int,
             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(value, err) of C(t) per time of ``t``, by the module's depth rule."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("t must be finite")
    b = float(base)
    k_max = int(1023 / math.log2(base))
    # ceil(log_base |t|), at least 1: every dropped argument is then < 1
    k = np.array([1 if at < 1.0 else
                  max(1, math.ceil(math.log(at) / math.log(base)))
                  for at in np.abs(flat).tolist()], dtype=np.int64)
    k = np.clip(k, min(depth, k_max), k_max)
    powers = [b ** j for j in range(int(k.max(initial=1)) + 1)]
    q = flat / np.take(powers, k)
    while np.any(deeper := (k < k_max) & (q * q / (b * b - 1.0) > tol)):
        k += deeper
        if k.max() == len(powers):
            powers.append(b ** len(powers))
        q = flat / np.take(powers, k)
    tail = q * q / (b * b - 1.0)
    value = np.empty(flat.size)
    n = np.empty(flat.size, dtype=np.int64)
    rows = max(1, _BLOCK // int(k.max(initial=1)))
    for i in range(0, flat.size, rows):
        kb = k[i:i + rows]
        width = int(kb.max())
        divisors = np.float64(base) ** np.arange(1, width + 1)
        factors = np.cos(flat[i:i + rows, None] / divisors)
        factors[np.arange(width) >= kb[:, None]] = 1.0
        value[i:i + rows] = np.multiply.reduce(factors, axis=1)
        n[i:i + rows] = np.count_nonzero(factors != 1.0, axis=1)
    s = (4.0 * _EPS * np.abs(flat) / (base - 1.0)
         + _gamma(n) * np.abs(value))
    grow = np.array([math.expm1(x) for x in tail.tolist()])
    err = np.minimum(2.0, s + (np.abs(value) + s) * grow)
    return value.reshape(t.shape), err.reshape(t.shape)


@dataclass(frozen=True)
class CosProduct:
    """Truncated product prod_{k=1..K} cos(t / base^k) with certified error,
    K the integer ``depth`` as the module's depth rule raises and caps it."""

    base: int
    depth: int

    def __post_init__(self) -> None:
        _check_base(self.base)
        if not (isinstance(self.depth, int) and self.depth >= 1):
            raise ValueError("depth must be an integer >= 1")

    def evaluate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Certified C(t) as (value, err) arrays of t's shape."""
        return _product(self.base, t, self.depth, math.inf)


def cos_product(base: int, t, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified C(t) as (value, err) arrays of t's shape, truncated at the
    least depth whose tail is <= tol, capped at the last power below 2^1023."""
    _check_base(base)
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    return _product(base, t, 1, tol)


def recursion_check(base: int, t) -> np.ndarray:
    """Check the reindexing identity C(base * t) = cos(t) * C(t) per time.

    Both sides are evaluated with certified error; the identity must hold
    within the combined certificates plus 1e-12 of float slack.  A finite
    ``t`` whose ``base * t`` overflows is refused.
    """
    _check_base(base)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        bt = base * t
    over = np.isfinite(t) & ~np.isfinite(bt)
    if over.any():
        raise ValueError(f"base * t overflows at base={base}, "
                         f"t={float(t[over][0])!r}")
    lhs, lhs_err = cos_product(base, bt, _TOL)
    rhs, rhs_err = cos_product(base, t, _TOL)
    ct = np.cos(t)
    return np.abs(lhs - ct * rhs) <= lhs_err + np.abs(ct) * rhs_err + _TOL


def persistent_oscillation(base: int, i_max: int) -> list[tuple[int, float]]:
    """Values C(base^i pi) for i = 0..i_max via exact sign bookkeeping.

    Peeling one factor gives C(base * t) = cos(t) * C(t), and base^j pi is
    an integer multiple of pi, so each step multiplies by cos(base^j pi) =
    (-1)^(base^j) exactly.  For odd bases every step flips the sign:
    C(base^i pi) = (-1)^i C(pi).  For even bases only the first step does
    (cos(pi) = -1; afterwards base^j is even), so the value is -C(pi) for
    all i >= 1.  Either way |C| never decays.  Every returned value is
    cross-checked against a direct truncated-product evaluation within the
    certified errors plus a float slack proportional to base^i pi (the
    argument's own rounding moves the nearby cosines).
    """
    if base < 3:
        raise ValueError("base must be >= 3 (base 2 hits cos(pi/2) = 0)")
    if not (0 <= i_max <= 12):
        raise ValueError("need 0 <= i_max <= 12")
    i = np.arange(i_max + 1)
    t_i = np.array([float(base ** j) * math.pi for j in i.tolist()])
    direct, err = cos_product(base, t_i, _TOL)  # direct[0] is C(pi)
    flips = i % 2 == 1 if base % 2 == 1 else i >= 1
    vals = np.where(flips, -direct[0], direct[0])
    slack = t_i * 1e-15 + _TOL
    bad = np.flatnonzero(np.abs(direct - vals) > err + err[0] + slack)
    if bad.size:
        j = bad[0]
        raise AssertionError(
            f"oscillation value at i={j} disagrees with direct "
            f"evaluation: {float(vals[j])!r} vs {float(direct[j])!r}")
    return [(j, float(v)) for j, v in enumerate(vals)]


def cantor_function(y: float | Fraction, depth: int = 60) -> float:
    """Cantor function via ternary digits, exact to 2^-depth.

    Scan the exact ternary expansion of y: digit 2 emits binary digit 1,
    digit 0 emits 0, and the first digit 1 emits 1 and stops (y sits in a
    middle-third gap, where the function is constant).
    """
    if not 1 <= depth <= 60:
        raise ValueError("need 1 <= depth <= 60")
    frac = Fraction(y)
    if not 0 <= frac <= 1:
        raise ValueError("y must lie in [0, 1]")
    acc = Fraction(0)
    bits: list[int] = []
    for _ in range(depth):
        frac *= 3
        dig = int(frac)  # floor for nonnegative frac
        if dig == 3:     # only at y = 1 (0.222... repeating)
            dig = 2
            frac = Fraction(3)
        frac -= dig
        if dig == 1:
            bits.append(1)
            break
        bits.append(dig // 2)
    for bit in reversed(bits):
        acc = (acc + bit) / 2
    return float(acc)


def _check_not_dyadic(x: Fraction, depth: int) -> None:
    den = x.denominator
    if den & (den - 1) == 0 and den <= (1 << depth):
        raise ValueError(
            f"x = {x} is a dyadic rational of level <= {depth}; the digit "
            "map is ambiguous there (a measure-zero set)")


def d_map_exact(x: float | Fraction, depth: int) -> Fraction:
    """Exact-rational D(x) = sum_{n<=depth} theta_n(2x-1)/3^n + 1/2.

    theta_n(2x - 1) is +1 when the n-th binary digit of x is 1 and -1
    otherwise, so D's resolved ternary digits are 2*digit_n(x): D maps into
    the Cantor set.  Rejects dyadic x of level <= depth, where the sign
    convention would silently pick a branch.
    """
    xf = Fraction(x)
    if not 0 <= xf <= 1:
        raise ValueError("x must lie in [0, 1]")
    if not 1 <= depth <= 200:
        raise ValueError("need 1 <= depth <= 200")
    _check_not_dyadic(xf, depth)
    num, den = xf.numerator, xf.denominator
    acc = Fraction(0)
    for n in range(depth, 0, -1):
        bit = (num << n) // den & 1
        acc = (acc + (2 * bit - 1)) / 3
    return acc + Fraction(1, 2)


@dataclass(frozen=True)
class CharFunctionReport:
    """Empirical characteristic function of D(uniform) vs its closed form."""

    t: np.ndarray
    empirical: np.ndarray
    reference: np.ndarray
    tolerance: np.ndarray
    holds: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.holds))


def char_function_check(n_samples: int, t_list, seed: int) -> CharFunctionReport:
    """Monte-Carlo check that E[e^(itX)], X = D(U), equals e^(it/2) C_3(t).

    Samples u_j keyed on (seed, j) carry odd 53-bit mantissas, so every
    theta digit is an exact bit of the mantissa and no sample is dyadic.
    Each |t| <= 50 is compared within 4/sqrt(n) plus the reference's own
    certified truncation error.
    """
    if n_samples < 10 ** 4:
        raise ValueError("need n_samples >= 10^4 for the 4/sqrt(n) tolerance")
    t_arr = np.asarray(t_list, dtype=np.float64).ravel()
    if t_arr.size == 0:
        raise ValueError("t_list must hold at least one time")
    if not np.all(np.abs(t_arr) <= 50.0):
        raise ValueError("|t| must be <= 50")
    idx = np.arange(n_samples, dtype=np.int64)
    mant = (counter_uniform_open(seed, idx) * 2.0 ** 53).astype(np.uint64)
    # X = D(u) by Horner over the first _CHAR_DEPTH exact binary digits of
    # the mantissa
    x_val = np.zeros(n_samples, dtype=np.float64)
    for n in range(_CHAR_DEPTH, 0, -1):
        bit = (mant >> np.uint64(53 - n)) & np.uint64(1)
        sgn = 2.0 * bit.astype(np.float64) - 1.0
        x_val = (x_val + sgn) / 3.0
    x_val += 0.5
    emp = np.array([np.exp(1j * t * x_val).mean() for t in t_arr])
    c, c_err = cos_product(3, t_arr, 1e-14)
    ref = np.exp(0.5j * t_arr) * c
    tol_arr = 4.0 / math.sqrt(n_samples) + c_err
    holds = np.abs(emp - ref) <= tol_arr
    return CharFunctionReport(t=t_arr, empirical=emp, reference=ref,
                              tolerance=tol_arr, holds=holds)
