"""Certified tail sums of inverse-power couplings over Delone point sets.

Purpose
-------
Everything downstream (normalization, profile certificates, envelope
calibration) rests on sums of the form

    S(r) = sum_{p : |p| >= r} |p|^(-alpha)      (alpha > d),

taken over a point set that is a (r_pack, r_cover)-Delone set of the ball
of radius R_max.  A finite computer can only add the points it has, so
every such sum is returned as a ``CertifiedValue``: the exact finite sum
over the stored points together with a rigorous bound on the discarded
tail beyond R_max.

Conventions
-----------
The two-sided volume-counting estimate used throughout is, for closed
annuli a <= |p| <= b with a >= r_pack,

    d / (3^d r_cover^d) * I(a + r_cover, b - r_cover)
        <= sum_{a <= |p| <= b} |p|^(-alpha)
        <= 3^d d / r_pack^d * I(a - r_pack, b + r_pack),

where I(u, v) = integral_u^v t^(d-1-alpha) dt; as b -> infinity this
yields the tail sandwich (valid once r >= 3 r_cover)

    d / (3^d r_cover^d) * T(alpha, d, r + r_cover)
        <= S(r) <=
    3^d d / r_pack^d * T(alpha, d, r - r_pack),

with T(alpha, d, r) = r^(d-alpha)/(alpha-d) the exact tail integral.
Upper bounds must use a *lower* estimate of r_pack and lower bounds an
*upper* estimate of r_cover, so the helpers below consistently take
the set's certified packing radius ``PointSet._r_pack_certified`` (the
radius ``gen_lattice`` and ``gen_jittered`` pass to the constructor when
they prove it, else the smaller of the measured and the structural packing
radius; the one rule, shared with the annulus checks) for upper bounds and
``r_cover + probe_resolution`` for lower bounds.

Every finite sum is the exact sum of its terms, rounded once: its error
is at most half an ulp, and it does not depend on the order of the terms.
Per-site terms go to ``_fsum(x)``, which is ``math.fsum``.  A tail sum
passes each radial shell once, with its site count, to
``_exact_counted(x, counts)``, the exact sum of ``counts[i]`` copies of
each ``x[i]``; its exactness chain (R. M. Neal, "Fast exact summation
using small and large superaccumulators", arXiv:1505.05571):

1. each term is m * 2^(e - 53) (``np.frexp``) with m an integer,
   |m| < 2^53, split into halves m = hi * 2^26 + lo with |hi| < 2^27,
   |lo| < 2^26;
2. with at most 2^26 sites in all, c * hi and c * lo are exact for a
   shell of c sites, and ``np.bincount`` adds them per binary exponent,
   one bin set per half, with every partial sum below 2^26 * 2^27 = 2^53:
   exact;
3. the two bin sets, added as 64-bit integers and shifted into one
   Python ``int``, are the exact total, returned as a ``Fraction``;
   ``float`` of it (``int / int``) rounds it once, correctly.

An exact zero from ``_fsum`` is -0.0 only when every term is -0.0, and
+0.0 otherwise, an empty sum included.  ``delone_tail_sum`` keeps the
exact window sum S and rounds its interval outward: with tail the float
tail bound, [value - err, value + err], evaluated in floats, contains
[S, S + tail] exactly, and err is the least float >= tail/2 that does so.
``seq_sum_integral_check`` builds its interval the same way: its head
through ``_exact_counted`` (each count 1), its bracket in rationals, its
err through ``_outward_err``.

Both refuse, naming alpha, any term or bound that is not a finite float
>= 2^-1022 (``_check_normal``): below the normal range a term loses its
relative precision or reads 0, and the interval could miss the sum.
``integral_tail`` refuses an integral that overflows.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pointsets import DeloneRadii, PointSet

__all__ = [
    "CertifiedValue",
    "SandwichResult",
    "SeqIntegralReport",
    "integral_tail",
    "delone_tail_sum",
    "sandwich_check",
    "seq_sum_integral_check",
    "asymptotic_ratio",
]

_HALF = 26  # bits in the low half of a 53-bit mantissa
_MAX_SITES = 1 << _HALF  # keeps every exponent bin below 2^53: exact
_NORMAL_MIN = sys.float_info.min  # 2^-1022, the least normal float


@dataclass(frozen=True)
class CertifiedValue:
    """A number known to lie in [value - err, value + err], err >= 0."""

    value: float
    err: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("certified value must be finite")
        if not (self.err >= 0.0 and math.isfinite(self.err)):
            raise ValueError("certified error must be finite and >= 0")

    @property
    def lo(self) -> float:
        return self.value - self.err

    @property
    def hi(self) -> float:
        return self.value + self.err

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class SandwichResult:
    """Two-sided volume-counting bracket around a measured tail sum.

    ``finite_sum`` is not the bare window sum: it is the centre of the
    certified S(r) interval of ``delone_tail_sum`` (window sum + tail/2),
    and ``tail_err`` is its half-width.  The ``bounds`` report's ``sum`` and
    ``err`` columns are these two fields, and the first value that
    ``asymptotic_ratio`` returns is ``finite_sum`` scaled.
    """

    r: float
    lower: float
    upper: float
    finite_sum: float
    tail_err: float
    holds: bool


@dataclass(frozen=True)
class SeqIntegralReport:
    """Midpoint-rule comparison of sum_{n >= M} f(n) with its integral."""

    M: int
    seq_sum: CertifiedValue
    integral: float
    correction_bound: float
    holds: bool


def integral_tail(alpha: float, d: int, r: float) -> float:
    """Exact tail integral T(alpha, d, r) = r^(d-alpha) / (alpha - d).

    This is integral_r^infinity t^(d-1) * t^(-alpha) dt, the d-dimensional
    radial volume integral of the coupling law; it is finite iff alpha > d.
    """
    if not alpha > d:
        raise ValueError("tail integral diverges unless alpha > d")
    if not alpha < math.inf:
        raise ValueError("alpha must be finite")
    if not r > 0.0:
        raise ValueError("need r > 0")
    t = _pow(r, d - alpha) / (alpha - d)
    if t == math.inf:
        raise ValueError(f"tail integral at alpha = {alpha!r} overflows the "
                         f"float range")
    return t


def _pow(x: float, y: float) -> float:
    """x ** y for floats, inf where it overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _check_normal(alpha: float, *values: float) -> None:
    """Refuse, naming alpha, unless each value is a finite float >= 2^-1022.

    A term or bound that underflows reads 0 or loses its relative
    precision, and the interval built from it could miss the exact sum.
    """
    if not all(_NORMAL_MIN <= v < math.inf for v in values):
        raise ValueError(f"sum at alpha = {alpha!r} leaves the normal float "
                         f"range: a term or bound is below 2^-1022 or "
                         f"overflows")


def _fsum(x: np.ndarray) -> float:
    """``math.fsum`` of the terms: their exact sum, rounded once.

    The sign of an exact zero is in the module docstring.  Refuses
    non-finite terms.
    """
    x = _finite_terms(x)
    total = math.fsum(x.tolist())
    if total == 0.0:
        return -0.0 if x.size and np.signbit(x).all() else 0.0
    return total


def _finite_terms(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot sum non-finite terms")
    return x


def _exact_counted(x: np.ndarray, counts: np.ndarray) -> Fraction:
    """The exact sum of ``counts[i]`` copies of each ``x[i]``, unrounded.

    Steps 1-3 of the module docstring's chain: half mantissas times site
    counts, binned per binary exponent and shifted into one ``int``.
    ``counts`` are non-negative integers totalling at most 2^26 sites;
    temporaries are sized by ``x``.  Refuses non-finite terms and
    out-of-range counts.
    """
    x = _finite_terms(x)
    counts = np.asarray(counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("site counts must be integers")
    # the max is checked first, so the sum cannot wrap
    if counts.size and (counts.min() < 0 or counts.max() > _MAX_SITES
                        or counts.sum() > _MAX_SITES):
        raise ValueError(f"site counts must be >= 0 and total at most "
                         f"2^{_HALF}")
    if not x.size:
        return Fraction(0)
    m, e = np.frexp(x)
    e_min = int(e.min())
    e -= e_min
    width = int(e.max()) + 1
    m *= 2.0 ** (53 - _HALF)  # the integer mantissa over 2^_HALF
    hi = np.trunc(m)
    m -= hi
    m *= 2.0 ** _HALF
    m *= counts
    hi *= counts
    bins = np.zeros(width + _HALF, dtype=np.int64)
    bins[:width] = np.bincount(e, weights=m, minlength=width)
    bins[_HALF:] += np.bincount(e, weights=hi, minlength=width).astype(np.int64)
    nz = np.flatnonzero(bins)
    total = 0
    for shift, v in zip(nz.tolist(), bins[nz].tolist()):
        total += v << shift
    scale = e_min - 53
    return Fraction(total, 1 << -scale) if scale < 0 else Fraction(total << scale)


def _check_tail_exponent(d: int, alpha: float) -> None:
    """Refuse an exponent whose tail sum diverges in dimension d.

    Reads no point set, so the CLI calls it before building one.
    """
    if not alpha > d:  # also refuses nan
        raise ValueError("tail sum diverges unless alpha > d")


def delone_tail_sum(ps: PointSet, radii: DeloneRadii | None, alpha: float,
                    r: float) -> CertifiedValue:
    """Certified S(r) = sum over |p| >= r of |p|^(-alpha).

    The stored points cover |p| <= R_max exactly; the discarded tail
    beyond R_max is bounded by the packing-side volume estimate

        0 <= tail <= 3^d d / r_pack^d * T(alpha, d, R_max - r_pack),

    which is valid because any point of the (unseen) extension lies at
    distance >= 2 r_pack from every other, exactly as inside the window.
    Requires alpha > d and 0 <= r <= R_max.  The window sum powers each
    radius of ``ps.shells(r)`` once, in its stored ascending order, and
    adds it with its site count; pow is elementwise, so each term is the
    per-site one.  Refuses, naming alpha, when the smallest window term or
    the tail bound is not a finite float >= 2^-1022 (``_check_normal``):
    at alpha = 400 in d = 1, S(10) ~ 2e-400 would read 0.

    The value is fl(fl(S) + tail/2), S the exact window sum.  err starts at
    tail/2 and is widened to the least float for which the endpoints, as
    ``CertifiedValue`` computes them in floats, satisfy lo <= S and
    hi >= S + tail (``_outward_err``): rounding the centre and the
    endpoints would otherwise leave lo up to an ulp above S, or hi below
    S + tail.

    ``radii`` is accepted and not read: the packing radius is the set's
    own (``PointSet._r_pack_certified``), so a set that proves none and
    whose meta carries no finite ``r_pack_structural`` > 0 is refused.
    Callers in this package pass ``None``; the argument goes when the
    benchmark's calls drop it.
    """
    d = ps.dim
    _check_tail_exponent(d, alpha)
    if not (0.0 <= r <= ps.region_radius):
        raise ValueError("need 0 <= r <= region_radius")
    rp = ps._r_pack_certified
    rho, cnt = ps.shells(r)
    terms = rho ** (-alpha)
    exact = _exact_counted(terms, cnt)
    finite = float(exact)  # the terms are >= 0: no -0.0 to keep
    tail_cut = ps.region_radius - rp
    if tail_cut <= 0.0:
        raise ValueError("region too small for the packing radius")
    tail = (3.0 ** d) * d / rp ** d * integral_tail(alpha, d, tail_cut)
    # rho ascends, so the last window term is the smallest
    _check_normal(alpha, tail, *terms[-1:])
    # centre the interval on finite + tail/2 so err is half the bracket
    value = finite + 0.5 * tail
    return CertifiedValue(value=value, err=_outward_err(
        value, 0.5 * tail, exact, exact + Fraction(tail)))


def _outward_err(value: float, err: float, lo: Fraction, hi: Fraction) -> float:
    """The least float e >= err with fl(value - e) <= lo, fl(value + e) >= hi.

    A float is >= the rational hi iff it is >= f, hi rounded up, and
    fl(value + e) >= f iff value + e reaches m, the midpoint of f and the
    float below it, or passes m when f has an odd last mantissa bit (a tie
    rounds to the even neighbour).  So e is m - value rounded up to a
    float, or the float after it on such a tie.  lo is the mirror image:
    lo rounded down, the float above it, and value - m.
    """
    least = err
    for end, toward in ((hi, math.inf), (lo, -math.inf)):
        f = _rounded(end, toward)
        m = (Fraction(f) + Fraction(math.nextafter(f, -toward))) / 2
        need = m - Fraction(value) if toward > 0 else Fraction(value) - m
        e = _rounded(need, math.inf)
        if e == need and f / math.ulp(f) % 2:
            e = math.nextafter(e, math.inf)
        least = max(least, e)
    return least


def _rounded(q: Fraction, toward: float) -> float:
    """The rational q rounded to a float toward -inf or +inf."""
    f = float(q)
    n, d = f.as_integer_ratio()
    off = n * q.denominator - q.numerator * d  # the sign of f - q
    if off and (off > 0) == (toward < 0):
        f = math.nextafter(f, toward)
    return f


def _required_r_max(ps: PointSet, alpha: float, target_tail: float) -> float:
    """Window radius making the tail certificate of S(r) <= target_tail.

    Inverts the tail bound of ``delone_tail_sum`` at the same exponent and
    packing radius, so the suggested radius meets the bound that refused.
    """
    d = ps.dim
    rp = ps._r_pack_certified
    # invert tail(R) = 3^d d / rp^d * T(alpha, d, R - rp) = target
    t_int = target_tail * rp ** d / ((3.0 ** d) * d)
    return rp + ((alpha - d) * t_int) ** (1.0 / (d - alpha))


def sandwich_check(ps: PointSet, radii: DeloneRadii, alpha: float,
                   r: float) -> SandwichResult:
    """Check the two-sided tail sandwich at radius r (requires r >= 3 r_cover).

    lower = d/(3^d rc^d) * T(alpha, d, r + rc) with rc = r_cover upper
    estimate, upper = 3^d d/rp^d * T(alpha, d, r - rp) with rp the
    certified packing radius; both must bracket the certified sum
    (including its own tail uncertainty).  ``radii`` is read only for
    ``r_cover_upper``; rp is the set's own.
    """
    d = ps.dim
    rp = ps._r_pack_certified
    rc = radii.r_cover_upper
    if r < 3.0 * rc:
        raise ValueError("sandwich requires r >= 3 * r_cover")
    s = delone_tail_sum(ps, None, alpha, r)
    lower = d / ((3.0 ** d) * rc ** d) * integral_tail(alpha, d, r + rc)
    upper = (3.0 ** d) * d / rp ** d * integral_tail(alpha, d, r - rp)
    holds = (lower <= s.hi) and (s.lo <= upper)
    return SandwichResult(r=float(r), lower=lower, upper=upper,
                          finite_sum=s.value, tail_err=s.err, holds=holds)


def seq_sum_integral_check(alpha: float, M: int) -> SeqIntegralReport:
    """Compare sum_{n >= M} n^(-alpha) with its midpoint integral.

    The midpoint rule on unit cells gives

        sum_{n >= M} n^(-alpha) = integral_{M - 1/2}^infinity t^(-alpha) dt - E,

    where the convexity of f(t) = t^(-alpha) forces 0 <= E and the
    standard cell-wise expansion bounds the total correction by

        E <= (1/24) * integral_{M - 3/2}^infinity f''(t) dt
           = alpha * (M - 3/2)^(-alpha - 1) / 24,

    the f'' integral being evaluated by the same midpoint argument one
    level up.  The sequence side is summed exactly to a cutoff N >= 2M and
    its remainder certified by the *same* identity applied at N + 1, so
    the residual uncertainty is a factor ~2^(alpha+1) below the claimed
    correction bound at every alpha > 1.  As in ``delone_tail_sum``, the
    head is the exact sum of its float terms (``_exact_counted``, each
    count 1), the bracket [head + rem_int - rem_corr, head + rem_int] is
    formed in rationals, and err is rounded outward (``_outward_err``) so
    that both float endpoints hold it.  M is capped at 2^25, which keeps
    the head's M + 1 terms inside the exact-sum range of 2^26 and its
    arrays near 256 MiB; each term and bound must be a normal float
    (``_check_normal``).  ``holds`` records certified containment:
    integral - correction_bound <= seq <= integral.
    """
    if not alpha > 1.0:  # also refuses nan
        raise ValueError("sum diverges unless alpha > 1")
    if not alpha < math.inf:
        raise ValueError("alpha must be finite")
    if not isinstance(M, numbers.Integral):
        raise ValueError("M must be an integer")
    if M < 2:
        raise ValueError("need M >= 2 so the correction bound is usable")
    if M > 1 << 25:
        raise ValueError("need M <= 2^25 so the head sums exactly")
    integral = (M - 0.5) ** (1.0 - alpha) / (alpha - 1.0)
    corr = alpha * _pow(M - 1.5, -alpha - 1.0) / 24.0
    N = max(2 * M, 1000)
    n = np.arange(M, N + 1, dtype=np.float64)
    terms = n ** (-alpha)
    # remainder over n >= N+1 certified recursively: it lies in
    # [tail_integral - corr(N+1), tail_integral]
    rem_int = (N + 0.5) ** (1.0 - alpha) / (alpha - 1.0)
    rem_corr = alpha * (N - 0.5) ** (-alpha - 1.0) / 24.0
    _check_normal(alpha, terms[-1], corr, rem_corr)
    head = _exact_counted(terms, np.ones(n.size, dtype=np.int64))
    hi = head + Fraction(rem_int)
    lo = hi - Fraction(rem_corr)
    value = float((lo + hi) / 2)
    seq = CertifiedValue(value=value, err=_outward_err(
        value, 0.5 * rem_corr, lo, hi))
    holds = (integral - corr <= seq.lo) and (seq.hi <= integral)
    return SeqIntegralReport(M=int(M), seq_sum=seq, integral=integral,
                             correction_bound=corr, holds=holds)


def asymptotic_ratio(ps: PointSet, radii: DeloneRadii, alpha: float,
                     r: float) -> tuple[float, CertifiedValue]:
    """Scaled tail r^(alpha-d) * S(r) with its certified two-sided window.

    The sandwich of ``sandwich_check`` (same radii, same refusals) scaled by
    r^(alpha-d) is the r-dependent bracket

        d/(3^d rc^d (alpha-d)) * (1 + rc/r)^(d-alpha)
            <= r^(alpha-d) S(r) <=
        3^d d/(rp^d (alpha-d)) * (1 - rp/r)^(d-alpha),

    which pinches (per set) as r grows; the first return value is the
    measured ratio (r^(alpha-d) times the centre of the certified S(r)
    interval), the second the certified window as a CertifiedValue
    centred on the bracket and containing it exactly.  Rounding: with
    u = 2^-53 and e = alpha - d (exact in floats, as 0 < d < alpha), each
    endpoint carries at most 12 u from its own roundings (pow within 1 ulp)
    plus 2e u (twice the first-order e u) from rounding r + rc or r - rp
    before the power -e; centring and reading ``lo``/``hi`` back cost at
    most 4 u * hi, so ``err`` is padded by (16 + 2e) u * hi.
    """
    res = sandwich_check(ps, radii, alpha, r)
    e = alpha - ps.dim
    scale = r ** e
    lo, hi = scale * res.lower, scale * res.upper
    pad = (16.0 + 2.0 * e) * 2.0 ** -53 * hi
    window = CertifiedValue(value=0.5 * (lo + hi), err=0.5 * (hi - lo) + pad)
    return scale * res.finite_sum, window
