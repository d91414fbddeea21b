"""Ramsey dephasing profile of a central spin with certified truncation error.

Purpose
-------
For an inverse-power coupling A(rho) = rho^(-alpha) on a Delone bath, the
free-induction (Ramsey) envelope after rescaling time by the normalization
sqrt(S2), S2 = sum_{rho >= r} A(rho)^2, is the cosine product

    C_r(t) = prod_{rho >= r} cos(A(rho) t / sqrt(S2)).

A run only sees the points inside the window |p| <= R_max; every value is
reported together with a certificate err(t) that bounds its distance from
C_r(t) (see the error chain below).  The three structural results checked
here are compact convergence to the Gaussian with the explicit
(t^4/12) S4/S2^2 rate, the stretched-exponential decay envelope
exp(-k t^(d/alpha)), and uniform convergence of the sup-distance to the
Gaussian as the inner cutoff r grows.

Conventions
-----------
Values are products over the stored points with r <= |p| <= R_max, with
normalized arguments u t, u = rho^(-alpha) / sqrt(S2) at the certified
S2's central value.  The unique radii split at the argument bound
X0 = 0.25: a site is *far* when u max|t| <= X0 and *near* otherwise.  Far
sites enter only through the even moments P_2k = sum_far count u^(2k),
k = 1..K+1 with K = 8, summed once per call; only the near sites call cos,
at each time:

    log C(t) = sum_near count log|cos(u t)| - F(t) - R_K(t),
    F(t)     = sum_{k <= K} c_k t^(2k) P_2k,

where c_k = (4^k - 1) zeta(2k) / (k pi^(2k)) = 1/2, 1/12, 1/45, 17/2520, ...
are the Taylor coefficients of -log cos x = sum_k c_k x^(2k) (DLMF 4.19).
Far factors are positive, so the sign of C(t) is that of the near factors.
Evaluation is serial and vectorised: it runs on the unique values of |t|
and scatters back, so value(-t) equals value(t) bit for bit.

Error chain.  By the triangle inequality over the three steps below,
|value(t) - C_r(t)| <= err(t) = min(2, W(t) + Rbar(t) + E(t)), two being
the trivial bound for numbers in [-1, 1]; each term is 0 at t = 0 and
nondecreasing in |t|.

1. Window truncation, W(t) = expm1(t^2 s).  With s the certified bound on
   the dropped part of the normalized square sum, every dropped argument is
   < 1 (enforced) and -log cos x <= x^2 there, so the window product lies
   within W(t) of C_r(t).
2. Series remainder, Rbar(t).  Every c_k > 0 and c_{k+1}/c_k < 4/pi^2
   (with slack, which absorbs the rounding of the test u max|t| <= X0: the
   ratio is below (4 + 3/(4^k - 1)) k / ((k + 1) pi^2)), so for 0 <= x <= X0 the terms beyond K sum to at most
   c_{K+1} x^(2K+2) / (1 - 4 X0^2/pi^2).  Summed over the far sites,
   0 <= R_K(t) <= Rbar(t) = c_{K+1} t^(2K+2) P_{2K+2} / (1 - 4 X0^2/pi^2).
   As |near product| <= 1 and |e^(-a) - e^(-a-b)| <= b for a, b >= 0,
   dropping R_K moves the value by at most Rbar(t).
3. Rounding of the series, E(t) = expm1(2 gamma_n (F^(t) + Rbar(t))).
   The far part is evaluated in the scaled variables x = u max|t| and
   (t / max|t|)^2, both in [0, 1], so nothing overflows.  Every operand is
   nonnegative, so the computed F^ obeys |F^ - F| <= gamma_n F with
   gamma_n = n eps / (1 - n eps), where n = n_far + 8K + 16 counts every
   rounding on the path of one term: the n_far-term np.sum, the scaled
   powers, c_k and Horner's multiply-adds.  Doubling covers F <= F^ / (1 -
   gamma_n) and the rounding of Rbar and of the bound itself; a shift d in
   the exponent moves a value of modulus <= 1 by at most expm1(|d|).

Left outside err: the rounding of the near arguments u t and the libm
error of cos, log and the final exp, of order (1 + u|t|) eps per near site
on the value scale, and underflow in the scaled powers, which shifts F by
less than 2^-1073 per far site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (CertifiedValue, _gamma, _pow, _required_r_max,
                     delone_tail_sum)
from .pointsets import DeloneRadii, PointSet

__all__ = [
    "RamseyProfile",
    "GaussianDiag",
    "UniformScanReport",
    "evaluate_profile",
    "gaussian_sup_distance",
    "compact_bound_check",
    "decay_envelope_check",
    "calibrate_envelope",
    "uniform_convergence_scan",
    "fit_gaussian",
    "bloch_evolution",
]

# the near/far split: a site is far when its largest argument is <= _X0
_X0 = 0.25
_K = 8
# c_k = (4^k - 1) zeta(2k) / (k pi^(2k)) for k = 1..K+1, each a correctly
# rounded quotient of the exact rational
_LOGCOS = np.array([1 / 2, 1 / 12, 1 / 45, 17 / 2520, 31 / 14175,
                    691 / 935550, 10922 / 42567525, 929569 / 10216206000,
                    3202291 / 97692469875])
_REMAINDER_FACTOR = 1.0 / (1.0 - 4.0 * _X0 * _X0 / math.pi ** 2)
# cap on the window exponent t^2 s before expm1: expm1(2) > 2, so the
# clamped err is unchanged and expm1 cannot overflow
_W_CAP = 2.0
# elements of one (times x near sites) block of cosines
_BLOCK = 1 << 18


@dataclass(frozen=True)
class RamseyProfile:
    """Evaluated dephasing profile with per-value truncation certificates."""

    r: float
    times: np.ndarray
    values: np.ndarray
    err: np.ndarray
    s2: CertifiedValue
    s4: CertifiedValue
    dim: int
    alpha: float

    def __post_init__(self) -> None:
        for name in ("times", "values", "err"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.times.ndim == 1
                and self.times.shape == self.values.shape == self.err.shape):
            raise ValueError("times/values/err must be 1-D arrays of equal length")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly ascending")
        if not np.all(np.abs(self.values) <= 1.0):
            raise ValueError("|C(t)| <= 1 violated")
        if not np.all(self.err >= 0.0):
            raise ValueError("err must be nonnegative")

    @property
    def gaussian(self) -> np.ndarray:
        """Reference curve exp(-t^2/2) on the profile's grid."""
        return np.exp(-0.5 * self.times ** 2)


@dataclass(frozen=True)
class GaussianDiag:
    """Pointwise compact-bound diagnostic against exp(-t^2/2)."""

    bound_rhs: np.ndarray = field(repr=False)
    envelope_ok: bool


@dataclass(frozen=True)
class UniformScanReport:
    """sup-distances along an ascending ladder of inner cutoffs.

    Iterates as a sequence of (r, sup_dist) pairs; ``non_increasing`` allows
    slack 2*tol between consecutive entries.
    """

    entries: tuple[tuple[float, float], ...]
    non_increasing: bool

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _far_series(u: np.ndarray, counts: np.ndarray, at: np.ndarray,
                t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """F(t) over the far sites on the grid ``at``, and the bound Rbar + E.

    Rbar and E are items 2 and 3 of the module's error chain; ``at`` holds
    times in [0, t_max] and every far site has u * t_max <= X0.
    """
    scale = t_max or 1.0
    w = (u * scale) ** 2
    power = counts.astype(np.float64)
    moments = np.empty(_K + 1)
    for k in range(_K + 1):
        power = power * w
        moments[k] = np.sum(power)
    s = (at / scale) ** 2
    f = np.zeros_like(s)
    for k in range(_K - 1, -1, -1):
        f = (f + _LOGCOS[k] * moments[k]) * s
    s_top = s
    for _ in range(_K):
        s_top = s_top * s
    r_bar = _LOGCOS[_K] * moments[_K] * _REMAINDER_FACTOR * s_top
    gamma = _gamma(u.size + 8 * _K + 16)
    return f, r_bar + np.expm1(2.0 * gamma * (f + r_bar))


def _near_product(u: np.ndarray, counts: np.ndarray, at: np.ndarray,
                  log_far: np.ndarray) -> np.ndarray:
    """sign * exp(sum_near count log|cos(u t)| - log_far) on the grid ``at``.

    Rows go through blocks of at most _BLOCK cosines, so a set with many
    near sites never holds the whole (times x near) matrix.
    """
    out = np.empty(at.size)
    odd = (counts & 1).astype(bool)
    weight = counts.astype(np.float64)
    rows = max(1, _BLOCK // max(1, u.size))
    for i in range(0, at.size, rows):
        c = np.cos(np.outer(at[i:i + rows], u))
        neg = np.count_nonzero((c < 0.0) & odd, axis=1) & 1
        with np.errstate(divide="ignore"):
            log_mag = np.sum(np.log(np.abs(c)) * weight, axis=1)
        mag = np.exp(log_mag - log_far[i:i + rows])
        out[i:i + rows] = np.where(neg == 1, -mag, mag)
    return out


def _check_profile_args(d: int, alpha: float, tol: float) -> None:
    """Refuse a coupling exponent or tolerance that no profile takes in d.

    Reads no point set, so the CLI calls it before building one.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if not 2.0 * alpha > d:
        raise ValueError("normalization diverges unless 2*alpha > dim")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")


def _window_need(relation: str, need: float) -> str:
    """The window radius a refusal asks for; inf means no finite window."""
    if need < math.inf:
        return f"need region_radius {relation} {need:.6g}"
    return "no finite region_radius meets it"


def evaluate_profile(ps: PointSet, radii: DeloneRadii | None, alpha: float,
                     r: float, times: np.ndarray, tol: float) -> RamseyProfile:
    """Evaluate C_r on a time grid with certified error.

    value(t) is the cosine product over the (radius, count) pairs of
    ``ps.shells(r)``, the stored points with r <= |p| <= region_radius, with
    arguments rho^(-alpha) * t / sqrt(S2) at the certified S2's central value;
    far sites (largest argument <= X0) enter through their even moments.
    err(t) bounds the window truncation, the series remainder and the series
    rounding, clamped to [0, 2]; the module docstring states the chain and
    what it leaves out.  The window term W is evaluated once, on the unique
    |t|, and needs every dropped argument < 1 at max |t| (enforced).  Raises
    if a dropped argument reaches 1, or if W at max |t|, the value err
    carries, clamped at 2, exceeds ``tol``; either refusal reports the
    window radius that would achieve it, or that no finite one does.

    ``radii`` is accepted and not read, as in ``delone_tail_sum``: the tail
    sums take the set's own packing radius.  Callers in this package pass
    ``None``; the argument goes when the benchmark's calls drop it.
    """
    _check_profile_args(ps.dim, alpha, tol)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty finite 1-D grid")
    s2 = delone_tail_sum(ps, None, 2 * alpha, r)
    s4 = delone_tail_sum(ps, None, 4 * alpha, r)
    lam = 1.0 / math.sqrt(s2.value)
    at, inv = np.unique(np.abs(times), return_inverse=True)
    t_max = float(at[-1])

    # certificate validity: the largest dropped argument must stay below 1
    if t_max * lam * ps.region_radius ** (-alpha) >= 1.0:
        need = _pow(t_max * lam, 1.0 / alpha)
        raise ValueError(
            f"dropped cosine arguments reach 1 at t={t_max:g}; "
            f"{_window_need('>', need)}")
    s_tail = 2.0 * s2.err / s2.value  # bound on the dropped normalized square sum
    window = np.expm1(np.minimum(at ** 2 * s_tail, _W_CAP))
    err_at_max = min(2.0, float(window[-1]))
    if err_at_max > tol:
        tail_target = math.log1p(tol) * s2.value / (t_max * t_max)
        need = _required_r_max(ps, 2 * alpha, tail_target)
        raise ValueError(
            f"truncation certificate {err_at_max:.3g} exceeds tol={tol:g} "
            f"at t={t_max:g}; {_window_need('>=', need)}")

    u_radii, counts = ps.shells(r)
    u = u_radii ** (-alpha) * lam
    far = u * t_max <= _X0
    log_far, far_err = _far_series(u[far], counts[far], at, t_max)
    values = _near_product(u[~far], counts[~far], at, log_far)
    err = np.minimum(2.0, window + far_err)
    return RamseyProfile(r=float(r), times=times, values=values[inv], err=err[inv],
                         s2=s2, s4=s4, dim=ps.dim, alpha=float(alpha))


def gaussian_sup_distance(profile: RamseyProfile) -> float:
    """Grid sup of |C(t) - exp(-t^2/2)| (a lower bound for the true sup)."""
    return float(np.max(np.abs(profile.values - profile.gaussian)))


def compact_bound_check(profile: RamseyProfile) -> GaussianDiag:
    """Check |C(t) - exp(-t^2/2)| <= (t^4/12) S4/S2^2 + err(t) pointwise.

    The right-hand side uses the worst certified corner (s4.value + s4.err)
    / (s2.value - s2.err)^2, so a pass means the Gaussian-comparison bound
    is consistent with every value the certificates allow.  Refuses a
    profile whose S2 interval reaches 0: S4/S2^2 then has no finite bound.
    """
    s2_lo = profile.s2.lo
    if not s2_lo > 0.0:
        raise ValueError(f"S2's certified lower end {s2_lo:.6g} is not > 0: "
                         f"S4/S2^2 has no finite bound")
    t = profile.times
    lhs = np.abs(profile.values - profile.gaussian)
    ratio = profile.s4.hi / s2_lo ** 2
    rhs = t ** 4 / 12.0 * ratio
    ok = bool(np.all(lhs <= rhs + profile.err))
    return GaussianDiag(bound_rhs=rhs, envelope_ok=ok)


def decay_envelope_check(profile: RamseyProfile, k: float, T: float) -> bool:
    """True iff |C(t)| <= exp(-k t^(d/alpha)) + err(t) for every grid t >= T."""
    if not (k > 0.0 and T > 0.0):
        raise ValueError("need k > 0 and T > 0")
    sel = profile.times >= T
    if not sel.any():
        raise ValueError("grid does not extend beyond T")
    t = profile.times[sel]
    bound = np.exp(-k * t ** (profile.dim / profile.alpha)) + profile.err[sel]
    return bool(np.all(np.abs(profile.values[sel]) <= bound))


def calibrate_envelope(profile: RamseyProfile, T: float) -> float:
    """Envelope rate k = 0.9 * min_{grid t >= T} -log(|C(t)| + err(t)) / t^(d/alpha).

    Near-zero values push the numerator to +inf and drop out of the min;
    the calibration fails only where the envelope has not started to decay,
    i.e. some |value| + err >= 1 beyond T.
    """
    sel = profile.times >= T
    if int(sel.sum()) < 100:
        raise ValueError("need at least 100 grid points beyond T")
    t = profile.times[sel]
    mag = np.abs(profile.values[sel]) + profile.err[sel]
    if np.any(mag >= 1.0):
        raise ValueError(f"envelope not yet decaying at T={T:g}: "
                         f"|value| + err reaches {float(mag.max()):.6g}")
    with np.errstate(divide="ignore"):
        rate = -np.log(mag) / t ** (profile.dim / profile.alpha)
    return 0.9 * float(rate.min())


def uniform_convergence_scan(ps: PointSet, alpha: float, r_list,
                             times: np.ndarray, tol: float) -> UniformScanReport:
    """sup-distance to the Gaussian along an ascending ladder of cutoffs."""
    r_list = [float(r) for r in r_list]
    if not r_list or any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be nonempty and strictly ascending")
    entries = []
    for r in r_list:
        prof = evaluate_profile(ps, None, alpha, r, times, tol)
        entries.append((r, gaussian_sup_distance(prof)))
    sups = [s for _, s in entries]
    non_inc = all(b <= a + 2.0 * tol for a, b in zip(sups, sups[1:]))
    return UniformScanReport(entries=tuple(entries), non_increasing=non_inc)


def fit_gaussian(profile: RamseyProfile) -> float:
    """Least-squares sigma for exp(-t^2/(2 sigma^2)) through the profile.

    Fits beta = 1/(2 sigma^2) by Newton iteration on the scalar normal
    equation, restricted to grid points with value > 0.05 (the shoulder of
    the curve, where the model is informative).
    """
    t_all, v_all = profile.times, profile.values
    if int((np.abs(t_all) <= 3.0).sum()) < 5:
        raise ValueError("need at least 5 grid points with |t| <= 3")
    sel = v_all > 0.05
    if not sel.any():
        raise ValueError("no values above 0.05 to fit")
    t2 = t_all[sel] ** 2
    v = v_all[sel]
    w = t2 ** 2
    beta = float((t2 * -np.log(v)).sum() / w.sum()) if w.sum() > 0 else 0.5
    beta = max(beta, 1e-12)
    for _ in range(100):
        g = np.exp(-beta * t2)
        resid = v - g
        grad = float((resid * t2 * g).sum())             # dF/dbeta / 2
        hess = float((t2 ** 2 * g * (g - resid)).sum())  # d2F/dbeta2 / 2
        if hess <= 0.0:
            break
        beta_new = beta - grad / hess
        if beta_new <= 0.0:
            beta_new = beta / 2.0
        if abs(beta_new - beta) <= 1e-15 * max(1.0, beta):
            beta = beta_new
            break
        beta = beta_new
    if not beta > 0.0:
        raise ValueError("fit did not converge to a positive width")
    return 1.0 / math.sqrt(2.0 * beta)


def bloch_evolution(profile: RamseyProfile, v0) -> np.ndarray:
    """Transverse dephasing of a Bloch vector: rows (C v0_x, C v0_y, v0_z)."""
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.shape != (3,):
        raise ValueError("v0 must be a 3-vector")
    if not np.linalg.norm(v0) <= 1.0 + 1e-12:
        raise ValueError("|v0| must be <= 1")
    out = np.empty((profile.times.size, 3), dtype=np.float64)
    out[:, 0] = profile.values * v0[0]
    out[:, 1] = profile.values * v0[1]
    out[:, 2] = v0[2]
    return out
