"""Finite realizations of Delone point sets in R^d and radial queries.

Purpose
-------
A spin bath occupies a Delone set: a point set that is uniformly discrete
(some packing radius r_pack > 0 — no open ball of that radius holds two
points) and relatively dense (some covering radius r_cover < oo — every
closed ball of that radius holds a point).  The central spin sits at the
origin, which is therefore excluded from every generated set.  All lattice
sums downstream are taken over the radial distances rho = |p| of these
points, so this module is organized around three things:

* generators that produce *complete* truncations — every point of the
  underlying infinite set with |p| <= region_radius is present — for the
  integer lattice, a jittered lattice, and maximal hard-core (Poisson-disk)
  sampling;
* empirical measurement of the two Delone constants (r_pack, r_cover), the
  covering radius by rigorous branch-and-bound probing of the 1-Lipschitz
  distance-to-set function; a generator passes what it proves to the
  ``PointSet`` constructor (a lattice: r_pack 1/2 and r_cover sqrt(d)/2,
  read, margin allowing, with no search; in d = 1 at every margin);
* radial annulus counting together with the volume-argument count bounds

      (b/r_cover - 1)^d - (a/r_cover + 1)^d  <=  N(a, b)
                                             <=  (b/r_pack + 1)^d - (a/r_pack - 1)^d

  for the number N(a, b) of points with a <= |p| <= b (lower bound clamped
  at zero).

Conventions
-----------
Annuli are closed on both ends; generators never emit the origin; all
generation is deterministic in (parameters, seed) via counter-based
randomness keyed on structured indices, so enlarging the region never
reshuffles the points that were already there.

A set is read-only, and only its constructor writes it.  A lattice holds
its shells: ``gen_lattice`` passes the radial shells of Z^d and their site
counts r_d(n), the coefficients of theta_3(q)^d, and its rows (``points``
and ``radii``) are built only when first read: the sums, profiles, counts
and radii read the shells alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from ._rng import counter_uniform

__all__ = [
    "PointSet",
    "DeloneRadii",
    "AnnulusBoundsReport",
    "gen_lattice",
    "gen_jittered",
    "gen_poisson_disk",
    "insertable_probes",
    "measure_radii",
    "count_annulus",
    "check_annulus_bounds",
]

_DIMS = (1, 2, 3)
# probes per KD query of the fill sweep and of insertable_probes, and per
# d = 1 chunk of _probe_lattice: a batch bounds the probes, distances and
# indices held at once, so the sweep does not set the generator's peak
# memory, and is large enough that few queries pay for starting the KD
# tree's threads, which every query does (a query per d = 2 slab took 4x
# the time)
_PROBE_BATCH = 1 << 18
# 2^-1022, the least normal float: a squared length here, or a tail-sum
# term or bound in ``bounds``, below it loses its relative precision or
# reads 0
_NORMAL_MIN = sys.float_info.min
_NORMAL_RANGE = "[2^-1022, 2^1024)"


def _nearest(points: np.ndarray) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """``query(q, k=1) -> (dist, index)``, the k nearest of ``points`` to q.

    The KD tree is built once and every query runs on every core.  scipy is
    imported here, on the first KD query, not with the package: it is most
    of ``import centralspin``, and a run that queries no tree (spectra,
    basis, every radius in d = 1) never needs it.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    return lambda q, k=1: tree.query(q, k=k, workers=-1)


def _cartesian(values: np.ndarray, d: int) -> np.ndarray:
    """Rows of values^d in lexicographic order (the last axis varies fastest)."""
    return np.stack(np.meshgrid(*([values] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def _check_dim(d: int) -> None:
    if d not in _DIMS:
        raise ValueError(f"dimension must be one of {_DIMS}, got {d!r}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class PointSet:
    """Finite truncation of a Delone set inside the ball |p| <= region_radius.

    Invariants enforced at construction: every point satisfies
    0 < |p| <= region_radius (the origin hosts the central spin and is never
    a bath site), its squared norm is a normal float (a nonzero row whose
    squared norm is subnormal, 0 or infinite is refused: its norm would
    lose its precision, read 0 or overflow), and there are no duplicate
    rows.  For generated kinds the set contains *all* points of the
    underlying infinite set inside the ball; ``meta`` records the generator
    and its parameters, including the structural packing-radius
    certificate ``r_pack_structural`` that the tail-bound machinery relies
    on.  ``radii`` holds the radial distances rho = |p|, the norms taken
    once to validate the set.

    The constructor is the only code that writes a set: the set, its
    arrays and its ``meta`` (a read-only mapping over a copy) are
    read-only.  A generator passes what it proves as private keywords:
    ``_r_pack``, the certified packing radius; ``_r_cover``, the covering
    radius of the infinite set (None: not proved); and, from
    ``gen_lattice`` only, ``_shells``, its (radius, count) shells, and
    ``_gap``, its measured packing radius, in place of rows.  Any other
    set, a copy of a generated one included, proves nothing and is
    measured once.

    A set given shells and no rows builds ``points`` and ``radii`` on
    their first read, from ``_probe_lattice(d, region_radius, 1, 1)``, in
    that enumeration's lexicographic order.
    """

    def __init__(self, dim: int, points: Any, region_radius: float,
                 meta: Mapping[str, Any] | None = None, *,
                 _r_pack: float | None = None, _r_cover: float | None = None,
                 _shells: tuple[np.ndarray, np.ndarray] | None = None,
                 _gap: float | None = None) -> None:
        _check_dim(dim)
        if not 0 < region_radius < math.inf:
            raise ValueError("region_radius must be positive and finite")
        state = {"dim": dim, "region_radius": region_radius,
                 "meta": MappingProxyType(dict(meta or {})),
                 "_r_pack": _r_pack, "_r_cover": _r_cover}
        if _shells is not None:
            state["_shell_index"] = tuple(map(_frozen, _shells))
            state["n_points"] = int(_shells[1].sum())
        else:
            pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
            if pts.ndim != 2 or pts.shape[1] != dim:
                raise ValueError(f"points must have shape (n, {dim}), got {pts.shape}")
            if not np.isfinite(pts).all():
                raise ValueError("points must be finite")
            with np.errstate(over="ignore"):  # refused just below
                sq = (pts * pts).sum(axis=1)  # the squares np.linalg.norm sums
            off = ~((sq >= _NORMAL_MIN) & (sq < math.inf))
            if off.any():
                if pts[off].any():
                    raise ValueError(f"a point's squared norm leaves the normal "
                                     f"float range {_NORMAL_RANGE}: its norm "
                                     f"would underflow or overflow")
                raise ValueError("the origin (central spin site) cannot be a bath point")
            norms = np.sqrt(sq)
            if pts.shape[0] and norms.max() > region_radius:
                raise ValueError("all points must satisfy |p| <= region_radius")
            # equal rows sort next to each other; float equality, so -0.0 and
            # 0.0 are the same coordinate
            srt = pts[np.lexsort(pts.T[::-1])]
            if (srt[1:] == srt[:-1]).all(axis=1).any():
                raise ValueError("duplicate points are not allowed")
            state.update(points=_frozen(pts), radii=_frozen(norms),
                         n_points=pts.shape[0])
        if _gap is not None:
            state["_r_pack_measured"] = _gap
        vars(self).update(state)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"PointSet is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PointSet is read-only: cannot delete {name!r}")

    @cached_property
    def points(self) -> np.ndarray:
        # reached only by a set given shells and no rows
        return _frozen(np.concatenate(tuple(
            _probe_lattice(self.dim, self.region_radius, 1.0, 1.0))))

    @cached_property
    def radii(self) -> np.ndarray:
        # reached only by a set given shells and no rows
        return _frozen(np.linalg.norm(self.points, axis=1))

    @cached_property
    def _shell_index(self) -> tuple[np.ndarray, np.ndarray]:
        rho, cnt = np.unique(self.radii, return_counts=True)
        return _frozen(rho), _frozen(cnt)

    def shells(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Distinct radii >= r (closed at r), ascending, and their site counts.

        Read-only views of one cached ``np.unique(radii, return_counts=True)``;
        a lattice's are ``gen_lattice``'s, the same arrays.
        """
        rho, cnt = self._shell_index
        i = int(np.searchsorted(rho, r, side="left"))
        return rho[i:], cnt[i:]

    @cached_property
    def _sorted_line(self) -> np.ndarray:
        """The coordinates of a d = 1 set in ascending order (read-only), one
        sort shared by the packing and covering measurements."""
        return _frozen(np.sort(self.points.ravel()))

    @cached_property
    def _r_pack_measured(self) -> float:
        """Half the minimum pairwise distance over every stored point.

        Neighbour gaps of ``_sorted_line`` in d = 1, one KD query with k = 2
        in d >= 2; +inf for a set of fewer than 2 points.  ``measure_radii``
        reports it as ``r_pack``; a lattice starts with the value
        ``gen_lattice`` passes as ``_gap``.
        """
        if self.n_points < 2:
            return math.inf
        if self.dim == 1:
            return float(np.diff(self._sorted_line).min()) / 2.0
        nn_dist, _ = _nearest(self.points)(self.points, k=2)
        return float(nn_dist[:, 1].min()) / 2.0

    @cached_property
    def _r_pack_certified(self) -> float:
        """The packing radius of upper bounds: ``_r_pack`` when the generator
        proved it, else min(structural, measured).

        The measured r_pack covers every stored point, but the tail bounds
        also count sites beyond region_radius, where only the generator's
        ``r_pack_structural`` holds, so a set whose meta carries none, or
        one that is not a finite float > 0, is refused.  The measurement is
        the one ``measure_radii`` reports (+inf below 2 points).
        """
        if self._r_pack is not None:
            return self._r_pack
        if self.meta.get("r_pack_structural") is None:
            raise ValueError("point set meta carries no structural packing "
                             "radius (r_pack_structural)")
        structural = float(self.meta["r_pack_structural"])
        if not (math.isfinite(structural) and structural > 0.0):
            raise ValueError("r_pack_structural must be finite and > 0, got "
                             f"{structural!r}")
        return min(structural, self._r_pack_measured)


@dataclass(frozen=True)
class DeloneRadii:
    """Empirical Delone constants of a PointSet.

    ``r_pack`` is half the minimum pairwise distance over every stored
    point, the whole window — exact for the sample.  ``r_cover`` is the
    largest distance-to-nearest-site found by probing the covering domain
    (the window shrunk by ``measure_radii``'s margin, which shapes nothing
    else); the true supremum over it lies in [r_cover, r_cover +
    probe_resolution].  Consumers needing a conservative covering radius
    use ``r_cover_upper``.
    """

    r_pack: float
    r_cover: float
    probe_resolution: float = 0.0

    def __post_init__(self) -> None:
        if not (self.r_pack > 0 and math.isfinite(self.r_pack)):
            raise ValueError("r_pack must be positive and finite")
        if not (self.r_cover > 0 and math.isfinite(self.r_cover)):
            raise ValueError("r_cover must be positive and finite")
        if not (self.probe_resolution >= 0
                and math.isfinite(self.probe_resolution)):
            raise ValueError("probe_resolution must be finite and >= 0")

    @property
    def r_cover_upper(self) -> float:
        return self.r_cover + self.probe_resolution


@dataclass(frozen=True)
class AnnulusBoundsReport:
    """Result of checking the annulus site-count sandwich."""

    a: float
    b: float
    n_sites: int
    lower: float
    upper: float
    holds: bool


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_lattice(d: int, R_max: float) -> PointSet:
    """All points of Z^d \\ {0} with |p| <= R_max.

    The integer lattice has packing radius 1/2 (unit minimum spacing) and
    covering radius sqrt(d)/2, the distance from a cell centre, a deep
    hole, to its corners (Conway and Sloane, *Sphere Packings, Lattices
    and Groups*, ch. 2).

    The set is built as its shells, not its rows.  Its sites are the rows
    of ``_probe_lattice(d, R_max, 1, 1)``: every z != 0 with |z_k| <= m =
    floor(R_max) and z.z <= fl(R_max^2).  Shell sqrt(n) holds r_d(n) of
    them, the coefficient of q^n in theta_3(q)^d = (sum_k q^(k^2))^d
    (Grosswald, *Representations of Integers as Sums of Squares*, 1985):
    in d = 1, 2 sites at each k = 1..m; in d >= 2, ``np.bincount`` of the
    sums of squares n <= fl(R_max^2) of the z >= 0 with z_k <= m, each
    weighted by its 2^(nonzero coordinates) sign copies (sums of small
    integers, exact in floats).  A shell's radius is fl(sqrt(n)), what
    ``np.linalg.norm`` gives an integer row (its sum of squares is exact),
    and distinct n < 2^51 round to distinct radii, so the shells are
    ``np.unique`` of the rows' norms and counts, bit for bit.  The rows
    are built when first read (see ``PointSet``).

    The set is constructed from what it proves, so none reads a row: its
    shells, packing radius 1/2 (``_r_pack``), covering radius sqrt(d)/2
    (``_r_cover``) and, where no row is needed for it, the measured packing
    radius (``_gap``).  Distinct integer rows lie >= 1 apart, and with more
    than 2d sites e_1 and e_1 + e_2 (1 and 2 in d = 1) are sites, as only
    +-e_k have z.z = 1: the measured radius is 1/2, the KD query's float
    sqrt(1.0) / 2 and the gap's 1.0 / 2.  The d = 1 pair -1, 1 measures
    1.0; the 2d sites +-e_k in d >= 2 take the query.  So the certified
    radius min(1/2, measured) is 1/2 bit for bit.
    """
    _check_dim(d)
    if not 1 <= R_max < math.inf:
        raise ValueError("R_max must be finite and >= 1 (below 1 the ball "
                         "contains no lattice point)")
    R = float(R_max)
    m = math.floor(R)
    if d == 1:
        rho = np.arange(1, m + 1, dtype=np.float64)
        cnt = np.full(m, 2, dtype=np.intp)
    else:
        n_max = math.floor(R * R)
        sq = np.arange(m + 1, dtype=np.int64) ** 2
        w = np.where(sq > 0, 2.0, 1.0)
        n, wt = sq, w
        for _ in range(d - 1):
            n, wt = (n[:, None] + sq).ravel(), (wt[:, None] * w).ravel()
            keep = n <= n_max
            n, wt = n[keep], wt[keep]
        r_d = np.bincount(n, weights=wt).astype(np.intp)
        shell = np.flatnonzero(r_d[1:]) + 1
        rho, cnt = np.sqrt(shell.astype(np.float64)), r_d[shell]
    meta = {"kind": "lattice", "dim": d, "R_max": R, "r_pack_structural": 0.5}
    gap = 0.5 if cnt.sum() > 2 * d else 1.0 if d == 1 else None
    return PointSet(d, None, R, meta, _r_pack=0.5, _r_cover=math.sqrt(d) / 2.0,
                    _shells=(rho, cnt), _gap=gap)


def gen_jittered(d: int, R_max: float, jitter: float, seed: int) -> PointSet:
    """Integer lattice with i.i.d. uniform offsets in [-jitter, jitter]^d.

    Each lattice point z gets an offset keyed on (seed, z), so growing the
    region never reshuffles earlier points.  Candidates are enumerated out to
    |z| <= R_max + max(0.5, jitter*sqrt(d)) — far enough that no point of the
    infinite jittered set with |p| <= R_max can be missed — then filtered to
    the ball.  Any two jittered points are at least 1 - 2*jitter apart (a
    nonzero integer axis gap shrinks by at most 2*jitter), which is the
    structural packing certificate recorded in meta.

    That radius is passed as the certified one (``_r_pack``) when the
    float rows prove it.  The anchors z are distinct, as enumerated, and
    eta = max |p - z| over the kept rows is exact in floats.  Rows with
    anchors a != b differ by >= 1 - 2 eta in a coordinate where a and b
    differ; rounding is
    monotone, so the measurement forms a difference >= c = fl(1 - 2 eta)
    there, a sum of squares >= fl(c * c), and sqrt(fl(c * c)) = c in
    binary64.  So if structural <= c / 2, min(structural, measured) is
    structural bit for bit.  A row fl(z + o) can land just past z +-
    jitter; then none is passed, and the set is measured.
    """
    _check_dim(d)
    if not 1 <= R_max < math.inf:
        raise ValueError("R_max must be finite and >= 1")
    if not (0 <= jitter < 0.5):
        raise ValueError("jitter must satisfy 0 <= jitter < 0.5")
    reach = max(0.5, jitter * math.sqrt(d))
    pts = np.concatenate(tuple(_probe_lattice(d, R_max + reach, 1.0, 1.0)))
    z = pts.astype(np.int64)
    for axis in range(d):
        u = counter_uniform(seed, *(z[:, k] for k in range(d)), np.int64(axis))
        pts[:, axis] += u * (2.0 * jitter) - jitter
    keep = (pts ** 2).sum(axis=1) <= R_max * R_max
    pts, z = pts[keep], z[keep]
    structural = (1.0 - 2.0 * jitter) / 2.0
    meta = {"kind": "jittered", "dim": d, "R_max": float(R_max),
            "jitter": float(jitter), "seed": int(seed),
            "r_pack_structural": structural}
    eta = float(np.abs(pts - z).max(initial=0.0))
    proved = structural <= (1.0 - 2.0 * eta) / 2.0
    return PointSet(d, pts, float(R_max), meta,
                    _r_pack=structural if proved else None)


def _cell_offsets(d: int, nc: int, strides: np.ndarray) -> np.ndarray:
    """Flat-index offsets of cells that can hold a conflicting point.

    Starts from the (2*nc+1)^d Chebyshev neighborhood and drops offsets o
    whose cells are provably out of reach: the gap between any two points
    in cells C and C+o is at least cell * sqrt(sum_i max(|o_i|-1, 0)^2),
    so offsets with that sum >= d (i.e. gap >= r_min) never conflict.
    """
    offs = _cartesian(np.arange(-nc, nc + 1, dtype=np.int64), d)
    gap2 = (np.maximum(np.abs(offs) - 1, 0) ** 2).sum(axis=1)
    return offs[gap2 < d] @ strides


def _sq_dist(a: np.ndarray, rows: np.ndarray, q: list[np.ndarray]) -> np.ndarray:
    """Squared distances between a[:, rows] and q, both axis-major.

    Sums the axes in order, as ``((x - y) ** 2).sum(axis=1)`` does for
    row-major points, so the floats are the same.
    """
    return sum((x[rows] - y) ** 2 for x, y in zip(a, q))


def _probe_lattice(d: int, R_max: float, r_min: float, spacing: float):
    """Yield the points of {k * spacing}^d inside the annulus, in chunks.

    The coordinates are computed as k * spacing from integer k, so any two
    callers with the same parameters enumerate bit-identical floats; the
    fill sweep and ``insertable_probes`` rely on that to agree exactly.
    Chunks arrive in lexicographic k order: one per first coordinate in
    d >= 2, and runs of at most _PROBE_BATCH values of k in d = 1.  With
    r_min = spacing = 1 this is Z^d \\ {0} inside the ball, in lexicographic
    order: integer norms are exact, so |z| >= 1 means z != 0; both lattice
    generators take it so.
    """
    k_hi = int(math.floor(R_max / spacing))
    r2 = r_min * r_min
    if d == 1:
        for k0 in range(-k_hi, k_hi + 1, _PROBE_BATCH):
            ks = np.arange(k0, min(k0 + _PROBE_BATCH, k_hi + 1), dtype=np.int64)
            block = (ks.astype(np.float64) * spacing)[:, None]
            n2 = (block ** 2).sum(axis=1)
            yield block[(n2 >= r2) & (n2 <= R_max * R_max)]
        return
    ks = np.arange(-k_hi, k_hi + 1, dtype=np.int64)
    xs = ks.astype(np.float64) * spacing
    tail = _cartesian(xs, d - 1)
    tail2 = (tail ** 2).sum(axis=1)
    for x0 in xs:
        n2 = x0 * x0 + tail2
        sel = (n2 >= r2) & (n2 <= R_max * R_max)
        if not sel.any():
            continue
        block = np.empty((int(sel.sum()), d), dtype=np.float64)
        block[:, 0] = x0
        block[:, 1:] = tail[sel]
        yield block


def insertable_probes(ps: PointSet) -> np.ndarray:
    """Probe-lattice points where another hard-core point would still fit.

    Reads the generator parameters ``r_min`` and ``fill_spacing`` from meta
    and refuses a set whose meta lacks either.  Scans {k * fill_spacing}^d
    over the annulus r_min <= |q| <= region_radius and returns every probe
    at distance >= r_min from all existing points (probes that are
    themselves sample points do not count).  For a gen_poisson_disk output
    the result is empty by construction — the generator's maximality
    certificate, re-derived here with a KD tree, independently of the
    generator's occupancy grid.  The KD queries run in batches
    (``_far_probes``), as the fill sweep's do; there they only thin the
    probes, and the grid judges the sample.
    """
    if not {"r_min", "fill_spacing"} <= ps.meta.keys():
        raise ValueError("insertable_probes needs r_min and fill_spacing in "
                         "meta (a gen_poisson_disk sample)")
    r_min = float(ps.meta["r_min"])
    spacing = float(ps.meta["fill_spacing"])
    if not (0.0 < spacing <= r_min):
        raise ValueError("need 0 < fill_spacing <= r_min")
    return _far_probes(ps.points, _probe_lattice(
        ps.dim, ps.region_radius, r_min, spacing), r_min)


def _far_probes(points: np.ndarray, blocks, r_min: float) -> np.ndarray:
    """The rows of ``blocks`` at distance >= r_min from every one of
    ``points``, in order.

    One KD query per batch of at least _PROBE_BATCH rows (``_batches``), not
    per block: every query starts the tree's threads.  A row's distance
    does not depend on its batch.
    """
    query = _nearest(points)
    kept = [batch[query(batch)[0] >= r_min]
            for batch in _batches(blocks, _PROBE_BATCH)]
    return np.concatenate(kept) if kept else np.empty((0, points.shape[1]))


def _exclude(occ: np.ndarray, buf: np.ndarray, offs: np.ndarray,
             flat: np.ndarray, cand: np.ndarray, ok: np.ndarray,
             sel: np.ndarray,
             r_min: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """The hard-core test: clear ``ok`` for each candidate of ``sel`` that
    has an occupied neighbour, over the cell offsets ``offs``, at
    sqrt(dd) < r_min, the distance a KD query compares.

    ``cand`` holds candidates axis-major and ``flat`` their padded cell
    indices.  One (cells x offsets) gather of ``occ`` reads every occupied
    neighbour; a flag is cleared if *any* of them conflicts, so the order
    of the pairs does not matter.  Returns the pairs read: candidate
    indices and neighbour coordinates, axis-major.
    """
    nb = occ.take(flat[sel][:, None] + offs[None, :]).ravel()
    hit = np.flatnonzero(nb >= 0)
    i = sel[hit // offs.size]
    q = [x[nb[hit]] for x in buf.T]
    ok[i[np.sqrt(_sq_dist(cand, i, q)) < r_min]] = False
    return i, q


def _accept(occ: np.ndarray, buf: np.ndarray, n_pts: int, offs: np.ndarray,
            flat: np.ndarray, cand: np.ndarray, ok: np.ndarray,
            sel: np.ndarray,
            r_min: float) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """Put the candidates of ``sel`` that ``_exclude`` keeps, at most one
    per cell, into ``occ`` and ``buf``; returns the new point count and the
    pairs ``_exclude`` read.
    """
    i, q = _exclude(occ, buf, offs, flat, cand, ok, sel, r_min)
    acc = sel[ok[sel]]
    occ[flat[acc]] = n_pts + np.arange(acc.size)
    buf[n_pts:n_pts + acc.size] = cand[:, acc].T
    return n_pts + acc.size, i, q


# failed darts after which a cell is left to the fill sweep
_BUDGET = 8
# padded occupancy-grid cells above which gen_poisson_disk refuses a window
_MAX_GRID_CELLS = 1 << 22
# fill-sweep probe spacing is r_min / _FILL_DIVISOR[d]
_FILL_DIVISOR = {1: 10.0, 2: 10.0, 3: 4.0}


def _batches(blocks, size: int):
    """Consecutive row blocks joined into batches of at least ``size`` rows,
    in order; the last batch holds the rest, and is yielded even when it
    has no rows, so any blocks make at least one batch."""
    held, rows = [], 0
    for block in blocks:
        held.append(block)
        rows += block.shape[0]
        if rows >= size:
            yield np.concatenate(held)
            held, rows = [], 0
    if held:
        yield np.concatenate(held)


def gen_poisson_disk(d: int, R_max: float, r_min: float, seed: int) -> PointSet:
    """Maximal hard-core sample of the annulus r_min <= |p| <= R_max.

    Dart throwing on a background grid of cells of side r_min/sqrt(d): at
    most one point fits per cell, and conflicts reach at most ceil(sqrt(d))
    cells away.  floor(2 R_max / cell) + 1 cells a side cover the closed
    cube [-R_max, R_max]^d, so +R_max has a cell even when 2 R_max / cell
    is an integer.  Each round throws one dart per live cell, keyed on
    (seed, cell, round), and processes the cells in (nc+1)^d interleaved
    phases: cells within one phase are spaced too far apart to conflict
    with each other, so a whole phase is accepted simultaneously against
    the occupancy grid and the construction is deterministic and
    chunk-independent.  The grid is the only judge of the hard core:
    ``_exclude`` does one (cells x offsets) gather and rejects a candidate
    if *any* occupied neighbour lies at sqrt(dd) < r_min, an order-free OR.
    A cell retires when a single accepted point covers it entirely (its
    center lies within r_min - half_diagonal of the point, read from the
    same gather), and dies after _BUDGET = 8 failed darts otherwise.

    A final fill sweep probes every budget-dead cell with the absolute
    lattice {k * fill_spacing : k integer}^d (spacing r_min/10 for d <= 2
    and r_min/4 for d = 3).  KD queries against the dart sample, in
    batches of at least _PROBE_BATCH = 2^18 dead-cell probes, only thin
    the probes to those at distance >= r_min.  Each round then drops
    every survivor that ``_exclude`` rejects, its own cell included, and
    accepts the first survivor of each cell, phase by phase.  The first
    nonempty phase reads the grid as the drop left it, so it accepts every
    probe it is offered (the ``fill sweep stalled`` raise checks this), and
    an accepted probe is dropped the round after by its own cell: the
    sweep ends.  Cells that retire any other way are already covered
    within < r_min, so after the sweep *every* probe-lattice point of the
    legal region either conflicts with a sample point or is one: that is
    the grid-probe maximality certificate, and ``insertable_probes``
    re-derives it with a KD tree from the output alone.  Between probes
    any remaining hole is shallower than r_min + fill_spacing * sqrt(d)/2.

    The origin's r_min-neighborhood is excluded (the central spin keeps
    hard-core distance from the bath), so the structural packing radius
    r_min/2 covers the bath together with the origin site.

    A padded grid of more than _MAX_GRID_CELLS = 2^22 cells is refused
    before any grid is allocated, and so is a pair whose squared lengths
    leave the normal float range: r_min^2 below 2^-1022, or d (2 R_max)^2,
    a bound on every squared length the generator forms, past 2^1024.
    Peak RSS, the interpreter and its imports included, is about 0.13-0.16
    kB a cell in d = 2 (541 MB for R_max = 720, r_min = 1: 4.17M cells,
    just under the cap), 0.15 kB in d = 1 and 0.11 kB in d = 3.
    """
    _check_dim(d)
    if not 0 < r_min <= R_max < math.inf:
        raise ValueError("need 0 < r_min <= R_max < inf")
    # r_min^2 is the least squared distance compared, and no squared length
    # formed reaches d (2 R_max)^2
    if not (r_min * r_min >= _NORMAL_MIN and 4.0 * d * R_max * R_max < math.inf):
        raise ValueError(f"r_min = {r_min:g} and R_max = {R_max:g} give squared "
                         f"lengths outside the normal float range "
                         f"{_NORMAL_RANGE}: need r_min^2 >= 2^-1022 and "
                         f"4 d R_max^2 < 2^1024")
    fill_spacing = r_min / _FILL_DIVISOR[d]

    cell = r_min / math.sqrt(d)
    n_side = int(math.floor(2.0 * R_max / cell)) + 1  # covers [-R_max, R_max]
    lo = -R_max
    nc = int(math.ceil(math.sqrt(d)))  # conflict window radius, in cells
    pad = nc
    pside = n_side + 2 * pad
    if pside ** d > _MAX_GRID_CELLS:
        raise ValueError("R_max / r_min too large for the occupancy grid")
    pstrides = np.array([pside ** (d - 1 - k) for k in range(d)], dtype=np.int64)
    occ = np.full(pside ** d, -1, dtype=np.int32)  # accepted point per cell
    offs_own = _cell_offsets(d, nc, pstrides)  # own cell included
    offs = offs_own[offs_own != 0]
    r2 = r_min * r_min
    half = cell / 2.0
    half_diag = half * math.sqrt(d)
    blk2 = (r_min - half_diag) ** 2  # single ball covering the whole cell
    stride = nc + 1  # same-phase cells are >= (stride-1)*cell >= r_min apart
    n_phases = stride ** d
    sp = np.array([stride ** (d - 1 - k) for k in range(d)], dtype=np.int64)

    def flat_of(cells: np.ndarray) -> np.ndarray:
        """Padded flat index of integer cell coordinates."""
        return (cells + pad) @ pstrides

    # Cells whose cube intersects the legal annulus r_min <= |q| <= R_max.
    grid_idx = _cartesian(np.arange(n_side, dtype=np.int64), d)
    centers = lo + (grid_idx.astype(np.float64) + 0.5) * cell
    near2 = (np.maximum(np.abs(centers) - half, 0.0) ** 2).sum(axis=1)
    far2 = ((np.abs(centers) + half) ** 2).sum(axis=1)
    alive = (near2 <= R_max * R_max) & (far2 >= r2)
    active_idx = grid_idx[alive]
    del grid_idx, centers, near2, far2, alive

    # Every cell ever hosts at most one point, so this buffer never grows.
    buf = np.empty((active_idx.shape[0], d), dtype=np.float64)
    n_pts = 0
    fails = np.zeros(active_idx.shape[0], dtype=np.int32)
    flat, phases = flat_of(active_idx), (active_idx % stride) @ sp
    # the phase of each budget-dead cell at its flat index, -1 elsewhere
    dead_phase = np.full(pside ** d, -1, dtype=np.int8)
    rnd = 0
    while active_idx.shape[0]:
        cells = active_idx
        darts = np.empty((d, cells.shape[0]), dtype=np.float64)
        for axis in range(d):
            u = counter_uniform(seed, *(cells[:, k] for k in range(d)),
                                np.int64(rnd), np.int64(axis))
            darts[axis] = lo + (cells[:, axis] + u) * cell
        dn2 = sum(x ** 2 for x in darts)
        ok = (dn2 >= r2) & (dn2 <= R_max * R_max)
        cent = lo + (cells.T.astype(np.float64) + 0.5) * cell
        blocked = np.zeros(cells.shape[0], dtype=bool)
        for p in range(n_phases):
            sel = np.nonzero(phases == p)[0]
            n_pts, i, q = _accept(occ, buf, n_pts, offs, flat, darts, ok,
                                  sel, r_min)
            # from the same gather: a cell whose center lies within
            # r_min - half_diag of an earlier point is entirely covered by
            # that point's exclusion ball and retires (it can never host
            # anything, and no probe inside it could)
            blocked[i[_sq_dist(cent, i, q) < blk2]] = True
        failed = ~ok
        fails[failed] += 1
        dead = failed & ~blocked & (fails > _BUDGET)
        dead_phase[flat[dead]] = phases[dead]
        keep = ~(ok | dead | blocked)
        active_idx, flat = cells[keep], flat[keep]
        fails = fails[keep]
        phases = phases[keep]
        rnd += 1

    # Fill sweep: scan budget-dead cells with absolute-lattice probes.
    if (dead_phase >= 0).any():
        probes = (block[dead_phase[flat_of(np.floor((block - lo) / cell)
                                           .astype(np.int64))] >= 0]
                  for block in _probe_lattice(d, R_max, r_min, fill_spacing))
        # KD queries only thin the probes; the grid judges them below.
        # Survivors are lexicographic, as the lattice yields
        surv = _far_probes(buf[:n_pts], probes, r_min)
        sflat = flat_of(np.floor((surv - lo) / cell).astype(np.int64))
        while True:
            sphase = dead_phase[sflat]  # every survivor lies in a dead cell
            # drop every survivor the grid excludes, its own cell included
            good = np.ones(surv.shape[0], dtype=bool)
            _exclude(occ, buf, offs_own, sflat, surv.T, good,
                     np.arange(good.size), r_min)
            if not good.any():
                break
            n0 = n_pts
            for p in range(n_phases):
                sel = np.nonzero(good & (sphase == p))[0]
                _, ridx = np.unique(sflat[sel], return_index=True)
                ridx.sort()
                # one probe per cell, in survivor order
                n_pts, _, _ = _accept(occ, buf, n_pts, offs, sflat, surv.T,
                                      good, sel[ridx], r_min)
            if n_pts == n0:
                raise RuntimeError("fill sweep stalled; this is a bug")
            surv, sflat = surv[good], sflat[good]

    meta = {"kind": "poisson", "dim": d, "R_max": float(R_max),
            "r_min": float(r_min), "seed": int(seed), "budget": _BUDGET,
            "fill_spacing": float(fill_spacing),
            "r_pack_structural": r_min / 2.0}
    return PointSet(dim=d, points=buf[:n_pts].copy(), region_radius=float(R_max),
                    meta=meta)


# ---------------------------------------------------------------------------
# Delone radii
# ---------------------------------------------------------------------------

# branch-and-bound stops below this half-diagonal (d = 1 is exact)
_RESOLUTION = {2: 0.05, 3: 0.12}


def _covering_exact_1d(xs: np.ndarray, R_dom: float) -> float:
    """Exact sup over [-R_dom, R_dom] of distance to the nearest site (d=1).

    ``xs`` holds the distinct sites in ascending order.  The candidates are
    the domain ends and the gap midpoints.  A rounded midpoint of
    neighbours lies between them, so they are its nearest sites and
    min(mid - xs[i], xs[i+1] - mid) is its distance, 0 when it rounds onto
    a site; only the two ends are placed by ``searchsorted``.
    """
    mids = (xs[:-1] + xs[1:]) / 2.0
    inside = (mids >= -R_dom) & (mids <= R_dom)
    gaps = np.minimum(mids - xs[:-1], xs[1:] - mids)[inside]
    ends = np.array([-R_dom, R_dom])
    pos = np.searchsorted(xs, ends)
    left = np.abs(ends - xs[np.clip(pos - 1, 0, len(xs) - 1)])
    right = np.abs(xs[np.clip(pos, 0, len(xs) - 1)] - ends)
    return float(max(np.minimum(left, right).max(), gaps.max(initial=0.0)))


def _lattice_cover_1d(m: int, R_dom: float) -> float:
    """``_covering_exact_1d`` of the sites -m, ..., m (0 included) over
    [-R_dom, R_dom], 0 < R_dom < m + 1, read from m alone.

    The midpoints k + 1/2 are exact, each 1/2 from its sites, and one lies
    in the domain iff 1/2 <= R_dom.  ``searchsorted`` places the end R_dom
    between ceil(R_dom) - 1 and ceil(R_dom), or past the last site m, whose
    distance it then reads twice; -R_dom mirrors it, and rounding to
    nearest is symmetric.  The same float subtractions give the same
    floats.
    """
    if R_dom >= m:
        end = R_dom - m
    else:
        k = float(math.ceil(R_dom))
        end = min(R_dom - (k - 1.0), k - R_dom)
    return max(end, 0.5) if R_dom >= 0.5 else end


_BNB_BLOCK = 1 << 12  # parents expanded at once (bounds transient memory)
_KD_PAD = 1e-12  # relative gap allowed between numpy and cKDTree distances


def _covering_bnb(sites: np.ndarray, d: int, R_dom: float,
                  resolution: float) -> tuple[float, float]:
    """Branch-and-bound estimate of sup_{|q| <= R_dom} dist(q, sites).

    The distance-to-set function is 1-Lipschitz, so a cell of half-diagonal
    hd whose center distance plus hd cannot beat the incumbent maximum holds
    no better probe and is pruned; survivors are subdivided until the
    half-diagonal falls below ``resolution``.  Returns (best, gap): the true
    supremum lies in [best, best + gap].

    Children are also skipped *before* their KD query.  The query of a kept
    parent returns its nearest site p, and every child c satisfies

        dist(c, sites) <= |c - p| <= |c - p| * (1 + 1e-12),

    the pad absorbing the few-ulp difference between the numpy norm and the
    KD tree's own distance.  A child with |c - p| * (1 + 1e-12) + hd <= best
    therefore has dist(c) + hd <= best: it cannot raise ``best``, the
    unconditional rule (query it, keep it iff dist + hd > best, with a best
    at least as large) would prune it at the next level, and at the final
    level its upper bound dist + hd adds nothing to ``gap``.  By induction
    over levels, (best, gap) is exactly what querying every child gives.
    """
    h = 1.0
    hd = h * math.sqrt(d) / 2.0
    m = int(math.ceil(R_dom / h)) + 1
    centers = _cartesian((np.arange(-m, m, dtype=np.float64) + 0.5) * h, d)
    centers = centers[(centers ** 2).sum(axis=1) <= (R_dom + hd) ** 2]
    best = 0.0
    query = _nearest(sites)
    child = _cartesian(np.array([-1.0, 1.0]), d)
    while True:
        dist, nearest = query(centers)
        inside = (centers ** 2).sum(axis=1) <= R_dom * R_dom
        if inside.any():
            best = max(best, float(dist[inside].max()))
        if hd <= resolution:
            ub = dist + hd
            gap = max(0.0, float(ub.max()) - best) if ub.size else 0.0
            return best, gap
        keep = dist + hd > best
        if not keep.any():
            return best, 0.0
        h /= 2.0
        hd /= 2.0
        # one pass writes the kept children from row 0 of an array sized
        # for all of them; a search that can skip nothing (a lattice) fills it
        parents, near = centers[keep], sites[nearest[keep]]
        centers = np.empty((parents.shape[0] * child.shape[0], d))
        n = 0
        for lo in range(0, parents.shape[0], _BNB_BLOCK):
            c = [(x[:, None] + y * (h / 2.0)).ravel()
                 for x, y in zip(parents[lo:lo + _BNB_BLOCK].T, child.T)]
            # the squared norm adds the axes in order, as .sum(axis=1) does
            n2 = sum(x ** 2 for x in c)
            to_site2 = sum((x - np.repeat(y, child.shape[0])) ** 2
                           for x, y in zip(c, near[lo:lo + _BNB_BLOCK].T))
            sel = ((n2 <= (R_dom + hd) ** 2)
                   & (np.sqrt(to_site2) * (1.0 + _KD_PAD) + hd > best))
            k = int(np.count_nonzero(sel))
            for j, x in enumerate(c):
                centers[n:n + k, j] = x[sel]
            n += k
        centers = centers[:n]


def _check_margin(margin: float) -> None:
    """Refuse a negative or nan margin; the CLI calls it before any set."""
    if not margin >= 0.0:
        raise ValueError("margin must be >= 0")


def measure_radii(ps: PointSet, margin: float = 0.0) -> DeloneRadii:
    """Measure the empirical packing and covering radii of a point set.

    r_pack is half the minimum pairwise distance over every stored point,
    the whole window (exact for the sample), measured once per set and
    cached on it, where ``PointSet._r_pack_certified`` reads it too.
    ``margin`` shapes only the covering domain: r_cover is the maximum
    distance from any probe q with |q| <= region_radius - margin to the
    nearest site, since only covering feels the window's edge.  The probe
    search is exact in d=1 and branch-and-bound elsewhere, with the
    remaining gap reported as probe_resolution.  A set of fewer than 2
    points, or a margin that leaves no probe domain, is refused.

    In d=1 both radii come from one sort of the line and no KD tree is
    built.  The smallest neighbour gap a of the sorted line is the minimum
    pairwise distance; a KD query reports sqrt(fl(a*a)), which in binary64
    equals |a| short of overflow and underflow, so r_pack is the same
    float.  The origin site is inserted into the sorted points, not sorted
    in again.

    The origin counts as a site for covering purposes: the central spin
    occupies it, so the punctured ball around 0 is not a hole of the bath
    geometry.  (Without this, the 1-D integer lattice would report
    r_cover = 1 from the probe at the origin instead of its true 1/2.)

    A set with a proved covering radius c (``PointSet._r_cover``; only
    ``gen_lattice`` passes one, sqrt(d)/2) is not searched when margin >=
    c and the deep hole (1/2, ..., 1/2) lies in the domain, by the float
    test 0.25 d <= R_dom^2 that the search's first level makes.  Every
    probe q then has a site p of Z^d, the origin included, with |q - p| <=
    c, so |p| <= |q| + c <= region_radius: p is stored, and c bounds the
    supremum, which the deep hole attains.  r_cover = c with
    probe_resolution 0 is the pair the search ends on after confirming
    every tie.  With a smaller margin the nearest site of a probe near the
    edge may lie beyond the window, and the search runs, except in d = 1,
    where a proved covering radius is a lattice's: its sites are -m..m
    with m = n_points / 2, and ``_lattice_cover_1d`` reads the exact
    search's float from m.  A hand-built set, an exact copy of a lattice
    included, proves nothing and is searched, which gives the same floats.
    """
    _check_margin(margin)
    R_dom = ps.region_radius - margin
    if R_dom <= 0:
        raise ValueError("margin leaves no probe domain")
    if ps.n_points < 2:
        raise ValueError("need at least 2 points")
    c = ps._r_cover
    if c is not None and margin >= c and 0.25 * ps.dim <= R_dom * R_dom:
        return DeloneRadii(r_pack=ps._r_pack_measured, r_cover=c)
    if ps.dim == 1 and c is not None:
        return DeloneRadii(r_pack=ps._r_pack_measured,
                           r_cover=_lattice_cover_1d(ps.n_points // 2, R_dom))
    if ps.dim == 1:
        xs = ps._sorted_line
        sites = np.insert(xs, np.searchsorted(xs, 0.0), 0.0)
        return DeloneRadii(r_pack=ps._r_pack_measured,
                           r_cover=_covering_exact_1d(sites, R_dom))

    sites = np.concatenate([ps.points, np.zeros((1, ps.dim))], axis=0)
    r_cover, gap = _covering_bnb(sites, ps.dim, R_dom, _RESOLUTION[ps.dim])
    return DeloneRadii(r_pack=ps._r_pack_measured, r_cover=r_cover,
                       probe_resolution=gap)


# ---------------------------------------------------------------------------
# Annulus queries
# ---------------------------------------------------------------------------


def count_annulus(ps: PointSet, a: float, b: float) -> int:
    """Count points with a <= |p| <= b (closed): ``ps.shells(a)`` up to b."""
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    if b > ps.region_radius:
        raise ValueError("b exceeds region_radius: the set is incomplete there")
    rho, cnt = ps.shells(a)
    return int(cnt[:np.searchsorted(rho, b, side="right")].sum())


def check_annulus_bounds(ps: PointSet, radii: DeloneRadii,
                         a: float, b: float) -> AnnulusBoundsReport:
    """Check the volume-argument annulus count sandwich.

    Upper bound: disjoint open r_pack-balls around counted points fit inside
    the annulus widened by r_pack, giving N <= (b/r_pack+1)^d - (a/r_pack-1)^d.
    Lower bound: closed r_cover-balls around the points cover the annulus,
    giving N >= (b/r_cover-1)^d - (a/r_cover+1)^d (clamped at 0).  The lower
    bound uses the conservative covering estimate r_cover + probe_resolution
    (an understated covering radius would overstate the bound); the upper
    bound uses ``PointSet._r_pack_certified``, so a set whose meta carries
    no structural packing radius is refused with a ``ValueError``.
    """
    d = ps.dim
    rp = ps._r_pack_certified
    if a < rp:
        raise ValueError("lower annulus radius must satisfy a >= r_pack")
    rc = radii.r_cover_upper
    n = count_annulus(ps, a, b)
    lower = max(0.0, max(0.0, b / rc - 1.0) ** d - (a / rc + 1.0) ** d)
    upper = (b / rp + 1.0) ** d - max(0.0, a / rp - 1.0) ** d
    holds = lower <= n <= upper
    return AnnulusBoundsReport(a=float(a), b=float(b), n_sites=n,
                               lower=lower, upper=upper, holds=holds)
