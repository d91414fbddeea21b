"""Point-set generators, Delone radii, and annulus counting."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import centralspin as cs
from centralspin import pointsets
from conftest import JITTER_ETA, RADII_MARGIN

# default probe spacing of the Poisson-disk fill sweep (r_min / 10 for
# d <= 2, r_min / 4 for d = 3); the covering certificate depends on it
FILL_SPACING_FRAC = {1: 0.1, 2: 0.1, 3: 0.25}


def min_pair_distance(ps: cs.PointSet) -> float:
    d, _ = cKDTree(ps.points).query(ps.points, k=2)
    return float(d[:, 1].min())


# ---------------------------------------------------------------- lattice

def test_lattice_line_is_centered_integer_range():
    ps = cs.gen_lattice(1, 10.0)
    got = np.sort(ps.points[:, 0])
    want = np.array([float(k) for k in range(-10, 11) if k != 0])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_counts_match_brute_force(d):
    R = 6.0
    ps = cs.gen_lattice(d, R)
    rng = np.arange(-7, 8)
    grids = np.meshgrid(*([rng] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    norms = np.linalg.norm(pts, axis=1)
    want = int(((norms > 0) & (norms <= R)).sum())
    assert ps.n_points == want


@pytest.mark.parametrize("d,cover", [(1, 0.5), (2, math.sqrt(2) / 2),
                                     (3, math.sqrt(3) / 2)])
def test_lattice_radii_are_the_exact_cube_constants(d, cover, grid_sets):
    _, radii = grid_sets[0][(d, "lattice")]
    assert radii.r_pack == 0.5
    assert radii.r_cover <= cover + radii.probe_resolution + 1e-12
    assert radii.r_cover_upper >= cover - 1e-12


# ---------------------------------------------------------------- jittered

def test_zero_jitter_reproduces_the_lattice():
    a = cs.gen_lattice(2, 15.0)
    b = cs.gen_jittered(2, 15.0, 0.0, seed=3)
    assert np.array_equal(np.sort(a.points, axis=0), np.sort(b.points, axis=0))


def test_jitter_keeps_separation_at_least_one_minus_two_eta(grid_sets):
    for d in (1, 2, 3):
        ps, _ = grid_sets[0][(d, "jitter")]
        assert min_pair_distance(ps) >= 1.0 - 2.0 * JITTER_ETA - 1e-12


def test_jitter_displaces_each_site_by_at_most_eta():
    ps = cs.gen_jittered(2, 20.0, JITTER_ETA, seed=11)
    nearest_lattice = np.round(ps.points)
    disp = np.abs(ps.points - nearest_lattice).max()
    assert disp <= JITTER_ETA + 1e-12


@given(eta=st.floats(0.0, 0.49), seed=st.integers(0, 2**31 - 1))
def test_jitter_separation_property(eta, seed):
    ps = cs.gen_jittered(2, 12.0, eta, seed)
    assert min_pair_distance(ps) >= 1.0 - 2.0 * eta - 1e-9


def test_jitter_requires_eta_below_half():
    with pytest.raises(ValueError):
        cs.gen_jittered(1, 10.0, 0.5, seed=0)


# ------------------------------------------------------------ Poisson-disk

def test_poisson_line_sample_is_reproducible():
    a = cs.gen_poisson_disk(1, 10.0, 1.0, seed=7)
    b = cs.gen_poisson_disk(1, 10.0, 1.0, seed=7)
    assert np.array_equal(a.points, b.points)
    assert a.n_points == 14


def test_poisson_hard_core_is_closed():
    ps = cs.gen_poisson_disk(2, 20.0, 1.0, seed=7)
    assert min_pair_distance(ps) >= ps.meta["r_min"]


def test_poisson_fill_sweep_accepts_a_probe_exactly_r_min_away():
    # a probe lies exactly r_min = 0.8 (ten 0.08 steps) from a sample point:
    # the KD filters kept it while a squared-distance test rejected it, and
    # the fill sweep stalled
    ps = cs.gen_poisson_disk(2, 25.0, 0.8, 10)
    assert ps.n_points == 2118
    assert min_pair_distance(ps) >= 0.8
    assert cs.insertable_probes(ps).shape[0] == 0


@pytest.mark.parametrize("d", [1, 2])
def test_poisson_leaves_no_insertable_probe(d):
    ps = cs.gen_poisson_disk(d, 20.0, 1.0, seed=7)
    assert cs.insertable_probes(ps).shape[0] == 0


def test_poisson_covering_certificate(grid_sets):
    for d in (1, 2, 3):
        ps, radii = grid_sets[0][(d, "poisson")]
        r_min = ps.meta["r_min"]
        spacing = FILL_SPACING_FRAC[d] * r_min
        cert = r_min + spacing * math.sqrt(d) / 2.0
        assert radii.r_cover <= cert
        assert cs.insertable_probes(ps).shape[0] == 0


# sha256 of points.tobytes().  The d = 2, 3 entries at (20, 1.0) and
# (15, 1.5) were recorded at the commit before the (cells x offsets) gather
# replaced the per-offset conflict loops; the other three (d = 1, and the
# sets whose fill sweep probes land exactly r_min from a point) at the
# commit before the dart rounds and the fill sweep shared one acceptance step
POISSON_DIGESTS = {
    (1, 50.0, 0.7, 2):
        "2b2217690b984b877051364f485bcfb195d10717b6ab44fe0a29d232ee033faf",
    (2, 20.0, 1.0, 7):
        "046f3d872a9e072556ce30379353caf741989da67579a6931f57bbffe9cc5a30",
    (2, 25.0, 0.8, 10):
        "f67dc4b212d4b1b9e193dd668b2d3a3190b9115a4e9f4d783581394cb212e709",
    (2, 50.0, 1.3, 4):
        "39d4281f7f414a884a0a1b57b2f271cfb9fdfc2e3bef6bf31c8ea3290a09ea77",
    (3, 15.0, 1.5, 3):
        "c14c488adb30e6dad251b927ba9abdc18cad6f6284918510c962a3575dff304b",
}


@pytest.mark.parametrize("case", sorted(POISSON_DIGESTS))
def test_poisson_samples_are_bit_identical_to_recorded_digests(case):
    d, R, r_min, seed = case
    ps = cs.gen_poisson_disk(d, R, r_min, seed=seed)
    assert hashlib.sha256(ps.points.tobytes()).hexdigest() == POISSON_DIGESTS[case]


def test_insertable_probes_flags_a_real_hole():
    ps = cs.gen_poisson_disk(2, 20.0, 1.0, seed=7)
    # delete an interior point: probes near it become legal again
    norms = np.linalg.norm(ps.points, axis=1)
    victim = int(np.argmin(np.abs(norms - 10.0)))
    thinned = cs.PointSet(2, np.delete(ps.points, victim, axis=0),
                          ps.region_radius, meta=dict(ps.meta))
    assert cs.insertable_probes(thinned).shape[0] > 0


def test_insertable_probes_argument_validation():
    ps = cs.gen_lattice(2, 10.0)  # no r_min in meta
    with pytest.raises(ValueError):
        cs.insertable_probes(ps)


def test_insertable_probes_refuses_a_set_without_its_fill_spacing():
    ps = cs.gen_poisson_disk(2, 10.0, 1.0, seed=7)
    meta = {k: v for k, v in ps.meta.items() if k != "fill_spacing"}
    bare = cs.PointSet(2, ps.points, ps.region_radius, meta)
    with pytest.raises(ValueError, match="fill_spacing"):
        cs.insertable_probes(bare)


# ------------------------------------------------------- PointSet container

def test_point_set_rejects_origin_duplicates_and_outliers():
    pts = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        cs.PointSet(2, pts, 10.0)
    pts = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        cs.PointSet(2, pts, 10.0)
    pts = np.array([[11.0, 0.0]])
    with pytest.raises(ValueError):
        cs.PointSet(2, pts, 10.0)


@pytest.mark.parametrize("field", ["r_pack", "r_cover", "probe_resolution"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_delone_radii_refuse_non_finite_fields(field, bad):
    fields = {"r_pack": 0.5, "r_cover": 0.5, "probe_resolution": 0.0}
    fields[field] = bad
    with pytest.raises(ValueError, match=field):
        cs.DeloneRadii(**fields)


def test_radii_property_is_cached_norms():
    ps = cs.gen_lattice(2, 10.0)
    assert np.array_equal(ps.radii, np.linalg.norm(ps.points, axis=1))
    assert ps.radii is ps.radii  # cached


def test_descending_radii_are_a_cached_read_only_sort():
    ps = cs.gen_jittered(2, 10.0, 0.2, seed=1)
    assert np.array_equal(ps.radii_desc, np.sort(ps.radii)[::-1])
    assert ps.radii_desc is ps.radii_desc
    assert not ps.radii_desc.flags.writeable
    assert ps.radii_desc[::-1].flags.c_contiguous  # searchsorted reads it in place


# ------------------------------------------------------------ measure_radii

def test_measured_line_radii_are_exact():
    ps = cs.gen_poisson_disk(1, 50.0, 1.0, seed=3)
    radii = cs.measure_radii(ps)
    pts = np.sort(ps.points[:, 0])
    want_pack = np.diff(pts).min() / 2.0
    assert radii.probe_resolution == 0.0
    assert math.isclose(radii.r_pack, want_pack, rel_tol=0, abs_tol=1e-12)
    # covering distance is to the nearest *site*, and the central spin at
    # the origin is a site: worst point is a gap midpoint or a domain edge
    sites = np.sort(np.append(pts, 0.0))
    want_cover = max(np.diff(sites).max() / 2.0,
                     sites[0] - (-50.0), 50.0 - sites[-1])
    assert math.isclose(radii.r_cover, want_cover, rel_tol=0, abs_tol=1e-12)


# (r_pack, r_cover, probe_resolution) recorded at the commit before the
# covering search skipped children bounded through their parent's site
PINNED_RADII = [
    (lambda: cs.gen_jittered(3, 20.0, 0.25, 3),
     (0.2562676176945162, 0.9940537658155995, 0.10825317547305491)),
    (lambda: cs.gen_poisson_disk(3, 15.0, 1.5, seed=3),
     (0.7500712356332758, 1.645749516511485, 0.10825317547305491)),
]


@pytest.mark.parametrize("make, want", PINNED_RADII, ids=["jitter", "poisson"])
def test_covering_search_is_bit_identical_to_recorded_radii(make, want):
    got = cs.measure_radii(make(), 2.0)
    assert (got.r_pack, got.r_cover, got.probe_resolution) == want


def _covering_bnb_unpruned(sites, d, R_dom, resolution):
    """The covering search as it was before children were skipped."""
    tree = cKDTree(sites)
    h = 1.0
    hd = h * math.sqrt(d) / 2.0
    m = int(math.ceil(R_dom / h)) + 1
    axis = (np.arange(-m, m, dtype=np.float64) + 0.5) * h
    centers = np.stack(np.meshgrid(*([axis] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    centers = centers[(centers ** 2).sum(axis=1) <= (R_dom + hd) ** 2]
    child = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d),
                                 indexing="ij"), axis=-1).reshape(-1, d)
    best = 0.0
    while True:
        dist, _ = tree.query(centers)
        inside = (centers ** 2).sum(axis=1) <= R_dom * R_dom
        if inside.any():
            best = max(best, float(dist[inside].max()))
        if hd <= resolution:
            ub = dist + hd
            return best, (max(0.0, float(ub.max()) - best) if ub.size else 0.0)
        keep = dist + hd > best
        if not keep.any():
            return best, 0.0
        h /= 2.0
        hd /= 2.0
        centers = (centers[keep][:, None, :]
                   + child[None, :, :] * (h / 2.0)).reshape(-1, d)
        centers = centers[(centers ** 2).sum(axis=1) <= (R_dom + hd) ** 2]


@pytest.mark.parametrize("d, make", [
    (2, lambda: cs.gen_jittered(2, 15.0, 0.3, 2)),
    (2, lambda: cs.gen_poisson_disk(2, 12.0, 1.0, seed=4)),
    (3, lambda: cs.gen_jittered(3, 8.0, 0.2, 6)),
    (3, lambda: cs.gen_lattice(3, 8.0)),
])
def test_covering_search_equals_the_unpruned_search(d, make):
    ps = make()
    sites = np.concatenate([ps.points, np.zeros((1, d))], axis=0)
    for R_dom, res in ((ps.region_radius - 1.0, 0.05), (ps.region_radius, 0.2)):
        want = _covering_bnb_unpruned(sites, d, R_dom, res)
        assert pointsets._covering_bnb(cKDTree(sites), d, R_dom, res) == want


def _brute_distance_max(ps, R_dom, s):
    """max over probes q (|q| <= R_dom) of min over sites |q - p|, no KD tree.

    The probes are the spacing-s grid inside the ball plus the radial
    projections onto the sphere of grid points up to s*sqrt(d)/2 outside
    it, so every point of the ball lies within s*sqrt(d)/2 of a probe
    (projection onto the ball is non-expansive).  The origin is a site.
    """
    d = ps.dim
    sites = np.concatenate([ps.points, np.zeros((1, d))], axis=0)
    k = np.arange(-math.ceil(R_dom / s) - 1, math.ceil(R_dom / s) + 2) * s
    grid = np.stack(np.meshgrid(*([k] * d), indexing="ij"), axis=-1).reshape(-1, d)
    norm = np.linalg.norm(grid, axis=1)
    shell = (norm > R_dom) & (norm <= R_dom + s * math.sqrt(d) / 2.0)
    probes = np.concatenate([grid[norm <= R_dom],
                             grid[shell] * (R_dom / norm[shell])[:, None]])
    best = 0.0
    for lo in range(0, probes.shape[0], 4096):
        q = probes[lo:lo + 4096]
        d2 = sum((q[:, i, None] - sites[None, :, i]) ** 2 for i in range(d))
        best = max(best, float(np.sqrt(d2.min(axis=1)).max()))
    return best


@pytest.mark.parametrize("make, margin, s", [
    (lambda: cs.gen_jittered(2, 8.0, 0.25, 4), 1.0, 0.025),
    (lambda: cs.gen_poisson_disk(3, 6.0, 1.5, seed=2), 1.0, 0.1),
])
def test_covering_certificate_brackets_a_brute_force_oracle(make, margin, s):
    ps = make()
    radii = cs.measure_radii(ps, margin)
    R_dom = ps.region_radius - margin
    brute = _brute_distance_max(ps, R_dom, s)
    assert brute <= radii.r_cover_upper + 1e-12
    assert radii.r_cover <= brute + s * math.sqrt(ps.dim) / 2.0 + 1e-12


@pytest.mark.parametrize("value", ["0", "two"])
def test_thread_knob_refuses_zero_and_non_integers(monkeypatch, value):
    ps = cs.gen_lattice(2, 10.0)
    monkeypatch.setenv("CENTRALSPIN_THREADS", value)
    with pytest.raises(ValueError, match="CENTRALSPIN_THREADS must be -1 .* "
                                         "positive integer, got '" + value):
        cs.measure_radii(ps)


def test_thread_knob_defaults_to_every_core(monkeypatch):
    ps = cs.gen_lattice(2, 10.0)
    monkeypatch.delenv("CENTRALSPIN_THREADS", raising=False)
    assert pointsets._query_workers() == -1
    unset = cs.measure_radii(ps)
    for value in ("-1", "1"):
        monkeypatch.setenv("CENTRALSPIN_THREADS", value)
        assert cs.measure_radii(ps) == unset
    assert pointsets._query_workers() == 1


def test_margin_shrinks_the_measured_window(grid_sets):
    ps, _ = grid_sets[0][(2, "poisson")]
    wide = cs.measure_radii(ps, margin=RADII_MARGIN)
    wider = cs.measure_radii(ps, margin=20.0)
    # larger margin can only see fewer holes, never larger covering radius
    # (up to the probe resolution both measurements share)
    assert wider.r_cover <= wide.r_cover + wide.probe_resolution + 1e-12


# ------------------------------------------------------------ annulus counts

def test_count_annulus_matches_brute_force(grid_sets):
    for d, kind in ((1, "poisson"), (2, "jitter"), (3, "lattice")):
        ps, _ = grid_sets[0][(d, kind)]
        norms = np.linalg.norm(ps.points, axis=1)
        for a, b in ((1.0, 4.0), (3.0, 17.5), (10.0, 11.0)):
            got = cs.count_annulus(ps, a, b)
            assert got.n_sites == int(((norms >= a) & (norms <= b)).sum())


def test_annulus_bounds_hold_on_every_kind(grid_sets):
    for (d, kind), (ps, radii) in grid_sets[0].items():
        rep = cs.check_annulus_bounds(ps, radii, 2.0 * radii.r_cover_upper, 25.0)
        assert rep.holds, (d, kind)
        assert rep.lower <= rep.n_sites <= rep.upper


def test_annulus_bounds_require_inner_radius_at_least_packing(grid_sets):
    ps, radii = grid_sets[0][(1, "lattice")]
    with pytest.raises(ValueError):
        cs.check_annulus_bounds(ps, radii, 0.1 * radii.r_pack, 10.0)
