"""Point-set generators, Delone radii, and annulus counting."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import centralspin as cs
from centralspin import pointsets
from centralspin._rng import counter_hash
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


def _assert_shells_are_unique_norms(d, R):
    # gen_lattice's shells, stored before any row exists, are np.unique of
    # the rows' norms, values and counts, bit for bit and in dtype
    ps = cs.gen_lattice(d, R)
    rho, cnt = ps.shells(0.0)
    n = ps.n_points
    assert "points" not in ps.__dict__ and "radii" not in ps.__dict__
    want_rho, want_cnt = np.unique(ps.radii, return_counts=True)
    assert np.array_equal(rho, want_rho) and rho.dtype == want_rho.dtype
    assert np.array_equal(cnt, want_cnt) and cnt.dtype == want_cnt.dtype
    assert n == ps.points.shape[0] == int(want_cnt.sum())


# R at sqrt 5 and both of its float neighbours: z.z = 5 is in the ball iff
# 5 <= fl(R * R), the rule the rows follow
_SQRT5 = math.sqrt(5.0)


@pytest.mark.parametrize("R", [1.0, 1.2, math.sqrt(2.0), _SQRT5,
                               math.nextafter(_SQRT5, 0.0),
                               math.nextafter(_SQRT5, 3.0),
                               7.5, 12.0, 20.0, 60.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_shells_are_the_unique_norms_of_its_rows(d, R):
    _assert_shells_are_unique_norms(d, R)


@given(st.integers(1, 3), st.floats(1.0, 40.0))
def test_lattice_shells_property(d, R):
    _assert_shells_are_unique_norms(d, R)


@pytest.mark.parametrize("R", [1.0, 1.5, 1.9999999999999998, 2.0, 7.5, 10.0,
                               1000.3, 5.0e4])
def test_line_lattice_radii_equal_the_row_computation(R):
    # in d = 1 a lattice's radii are read from m = floor(R) at every margin;
    # the sorted-line gap and the exact covering search over its rows, and
    # a hand-built copy that measures them, give the same floats.  R - 0.25
    # leaves a domain holding no midpoint, where only the ends count
    ps = cs.gen_lattice(1, R)
    copy = cs.PointSet(1, ps.points, R, meta=dict(ps.meta))
    xs = np.sort(ps.points[:, 0])
    sites = np.insert(xs, np.searchsorted(xs, 0.0), 0.0)
    r_pack = float(np.diff(xs).min()) / 2.0
    assert r_pack == (1.0 if R < 2.0 else 0.5)
    for margin in (0.0, 0.2, 0.5, 1.0, R - 0.5, R - 0.25):
        if R - margin <= 0.0:
            for s in (ps, copy):
                with pytest.raises(ValueError, match="no probe domain"):
                    cs.measure_radii(s, margin)
            continue
        want = cs.DeloneRadii(r_pack, pointsets._covering_exact_1d(
            sites, R - margin))
        assert cs.measure_radii(ps, margin) == want == cs.measure_radii(copy, margin)


@pytest.mark.parametrize("d,cover", [(1, 0.5), (2, math.sqrt(2) / 2),
                                     (3, math.sqrt(3) / 2)])
def test_lattice_radii_are_the_exact_cube_constants(d, cover, grid_sets):
    _, radii = grid_sets[0][(d, "lattice")]
    assert radii.r_pack == 0.5
    assert radii.r_cover <= cover + radii.probe_resolution + 1e-12
    assert radii.r_cover_upper >= cover - 1e-12
    # the margin (2) exceeds sqrt(d)/2: the search ends on the exact value
    assert (radii.r_cover, radii.probe_resolution) == (math.sqrt(d) / 2, 0.0)


# ---------------------------------------------------------------- jittered

# sha256 of points.tobytes(), recorded at the commit before the lattice
# generators took Z^d from the probe-lattice enumerator; they pin the point
# order as well as the set.  Zero jitter must hash equal to the lattice.
LATTICE_DIGESTS = {
    (1, 12.0): "a13a32b25b8bdff00da51a0782ffe84aefd695986609c2206a71283d1255d429",
    (1, 7.5): "7ce886a8cf493b1e22b30ba6f46ea9f8b2f1f2301698fd4517f4529728064431",
    (2, 12.0): "4aa54a633be2930f320b138599fd629e3e4c0bff64f94ccc22be08734d365d4d",
    (2, 7.5): "c34da571969c452dc652db3661722e073ce2d0150b5a1565c14d706438b82b5d",
    (3, 12.0): "4bd85790a867abaac6aa92d519eca729e803311341ff20655069f5bd3648871e",
    (3, 7.5): "b6d30aa50a63647688f9172124f9a0bf5b8798431f5807d8f6b98b26697d6c0d",
}
# gen_jittered(d, R, eta, seed=5), same commit
JITTER_DIGESTS = {
    (1, 12.0, 0.25): "ebf49157c72e170d34658ea13c1139fa2fe3d426e3b75dbca9619cf6936e51fb",
    (1, 12.0, 0.49): "91dd7f881518b8b1588395adf649e668b793c5647068171ec0316d41abe0fa7d",
    (1, 7.5, 0.25): "aaaa6007957d8973d4bcd4079b38a9deccbbf62376237201fa025a7e49d8d7b0",
    (1, 7.5, 0.49): "d4b0aebc8ae4dc327a3efd3c794dedcea7bf99be5d3ee6a922339e264351e4bb",
    (2, 12.0, 0.25): "36f18de200350128a2093177b99ae79d4edc2b989c8238bb626fe8206504caf7",
    (2, 12.0, 0.49): "3af11f37eabef7ae8e99da5d2a47bf0022600ed5cd6e4bca0e1e0f57a4eb7399",
    (2, 7.5, 0.25): "f88856d26547540d945f769b3d96031ce1edccd94e13c5d473c158aedf3cdb77",
    (2, 7.5, 0.49): "443535b81e464dfff83b26a1188d51dd362505782f07376b31a6820eb7755770",
    (3, 12.0, 0.25): "893d8d438e4d220efc7bf1ee0330e187226a6c2553b255e52f6cb32ec48cb33a",
    (3, 12.0, 0.49): "f70b7aa2ff575558aa40b803e3e69f09ae4ab881e395aae6212cc3f4f00964d1",
    (3, 7.5, 0.25): "95fcf1df7c426bf9947a6b980d6200cfed88c686f56a076f7147cb9361e66122",
    (3, 7.5, 0.49): "0c04c2faae03a1821b016f19b119c4452245345984fa105e2dcdb279239fd4f7",
}


def _digest(ps: cs.PointSet) -> str:
    return hashlib.sha256(ps.points.tobytes()).hexdigest()


def _stable_ids(first_keys):
    """Case ids fixed per key, so that a new entry renames no case.

    The keys in ``first_keys`` keep the positional ids ("case0", ...) they
    were first run under; a key added later is named by ``str(key)``.
    """
    fixed = {key: f"case{i}" for i, key in enumerate(first_keys)}
    return lambda case: fixed.get(case, str(case))


@pytest.mark.parametrize("case", sorted(LATTICE_DIGESTS), ids=_stable_ids(
    [(1, 7.5), (1, 12.0), (2, 7.5), (2, 12.0), (3, 7.5), (3, 12.0)]))
def test_lattices_are_bit_identical_to_recorded_digests(case):
    d, R = case
    assert _digest(cs.gen_lattice(d, R)) == LATTICE_DIGESTS[case]
    assert _digest(cs.gen_jittered(d, R, 0.0, seed=5)) == LATTICE_DIGESTS[case]
    for eta in (0.25, 0.49):
        got = _digest(cs.gen_jittered(d, R, eta, seed=5))
        assert got == JITTER_DIGESTS[(d, R, eta)]


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


# sha256 prefixes of gen_jittered(2, 5, 0.25, seed) and
# gen_poisson_disk(2, 5, 1, seed) points, and counter_hash(seed, 0..2),
# recorded before seeds were range-checked, at the int64 edges and -1
SEED_EDGES = {
    -1: ("6a00a624a3879a45", "917cb27399bc799b",
         [4815193057359064352, 6187950774067792790, 2836844538630218676]),
    0: ("be184868631e3221", "016b7a605e055fe6",
        [258863698125685209, 5219921735007109793, 8504457784064988479]),
    2 ** 63 - 1: ("4ebd1ab5a44dd34d", "35182b57be8f168f",
                  [16656206196686635526, 4492361941259654510,
                   908118396257486133]),
}


def test_seeds_outside_int64_are_refused_and_edge_seeds_unchanged():
    for seed in (2 ** 63, -2 ** 63 - 1, 10 ** 20, 1.5, "3"):
        for make in (cs.gen_jittered, cs.gen_poisson_disk):
            with pytest.raises(ValueError, match=r"seed must be an integer "
                               r"in \[-2\^63, 2\^63\), got " + re.escape(repr(seed))):
                make(2, 5.0, 0.25 if make is cs.gen_jittered else 1.0, seed)
    for seed, (jitter, poisson, words) in SEED_EDGES.items():
        assert _digest(cs.gen_jittered(2, 5.0, 0.25, seed))[:16] == jitter
        assert _digest(cs.gen_poisson_disk(2, 5.0, 1.0, seed))[:16] == poisson
        got = counter_hash(seed, np.arange(3, dtype=np.int64))
        assert [int(w) for w in got] == words
    assert cs.gen_jittered(2, 5.0, 0.25, -2 ** 63).n_points > 0


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
# (15, 1.5, 3) were recorded at the commit before the (cells x offsets)
# gather replaced the per-offset conflict loops; (1, 50.0, 0.7, 2),
# (2, 25.0, 0.8, 10) and (2, 50.0, 1.3, 4) (fill sweep probes exactly r_min
# from a point) at the commit before the dart rounds and the fill sweep
# shared one acceptance step; the other four at the commit before the
# occupancy grid became the fill sweep's only judge: R = r_min (no dart
# lands, so the sweep starts from no point), a third probe exactly r_min
# away, and a second d = 3 seed
POISSON_DIGESTS = {
    (1, 50.0, 0.7, 2):
        "2b2217690b984b877051364f485bcfb195d10717b6ab44fe0a29d232ee033faf",
    (2, 2.0, 2.0, 3):
        "e4515923b2027dabd2a6d48c1ca16f2827fba6bcaf1f4d14278fe6891395dabb",
    (2, 20.0, 1.0, 7):
        "046f3d872a9e072556ce30379353caf741989da67579a6931f57bbffe9cc5a30",
    (2, 25.0, 0.8, 10):
        "f67dc4b212d4b1b9e193dd668b2d3a3190b9115a4e9f4d783581394cb212e709",
    (2, 30.0, 0.8, 9):
        "ae197d2d15c30136e05250f9e385303c91622e26009f4955fd4c449fd6c1bf64",
    (2, 50.0, 1.3, 4):
        "39d4281f7f414a884a0a1b57b2f271cfb9fdfc2e3bef6bf31c8ea3290a09ea77",
    (3, 3.0, 3.0, 2):
        "a0fb2a509b6f474ac6d43e307a3a26f5a5673fd98b5a927dbf7e085b9acd48f1",
    (3, 15.0, 1.5, 3):
        "c14c488adb30e6dad251b927ba9abdc18cad6f6284918510c962a3575dff304b",
    (3, 15.0, 1.5, 4):
        "facc349d88e80c788cdb3689b1090e6767b2336cef609cd9680241a0af7b4b46",
}


@pytest.mark.parametrize("case", sorted(POISSON_DIGESTS), ids=_stable_ids(
    [(1, 50.0, 0.7, 2), (2, 2.0, 2.0, 3), (2, 20.0, 1.0, 7),
     (2, 25.0, 0.8, 10), (2, 30.0, 0.8, 9), (2, 50.0, 1.3, 4),
     (3, 3.0, 3.0, 2), (3, 15.0, 1.5, 3), (3, 15.0, 1.5, 4)]))
def test_poisson_samples_are_bit_identical_to_recorded_digests(case):
    d, R, r_min, seed = case
    ps = cs.gen_poisson_disk(d, R, r_min, seed=seed)
    assert _digest(ps) == POISSON_DIGESTS[case]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_grid_past_its_cell_cap_is_refused(d):
    # the padded grid of (floor(2 R / cell) + 1 + 2 ceil(sqrt d))^d cells,
    # cell = r_min / sqrt d, is refused once it holds more than the cap;
    # the largest recorded set (d = 3, R = 60, r_min = 1.5) holds 143^3
    cap = pointsets._MAX_GRID_CELLS
    assert 143 ** 3 < cap
    nc = math.ceil(math.sqrt(d))
    side = math.floor(cap ** (1.0 / d)) + 1  # side ** d > cap
    cell = 1.0 / math.sqrt(d)
    R = (side - 2 * nc - 0.5) * cell / 2.0  # floor(2 R / cell) + 1 = side - 2 nc
    assert (math.floor(2.0 * R / cell) + 1 + 2 * nc) ** d > cap
    with pytest.raises(ValueError, match="too large for the occupancy grid"):
        cs.gen_poisson_disk(d, R, 1.0, seed=0)


@pytest.mark.parametrize("case, n_points", [
    ((1, 5.0, 5.0, 1), 2), ((1, 9.0, 3.0, 2), 4), ((1, 1.0, 1.0, 0), 2),
], ids=["R5", "R9", "R1"])
def test_poisson_grid_covers_the_closed_ball(case, n_points):
    # 2 R_max / cell is an integer here, so the probe at +R_max sits on the
    # grid's far edge; a grid that stopped short of it left it insertable
    d, R, r_min, seed = case
    ps = cs.gen_poisson_disk(d, R, r_min, seed=seed)
    assert ps.points.max() == R
    assert ps.n_points == n_points
    assert cs.insertable_probes(ps).shape[0] == 0


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
    # -0.0 == 0.0: the same site, between two others
    pts = np.array([[1.0, 0.0], [0.5, 2.0], [1.0, -0.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="duplicate"):
        cs.PointSet(2, pts, 10.0)
    pts = np.array([[11.0, 0.0]])
    with pytest.raises(ValueError):
        cs.PointSet(2, pts, 10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("make", [
    lambda R: cs.gen_lattice(1, R),
    lambda R: cs.gen_jittered(1, R, 0.1, 3),
    lambda R: cs.gen_poisson_disk(1, R, 1.0, 3),
], ids=["lattice", "jittered", "poisson"])
def test_generators_refuse_a_non_finite_region(make, bad):
    with pytest.raises(ValueError, match="R_max"):
        make(bad)


def test_point_set_refuses_an_infinite_region():
    # an infinite region would make every tail sum over it a finite sum
    with pytest.raises(ValueError, match="region_radius"):
        cs.PointSet(1, [[1.0], [2.0]], math.inf, meta={"r_pack_structural": 0.5})


@pytest.mark.parametrize("margin", [-1.0, math.nan])
def test_measure_radii_refuses_a_negative_or_nan_margin(margin):
    with pytest.raises(ValueError, match="margin must be >= 0"):
        cs.measure_radii(cs.gen_lattice(2, 10.0), margin)


def test_measure_radii_refuses_only_too_few_points_or_no_probe_domain():
    ps = cs.gen_lattice(2, 10.0)
    with pytest.raises(ValueError, match="margin leaves no probe domain"):
        cs.measure_radii(ps, 10.0)
    one = cs.PointSet(2, [[1.0, 0.0]], 5.0, meta={"r_pack_structural": 0.5})
    with pytest.raises(ValueError, match="need at least 2 points"):
        cs.measure_radii(one)
    # no point lies within the covering domain |q| <= 0.5; margin shapes
    # nothing else, so r_pack is still the whole window's
    assert cs.measure_radii(ps, 9.5).r_pack == 0.5


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


def test_shells_are_views_of_one_cached_read_only_unique():
    # a jittered set (distinct radii) and a lattice (shells of many sites);
    # cuts at 0, at a stored radius (closed), between two radii and past
    # the largest radius
    for ps in (cs.gen_jittered(2, 10.0, 0.2, seed=1), cs.gen_lattice(2, 10.0)):
        u = np.unique(ps.radii)
        base = ps.shells(0.0)[0].base
        for r in (0.0, float(u[17]), float(u[5] + u[6]) / 2.0, float(u[-1]) + 1.0):
            rho, cnt = ps.shells(r)
            want_rho, want_cnt = np.unique(ps.radii[ps.radii >= r],
                                           return_counts=True)
            assert np.array_equal(rho, want_rho) and np.array_equal(cnt, want_cnt)
            assert not rho.flags.writeable and not cnt.flags.writeable
            assert rho.base is base  # sorted once, then cached
        assert rho.size == cnt.size == 0


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


@pytest.mark.parametrize("make", [
    lambda: cs.gen_lattice(1, 300.0),
    lambda: cs.gen_jittered(1, 300.0, 0.0, seed=5),
    lambda: cs.gen_jittered(1, 300.0, 0.25, seed=5),
    lambda: cs.gen_jittered(1, 300.0, 0.49, seed=5),
    lambda: cs.gen_poisson_disk(1, 300.0, 0.7, seed=2),
    lambda: cs.gen_poisson_disk(1, 300.0, 1.3, seed=4),
], ids=["lattice", "jitter0", "jitter0.25", "jitter0.49", "poisson0.7",
        "poisson1.3"])
def test_line_packing_radius_is_the_kd_tree_value(make):
    # the d = 1 r_pack comes from a sort of every stored point, whatever the
    # margin; a KD query over the same points must give the same float,
    # since sqrt(fl(a * a)) == |a| in binary64, and so must a brute-force
    # minimum over all pairs
    ps = make()
    x = ps.points[:, 0]
    gaps = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(gaps, np.inf)
    dist, _ = cKDTree(ps.points).query(ps.points, k=2)
    assert dist[:, 1].min() == gaps.min()
    for margin in (0.0, 1.0, 7.5, 150.0):
        assert cs.measure_radii(ps, margin).r_pack == gaps.min() / 2.0


def _covering_exact_1d_searchsorted(xs, R_dom):
    """The d = 1 covering search as it was before it read neighbour gaps."""
    mids = (xs[:-1] + xs[1:]) / 2.0
    q = np.concatenate(([-R_dom, R_dom],
                        mids[(mids >= -R_dom) & (mids <= R_dom)]))
    pos = np.searchsorted(xs, q)
    left = np.abs(q - xs[np.clip(pos - 1, 0, len(xs) - 1)])
    right = np.abs(xs[np.clip(pos, 0, len(xs) - 1)] - q)
    return float(np.minimum(left, right).max())


def test_line_covering_equals_the_searchsorted_search():
    sets = [cs.gen_lattice(1, 300.0), cs.gen_poisson_disk(1, 300.0, 0.7, seed=2),
            cs.gen_poisson_disk(1, 300.0, 1.3, seed=4)]
    sets += [cs.gen_jittered(1, 300.0, eta, seed=5) for eta in (0.0, 0.25, 0.49)]
    for ps in sets:
        xs = np.sort(ps.points.ravel())
        sites = np.insert(xs, np.searchsorted(xs, 0.0), 0.0)  # as measure_radii
        for margin in (0.0, 1.0, 7.5, 150.0, 299.9):
            R_dom = ps.region_radius - margin
            want = _covering_exact_1d_searchsorted(sites, R_dom)
            assert pointsets._covering_exact_1d(sites, R_dom) == want
    # neighbours one ulp apart: their midpoint rounds onto a site
    a = 1.0
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 in (a, b)
    sites = np.array([-3.0, -1.25, 0.0, a, b, np.nextafter(4.0, 0.0), 4.0])
    for R_dom in (0.5, 1.0, 2.0, 3.9, 10.0):
        want = _covering_exact_1d_searchsorted(sites, R_dom)
        assert pointsets._covering_exact_1d(sites, R_dom) == want


# (r_pack, r_cover, probe_resolution) recorded at the commit before the
# covering search skipped children bounded through their parent's site.
# The Poisson r_pack was re-recorded when r_pack began to cover every stored
# point, not the margin core: 0.7500712356332758 -> 0.7500072076209777, half
# the brute-force minimum over all point pairs (its r_cover and
# probe_resolution are unchanged)
PINNED_RADII = [
    (lambda: cs.gen_jittered(3, 20.0, 0.25, 3),
     (0.2562676176945162, 0.9940537658155995, 0.10825317547305491)),
    (lambda: cs.gen_poisson_disk(3, 15.0, 1.5, seed=3),
     (0.7500072076209777, 1.645749516511485, 0.10825317547305491)),
]


@pytest.mark.parametrize("make, want", PINNED_RADII, ids=["jitter", "poisson"])
def test_covering_search_is_bit_identical_to_recorded_radii(make, want):
    got = cs.measure_radii(make(), 2.0)
    assert (got.r_pack, got.r_cover, got.probe_resolution) == want


def _kd_must_not_run(*args, **kwargs):
    raise AssertionError("the packing radius took a KD query")


def test_certified_packing_radius_is_min_of_structural_and_measured(grid_sets,
                                                                    monkeypatch):
    # bit for bit against min(structural, measured) on the grid sets, the
    # two lattices the benchmark's CLI workload runs, the toy pair (integral,
    # but structural 1.0 > 1/2, so measured) and a lattice with an extra
    # site 0.3 from its neighbour (measured 0.15 < 0.5)
    sets = [(ps, radii.r_pack) for ps, radii in grid_sets[0].values()]
    base = cs.gen_lattice(1, 500.0)
    lattices = (cs.gen_lattice(2, 100.0), cs.gen_lattice(3, 15.0))
    with monkeypatch.context() as m:
        # a lattice's radius is written by its generator, not measured
        m.setattr(pointsets, "_nearest", _kd_must_not_run)
        assert [ps._r_pack_certified for ps in lattices] == [0.5, 0.5]
    for ps in lattices + (
            cs.PointSet(1, np.array([[1.0], [-1.0]]), 1.0e9,
                        meta={"r_pack_structural": 1.0}),
            cs.PointSet(1, np.vstack([base.points, [[100.3]]]), 500.0,
                        meta={"r_pack_structural": 0.5})):
        got = ps._r_pack_certified
        sets.append((ps, cs.measure_radii(ps).r_pack))
        assert ps._r_pack_certified == got
    for ps, measured in sets:
        want = min(float(ps.meta["r_pack_structural"]), measured)
        assert ps._r_pack_certified == want, ps.meta
    assert sets[-1][1] == pytest.approx(0.15) and sets[-2][1] == 1.0
    # a one-point set measures +inf, so it gets its structural radius, and
    # the tail bound still refuses a radius larger than the region
    tiny = cs.PointSet(1, np.array([[1.0]]), 1.0, meta={"r_pack_structural": 2.0})
    assert tiny._r_pack_certified == 2.0
    with pytest.raises(ValueError, match="region"):
        cs.delone_tail_sum(tiny, None, 2.0, 0.5)
    bare = cs.PointSet(1, np.arange(1.0, 50.0).reshape(-1, 1), 50.0)
    with pytest.raises(ValueError, match="r_pack_structural"):
        bare._r_pack_certified


def test_jittered_packing_radius_is_proved_from_distinct_anchors(monkeypatch):
    # every row lies within eta <= jitter of the distinct integer anchor
    # gen_jittered enumerated, so pairs lie >= 1 - 2 jitter apart and the
    # generator writes the structural radius: no KD query; a hand-built
    # set is measured
    monkeypatch.setattr(pointsets, "_nearest", _kd_must_not_run)
    for d in (1, 2, 3):
        for eta in (0.1, 0.25, 0.49):
            ps = cs.gen_jittered(d, 12.0, eta, seed=3)
            assert ps._r_pack_certified == (1.0 - 2.0 * eta) / 2.0
            assert "_r_pack_measured" not in ps.__dict__
    twins = cs.PointSet(2, [[0.9, 3.0], [1.1, 3.0], [4.0, 0.0]], 10.0,
                        meta={"r_pack_structural": 0.05})
    signed = cs.PointSet(2, [[-0.4, 3.0], [0.3, 3.0]], 10.0,
                         meta={"r_pack_structural": 0.05})
    for ps in (twins, signed):
        with pytest.raises(AssertionError, match="KD query"):
            ps._r_pack_certified
    monkeypatch.undo()
    assert twins._r_pack_certified == 0.05
    assert twins._r_pack_measured == pytest.approx(0.1)
    assert signed._r_pack_certified == 0.05
    assert signed._r_pack_measured == pytest.approx(0.35)


def test_copies_of_a_generated_set_take_the_kd_query(monkeypatch):
    # only the generator passes the radius it proves: an exact and a
    # reversed copy of a jittered set, and hand-built integral sets (a
    # lattice's rows, in order and reversed), take one KD query each and get
    # the generator's float
    calls = []

    def counted(points):
        calls.append(len(points))
        return real(points)

    real = pointsets._nearest
    for d in (2, 3):
        jit = cs.gen_jittered(d, 6.0, 0.3, seed=7)
        lat = cs.gen_lattice(d, 6.0)
        jit_copies = (
            cs.PointSet(d, jit.points.copy(), 6.0, meta=dict(jit.meta)),
            cs.PointSet(d, jit.points[::-1], 6.0, meta=dict(jit.meta)))
        lat_copies = (
            cs.PointSet(d, lat.points, 6.0, meta=dict(lat.meta)),
            cs.PointSet(d, lat.points[::-1], 6.0, meta={"r_pack_structural": 0.5}))
        monkeypatch.setattr(pointsets, "_nearest", counted)
        for src, copies in ((jit, jit_copies), (lat, lat_copies)):
            assert src._r_pack_certified == float(src.meta["r_pack_structural"])
            assert calls == []
            for ps in copies:
                assert ps._r_pack_certified == src._r_pack_certified
                assert calls == [src.n_points]
                calls.clear()
        monkeypatch.undo()


@pytest.mark.parametrize("d, R", [(1, 40.0), (2, 9.0), (3, 4.5)])
def test_written_packing_radius_is_at_most_half_the_least_pair_gap(d, R,
                                                                   monkeypatch):
    # soundness of gen_jittered's written radius against every pair, also
    # at non-dyadic jitter, where a float row fl(z + o) can land just past
    # z +- jitter.  Offsets all at -jitter (u = 0) land past it at z = 1
    # (1 - fl(0.7) > 0.3): then nothing is written and the set is measured
    def must_not_measure(self):
        raise AssertionError("the packing radius was measured")

    def least_gap(ps):
        p = ps.points
        gaps = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
        return gaps[~np.eye(p.shape[0], dtype=bool)].min()

    with monkeypatch.context() as m:
        m.setattr(pointsets.PointSet, "_r_pack_measured",
                  property(must_not_measure))
        for eta in (0.0, 0.1, 0.25, 0.3, 0.33, 0.45, 0.49):
            for seed in (1, 2, 3):
                ps = cs.gen_jittered(d, R, eta, seed)
                rp = ps._r_pack_certified
                assert rp == (1.0 - 2.0 * eta) / 2.0 <= least_gap(ps) / 2.0
    monkeypatch.setattr(pointsets, "counter_uniform",
                        lambda seed, *keys: np.zeros(keys[0].shape))
    shifted = cs.gen_jittered(d, R, 0.3, seed=1)
    monkeypatch.setattr(pointsets.PointSet, "_r_pack_measured",
                        property(must_not_measure))
    with pytest.raises(AssertionError, match="measured"):
        shifted._r_pack_certified
    monkeypatch.undo()
    assert shifted._r_pack_certified == 0.2 <= least_gap(shifted) / 2.0


def test_a_lattice_reads_its_packing_radius_without_a_kd_query(monkeypatch):
    # gen_lattice's output of more than 2d sites (R = 15 and R = sqrt 2)
    # holds e_1 and e_1 + e_2, 1 apart, so it measures 1/2 with no KD query,
    # the float the query gives; a lattice of 2d sites (R = 1.2) and every
    # set that is not gen_lattice's output take the query, including
    # integral sets holding a unit pair (axis0, wide)
    small = [cs.gen_lattice(d, 1.2) for d in (2, 3)]
    evens = [cs.PointSet(d, 2.0 * cs.gen_lattice(d, 15.0).points, 30.0)
             for d in (2, 3)]
    diagonal = cs.PointSet(2, [[1.0, 0.0], [2.0, 1.0]], 5.0)
    axis0 = cs.PointSet(2, [[3.0, 0.0], [4.0, 0.0], [0.0, 7.0]], 10.0)
    wide = cs.PointSet(3, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-2e6, 0.0, 0.0],
                           [0.0, -2e6, 0.0], [0.0, 0.0, -2e6]], 3e6)
    with monkeypatch.context() as m:
        m.setattr(pointsets, "_nearest", _kd_must_not_run)
        for d in (2, 3):
            for R in (15.0, math.sqrt(2.0)):
                lat = cs.gen_lattice(d, R)
                assert lat.n_points > 2 * d
                assert lat._r_pack_measured == 0.5 == min_pair_distance(lat) / 2.0
        for ps in small + evens + [diagonal, axis0, wide]:
            with pytest.raises(AssertionError, match="KD query"):
                ps._r_pack_measured
    for lat in small:
        p = lat.points
        gaps = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
        brute = gaps[~np.eye(p.shape[0], dtype=bool)].min()
        assert lat.n_points == 2 * lat.dim
        assert lat._r_pack_measured == math.sqrt(2.0) / 2.0 == brute / 2.0
    for even in evens:
        assert even._r_pack_measured == 1.0 == min_pair_distance(even) / 2.0
    assert diagonal._r_pack_measured == math.sqrt(2.0) / 2.0
    assert axis0._r_pack_measured == 0.5 == wide._r_pack_measured


def test_no_lattice_path_builds_rows(monkeypatch):
    # a lattice holds its shells and its proofs: built while _probe_lattice
    # fails, it runs every lattice path with no row enumerated, and its
    # rows, read afterwards, are the recorded read-only ones.  A jittered
    # set and a set far sparser than its ball, which a row check would
    # enumerate, are recognised as no lattice with no rows enumerated
    jitter = cs.gen_jittered(3, 8.0, 0.25, 3)
    sparse = cs.PointSet(3, 2.0 * cs.gen_lattice(3, 1.5).points, 1e5)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the rows were enumerated")

    with monkeypatch.context() as m:
        m.setattr(pointsets, "_probe_lattice", must_not_run)
        lattices = {case: cs.gen_lattice(*case) for case in LATTICE_DIGESTS}
        for (d, R), ps in lattices.items():
            c = math.sqrt(d) / 2.0
            margins = ((0.0, 0.2, 0.5, 1.0, R - 0.5, R - 0.25) if d == 1
                       else (c, 1.0, R / 2.0))
            for margin in margins:
                radii = cs.measure_radii(ps, margin)
                assert radii.r_pack == 0.5
                assert radii.r_cover == min(c, R - margin) or margin < c
            radii = cs.measure_radii(ps, 2.0)
            alpha = d + 1.0
            assert ps._r_pack_certified == 0.5
            assert cs.delone_tail_sum(ps, None, alpha, 2.0).err > 0.0
            assert cs.sandwich_check(ps, radii, alpha, 3.0).holds
            assert cs.check_annulus_bounds(ps, radii, 1.0, R).holds
            assert cs.count_annulus(ps, 1.0, R) == ps.n_points
            prof = cs.evaluate_profile(ps, None, alpha, 1.0,
                                       np.linspace(0.0, 1.0, 5), 2.0)
            assert (prof.err <= 2.0).all()
            assert "points" not in ps.__dict__ and "radii" not in ps.__dict__
        for ps, margin in ((jitter, 2.0), (sparse, sparse.region_radius - 1.0)):
            assert ps._r_cover is None
            # searched, though margin >= sqrt(3)/2: a lattice reads
            # probe resolution 0
            assert cs.measure_radii(ps, margin).probe_resolution > 0.0
        assert cs.measure_radii(jitter, 2.0).r_pack == jitter._r_pack_measured
        assert sparse._r_pack_measured == 1.0
    for case, ps in lattices.items():
        assert _digest(ps) == LATTICE_DIGESTS[case]
        assert ps.n_points == ps.points.shape[0]
        assert not ps.points.flags.writeable and not ps.radii.flags.writeable
        assert ps.points is ps.points and ps.radii is ps.radii
        with pytest.raises(ValueError, match="read-only"):
            ps.points[0, 0] = 0.0


# names a set holds, whether given to its constructor or measured on it
_HELD = ("points", "radii", "meta", "dim", "n_points", "_r_pack", "_r_cover",
         "_shell_index", "_r_pack_measured", "_r_pack_certified")


def _assert_read_only(ps):
    for name in _HELD:
        with pytest.raises(AttributeError):
            setattr(ps, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(ps, name)


def test_a_point_set_is_read_only():
    # only the constructor writes a set: setting or deleting a row array,
    # meta, dim or a proof raises on a lattice before and after its rows
    # are read, on a jittered set and on a hand-built set, and every array
    # it hands out is read-only
    lattice = cs.gen_lattice(2, 6.0)
    _assert_read_only(lattice)
    assert "points" not in vars(lattice) and "radii" not in vars(lattice)
    jitter = cs.gen_jittered(2, 6.0, 0.25, 3)
    hand = cs.PointSet(2, [[1.0, 0.0], [0.0, 2.0]], 5.0,
                       meta={"r_pack_structural": 0.5})
    for ps in (lattice, jitter, hand):
        arrays = (ps.points, ps.radii) + ps.shells(0.0)
        _assert_read_only(ps)
        assert not any(a.flags.writeable for a in arrays)
        assert ps.points is arrays[0] and ps.radii is arrays[1]


def test_meta_is_read_only():
    # a certificate cannot depend on when meta is written: writing to it
    # raises, on generated and hand-built sets, and a hand-built set holds
    # a copy of the mapping it was given
    poisson = cs.gen_poisson_disk(2, 10.0, 1.0, 0)
    given = {"r_pack_structural": 0.5}
    hand = cs.PointSet(1, [[1.0], [3.0]], 5.0, meta=given)
    given["r_pack_structural"] = 100.0
    for ps in (poisson, cs.gen_lattice(2, 6.0), cs.gen_jittered(2, 6.0, 0.25, 3),
               hand, cs.PointSet(1, [[1.0]], 5.0)):
        with pytest.raises(TypeError):
            ps.meta["r_pack_structural"] = 100.0
    assert hand.meta["r_pack_structural"] == 0.5
    assert poisson._r_pack_certified == 0.5


@pytest.mark.parametrize("structural", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ps: cs.delone_tail_sum(ps, None, 3.0, 2.0),
    lambda ps: cs.check_annulus_bounds(ps, cs.DeloneRadii(0.5, 0.5), 1.0, 10.0),
    lambda ps: cs.evaluate_profile(ps, None, 3.0, 2.0,
                                   np.linspace(0.0, 1.0, 3), 2.0),
], ids=["delone_tail_sum", "check_annulus_bounds", "evaluate_profile"])
def test_a_structural_packing_radius_must_be_finite_and_positive(call,
                                                                 structural):
    # 0, a negative or a nan radius bounds nothing, and +inf would leave
    # the measured radius, which nothing proves beyond the window, as the
    # certified one: each is refused by name through every reader
    ps = cs.PointSet(1, np.arange(1.0, 50.0)[:, None], 50.0,
                     meta={"r_pack_structural": structural})
    with pytest.raises(ValueError, match="r_pack_structural"):
        call(ps)


def test_packing_radius_is_measured_once_per_set(monkeypatch):
    ps = cs.gen_jittered(2, 12.0, 0.25, 3)
    radii = cs.measure_radii(ps, 2.0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the packing radius was measured again")

    monkeypatch.setattr(pointsets, "_nearest", must_not_run)
    assert ps._r_pack_certified == min(0.25, radii.r_pack)
    assert cs.sandwich_check(ps, radii, 3.0, 6.0).holds
    assert cs.check_annulus_bounds(ps, radii, 1.0, 8.0).holds


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
        assert pointsets._covering_bnb(sites, d, R_dom, res) == want


def test_stopped_covering_search_equals_the_full_search(monkeypatch):
    # with margin >= the structural covering radius c, measure_radii reads
    # (c, 0) with no KD query and no search, the full search's pair bit for
    # bit; with margin < c the search runs, since it can then exceed c near
    # the window's edge.  In d = 1 the full search is the exact one.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a lattice with margin >= c was searched")

    for d, radii_at in ((1, (3.8, 10.9)), (2, (10.0, 17.5, 30.0, 9.95)),
                        (3, (6.0, 9.95, 14.0))):
        for R in radii_at:
            ps = cs.gen_lattice(d, R)
            sites = np.concatenate([ps.points, np.zeros((1, d))], axis=0)
            c = ps._r_cover
            assert c == math.sqrt(d) / 2
            for margin in (c, c + 0.5, 0.0, c / 2):
                if d == 1:
                    full = (pointsets._covering_exact_1d(
                        np.sort(sites[:, 0]), R - margin), 0.0)
                else:
                    full = pointsets._covering_bnb(sites, d, R - margin,
                                                   pointsets._RESOLUTION[d])
                with monkeypatch.context() as m:
                    if margin >= c:
                        m.setattr(pointsets, "_nearest", must_not_run)
                        m.setattr(pointsets, "_covering_exact_1d", must_not_run)
                    got = cs.measure_radii(ps, margin)
                assert (got.r_cover, got.probe_resolution) == full
                if margin >= c:
                    assert full == (c, 0.0)
                else:
                    assert full[0] + full[1] > c


def test_structural_covering_radius_bounds_the_full_search(grid_sets):
    # the oracle of a lattice's proved covering radius: the full search's r_cover +
    # probe_resolution never exceeds it.  The grid lattices run the full
    # search here; jittered and Poisson sets have no structural bound.
    for (d, kind), (ps, radii) in grid_sets[0].items():
        c = ps._r_cover
        if d == 1:
            continue
        if kind != "lattice":
            assert c is None, (d, kind)
            continue
        sites = np.concatenate([ps.points, np.zeros((1, d))], axis=0)
        full = pointsets._covering_bnb(sites, d, ps.region_radius - RADII_MARGIN,
                                       pointsets._RESOLUTION[d])
        assert full == (radii.r_cover, radii.probe_resolution)
        assert radii.r_cover_upper <= c == math.sqrt(d) / 2, d


def test_a_lattice_missing_a_site_gets_no_structural_covering_radius(
        monkeypatch):
    # the proved covering radius is what gen_lattice passes, not meta or
    # the rows: Z^2 in R = 20 with the site (-10, 0) deleted, its meta
    # copied, has a hole that the full search finds; an exact copy and a
    # reordered copy carry none of the values gen_lattice passes: each
    # takes a KD query for its packing radius, and the search gives the
    # lattice's radii on each
    ps = cs.gen_lattice(2, 20.0)
    gone = (ps.points == [-10.0, 0.0]).all(axis=1)
    holed = cs.PointSet(dim=2, points=ps.points[~gone], region_radius=20.0,
                     meta=dict(ps.meta))
    assert holed._r_cover is None
    radii = cs.measure_radii(holed, 2.0)
    sites = np.concatenate([holed.points, np.zeros((1, 2))], axis=0)
    full = pointsets._covering_bnb(sites, 2, 18.0, pointsets._RESOLUTION[2])
    assert (radii.r_cover, radii.probe_resolution) == full
    assert radii.r_cover > 0.96 > math.sqrt(2) / 2
    copy = cs.PointSet(dim=2, points=ps.points.copy(), region_radius=20.0)
    shuffled = cs.PointSet(dim=2, points=ps.points[::-1], region_radius=20.0,
                        meta=dict(ps.meta))
    assert ps._r_cover == math.sqrt(2) / 2
    for other in (copy, shuffled):
        with monkeypatch.context() as m:
            m.setattr(pointsets, "_nearest", _kd_must_not_run)
            with pytest.raises(AssertionError, match="KD query"):
                other._r_pack_measured
        assert other._r_cover is None
        for margin in (0.0, 2.0):
            assert cs.measure_radii(other, margin) == cs.measure_radii(ps, margin)


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


def test_kd_queries_read_no_environment(monkeypatch):
    # every KD query runs through _nearest: the radii, the fill sweep of
    # gen_poisson_disk (this set leaves budget-dead cells) and
    # insertable_probes; no CENTRALSPIN_THREADS value, valid or not,
    # changes any of them
    def run():
        ps = cs.gen_poisson_disk(2, 10.0, 1.0, seed=4)
        return (ps.points.tobytes(), cs.measure_radii(ps),
                cs.measure_radii(cs.gen_lattice(2, 10.0)),
                cs.insertable_probes(ps).tobytes())

    monkeypatch.delenv("CENTRALSPIN_THREADS", raising=False)
    unset = run()
    for value in ("0", "two", "-1", "1"):
        monkeypatch.setenv("CENTRALSPIN_THREADS", value)
        assert run() == unset, value


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
        rr = np.sort(norms)
        # ends at stored radii and at region_radius pin both closed ends
        ends = [(float(rr[17]), float(rr[k])) for k in (18, 60, rr.size // 2)]
        ends += [(float(rr[17]), ps.region_radius), (0.0, ps.region_radius)]
        for a, b in [(1.0, 4.0), (3.0, 17.5), (10.0, 11.0)] + ends:
            got = cs.count_annulus(ps, a, b)
            assert type(got) is int
            assert got == int(((norms >= a) & (norms <= b)).sum())


def test_annulus_bounds_hold_on_every_kind(grid_sets):
    for (d, kind), (ps, radii) in grid_sets[0].items():
        rep = cs.check_annulus_bounds(ps, radii, 2.0 * radii.r_cover_upper, 25.0)
        assert rep.holds, (d, kind)
        assert rep.lower <= rep.n_sites <= rep.upper


def test_annulus_bounds_require_inner_radius_at_least_packing(grid_sets):
    ps, radii = grid_sets[0][(1, "lattice")]
    with pytest.raises(ValueError):
        cs.check_annulus_bounds(ps, radii, 0.1 * radii.r_pack, 10.0)
