"""Shared fixtures: the standard point-set grid and large line/plane sets.

Point sets are expensive to generate (the d=3 ball at R_max = 60 holds
roughly a million sites), so every set used by more than one test is built
once per session here.  All generation parameters are frozen: tests must
see byte-identical samples on every run.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import centralspin as cs

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the standard generation grid: three kinds in each dimension
GRID_RMAX = {1: 200.0, 2: 200.0, 3: 60.0}
JITTER_ETA = 0.25
JITTER_SEED = 11
POISSON_SEED = 7
POISSON_RMIN = {1: 1.0, 2: 1.0, 3: 1.5}
KINDS = ("lattice", "jitter", "poisson")
# stable small integers for seeding per-kind randomness (never hash():
# string hashes are process-salted and would unseed the suite)
KIND_ID = {"lattice": 0, "jitter": 1, "poisson": 2}

RADII_MARGIN = 2.0


def build_set(d: int, kind: str) -> cs.PointSet:
    R = GRID_RMAX[d]
    if kind == "lattice":
        return cs.gen_lattice(d, R)
    if kind == "jitter":
        return cs.gen_jittered(d, R, JITTER_ETA, JITTER_SEED)
    return cs.gen_poisson_disk(d, R, POISSON_RMIN[d], POISSON_SEED)


@pytest.fixture(scope="session")
def grid_sets():
    """(d, kind) -> (PointSet, DeloneRadii) plus the total build time.

    Returns (sets, build_seconds); the acceptance sweep charges the build
    time against its own runtime budget since the grid exists for it.
    """
    t0 = time.perf_counter()
    sets = {}
    for d in (1, 2, 3):
        for kind in KINDS:
            ps = build_set(d, kind)
            radii = cs.measure_radii(ps, margin=RADII_MARGIN)
            sets[(d, kind)] = (ps, radii)
    return sets, time.perf_counter() - t0


@pytest.fixture(scope="session")
def line_large():
    """d=1 lattice out to R_max = 5e5: window radii up to 100 stay certified."""
    ps = cs.gen_lattice(1, 5.0e5)
    return ps, cs.measure_radii(ps)


@pytest.fixture(scope="session")
def line_wide():
    """d=1 lattice out to R_max = 6000: enough for envelope runs at r = 20."""
    ps = cs.gen_lattice(1, 6000.0)
    return ps, cs.measure_radii(ps)


@pytest.fixture(scope="session")
def plane_kilo():
    """d=2 lattice out to R_max = 1000 (~3.1 million sites).

    Profiles read only the set's own packing radius, so no radii are
    measured.
    """
    return cs.gen_lattice(2, 1000.0)


def mirrored_times(t_max: float, n_pos: int) -> np.ndarray:
    """A time grid symmetric about 0 with bit-exact negation of each node.

    np.linspace over [-T, T] does not produce exactly mirrored floats;
    building the positive half and concatenating its negation does.
    """
    tpos = np.linspace(0.0, t_max, n_pos)
    return np.concatenate([-tpos[:0:-1], tpos])
