"""End-to-end command-line runs: outputs, sidecars, determinism, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import centralspin
from centralspin import cli

CLI = [sys.executable, "-m", "centralspin"]

# The child runs in `tmp_path`, where a relative PYTHONPATH (such as `src`)
# finds nothing. So the directory holding the package this process imported,
# a checkout's `src` or an install's site-packages, goes first on the child's
# PYTHONPATH as an absolute path.
PACKAGE_ROOT = Path(centralspin.__file__).resolve().parent.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(PACKAGE_ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run_cli(*args, cwd):
    return subprocess.run(CLI + list(args), cwd=cwd, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=300)


def test_points_writes_csv_and_sidecar(tmp_path):
    res = run_cli("points", "--dim", "2", "--set", "poisson", "--rmax", "15",
                  "--seed", "7", "--out", "pts.csv", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader((tmp_path / "pts.csv").open()))
    assert rows[0] == ["x1", "x2"]
    assert len(rows) > 100
    side = json.loads((tmp_path / "pts.csv.json").read_text())
    assert side["config"]["subcommand"] == "points"
    assert side["version"]
    assert side["radii"]["r_pack"] >= 0.5  # hard-core 1.0 => packing >= 0.5


def test_identical_config_is_byte_identical(tmp_path):
    for name in ("a.csv", "b.csv"):
        res = run_cli("points", "--dim", "1", "--set", "jitter", "--seed",
                      "5", "--rmax", "50", "--out", name, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bounds_report_holds(tmp_path):
    res = run_cli("bounds", "--dim", "1", "--set", "lattice", "--rmax", "200",
                  "--alpha", "2", "--r", "5", "10", "--out", "b.json",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["all_hold"] is True
    assert [row["r"] for row in doc["rows"]] == [5.0, 10.0]
    for row in doc["rows"]:
        assert row["lower"] <= row["sum"] - row["err"]
        assert row["sum"] + row["err"] <= row["upper"]


def test_bounds_alpha_defaults_to_dim_plus_one(tmp_path):
    res = run_cli("bounds", "--dim", "2", "--rmax", "20", "--out", "b.json",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["config"]["params"]["alpha"] == 3.0
    assert doc["all_hold"] is True


def test_ramsey_profile_csv(tmp_path):
    res = run_cli("ramsey", "--dim", "1", "--alpha", "2", "--r", "10",
                  "--rmax", "2000", "--tmax", "4", "--dt", "0.01",
                  "--out", "prof.csv", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader((tmp_path / "prof.csv").open()))
    assert rows[0]["t"] == "0" and rows[0]["C"] == "1" and rows[0]["err"] == "0"
    assert len(rows) == 401
    side = json.loads((tmp_path / "prof.csv.json").read_text())
    assert side["compact_bound_ok"] is True
    assert side["s2"]["value"] > 0


def test_ramsey_refusal_exits_cleanly(tmp_path):
    res = run_cli("ramsey", "--dim", "1", "--alpha", "1", "--r", "10",
                  "--rmax", "500", "--tol", "0.001", "--out", "x.csv",
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "region_radius" in res.stderr
    assert not (tmp_path / "x.csv").exists()


def test_spectra_product_emits_pi_row(tmp_path):
    # pi joins a grid that misses it; a grid of step pi/2 already holds
    # fl(pi), which is not written twice
    for grid, n_rows in ((["--tmax", "10"], 1002),
                         (["--tmax", "4", "--dt", "1.5707963267948966"], 4)):
        res = run_cli("spectra", "product", "--base", "3", *grid,
                      "--out", "sp.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader((tmp_path / "sp.csv").open()))
        ts = [float(r["t"]) for r in rows]
        assert len(ts) == n_rows, grid
        assert all(a < b for a, b in zip(ts, ts[1:])), grid
        pi_rows = [r for r in rows if float(r["t"]) == math.pi]
        assert len(pi_rows) == 1
        assert abs(float(pi_rows[0]["C"]) - 0.46627457895504917) < 1e-8


def test_spectra_cantor_roundtrip_columns(tmp_path):
    res = run_cli("spectra", "cantor", "--n", "100", "--depth", "40",
                  "--seed", "1", "--out", "ca.csv", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader((tmp_path / "ca.csv").open()))
    assert len(rows) == 100
    for row in rows:
        assert abs(float(row["x"]) - float(row["C_of_D"])) < 2.0 ** -40 + 1e-12


def test_basis_report_is_orthonormal(tmp_path):
    res = run_cli("basis", "--pairs", "20", "--kmax", "4", "--nrange", "5",
                  "--out", "ba.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "ba.json").read_text())
    assert len(doc["orthonormality"]) == 20
    for row in doc["orthonormality"]:
        assert row["inner"] == row["expected"]
    for row in doc["fourier_support"]:
        mag = math.hypot(row["re"], row["im"])
        assert abs(mag - row["predicted_mag"]) < 1e-12


def test_verify_quick_passes(tmp_path):
    res = run_cli("verify", "--quick", cwd=tmp_path)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "all 10 checks passed" in res.stdout


def test_bad_arguments_exit_two(tmp_path, monkeypatch, capsys):
    res = run_cli("ramsey", "--dim", "7", "--out", "x.csv", cwd=tmp_path)
    assert res.returncode == 2
    res = run_cli(cwd=tmp_path)
    assert res.returncode == 2
    # grids and sample counts that build nothing are refused, not a
    # traceback or a header-only CSV
    monkeypatch.chdir(tmp_path)
    for argv in (["ramsey", "--dt", "0"], ["spectra", "product", "--dt", "0"],
                 ["spectra", "product", "--dt", "-1"],
                 ["spectra", "product", "--tmax", "-1"],
                 ["spectra", "product", "--tmax", "nan"],
                 ["spectra", "cantor", "--n", "-5"],
                 ["spectra", "cantor", "--n", "0"],
                 ["ramsey", "--dt", "inf"]):
        assert cli.run(argv + ["--out", "x.csv"]) == 2, argv
        assert capsys.readouterr().err.startswith("error: --"), argv
        assert not (tmp_path / "x.csv").exists(), argv
    # ramsey runs no covering search, so it has no --margin to shape one
    with pytest.raises(SystemExit) as exit_:
        cli.run(["ramsey", "--margin", "1", "--out", "x.csv"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --margin 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_window_past_expm1_range_is_refused_not_a_traceback(tmp_path,
                                                           monkeypatch, capsys):
    # t_max^2 * s_tail is far above what expm1 takes: the certificate is
    # the trivial 2, which tol 0.1 refuses
    monkeypatch.chdir(tmp_path)
    argv = ["ramsey", "--dim", "1", "--alpha", "1", "--r", "1", "--rmax", "560",
            "--tmax", "1000", "--dt", "100", "--tol", "0.1", "--out", "x.csv"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: truncation certificate 2 exceeds tol=0.1 at t=1000")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sub", ["points", "bounds", "ramsey"])
@pytest.mark.parametrize("rmax", ["inf", "nan"])
def test_non_finite_region_exits_two(sub, rmax, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run([sub, "--rmax", rmax, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "R_max" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--dim", "3", "--alpha", "2", "--rmax", "40"],
     "tail sum diverges unless alpha > d"),
    (["bounds", "--alpha", "nan"], "tail sum diverges unless alpha > d"),
    (["ramsey", "--dim", "3", "--alpha", "1", "--rmax", "30"],
     "normalization diverges unless 2*alpha > dim"),
    (["ramsey", "--alpha", "inf"], "alpha must be positive and finite"),
    (["ramsey", "--dim", "2", "--tol", "0"], "tol must be > 0"),
    (["points", "--margin", "nan"], "margin must be >= 0"),
    (["bounds", "--margin", "-1"], "margin must be >= 0"),
    (["ramsey", "--tmax", "1e12", "--dt", "1e-3"],
     "--tmax/--dt ask for 1e+15 time rows, more than the cap of 16777216"),
    (["spectra", "--tmax", "1e300", "--dt", "1e290"],
     "--tmax/--dt ask for 1e+10 time rows, more than the cap of 16777216"),
    (["basis", "--pairs", "-1"], "--pairs and --nrange must be >= 0"),
    (["basis", "--nrange", "-2"], "--pairs and --nrange must be >= 0"),
    (["basis", "--kmax", "-1"], "--kmax must be in [0, 20] with largest "
     "Fourier index 2^kmax * nrange + 2^(kmax-1) <= 10^6, got --kmax -1 "
     "--nrange 10"),
    (["basis", "--kmax", "17"], "--kmax must be in [0, 20] with largest "
     "Fourier index 2^kmax * nrange + 2^(kmax-1) <= 10^6, got --kmax 17 "
     "--nrange 10"),
    (["spectra", "cantor", "--depth", "53", "--n", "5"],
     "--depth must be in [1, 52] for cantor, got 53"),
    (["basis", "--pairs", "1000000000000"],
     "--pairs asks for 1000000000000 pairs, more than the cap of 16777216"),
    (["spectra", "cantor", "--n", "1000000000000"],
     "--n asks for 1000000000000 samples, more than the cap of 16777216"),
    (["points", "--dim", "1", "--rmax", "1e13"],
     "--rmax 1e+13 exceeds 3.35544e+07, the largest window in d = 1 whose "
     "ball holds at most the cap of 67108864 sites"),
    (["ramsey", "--dim", "1", "--rmax", "1e13"],
     "--rmax 1e+13 exceeds 3.35544e+07, the largest window in d = 1 whose "
     "ball holds at most the cap of 67108864 sites"),
    (["bounds", "--dim", "3", "--set", "jitter", "--rmax", "251"],
     "--rmax 251 exceeds 250.363, the largest window in d = 3 whose ball "
     "holds at most the cap of 67108864 sites"),
], ids=["bounds-d3-alpha2", "bounds-alpha-nan", "ramsey-d3-alpha1",
        "ramsey-alpha-inf", "ramsey-tol0", "points-margin-nan",
        "bounds-margin-negative", "ramsey-grid-too-long",
        "spectra-grid-too-long", "basis-pairs-negative",
        "basis-nrange-negative", "basis-kmax-negative",
        "basis-kmax-too-large", "spectra-cantor-depth-53",
        "basis-pairs-too-many", "spectra-cantor-n-too-many",
        "points-d1-window-too-wide", "ramsey-d1-window-too-wide",
        "bounds-d3-jitter-window-too-wide"])
def test_bad_flags_are_refused_before_the_set_is_built(argv, message, tmp_path,
                                                        monkeypatch, capsys):
    # nothing is built or sampled before the refusal
    def must_not_run(*args, **kwargs):
        raise AssertionError("the point set was built before the refusal")

    for name in ("gen_lattice", "gen_jittered", "gen_poisson_disk",
                 "measure_radii"):
        monkeypatch.setattr(cli.pointsets, name, must_not_run)
    for name in ("counter_uniform", "counter_uniform_open"):
        monkeypatch.setattr(cli, name, must_not_run)
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv + ["--out", "x.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--dim", "1", "--alpha", "800", "--rmax", "100", "--r", "10"],
     "sum at alpha = 800.0 leaves the normal float range"),
    (["ramsey", "--dim", "1", "--alpha", "200", "--r", "10", "--rmax", "100",
      "--tmax", "1", "--dt", "0.5"],
     "sum at alpha = 400.0 leaves the normal float range"),
    (["ramsey", "--dim", "1", "--rmax", "1.2", "--alpha", "1000", "--r", "1",
      "--tmax", "1", "--dt", "0.5"],
     "tail integral at alpha = 2000.0 overflows the float range"),
], ids=["bounds-alpha-800", "ramsey-alpha-200", "ramsey-alpha-1000"])
def test_tail_sums_outside_the_float_range_exit_two(argv, message, tmp_path,
                                                    monkeypatch, capsys):
    # the tail sum, or the S2 normalisation at 2 alpha, underflows or
    # overflows: a refusal, not a zero sum or a crash
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv + ["--out", "x.csv"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not os.listdir(tmp_path)


def test_a_wide_poisson_window_meets_its_grid_refusal(tmp_path, monkeypatch,
                                                      capsys):
    # the --rmax cap bounds lattice and jittered windows only: a Poisson
    # window's sites scale with --rmin, and its occupancy grid refuses it
    monkeypatch.chdir(tmp_path)
    assert cli.run(["points", "--set", "poisson", "--rmax", "1e13",
                    "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: R_max / r_min too large for the occupancy grid\n")
    assert not os.listdir(tmp_path)


def test_a_poisson_window_past_the_cell_cap_is_refused_before_any_grid(
        tmp_path, monkeypatch, capsys):
    # d = 1 at --rmax 5e8 asks for about 1e9 grid cells, under the int32
    # index limit, and once ended in a numpy allocation traceback (exit 1)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        rc = cli.run(["points", "--dim", "1", "--set", "poisson", "--rmax",
                      "5e8", "--out", "pp.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: R_max / r_min too large for the occupancy grid\n")
    assert peak < 1 << 20
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["points", "--dim", "2", "--set", "jitter", "--rmax", "5"],
    ["points", "--dim", "2", "--set", "poisson", "--rmax", "5"],
    ["basis"],
    ["spectra", "cantor"],
], ids=["points-jitter", "points-poisson", "basis", "spectra-cantor"])
@pytest.mark.parametrize("seed", [str(2 ** 63), "-99999999999999999999"])
def test_a_seed_outside_int64_exits_two(argv, seed, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv + ["--seed", seed, "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == (
        f"error: seed must be an integer in [-2^63, 2^63), got {seed}\n")
    assert not os.listdir(tmp_path)


# Runs the given CLI command (or none) in a fresh interpreter and reports
# whether scipy got imported: only a KD query should load it.  A lattice
# and a jittered set are built with the packing radius their generator
# proves, so ramsey on either queries no tree in any dimension (d = 3 at
# its default window); a lattice's radii at margin >= sqrt(d)/2 are read,
# not searched, so `points` queries none.
SCIPY_PROBE = """\
import sys
import centralspin
from centralspin import cli
rc = cli.run(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(rc, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads_scipy", [
    ([], False),
    (["spectra", "product", "--tmax", "2", "--out", "sp.csv"], False),
    (["spectra", "cantor", "--n", "20", "--out", "ca.csv"], False),
    (["basis", "--pairs", "5", "--kmax", "3", "--nrange", "2",
      "--out", "ba.json"], False),
    (["bounds", "--dim", "1", "--rmax", "100", "--r", "5", "--out", "b.json"],
     False),
    (["ramsey", "--dim", "1", "--alpha", "2", "--rmax", "2000", "--tmax", "4",
      "--dt", "0.1", "--out", "r.csv"], False),
    (["ramsey", "--dim", "2", "--alpha", "1.5", "--tol", "2", "--rmax", "100",
      "--out", "r2.csv"], False),
    (["ramsey", "--dim", "3", "--alpha", "2", "--tol", "2", "--out", "r3.csv"],
     False),
    (["points", "--dim", "2", "--set", "poisson", "--rmax", "8",
      "--out", "p.csv"], True),
    (["points", "--dim", "3", "--set", "lattice", "--rmax", "20", "--margin",
      "2", "--out", "p3.csv"], False),
    (["ramsey", "--dim", "2", "--set", "jitter", "--alpha", "1.5", "--tol", "2",
      "--rmax", "30", "--out", "rj.csv"], False),
], ids=["import", "spectra-product", "spectra-cantor", "basis", "bounds-d1",
        "ramsey-d1", "ramsey-d2", "ramsey-d3-default-window", "points-poisson",
        "points-d3-lattice", "ramsey-d2-jitter"])
def test_scipy_is_imported_only_by_a_kd_query(argv, loads_scipy, tmp_path):
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                         cwd=tmp_path, env=CHILD_ENV, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", str(loads_scipy)]


# sha256 of every file that each command writes, recorded from a checkout of
# the commit before the CLI's sidecars and reports shared one writer; sp.csv
# re-recorded when its err column began to cover argument and product
# rounding (its t and C columns hash as before); pj.csv.json re-recorded
# when r_pack began to cover every stored point, not the margin core: only
# its r_pack line changed, 0.2791691961486913 -> 0.2731331585253967, half the
# brute-force minimum over all point pairs of the set; prof.csv.json and
# p2.csv.json re-recorded when ramsey lost --margin (it runs no covering
# search): only the line "margin": 0.0 left config.params; b.json, prof.csv,
# prof.csv.json, p2.csv and p2.csv.json re-recorded when the tail-sum
# interval was rounded outward: only err values (b.json, sidecars s2/s4,
# the CSV err column) and the CSV bound_rhs column moved, err by at most
# 2.1e-10 relative, bound_rhs by at most 7e-16 relative; t, C and gauss
# hash as before
ARTIFACT_DIGESTS = [
    (["points", "--dim", "2", "--set", "poisson", "--rmax", "15", "--seed", "7",
      "--out", "pts.csv"],
     {"pts.csv": "f1292292974c877951c1087ca7f5d30acb09016604e174003c6ba1dac592ebd4",
      "pts.csv.json": "5710de5074e825eabe523b7557ca0b25d37cec1c4bbdf5e4e7b3b656502f7804"}),
    (["points", "--dim", "3", "--set", "jitter", "--rmax", "6", "--seed", "2",
      "--margin", "1", "--out", "pj.csv"],
     {"pj.csv": "9eba18f6bf5ac0a4584f1d13f02ae56f982bf0254c7ea71aabde953c20e1f59b",
      "pj.csv.json": "8dc0e53bcfd1573ffc2ada6dcc1b3574fc239bba7d6b7ea44f8167b68cc2638c"}),
    (["bounds", "--dim", "1", "--rmax", "200", "--alpha", "2", "--r", "5", "10",
      "--out", "b.json"],
     {"b.json": "a0075c6704ebf017d210cc21d25637e607e5a5119568872bcfd22ead263d477c"}),
    (["ramsey", "--dim", "1", "--alpha", "2", "--r", "10", "--rmax", "2000",
      "--tmax", "4", "--dt", "0.01", "--out", "prof.csv"],
     {"prof.csv": "be565476d88085c41369ba8a4dd837b1ec47e777ede2e1465959aa69c5e8aec5",
      "prof.csv.json": "b0df991f189b116f76feb05681ccb711163efa30ee1f439ff3830bbe4a0b5b83"}),
    (["ramsey", "--dim", "2", "--alpha", "1.5", "--tol", "2", "--rmax", "60",
      "--tmax", "3", "--dt", "0.05", "--out", "p2.csv"],
     {"p2.csv": "7c98a550c033172b67bf92060ed3e387ec56dae168e288f797c6f3a48a5426ce",
      "p2.csv.json": "05ad9a5798b10aa6e0bfd73ce8809fb77cdc751ec40b1e92fd7769e4c7f83f4e"}),
    (["spectra", "product", "--base", "3", "--tmax", "10", "--out", "sp.csv"],
     {"sp.csv": "4159e1ac344e835edbf8207ec284f22185606d55f52c3c328fae51d7955f64a9",
      "sp.csv.json": "759d09b10efa6e7a6779029b3042c0439dc974b66f0b056700814a46d8fa13fd"}),
    (["spectra", "cantor", "--n", "100", "--depth", "40", "--seed", "1",
      "--out", "ca.csv"],
     {"ca.csv": "c82c18ffbe53c0761998a03568160f3364ac2f4d3f7e13c0727579d3121247b0",
      "ca.csv.json": "28a64b21664e370a95ed611313342572b15983a85f77261eb900e8fa18fc8801"}),
    (["basis", "--pairs", "20", "--kmax", "4", "--nrange", "5", "--out", "ba.json"],
     {"ba.json": "1cdc9359f709874f7b0c5beb6699e22063fa00ca5bfe701c1c8a1ecfc1833f3f"}),
]


def test_artifacts_are_byte_identical_to_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in ARTIFACT_DIGESTS:
        before = set(os.listdir(tmp_path))
        assert cli.run(argv) == 0, argv
        written = set(os.listdir(tmp_path)) - before
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in written}
        assert got == want, argv


def test_ramsey_on_a_jittered_set_runs_no_covering_search(tmp_path, monkeypatch):
    # a jittered set's packing radius is proved from its integer anchors
    # (no KD query, see SCIPY_PROBE), and the covering search never runs.
    # pj2.csv and its sidecar were re-recorded when the tail-sum interval
    # was rounded outward: only err values and the bound_rhs column moved,
    # by at most 4.3e-15 relative
    def must_not_run(*args, **kwargs):
        raise AssertionError("ramsey ran the covering search")

    monkeypatch.setattr(cli.pointsets, "_covering_bnb", must_not_run)
    monkeypatch.chdir(tmp_path)
    argv = ["ramsey", "--dim", "2", "--set", "jitter", "--alpha", "1.5",
            "--tol", "2", "--rmax", "30", "--tmax", "3", "--dt", "0.05",
            "--out", "pj2.csv"]
    assert cli.run(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(tmp_path)}
    assert got == {
        "pj2.csv": "9d199ec50c0683c7f5a14e967d355aff6a66640a7355cf95e88bb618d4ae8ea2",
        "pj2.csv.json": "c5089d259e017e0de84ef4623c0bc9ea3072ad29b2b9ae45fb50e3f260a9db09"}
