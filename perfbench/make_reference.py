"""Write perfbench/reference.json: the reference intervals the output check uses.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/make_reference.py

Only inputs that do not depend on the workload seed are stored: the
line_profile profiles and S2/S4 intervals, the CLI `ramsey` CSVs and
sidecar intervals, the `spectra product` CSV and the `bounds` JSON (rows
subsampled), and the size of the geometry_3d lattice.  Seeded sets are
checked by their properties instead.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def first_iteration(workload) -> dict:
    workload.prepare()
    return workload.iteration()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import centralspin

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        line = workloads.LineProfile(centralspin, 0, Path(tmp))
        cli = workloads.CliSession(centralspin, 0, Path(tmp))
        ref = {
            "commit": run.git_commit(),
            "src_sha256": run.src_digest(),
            line.name: line.reference(first_iteration(line)),
            workloads.Geometry3D.name: {"lattice_points": centralspin.gen_lattice(
                3, workloads.Geometry3D.R_GRID).n_points},
            cli.name: cli.reference(first_iteration(cli)),
        }
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
