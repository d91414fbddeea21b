"""Run one centralspin CLI command in this fresh process with tracing on.

Usage: python3 cli_child.py SRC_DIR SPANS_OUT SUBCOMMAND [ARGS...]

Imports the package from SRC_DIR, notes the monotonic time at which the
imports are done, wraps the library's public functions, runs the argv
through the public ``centralspin.cli.run`` inside a ``cli.<subcommand>``
span, restores the functions and writes the spans to SPANS_OUT as JSON.
Exits with the command's exit code.
"""

import sys
import time


def main() -> int:
    src, spans_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import centralspin
    from centralspin import cli

    ready = time.monotonic()
    import json
    from dataclasses import asdict

    import tracer

    tr = tracer.Tracer(tracer.COUNTERS)
    installed = tr.install(centralspin)
    try:
        with tr.span("cli." + argv[0]):
            rc = cli.run(argv)
    finally:
        tracer.Tracer.restore(installed)
    with open(spans_out, "w") as fh:
        json.dump({"ready": ready, "spans": [asdict(sp) for sp in tr.spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
