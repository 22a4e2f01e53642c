"""Traced stand-in for `python -m schurcalc ARGS`.

Runs schurcalc.cli.main on ARGS with the tracer installed, leaves stdout
untouched, and writes one trace line to stderr after the command:
tracer.TRACE_MARKER followed by JSON.  Needs PYTHONPATH to hold the checkout's src.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    before = time.perf_counter()
    import schurcalc.cli

    import_s = time.perf_counter() - before
    from tracer import TRACE_MARKER, Tracer

    tracer = Tracer()
    tracer.install()
    code = schurcalc.cli.main(sys.argv[1:])
    sys.stdout.flush()
    report = tracer.dump()
    report["process"] = {"started": STARTED, "import_s": import_s}
    sys.stderr.write(TRACE_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
