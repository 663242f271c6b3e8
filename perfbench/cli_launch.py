"""Traced `python -m confgeo.cli`: wrap confgeo's layers, run the CLI, keep its exit code.

Usage: cli_launch.py SPANS_FILE CLI_ARGS...

The import of confgeo (what a cold CLI process pays first) is recorded as
the `cli.import` span; the spans are written to SPANS_FILE as JSON lines
after `confgeo.cli.main` returns.
"""

import time

T0 = time.perf_counter()

import confgeo.cli  # noqa: E402

T1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Span, Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.phase = "pass"
    tracer.spans.append(Span("cli.import", T0, T1, -1, 0, tracer.phase, -1))
    tracer.install()
    try:
        code = confgeo.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.dump())
    return code


if __name__ == "__main__":
    sys.exit(main())
