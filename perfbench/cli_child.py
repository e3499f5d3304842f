"""Run the flagtutte command line with every layer traced.

    PYTHONPATH=src python3 perfbench/cli_child.py <flagtutte arguments>

Stdout and the exit code are those of ``python3 -m flagtutte.cli``.  The
last line on stderr is ``TRACE_PREFIX`` and a JSON object holding the
spans, the counts, and the CLOCK_MONOTONIC times at which this script
started and finished importing flagtutte.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import flagtutte.cli  # noqa: E402

IMPORTED = time.monotonic()

from tracing import TRACE_PREFIX, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = flagtutte.cli.main(sys.argv[1:])
    except SystemExit as exc:   # argparse usage errors exit with 2
        code = exc.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        payload = tracer.payload()
        payload.update(started=STARTED, imported=IMPORTED)
        sys.stderr.write(TRACE_PREFIX + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
