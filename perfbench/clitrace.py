"""Run one lenswall CLI command with the layer tracer installed.

Usage: PERFBENCH_TRACE_PREFIX=<path prefix> python3 clitrace.py <command args>

Behaves like `python -m lenswall <command args>` (same output and exit
status) and, on the way out, writes the layer totals to
<prefix>.totals.json and the spans to <prefix>.spans.json.  Process-pool
workers started by `sweep --jobs N` are not traced.
"""

import json
import os
import sys

import lenswall.cli
from tracing import Tracer
from workloads import cold_start_guard


def main() -> int:
    prefix = os.environ["PERFBENCH_TRACE_PREFIX"]
    cold_start_guard()
    tracer = Tracer()
    tracer.install()
    try:
        return lenswall.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
        with open(prefix + ".totals.json", "w") as fh:
            json.dump(tracer.totals(), fh)
        tracer.dump_spans(prefix + ".spans.json")


if __name__ == "__main__":
    sys.exit(main())
