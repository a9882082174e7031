"""Traced child process of the cli-wide workload.

Times the import of ``vtcomp.cli``, installs the span wrappers, runs
``vtcomp.cli.main`` with the remaining arguments and writes the spans.

Usage: python cli_child.py SPANS_OUT OP_ID VTCOMP_ARGS...
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (this script's directory is sys.path[1])


def main(argv: list[str]) -> int:
    spans_out, op, args = argv[0], int(argv[1]), argv[2:]
    tracer = spans.Tracer()
    tracer.op = op
    start = time.perf_counter_ns()
    import vtcomp.cli
    tracer.record("cli.import", start, time.perf_counter_ns())
    with tracer.installed(spans.targets()):
        code = vtcomp.cli.main(args)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
