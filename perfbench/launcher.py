"""Traced stand-in for ``python -m algscope.cli``.

Usage: ``PERFBENCH_SPANS=spans.json python3 perfbench/launcher.py <cli args>``

Times ``import algscope.cli``, installs the span wrappers, runs
``algscope.cli.main`` with the given arguments, writes the spans and counters
to the file named by ``PERFBENCH_SPANS`` and exits with main's exit code.
"""

import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import algscope.cli

    end = time.perf_counter()
    from tracer import CLI_IMPORT, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.add_span(CLI_IMPORT, start, end)
    try:
        return algscope.cli.main(sys.argv[1:])
    finally:
        tracer.op = None
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
