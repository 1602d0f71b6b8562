"""One workload run in a fresh process.

Usage (from the root of an algscope checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N --seconds T [--trace] [--setup-only] [--tiny]

Builds the workload's inputs, runs its ops in a closed loop, checks every
output, and prints one JSON object: the loop's wall time, each op's latency,
wall time (the op and its check) and failures, the reference kernel's pass
times, the peak resident memory of the process(es) that ran the ops, and
with ``--trace`` the per-layer metrics.  The reference kernel of
``calibrate.py`` is timed before the first op and after every op, outside
the ops' times and while the tracer records nothing; the loop's wall time
is the sum of the ops' wall times, so it leaves those passes out.
``--setup-only`` stops after the inputs are built; the caller times such
runs as the set-up cost.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    ctx = workloads.Context(os.path.join(".perfbench_work", args.workload))
    ops, sizes = workloads.build(args.workload, args.seed, args.seconds, ctx, args.tiny)
    if args.setup_only:
        return 0

    # one untimed, untraced op first, so lazy imports and first-call set-up
    # in numpy and BLAS are not charged to the loop
    try:
        ops[0].run()
    except Exception:  # the timed loop records the failure
        pass

    from calibrate import Reference

    reference = Reference()
    if args.trace:
        from tracer import Tracer

        ctx.tracer = Tracer()
        ctx.tracer.install()

    refs = [reference.time()]

    records = []
    for index, op in enumerate(ops):
        if ctx.tracer is not None:
            ctx.tracer.op = index
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a raising op is a failed op; keep measuring
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if ctx.tracer is not None:
            ctx.tracer.op = None
        verdicts, problems = [], []
        if error is None:
            try:
                verdicts, problems = op.check(out)
            except Exception as exc:  # a check that cannot read the output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        records.append([op.label, latency, time.perf_counter() - t0, verdicts, problems, error])
        refs.append(reference.time())

    # ru_maxrss is in KiB; for children it is the largest child's peak
    who = resource.RUSAGE_CHILDREN if args.workload in workloads.PROCESS_OPS else resource.RUSAGE_SELF
    result = {
        "wall_s": sum(record[2] for record in records),
        "ops": records,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "sizes": sizes,
        "env": _environment(),
    }
    if ctx.tracer is not None:
        from tracer import layer_metrics

        # beside the work directory, which the next run of the workload clears
        spans_path = ctx.workdir + ".spans.jsonl"
        ctx.tracer.write_spans(spans_path)
        result["layers"] = layer_metrics(ctx.tracer.spans, ctx.tracer.counters)
        result["spans_file"] = spans_path
        result["span_count"] = len(ctx.tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


if __name__ == "__main__":
    sys.exit(main())
