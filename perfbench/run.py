"""algscope benchmark: one command per workload run.

Run from the root of an algscope checkout:

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 28 --trace 0

Workloads: analyze-large, verify-small, cli-roundtrip (see workloads.py).

``--trace 0`` measures the end-to-end metrics with no wrappers loaded: the
set-up time (median over fresh interpreters that import algscope and build
the inputs), then one closed loop in a fresh process for wall time,
throughput, op latency and peak memory.  Every time in these metrics is
host-normalised: the reference kernel of ``calibrate.py`` is timed right
before and right after each op and each set-up, and the time is scaled by
the kernel's nominal time over the mean of the two passes, so that a shared
host's drift in speed does not read as a change in the program; the run
and every process it starts stay on one CPU, so the kernel and the ops share
a core.  The raw times are in the record.  ``--trace 1`` instead runs half the rounds with
span wrappers installed and the same rounds without, and reports per-layer
calls, inclusive and self seconds (raw), counts, and the two runs' loop wall
times and their difference, the tracing overhead (host-normalised).

Every op's output is checked.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
list every metric with its unit and a JSON record of the run's inputs and
environment.  ``correct`` is false when any of the benchmark's own output
checks fails or an op raises; ``failed`` also counts ops whose output the
program itself reports as failing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("analyze-large", "verify-small", "cli-roundtrip")

#: timed fresh-interpreter set-ups per run, half before the loop (after one
#: untimed warm-up that fills the bytecode and file caches) and half after
#: it, so the median spans the run rather than one moment of a shared host
SETUP_REPEATS = 6

#: samples the latency tail needs beyond it
TAIL_SUPPORT = 10

CHILD_TIMEOUT_S = 170

#: one BLAS thread in every process: ops run one process at a time, and the
#: reference kernel must run alike here and in the workers
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _handle:
    _BENCHMARK = json.load(_handle)

#: metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    trace: {m["name"]: m["unit"] for m in _BENCHMARK[key]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer"))
}


def child_env() -> dict:
    env = {**os.environ, **BLAS_PINS}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> int | None:
    """Keep this process and every process it starts on one CPU, so that the
    reference kernel runs on the core the ops it scales ran on (a CLI op runs
    in a child process, which could otherwise land on another core)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_worker(env: dict, args: argparse.Namespace, seconds: float, *flags: str):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", repr(seconds), *flags] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(flags) or 'run'} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return elapsed, (json.loads(lines[-1]) if lines else None)


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_SUPPORT
    samples beyond it; the maximum when there are too few samples."""
    n = len(sorted_values)
    if n <= TAIL_SUPPORT:
        return 100.0, sorted_values[-1]
    return 100.0 * (n - TAIL_SUPPORT) / n, sorted_values[n - TAIL_SUPPORT - 1]


def op_summary(result: dict) -> dict:
    ops = result["ops"]
    failed = [op for op in ops if op[3] or op[4] or op[5]]
    wrong = [op for op in ops if op[4] or op[5]]
    return {"attempted": len(ops), "failed": len(failed), "wrong": len(wrong), "failures": failed}


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "algscope", "__init__.py")):
        print("error: run from the root of an algscope checkout (src/algscope is missing)",
              file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    env = child_env()
    os.environ.update(BLAS_PINS)
    from calibrate import Reference, factor

    reference = None if args.trace else Reference()

    def normalised(result: dict) -> tuple[list[float], float]:
        """Host-normalised op latencies and loop wall time of a worker run."""
        refs = result["refs"]
        scales = [factor(before, after) for before, after in zip(refs, refs[1:])]
        ops = result["ops"]
        return ([op[1] * k for op, k in zip(ops, scales)],
                sum(op[2] * k for op, k in zip(ops, scales)))

    def time_setups(count: int) -> list[tuple[float, float]]:
        """(raw, host-normalised) seconds of ``count`` set-ups."""
        times = []
        before = reference.time()
        for _ in range(count):
            elapsed = run_worker(env, args, args.seconds, "--setup-only")[0]
            after = reference.time()
            times.append((elapsed, elapsed * factor(before, after)))
            before = after
        return times

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process at a time",
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_commit": git_commit(),
    }
    if args.trace:
        _, traced = run_worker(env, args, args.seconds / 2, "--trace")
        _, twin = run_worker(env, args, args.seconds / 2)
        summary = op_summary(traced)
        metrics = dict(traced["layers"])
        traced_wall, twin_wall = normalised(traced)[1], normalised(twin)[1]
        metrics["bench.traced_wall_s"] = traced_wall
        metrics["bench.untraced_wall_s"] = twin_wall
        metrics["bench.trace_overhead_s"] = traced_wall - twin_wall
        metrics["bench.trace_overhead_share"] = (traced_wall - twin_wall) / twin_wall
        twin_summary = op_summary(twin)
        summary["wrong"] += twin_summary["wrong"]
        record.update(env=traced["env"], sizes=traced["sizes"], spans_file=traced["spans_file"],
                      span_count=traced["span_count"], untraced_failed=twin_summary["failed"],
                      raw={"traced_wall_s": traced["wall_s"], "untraced_wall_s": twin["wall_s"]})
    else:
        setups = time_setups(SETUP_REPEATS // 2 + 1)[1:]
        _, result = run_worker(env, args, args.seconds)
        summary = op_summary(result)
        latencies, wall = normalised(result)
        latencies.sort()
        tail_q, tail_value = tail(latencies)
        metrics = {
            "wall_s": wall,
            "ops_per_s": len(latencies) / wall,
            "op_s.p50": statistics.median(latencies),
            "op_s.tail": tail_value,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        setups += time_setups(SETUP_REPEATS - len(setups))
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
        raw = sorted(op[1] for op in result["ops"])
        record.update(env=result["env"], sizes=result["sizes"], ops=len(latencies),
                      tail_percentile=tail_q, reference_pass_s=statistics.median(result["refs"]),
                      raw={"wall_s": result["wall_s"], "op_s.p50": statistics.median(raw),
                           "op_s.tail": tail(raw)[1],
                           "setup_s": statistics.median(elapsed for elapsed, _ in setups)})
    units = UNITS[args.trace]
    record["failed_ratio"] = summary["failed"] / summary["attempted"]
    record["failures"] = [
        {"op": label, "verdicts": verdicts, "problems": problems, "error": error}
        for label, _, _, verdicts, problems, error in summary["failures"]
    ]

    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"(op_s.tail is p{record['tail_percentile']:.2f}: {TAIL_SUPPORT} of "
              f"{record['ops']} ops were slower)")
    print(f"{'failed_ratio':44s} {record['failed_ratio']:>16.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} ops)")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
