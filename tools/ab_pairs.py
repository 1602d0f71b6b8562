"""Compare two algscope checkouts on one benchmark workload, in pairs of runs.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload verify-small --seeds 901-910

For each seed it runs ``perfbench/run.py --workload W --seed S --seconds 28
--trace 0`` once in each checkout, one after the other; the side that runs
first alternates from seed to seed, so a drift of the host's speed does not
favour one side.  Each run prints one line as it ends.  Then, for each
end-to-end metric of the change's ``BENCHMARK.json``, it prints each side's
median and quartiles, the parent's interquartile range, how many pairs
each side won, by the metric's own direction (ties are counted for
neither), and a verdict (:func:`verdict`).  The last lines give each side's
failed ops.  The tool only calls the benchmark; it changes nothing in
either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "28", "--trace", "0"]
    # the benchmark puts the checkout's own src on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the run in {checkout} at seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    parent: tuple[float, float, float], c_median: float, change_wins: int, pairs: int,
    sign: float, bound: float,
) -> str:
    """"gain" when the change wins at least 9 in 10 of the ``pairs`` and its
    median ``c_median`` beats the parent's by more than the parent's
    interquartile range, from ``parent``, the parent's :func:`quartiles`;
    "worse" when its median is worse than the parent's by more than
    ``bound`` times the parent's median, the metric's relative bound in
    ``BENCHMARK.json``; "unresolved" otherwise.  ``sign`` is 1.0 for a
    metric where lower is better and -1.0 where higher is."""
    q1, p_median, q3 = parent
    if 10 * change_wins >= 9 * pairs and sign * (p_median - c_median) > q3 - q1:
        return "gain"
    if sign * (c_median - p_median) > bound * abs(p_median):
        return "worse"
    return "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for position, seed in enumerate(args.seeds):
        order = ["parent", "change"] if position % 2 == 0 else ["change", "parent"]
        for side in order:
            out = run_once(sides[side], args.workload, seed)
            results[side].append(out)
            values = " ".join(
                f"{m['name']}={out['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"seed {seed} {side:6s} failed={out['failed']}/{out['attempted']} {values}",
                  flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs (seeds {args.seeds[0]}-{args.seeds[-1]})")
    header = f"{'metric':12s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
    print(header + f" {'parent IQR':>11s} {'change':>7s} {'parent':>7s}  wins  verdict")
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        old = [r["metrics"][name]["value"] for r in results["parent"]]
        new = [r["metrics"][name]["value"] for r in results["change"]]
        change_wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        parent_wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        p, c = quartiles(old), quartiles(new)
        print(
            f"{name:12s} {p[0]:10.5g} {p[1]:10.5g} {p[2]:10.5g} {c[0]:10.5g} {c[1]:10.5g} "
            f"{c[2]:10.5g} {p[2] - p[0]:11.4g} {change_wins:7d} {parent_wins:7d}  "
            f"{verdict(p, c[1], change_wins, len(old), sign, m['bound'])}"
        )
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        wrong = sum(not r["correct"] for r in results[side])
        print(f"{side}: {failed} of {attempted} ops failed; {wrong} runs not correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
