"""The benchmark's workloads: inputs built from a seed, and one op per input.

Every workload is a single-caller closed loop: the next op starts when the
previous one has returned.  The number of rounds is fixed from ``--seconds``
and the round time measured at the commit that added the benchmark, so
both sides of a comparison do the same work and a faster program finishes
sooner.

- ``analyze-large``: what ``algscope analyze`` does, in process (validate,
  decompose, JSON report) on random functionals over Mat_5, Mat_6, Mat_7,
  tri_8 and Mat_4 + tri_4.  The invariant checks inside ``decompose`` and the
  N^4 tensors of ``validate`` dominate; each input is decomposed once.
- ``verify-small``: one ``run_suites`` call with every suite in
  ``verify.SUITE_NAMES`` and the default ten functionals per small algebra
  (Mat_3, Mat_4, tri_5, S3, Klein, Mat_2 + S3).  Repeated ``decompose`` /
  ``reduce_pencil`` calls, products and thousands of small SVDs dominate;
  ``validate`` never runs.
- ``cli-roundtrip``: one ``python -m algscope.cli`` process per op on small
  algebras: builders that write algebra files, ``analyze --frames`` twice on
  the same input (the two reports must be byte-identical) and ``verify
  --functionals 10 --negative-control``.  Interpreter start, the package
  import, parsing and serialisation dominate.

An op's check returns ``(verdicts, problems)``: ``verdicts`` are failures the
program reports about its own output (a failed invariant, a failed gating
finding, a non-zero exit); ``problems`` come from the benchmark's own checks
in ``checks.py``.  Either makes the op count as failed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from algscope import algebra, report, spectral, verify
from algscope.functional import random_functional

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

#: seconds per round at the commit that added the benchmark, reference
#: passes of calibrate.py included, on a shared 2-vCPU x86-64 host (Python
#: 3.11, numpy 2.4, OpenBLAS on one thread).  At --seconds 28 they give 6, 9
#: and 12 rounds.  The rounds are fixed, so each order statistic of the op
#: latencies always falls in the same input's ops, and these counts keep the
#: latency tail (the 11th slowest op) off the slowest op of an input, which
#: one slow moment of a shared host can move: on analyze-large the tail is
#: the second fastest Mat_6 op and the median the middle tri_8 ops; on
#: verify-small the tail is the second slowest Mat_3 op and the median lies
#: among the tri_5 and Mat_2 + S3 ops, whose latencies are close; on
#: cli-roundtrip the tail is the second fastest verify op
ROUND_SECONDS = {"analyze-large": 5.5, "verify-small": 3.15, "cli-roundtrip": 2.4}

#: workloads whose ops run in child processes, whose memory is then the
#: one that counts
PROCESS_OPS = frozenset({"cli-roundtrip"})

#: functionals per ``run_suites`` call and per CLI ``verify``: the default
#: of both ``run_suites`` and ``algscope verify --functionals``
N_FUNCTIONALS = 10

CLI_TIMEOUT_S = 120


@dataclass
class Context:
    """Where a run keeps its files, and the tracer of a traced run."""

    workdir: str
    tracer: object | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[str]]]


def rounds_for(name: str, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the measured round time."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[name]))


def rung_bytes(name: str, alg) -> dict:
    """Computed (not measured) sizes of an input's dense tensors."""
    n = alg.dim
    return {
        "input": name,
        "N": n,
        "structure_tensor_bytes": 16 * n**3,
        # validate holds (e_i e_j) e_k, e_i (e_j e_k), their difference
        # (complex128) and its modulus (float64) at once
        "validate_intermediate_bytes": (3 * 16 + 8) * n**4,
        "label": "computed",
    }


# --------------------------------------------------------------------------
# analyze-large


def _analyze_inputs(tiny: bool):
    if tiny:
        return [
            ("Mat_2", algebra.mat_algebra(2), 2),
            ("Mat_3", algebra.mat_algebra(3), 3),
            ("tri_3", algebra.upper_triangular(3), None),
            ("Mat_2+tri_2", algebra.direct_sum(algebra.mat_algebra(2), algebra.upper_triangular(2)), None),
        ]
    return [
        ("Mat_5", algebra.mat_algebra(5), 5),
        ("Mat_6", algebra.mat_algebra(6), 6),
        ("Mat_7", algebra.mat_algebra(7), 7),
        ("tri_8", algebra.upper_triangular(8), None),
        ("Mat_4+tri_4", algebra.direct_sum(algebra.mat_algebra(4), algebra.upper_triangular(4)), None),
    ]


def analyze_in_process(alg, f, seed: int):
    """``algscope analyze`` without the files: validate, decompose, report."""
    rep = algebra.validate(alg, spectral.DEFAULT_TOL)
    if not rep.passed:
        return rep, None, None
    dec = spectral.decompose(alg, f, seed=seed)
    return rep, dec, report.report_from_decomposition(dec, seed).to_json()


def check_analyze(alg, f, matrix_n, out) -> tuple[list[str], list[str]]:
    rep, dec, text = out
    if not rep.passed:
        return ["validate failed"], []
    verdicts = [f"check failed: {c.name}" for c in dec.checks if not c.passed]
    return verdicts, checks.analyze_report_problems(text, alg.structure, f.coords, matrix_n)


def _analyze_large(seed: int, rounds: int, ctx: Context, tiny: bool):
    inputs = _analyze_inputs(tiny)
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(rounds):
        for name, alg, matrix_n in inputs:
            f = random_functional(alg.dim, rng)
            op_seed = int(rng.integers(2**31))
            ops.append(
                Op(
                    name,
                    lambda alg=alg, f=f, s=op_seed: analyze_in_process(alg, f, s),
                    lambda out, alg=alg, f=f, n=matrix_n: check_analyze(alg, f, n, out),
                )
            )
    return ops, [rung_bytes(name, alg) for name, alg, _ in inputs]


# --------------------------------------------------------------------------
# verify-small


def _verify_inputs(tiny: bool):
    small_sum = algebra.direct_sum(
        algebra.mat_algebra(2), algebra.group_algebra(algebra.symmetric3_table())
    )
    if tiny:
        return [("Mat_2", algebra.mat_algebra(2)), ("Mat_2+S3", small_sum)]
    return [
        ("Mat_3", algebra.mat_algebra(3)),
        ("Mat_4", algebra.mat_algebra(4)),
        ("tri_5", algebra.upper_triangular(5)),
        ("S3", algebra.group_algebra(algebra.symmetric3_table())),
        ("Klein", algebra.group_algebra(algebra.klein_table())),
        ("Mat_2+S3", small_sum),
    ]


def _verify_small(seed: int, rounds: int, ctx: Context, tiny: bool):
    inputs = _verify_inputs(tiny)
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(rounds):
        for name, alg in inputs:
            op_seed = int(rng.integers(2**31))
            ops.append(
                Op(
                    name,
                    lambda alg=alg, s=op_seed: verify.run_suites(
                        alg, verify.SUITE_NAMES, n_functionals=N_FUNCTIONALS, seed=s
                    ),
                    lambda out: (
                        checks.gating_failures(out),
                        checks.findings_problems(out, N_FUNCTIONALS),
                    ),
                )
            )
    return ops, [rung_bytes(name, alg) for name, alg in inputs]


# --------------------------------------------------------------------------
# cli-roundtrip


def run_cli(ctx: Context, args: list[str], out: str) -> tuple[int, str]:
    """One CLI process; traced runs go through the launcher and fold its
    spans into the op that is running."""
    if os.path.exists(out):
        os.remove(out)
    env = None
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "algscope.cli", *args]
    else:
        spans = os.path.join(ctx.workdir, "spans.json")
        if os.path.exists(spans):
            os.remove(spans)
        cmd = [sys.executable, LAUNCHER, *args]
        env = {**os.environ, "PERFBENCH_SPANS": spans}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if ctx.tracer is not None:
        with open(spans, encoding="utf-8") as handle:
            ctx.tracer.merge(json.load(handle), ctx.tracer.op)
    return proc.returncode, proc.stderr


def _exit_verdict(code: int, stderr: str) -> list[str]:
    if code == 0:
        return []
    last = stderr.strip().splitlines()[-1:]
    return [f"exit {code}" + (f": {last[0]}" if last else "")]


def check_algebra_file(path: str, expected, out) -> tuple[list[str], list[str]]:
    code, stderr = out
    if code != 0:
        return _exit_verdict(code, stderr), []
    try:
        got = report.load_algebra(path)
    except Exception as exc:  # an unreadable file is a wrong output
        return [], [f"{path} does not load: {type(exc).__name__}: {exc}"]
    if got.dim != expected.dim or not (
        np.array_equal(got.structure, expected.structure) and np.array_equal(got.unit, expected.unit)
    ):
        return [], [f"{path} does not hold the expected dim-{expected.dim} algebra"]
    return [], []


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def check_analyze_file(path, alg, f, matrix_n, out, same_as=None) -> tuple[list[str], list[str]]:
    code, stderr = out
    text = _read(path)
    if text is None:
        return _exit_verdict(code, stderr), [f"{path} was not written"]
    problems = checks.analyze_report_problems(text, alg.structure, f.coords, matrix_n)
    if same_as is not None and text != _read(same_as):
        problems.append(f"{path} differs from {same_as} for identical invocations")
    verdicts = _exit_verdict(code, stderr)
    if verdicts:
        doc, _ = checks.parse_report(text)
        failed = [name for name, passed, _, _ in doc.checks if not passed] if doc else []
        verdicts = [f"{verdicts[0]} (failed checks: {', '.join(failed)})"]
    return verdicts, problems


def check_verify_file(path, n_functionals, out) -> tuple[list[str], list[str]]:
    code, stderr = out
    text = _read(path)
    if text is None:
        return _exit_verdict(code, stderr), [f"{path} was not written"]
    doc, problems = checks.parse_report(text)
    if doc is None:
        return _exit_verdict(code, stderr), problems
    controls = [f for f in doc.findings if checks.is_control(f)]
    if len(controls) != 1:
        problems.append(f"{len(controls)} negative-control findings, expected 1")
    return _exit_verdict(code, stderr), problems + checks.findings_problems(
        doc.findings, n_functionals
    )


def _cli_roundtrip(seed: int, rounds: int, ctx: Context, tiny: bool):
    n = 2 if tiny else 4
    k = N_FUNCTIONALS
    w = ctx.workdir
    mat, group = algebra.mat_algebra(n), algebra.group_algebra(algebra.symmetric3_table())
    total = algebra.direct_sum(mat, group)
    mirrored = algebra.opposite(total)
    files = {name: os.path.join(w, name) for name in ("m.alg", "g.alg", "sum.alg", "opp.alg")}
    a1, a2, v = (os.path.join(w, name) for name in ("a1.json", "a2.json", "v.json"))
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(rounds):
        f = random_functional(mat.dim, rng)
        fn = os.path.join(w, f"f{r}.fn")
        report.save_functional(f, fn)
        s = str(int(rng.integers(2**31)))
        analyze = ["analyze", files["m.alg"], fn, "--frames", "--seed", s]
        steps = [
            ("builders matrix", ["builders", "matrix", str(n)], files["m.alg"],
             lambda out: check_algebra_file(files["m.alg"], mat, out)),
            ("builders group", ["builders", "group", "s3"], files["g.alg"],
             lambda out: check_algebra_file(files["g.alg"], group, out)),
            ("builders direct-sum", ["builders", "direct-sum", files["m.alg"], files["g.alg"]],
             files["sum.alg"], lambda out: check_algebra_file(files["sum.alg"], total, out)),
            ("builders opposite", ["builders", "opposite", files["sum.alg"]], files["opp.alg"],
             lambda out: check_algebra_file(files["opp.alg"], mirrored, out)),
            ("analyze", analyze, a1,
             lambda out, f=f: check_analyze_file(a1, mat, f, n, out)),
            ("analyze repeat", analyze, a2,
             lambda out, f=f: check_analyze_file(a2, mat, f, n, out, same_as=a1)),
            ("verify", ["verify", files["g.alg"], "--functionals", str(k), "--negative-control",
                        "--seed", s], v,
             lambda out: check_verify_file(v, k, out)),
        ]
        for label, args, out_path, check in steps:
            cli_args = args + ["--out", out_path]
            ops.append(Op(label, lambda a=cli_args, o=out_path: run_cli(ctx, a, o), check))
    sizes = [rung_bytes(f"Mat_{n}", mat), rung_bytes("S3", group), rung_bytes(f"Mat_{n}+S3", total)]
    return ops, sizes


BUILDERS = {
    "analyze-large": _analyze_large,
    "verify-small": _verify_small,
    "cli-roundtrip": _cli_roundtrip,
}


def build(name: str, seed: int, seconds: float, ctx: Context, tiny: bool = False):
    """Set up a workload: clear its directory, build its inputs (and input
    files) and return ``(ops, computed sizes per input)``."""
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    os.makedirs(ctx.workdir)
    return BUILDERS[name](seed, rounds_for(name, seconds), ctx, tiny)
