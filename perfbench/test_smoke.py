"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from algscope import algebra, verify  # noqa: E402
from algscope.functional import random_functional  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    if trace:
        record = json.loads(next(line for line in lines if line.startswith("record: "))[8:])
        assert os.path.isfile(os.path.join(ROOT, record["spans_file"]))


def test_fails_without_a_checkout():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify-small", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _analyze_text(n: int = 3):
    alg = algebra.mat_algebra(n)
    f = random_functional(alg.dim, np.random.default_rng(5))
    _, dec, text = workloads.analyze_in_process(alg, f, seed=1)
    return alg, f, dec, text


def test_spectrum_checks_pass_on_a_true_answer():
    alg, f, _, text = _analyze_text()
    assert checks.analyze_report_problems(text, alg.structure, f.coords, 3) == []


def _tamper(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["spectrum"][0].update(algebraic_mult=d["spectrum"][0]["algebraic_mult"] + 1),
        lambda d: d["spectrum"].pop(),
        lambda d: d["spectrum"][0].update(alpha=[7.0, 0.0]),
        lambda d: d.update(spectrum="not a list"),
    ],
    ids=["multiplicity", "missing-point", "moved-point", "unparseable"],
)
def test_spectrum_checks_catch_a_wrong_answer(edit):
    alg, f, _, text = _analyze_text()
    wrong = _tamper(text, edit)
    assert checks.analyze_report_problems(wrong, alg.structure, f.coords, 3)


def test_analyze_op_counts_a_wrong_answer_as_failed():
    alg, f, dec, text = _analyze_text()
    rep = algebra.validate(alg)
    wrong = _tamper(text, lambda d: d["spectrum"].pop())
    assert workloads.check_analyze(alg, f, 3, (rep, dec, text)) == ([], [])
    _, problems = workloads.check_analyze(alg, f, 3, (rep, dec, wrong))
    assert problems


def test_repeat_analyze_must_be_byte_identical():
    alg, f, _, text = _analyze_text()
    first = os.path.join(ROOT, ".perfbench_work", "a1.json")
    second = os.path.join(ROOT, ".perfbench_work", "a2.json")
    os.makedirs(os.path.dirname(first), exist_ok=True)
    with open(first, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(second, "w", encoding="utf-8") as handle:
        handle.write(text.replace("\n", "\n ", 1))
    _, problems = workloads.check_analyze_file(second, alg, f, 3, (0, ""), same_as=first)
    assert any("differs" in p for p in problems)


def test_findings_checks_catch_a_wrong_answer():
    alg = algebra.group_algebra(algebra.klein_table())
    findings = verify.run_suites(alg, verify.SUITE_NAMES, n_functionals=2, seed=4)
    assert checks.findings_problems(findings, 2) == []
    assert checks.findings_problems(findings + [findings[0]], 2)
    broken = dataclasses.replace(findings[0], max_residual=float("nan"))
    assert checks.findings_problems([broken] + findings[1:], 2)
    failed = dataclasses.replace(findings[0], passed=False)
    assert checks.gating_failures([failed]) == [failed.theorem_id]
