"""The command-line cases of ``tools/cli_cases.py``, run in process through
``algscope.cli.main``.  CI runs the same table through the installed
console script."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from algscope.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_cases  # noqa: E402
from cli_cases import Cmd, cmd  # noqa: E402


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ALGSCOPE_SEED", raising=False)
    return tmp_path


def test_every_case_passes_in_process(scratch):
    calls = []

    def counted(argv):
        calls.append(argv)
        return in_process(argv)

    cli_cases.run(counted)
    rows = [row for row in cli_cases.CASES if isinstance(row, Cmd)]
    assert len(calls) == len(rows) + sum(row.twice for row in rows)
    # the 60 runs of the shell script the table replaced (54 command lines,
    # three of them in a loop over three inputs), the two tri_4 rows,
    # --version and --help, the three unwritable --out paths, and the five
    # inputs with an integer past float's range or the digit limit
    assert len(calls) == 72 and sum(row.twice for row in rows) == 14


# the runner fails on each broken row and names it: a table of rows that
# cannot fail would check nothing


def fails_naming(monkeypatch, rows, *texts, invoke=in_process):
    monkeypatch.setattr(cli_cases, "CASES", rows)
    with pytest.raises(AssertionError) as info:
        cli_cases.run(invoke)
    for text in texts:
        assert text in str(info.value)


def test_a_wrong_exit_code_fails_its_row(scratch, monkeypatch):
    rows = [
        cmd("builders matrix 2 --out m2.alg"),
        cmd("verify m2.alg --seed -1 --out neg.json", code=2),
    ]
    fails_naming(
        monkeypatch,
        rows,
        "row 1, algscope verify m2.alg --seed -1 --out neg.json",
        "exit code 1, expected 2",
        "algscope verify: error: argument --seed",
    )


def test_a_second_run_that_differs_fails_its_row(scratch, monkeypatch):
    def reseeded(argv):
        # the second run of a twice row draws other functionals
        return in_process(argv + ["--seed", "1"] if "again-v.json" in argv else argv)

    rows = [
        cmd("builders matrix 2 --out m2.alg"),
        cmd("verify m2.alg --functionals 2 --out v.json", twice=True),
    ]
    fails_naming(
        monkeypatch,
        rows,
        "row 1, algscope verify m2.alg --functionals 2 --out v.json",
        "v.json and again-v.json differ",
        invoke=reseeded,
    )


def test_a_missing_stderr_text_fails_its_row(scratch, monkeypatch):
    rows = [cmd("verify m2.alg --seed -1 --out neg.json", code=1, stderr=("no such text",))]
    fails_naming(monkeypatch, rows, "row 0, algscope verify", "stderr lacks ['no such text']")


def test_a_failed_step_fails_its_row(scratch, monkeypatch):
    (scratch / "a").write_text("1\n")
    (scratch / "b").write_text("2\n")
    rows = [partial(cli_cases.same_bytes, "a", "b")]
    fails_naming(monkeypatch, rows, "row 0, same_bytes('a', 'b'): failed: a != b")
