"""The two entry points of the command line: ``main``, which code that
embeds the CLI calls, and ``run``, which a process that exits next calls
(``python -m algscope.cli`` and the ``algscope`` console script)."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algscope.cli import main

ROOT = Path(__file__).resolve().parents[1]


def fresh(args, cwd):
    """Run this interpreter with ``args`` in ``cwd``, with this checkout's
    package and ALGSCOPE_SEED unset."""
    env = {k: v for k, v in os.environ.items() if k != "ALGSCOPE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(tmp_path, monkeypatch, enabled):
    # tests and tools call main many times in one process
    monkeypatch.chdir(tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count()
        assert main(["builders", "matrix", "2", "--out", "m.alg"]) == 0
        assert main(["verify", "m.alg", "--seed", "-1"]) == 1
        assert gc.get_freeze_count() == before
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_importing_the_cli_loads_no_numpy(tmp_path):
    script = (
        "import sys\n"
        "import algscope.cli\n"
        "heavy = ('numpy', 'algscope.algebra', 'algscope.report')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    done = fresh(["-c", script], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_module_writes_what_main_writes(tmp_path, monkeypatch):
    done = fresh(["-m", "algscope.cli", "builders", "matrix", "2", "--out", "m.alg"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    monkeypatch.chdir(tmp_path)
    assert main(["builders", "matrix", "2", "--out", "again.alg"]) == 0
    assert (tmp_path / "m.alg").read_bytes() == (tmp_path / "again.alg").read_bytes()


def test_module_usage_error_exits_1(tmp_path):
    done = fresh(["-m", "algscope.cli", "verify", "m.alg", "--seed", "-1"], tmp_path)
    assert done.returncode == 1 and done.stdout == ""
    assert "argument --seed: expected an integer >= 0, got '-1'" in done.stderr
    assert done.stderr.startswith("usage: algscope verify")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["builders", "matrix", "3", "--out", "m.alg"], 0),
        (["builders", "dual", "--out", "d.alg"], 0),
        (["builders", "dual", "x"], 1),
    ],
)
def test_run_returns_mains_code_and_freezes(tmp_path, argv, code):
    # a fresh interpreter: run turns the collector off in the process that
    # calls it, so no pass runs while it imports numpy and works
    script = (
        "import gc\n"
        "from algscope.cli import run\n"
        "passes = []\n"
        "gc.callbacks.append(lambda phase, info: passes.append(info['generation']))\n"
        f"code = run({argv!r})\n"
        "print(code, passes, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    done = fresh(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(code), "[]", "False", "True"]
