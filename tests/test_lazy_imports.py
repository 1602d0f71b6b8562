"""The package namespace loads submodules on first use, and each CLI
subcommand imports only the modules it runs: ``verify`` forms no chi, so it
never loads ``numpy.fft``, and a command line that runs no subcommand
loads no numpy at all."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import algscope
from algscope import mat_algebra, matrix_trace_functional
from algscope.report import save_algebra, save_functional

ROOT = Path(__file__).resolve().parents[1]
PIPELINE = ("algscope.linalg", "algscope.functional", "algscope.spectral", "algscope.verify")


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter with this checkout's package; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after_main(argv, cwd, code=0):
    """The algscope modules, and ``numpy`` and ``numpy.fft`` when they are
    loaded, after ``main(argv)`` in a new interpreter, which must return
    ``code``.  What main prints is discarded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from algscope.cli import main\n"
        "quiet = io.StringIO()\n"
        "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
        f"    code = main({argv!r})\n"
        "numpy = ('numpy', 'numpy.fft')\n"
        "mods = sorted(m for m in sys.modules if m.startswith('algscope') or m in numpy)\n"
        "print(json.dumps([code, mods]))\n"
    )
    returned, modules = json.loads(run_fresh(script, cwd))
    assert returned == code
    return set(modules)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["builders", "matrix", "2", "--out", "m.alg"], PIPELINE),
        (["builders", "group", "s3", "--out", "g.alg"], PIPELINE),
        (["analyze", "m3.alg", "f.fn", "--frames", "--out", "r.json"], ("algscope.verify",)),
        (["verify", "m3.alg", "--seed", "3", "--out", "v.json"], ("numpy.fft",)),
    ],
)
def test_cli_subcommand_imports_only_the_layers_it_runs(tmp_path, argv, absent):
    save_algebra(mat_algebra(3), str(tmp_path / "m3.alg"))
    save_functional(matrix_trace_functional(np.diag([1.0, 2.0, 5.0])), str(tmp_path / "f.fn"))
    loaded = modules_after_main(argv, tmp_path)
    assert {"algscope.algebra", "algscope.errors", "algscope.report"} <= loaded
    assert loaded.isdisjoint(absent), sorted(loaded.intersection(absent))


@pytest.mark.parametrize(
    "argv, code", [(["--version"], 0), (["--help"], 0), (["verify", "m.alg", "--seed", "-1"], 1)]
)
def test_cli_paths_that_run_no_subcommand_load_no_numpy(tmp_path, argv, code):
    loaded = modules_after_main(argv, tmp_path, code)
    assert loaded.isdisjoint({"numpy", "algscope.algebra", "algscope.report"}), sorted(loaded)


def test_analyze_still_forms_and_reports_chi(tmp_path):
    save_algebra(mat_algebra(3), str(tmp_path / "m3.alg"))
    save_functional(matrix_trace_functional(np.diag([1.0, 2.0, 5.0])), str(tmp_path / "f.fn"))
    loaded = modules_after_main(["analyze", "m3.alg", "f.fn", "--out", "r.json"], tmp_path)
    assert "numpy.fft" in loaded
    # chi of Mat_3 at diag(1, 2, 5): degree K = 9, chi(1, -1) = 0
    chi = [complex(re, im) for re, im in json.loads((tmp_path / "r.json").read_text())["chi"]]
    assert len(chi) == 10
    assert abs(sum(c * (-1) ** d for d, c in enumerate(chi))) < 1e-8 * np.linalg.norm(chi)


def test_every_exported_name_is_its_submodule_object():
    for name, module in algscope._EXPORTS.items():
        assert getattr(algscope, name) is getattr(importlib.import_module(f"algscope.{module}"), name)
    namespace = {}
    exec("from algscope import *", namespace)
    assert all(namespace[name] is getattr(algscope, name) for name in algscope.__all__)
    assert set(algscope.__all__) <= set(dir(algscope))
    assert algscope.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        algscope.no_such_name


def test_import_loads_no_submodule_until_a_name_is_used(tmp_path):
    code = (
        "import sys\n"
        "import algscope\n"
        "print(sorted(m for m in sys.modules if m.startswith('algscope.')))\n"
        "algscope.verify.run_suites\n"  # a submodule reached as an attribute
        "from algscope import algebra, decompose\n"
        "print(decompose is sys.modules['algscope.spectral'].decompose)\n"
    )
    assert run_fresh(code, tmp_path).split() == ["[]", "True"]
