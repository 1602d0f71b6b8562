"""Write one fixed set of algscope reports into OUTDIR.

    PYTHONPATH=src python tools/report_set.py OUTDIR

For each input it writes the algebra file and, through ``algscope.cli.main``
with explicit seeds:

- ``analyze --frames`` reports of two random functionals, plus the planted
  functional of each planted Jordan block and F = tr(diag(1, 2, 0) X) on
  Mat_3, whose nil has dimension 1;
- ``verify --negative-control`` reports of every suite the program has, ten
  functionals each, at seeds 1 and 2.

``exit_codes.txt`` lists the exit code of each command.  Two runs into two
directories must agree under ``diff -r``.  To compare two versions of the
program, run this script once with each one's ``src`` on PYTHONPATH.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import PLANTED_JORDAN_BLOCKS, prescribed_pencil_algebra  # noqa: E402

from algscope import (  # noqa: E402
    direct_sum,
    dual_numbers,
    group_algebra,
    klein_table,
    mat_algebra,
    matrix_trace_functional,
    random_functional,
    symmetric3_table,
    upper_triangular,
)
from algscope.cli import main  # noqa: E402
from algscope.report import save_algebra, save_functional  # noqa: E402
from algscope.suite_names import SUITE_NAMES  # noqa: E402

VERIFY_SEEDS = (1, 2)


def inputs():
    """(name, algebra, extra functionals to analyze) of every input: the six
    inputs of the benchmark's verify-small workload first."""
    s3 = group_algebra(symmetric3_table())
    found = [
        ("Mat_3", mat_algebra(3), [matrix_trace_functional(np.diag([1.0, 2.0, 0.0]))]),
        ("Mat_4", mat_algebra(4), []),
        ("tri_5", upper_triangular(5), []),
        ("S3", s3, []),
        ("Klein", group_algebra(klein_table()), []),
        ("Mat_2+S3", direct_sum(mat_algebra(2), s3), []),
        ("Mat_5", mat_algebra(5), []),
        ("tri_8", upper_triangular(8), []),
        ("Mat_4+tri_4", direct_sum(mat_algebra(4), upper_triangular(4)), []),
        ("dual", dual_numbers(), []),
    ]
    for name, (beta, _) in PLANTED_JORDAN_BLOCKS.items():
        alg, f = prescribed_pencil_algebra(beta)
        found.append((f"planted_{name}", alg, [f]))
    return found


def write_set(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for index, (name, alg, extra) in enumerate(inputs()):
        alg_path = out / f"{name}.alg"
        save_algebra(alg, str(alg_path))
        rng = np.random.default_rng(index)
        functionals = [random_functional(alg.dim, rng) for _ in range(2)] + extra
        for j, f in enumerate(functionals):
            fn_path = out / f"{name}.f{j}.fn"
            save_functional(f, str(fn_path))
            report = out / f"{name}.f{j}.analyze.json"
            args = ["analyze", str(alg_path), str(fn_path), "--frames", "--seed", "0"]
            codes.append(f"{report.name} {main(args + ['--out', str(report)])}")
        for seed in VERIFY_SEEDS:
            report = out / f"{name}.s{seed}.verify.json"
            args = ["verify", str(alg_path), "--suite", ",".join(SUITE_NAMES)]
            args += ["--functionals", "10", "--negative-control", "--seed", str(seed)]
            codes.append(f"{report.name} {main(args + ['--out', str(report)])}")
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/report_set.py OUTDIR")
    write_set(Path(sys.argv[1]))
