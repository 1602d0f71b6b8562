"""Write one fixed set of algscope reports into OUTDIR.

    PYTHONPATH=src python tools/report_set.py OUTDIR
    python tools/report_set.py OUTDIR --against REF

For each input it writes the algebra file and, through ``algscope.cli.main``
with explicit seeds:

- ``analyze --frames`` reports of two random functionals, plus the planted
  functional of each planted Jordan block and F = tr(diag(1, 2, 0) X) on
  Mat_3, whose nil has dimension 1;
- ``verify --negative-control`` reports of every suite the program has, ten
  functionals each, at seeds 1 and 2.

``exit_codes.txt`` lists the exit code of each command.  Two runs into two
directories must agree under ``diff -r``.

``--against REF`` compares two versions of the program on this set: it
writes the set of this checkout's ``src`` into OUTDIR/checkout and that of
the commit REF's ``src``, extracted by ``git archive REF src | tar -x`` into
a temporary directory, into OUTDIR/ref, then prints ``diff -rq`` of the
two; it writes nothing under ``.git``.  Both sides take their inputs from
this checkout.  The exit code is 0 whether or not the sets differ, and
non-zero when a side cannot be written.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VERIFY_SEEDS = (1, 2)


def inputs():
    """(name, algebra, extra functionals to analyze) of every input: the six
    inputs of the benchmark's verify-small workload first."""
    import numpy as np

    from algscope import (
        direct_sum,
        dual_numbers,
        group_algebra,
        klein_table,
        mat_algebra,
        matrix_trace_functional,
        symmetric3_table,
        upper_triangular,
    )

    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import PLANTED_JORDAN_BLOCKS, prescribed_pencil_algebra

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
    import numpy as np

    from algscope import random_functional
    from algscope.cli import main
    from algscope.report import save_algebra, save_functional
    from algscope.suite_names import SUITE_NAMES

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


def write_set_of(src: Path, out: Path):
    """The set of the algscope sources ``src``, written by this script in a
    child process whose only import path for algscope is ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    found = subprocess.run(
        [sys.executable, "-c", "import algscope; print(algscope.__file__)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: algscope imports from {found}, not from {src}")
    script = Path(__file__).resolve()
    subprocess.run([sys.executable, str(script), str(out.resolve())], env=env, check=True)


def against(out: Path, ref: str) -> int:
    """Write the sets of this checkout and of ``ref`` and print their
    ``diff -rq``."""
    write_set_of(ROOT / "src", out / "checkout")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        write_set_of(Path(tmp) / "src", out / "ref")
    diff = subprocess.run(
        ["diff", "-rq", str(out / "ref"), str(out / "checkout")], capture_output=True, text=True
    )
    print(diff.stdout, end="")
    if diff.returncode > 1:
        sys.stderr.write(diff.stderr)
        return diff.returncode
    differ = len(diff.stdout.splitlines())
    verdict = "byte-identical" if not differ else f"{differ} differences"
    print(f"report sets of {ref} and of this checkout: {verdict}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", metavar="REF", help="a commit to compare with")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.outdir, args.against))
    write_set(args.outdir)
