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
a temporary directory, into OUTDIR/ref, then prints what differs: each
file that only one side has, and for each file that differs, the report
rows that only one side has, named by theorem id, check name or spectral
point, and the other top-level keys that differ, or, in a file that is not
a JSON object, the lines that only one side has.  It writes nothing under
``.git``.  Both sides take their inputs from this checkout.  The exit code
is 0 whether or not the sets differ, and non-zero when a side cannot be
written.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
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


def _one_sided(ref: list, new: list, name) -> list[str]:
    """The items that only one of ``ref`` and ``new`` has, counted by
    ``name(item)``: "only in ref: NAME xCOUNT", then "only in checkout: ..."."""
    counts = [Counter(json.dumps(item, sort_keys=True) for item in side) for side in (ref, new)]
    found = []
    for side, mine, other in (("ref", *counts), ("checkout", *counts[::-1])):
        names = Counter(name(json.loads(item)) for item in (mine - other).elements())
        found += [f"only in {side}: {n} x{count}" for n, count in names.items()]
    return found


def _row_name(row: dict) -> str:
    """A report row's theorem id, check name or spectral point."""
    if "alpha" in row:
        return f"alpha {row['alpha']}"
    return str(row.get("theorem_id", row.get("name")))


def file_differences(ref: Path, new: Path) -> list[str]:
    """What differs between two versions of one file of the set: in JSON
    objects, the rows of each list of rows that only one side has and each
    other top-level key that differs; otherwise the lines that only one
    side has."""
    texts = [path.read_text(encoding="utf-8") for path in (ref, new)]
    try:
        docs = [json.loads(text) for text in texts]
    except ValueError:  # a text file, such as exit_codes.txt
        docs = texts
    if not all(isinstance(doc, dict) for doc in docs):
        return _one_sided(texts[0].splitlines(), texts[1].splitlines(), str)
    found = []
    for key in sorted(docs[0].keys() | docs[1].keys()):
        values = [doc.get(key, []) for doc in docs]  # a report omits an empty list
        if values[0] == values[1]:
            continue
        if all(isinstance(v, list) and all(isinstance(r, dict) for r in v) for v in values):
            rows = [f"{key}: {line}" for line in _one_sided(*values, _row_name)]
            found += rows or [f"{key}: the same rows in another order"]
        else:
            found.append(f"{key} differs")
    return found


def set_differences(ref: Path, new: Path) -> list[str]:
    """Each file that only one of the directories ``ref`` and ``new`` has,
    and each file that differs, followed by what differs in it, indented."""
    names = [sorted(path.name for path in side.iterdir()) for side in (ref, new)]
    found = _one_sided(*names, str)
    for name in sorted(set(names[0]) & set(names[1])):
        if (ref / name).read_bytes() != (new / name).read_bytes():
            found.append(f"differs: {name}")
            found += [f"  {line}" for line in file_differences(ref / name, new / name)]
    return found


def against(out: Path, ref: str) -> int:
    """Write the sets of this checkout and of ``ref`` and print what
    differs between them."""
    write_set_of(ROOT / "src", out / "checkout")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        write_set_of(Path(tmp) / "src", out / "ref")
    found = set_differences(out / "ref", out / "checkout")
    for line in found:
        print(line)
    differ = sum(not line.startswith(" ") for line in found)
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
