"""The command-line cases of algscope: one ordered table, ``CASES``, and one
runner, ``run(invoke)``.

    python tools/cli_cases.py

runs the table through the ``algscope`` executable found on PATH, in the
current directory, where it writes about 70 files: run it from a scratch
directory.  ``run(module)`` runs it through ``python -m algscope.cli``, and
``tests/test_cli_cases.py`` runs it in process, through
``algscope.cli.main``.

A row is a :class:`Cmd`, one ``algscope`` command with the exit code and
stderr texts it must give, or a ``functools.partial`` of a function below
that writes an input file or asserts on the files the commands wrote.  The
runner stops at the first row that breaks and names it.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from algscope import (
    Algebra,
    Functional,
    __version__,
    mat_algebra,
    matrix_trace_functional,
    random_functional,
)
from algscope.report import save_algebra, save_functional

ROOT = Path(__file__).resolve().parents[1]

#: tri_5 at a random F, Mat_3 + tri_5 zero on tri_5, tri_5 + Mat_2 zero on Mat_2
KERNEL_INPUTS = ("t5", "m3t5", "t5m2")


@dataclass(frozen=True)
class Cmd:
    """``algscope *argv`` must exit with ``code`` and write every text of
    ``stderr`` to stderr.  With ``twice``, the command runs again with its
    ``--out`` file renamed ``again-<name>``, and the two files must agree
    byte for byte.  ``stdout`` names a file that receives its stdout."""

    argv: tuple[str, ...]
    code: int = 0
    stderr: tuple[str, ...] = ()
    twice: bool = False
    stdout: str | None = None


def cmd(line: str, **fields) -> Cmd:
    return Cmd(tuple(line.split()), **fields)


# -- input writers


def random_functional_file(dim: int, seed: int, path: str):
    save_functional(random_functional(dim, np.random.default_rng(seed)), path)


def zeroed_functional_file(dim: int, seed: int, start: int, path: str):
    """The random functional of ``seed`` with coordinates ``start`` on set
    to 0."""
    coords = random_functional(dim, np.random.default_rng(seed)).coords.copy()
    coords[start:] = 0
    save_functional(Functional(coords), path)


def masked_functional_file(dim: int, seed: int, path: str):
    """The random functional of ``seed`` with each coordinate set to 0 with
    probability 1/2, drawn from the same stream."""
    rng = np.random.default_rng(seed)
    coords = random_functional(dim, rng).coords * (rng.random(dim) < 0.5)
    save_functional(Functional(coords), path)


def nilshift_file(n: int, path: str):
    """F(X) = tr(N X) on Mat_n, N the nilpotent shift."""
    save_functional(matrix_trace_functional(np.diag(np.ones(n - 1), 1)), path)


def planted_algebra_file(name: str, path: str):
    """The algebra of the planted pencil core ``name`` of ``tests/oracles.py``."""
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import PLANTED_JORDAN_BLOCKS, prescribed_pencil_algebra

    alg, _ = prescribed_pencil_algebra(PLANTED_JORDAN_BLOCKS[name][0])
    save_algebra(alg, path)


def bad_algebra_file(path: str):
    """Mat_2 with one structure constant off by 1e-3: it fails the axioms."""
    alg = mat_algebra(2)
    structure = alg.structure.copy()
    structure[0, 1, 3] += 1e-3
    save_algebra(Algebra(4, structure, alg.unit), path)


def entry_replaced_file(source: str, key: str, row: int, col: int, literal: str, path: str):
    """``source`` with ``doc[key][row][col]`` replaced by the JSON text
    ``literal``, which may be one that ``json.dumps`` cannot write, such as
    an integer past the interpreter's digit limit."""
    with open(source, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc[key][row][col] = "@entry@"
    text = json.dumps(doc).replace('"@entry@"', literal)
    Path(path).write_text(text, encoding="utf-8")


# -- assertions on what the commands wrote, which raise AssertionError
# themselves, so that they hold under ``python -O`` too


def _expect(ok: bool, what: str):
    if not ok:
        raise AssertionError(what)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def text_is(path: str, text: str):
    _expect(Path(path).read_text(encoding="utf-8") == text, f"{path} does not read {text!r}")


def same_bytes(first: str, second: str):
    _expect(Path(first).read_bytes() == Path(second).read_bytes(), f"{first} != {second}")


def five_checks_passed(*paths: str):
    names = [
        "multiplicities_sum_to_quotient_dim",
        "v_dim_equals_nil_plus_multiplicity",
        "simple_frames_in_stabilizer",
        "v_spaces_direct_sum",
        "log_det_matches_spectrum",
    ]
    for path in paths:
        checks = _load(path)["checks"]
        _expect([c["name"] for c in checks] == names, f"{path}: check names")
        _expect(all(c["passed"] for c in checks), f"{path}: a check failed")


def frame_widths(path: str):
    """One V(alpha) frame per spectrum row, dim V(alpha) columns each."""
    doc = _load(path)
    rows, frames = doc["spectrum"], doc["v_frames"]
    _expect(len(frames) == len(rows) > 0, f"{path}: {len(frames)} frames, {len(rows)} rows")
    widths = all(len(w) == r["filtration_dims"][-1] for w, r in zip(frames, rows))
    _expect(widths, f"{path}: a frame's width is not dim V(alpha)")


def kernel_points():
    """The three kernel inputs: nil 0, 15 and 4, and tri_5 and tri_5 + Mat_2
    with the points 0 first and infinity last."""
    docs = {n: _load(f"k-{n}.json") for n in KERNEL_INPUTS}
    five_checks_passed(*(f"k-{n}.json" for n in docs))
    nils = [docs[n]["nil_dim"] for n in docs]
    _expect(nils == [0, 15, 4], f"nil dimensions {nils}")
    for n in ("t5", "t5m2"):
        ends = [docs[n]["spectrum"][i]["alpha"] for i in (0, -1)]
        _expect(ends == [[0.0, 0.0], "inf"], f"{n}: first and last points {ends}")
    _expect(len(docs["t5m2"]["spectrum"]) == 3, "t5m2: not three points")


def one_line_each(*paths: str):
    """Each file is one line of JSON ending in a newline."""
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        _expect(text.count("\n") == 1 and text.endswith("\n"), f"{path}: not one line")
        json.loads(text)


CASES = [
    # the two paths that run no subcommand, and load no numpy
    cmd("--version", stdout="version.out"),
    partial(text_is, "version.out", f"algscope {__version__}\n"),
    cmd("--help"),
    cmd("builders matrix 3 --out m3.alg"),
    # stdout and --out go through one writer: the same bytes
    cmd("builders matrix 3", stdout="m3.out"),
    partial(same_bytes, "m3.out", "m3.alg"),
    cmd("builders group s3 --out s3.alg"),
    # the top of the scale ladder; each builder validates its output
    cmd("builders matrix 12 --out m12.alg"),
    cmd("builders triangular 12 --out t12.alg"),
    partial(random_functional_file, 9, 0, "f.fn"),
    cmd("analyze m3.alg f.fn --out a.json"),
    # the top of the ladder at a random functional: every check, the
    # log-determinant test of the spectrum too, passes (exit 0)
    partial(random_functional_file, 144, 0, "f144.fn"),
    cmd("analyze m12.alg f144.fn --out a12.json"),
    # the checks run when the report reads them: both reports list all
    # five, in order, each passed
    partial(five_checks_passed, "a.json", "a12.json"),
    # --frames is the one analyze path that lifts the quotient frames
    cmd("analyze m3.alg f.fn --frames --out af.json"),
    partial(frame_widths, "af.json"),
    # the frames of simple points are eigenvectors, whose phases reach
    # --frames: two runs with one seed write byte-identical reports
    cmd("analyze m3.alg f.fn --frames --seed 5 --out af1.json", twice=True),
    cmd("verify s3.alg --functionals 2 --negative-control --out v.json"),
    cmd("verify m3.alg --suite v-mult --functionals 2 --out vm.json"),
    cmd("verify m3.alg --functionals 3 --seed 5 --out v1.json", twice=True),
    # the regular-functional suites read the first functional's pencil
    cmd(
        "verify m3.alg --suite corollary2,corollary3 --functionals 2 --seed 5 --out vr1.json",
        twice=True,
    ),
    # Mat_3 + S3: verify decomposes its ten functionals as one batch
    cmd("builders direct-sum m3.alg s3.alg --out m3s3.alg"),
    cmd("verify m3s3.alg --functionals 10 --seed 5 --out vs1.json", twice=True),
    # a planted 2 x 2 Jordan block: one spectral point's level 0 is below
    # its multiplicity, so the alpha0 suite compares its reported chain
    # with one climbed under a new shift
    partial(planted_algebra_file, "block2", "jordan.alg"),
    cmd("verify jordan.alg --suite alpha0 --functionals 3 --seed 5 --out va1.json", twice=True),
    # the planted levels3 core: at a random F, alpha = 1 has multiplicity 5
    # and levels (3, 4, 5), so the alpha0 suite compares two levels above 0
    partial(planted_algebra_file, "levels3", "levels3.alg"),
    cmd("verify levels3.alg --suite alpha0 --functionals 3 --seed 5 --out vl1.json", twice=True),
    # v-mult reads the levels in quotient coordinates, with no lift; on the
    # planted block its products reach targets above level 0
    cmd(
        "verify jordan.alg --suite v-mult,alpha0 --functionals 3 --seed 5 --out vm1.json",
        twice=True,
    ),
    # Mat_6 at ten functionals: one shape group, whose product tensors took
    # about 23 MiB together; v-mult forms them one decomposition at a time
    cmd("builders matrix 6 --out m6.alg"),
    cmd("verify m6.alg --suite v-mult --functionals 10 --seed 5 --out vm6a.json", twice=True),
    # the planted block beside the dual numbers: a chain of levels (1, 2)
    # and a point of width 4, one decomposition shape for every functional;
    # v-mult and alpha0 batch the functionals by shape and dim-symmetry by
    # point count.  Random functionals leave nil at 0 here; tier-1 covers
    # nil != 0 with the planted functional
    cmd("builders dual --out dual.alg"),
    cmd("builders direct-sum jordan.alg dual.alg --out jd.alg"),
    cmd(
        "verify jd.alg --suite v-mult,alpha0,dim-symmetry --functionals 10 --seed 5 --out jd1.json",
        twice=True,
    ),
    # an --out path that cannot be written is an input error: exit 1 with
    # the path on stderr, and no traceback
    cmd("analyze m3.alg f.fn --out missing/a.json", code=1, stderr=("error: ", "missing/a.json")),
    cmd("verify s3.alg --functionals 2 --out missing/v.json", code=1, stderr=("missing/v.json",)),
    cmd("builders matrix 3 --out missing/m3.alg", code=1, stderr=("missing/m3.alg",)),
    # a negative seed is a usage error
    cmd("verify s3.alg --seed -1 --out neg.json", code=1),
    # so is a removed suite: kernel-relations checks what nil-ideal did
    cmd("verify s3.alg --suite nil-ideal --out nilideal.json", code=1),
    # an algebra that fails the axioms is an input error
    partial(bad_algebra_file, "bad.alg"),
    cmd("verify bad.alg --out bad.json", code=1),
    # so is a builder reading it: its output fails the axioms too
    cmd("builders opposite bad.alg --out bad-op.alg", code=1),
    cmd("builders direct-sum bad.alg m3.alg --out bad-sum.alg", code=1),
    # a non-finite number in an input file is an input error
    partial(entry_replaced_file, "f.fn", "coords", 1, 0, '"nan"', "nan.fn"),
    cmd("analyze m3.alg nan.fn --out nan.json", code=1),
    partial(entry_replaced_file, "m3.alg", "structure", 0, 3, '"inf"', "inf.alg"),
    cmd("verify inf.alg --out inf.json", code=1),
    # so is an integer past float's range, read as infinite as json reads
    # 1e400, in every command that reads the file
    partial(entry_replaced_file, "m3.alg", "unit", 0, 0, "1" + "0" * 400, "big.alg"),
    *(
        cmd(line, code=1, stderr=("unit[0]: expected a finite [re, im] pair",))
        for line in (
            "analyze big.alg f.fn --out big.json",
            "verify big.alg --out big-v.json",
            "builders opposite big.alg --out big-op.alg",
        )
    ),
    partial(entry_replaced_file, "f.fn", "coords", 2, 1, "-1" + "0" * 400, "big.fn"),
    cmd("analyze m3.alg big.fn --out big-f.json", code=1, stderr=("coords[2]: expected a finite",)),
    # past the interpreter's digit limit json refuses the literal, naming the
    # file; a Python without the limit reads it as infinite
    partial(entry_replaced_file, "m3.alg", "unit", 0, 0, "9" * 5000, "huge.alg"),
    cmd("analyze huge.alg f.fn --out huge.json", code=1),
    # F(X) = tr(N X): the pencil is singular for every alpha, so F is not
    # generic; the same decided at --tol
    partial(nilshift_file, 3, "nilshift.fn"),
    cmd("analyze m3.alg nilshift.fn --out sing.json", code=1),
    cmd("analyze m3.alg nilshift.fn --tol 1e-6 --out sing6.json", code=1),
    # Mat_9 at F = tr(N X): K = 80, so the shift search takes K + 1 = 81
    # draws, with the cause on stderr
    cmd("builders matrix 9 --out m9.alg"),
    partial(nilshift_file, 9, "nilshift9.fn"),
    cmd(
        "analyze m9.alg nilshift9.fn --out sing9.json",
        code=1,
        stderr=("singular for every alpha", "in 81 samples"),
    ),
    # the kernel-only suites on nonzero left and right kernels, read from
    # one stacked reduction of the functionals, alone and beside the
    # corollaries
    cmd("builders triangular 5 --out t5.alg"),
    cmd("verify t5.alg --suite kernel-relations --functionals 3 --seed 5 --out vk1.json", twice=True),
    cmd(
        "verify t5.alg --suite kernel-relations,corollary2,corollary3"
        " --functionals 3 --seed 5 --out vkc1.json",
        twice=True,
    ),
    # a removed suite, as nil-ideal is: a drawn functional is multiplicative
    # with probability 0, so the suite always passed
    cmd(
        "verify t5.alg --suite multiplicative --out mult.json",
        code=1,
        stderr=("unknown suite names: multiplicative",),
    ),
    # the points 0 and infinity, whose level 0 is the pairing's left and
    # right kernel, and nil != 0: tri_5 at a random F (points 0, 1 and
    # infinity), Mat_3 + tri_5 with F zero on the tri_5 coordinates (nil
    # 15) and tri_5 + Mat_2 with F zero on the Mat_2 coordinates (nil 4,
    # points 0, 1 and infinity in the quotient)
    cmd("builders matrix 2 --out m2.alg"),
    cmd("builders direct-sum m3.alg t5.alg --out m3t5.alg"),
    cmd("builders direct-sum t5.alg m2.alg --out t5m2.alg"),
    partial(random_functional_file, 15, 0, "t5.fn"),
    partial(zeroed_functional_file, 24, 1, 9, "m3t5.fn"),
    partial(zeroed_functional_file, 19, 2, 15, "t5m2.fn"),
    *(
        row
        for name in KERNEL_INPUTS
        for row in (
            cmd(f"analyze {name}.alg {name}.fn --out k-{name}.json"),
            cmd(f"analyze {name}.alg {name}.fn --frames --seed 5 --out k1-{name}.json", twice=True),
        )
    ),
    kernel_points,
    # tri_4 at a masked functional, clustered at 1e-5: three values about
    # 6e-6 from 0, 120 degrees apart, form one point 0 of multiplicity 3,
    # and every check passes
    cmd("builders triangular 4 --out t4.alg"),
    partial(masked_functional_file, 10, 289, "f289.fn"),
    cmd("analyze t4.alg f289.fn --cluster-tol 1e-5 --out t4-289.json"),
    # every file the program wrote, and the algebra of builders on stdout,
    # is one line of JSON ending in a newline
    partial(one_line_each, "m3.out", "m3.alg", "f.fn", "a.json", "af.json", "v.json", "vs1.json"),
]


def _label(row) -> str:
    if isinstance(row, Cmd):
        return "algscope " + " ".join(row.argv)
    return f"{row.func.__name__}{row.args}" if isinstance(row, partial) else f"{row.__name__}()"


def _command(invoke, row: Cmd):
    """Run one command row; a string naming what broke, or None."""
    code, out, err = invoke(list(row.argv))
    if row.stdout is not None:
        Path(row.stdout).write_text(out, encoding="utf-8")
    # the interpreter exits 1 on an uncaught exception, as a usage error does
    if "Traceback" in err:
        return f"uncaught exception\nstderr:\n{err}"
    if code != row.code:
        return f"exit code {code}, expected {row.code}\nstderr:\n{err}"
    missing = [text for text in row.stderr if text not in err]
    if missing:
        return f"stderr lacks {missing}\nstderr:\n{err}"
    if row.twice:
        argv = list(row.argv)
        at = argv.index("--out") + 1
        first, argv[at] = argv[at], f"again-{argv[at]}"
        code, _, err = invoke(argv)
        if code != row.code:
            return f"second run: exit code {code}, expected {row.code}\nstderr:\n{err}"
        if Path(first).read_bytes() != Path(argv[at]).read_bytes():
            return f"{first} and {argv[at]} differ"
    return None


def run(invoke):
    """Run every row of ``CASES`` in order, in the current directory;
    ``invoke(argv)`` runs algscope and returns ``(exit code, stdout,
    stderr)``.  Raises :class:`AssertionError` naming the first row that
    breaks."""
    for index, row in enumerate(CASES):
        if isinstance(row, Cmd):
            problem = _command(invoke, row)
        else:
            try:
                row()
                problem = None
            except AssertionError as exc:
                problem = f"failed: {exc}"
        if problem is not None:
            raise AssertionError(f"row {index}, {_label(row)}: {problem}")


def _unseeded(command: list[str]) -> tuple[int, str, str]:
    """``command`` run with ALGSCOPE_SEED unset."""
    env = {k: v for k, v in os.environ.items() if k != "ALGSCOPE_SEED"}
    done = subprocess.run(command, capture_output=True, text=True, encoding="utf-8", env=env)
    return done.returncode, done.stdout, done.stderr


def installed(argv: list[str]) -> tuple[int, str, str]:
    """The ``algscope`` executable on PATH, run with ALGSCOPE_SEED unset."""
    exe = shutil.which("algscope")
    if exe is None:
        raise SystemExit("error: no algscope executable on PATH")
    return _unseeded([exe, *argv])


def module(argv: list[str]) -> tuple[int, str, str]:
    """``python -m algscope.cli`` under this interpreter, run with
    ALGSCOPE_SEED unset."""
    return _unseeded([sys.executable, "-m", "algscope.cli", *argv])


if __name__ == "__main__":
    try:
        run(installed)
    except AssertionError as exc:
        sys.exit(f"FAILED {exc}")
    print(f"{len(CASES)} cli cases passed")
