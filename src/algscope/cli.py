"""Command-line surface: analyze, verify, builders.

Exit codes: 0 on success with all checks passing, 1 on parse or usage
errors, when an ``--out`` file cannot be written, when an input algebra
file fails the axioms (``analyze``,
``verify`` and the ``direct-sum`` and ``opposite`` builders) and when
``analyze`` is given a functional whose reduced pencil is singular for
every alpha (F is not generic) or whose pairing is too large for double
precision (no report in either case), 2 when an invariant
or a suite finding fails, or when ``verify --negative-control`` goes
undetected on a non-commutative algebra (the report is still emitted).  On a
commutative algebra the control is not applicable and does not gate.  The
seed falls back to the ALGSCOPE_SEED environment variable when --seed is not
given.

:func:`run` is the entry point of a process that exits next (the
``algscope`` console script and ``python -m algscope.cli``): it turns the
cyclic garbage collector off before :func:`main` imports numpy and the
pipeline, and freezes what is left tracked after it.  Code that embeds the
command line calls :func:`main`, which leaves the caller's garbage
collector alone.

This module imports nothing that loads numpy.  Each subcommand imports the
modules it runs, ``algebra`` and ``report`` included, inside its own
function, so ``--version``, ``--help`` and usage errors load no numpy,
``builders`` loads no pipeline module beyond ``algebra`` and ``report``, and
``analyze`` does not load ``verify``.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__
from .errors import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_TOL,
    AlgscopeError,
    BadParams,
    NonFinite,
    NoRegularValue,
    ParseError,
    SingularPencil,
    UnknownBuilder,
)
from .suite_names import DEFAULT_SUITES, SUITE_NAMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


def _default_seed() -> int:
    env = os.environ.get("ALGSCOPE_SEED")
    if env is None:
        return 0
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError as exc:
        raise BadParams(f"ALGSCOPE_SEED: {exc}") from None


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {raw!r}")
    return value


def _int_at_least(minimum: int):
    """An argparse type: an integer >= ``minimum``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {raw!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algscope",
        description="Decompose a finite-dimensional associative algebra through a linear functional.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_positive_float, default=DEFAULT_TOL, help="rank decision tolerance"
    )
    common.add_argument(
        "--cluster-tol",
        type=_positive_float,
        default=DEFAULT_CLUSTER_TOL,
        help="spectral point clustering tolerance",
    )
    common.add_argument(
        "--seed", type=_nonnegative_int, default=None, help="random seed (env ALGSCOPE_SEED)"
    )
    common.add_argument("--out", default=None, help="write the report to this file")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument(
        "--skip-validate", action="store_true", help="skip the associativity/unit check"
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="decompose an algebra for one functional"
    )
    p_analyze.add_argument("algebra", help="algebra file (JSON)")
    p_analyze.add_argument("functional", help="functional file (JSON)")
    p_analyze.add_argument("--frames", action="store_true", help="include V(alpha) frames")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run theorem suites over random functionals"
    )
    p_verify.add_argument("algebra", help="algebra file (JSON)")
    p_verify.add_argument(
        "--functionals", type=_positive_int, default=10, help="number of random functionals"
    )
    p_verify.add_argument(
        "--suite",
        default=",".join(DEFAULT_SUITES),
        help="comma-separated suite names: " + ", ".join(SUITE_NAMES),
    )
    p_verify.add_argument(
        "--negative-control",
        action="store_true",
        help="run the commutativity check at a non-minimizing functional and expect it to fail",
    )

    p_build = sub.add_parser("builders", help="emit a reference algebra file")
    p_build.add_argument(
        "name", help="matrix N | triangular N | dual | group {z2,z3,z4,z2xz2,s3} | direct-sum A B | opposite A"
    )
    p_build.add_argument("params", nargs="*", help="builder parameters")
    p_build.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _emit(report, fmt: str, out: str | None):
    from .report import render_text

    text = report.to_json() if fmt == "json" else render_text(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _require_axioms(alg, tol: float):
    """Raise :class:`ParseError` with both residuals and the witness when
    ``alg`` fails the axioms at the axiom tolerance of ``tol``."""
    from .algebra import _axiom_tol, validate

    rep = validate(alg, _axiom_tol(tol))
    if not rep.passed:
        raise ParseError(
            f"algebra fails the axioms: associativity residual {rep.max_assoc_residual:.3e}, "
            f"unit residual {rep.max_unit_residual:.3e}, witness {rep.witness}"
        )


def _load_checked(args):
    """The algebra of ``analyze`` or ``verify``, checked against the axioms
    unless ``--skip-validate`` is given, and the seed."""
    from .report import load_algebra

    alg = load_algebra(args.algebra)
    if not args.skip_validate:
        _require_axioms(alg, args.tol)
    return alg, args.seed if args.seed is not None else _default_seed()


def _cmd_analyze(args) -> int:
    from .functional import _dim_error
    from .report import ReportDocument, load_functional, report_from_decomposition
    from .spectral import decompose

    alg, seed = _load_checked(args)
    f = load_functional(args.functional)
    if error := _dim_error(alg, f.dim, "functional"):
        raise ParseError(str(error))
    try:
        dec = decompose(alg, f, seed=seed, tol=args.tol, cluster_tol=args.cluster_tol)
    except (SingularPencil, NonFinite) as exc:
        # a precondition on the input, not a failed invariant
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoRegularValue as exc:
        report = ReportDocument(
            kind="analyze",
            tol=args.tol,
            cluster_tol=args.cluster_tol,
            seed=seed,
            checks=(("regular_shift_exists", False, float("inf"), str(exc)),),
        )
        _emit(report, args.format, args.out)
        return EXIT_VIOLATION
    report = report_from_decomposition(dec, seed, include_frames=args.frames)
    _emit(report, args.format, args.out)
    return EXIT_OK if dec.ok else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    from .report import report_from_findings
    from .verify import negative_control_finding, run_suites

    alg, seed = _load_checked(args)
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    if not suites:
        raise BadParams(f"--suite names no suite: {args.suite!r}")
    unknown = [s for s in suites if s not in SUITE_NAMES]
    if unknown:
        raise BadParams(f"unknown suite names: {', '.join(unknown)}")
    findings = run_suites(
        alg,
        suites=suites,
        n_functionals=args.functionals,
        seed=seed,
        rank_tol=args.tol,
        cluster_tol=args.cluster_tol,
    )
    # every suite finding gates the exit code; the deliberately failing
    # control gates only when it goes undetected
    ok = all(f.passed for f in findings)
    if args.negative_control:
        control = negative_control_finding(alg, rank_tol=args.tol)
        findings = list(findings) + [control]
        ok = ok and "control NOT detected" not in control.notes
    report = report_from_findings(findings, seed, args.tol, args.cluster_tol)
    _emit(report, args.format, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_builders(args) -> int:
    from .algebra import (
        cyclic_table,
        direct_sum,
        dual_numbers,
        group_algebra,
        klein_table,
        mat_algebra,
        opposite,
        symmetric3_table,
        upper_triangular,
        validate,
    )
    from .report import _json_text, algebra_to_doc, load_algebra, save_algebra

    groups = {f"z{n}": cyclic_table(n) for n in (2, 3, 4)}
    groups.update(z2xz2=klein_table(), s3=symmetric3_table())
    known = ", ".join(sorted(groups))

    def group(raw: str):
        if raw.lower() not in groups:
            raise BadParams(f"unknown group {raw!r}; known: {known}")
        return group_algebra(groups[raw.lower()])

    builders = {
        "matrix": ("a size N", 1, lambda n: mat_algebra(_int_param(n))),
        "triangular": ("a size N", 1, lambda n: upper_triangular(_int_param(n))),
        "dual": ("no parameters", 0, dual_numbers),
        "group": ("a group name: " + known, 1, group),
        "direct-sum": ("two algebra files", 2, lambda *p: direct_sum(*map(load_algebra, p))),
        "opposite": ("an algebra file", 1, lambda a: opposite(load_algebra(a))),
    }
    name = args.name
    if name not in builders:
        raise UnknownBuilder(f"unknown builder {name!r}")
    what, count, build = builders[name]
    if len(args.params) != count:
        raise BadParams(f"builder '{name}' needs {what}")
    alg = build(*args.params)

    if name in ("direct-sum", "opposite"):
        # these satisfy the axioms exactly when their input files do, so a
        # failure is an input error
        _require_axioms(alg, DEFAULT_TOL)
    # group_algebra validates its own output; the other builders take the
    # self-check here
    elif name != "group" and not validate(alg).passed:
        raise AlgscopeError("builder output failed validation; this is a bug")
    if args.out is None:
        sys.stdout.write(_json_text(algebra_to_doc(alg)))
    else:
        save_algebra(alg, args.out)
    return EXIT_OK


def _int_param(raw: str) -> int:
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise BadParams(str(exc)) from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; the contract reserves 2 for
        # invariant violations and 1 for usage problems
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_builders(args)
    except (ParseError, BadParams, UnknownBuilder, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlgscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def run(argv=None) -> int:
    """:func:`main`, in a process that exits next, with the cyclic garbage
    collector off: returns main's exit code after ``gc.freeze()``.

    ``gc.disable()`` comes before main, so the subcommand imports numpy
    and algscope, and does its work, without the young- and
    middle-generation passes those imports would trigger; they leave no
    cyclic garbage for the passes to free.  The freeze moves every object
    still tracked into the permanent generation, which the interpreter's
    shutdown collection never scans, so the process ends without one pass
    over them either.  Every file main writes is closed by then, and stdout
    and stderr are still flushed at exit.  The collector stays off in the
    calling process."""
    gc.disable()
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
