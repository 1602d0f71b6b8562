"""Command-line surface: analyze, verify, builders.

Exit codes: 0 on success with all checks passing, 1 on parse or usage
errors, when an input algebra file fails the axioms (``analyze``,
``verify`` and the ``direct-sum`` and ``opposite`` builders) and when
``analyze`` is given a functional whose reduced pencil is singular for
every alpha (F is not generic; no report), 2 when an invariant
or a suite finding fails, or when ``verify --negative-control`` goes
undetected on a non-commutative algebra (the report is still emitted).  On a
commutative algebra the control is not applicable and does not gate.  The
seed falls back to the ALGSCOPE_SEED environment variable when --seed is not
given.

Each subcommand imports the pipeline modules it runs inside its own
function, so ``builders`` loads none of them and ``analyze`` does not load
``verify``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
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
from .errors import (
    AlgscopeError,
    BadParams,
    NoRegularValue,
    ParseError,
    SingularPencil,
    UnknownBuilder,
)
from .report import (
    ReportDocument,
    _json_text,
    algebra_to_doc,
    load_algebra,
    load_functional,
    render_text,
    report_from_decomposition,
    report_from_findings,
    save_algebra,
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
    common.add_argument("--tol", type=_positive_float, default=1e-9, help="rank decision tolerance")
    common.add_argument(
        "--cluster-tol", type=_positive_float, default=1e-6, help="spectral point clustering tolerance"
    )
    common.add_argument(
        "--seed", type=_nonnegative_int, default=None, help="random seed (env ALGSCOPE_SEED)"
    )
    common.add_argument("--out", default=None, help="write the report to this file")
    common.add_argument("--format", choices=("json", "text"), default="json")

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="decompose an algebra for one functional"
    )
    p_analyze.add_argument("algebra", help="algebra file (JSON)")
    p_analyze.add_argument("functional", help="functional file (JSON)")
    p_analyze.add_argument("--frames", action="store_true", help="include V(alpha) frames")
    p_analyze.add_argument(
        "--skip-validate", action="store_true", help="skip the associativity/unit check"
    )

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
    p_verify.add_argument("--skip-validate", action="store_true")

    p_build = sub.add_parser("builders", help="emit a reference algebra file")
    p_build.add_argument(
        "name", help="matrix N | triangular N | dual | group {z2,z3,z4,z2xz2,s3} | direct-sum A B | opposite A"
    )
    p_build.add_argument("params", nargs="*", help="builder parameters")
    p_build.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _emit(report: ReportDocument, fmt: str, out: str | None):
    text = report.to_json() if fmt == "json" else render_text(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _require_axioms(alg, tol: float):
    """Raise :class:`ParseError` with both residuals and the witness when
    ``alg`` fails the axioms at ``tol``."""
    rep = validate(alg, max(tol, 1e-12))
    if not rep.passed:
        raise ParseError(
            f"algebra fails the axioms: associativity residual {rep.max_assoc_residual:.3e}, "
            f"unit residual {rep.max_unit_residual:.3e}, witness {rep.witness}"
        )


def _cmd_analyze(args) -> int:
    from .spectral import decompose

    alg = load_algebra(args.algebra)
    f = load_functional(args.functional)
    if f.dim != alg.dim:
        raise ParseError(f"functional has {f.dim} coordinates for a dim-{alg.dim} algebra")
    if not args.skip_validate:
        _require_axioms(alg, args.tol)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        dec = decompose(alg, f, seed=seed, tol=args.tol, cluster_tol=args.cluster_tol)
    except SingularPencil as exc:
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
    from .verify import negative_control_finding, run_suites

    alg = load_algebra(args.algebra)
    if not args.skip_validate:
        _require_axioms(alg, args.tol)
    seed = args.seed if args.seed is not None else _default_seed()
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


_GROUP_TABLES = {
    "z2": lambda: cyclic_table(2),
    "z3": lambda: cyclic_table(3),
    "z4": lambda: cyclic_table(4),
    "z2xz2": klein_table,
    "s3": symmetric3_table,
}


def _cmd_builders(args) -> int:
    name = args.name
    params = args.params

    def need(count: int, what: str):
        if len(params) != count:
            raise BadParams(f"builder '{name}' needs {what}")

    if name == "matrix":
        need(1, "a size N")
        alg = mat_algebra(_int_param(params[0]))
    elif name == "triangular":
        need(1, "a size N")
        alg = upper_triangular(_int_param(params[0]))
    elif name == "dual":
        need(0, "no parameters")
        alg = dual_numbers()
    elif name == "group":
        need(1, "a group name: " + ", ".join(sorted(_GROUP_TABLES)))
        key = params[0].lower()
        if key not in _GROUP_TABLES:
            raise BadParams(f"unknown group {params[0]!r}; known: {', '.join(sorted(_GROUP_TABLES))}")
        alg = group_algebra(_GROUP_TABLES[key]())
    elif name == "direct-sum":
        need(2, "two algebra files")
        alg = direct_sum(load_algebra(params[0]), load_algebra(params[1]))
    elif name == "opposite":
        need(1, "an algebra file")
        alg = opposite(load_algebra(params[0]))
    else:
        raise UnknownBuilder(f"unknown builder {name!r}")

    if name in ("direct-sum", "opposite"):
        # these satisfy the axioms exactly when their input files do, so a
        # failure is an input error; 1e-9 is validate's default tolerance
        _require_axioms(alg, 1e-9)
    elif not validate(alg).passed:
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
        if args.command == "builders":
            return _cmd_builders(args)
        raise BadParams(f"unknown command {args.command!r}")
    except (ParseError, BadParams, UnknownBuilder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlgscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
