"""File formats and report serialization.

All documents are strict JSON.  Complex numbers serialize as ``[re, im]``
pairs, the infinite spectral point as the string ``"inf"``, and non-finite
floats (a residual with no finite value) as the strings ``"inf"``, ``"-inf"``
and ``"nan"``, avoiding any locale or formatting ambiguity.  Structure
constants are stored sparsely as ``[i, j, k, re, im]`` rows because the
reference tensors are overwhelmingly zero.  Every file is one line of JSON
and a newline, written by :func:`_json_text` through json's C encoder; use
``python -m json.tool FILE`` to indent one.  Serialization is deterministic:
identical inputs produce byte-identical documents.

A report's rows are written and read from one table of fields per row
type, ``_SPECTRUM``, ``_FINDINGS`` and ``_CHECKS``, and a report is read in
the order it is written, so that one with several faults names the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .algebra import Algebra
from .errors import DEFAULT_CLUSTER_TOL, DEFAULT_TOL, ParseError

if TYPE_CHECKING:  # the pipeline modules load only where a function needs them
    from .functional import Functional
    from .linalg import ProjectivePoint
    from .spectral import Decomposition, SpectrumPoint
    from .verify import Finding

__all__ = [
    "algebra_to_doc",
    "algebra_from_doc",
    "functional_to_doc",
    "functional_from_doc",
    "load_algebra",
    "load_functional",
    "save_algebra",
    "save_functional",
    "ReportDocument",
    "report_from_decomposition",
    "report_from_findings",
    "render_text",
]


def _real_out(x: float) -> float | str:
    """``x``, or "inf", "-inf" or "nan" when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _real_in(value, where: str) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number or value in ("inf", "-inf", "nan"):
        try:
            return float(value)
        except OverflowError:  # an integer past float's range, read as json reads 1e400
            return math.inf if value > 0 else -math.inf
    raise ParseError('expected a number, "inf", "-inf" or "nan"', where)


def _int_in(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError("expected an integer", where)


def _count_in(value, where: str) -> int:
    """An integer >= 0: a seed, a dimension or a sample count."""
    if _int_in(value, where) < 0:
        raise ParseError("expected an integer >= 0", where)
    return value


def _tol_in(value, where: str) -> float:
    """A tolerance: a finite number > 0, as the command line takes it."""
    x = _real_in(value, where)
    if not (math.isfinite(x) and x > 0):
        raise ParseError("expected a finite number > 0", where)
    return x


def _bool_in(value, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ParseError("expected true or false", where)


def _str_in(value, where: str) -> str:
    if isinstance(value, str):
        return value
    raise ParseError("expected a string", where)


def _list_in(value, where: str) -> list:
    if isinstance(value, list):
        return value
    raise ParseError("expected a list", where)


def _tuple_in(parse):
    """The reader of a list, each item read by ``parse`` at the list's context."""
    return lambda value, where: tuple([parse(item, where) for item in _list_in(value, where)])


def _read(obj, key: str, where: str | None, parse, default=...):
    """``obj[key]`` read by ``parse`` at the context ``where.key`` (``key``
    when ``where`` is None, at the top of a document), or ``default`` when
    ``key`` is absent.  The default ``...`` marks a required field."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    if key in obj:
        return parse(obj[key], key if where is None else f"{where}.{key}")
    if default is ...:
        raise ParseError(f"missing field {key!r}", where)
    return default


def _pair(z: complex) -> list[float | str]:
    z = complex(z)
    return [_real_out(z.real), _real_out(z.imag)]


def _unpair(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError("expected a [re, im] pair", where)
    return complex(_real_in(value[0], where), _real_in(value[1], where))


def _finite_unpair(value, where: str) -> complex:
    """:func:`_unpair` for a value that must be finite: a number of an input
    file, a finite spectral point or the shift of a report."""
    z = _unpair(value, where)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError("expected a finite [re, im] pair", where)
    return z


def _witness_out(witness) -> str | None:
    """A finding's witness as a report holds it: None or a string, a tuple's repr."""
    return witness if witness is None or isinstance(witness, str) else repr(witness)


def _witness_in(value, where: str) -> str | None:
    if value is None or isinstance(value, str):
        return value
    raise ParseError("expected a string or null", where)


def _alpha_out(p: ProjectivePoint):
    return "inf" if p.is_infinite else _pair(p.value)


def _alpha_in(value, where: str) -> ProjectivePoint:
    from .linalg import INFINITY, ProjectivePoint

    if value == "inf":
        return INFINITY
    return ProjectivePoint.finite(_finite_unpair(value, where))


# --------------------------------------------------------------------------
# algebra and functional files


def algebra_to_doc(alg: Algebra) -> dict:
    i, j, k, _ = alg.coordinates
    # the complex entries, whose signed zeros the file keeps; every entry of
    # an Algebra is finite
    values = alg.structure[i, j, k]
    rows = zip(i.tolist(), j.tolist(), k.tolist(), values.real.tolist(), values.imag.tolist())
    entries = [list(row) for row in rows]
    doc = {
        "dim": alg.dim,
        "unit": [_pair(z) for z in alg.unit],
        "structure": entries,
    }
    if alg.basis_labels is not None:
        doc["basis"] = list(alg.basis_labels)
    return doc


def algebra_from_doc(doc: dict) -> Algebra:
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be an object")
    if "dim" not in doc:
        raise ParseError("missing field 'dim'", "algebra")
    dim = _int_in(doc["dim"], "dim")
    if dim < 1:
        raise ParseError("must be >= 1", "dim")
    unit_raw = doc.get("unit")
    if not isinstance(unit_raw, list) or len(unit_raw) != dim:
        raise ParseError(f"expected a list of {dim} [re, im] pairs", "unit")
    unit = np.array([_finite_unpair(v, f"unit[{i}]") for i, v in enumerate(unit_raw)])
    structure = np.zeros((dim, dim, dim), dtype=complex)
    entries = doc.get("structure", [])
    if not isinstance(entries, list):
        raise ParseError("expected a list of [i, j, k, re, im] rows", "structure")
    seen: set[tuple[int, int, int]] = set()
    for row_no, row in enumerate(entries):
        where = f"structure[{row_no}]"
        if not isinstance(row, (list, tuple)) or len(row) != 5:
            raise ParseError("expected [i, j, k, re, im]", where)
        i, j, k = row[:3]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j, k)):
            raise ParseError("indices must be integers", where)
        if not all(0 <= x < dim for x in (i, j, k)):
            raise ParseError(f"indices out of range [0, {dim})", where)
        if (i, j, k) in seen:
            raise ParseError(f"duplicate entry for ({i}, {j}, {k})", where)
        seen.add((i, j, k))
        structure[i, j, k] = _finite_unpair(row[3:], where)
    labels = doc.get("basis")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise ParseError(f"expected {dim} labels", "basis")
        labels = tuple(_str_in(s, f"basis[{i}]") for i, s in enumerate(labels))
    return Algebra(dim, structure, unit, labels)


def functional_to_doc(f: Functional) -> dict:
    return {"coords": [_pair(z) for z in f.coords]}


def functional_from_doc(doc: dict) -> Functional:
    from .functional import Functional

    if not isinstance(doc, dict) or "coords" not in doc:
        raise ParseError("functional document needs a 'coords' list", "coords")
    coords = doc["coords"]
    if not isinstance(coords, list) or not coords:
        raise ParseError("expected a non-empty list of [re, im] pairs", "coords")
    return Functional(np.array([_finite_unpair(v, f"coords[{i}]") for i, v in enumerate(coords)]))


def _parse_json(load, source, where: str | None = None):
    """``load(source)``, with json's errors raised as :class:`ParseError` at ``where``."""
    try:
        return load(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}", where) from None
    except ValueError as exc:  # a file not in UTF-8, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}", where) from None


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return _parse_json(json.load, handle, path)
    except OSError as exc:
        raise ParseError(str(exc), path) from None


def load_algebra(path: str) -> Algebra:
    return algebra_from_doc(_load_json(path))


def load_functional(path: str) -> Functional:
    return functional_from_doc(_load_json(path))


def _json_text(doc: dict) -> str:
    """``doc`` as one line of strict JSON and a newline, written by json's C
    encoder.  It raises as json does: ``ValueError`` for NaN or infinity,
    ``TypeError`` for a value or key of another type."""
    return json.dumps(doc, allow_nan=False) + "\n"


def _dump_json(doc: dict, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(doc))


def save_algebra(alg: Algebra, path: str):
    _dump_json(algebra_to_doc(alg), path)


def save_functional(f: Functional, path: str):
    _dump_json(functional_to_doc(f), path)


# --------------------------------------------------------------------------
# report documents


def _as_is(value):
    return value


def _rows_out(rows, table) -> list[dict]:
    """``rows`` as ``table`` writes them: a row is a tuple of its fields in
    the table's order, or has an attribute per key."""
    return [
        {key: write(value) for (key, write, _, _), value in zip(table, row)}
        if isinstance(row, tuple)
        else {key: write(getattr(row, key)) for key, write, _, _ in table}
        for row in rows
    ]


def _rows_in(table, make):
    """The reader of a list of ``table``'s rows, each made by ``make(*fields)``."""

    def row_in(row, where: str):
        return make(*[_read(row, key, where, read, default) for key, _, read, default in table])

    return _tuple_in(row_in)


# Each row type's fields in the order they are written: the key, the writer,
# the reader and the value a reader takes when the key is absent (... for a
# required field).  The keys name the attributes of a SpectrumPoint and of a
# Finding; a check is a (name, passed, residual, detail) tuple.
_SPECTRUM = (
    ("alpha", _alpha_out, _alpha_in, ...),
    ("algebraic_mult", _as_is, _int_in, ...),
    ("stab_dim", _as_is, _int_in, ...),
    ("filtration_dims", list, _tuple_in(_int_in), ...),
)
_FINDINGS = (
    ("theorem_id", _as_is, _str_in, ...),
    ("passed", _as_is, _bool_in, ...),
    ("max_residual", _real_out, _real_in, ...),
    ("witness", _witness_out, _witness_in, None),
    ("samples", _as_is, _count_in, 0),
    ("notes", list, _tuple_in(_str_in), ()),
)
_CHECKS = (
    ("name", _as_is, _str_in, ...),
    ("passed", _as_is, _bool_in, ...),
    ("residual", _real_out, _real_in, ...),
    ("detail", _as_is, _str_in, ""),
)


def _kind_in(value, where: str) -> str:
    if _str_in(value, where) in ("analyze", "verify"):
        return value
    raise ParseError("expected 'analyze' or 'verify'", where)


def _tols_in(value, where: str) -> tuple[float, float]:
    return (
        _read(value, "tol", where, _tol_in, DEFAULT_TOL),
        _read(value, "cluster_tol", where, _tol_in, DEFAULT_CLUSTER_TOL),
    )


@dataclass(frozen=True)
class ReportDocument:
    """Machine-readable analysis or verification report.

    Round-trips losslessly through :meth:`to_json` / :meth:`from_json`.
    """

    kind: str  # "analyze" or "verify"
    tol: float
    cluster_tol: float
    seed: int
    alpha0: complex | None = None
    nil_dim: int | None = None
    chi: tuple[complex, ...] | None = None
    spectrum: tuple[SpectrumPoint, ...] = ()
    v_frames: tuple[tuple[tuple[complex, ...], ...], ...] | None = None
    findings: tuple[Finding, ...] = ()
    checks: tuple[tuple[str, bool, float, str], ...] = ()

    def to_doc(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "tolerances": {"tol": self.tol, "cluster_tol": self.cluster_tol},
            "seed": self.seed,
        }
        if self.alpha0 is not None:
            doc["alpha0"] = _pair(self.alpha0)
        if self.nil_dim is not None:
            doc["nil_dim"] = self.nil_dim
        if self.chi is not None:
            doc["chi"] = [_pair(z) for z in self.chi]
        if self.spectrum:
            doc["spectrum"] = _rows_out(self.spectrum, _SPECTRUM)
        if self.v_frames is not None:
            doc["v_frames"] = [
                [[_pair(z) for z in col] for col in frame] for frame in self.v_frames
            ]
        if self.findings:
            doc["findings"] = _rows_out(self.findings, _FINDINGS)
        if self.checks:
            doc["checks"] = _rows_out(self.checks, _CHECKS)
        return doc

    def to_json(self) -> str:
        return _json_text(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "ReportDocument":
        from .spectral import SpectrumPoint
        from .verify import Finding

        kind = _read(doc, "kind", None, _kind_in)
        tolerances = _read(doc, "tolerances", None, _tols_in, (DEFAULT_TOL, DEFAULT_CLUSTER_TOL))
        return cls(
            kind,
            *tolerances,
            seed=_read(doc, "seed", None, _count_in, 0),
            alpha0=_read(doc, "alpha0", None, _finite_unpair, None),
            nil_dim=_read(doc, "nil_dim", None, _count_in, None),
            chi=_read(doc, "chi", None, _tuple_in(_unpair), None),
            spectrum=_read(doc, "spectrum", None, _rows_in(_SPECTRUM, SpectrumPoint), ()),
            v_frames=_read(doc, "v_frames", None, _tuple_in(_tuple_in(_tuple_in(_unpair))), None),
            findings=_read(doc, "findings", None, _rows_in(_FINDINGS, Finding), ()),
            checks=_read(doc, "checks", None, _rows_in(_CHECKS, lambda *check: check), ()),
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls.from_doc(_parse_json(json.loads, text))


def report_from_decomposition(
    dec: Decomposition, seed: int, include_frames: bool = False
) -> ReportDocument:
    v_frames = None
    if include_frames:
        v_frames = tuple(
            tuple(tuple(complex(z) for z in col) for col in v.frame.T) for v in dec.v_spaces
        )
    return ReportDocument(
        kind="analyze",
        tol=dec.tol,
        cluster_tol=dec.cluster_tol,
        seed=seed,
        alpha0=dec.alpha0_used,
        nil_dim=dec.nil.dim,
        chi=tuple(complex(z) for z in dec.chi.coeffs),
        spectrum=dec.points,
        v_frames=v_frames,
        findings=(),
        checks=tuple((c.name, c.passed, c.residual, c.detail) for c in dec.checks),
    )


def report_from_findings(
    findings, seed: int, tol: float, cluster_tol: float
) -> ReportDocument:
    return ReportDocument(
        kind="verify",
        tol=tol,
        cluster_tol=cluster_tol,
        seed=seed,
        findings=tuple(replace(f, witness=_witness_out(f.witness)) for f in findings),
    )


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6g}{z.imag:+.6g}i"


def render_text(report: ReportDocument) -> str:
    """Human-readable table rendering of a report."""
    lines = [f"report: {report.kind}"]
    lines.append(
        f"tol={report.tol:g}  cluster_tol={report.cluster_tol:g}  seed={report.seed}"
    )
    if report.alpha0 is not None:
        lines.append(f"alpha0 = {_fmt_complex(report.alpha0)}")
    if report.nil_dim is not None:
        lines.append(f"dim nil = {report.nil_dim}")
    if report.chi is not None:
        lines.append("chi coefficients (lam^K .. mu^K):")
        lines.append("  " + "  ".join(_fmt_complex(z) for z in report.chi))
    if report.spectrum:
        lines.append("spectrum:")
        lines.append(f"  {'alpha':>24}  {'mult':>4}  {'stab':>4}  filtration dims")
        for row in report.spectrum:
            alpha = "inf" if row.alpha.is_infinite else _fmt_complex(row.alpha.value)
            dims = " <= ".join(str(d) for d in row.filtration_dims)
            lines.append(
                f"  {alpha:>24}  {row.algebraic_mult:>4}  {row.stab_dim:>4}  {dims}"
            )
    if report.findings:
        lines.append("findings:")
        for f in report.findings:
            status = "pass" if f.passed else "FAIL"
            note = f"  ({'; '.join(f.notes)})" if f.notes else ""
            lines.append(
                f"  [{status}] {f.theorem_id}: max residual {f.max_residual:.3e}"
                f" over {f.samples} samples{note}"
            )
    if report.checks:
        lines.append("invariant checks:")
        for name, passed, residual, detail in report.checks:
            status = "pass" if passed else "FAIL"
            extra = f" ({detail})" if detail else ""
            lines.append(f"  [{status}] {name}: residual {residual:.3e}{extra}")
    return "\n".join(lines) + "\n"
