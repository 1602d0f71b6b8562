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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
        return float(value)
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


def _field(obj, key: str, where: str):
    """``obj[key]``, or :class:`ParseError` naming the missing field."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    if key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    return obj[key]


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


def _witness_in(value) -> str | None:
    """A finding's witness as :meth:`ReportDocument.to_doc` writes it: a
    string (the repr of a tuple) or null."""
    if value is None or isinstance(value, str):
        return value
    raise ParseError("expected a string or null", "findings.witness")


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
    dim = _int_in(_field(doc, "dim", "algebra"), "dim")
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


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}", path) from None


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
            doc["spectrum"] = [
                {
                    "alpha": _alpha_out(row.alpha),
                    "algebraic_mult": row.algebraic_mult,
                    "stab_dim": row.stab_dim,
                    "filtration_dims": list(row.filtration_dims),
                }
                for row in self.spectrum
            ]
        if self.v_frames is not None:
            doc["v_frames"] = [
                [[_pair(z) for z in col] for col in frame] for frame in self.v_frames
            ]
        if self.findings:
            doc["findings"] = [
                {
                    "theorem_id": f.theorem_id,
                    "passed": f.passed,
                    "max_residual": _real_out(f.max_residual),
                    "witness": (
                        f.witness
                        if f.witness is None or isinstance(f.witness, str)
                        else repr(f.witness)
                    ),
                    "samples": f.samples,
                    "notes": list(f.notes),
                }
                for f in self.findings
            ]
        if self.checks:
            doc["checks"] = [
                {"name": n, "passed": p, "residual": _real_out(r), "detail": d}
                for n, p, r, d in self.checks
            ]
        return doc

    def to_json(self) -> str:
        return _json_text(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "ReportDocument":
        from .spectral import SpectrumPoint
        from .verify import Finding

        if not isinstance(doc, dict) or "kind" not in doc:
            raise ParseError("report document needs a 'kind'", "kind")
        tolerances = doc.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ParseError("expected an object", "tolerances")
        spectrum = tuple(
            SpectrumPoint(
                _alpha_in(_field(row, "alpha", "spectrum"), "spectrum.alpha"),
                _int_in(_field(row, "algebraic_mult", "spectrum"), "spectrum.algebraic_mult"),
                _int_in(_field(row, "stab_dim", "spectrum"), "spectrum.stab_dim"),
                tuple(
                    _int_in(d, "spectrum.filtration_dims")
                    for d in _list_in(
                        _field(row, "filtration_dims", "spectrum"), "spectrum.filtration_dims"
                    )
                ),
            )
            for row in _list_in(doc.get("spectrum", []), "spectrum")
        )
        findings = tuple(
            Finding(
                _str_in(_field(f, "theorem_id", "findings"), "findings.theorem_id"),
                _bool_in(_field(f, "passed", "findings"), "findings.passed"),
                _real_in(_field(f, "max_residual", "findings"), "findings.max_residual"),
                _witness_in(f.get("witness")),
                _count_in(f.get("samples", 0), "findings.samples"),
                tuple(
                    _str_in(note, "findings.notes")
                    for note in _list_in(f.get("notes", []), "findings.notes")
                ),
            )
            for f in _list_in(doc.get("findings", []), "findings")
        )
        checks = tuple(
            (
                _str_in(_field(c, "name", "checks"), "checks.name"),
                _bool_in(_field(c, "passed", "checks"), "checks.passed"),
                _real_in(_field(c, "residual", "checks"), "checks.residual"),
                _str_in(c.get("detail", ""), "checks.detail"),
            )
            for c in _list_in(doc.get("checks", []), "checks")
        )
        v_frames = None
        if "v_frames" in doc:
            v_frames = tuple(
                tuple(
                    tuple(_unpair(z, "v_frames") for z in _list_in(col, "v_frames"))
                    for col in _list_in(frame, "v_frames")
                )
                for frame in _list_in(doc["v_frames"], "v_frames")
            )
        chi = None
        if "chi" in doc:
            chi = tuple(_unpair(z, "chi") for z in _list_in(doc["chi"], "chi"))
        kind = _str_in(doc["kind"], "kind")
        if kind not in ("analyze", "verify"):
            raise ParseError("expected 'analyze' or 'verify'", "kind")
        return cls(
            kind=kind,
            tol=_tol_in(tolerances.get("tol", DEFAULT_TOL), "tolerances.tol"),
            cluster_tol=_tol_in(
                tolerances.get("cluster_tol", DEFAULT_CLUSTER_TOL), "tolerances.cluster_tol"
            ),
            seed=_count_in(doc.get("seed", 0), "seed"),
            alpha0=_finite_unpair(doc["alpha0"], "alpha0") if "alpha0" in doc else None,
            nil_dim=_count_in(doc["nil_dim"], "nil_dim") if "nil_dim" in doc else None,
            chi=chi,
            spectrum=spectrum,
            v_frames=v_frames,
            findings=findings,
            checks=checks,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None
        return cls.from_doc(doc)


def report_from_decomposition(
    dec: Decomposition, seed: int, include_frames: bool = False
) -> ReportDocument:
    v_frames = None
    if include_frames:
        v_frames = tuple(
            tuple(tuple(complex(z) for z in col) for col in dec.v_spaces[p.alpha].frame.T)
            for p in dec.points
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


def _stringify_witness(f: Finding) -> Finding:
    from .verify import Finding

    if f.witness is None or isinstance(f.witness, str):
        return f
    return Finding(f.theorem_id, f.passed, f.max_residual, repr(f.witness), f.samples, f.notes)


def report_from_findings(
    findings, seed: int, tol: float, cluster_tol: float
) -> ReportDocument:
    return ReportDocument(
        kind="verify",
        tol=tol,
        cluster_tol=cluster_tol,
        seed=seed,
        findings=tuple(_stringify_witness(f) for f in findings),
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
