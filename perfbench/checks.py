"""Output checks that do not rely on the program's own verdicts.

Each function returns a list of problems (empty when the output is right).
The facts checked hold for every valid input, so a problem here is a wrong
answer, never an unlucky input:

- the quotient dimension K is recomputed from the structure tensor;
- multiplicities sum to K;
- the spectrum is closed under alpha -> 1/alpha (0 and infinity paired) with
  equal multiplicities;
- on Mat_n with a generic functional there are n(n-1)+1 points and the point
  alpha = 1 has multiplicity n;
- reports parse back through ``ReportDocument.from_json``;
- every finding is well formed, and each theorem appears either once or once
  per functional.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# points are compared at the program's default clustering resolution, and
# K is ranked at its default rank tolerance
from algscope.spectral import DEFAULT_CLUSTER_TOL as REL_TOL
from algscope.spectral import DEFAULT_TOL as RANK_TOL


def quotient_dim(structure: np.ndarray, f_coords: np.ndarray) -> int:
    """K = N - dim nil, where nil = ker(a) & ker(a^T) for a[i, j] = F(e_i e_j)."""
    a = np.tensordot(structure, f_coords, axes=([2], [0]))
    s = np.linalg.svd(np.vstack([a, a.T]), compute_uv=False)
    if not s.size or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def _inverse(alpha: complex | None) -> complex | None:
    if alpha is None:
        return 0j
    if alpha == 0:
        return None
    return 1.0 / alpha


def _close(a: complex | None, b: complex | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def spectrum_problems(
    rows: list[tuple[complex | None, int]], k_expected: int, matrix_n: int | None = None
) -> list[str]:
    """Check spectral points ``(alpha or None for infinity, multiplicity)``."""
    problems = []
    total = sum(m for _, m in rows)
    if total != k_expected:
        problems.append(f"multiplicities sum to {total}, expected K = {k_expected}")
    if matrix_n is not None:
        n = matrix_n
        if len(rows) != n * (n - 1) + 1:
            problems.append(f"{len(rows)} spectral points on Mat_{n}, expected {n * (n - 1) + 1}")
        at_one = [m for alpha, m in rows if _close(alpha, 1.0 + 0j)]
        if at_one != [n]:
            problems.append(f"multiplicity at alpha = 1 is {at_one}, expected [{n}]")
    for alpha, mult in rows:
        mirror = _inverse(alpha)
        if not any(_close(mirror, beta) and m == mult for beta, m in rows):
            problems.append(f"alpha = {alpha} (mult {mult}) has no mirror point 1/alpha")
    return problems


def parse_report(text: str):
    """Parse a report through the public reader; returns (document, problems)."""
    from algscope.report import ReportDocument

    try:
        return ReportDocument.from_json(text), []
    except Exception as exc:  # any parse failure is a wrong output
        return None, [f"report does not parse back: {type(exc).__name__}: {exc}"]


def report_spectrum(doc) -> list[tuple[complex | None, int]]:
    return [
        (None if row.alpha.is_infinite else complex(row.alpha.value), row.algebraic_mult)
        for row in doc.spectrum
    ]


def analyze_report_problems(
    text: str, structure: np.ndarray, f_coords: np.ndarray, matrix_n: int | None
) -> list[str]:
    """An ``analyze`` report: parses back, and its spectrum passes the checks."""
    doc, problems = parse_report(text)
    if doc is None:
        return problems
    if doc.kind != "analyze":
        return [f"report kind {doc.kind!r}, expected 'analyze'"]
    k = quotient_dim(structure, f_coords)
    return spectrum_problems(report_spectrum(doc), k, matrix_n)


def is_control(finding) -> bool:
    return any("negative control" in note for note in finding.notes)


def findings_problems(findings, n_functionals: int) -> list[str]:
    """Suite findings (the negative control aside) are well formed, sorted by
    theorem, and each theorem appears once (suites run at a minimizer) or
    once per functional."""
    findings = [f for f in findings if not is_control(f)]
    problems = []
    ids = [f.theorem_id for f in findings]
    if not ids:
        problems.append("no findings")
    if ids != sorted(ids):
        problems.append("findings are not sorted by theorem id")
    for f in findings:
        if not isinstance(f.passed, bool):
            problems.append(f"{f.theorem_id}: passed is {f.passed!r}")
        if math.isnan(f.max_residual):
            problems.append(f"{f.theorem_id}: residual is NaN")
    for theorem, count in Counter(ids).items():
        if count not in (1, n_functionals):
            problems.append(f"{theorem} reported {count} times for {n_functionals} functionals")
    return problems


def gating_failures(findings) -> list[str]:
    """Failed findings that gate ``algscope verify``'s exit code: all but the
    observation-grade transversality report and the negative control."""
    return [
        f.theorem_id
        for f in findings
        if not f.passed
        and f.theorem_id != "StabTransversality"
        and not is_control(f)
    ]
