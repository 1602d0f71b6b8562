"""Spans around the public functions of each algscope layer.

The wrappers are installed from outside: every module attribute in
``algscope.*`` that refers to a target function is replaced, so calls are
caught wherever a caller looks the function up (``verify.decompose``,
``spectral.reduce_pencil``, ``cli.decompose``, ...).  ``numpy.linalg.svd`` is
wrapped as ``linalg.svd``.  Spans are recorded only while an op is running
and kept in memory until the run ends.

A span is ``[name, start, end, parent, op, nested]``: ``parent`` indexes the
enclosing span (-1 for none) and ``nested`` marks a call made inside another
call of the same name, whose time the outer call already includes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

from checks import gating_failures

#: layer name -> (module, attribute path) of the function wrapped for it
TARGETS = {
    "algebra.validate": ("algscope.algebra", "validate"),
    "algebra.pairwise_products": ("algscope.algebra", "pairwise_products"),
    "functional.reduce_pencil": ("algscope.functional", "reduce_pencil"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.subspace_intersect": ("algscope.linalg", "subspace_intersect"),
    "linalg.det_poly": ("algscope.linalg", "det_poly"),
    "linalg.pencil_eigen": ("algscope.linalg", "pencil_eigen"),
    "spectral.decompose": ("algscope.spectral", "decompose"),
    "spectral.checks": ("algscope.spectral", "_decomposition_checks"),
    "spectral.filtrations": ("algscope.spectral", "_filtration_reduced"),
    "spectral.choose_alpha0": ("algscope.spectral", "choose_alpha0"),
    "spectral.char_poly": ("algscope.spectral", "char_poly"),
    "spectral.spectrum": ("algscope.spectral", "spectrum"),
    "verify.run_suites": ("algscope.verify", "run_suites"),
    "verify.verify_kernel_relations": ("algscope.verify", "verify_kernel_relations"),
    "verify.verify_alpha0_suite": ("algscope.verify", "verify_alpha0_suite"),
    "verify.verify_v_mult": ("algscope.verify", "verify_v_mult"),
    "verify.verify_dim_symmetry": ("algscope.verify", "verify_dim_symmetry"),
    "verify.verify_stab_transversality": ("algscope.verify", "verify_stab_transversality"),
    "verify.verify_regular_perturbation": ("algscope.verify", "verify_regular_perturbation"),
    "verify.verify_corollaries": ("algscope.verify", "verify_corollaries"),
    "verify.minimize_stab_dim": ("algscope.verify", "minimize_stab_dim"),
    "verify.negative_control_finding": ("algscope.verify", "negative_control_finding"),
    "report.load_algebra": ("algscope.report", "load_algebra"),
    "report.load_functional": ("algscope.report", "load_functional"),
    "report.save_algebra": ("algscope.report", "save_algebra"),
    "report.to_json": ("algscope.report", "ReportDocument.to_json"),
    "cli.main": ("algscope.cli", "main"),
}

#: invariant checks of ``decompose``, each counted when it fails
CHECK_NAMES = (
    "multiplicities_sum_to_quotient_dim",
    "v_dim_equals_nil_plus_multiplicity",
    "pairwise_v_intersections_equal_nil",
    "v_spaces_span_algebra",
    "char_poly_vanishes_on_spectrum",
    "char_poly_infinity_multiplicity",
)

#: span recorded by the CLI launcher around ``import algscope.cli``
CLI_IMPORT = "cli.import"


def _count_check_failures(tracer, args, kwargs, dec):
    for check in dec.checks:
        if not check.passed:
            tracer.counters["spectral.check_failures.total"] += 1
            if check.name in CHECK_NAMES:
                tracer.counters[f"spectral.check_failures.{check.name}"] += 1


def _count_suite_run(tracer, args, kwargs, findings):
    n = kwargs["n_functionals"] if "n_functionals" in kwargs else args[2] if len(args) > 2 else 10
    tracer.counters["verify.functionals"] += n
    tracer.counters["verify.findings_failed"] += len(gating_failures(findings))


def _count_json_bytes(tracer, args, kwargs, text):
    tracer.counters["report.bytes_written"] += len(text.encode("utf-8"))


def _count_file_bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.counters["report.bytes_written"] += os.path.getsize(path)


AFTER = {
    "spectral.decompose": _count_check_failures,
    "verify.run_suites": _count_suite_run,
    "report.to_json": _count_json_bytes,
    "report.save_algebra": _count_file_bytes,
}


class Tracer:
    """In-memory span recorder; ``op`` is the id of the running op, or None
    while no op runs (calls are then passed through unrecorded)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op, self._active[name] > 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at each place algscope modules refer to it."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "algscope" or n.startswith("algscope.")
        ]
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if owners:  # a method: callers reach it through the class
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def add_span(self, name: str, start: float, end: float):
        """Record a span measured by the caller (no parent)."""
        self.spans.append([name, start, end, -1, self.op, False])

    def merge(self, doc: dict, op: int):
        """Fold in the spans and counters dumped by a traced subprocess."""
        base = len(self.spans)
        for name, start, end, parent, _, nested in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, nested])
        self.counters.update(doc["counters"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, _ in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in TARGETS:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
    names += [f"{CLI_IMPORT}.s", "report.bytes_written"]
    names += ["verify.decompose_per_functional", "verify.reduce_pencil_per_functional"]
    names += ["verify.findings_failed", "spectral.check_failures.total"]
    names += [f"spectral.check_failures.{c}" for c in CHECK_NAMES]
    return names


def layer_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Calls, inclusive seconds and self seconds per layer, plus the counts.

    Self time is a span's duration minus the time of its direct child spans.
    Ratios per functional count only calls made inside ``run_suites``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: 0.0 for name in layer_names()}
    under_suites = Counter()
    for i, (name, start, end, parent, _, nested) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
        if not nested:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child[i])
        if name in ("spectral.decompose", "functional.reduce_pencil"):
            p = parent
            while p >= 0 and spans[p][0] != "verify.run_suites":
                p = spans[p][3]
            if p >= 0:
                under_suites[name] += 1
    out.pop(f"{CLI_IMPORT}.calls", None)
    out.pop(f"{CLI_IMPORT}.self_s", None)
    functionals = counters.get("verify.functionals", 0)
    if functionals:
        out["verify.decompose_per_functional"] = under_suites["spectral.decompose"] / functionals
        out["verify.reduce_pencil_per_functional"] = (
            under_suites["functional.reduce_pencil"] / functionals
        )
    for key in out:
        if key in counters:
            out[key] = float(counters[key])
    return out
