"""The names other code relies on stay, the names that were removed stay
gone, and the README's library quickstart runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import algscope

ROOT = Path(__file__).resolve().parents[1]


def tracer_targets():
    """perfbench's ``TARGETS``, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


TARGETS = tracer_targets()


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_tracer_target_resolves_to_a_callable(layer):
    """perfbench wraps each target by name, so a removed or renamed one
    blinds its layer.  Until the program records its own stage spans, these
    names stay, the single-pencil ones among them (``spectrum``,
    ``char_poly``, ``det_poly``, ``pencil_eigen``, ``choose_alpha0``,
    ``_filtration_reduced``) and the batch-of-one suite wrappers
    (``verify_alpha0_suite``, ``verify_stab_transversality``, ...)."""
    module, path = TARGETS[layer]
    value = importlib.import_module(module)
    for attr in path.split("."):
        value = getattr(value, attr)
    assert callable(value), (module, path)


#: names removed from the package: a second rule for a decision that the
#: spectrum's eigendecomposition makes, a type that repeated another one, a
#: set and a search that no program path needs, the second shift and the
#: second climb of the alpha0 suite, which reads the reported chain instead,
#: or a second copy of the point lookup and of the shift-regularity floor
REMOVED = (
    "jordan_filtration",
    "verify_alpha0_independence",
    "infinity_multiplicity",
    "finite_root_multiset",
    "coefficient_norm",
    "SpectrumRow",
    "GramData",
    "PROVED_THEOREMS",
    "_minimize_stab_dims",
    "_direct_sum_ranks",
    "_log_det_residuals",
    "_point_table",
    "_positions",
    "_target_indices",
    "_check_pairing",
    "nil_ideal_check",
    "NilIdealReport",
    "_suite_shifts",
    "_alpha0_independence",
    "RANK_ONE_MULTIPLICATIVE",
    "projective_close",
    "SINGULAR_SHIFT_TOL",
    "_product_inclusions",
)


def test_no_removed_name_is_left():
    from algscope.linalg import HomogeneousPoly

    assert not set(REMOVED) & set(algscope.__all__)
    assert not hasattr(HomogeneousPoly, "evaluate")
    paths = [
        *(ROOT / "src" / "algscope").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        ROOT / "README.md",
    ]
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for name in REMOVED:
            assert name not in text, (path.name, name)


def readme_quickstart():
    """The first ``python`` block under the README's "Library quickstart"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under Library quickstart"
    return match.group(1)


def test_readme_quickstart_runs():
    code = readme_quickstart()
    assert "dec.filtrations[i]" in code
    exec(compile(code, "README.md (Library quickstart)", "exec"), {"__name__": "quickstart"})
