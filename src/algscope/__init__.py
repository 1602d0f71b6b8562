"""algscope: spectral decomposition of finite-dimensional associative algebras.

Given a multiplication table and a linear functional F, the library builds
the pairing matrix F(e_i e_j), splits off its two-sided kernel, and
decomposes the quotient into the Jordan filtration of the associated matrix
pencil.  Product structure of the algebra is reflected in the decomposition
(products of filtration spaces land in the filtration space of the product
of their spectral points), and executable suites verify those theorems
numerically with residuals and witnesses.

The names below load on first use: ``algscope.decompose`` (or
``from algscope import decompose``) imports ``algscope.spectral`` and its
dependencies then, not when the package is imported.  The command line
relies on this to import only the modules a subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "algebra": (
            "Algebra",
            "Element",
            "ValidationReport",
            "direct_sum",
            "dual_numbers",
            "group_algebra",
            "cyclic_table",
            "klein_table",
            "symmetric3_table",
            "mat_algebra",
            "multiply",
            "opposite",
            "pairwise_products",
            "upper_triangular",
            "validate",
        ),
        "errors": (
            "AlgscopeError",
            "BadParams",
            "DimensionMismatch",
            "InvalidGroupTable",
            "NoRegularValue",
            "NonFinite",
            "ParseError",
            "ShapeError",
            "SingularPencil",
            "SingularShift",
            "TheoremViolation",
            "UnknownBuilder",
        ),
        "functional": (
            "Functional",
            "GramData",
            "Kernels",
            "MultiplicativeReport",
            "NilIdealReport",
            "ReducedPencil",
            "gram",
            "is_multiplicative",
            "kernels",
            "matrix_trace_functional",
            "nil_ideal_check",
            "random_functional",
            "reduce_pencil",
        ),
        "linalg": (
            "INFINITY",
            "HomogeneousPoly",
            "ProjectivePoint",
            "Subspace",
            "complement",
            "det_poly",
            "nullspace",
            "pencil_eigen",
            "projective_close",
            "projector_distance",
            "subspace_equal",
            "subspace_intersect",
            "subspace_sum",
        ),
        "spectral": (
            "Decomposition",
            "InvariantCheck",
            "SpectrumPoint",
            "char_poly",
            "choose_alpha0",
            "decompose",
            "decompose_all",
            "jordan_filtration",
            "spectrum",
            "stab",
            "verify_alpha0_independence",
        ),
        "verify": (
            "Finding",
            "minimize_stab_dim",
            "negative_control_finding",
            "run_suites",
            "verify_alpha0_suite",
            "verify_corollaries",
            "verify_dim_symmetry",
            "verify_kernel_relations",
            "verify_regular_perturbation",
            "verify_stab_transversality",
            "verify_v_mult",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():  # ``algscope.verify`` without importing it first
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
