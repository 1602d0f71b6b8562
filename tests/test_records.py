"""The contract of the public record types.

Value records (``typing.NamedTuple`` classes, and ``Finding``, a frozen
dataclass) compare and hash by value.  Array holders compare by identity
and keep the default hash, since their fields hold arrays.  No instance of
either kind takes a new attribute value."""

import numpy as np
import pytest

from algscope import (
    INFINITY,
    Algebra,
    Decomposition,
    Element,
    Finding,
    Functional,
    HomogeneousPoly,
    InvariantCheck,
    Kernels,
    MultiplicativeReport,
    ProjectivePoint,
    ReducedPencil,
    SpectrumPoint,
    Subspace,
    ValidationReport,
)
from algscope.report import ReportDocument


def pencil():
    zero = Subspace.zero(2, 1e-9)
    return ReducedPencil(Kernels(zero, zero, zero), np.eye(2), np.eye(2))


#: each array holder, built from fresh arrays of the same values at each call
ARRAY_HOLDERS = {
    "Algebra": lambda: Algebra(1, np.ones((1, 1, 1)), np.ones(1)),
    "Element": lambda: Element(np.ones(2), 2),
    "Functional": lambda: Functional(np.ones(2)),
    "Subspace": lambda: Subspace(2, np.eye(2), 1e-9),
    "HomogeneousPoly": lambda: HomogeneousPoly(1, np.ones(2)),
    "ReducedPencil": pencil,
    "Decomposition": lambda: Decomposition(pencil(), np.ones(2), (), (), 0.5, 1e-6, 0),
}

#: each value record, built from the same values at each call
SPACE = Subspace.zero(2, 1e-9)
VALUE_RECORDS = {
    "ValidationReport": lambda: ValidationReport(True, 0.0, 0.0, None),
    "ReportDocument": lambda: ReportDocument("analyze", 1e-9, 1e-6, 0, chi=(1 + 0j,)),
    "ProjectivePoint": lambda: ProjectivePoint.finite(2.0),
    "SpectrumPoint": lambda: SpectrumPoint(INFINITY, 1, 0, (1,)),
    "InvariantCheck": lambda: InvariantCheck("name", True, 0.5),
    "MultiplicativeReport": lambda: MultiplicativeReport("Multiplicative", 1, 1 + 0j, 0.0),
    "Kernels": lambda: Kernels(SPACE, SPACE, SPACE),
    "Finding": lambda: Finding("Corollary1", True, 0.0, None, 3, ("note",)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    # two holders of equal arrays are two objects: == asks no array for a
    # truth value, and each hashes as itself
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and not a == b and a != b
    assert hash(a) == object.__hash__(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_value(name):
    a, b = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS) + sorted(VALUE_RECORDS))
def test_no_attribute_takes_a_new_value(name):
    record = {**ARRAY_HOLDERS, **VALUE_RECORDS}[name]()
    field = next(iter(vars(record) if name in ARRAY_HOLDERS else record.__annotations__))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_name = None
    assert getattr(record, field) is before


def test_cached_values_are_kept():
    dec = ARRAY_HOLDERS["Decomposition"]()
    assert "_shape" not in vars(dec)
    assert dec._shape is None and dec._shape is dec._shape and "_shape" in vars(dec)
    alg = ARRAY_HOLDERS["Algebra"]()
    assert alg.coordinates is alg.coordinates


def test_reprs_are_pinned():
    # a finding's witness is written to reports through repr
    assert repr(INFINITY) == "inf"
    assert repr(ProjectivePoint.finite(1)) == "(1+0j)"
    assert repr((ProjectivePoint.finite(2), INFINITY, 3)) == "((2+0j), inf, 3)"
    assert repr(SpectrumPoint(INFINITY, 1, 0, (1,))) == (
        "SpectrumPoint(alpha=inf, algebraic_mult=1, stab_dim=0, filtration_dims=(1,))"
    )
    assert repr(InvariantCheck("name", True, 0.5)) == (
        "InvariantCheck(name='name', passed=True, residual=0.5, detail='')"
    )
