import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algscope import (
    Algebra,
    Functional,
    ParseError,
    decompose,
    group_algebra,
    mat_algebra,
    matrix_trace_functional,
    random_functional,
    run_suites,
    symmetric3_table,
    upper_triangular,
)
from algscope.cli import main
from algscope.errors import DEFAULT_CLUSTER_TOL, DEFAULT_TOL
from algscope.report import (
    ReportDocument,
    _json_text,
    algebra_from_doc,
    algebra_to_doc,
    functional_from_doc,
    functional_to_doc,
    load_algebra,
    render_text,
    report_from_decomposition,
    report_from_findings,
    save_algebra,
    save_functional,
)

from oracles import algebra_doc_by_loops, split_point


def strict_json(text):
    """Parse ``text``, refusing the non-standard constants NaN, Infinity and
    -Infinity that Python's json module writes by default."""

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def random_algebra_object(seed):
    """Random sparse structure tensor; parse/serialize does not require the
    axioms, only well-formed data."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    c = np.zeros((dim, dim, dim), dtype=complex)
    for _ in range(int(rng.integers(0, 2 * dim * dim))):
        i, j, k = rng.integers(0, dim, size=3)
        c[i, j, k] = complex(rng.standard_normal(), rng.standard_normal())
    unit = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    labels = tuple(f"b{q}" for q in range(dim)) if rng.integers(0, 2) else None
    return Algebra(dim, c, unit, labels)


class TestFileRoundTrips:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**9))
    def test_algebra_round_trip(self, seed):
        alg = random_algebra_object(seed)
        back = algebra_from_doc(algebra_to_doc(alg))
        assert back.dim == alg.dim
        np.testing.assert_array_equal(back.structure, alg.structure)
        np.testing.assert_array_equal(back.unit, alg.unit)
        assert back.basis_labels == alg.basis_labels

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**9))
    def test_functional_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        f = Functional(rng.standard_normal(int(rng.integers(1, 8))) * (1 + 0.5j))
        back = functional_from_doc(functional_to_doc(f))
        np.testing.assert_array_equal(back.coords, f.coords)

    @pytest.mark.parametrize("seed", range(6))
    def test_algebra_file_bytes_follow_index_order(self, seed, tmp_path):
        algs = [mat_algebra(3), upper_triangular(3), group_algebra(symmetric3_table())]
        alg = algs[seed] if seed < len(algs) else random_algebra_object(seed)
        path = tmp_path / "a.alg"
        save_algebra(alg, str(path))
        doc = {
            "dim": alg.dim,
            "unit": [[z.real, z.imag] for z in alg.unit],
            "structure": algebra_doc_by_loops(alg),
        }
        if alg.basis_labels is not None:
            doc["basis"] = list(alg.basis_labels)
        assert path.read_bytes() == json_reference(doc).encode("utf-8")

    def test_negative_zero_imaginary_parts_are_kept(self, tmp_path):
        # every entry is real, so the coordinate form holds real values; the
        # file still writes each -0.0 the tensor holds
        base = mat_algebra(2)
        c = base.structure.copy()
        c.imag[c != 0] = -0.0
        unit = base.unit.copy()
        unit.imag[:] = -0.0
        alg = Algebra(4, c, unit, base.basis_labels)
        assert alg.coordinates[3].dtype == float
        path = tmp_path / "a.alg"
        save_algebra(alg, str(path))
        doc = {
            "dim": 4,
            "unit": [[z.real, z.imag] for z in alg.unit],
            "structure": algebra_doc_by_loops(alg),
            "basis": list(alg.basis_labels),
        }
        text = path.read_text(encoding="utf-8")
        assert text == json_reference(doc)
        assert text.count("-0.0") == 8 + 4
        back = load_algebra(str(path))
        save_algebra(back, str(tmp_path / "b.alg"))
        assert (tmp_path / "b.alg").read_text(encoding="utf-8") == text

    def test_duplicate_structure_entries_rejected(self):
        doc = {
            "dim": 2,
            "unit": [[1.0, 0.0], [0.0, 0.0]],
            "structure": [[0, 0, 0, 1.0, 0.0], [0, 0, 0, 2.0, 0.0]],
        }
        with pytest.raises(ParseError, match="duplicate"):
            algebra_from_doc(doc)

    def test_out_of_range_indices_rejected(self):
        doc = {"dim": 2, "unit": [[1.0, 0.0], [0.0, 0.0]], "structure": [[0, 0, 5, 1.0, 0.0]]}
        with pytest.raises(ParseError, match="out of range"):
            algebra_from_doc(doc)

    def test_parse_error_carries_field_context(self):
        with pytest.raises(ParseError, match="unit"):
            algebra_from_doc({"dim": 2, "unit": [[1.0, 0.0]]})

    @pytest.mark.parametrize("label", [None, 3, ["E11"]])
    def test_non_string_basis_label_rejected(self, label):
        # a label is kept as written, never coerced: null is not the label "None"
        doc = {"dim": 2, "unit": [[1.0, 0.0], [0.0, 0.0]], "basis": ["1", label]}
        with pytest.raises(ParseError) as caught:
            algebra_from_doc(doc)
        assert str(caught.value).startswith("basis[1]: expected a string")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "algebra document must be an object"),
            ({"dim": 0}, "dim: must be >= 1"),
            ({"structure": "x"}, "structure: expected a list of [i, j, k, re, im] rows"),
            ({"structure": [[0, 0, 0]]}, "structure[0]: expected [i, j, k, re, im]"),
            ({"structure": [[0.0, 0, 0, 1.0, 0.0]]}, "structure[0]: indices must be integers"),
            ({"basis": ["a", "b"]}, "basis: expected 1 labels"),
        ],
    )
    def test_malformed_algebra_document_rejected(self, doc, message):
        if isinstance(doc, dict):
            doc = {"dim": 1, "unit": [[1.0, 0.0]], **doc}
        with pytest.raises(ParseError) as caught:
            algebra_from_doc(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "coords: functional document needs a 'coords' list"),
            ({"values": []}, "coords: functional document needs a 'coords' list"),
            ({"coords": []}, "coords: expected a non-empty list of [re, im] pairs"),
            ({"coords": [1.0]}, "coords[0]: expected a [re, im] pair"),
        ],
    )
    def test_malformed_functional_document_rejected(self, doc, message):
        with pytest.raises(ParseError) as caught:
            functional_from_doc(doc)
        assert str(caught.value) == message


def json_reference(doc):
    """The text of every file: one line of strict JSON and a newline."""
    return json.dumps(doc, allow_nan=False) + "\n"


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]
)
NUMBERS = FINITE_FLOATS | st.integers() | st.integers(-(10**60), 10**60)
STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028é\U0001f600", "a\nb\tc", ""]
)
SCALARS = st.none() | st.booleans() | NUMBERS | STRINGS
KEYS = STRINGS | st.integers() | FINITE_FLOATS | st.booleans() | st.none()
DOCS = st.recursive(
    SCALARS | st.lists(NUMBERS),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=30,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestJsonWriter:
    @settings(deadline=None, max_examples=100)
    @given(DOCS, NON_FINITE, st.integers(0, 4))
    def test_non_finite_floats_raise_value_error(self, doc, bad, where):
        doc = [
            [doc, bad],
            {"k": [1.0, bad]},
            [[1.0, 2], [bad, 3.0]],
            {bad: doc},
            [1, 2, bad],
        ][where]
        with pytest.raises(ValueError, match="Out of range float values"):
            _json_text(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            object(),
            [1.0, 1j],
            {"a": {1, 2}},
            [[1.0, np.int64(3)], [2.0, 3.0]],
            [np.float32(1.0)],
            {(1, 2): 3},
            b"bytes",
        ],
        ids=["object", "complex", "set", "numpy-int-in-row", "float32", "tuple-key", "bytes"],
    )
    def test_unsupported_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)

    def test_every_writer_writes_one_line_of_its_document(self, workdir, capsys):
        # the four outputs of the program, and the algebra of `builders` on
        # stdout: each is one line, which parses back to the written document
        alg = mat_algebra(2)
        f = matrix_trace_functional(np.diag([1.0, 2.0]))
        analyze = report_from_decomposition(decompose(alg, f), seed=0, include_frames=True)
        verify = report_from_findings(
            run_suites(group_algebra(symmetric3_table()), n_functionals=2, seed=0),
            seed=0,
            tol=1e-9,
            cluster_tol=1e-6,
        )
        save_algebra(alg, "a.alg")
        save_functional(f, "f.fn")
        assert main(["builders", "matrix", "2"]) == 0
        outputs = [
            (analyze.to_json(), analyze.to_doc()),
            (verify.to_json(), verify.to_doc()),
            (Path("a.alg").read_text(encoding="utf-8"), algebra_to_doc(alg)),
            (Path("f.fn").read_text(encoding="utf-8"), functional_to_doc(f)),
            (capsys.readouterr().out, algebra_to_doc(alg)),
        ]
        assert verify.findings and analyze.v_frames
        for text, doc in outputs:
            assert text.count("\n") == 1 and text.endswith("\n")
            assert strict_json(text) == doc


def analyze_report():
    dec = decompose(mat_algebra(2), matrix_trace_functional(np.diag([1.0, 2.0])))
    return report_from_decomposition(dec, seed=0, include_frames=True)


def verify_report():
    """A failing finding with a tuple witness, which the report holds as its
    repr, beside a passing one without."""
    from algscope.verify import Finding

    findings = (Finding("T", False, 0.5, (1, 2, 0), 3, ("a note",)), Finding("U", True, 0.0))
    return report_from_findings(findings, seed=4, tol=1e-9, cluster_tol=1e-6)


class TestReportRoundTrip:
    @pytest.mark.parametrize(
        "make, witnesses", [(analyze_report, []), (verify_report, ["(1, 2, 0)", None])]
    )
    def test_report_round_trip_is_lossless(self, make, witnesses):
        report = make()
        text = report.to_json()
        back = ReportDocument.from_json(text)
        assert back == report
        assert back.to_json() == text
        assert [f.witness for f in back.findings] == witnesses

    def test_absent_optional_fields_take_their_defaults(self):
        from algscope.verify import Finding

        doc = {
            "kind": "verify",
            "findings": [{"theorem_id": "T", "passed": True, "max_residual": 0.0}],
            "checks": [{"name": "c", "passed": True, "residual": 0.0}],
        }
        assert ReportDocument.from_doc(doc) == ReportDocument(
            "verify",
            DEFAULT_TOL,
            DEFAULT_CLUSTER_TOL,
            0,
            findings=(Finding("T", True, 0.0, None, 0, ()),),
            checks=(("c", True, 0.0, ""),),
        )

    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self):
        # json refuses it past the interpreter's digit limit; a Python
        # without the limit reads a kind that is not a string
        with pytest.raises(ParseError):
            ReportDocument.from_json('{"kind": ' + "9" * 5000 + "}")

    def test_non_finite_residuals_are_strict_json(self):
        from algscope.verify import Finding

        report = ReportDocument(
            kind="verify",
            tol=1e-9,
            cluster_tol=1e-6,
            seed=0,
            findings=tuple(Finding("T", False, x) for x in (math.inf, -math.inf, math.nan)),
            checks=(("c", False, math.inf, ""),),
        )
        text = report.to_json()
        doc = strict_json(text)
        assert [f["max_residual"] for f in doc["findings"]] == ["inf", "-inf", "nan"]
        assert doc["checks"][0]["residual"] == "inf"
        back = ReportDocument.from_json(text)
        assert [f.max_residual for f in back.findings[:2]] == [math.inf, -math.inf]
        assert math.isnan(back.findings[2].max_residual) and back.checks == report.checks
        assert back.to_json() == text

    @pytest.mark.parametrize("residual", ["Infinity", "infinite", None, True])
    def test_residual_spellings_outside_the_format_are_rejected(self, residual):
        doc = {"kind": "verify", "checks": [{"name": "c", "passed": False, "residual": residual}]}
        with pytest.raises(ParseError):
            ReportDocument.from_doc(doc)

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"kind": "verify", "checks": [{"name": "c"}]}, "checks: missing field 'passed'"),
            ({"kind": "verify", "checks": ["c"]}, "checks: expected an object"),
            (
                {
                    "kind": "verify",
                    "findings": [
                        {"theorem_id": "T", "passed": True, "max_residual": 0.0, "samples": "x"}
                    ],
                },
                "findings.samples: expected an integer",
            ),
            (
                {"kind": "analyze", "spectrum": [{"alpha": "inf", "algebraic_mult": 1}]},
                "spectrum: missing field 'stab_dim'",
            ),
            (
                {
                    "kind": "analyze",
                    "spectrum": [
                        {
                            "alpha": "inf",
                            "algebraic_mult": 1.5,
                            "stab_dim": 1,
                            "filtration_dims": [1],
                        }
                    ],
                },
                "spectrum.algebraic_mult: expected an integer",
            ),
            ({"kind": "analyze", "nil_dim": "2"}, "nil_dim: expected an integer"),
            ({"kind": "analyze", "tolerances": {"tol": "small"}}, "tolerances.tol: expected"),
            ({"kind": "analyze", "v_frames": 3}, "v_frames: expected a list"),
            ({"kind": "analyze", "chi": [[1.0, 0.0]], "spectrum": {}}, "spectrum: expected a list"),
            (
                {
                    "kind": "verify",
                    "findings": [
                        {"theorem_id": "T", "passed": True, "max_residual": 0.0, "notes": "n"}
                    ],
                },
                "findings.notes: expected a list",
            ),
            (
                {
                    "kind": "verify",
                    "findings": [
                        {"theorem_id": "T", "passed": True, "max_residual": 0.0, "notes": [1, None]}
                    ],
                },
                "findings.notes: expected a string",
            ),
            (
                {"kind": "verify", "checks": [{"name": "c", "passed": 1, "residual": 0.0}]},
                "checks.passed: expected true or false",
            ),
            (
                {
                    "kind": "verify",
                    "findings": [{"theorem_id": "T", "passed": "false", "max_residual": 1.0}],
                },
                "findings.passed: expected true or false",
            ),
            (
                {
                    "kind": "analyze",
                    "spectrum": [
                        {
                            "alpha": ["nan", 0.0],
                            "algebraic_mult": 1,
                            "stab_dim": 1,
                            "filtration_dims": [1],
                        }
                    ],
                },
                "spectrum.alpha: expected a finite [re, im] pair",
            ),
            ({"kind": "analyze", "alpha0": ["nan", 0.0]}, "alpha0: expected a finite"),
            ({"kind": "analyze", "alpha0": [0.5, "inf"]}, "alpha0: expected a finite"),
            (
                {
                    "kind": "verify",
                    "findings": [
                        {"theorem_id": "T", "passed": False, "max_residual": 1.0, "witness": [1]}
                    ],
                },
                "findings.witness: expected a string or null",
            ),
            (
                {
                    "kind": "verify",
                    "findings": [{"theorem_id": 5, "passed": True, "max_residual": 0.0}],
                },
                "findings.theorem_id: expected a string",
            ),
            (
                {"kind": "verify", "checks": [{"name": 5, "passed": True, "residual": 0.0}]},
                "checks.name: expected a string",
            ),
            ({"kind": 5}, "kind: expected a string"),
            ({"seed": 0}, "missing field 'kind'"),
            (["kind"], "expected an object"),
            # a document with several faults names the first in document order
            ({"kind": 5, "spectrum": {}}, "kind: expected a string"),
            (
                {"kind": "analyze", "nil_dim": -1, "chi": 3, "spectrum": {}, "v_frames": 3},
                "nil_dim: expected an integer >= 0",
            ),
            (
                {
                    "kind": "verify",
                    "findings": [{"theorem_id": "T", "passed": 1, "max_residual": "x"}],
                    "checks": 4,
                },
                "findings.passed: expected true or false",
            ),
            # values the writer cannot write
            ({"kind": "analyze", "tolerances": {"tol": "nan"}}, "tolerances.tol: expected a finite"),
            ({"kind": "analyze", "tolerances": {"tol": -1.0}}, "tolerances.tol: expected a finite"),
            (
                {"kind": "analyze", "tolerances": {"cluster_tol": "inf"}},
                "tolerances.cluster_tol: expected a finite",
            ),
            ({"kind": "verify", "seed": -5}, "seed: expected an integer >= 0"),
            ({"kind": "bogus"}, "kind: expected 'analyze' or 'verify'"),
            ({"kind": "analyze", "nil_dim": -3}, "nil_dim: expected an integer >= 0"),
            (
                {
                    "kind": "verify",
                    "findings": [
                        {"theorem_id": "T", "passed": True, "max_residual": 0.0, "samples": -2}
                    ],
                },
                "findings.samples: expected an integer >= 0",
            ),
            *[
                (
                    {
                        "kind": "analyze",
                        "spectrum": [
                            {
                                "alpha": "inf",
                                "algebraic_mult": 1,
                                "stab_dim": 0,
                                "filtration_dims": [1],
                                key: value,
                            }
                        ],
                    },
                    f"spectrum.{key}: expected an integer >= 0",
                )
                for key, value in [
                    ("algebraic_mult", -4),
                    ("stab_dim", -1),
                    ("filtration_dims", [2, -7]),
                ]
            ],
        ],
    )
    def test_truncated_or_mistyped_reports_raise_parse_errors(self, doc, where):
        with pytest.raises(ParseError) as caught:
            ReportDocument.from_doc(doc)
        assert str(caught.value).startswith(where)

    def test_text_rendering_mentions_key_sections(self):
        alg = mat_algebra(2)
        dec = decompose(alg, matrix_trace_functional(np.diag([1.0, 2.0])))
        report = report_from_decomposition(dec, seed=0)
        text = render_text(report)
        assert "spectrum:" in text and "invariant checks:" in text

    def test_text_rendering_prints_each_witness(self):
        from algscope.verify import V_MULT_FINITE, V_MULT_NONZERO, Finding

        findings = [
            Finding(V_MULT_FINITE, False, 3e-3, (2.0, 0.5, 0, 1), 81),
            Finding(V_MULT_NONZERO, True, 1e-15, None, 81),
        ]
        report = report_from_findings(findings, seed=0, tol=1e-9, cluster_tol=1e-6)
        assert report.to_json().count('"witness": "(2.0, 0.5, 0, 1)"') == 1
        lines = render_text(report).splitlines()
        at = lines.index("  [FAIL] VMultFinite: max residual 3.000e-03 over 81 samples")
        assert lines[at + 1] == "    witness: (2.0, 0.5, 0, 1)"
        # a finding with no witness prints none
        assert lines[at + 2] == "  [pass] VMultNonzero: max residual 1.000e-15 over 81 samples"
        assert sum("witness" in line for line in lines) == 1


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


#: a field to delete rather than overwrite
MISSING = object()


def write_inputs(tmp_path):
    alg = mat_algebra(3)
    save_algebra(alg, str(tmp_path / "mat3.alg"))
    save_functional(matrix_trace_functional(np.diag([1.0, 2.0, 5.0])), str(tmp_path / "d125.fn"))


class TestCli:
    def test_builders_output_round_trips(self, workdir):
        assert main(["builders", "matrix", "3", "--out", "m.alg"]) == 0
        alg = load_algebra("m.alg")
        assert alg.dim == 9

    @pytest.mark.parametrize("args", [["matrix", "3"], ["group", "s3"], ["dual"]])
    def test_builders_stdout_equals_the_file(self, workdir, capsys, args):
        assert main(["builders", *args, "--out", "a.alg"]) == 0
        capsys.readouterr()
        assert main(["builders", *args]) == 0
        with open("a.alg", encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()

    def test_builders_group_and_compose(self, workdir):
        assert main(["builders", "group", "z2", "--out", "z2.alg"]) == 0
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        assert main(["builders", "direct-sum", "z2.alg", "d.alg", "--out", "s.alg"]) == 0
        assert load_algebra("s.alg").dim == 4
        assert main(["builders", "opposite", "s.alg", "--out", "op.alg"]) == 0
        a, b = load_algebra("s.alg"), load_algebra("op.alg")
        np.testing.assert_array_equal(b.structure, a.structure.transpose(1, 0, 2))

    def test_each_builder_validates_once(self, workdir, capsys, monkeypatch):
        import algscope.algebra as algebra

        assert main(["builders", "group", "z2", "--out", "z2.alg"]) == 0
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        calls = []
        validate = algebra.validate
        monkeypatch.setattr(algebra, "validate", lambda *a: calls.append(a) or validate(*a))
        # group_algebra validates the group algebra, and the CLI checks the
        # others itself
        for args in (
            ["group", "s3"],
            ["matrix", "2"],
            ["triangular", "2"],
            ["dual"],
            ["direct-sum", "z2.alg", "d.alg"],
            ["opposite", "z2.alg"],
        ):
            calls.clear()
            assert main(["builders", *args, "--out", "a.alg"]) == 0
            assert len(calls) == 1, args

    def test_builders_bad_params(self, workdir, capsys):
        assert main(["builders", "matrix", "many"]) == 1
        assert main(["builders", "group", "z17"]) == 1
        assert main(["builders", "warp", "9"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["matrix", "0"], ["triangular", "0"], ["matrix", "-2"]])
    def test_builders_size_below_one_is_usage_error(self, workdir, capsys, args):
        assert main(["builders", *args]) == 1
        assert f"expected an integer >= 1, got {args[1]!r}" in capsys.readouterr().err

    def test_analyze_success_and_exit_code(self, workdir, capsys):
        write_inputs(workdir)
        assert main(["analyze", "mat3.alg", "d125.fn"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nil_dim"] == 0
        assert len(doc["spectrum"]) == 7

    @pytest.mark.parametrize("split", [False, True], ids=["as-is", "split"])
    def test_analyze_exit_code_reads_the_checks(self, workdir, capsys, monkeypatch, split):
        # Mat_4's alpha = 1, multiplicity 4, split into two halves of 2
        # fails the direct sum; the checks run when the report reads them
        # and still gate the exit code
        alg = mat_algebra(4)
        save_algebra(alg, "mat4.alg")
        save_functional(random_functional(alg.dim, np.random.default_rng(0)), "f.fn")
        if split:
            split_point(monkeypatch, 1.0)
        code = main(["analyze", "mat4.alg", "f.fn", "--seed", "0"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = {c["name"] for c in checks if not c["passed"]}
        if split:
            assert code == 2 and "v_spaces_direct_sum" in failed
        else:
            assert code == 0 and failed == set()
            assert [c["name"] for c in checks] == [
                "multiplicities_sum_to_quotient_dim",
                "v_dim_equals_nil_plus_multiplicity",
                "simple_frames_in_stabilizer",
                "v_spaces_direct_sum",
                "log_det_matches_spectrum",
            ]

    def test_analyze_missing_file_is_usage_error(self, workdir, capsys):
        assert main(["analyze", "nothere.alg", "nofile.fn"]) == 1
        assert "error" in capsys.readouterr().err

    def test_analyze_dimension_mismatch_is_usage_error(self, workdir, capsys):
        write_inputs(workdir)
        save_functional(Functional(np.zeros(2, dtype=complex)), "tiny.fn")
        assert main(["analyze", "mat3.alg", "tiny.fn"]) == 1
        # the message every other dimension check gives
        message = "functional: dimension 2 does not match the algebra dimension 9"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("structure", 0, 3), "x", "structure[0]: expected a number"),
            (("structure", 0, 3), "1.0", "structure[0]: expected a number"),
            (("structure", 0, 3), None, "structure[0]: expected a number"),
            (("dim",), 9.0, "dim: expected an integer"),
            (("dim",), 9.5, "dim: expected an integer"),
            (("dim",), True, "dim: expected an integer"),
            (("dim",), "9", "dim: expected an integer"),
            (("dim",), None, "dim: expected an integer"),
            (("dim",), MISSING, "algebra: missing field 'dim'"),
            (("basis", 0), None, "basis[0]: expected a string"),
            (("basis", 4), 22, "basis[4]: expected a string"),
        ],
    )
    def test_analyze_malformed_value_is_usage_error(self, workdir, capsys, path, value, message):
        write_inputs(workdir)
        doc = json.loads((workdir / "mat3.alg").read_text(encoding="utf-8"))
        assert doc["dim"] == 9 and doc["structure"][0][3] == 1.0
        *outer, key = path
        owner = doc
        for step in outer:
            owner = owner[step]
        if value is MISSING:
            del owner[key]
        else:
            owner[key] = value
        (workdir / "bad.alg").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "bad.alg", "d125.fn"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "value",
        [
            "nan",
            "inf",
            "-inf",
            math.nan,
            math.inf,
            pytest.param(10**400, id="int-1e400"),
            pytest.param(-(10**400), id="int--1e400"),
        ],
    )
    @pytest.mark.parametrize(
        "file, path, where",
        [
            ("d125.fn", ("coords", 1, 0), "coords[1]"),
            ("d125.fn", ("coords", 0, 1), "coords[0]"),
            ("mat3.alg", ("structure", 0, 3), "structure[0]"),
            ("mat3.alg", ("structure", 2, 4), "structure[2]"),
            ("mat3.alg", ("unit", 0, 0), "unit[0]"),
        ],
    )
    def test_non_finite_input_value_is_usage_error(self, workdir, capsys, file, path, value, where):
        # math.nan and math.inf reach the file as the JSON literals NaN and
        # Infinity, which Python's json module reads back; an integer beyond
        # float's range reads as infinite, as json reads 1e400
        write_inputs(workdir)
        doc = json.loads((workdir / file).read_text(encoding="utf-8"))
        *outer, key = path
        owner = doc
        for step in outer:
            owner = owner[step]
        owner[key] = value
        (workdir / file).write_text(json.dumps(doc), encoding="utf-8")
        commands = [["analyze", "mat3.alg", "d125.fn"]]
        if file == "mat3.alg":
            commands.append(["verify", "mat3.alg", "--functionals", "1"])
        for command in commands:
            assert main(command) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {where}: expected a finite [re, im] pair"), err

    @pytest.mark.parametrize(
        "data, fragment",
        [
            (b"{not json", "line"),
            # past the interpreter's digit limit json refuses the literal; a
            # Python without the limit reads it as an infinite unit entry
            (b'{"dim": 1, "unit": [[' + b"9" * 5000 + b", 0.0]]}", "error: "),
            ('{"dim": 1, "basis": ["\u00e9"]}'.encode("latin-1"), "broken.alg: invalid JSON"),
        ],
        ids=["not-json", "digit-limit", "not-utf-8"],
    )
    def test_analyze_invalid_json_reports_location(self, workdir, capsys, data, fragment):
        (workdir / "broken.alg").write_bytes(data)
        write_inputs(workdir)
        assert main(["analyze", "broken.alg", "d125.fn"]) == 1
        assert fragment in capsys.readouterr().err

    def test_analyze_rejects_non_associative_unless_skipped(self, workdir, capsys):
        from algscope import upper_triangular

        base = upper_triangular(2)
        c = base.structure.copy()
        c[1, 2, :] = 0.0
        c[1, 2, 0] = 1.0  # redirect E12 E22 to E11: (E12 E22) E22 != E12 (E22 E22)
        bad = Algebra(3, c, base.unit)
        save_algebra(bad, "bad.alg")
        save_functional(Functional(np.array([1.0, 0.5, 2.0])), "f.fn")
        assert main(["analyze", "bad.alg", "f.fn"]) == 1
        capsys.readouterr()
        assert main(["analyze", "bad.alg", "f.fn", "--skip-validate"]) in (0, 2)

    @pytest.mark.parametrize("command", [["verify"], ["analyze", "f.fn"]])
    def test_axiom_failure_states_residuals_and_witness(self, workdir, capsys, command):
        from algscope import validate

        base = mat_algebra(2)
        c = base.structure.copy()
        c[0, 1, 3] += 1e-3  # breaks the (E11 E12) E22 chain
        bad = Algebra(4, c, base.unit)
        save_algebra(bad, "bad.alg")
        save_functional(Functional(np.array([1.0, 0.5, 2.0, 0.25])), "f.fn")
        rep = validate(bad, 1e-9)
        assert main([command[0], "bad.alg", *command[1:]]) == 1
        err = capsys.readouterr().err
        assert f"associativity residual {rep.max_assoc_residual:.3e}" in err
        assert f"unit residual {rep.max_unit_residual:.3e}" in err
        assert f"witness {rep.witness}" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["opposite", "bad.alg"],
            ["direct-sum", "bad.alg", "bad.alg"],
            ["direct-sum", "bad.alg", "m3.alg"],
        ],
    )
    def test_builders_on_a_file_failing_the_axioms_exit_one(self, workdir, capsys, args):
        # an input error, as in analyze and verify: the message names the
        # failure, and no algebra is written
        from algscope import direct_sum, opposite, validate

        base = mat_algebra(2)
        c = base.structure.copy()
        c[0, 1, 3] += 1e-3  # breaks the (E11 E12) E22 chain
        save_algebra(Algebra(4, c, base.unit), "bad.alg")
        save_algebra(mat_algebra(3), "m3.alg")
        loaded = [load_algebra(path) for path in args[1:]]
        built = opposite(*loaded) if args[0] == "opposite" else direct_sum(*loaded)
        rep = validate(built, 1e-9)
        assert main(["builders", *args, "--out", "out.alg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: algebra fails the axioms: ")
        assert f"associativity residual {rep.max_assoc_residual:.3e}" in err
        assert f"witness {rep.witness}" in err
        assert not (workdir / "out.alg").exists()
        assert main(["builders", *args]) == 1
        assert capsys.readouterr().out == ""

    def test_analyze_singular_pencil_exits_one(self, workdir, capsys):
        inputs = [
            # F(X) = tr(N X) with N the nilpotent shift
            (mat_algebra(3), matrix_trace_functional(np.diag(np.ones(2), 1))),
            (mat_algebra(4), matrix_trace_functional(np.diag(np.ones(3), 1))),
            (upper_triangular(2), Functional(np.array([0.0, 1.0, 0.0]))),
        ]
        for alg, f in inputs:
            save_algebra(alg, "a.alg")
            save_functional(f, "f.fn")
            assert main(["analyze", "a.alg", "f.fn", "--out", "r.json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "error: the pencil is singular for every alpha; F is not generic"
            )
            assert not (workdir / "r.json").exists()

    @pytest.mark.parametrize("case", ["entry-overflows", "norm-overflows"])
    def test_analyze_pairing_too_large_exits_one(self, workdir, capsys, case):
        if case == "entry-overflows":
            # u u = 2 u passes the axioms, and F(u u) = 2e308 is inf
            doc = {"dim": 1, "unit": [[0.5, 0.0]], "structure": [[0, 0, 0, 2.0, 0.0]]}
            (workdir / "a.alg").write_text(json.dumps(doc), encoding="utf-8")
            (workdir / "f.fn").write_text(json.dumps({"coords": [[1e308, 0.0]]}), "utf-8")
        else:
            # every entry of the pairing is finite, and its Frobenius norm is not
            f = random_functional(9, np.random.default_rng(0))
            save_algebra(mat_algebra(3), "a.alg")
            save_functional(Functional(1e154 * f.coords), "f.fn")
        assert main(["analyze", "a.alg", "f.fn", "--out", "r.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: functional: the pairing F(e_i e_j) is too large for double precision; "
            "rescale F\n"
        )
        assert not (workdir / "r.json").exists()

    def test_analyze_without_regular_shift_exits_two_with_report(self, workdir, capsys):
        from oracles import prescribed_pencil_algebra

        # a~ = diag(1, 9e-9) at the core: every shift misses the regularity
        # floor, yet the pencil is regular
        alg, f = prescribed_pencil_algebra(np.diag([1.0, 9e-9]))
        save_algebra(alg, "a.alg")
        save_functional(f, "f.fn")
        assert main(["analyze", "a.alg", "f.fn"]) == 2
        doc = json.loads(capsys.readouterr().out)
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert failed and failed[0]["name"] == "regular_shift_exists"
        assert failed[0]["detail"].startswith("no regular shift found in 64 samples")

    def test_report_without_regular_shift_is_strict_json(self, workdir):
        from oracles import prescribed_pencil_algebra

        alg, f = prescribed_pencil_algebra(np.diag([1.0, 9e-9]))
        save_algebra(alg, "a.alg")
        save_functional(f, "f.fn")
        assert main(["analyze", "a.alg", "f.fn", "--out", "r.json"]) == 2
        text = (workdir / "r.json").read_text()
        doc = strict_json(text)
        assert doc["checks"][0]["residual"] == "inf"
        back = ReportDocument.from_json(text)
        assert back.checks[0][0] == "regular_shift_exists" and back.checks[0][2] == math.inf
        assert back.to_json() == text

    def test_analyze_zero_functional(self, workdir, capsys):
        assert main(["builders", "dual", "--out", "dual.alg"]) == 0
        save_functional(Functional(np.zeros(2, dtype=complex)), "zero.fn")
        capsys.readouterr()
        assert main(["analyze", "dual.alg", "zero.fn"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nil_dim"] == 2
        assert "spectrum" not in doc
        np.testing.assert_allclose(doc["chi"], [[1.0, 0.0]])

    def test_analyze_frames_flag(self, workdir, capsys):
        write_inputs(workdir)
        assert main(["analyze", "mat3.alg", "d125.fn", "--frames"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "v_frames" in doc and len(doc["v_frames"]) == 7

    def test_only_analyze_frames_lifts_the_levels(self, workdir, capsys, monkeypatch):
        import algscope.spectral as spectral

        lifts = []
        real = spectral._lift

        def counted(*args):
            lifts.append(args)
            return real(*args)

        monkeypatch.setattr(spectral, "_lift", counted)
        write_inputs(workdir)
        assert main(["analyze", "mat3.alg", "d125.fn"]) == 0
        assert lifts == []
        assert main(["analyze", "mat3.alg", "d125.fn", "--frames"]) == 0
        # one lift per level: seven points of one level each
        assert len(lifts) == 7

    def test_determinism_same_seed_byte_identical(self, workdir):
        write_inputs(workdir)
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "3", "--out", "a.json"]) == 0
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "3", "--out", "b.json"]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_env_seed_fallback(self, workdir, monkeypatch):
        write_inputs(workdir)
        monkeypatch.setenv("ALGSCOPE_SEED", "3")
        assert main(["analyze", "mat3.alg", "d125.fn", "--out", "env.json"]) == 0
        monkeypatch.delenv("ALGSCOPE_SEED")
        assert main(["analyze", "mat3.alg", "d125.fn", "--seed", "3", "--out", "flag.json"]) == 0
        assert (workdir / "env.json").read_bytes() == (workdir / "flag.json").read_bytes()

    def test_verify_default_suites_pass(self, workdir, capsys):
        assert main(["builders", "triangular", "2", "--out", "t.alg"]) == 0
        capsys.readouterr()
        assert main(["verify", "t.alg", "--functionals", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(f["passed"] for f in doc["findings"])

    def test_verify_negative_control(self, workdir, capsys):
        assert main(["builders", "matrix", "2", "--out", "m2.alg"]) == 0
        capsys.readouterr()
        code = main(
            ["verify", "m2.alg", "--suite", "corollary2", "--negative-control", "--functionals", "2"]
        )
        assert code == 0  # control tripped as intended
        doc = json.loads(capsys.readouterr().out)
        control = [f for f in doc["findings"] if any("negative control" in n for n in f["notes"])]
        assert control and not control[0]["passed"]

    def test_negative_control_reduces_at_the_tol(self, workdir, capsys, monkeypatch):
        # the control's pencil is reduced at --tol, as every suite's is
        import algscope.verify as verify

        tols = []
        real = verify.reduce_pencil

        def recording(alg, f, tol=1e-9, *args, **kwargs):
            tols.append(tol)
            return real(alg, f, tol, *args, **kwargs)

        monkeypatch.setattr(verify, "reduce_pencil", recording)
        assert main(["builders", "matrix", "2", "--out", "m2.alg"]) == 0
        capsys.readouterr()
        args = ["verify", "m2.alg", "--suite", "alpha0", "--negative-control", "--functionals", "1"]
        assert main(args + ["--tol", "1e-7"]) == 0
        assert tols == [1e-7]
        tols.clear()
        assert main(args) == 0
        assert tols == [1e-9]

    def test_verify_unknown_suite(self, workdir, capsys):
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        assert main(["verify", "d.alg", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--functionals", "0"], ["--functionals", "-2"], ["--suite", ",,"]]
    )
    def test_verify_that_would_check_nothing_is_usage_error(self, workdir, capsys, flags):
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        capsys.readouterr()
        assert main(["verify", "d.alg", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and flags[0] in captured.err

    def test_verify_help_lists_every_suite_and_the_default_set(self, capsys):
        from algscope.cli import _build_parser
        from algscope.suite_names import DEFAULT_SUITES, SUITE_NAMES

        assert main(["verify", "--help"]) == 0
        help_text = "".join(capsys.readouterr().out.split())  # help wraps at hyphens
        assert all(name in help_text for name in SUITE_NAMES)
        args = _build_parser().parse_args(["verify", "a.alg"])
        assert tuple(args.suite.split(",")) == DEFAULT_SUITES

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_help_describes_skip_validate(self, capsys, command):
        # verify declared the flag with no help text
        assert main([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--skip-validate skip the associativity/unit check" in help_text

    @pytest.mark.parametrize("suite", ["corollary1", "perturbation"])
    def test_verify_rejects_the_removed_corollary1_suite(self, workdir, capsys, suite):
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        assert main(["verify", "d.alg", "--suite", suite]) == 1

    def test_verify_exit_code_gates_every_failed_finding(self, workdir, capsys, monkeypatch):
        import algscope.verify as verify
        from algscope.verify import KERNEL_RELATIONS, Finding

        assert not hasattr(verify, "OBSERVATIONS")
        assert main(["builders", "dual", "--out", "d.alg"]) == 0
        for theorem_id in (KERNEL_RELATIONS, "StabTransversality", "AnyOtherTheorem"):
            failed = [Finding(theorem_id, False, 1.0)]
            monkeypatch.setattr(verify, "run_suites", lambda *args, failed=failed, **kwargs: failed)
            assert main(["verify", "d.alg"]) == 2

    @pytest.mark.parametrize("builder", [["group", "z3"], ["group", "z2xz2"], ["dual"]])
    def test_negative_control_on_a_commutative_algebra_does_not_gate(
        self, workdir, capsys, builder
    ):
        # no functional of a commutative algebra fails the commutativity
        # check, so the control cannot be detected there: it is marked not
        # applicable, and the valid input exits 0
        assert main(["builders", *builder, "--out", "c.alg"]) == 0
        capsys.readouterr()
        assert main(["verify", "c.alg", "--functionals", "2", "--negative-control"]) == 0
        doc = json.loads(capsys.readouterr().out)
        control = [f for f in doc["findings"] if any("negative control" in n for n in f["notes"])]
        assert len(control) == 1 and control[0]["passed"]
        assert control[0]["notes"][1:] == ["not applicable: the algebra is commutative"]

    @pytest.mark.parametrize("builder", [["matrix", "2"], ["group", "s3"]])
    def test_negative_control_on_a_noncommutative_algebra_is_detected(
        self, workdir, capsys, builder
    ):
        assert main(["builders", *builder, "--out", "n.alg"]) == 0
        capsys.readouterr()
        assert main(["verify", "n.alg", "--functionals", "2", "--negative-control"]) == 0
        doc = json.loads(capsys.readouterr().out)
        control = [f for f in doc["findings"] if any("negative control" in n for n in f["notes"])]
        assert len(control) == 1 and not control[0]["passed"]
        assert control[0]["notes"][1:] == ["control detected"]

    def test_undetected_control_on_a_noncommutative_algebra_exits_2(
        self, workdir, capsys, monkeypatch
    ):
        import algscope.verify as verify
        from algscope.verify import COROLLARY_2, Finding

        monkeypatch.setattr(
            verify, "verify_corollaries", lambda *args, **kwargs: Finding(COROLLARY_2, True, 0.0)
        )
        assert main(["builders", "matrix", "2", "--out", "m2.alg"]) == 0
        capsys.readouterr()
        args = ["verify", "m2.alg", "--suite", "alpha0", "--functionals", "1"]
        assert main(args + ["--negative-control"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][-1]["notes"][1:] == ["control NOT detected"]
        assert main(args) == 0

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol", "0"),
            ("--tol", "-1"),
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--tol", "abc"),
            ("--cluster-tol", "0"),
        ],
    )
    def test_tolerance_flag_not_finite_and_positive_is_usage_error(
        self, workdir, capsys, command, flag, value
    ):
        # on Mat_4, --cluster-tol 0 used to fail the invariants (exit 2), --tol 0
        # raised a traceback, and --tol nan blamed the algebra's axioms
        save_algebra(mat_algebra(4), "mat4.alg")
        save_functional(matrix_trace_functional(np.diag([1.0, 2.0, 3.0, 5.0])), "f.fn")
        inputs = ["mat4.alg", "f.fn"] if command == "analyze" else ["mat4.alg", "--functionals", "1"]
        assert main([command, *inputs, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected a finite number > 0, got {value!r}" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_is_usage_error(self, workdir, capsys, monkeypatch, command, source):
        # numpy's default_rng used to raise ValueError out of main
        save_algebra(mat_algebra(2), "mat2.alg")
        save_functional(matrix_trace_functional(np.diag([1.0, 2.0])), "f.fn")
        inputs = ["mat2.alg", "f.fn"] if command == "analyze" else ["mat2.alg", "--functionals", "1"]
        if source == "flag":
            args, expected = ["--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"
        else:
            monkeypatch.setenv("ALGSCOPE_SEED", "-5")
            args, expected = [], "ALGSCOPE_SEED: expected an integer >= 0, got '-5'"
        assert main([command, *inputs, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and expected in captured.err

    def test_text_format(self, workdir, capsys):
        write_inputs(workdir)
        assert main(["analyze", "mat3.alg", "d125.fn", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "spectrum:" in out and "alpha0" in out

    def test_usage_error_exit_code(self, workdir, capsys):
        assert main(["analyze"]) == 1
        assert main([]) == 1
