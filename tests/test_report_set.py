"""What ``tools/report_set.py --against`` prints for two report sets."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from report_set import set_differences  # noqa: E402


def finding(theorem_id, residual=0.0):
    return {"theorem_id": theorem_id, "passed": True, "max_residual": residual}


def write(directory: Path, files: dict):
    directory.mkdir()
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content) + "\n"
        (directory / name).write_text(text)


def test_names_the_rows_keys_lines_and_files_that_differ(tmp_path):
    kept = [finding("KernelRelations"), finding("VMultFinite")]
    dropped = [finding("RankOneMultiplicative"), finding("RankOneMultiplicative")]
    check = {"name": "v_spaces_span_algebra", "passed": True, "residual": 0.0}
    point = {"alpha": "inf", "algebraic_mult": 1}
    write(
        tmp_path / "ref",
        {
            "a.verify.json": {"kind": "verify", "seed": 1, "findings": kept + dropped},
            "b.analyze.json": {"nil_dim": 0, "spectrum": [point], "checks": [check]},
            "c.verify.json": {"kind": "verify", "findings": kept},
            "same.json": {"kind": "verify"},
            "exit_codes.txt": "a 0\nb 0\n",
            "gone.json": {},
        },
    )
    write(
        tmp_path / "checkout",
        {
            "a.verify.json": {"kind": "verify", "seed": 1, "findings": kept},
            "b.analyze.json": {"nil_dim": 1, "spectrum": [{**point, "algebraic_mult": 2}]},
            "c.verify.json": {"kind": "verify", "findings": kept[::-1]},
            "same.json": {"kind": "verify"},
            "exit_codes.txt": "a 0\nb 1\n",
        },
    )
    assert set_differences(tmp_path / "ref", tmp_path / "checkout") == [
        "only in ref: gone.json x1",
        "differs: a.verify.json",
        "  findings: only in ref: RankOneMultiplicative x2",
        "differs: b.analyze.json",
        "  checks: only in ref: v_spaces_span_algebra x1",
        "  nil_dim differs",
        "  spectrum: only in ref: alpha inf x1",
        "  spectrum: only in checkout: alpha inf x1",
        "differs: c.verify.json",
        "  findings: the same rows in another order",
        "differs: exit_codes.txt",
        "  only in ref: b 0 x1",
        "  only in checkout: b 1 x1",
    ]


def test_identical_sets_differ_in_nothing(tmp_path):
    files = {"a.verify.json": {"kind": "verify", "findings": [finding("KernelRelations")]}}
    write(tmp_path / "ref", files)
    write(tmp_path / "checkout", files)
    assert set_differences(tmp_path / "ref", tmp_path / "checkout") == []
