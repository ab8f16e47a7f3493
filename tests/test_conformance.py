"""``scripts/conformance.py``'s comparison of two output trees, on trees
written here: no CLI process is started."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "conformance.py"
_spec = importlib.util.spec_from_file_location("conformance", _SCRIPT)
conformance = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(conformance)

_CSV = "#schema=isicap.simulate.v1\nn,R_bits,type1\n64,0.25,404\n128,0.25,345\n"
_CALL = "simulate.default.s1.t1"


def _write(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


@pytest.fixture
def files():
    return {f"{_CALL}.json": "{}", f"{_CALL}.out": _CSV, f"{_CALL}.err": "", f"{_CALL}.rc": "0\n"}


def test_identical_trees_report_nothing(tmp_path, files):
    assert conformance.compare(_write(tmp_path / "a", files), _write(tmp_path / "b", files)) == []


def test_a_changed_digit_is_reported_with_its_cell_and_move(tmp_path, files):
    this = _write(tmp_path / "a", files)
    other = _write(tmp_path / "b", {**files, f"{_CALL}.out": _CSV.replace("345", "346")})
    assert conformance.compare(this, other) == [
        f"{_CALL}.out: line 4, column 3: '345' against '346', relative move +2.899e-03"
    ]


def test_exit_code_and_stderr_are_compared(tmp_path, files):
    this = _write(tmp_path / "a", files)
    other = _write(tmp_path / "b", {**files, f"{_CALL}.err": "isicap: need n >= 1\n", f"{_CALL}.rc": "2\n"})
    assert conformance.compare(this, other) == [
        f"{_CALL}.err: line 1, column 1: '' against 'isicap: need n >= 1'",
        f"{_CALL}.rc: line 1, column 1: '0' against '2'",
    ]


def test_a_missing_file_is_reported(tmp_path, files):
    this = _write(tmp_path / "a", files)
    other = _write(tmp_path / "b", {k: v for k, v in files.items() if not k.endswith(".out")})
    assert conformance.compare(this, other) == [f"{_CALL}.out: missing from {other / f'{_CALL}.out'}"]
