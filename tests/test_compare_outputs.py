import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roundoff_zeros_are_scaled_by_their_csv_row_or_json_list(compare_outputs):
    def record(zero):
        return json.dumps({"h": [[0.25, zero], [zero, 1.0]], "s": 3.0}, indent=2).encode()

    csv = b"swept_var,s,H_ss,G_sp\ns,0.1,0.25,%s\ns,2,0.25,0\n"
    for a, b in ((csv % b"1e-17", csv % b"2e-17"), (record(1e-17), record(2e-17))):
        assert compare_outputs.relative_difference(a, b) == pytest.approx(4e-17, rel=1e-12)


def test_a_real_change_reads_its_relative_size(compare_outputs):
    a = b"s,1,0.5,0.25\n"
    b = b"s,1,0.500001,0.25\n"
    assert compare_outputs.relative_difference(a, b) == pytest.approx(1e-6, rel=1e-6)


def test_texts_whose_words_differ_read_none(compare_outputs):
    assert compare_outputs.relative_difference(b"pass: true\n", b"pass: false\n") is None
    assert compare_outputs.relative_difference(b"1,2\n", b"1,2,3\n") is None
    assert compare_outputs.relative_difference(b"same 0.5\n", b"same 0.5\n") == 0.0


def test_a_number_that_turns_nan_or_infinite_reads_inf(compare_outputs):
    for turned in (b"NaN", b"Infinity", b"-Infinity"):
        b = b"[0.25, %s]" % turned
        assert compare_outputs.relative_difference(b"[0.25, 1.0]", b) == math.inf
        assert compare_outputs.relative_difference(b, b"[0.25, 1.0]") == math.inf
    assert compare_outputs.relative_difference(b"[0.25, Infinity]", b"[0.25, -Infinity]") == math.inf
    assert compare_outputs.relative_difference(b"[0.25, NaN]", b"[0.25, NaN]") == 0.0
    # an infinite entry that did not change does not hide a finite change beside it
    assert compare_outputs.relative_difference(b"[Infinity, 1.0, 2.0]",
                                               b"[Infinity, 1.0, 4.0]") == 0.5
