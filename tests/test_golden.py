"""Golden outputs: every subcommand in both formats.

Each case in ``tests/data/golden/regenerate.py`` is re-run through
``rotdicke.cli.main`` and compared with the committed file, field by field:

- Text that is not a float (headers, keys, layout, quoting, strings, ints,
  region tags) must match exactly.
- Floats made by Python floats, IEEE + - * / sqrt and libm must match byte
  for byte: the spectrum, the sample times, the sweep axes and overlays,
  and the mean-field coordinates q1, p1, q2, p2.
- Floats that pass through numpy's CPU-dispatched kernels (exp and ** on
  arrays, trapezoid and vdot reductions, the quantum engine) must agree to
  a relative ``RTOL`` = 1e-12: the observable columns, the sweep cells'
  final and time-averaged values.

Why 1e-12, fixed before the files were first made: a SIMD kernel may round
exp or ** differently from libm or from another CPU by a few ulp (~1e-15;
np.exp and math.exp disagree on ~5% of float64 arguments), and a reduction
summed in another order over n terms moves by at most ~n * eps times the
sum of the magnitudes.  The reductions here run over at most 124 amplitudes
or 40 samples of sums without strong cancellation, which bounds that at
~1e-14 relative; 1e-12 leaves a factor 100.  Any edit that changes the
numerics on purpose (a tolerance, an order, a formula) moves these values
far more, and then regenerates the files.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from rotdicke.experiments import OBSERVABLES

GOLDEN = Path(__file__).parent / "data" / "golden"
RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

# A JSON string or scalar token, and an RFC-4180 CSV cell as written.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s{}\[\],:"]+')
_CSV_CELL = re.compile(r'"(?:[^"]|"")*"|[^,]*')


def close(expected: str, actual: str) -> bool:
    return math.isclose(float(expected), float(actual), rel_tol=RTOL, abs_tol=0.0)


class _Object(tuple):
    """A JSON object, as its (key, value) pairs in file order."""


def json_leaves(value, path=()):
    if isinstance(value, _Object):
        for key, item in value:
            yield from json_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_leaves(item, path + (i,))
    else:
        yield path, value


def json_bounded(path) -> bool:
    """Result trajectory observables and sweep cell values."""
    if path[:2] == ("result", "data"):
        return path[2] in OBSERVABLES
    return path[:2] == ("result", "cells") and path[3] in ("final", "average")


def compare_json(expected: str, actual: str) -> None:
    assert _JSON_TOKEN.sub("_", actual) == _JSON_TOKEN.sub("_", expected), "JSON layout differs"

    def parse(text):
        return json.loads(
            text, object_pairs_hook=_Object, parse_float=str, parse_int=str, parse_constant=str
        )

    want = list(json_leaves(parse(expected)))
    got = list(json_leaves(parse(actual)))
    assert [p for p, _ in got] == [p for p, _ in want], "JSON keys or lengths differ"
    for (path, a), (_, b) in zip(want, got):
        if a != b:
            assert json_bounded(path) and isinstance(a, str) and close(a, b), (path, a, b)


def csv_cells(line: str) -> list[str]:
    cells, pos = [], 0
    while pos <= len(line):
        cell = _CSV_CELL.match(line, pos).group()
        cells.append(cell)
        pos += len(cell) + 1
    return cells


def compare_csv(expected: str, actual: str) -> None:
    want, got = expected.split("\n"), actual.split("\n")
    assert len(got) == len(want) and got[0] == want[0], "CSV header or row count differs"
    header = csv_cells(want[0])
    bounded = [re.sub(r"_(final|timeavg)$", "", name) in OBSERVABLES for name in header]
    for row, (a_line, b_line) in enumerate(zip(want, got)):
        if a_line == b_line:
            continue
        a_cells, b_cells = csv_cells(a_line), csv_cells(b_line)
        assert len(a_cells) == len(b_cells) == len(header), (row, a_line, b_line)
        for name, keep, a, b in zip(header, bounded, a_cells, b_cells):
            if a != b:
                assert keep and a and b and close(a, b), (row, name, a, b)


@pytest.mark.parametrize("name", regenerate.NAMES)
def test_golden_output(name, tmp_path):
    regenerate.write(name, tmp_path)
    actual = (tmp_path / name).read_text(encoding="utf-8")
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    if actual == expected:
        return
    if name.endswith(".json"):
        compare_json(expected, actual)
    else:
        compare_csv(expected, actual)


def test_compare_rules_catch_changes():
    """The comparison accepts RTOL-level noise in bounded fields only."""
    compare_csv("t,parity\n1,0.5\n", "t,parity\n1,0.50000000000001\n")
    with pytest.raises(AssertionError):
        compare_csv("t,parity\n1,0.5\n", "t,parity\n1,0.5000000001\n")
    with pytest.raises(AssertionError):
        compare_csv("t,parity\n1,0.5\n", "t,parity\n1.0000000000000002,0.5\n")
    doc = '{\n "result": {\n  "data": {\n   "q1": [\n    0.25\n   ],\n   "parity": [\n    0.5\n   ]\n  }\n }\n}\n'
    compare_json(doc, doc.replace("0.5\n", "0.50000000000001\n"))
    with pytest.raises(AssertionError):
        compare_json(doc, doc.replace("0.25", "0.25000000000001"))
    with pytest.raises(AssertionError):
        compare_json(doc, doc.replace('"q1"', '"q2"'))
    with pytest.raises(AssertionError):
        compare_json(doc, doc.replace("\n    0.5", "    0.5"))
