"""Self-tests: the output checks accept true reports and reject broken ones.

Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py

Each case solves a small instance with `divmax solve`, checks that the
report is accepted, then breaks one field the way a faulty program could
and checks that the report is rejected.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from divmax import cli  # noqa: E402

POINTS = {"kind": "l2", "points": [[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [2.0, 1.5],
                                   [1.2, 2.4], [2.6, 0.1]]}
PARTITION = {"kind": "partition", "blocks": [[1, 2, 3], [4, 5, 6]], "capacities": [1, 1]}
K4 = {"kind": "graphic", "num_vertices": 4,
      "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}
CASES = {
    "uniform": workloads._doc(POINTS, {"kind": "uniform", "k": 3}, 6),
    "partition": workloads._doc(POINTS, PARTITION, 6, scores=[0.5, 0.0, 1.0, 0.2, 0.0, 0.3]),
    "graphic": workloads._doc(POINTS, K4, 6),
}


def solve(doc: dict, tmp_path) -> dict:
    doc_path, report_path = tmp_path / "doc.json", tmp_path / "report.json"
    doc_path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(doc_path), "--out", str(report_path)]) == 0
    return json.loads(report_path.read_text())


@pytest.fixture(params=sorted(CASES))
def solved(request, tmp_path):
    doc = CASES[request.param]
    return request.param, doc, solve(doc, tmp_path)


def test_true_report_is_accepted(solved):
    _, doc, report = solved
    assert checks.check_report(doc, report, checks.exact_opt(doc)) == []


def test_dependent_element_in_basis_is_rejected(solved):
    kind, doc, report = solved
    bad = copy.deepcopy(report)
    # Four elements at rank 3; two of one capacity-1 block; a triangle of K4.
    bad["rounding"]["basis"] = {"uniform": [1, 2, 3, 4], "partition": [1, 2],
                                "graphic": [1, 2, 4]}[kind]
    assert any("not a basis" in p for p in checks.check_report(doc, bad))


def test_value_raised_by_one_percent_is_rejected(solved):
    _, doc, report = solved
    bad = copy.deepcopy(report)
    bad["rounding"]["value"] *= 1.01
    assert any("rounding.value" in p for p in checks.check_report(doc, bad))


def test_upper_bound_below_value_is_rejected(solved):
    _, doc, report = solved
    bad = copy.deepcopy(report)
    bad["opt_upper_bound"] = 0.99 * bad["rounding"]["value"]
    assert any("opt_upper_bound" in p for p in checks.check_report(doc, bad))


def test_upper_bound_below_exact_optimum_is_rejected(solved):
    _, doc, report = solved
    opt = checks.exact_opt(doc)
    bad = copy.deepcopy(report)
    bad["opt_upper_bound"] = opt * (1 - 1e-4)
    assert any("OPT" in p for p in checks.check_report(doc, bad, opt))


@pytest.mark.parametrize("kind, x", [
    ("uniform", [1.5, 0.5, 0.5, 0.5, 0.0, 0.0]),     # leaves [0, 1]^n
    ("uniform", [0.5, 0.5, 0.5, 0.5, 0.5, 0.0]),     # mass 2.5, rank 3
    ("partition", [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]),   # block 1 holds 2 > capacity 1
    ("graphic", [1.0, 1.0, 0.0, 1.0, 0.0, 0.0]),     # triangle 1-2-3 holds 3 > rank 2
])
def test_x_star_off_the_polytope_is_rejected(kind, x, tmp_path):
    doc = CASES[kind]
    bad = solve(doc, tmp_path)
    bad["x_star"] = x
    assert any("x_star" in p for p in checks.check_report(doc, bad))

