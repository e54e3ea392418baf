"""End-to-end CLI behavior through main(argv): exit codes, reports, files."""

import argparse
import ast
import json
from pathlib import Path

import numpy as np
import pytest

import divmax
from divmax.cli import _bound_checks, build_parser, main
from divmax.io import canonical_dumps, doc_to_json

NOT_NEGATIVE_TYPE = {
    "n": 3,
    "distance": {"kind": "explicit", "matrix": [[0, 1, 1], [1, 0, 5], [1, 5, 0]]},
    "matroid": {"kind": "uniform", "k": 2},
}

LINE_POINTS = {
    "n": 4,
    "distance": {"kind": "l1", "points": [[0.0], [1.0], [2.0], [3.0]]},
    "matroid": {"kind": "uniform", "k": 2},
}

PARTITION_22 = {"kind": "partition", "blocks": [[1, 2], [3, 4]], "capacities": [1, 1]}
GRAPHIC_C4 = {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}

# Documents whose fields have the wrong type or shape: (field, replacement).
MALFORMED = {
    "k-string": ("matroid", {"kind": "uniform", "k": "2"}),
    "k-null": ("matroid", {"kind": "uniform", "k": None}),
    "k-float": ("matroid", {"kind": "uniform", "k": 2.5}),
    "k-bool": ("matroid", {"kind": "uniform", "k": True}),
    "capacity-string": ("matroid", {**PARTITION_22, "capacities": ["a", 1]}),
    "capacity-float": ("matroid", {**PARTITION_22, "capacities": [1.7, 1]}),
    "block-string": ("matroid", {**PARTITION_22, "blocks": [["x", 2], [3, 4]]}),
    "blocks-flat": ("matroid", {**PARTITION_22, "blocks": [1, 2, 3, 4]}),
    "edge-single": ("matroid", {**GRAPHIC_C4, "edges": [[1], [2, 3], [3, 4], [1, 4]]}),
    "num-vertices-string": ("matroid", {**GRAPHIC_C4, "num_vertices": "4"}),
    "ranks-string": ("matroid", {"kind": "explicit_rank", "ranks": "abc"}),
    "points-ragged": ("distance", {"kind": "l1", "points": [[0.0], [1.0, 2.0], [2.0], [3.0]]}),
    "matrix-ragged": ("distance", {"kind": "explicit", "matrix": [[0, 1, 1, 1], [1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}),
    "points-string": ("distance", {"kind": "l2", "points": [["a"], [1.0], [2.0], [3.0]]}),
    "p-string": ("distance", {"kind": "lp", "points": [[0.0], [1.0], [2.0], [3.0]], "p": "x"}),
    "sets-flat": ("distance", {"kind": "jaccard", "sets": [1, 2, 3, 4], "universe": 4}),
    "universe-nested": ("distance", {"kind": "jaccard", "sets": [[1], [2], [3], [4]], "universe": [[1], 2]}),
    "transforms-int": ("distance", {**LINE_POINTS["distance"], "transforms": 5}),
    "alpha-string": ("distance", {**LINE_POINTS["distance"], "transforms": [{"name": "power", "alpha": "x"}]}),
    "scores-bool": ("scores", [True, False, True, False]),
}


@pytest.fixture
def gap42(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(doc_to_json(divmax.gen_integrality_gap(4, 2)))
    return str(path)


@pytest.fixture
def cosine60(tmp_path):
    path = tmp_path / "cosine60.json"
    path.write_text(doc_to_json(divmax.gen_random_points(60, 5, "cosine", 1, k=6)))
    return str(path)


@pytest.fixture
def bad_triangle(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(NOT_NEGATIVE_TYPE))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """Exit code and stderr of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def solve_report(capsys, *argv):
    code, out, _ = run(capsys, "solve", *argv)
    assert code == 0
    report = json.loads(out)
    del report["timings"]
    return report


def test_parser_is_built_once(capsys, gap42, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    first = solve_report(capsys, gap42, "--trace")
    assert first == solve_report(capsys, gap42, "--trace")
    assert built.count("divmax") == 1


def _argv_pairs() -> set:
    """(command, option) pairs that one call in the tests passes together.

    A call's string arguments, inline or in a list, count; `solve_report`
    runs the solve command.
    """
    pairs = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            args = [e for a in node.args for e in (a.elts if isinstance(a, ast.List) else [a])]
            words = {a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
            if getattr(node.func, "id", None) == "solve_report":
                words.add("solve")
            pairs.update((command, option) for command in words for option in words)
    return pairs


def test_every_option_is_tested():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        (command, option)
        for command, sub in commands.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert len(options) > 20
    assert sorted(options - _argv_pairs()) == []


class TestCertify:
    def test_negative_type_instance(self, capsys, gap42):
        code, out, _ = run(capsys, "certify", gap42)
        assert code == 0
        report = json.loads(out)
        assert report["is_negative_type"] is True
        assert report["verdict"] == "negative_type"
        assert report["n"] == 4
        assert "witness" not in report

    def test_violating_instance(self, capsys, bad_triangle):
        code, out, _ = run(capsys, "certify", bad_triangle)
        assert code == 3
        report = json.loads(out)
        assert report["is_negative_type"] is False
        assert report["min_eigenvalue"] < 0
        w = report["witness"]
        assert abs(sum(w)) < 1e-9
        assert report["witness_value"] > 0

    def test_min_eigenvalue_only_on_reject(self, capsys, tmp_path, bad_triangle):
        path = tmp_path / "l2.json"
        path.write_text(doc_to_json(divmax.gen_random_points(40, 3, "l2", 0, k=3)))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["is_negative_type"] is True
        assert "min_eigenvalue" in report and report["min_eigenvalue"] is None
        code, out, _ = run(capsys, "certify", bad_triangle)
        assert code == 3
        report = json.loads(out)
        assert report["min_eigenvalue"] == pytest.approx(-0.5, rel=1e-12)
        assert np.allclose(np.array(report["witness"]) / report["witness"][1], [-2.0, 1.0, 1.0])

    def test_catalogue_document_is_factored(self, capsys, tmp_path, factorizations):
        # `divmax certify` stays numeric whatever the distance kind.
        path = tmp_path / "l2.json"
        path.write_text(doc_to_json(divmax.gen_random_points(40, 3, "l2", 0, k=3)))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0 and json.loads(out)["method"] == "cholesky"
        assert factorizations == [39]

    def test_out_file(self, capsys, gap42, tmp_path):
        dest = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", gap42, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["is_negative_type"] is True


class TestSolve:
    def test_integrality_gap_report(self, capsys, gap42):
        code, out, _ = run(capsys, "solve", gap42)
        assert code == 0
        report = json.loads(out)
        assert report["best_slice"]["alpha"] == 2
        assert report["best_slice"]["value"] == pytest.approx(3.0, abs=1e-6)
        assert report["x_star"] == pytest.approx([0.5] * 4, abs=1e-4)
        assert report["opt_upper_bound"] == pytest.approx(3.0, abs=1e-6)
        assert len(report["rounding"]["basis"]) == 2
        assert report["rounding"]["value"] == pytest.approx(2.0)
        assert report["baselines"]["exact"]["value"] == pytest.approx(2.0)
        assert report["bound_checks"]["guarantee_satisfied"] is True
        assert report["instance"] == {
            "n": 4,
            "distance_kind": "explicit",
            "matroid_kind": "uniform",
            "has_scores": False,
        }
        assert "slices" not in report
        timings = report["timings"]
        assert set(timings) == {
            "materialize_s", "certify_s", "relax_s", "round_s", "local_search_s", "exact_s",
            "baselines_s", "total_s",
        }
        assert timings["exact_s"] > 0.0
        # total_s spans the layers, materialize included.
        layers = ("materialize_s", "certify_s", "relax_s", "round_s", "baselines_s")
        assert 0.0 < timings["materialize_s"] < timings["total_s"]
        assert sum(timings[key] for key in layers) <= timings["total_s"] * (1 + 1e-11)
        # Report floats carry 12 significant digits.
        assert timings["baselines_s"] == pytest.approx(
            timings["local_search_s"] + timings["exact_s"], rel=1e-11
        )

    def test_gap_flag_sets_the_stopping_rule(self, capsys, cosine60):
        best = solve_report(capsys, cosine60, "--gap", "1e-2")["best_slice"]
        assert 0.0 <= best["gap"] <= 1e-2 * best["value"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("gap", ["nan", "-1", "inf"])
    def test_gap_must_be_finite_and_nonnegative(self, capsys, cosine60, command, gap, monkeypatch):
        # Refused before the document is materialized.
        def materialize(doc):
            raise AssertionError("materialized")

        monkeypatch.setattr(divmax.cli, "materialize", materialize)
        code, out, err = run(capsys, command, cosine60, "--gap", gap)
        assert code == 2 and out == ""
        assert "gap tolerance must be finite and >= 0" in err

    def test_exact_timing_zero_beyond_brute_force_size(self, capsys, tmp_path):
        doc = divmax.gen_random_points(divmax.BRUTE_FORCE_MAX_N + 1, 2, "l2", 0, k=2)
        path = tmp_path / "big.json"
        path.write_text(doc_to_json(doc))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["baselines"]["exact"] is None
        timings = report["timings"]
        assert timings["exact_s"] == 0.0
        assert timings["baselines_s"] == timings["local_search_s"]

    @pytest.mark.parametrize("dropped", [3, 0])
    def test_graphic_k7_all_ones(self, capsys, tmp_path, dropped):
        # K7 (21 edges) and K7 minus 3 edges: rings beyond the old 20-edge
        # brute-force window round to a spanning tree, whose value is 6 * 5.
        edges = [[u + 1, v + 1] for u in range(7) for v in range(u + 1, 7)][: 21 - dropped]
        n = len(edges)
        doc = {
            "n": n,
            "distance": {"kind": "explicit", "matrix": (np.ones((n, n)) - np.eye(n)).tolist()},
            "matroid": {"kind": "graphic", "num_vertices": 7, "edges": edges},
        }
        path = tmp_path / "k7.json"
        path.write_text(json.dumps(doc))
        report = solve_report(capsys, str(path))
        basis = report["rounding"]["basis"]
        assert len(basis) == 6
        tree = [(edges[e - 1][0] - 1, edges[e - 1][1] - 1) for e in basis]
        assert divmax.GraphicMatroid(7, tree).full_rank == 6
        assert report["rounding"]["value"] == pytest.approx(30.0)
        assert report["opt_upper_bound"] >= 30.0 - 1e-9
        assert report["bound_checks"]["guarantee_satisfied"] is True

    def test_report_is_canonical(self, capsys, gap42):
        _, out, _ = run(capsys, "solve", gap42)
        assert canonical_dumps(json.loads(out)) == out

    def test_uncertified_exits_3(self, capsys, bad_triangle):
        code, out, err = run(capsys, "solve", bad_triangle)
        assert code == 3
        assert out == ""
        assert "--force" in err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_certifies_once(self, capsys, gap42, factorizations, command):
        assert run(capsys, command, gap42)[0] == 0
        assert factorizations == [3]

    def test_force_overrides(self, capsys, bad_triangle):
        code, out, _ = run(capsys, "solve", bad_triangle, "--force")
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["forced"] is True
        assert report["certificate"]["is_negative_type"] is False
        assert report["certificate"]["method"] == "eigh"
        assert len(report["rounding"]["basis"]) == 2

    def test_catalogue_is_cited_explicit_is_factored(self, capsys, tmp_path, factorizations):
        doc = divmax.gen_random_points(40, 3, "l2", 0, k=3)
        catalogue = tmp_path / "l2.json"
        catalogue.write_text(doc_to_json(doc))
        cited = solve_report(capsys, str(catalogue))
        assert cited["certificate"] == {
            "verdict": "negative_type",
            "is_negative_type": True,
            "min_eigenvalue": None,
            "method": "catalogue",
        }
        assert factorizations == []
        dm, _, _ = divmax.materialize(doc)
        doc.distance = {"kind": "explicit", "matrix": dm.d.tolist()}
        explicit = tmp_path / "explicit.json"
        explicit.write_text(doc_to_json(doc))
        factored = solve_report(capsys, str(explicit))
        assert factored["certificate"]["method"] == "cholesky"
        assert factorizations == [39]
        # The canonical matrix rounds at %.12g, so only the certificate and
        # the instance kind may differ, and the basis must not.
        assert factored["rounding"]["basis"] == cited["rounding"]["basis"]

    def test_scores_inline(self, capsys, gap42):
        code, out, _ = run(capsys, "solve", gap42, "--scores", "[5, 0, 0, 0]")
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["has_scores"] is True
        assert report["baselines"]["exact"]["value"] == pytest.approx(7.0)
        assert 1 in report["baselines"]["exact"]["elements"]

    def test_scores_from_file(self, capsys, gap42, tmp_path):
        spath = tmp_path / "scores.json"
        spath.write_text("[5, 0, 0, 0]")
        code, out, _ = run(capsys, "solve", gap42, "--scores", str(spath))
        assert code == 0
        assert json.loads(out)["baselines"]["exact"]["value"] == pytest.approx(7.0)

    def test_scores_none_drops(self, capsys, tmp_path):
        doc = divmax.gen_random_points(5, 2, "l2", 1, with_scores=True)
        path = tmp_path / "inst.json"
        path.write_text(doc_to_json(doc))
        _, out, _ = run(capsys, "solve", str(path), "--scores", "none")
        assert json.loads(out)["instance"]["has_scores"] is False

    def test_scores_wrong_length(self, capsys, gap42):
        code, _, err = run(capsys, "solve", gap42, "--scores", "[1, 2]")
        assert code == 2
        assert "scores" in err

    def test_trace_steps(self, capsys, gap42):
        _, out, _ = run(capsys, "solve", gap42, "--trace")
        report = json.loads(out)
        steps = report["rounding"]["steps"]
        assert len(steps) == report["rounding"]["iterations"]
        for step in steps:
            i, j = step["pair"]
            assert 1 <= i <= 4 and 1 <= j <= 4
            assert step["event"] in ("erased", "refined")
            assert step["value_after"] <= step["value_before"] + 1e-9
        assert len(report["rounding"]["reverse_bounds"]) == len(steps)

    def test_no_trace_by_default(self, capsys, gap42):
        _, out, _ = run(capsys, "solve", gap42)
        assert "steps" not in json.loads(out)["rounding"]

    def test_csv_slices(self, capsys, gap42, tmp_path):
        dest = tmp_path / "slices.csv"
        code, err = run_refused(capsys, "solve", gap42, "--csv-slices", str(dest))
        assert code == 2
        assert "unrecognized arguments: --csv-slices" in err
        assert not dest.exists()

    def test_out_file(self, capsys, gap42, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "solve", gap42, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["rounding"]["value"] == pytest.approx(2.0)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/instance.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_field_exits_2(self, capsys, tmp_path, case):
        field, value = MALFORMED[case]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**LINE_POINTS, field: value}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_negative_universe_exits_2(self, capsys, tmp_path):
        path = tmp_path / "universe.json"
        sets = {"kind": "jaccard", "sets": [[], [], [], []], "universe": -3}
        path.write_text(json.dumps({**LINE_POINTS, "distance": sets}))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2 and out == ""
        assert "universe size must be nonnegative" in err

    @pytest.mark.parametrize(
        "mask, rank, axiom",
        [
            (0b11, 0, "not monotone"),  # r({0, 1}) below r({0})
            ((1 << 12) - 1, 6, "unit increase"),  # two above every r(E - e)
            (0b1111, 2, "not monotone"),  # an independent 4-set ranked 2
        ],
        ids=["non-monotone-pair", "full-set-jump", "four-set-rank-2"],
    )
    def test_corrupted_rank_table_exits_2(self, capsys, tmp_path, mask, rank, axiom):
        # The octahedron's graphic matroid truncated to rank 4, a 12-element
        # table: one corrupted entry is refused, naming the broken axiom,
        # whatever the size of the table.
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 1 or u % 2]
        m = divmax.GraphicMatroid(6, edges)
        ranks = divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=4).ranks.tolist()
        assert m.rank([0, 1, 2, 3]) == 4
        ranks[mask] = rank
        rng = np.random.default_rng(3)
        path = tmp_path / "rank12.json"
        path.write_text(json.dumps({
            "n": 12,
            "distance": {"kind": "l2", "points": rng.standard_normal((12, 3)).tolist()},
            "matroid": {"kind": "explicit_rank", "ranks": ranks},
        }))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert axiom in err

    def test_threads_flag_validation(self, capsys, gap42):
        for command in ("solve", "compare"):
            code, err = run_refused(capsys, command, gap42, "--threads", "2")
            assert code == 2
            assert "unrecognized arguments: --threads" in err

    def test_threads_env(self, capsys, gap42, monkeypatch):
        plain = solve_report(capsys, gap42)
        monkeypatch.setenv("DIVMAX_THREADS", "2")
        assert solve_report(capsys, gap42) == plain

    def test_threads_env_invalid(self, capsys, gap42, monkeypatch):
        plain = solve_report(capsys, gap42)
        monkeypatch.setenv("DIVMAX_THREADS", "abc")
        assert solve_report(capsys, gap42) == plain

    def test_thread_count_does_not_change_result(self, capsys, gap42, monkeypatch):
        reports = []
        for count in ("1", "4"):
            monkeypatch.setenv("DIVMAX_THREADS", count)
            reports.append(solve_report(capsys, gap42))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("scored", [False, True])
    def test_zero_distance_solves(self, capsys, tmp_path, scored):
        n, k = 12, 4
        doc = {
            "n": n,
            "distance": {"kind": "explicit", "matrix": [[0.0] * n for _ in range(n)]},
            "matroid": {"kind": "uniform", "k": k},
        }
        scores = [0.0] * n
        if scored:
            scores[7] = 2.5
            doc["scores"] = scores
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(doc))
        report = solve_report(capsys, str(path))
        basis = report["rounding"]["basis"]
        assert len(basis) == k and len(set(basis)) == k
        # Zero distances leave only the scores in g(B).
        assert report["rounding"]["value"] == pytest.approx(sum(scores[e - 1] for e in basis))
        assert report["opt_upper_bound"] >= report["baselines"]["exact"]["value"]
        assert report["baselines"]["exact"]["value"] == pytest.approx(max(scores))

    @staticmethod
    def _scaled(tmp_path, case, c):
        """40 gaussian 3-dim points under a uniform matroid of rank 12, one entry scaled by c.

        `case` is a distance kind whose points (or, for "explicit", whose l1
        matrix) are scaled, or "scores": l1 points with every score c.
        """
        pts = np.random.default_rng(0).standard_normal((40, 3))
        doc = {"n": 40, "matroid": {"kind": "uniform", "k": 12}}
        with np.errstate(over="ignore"):
            if case == "explicit":
                doc["distance"] = {"kind": "explicit", "matrix": (c * divmax.build_distance(pts, "l1").d).tolist()}
            elif case == "scores":
                doc["distance"], doc["scores"] = {"kind": "l1", "points": pts.tolist()}, [c] * 40
            else:
                doc["distance"] = {"kind": case, "points": (c * pts).tolist(), **({"p": 1.5} if case == "lp" else {})}
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("case, c", [("l1", 1e306), ("l1", 1e307), ("explicit", 1e306), ("scores", 1e308)])
    def test_overflowing_value_exits_2(self, capsys, tmp_path, case, c):
        # Unchecked, these ended in a traceback from the face solve (an
        # empty argmin) or in a report with non-finite values.
        code, out, err = run(capsys, "solve", self._scaled(tmp_path, case, c))
        assert code == 2 and out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("e", range(300, 309))
    def test_huge_scales_solve_or_exit_2(self, capsys, tmp_path, e):
        for case in ("l1", "l2", "lp", "cosine", "explicit", "scores"):
            code, _, err = run(capsys, "solve", self._scaled(tmp_path, case, 10.0**e))
            assert code in (0, 2), (case, err)


class TestBoundChecks:
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_guarantee_slack_is_relative(self, scale):
        # The verdict reads the same at every scale: a shortfall of 1e-12 of
        # the target is rounding slack, one of 1e-6 is a miss.
        dm = divmax.DistanceMatrix(scale * (np.ones((40, 40)) - np.eye(40)))
        x_star = np.full(40, 0.5)
        value = float(x_star @ dm.d @ x_star)
        target = divmax.guarantee_factor(20) * value
        assert target > 0.0
        checks = _bound_checks(dm, None, 20, x_star, value, target * (1.0 - 1e-12))
        assert checks["guarantee_target"] == target
        assert checks["guarantee_satisfied"] is True
        checks = _bound_checks(dm, None, 20, x_star, value, target * (1.0 - 1e-6))
        assert checks["guarantee_satisfied"] is False

    @pytest.mark.parametrize("k, vacuous", [(5, True), (8, True), (9, False), (20, False)])
    def test_nonpositive_factor_is_vacuous(self, k, vacuous):
        # 1 - (4 + 2 ln k)/k is <= 0 up to k = 8: the target is then <= 0 and
        # met by any basis, and `guarantee_satisfied` keeps its meaning.
        dm = divmax.DistanceMatrix(np.ones((40, 40)) - np.eye(40))
        x_star = np.full(40, k / 40)
        value = float(x_star @ dm.d @ x_star)
        checks = _bound_checks(dm, None, k, x_star, value, 0.0)
        assert checks["guarantee_vacuous"] is vacuous
        assert (checks["guarantee_factor"] <= 0.0) is vacuous
        assert checks["guarantee_satisfied"] is vacuous


class TestExact:
    def test_line_instance(self, capsys, tmp_path):
        path = tmp_path / "line.json"
        path.write_text(json.dumps(LINE_POINTS))
        code, out, _ = run(capsys, "exact", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["elements"] == [1, 4]
        assert report["value"] == pytest.approx(6.0)

    def test_out_file(self, capsys, gap42, tmp_path):
        dest = tmp_path / "exact.json"
        code, out, _ = run(capsys, "exact", gap42, "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["value"] == pytest.approx(2.0)

    def test_size_guard(self, capsys, tmp_path):
        doc = divmax.gen_random_points(divmax.BRUTE_FORCE_MAX_N + 1, 2, "l2", 0, k=2)
        path = tmp_path / "big.json"
        path.write_text(doc_to_json(doc))
        code, _, err = run(capsys, "exact", str(path))
        assert code == 2
        assert "exact enumeration" in err


class TestCompare:
    def test_table(self, capsys, gap42):
        code, out, _ = run(capsys, "compare", gap42)
        assert code == 0
        assert "n=4  k=2" in out
        assert "relaxation bound" in out
        assert "exact optimum" in out
        assert "rounded / fractional  0.66" in out
        # At k = 2 the factor is negative, so nothing is guaranteed.
        assert "vacuous" in out and "satisfied" not in out

    @pytest.mark.parametrize("k, verdict", [(5, "guarantee factor -0.443775  vacuous"),
                                            (20, "satisfied: yes")])
    def test_guarantee_verdict(self, capsys, tmp_path, k, verdict):
        path = tmp_path / "uniform.json"
        path.write_text(doc_to_json(divmax.gen_random_points(max(12, 2 * k), 3, "l2", 1, k=k)))
        code, out, _ = run(capsys, "compare", str(path))
        assert code == 0
        assert verdict in out
        report = solve_report(capsys, str(path))
        assert report["bound_checks"]["guarantee_vacuous"] is (k == 5)

    def test_ratios_at_every_scale(self, capsys, tmp_path):
        # solve(c * D) is solve(D) with every value times c, so the ratios
        # print alike, also where every value is far below 1e-300.
        doc = divmax.gen_random_points(12, 3, "l2", 2, k=4).to_dict()
        points = np.asarray(doc["distance"]["points"])
        ratios = []
        for c in (1.0, 2.0**-1010):
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps({**doc, "distance": {**doc["distance"], "points": (c * points).tolist()}}))
            code, out, _ = run(capsys, "compare", str(path))
            assert code == 0
            ratios.append([line for line in out.splitlines() if " / " in line])
        assert len(ratios[0]) == 4 and "n/a" not in str(ratios[0])
        assert ratios[0] == ratios[1]

    def test_out_file(self, capsys, gap42, tmp_path):
        dest = tmp_path / "table.txt"
        code, out, _ = run(capsys, "compare", gap42, "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == run(capsys, "compare", gap42)[1]

    def test_gap_flag(self, capsys, cosine60):
        fractional = solve_report(capsys, cosine60, "--gap", "1e-2")["best_slice"]["value"]
        code, out, _ = run(capsys, "compare", cosine60, "--gap", "1e-2")
        assert code == 0
        assert f"fractional value  {fractional:.6g}" in out

    def test_uncertified(self, capsys, bad_triangle):
        code, out, err = run(capsys, "compare", bad_triangle)
        assert code == 3
        assert out == ""
        assert "not of negative type" in err and "--force" in err
        code, out, _ = run(capsys, "compare", bad_triangle, "--force")
        assert code == 0
        assert "rounded / exact" in out


class TestGen:
    def test_integrality_gap_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "integrality-gap", "--n", "4", "--k", "2")
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert json.loads(out2)["rounding"]["value"] == pytest.approx(2.0)

    def test_random_points_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "random-points", "--n", "6", "--dim", "3", "--seed", "5")
        _, out2, _ = run(capsys, "gen", "random-points", "--n", "6", "--dim", "3", "--seed", "5")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 5
        assert len(doc["distance"]["points"]) == 6

    def test_random_points_options(self, capsys):
        _, out, _ = run(
            capsys, "gen", "random-points", "--n", "8", "--dim", "5", "--kind", "jaccard",
            "--set-size", "2", "--matroid", "partition", "--k", "3", "--with-scores",
        )
        doc = json.loads(out)
        assert all(len(s) == 2 for s in doc["distance"]["sets"])
        assert doc["matroid"]["kind"] == "partition"
        assert len(doc["matroid"]["blocks"]) == 3
        assert len(doc["scores"]) == 8

    def test_lp_exponent(self, capsys):
        _, out, _ = run(capsys, "gen", "random-points", "--n", "5", "--kind", "lp", "--p", "1.3")
        assert json.loads(out)["distance"]["p"] == 1.3

    def test_uniform_point_distribution(self, capsys):
        _, out, _ = run(capsys, "gen", "random-points", "--n", "50", "--dim", "3", "--point-dist", "uniform")
        points = np.array(json.loads(out)["distance"]["points"])
        assert points.shape == (50, 3)
        assert ((0.0 <= points) & (points < 1.0)).all()

    def test_dks_edge_probability(self, capsys):
        _, out, _ = run(capsys, "gen", "dks", "--n", "5", "--k", "2", "--edge-prob", "0")
        assert json.loads(out)["distance"]["matrix"] == (np.ones((5, 5)) - np.eye(5)).tolist()

    def test_dks_explicit_edges(self, capsys):
        code, out, _ = run(capsys, "gen", "dks", "--n", "4", "--k", "2", "--edges", "1-2,2-3")
        assert code == 0
        mat = json.loads(out)["distance"]["matrix"]
        hi = 1 + 1 / 3
        assert mat[0][1] == pytest.approx(hi)
        assert mat[1][2] == pytest.approx(hi)
        assert mat[0][2] == pytest.approx(1.0)

    def test_dks_random_graph(self, capsys):
        _, out1, _ = run(capsys, "gen", "dks", "--n", "6", "--k", "2", "--seed", "3")
        _, out2, _ = run(capsys, "gen", "dks", "--n", "6", "--k", "2", "--seed", "3")
        assert out1 == out2

    def test_gen_validation(self, capsys):
        assert run(capsys, "gen", "integrality-gap", "--n", "4")[0] == 2
        assert run(capsys, "gen", "dks", "--n", "4")[0] == 2
        assert run(capsys, "gen", "dks", "--n", "4", "--k", "2", "--edges", "1:2")[0] == 2
        assert run(capsys, "gen", "dks", "--n", "4", "--k", "2", "--edges", "1-9")[0] == 2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "inst.json"
        code, out, _ = run(capsys, "gen", "integrality-gap", "--n", "5", "--k", "2", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["n"] == 5
