"""Instance generators: random fixtures plus the two stress families."""

import numpy as np
import pytest

import divmax
from divmax.errors import InvalidInputError
from divmax.io import doc_to_json

from conftest import enumerate_independent


class TestIntegralityGap:
    def test_document_shape(self):
        doc = divmax.gen_integrality_gap(4, 2)
        assert doc.n == 4
        assert doc.matroid == {"kind": "uniform", "k": 2}
        mat = doc.distance["matrix"]
        for r in range(4):
            for c in range(4):
                assert mat[r][c] == (0.0 if r == c else 1.0)
        assert doc.scores is None

    def test_value_formulas_small(self):
        assert divmax.integrality_gap_fractional_value(4, 2) == pytest.approx(3.0)
        assert divmax.integrality_gap_opt_value(4, 2) == pytest.approx(2.0)

    def test_value_formulas_large(self):
        assert divmax.integrality_gap_fractional_value(100, 10) == pytest.approx(99.0)
        assert divmax.integrality_gap_opt_value(100, 10) == pytest.approx(90.0)

    def test_ratio_one_when_k_equals_n(self):
        frac = divmax.integrality_gap_fractional_value(5, 5)
        opt = divmax.integrality_gap_opt_value(5, 5)
        assert frac == pytest.approx(opt)

    def test_opt_is_brute_force_value(self):
        dm, m, w = divmax.materialize(divmax.gen_integrality_gap(6, 3))
        assert w is None
        res = divmax.brute_force_opt(dm, m)
        assert res.value == pytest.approx(divmax.integrality_gap_opt_value(6, 3))

    def test_certifies(self):
        dm, _, _ = divmax.materialize(divmax.gen_integrality_gap(5, 2))
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.gen_integrality_gap(4, 1)
        with pytest.raises(InvalidInputError):
            divmax.gen_integrality_gap(4, 5)


TRIANGLE_PLUS_ISOLATED = [(0, 1), (0, 2), (1, 2)]


class TestDksReduction:
    def test_matrix_entries(self):
        doc = divmax.gen_dks_reduction(4, TRIANGLE_PLUS_ISOLATED, 3)
        mat = np.array(doc.distance["matrix"])
        hi = 1.0 + 1.0 / 3.0
        assert mat[0, 1] == pytest.approx(hi)
        assert mat[1, 2] == pytest.approx(hi)
        assert mat[0, 3] == pytest.approx(1.0)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    def test_k4_pair_value(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        dm, m, _ = divmax.materialize(divmax.gen_dks_reduction(4, edges, 2))
        res = divmax.brute_force_opt(dm, m)
        assert res.value == pytest.approx(2 * (4.0 / 3.0))

    def test_triangle_beats_isolated_vertex(self):
        dm, m, _ = divmax.materialize(divmax.gen_dks_reduction(4, TRIANGLE_PLUS_ISOLATED, 3))
        res = divmax.brute_force_opt(dm, m)
        assert res.elements == (0, 1, 2)
        assert res.value == pytest.approx(8.0)
        with_isolated = np.zeros(4)
        with_isolated[[0, 1, 3]] = 1.0
        assert float(with_isolated @ dm.d @ with_isolated) == pytest.approx(20.0 / 3.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_dispersion_counts_edges(self, seed):
        n, k = 8, 4
        edges = divmax.gen_random_graph(n, 0.4, seed)
        dm, _, _ = divmax.materialize(divmax.gen_dks_reduction(n, edges, k))
        edge_set = {frozenset(e) for e in edges}
        rng = np.random.default_rng(seed)
        for _ in range(10):
            subset = rng.choice(n, size=k, replace=False)
            inside = sum(
                1 for a in range(k) for b in range(a + 1, k)
                if frozenset((subset[a], subset[b])) in edge_set
            )
            x = np.zeros(n)
            x[subset] = 1.0
            expect = k * (k - 1) + 2 * inside / (n - 1)
            assert float(x @ dm.d @ x) == pytest.approx(expect)

    @pytest.mark.parametrize("seed", range(4))
    def test_certifies(self, seed):
        edges = divmax.gen_random_graph(7, 0.5, seed)
        dm, _, _ = divmax.materialize(divmax.gen_dks_reduction(7, edges, 3))
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.gen_dks_reduction(4, [(0, 0)], 2)
        with pytest.raises(InvalidInputError):
            divmax.gen_dks_reduction(4, [(0, 4)], 2)
        with pytest.raises(InvalidInputError):
            divmax.gen_dks_reduction(4, [], 0)
        with pytest.raises(InvalidInputError):
            divmax.gen_dks_reduction(1, [], 1)


class TestRandomGraph:
    def test_reproducible(self):
        assert divmax.gen_random_graph(10, 0.5, 3) == divmax.gen_random_graph(10, 0.5, 3)

    def test_extreme_probabilities(self):
        assert divmax.gen_random_graph(5, 0.0, 0) == []
        assert len(divmax.gen_random_graph(5, 1.0, 0)) == 10

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.gen_random_graph(5, 1.5, 0)


class TestRandomPoints:
    def test_reproducible_documents(self):
        a = divmax.gen_random_points(6, 3, "l2", 42)
        b = divmax.gen_random_points(6, 3, "l2", 42)
        assert doc_to_json(a) == doc_to_json(b)
        c = divmax.gen_random_points(6, 3, "l2", 43)
        assert doc_to_json(a) != doc_to_json(c)

    def test_seed_recorded(self):
        assert divmax.gen_random_points(4, 2, "l1", 17).seed == 17

    @pytest.mark.parametrize("kind", ["l1", "l2", "lp", "cosine", "jaccard", "dice", "simple_matching", "russell_rao"])
    def test_all_kinds_certify(self, kind):
        doc = divmax.gen_random_points(8, 5, kind, 5, k=3)
        dm, m, w = divmax.materialize(doc)
        assert dm.n == 8
        assert m.full_rank == 3
        assert w is None
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type

    def test_lp_records_exponent(self):
        doc = divmax.gen_random_points(4, 2, "lp", 0)
        assert doc.distance["p"] == pytest.approx(1.5)
        doc = divmax.gen_random_points(4, 2, "lp", 0, p=1.25)
        assert doc.distance["p"] == pytest.approx(1.25)

    def test_uniform_point_distribution(self):
        doc = divmax.gen_random_points(20, 3, "l2", 1, point_dist="uniform")
        pts = np.array(doc.distance["points"])
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_set_kinds_shape(self):
        doc = divmax.gen_random_points(10, 6, "jaccard", 9)
        assert doc.distance["universe"] == 6
        for s in doc.distance["sets"]:
            assert len(s) >= 1
            assert all(0 <= e < 6 for e in s)
            assert s == sorted(set(s))

    def test_set_size_honored(self):
        doc = divmax.gen_random_points(10, 8, "dice", 2, set_size=3)
        assert all(len(s) == 3 for s in doc.distance["sets"])

    def test_scores_generated(self):
        doc = divmax.gen_random_points(7, 2, "l2", 3, with_scores=True)
        assert len(doc.scores) == 7
        assert all(0.0 <= s < 1.0 for s in doc.scores)

    def test_transforms_passed_through(self):
        # Transforms are a field of the document's distance, not a generator option.
        doc = divmax.gen_random_points(5, 2, "l2", 4)
        doc.distance["transforms"] = [{"name": "power", "alpha": 0.5}]
        base = divmax.gen_random_points(5, 2, "l2", 4)
        dm, _, _ = divmax.materialize(divmax.doc_from_json(divmax.doc_to_json(doc)))
        dm0, _, _ = divmax.materialize(base)
        assert np.allclose(dm.d, np.sqrt(dm0.d))

    def test_partition_matroid_request(self):
        doc = divmax.gen_random_points(9, 2, "l2", 11, matroid="partition", k=3)
        spec = doc.matroid
        assert spec["kind"] == "partition"
        assert len(spec["blocks"]) == 3
        seen = sorted(e for b in spec["blocks"] for e in b)
        assert seen == list(range(1, 10))  # serialized blocks are 1-based
        for b, cap in zip(spec["blocks"], spec["capacities"]):
            assert 1 <= cap <= len(b)
        dm, m, _ = divmax.materialize(doc)
        assert m.kind == "partition"
        assert 1 <= m.full_rank <= 9

    def test_matroid_dict_passthrough(self):
        spec = {"kind": "uniform", "k": 2}
        doc = divmax.gen_random_points(5, 2, "l2", 0, matroid=spec)
        assert doc.matroid == spec

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.gen_random_points(1, 2, "l2", 0)
        with pytest.raises(InvalidInputError):
            divmax.gen_random_points(4, 0, "l2", 0)
        with pytest.raises(InvalidInputError):
            divmax.gen_random_points(4, 2, "mystery", 0)
        with pytest.raises(InvalidInputError):
            divmax.gen_random_points(4, 2, "l2", 0, point_dist="cauchy")
        with pytest.raises(InvalidInputError):
            divmax.gen_random_points(4, 2, "l2", 0, matroid="laminar")

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_instances_solve_end_to_end(self, seed):
        doc = divmax.gen_random_points(7, 3, "l2", seed, matroid="partition", k=2)
        dm, m, w = divmax.materialize(doc)
        relax = divmax.sweep_slices(dm, m, w)
        rounded = divmax.round(dm, m, relax.best.point.x, w)
        assert m.is_independent(rounded.basis)
        best = 0.0
        for s in enumerate_independent(m):
            x = np.zeros(7)
            x[list(s)] = 1.0
            best = max(best, float(x @ dm.d @ x))
        assert relax.opt_upper_bound >= best - 1e-7
