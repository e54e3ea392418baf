"""Exhaustive optimum, swap local search, randomized cardinality rounding."""

import numpy as np
import pytest

import divmax
from divmax.errors import InvalidInputError

from conftest import enumerate_independent, random_certified, random_matroid, reference_local_search


class TestBruteForce:
    def test_line_points(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        res = divmax.brute_force_opt(line_points_dm, m)
        assert res.elements == (0, 3)
        assert res.value == pytest.approx(6.0)

    def test_partition_cross_pairs(self):
        dm = divmax.build_distance([[0.0], [1.0], [10.0], [11.0]], "l1")
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        res = divmax.brute_force_opt(dm, m)
        assert res.elements == (0, 3)
        assert res.value == pytest.approx(22.0)

    def test_k1_value_zero(self, line_points_dm):
        res = divmax.brute_force_opt(line_points_dm, divmax.UniformMatroid(4, 1))
        assert res.value == 0.0

    def test_lexicographic_tie_break(self, allones_dm4):
        res = divmax.brute_force_opt(allones_dm4, divmax.UniformMatroid(4, 2))
        assert res.elements == (0, 1)
        assert res.value == pytest.approx(2.0)

    def test_scores_change_winner(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        w = np.array([0.0, 100.0, 0.0, 0.0])
        res = divmax.brute_force_opt(line_points_dm, m, w=w)
        assert 1 in res.elements
        assert res.value == pytest.approx(100.0 + 2 * 2.0)  # {1, 3}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_enumeration(self, seed):
        dm = random_certified(seed, 7, "l2")
        m = random_matroid(seed + 400, 7)
        res = divmax.brute_force_opt(dm, m)
        best = 0.0
        for s in enumerate_independent(m):
            x = np.zeros(7)
            x[list(s)] = 1.0
            best = max(best, divmax.dispersion(dm, x))
        assert res.value == pytest.approx(best)
        assert m.is_independent(res.elements)

    def test_size_guard(self):
        n = divmax.BRUTE_FORCE_MAX_N + 1
        pts = np.random.default_rng(0).standard_normal((n, 2))
        dm = divmax.build_distance(pts, "l2")
        with pytest.raises(InvalidInputError):
            divmax.brute_force_opt(dm, divmax.UniformMatroid(n, 2))


class TestLocalSearch:
    def test_integrality_gap_reaches_opt(self):
        dm, m, _ = divmax.materialize(divmax.gen_integrality_gap(6, 3))
        res = divmax.local_search_half(dm, m)
        assert res.value == pytest.approx(6.0)  # every basis is optimal

    def test_line_from_inner_seed(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        res = divmax.local_search_half(dm=line_points_dm, m=m, seed_basis=[1, 2])
        assert res.elements == (0, 3)
        assert res.value == pytest.approx(6.0)
        assert res.swaps == 2

    def test_max_sweeps_caps_progress(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        res = divmax.local_search_half(line_points_dm, m, seed_basis=[1, 2], max_sweeps=1)
        assert res.swaps == 1

    def test_invalid_seed_rejected(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            divmax.local_search_half(line_points_dm, m, seed_basis=[0, 1, 2])

    @pytest.mark.parametrize("seed", range(8))
    def test_never_beats_brute_force_and_stays_feasible(self, seed):
        dm = random_certified(seed, 7, "jaccard")
        m = random_matroid(seed + 500, 7)
        if m.full_rank == 0:
            return
        res = divmax.local_search_half(dm, m)
        opt = divmax.brute_force_opt(dm, m)
        assert res.value <= opt.value + 1e-9
        assert m.is_independent(res.elements)
        assert len(res.elements) == m.full_rank

    @pytest.mark.parametrize("seed", range(8))
    def test_swaps_do_not_change_with_scale(self, seed):
        # The improvement threshold is relative to the value, so scaling D
        # changes neither the path nor the local optimum.
        dm, m, _ = divmax.materialize(divmax.gen_random_points(40, 3, "l2", seed, k=6))
        ref = divmax.local_search_half(dm, m)
        for c in (1e-12, 1e-8, 1.0, 1e8, 1e12):
            res = divmax.local_search_half(divmax.DistanceMatrix(c * dm.d), m)
            assert (res.elements, res.swaps) == (ref.elements, ref.swaps), c

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_swaps_match_rank_oracle(self, seed):
        # Block counts decide partition swaps; the path is the one the rank
        # oracle gives, with and without scores.
        kind = ("l1", "l2", "jaccard")[seed % 3]
        doc = divmax.gen_random_points(
            20 + 2 * seed, 6, kind, seed, matroid="partition", k=3 + seed % 4,
            with_scores=seed % 2 == 1,
        )
        dm, m, w = divmax.materialize(doc)
        assert isinstance(m, divmax.PartitionMatroid)
        res = divmax.local_search_half(dm, m, w=w)
        elements, value, swaps = reference_local_search(dm, m, w)
        assert swaps > 0
        assert (res.elements, res.value, res.swaps) == (elements, value, swaps)

    def test_partition_swaps_make_no_rank_calls(self):
        class Counting(divmax.PartitionMatroid):
            calls = 0

            def rank(self, subset):
                Counting.calls += 1
                return super().rank(subset)

        dm, m, _ = divmax.materialize(
            divmax.gen_random_points(60, 4, "l1", 3, matroid="partition", k=6)
        )
        counted = Counting(m.blocks, m.capacities)
        res = divmax.local_search_half(dm, counted)
        assert res.swaps > 0
        assert res == divmax.local_search_half(dm, m)
        assert Counting.calls <= 1  # full_rank


class TestRandomizedRounding:
    def test_eps_one_empty(self):
        assert divmax.randomized_round_cardinality([0.5, 0.5, 0.5, 0.5], 2, 1.0, 7) == ()

    def test_integral_eps_zero_identity(self):
        x = [1.0, 0.0, 1.0, 0.0]
        for seed in (0, 1, 99):
            assert divmax.randomized_round_cardinality(x, 2, 0.0, seed) == (0, 2)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.randomized_round_cardinality([0.5, 0.5], 1, 1.5, 0)
        with pytest.raises(InvalidInputError):
            divmax.randomized_round_cardinality([2.0, 0.0], 1, 0.1, 0)
        with pytest.raises(InvalidInputError):
            divmax.randomized_round_cardinality([0.5, 0.5], 3, 0.1, 0)  # mass != k

    def test_output_size_bounded(self):
        x = [0.5] * 8
        for seed in range(50):
            s = divmax.randomized_round_cardinality(x, 4, 0.1, seed)
            assert len(s) <= 4

    def test_seed_reproducibility(self):
        x = [0.5] * 8
        a = divmax.randomized_round_cardinality(x, 4, 0.1, 123)
        b = divmax.randomized_round_cardinality(x, 4, 0.1, 123)
        assert a == b

    def test_pretruncation_mean_dispersion(self, allones_dm4):
        # The first draw per seed (before the size-retry loop) has expected
        # dispersion (1 - eps)^2 * (x* @ D @ x*); Monte Carlo over 10^4 seeds.
        x_star = np.array([0.5, 0.5, 0.5, 0.5])
        eps = 0.2
        y = (1 - eps) * x_star
        total = 0.0
        trials = 10_000
        for seed in range(trials):
            rng = np.random.Generator(np.random.Philox(seed))
            s = divmax.draw_subset(y, rng)
            ind = np.zeros(4)
            ind[list(s)] = 1.0
            total += divmax.dispersion(allones_dm4, ind)
        mean = total / trials
        target = (1 - eps) ** 2 * 3.0
        assert mean == pytest.approx(target, rel=0.05)
