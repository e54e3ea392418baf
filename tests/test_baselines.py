"""Exhaustive optimum and swap local search."""

import itertools
import tracemalloc

import numpy as np
import pytest

import divmax
from divmax.errors import InvalidInputError

from conftest import (
    RankOnly,
    enumerate_independent,
    random_certified,
    random_matroid,
    reference_brute_force_opt,
    reference_local_search,
)

KINDS = ("uniform", "partition", "graphic", "explicit_rank")


def kind_instance(kind: str, seed: int, scores: bool = False):
    """(dm, m, w) on l2 points: uniform or partition on 10 elements, a random
    subgraph of K4-K6 as a graphic matroid, or such a subgraph tabulated and
    truncated to rank 3 as an explicit rank table.  Ranks are at least 2, so
    no non-basis ties the optimum."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        m = divmax.UniformMatroid(10, int(rng.integers(2, 6)))
    elif kind == "partition":
        cuts = sorted(int(c) for c in rng.choice(np.arange(2, 9), size=2, replace=False))
        blocks = np.split(rng.permutation(10), cuts)
        m = divmax.PartitionMatroid(blocks, [int(rng.integers(1, len(b) + 1)) for b in blocks])
    else:
        v = 4 + seed % 3
        edges = [e for e in itertools.combinations(range(v), 2) if rng.random() < 0.8]
        m = divmax.GraphicMatroid(v, edges if len(edges) >= v else list(itertools.combinations(range(v), 2)))
        if kind == "explicit_rank":
            m = divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=3)
    w = rng.random(m.n) if scores else None
    return random_certified(seed, m.n, "l2"), m, w


def dks_instance(seed: int, n: int):
    """Densest-subgraph distances 1 and 1 + 1/(n-1), and the 0/1 edge matrix.

    Sets with equal edge counts tie in exact arithmetic, while their
    floating-point sums can differ in the last bit.
    """
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    edges = upper | upper.T
    d = np.where(edges, 1.0 + 1.0 / (n - 1), 1.0)
    np.fill_diagonal(d, 0.0)
    return divmax.DistanceMatrix(d), edges


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
            best = max(best, float(x @ dm.d @ x))
        assert res.value == pytest.approx(best)
        assert m.is_independent(res.elements)

    @pytest.mark.parametrize("scores", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference_dfs(self, kind, seed, scores):
        dm, m, w = kind_instance(kind, seed, scores)
        res = divmax.brute_force_opt(dm, m, w)
        elements, value = reference_brute_force_opt(dm, m, w)
        assert res.elements == elements
        assert res.value == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize(
        "d, k, w",
        [
            # k = 1 without scores: every singleton and the empty set score 0.
            (np.ones((4, 4)) - np.eye(4), 1, None),
            # Element 3 has a zero row and score, so {0, 1, 2} ties the basis.
            (np.pad(np.ones((3, 3)) - np.eye(3), ((0, 1), (0, 1))), 4, np.array([0.5, 0.0, 0.2, 0.0])),
        ],
    )
    def test_non_basis_tie_returns_basis(self, d, k, w):
        # Where a non-basis ties the optimum the enumeration of all
        # independent sets returned it; the result is now a basis of the
        # same, maximal value.
        dm = divmax.DistanceMatrix(d)
        m = divmax.UniformMatroid(len(d), k)
        res = divmax.brute_force_opt(dm, m, w)
        elements, value = reference_brute_force_opt(dm, m, w)
        assert len(elements) < k
        assert len(res.elements) == k and m.is_independent(res.elements)
        assert res.value == pytest.approx(value, rel=1e-12)
        x = np.zeros(len(d))
        x[list(res.elements)] = 1.0
        assert res.value == pytest.approx(float(x @ dm.d @ x) + (0.0 if w is None else w @ x))

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_ties_go_to_first_basis(self, seed):
        # The value of a basis of K6 under densest-subgraph distances is
        # fixed by its edge count; the first basis with the most edges wins
        # however the float sums round.
        m = divmax.GraphicMatroid(6, list(itertools.combinations(range(6), 2)))
        dm, edges = dks_instance(seed, m.n)
        bases = [s for s in enumerate_independent(m) if len(s) == m.full_rank]
        counts = [int(edges[np.ix_(s, s)].sum()) for s in bases]
        res = divmax.brute_force_opt(dm, m)
        assert res.elements == bases[counts.index(max(counts))]

    @pytest.mark.parametrize(
        "m",
        [divmax.UniformMatroid(20, 10), divmax.PartitionMatroid([range(20)], [10])],
        ids=["uniform", "partition"],
    )
    def test_peak_memory_bounded(self, m):
        # C(20, 10) = 184,756 bases, scored in batches: building every
        # combination at once peaked at 42 MB.
        dm = random_certified(3, 20, "l2")
        m.full_rank
        tracemalloc.start()
        try:
            res = divmax.brute_force_opt(dm, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.elements) == 10
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("eps, first", [(1e-12, tuple(range(10))), (1e-6, tuple(range(1, 11)))])
    def test_tie_rule_across_batches(self, eps, first):
        # C(20, 10) = 184,756 bases in 23 batches.  Lowering D[0, j] by eps
        # costs every basis with element 0 a loss of 18 eps: at 1e-12 that
        # stays inside the relative tie window and the first basis wins; at
        # 1e-6 the first basis without 0, index 92,378 in batch 12, wins.
        d = np.ones((20, 20)) - np.eye(20)
        d[0, 1:] -= eps
        d[1:, 0] -= eps
        res = divmax.brute_force_opt(divmax.DistanceMatrix(d), divmax.UniformMatroid(20, 10))
        assert res.elements == first

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

    def test_line_from_inner_seed(self):
        # Points 1, 2, 0, 3 on a line: the greedy start is the first basis,
        # elements {0, 1}, the inner pair.  Two swaps reach the outer pair.
        dm = divmax.build_distance([[1.0], [2.0], [0.0], [3.0]], "l1")
        res = divmax.local_search_half(dm, divmax.UniformMatroid(4, 2))
        assert res.elements == (2, 3)
        assert res.value == pytest.approx(6.0)
        assert res.swaps == 2

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_no_improving_swap_is_left(self, kind, seed):
        # The search runs to a local optimum: no feasible single swap
        # B - a + b raises the value by more than the tie rule's 1e-12.
        dm, m, w = kind_instance(kind, seed, scores=seed % 2 == 1)
        res = divmax.local_search_half(dm, m, w)
        w_vec = np.zeros(m.n) if w is None else w
        basis = set(res.elements)
        assert len(basis) == m.full_rank and m.is_independent(basis)
        swaps = 0
        for a in basis:
            for b in set(range(m.n)) - basis:
                other = sorted(basis - {a} | {b})
                if m.is_independent(other):
                    swaps += 1
                    value = dm.d[np.ix_(other, other)].sum() + w_vec[other].sum()
                    assert value <= res.value + 1e-12 * abs(res.value), (a, b)
        assert swaps > 0

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

    @pytest.mark.parametrize("scores", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference_swaps(self, kind, seed, scores):
        # The gain matrix follows the one-swap-at-a-time loop; kinds checked
        # by the rank oracle make the same rank calls as that loop.
        dm, m, w = kind_instance(kind, seed + 10, scores)
        res = divmax.local_search_half(dm, m, w=w)
        assert (res.elements, res.value, res.swaps) == reference_local_search(dm, m, w)
        if kind in ("graphic", "explicit_rank"):
            ours, theirs = RankOnly(m), RankOnly(m)
            assert divmax.local_search_half(dm, ours, w=w) == res
            reference_local_search(dm, theirs, w)
            assert ours.calls == theirs.calls

    @pytest.mark.parametrize("seed", range(8))
    def test_near_tied_gains_follow_reference(self, seed):
        # Densest-subgraph distances make many swap gains equal in exact
        # arithmetic; the first swap within the relative tolerance of the
        # best is the one the one-swap-at-a-time loop keeps.
        dm, _ = dks_instance(seed, 30)
        m = divmax.UniformMatroid(30, 7)
        res = divmax.local_search_half(dm, m)
        assert (res.elements, res.value, res.swaps) == reference_local_search(dm, m)

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


class TestBaselineContract:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_elements_at_every_scale(self, kind, seed):
        dm, m, w = kind_instance(kind, seed, scores=seed % 2 == 1)
        exact = divmax.brute_force_opt(dm, m, w).elements
        local = divmax.local_search_half(dm, m, w=w)
        for c in (1e-12, 1e-6, 1e6, 1e12):
            scaled = divmax.DistanceMatrix(c * dm.d)
            cw = None if w is None else c * w
            assert divmax.brute_force_opt(scaled, m, cw).elements == exact, c
            res = divmax.local_search_half(scaled, m, w=cw)
            assert (res.elements, res.swaps) == (local.elements, local.swaps), c

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_rank_calls(self, kind):
        dm, m, w = kind_instance(kind, 5, scores=True)

        class Counting(type(m)):
            calls = 0

            def rank(self, subset):
                Counting.calls += 1
                return super().rank(subset)

        counted = Counting.__new__(Counting)
        counted.__dict__.update(m.__dict__)
        counted.full_rank
        Counting.calls = 0
        assert divmax.brute_force_opt(dm, counted, w) == divmax.brute_force_opt(dm, m, w)
        assert divmax.local_search_half(dm, counted, w=w) == divmax.local_search_half(dm, m, w=w)
        assert Counting.calls == 0

    @pytest.mark.parametrize(
        "w", [np.zeros(3), np.full(10, np.nan), np.full(10, np.inf), -np.ones(10)],
        ids=["shape", "nan", "inf", "negative"],
    )
    def test_scores_checked(self, w):
        dm, m, _ = kind_instance("uniform", 0)
        with pytest.raises(InvalidInputError):
            divmax.brute_force_opt(dm, m, w)
        with pytest.raises(InvalidInputError):
            divmax.local_search_half(dm, m, w=w)

    def test_rank_zero_gives_empty_basis(self):
        dm = random_certified(0, 4, "l2")
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [0, 0])
        assert divmax.brute_force_opt(dm, m) == divmax.SubsetResult((), 0.0)
        assert divmax.local_search_half(dm, m) == divmax.LocalSearchResult((), 0.0, 0)
