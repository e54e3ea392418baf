"""Matroid rank oracles, greedy slice LMO, slack minimization, polytope membership."""

import itertools

import numpy as np
import pytest

import divmax
from divmax.errors import InvalidInputError
from divmax.matroids import W_MAX, _combinations, validate_rank_table

from conftest import (
    RANK_ZERO,
    RankOnly,
    enumerate_independent,
    in_polytope,
    polytope_min_slack,
    random_certified,
    random_matroid,
    reference_enumerate_slack,
    reference_scan_slack,
)


def brute_slack(m, x, i, j, window, prefix=frozenset()):
    """Independent oracle for windowed slack minimization (all subsets)."""
    pool = sorted(e for e in window if e not in (i, j))
    best = None
    for t in range(len(pool) + 1):
        for combo in itertools.combinations(pool, t):
            s = set(prefix) | {i} | set(combo)
            val = m.rank(s) - float(sum(x[e] for e in s))
            if best is None or val < best[0] - 1e-15:
                best = (val, frozenset({i} | set(combo)))
    return best


class TestRankOracles:
    def test_uniform_rank(self):
        m = divmax.UniformMatroid(5, 2)
        assert m.rank([0, 1, 2]) == 2
        assert m.rank([3]) == 1
        assert m.rank([]) == 0
        assert m.full_rank == 2

    def test_partition_rank(self):
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        assert m.rank([0, 1, 2]) == 2
        assert m.rank([0, 1]) == 1
        assert m.full_rank == 2

    def test_graphic_triangle(self):
        m = divmax.GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
        assert m.rank([0, 1, 2]) == 2
        assert m.rank([0, 1]) == 2
        assert m.rank([0]) == 1
        assert m.full_rank == 2

    def test_graphic_parallel_edges_and_forest(self):
        m = divmax.GraphicMatroid(4, [(0, 1), (0, 1), (2, 3)])
        assert m.rank([0, 1]) == 1
        assert m.rank([0, 2]) == 2
        assert m.full_rank == 2

    def test_is_independent(self):
        u = divmax.UniformMatroid(4, 2)
        assert u.is_independent([0, 2])
        assert not u.is_independent([0, 1, 2])
        p = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        assert not p.is_independent([0, 1])
        assert p.is_independent([1, 2])

    def test_explicit_rank_round_trip(self):
        base = divmax.PartitionMatroid([[0, 2], [1, 3]], [1, 2])
        ex = divmax.ExplicitRankMatroid.from_matroid(base)
        for size in range(5):
            for s in itertools.combinations(range(4), size):
                assert ex.rank(s) == base.rank(s)

    def test_explicit_truncation(self):
        base = divmax.UniformMatroid(5, 4)
        ex = divmax.ExplicitRankMatroid.from_matroid(base, truncate_to=2)
        assert ex.full_rank == 2
        assert ex.rank([0, 1, 2]) == 2

    def test_partition_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.PartitionMatroid([[0, 1], [1, 2]], [1, 1])  # overlap
        with pytest.raises(InvalidInputError):
            divmax.PartitionMatroid([[0, 2]], [1])  # gap
        with pytest.raises(InvalidInputError):
            divmax.PartitionMatroid([[0, 1]], [3])  # capacity too big

    def test_graphic_validation(self):
        with pytest.raises(InvalidInputError):
            divmax.GraphicMatroid(2, [(0, 5)])

    def test_element_range_checked(self):
        m = divmax.UniformMatroid(3, 2)
        with pytest.raises(InvalidInputError):
            m.rank([7])
        g = divmax.GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
        for m in (m, divmax.PartitionMatroid([[0, 1], [2]], [1, 1]), g,
                  divmax.ExplicitRankMatroid.from_matroid(g)):
            for e in (-1, 3):
                with pytest.raises(InvalidInputError):
                    m.is_independent([0, e])


class TestRankAxioms:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matroids_satisfy_axioms(self, seed):
        m = random_matroid(seed, 6)
        ex = divmax.ExplicitRankMatroid.from_matroid(m)
        validate_rank_table(ex.ranks)

    def test_graphic_satisfies_axioms(self):
        m = divmax.GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        ex = divmax.ExplicitRankMatroid.from_matroid(m)
        validate_rank_table(ex.ranks)

    def test_corrupted_tables_rejected(self):
        good = divmax.ExplicitRankMatroid.from_matroid(divmax.UniformMatroid(3, 2))
        ranks = list(good.ranks)
        ranks[0] = 1  # r(empty) != 0
        with pytest.raises(InvalidInputError):
            validate_rank_table(ranks)
        ranks = list(good.ranks)
        ranks[-1] = 5  # unit-increment violation
        with pytest.raises(InvalidInputError):
            validate_rank_table(ranks)
        # Submodularity violation: r({0})=0 but r({0,1}) - r({1}) = 1.
        with pytest.raises(InvalidInputError):
            validate_rank_table([0, 0, 1, 2])

    @pytest.mark.parametrize(
        "ranks, axiom",
        [
            ([1, 1, 1, 1], "empty set"),
            ([0, 1, 0, 0], "not monotone"),
            ([0, 1, 1, 3], "unit increase"),
            ([0, 0, 0, 1], "not submodular at mask 0 with elements 0, 1"),
        ],
    )
    def test_each_axiom_is_named(self, ranks, axiom):
        with pytest.raises(InvalidInputError, match=axiom):
            validate_rank_table(ranks)


class TestGreedyLMO:
    def test_uniform_top_weights(self):
        m = divmax.UniformMatroid(4, 2)
        x = divmax.greedy_basis_lmo(m, np.array([3.0, 1.0, 2.0, 0.0]))
        assert np.array_equal(x, [1, 0, 1, 0])

    def test_partition_respects_caps(self):
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        x = divmax.greedy_basis_lmo(m, np.array([5.0, 4.0, 3.0, -1.0]))
        assert np.array_equal(x, [1, 0, 1, 0])

    def test_full_rank_zero_weights_is_basis(self):
        for seed in range(5):
            m = random_matroid(seed, 7)
            if m.full_rank == 0:
                continue
            x = divmax.greedy_basis_lmo(m, np.zeros(7))
            chosen = [e for e in range(7) if x[e] == 1.0]
            assert len(chosen) == m.full_rank
            assert m.is_independent(chosen)

    def test_tie_breaks_low_index(self):
        m = divmax.UniformMatroid(4, 2)
        x = divmax.greedy_basis_lmo(m, np.zeros(4))
        assert np.array_equal(x, [1, 1, 0, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_maximizes_over_truncation_vertices(self, seed):
        # The bases of the truncation to alpha are the independent sets of size alpha.
        rng = np.random.default_rng(seed)
        m = random_matroid(seed + 100, 6)
        if m.full_rank == 0:
            return
        alpha = int(rng.integers(1, m.full_rank + 1))
        w = rng.standard_normal(6)
        x = divmax.greedy_basis_lmo(divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=alpha), w)
        got = float(w @ x)
        best = max(
            sum(w[e] for e in s)
            for s in enumerate_independent(m)
            if len(s) == alpha
        )
        assert got == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(12))
    def test_prefix_order_matches_full_order(self, seed):
        # Weights from five values tie often, also at the cut of the sorted
        # prefix.  The four kinds, and each one's truncations to every alpha
        # below its rank, against the greedy run along the full order: weight
        # descending, lower index first.
        rng = np.random.default_rng(seed)
        g = random_multigraph(seed)
        kinds = (
            divmax.UniformMatroid(9, 4),
            random_matroid(seed + 200, 9),
            g,
            divmax.ExplicitRankMatroid.from_matroid(g),
        )
        for m in kinds:
            w = rng.integers(-2, 3, m.n).astype(float)
            full = np.lexsort((np.arange(m.n), -w))
            ranks = divmax.ExplicitRankMatroid.from_matroid(m).ranks
            for alpha in range(1, m.full_rank + 1):
                expected = np.zeros(m.n)
                expected[m._greedy(full, alpha)] = 1.0
                truncated = m if alpha == m.full_rank else divmax.ExplicitRankMatroid(np.minimum(ranks, alpha))
                np.testing.assert_array_equal(divmax.greedy_basis_lmo(truncated, w), expected)

    def test_prefix_grows_until_greedy_fills(self, monkeypatch):
        # The heaviest eight elements share a block of capacity 1.  The first
        # prefix (c = rank = 2) takes the four tied at the cut and falls
        # short, so does the next (c = 8), and the third is the whole order.
        m = divmax.PartitionMatroid([range(8), range(8, 12)], [1, 1])
        w = np.array([3.0, 3, 3, 3, 2, 2, 2, 2, 1, 1, 0, 0])
        lengths = []
        greedy = m._greedy
        monkeypatch.setattr(m, "_greedy", lambda order, count: lengths.append(len(order))
                            or greedy(order, count))
        assert np.flatnonzero(divmax.greedy_basis_lmo(m, w)).tolist() == [0, 8]
        assert lengths == [4, 8, 12]
        # A uniform matroid fills from the first prefix.
        u = divmax.UniformMatroid(2000, 2)
        lengths.clear()
        monkeypatch.setattr(u, "_greedy", lambda order, count: lengths.append(len(order))
                            or divmax.UniformMatroid._greedy(u, order, count))
        w = np.random.default_rng(0).standard_normal(2000)
        assert np.flatnonzero(divmax.greedy_basis_lmo(u, w)).tolist() == sorted(np.argsort(-w)[:2])
        assert lengths == [2]

    @pytest.mark.parametrize("kind", sorted(RANK_ZERO))
    def test_rank_zero_gives_empty_basis(self, kind):
        m = RANK_ZERO[kind]
        assert m.full_rank == 0
        for w in (np.zeros(m.n), np.arange(m.n, 0.0, -1.0)):
            np.testing.assert_array_equal(divmax.greedy_basis_lmo(m, w), np.zeros(m.n))


class TestSlackMinimize:
    def test_uniform_example(self):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        res = divmax.slack_minimize(m, x, 0, 1, {0, 1, 2, 3})
        assert res.min_slack == pytest.approx(0.5)
        assert res.argmin == frozenset({0})  # ties broken to the smaller set

    def test_integral_window_tight(self):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([1.0, 0.0, 1.0, 0.0])
        res = divmax.slack_minimize(m, x, 0, 1, {0, 1, 2, 3})
        assert res.min_slack == pytest.approx(0.0)

    def test_prefix_disjointness_required(self):
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            divmax.slack_minimize(m, np.zeros(4), 0, 1, {0, 1}, prefix={1, 2})

    def test_i_must_be_in_window(self):
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            divmax.slack_minimize(m, np.zeros(4), 3, 1, {0, 1})

    def test_window_cap_for_brute_kinds(self):
        # A rank-only kind is searched by brute force up to W_MAX; the same
        # path graph as a graphic matroid is searched exactly by min cuts.
        n = W_MAX + 2
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=n)

        class PathRank(divmax.Matroid):
            kind = "path"

            def __init__(self):
                self.n = n

            def rank(self, subset):
                return len(set(subset))

        with pytest.raises(InvalidInputError, match="brute-force cap"):
            divmax.slack_minimize(PathRank(), x, 0, 1, range(n))
        # Partition matroids too: the rounding asks them no search.
        with pytest.raises(InvalidInputError, match="brute-force cap"):
            divmax.slack_minimize(divmax.UniformMatroid(n, 3), x, 0, 1, range(n))
        m = divmax.GraphicMatroid(n + 1, [(v, v + 1) for v in range(n)])
        res = divmax.slack_minimize(m, x, 0, 1, range(n))
        # Every edge set of a path is independent, so T = {0} is best.
        assert res.argmin == frozenset({0})
        assert res.min_slack == m.rank([0]) - x[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_closed_forms_match_brute_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matroid(seed + 17, 6)
        x = rng.uniform(0.0, 1.0, size=6)
        window = set(int(e) for e in rng.choice(6, size=4, replace=False))
        i, j = sorted(window)[:2]
        res = divmax.slack_minimize(m, x, i, j, window)
        val, members = brute_slack(m, x, i, j, window)
        assert res.min_slack == pytest.approx(val, abs=1e-12)
        assert res.argmin == members

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_forms_match_with_prefix(self, seed):
        rng = np.random.default_rng(seed + 31)
        m = random_matroid(seed + 57, 7)
        x = rng.uniform(0.0, 1.0, size=7)
        prefix = frozenset({5, 6})
        window = {0, 1, 2, 3}
        res = divmax.slack_minimize(m, x, 0, 2, window, prefix)
        val, members = brute_slack(m, x, 0, 2, window, prefix)
        assert res.min_slack == pytest.approx(val, abs=1e-12)
        assert res.argmin == members

    @staticmethod
    def assert_matches_scan(m, x, i, j, window, prefix):
        """The loop reference's minimum, reached by the set found."""
        res = divmax.slack_minimize(m, x, i, j, window, prefix)
        val, _ = reference_scan_slack(m, x, i, j, window, prefix)
        tol = 1e-12 * (1 + m.full_rank)
        assert abs(res.min_slack - val) <= tol
        assert i in res.argmin and j not in res.argmin and res.argmin <= window
        chosen = prefix | res.argmin
        assert abs(m.rank(chosen) - float(sum(x[e] for e in chosen)) - val) <= tol

    @pytest.mark.parametrize("seed", range(40))
    def test_scans_match_loop_reference(self, seed):
        # Partition windows are searched subset by subset (at most W_MAX
        # elements); the per-block scan is the oracle, on masses that tie
        # often.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = random_matroid(seed, n)
        x = rng.choice([0.0, 0.125, 1 / 3, 0.5, 0.75, 1.0], size=n) if seed % 2 else rng.random(n)
        for _ in range(10):
            perm = [int(e) for e in rng.permutation(n)]
            cut = int(rng.integers(0, n - 1))
            prefix, window = frozenset(perm[:cut]), frozenset(perm[cut:])
            i = perm[cut]
            j = perm[cut + 1] if rng.random() < 0.7 else None
            self.assert_matches_scan(m, x, i, j, window, prefix)

    @pytest.mark.parametrize("seed", range(8))
    def test_scan_skips_blocks_without_window_elements(self, seed):
        # Block 1 has neither window nor prefix elements, block 3 only
        # prefix ones, and i's block 0 holds prefix elements too.
        m = divmax.PartitionMatroid([[0, 1, 2], [3, 4], [5, 6, 7], [8, 9]], [2, 1, 2, 1])
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, 0.25, 0.5, 1.0], size=10) if seed % 2 else rng.random(10)
        prefix, window = frozenset({1, 2, 8}), frozenset({0, 5, 6, 7})
        for j in (5, None):
            self.assert_matches_scan(m, x, 0, j, window, prefix)

    def test_j_none_drops_exclusion(self):
        m = divmax.UniformMatroid(3, 2)
        x = np.array([0.2, 0.9, 0.0])
        res = divmax.slack_minimize(m, x, 0, None, {0, 1, 2})
        # T may include every window element once j is unconstrained.
        assert res.min_slack == pytest.approx(min(1 - 0.2, 2 - 1.1, 2 - 1.1))


class TestUniformIsOneBlock:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_results_as_one_block_partition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        k = (0, n, int(rng.integers(1, n)))[seed % 3]
        uniform, one_block = divmax.UniformMatroid(n, k), divmax.PartitionMatroid([range(n)], [k])
        dm = random_certified(seed, n, ("l1", "l2", "jaccard")[seed % 3])
        w = rng.random(n) if seed % 2 else None
        x = rng.random(n)
        perm = [int(e) for e in rng.permutation(n)]
        prefix, window = frozenset(perm[: n // 3]), frozenset(perm[n // 3 :])
        i, j = perm[n // 3], perm[n // 3 + 1]
        x_star = divmax.sweep_slices(dm, uniform, w=w).best.point.x

        def results(m):
            slack = divmax.slack_minimize(m, x, i, j, window, prefix)
            greedy = divmax.greedy_basis_lmo(m, x).tolist()
            exact = divmax.brute_force_opt(dm, m, w)
            local = divmax.local_search_half(dm, m, w=w)
            rounded = divmax.round(dm, m, x_star, w=w)
            return (
                float(slack.min_slack).hex(), slack.argmin, greedy,
                exact.elements, float(exact.value).hex(),
                local.elements, float(local.value).hex(), local.swaps,
                rounded.basis, float(rounded.value).hex(),
                [(r.pair, r.sign, r.eps, r.event) for r in rounded.trace.iterations],
            )

        assert results(uniform) == results(one_block)


def random_graphic_window(seed):
    """Random multigraph (parallel edges, self-loops) with x, prefix, window, i, j.

    Even seeds draw generic x, odd seeds x in {0, 1/3, 1/2, 2/3, 1}, where
    distinct sets can tie exactly in real arithmetic.
    """
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(2, 7))
    num_edges = int(rng.integers(3, 15))
    edges = [tuple(int(v) for v in rng.integers(0, num_vertices, 2)) for _ in range(num_edges)]
    m = divmax.GraphicMatroid(num_vertices, edges)
    if seed % 2:
        x = rng.choice([0.0, 1 / 3, 0.5, 2 / 3, 1.0], size=num_edges)
    else:
        x = rng.uniform(0.0, 1.0, size=num_edges) * (rng.random(num_edges) < 0.85)
    perm = [int(e) for e in rng.permutation(num_edges)]
    cut = int(rng.integers(0, num_edges // 3 + 1))
    prefix, window = frozenset(perm[:cut]), frozenset(perm[cut:])
    i = perm[cut]
    j = perm[cut + 1] if cut + 1 < num_edges and rng.random() < 0.7 else None
    return m, x, i, j, window, prefix


class TestGraphicSlack:
    @pytest.mark.parametrize("seed", range(160))
    def test_matches_brute_force(self, seed):
        m, x, i, j, window, prefix = random_graphic_window(seed)
        res = divmax.slack_minimize(m, x, i, j, window, prefix)
        ref_val, ref_argmin = reference_enumerate_slack(m, x, i, j, window, prefix)
        assert abs(res.min_slack - ref_val) <= 1e-12 * (1 + m.full_rank)
        assert i in res.argmin and j not in res.argmin and res.argmin <= window
        # The minimal minimizer; float rounding can make brute force pick a
        # superset of it when x ties exactly.
        assert res.argmin <= ref_argmin
        if seed % 2 == 0:
            assert res.argmin == ref_argmin
        chosen = prefix | res.argmin
        own = m.rank(chosen) - float(sum(x[e] for e in chosen))
        assert own == pytest.approx(res.min_slack, abs=1e-12 * (1 + m.full_rank))

    def test_loops_and_parallel_edges(self):
        # Edge 2 closes a cycle with the prefix edge 0 and i = 1, so it is a
        # loop of the contracted graph; the parallel pair 3, 4 is worth
        # merging only because its mass exceeds 1.
        m = divmax.GraphicMatroid(4, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 3), (3, 3)])
        x = np.array([0.9, 0.5, 0.4, 0.6, 0.7, 0.3])
        res = divmax.slack_minimize(m, x, 1, None, {1, 2, 3, 4, 5}, prefix={0})
        assert res.argmin == frozenset({1, 2, 3, 4, 5})
        assert res.min_slack == pytest.approx(3 - x.sum())
        ref = reference_enumerate_slack(m, x, 1, None, {1, 2, 3, 4, 5}, frozenset({0}))
        assert (res.min_slack, res.argmin) == ref

    def test_large_window_is_exact(self):
        # K7 with 21 edges, beyond the brute-force cap: a point of the base
        # polytope is tight on the whole edge set, whatever i and j.
        m = divmax.GraphicMatroid(7, list(itertools.combinations(range(7), 2)))
        x = np.full(m.n, 6 / 21)
        res = divmax.slack_minimize(m, x, 0, None, range(m.n))
        assert res.min_slack == pytest.approx(0.0, abs=1e-12)
        assert res.argmin == frozenset(range(m.n))
        res = divmax.slack_minimize(m, x, 0, 20, range(m.n))
        # With edge 20 = (5, 6) excluded, the best T is K7 minus that edge:
        # slack 6 - 20 * 6/21 = 6/21.
        assert res.min_slack == pytest.approx(6 / 21)
        assert res.argmin == frozenset(range(20))


def random_multigraph(seed):
    """Graphic matroid of a random multigraph on at most 11 edges.

    Every graph has the parallel pair (0, 1), (0, 1); odd seeds add a loop
    and an isolated vertex, and every third seed a second component.  The
    random edges add more loops and parallel edges of their own.
    """
    rng = np.random.default_rng(seed)
    v = int(rng.integers(2, 6))
    edges = [(0, 1), (0, 1)]
    edges += [tuple(int(a) for a in rng.integers(0, v, 2)) for _ in range(int(rng.integers(1, 7)))]
    if seed % 2:
        edges.append((v - 1, v - 1))
    if seed % 3 == 0:
        edges += [(v, v + 1), (v + 1, v + 2)]
        v += 3
    return divmax.GraphicMatroid(v + seed % 2, [edges[p] for p in rng.permutation(len(edges))])


class Counting(divmax.ExplicitRankMatroid):
    """An explicit rank table that counts its rank calls."""

    calls = 0

    def rank(self, subset):
        Counting.calls += 1
        return super().rank(subset)


class TestExplicitSlack:
    @pytest.mark.parametrize("seed", range(400))
    def test_matches_default_bits(self, seed):
        # A tabulated multigraph, truncated on every third seed.  Odd seeds
        # draw x from quarters, so distinct sets tie exactly, and x is
        # scaled by 1e-8, 1 or 1e8.
        rng = np.random.default_rng(seed)
        g = random_multigraph(seed + 1000)
        truncate_to = max(g.full_rank - 1, 1) if seed % 3 == 0 else None
        m = divmax.ExplicitRankMatroid.from_matroid(g, truncate_to=truncate_to)
        scale = (1e-8, 1.0, 1e8)[seed // 2 % 3]
        x = scale * (rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m.n) if seed % 2 else rng.random(m.n))
        perm = [int(e) for e in rng.permutation(m.n)]
        cut = int(rng.integers(0, m.n // 2 + 1))
        prefix, window = frozenset(perm[:cut]), frozenset(perm[cut:])
        i = perm[cut]
        j = perm[cut + 1] if cut + 1 < m.n and seed % 4 < 3 else None
        ref_val, ref_argmin = reference_enumerate_slack(m, x, i, j, window, prefix)
        # The table and the same matroid seen through its rank oracle.
        for oracle in (m, RankOnly(m)):
            res = divmax.slack_minimize(oracle, x, i, j, window, prefix)
            assert float(res.min_slack).hex() == float(ref_val).hex()
            assert res.argmin == ref_argmin

    @pytest.mark.parametrize(
        "blocks, x, argmin",
        [
            # T = {0, 3} and {0, 1, 2} both round to 2 - (0.1 + 1.0); the
            # smaller set wins although its bitmask comes later.
            ([[0], [1, 2], [3], [4]], [0.1, 0.9, 0.1, 1.0, 1.0], {0, 3}),
            # {0, 1, 4} and {0, 2, 3} tie the same way; the first sorted
            # tuple wins although its bitmask comes later.
            ([[0], [1, 4], [2, 3], [5]], [0.1, 0.9, 0.9, 0.1, 0.1, 0.9], {0, 1, 4}),
        ],
    )
    def test_unnested_float_ties(self, blocks, x, argmin):
        # In exact arithmetic the minimizers are closed under union and
        # intersection, so the smallest is unique and has the first bitmask.
        # Rounding can tie sets that are not nested; the loop reference keeps
        # the first one it enumerates.
        m = divmax.ExplicitRankMatroid.from_matroid(divmax.PartitionMatroid(blocks, [1] * len(blocks)))
        x = np.array(x)
        res = divmax.slack_minimize(m, x, 0, None, range(m.n))
        assert (res.min_slack, res.argmin) == reference_enumerate_slack(m, x, 0, None, range(m.n))
        assert res.argmin == frozenset(argmin)

    def test_sixteen_element_window(self):
        g = divmax.GraphicMatroid(7, list(itertools.combinations(range(7), 2))[:16])
        m = divmax.ExplicitRankMatroid.from_matroid(g)
        x = np.random.default_rng(0).choice([0.25, 0.5, 0.75], size=16)
        res = divmax.slack_minimize(m, x, 3, None, range(16))
        ref_val, ref_argmin = reference_enumerate_slack(m, x, 3, None, range(16))
        assert (float(res.min_slack).hex(), res.argmin) == (float(ref_val).hex(), ref_argmin)

    def test_makes_no_rank_calls(self):
        g = divmax.GraphicMatroid(5, list(itertools.combinations(range(5), 2)))
        m = Counting(divmax.ExplicitRankMatroid.from_matroid(g).ranks)
        x = np.full(m.n, 0.4)
        Counting.calls = 0
        res = divmax.slack_minimize(m, x, 2, 7, range(1, m.n), prefix={0})
        assert Counting.calls == 0
        assert (res.min_slack, res.argmin) == reference_enumerate_slack(m, x, 2, 7, range(1, m.n), {0})


class TestBasesAndSwaps:
    @pytest.mark.parametrize("seed", range(120))
    def test_match_rank_oracle_defaults(self, seed):
        # Graphic matroids and their tabulations, truncated on odd seeds,
        # against the same matroid seen only through its rank oracle.
        # Swaps are asked of a basis and of a random subset, which may be
        # dependent; B - a + b must then be independent to count.
        rng = np.random.default_rng(seed)
        g = random_multigraph(seed)
        table = divmax.ExplicitRankMatroid.from_matroid(g, truncate_to=max(g.full_rank - seed % 2, 1))
        for m in (g, table):
            k, ref = m.full_rank, RankOnly(m)
            bases = m._bases(k)
            np.testing.assert_array_equal(bases, ref._bases(k), strict=True)
            some = np.flatnonzero(rng.random(m.n) < 0.5)
            for inside in (bases[rng.integers(len(bases))].astype(np.intp), some):
                outside = np.setdiff1d(np.arange(m.n), inside)
                # One rank call per swap, as the default made them before it
                # asked `_independent`.
                swaps = np.array(
                    [[ref.rank([*np.delete(inside, a), b]) == len(inside) for b in outside]
                     for a in range(len(inside))],
                    dtype=bool,
                ).reshape(len(inside), len(outside))
                for mask in (m._swap_mask(inside, outside), ref._swap_mask(inside, outside)):
                    np.testing.assert_array_equal(mask, swaps, strict=True)

    @pytest.mark.parametrize("seed", range(30))
    def test_partition_swaps_match_rank_oracle(self, seed):
        # Bases, and independent sets that fill some blocks but not others,
        # of uniform and partition matroids against one rank call per swap.
        rng = np.random.default_rng(seed)
        m = random_matroid(seed + 300, 9)
        ref = RankOnly(m)
        bases = m._bases(m.full_rank).astype(np.intp)
        partial = np.sort(m._greedy(rng.permutation(m.n), int(rng.integers(0, m.full_rank + 1))))
        for inside in (bases[rng.integers(len(bases))], partial.astype(np.intp)):
            outside = np.setdiff1d(np.arange(m.n), inside)
            swaps = np.array(
                [[ref.rank([*np.delete(inside, a), b]) == len(inside) for b in outside]
                 for a in range(len(inside))],
                dtype=bool,
            ).reshape(len(inside), len(outside))
            np.testing.assert_array_equal(m._swap_mask(inside, outside), swaps, strict=True)

    def test_combinations_hold_any_index(self):
        rows = _combinations(range(200), 2)
        assert rows.tolist() == [list(c) for c in itertools.combinations(range(200), 2)]
        assert tuple(rows[-1]) == (198, 199)
        # The bases of every ground set of an explicit table stay one byte wide.
        assert _combinations(range(W_MAX), 3).dtype == np.int8

    @pytest.mark.parametrize("seed", range(40))
    def test_is_independent_matches_rank(self, seed):
        # Random subsets of all four kinds, with the empty and the ground set.
        rng = np.random.default_rng(seed)
        g = random_multigraph(seed)
        kinds = (
            divmax.UniformMatroid(7, 1 + seed % 7),
            divmax.PartitionMatroid([[0, 3], [1, 4, 5], [2, 6]], [1, 2, 1]),
            g,
            divmax.ExplicitRankMatroid.from_matroid(g, truncate_to=max(g.full_rank - seed % 2, 1)),
        )
        seen = set()
        for m in kinds:
            subsets = [(), range(m.n)] + [np.flatnonzero(rng.random(m.n) < 0.5) for _ in range(8)]
            for s in subsets:
                independent = m.is_independent(s)
                assert independent is (m.rank(s) == len(s))
                seen.add(independent)
        assert seen == {False, True}

    @pytest.mark.parametrize("seed", range(6))
    def test_graphic_and_table_make_no_rank_calls(self, seed, monkeypatch):
        g = random_multigraph(seed)
        for m in (g, divmax.ExplicitRankMatroid.from_matroid(g)):
            k = m.full_rank
            calls = []
            rank = type(m).rank
            monkeypatch.setattr(type(m), "rank", lambda self, s: calls.append(s) or rank(self, s))
            bases = m._bases(k)
            inside = bases[0].astype(np.intp)
            m._swap_mask(inside, np.setdiff1d(np.arange(m.n), inside))
            m.is_independent(range(m.n))
            m.is_independent(inside)
            assert calls == []


class TestPolytopeMembership:
    def test_uniform_inside_and_outside(self):
        m = divmax.UniformMatroid(4, 2)
        assert in_polytope(m, [0.5, 0.5, 0.5, 0.5])
        assert not in_polytope(m, [0.9, 0.9, 0.9, 0.0])
        assert not in_polytope(m, [-0.1, 0.5, 0.5, 0.5])

    def test_partition_block_violation(self):
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        assert in_polytope(m, [0.5, 0.5, 0.5, 0.5])
        assert not in_polytope(m, [0.9, 0.9, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_matches_subset_scan(self, seed):
        # The block-count scan of the slack search (uniform and partition),
        # taken over every i with the whole ground set as window, finds the global
        # minimum of the subset scan, also for x outside the polytope.
        rng = np.random.default_rng(seed)
        m = random_matroid(seed + 13, 6)
        x = rng.uniform(0.0, 1.2, size=6)
        fast = min(divmax.slack_minimize(m, x, i, None, range(6)).min_slack for i in range(6))
        assert fast == pytest.approx(polytope_min_slack(m, x), abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_graphic_matches_subset_scan(self, seed):
        # The oracle's min-cut branch against its subset scan, on multigraphs
        # with loops and parallel edges and at most 14 edges; the scan sees
        # the same rank function only through its oracle.
        m, x, *_ = random_graphic_window(seed)
        x = x * (1.0 + seed % 3 / 2.0)
        fast = polytope_min_slack(m, x)
        brute = polytope_min_slack(RankOnly(m), x)
        assert fast == pytest.approx(brute, abs=1e-12 * (1 + m.full_rank))

    def test_graphic_beyond_scan_size(self):
        # K7 has 21 edges, past the subset scan; the relaxation of an
        # all-ones K7 instance lies in the base polytope, and a point
        # slightly above it does not.
        m = divmax.GraphicMatroid(7, list(itertools.combinations(range(7), 2)))
        dm = divmax.DistanceMatrix(np.ones((m.n, m.n)) - np.eye(m.n))
        x_star = divmax.sweep_slices(dm, m).best.point.x
        assert polytope_min_slack(m, x_star) == pytest.approx(0.0, abs=1e-9)
        assert in_polytope(m, x_star)
        assert not in_polytope(m, 1.001 * x_star)


class TestFractionalPoint:
    def test_copies_and_freezes(self):
        raw = np.array([0.5, 0.5])
        pt = divmax.FractionalPoint.of(raw, value=1.0)
        raw[0] = 9.0
        assert pt.x[0] == 0.5
        assert pt.mass == pytest.approx(1.0)
        with pytest.raises(ValueError):
            pt.x[0] = 2.0
