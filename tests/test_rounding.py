"""Chain construction, pair selection, stepping, and the full rounding loop."""

import numpy as np
import pytest

import divmax
from divmax.errors import CertificationError, InternalInvariantError, InvalidInputError
from divmax.rounding import ChainState, build_chain, round_step, select_pair

from conftest import (
    RankOnly,
    counting_view,
    random_certified,
    random_matroid,
    reference_build_chain,
    reference_round,
)

BAD_SCORES = pytest.mark.parametrize(
    "w", [np.ones(3), [np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]],
    ids=["shape", "nan", "inf", "negative"],
)

MATROID_KINDS = ("uniform", "partition", "graphic", "explicit_rank")
DISTANCE_KINDS = ("l1", "l2", "jaccard", "cosine", "dice")


def ring_summary(chain, x):
    return [(set(r.elements), round(r.mass, 9), r.integral) for r in chain.rings(x)]


class TestChainState:
    def test_requires_strictly_increasing(self):
        with pytest.raises(InvalidInputError):
            ChainState([{0, 1}, {0, 1}])
        with pytest.raises(InvalidInputError):
            ChainState([{0, 1}, {2}])
        with pytest.raises(InvalidInputError):
            ChainState([set()])

    def test_insert_positions_and_nesting(self):
        chain = ChainState([{0, 1, 2, 3}])
        chain.insert({0, 1})
        assert chain.sets == [frozenset({0, 1}), frozenset({0, 1, 2, 3})]
        chain.insert({0})
        assert chain.sets[0] == frozenset({0})
        with pytest.raises(InvalidInputError):
            chain.insert({1, 2})  # does not nest with {0, 1}

    def test_erase_removes_element_everywhere(self):
        chain = ChainState([{0, 1}, {0, 1, 2, 3}])
        chain.erase(1)
        assert chain.sets == [frozenset({0}), frozenset({0, 2, 3})]

    def test_erase_collapse_detected(self):
        chain = ChainState([{1}, {1, 2}])
        with pytest.raises(InternalInvariantError):
            chain.erase(1)


class TestBuildChain:
    def test_uniform_half_point_single_ring(self):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        assert chain.sets == [frozenset({0, 1, 2, 3})]
        rings = chain.rings(x)
        assert len(rings) == 1
        assert rings[0].mass == pytest.approx(2.0)
        assert not rings[0].integral

    def test_indicator_splits_into_singletons(self):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([1.0, 0.0, 1.0, 0.0])
        chain = build_chain(m, x)
        assert chain.sets == [frozenset({0}), frozenset({0, 2})]
        assert all(r.integral for r in chain.rings(x))

    def test_partition_blocks_become_rings(self):
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        rings = chain.rings(x)
        assert [set(r.elements) for r in rings] == [{0, 1}, {2, 3}]
        assert all(r.mass == pytest.approx(1.0) for r in rings)
        assert not any(r.integral for r in rings)
        chain.validate(m, x)

    def test_mass_validation(self):
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            build_chain(m, np.array([0.5, 0.5, 0.0, 0.0]))  # mass 1 != 2
        with pytest.raises(InvalidInputError):
            build_chain(m, np.array([1.5, 0.5, 0.0, 0.0]))  # outside [0,1]

    @staticmethod
    def recorded_searches(monkeypatch):
        calls = []
        search = divmax.rounding.slack_minimize

        def recording(m, x, i, j, window, prefix=frozenset()):
            calls.append((i, j, frozenset(window), frozenset(prefix)))
            return search(m, x, i, j, window, prefix)

        monkeypatch.setattr(divmax.rounding, "slack_minimize", recording)
        return calls

    def test_each_slack_search_made_once(self, monkeypatch):
        # A partition matroid tabulated, so that the chain is searched:
        # neighbouring pairs (0, 1), (1, 2) split off {0, 1}; (0, 1), (1, 0)
        # find {0, 1} final; (2, 3), (3, 4) split off {2, 3}; then two
        # searches each for {2, 3} and {4, 5}.  The star pairs (i0, j),
        # (j, i0) made 12 distinct searches, and restarting from the first
        # ring after each split made 14.
        calls = self.recorded_searches(monkeypatch)
        m = divmax.ExplicitRankMatroid.from_matroid(
            divmax.PartitionMatroid([[0, 1], [2, 3], [4, 5]], [1, 1, 1]))
        x = np.full(6, 0.5)
        chain = build_chain(m, x)
        assert [set(r.elements) for r in chain.rings(x)] == [{0, 1}, {2, 3}, {4, 5}]
        assert len(calls) == len(set(calls)) == 10

    @pytest.mark.parametrize("r", [2, 3, 7, 12])
    def test_final_ring_costs_one_search_per_element(self, monkeypatch, r):
        # A uniform matroid tabulated, so that the ring is searched.  The
        # star pairs (i0, j), (j, i0) made 2(r - 1) searches.
        calls = self.recorded_searches(monkeypatch)
        m = divmax.ExplicitRankMatroid.from_matroid(divmax.UniformMatroid(r, 1))
        chain = build_chain(m, np.full(r, 1 / r))
        assert chain.sets == [frozenset(range(r))]
        assert [(i, j) for i, j, _, _ in calls] == [(e, (e + 1) % r) for e in range(r)]

    def test_partition_chain_makes_no_search(self, monkeypatch):
        # A ring splits into its blocks' parts, ordered by smallest element.
        calls = self.recorded_searches(monkeypatch)
        m = divmax.PartitionMatroid([[0, 4, 5], [1, 2], [3]], [2, 1, 1])
        x = np.array([0.5, 0.5, 0.5, 1.0, 0.75, 0.75])
        chain = build_chain(m, x)
        assert [set(r.elements) for r in chain.rings(x)] == [{3}, {0, 4, 5}, {1, 2}]
        chain.validate(m, x)
        assert calls == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_base_points_validate(self, seed):
        rng = np.random.default_rng(seed)
        m = random_matroid(seed + 23, 7)
        if m.full_rank == 0:
            return
        x = np.zeros(7)
        for lam in rng.dirichlet(np.ones(5)):
            x += lam * divmax.greedy_basis_lmo(m, rng.standard_normal(7))
        chain = build_chain(m, x)
        chain.validate(m, x)


class TestSelectPair:
    def test_symmetric_tie_breaks_low(self, allones_dm4):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        assert select_pair(allones_dm4, x, chain.rings(x)) == (0, 1)

    def test_minimum_product_wins(self):
        d = np.full((4, 4), 10.0)
        d[0, 1] = d[1, 0] = 1.0
        np.fill_diagonal(d, 0.0)
        dm = divmax.DistanceMatrix(d)
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.9, 0.1, 0.5, 0.5])
        chain = build_chain(m, x)
        i, j = select_pair(dm, x, chain.rings(x))
        assert (i, j) == (0, 1)
        assert x[i] * x[j] * dm.d[i, j] == pytest.approx(0.09)

    def test_pair_must_be_intra_ring(self):
        # Cheapest product pair (0, 2) straddles the two blocks; the selector
        # must stay inside a ring.
        d = np.full((4, 4), 10.0)
        d[0, 2] = d[2, 0] = 0.001
        np.fill_diagonal(d, 0.0)
        dm = divmax.DistanceMatrix(d)
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        # Both rings score 0.25 * 10; the tie goes to the lower (i, j).
        assert select_pair(dm, x, chain.rings(x)) == (0, 1)

    def test_complete_rounding_rejected(self):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([1.0, 0.0, 1.0, 0.0])
        chain = build_chain(m, x)
        with pytest.raises(InvalidInputError):
            select_pair(random_certified(0, 4), x, chain.rings(x))


class TestRoundStep:
    def test_allones_half_point_step(self, allones_dm4):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        rec = round_step(allones_dm4, m, x, chain)
        assert rec.pair == (0, 1)
        assert rec.eps == pytest.approx(0.5)
        assert rec.event == "erased"
        assert np.allclose(x, [1.0, 0.0, 0.5, 0.5])
        assert rec.loss == pytest.approx(0.5)  # = 2 * x_i x_j d(i,j)
        assert rec.value_before == pytest.approx(3.0)
        assert rec.value_after == pytest.approx(2.5)

    def test_progress_measure_decreases(self, allones_dm4):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        chain = build_chain(m, x)
        rec = round_step(allones_dm4, m, x, chain)
        before = rec.fractional_before - rec.fractional_rings_before
        after = rec.fractional_after - rec.fractional_rings_after
        assert after < before

    @pytest.mark.parametrize("seed", range(12))
    def test_loss_bounded_by_pair_product(self, seed):
        rng = np.random.default_rng(seed)
        dm = random_certified(seed, 7, "l1")
        m = random_matroid(seed + 11, 7)
        if m.full_rank == 0:
            return
        x = np.zeros(7)
        for lam in rng.dirichlet(np.ones(4)):
            x += lam * divmax.greedy_basis_lmo(m, rng.standard_normal(7))
        chain = build_chain(m, x)
        while any(not r.integral for r in chain.rings(x)):
            i, j = select_pair(dm, x, chain.rings(x))
            budget = 2.0 * x[i] * x[j] * dm.d[i, j]
            rec = round_step(dm, m, x, chain)
            assert rec.loss <= budget + 1e-9
            chain.validate(m, x)

    def test_ring_across_blocks_is_searched(self):
        # A chain that is not maximal: the one ring spans both blocks, so
        # the cheapest pair (0, 2) cannot move by min(x_dec, 1 - x_inc)
        # without overfilling a block.  The search finds block {0, 1} tight.
        d = np.full((4, 4), 10.0)
        d[0, 2] = d[2, 0] = 1.0
        np.fill_diagonal(d, 0.0)
        m = divmax.PartitionMatroid([[0, 1], [2, 3]], [1, 1])
        x = np.full(4, 0.5)
        chain = ChainState([{0, 1, 2, 3}])
        rec = round_step(divmax.DistanceMatrix(d), m, x, chain)
        assert (rec.pair, rec.eps, rec.event) == ((0, 2), 0.0, "refined")
        assert rec.new_tight_set == frozenset({0, 1}) and (x == 0.5).all()

    @BAD_SCORES
    def test_scores_checked(self, allones_dm4, w):
        m = divmax.UniformMatroid(4, 2)
        x = np.full(4, 0.5)
        chain = build_chain(m, x)
        with pytest.raises(InvalidInputError):
            round_step(allones_dm4, m, x, chain, w)
        assert (x == 0.5).all()


class TestRound:
    def test_integrality_gap_42_trace(self):
        doc = divmax.gen_integrality_gap(4, 2)
        dm, m, _ = divmax.materialize(doc)
        x_star = np.array([0.5, 0.5, 0.5, 0.5])
        res = divmax.round(dm, m, x_star)
        assert res.basis == (0, 2)
        assert res.value == pytest.approx(2.0)
        assert res.trace.total_loss == pytest.approx(1.0)
        steps = res.trace.iterations
        assert [r.pair for r in steps] == [(0, 1), (2, 3)]
        assert [r.event for r in steps] == ["erased", "erased"]
        assert [r.eps for r in steps] == [pytest.approx(0.5)] * 2

    def test_integral_input_is_noop(self, line_points_dm):
        m = divmax.UniformMatroid(4, 2)
        x = np.array([0.0, 1.0, 0.0, 1.0])
        res = divmax.round(line_points_dm, m, x)
        assert res.basis == (1, 3)
        assert len(res.trace.iterations) == 0
        assert res.trace.total_loss == 0.0
        assert res.value == pytest.approx(4.0)

    def test_rank_zero(self):
        dm = random_certified(0, 4)
        m = divmax.PartitionMatroid([[0, 1, 2, 3]], [0])
        res = divmax.round(dm, m, np.zeros(4))
        assert res.basis == () and res.value == 0.0

    def test_certification_enforced(self, triangle_not_negtype):
        m = divmax.UniformMatroid(3, 2)
        x = np.array([1.0, 0.5, 0.5])
        with pytest.raises(CertificationError):
            divmax.round(triangle_not_negtype, m, x)
        res = divmax.round(triangle_not_negtype, m, x, force=True)
        assert len(res.basis) == 2

    def test_input_validation(self):
        dm = random_certified(0, 4)
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            divmax.round(dm, m, np.array([2.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            divmax.round(dm, m, np.ones(3))

    @BAD_SCORES
    def test_scores_checked(self, w):
        dm = random_certified(0, 4)
        m = divmax.UniformMatroid(4, 2)
        with pytest.raises(InvalidInputError):
            divmax.round(dm, m, np.full(4, 0.5), w=w)

    @pytest.mark.parametrize("seed", range(15))
    def test_full_pipeline_guarantees(self, seed):
        kind = ["l1", "l2", "jaccard", "cosine", "dice"][seed % 5]
        dm = random_certified(seed, 8, kind)
        m = random_matroid(seed + 201, 8)
        if m.full_rank == 0:
            return
        k = m.full_rank
        relax = divmax.sweep_slices(dm, m, gap_tol=1e-9)
        x_star = relax.best.point.x
        res = divmax.round(dm, m, x_star, validate_steps=True, keep_iterates=True)

        assert len(res.basis) == k
        assert m.is_independent(res.basis)
        assert len(res.trace.iterations) <= m.n
        factor = divmax.guarantee_factor(k)
        assert res.value >= factor * relax.best.value - 1e-9
        for rec, bound in zip(res.trace.iterations, res.trace.reverse_bounds):
            assert rec.loss <= bound + 1e-9
        # f - q strictly decreasing across the run.
        measures = [
            rec.fractional_before - rec.fractional_rings_before
            for rec in res.trace.iterations
        ]
        measures.append(0)
        assert all(a > b for a, b in zip(measures, measures[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_chain_matches_rebuild(self, seed):
        # Building the chain from scratch before every step reaches the basis
        # and value that round() reaches by updating one chain in place.
        dm = random_certified(seed, 7, "l2")
        m = random_matroid(seed + 303, 7)
        if m.full_rank == 0:
            return
        x_star = divmax.sweep_slices(dm, m, gap_tol=1e-9).best.point.x
        inc = divmax.round(dm, m, x_star, keep_iterates=True)
        x = inc.trace.iterates[0].copy()
        chain = build_chain(m, x)
        for _ in range(m.n):
            if all(r.integral for r in chain.rings(x)):
                break
            round_step(dm, m, x, chain)
            chain = build_chain(m, x)
            chain.validate(m, x)
        assert all(r.integral for r in chain.rings(x))
        assert tuple(int(e) for e in np.nonzero(x >= 0.5)[0]) == inc.basis
        assert float(x @ dm.d @ x) == pytest.approx(inc.value, abs=1e-9)

    def test_dense_products_do_not_grow_with_steps(self):
        # A step forms its products over the support of x only, so the n x n
        # products of a run are the two behind `quad_star` and the final
        # value, on an interior optimum of about 400 steps too.  The verdict
        # is computed before D is swapped for the counting view, so `round`
        # only looks it up.
        dm, m, w = divmax.materialize(divmax.gen_random_points(400, 6, "cosine", 1, k=20))
        x_star = divmax.sweep_slices(dm, m, w).best.point.x
        counting = counting_view(dm.d)
        object.__setattr__(dm, "d", counting)
        res = divmax.round(dm, m, x_star, w)
        assert len(res.trace.iterations) > 390
        assert type(counting).products == 2

    @pytest.mark.parametrize("matroid, k", [("uniform", 20), ("partition", 3)])
    def test_partition_kinds_round_with_no_search(self, monkeypatch, matroid, k):
        # Interior optima of 394 and 102 steps: a partition ring is its
        # block's fractional part and a step is min(x_dec, 1 - x_inc), so
        # neither the chain nor a step searches.
        n, seed = (400, 1) if matroid == "uniform" else (120, 2)
        doc = divmax.gen_random_points(n, 6, "cosine", seed, matroid=matroid, k=k)
        dm, m, w = divmax.materialize(doc)
        x_star = divmax.sweep_slices(dm, m, w).best.point.x
        calls = TestBuildChain.recorded_searches(monkeypatch)
        res = divmax.round(dm, m, x_star, w, validate_steps=True)
        assert len(res.trace.iterations) > 100
        assert calls == []

    def test_with_scores_quadratic_budget(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            dm = random_certified(seed, 7, "l1")
            m = random_matroid(seed + 77, 7)
            if m.full_rank == 0:
                continue
            k = m.full_rank
            w = rng.uniform(0.0, 1.0, size=7)
            relax = divmax.sweep_slices(dm, m, w=w, gap_tol=1e-9)
            x_star = relax.best.point.x
            res = divmax.round(dm, m, x_star, w=w)
            quad = float(x_star @ dm.d @ x_star)
            budget = (4.0 + 2.0 * np.log(k)) / k * quad
            assert res.value >= relax.best.value - budget - 1e-9


def _oracle_instance(seed: int):
    """A small certified instance of every matroid kind, with x* from relax."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    kind = MATROID_KINDS[seed % 4]
    if kind == "uniform":
        m = divmax.UniformMatroid(n, int(rng.integers(1, n + 1)))
    elif kind == "partition":
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=2, replace=False))
        perm = [int(e) for e in rng.permutation(n)]
        blocks = [perm[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        m = divmax.PartitionMatroid(blocks, [int(rng.integers(1, len(b) + 1)) for b in blocks])
    else:
        vertices = int(rng.integers(3, 7))
        edges = [tuple(int(v) for v in rng.choice(vertices, 2, replace=False)) for _ in range(n)]
        m = divmax.GraphicMatroid(vertices, edges)
        if kind == "explicit_rank":
            top = int(rng.integers(1, m.full_rank + 1))
            m = divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=top)
    dm = random_certified(seed, n, DISTANCE_KINDS[seed % 5])
    w = rng.uniform(0.0, 1.0, size=n) if seed % 3 == 0 else None
    x_star = divmax.sweep_slices(dm, m, w=w, gap_tol=1e-9).best.point.x
    return dm, m, w, x_star


@pytest.mark.parametrize("seed", range(240))
def test_matches_reference_rounding(seed):
    # The one-pass chain, the array pair rule and the one-product step take
    # the steps that the rescanning chain, the pair loop and the n x n
    # values took, to the same basis and final value.
    dm, m, w, x_star = _oracle_instance(seed)
    res = divmax.round(dm, m, x_star, w=w)
    basis, value, steps = reference_round(dm, m, x_star, w)
    assert res.basis == basis
    assert res.value == value
    got = [(r.pair, r.sign, r.event, r.new_tight_set) for r in res.trace.iterations]
    assert got == [(s["pair"], s["sign"], s["event"], s["new_tight_set"]) for s in steps]
    # Partition steps are min(x_dec, 1 - x_inc).  The reference's search
    # reads the ring's mass, which the 2^-40 snap of x* leaves a few grid
    # units off an integer, so its step can differ in the last bits.
    for rec, ref in zip(res.trace.iterations, steps):
        assert abs(rec.eps - ref["eps"]) <= 1e-12 * rec.value_before
        assert abs(rec.loss - ref["loss"]) <= 1e-12 * rec.value_before


def _partition_base_point(seed: int):
    """A random partition matroid on at most 12 elements, and a base of it.

    Every fourth matroid is uniform; the others have 2-4 blocks, most of
    them with spare elements.  x averages 8 random bases, so its sums are
    exact in floating point and many coordinates tie, or are 0 or 1.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    if seed % 4 == 0:
        m = divmax.UniformMatroid(n, int(rng.integers(1, n)))
    else:
        blocks = np.array_split(rng.permutation(n), int(rng.integers(2, min(4, n // 2) + 1)))
        m = divmax.PartitionMatroid(blocks, [int(rng.integers(1, len(b))) for b in blocks])
    x = np.zeros(n)
    for _ in range(8):
        x += divmax.greedy_basis_lmo(m, rng.standard_normal(n))
    return m, x / 8


@pytest.mark.parametrize("seed", range(40))
def test_partition_chain_matches_searched_reference(seed):
    # The blocks' parts, ordered by smallest element, are the rings that
    # rank-oracle searches find, ring for ring.
    m, x = _partition_base_point(seed)
    assert build_chain(m, x).sets == reference_build_chain(RankOnly(m), x).sets


@pytest.mark.parametrize("seed", range(40))
def test_partition_rounding_matches_searched_reference(seed):
    # Steps of min(x_dec, 1 - x_inc) refining with {inc} are the steps that
    # rank-oracle searches take; on exact sums, bit for bit.
    m, x = _partition_base_point(seed)
    dm = random_certified(seed, m.n, DISTANCE_KINDS[seed % 5])
    w = np.random.default_rng(seed).uniform(0.0, 1.0, size=m.n) if seed % 2 else None
    res = divmax.round(dm, m, x, w=w)
    basis, value, steps = reference_round(dm, RankOnly(m), x, w)
    assert (res.basis, res.value) == (basis, value)
    got = [(r.pair, r.sign, r.eps, r.event, r.new_tight_set) for r in res.trace.iterations]
    assert got == [(s["pair"], s["sign"], s["eps"], s["event"], s["new_tight_set"]) for s in steps]


class TestGuaranteeFactor:
    def test_values(self):
        assert divmax.guarantee_factor(1) == pytest.approx(-3.0)
        assert divmax.guarantee_factor(10) == pytest.approx(1 - (4 + 2 * np.log(10)) / 10)
        assert divmax.guarantee_factor(100) > 0.85

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            divmax.guarantee_factor(0)
