"""Relaxation on the base polytope: the conditional-gradient solver and its bound."""

import itertools

import numpy as np
import pytest

import divmax
from divmax import relaxation
from divmax.errors import CertificationError, InvalidInputError

from conftest import (
    RANK_ZERO,
    counting_view,
    enumerate_independent,
    in_polytope,
    random_certified,
    random_matroid,
    reference_solve_slice,
)

# value + gap of `reference_solve_slice` (away-step Frank-Wolfe) on
# gen_random_points(300, 8, "cosine", 5, k=20) at the default gap tolerance.
AWAY_STEP_BOUND_N300 = 627.756647908384


def brute_opt_value(dm, m, w=None):
    best = 0.0
    wv = np.zeros(m.n) if w is None else np.asarray(w, dtype=float)
    for s in enumerate_independent(m):
        x = np.zeros(m.n)
        x[list(s)] = 1.0
        best = max(best, float(x @ dm.d @ x + wv @ x))
    return best


class TestSolveSlice:
    def test_two_point_slice_is_single_point(self):
        dm = divmax.build_distance([[0.0], [3.0]], "l1")
        m = divmax.UniformMatroid(2, 2)
        sol = divmax.solve_slice(dm, m)
        assert np.allclose(sol.point.x, [1.0, 1.0])
        assert sol.value == pytest.approx(6.0)
        assert sol.gap == pytest.approx(0.0, abs=1e-12)
        assert sol.iterations == 0 and sol.converged

    def test_allones_alpha2_uniform_maximizer(self, allones_dm4):
        m = divmax.UniformMatroid(4, 2)
        sol = divmax.solve_slice(allones_dm4, m, gap_tol=1e-10)
        assert sol.value == pytest.approx(3.0, abs=1e-8)
        assert np.allclose(sol.point.x, 0.5, atol=1e-4)
        assert sol.upper_bound >= 3.0 - 1e-12

    def test_allones_alpha1_value(self, allones_dm4):
        m = divmax.UniformMatroid(4, 1)
        sol = divmax.solve_slice(allones_dm4, m, gap_tol=1e-10)
        # max of 1 - |x|^2 at x = (1/4, ..., 1/4).
        assert sol.value == pytest.approx(0.75, abs=1e-8)

    def test_alpha_validation(self):
        # The slice level is the matroid's rank; no alpha is accepted, and a
        # positional alpha lands in the score slot, where a scalar is refused
        # rather than broadcast.
        dm = random_certified(0, 4)
        m = divmax.UniformMatroid(4, 2)
        sol = divmax.solve_slice(dm, m)
        assert sol.alpha == m.full_rank
        assert sol.point.x.sum() == pytest.approx(m.full_rank)
        with pytest.raises(TypeError):
            divmax.solve_slice(dm, m, alpha=2)
        for alpha in (0, 3):
            with pytest.raises(InvalidInputError):
                divmax.solve_slice(dm, m, alpha)

    def test_trace_monotone_and_feasible(self):
        for seed in range(6):
            dm = random_certified(seed, 8, "l2")
            m = random_matroid(seed, 8)
            if m.full_rank == 0:
                continue
            # The slice one below the rank is the base polytope of the truncation.
            alpha = max(1, m.full_rank - 1)
            m = divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=alpha)
            sol = divmax.solve_slice(dm, m, gap_tol=1e-8)
            trace = np.array(sol.value_trace)
            assert (np.diff(trace) >= -1e-9).all()
            x = sol.point.x
            assert x.sum() == pytest.approx(alpha, abs=1e-9)
            assert in_polytope(m, x, tol=1e-9)
            assert sol.gap >= 0.0
            assert sol.upper_bound == pytest.approx(sol.value + sol.gap)

    def test_gap_certificate_dominates_vertices(self):
        # value + gap bounds the maximum over the base polytope, hence any basis value.
        dm = random_certified(3, 7, "jaccard")
        m = divmax.UniformMatroid(7, 3)
        sol = divmax.solve_slice(dm, m, gap_tol=1e-9)
        for s in enumerate_independent(m):
            if len(s) != 3:
                continue
            x = np.zeros(7)
            x[list(s)] = 1.0
            assert sol.upper_bound >= float(x @ dm.d @ x) - 1e-9

    def test_stops_at_rounding_level(self):
        # With gap_tol = 0 the stopping rule cannot fire.  The loop still ends
        # once an iteration changes nothing (here, the iteration cap is 15,000),
        # and no earlier than rounding level.
        sol = divmax.solve_slice(random_certified(40, 20, "l1"), divmax.UniformMatroid(20, 15),
                                 gap_tol=0.0)
        assert sol.iterations < 200
        assert sol.gap <= 1e-12 * sol.value
        dm, m, w = divmax.materialize(divmax.gen_random_points(60, 5, "cosine", 1, k=6))
        sol = divmax.solve_slice(dm, m, w, gap_tol=1e-16)
        assert sol.gap <= 1e-12 * sol.value

    def test_dimension_mismatch(self):
        dm = random_certified(0, 4)
        with pytest.raises(InvalidInputError):
            divmax.solve_slice(dm, divmax.UniformMatroid(5, 2))

    def test_certification_enforced(self, triangle_not_negtype):
        m = divmax.UniformMatroid(3, 2)
        with pytest.raises(CertificationError):
            divmax.solve_slice(triangle_not_negtype, m)
        sol = divmax.solve_slice(triangle_not_negtype, m, force=True)
        assert sol.value >= 0.0

    @pytest.mark.parametrize("kind", sorted(RANK_ZERO))
    def test_rank_zero_gives_zero_point(self, kind):
        sol = divmax.solve_slice(random_certified(0, 4), RANK_ZERO[kind], np.ones(4))
        assert sol.alpha == 0 and sol.converged
        assert sol.value == sol.gap == sol.upper_bound == 0.0
        np.testing.assert_array_equal(sol.point.x, np.zeros(4))

    @pytest.mark.parametrize("gap_tol", [np.nan, -1.0, -1e-300, np.inf])
    def test_gap_tolerance_must_be_finite_and_nonnegative(self, gap_tol):
        # None of these can meet the stopping rule as intended: NaN and a
        # negative tolerance never stop it, inf stops at the warm start.
        dm = random_certified(0, 4)
        for m in (divmax.UniformMatroid(4, 2), RANK_ZERO["partition"]):
            with pytest.raises(InvalidInputError, match="gap tolerance"):
                divmax.solve_slice(dm, m, gap_tol=gap_tol)

    def test_scores_shift_the_optimum(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        m = divmax.UniformMatroid(3, 1)
        w = np.array([0.0, 5.0, 0.0])
        sol = divmax.solve_slice(dm, m, w, gap_tol=1e-10)
        # Dispersion of any single point is 0, so mass concentrates on the score.
        assert sol.value == pytest.approx(5.0, abs=1e-7)
        assert sol.point.x[1] == pytest.approx(1.0, abs=1e-7)


def _oracle_instance(kind, matroid_kind, seed):
    rng = np.random.default_rng(seed)
    if matroid_kind == "uniform":
        n = 14
        m = divmax.UniformMatroid(n, 4)
    elif matroid_kind == "partition":
        n = 10
        m = divmax.PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]], [1, 3])
    else:
        edges = [e for e in itertools.combinations(range(5), 2) if rng.random() < 0.8]
        m = divmax.GraphicMatroid(5, edges)
        n = m.n
    w = rng.uniform(0.0, 1.0, size=n) if seed % 2 else None
    return random_certified(seed, n, kind), m, w


_ORACLE_GRID = list(
    itertools.product(("l1", "l2", "jaccard", "cosine"), ("uniform", "partition", "graphic"))
)


class TestSolveSliceCost:
    # The fully-corrective loop and the away-step oracle stop at different
    # points of the slice; what they share is the certificate: each value lies
    # within the other's bound, and both bounds dominate every basis.
    @pytest.mark.parametrize(
        "kind,matroid_kind,seed",
        [(kind, mk, i) for i, (kind, mk) in enumerate(_ORACLE_GRID)],
    )
    def test_matches_dense_reference(self, kind, matroid_kind, seed):
        dm, m, w = _oracle_instance(kind, matroid_kind, seed)
        k = m.full_rank
        sol = divmax.solve_slice(dm, m, w, gap_tol=1e-9)
        _, value, gap, _, _ = reference_solve_slice(dm, m, w, gap_tol=1e-9)
        assert sol.converged
        tol = 1e-12 * value
        assert sol.value <= value + gap + tol
        assert value <= sol.upper_bound + tol
        assert sol.upper_bound == sol.value + sol.gap
        assert sol.point.x.sum() == pytest.approx(k, abs=1e-9)
        assert in_polytope(m, sol.point.x, tol=1e-9)
        wv = np.zeros(m.n) if w is None else w
        for s in enumerate_independent(m):
            if len(s) == k:
                b = np.zeros(m.n)
                b[list(s)] = 1.0
                assert sol.upper_bound >= float(b @ dm.d @ b + wv @ b) * (1.0 - 1e-9)

    def test_tie_split_agrees_within_gap(self):
        dm, m, w = _oracle_instance("jaccard", "uniform", 18)
        sol = divmax.solve_slice(dm, m, w, gap_tol=1e-9)
        _, value, gap, _, converged = reference_solve_slice(dm, m, w, gap_tol=1e-9)
        assert sol.converged and converged
        assert sol.value <= value + gap and value <= sol.upper_bound

    def test_reverse_vertex_order_keeps_point_and_basis(self, monkeypatch):
        # Jaccard seed 18 has exact gradient ties at the oracle's cut-off, and
        # its Q is singular.  Solving every face with the active vertices in
        # reverse insertion order changes every sum and tie order inside the
        # face solve, yet the loop ends at the same point and basis.
        dm, m, w = _oracle_instance("jaccard", "uniform", 18)
        forward = divmax.solve_slice(dm, m, w, gap_tol=1e-9)
        maximize_face = relaxation._ActiveSet.maximize_face

        def reversed_face(active):
            active._keep(np.arange(active.size)[::-1])
            maximize_face(active)
            active._keep(np.arange(active.size)[::-1])

        monkeypatch.setattr(relaxation._ActiveSet, "maximize_face", reversed_face)
        backward = divmax.solve_slice(dm, m, w, gap_tol=1e-9)
        assert backward.iterations == forward.iterations
        assert np.abs(backward.point.x - forward.point.x).max() <= 1e-9
        assert (divmax.round(dm, m, backward.point.x, w).basis
                == divmax.round(dm, m, forward.point.x, w).basis)

    def test_dense_products_do_not_grow_with_iterations(self):
        # An iteration costs O(n * k + size * n) plus the face solve; the
        # only n x n product is the one exact D @ x behind the value and gap.
        # The verdict is computed before D is swapped for the counting view,
        # so the solves only look it up.
        dm, m, _ = divmax.materialize(divmax.gen_random_points(120, 6, "cosine", 13, k=12))
        assert divmax.certify_negative_type(dm).is_negative_type
        counting = counting_view(dm.d)
        object.__setattr__(dm, "d", counting)
        counts = {}
        for gap_tol in (1e-2, 1e-6):
            type(counting).products = 0
            sol = divmax.solve_slice(dm, m, gap_tol=gap_tol)
            counts[sol.iterations] = type(counting).products
        short_run, long_run = sorted(counts)
        assert 5 <= short_run and long_run >= 50
        assert counts[short_run] == counts[long_run] == 1

    @pytest.mark.parametrize("n,dim,seed,k", [(120, 6, 13, 12), (300, 8, 5, 20)])
    def test_active_set_within_caratheodory(self, n, dim, seed, k):
        # The active vertices stay affinely independent, so there are at most
        # n of them, plus the one an iteration adds before its face solve.
        dm, m, _ = divmax.materialize(divmax.gen_random_points(n, dim, "cosine", seed, k=k))
        sol = divmax.solve_slice(dm, m)
        assert sol.converged
        assert 2 <= sol.max_active <= n + 1

    def test_cosine_iteration_count(self):
        # Counts, not time: away-step Frank-Wolfe takes 20,516 iterations on
        # this interior optimum.  AWAY_STEP_BOUND_N300 is the value + gap of
        # `reference_solve_slice` at the default tolerance, which is too slow
        # to run here.
        dm, m, _ = divmax.materialize(divmax.gen_random_points(300, 8, "cosine", 5, k=20))
        sol = divmax.solve_slice(dm, m)
        assert sol.converged
        assert sol.iterations <= 300
        assert sol.upper_bound <= AWAY_STEP_BOUND_N300


class TestSweep:
    def test_integrality_gap_42(self):
        doc = divmax.gen_integrality_gap(4, 2)
        dm, m, _ = divmax.materialize(doc)
        res = divmax.sweep_slices(dm, m, gap_tol=1e-10)
        assert res.best.alpha == 2
        assert res.best.value == pytest.approx(3.0, abs=1e-8)
        assert np.allclose(res.best.point.x, 0.5, atol=1e-5)
        assert res.opt_upper_bound == pytest.approx(3.0, abs=1e-8)

    def test_upper_bound_dominates_brute_force(self):
        for seed in range(8):
            dm = random_certified(seed, 7, ["l1", "cosine", "dice"][seed % 3])
            m = random_matroid(seed + 41, 7)
            res = divmax.sweep_slices(dm, m, gap_tol=1e-9)
            opt = brute_opt_value(dm, m)
            assert res.opt_upper_bound >= opt - 1e-6 * (1 + opt)

    def test_upper_bound_with_scores(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            dm = random_certified(seed, 6, "l2")
            m = random_matroid(seed + 3, 6)
            w = rng.uniform(0.0, 1.0, size=6)
            res = divmax.sweep_slices(dm, m, w=w, gap_tol=1e-9)
            opt = brute_opt_value(dm, m, w)
            assert res.opt_upper_bound >= opt - 1e-6 * (1 + opt)

    def test_best_is_value_argmax_of_slices(self):
        # D >= 0 and w >= 0 make the slice maximum nondecreasing in alpha, so
        # the bound at the rank dominates the value of every lower slice,
        # solved as the base polytope of the matroid truncated to alpha.
        dm = random_certified(9, 8, "l2")
        matroids = (
            divmax.UniformMatroid(8, 4),
            divmax.PartitionMatroid([[0, 1, 2], [3, 4, 5, 6, 7]], [1, 3]),
        )
        scores = (None, np.random.default_rng(5).uniform(0.0, 2.0, size=8))
        for m in matroids:
            for w in scores:
                res = divmax.sweep_slices(dm, m, w)
                assert res.best.alpha == m.full_rank
                assert res.opt_upper_bound == res.best.upper_bound
                tol = 1e-9 * (1.0 + res.opt_upper_bound)
                for alpha in range(1, m.full_rank + 1):
                    truncated = divmax.ExplicitRankMatroid.from_matroid(m, truncate_to=alpha)
                    sol = divmax.solve_slice(dm, truncated, w)
                    assert sol.alpha == alpha
                    assert sol.value <= res.opt_upper_bound + tol

    def test_rank_zero_matroid(self):
        dm = random_certified(0, 4)
        m = divmax.PartitionMatroid([[0, 1, 2, 3]], [0])
        res = divmax.sweep_slices(dm, m)
        assert res.best.value == 0.0
        assert res.opt_upper_bound == 0.0
        assert not res.best.point.x.any()

    def test_threads_deterministic(self):
        # The relaxation is single-threaded; repeated calls agree bit for bit.
        dm = random_certified(21, 9, "l2")
        m = divmax.UniformMatroid(9, 4)
        a = divmax.sweep_slices(dm, m, gap_tol=1e-9)
        b = divmax.sweep_slices(dm, m, gap_tol=1e-9)
        assert np.array_equal(a.best.point.x, b.best.point.x)
        assert a.best.value == b.best.value
        assert a.best.gap == b.best.gap
        assert a.opt_upper_bound == b.opt_upper_bound

    def test_scores_checked(self):
        dm = random_certified(2, 5, "l2")
        m = divmax.UniformMatroid(5, 2)
        for bad in ([1.0, -0.5, 0.0, 0.0, 0.0], [1.0, np.nan, 0, 0, 0],
                    [1.0, np.inf, 0, 0, 0], [1.0, 2.0]):
            with pytest.raises(InvalidInputError):
                divmax.sweep_slices(dm, m, bad)
        plain = divmax.sweep_slices(dm, m, None)
        zeros = divmax.sweep_slices(dm, m, np.zeros(5))
        assert plain.best.alpha == 2
        assert plain.opt_upper_bound == zeros.opt_upper_bound
        assert np.array_equal(plain.best.point.x, zeros.best.point.x)

    @pytest.mark.parametrize("scores", [None, "one"])
    def test_zero_distance_ties_round_to_a_basis(self, scores):
        # Every slice of an all-zero distance ties; the relaxation must still
        # hand rounding a point of base mass.
        dm = divmax.DistanceMatrix(np.zeros((12, 12)))
        m = divmax.UniformMatroid(12, 4)
        w = None
        if scores == "one":
            w = np.zeros(12)
            w[5] = 2.5
        relax = divmax.sweep_slices(dm, m, w)
        assert relax.best.alpha == 4
        rounded = divmax.round(dm, m, relax.best.point.x, w)
        assert len(rounded.basis) == 4
        assert m.rank(rounded.basis) == 4
        x = np.zeros(12)
        x[list(rounded.basis)] = 1.0
        wv = np.zeros(12) if w is None else w
        assert rounded.value == pytest.approx(float(x @ dm.d @ x + wv @ x), abs=1e-12)
        opt = divmax.brute_force_opt(dm, m, w).value
        assert relax.opt_upper_bound >= opt - 1e-12

    def test_certification_enforced(self, triangle_not_negtype):
        m = divmax.UniformMatroid(3, 2)
        with pytest.raises(CertificationError):
            divmax.sweep_slices(triangle_not_negtype, m)
        res = divmax.sweep_slices(triangle_not_negtype, m, force=True)
        assert res.best.value >= 0.0


class TestScaleInvariance:
    @pytest.mark.parametrize("matroid_kind", ["uniform", "partition"])
    @pytest.mark.parametrize("scored", [False, True])
    def test_relax_and_round_commute_with_scaling(self, matroid_kind, scored):
        # Every stopping and sign test is relative, so (c*D, c*w) takes the
        # same path: same iterations and basis, values times c.
        if matroid_kind == "uniform":
            m = divmax.UniformMatroid(16, 5)
        else:
            m = divmax.PartitionMatroid([list(range(6)), list(range(6, 16))], [2, 3])
        for seed in (3, 5):
            base = random_certified(seed, 16, "l2")
            w0 = np.random.default_rng(seed).uniform(0.0, 2.0, size=16) if scored else None
            ref = None
            for c in (1.0, 1e-8, 1e-4, 1e4, 1e8):
                dm = divmax.DistanceMatrix(c * base.d)
                w = None if w0 is None else c * w0
                relax = divmax.sweep_slices(dm, m, w)
                rounded = divmax.round(dm, m, relax.best.point.x, w)
                got = (relax.best.iterations, rounded.basis, relax.opt_upper_bound / c,
                       relax.best.value / c, rounded.value / c)
                if ref is None:
                    ref = got
                    continue
                assert got[:2] == ref[:2], c
                assert got[2:] == pytest.approx(ref[2:], rel=1e-9), c


    def test_snap_is_finite_at_tiny_gradients(self):
        got = relaxation._snap(np.array([3e-299, 1e-299, 0.0]))
        assert np.isfinite(got).all()
        assert got[0] == 2.0**40 and got[2] == 0.0

    def test_snap_equals_the_direct_product_where_that_is_finite(self):
        # The direct product grad * (1 / (_TIE_GRID * max|grad|)) overflows
        # at tiny gradients; wherever it does not, _snap gives its bits.
        rng = np.random.default_rng(8)
        for exponent in np.linspace(-250.0, 250.0, 101):
            for size in (1, 2, 7, 30):
                grad = rng.standard_normal(size) * 10.0**exponent
                direct = np.round(grad * (1.0 / (relaxation._TIE_GRID * np.abs(grad).max())))
                assert np.isfinite(direct).all()
                assert np.array_equal(relaxation._snap(grad), direct), (exponent, size)

    @pytest.mark.parametrize("kind", ["l1", "l2", "cosine", "explicit"])
    def test_solve_at_the_ends_of_the_double_range(self, kind):
        # Powers of two keep every distance exact, so the basis and value / c
        # are those at c = 1 to the bit.  Before the gradient was scaled by
        # its exponent, l1 and explicit points gave another basis at 2^-1000;
        # before the builders scaled by powers of two, l2 gave D = 0 and
        # cosine refused the points as zero vectors.
        rng = np.random.default_rng(1)
        pts, w0 = rng.standard_normal((40, 3)), rng.random(40)
        m = divmax.UniformMatroid(40, 12)

        def solve(c):
            if kind == "explicit":
                dm = divmax.DistanceMatrix(c * divmax.build_distance(pts, "l1").d)
                w = c * w0
            else:
                dm, w = divmax.build_distance(c * pts, kind), None
            rounded = divmax.round(dm, m, divmax.sweep_slices(dm, m, w).best.point.x, w)
            return sorted(rounded.basis), rounded.value / (1.0 if kind == "cosine" else c)

        ref = solve(1.0)
        for c in (2.0**-1000, 2.0**-900, 2.0**500):
            assert solve(c) == ref, c
