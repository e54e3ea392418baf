"""Distance catalogue, transforms, Schoenberg decomposition, certification."""

import math
import tracemalloc

import numpy as np
import pytest

import divmax
from divmax import geometry
from divmax.errors import InvalidInputError
from divmax.geometry import (
    _BLOCK_BYTES,
    _CHOL_BLOCK,
    _SYM_TILE,
    METRIC_TOL,
    PSD_TOL_SCALE,
    _block_rows,
)

from conftest import (
    assert_matches_eigh_reference,
    random_certified,
    reference_build_distance,
    reference_euclidean,
    reference_is_metric,
)


class TestDistanceMatrix:
    def test_validates_and_freezes(self):
        dm = divmax.DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert dm.n == 2
        with pytest.raises(ValueError):
            dm.d[0, 1] = 5.0
        with pytest.raises(ValueError):
            dm.d.setflags(write=True)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 2)),                                  # not square
            np.zeros((1, 1)),                                  # too small
            np.array([[0.0, -1.0], [-1.0, 0.0]]),              # negative
            np.array([[0.0, 1.0], [2.0, 0.0]]),                # asymmetric
            np.array([[1.0, 1.0], [1.0, 0.0]]),                # diagonal
            np.array([[0.0, np.inf], [np.inf, 0.0]]),          # non-finite
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidInputError):
            divmax.DistanceMatrix(bad)

    @pytest.mark.parametrize("n", [300, 513])
    def test_one_flipped_pair_in_any_tile_is_rejected(self, n):
        # Symmetry is compared in square tiles; n = 300 and 513 end in a
        # short tile (44 and 1 rows).  One entry is raised on one side of
        # the diagonal only, in each tile position: below, on and above the
        # diagonal tiles, the short ones included.
        d = divmax.build_distance(np.random.default_rng(n).standard_normal((n, 2)), "l2").d
        divmax.DistanceMatrix(d)
        starts = range(0, n, _SYM_TILE)
        flipped = 0
        for r0 in starts:
            for c0 in starts:
                i, j = min(r0 + _SYM_TILE, n) - 1, c0
                if i == j:  # the one-row last tile holds no off-diagonal pair
                    continue
                bad = d.copy()
                bad[i, j] += 1.0
                with pytest.raises(InvalidInputError, match="distance matrix must be symmetric"):
                    divmax.DistanceMatrix(bad)
                flipped += 1
        assert flipped == len(starts) ** 2 - (n % _SYM_TILE == 1)

    @pytest.mark.parametrize(
        "value,message",
        [
            (np.nan, "distance matrix entries must be finite"),
            (np.inf, "distance matrix entries must be finite"),
            (-np.inf, "distance matrix entries must be finite"),
            (-1.0, "distances must be nonnegative"),
            (None, "distance matrix diagonal must be zero"),
        ],
    )
    def test_bad_entries_keep_their_messages(self, value, message):
        # In the short last tile of n = 513, on both sides of the diagonal
        # (or on it, for None), so that only the entry itself is at fault.
        d = divmax.build_distance(np.random.default_rng(0).standard_normal((513, 2)), "l2").d.copy()
        if value is None:
            d[512, 512] = 1.0
        else:
            d[512, 3] = d[3, 512] = value
        with pytest.raises(InvalidInputError, match=message):
            divmax.DistanceMatrix(d)

    def test_caller_array_is_copied_and_stays_writable(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        dm = divmax.DistanceMatrix(d)
        assert d.flags.writeable
        assert not np.shares_memory(d, dm.d)
        d[0, 1] = 7.0
        assert dm.d[0, 1] == 2.0


class TestBuildDistance:
    def test_collinear_l2(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l2")
        assert np.allclose(dm.d, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_l1_equals_l2_in_one_dim(self):
        pts = np.random.default_rng(0).standard_normal((6, 1))
        a = divmax.build_distance(pts, "l1")
        b = divmax.build_distance(pts, "l2")
        assert np.allclose(a.d, b.d)

    def test_lp_between_l1_and_l2(self):
        pts = np.random.default_rng(1).standard_normal((5, 4))
        d1 = divmax.build_distance(pts, "l1").d
        dp = divmax.build_distance(pts, "lp", p=1.5).d
        d2 = divmax.build_distance(pts, "l2").d
        assert (dp <= d1 + 1e-12).all() and (d2 <= dp + 1e-12).all()

    def test_lp_requires_valid_exponent(self):
        pts = [[0.0], [1.0]]
        with pytest.raises(InvalidInputError):
            divmax.build_distance(pts, "lp")
        for p in (0.5, 2.5, 3.0):
            with pytest.raises(InvalidInputError):
                divmax.build_distance(pts, "lp", p=p)

    def test_identical_points_zero_matrix(self):
        dm = divmax.build_distance([[1.0, 2.0]] * 4, "l2")
        assert not dm.d.any()

    def test_cosine_angles(self):
        pts = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 0.0]]
        dm = divmax.build_distance(pts, "cosine")
        assert dm.d[0, 1] == pytest.approx(np.pi / 2)
        assert dm.d[0, 2] == pytest.approx(np.pi)
        assert dm.d[0, 3] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_rejects_zero_vector(self):
        with pytest.raises(InvalidInputError):
            divmax.build_distance([[1.0, 0.0], [0.0, 0.0]], "cosine")

    def test_jaccard_pair(self):
        dm = divmax.build_distance([{1, 2}, {2, 3}], "jaccard", universe={1, 2, 3})
        assert dm.d[0, 1] == pytest.approx(1 - 1 / 3)

    def test_jaccard_empty_sets(self):
        dm = divmax.build_distance([set(), set(), {0}], "jaccard", universe=2)
        assert dm.d[0, 1] == 0.0
        assert dm.d[0, 2] == 1.0

    def test_dice_and_simple_matching_and_russell_rao(self):
        sets = [{0, 1}, {1, 2}]
        dice = divmax.build_distance(sets, "dice", universe=4)
        assert dice.d[0, 1] == pytest.approx(2 / 4)
        sm = divmax.build_distance(sets, "simple_matching", universe=4)
        assert sm.d[0, 1] == pytest.approx(2 / 4)
        rr = divmax.build_distance(sets, "russell_rao", universe=4)
        assert rr.d[0, 1] == pytest.approx(1 - 1 / 4)
        # Raw russell_rao self-dissimilarity is dropped to keep a zero diagonal.
        assert not rr.d.diagonal().any()

    def test_set_kinds_require_universe(self):
        with pytest.raises(InvalidInputError):
            divmax.build_distance([{0}, {1}], "jaccard")

    def test_negative_universe_rejected(self):
        with pytest.raises(InvalidInputError, match="universe size"):
            divmax.build_distance([[], []], "jaccard", universe=-5)

    def test_universe_membership_enforced(self):
        with pytest.raises(InvalidInputError):
            divmax.build_distance([{0}, {9}], "jaccard", universe=3)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            divmax.build_distance([[0.0], [1.0]], "hamming")


class TestBuildDistanceAccuracy:
    """The blocked and Gram-identity builders against the difference tensor."""

    @staticmethod
    def _assert_minkowski(got, pts, kind, p):
        """got is the reference summed in coordinate order, bit for bit, and
        within dim * eps relative of the one summed by numpy."""
        # The cloud is scaled by a power of two, exact for the points but
        # not for their powers: lp is the reference's D of the scaled
        # cloud, scaled back.
        exp = 0 if kind == "l1" else np.frexp(np.abs(pts).max())[1]
        scaled = np.ldexp(pts, -exp)
        want = np.ldexp(reference_build_distance(scaled, kind, p, in_order=True), exp)
        assert np.array_equal(got, want)
        numpy_sum = np.ldexp(reference_build_distance(scaled, kind, p), exp)
        assert np.all(np.abs(got - numpy_sum) <= pts.shape[1] * np.finfo(float).eps * numpy_sum)

    @pytest.mark.parametrize("kind,p", [("l1", None), ("lp", 1.5)])
    @pytest.mark.parametrize("n,dim", [(9, 3), (300, 16), (700, 1)])
    def test_l1_lp_bit_identical(self, kind, p, n, dim):
        pts = np.random.default_rng(n + dim).standard_normal((n, dim))
        if n > 9:
            # Several blocks, the last one short: a block is _block_rows(4 * n) rows.
            assert 1 < _block_rows(4 * n) < n and n % _block_rows(4 * n)
        self._assert_minkowski(divmax.build_distance(pts, kind, p=p).d, pts, kind, p)

    @pytest.mark.parametrize("kind,p", [("l1", None), ("lp", 1.5)])
    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_summation_order_branches(self, monkeypatch, kind, p, dim):
        # Coordinate order at the term counts where numpy's own sum changes
        # its order: below 8, from 8 to 128 with a tail at 9, 17 and 129,
        # and beyond 128.  Blocks of 60 rows divide n = 300, blocks of 64
        # do not.
        rng = np.random.default_rng(dim)
        for n in (2, 9, 300):
            pts = rng.standard_normal((n, dim))
            self._assert_minkowski(divmax.build_distance(pts, kind, p=p).d, pts, kind, p)
            for rows in (60, 64):
                with monkeypatch.context() as m:
                    m.setattr(geometry, "_BLOCK_BYTES", 8 * 4 * n * rows)
                    assert _block_rows(4 * n) == rows
                    got = divmax.build_distance(pts, kind, p=p).d
                self._assert_minkowski(got, pts, kind, p)

    @pytest.mark.parametrize("kind,p", [("l1", None), ("lp", 1.5)])
    @pytest.mark.parametrize("n,dim", [(1500, 16), (2000, 8)])
    def test_front_large_shapes_bit_identical(self, kind, p, n, dim):
        # The shapes of the front-large benchmark; the default block leaves
        # a short last block at n = 1500 and divides n = 2000.
        assert (n % _block_rows(4 * n) != 0) == (n == 1500)
        pts = np.random.default_rng(n).standard_normal((n, dim))
        self._assert_minkowski(divmax.build_distance(pts, kind, p=p).d, pts, kind, p)

    @staticmethod
    def _l2_cases():
        rng = np.random.default_rng(11)
        base = rng.standard_normal((150, 5))
        near = np.vstack([base, base + 1e-9 * rng.standard_normal(base.shape)])
        return {
            "random": rng.standard_normal((300, 8)),
            "near_duplicates": near,
            "shifted_1e6": rng.standard_normal((500, 4)) + 1e6,
            "scaled_1e-8": 1e-8 * rng.standard_normal((200, 6)),
            "scaled_1e8": 1e8 * rng.standard_normal((200, 6)),
            "one_far_point": np.vstack([rng.standard_normal((99, 3)), [[1e8, 0.0, 0.0]]]),
        }

    @pytest.mark.parametrize(
        "case",
        ["random", "near_duplicates", "shifted_1e6", "scaled_1e-8", "scaled_1e8", "one_far_point"],
    )
    def test_l2_relative_accuracy(self, case):
        pts = self._l2_cases()[case]
        got = divmax.build_distance(pts, "l2").d
        ref = reference_build_distance(pts, "l2")
        assert (ref > 0).sum() == pts.shape[0] * (pts.shape[0] - 1)
        assert np.max(np.abs(got - ref) / np.where(ref > 0, ref, 1.0)) <= 1e-11

    @pytest.mark.parametrize("case", ["random", "near_duplicates", "shifted_1e6", "scaled_1e-8",
                                      "scaled_1e8", "one_far_point", "duplicates", "n2000"])
    def test_l2_bit_identical_to_triangle_free_builder(self, case):
        # Against `reference_euclidean`, which forms the whole Gram identity
        # and fix-up with no mirroring.
        rng = np.random.default_rng(4)
        dup = rng.standard_normal((40, 7)) * 1e3 + 5e5
        pts = {
            **self._l2_cases(),
            "duplicates": np.vstack([dup, dup[::3], dup[:5]]),
            "n2000": rng.standard_normal((2000, 8)),
        }[case]
        exp = np.frexp(np.abs(pts).max())[1]
        want = np.ldexp(reference_euclidean(np.ldexp(pts, -exp)), exp)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(divmax.build_distance(pts, "l2").d, want)

    def test_l2_exact_duplicates_are_zero(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((40, 7)) * 1e3 + 5e5
        pts = np.vstack([pts, pts[::3], pts[:5]])
        got = divmax.build_distance(pts, "l2").d
        ref = reference_build_distance(pts, "l2")
        assert np.array_equal(got == 0, ref == 0)
        assert (got == 0).sum() > pts.shape[0]

    @staticmethod
    def _unscaled(pts, kind):
        """The l2 and cosine formulas applied to the points as given."""
        if kind == "l2":
            m = geometry._euclidean(np.ascontiguousarray(pts, dtype=float))
        else:
            norms = np.linalg.norm(pts, axis=1)
            m = np.arccos(np.clip((pts @ pts.T) / np.outer(norms, norms), -1.0, 1.0))
        np.fill_diagonal(m, 0.0)
        return np.clip(m, 0.0, None)

    @pytest.mark.parametrize("kind", ["l2", "cosine"])
    @pytest.mark.parametrize("n", [9, 300])
    def test_power_of_two_scaling_is_exact_in_the_normal_range(self, kind, n):
        rng = np.random.default_rng(n)
        for exponent in (-100, -8, 0, 3, 8, 100):
            for pts in (
                rng.standard_normal((n, 5)),
                rng.random((n, 2)) + 1e6,
                rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 1)),
            ):
                pts = pts * 10.0**exponent
                got = divmax.build_distance(pts, kind).d
                assert np.array_equal(got, self._unscaled(pts, kind)), exponent

    @pytest.mark.parametrize("kind", ["l1", "lp", "l2", "cosine"])
    def test_extreme_scales_scale_d(self, kind):
        # Unscaled, l2 gives D = 0 and cosine refuses zero vectors at
        # 2^-900, both overflow at 1e154, and lp gives D = 0 at 1e-300 and
        # overflows at 2^900.
        pts = np.random.default_rng(6).standard_normal((40, 3))
        p = 1.5 if kind == "lp" else None
        base = divmax.build_distance(pts, kind, p=p).d
        for c in (2.0**-1000, 2.0**-900, 1e-300, 2.0**512, 1e154, 2.0**900):
            got = divmax.build_distance(c * pts, kind, p=p).d
            want = base if kind == "cosine" else c * base
            if math.frexp(c)[0] == 0.5:
                assert np.array_equal(got, want), c
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ["l2", "cosine"])
    def test_strided_and_fortran_points_build(self, kind):
        rng = np.random.default_rng(2)
        wide = rng.standard_normal((120, 12))
        ref = divmax.build_distance(np.ascontiguousarray(wide[:, ::3]), kind).d
        for pts in (wide[:, ::3], np.asfortranarray(wide[:, ::3])):
            assert np.array_equal(divmax.build_distance(pts, kind).d, ref)


def _traced_peak_units(fn, n: int) -> float:
    """Peak traced allocation of fn() in units of one n x n float matrix."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


class TestMemoryBound:
    """Traced peaks of the front end, counted in bytes rather than time."""

    @pytest.mark.parametrize("kind,n,dim", [("l1", 1500, 16), ("l2", 2000, 8)])
    def test_build_distance_peak(self, kind, n, dim):
        pts = np.random.default_rng(0).standard_normal((n, dim))
        assert _traced_peak_units(lambda: divmax.build_distance(pts, kind), n) < 4.0

    def test_identical_l2_points_peak(self):
        # Every pair cancels in the Gram identity and is recomputed.
        n = 2000
        pts = np.tile(np.arange(8.0), (n, 1))
        out = []
        assert _traced_peak_units(lambda: out.append(divmax.build_distance(pts, "l2")), n) < 4.0
        assert not out[0].d.any()

    @pytest.mark.parametrize("kind", ["l1", "lp", "l2"])
    @pytest.mark.parametrize("dim", [16, 300])
    def test_no_difference_tensor(self, kind, dim):
        # The result and the copy DistanceMatrix keeps are 2.0; the scaled
        # points, 0.2 at dim 300, are freed before that copy.
        n = 1500
        pts = np.random.default_rng(dim).standard_normal((n, dim))
        p = 1.5 if kind == "lp" else None
        assert _traced_peak_units(lambda: divmax.build_distance(pts, kind, p=p), n) < 2.2

    def test_identical_points_at_dim_300_peak(self):
        # Every pair cancels, and the fix-up batches its (pairs, dim) differences.
        n = 1500
        pts = np.tile(np.arange(300.0), (n, 1))
        out = []
        assert _traced_peak_units(lambda: out.append(divmax.build_distance(pts, "l2")), n) < 2.2
        assert not out[0].d.any()

    def test_certify_peak(self):
        n = 1000
        dm = divmax.build_distance(np.random.default_rng(1).standard_normal((n, 8)), "l2")
        assert _traced_peak_units(lambda: divmax.certify_negative_type(dm), n) < 3.0

    def test_certify_takes_norm_in_row_blocks(self):
        # ||Q||_inf comes from row blocks of |Q|, not from an n x n copy.
        n = 1000
        dm = divmax.build_distance(np.random.default_rng(1).standard_normal((n, 8)), "l2")
        assert _traced_peak_units(lambda: divmax.certify_negative_type(dm), n) <= 1.25


class TestMetric:
    def test_l2_is_metric(self):
        assert divmax.is_metric(random_certified(3, 8, "l2"))

    def test_squared_line_is_not_metric(self):
        dm = divmax.DistanceMatrix(np.array([[0.0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        assert not divmax.is_metric(dm)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sum_tensor_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 5 + 7 * seed
        metric = random_certified(seed, n, "l1").d
        raw = rng.random((n, n))
        raw = raw + raw.T
        np.fill_diagonal(raw, 0.0)
        # d(0, 1) exceeds its shortest two-step path by exactly METRIC_TOL,
        # then by one ulp more.
        edge = metric.copy()
        edge[0, 1] = edge[1, 0] = (metric[0, 2:] + metric[2:, 1]).min() + METRIC_TOL
        past = edge.copy()
        past[0, 1] = past[1, 0] = np.nextafter(edge[0, 1], np.inf)
        for d in (metric, raw, metric**2, edge, past):
            dm = divmax.DistanceMatrix(d)
            assert divmax.is_metric(dm) == reference_is_metric(dm.d, METRIC_TOL)
        assert divmax.is_metric(divmax.DistanceMatrix(edge))
        assert not divmax.is_metric(divmax.DistanceMatrix(past))


class TestTransforms:
    def test_ratio_single_value(self):
        dm = divmax.DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = divmax.transform_distance(dm, "ratio")
        assert out.d[0, 1] == pytest.approx(0.5)

    def test_zero_matrix_fixed_point(self):
        dm = divmax.build_distance([[0.0, 0.0]] * 3, "l2")
        for name in divmax.TRANSFORM_NAMES:
            kwargs = {}
            if name == "power":
                kwargs["alpha"] = 0.5
            if name == "exp_decay":
                kwargs["lam"] = 2.0
            assert not divmax.transform_distance(dm, name, **kwargs).d.any()

    def test_power_validation(self):
        dm = random_certified(0, 4)
        for alpha in (0.0, -1.0, 1.5, None):
            with pytest.raises(InvalidInputError):
                divmax.transform_distance(dm, "power", alpha=alpha)

    @pytest.mark.filterwarnings("error")
    def test_exp_decay_validation(self):
        dm = divmax.build_distance([[0.0], [0.0], [1.0]], "l1")  # with a duplicate pair
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="finite lam > 0"):
                divmax.transform_distance(dm, "exp_decay", lam=lam)

    def test_metric_power_two_level_metric(self):
        # n = 4 with distances in {1, 2}: exponent log2(4/3) maps 2 to 4/3.
        d = np.full((4, 4), 1.0)
        d[0, 1] = d[1, 0] = 2.0
        np.fill_diagonal(d, 0.0)
        dm = divmax.DistanceMatrix(d)
        out = divmax.transform_distance(dm, "metric_power")
        assert out.d[0, 1] == pytest.approx(4 / 3)
        assert out.d[0, 2] == pytest.approx(1.0)
        assert divmax.certify_negative_type(out).is_negative_type

    def test_metric_power_rejects_non_metric(self):
        dm = divmax.DistanceMatrix(np.array([[0.0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        with pytest.raises(InvalidInputError):
            divmax.transform_distance(dm, "metric_power")

    @pytest.mark.parametrize("seed", range(6))
    def test_transforms_preserve_negative_type(self, seed):
        dm = random_certified(seed, 7, "l2")
        variants = [
            divmax.transform_distance(dm, "power", alpha=0.6),
            divmax.transform_distance(dm, "ratio"),
            divmax.transform_distance(dm, "log1p"),
            divmax.transform_distance(dm, "exp_decay", lam=1.3),
            divmax.transform_distance(dm, "metric_power"),
        ]
        for out in variants:
            assert divmax.certify_negative_type(out).is_negative_type

    def test_unknown_transform(self):
        with pytest.raises(InvalidInputError):
            divmax.transform_distance(random_certified(0, 4), "sqrt")


class TestSchoenbergForm:
    def test_line_example(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        form = divmax.schoenberg_form(dm)
        assert np.allclose(form.c, [0, 1, 2])
        assert np.allclose(form.q, [[0, 0, 0], [0, 1, 1], [0, 1, 2]])

    def test_identity_on_indicator(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        form = divmax.schoenberg_form(dm)
        x = np.array([1.0, 1.0, 0.0])
        alpha = x.sum()
        lhs = float(x @ dm.d @ x)
        rhs = 2 * alpha * float(form.c @ x) - 2 * float(x @ form.q @ x)
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(lhs)

    def test_all_zero_matrix(self):
        dm = divmax.build_distance([[0.0, 0.0]] * 3, "l2")
        form = divmax.schoenberg_form(dm)
        assert not form.c.any() and not form.q.any()

    @pytest.mark.parametrize("seed", range(8))
    def test_identity_for_arbitrary_x_and_base(self, seed):
        # d(i,j) = c_i + c_j - 2 Q_ij makes the identity algebraic: it holds
        # for every x, not only on slices, and for every base point.
        rng = np.random.default_rng(seed)
        dm = random_certified(seed, 7, "l1")
        form = divmax.schoenberg_form(dm, base_point=int(rng.integers(7)))
        for _ in range(50):
            x = rng.uniform(-1.0, 2.0, size=7)
            lhs = float(x @ dm.d @ x)
            rhs = 2 * x.sum() * float(form.c @ x) - 2 * float(x @ form.q @ x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_base_point_out_of_range(self):
        with pytest.raises(InvalidInputError):
            divmax.schoenberg_form(random_certified(0, 4), base_point=4)


class TestCertification:
    @pytest.mark.parametrize("kind", divmax.DISTANCE_KINDS[:-1])
    def test_catalogue_certifies(self, kind):
        for seed in range(5):
            dm = random_certified(seed, 10, kind)
            cert = divmax.certify_negative_type(dm)
            assert cert.is_negative_type, (kind, seed, cert.min_eigenvalue)
            assert cert.witness is None

    def test_verdict_computed_once_per_matrix(self, factorizations, triangle_not_negtype):
        # D is read-only, so later calls return the first certificate; a
        # transformed matrix is a new object with a verdict of its own.
        dm = random_certified(0, 10, "l1")
        cert = divmax.certify_negative_type(dm)
        assert divmax.certify_negative_type(dm) is cert
        assert factorizations == [9]
        root = divmax.transform_distance(dm, "power", alpha=0.5)
        assert divmax.certify_negative_type(root) is not cert
        assert divmax.certify_negative_type(root) is divmax.certify_negative_type(root)
        assert factorizations == [9, 9]
        refusal = divmax.certify_negative_type(triangle_not_negtype)
        assert divmax.certify_negative_type(triangle_not_negtype) is refusal
        assert not refusal.is_negative_type and len(factorizations) == 3

    def test_library_path_certifies_once(self, factorizations):
        # The README's library example: certify, relax, round.
        dm, m, w = divmax.materialize(divmax.gen_random_points(50, 4, "l2", 7, k=8))
        assert divmax.certify_negative_type(dm).is_negative_type
        relax = divmax.sweep_slices(dm, m, w)
        divmax.round(dm, m, relax.best.point.x, w)
        assert factorizations == [49]

    def test_triangle_1_1_5_rejected_with_witness(self, triangle_not_negtype):
        cert = divmax.certify_negative_type(triangle_not_negtype)
        assert not cert.is_negative_type
        assert cert.verdict == "not_negative_type"
        assert cert.min_eigenvalue == pytest.approx(-0.5)
        b = cert.witness
        assert b.sum() == pytest.approx(0.0, abs=1e-12)
        assert cert.witness_value == pytest.approx(float(b @ triangle_not_negtype.d @ b))
        assert cert.witness_value > 0
        # The witness direction is (-2, 1, 1) up to scale.
        assert np.allclose(b / b[1], [-2.0, 1.0, 1.0])

    def test_all_zero_matrix_certifies(self):
        dm = divmax.build_distance([[0.0, 0.0]] * 3, "l2")
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type
        assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1.0, 1e4])
    def test_single_pair_rejected_at_every_scale(self, c):
        # One nonzero pair among 6 points is not of negative type at any
        # scale: the smallest eigenvalue of Q is c * (1 - sqrt 5) / 2.
        d = np.zeros((6, 6))
        d[0, 1] = d[1, 0] = c
        cert = divmax.certify_negative_type(divmax.DistanceMatrix(d))
        assert not cert.is_negative_type
        assert cert.min_eigenvalue == pytest.approx(c * (1 - 5**0.5) / 2, rel=1e-9)
        assert cert.witness_value > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_at_the_ends_of_the_double_range(self):
        # Unscaled, ||Q||_inf overflows at c = 1e306, which makes tau inf
        # and lets the shifted factorization accept.  Powers of two scale
        # every step exactly, the witness included.
        d = divmax.build_distance(np.random.default_rng(7).standard_normal((40, 3)), "l1").d.copy()
        d[0, 1] = d[1, 0] = 60.0
        base = divmax.certify_negative_type(divmax.DistanceMatrix(d))
        assert not base.is_negative_type and base.method == "eigh"
        for c in (1e306, 2.0**1000, 2.0**-1000):
            cert = divmax.certify_negative_type(divmax.DistanceMatrix(c * d))
            assert not cert.is_negative_type and cert.method == "eigh", c
            assert cert.min_eigenvalue == pytest.approx(c * base.min_eigenvalue, rel=1e-12)
            b = cert.witness
            assert 0.0 < cert.witness_value < math.inf
            assert abs(b.sum()) <= 1e-12 * np.abs(b).sum()
            if math.frexp(c)[0] == 0.5:
                assert cert.min_eigenvalue == c * base.min_eigenvalue
                assert np.array_equal(b, base.witness)
                assert cert.witness_value == c * base.witness_value

    def test_verdicts_do_not_change_with_scale(self):
        single = np.zeros((6, 6))
        single[0, 1] = single[1, 0] = 1.0
        dms = [
            divmax.build_distance([[0, 1, 1], [1, 0, 5], [1, 5, 0]], "explicit"),
            divmax.DistanceMatrix(single),
            divmax.DistanceMatrix(np.zeros((4, 4))),
        ]
        for seed, kind in enumerate(("l1", "l2", "lp", "cosine", "jaccard", "dice")):
            p = 1.5 if kind == "lp" else None
            dms.append(divmax.materialize(divmax.gen_random_points(12, 4, kind, seed, p=p, k=2))[0])
        for dm in dms:
            verdict = divmax.certify_negative_type(dm).is_negative_type
            for c in (1e-12, 1e-8, 1e-4, 1e4, 1e8):
                scaled = divmax.DistanceMatrix(c * dm.d)
                assert divmax.certify_negative_type(scaled).is_negative_type == verdict, c

    def test_matches_eigh_reference_on_catalogue(self):
        # The criterion-1 catalogue, plus the 1-1-5 triangle.
        dms = [divmax.build_distance([[0, 1, 1], [1, 0, 5], [1, 5, 0]], "explicit")]
        for kind in ("l1", "l2", "lp", "cosine", "jaccard", "dice", "simple_matching", "russell_rao"):
            for seed in range(50):
                n = 4 + (seed * 7) % 61
                dim = 3 if kind in ("l1", "l2", "lp", "cosine") else 8
                p = 1.0 + seed / 50.0 if kind == "lp" else None
                doc = divmax.gen_random_points(n, dim, kind, seed, p=p, k=2)
                dms.append(divmax.materialize(doc)[0])
        for dm in dms:
            assert_matches_eigh_reference(dm)

    def test_multi_block_reject_matches_reference(self, monkeypatch):
        # 639 non-base rows span several factor blocks.  Raising the distance
        # between the last two points breaks negative type in the last one
        # only: every leading principal minor before the last is unchanged.
        n = 640
        pts = np.random.default_rng(5).standard_normal((n, 3))
        pts[7] = pts[3]  # a duplicate point: Q is singular before the shift
        d = divmax.build_distance(pts, "l2").d.copy()
        blocks = []
        real_cholesky = np.linalg.cholesky

        def spy(a):
            blocks.append(a.shape[0])
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        cert = divmax.certify_negative_type(divmax.DistanceMatrix(d))
        assert cert.is_negative_type and cert.min_eigenvalue is None
        num_blocks = len(blocks)
        assert num_blocks >= 3
        d[-1, -2] = d[-2, -1] = d[-1, -2] + 6.0 * d.max()
        dm = divmax.DistanceMatrix(d)
        blocks.clear()
        assert_matches_eigh_reference(dm)
        assert len(blocks) == num_blocks  # only the last block failed
        cert = divmax.certify_negative_type(dm)
        assert not cert.is_negative_type and cert.min_eigenvalue < 0
        assert cert.witness_value > 0

    def test_one_inversion_per_diagonal_block(self, monkeypatch):
        # 1299 non-base rows: 11 diagonal blocks, and the panels below the
        # first two span two row chunks each.  Each block's factor but the
        # last, which has no panel, is inverted once, a solve against the
        # identity, and the panels are products with that inverse: no solve
        # runs per row chunk.
        n, b = 1300, _CHOL_BLOCK
        dm = divmax.build_distance(np.random.default_rng(3).standard_normal((n, 4)), "l2")
        factored, solved = [], []
        cholesky, solve = np.linalg.cholesky, np.linalg.solve

        def spy_cholesky(a):
            factored.append(a.shape)
            return cholesky(a)

        def spy_solve(a, rhs):
            solved.append((a.shape, np.array_equal(rhs, np.eye(len(a)))))
            return solve(a, rhs)

        monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type and cert.min_eigenvalue is None
        m = n - 1
        blocks = [(min(b, m - k0),) * 2 for k0 in range(0, m, b)]
        assert factored == blocks and len(blocks) == 11
        assert solved == [(shape, True) for shape in blocks[:-1]]
        rows = max(b, _BLOCK_BYTES // (8 * b))
        chunks = sum(len(range(min(k0 + b, m), m, rows)) for k0 in range(0, m, b))
        assert chunks > len(blocks)  # so a solve per row chunk would show

    @pytest.mark.parametrize("n", [40, 300, 1000])
    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_threshold_verdicts_match_reference(self, n, c):
        # Q with smallest eigenvalue -t * tau, tau = PSD_TOL_SCALE * ||Q||_inf,
        # put into D by d(i, j) = Q_ii + Q_jj - 2 Q_ij with a zero base row.
        # n = 1000 factors 999 non-base rows in eight blocks.
        rng = np.random.default_rng(n)
        v = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        lam = np.linspace(1.0, 2.0, n - 1)
        for t in (1.0 - 1e-3, 1.0 + 1e-3):
            for _ in range(3):  # tau moves by a 1e-8 fraction of the change
                q = (v * lam) @ v.T
                q = 0.5 * (q + q.T)
                lam[0] = -t * PSD_TOL_SCALE * np.abs(q).sum(axis=1).max()
            q = (v * lam) @ v.T
            q = 0.5 * (q + q.T)
            diag = np.diag(q)
            d = np.zeros((n, n))
            d[0, 1:] = d[1:, 0] = diag
            d[1:, 1:] = diag[:, None] + diag[None, :] - 2.0 * q
            np.fill_diagonal(d, 0.0)
            dm = divmax.DistanceMatrix(c * d)
            assert_matches_eigh_reference(dm)
            cert = divmax.certify_negative_type(dm)
            assert cert.is_negative_type == (t < 1.0)
            if t < 1.0:
                # Accepted by the shifted factorization, not by `eigh`.
                assert cert.min_eigenvalue is None

    def test_zero_sum_vectors_never_positive(self):
        # Direct quadratic-form check of what the certificate promises.
        rng = np.random.default_rng(42)
        for seed in range(5):
            dm = random_certified(seed, 8, "jaccard")
            tau = PSD_TOL_SCALE * (1 + np.abs(dm.d).sum(axis=1).max())
            for _ in range(200):
                b = rng.standard_normal(8)
                b -= b.mean()
                assert float(b @ dm.d @ b) <= tau * float(b @ b) + 1e-12


class TestDispersion:
    """The dispersion a solver reports for a basis: x @ D @ x over ordered
    pairs, plus w @ x with scores.  `round` of an integral point of base
    mass returns that point's basis and value."""

    def test_pair_indicator(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        rounded = divmax.round(dm, divmax.UniformMatroid(3, 2), [1.0, 0.0, 1.0])
        assert rounded.basis == (0, 2)
        assert rounded.value == pytest.approx(4.0)  # 2 * d(0, 2)

    def test_singleton_zero(self):
        dm = random_certified(0, 5)
        m = divmax.UniformMatroid(5, 1)
        for i in range(5):
            x = np.zeros(5)
            x[i] = 1.0
            assert divmax.round(dm, m, x).value == 0.0
        assert divmax.brute_force_opt(dm, m).value == 0.0

    def test_linear_scores_added(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        w = np.array([0.5, 9.0, 0.25])
        rounded = divmax.round(dm, divmax.UniformMatroid(3, 2), [1.0, 0.0, 1.0], w)
        assert rounded.value == pytest.approx(4.75)

    def test_shape_checks(self):
        dm = random_certified(0, 5)
        m = divmax.UniformMatroid(5, 5)
        with pytest.raises(InvalidInputError):
            divmax.round(dm, m, np.ones(4))
        with pytest.raises(InvalidInputError):
            divmax.round(dm, m, np.ones(5), w=np.ones(3))


class TestUnionInequality:
    def test_line_example(self):
        dm = divmax.build_distance([[0.0], [1.0], [2.0]], "l1")
        res = divmax.check_union_inequality(dm, np.ones(3), [0, 1], [2])
        assert res.holds
        assert res.lhs == pytest.approx(8 / 3)
        assert res.rhs == pytest.approx(1.0)

    def test_singletons_trivial(self):
        dm = divmax.DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        res = divmax.check_union_inequality(dm, np.ones(2), [0], [1])
        assert res.holds and res.lhs == pytest.approx(1.0) and res.rhs == 0.0

    @pytest.mark.parametrize("kind", ["l2", "jaccard", "cosine"])
    def test_random_draws_hold(self, kind):
        rng = np.random.default_rng(7)
        for seed in range(10):
            dm = random_certified(seed, 9, kind)
            for _ in range(50):
                x = rng.uniform(0.05, 1.0, size=9)
                perm = rng.permutation(9)
                cut = int(rng.integers(1, 8))
                size = int(rng.integers(cut + 1, 10))
                a, b = perm[:cut], perm[cut:size]
                res = divmax.check_union_inequality(dm, x, a, b)
                assert res.holds, (kind, seed, res.lhs, res.rhs)

    def test_rejects_overlap_and_zero_mass(self):
        dm = random_certified(0, 4)
        with pytest.raises(InvalidInputError):
            divmax.check_union_inequality(dm, np.ones(4), [0, 1], [1, 2])
        with pytest.raises(InvalidInputError):
            divmax.check_union_inequality(dm, np.zeros(4), [0], [1])
