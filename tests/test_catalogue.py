"""Negative type by theorem: the numeric evidence for every catalogue kind,
and the rules by which a matrix carries its kind as provenance."""

import dataclasses
import math

import numpy as np
import pytest

import divmax
from divmax.geometry import NORM_KINDS, SET_KINDS

# Every catalogue kind as (kind, p).
VECTOR_KINDS = [("l1", None), ("l2", None), ("lp", 1.1), ("lp", 1.5), ("lp", 2.0), ("cosine", None)]
SET_KIND_CASES = [(kind, None) for kind in SET_KINDS]
TRANSFORMS = [
    ("power", {"alpha": 0.5}),
    ("power", {"alpha": 0.05}),
    ("ratio", {}),
    ("log1p", {}),
    ("exp_decay", {"lam": 3.0}),
]


def _points(case: str, n: int, rng) -> np.ndarray:
    pts = rng.standard_normal((n, 5))
    if case == "near_duplicates":
        half = pts[: n - n // 2]
        pts = np.vstack([half, half + 1e-9 * rng.standard_normal(half.shape)])[:n]
    elif case == "exact_duplicates":
        pts = np.vstack([pts[: n - n // 3], pts[: n // 3]])
    elif case == "offset_1e6":
        pts = pts + 1e6
    elif case == "decades_12":
        pts = pts * 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 1))
    return pts


def _sets(case: str, n: int, rng) -> tuple:
    universe = 40
    sets = [list(np.flatnonzero(rng.random(universe) < 0.3)) for _ in range(n)]
    if case == "empty_sets":
        for i in range(0, n, 3):
            sets[i] = []
    elif case == "exact_duplicates":
        sets = sets[: n - n // 3] + sets[: n // 3]
    elif case == "empty_universe":
        sets, universe = [[] for _ in range(n)], 0
    return sets, universe


def _base(kind: str, p, case: str, n: int) -> divmax.DistanceMatrix:
    rng = np.random.default_rng(n)
    if kind in NORM_KINDS:
        return divmax.build_distance(_points(case, n, rng), kind, p=p)
    sets, universe = _sets(case, n, rng)
    return divmax.build_distance(sets, kind, universe=universe)


def _variants(dm: divmax.DistanceMatrix):
    """dm and each bundled transform of it.

    metric_power is d ** log2(n / (n - 1)).  Its metric check is O(n^3),
    so at n = 1000 the same power is applied by the "power" transform,
    which computes the identical matrix.
    """
    yield "none", dm
    for name, params in TRANSFORMS:
        yield name, divmax.transform_distance(dm, name, **params)
    if dm.n > 300:
        yield "metric_power", divmax.transform_distance(dm, "power", alpha=math.log2(dm.n / (dm.n - 1)))
    elif divmax.is_metric(dm):
        yield "metric_power", divmax.transform_distance(dm, "metric_power")


CASES = (
    [(kind, p, "gaussian", n) for kind, p in VECTOR_KINDS for n in (9, 300, 1000)]
    + [(kind, p, "random", n) for kind, p in SET_KIND_CASES for n in (9, 300, 1000)]
    + [
        (kind, p, case, n)
        for kind, p in VECTOR_KINDS
        for case in ("near_duplicates", "exact_duplicates", "offset_1e6", "decades_12")
        for n in (9, 300)
    ]
    + [
        (kind, p, case, n)
        for kind, p in SET_KIND_CASES
        for case in ("empty_sets", "exact_duplicates")
        for n in (9, 300)
    ]
    + [(kind, None, "empty_universe", n) for kind in ("jaccard", "dice") for n in (9, 300)]
)


@pytest.mark.parametrize(
    "kind,p,case,n", CASES, ids=[f"{k}{'' if p is None else p}-{c}-n{n}" for k, p, c, n in CASES]
)
def test_catalogue_is_accepted_numerically(kind, p, case, n):
    # The solve path accepts these matrices by theorem, without factoring
    # them; this is the evidence that the computed matrices, not only the
    # exact ones, pass the numeric test.
    base = _base(kind, p, case, n)
    assert base.provenance == kind
    for transform, dm in _variants(base):
        assert dm.provenance == kind
        cert = divmax.certify_negative_type(dm)
        assert cert.is_negative_type, (transform, cert.min_eigenvalue)


def test_metric_power_stand_in_is_the_same_matrix():
    dm = _base("l2", None, "gaussian", 300)
    alpha = math.log2(dm.n / (dm.n - 1))
    assert np.array_equal(
        divmax.transform_distance(dm, "metric_power").d,
        divmax.transform_distance(dm, "power", alpha=alpha).d,
    )


class TestProvenance:
    @pytest.mark.parametrize("kind,p", VECTOR_KINDS + SET_KIND_CASES)
    def test_catalogue_kind_is_recorded(self, kind, p):
        dm = _base(kind, p, "gaussian" if kind in NORM_KINDS else "random", 9)
        assert dm.provenance == kind
        for name, params in TRANSFORMS:
            assert divmax.transform_distance(dm, name, **params).provenance == kind

    def test_explicit_and_direct_matrices_have_none(self):
        d = divmax.build_distance(np.arange(8.0).reshape(4, 2), "l2").d
        explicit = divmax.build_distance(d, "explicit")
        direct = divmax.DistanceMatrix(d)
        for dm in (explicit, direct):
            assert dm.provenance is None
            for name, params in TRANSFORMS:
                assert divmax.transform_distance(dm, name, **params).provenance is None
            assert divmax.transform_distance(dm, "metric_power").provenance is None

    def test_cannot_be_set(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TypeError):
            divmax.DistanceMatrix(d, provenance="l2")
        dm = divmax.DistanceMatrix(d)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dm.provenance = "l2"

    def test_document_cannot_forge_it(self):
        # The document's distance fields name the kind; an explicit matrix
        # with an l2 matrix's entries, or extra fields, gets no provenance.
        d = divmax.build_distance(np.arange(8.0).reshape(4, 2), "l2").d
        doc = divmax.InstanceDoc(
            n=4,
            distance={"kind": "explicit", "matrix": d.tolist(), "provenance": "l2"},
            matroid={"kind": "uniform", "k": 2},
        )
        dm, _, _ = divmax.materialize(doc)
        assert dm.provenance is None


class TestCiteOrCertify:
    def test_catalogue_is_cited_without_factorization(self, factorizations):
        dm = _base("l2", None, "gaussian", 50)
        cert = divmax.cite_or_certify(dm)
        assert (cert.is_negative_type, cert.method, cert.min_eigenvalue) == (True, "catalogue", None)
        assert cert.witness is None and factorizations == []
        # The numeric test still computes for the same matrix.
        assert divmax.certify_negative_type(dm).method == "cholesky"
        assert factorizations == [49]

    def test_uncited_matrix_is_certified_once(self, factorizations, triangle_not_negtype):
        dm = divmax.DistanceMatrix(_base("l2", None, "gaussian", 50).d)
        cert = divmax.cite_or_certify(dm)
        assert cert.method == "cholesky" and cert is divmax.certify_negative_type(dm)
        refusal = divmax.cite_or_certify(triangle_not_negtype)
        assert refusal.method == "eigh" and not refusal.is_negative_type
        assert factorizations == [49, 2]

    def test_solver_cites_catalogue(self, factorizations):
        dm, m, w = divmax.materialize(divmax.gen_random_points(40, 3, "cosine", 2, k=5))
        relax = divmax.sweep_slices(dm, m, w)
        divmax.round(dm, m, relax.best.point.x, w)
        assert factorizations == []
