"""Hypothesis property checks for the cheap, pure building blocks."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

import divmax
from divmax.io import canonical_dumps
from divmax.matroids import ExplicitRankMatroid, PartitionMatroid, UniformMatroid

from conftest import assert_matches_eigh_reference

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**12), 10**12) | finite_floats | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_canonical_json_fixpoint(value):
    once = canonical_dumps(value)
    assert canonical_dumps(json.loads(once)) == once


@given(st.integers(1, 10**6))
def test_guarantee_factor_increasing_below_one(k):
    factor = divmax.guarantee_factor(k)
    assert factor < 1.0
    assert divmax.guarantee_factor(k + 1) > factor


@given(
    st.lists(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2),
             min_size=2, max_size=12)
)
@settings(max_examples=100, deadline=None)
def test_l1_and_l2_points_always_certify(points):
    for kind in ("l1", "l2"):
        dm = divmax.build_distance(points, kind)
        assert divmax.certify_negative_type(dm).is_negative_type
        assert_matches_eigh_reference(dm)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_certificate_verdicts_are_self_consistent(n, data):
    # Arbitrary symmetric zero-diagonal matrices; either way the certificate
    # must be backed by evidence we can recheck directly, and agree with a
    # full eigendecomposition.
    entries = data.draw(
        st.lists(st.floats(0.01, 10, allow_nan=False), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2)
    )
    mat = np.zeros((n, n))
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = next(it)
    dm = divmax.build_distance(mat, "explicit")
    assert_matches_eigh_reference(dm)
    cert = divmax.certify_negative_type(dm)
    if cert.is_negative_type:
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = rng.standard_normal(n)
            b -= b.mean()
            assert b @ dm.d @ b <= 1e-7 * (1 + np.abs(dm.d).max())
    else:
        b = np.asarray(cert.witness)
        assert abs(b.sum()) < 1e-9
        assert b @ dm.d @ b > 0


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_uniform_greedy_picks_top_weights(n, data):
    k = data.draw(st.integers(1, n))
    w = np.asarray(data.draw(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)
    ))
    vertex = divmax.greedy_basis_lmo(UniformMatroid(n, k), w)
    chosen = set(np.nonzero(vertex)[0])
    assert len(chosen) == k
    ranked = sorted(range(n), key=lambda e: (-w[e], e))
    assert chosen == set(ranked[:k])


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_partition_rank_table_satisfies_axioms(num_blocks, data):
    sizes = data.draw(st.lists(st.integers(1, 2), min_size=num_blocks, max_size=num_blocks))
    caps = [data.draw(st.integers(1, s)) for s in sizes]
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    m = PartitionMatroid(blocks, caps)
    if m.n <= 10:
        divmax.validate_rank_table(ExplicitRankMatroid.from_matroid(m).ranks)


@given(st.integers(2, 10), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_dispersion_matches_quadratic_form(n, seed):
    # The value `round` reports for a basis is x @ D @ x over ordered pairs,
    # plus w @ x with scores.
    rng = np.random.default_rng(seed)
    dm = divmax.build_distance(rng.standard_normal((n, 2)), "l2")
    m = UniformMatroid(n, int(rng.integers(1, n + 1)))
    x = np.zeros(n)
    x[rng.choice(n, m.full_rank, replace=False)] = 1.0
    w = rng.random(n)
    assert divmax.round(dm, m, x).value == float(x @ dm.d @ x)
    assert divmax.round(dm, m, x, w).value == float(x @ dm.d @ x) + float(w @ x)
