"""Hypothesis fuzz of certify, relax and round on small degenerate instances.

Each case ends in a basis that meets the guarantee under a certified bound of
at least the exhaustive optimum, or in a named InvalidInputError or
CertificationError; never in InternalInvariantError.  The outcome is the
same for the scaled copies (c * D, c * w).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divmax
from divmax.cli import _bound_checks
from divmax.errors import CertificationError, InvalidInputError

from conftest import random_certified

SCALES = (1e-8, 1.0, 1e8)


def _matroid(kind: str, n: int, rng):
    if kind == "uniform":
        return divmax.UniformMatroid(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=2, replace=False))
        perm = [int(e) for e in rng.permutation(n)]
        blocks = [perm[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        return divmax.PartitionMatroid(blocks, [int(rng.integers(1, len(b) + 1)) for b in blocks])
    # A multigraph with parallel edges and perhaps loops; edge 0 is not a loop.
    vertices = int(rng.integers(2, 6))
    edges = [(0, 1)] + [tuple(int(v) for v in rng.integers(0, vertices, 2)) for _ in range(n - 1)]
    graph = divmax.GraphicMatroid(vertices, edges)
    if kind == "graphic":
        return graph
    top = int(rng.integers(1, graph.full_rank + 1))
    return divmax.ExplicitRankMatroid.from_matroid(graph, truncate_to=top)


def _distance(case: str, n: int, rng) -> np.ndarray:
    if case == "zeros":
        return np.zeros((n, n))
    if case == "single_pair":
        d = np.zeros((n, n))
        a, b = (int(e) for e in rng.choice(n, size=2, replace=False))
        d[a, b] = d[b, a] = rng.uniform(0.5, 2.0)
        return d
    pts = rng.standard_normal((n, 3))
    if case == "duplicates":
        pts = pts[rng.integers(0, max(2, n // 3), size=n)]
    return divmax.build_distance(pts, ("l1", "l2")[int(rng.integers(2))]).d


def _outcome(d, m, w):
    """'basis', or the name of the refusal, after checking a returned basis."""
    dm = divmax.DistanceMatrix(d)
    try:
        cert = divmax.certify_negative_type(dm)
        if not cert.is_negative_type:
            raise CertificationError("not of negative type")
        relax = divmax.sweep_slices(dm, m, w)
        rounded = divmax.round(dm, m, relax.best.point.x, w)
    except (InvalidInputError, CertificationError) as exc:
        return type(exc).__name__
    k = m.full_rank
    assert len(rounded.basis) == k and m.is_independent(rounded.basis)
    opt = divmax.brute_force_opt(dm, m, w).value
    assert rounded.value <= opt + 1e-9 * abs(opt)
    assert relax.opt_upper_bound >= opt - 1e-9 * abs(opt)
    x_star = relax.best.point.x
    checks = _bound_checks(dm, w, k, x_star, relax.best.value, rounded.value)
    assert checks["guarantee_satisfied"], checks
    return "basis"


@given(
    st.sampled_from(("uniform", "partition", "graphic", "explicit_rank")),
    st.sampled_from(("points", "zeros", "duplicates", "single_pair")),
    st.integers(3, 12),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_relax_and_round_end_in_a_basis_or_a_named_refusal(kind, case, n, scored, seed):
    rng = np.random.default_rng(seed)
    m = _matroid(kind, n, rng)
    d = _distance(case, n, rng)
    w = rng.random(n) * (rng.random(n) < 0.3) if scored else None
    outcomes = {c: _outcome(c * d, m, None if w is None else c * w) for c in SCALES}
    assert len(set(outcomes.values())) == 1, outcomes
    if case == "single_pair":
        assert outcomes[1.0] == "CertificationError"


def test_exact_ties_in_x_star_round_alike_at_every_scale():
    # Duplicate sets give x* two exactly equal coordinates, x_5 == x_9, which
    # relax reproduces at every scale only up to the last bits; rounding must
    # still pick the same basis.
    base = random_certified(238, 26, "dice", dim=5)
    m = divmax.UniformMatroid(26, 3)
    got = {}
    for c in SCALES:
        dm = divmax.DistanceMatrix(c * base.d)
        rounded = divmax.round(dm, m, divmax.sweep_slices(dm, m).best.point.x)
        got[c] = (rounded.basis, rounded.value / c)
    assert {basis for basis, _ in got.values()} == {(0, 9, 23)}, got
    assert got[1e-8][1] == pytest.approx(got[1.0][1], rel=1e-9)
    assert got[1e8][1] == pytest.approx(got[1.0][1], rel=1e-9)
