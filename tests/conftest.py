"""Shared test helpers: seeded instance factories and small oracles."""

from __future__ import annotations

import itertools
import os

# One BLAS thread, set before numpy loads BLAS: oversubscribed threads make
# the face solves many times slower, against the wall-clock bounds of
# tests/test_acceptance.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

import divmax
from divmax import geometry
from divmax.relaxation import _TIE_GRID, ITER_CAP_SCALE
from divmax.rounding import TIGHT_TOL

# Weights at or below this leave the active set of `reference_solve_slice`.
_WEIGHT_FLOOR = 1e-14

# Rank-0 matroids on four elements: a block of capacity 0, a graph of
# self-loops and an all-zero rank table.
RANK_ZERO = {
    "partition": divmax.PartitionMatroid([[0, 1, 2, 3]], [0]),
    "graphic": divmax.GraphicMatroid(2, [(0, 0), (1, 1), (0, 0), (1, 1)]),
    "explicit_rank": divmax.ExplicitRankMatroid(np.zeros(16, dtype=int)),
}


def random_certified(seed: int, n: int, kind: str = "l2", dim: int = 3):
    """Random negative-type DistanceMatrix; gaussian points or random sets."""
    rng = np.random.default_rng(seed)
    if kind in ("l1", "l2"):
        return divmax.build_distance(rng.standard_normal((n, dim)), kind)
    if kind == "lp":
        return divmax.build_distance(rng.standard_normal((n, dim)), "lp", p=1.5)
    if kind == "cosine":
        pts = rng.standard_normal((n, dim))
        norms = np.linalg.norm(pts, axis=1)
        pts[norms < 1e-9] = 1.0
        return divmax.build_distance(pts, "cosine")
    universe = max(2 * dim, 4)
    sets = []
    for _ in range(n):
        mask = rng.random(universe) < 0.5
        if not mask.any():
            mask[rng.integers(universe)] = True
        sets.append(set(np.nonzero(mask)[0].tolist()))
    return divmax.build_distance(sets, kind, universe=universe)


def reference_build_distance(points, kind: str, p: float | None = None) -> np.ndarray:
    """Dense reference for l1, l2 and lp points: the full n x n x dim differences.

    This is the builder `divmax.build_distance` used before it worked in
    blocks; it returns the cleaned, exactly symmetric matrix as an array.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    p = {"l1": 1.0, "l2": 2.0}.get(kind, p)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if p == 1.0:
        m = diff.sum(axis=-1)
    elif p == 2.0:
        m = np.sqrt((diff**2).sum(axis=-1))
    else:
        m = (diff**p).sum(axis=-1) ** (1.0 / p)
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    np.clip(m, 0.0, None, out=m)
    return m


def reference_is_metric(d: np.ndarray, tol: float) -> bool:
    """Triangle-inequality check through the full n x n x n sum tensor."""
    through = np.min(d[:, None, :] + d[None, :, :], axis=2)
    return bool(np.all(d <= through + tol))


def reference_certify(dm):
    """Full-`eigh` negative-type test: (verdict, min eigenvalue, witness, ||Q||_inf).

    Q is formed and re-symmetrized as before certification ran on
    eigenvalues alone; the witness is None on acceptance.
    """
    c = dm.d[0]
    q = 0.5 * (c[:, None] + c[None, :] - dm.d)
    q[0, :] = 0.0
    q[:, 0] = 0.0
    q = 0.5 * (q + q.T)
    evals, evecs = np.linalg.eigh(q[1:, 1:])
    q_norm = float(np.abs(q).sum(axis=1).max())
    accepted = bool(evals[0] >= -divmax.geometry.PSD_TOL_SCALE * q_norm)
    witness = None
    if not accepted:
        witness = np.concatenate([[-evecs[:, 0].sum()], evecs[:, 0]])
    return accepted, float(evals[0]), witness, q_norm


def assert_matches_eigh_reference(dm):
    """The verdict a full `eigh` gives, and its evidence where it is reported.

    A rejection carries the reference's min eigenvalue and witness.  An
    acceptance carries no witness, and its min eigenvalue is None when the
    Cholesky test accepted or the reference's when the `eigh` fallback did.
    """
    cert = divmax.certify_negative_type(dm)
    accepted, min_eig, witness, q_norm = reference_certify(dm)
    assert cert.is_negative_type == accepted
    if cert.min_eigenvalue is not None or not accepted:
        assert abs(cert.min_eigenvalue - min_eig) <= 1e-12 * (1.0 + q_norm)
    if accepted:
        assert cert.witness is None and cert.witness_value is None
    else:
        assert np.allclose(cert.witness, witness, rtol=0.0, atol=1e-12)
        assert cert.witness_value == pytest.approx(float(witness @ dm.d @ witness))


def reference_brute_force_opt(dm, m, w=None):
    """Exhaustive maximum by DFS over every independent set.

    The search `divmax.brute_force_opt` ran before it enumerated bases
    only: index-increasing extensions visit every independent set once, in
    lexicographic order, with one rank call per extension tried; strict
    improvements only, so the lexicographically smallest maximizer wins and
    the empty set (value 0) is a candidate.  Returns (elements, value).
    """
    n, d = m.n, dm.d
    w_vec = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    best_val = 0.0
    best_set: tuple = ()
    acc = np.zeros(n)  # acc[e] = sum of d[e, s] over s in the current set
    current: list[int] = []

    def visit(start: int, val: float):
        nonlocal best_val, best_set, acc
        for e in range(start, n):
            cand = current + [e]
            if m.rank(cand) != len(cand):
                continue
            new_val = val + 2.0 * acc[e] + w_vec[e]
            current.append(e)
            if new_val > best_val:
                best_val = new_val
                best_set = tuple(current)
            acc += d[e]
            visit(e + 1, new_val)
            acc -= d[e]
            current.pop()

    visit(0, 0.0)
    return best_set, float(best_val)


def reference_local_search(dm, m, w=None):
    """Swap local search checking each candidate swap with the rank oracle.

    The loop `divmax.local_search_half` ran for every matroid kind before
    partition swaps were checked by block counts and before all swaps were
    scored at once as a gain matrix: one swap at a time, row-major over
    (a in B, b not in B), kept on a strict improvement by more than
    1e-12 |value|.  Returns (elements, value, swaps).
    """
    n, k, d = m.n, m.full_rank, dm.d
    w_vec = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    basis = set(int(e) for e in np.nonzero(divmax.greedy_basis_lmo(m, np.zeros(n)))[0])

    def value_of(s):
        idx = sorted(s)
        return float(d[np.ix_(idx, idx)].sum() + w_vec[idx].sum())

    val = value_of(basis)
    swaps = 0
    while True:
        best_gain = 0.0
        best_swap = None
        outside = [e for e in range(n) if e not in basis]
        for a in sorted(basis):
            inside = [e for e in basis if e != a]
            base_drop = 2.0 * float(d[a, inside].sum()) + w_vec[a]
            for b in outside:
                if m.rank(inside + [b]) != k:
                    continue
                gain = 2.0 * float(d[b, inside].sum()) + w_vec[b] - base_drop
                if gain > best_gain + 1e-12 * abs(val):
                    best_gain = gain
                    best_swap = (a, b)
        if best_swap is None:
            break
        basis.discard(best_swap[0])
        basis.add(best_swap[1])
        val += best_gain
        swaps += 1
    return tuple(sorted(basis)), value_of(basis), swaps


class RankOnly(divmax.Matroid):
    """A matroid seen only through its rank oracle, with rank calls counted."""

    kind = "rank_only"

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.calls = 0

    def rank(self, subset):
        self.calls += 1
        return self.inner.rank(subset)


def counting_view(d):
    """View of d that counts the matrix products taking an n x n operand."""
    shape = d.shape

    class Counting(np.ndarray):
        products = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(np.shape(a) == shape for a in inputs):
                Counting.products += 1
            inputs = tuple(np.asarray(a) for a in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            if func in (np.dot, np.matmul, np.inner, np.vdot, np.einsum):
                Counting.products += 1
            args = tuple(np.asarray(a) if isinstance(a, Counting) else a for a in args)
            return func(*args, **kwargs)

        def dot(self, other, out=None):
            Counting.products += 1
            return np.asarray(self).dot(other, out)

    return d.view(Counting)


def random_matroid(seed: int, n: int):
    """Uniform or partition matroid with random parameters."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        return divmax.UniformMatroid(n, int(rng.integers(1, n + 1)))
    num_blocks = int(rng.integers(1, min(4, n) + 1))
    perm = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=num_blocks - 1, replace=False))
    blocks, start = [], 0
    for cut in list(cuts) + [n]:
        blocks.append([int(e) for e in perm[start:cut]])
        start = cut
    caps = [int(rng.integers(1, len(b) + 1)) for b in blocks]
    return divmax.PartitionMatroid(blocks, caps)


def enumerate_independent(m, max_size=None):
    """All independent sets by rank oracle, size-ascending then lexicographic."""
    top = m.full_rank if max_size is None else min(max_size, m.full_rank)
    for size in range(top + 1):
        for combo in itertools.combinations(range(m.n), size):
            if m.rank(combo) == size:
                yield combo


def polytope_min_slack(m, x) -> float:
    """min over nonempty S of r(S) - x(S), >= 0 iff x(S) <= r(S) for every S.

    Graphic matroids of any size take the minimum over i of the min-cut
    search `divmax.slack_minimize(m, x, i, None, range(n))`; every other
    matroid, or a graphic one seen only through its rank oracle, is scanned
    subset by subset (n <= 20).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(m, divmax.GraphicMatroid):
        return min(divmax.slack_minimize(m, x, i, None, range(m.n)).min_slack for i in range(m.n))
    assert m.n <= 20
    return min(
        m.rank(s) - float(x[list(s)].sum())
        for size in range(1, m.n + 1)
        for s in itertools.combinations(range(m.n), size)
    )


def in_polytope(m, x, tol: float = 1e-9) -> bool:
    """Membership of x in the matroid polytope P(M), up to tol."""
    x = np.asarray(x, dtype=float)
    return bool((x >= -tol).all()) and polytope_min_slack(m, x) >= -tol * (1.0 + m.full_rank)


def reference_normalize_integral(chain, x, tol: float) -> None:
    """Split integral elements out of multi-element rings, restarting after each."""
    changed = True
    while changed:
        changed = False
        for ring in chain.rings(x, tol):
            if len(ring.elements) < 2:
                continue
            ones = [e for e in ring.elements if x[e] >= 1.0 - tol]
            if ones:
                chain.insert(ring.prefix | {ones[0]})
                changed = True
                break


def reference_build_chain(m, x, tol: float = TIGHT_TOL):
    """Maximal chain of tight sets, rescanning from the first ring after each split.

    The search `divmax.build_chain` ran before it became one forward pass:
    after every insertion it normalizes again and restarts at ring 0, so
    final rings are searched again.  Input checks are left out.
    """
    x = np.asarray(x, dtype=float)
    chain = divmax.ChainState([frozenset(int(e) for e in np.nonzero(x > 0)[0])])
    reference_normalize_integral(chain, x, tol)
    changed = True
    while changed:
        changed = False
        for ring in chain.rings(x, tol):
            if len(ring.elements) < 2:
                continue
            window = set(ring.elements)
            i0 = ring.elements[0]
            for j in ring.elements[1:]:
                for a, b in ((i0, j), (j, i0)):
                    res = divmax.slack_minimize(m, x, a, b, window, ring.prefix)
                    if res.min_slack <= tol:
                        chain.insert(ring.prefix | res.argmin)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
        if changed:
            reference_normalize_integral(chain, x, tol)
    return chain


def reference_scan_slack(m, x, i, j, window, prefix=frozenset()):
    """Partition slack search (uniform: one block) as a Python scan over pool prefixes.

    An oracle independent of the subset enumeration that answers
    `divmax.slack_minimize` on partition matroids: per block, the pool
    sorted by (-x[e], e), masses accumulated one element at a time from the
    prefix mass (plus x[i] when i is in the block), strict improvements
    only.  Returns (min_slack, argmin).
    """
    prefix = frozenset(int(e) for e in prefix)  # summed in the order slack_minimize sees
    total, members = 0.0, []
    for block, cap in zip(m.blocks, m.capacities):
        block = set(block)
        forced = [i] if i in block else []
        pool = [e for e in window if e in block and e not in (i, j)]
        pool.sort(key=lambda e: (-x[e], e))
        p_b = [e for e in prefix if e in block]
        mass = float(sum(x[e] for e in p_b)) + (x[i] if forced else 0.0)
        best_val, best_len = None, 0
        for size in range(len(pool) + 1):
            if size:
                mass += x[pool[size - 1]]
            val = float(min(len(p_b) + len(forced) + size, cap)) - mass
            if best_val is None or val < best_val:
                best_val, best_len = val, size
        total += best_val
        members += forced + pool[:best_len]
    return float(total), frozenset(members)


def reference_select_pair(dm, x, rings) -> tuple:
    """The pair rule as a Python loop over every pair of every fractional ring."""
    best = None
    for ring in rings:
        if ring.integral or len(ring.elements) < 2:
            continue
        els = ring.elements
        for ai in range(len(els)):
            for bi in range(ai + 1, len(els)):
                i, j = els[ai], els[bi]
                cand = (float(x[i] * x[j] * dm.d[i, j]), i, j)
                if best is None or cand < best:
                    best = cand
    assert best is not None
    return best[1], best[2]


def reference_round_step(dm, m, x, chain, w_vec, tol: float = TIGHT_TOL) -> dict:
    """One rounding move in place, as `divmax.round_step` made it with n x n values.

    The ring list is rebuilt wherever it is needed, the values come from
    x @ D @ x before and after, and the sign from a separate D @ x.
    Returns the step's pair, sign, eps, event, new tight set and values.
    """
    d = dm.d
    rings = chain.rings(x, tol)
    i, j = reference_select_pair(dm, x, rings)
    ring = next(r for r in rings if i in r.elements)
    value_before = float(x @ d @ x + w_vec @ x)
    dx = d @ x
    kappa = 2.0 * float(dx[i] - dx[j]) - 2.0 * float(d[i, j]) * float(x[j] - x[i])
    kappa += float(w_vec[i] - w_vec[j])
    sign = 1 if kappa >= -1e-9 * value_before else -1
    inc, dec = (i, j) if sign == 1 else (j, i)
    res = divmax.slack_minimize(m, x, inc, dec, set(ring.elements), ring.prefix)
    eps = min(float(x[dec]), 1.0 - float(x[inc]), max(res.min_slack, 0.0))
    x[inc] += eps
    x[dec] -= eps
    if x[dec] <= tol:
        x[dec] = 0.0
        chain.erase(dec)
        event, new_tight = "erased", None
    else:
        new_tight = ring.prefix | res.argmin
        chain.insert(new_tight)
        event = "refined"
    if x[inc] >= 1.0 - tol:
        x[inc] = 1.0
    reference_normalize_integral(chain, x, tol)
    value_after = float(x @ d @ x + w_vec @ x)
    return {"pair": (i, j), "sign": sign, "eps": float(eps), "event": event,
            "new_tight_set": new_tight, "loss": value_before - value_after}


def reference_round(dm, m, x_star, w=None, tol: float = TIGHT_TOL):
    """The rounding loop over the reference chain, pair rule and step.

    x* is snapped as `divmax.round` snaps it; certification and input
    checks are left out.  Returns (basis, value, step dicts).
    """
    w_vec = np.zeros(m.n) if w is None else np.asarray(w, dtype=float)
    x = np.round(np.asarray(x_star, dtype=float) / _TIE_GRID) * _TIE_GRID
    x[x <= tol] = 0.0
    x[x >= 1.0 - tol] = 1.0
    if m.full_rank == 0:
        return (), 0.0, []
    chain = reference_build_chain(m, x, tol)
    steps = []
    while any(not r.integral for r in chain.rings(x, tol)):
        steps.append(reference_round_step(dm, m, x, chain, w_vec, tol))
    basis = tuple(int(e) for e in np.nonzero(x >= 1.0 - tol)[0])
    return basis, float(x @ dm.d @ x) + float(w_vec @ x), steps


def reference_solve_slice(dm, m, w=None, *, gap_tol=1e-6, max_iters=None):
    """Away-step Frank-Wolfe on the base polytope, an independent oracle for `divmax.solve_slice`.

    The loop `divmax.solve_slice` ran before it became fully corrective,
    in its dense form: each iteration forms D @ x, the curvature and the
    value with n x n products, takes a forward or an away step with exact
    line search, and keeps the active set as a dict keyed by the vertex
    bytes; the away vertex is the first minimizer in insertion order, and
    weights at or below _WEIGHT_FLOOR are dropped.  Returns (x, value, gap,
    iterations, converged), with value and gap taken at the final x.
    """
    d = dm.d
    n = dm.n
    w_vec = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    k = m.full_rank
    if max_iters is None:
        max_iters = ITER_CAP_SCALE * n * k

    x = divmax.greedy_basis_lmo(m, 2.0 * k * d[0] + w_vec)
    weights = {x.astype(np.int8).tobytes(): 1.0}
    vertices = {next(iter(weights)): x.copy()}

    def combo():
        acc = np.zeros(n)
        for key, lam in weights.items():
            acc += lam * vertices[key]
        return acc

    value = float(x @ d @ x + w_vec @ x)
    gap = np.inf
    converged = False
    iterations = 0
    for iterations in range(max_iters + 1):
        grad = 2.0 * (d @ x) + w_vec
        v = divmax.greedy_basis_lmo(m, grad)
        gap = float(grad @ (v - x))
        if gap <= gap_tol * value:
            converged = True
            break
        if iterations == max_iters:
            break

        away_key = min(weights, key=lambda kk: float(grad @ vertices[kk]))
        a = vertices[away_key]
        gap_away = float(grad @ (x - a))
        lam_a = weights[away_key]
        if gap >= gap_away or lam_a >= 1.0:
            direction, gamma_max, is_away = v - x, 1.0, False
        else:
            direction, gamma_max, is_away = x - a, lam_a / (1.0 - lam_a), True

        slope = float(grad @ direction)
        curv = float(direction @ d @ direction)
        gamma = slope / (-2.0 * curv) if -2.0 * curv * gamma_max > slope else gamma_max
        if gamma <= 0.0:
            converged = True
            break

        if is_away:
            for key in weights:
                weights[key] *= 1.0 + gamma
            weights[away_key] -= gamma
        else:
            for key in weights:
                weights[key] *= 1.0 - gamma
            v_key = v.astype(np.int8).tobytes()
            if v_key not in weights:
                weights[v_key] = 0.0
                vertices[v_key] = v.copy()
            weights[v_key] += gamma
        for key in [key for key, lam in weights.items() if lam <= _WEIGHT_FLOOR]:
            del weights[key]
            del vertices[key]
        total = sum(weights.values())
        for key in weights:
            weights[key] /= total
        x = combo()
        value = float(x @ d @ x + w_vec @ x)

    gap = max(float(gap), 0.0)
    return x, value, gap, iterations, converged


@pytest.fixture
def factorizations(monkeypatch):
    """Sizes of the certifying Cholesky factorizations run during a test.

    Every negative-type verdict starts with one such factorization, so the
    length of the list counts the certifications computed.
    """
    sizes = []
    factor = geometry._cholesky_in_place

    def counted(a):
        sizes.append(a.shape[0])
        return factor(a)

    monkeypatch.setattr(geometry, "_cholesky_in_place", counted)
    return sizes


@pytest.fixture
def line_points_dm():
    # Collinear points 0, 1, 2, 3 under l1.
    return divmax.build_distance([[0.0], [1.0], [2.0], [3.0]], "l1")


@pytest.fixture
def triangle_not_negtype():
    # Side lengths (1, 1, 5): a metric-violating triangle that fails
    # the negative-type test with min eigenvalue -1/2.
    return divmax.DistanceMatrix(np.array([[0.0, 1, 1], [1, 0, 5], [1, 5, 0]]))


@pytest.fixture
def allones_dm4():
    d = np.ones((4, 4)) - np.eye(4)
    return divmax.DistanceMatrix(d)
