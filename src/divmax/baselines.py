"""Reference solvers: exhaustive optimum and swap local search.

The brute-force enumerator is the ground-truth oracle for small instances
(n <= 20).  The local search is a comparison baseline: repeated best
single-swap improvement over bases.  Both reach the matroid only through
its own queries, `Matroid._bases` and `Matroid._swap_mask`, so each kind
decides how it enumerates bases and which swaps keep a basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import DistanceMatrix
from .matroids import Matroid, greedy_basis_lmo
from .relaxation import _score_vector

BRUTE_FORCE_MAX_N = 20
# Bases scored per batch by brute_force_opt: one batch gathers
# _BATCH * k * k distances, under 7 MB at k = 10.
_BATCH = 8192
# Values within this fraction of the best count as ties of it in both
# baselines, so that summation order cannot pick the winner.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SubsetResult:
    elements: tuple
    value: float


@dataclass(frozen=True)
class LocalSearchResult:
    elements: tuple
    value: float
    swaps: int


def brute_force_opt(dm: DistanceMatrix, m: Matroid, w=None) -> SubsetResult:
    """Exhaustive maximum of the dispersion over all independent sets.

    Only bases are enumerated: with D >= 0 and w >= 0 adding an element
    never lowers the value, and every independent set lies in a basis, so
    some basis is optimal.  (The same monotonicity lets the relaxation solve
    on the base polytope alone.)  The matroid lists its bases in lexicographic
    order (`Matroid._bases`): per-block products for partition matroids,
    uniform ones included, and otherwise the k-combinations that
    `Matroid._independent` keeps, as array work for graphic (forests) and
    explicit-rank (table rank k) matroids, and with one rank call each for
    kinds known only by their rank oracle.  They are
    scored in slices of _BATCH rows, as D[X, X].sum() + w[X].sum() per row,
    so the gathered distances do not grow with their number.  The result
    is the first basis whose value is at least max - 1e-12 * |max|; the
    relative tie rule keeps one-ulp differences of summation order from
    choosing the basis.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    if n > BRUTE_FORCE_MAX_N:
        raise InvalidInputError(f"exact enumeration is limited to n <= {BRUTE_FORCE_MAX_N}, got n={n}")
    w_vec = _score_vector(w, n)
    k = m.full_rank
    if k == 0:
        return SubsetResult(elements=(), value=0.0)
    d = dm.d
    bases = m._bases(k)
    vals = np.concatenate([
        d[b[:, :, None], b[:, None, :]].sum(axis=(1, 2)) + w_vec[b].sum(axis=1)
        for b in (bases[s:s + _BATCH] for s in range(0, len(bases), _BATCH))
    ])
    top = vals.max()
    first = int(np.argmax(vals >= top - _TIE_RTOL * abs(top)))
    return SubsetResult(elements=tuple(int(e) for e in bases[first]), value=float(vals[first]))


def local_search_half(dm: DistanceMatrix, m: Matroid, w=None) -> LocalSearchResult:
    """Best-improvement single-swap local search over bases.

    The 1/2-approximation of Borodin, Lee & Ye (PODS 2012).  It starts from
    the greedy basis of all-zero weights (the lexicographically first
    basis) and runs to a local optimum.  Each sweep
    keeps S = D[:, B].sum(1) and scores every swap B - a + b at once as
    the k x (n-k) gain matrix G[a, b] = 2 (S[b] - D[a, b] - S[a]) + w_b - w_a,
    with the swaps that `Matroid._swap_mask` rules out at -inf: O(n k)
    array work per sweep.  Partition (uniform included) and graphic
    matroids answer the mask in closed form; otherwise `Matroid._independent`
    tests the k (n-k) sets B - a + b, by one table read for explicit-rank
    matroids and one rank call each for kinds known only by their rank
    oracle.  The search stops unless max G > 1e-12 |g(B)|, and
    otherwise applies the first (a, b) in row-major order with
    G >= max G - 1e-12 |g(B)|.  The relative rule makes the path
    independent of the scale of D and w.  Offered as an empirical
    comparison baseline for the relax-and-round pipeline.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    d = dm.d
    w_vec = _score_vector(w, n)
    in_basis = greedy_basis_lmo(m, np.zeros(n)) > 0

    swaps = 0
    while True:
        inside, outside = np.flatnonzero(in_basis), np.flatnonzero(~in_basis)
        s = d[:, inside].sum(axis=1)
        gain = (
            2.0 * (s[outside] - d[np.ix_(inside, outside)] - s[inside, None])
            + w_vec[outside] - w_vec[inside, None]
        )
        gain[~m._swap_mask(inside, outside)] = -np.inf
        if not gain.size:
            break
        best = gain.max()
        tol = _TIE_RTOL * abs(float(s[inside].sum() + w_vec[inside].sum()))
        if not best > tol:
            break
        a, b = np.unravel_index(np.argmax(gain >= best - tol), gain.shape)
        in_basis[inside[a]] = False
        in_basis[outside[b]] = True
        swaps += 1
    idx = np.flatnonzero(in_basis)
    value = float(d[np.ix_(idx, idx)].sum() + w_vec[idx].sum())
    return LocalSearchResult(elements=tuple(int(e) for e in idx), value=value, swaps=swaps)
