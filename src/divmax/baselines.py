"""Reference solvers: exhaustive optimum and swap local search.

The brute-force enumerator is the ground-truth oracle for small instances
(n <= 20).  The local search is a comparison baseline: repeated best
single-swap improvement over bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import InvalidInputError
from .geometry import DistanceMatrix
from .matroids import Matroid, PartitionMatroid, greedy_basis_lmo
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


def _batches(rows, k: int):
    """Stream k-tuples as integer arrays of at most _BATCH rows."""
    flat = chain.from_iterable(rows)
    while True:
        batch = np.fromiter(islice(flat, _BATCH * k), dtype=np.intp).reshape(-1, k)
        if not len(batch):
            return
        yield batch


def _partition_bases(m: PartitionMatroid) -> np.ndarray:
    """Every basis of a partition matroid, one sorted row each, in lexicographic order.

    A basis takes exactly cap(b) elements of each block b, so the bases are
    the product of the per-block combinations.  One block's combinations
    already come in lexicographic order; a product is sorted.  Rows are
    int8 (n <= 20), so even C(20, 10) bases take under 2 MB.
    """
    per_block = [
        np.fromiter(chain.from_iterable(combinations(b, c)), dtype=np.int8).reshape(comb(len(b), c), c)
        for b, c in zip(m.blocks, m.capacities)
    ]
    if len(per_block) == 1:
        return per_block[0]
    picks = np.indices([len(p) for p in per_block]).reshape(len(per_block), -1)
    bases = np.sort(np.hstack([p[i] for p, i in zip(per_block, picks)]), axis=1)
    return bases[np.lexsort(bases.T[::-1])]


def _dfs_bases(m: Matroid, k: int):
    """Bases of any matroid in lexicographic order, by rank-oracle DFS.

    The DFS extends an independent set by increasing elements and leaves a
    branch once the elements still available cannot raise it to rank k:
    if S + e is independent and r(S | {e, ..., n-1}) = k, augmentation
    extends S + e to a basis, so every branch taken ends in one.
    """
    n = m.n
    current: list[int] = []

    def visit(start: int):
        if len(current) == k:
            yield tuple(current)
            return
        for e in range(start, n):
            if m.rank(current + list(range(e, n))) < k:
                return
            current.append(e)
            if m.rank(current) == len(current):
                yield from visit(e + 1)
            current.pop()

    return visit(0)


def _bases(m: Matroid, k: int):
    """Bases of m in lexicographic order, in batches of at most _BATCH rows."""
    if isinstance(m, PartitionMatroid):
        bases = _partition_bases(m)
        return (bases[s:s + _BATCH] for s in range(0, len(bases), _BATCH))
    return _batches(_dfs_bases(m, k), k)


def brute_force_opt(dm: DistanceMatrix, m: Matroid, w=None) -> SubsetResult:
    """Exhaustive maximum of the dispersion over all independent sets.

    Only bases are enumerated: with D >= 0 and w >= 0 adding an element
    never lowers the value, and every independent set lies in a basis, so
    some basis is optimal.  (The same monotonicity lets the relaxation solve
    the top slice alone.)  Partition bases, uniform ones included, come
    from the product of per-block combinations, and other kinds from a
    rank-oracle DFS that only enters branches ending in a basis.  The
    bases are scored in batches of at most _BATCH, as
    D[X, X].sum() + w[X].sum() per row, so memory does not grow with their
    number.  The result is the first basis in lexicographic order whose
    value is at least max - 1e-12 * |max|; the relative tie rule keeps
    one-ulp differences of summation order from choosing the basis.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    if n > BRUTE_FORCE_MAX_N:
        raise InvalidInputError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    w_vec = _score_vector(w, n)
    k = m.full_rank
    if k == 0:
        return SubsetResult(elements=(), value=0.0)
    d = dm.d

    # Running maximum `top` and the prefix-maximum records within the tie
    # window of it; the first basis reaching the final window is a record.
    top = -np.inf
    kept_vals = np.empty(0)
    kept = np.empty((0, k), dtype=np.intp)
    for bases in _bases(m, k):
        vals = d[bases[:, :, None], bases[:, None, :]].sum(axis=(1, 2)) + w_vec[bases].sum(axis=1)
        running = np.maximum.accumulate(np.concatenate(([top], vals)))
        record = vals > running[:-1]
        top = running[-1]
        kept_vals = np.concatenate((kept_vals, vals[record]))
        kept = np.concatenate((kept, bases[record]))
        close = kept_vals >= top - _TIE_RTOL * abs(top)
        kept_vals, kept = kept_vals[close], kept[close]
    return SubsetResult(elements=tuple(int(e) for e in kept[0]), value=float(kept_vals[0]))


def _feasible_swaps(m: Matroid, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Mask of the swaps B - a + b that give a basis: rows a in B, columns b not.

    Partition swaps, uniform ones included, are decided by block counts:
    b joins a's block or a block with spare capacity in B.  Other kinds ask
    the rank oracle once per swap.
    """
    if isinstance(m, PartitionMatroid):
        block_in, block_out = m.block_of[inside], m.block_of[outside]
        spare = np.bincount(block_in, minlength=len(m.blocks)) < np.asarray(m.capacities)
        return (block_in[:, None] == block_out) | spare[block_out]
    k = len(inside)
    members = inside.tolist()
    return np.array(
        [
            [m.rank(members[:r] + members[r + 1:] + [b]) == k for b in outside.tolist()]
            for r in range(k)
        ],
        dtype=bool,
    ).reshape(k, len(outside))


def local_search_half(
    dm: DistanceMatrix,
    m: Matroid,
    seed_basis=None,
    w=None,
    *,
    max_sweeps: int | None = None,
) -> LocalSearchResult:
    """Best-improvement single-swap local search over bases.

    The 1/2-approximation of Borodin, Lee & Ye (PODS 2012).  Each sweep
    keeps S = D[:, B].sum(1) and scores every swap B - a + b at once as
    the k x (n-k) gain matrix G[a, b] = 2 (S[b] - D[a, b] - S[a]) + w_b - w_a,
    with infeasible swaps at -inf: O(n k) array work per sweep, plus
    k (n-k) rank calls for kinds other than uniform and partition.  The
    search stops unless max G > 1e-12 |g(B)|, and otherwise applies the
    first (a, b) in row-major order with G >= max G - 1e-12 |g(B)|.  The
    relative rule makes the path independent of the scale of D and w.
    Terminates at a local optimum; offered as an empirical comparison
    baseline for the relax-and-round pipeline.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    k = m.full_rank
    d = dm.d
    w_vec = _score_vector(w, n)
    in_basis = np.zeros(n, dtype=bool)
    if seed_basis is None:
        if k:
            in_basis = greedy_basis_lmo(m, k, np.zeros(n)) > 0
    else:
        basis = set(int(e) for e in seed_basis)
        if len(basis) != k or not m.is_independent(basis):
            raise InvalidInputError("seed must be a basis of the matroid")
        in_basis[list(basis)] = True

    swaps = 0
    while max_sweeps is None or swaps < max_sweeps:
        inside, outside = np.flatnonzero(in_basis), np.flatnonzero(~in_basis)
        s = d[:, inside].sum(axis=1)
        gain = (
            2.0 * (s[outside] - d[np.ix_(inside, outside)] - s[inside, None])
            + w_vec[outside] - w_vec[inside, None]
        )
        gain[~_feasible_swaps(m, inside, outside)] = -np.inf
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
