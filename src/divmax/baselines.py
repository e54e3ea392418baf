"""Reference solvers: exhaustive optimum, swap local search, random rounding.

The brute-force enumerator is the ground-truth oracle for small instances
(n <= 20).  The local search is a comparison baseline: repeated best
single-swap improvement over bases.  The randomized rounding applies only
to cardinality (uniform matroid) constraints: scale down, draw elements
independently, retry until the draw fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RetryLimitError
from .geometry import DistanceMatrix
from .matroids import Matroid, PartitionMatroid, greedy_basis_lmo

BRUTE_FORCE_MAX_N = 20


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

    DFS over index-increasing extensions visits every independent set once,
    in lexicographic order of the sorted element tuple; keeping strict
    improvements only therefore returns the lexicographically smallest
    maximizer.  The empty set (value 0) is always a candidate.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    if n > BRUTE_FORCE_MAX_N:
        raise InvalidInputError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    d = dm.d
    w_vec = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    if w_vec.shape != (n,):
        raise InvalidInputError(f"w must have shape ({n},), got {w_vec.shape}")

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
    return SubsetResult(elements=best_set, value=float(best_val))


def local_search_half(
    dm: DistanceMatrix,
    m: Matroid,
    seed_basis=None,
    w=None,
    *,
    max_sweeps: int | None = None,
) -> LocalSearchResult:
    """Best-improvement single-swap local search over bases.

    From a basis B, evaluate every feasible swap B - a + b and apply the one
    with the largest strict improvement (ties: lexicographic on (a, b)).
    Swaps on a partition matroid are checked by block counts, on other
    kinds by the rank oracle.
    Terminates at a local optimum; offered as an empirical comparison
    baseline for the relax-and-round pipeline.
    """
    n = m.n
    if dm.n != n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={n}")
    k = m.full_rank
    d = dm.d
    w_vec = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    if w_vec.shape != (n,):
        raise InvalidInputError(f"w must have shape ({n},), got {w_vec.shape}")
    if seed_basis is None:
        basis = set(int(e) for e in np.nonzero(greedy_basis_lmo(m, k, np.zeros(n)))[0]) if k else set()
    else:
        basis = set(int(e) for e in seed_basis)
        if len(basis) != k or not m.is_independent(basis):
            raise InvalidInputError("seed must be a basis of the matroid")

    def value_of(s):
        idx = sorted(s)
        return float(d[np.ix_(idx, idx)].sum() + w_vec[idx].sum())

    partition = isinstance(m, PartitionMatroid)
    if partition:
        block_of = m.block_of.tolist()
    val = value_of(basis)
    swaps = 0
    while max_sweeps is None or swaps < max_sweeps:
        best_gain = 0.0
        best_swap = None
        outside = [e for e in range(n) if e not in basis]
        if partition:
            counts = np.bincount(m.block_of[sorted(basis)], minlength=len(m.blocks))
            spare = (counts < np.asarray(m.capacities)).tolist()
        for a in sorted(basis):
            inside = [e for e in basis if e != a]
            base_drop = 2.0 * float(d[a, inside].sum()) + w_vec[a]
            for b in outside:
                if partition:
                    # B - a + b is a basis iff b joins a's block or a block
                    # with spare capacity in B.
                    if block_of[b] != block_of[a] and not spare[block_of[b]]:
                        continue
                elif m.rank(inside + [b]) != k:
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
    return LocalSearchResult(elements=tuple(sorted(basis)), value=value_of(basis), swaps=swaps)


def draw_subset(y, rng: np.random.Generator) -> tuple:
    """One independent-inclusion draw: element e enters with probability y[e]."""
    y = np.asarray(y, dtype=float)
    picks = rng.random(y.shape[0]) < y
    return tuple(int(e) for e in np.nonzero(picks)[0])


def randomized_round_cardinality(
    x_star, k: int, eps: float, rng_seed: int, *, max_retries: int = 10_000
) -> tuple:
    """Randomized rounding for cardinality constraints.

    Scales x* down to y = (1 - eps) * x* and draws every element
    independently with probability y[e], retrying until at most k elements
    come up.  The pre-truncation draw has expected dispersion
    (1 - eps)^2 * (x* @ D @ x*).  Uses a counter-based (Philox) generator
    keyed by rng_seed, so results are reproducible per seed.
    """
    x = np.asarray(x_star, dtype=float)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"eps must be in [0, 1], got {eps}")
    if (x < -1e-12).any() or (x > 1.0 + 1e-9).any():
        raise InvalidInputError("x* must lie in [0, 1]^n")
    if abs(x.sum() - k) > 1e-6 * (1.0 + k):
        raise InvalidInputError(f"x* has mass {x.sum()}, expected k={k}")
    y = (1.0 - eps) * np.clip(x, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(rng_seed))
    for _ in range(max_retries):
        picks = draw_subset(y, rng)
        if len(picks) <= k:
            return picks
    raise RetryLimitError(f"no draw of size <= {k} within {max_retries} retries")
