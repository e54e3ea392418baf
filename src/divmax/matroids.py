"""Matroid rank oracles and the queries the solver makes of them.

Supported matroid kinds: partition, uniform (a partition matroid with one
block), graphic (ground set = edges), and explicit rank tables for small
ground sets.  Besides `rank`, the solver, the rounding and the baselines ask
a matroid four queries.  `Matroid` answers each from the rank oracle alone,
and each kind overrides those it answers faster:

  * `_greedy`    -- greedy independent set along an order, up to alpha
                    elements (partition: block counts; graphic: a
                    union-find forest; explicit rank: table lookups)
  * `_slack`     -- min of r(prefix|T) - x(prefix|T) over windowed T that
                    contain i and avoid j (partition: block counts; graphic:
                    one minimum cut per contracted vertex; otherwise the
                    subsets of a window of at most W_MAX elements)
  * `_bases`     -- every basis in lexicographic order (partition: per-block
                    combinations; otherwise a rank-oracle DFS)
  * `_swap_mask` -- the swaps B - a + b that give a basis (partition: block
                    counts; otherwise one rank call each)

Tie-breaking is deterministic everywhere: smaller subsets first, then
lexicographic by sorted element tuple; per-size selections prefer larger x
then lower index.  The graphic search returns the minimal minimizer, which
is the smallest one and unique in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InternalInvariantError, InvalidInputError

# Hard cap on brute-force subset windows (explicit rank tables, rank-only kinds).
W_MAX = 20
# Residual capacities at or below this fraction of a network's total
# capacity count as saturated when a minimal minimum cut is read off.
_CUT_TOL = 1e-12


@dataclass(frozen=True)
class SlackResult:
    """Windowed slack minimum: value and the achieving subset T."""

    min_slack: float
    argmin: frozenset


def _find(parent: list, a: int) -> int:
    """Root of a in a union-find forest, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class Matroid:
    """Abstract rank oracle over ground set {0, ..., n-1}; the queries below use only `rank`."""

    n: int = 0
    kind: str = "abstract"

    def rank(self, subset) -> int:
        raise NotImplementedError

    def is_independent(self, subset) -> bool:
        s = _as_set(subset, self.n)
        return self.rank(s) == len(s)

    @property
    def full_rank(self) -> int:
        cached = getattr(self, "_full_rank", None)
        if cached is None:
            cached = self.rank(range(self.n))
            self._full_rank = cached
        return cached

    def _greedy(self, order: np.ndarray, alpha: int) -> list:
        """Elements of `order` kept while independent, stopping at alpha of them."""
        taken: list[int] = []
        for e in order:
            if self.rank(taken + [e]) == len(taken) + 1:
                taken.append(e)
                if len(taken) == alpha:
                    break
        return taken

    def _slack(self, x, i, j, window, prefix) -> SlackResult:
        """Windowed slack minimum by enumerating the subsets of the window."""
        if len(window) > W_MAX:
            raise InvalidInputError(
                f"window of size {len(window)} exceeds the brute-force cap {W_MAX} "
                f"for matroid kind {self.kind!r}"
            )
        pool = sorted(e for e in window if e != i and e != j)
        prefix_list = sorted(prefix)
        base_mass = float(sum(x[e] for e in prefix_list)) + x[i]
        best_val = None
        best_members = None
        for t in range(len(pool) + 1):
            for combo in combinations(pool, t):
                members = [i] + list(combo)
                mass = base_mass + float(sum(x[e] for e in combo))
                val = self.rank(prefix_list + members) - mass
                if best_val is None or val < best_val:
                    best_val = val
                    best_members = members
        return SlackResult(float(best_val), frozenset(best_members))

    def _bases(self, k: int) -> np.ndarray:
        """Every basis of rank k, one sorted int8 row each, in lexicographic order.

        A rank-oracle DFS extends an independent set by increasing elements
        and leaves a branch once the elements still available cannot raise
        it to rank k: if S + e is independent and r(S | {e, ..., n-1}) = k,
        augmentation extends S + e to a basis, so every branch taken ends
        in one.
        """
        n = self.n
        current: list[int] = []

        def visit(start: int):
            if len(current) == k:
                yield from current
                return
            for e in range(start, n):
                if self.rank(current + list(range(e, n))) < k:
                    return
                current.append(e)
                if self.rank(current) == len(current):
                    yield from visit(e + 1)
                current.pop()

        return np.fromiter(visit(0), dtype=np.int8).reshape(-1, k)

    def _swap_mask(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Mask of the swaps B - a + b that give a basis: rows a in B, columns b not."""
        k = len(inside)
        members = inside.tolist()
        return np.array(
            [
                [self.rank(members[:r] + members[r + 1:] + [b]) == k for b in outside.tolist()]
                for r in range(k)
            ],
            dtype=bool,
        ).reshape(k, len(outside))


def _as_set(subset, n: int) -> frozenset:
    s = frozenset(int(e) for e in subset)
    for e in s:
        if not 0 <= e < n:
            raise InvalidInputError(f"element {e} out of range for n={n}")
    return s


class PartitionMatroid(Matroid):
    """Disjoint blocks with per-block capacities; r(S) = sum min(|S&B|, cap)."""

    kind = "partition"

    def __init__(self, blocks, capacities):
        blocks = [sorted(map(int, b)) for b in blocks]
        caps = [int(c) for c in capacities]
        if len(blocks) != len(caps):
            raise InvalidInputError("one capacity per block required")
        if not blocks:
            raise InvalidInputError("partition matroid needs at least one block")
        flat = [e for b in blocks for e in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise InvalidInputError("blocks must partition {0..n-1} exactly")
        for b, c in zip(blocks, caps):
            if not b:
                raise InvalidInputError("blocks must be nonempty")
            if not 0 <= c <= len(b):
                raise InvalidInputError(f"capacity {c} invalid for block of size {len(b)}")
        self.n = n
        self.blocks = [tuple(b) for b in blocks]
        self.capacities = tuple(caps)
        self.block_of = np.empty(n, dtype=int)
        for bi, b in enumerate(self.blocks):
            for e in b:
                self.block_of[e] = bi

    def rank(self, subset) -> int:
        block_of = self.block_of.tolist()
        counts = [0] * len(self.blocks)
        for e in _as_set(subset, self.n):
            counts[block_of[e]] += 1
        return sum(map(min, counts, self.capacities))

    def _greedy(self, order: np.ndarray, alpha: int) -> list:
        block_of = self.block_of.tolist()
        spare = list(self.capacities)
        taken: list[int] = []
        for e in order:
            bi = block_of[e]
            if spare[bi]:
                spare[bi] -= 1
                taken.append(e)
                if len(taken) == alpha:
                    break
        return taken

    def _slack(self, x, i, j, window, prefix) -> SlackResult:
        """Sum of per-block scans, after one walk over the window and the prefix each."""
        block_of = self.block_of.tolist()
        pools, prefixes = [[] for _ in self.blocks], [[] for _ in self.blocks]
        for e in window - {i, j}:
            pools[block_of[e]].append(e)
        for e in prefix:
            prefixes[block_of[e]].append(e)
        total, members = 0.0, []
        for bi, (pool, p_b, cap) in enumerate(zip(pools, prefixes, self.capacities)):
            p_mass = float(sum(x[e] for e in p_b))
            forced = [i] if bi == block_of[i] else []
            if pool or forced:
                base_mass = p_mass + x[i] if forced else p_mass
                val, mem = _scan_sizes(len(p_b), cap, pool, x, forced, base_mass)
            else:  # no window element: the prefix alone
                val, mem = min(len(p_b), cap) - p_mass, []
            total += val
            members.extend(mem)
        return SlackResult(float(total), frozenset(members))

    def _bases(self, k: int) -> np.ndarray:
        """The product of the per-block combinations, sorted.

        A basis takes exactly cap(b) elements of each block b.  One block's
        combinations already come in lexicographic order; a product is
        sorted.
        """
        per_block = [
            np.fromiter(chain.from_iterable(combinations(b, c)), dtype=np.int8).reshape(comb(len(b), c), c)
            for b, c in zip(self.blocks, self.capacities)
        ]
        if len(per_block) == 1:
            return per_block[0]
        picks = np.indices([len(p) for p in per_block]).reshape(len(per_block), -1)
        bases = np.sort(np.hstack([p[i] for p, i in zip(per_block, picks)]), axis=1)
        return bases[np.lexsort(bases.T[::-1])]

    def _swap_mask(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """b joins a's block, or a block with spare capacity in B."""
        block_in, block_out = self.block_of[inside], self.block_of[outside]
        spare = np.bincount(block_in, minlength=len(self.blocks)) < np.asarray(self.capacities)
        return (block_in[:, None] == block_out) | spare[block_out]


def _scan_sizes(p_size, cap, pool, x, forced, base_mass):
    """Minimize min(p_size + |T|, cap) - mass(T) over T = forced plus a pool prefix.

    The pool is sorted by larger mass first, lower index on ties, and the
    candidate subsets are `forced` plus its first m elements,
    m = 0..len(pool); per size this maximizes the subtracted mass, so the
    scan visits the per-size minima.  mass(T) is one running sum from
    `base_mass` (prefix and forced mass) over the pool, and the first
    minimum wins, so smaller subsets win ties.
    Returns (best_value, best_members).
    """
    pool = np.array(pool, dtype=np.intp)
    pool = pool[np.lexsort((pool, -x[pool]))]
    masses = np.empty(len(pool) + 1)
    masses[0] = base_mass
    masses[1:] = x[pool]
    masses.cumsum(out=masses)
    start = p_size + len(forced)
    vals = np.arange(start, start + len(pool) + 1, dtype=float)
    vals[max(cap - start, 0) :] = cap
    vals -= masses
    best = int(vals.argmin())
    return float(vals[best]), forced + pool[:best].tolist()


class UniformMatroid(PartitionMatroid):
    """All subsets of at most k elements: one block, range(n), of capacity k."""

    kind = "uniform"

    def __init__(self, n: int, k: int):
        if n < 1:
            raise InvalidInputError("uniform matroid needs n >= 1")
        if not 0 <= k <= n:
            raise InvalidInputError(f"uniform matroid needs 0 <= k <= n, got k={k}, n={n}")
        self.k = int(k)
        super().__init__([range(n)], [k])


class GraphicMatroid(Matroid):
    """Ground set = edge list; rank = |S| minus cycle defect (forest rank)."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise InvalidInputError("graphic matroid needs at least one vertex")
        edges = [(int(u), int(v)) for u, v in edges]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidInputError(f"edge ({u},{v}) out of vertex range")
        if not edges:
            raise InvalidInputError("graphic matroid needs at least one edge")
        self.num_vertices = int(num_vertices)
        self.edges = tuple(edges)
        self.n = len(edges)

    def rank(self, subset) -> int:
        s = _as_set(subset, self.n)
        parent = list(range(self.num_vertices))
        r = 0
        for e in sorted(s):
            u, v = self.edges[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def _greedy(self, order: np.ndarray, alpha: int) -> list:
        parent = list(range(self.num_vertices))
        edges = self.edges
        taken: list[int] = []
        for e in order:
            u, v = edges[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                taken.append(e)
                if len(taken) == alpha:
                    break
        return taken

    def _slack(self, x, i, j, window, prefix) -> SlackResult:
        """Exact windowed slack minimum, one minimum cut per vertex.

        Contract the prefix and i, delete j and every edge outside the window:
        r(prefix|T) - x(prefix|T) is then a constant plus r'(T') - x(T') over
        edge sets T' of the contracted multigraph H.  Edges of zero mass never
        lower it, and a positive-mass edge whose ends H identifies is a loop,
        in every minimizer.  On the rest, min r'(T') - x(T') is the minimum over
        vertex partitions of H of sum h(U), h(U) = |U| - 1 - x(E(U)), reached
        by the positive edges inside the parts (Cunningham, "Optimal attack and
        reinforcement of a network", J. ACM 1985).  That is the Dilworth
        truncation of h: visiting the vertices in order, the optimal partition
        of the visited ones grows by merging the next vertex v with the set A
        of current parts minimizing h(v|A) - sum_{p in A} h(p), which is
        sum_{p in A} (1 - deg(p)/2) + x(delta(A|v))/2 up to a constant: one
        minimum cut with v as the source.  Taking the minimal source side each
        time gives the minimal minimizer, the set `Matroid._slack` picks in
        exact arithmetic.  The value is computed from that set as
        `Matroid._slack` does.
        """
        parent = list(range(self.num_vertices))
        for e in sorted(prefix) + [i]:
            u, v = self.edges[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
        members = [i]
        arcs = []
        for e in sorted(window - {i, j}):
            if x[e] <= 0:
                continue
            u, v = (_find(parent, a) for a in self.edges[e])
            if u == v:
                members.append(e)
            else:
                arcs.append((u, v, e))

        index = {u: k for k, u in enumerate(sorted({u for arc in arcs for u in arc[:2]}))}
        arcs = [(index[u], index[v], e) for u, v, e in arcs]
        h = len(index)
        mass_between = [[0.0] * h for _ in range(h)]
        for u, v, e in arcs:
            mass_between[u][v] += x[e]
            mass_between[v][u] += x[e]

        parts: list[list[int]] = []
        label = [0] * h
        for v in range(h):
            # Nodes: the current parts 0..q-1, then v (the source) and the sink.
            q = len(parts)
            label[v] = q
            w = [[0.0] * (q + 1) for _ in range(q + 1)]
            for a in range(v + 1):
                for b in range(a):
                    if label[a] != label[b]:
                        w[label[a]][label[b]] += mass_between[a][b]
                        w[label[b]][label[a]] += mass_between[a][b]
            cap = [[c / 2.0 for c in row] + [0.0] for row in w] + [[0.0] * (q + 2)]
            for p in range(q):
                # Part p on the source side costs 1 - deg(p)/2.
                cost = 1.0 - sum(w[p]) / 2.0
                if cost > 0:
                    cap[p][q + 1] = cost
                else:
                    cap[q][p] -= cost
            merged = set(_min_cut_source_side(cap, q, q + 1)) - {q}
            joined = [a for p in sorted(merged) for a in parts[p]] + [v]
            parts = [part for p, part in enumerate(parts) if p not in merged] + [joined]
            for k, part in enumerate(parts):
                for a in part:
                    label[a] = k

        members.extend(e for u, v, e in arcs if label[u] == label[v])
        prefix_list = sorted(prefix)
        combo = sorted(members[1:])
        mass = float(sum(x[e] for e in prefix_list)) + x[i] + float(sum(x[e] for e in combo))
        val = self.rank(prefix_list + [i] + combo) - mass
        return SlackResult(float(val), frozenset(members))


def _residual_tree(res, source, tol):
    """Breadth-first predecessors over residual capacities above tol; -1 if unreached."""
    prev = [-1] * len(res)
    prev[source] = source
    queue = [source]
    for a in queue:
        for b, r in enumerate(res[a]):
            if r > tol and prev[b] < 0:
                prev[b] = a
                queue.append(b)
    return prev


def _min_cut_source_side(cap, source, sink) -> list:
    """Minimal source side of a minimum source-sink cut (dense Edmonds-Karp).

    After the maximum flow, the nodes reachable from the source along
    residual capacities above _CUT_TOL times the total capacity form the
    source side that every minimum cut's source side contains.
    """
    res = [row[:] for row in cap]
    tol = _CUT_TOL * sum(map(sum, cap))
    while True:
        prev = _residual_tree(res, source, tol)
        if prev[sink] < 0:
            return [u for u, p in enumerate(prev) if p >= 0]
        path = []
        b = sink
        while b != source:
            path.append((prev[b], b))
            b = prev[b]
        flow = min(res[a][b] for a, b in path)
        for a, b in path:
            res[a][b] -= flow
            res[b][a] += flow


class ExplicitRankMatroid(Matroid):
    """Rank table indexed by subset bitmask (element e <-> bit e); n <= 20, axioms checked."""

    kind = "explicit_rank"

    def __init__(self, ranks):
        ranks = np.asarray(ranks, dtype=int)
        size = len(ranks)
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise InvalidInputError("rank table length must be a power of two >= 2")
        if n > W_MAX:
            raise InvalidInputError(f"explicit rank tables support n <= {W_MAX}")
        validate_rank_table(ranks)
        self.n = n
        self.ranks = ranks

    def rank(self, subset) -> int:
        mask = 0
        for e in _as_set(subset, self.n):
            mask |= 1 << e
        return int(self.ranks[mask])

    def _greedy(self, order: np.ndarray, alpha: int) -> list:
        ranks = self.ranks
        mask = 0
        taken: list[int] = []
        for e in order:
            grown = mask | 1 << e
            if ranks[grown] == len(taken) + 1:
                mask = grown
                taken.append(e)
                if len(taken) == alpha:
                    break
        return taken

    @classmethod
    def from_matroid(cls, m: Matroid, *, truncate_to: int | None = None):
        """Tabulate another matroid's rank function (optionally truncated)."""
        if m.n > W_MAX:
            raise InvalidInputError(f"tabulation supports n <= {W_MAX}")
        table = np.zeros(1 << m.n, dtype=int)
        for mask in range(1, 1 << m.n):
            s = [e for e in range(m.n) if mask >> e & 1]
            table[mask] = m.rank(s)
        if truncate_to is not None:
            table = np.minimum(table, int(truncate_to))
        return cls(table)


def validate_rank_table(ranks) -> None:
    """Check the matroid rank axioms on an explicit table; raise if violated.

    Uses the local form, with array work per element and per pair:
    r(0) == 0; every gain r(S+e) - r(S) is 0 or 1 (monotone, unit
    increase); and r(S+e+f) + r(S) <= r(S+e) + r(S+f) for e < f not in S
    (submodular).  Together these are equivalent to the global axioms.
    Monotonicity is checked for every element first, so a lowered entry is
    reported as the monotonicity failure it is.
    """
    ranks = np.asarray(ranks, dtype=int)
    n = len(ranks).bit_length() - 1
    if ranks[0] != 0:
        raise InvalidInputError("rank of the empty set must be 0")

    def mask(clear: int, k: int) -> int:
        """The k-th mask, in increasing order, with the bits of `clear` unset."""
        return int(np.flatnonzero((np.arange(1 << n) & clear) == 0)[k])

    # gains[e][k] = r(S+e) - r(S) clipped to [-1, 2], S the k-th mask without e.
    gains = [np.diff(ranks.reshape(-1, 2, 1 << e), axis=1).clip(-1, 2).astype(np.int8).ravel()
             for e in range(n)]
    for gain_at, axiom, effect in ((-1, "is not monotone", "lowers the rank"),
                                   (2, "breaks unit increase", "raises the rank by more than 1")):
        for e, gain in enumerate(gains):
            bad = np.flatnonzero(gain == gain_at)
            if len(bad):
                raise InvalidInputError(
                    f"rank table {axiom}: adding element {e} to mask {mask(1 << e, bad[0])} {effect}"
                )
    for e, gain in enumerate(gains):
        for f in range(e + 1, n):
            # Bit f of S is bit f - 1 of the index into gains[e].
            halves = gain.reshape(-1, 2, 1 << (f - 1))
            bad = np.flatnonzero(halves[:, 1] > halves[:, 0])
            if len(bad):
                raise InvalidInputError(
                    f"rank table is not submodular at mask {mask(1 << e | 1 << f, bad[0])} "
                    f"with elements {e}, {f}"
                )


def greedy_basis_lmo(m: Matroid, alpha: int, w) -> np.ndarray:
    """Max-weight basis of the rank-alpha truncation, as a 0/1 float vector.

    Elements are scanned by decreasing weight (ties: lower index first) and
    kept while independent, stopping at alpha elements.  Because every basis
    of the truncation has exactly alpha elements, this greedy scan maximizes
    w @ x over the slice vertices even for negative weights.
    """
    alpha = int(alpha)
    if not 1 <= alpha <= m.full_rank:
        raise InvalidInputError(f"alpha must be in [1, {m.full_rank}], got {alpha}")
    w = np.asarray(w, dtype=float)
    if w.shape != (m.n,):
        raise InvalidInputError(f"weights must have shape ({m.n},), got {w.shape}")
    taken = m._greedy(np.lexsort((np.arange(m.n), -w)), alpha)
    if len(taken) != alpha:
        raise InternalInvariantError("greedy failed to reach the requested truncation rank")
    x = np.zeros(m.n)
    x[taken] = 1.0
    return x


def slack_minimize(m: Matroid, x, i, j, window, prefix=frozenset()) -> SlackResult:
    """Minimize r(prefix|T) - x(prefix|T) over T <= window with i in T, j not.

    `j=None` drops the exclusion constraint (then T ranges over all window
    subsets containing i).  `prefix` must be disjoint from the window; the
    returned argmin is T itself, not prefix|T.  The search is the matroid's
    own `_slack`: partition and graphic matroids search a window of any
    size, and other kinds enumerate its subsets, which needs a window of at
    most W_MAX elements.
    """
    x = np.asarray(x, dtype=float)
    window_set = _as_set(window, m.n)
    prefix_set = _as_set(prefix, m.n)
    if window_set & prefix_set:
        raise InvalidInputError("window and prefix must be disjoint")
    i = int(i)
    if i not in window_set:
        raise InvalidInputError(f"element i={i} must lie in the window")
    if j is not None:
        j = int(j)
        if j not in window_set:
            raise InvalidInputError(f"element j={j} must lie in the window")
        if j == i:
            raise InvalidInputError("i and j must differ")
    return m._slack(x, i, j, window_set, prefix_set)


@dataclass(frozen=True)
class FractionalPoint:
    """A point of the matroid polytope with its mass and optional cached value."""

    x: np.ndarray
    mass: float
    value: float | None = None

    @classmethod
    def of(cls, x, value: float | None = None) -> "FractionalPoint":
        x = np.asarray(x, dtype=float).copy()
        x.setflags(write=False)
        return cls(x=x, mass=float(x.sum()), value=value)
