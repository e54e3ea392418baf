"""Matroid rank oracles and matroid-polytope primitives.

Supported matroid kinds: partition, uniform (a partition matroid with one
block), graphic (ground set = edges), and explicit rank tables for small
ground sets.  On top of the rank oracle this module provides the pieces
the solver and the rounding procedure need:

  * greedy_basis_lmo   -- max-weight basis of the rank-alpha truncation;
                          this is exact linear maximization over the slice
                          {x in P(M) : sum(x) == alpha} because that slice
                          is the base polytope of the truncated matroid
  * slack_minimize     -- min of r(prefix|T) - x(prefix|T) over windowed
                          subsets T that contain i and avoid j

Slack searches scan block counts for partition matroids, uniform ones
included, and take one minimum cut per vertex of the contracted graph for
graphic matroids; only explicit rank tables (n <= W_MAX) and rank-only
subclasses enumerate the subsets of a window, which must then hold at most
W_MAX elements.
Tie-breaking is deterministic everywhere: smaller subsets first, then
lexicographic by sorted element tuple; per-size selections prefer larger x
then lower index.  The graphic search returns the minimal minimizer, which
is the smallest one and unique in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InternalInvariantError, InvalidInputError

# Hard cap on brute-force subset windows (explicit rank tables, rank-only kinds).
W_MAX = 20
# Residual capacities at or below this fraction of a network's total
# capacity count as saturated when a minimal minimum cut is read off.
_CUT_TOL = 1e-12


class Matroid:
    """Abstract rank oracle over ground set {0, ..., n-1}."""

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

    def incremental(self):
        """Stateful one-element-at-a-time independence oracle."""
        return _GenericIncremental(self)


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

    def incremental(self):
        return _PartitionIncremental(self)


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

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for e in sorted(s):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def incremental(self):
        return _GraphicIncremental(self)


class ExplicitRankMatroid(Matroid):
    """Rank table indexed by subset bitmask (element e <-> bit e); n <= 20."""

    kind = "explicit_rank"

    def __init__(self, ranks, *, validate: bool | None = None):
        ranks = np.asarray(ranks, dtype=int)
        size = len(ranks)
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise InvalidInputError("rank table length must be a power of two >= 2")
        if n > W_MAX:
            raise InvalidInputError(f"explicit rank tables support n <= {W_MAX}")
        self.n = n
        self.ranks = ranks
        if ranks[0] != 0:
            raise InvalidInputError("rank of the empty set must be 0")
        if validate is None:
            validate = n <= 10
        if validate:
            validate_rank_table(ranks)

    def rank(self, subset) -> int:
        mask = 0
        for e in _as_set(subset, self.n):
            mask |= 1 << e
        return int(self.ranks[mask])

    def rank_mask(self, mask: int) -> int:
        return int(self.ranks[mask])

    def incremental(self):
        return _ExplicitIncremental(self)

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
        return cls(table, validate=False)


def validate_rank_table(ranks) -> None:
    """Check the matroid rank axioms on an explicit table; raise if violated.

    Uses the local form: r(0) == 0, unit increments, and
    r(S+e) - r(S) >= r(S+e+f) - r(S+f)  for all S and e, f not in S,
    which together are equivalent to the global axioms.
    """
    ranks = np.asarray(ranks, dtype=int)
    n = len(ranks).bit_length() - 1
    if ranks[0] != 0:
        raise InvalidInputError("rank of empty set must be 0")
    for mask in range(1 << n):
        r = ranks[mask]
        for e in range(n):
            if mask >> e & 1:
                continue
            gain_e = ranks[mask | 1 << e] - r
            if gain_e not in (0, 1):
                raise InvalidInputError(f"rank gain of element {e} at mask {mask} is {gain_e}")
            for f in range(n):
                if f == e or mask >> f & 1:
                    continue
                with_f = mask | 1 << f
                if ranks[with_f | 1 << e] - ranks[with_f] > gain_e:
                    raise InvalidInputError(
                        f"submodularity fails at mask {mask} with elements {e}, {f}"
                    )


class _PartitionIncremental:
    def __init__(self, m: PartitionMatroid):
        self.block_of = m.block_of.tolist()
        self.spare = list(m.capacities)

    def try_add(self, e) -> bool:
        bi = self.block_of[e]
        if self.spare[bi]:
            self.spare[bi] -= 1
            return True
        return False


class _GraphicIncremental:
    def __init__(self, m: GraphicMatroid):
        self.m = m
        self.parent = list(range(m.num_vertices))

    def _find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def try_add(self, e) -> bool:
        u, v = self.m.edges[e]
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


class _ExplicitIncremental:
    def __init__(self, m: ExplicitRankMatroid):
        self.m = m
        self.mask = 0
        self.rank = 0

    def try_add(self, e) -> bool:
        new_mask = self.mask | 1 << e
        if self.m.rank_mask(new_mask) == self.rank + 1:
            self.mask = new_mask
            self.rank += 1
            return True
        return False


class _GenericIncremental:
    def __init__(self, m: Matroid):
        self.m = m
        self.members = []

    def try_add(self, e) -> bool:
        cand = self.members + [e]
        if self.m.rank(cand) == len(cand):
            self.members = cand
            return True
        return False


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
    order = np.lexsort((np.arange(m.n), -w))
    oracle = m.incremental()
    x = np.zeros(m.n)
    taken = 0
    for e in order:
        if oracle.try_add(int(e)):
            x[e] = 1.0
            taken += 1
            if taken == alpha:
                break
    if taken != alpha:
        raise InternalInvariantError("greedy failed to reach the requested truncation rank")
    return x


@dataclass(frozen=True)
class SlackResult:
    """Windowed slack minimum: value and the achieving subset T."""

    min_slack: float
    argmin: frozenset


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


def _slack_partition(m: PartitionMatroid, x, i, j, window, prefix):
    """Sum of per-block scans, after one walk over the window and the prefix each."""
    block_of = m.block_of.tolist()
    pools, prefixes = [[] for _ in m.blocks], [[] for _ in m.blocks]
    for e in window - {i, j}:
        pools[block_of[e]].append(e)
    for e in prefix:
        prefixes[block_of[e]].append(e)
    total, members = 0.0, []
    for bi, (pool, p_b, cap) in enumerate(zip(pools, prefixes, m.capacities)):
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


def _slack_brute(m: Matroid, x, i, j, window, prefix):
    if len(window) > W_MAX:
        raise InvalidInputError(
            f"window of size {len(window)} exceeds the brute-force cap {W_MAX} "
            f"for matroid kind {m.kind!r}"
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
            val = m.rank(prefix_list + members) - mass
            if best_val is None or val < best_val:
                best_val = val
                best_members = members
    return SlackResult(float(best_val), frozenset(best_members))


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


def _slack_graphic(m: GraphicMatroid, x, i, j, window, prefix):
    """Exact windowed slack minimum of a graphic matroid, one minimum cut per vertex.

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
    time gives the minimal minimizer, the set `_slack_brute` picks in exact
    arithmetic.  The value is computed from that set as `_slack_brute` does.
    """
    forest = _GraphicIncremental(m)
    for e in sorted(prefix) + [i]:
        forest.try_add(e)
    find = forest._find
    members = [i]
    arcs = []
    for e in sorted(window - {i, j}):
        if x[e] <= 0:
            continue
        u, v = (find(a) for a in m.edges[e])
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
    val = m.rank(prefix_list + [i] + combo) - mass
    return SlackResult(float(val), frozenset(members))


def slack_minimize(m: Matroid, x, i, j, window, prefix=frozenset()) -> SlackResult:
    """Minimize r(prefix|T) - x(prefix|T) over T <= window with i in T, j not.

    `j=None` drops the exclusion constraint (then T ranges over all window
    subsets containing i).  `prefix` must be disjoint from the window; the
    returned argmin is T itself, not prefix|T.  A block-count scan handles
    partition matroids, uniform ones included, and minimum cuts handle
    graphic ones, for a window of any size.  Explicit rank tables and
    rank-only kinds brute-force the window, which must then have size
    <= W_MAX.
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

    if isinstance(m, PartitionMatroid):
        return _slack_partition(m, x, i, j, window_set, prefix_set)
    if isinstance(m, GraphicMatroid):
        return _slack_graphic(m, x, i, j, window_set, prefix_set)
    return _slack_brute(m, x, i, j, window_set, prefix_set)


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
