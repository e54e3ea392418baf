"""Matroid rank oracles and the queries the solver makes of them.

Supported matroid kinds: partition, uniform (a partition matroid with one
block), graphic (ground set = edges), and explicit rank tables for small
ground sets.  Besides `rank`, the solver, the rounding and the baselines ask
a matroid a few private queries.  `Matroid` answers each from the rank
oracle alone, and each kind overrides those it answers faster:

  * `_independent` -- which rows of elements are independent sets, one rank
                    call per row (graphic: a row-parallel union-find;
                    explicit rank: one table read of the rows' bitmasks)
  * `_greedy`    -- greedy independent set along an order, up to a count
                    of elements (partition: block counts; graphic: a
                    union-find forest; explicit rank: table lookups)
  * `_slack`     -- min of r(prefix|T) - x(prefix|T) over windowed T that
                    contain i and avoid j (graphic: one minimum cut per
                    contracted vertex; explicit rank: the table read at every
                    window subset at once; otherwise, partition included,
                    the subsets of a window of at most W_MAX elements, one
                    rank call each)
  * `_ring_piece`, `_ring_step` -- what the rounding asks of a slack
                    search, in closed form (partition) or None

`is_independent`, the bases (`_bases`) and the swaps B - a + b that give a
basis (`_swap_mask`) follow from `_independent`.  Partition bases and swaps
keep closed forms (block products and counts), as do graphic swaps: k
forests B - a, not k (n - k) forests B - a + b.

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

# Hard cap on the elements of an explicit rank table and on the windows
# that rank-only kinds search subset by subset.
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


def _link(parent: list, u: int, v: int) -> bool:
    """Join the trees of u and v in a union-find forest; False if they were one tree."""
    ru, rv = _find(parent, u), _find(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


def _climb(parent: np.ndarray, at: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Roots of vertices v in a stack of union-find parent arrays, row `at` each."""
    while True:
        up = parent[at, v]
        if (up == v).all():
            return v
        v = up


def _combinations(elements, k: int) -> np.ndarray:
    """The k-subsets of `elements`, one row each, in lexicographic order.

    Rows have the smallest signed integer dtype that holds every element:
    the one that holds -(largest + 1) also holds the largest.
    """
    dtype = np.min_scalar_type(-1 - max(elements, default=0))
    rows = np.fromiter(chain.from_iterable(combinations(elements, k)), dtype=dtype)
    return rows.reshape(comb(len(elements), k), k)


def _without_each(inside: np.ndarray) -> np.ndarray:
    """Row a holds B without its a-th element, for the k elements of B."""
    k = len(inside)
    return inside[np.arange(k - 1) + (np.arange(k - 1) >= np.arange(k)[:, None])]


class Matroid:
    """Abstract rank oracle over ground set {0, ..., n-1}; the queries below use only `rank`."""

    n: int = 0
    kind: str = "abstract"

    def rank(self, subset) -> int:
        raise NotImplementedError

    def is_independent(self, subset) -> bool:
        row = np.array([sorted(_as_set(subset, self.n))], dtype=np.intp)
        return bool(self._independent(row)[0])

    @property
    def full_rank(self) -> int:
        cached = getattr(self, "_full_rank", None)
        if cached is None:
            cached = self.rank(range(self.n))
            self._full_rank = cached
        return cached

    def _greedy(self, order: np.ndarray, count: int) -> list:
        """Elements of `order` kept while independent, stopping at `count` of them."""
        taken: list[int] = []
        for e in order:
            if self.rank(taken + [e]) == len(taken) + 1:
                taken.append(e)
                if len(taken) == count:
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

    def _ring_piece(self, ring) -> list | None:
        """First tight piece of a sorted fractional ring (itself if final); None: search."""
        return None

    def _ring_step(self, x, inc, dec, ring) -> tuple | None:
        """(longest step along e_inc - e_dec, the piece then tight); None: search."""
        return None

    def _independent(self, rows: np.ndarray) -> np.ndarray:
        """Which rows of element indices are independent sets, one rank call each."""
        return np.array([self.rank(row) == len(row) for row in rows.tolist()], dtype=bool)

    def _bases(self, k: int) -> np.ndarray:
        """Every basis of rank k, one sorted row each, in lexicographic order."""
        rows = _combinations(range(self.n), k)
        return rows[self._independent(rows)]

    def _swap_mask(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Mask of the swaps B - a + b that give a basis: rows a in B, columns b not."""
        k = len(inside)
        rows = np.hstack([np.repeat(_without_each(inside), len(outside), axis=0),
                          np.tile(outside, k)[:, None]])
        return self._independent(rows).reshape(k, len(outside))


def _as_set(subset, n: int) -> frozenset:
    s = frozenset(int(e) for e in subset)
    for e in s:
        if not 0 <= e < n:
            raise InvalidInputError(f"element {e} out of range for n={n}")
    return s


class PartitionMatroid(Matroid):
    """Disjoint blocks with per-block capacities; r(S) = sum min(|S&B|, cap).

    The rounding's tight sets have a closed form.  At a base x every block
    b is saturated, x(b) = cap(b), and r(S) - x(S) is a sum of per-block
    slacks min(|S&b|, cap(b)) - x(S&b), each >= 0; so S is tight iff each
    block's part is.  Say b holds p integral elements and the fractional
    part F_b, of mass c = cap(b) - p.  A tight part of b then holds only
    integral elements, or all p and the whole of F_b.  So a maximal chain
    has the integral singletons and one ring F_b per block: a fractional
    ring splits into its blocks' parts (`_ring_piece`).  In a ring F_b,
    take any T holding inc but not dec.  If |T| <= c, its slack is the sum
    of 1 - x_t over T, at least 1 - x_inc; else it is c - x(T) =
    x(F_b - T), at least x_dec.  So the step is min(x_dec, 1 - x_inc), and
    the only refinement is {inc} (`_ring_step`).  `slack_minimize`
    enumerates subsets (`Matroid._slack`), so its windows hold at most
    W_MAX elements.
    """

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

    def _greedy(self, order: np.ndarray, count: int) -> list:
        spare = list(self.capacities)
        taken: list[int] = []
        for e, bi in zip(order.tolist(), self.block_of[order].tolist()):
            if spare[bi]:
                spare[bi] -= 1
                taken.append(e)
                if len(taken) == count:
                    break
        return taken

    def _ring_piece(self, ring) -> list:
        """The part of the ring in its smallest element's block."""
        blocks = self.block_of[ring].tolist()
        return [e for e, b in zip(ring, blocks) if b == blocks[0]]

    def _ring_step(self, x, inc, dec, ring) -> tuple | None:
        """min(x_dec, 1 - x_inc) and {inc}; a ring across blocks (no maximal chain) is searched."""
        if (self.block_of[list(ring)] != self.block_of[inc]).any():
            return None
        return min(float(x[dec]), 1.0 - float(x[inc])), frozenset({inc})

    def _bases(self, k: int) -> np.ndarray:
        """The product of the per-block combinations, sorted.

        A basis takes exactly cap(b) elements of each block b.  One block's
        combinations already come in lexicographic order; a product is
        sorted.
        """
        per_block = [_combinations(b, c) for b, c in zip(self.blocks, self.capacities)]
        if len(per_block) == 1:
            return per_block[0]
        picks = np.indices([len(p) for p in per_block]).reshape(len(per_block), -1)
        bases = np.sort(np.hstack([p[i] for p, i in zip(per_block, picks)]), axis=1)
        return bases[np.lexsort(bases.T[::-1])]

    def _swap_mask(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """b joins a's block, or a block with spare capacity in B.

        Only a block that B fills can refuse b, and only for the a outside
        it.  When no block can, as for a uniform matroid, no block is
        compared.
        """
        block_in = self.block_of[inside]
        held = np.bincount(block_in, minlength=len(self.blocks))
        refusing = (held >= self.capacities) & (held < len(inside))
        if not refusing.any():
            return np.ones((len(inside), len(outside)), dtype=bool)
        block_out = self.block_of[outside]
        return (block_in[:, None] == block_out) | ~refusing[block_out]


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
        # Edge ends with the vertices numbered in the order edges first touch them.
        label: dict = {}
        ends = [label.setdefault(v, len(label)) for e in edges for v in e]
        self._ends = np.array(ends, dtype=np.min_scalar_type(len(label))).reshape(-1, 2)

    def rank(self, subset) -> int:
        parent = list(range(self.num_vertices))
        return sum(_link(parent, *self.edges[e]) for e in sorted(_as_set(subset, self.n)))

    def _greedy(self, order: np.ndarray, count: int) -> list:
        parent = list(range(self.num_vertices))
        edges = self.edges
        taken: list[int] = []
        for e in order:
            if _link(parent, *edges[e]):
                taken.append(e)
                if len(taken) == count:
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
            _link(parent, *self.edges[e])
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

    def _independent(self, rows: np.ndarray) -> np.ndarray:
        """The rows of edges that hold no cycle."""
        return self._forests(rows)[0]

    def _swap_mask(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """B - a + b is a basis iff B - a is a forest and b joins two of its trees."""
        k = len(inside)
        forest, parent = self._forests(_without_each(inside))
        at = np.arange(k)[:, None]
        ends = self._ends[outside]
        return forest[:, None] & (_climb(parent, at, ends[:, 0]) != _climb(parent, at, ends[:, 1]))

    def _forests(self, rows: np.ndarray):
        """Row-parallel union-find over rows of edge indices.

        Each row owns a parent array over the vertices.  Column by column,
        both ends of every row's edge climb to their roots by pointer
        jumping, and the first root is linked under the second; an edge
        whose ends share a root closes a cycle.  Returns which rows are
        forests, and the parent arrays.
        """
        h = int(self._ends.max()) + 1
        parent = np.tile(np.arange(h, dtype=self._ends.dtype), (len(rows), 1))
        at = np.arange(len(rows))
        forest = np.ones(len(rows), dtype=bool)
        for col in rows.T:
            ends = self._ends[col]
            ru, rv = _climb(parent, at, ends[:, 0]), _climb(parent, at, ends[:, 1])
            forest &= ru != rv
            parent[at, ru] = rv
        return forest, parent


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

    def _greedy(self, order: np.ndarray, count: int) -> list:
        ranks = self.ranks
        mask = 0
        taken: list[int] = []
        for e in order:
            grown = mask | 1 << e
            if ranks[grown] == len(taken) + 1:
                mask = grown
                taken.append(e)
                if len(taken) == count:
                    break
        return taken

    def _slack(self, x, i, j, window, prefix) -> SlackResult:
        """Every subset of the window at once, read off the table.

        The subsets of the pool (the window without i and j) are numbered
        by bitmask, bit b for the b-th smallest pool element, and their
        masses and table masks are filled one bit at a time: the subsets
        holding bit b are those below 2^b plus that element.  So each mass
        adds its terms from the smallest element up, as `Matroid._slack`
        sums a combination, and every value is bit-identical to its own.
        Among exact minima the fewest elements win, then the first sorted
        tuple: the set the default's enumeration keeps.
        """
        pool = sorted(window - {i, j})
        prefix_list = sorted(prefix)
        base_mass = float(sum(x[e] for e in prefix_list)) + x[i]
        mass = np.zeros(1 << len(pool))
        masks = np.empty(1 << len(pool), dtype=np.intp)
        masks[0] = sum(1 << e for e in prefix_list) | 1 << i
        for b, e in enumerate(pool):
            mass[1 << b : 2 << b] = mass[: 1 << b] + x[e]
            masks[1 << b : 2 << b] = masks[: 1 << b] | 1 << e
        vals = self.ranks[masks] - (base_mass + mass)
        ties = np.flatnonzero(vals == vals.min())
        # The first sorted tuple of a size holds the smallest element where
        # two sets differ: the largest bit row read from bit 0.
        bits = ties[:, None] >> np.arange(len(pool)) & 1
        best = int(ties[np.lexsort([*-bits.T[::-1], bits.sum(axis=1)])[0]])
        members = [i] + [e for b, e in enumerate(pool) if best >> b & 1]
        return SlackResult(float(vals[best]), frozenset(members))

    def _independent(self, rows: np.ndarray) -> np.ndarray:
        """The rows whose table entry is their length."""
        bit = 1 << np.arange(self.n)
        masks = np.zeros(len(rows), dtype=np.intp)
        for col in rows.T:
            masks |= bit[col]
        return self.ranks[masks] == rows.shape[1]

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


def greedy_basis_lmo(m: Matroid, w) -> np.ndarray:
    """Max-weight basis of M, as a 0/1 float vector.

    The bases are the vertices of the base polytope, so this is the linear
    subproblem of the relaxation.  Elements are scanned by decreasing weight
    (ties: lower index first) and kept while independent, stopping at
    k = rank(M) elements.  Because every basis has exactly k elements, this
    greedy scan maximizes w @ x over the base polytope even for negative
    weights.  A matroid of rank 0 gives the empty basis.

    Only a prefix of that order is sorted: the c heaviest elements and every
    one tied with the lightest of them.  A scan that takes k elements of the
    prefix takes what it would take along the full order.  c starts at k (1
    at rank 0) and grows fourfold until the scan fills or the prefix is all
    of the ground set.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (m.n,):
        raise InvalidInputError(f"weights must have shape ({m.n},), got {w.shape}")
    k = m.full_rank
    keys, c = -w, max(k, 1)
    while True:
        if c < m.n:
            part = keys.copy()
            part.partition(c - 1)
            prefix = (keys <= part[c - 1]).nonzero()[0]
        else:
            prefix = np.arange(m.n)
        # A stable sort keeps index order among equal keys.
        taken = m._greedy(prefix[keys[prefix].argsort(kind="stable")], k)
        if len(taken) == k or len(prefix) == m.n:
            break
        c *= 4
    if len(taken) != k:
        raise InternalInvariantError("greedy failed to reach the rank")
    x = np.zeros(m.n)
    x[taken] = 1.0
    return x


def slack_minimize(m: Matroid, x, i, j, window, prefix=frozenset()) -> SlackResult:
    """Minimize r(prefix|T) - x(prefix|T) over T <= window with i in T, j not.

    `j=None` drops the exclusion constraint (then T ranges over all window
    subsets containing i).  `prefix` must be disjoint from the window; the
    returned argmin is T itself, not prefix|T.  The search is the matroid's
    own `_slack`: graphic matroids search a window of any size, explicit
    rank tables read every subset of the window off the table at once, and
    other kinds, partition ones included, enumerate its subsets with one
    rank call each, which needs a window of at most W_MAX elements.
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
