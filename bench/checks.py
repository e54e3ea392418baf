"""Output checks for `divmax solve` reports, made apart from the program.

Every check recomputes what it needs from the instance document with the
benchmark's own code: distances with numpy/scipy, matroid oracles with
size checks, block counts, union-find and table lookups.  Nothing is
compared against a stored copy of an earlier report.  Tolerances are
relative to the instance's scale, so a copy of an instance scaled by 1e-8
is held to the same standard as the original.

`check_report` returns a list of problems; an empty list accepts the report.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

# Relative tolerance for equalities (reports carry %.12g floats).
REL_EQ = 1e-8
# Relative slack for the inequalities: guarantee, bound chain, polytope.
REL_INEQ = 1e-7
# Largest graph whose forest-polytope constraints are all checked.
GRAPHIC_MAX_VERTICES = 16


def distances(spec: dict, rows, cols) -> np.ndarray:
    """d(i, j) for i in rows, j in cols (0-based), from the document."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    kind = spec["kind"]
    if kind == "explicit":
        m = np.asarray(spec["matrix"], dtype=float)
        return m[np.ix_(rows, cols)]
    if kind in ("l1", "l2"):
        pts = np.asarray(spec["points"], dtype=float)
        metric = "cityblock" if kind == "l1" else "euclidean"
        return cdist(pts[rows], pts[cols], metric)
    if kind == "cosine":
        pts = np.asarray(spec["points"], dtype=float)
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return np.arccos(np.clip(unit[rows] @ unit[cols].T, -1.0, 1.0))
    if kind == "jaccard":
        sets = [set(s) for s in spec["sets"]]
        out = np.zeros((len(rows), len(cols)))
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                union = len(sets[i] | sets[j])
                out[a, b] = 1.0 - len(sets[i] & sets[j]) / union if union else 0.0
        return out
    raise ValueError(f"benchmark has no distance oracle for kind {kind!r}")


def _find(parent, a):
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class Oracle:
    """The benchmark's own view of a document's matroid (0-based elements)."""

    def __init__(self, spec: dict, n: int):
        self.n = n
        self.kind = spec["kind"]
        if self.kind == "uniform":
            self.rank = int(spec["k"])
        elif self.kind == "partition":
            self.blocks = [[int(e) - 1 for e in b] for b in spec["blocks"]]
            self.caps = [int(c) for c in spec["capacities"]]
            self.rank = sum(min(c, len(b)) for b, c in zip(self.blocks, self.caps))
        elif self.kind == "graphic":
            self.num_vertices = int(spec["num_vertices"])
            self.edges = [(int(u) - 1, int(v) - 1) for u, v in spec["edges"]]
            self.rank = self.forest_size(range(n))
        elif self.kind == "explicit_rank":
            self.table = np.asarray(spec["ranks"], dtype=int)
            self.rank = int(self.table[-1])
        else:
            raise ValueError(f"benchmark has no oracle for matroid kind {self.kind!r}")

    def forest_size(self, edges) -> int:
        """Rank of an edge set in the graphic matroid, by union-find."""
        parent = list(range(self.num_vertices))
        size = 0
        for e in edges:
            u, v = self.edges[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    def is_basis(self, basis) -> bool:
        b = sorted(basis)
        if len(b) != self.rank or len(set(b)) != len(b):
            return False
        if any(not 0 <= e < self.n for e in b):
            return False
        if self.kind == "uniform":
            return True
        if self.kind == "partition":
            inside = set(b)
            return all(
                sum(e in inside for e in block) <= cap
                for block, cap in zip(self.blocks, self.caps)
            )
        if self.kind == "graphic":
            return self.forest_size(b) == len(b)
        mask = sum(1 << e for e in b)
        return int(self.table[mask]) == len(b)

    def polytope_excess(self, x: np.ndarray) -> float:
        """Largest x(S) - r(S) over the constraints of the matroid polytope.

        Uniform: the ground set.  Partition: each block against its
        capacity.  Graphic: the forest polytope, x(E(U)) <= |U| - 1 for
        every vertex set U (graphs of up to GRAPHIC_MAX_VERTICES vertices).
        Explicit rank: every subset, against the table.
        """
        if self.kind == "uniform":
            return float(x.sum() - self.rank)
        if self.kind == "partition":
            return max(float(x[block].sum() - cap) for block, cap in zip(self.blocks, self.caps))
        if self.kind == "graphic":
            if self.num_vertices > GRAPHIC_MAX_VERTICES:
                return -math.inf
            masks = np.arange(1, 1 << self.num_vertices)[:, None]
            u, v = np.array(self.edges).T
            inside = (masks >> u) & (masks >> v) & 1
            return float((inside @ x - (np.bitwise_count(masks[:, 0]) - 1)).max())
        sums = np.zeros(1 << self.n)
        for e in range(self.n):
            sums[1 << e:2 << e] = sums[:1 << e] + x[e]
        return float((sums - self.table).max())

    def bases(self):
        """All bases, as tuples of sorted 0-based element indices."""
        if self.kind == "uniform":
            return itertools.combinations(range(self.n), self.rank)
        if self.kind == "partition":
            per_block = [itertools.combinations(b, min(c, len(b))) for b, c in zip(self.blocks, self.caps)]
            return (tuple(sorted(itertools.chain.from_iterable(choice)))
                    for choice in itertools.product(*per_block))
        return (c for c in itertools.combinations(range(self.n), self.rank) if self.is_basis(c))


def exact_opt(doc: dict, chunk: int = 20000) -> float:
    """max over bases B of sum_{i,j in B} d(i,j) + sum_{i in B} w_i, by enumeration."""
    n = doc["n"]
    d = distances(doc["distance"], range(n), range(n))
    w = np.zeros(n) if doc.get("scores") is None else np.asarray(doc["scores"], dtype=float)
    bases = Oracle(doc["matroid"], n).bases()
    best = -math.inf
    while True:
        b = np.array(list(itertools.islice(bases, chunk)), dtype=int)
        if len(b) == 0:
            return best
        vals = d[b[:, :, None], b[:, None, :]].sum(axis=(1, 2)) + w[b].sum(axis=1)
        best = max(best, float(vals.max()))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_EQ * scale


def check_report(doc: dict, report: dict, opt: float | None = None, oracle: Oracle | None = None) -> list:
    """Problems found in one solve report of `doc`; [] when it is accepted.

    Reads only `rounding.basis`, `rounding.value`, `opt_upper_bound`,
    `x_star` and the baseline values.  `opt`, when given, is the exact
    optimum, and the chain opt_upper_bound >= OPT >= g(B) is checked too.
    """
    n = doc["n"]
    oracle = oracle or Oracle(doc["matroid"], n)
    w = np.zeros(n) if doc.get("scores") is None else np.asarray(doc["scores"], dtype=float)
    basis = [int(e) - 1 for e in report["rounding"]["basis"]]
    x = np.asarray(report["x_star"], dtype=float)
    ub = float(report["opt_upper_bound"])
    value = float(report["rounding"]["value"])
    local = report["baselines"]["local_search"]
    local_elems = [int(e) - 1 for e in local["elements"]]
    if x.shape != (n,):
        return [f"x_star has shape {x.shape}, expected ({n},)"]
    if not oracle.is_basis(basis):
        return [f"rounding.basis {sorted(e + 1 for e in basis)} is not a basis"]
    if not oracle.is_basis(local_elems):
        return ["baselines.local_search.elements is not a basis"]

    support = np.flatnonzero(x)
    idx = np.union1d(np.union1d(support, basis), local_elems)
    d_sub = distances(doc["distance"], idx, idx)
    pos = {int(e): p for p, e in enumerate(idx)}

    def g_set(elems):
        p = [pos[e] for e in elems]
        return float(d_sub[np.ix_(p, p)].sum() + w[elems].sum())

    xs = x[idx]
    quad = float(xs @ d_sub @ xs)
    g_x = quad + float(w @ x)
    g_b = g_set(basis)
    scale = max(abs(g_x), abs(ub), abs(g_b), 1e-300)

    problems = []
    if not _close(value, g_b, scale):
        problems.append(f"rounding.value {value!r} != recomputed g(B) {g_b!r}")
    if not _close(float(local["value"]), g_set(local_elems), scale):
        problems.append("baselines.local_search.value does not match its elements")

    k = oracle.rank
    if (x < -REL_INEQ).any() or (x > 1.0 + REL_INEQ).any():
        problems.append("x_star leaves [0, 1]^n")
    if abs(float(x.sum()) - k) > 1e-6 * (1 + k):
        problems.append(f"x_star has mass {float(x.sum())!r}, expected the rank {k}")
    excess = oracle.polytope_excess(x)
    if excess > 1e-6 * (1 + k):
        problems.append(f"x_star violates a matroid-polytope constraint by {excess!r}")

    slack = REL_INEQ * scale
    target = g_x - (4.0 + 2.0 * math.log(k)) / k * quad
    if g_b < target - slack:
        problems.append(f"guarantee fails: g(B) {g_b!r} < {target!r}")
    if ub < g_b - slack:
        problems.append(f"opt_upper_bound {ub!r} < g(B) {g_b!r}")
    if ub < float(local["value"]) - slack:
        problems.append(f"opt_upper_bound {ub!r} < local search value {local['value']!r}")
    if opt is not None:
        if ub < opt - slack:
            problems.append(f"opt_upper_bound {ub!r} < OPT {opt!r}")
        if opt < g_b - slack:
            problems.append(f"g(B) {g_b!r} exceeds OPT {opt!r}")
        exact = report["baselines"].get("exact")
        if exact is not None and not _close(float(exact["value"]), opt, scale):
            problems.append(f"baselines.exact.value {exact['value']!r} != OPT {opt!r}")
    return problems
