"""Instance documents for the benchmark workloads, written from a seed.

The documents follow the instance schema of the top-level README.  Nothing
here calls the program's generators, so a change to them cannot change
what is measured.  Instance i of a workload draws its data from
`numpy.random.default_rng([seed, i])`; the same seed gives the same
documents.  See README.md in this directory for why each workload is made
up the way it is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One instance document plus what the benchmark knows about it.

    `fault` names the failure a fault case is expected to show; such cases
    count as operations but stay out of every time and quality metric.
    `opt` is a closed-form optimum; `exact` asks the checks to enumerate
    the bases for the optimum.
    """

    name: str
    doc: dict
    fault: str | None = None
    opt: float | None = None
    exact: bool = False

    @property
    def steady(self) -> bool:
        return self.fault is None


def _doc(distance: dict, matroid: dict, n: int, scores=None) -> dict:
    return {
        "schema_version": 1,
        "n": n,
        "distance": distance,
        "matroid": matroid,
        "scores": scores,
        "seed": None,
    }


def _points(rng, kind: str, n: int, dim: int) -> dict:
    return {"kind": kind, "points": rng.standard_normal((n, dim)).tolist()}


def _sets(rng, n: int, universe: int, size: int) -> dict:
    sets = [sorted(int(e) for e in rng.choice(universe, size=size, replace=False)) for _ in range(n)]
    return {"kind": "jaccard", "sets": sets, "universe": universe}


def _explicit(matrix) -> dict:
    return {"kind": "explicit", "matrix": np.asarray(matrix, dtype=float).tolist()}


def _uniform(k: int) -> dict:
    return {"kind": "uniform", "k": k}


def _partition(rng, n: int, blocks: int, cap: int) -> dict:
    perm = rng.permutation(n)
    return {
        "kind": "partition",
        "blocks": [sorted(int(e) + 1 for e in perm[b::blocks]) for b in range(blocks)],
        "capacities": [cap] * blocks,
    }


def _complete_graph(vertices: int) -> dict:
    edges = [[u + 1, v + 1] for u, v in itertools.combinations(range(vertices), 2)]
    return {"kind": "graphic", "num_vertices": vertices, "edges": edges}


def _graphic_rank_table(vertices: int, edges, truncate: int) -> list:
    """Rank of every edge subset (bitmask) of a graph, truncated at `truncate`."""
    table = []
    for mask in range(1 << len(edges)):
        parent = list(range(vertices))
        rank = 0
        for e, (u, v) in enumerate(edges):
            if mask >> e & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    rank += 1
        table.append(min(rank, truncate))
    return table


def _octahedron_rank(truncate: int) -> dict:
    """The graphic matroid of the octahedron (12 edges) truncated, as a rank table."""
    edges = [(u, v) for u, v in itertools.combinations(range(6), 2) if v != u + 1 or u % 2]
    return {"kind": "explicit_rank", "ranks": _graphic_rank_table(6, edges, truncate)}


def _dks_matrix(rng, n: int, edge_prob: float) -> np.ndarray:
    """Edge pairs at distance 1 + 1/(n-1), the rest at 1 (densest-k-subgraph)."""
    upper = np.triu(rng.random((n, n)) < edge_prob, 1)
    m = np.where(upper | upper.T, 1.0 + 1.0 / (n - 1), 1.0)
    np.fill_diagonal(m, 0.0)
    return m


def _ones(n: int) -> np.ndarray:
    return np.ones((n, n)) - np.eye(n)


def sweep_mid(seed: int) -> list:
    """Mid-size point and set instances where the relax layer does the work."""
    plan = (
        [("l2", lambda r: _doc(_points(r, "l2", 60, 5), _uniform(5), 60))] * 14
        + [("l1", lambda r: _doc(_points(r, "l1", 60, 5), _uniform(5), 60))] * 14
        + [("l2-scores", lambda r: _doc(_points(r, "l2", 60, 5), _uniform(5), 60,
                                         scores=r.random(60).tolist()))] * 6
        + [("l1-partition", lambda r: _doc(_points(r, "l1", 60, 5), _partition(r, 60, 3, 2), 60))] * 6
        + [("jaccard", lambda r: _doc(_sets(r, 32, 20, 6), _uniform(4), 32))] * 2
        + [("cosine", lambda r: _doc(_points(r, "cosine", 24, 6), _uniform(4), 24))] * 2
    )
    return [
        Instance(f"{name}-{i}", make(np.random.default_rng([seed, i])))
        for i, (name, make) in enumerate(plan)
    ]


def front_large(seed: int) -> list:
    """Large point sets with tiny rank: materialize, certify and memory."""
    plan = [
        ("l2-n2000", lambda r: _doc(_points(r, "l2", 2000, 8), _uniform(2), 2000)),
        ("l1-n1500", lambda r: _doc(_points(r, "l1", 1500, 16), _uniform(2), 1500)),
    ]
    return [
        Instance(f"{name}-{i}", make(np.random.default_rng([seed, i])))
        for i, (name, make) in enumerate(plan)
    ]


# Seed of the fixed l2 points of round-small's scale pair.
SCALE_PAIR_SEED = 5


def round_small(seed: int) -> list:
    """Small flat-distance instances where rounding and the oracles work.

    The optimum of each steady instance is known: in closed form, k(k-1),
    where every basis has the same value, and by enumeration otherwise.
    The last two instances are the fault cases.
    """
    rngs = [np.random.default_rng([seed, i]) for i in range(5)]
    k6 = _complete_graph(6)
    # The scale pair is fixed data: its value_ratio gap shows the same on
    # every seed, and does not vary with it.
    l2 = np.random.default_rng(SCALE_PAIR_SEED).standard_normal((30, 3))
    scored_partition = _partition(rngs[4], 20, 4, 2)
    return [
        Instance("k6-ones", _doc(_explicit(_ones(15)), k6, 15), opt=20.0),
        Instance("k6-dks", _doc(_explicit(_dks_matrix(rngs[1], 15, 0.4)), k6, 15), exact=True),
        Instance("gap-n20-k5", _doc(_explicit(_ones(20)), _uniform(5), 20), opt=20.0),
        Instance("rank12-dks", _doc(_explicit(_dks_matrix(rngs[3], 12, 0.5)),
                                    _octahedron_rank(4), 12), exact=True),
        Instance("partition-n20-scores",
                 _doc(_points(rngs[4], "l2", 20, 3), scored_partition, 20,
                      scores=rngs[4].random(20).tolist()), exact=True),
        Instance("l2-n30-k6", _doc({"kind": "l2", "points": l2.tolist()}, _uniform(6), 30), exact=True),
        Instance("l2-n30-k6-1e-8", _doc({"kind": "l2", "points": (1e-8 * l2).tolist()}, _uniform(6), 30),
                 exact=True),
        Instance("zeros-n12-k4", _doc(_explicit(np.zeros((12, 12))), _uniform(4), 12),
                 fault="x has mass 1.0, expected base polytope mass 4"),
        Instance("k7-ones", _doc(_explicit(_ones(21)), _complete_graph(7), 21),
                 fault="window of size 21 exceeds the brute-force cap 20"),
    ]


WORKLOADS = {
    "sweep-mid": sweep_mid,
    "front-large": front_large,
    "round-small": round_small,
}

# A small solve run once before timing, so that lazy set-up in numpy and the
# program (the first eigh, the first greedy pass) is paid in setup_s.
WARMUP = _doc(_points(np.random.default_rng(0), "l2", 30, 3), _uniform(4), 30)
