"""Instance generators: random geometric/set instances and two stress families.

Every generator returns an InstanceDoc carrying the concrete data (points,
sets, or matrix) plus the seed that produced it, so fixtures are
bit-reproducible from the document alone.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .geometry import NORM_KINDS, SET_KINDS, lp_exponent
from .io import InstanceDoc
from .matroids import UniformMatroid


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _matroid_spec(rng: np.random.Generator, n: int, matroid, k) -> dict:
    if isinstance(matroid, dict):
        return matroid
    if matroid == "uniform":
        kk = int(k) if k is not None else max(1, n // 3)
        UniformMatroid(n, kk)  # the checks a solve of the document makes
        return {"kind": "uniform", "k": kk}
    if matroid == "partition":
        num_blocks = int(k) if k is not None else min(3, n)
        num_blocks = max(1, min(num_blocks, n))
        perm = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=num_blocks - 1, replace=False)) if num_blocks > 1 else []
        blocks = []
        start = 0
        for cut in list(cuts) + [n]:
            blocks.append(sorted(int(e) + 1 for e in perm[start:cut]))
            start = cut
        caps = [int(rng.integers(1, len(b) + 1)) for b in blocks]
        return {"kind": "partition", "blocks": blocks, "capacities": caps}
    raise InvalidInputError(f"unknown matroid request {matroid!r}")


def gen_random_points(
    n: int,
    dim: int,
    kind: str,
    rng_seed: int,
    *,
    point_dist: str = "gaussian",
    p: float | None = None,
    matroid="uniform",
    k: int | None = None,
    set_size: int | None = None,
    with_scores: bool = False,
) -> InstanceDoc:
    """Random instance with a catalogue distance and a uniform or partition matroid.

    Vector kinds ("l1", "l2", "lp", "cosine") draw n points in R^dim, either
    standard gaussian or uniform on [0, 1]^dim.  Set kinds draw n random
    subsets of a dim-item universe (nonempty, size set_size if given).
    `matroid` is "uniform" (rank k), "partition" (k blocks, random
    capacities), or a full matroid spec dict.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if dim < 1:
        raise InvalidInputError("need dim >= 1")
    if set_size is not None and set_size < 0:
        raise InvalidInputError(f"need set_size >= 0, got {set_size}")
    rng = _rng(rng_seed)
    if kind in NORM_KINDS:
        if point_dist == "gaussian":
            pts = rng.standard_normal((n, dim))
        elif point_dist == "uniform":
            pts = rng.random((n, dim))
        else:
            raise InvalidInputError(f"unknown point distribution {point_dist!r}")
        if kind == "cosine":
            # Zero vectors are rejected downstream; regenerate degenerate rows.
            norms = np.linalg.norm(pts, axis=1)
            while (norms <= 1e-12).any():
                bad = norms <= 1e-12
                pts[bad] = rng.standard_normal((int(bad.sum()), dim))
                norms = np.linalg.norm(pts, axis=1)
        distance = {"kind": kind, "points": [[float(v) for v in row] for row in pts]}
        if kind == "lp":
            distance["p"] = lp_exponent(1.5 if p is None else p)
    elif kind in SET_KINDS:
        sets = []
        for _ in range(n):
            if set_size is not None:
                members = rng.choice(dim, size=min(set_size, dim), replace=False)
            else:
                mask = rng.random(dim) < 0.5
                if not mask.any():
                    mask[rng.integers(dim)] = True
                members = np.nonzero(mask)[0]
            sets.append(sorted(int(e) for e in members))
        distance = {"kind": kind, "sets": sets, "universe": int(dim)}
    else:
        raise InvalidInputError(f"unknown distance kind {kind!r}")
    scores = [float(v) for v in rng.random(n)] if with_scores else None
    return InstanceDoc(
        n=n,
        distance=distance,
        matroid=_matroid_spec(rng, n, matroid, k),
        scores=scores,
        seed=int(rng_seed),
    )


def gen_integrality_gap(n: int, k: int) -> InstanceDoc:
    """All off-diagonal distances 1, cardinality constraint k.

    The relaxation attains k^2 (n-1)/n at the uniform fractional point while
    every k-subset scores k (k-1), so the value ratio approaches 1 - 1/k.
    """
    if not 2 <= k <= n:
        raise InvalidInputError(f"need 2 <= k <= n, got k={k}, n={n}")
    matrix = [[0.0 if r == c else 1.0 for c in range(n)] for r in range(n)]
    return InstanceDoc(
        n=n,
        distance={"kind": "explicit", "matrix": matrix},
        matroid={"kind": "uniform", "k": int(k)},
        scores=None,
        seed=None,
    )


def integrality_gap_fractional_value(n: int, k: int) -> float:
    return k * k * (n - 1) / n


def integrality_gap_opt_value(n: int, k: int) -> float:
    return float(k * (k - 1))


def gen_dks_reduction(num_vertices: int, edges, k: int) -> InstanceDoc:
    """Map a graph to distances whose k-dispersion ranks sets by edge count.

    Edge pairs get distance 1 + 1/(n-1), non-edges 1 (the metric power
    d**log2(n/(n-1)) applied to the 2-vs-1 edge metric); maximizing
    dispersion over k-subsets is then exactly the densest-k-subgraph
    problem.  Vertices are 0-based on input.
    """
    n = int(num_vertices)
    if n < 2:
        raise InvalidInputError("need at least 2 vertices")
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}")
    edge_set = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"bad edge ({u}, {v})")
        edge_set.add((min(u, v), max(u, v)))
    hi = 1.0 + 1.0 / (n - 1)
    matrix = [
        [0.0 if r == c else (hi if (min(r, c), max(r, c)) in edge_set else 1.0) for c in range(n)]
        for r in range(n)
    ]
    return InstanceDoc(
        n=n,
        distance={"kind": "explicit", "matrix": matrix},
        matroid={"kind": "uniform", "k": int(k)},
        scores=None,
        seed=None,
    )


def gen_random_graph(num_vertices: int, edge_prob: float, rng_seed: int) -> list:
    """Erdos-Renyi edge list (0-based vertex pairs), deterministic per seed."""
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidInputError("edge probability must be in [0, 1]")
    rng = _rng(rng_seed)
    edges = []
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return edges
