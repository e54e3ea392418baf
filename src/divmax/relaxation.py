"""Concave relaxation of max-sum diversification on the base polytope.

For a negative-type distance matrix D the dispersion g(x) = x @ D @ x + w @ x
is concave on each slice {x in P(M) : sum(x) == alpha} (the base polytope of
the rank-alpha truncation).  A slice program is solved with an away-step
conditional-gradient method whose linear subproblems are exact greedy basis
computations, so every iterate is an explicit convex combination of slice
vertices and therefore feasible to machine precision.

The slice `gap` is a first-order optimality certificate: for concave g, max
over the slice of g is at most value + gap.  Only the top slice, alpha =
rank(ground set), is needed.  Because D >= 0 and w >= 0, g does not decrease
when any coordinate of x >= 0 grows, and every point of P(M) lies below some
point of the base polytope.  So the slice maximum does not decrease in
alpha, and the top slice's value + gap bounds g on every independent set.
That slice is also the only one rounding accepts, since rounding needs base
mass.  With negative scores the argument fails, so they are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InvalidInputError
from .geometry import DistanceMatrix, NegTypeCertificate, certify_negative_type
from .matroids import FractionalPoint, Matroid, greedy_basis_lmo

GAP_TOL_DEFAULT = 1e-6
# Iteration cap scale: max_iters defaults to ITER_CAP_SCALE * n * alpha.
ITER_CAP_SCALE = 50
_WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class SliceSolution:
    """Solver output for one slice: iterate, value, and gap certificate."""

    alpha: int
    point: FractionalPoint
    value: float
    gap: float
    upper_bound: float
    iterations: int
    converged: bool
    value_trace: tuple


@dataclass(frozen=True)
class RelaxationResult:
    """Base-polytope slice solution and the upper bound on the integer optimum."""

    best: SliceSolution
    opt_upper_bound: float


def _score_vector(w, n: int) -> np.ndarray:
    if w is None:
        return np.zeros(n)
    w_vec = np.asarray(w, dtype=float)
    if w_vec.shape != (n,):
        raise InvalidInputError(f"w must have shape ({n},), got {w_vec.shape}")
    if not np.isfinite(w_vec).all() or (w_vec < 0).any():
        raise InvalidInputError("scores must be finite and nonnegative")
    return w_vec


def _require_certified(dm, certificate, force):
    if force:
        return certificate
    if certificate is None:
        certificate = certify_negative_type(dm)
    if not certificate.is_negative_type:
        raise CertificationError(
            "distance matrix failed negative-type certification "
            f"(min eigenvalue {certificate.min_eigenvalue}); "
            "the slice objective need not be concave"
        )
    return certificate


def solve_slice(
    dm: DistanceMatrix,
    m: Matroid,
    alpha: int,
    w=None,
    *,
    gap_tol: float = GAP_TOL_DEFAULT,
    max_iters: int | None = None,
    certificate: NegTypeCertificate | None = None,
    force: bool = False,
) -> SliceSolution:
    """Maximize x @ D @ x + w @ x over {x in P(M) : sum(x) == alpha}.

    Away-step conditional gradient with exact line search (the objective is
    an exactly-known quadratic along any segment).  Terminates once the
    linearization gap drops to gap_tol * max(1, |value|), or at max_iters
    (default ITER_CAP_SCALE * n * alpha).
    """
    if dm.n != m.n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={m.n}")
    alpha = int(alpha)
    if not 1 <= alpha <= m.full_rank:
        raise InvalidInputError(f"alpha must be in [1, {m.full_rank}], got {alpha}")
    _require_certified(dm, certificate, force)
    d = dm.d
    n = dm.n
    w_vec = _score_vector(w, n)
    if max_iters is None:
        max_iters = ITER_CAP_SCALE * n * alpha

    # Warm start: greedy basis under the linear part of the objective, with
    # D written as d(i,j) = c[i] + c[j] - 2 Q[i,j] around element 0 (c = D[0]).
    x = greedy_basis_lmo(m, alpha, 2.0 * alpha * d[0] + w_vec)
    weights = {x.astype(np.int8).tobytes(): 1.0}
    vertices = {next(iter(weights)): x.copy()}

    def combo():
        acc = np.zeros(n)
        for key, lam in weights.items():
            acc += lam * vertices[key]
        return acc

    value = float(x @ d @ x + w_vec @ x)
    trace = [value]
    gap = np.inf
    converged = False
    iterations = 0

    for iterations in range(max_iters + 1):
        grad = 2.0 * (d @ x) + w_vec
        v = greedy_basis_lmo(m, alpha, grad)
        gap = float(grad @ (v - x))
        if gap <= gap_tol * max(1.0, abs(value)):
            converged = True
            break
        if iterations == max_iters:
            break

        away_key = min(weights, key=lambda kk: (float(grad @ vertices[kk]), kk))
        a = vertices[away_key]
        d_fw = v - x
        d_away = x - a
        gap_away = float(grad @ d_away)

        if gap >= gap_away:
            direction = d_fw
            gamma_max = 1.0
            is_away = False
        else:
            lam_a = weights[away_key]
            if lam_a >= 1.0:
                direction = d_fw
                gamma_max = 1.0
                is_away = False
            else:
                direction = d_away
                gamma_max = lam_a / (1.0 - lam_a)
                is_away = True

        slope = float(grad @ direction)
        curv = float(direction @ d @ direction)  # <= 0 on the slice
        if curv < -1e-18:
            gamma = min(gamma_max, slope / (-2.0 * curv))
        else:
            gamma = gamma_max
        if gamma <= 0.0:
            converged = True
            break

        if is_away:
            for key in weights:
                weights[key] *= 1.0 + gamma
            weights[away_key] -= gamma
            if weights[away_key] <= _WEIGHT_FLOOR:
                del weights[away_key]
                del vertices[away_key]
        else:
            for key in weights:
                weights[key] *= 1.0 - gamma
            v_key = v.astype(np.int8).tobytes()
            if v_key not in weights:
                weights[v_key] = 0.0
                vertices[v_key] = v.copy()
            weights[v_key] += gamma
            stale = [key for key, lam in weights.items() if lam <= _WEIGHT_FLOOR]
            for key in stale:
                del weights[key]
                del vertices[key]

        total = sum(weights.values())
        for key in weights:
            weights[key] /= total
        x = combo()
        value = float(x @ d @ x + w_vec @ x)
        trace.append(value)

    gap = max(gap, 0.0)
    return SliceSolution(
        alpha=alpha,
        point=FractionalPoint.of(x, value=value),
        value=value,
        gap=gap,
        upper_bound=value + gap,
        iterations=iterations,
        converged=converged,
        value_trace=tuple(trace),
    )


def sweep_slices(
    dm: DistanceMatrix,
    m: Matroid,
    w=None,
    *,
    gap_tol: float = GAP_TOL_DEFAULT,
    max_iters: int | None = None,
    certificate: NegTypeCertificate | None = None,
    force: bool = False,
) -> RelaxationResult:
    """Solve only the base-polytope slice, alpha = rank(ground set).

    No smaller slice needs solving: the slice maximum does not decrease in
    alpha (see the module docstring), so this slice gives `best`, and its
    value + gap is `opt_upper_bound`, which dominates the integer optimum.
    Scores must be finite and nonnegative.
    """
    w_vec = _score_vector(w, dm.n)
    certificate = _require_certified(dm, certificate, force)
    if m.full_rank == 0:
        zero = SliceSolution(
            alpha=0,
            point=FractionalPoint.of(np.zeros(m.n), value=0.0),
            value=0.0,
            gap=0.0,
            upper_bound=0.0,
            iterations=0,
            converged=True,
            value_trace=(0.0,),
        )
        return RelaxationResult(best=zero, opt_upper_bound=0.0)
    best = solve_slice(
        dm,
        m,
        m.full_rank,
        w_vec,
        gap_tol=gap_tol,
        max_iters=max_iters,
        certificate=certificate,
        force=force,
    )
    return RelaxationResult(best=best, opt_upper_bound=best.upper_bound)
