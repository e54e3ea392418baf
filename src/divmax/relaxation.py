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


class _ActiveSet:
    """Slice vertices with positive weight, stored as growable arrays.

    Row r holds a vertex's support (alpha sorted indices), its cached D @ v
    and its weight; a dict maps each support to its row, so a vertex the
    oracle returns again is found again.  Rows keep insertion order.
    """

    def __init__(self, d: np.ndarray, alpha: int):
        self._d = d
        self._n = d.shape[0]
        self.size = 0
        self.supports = np.empty((16, alpha), dtype=np.intp)
        self.dv = np.empty((16, self._n))
        self.lam = np.zeros(16)
        self._rows: dict = {}

    def find_or_add(self, support: np.ndarray) -> int:
        """Row of the vertex with this support, added with weight 0 if new."""
        row = self._rows.get(support.tobytes())
        if row is not None:
            return row
        row = self.size
        if row == len(self.lam):
            self.supports = np.concatenate([self.supports, np.empty_like(self.supports)])
            self.dv = np.concatenate([self.dv, np.empty_like(self.dv)])
            self.lam = np.concatenate([self.lam, np.zeros_like(self.lam)])
        self.supports[row] = support
        self.dv[row] = self._d[support].sum(axis=0)  # D is symmetric
        self.lam[row] = 0.0
        self._rows[support.tobytes()] = row
        self.size += 1
        return row

    def away(self, grad: np.ndarray) -> tuple:
        """Row and linearized value of the least active vertex (first on ties)."""
        values = grad[self.supports[: self.size]].sum(axis=1)
        row = int(np.argmin(values))
        return row, float(values[row])

    def vertex(self, row: int) -> np.ndarray:
        v = np.zeros(self._n)
        v[self.supports[row]] = 1.0
        return v

    def point(self) -> np.ndarray:
        """The convex combination sum_r lam[r] * v_r."""
        alpha = self.supports.shape[1]
        live = self.supports[: self.size].ravel()
        weights = np.repeat(self.lam[: self.size], alpha)
        return np.bincount(live, weights=weights, minlength=self._n)

    def step(self, row: int, gamma: float, away: bool) -> None:
        """Shift weight gamma onto row (off it, for an away step) and renormalize.

        Rows whose weight falls to _WEIGHT_FLOOR are dropped; the rest keep
        their order.
        """
        live = self.lam[: self.size]
        if away:
            live *= 1.0 + gamma
            live[row] -= gamma
        else:
            live *= 1.0 - gamma
            live[row] += gamma
        keep = np.flatnonzero(live > _WEIGHT_FLOOR)
        if len(keep) < self.size:
            self.size = len(keep)
            self.supports[: self.size] = self.supports[keep]
            self.dv[: self.size] = self.dv[keep]
            self.lam[: self.size] = self.lam[keep]
            self._rows = {self.supports[r].tobytes(): r for r in range(self.size)}
        self.lam[: self.size] /= self.lam[: self.size].sum()


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
    linearization gap drops to gap_tol * value (the value is >= 0, so the
    rule does not change when D and w are scaled together), or at max_iters
    (default ITER_CAP_SCALE * n * alpha).

    One iteration costs O(n * alpha + |active set| * alpha) plus one LMO
    call: every slice vertex is a 0/1 vector with alpha ones, so D @ v is a
    sum of alpha rows of D, cached once per active vertex, and D @ x is
    carried along by the same convex steps as x.  No n x n product runs
    inside the loop; the returned value and gap come from one exact D @ x.
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
    active = _ActiveSet(d, alpha)
    row = active.find_or_add(np.flatnonzero(x))
    active.lam[row] = 1.0
    dx = active.dv[row].copy()
    value = float(x @ dx + w_vec @ x)
    trace = [value]
    converged = False
    iterations = 0

    for iterations in range(max_iters + 1):
        grad = 2.0 * dx + w_vec
        v = greedy_basis_lmo(m, alpha, grad)
        grad_x = float(grad @ x)
        gap = float(grad @ v) - grad_x
        if gap <= gap_tol * value:
            converged = True
            break
        if iterations == max_iters:
            break

        away, grad_a = active.away(grad)
        lam_a = float(active.lam[away])
        gap_away = grad_x - grad_a

        if gap >= gap_away or lam_a >= 1.0:
            row = active.find_or_add(np.flatnonzero(v))
            direction = v - x
            d_direction = active.dv[row] - dx
            slope = gap
            gamma_max = 1.0
            is_away = False
        else:
            row = away
            direction = x - active.vertex(away)
            d_direction = dx - active.dv[away]
            slope = gap_away
            gamma_max = lam_a / (1.0 - lam_a)
            is_away = True

        # The objective along the segment is value + slope*g + curv*g^2 with
        # curv <= 0 on the slice.  Comparing the unclipped maximizer with
        # gamma_max by multiplication keeps this test free of any absolute
        # cut-off, so it reads the same at every scale of D and w.
        curv = float(direction @ d_direction)
        if -2.0 * curv * gamma_max > slope:
            gamma = slope / (-2.0 * curv)
        else:
            gamma = gamma_max
        if gamma <= 0.0:
            converged = True
            break

        active.step(row, gamma, is_away)
        x = x + gamma * direction
        dx = dx + gamma * d_direction
        value = float(x @ dx + w_vec @ x)
        trace.append(value)

    # Exact certificate: upper_bound must not rest on the carried x and D @ x.
    x = active.point()
    dx = d @ x
    value = float(x @ dx + w_vec @ x)
    grad = 2.0 * dx + w_vec
    v = greedy_basis_lmo(m, alpha, grad)
    gap = max(float(grad @ (v - x)), 0.0)
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
