"""Concave relaxation of max-sum diversification on the base polytope.

The relaxation maximizes g(x) = x @ D @ x + w @ x over the base polytope
B(M) = {x in P(M) : sum(x) == k}, k = rank(M), whose vertices are the
bases.  Every point of B(M) has mass k, so by the Schoenberg form
x @ D @ x = 2 * k * (c @ x) - 2 * (x @ Q @ x) there: for D of negative type
a concave quadratic, and the program is a nearest-point problem in the
negative-type embedding plus a linear term.  It is solved by Wolfe's
nearest-point method, a fully-corrective conditional-gradient loop: the
linear subproblems are exact greedy basis computations, and after each one
the objective is maximized exactly over the convex hull of the active
vertices.  Every iterate is an explicit convex combination of bases and
therefore feasible to machine precision.

The `gap` is a first-order optimality certificate: for concave g, max over
B(M) of g is at most value + gap.  No face of smaller mass is solved.
Because D >= 0 and w >= 0, g does not decrease when any coordinate of
x >= 0 grows, and every point of P(M) lies below some point of B(M).  So
the maximum of g over {x in P(M) : sum(x) == alpha} does not decrease in
alpha, and value + gap bounds g on every independent set.  B(M) is also
the only face rounding accepts, since rounding needs base mass.  With
negative scores the argument fails, so they are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InvalidInputError
from .geometry import DistanceMatrix, cite_or_certify
from .matroids import FractionalPoint, Matroid, greedy_basis_lmo

GAP_TOL_DEFAULT = 1e-6
# A solve stops after ITER_CAP_SCALE * n * rank(M) iterations.
ITER_CAP_SCALE = 50
# Inside the loop the oracle sees the gradient rounded to this fraction of
# its largest entry; see `_snap`.
_TIE_GRID = 2.0**-40


@dataclass(frozen=True)
class SliceSolution:
    """Solver output on the base polytope: iterate, value, and gap certificate.

    `alpha` is the mass of the point, rank(M).  `iterations` counts outer
    iterations (one LMO call and one face solve each), `value_trace` holds
    the value before the first and after each, and `max_active` is the peak
    number of active vertices.
    """

    alpha: int
    point: FractionalPoint
    value: float
    gap: float
    upper_bound: float
    iterations: int
    converged: bool
    value_trace: tuple
    max_active: int


@dataclass(frozen=True)
class RelaxationResult:
    """Base-polytope solution and the upper bound on the integer optimum."""

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


def _check_gap_tol(gap_tol: float) -> None:
    if not 0.0 <= gap_tol < np.inf:
        raise InvalidInputError(f"gap tolerance must be finite and >= 0, got {gap_tol}")


def _require_certified(dm: DistanceMatrix, force: bool) -> None:
    """Refuse D unless it is of negative type (`cite_or_certify`) or `force` is set."""
    if force:
        return
    certificate = cite_or_certify(dm)
    if not certificate.is_negative_type:
        raise CertificationError(
            "distance is not of negative type (min eigenvalue "
            f"{certificate.min_eigenvalue:.6g}); the slice objective need not be concave"
        )


def _snap(grad: np.ndarray) -> np.ndarray:
    """grad rounded to multiples of _TIE_GRID * max|grad|.

    A face solve leaves coordinates that its vertices swap with equal
    gradients in exact arithmetic.  Rounding makes them tie in floating
    point too, so the greedy oracle's rule (lower index first) picks
    between them, not the last bit of the sums, and (c * D, c * w) takes
    the path of (D, w).  grad is scaled by 2**-e first, with
    max|grad| = mant * 2**e: exact, and the factor 1 / (_TIE_GRID * mant)
    cannot overflow however small the gradient is.
    """
    scale = float(np.abs(grad).max())
    if scale == 0.0:
        return grad
    mant, exp = math.frexp(scale)
    return np.round(np.ldexp(grad, -exp) * (1.0 / (_TIE_GRID * mant)))


def _sum_zero_basis(size: int) -> np.ndarray:
    """Orthonormal basis of {y : sum(y) == 0} in R^size, as columns (size >= 2).

    The columns are those of the Householder reflection that swaps e_0 and
    the unit all-equal vector, apart from the first.
    """
    u = np.full(size, 1.0 / np.sqrt(size))
    u[0] -= 1.0
    reflection = np.eye(size) - (2.0 / (u @ u)) * np.outer(u, u)
    return reflection[:, 1:]


class _ActiveSet:
    """Active bases, their weights and their Gram matrix, in growable arrays.

    Row r holds a vertex's support (k sorted indices), its cached D @ v,
    its score w @ v and its weight lam[r]; gram[r, s] = v_r @ D @ v_s.  With
    x = sum_r lam[r] v_r the objective is lam @ gram @ lam + score @ lam.  A
    dict maps each support to its row, so a vertex the oracle returns again
    is found again.  Rows keep insertion order.
    """

    def __init__(self, d: np.ndarray, w: np.ndarray, k: int):
        self._d = d
        self._w = w
        self._n = d.shape[0]
        self.size = 0
        self.supports = np.empty((16, k), dtype=np.intp)
        self.dv = np.empty((16, self._n))
        self.score = np.empty(16)
        self.lam = np.zeros(16)
        self.gram = np.empty((16, 16))
        self._rows: dict = {}

    def find_or_add(self, support: np.ndarray) -> int:
        """Row of the vertex with this support, added with weight 0 if new.

        A new vertex costs O(n * k) for D @ v, a sum of k rows of D, and
        O(size * k) for its row of the Gram matrix.
        """
        row = self._rows.get(support.tobytes())
        if row is not None:
            return row
        row = self.size
        if row == len(self.lam):
            self.supports = np.concatenate([self.supports, np.empty_like(self.supports)])
            self.dv = np.concatenate([self.dv, np.empty_like(self.dv)])
            self.score = np.concatenate([self.score, np.empty_like(self.score)])
            self.lam = np.concatenate([self.lam, np.zeros_like(self.lam)])
            gram = np.empty((2 * row, 2 * row))
            gram[:row, :row] = self.gram
            self.gram = gram
        self.supports[row] = support
        self.dv[row] = self._d[support].sum(axis=0)  # D is symmetric
        self.score[row] = self._w[support].sum()
        self.lam[row] = 0.0
        self.size += 1
        products = self.dv[row][self.supports[: self.size]].sum(axis=1)
        self.gram[row, : self.size] = products
        self.gram[: self.size, row] = products
        self._rows[support.tobytes()] = row
        return row

    def __contains__(self, support: np.ndarray) -> bool:
        return support.tobytes() in self._rows

    def point(self) -> np.ndarray:
        """The convex combination x = sum_r lam[r] * v_r."""
        live = self.supports[: self.size].ravel()
        weights = np.repeat(self.lam[: self.size], self.supports.shape[1])
        return np.bincount(live, weights=weights, minlength=self._n)

    def products(self) -> np.ndarray:
        """D @ x = sum_r lam[r] * (D @ v_r), in O(size * n)."""
        return self.lam[: self.size] @ self.dv[: self.size]

    def maximize_face(self) -> None:
        """Maximize the objective over the convex hull of the active vertices.

        Wolfe's minor cycles.  On the affine hull {sum(lam) == 1} the
        objective is a quadratic in lam that does not curve up (D is of
        negative type); it is written in an orthonormal eigenbasis of its
        curvature.  A direction whose computed curvature is not negative is
        flat: the active vertices are affinely dependent in the
        negative-type embedding, and the objective is linear along it (or,
        for a forced uncertified D, curves up).  If the objective rises
        along a flat direction, the weights move uphill along it until the
        first one reaches 0.  Otherwise the maximizer on the hull is one
        Newton step away; if its weights are all positive it is taken and
        the cycle ends, else the weights move towards it until the first one
        reaches 0.  The vertex whose weight reached 0 leaves and the hull is
        solved again, so each pass but the last drops a vertex.  Unless the
        objective is exactly level along a flat direction, the vertices left
        are affinely independent: at most n of them.
        """
        while self.size > 1:
            size = self.size
            lam = self.lam[:size]
            gram = self.gram[:size, :size]
            basis = _sum_zero_basis(size)
            curvature, vectors = np.linalg.eigh(basis.T @ gram @ basis)
            directions = basis @ vectors
            slopes = (2.0 * (gram @ lam) + self.score[:size]) @ directions
            curved = curvature < 0.0
            uphill = np.where(curved, 0.0, slopes)
            if uphill.any():
                step = directions @ uphill
            else:
                newton = np.divide(slopes, -2.0 * curvature, out=np.zeros(size - 1), where=curved)
                step = directions @ newton
                if (lam + step > 0.0).all():
                    lam += step
                    lam /= lam.sum()
                    return
            shrinking = np.flatnonzero(step < 0.0)
            ratios = lam[shrinking] / -step[shrinking]
            first = int(np.argmin(ratios))
            lam += ratios[first] * step
            lam[shrinking[first]] = 0.0
            self._keep(np.flatnonzero(lam > 0.0))
            self.lam[: self.size] /= self.lam[: self.size].sum()

    def _keep(self, rows: np.ndarray) -> None:
        """Keep only these rows, in the order given."""
        size = len(rows)
        self.supports[:size] = self.supports[rows]
        self.dv[:size] = self.dv[rows]
        self.score[:size] = self.score[rows]
        self.lam[:size] = self.lam[rows]
        self.gram[:size, :size] = self.gram[np.ix_(rows, rows)]
        self.size = size
        self._rows = {self.supports[r].tobytes(): r for r in range(size)}


def solve_slice(
    dm: DistanceMatrix,
    m: Matroid,
    w=None,
    *,
    gap_tol: float = GAP_TOL_DEFAULT,
    force: bool = False,
) -> SliceSolution:
    """Maximize x @ D @ x + w @ x over the base polytope of M.

    Fully-corrective conditional gradient (Wolfe's method): each iteration
    makes one greedy LMO call, adds the basis it returns to the active set
    and maximizes exactly over the convex hull of the active bases (see
    `_ActiveSet.maximize_face`).  Terminates once the linearization gap
    drops to gap_tol * value (the value is >= 0, so the rule does not change
    when D and w are scaled together), after ITER_CAP_SCALE * n * k
    iterations, k = rank(M), or when an iteration neither raises the value
    nor keeps a new vertex, which happens only at rounding level.  gap_tol
    must be finite and >= 0, scores finite and nonnegative, and D of
    negative type (`cite_or_certify`: cited for a catalogue matrix, else
    certified once per matrix) unless `force` is set.  A matroid of rank 0 gives the zero point, with
    value and gap 0.

    One iteration costs O(n * k) for the new vertex's D @ v, a sum of k
    rows of D, O(size * k) for its Gram row, O(size * n) for D @ x, and
    O(size^3) per face solve, with size <= n + 1 active vertices, plus one
    LMO call.  No n x n product runs inside the loop; the returned value
    and gap come from one exact D @ x.
    """
    if dm.n != m.n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={m.n}")
    _check_gap_tol(gap_tol)
    n = dm.n
    w_vec = _score_vector(w, n)
    _require_certified(dm, force)
    k = m.full_rank
    if k == 0:
        return SliceSolution(alpha=0, point=FractionalPoint.of(np.zeros(n), value=0.0), value=0.0,
                             gap=0.0, upper_bound=0.0, iterations=0, converged=True,
                             value_trace=(0.0,), max_active=0)
    d = dm.d
    max_iters = ITER_CAP_SCALE * n * k

    # Warm start: greedy basis under the linear part of the objective, with
    # D written as d(i,j) = c[i] + c[j] - 2 Q[i,j] around element 0 (c = D[0]).
    x = greedy_basis_lmo(m, 2.0 * k * d[0] + w_vec)
    active = _ActiveSet(d, w_vec, k)
    row = active.find_or_add(np.flatnonzero(x))
    active.lam[row] = 1.0
    dx = active.dv[row].copy()
    value = float(x @ dx + w_vec @ x)
    trace = [value]
    max_active = 1
    converged = False
    iterations = 0

    for iterations in range(max_iters + 1):
        grad = 2.0 * dx + w_vec
        v = greedy_basis_lmo(m, _snap(grad))
        gap = float(grad @ v) - float(grad @ x)
        if gap <= gap_tol * value:
            converged = True
            break
        if iterations == max_iters:
            break
        # A vertex that is already active means the last face solve left a
        # gap at rounding level; the face is solved again from the current
        # weights.  An iteration that neither raises the value nor keeps a
        # new vertex leaves the state as it was, and the next would repeat it.
        support = np.flatnonzero(v)
        entered = support not in active
        active.find_or_add(support)
        max_active = max(max_active, active.size)
        active.maximize_face()
        x = active.point()
        dx = active.products()
        new_value = float(x @ dx + w_vec @ x)
        if new_value <= value and not (entered and support in active):
            break
        value = new_value
        trace.append(value)

    # Exact certificate: upper_bound must not rest on D @ x summed from the
    # cached vertex products.
    x = active.point()
    dx = d @ x
    value = float(x @ dx + w_vec @ x)
    grad = 2.0 * dx + w_vec
    v = greedy_basis_lmo(m, grad)
    gap = max(float(grad @ (v - x)), 0.0)
    return SliceSolution(
        alpha=k,
        point=FractionalPoint.of(x, value=value),
        value=value,
        gap=gap,
        upper_bound=value + gap,
        iterations=iterations,
        converged=converged,
        value_trace=tuple(trace),
        max_active=max_active,
    )


def sweep_slices(
    dm: DistanceMatrix,
    m: Matroid,
    w=None,
    *,
    gap_tol: float = GAP_TOL_DEFAULT,
    force: bool = False,
) -> RelaxationResult:
    """`solve_slice` as `best`, and its value + gap as `opt_upper_bound`.

    The bound dominates the integer optimum (see the module docstring).
    """
    best = solve_slice(dm, m, w, gap_tol=gap_tol, force=force)
    return RelaxationResult(best=best, opt_upper_bound=best.upper_bound)
