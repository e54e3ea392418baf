"""Deterministic rounding of base-polytope points along chains of tight sets.

A point x in the base polytope (sum(x) == rank of the ground set == k, all
constraints x(S) <= r(S) satisfied) is rounded to an integral basis without
ever leaving the polytope.  The state is a maximal chain of tight sets

    {} = S_0 < S_1 < ... < S_p = support(x),      x(S_l) == r(S_l),

whose consecutive differences ("rings") each carry positive integer mass and
consist of either a single integral element or >= 2 all-fractional elements.

Each step picks the fractional same-ring pair (i, j) minimizing
x_i * x_j * d(i, j), moves mass along e_i - e_j (sign chosen so the part of
the objective that is linear in the step does not decrease), and stops at
the first binding event: either x_j hits zero (the element is erased; this
branch wins ties) or a new set goes tight and refines the chain.  The value
lost in one step is at most 2 * x_i * x_j * d(i, j); summed over a run this
is what yields the (1 - (4 + 2 ln k)/k) approximation factor.

Restricting the binding-constraint search to the active ring is exact: for
any S containing i but not j, uncrossing S with the tight chain sets S_{l-1}
and S_l (slack is submodular and zero on chain sets) shows the minimizer can
be taken of the form S_{l-1} | T with T inside the ring.  The number of
fractional elements minus the number of fractional rings drops by at least
one per step, so a run takes at most n steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InternalInvariantError, InvalidInputError
from .geometry import DistanceMatrix, certify_negative_type
from .matroids import Matroid, slack_minimize
from .relaxation import _TIE_GRID

# Absolute snapping/tightness tolerance for chain bookkeeping.
TIGHT_TOL = 1e-7
NUM_TOL = 1e-9


@dataclass(frozen=True)
class Ring:
    """One chain difference S_l \\ S_{l-1} together with its x-derived flags."""

    elements: tuple
    prefix: frozenset
    mass: float
    integral: bool


class ChainState:
    """Strictly increasing tight sets S_1 < ... < S_p (S_0 = {} implicit)."""

    def __init__(self, sets):
        sets = [frozenset(int(e) for e in s) for s in sets]
        for a, b in zip(sets, sets[1:]):
            if not (a < b):
                raise InvalidInputError("chain sets must strictly increase")
        if not sets:
            raise InvalidInputError("chain needs at least the support set")
        self.sets = sets

    @property
    def support(self) -> frozenset:
        return self.sets[-1]

    def rings(self, x, tol: float = TIGHT_TOL) -> list:
        out = []
        prev: frozenset = frozenset()
        for s in self.sets:
            elems = tuple(sorted(s - prev))
            mass = float(sum(x[e] for e in elems))
            integral = len(elems) == 1 and x[elems[0]] >= 1.0 - tol
            out.append(Ring(elements=elems, prefix=prev, mass=mass, integral=integral))
            prev = s
        return out

    def insert(self, new_set) -> None:
        new_set = frozenset(new_set)
        if new_set in self.sets or not new_set:
            raise InvalidInputError("refusing to insert a duplicate or empty chain set")
        for pos, s in enumerate(self.sets):
            if new_set < s:
                if pos > 0 and not self.sets[pos - 1] < new_set:
                    raise InvalidInputError("new set does not nest into the chain")
                self.sets.insert(pos, new_set)
                return
            if not s < new_set:
                raise InvalidInputError("new set does not nest into the chain")
        raise InvalidInputError("new set exceeds the chain support")

    def erase(self, j: int) -> None:
        out = []
        for s in self.sets:
            t = s - {j}
            if not t or (out and t == out[-1]):
                raise InternalInvariantError("erasing collapsed the chain")
            out.append(t)
        self.sets = out

    def normalize_integral(self, x, tol: float = TIGHT_TOL) -> None:
        """Split integral elements out of multi-element rings.

        If x_i == 1 inside ring (S_{l-1}, S_l) with >= 2 elements, then
        S_{l-1} | {i} is tight (rank must rise by one for x to stay
        feasible), so it can always be inserted.
        """
        changed = True
        while changed:
            changed = False
            for ring in self.rings(x, tol):
                if len(ring.elements) < 2:
                    continue
                ones = [e for e in ring.elements if x[e] >= 1.0 - tol]
                if ones:
                    self.insert(ring.prefix | {ones[0]})
                    changed = True
                    break

    def validate(self, m: Matroid, x, tol: float = TIGHT_TOL) -> None:
        """Assert chain invariants: tightness, ring masses, ring composition."""
        support = frozenset(int(e) for e in np.nonzero(np.asarray(x) > 0)[0])
        if self.support != support:
            raise InternalInvariantError("chain support does not match x")
        total = 0
        for ring in self.rings(x, tol):
            prefix_union = ring.prefix | set(ring.elements)
            slack = m.rank(prefix_union) - float(sum(x[e] for e in prefix_union))
            if abs(slack) > tol * (1 + m.full_rank):
                raise InternalInvariantError(f"chain set {sorted(prefix_union)} not tight")
            mass_int = int(np.rint(ring.mass))
            if abs(ring.mass - mass_int) > tol * (1 + m.full_rank) or mass_int < 1:
                raise InternalInvariantError(f"ring mass {ring.mass} is not a positive integer")
            total += mass_int
            if len(ring.elements) == 1:
                if not ring.integral:
                    raise InternalInvariantError("singleton ring with fractional element")
            else:
                if any(x[e] >= 1.0 - tol or x[e] <= tol for e in ring.elements):
                    raise InternalInvariantError("multi-element ring contains integral element")
        if total != m.full_rank:
            raise InternalInvariantError(f"ring masses sum to {total}, expected {m.full_rank}")


def build_chain(m: Matroid, x, *, tol: float = TIGHT_TOL) -> ChainState:
    """Construct a maximal chain of tight sets for x in the base polytope.

    Zero components are ignored (the support itself is tight because
    x(support) == sum(x) == r(ground set) >= r(support) >= x(support)).
    Rings are split as long as they contain an integral element or a
    proper tight subset; tight subsets are found by slack minimization
    over separating pairs inside the ring, which suffices by uncrossing.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise InvalidInputError(f"x must have shape ({m.n},), got {x.shape}")
    if (x < -NUM_TOL).any() or (x > 1 + NUM_TOL).any():
        raise InvalidInputError("x must lie in [0, 1]^n")
    if abs(x.sum() - m.full_rank) > 1e-6 * (1 + m.full_rank):
        raise InvalidInputError(
            f"x has mass {x.sum()}, expected base polytope mass {m.full_rank}"
        )
    support = frozenset(int(e) for e in np.nonzero(x > 0)[0])
    chain = ChainState([support])
    chain.normalize_integral(x, tol)

    changed = True
    while changed:
        changed = False
        for ring in chain.rings(x, tol):
            if len(ring.elements) < 2:
                continue
            window = set(ring.elements)
            i0 = ring.elements[0]
            for j in ring.elements[1:]:
                for a, b in ((i0, j), (j, i0)):
                    res = slack_minimize(m, x, a, b, window, ring.prefix)
                    if res.min_slack <= tol:
                        chain.insert(ring.prefix | res.argmin)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
        if changed:
            chain.normalize_integral(x, tol)
    return chain


def select_pair(dm: DistanceMatrix, x, chain) -> tuple:
    """Fractional same-ring pair (i, j), i < j, minimizing x_i * x_j * d(i,j).

    `chain` may be a ChainState or a precomputed ring list.  Ties break
    lexicographically on (i, j).  Raises if no fractional ring remains
    (rounding already complete).
    """
    rings = chain.rings(x) if isinstance(chain, ChainState) else chain
    best = None
    for ring in rings:
        if ring.integral or len(ring.elements) < 2:
            continue
        els = ring.elements
        for ai in range(len(els)):
            for bi in range(ai + 1, len(els)):
                i, j = els[ai], els[bi]
                cand = (float(x[i] * x[j] * dm.d[i, j]), i, j)
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise InvalidInputError("no fractional ring: rounding is already complete")
    return best[1], best[2]


@dataclass(frozen=True)
class StepRecord:
    """One rounding iteration: the pair moved, the step, and the outcome."""

    pair: tuple
    sign: int
    eps: float
    event: str  # "erased" or "refined"
    new_tight_set: frozenset | None
    value_before: float
    value_after: float
    loss: float
    fractional_before: int
    fractional_rings_before: int
    fractional_after: int
    fractional_rings_after: int


def _counts(chain: ChainState, x, tol):
    f = 0
    q = 0
    for ring in chain.rings(x, tol):
        if ring.integral:
            continue
        q += 1
        f += len(ring.elements)
    return f, q


def round_step(
    dm: DistanceMatrix,
    m: Matroid,
    x,
    chain: ChainState,
    w=None,
    *,
    tol: float = TIGHT_TOL,
) -> StepRecord:
    """Apply one rounding move in place (mutates x and chain).

    Sign choice: the objective minus its only eps-nonlinear term,
    2 * x_i * x_j * d(i,j), is linear in eps; move in the non-decreasing
    direction (ties: increase the smaller index).  The step length is
    min(x_dec, 1 - x_inc, ring slack minimum); an exhausted element is
    erased (precedence on ties), a binding slack inserts the new tight set.
    """
    d = dm.d
    rings = chain.rings(x, tol)
    i, j = select_pair(dm, x, rings)
    ring = next(r for r in rings if i in r.elements)
    w_vec = np.zeros(m.n) if w is None else np.asarray(w, dtype=float)

    value_before = float(x @ d @ x + w_vec @ x)
    f_before, q_before = _counts(chain, x, tol)

    dx = d @ x
    kappa = 2.0 * float(dx[i] - dx[j]) - 2.0 * float(d[i, j]) * float(x[j] - x[i])
    kappa += float(w_vec[i] - w_vec[j])
    # Relative to the value (>= 0), so the sign does not change when D and
    # w are scaled together.
    threshold = NUM_TOL * value_before
    sign = 1 if kappa >= -threshold else -1
    inc, dec = (i, j) if sign == 1 else (j, i)

    res = slack_minimize(m, x, inc, dec, set(ring.elements), ring.prefix)
    if res.min_slack < -tol * (1 + m.full_rank):
        raise InternalInvariantError(f"negative ring slack {res.min_slack}")
    eps = min(float(x[dec]), 1.0 - float(x[inc]), max(res.min_slack, 0.0))

    x[inc] += eps
    x[dec] -= eps
    if x[dec] <= tol:
        # Erase-first rule: the exhausted element leaves the ground set.
        x[dec] = 0.0
        chain.erase(dec)
        event = "erased"
        new_tight = None
    else:
        new_tight = ring.prefix | res.argmin
        chain.insert(new_tight)
        event = "refined"
    if x[inc] >= 1.0 - tol:
        x[inc] = 1.0
    chain.normalize_integral(x, tol)

    value_after = float(x @ d @ x + w_vec @ x)
    f_after, q_after = _counts(chain, x, tol)
    if f_after - q_after >= f_before - q_before:
        raise InternalInvariantError(
            f"progress measure did not decrease: {f_before}-{q_before} -> {f_after}-{q_after}"
        )
    return StepRecord(
        pair=(i, j),
        sign=sign,
        eps=float(eps),
        event=event,
        new_tight_set=new_tight,
        value_before=value_before,
        value_after=value_after,
        loss=value_before - value_after,
        fractional_before=f_before,
        fractional_rings_before=q_before,
        fractional_after=f_after,
        fractional_rings_after=q_after,
    )


@dataclass(frozen=True)
class RoundingTrace:
    """Per-iteration records plus the data behind the loss-bound checks.

    `reverse_bounds[t]` is min(2/(m*k), 2/m^2) * (x* @ D @ x*) for the
    iteration with reverse index m = len(iterations) - t, the per-step loss
    budget that telescopes to the final guarantee.
    """

    iterations: tuple
    total_loss: float
    quad_star: float
    k: int
    reverse_bounds: tuple
    iterates: tuple | None = None


@dataclass(frozen=True)
class RoundResult:
    basis: tuple
    value: float
    trace: RoundingTrace


def guarantee_factor(k: int) -> float:
    """Approximation factor 1 - (4 + 2 ln k)/k of the full pipeline."""
    if k < 1:
        raise InvalidInputError("guarantee factor needs k >= 1")
    return 1.0 - (4.0 + 2.0 * math.log(k)) / k


def round(
    dm: DistanceMatrix,
    m: Matroid,
    x_star,
    w=None,
    *,
    tol: float = TIGHT_TOL,
    keep_iterates: bool = False,
    validate_steps: bool = False,
    certificate=None,
    force: bool = False,
) -> RoundResult:
    """Round x* in the base polytope to a basis of the matroid.

    Each iteration costs one slack search; there are at most n iterations.
    x* is first rounded to multiples of 2^-40, so coordinates that are equal
    in exact arithmetic tie exactly and the pair rule's index order decides
    between them.  `validate_steps` re-checks all chain invariants after
    every step, and `keep_iterates` stores a copy of x per iteration in the
    trace.
    """
    if dm.n != m.n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={m.n}")
    if not force:
        cert = certificate if certificate is not None else certify_negative_type(dm)
        if not cert.is_negative_type:
            raise CertificationError("rounding loss bounds require a negative-type distance")
    x = np.asarray(x_star, dtype=float)
    if x.shape != (m.n,):
        raise InvalidInputError(f"x must have shape ({m.n},), got {x.shape}")
    x = np.round(x / _TIE_GRID) * _TIE_GRID
    x[x <= tol] = 0.0
    x[x >= 1.0 - tol] = 1.0
    k = m.full_rank
    if k == 0:
        empty_trace = RoundingTrace((), 0.0, 0.0, 0, (), () if keep_iterates else None)
        return RoundResult(basis=(), value=float(0.0), trace=empty_trace)

    w_vec = None if w is None else np.asarray(w, dtype=float)
    quad_star = float(x @ dm.d @ x)

    chain = build_chain(m, x, tol=tol)
    if validate_steps:
        chain.validate(m, x, tol)
    records = []
    iterates = [x.copy()] if keep_iterates else None
    while any(not r.integral for r in chain.rings(x, tol)):
        rec = round_step(dm, m, x, chain, w_vec, tol=tol)
        records.append(rec)
        if keep_iterates:
            iterates.append(x.copy())
        if validate_steps:
            chain.validate(m, x, tol)
        if len(records) > m.n:
            raise InternalInvariantError("rounding exceeded the n-iteration bound")

    basis = tuple(int(e) for e in np.nonzero(x >= 1.0 - tol)[0])
    if len(basis) != k or not m.is_independent(basis):
        raise InternalInvariantError("rounded output is not a basis")
    total = len(records)
    reverse_bounds = tuple(
        min(2.0 / ((total - t) * k), 2.0 / (total - t) ** 2) * quad_star
        for t in range(total)
    )
    value = float(x @ dm.d @ x) + (float(w_vec @ x) if w_vec is not None else 0.0)
    trace = RoundingTrace(
        iterations=tuple(records),
        total_loss=float(sum(r.loss for r in records)),
        quad_star=quad_star,
        k=k,
        reverse_bounds=reverse_bounds,
        iterates=tuple(iterates) if keep_iterates else None,
    )
    return RoundResult(basis=basis, value=value, trace=trace)
