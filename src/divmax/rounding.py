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

Partition matroids, uniform ones included, give a ring's pieces and a
step's length in closed form (`Matroid._ring_piece`, `Matroid._ring_step`)
and are never searched.  For other kinds `build_chain` searches each ring
once, one slack search per pair (a, b) of neighbours in the ring's sorted
cyclic order, a in T and b not: every proper nonempty T inside a ring holds
some a whose neighbour b it does not hold, so a final ring of r elements
costs r searches; a step makes one search.  A step also costs one product
D[S, S] @ x_S over the support S of x (for the value and the sign), and the
pair scan as array work: each fractional ring r is scored as the upper
triangle of outer(x_r, x_r) * D[r, r].  The product is formed as
D[S, :] @ x, equal because x is zero off S: gathering whole rows costs
O(|S| n), where gathering the |S| x |S| block costs more than D @ x itself
once S is most of the ground set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidInputError
from .geometry import DistanceMatrix
from .matroids import Matroid, slack_minimize
from .relaxation import _TIE_GRID, _check_overflow, _require_certified, _score_vector

# Absolute snapping/tightness tolerance for chain bookkeeping.
TIGHT_TOL = 1e-7
BOX_TOL = 1e-9  # how far outside [0, 1] `build_chain` lets a coordinate stray
SIGN_REL_TOL = 1e-9  # `round_step`'s sign threshold, as a fraction of the value
MASS_REL_TOL = 1e-6  # how far `build_chain` lets x's mass stray from the rank k, times 1 + k


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
        """Split integral elements out of multi-element rings, in one pass.

        If x_i == 1 inside ring (S_{l-1}, S_l) with >= 2 elements, then
        S_{l-1} | {i} is tight (rank must rise by one for x to stay
        feasible).  Each such element, in index order, becomes a singleton
        ring of its own until one element of the ring is left.
        """
        out = []
        prev: frozenset = frozenset()
        for s in self.sets:
            ring = sorted(s - prev)
            for e in [e for e in ring if x[e] >= 1.0 - tol][: len(ring) - 1]:
                prev = prev | {e}
                out.append(prev)
            out.append(s)
            prev = s
        self.sets = out

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
    Integral elements are split off once: no piece of a ring without one
    has one.  One forward pass then asks the matroid for the first tight
    piece of each ring R of >= 2 elements, or else searches for one by slack
    minimization over the neighbouring pairs (a, b) of its sorted elements
    taken cyclically, a in T and b not: any proper nonempty T < R has such
    a pair, so r searches cover every T.  A proper piece splits the ring
    and the pass goes on with the lower piece; a ring without one is final,
    as later splits change neither it nor its prefix.  So each ring is
    asked once.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise InvalidInputError(f"x must have shape ({m.n},), got {x.shape}")
    if (x < -BOX_TOL).any() or (x > 1 + BOX_TOL).any():
        raise InvalidInputError("x must lie in [0, 1]^n")
    if abs(x.sum() - m.full_rank) > MASS_REL_TOL * (1 + m.full_rank):
        raise InvalidInputError(
            f"x has mass {x.sum()}, expected base polytope mass {m.full_rank}"
        )
    support = frozenset(int(e) for e in np.nonzero(x > 0)[0])
    chain = ChainState([support])
    chain.normalize_integral(x, tol)

    pos = 0
    while pos < len(chain.sets):
        prefix = chain.sets[pos - 1] if pos else frozenset()
        ring = sorted(chain.sets[pos] - prefix)
        piece = m._ring_piece(ring) if len(ring) > 1 else ring
        for a, b in (zip(ring, ring[1:] + ring[:1]) if piece is None else ()):
            res = slack_minimize(m, x, a, b, ring, prefix)
            if res.min_slack <= tol:
                # a in T, b not: a proper nonempty piece between the neighbours.
                piece = res.argmin
                break
        if piece is not None and len(piece) < len(ring):
            chain.sets.insert(pos, prefix | frozenset(piece))
        else:
            pos += 1
    return chain


def select_pair(dm: DistanceMatrix, x, rings) -> tuple:
    """Fractional same-ring pair (i, j), i < j, minimizing x_i * x_j * d(i,j).

    `rings` is a ring list from `ChainState.rings`.  Each ring is scored
    as one array, the strict upper triangle of outer(x_r, x_r) * D[r, r];
    ties break lexicographically on (i, j).  Raises if no fractional ring
    remains (rounding already complete).
    """
    best = None
    for ring in rings:
        if ring.integral or len(ring.elements) < 2:
            continue
        r = list(ring.elements)
        xr = x[r]
        scores = np.outer(xr, xr) * dm.d[np.ix_(r, r)]
        scores[np.tri(len(r), dtype=bool)] = np.inf
        a, b = divmod(int(np.argmin(scores)), len(r))
        cand = (float(scores[a, b]), r[a], r[b])
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


def _counts(rings) -> tuple:
    """(fractional elements, fractional rings) of a ring list."""
    sizes = [len(r.elements) for r in rings if not r.integral]
    return sum(sizes), len(sizes)


def round_step(dm: DistanceMatrix, m: Matroid, x, chain: ChainState, w=None) -> StepRecord:
    """Apply one rounding move in place (mutates x and chain).

    Sign choice: the objective minus its only eps-nonlinear term,
    2 * x_i * x_j * d(i,j), is linear in eps; move in the non-decreasing
    direction (ties: increase the smaller index).  The step length is
    min(x_dec, 1 - x_inc, ring slack minimum), in closed form or searched;
    an exhausted element is erased (precedence on ties), a binding slack
    inserts the new tight set.  Scores must be finite and nonnegative.
    """
    d = dm.d
    w_vec = _score_vector(w, m.n)
    rings = chain.rings(x)
    i, j = select_pair(dm, x, rings)
    ring = next(r for r in rings if i in r.elements)
    f_before, q_before = _counts(rings)

    # D @ x on the support S only, as D[S, :] @ x; it is left 0 off S,
    # where x is 0 too, so x @ dx sums the terms a full D @ x would give.
    support = x.nonzero()[0]
    dx = np.zeros(m.n)
    dx[support] = d[support] @ x
    value_before = float(x @ dx + w_vec @ x)
    kappa = 2.0 * float(dx[i] - dx[j]) - 2.0 * float(d[i, j]) * float(x[j] - x[i])
    kappa += float(w_vec[i] - w_vec[j])
    # Relative to the value (>= 0), so the sign does not change when D and
    # w are scaled together.
    sign = 1 if kappa >= -SIGN_REL_TOL * value_before else -1
    inc, dec = (i, j) if sign == 1 else (j, i)

    step = m._ring_step(x, inc, dec, ring.elements)
    if step is None:
        res = slack_minimize(m, x, inc, dec, set(ring.elements), ring.prefix)
        if res.min_slack < -TIGHT_TOL * (1 + m.full_rank):
            raise InternalInvariantError(f"negative ring slack {res.min_slack}")
        step = min(float(x[dec]), 1.0 - float(x[inc]), max(res.min_slack, 0.0)), res.argmin
    eps, piece = step

    x_inc, x_dec = float(x[inc]), float(x[dec])
    x[inc] += eps
    x[dec] -= eps
    if x[dec] <= TIGHT_TOL:
        # Erase-first rule: the exhausted element leaves the ground set.
        x[dec] = 0.0
        chain.erase(dec)
        event = "erased"
        new_tight = None
    else:
        new_tight = ring.prefix | piece
        chain.insert(new_tight)
        event = "refined"
    if x[inc] >= 1.0 - TIGHT_TOL:
        x[inc] = 1.0
    chain.normalize_integral(x)

    # D @ x on S after the step, from the two coordinates that moved.
    dx += (x[inc] - x_inc) * d[inc] + (x[dec] - x_dec) * d[dec]
    value_after = float(x @ dx + w_vec @ x)
    f_after, q_after = _counts(chain.rings(x))
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
    keep_iterates: bool = False,
    validate_steps: bool = False,
    force: bool = False,
) -> RoundResult:
    """Round x* in the base polytope to a basis of the matroid.

    Each of at most n iterations costs one D[S, S] @ x_S over the support
    S of x, and a slack search if the step has no closed form; the only
    n x n products are the two that give `quad_star` and the final value.
    x* is first rounded to multiples of 2^-40, so coordinates that are equal
    in exact arithmetic tie exactly and the pair rule's index order decides
    between them.  `validate_steps` re-checks all chain invariants after
    every step, and `keep_iterates` stores a copy of x per iteration in the
    trace.  The instance must be clear of overflow (`_check_overflow`), and
    D of negative type (`cite_or_certify`: cited for a catalogue matrix,
    else certified once per matrix) unless `force` is set.
    """
    if dm.n != m.n:
        raise InvalidInputError(f"distance has n={dm.n} but matroid has n={m.n}")
    _require_certified(dm, force)
    x = np.asarray(x_star, dtype=float)
    if x.shape != (m.n,):
        raise InvalidInputError(f"x must have shape ({m.n},), got {x.shape}")
    w_vec = _score_vector(w, m.n)
    k = m.full_rank
    _check_overflow(dm, k, w_vec)
    x = np.round(x / _TIE_GRID) * _TIE_GRID
    x[x <= TIGHT_TOL] = 0.0
    x[x >= 1.0 - TIGHT_TOL] = 1.0
    if k == 0:
        empty_trace = RoundingTrace((), 0.0, 0.0, 0, (), () if keep_iterates else None)
        return RoundResult(basis=(), value=float(0.0), trace=empty_trace)

    quad_star = float(x @ dm.d @ x)

    chain = build_chain(m, x)
    if validate_steps:
        chain.validate(m, x)
    records = []
    iterates = [x.copy()] if keep_iterates else None
    fractional, _ = _counts(chain.rings(x))
    while fractional:
        rec = round_step(dm, m, x, chain, w_vec)
        fractional = rec.fractional_after
        records.append(rec)
        if keep_iterates:
            iterates.append(x.copy())
        if validate_steps:
            chain.validate(m, x)
        if len(records) > m.n:
            raise InternalInvariantError("rounding exceeded the n-iteration bound")

    basis = tuple(int(e) for e in np.nonzero(x >= 1.0 - TIGHT_TOL)[0])
    if len(basis) != k or not m.is_independent(basis):
        raise InternalInvariantError("rounded output is not a basis")
    total = len(records)
    reverse_bounds = tuple(
        min(2.0 / ((total - t) * k), 2.0 / (total - t) ** 2) * quad_star
        for t in range(total)
    )
    value = float(x @ dm.d @ x) + float(w_vec @ x)
    trace = RoundingTrace(
        iterations=tuple(records),
        total_loss=float(sum(r.loss for r in records)),
        quad_star=quad_star,
        k=k,
        reverse_bounds=reverse_bounds,
        iterates=tuple(iterates) if keep_iterates else None,
    )
    return RoundResult(basis=basis, value=value, trace=trace)
