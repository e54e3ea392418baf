"""Distance spaces of negative type: catalogue, transforms, certification.

A symmetric nonnegative matrix D with zero diagonal is of negative type when
b @ D @ b <= 0 for every coefficient vector b with sum(b) == 0.  By
Schoenberg's classical criterion this happens exactly when the square roots
of the distances embed isometrically into l2, which in turn makes the
dispersion x @ D @ x concave on every slice {x : sum(x) == alpha}.

Everything here runs through one decomposition.  Fix a base point (index 0
by default) and set

    c[i]    = d(base, i)
    Q[i, j] = (d(base, i) + d(base, j) - d(i, j)) / 2

so that d(i, j) == c[i] + c[j] - 2 * Q[i, j] for all i, j, hence

    x @ D @ x == 2 * sum(x) * (c @ x) - 2 * (x @ Q @ x)

identically in x.  D is of negative type exactly when Q is positive
semidefinite, which `certify_negative_type` checks with one Cholesky
factorization of Q shifted by its tolerance; when that fails, a negative
eigenvector of Q converts directly into a violating vector b.

Every catalogue kind of `build_distance` is of negative type by a theorem
its docstring cites, and every bundled transform keeps the property.  A
matrix built that way records its kind as `DistanceMatrix.provenance`, and
the solve path (`cite_or_certify`) accepts it on that ground, without the
O(n^3) factorization.  `certify_negative_type` itself always computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, InvalidInputError

# PSD acceptance cutoff is PSD_TOL_SCALE * ||Q||_inf, with ||.||_inf the max
# absolute row sum: relative, so the verdict does not change when D is scaled.
PSD_TOL_SCALE = 1e-8
# Relative tolerance for numeric identities and inequality checks.
NUM_TOL = 1e-9
# Additive slack allowed when checking the triangle inequality.
METRIC_TOL = 1e-9
# Cap on the bytes of one block temporary of the distance builders and of
# the certifying factorization.
_BLOCK_BYTES = 1 << 20
# Column-block width of the certifying Cholesky factorization.
_CHOL_BLOCK = 128
# Side of the square tiles in which `DistanceMatrix` compares D with D.T.
_SYM_TILE = 256
# l2 entries whose Gram value g = |a|^2 + |b|^2 - 2 a.b is at most this
# fraction of |a|^2 + |b|^2 are recomputed from the point differences.
_GRAM_CANCEL = 1e-4

NORM_KINDS = ("l1", "l2", "lp", "cosine")
SET_KINDS = ("jaccard", "dice", "simple_matching", "russell_rao")
DISTANCE_KINDS = NORM_KINDS + SET_KINDS + ("explicit",)
TRANSFORM_NAMES = ("power", "ratio", "log1p", "exp_decay", "metric_power")


@dataclass(frozen=True)
class DistanceMatrix:
    """Validated pairwise distances over ground set {0, ..., n-1}.

    Invariants enforced at construction: square, n >= 2, finite, nonnegative,
    exactly symmetric, zero diagonal.  The wrapped array is a read-only
    view that cannot be made writable again, so `certify_negative_type`
    computes its verdict once per object; a transformed matrix is a new
    object with its own verdict.

    `provenance` is the catalogue kind the matrix was built from, set only
    by `build_distance` and carried by `transform_distance`.  It is None for
    a matrix constructed directly, an "explicit" one, and any transform of
    those; the constructor takes no argument for it.
    """

    d: np.ndarray
    provenance: str | None = field(default=None, init=False)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 2:
            raise InvalidInputError("distance matrix needs at least 2 elements")
        if not np.isfinite(d).all():
            raise InvalidInputError("distance matrix entries must be finite")
        if (d < 0).any():
            raise InvalidInputError("distances must be nonnegative")
        if not _is_symmetric(d):
            raise InvalidInputError("distance matrix must be symmetric")
        if np.diagonal(d).any():
            raise InvalidInputError("distance matrix diagonal must be zero")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d.view())

    @property
    def n(self) -> int:
        return self.d.shape[0]


def _is_symmetric(d: np.ndarray) -> bool:
    """Whether d == d.T exactly, compared in _SYM_TILE-square tiles.

    Tile (I, J) is compared with the transpose of tile (J, I) for I <= J,
    so both operands of each comparison stay in cache, where one pass over
    d.T would stride across the whole matrix.
    """
    n, t = d.shape[0], _SYM_TILE
    return all(
        np.array_equal(d[i0 : i0 + t, j0 : j0 + t], d[j0 : j0 + t, i0 : i0 + t].T)
        for i0 in range(0, n, t)
        for j0 in range(i0, n, t)
    )


@dataclass(frozen=True)
class SchoenbergForm:
    """Base-point decomposition d(i,j) = c[i] + c[j] - 2 Q[i,j]."""

    q: np.ndarray
    c: np.ndarray
    base_point: int


@dataclass(frozen=True)
class NegTypeCertificate:
    """Outcome of negative-type certification.

    `method` names the ground of the verdict: "catalogue" (the theorem of
    the matrix's provenance, see `cite_or_certify`), "cholesky" (the
    factorization accepted) or "eigh" (the eigendecomposition decided).
    `min_eigenvalue` is the smallest eigenvalue of Q restricted to the
    non-base coordinates (the base row and column of Q are identically
    zero and carry no information) whenever `eigh` ran: on every rejection
    and on the rare acceptance the Cholesky test could not make.  It is
    None otherwise.  On failure, `witness` is a vector b with sum(b) == 0
    and b @ D @ b == witness_value > 0.
    """

    is_negative_type: bool
    min_eigenvalue: float | None
    method: str
    witness: np.ndarray | None = None
    witness_value: float | None = None

    @property
    def verdict(self) -> str:
        return "negative_type" if self.is_negative_type else "not_negative_type"


@dataclass(frozen=True)
class UnionInequalityCheck:
    """Both sides of the per-mass dispersion superadditivity inequality."""

    holds: bool
    lhs: float
    rhs: float


def _finalize(m: np.ndarray, provenance: str | None) -> DistanceMatrix:
    # Diagonal and negativity cleanup of float fuzz, in place.  m is exactly
    # symmetric already, by mirroring (l1, lp, l2) or by forming (i, j) and
    # (j, i) alike; DistanceMatrix re-checks that.
    m = np.asarray(m, dtype=float)
    np.fill_diagonal(m, 0.0)
    np.clip(m, 0.0, None, out=m)
    dm = DistanceMatrix(m)
    object.__setattr__(dm, "provenance", provenance)
    return dm


def _block_rows(width: int) -> int:
    """Rows per block so that a (rows, width) float temporary fits _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


def _minkowski(pts: np.ndarray, p: float) -> np.ndarray:
    """(sum_k |a_k - b_k|**p)**(1/p) on the upper triangle of each row block.

    The (rows, n - r0) terms, one per coordinate, are added in coordinate
    order into one accumulator; no difference tensor is formed.  Mirroring
    is exact: |a - b| == |b - a|.
    """
    n, dim = pts.shape
    cols = pts.T.copy()
    out = np.empty((n, n))
    step = _block_rows(4 * n)  # (rows, n) arrays of _BLOCK_BYTES / 4 stay in cache
    for r0 in range(0, n, step):
        a, b = cols[:, r0 : r0 + step, None], cols[:, r0:]

        def term(k, buf):  # |b_k - a_k|; a row fill and a subtraction beat one broadcast
            buf[...] = b[k]
            np.abs(np.subtract(buf, a[k], out=buf), out=buf)
            return buf if p == 1.0 else np.power(buf, p, out=buf)

        acc, buf = np.empty((2, a.shape[1], n - r0))
        term(0, acc)
        for k in range(1, dim):
            acc += term(k, buf)
        if p != 1.0:
            np.power(acc, 1.0 / p, out=acc)
        out[r0 : r0 + step, r0:] = acc
        out[r0 + step :, r0 : r0 + step] = acc[:, step:].T
    return out


def _euclidean(pts: np.ndarray) -> np.ndarray:
    """l2 distances from the Gram identity |a - b|^2 = |a|^2 + |b|^2 - 2 a.b.

    The points are centered first, which leaves differences unchanged and
    keeps |a|^2 + |b|^2 small against |a - b|^2.  Where the identity still
    cancels, g <= _GRAM_CANCEL * (|a|^2 + |b|^2), |a - b|^2 is summed from
    the differences of the original points instead, which keeps the
    relative error of every entry below about 1e-11.  The diagonal is
    exactly 0.  Each row block is done on its upper triangle and mirrored.
    """
    n, dim = pts.shape
    centered = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", centered, centered)
    g = centered @ centered.T  # numpy forms x @ x.T symmetrically (syrk)
    step, pairs = _block_rows(4 * n), _block_rows(dim)  # blocks as in _minkowski
    for r0 in range(0, n, step):
        blk = g[r0 : r0 + step, r0:]
        scale = sq[r0 : r0 + step, None] + sq[None, r0:]
        blk *= -2.0
        blk += scale
        i, j = np.nonzero(blk <= _GRAM_CANCEL * scale)
        for c0 in range(0, i.size, pairs):
            ic, jc = i[c0 : c0 + pairs], j[c0 : c0 + pairs]
            diff = pts[r0 + ic] - pts[r0 + jc]
            blk[ic, jc] = (diff * diff).sum(axis=-1)
        np.clip(blk, 0.0, None, out=blk)
        np.sqrt(blk, out=blk)
        g[r0 + step :, r0 : r0 + step] = blk[:, step:].T
    return g


def _points_array(data) -> np.ndarray:
    pts = np.asarray(data, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InvalidInputError(f"points must be a 1-D or 2-D array, got ndim={pts.ndim}")
    if pts.shape[0] < 2:
        raise InvalidInputError("need at least 2 points")
    if not np.isfinite(pts).all():
        raise InvalidInputError("points must be finite")
    return np.ascontiguousarray(pts)


def _incidence(data, universe) -> np.ndarray:
    if universe is None:
        raise InvalidInputError("set-based distances require an explicit universe")
    if isinstance(universe, (int, np.integer)):
        if universe < 0:
            raise InvalidInputError(f"universe size must be nonnegative, got {universe}")
        items = list(range(int(universe)))
    else:
        items = list(universe)
        if len(set(items)) != len(items):
            raise InvalidInputError("universe contains duplicate items")
    index = {item: pos for pos, item in enumerate(items)}
    sets = [frozenset(s) for s in data]
    if len(sets) < 2:
        raise InvalidInputError("need at least 2 sets")
    b = np.zeros((len(sets), max(len(items), 1)), dtype=float)
    for i, s in enumerate(sets):
        for item in s:
            if item not in index:
                raise InvalidInputError(f"set member {item!r} is not in the universe")
            b[i, index[item]] = 1.0
    return b[:, : len(items)] if items else np.zeros((len(sets), 0))


def build_distance(data, kind: str, *, p: float | None = None, universe=None) -> DistanceMatrix:
    """Build a DistanceMatrix from points, sets, or an explicit matrix.

    kind, with the theorem that makes it of negative type:
      "l1", "l2"          -- Minkowski distances of points (rows of `data`).
                             l1 is an L1 metric, and L1 metrics are of
                             negative type.  l2 is by Schoenberg: |a - b|^2
                             is of negative type, and so is its square root
      "lp"                -- Minkowski with exponent `p`, 1 <= p <= 2; lp
                             embeds isometrically in L1 for these p
      "cosine"            -- angle arccos(<u,v>/|u||v|) in [0, pi]; rejects
                             zero vectors.  The angle is pi times the
                             chance that a random hyperplane cuts u from v,
                             a mixture of cut metrics, so an L1 metric
      "jaccard"           -- 1 - |A&B|/|A|B|; d(empty, empty) = 0.  The
                             chance that a random min-hash tells A from B
                             (the empty set hashing to a symbol of its
                             own), so an L1 metric
      "dice"              -- |A^B| / (|A| + |B|); 0 when both sets empty.
                             1 - d is 2 <1_A, 1_B> / (|A| + |B|), a Schur
                             product of positive semidefinite kernels
                             (Gower-Legendre 1986), and 0 between an empty
                             and a nonempty set, so it stays positive
                             semidefinite, and d = 1 - (1 - d) is of
                             negative type
      "simple_matching"   -- |A^B| / |U|, a Hamming distance, so an L1 metric
      "russell_rao"       -- 1 - |A&B|/|U| off-diagonal; the diagonal is
                             forced to zero.  J - B B^T / |U|, with B the
                             incidence rows, is of negative type, and
                             zeroing its nonnegative diagonal keeps it so
                             (Gower-Legendre 1986)
      "explicit"          -- `data` is the matrix itself; no theorem applies

    Each catalogue kind is recorded as the matrix's `provenance`, the
    ground on which `cite_or_certify` accepts it.  The computed matrix is
    within rounding of the exact one the theorem covers.

    Set-based kinds require `universe` (an int size or an iterable of items).
    l1, lp and l2 scale the whole cloud by a power of two so that its
    largest coordinate lies in [0.5, 1), and D back by its inverse; cosine
    scales each point by its own power of two.  Exact in the normal range,
    this gives D of the unscaled formulas there for l1, l2 and cosine (lp
    moves by ulps in its powers), and points near the ends of the double
    range neither vanish in a power nor overflow.

    Memory: the peak counts the n x n result and the read-only copy that
    DistanceMatrix keeps.  Traced with tracemalloc at n = 1000 (8-dim
    points, a 60-item universe), in n * n floats: l1, lp and l2 2.0, cosine
    3.0, simple_matching and russell_rao 5.1, dice 5.2, jaccard 6.2.  l1,
    lp and l2 fill the upper triangle of a block of rows and mirror it, with
    no (rows, n, dim) difference tensor and temporaries near _BLOCK_BYTES
    (1 MiB): l1 and lp add a (rows, n) term per coordinate, in coordinate
    order, and l2 forms the Gram matrix in the result buffer and recomputes
    cancelling pairs in batches.  Cosine and the set kinds hold several
    n x n temporaries.
    """
    if kind == "explicit":
        return DistanceMatrix(np.asarray(data, dtype=float))

    if kind in NORM_KINDS:
        pts = _points_array(data)
        if kind == "cosine":
            pts = np.ldexp(pts, -np.frexp(np.abs(pts).max(axis=1))[1][:, None])
            norms = np.linalg.norm(pts, axis=1)
            if (norms <= 0).any():
                raise InvalidInputError("cosine distance is undefined for zero vectors")
            cos = (pts @ pts.T) / np.outer(norms, norms)
            return _finalize(np.arccos(np.clip(cos, -1.0, 1.0)), kind)
        if kind == "l1":
            p = 1.0
        elif kind == "l2":
            p = 2.0
        else:
            if p is None:
                raise InvalidInputError("kind 'lp' requires the exponent p")
            p = float(p)
            if not 1.0 <= p <= 2.0:
                raise InvalidInputError(f"lp exponent must satisfy 1 <= p <= 2, got {p}")
        exp = np.frexp(np.abs(pts).max())[1]
        pts = np.ldexp(pts, -exp)
        g = _euclidean(pts) if p == 2.0 else _minkowski(pts, p)
        del pts  # not held through the copy that DistanceMatrix makes
        return _finalize(np.ldexp(g, exp, out=g), kind)

    if kind in SET_KINDS:
        b = _incidence(data, universe)
        u_size = b.shape[1]
        inter = b @ b.T
        sizes = b.sum(axis=1)
        total = sizes[:, None] + sizes[None, :]
        symdiff = total - 2.0 * inter
        if kind == "jaccard":
            union = total - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                m = np.where(union > 0, 1.0 - inter / np.where(union > 0, union, 1.0), 0.0)
        elif kind == "dice":
            with np.errstate(invalid="ignore", divide="ignore"):
                m = np.where(total > 0, symdiff / np.where(total > 0, total, 1.0), 0.0)
        else:
            if u_size < 1:
                raise InvalidInputError(f"kind '{kind}' requires a nonempty universe")
            if kind == "simple_matching":
                m = symdiff / u_size
            else:  # russell_rao
                m = 1.0 - inter / u_size
        return _finalize(m, kind)

    raise InvalidInputError(f"unknown distance kind {kind!r}")


def is_metric(dm: DistanceMatrix) -> bool:
    """Check the triangle inequality d(i,j) <= d(i,k) + d(k,j) up to METRIC_TOL."""
    d = dm.d
    # through[i, j] = min_k d(i, k) + d(k, j), accumulated one k at a time.
    through = np.full_like(d, np.inf)
    via = np.empty_like(d)
    for k in range(dm.n):
        np.add(d[:, k, None], d[k, None, :], out=via)
        np.minimum(through, via, out=through)
    return bool(np.all(d <= through + METRIC_TOL))


def transform_distance(
    dm: DistanceMatrix,
    transform: str,
    *,
    alpha: float | None = None,
    lam: float | None = None,
) -> DistanceMatrix:
    """Apply an entrywise transform that preserves the negative-type property.

    transform:
      "power"         -- d**alpha with 0 < alpha <= 1
      "ratio"         -- d / (1 + d)
      "log1p"         -- log(1 + d)
      "exp_decay"     -- 1 - exp(-lam * d) with 0 < lam < inf
      "metric_power"  -- d**log2(n/(n-1)); requires d to be a metric, and
                         maps any metric to a negative-type (indeed metric)
                         distance

    The first four are Bernstein functions vanishing at 0, and such a
    function of a negative-type distance is of negative type (Schoenberg);
    metric_power is the power with exponent log2(n/(n-1)) in (0, 1].  So
    the result keeps the input's `provenance`.
    """
    d = dm.d
    if transform == "power":
        if alpha is None or not 0.0 < float(alpha) <= 1.0:
            raise InvalidInputError("power transform requires alpha in (0, 1]")
        out = d ** float(alpha)
    elif transform == "ratio":
        out = d / (1.0 + d)
    elif transform == "log1p":
        out = np.log1p(d)
    elif transform == "exp_decay":
        if lam is None or not 0.0 < float(lam) < math.inf:
            raise InvalidInputError("exp_decay transform requires finite lam > 0")
        out = -np.expm1(-float(lam) * d)
    elif transform == "metric_power":
        if not is_metric(dm):
            raise InvalidInputError("metric_power requires a metric input")
        out = d ** math.log2(dm.n / (dm.n - 1))
    else:
        raise InvalidInputError(f"unknown transform {transform!r}")
    return _finalize(out, dm.provenance)


def schoenberg_form(dm: DistanceMatrix, base_point: int = 0) -> SchoenbergForm:
    """Compute c and Q for the decomposition d(i,j) = c[i] + c[j] - 2 Q[i,j]."""
    n = dm.n
    if not 0 <= base_point < n:
        raise InvalidInputError(f"base point {base_point} out of range for n={n}")
    c = dm.d[base_point].copy()
    # (c[i] + c[j] - d[i, j]) / 2 is formed alike for (i, j) and (j, i), so Q
    # is exactly symmetric because D is.
    q = np.add.outer(c, c)
    q -= dm.d
    q *= 0.5
    # The base row/column is zero in exact arithmetic; pin it exactly.
    q[base_point, :] = 0.0
    q[:, base_point] = 0.0
    q.setflags(write=False)
    c.setflags(write=False)
    return SchoenbergForm(q=q, c=c, base_point=base_point)


def _inf_norm(a: np.ndarray) -> float:
    """||a||_inf, the largest absolute row sum, one block of rows at a time."""
    step = _block_rows(a.shape[1])
    return max(float(np.abs(a[r0 : r0 + step]).sum(axis=1).max()) for r0 in range(0, len(a), step))


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Whether symmetric `a` has a Cholesky factor; `a` is overwritten.

    Right-looking and blocked.  Each diagonal block is factored by
    `np.linalg.cholesky`, which reads its lower triangle, and its factor L
    is inverted once by back-substitution, except in the last block, which
    has no panel below it.  The panel P becomes P @ inv(L).T, and the
    lower trailing matrix is updated, all by GEMMs:
    the panel in row chunks, the update one column block at a time.  Row
    chunks hold at most _BLOCK_BYTES, so no temporary is larger than that
    or one _CHOL_BLOCK-wide diagonal factor.  False as soon as a diagonal
    block is not positive definite.

    A product with an explicit inverse errs by up to cond(L) times more
    than a triangular solve, and the verdict keeps its margin anyway.  `a`
    is Q shifted by tau, so when Q is PSD every diagonal block factored
    here, a Schur complement of `a`, has no eigenvalue below tau and none
    above ||a||.  Its inverse comes by back-substitution on L with
    cond(L) <= sqrt(||a|| / tau), about 1e4, so a panel errs by about 1e4
    * eps relative: four orders of magnitude inside the 1e-8 margin that
    tau gives.
    """
    m = a.shape[0]
    b = _CHOL_BLOCK
    rows = max(b, _BLOCK_BYTES // (8 * b))
    try:
        for k0 in range(0, m, b):
            k1 = min(k0 + b, m)
            # With rows and columns reversed L is upper triangular, so
            # np.linalg.solve swaps no rows and back-substitutes.
            upper = np.linalg.cholesky(a[k0:k1, k0:k1])[::-1, ::-1]
            if k1 == m:
                break
            inv_lt = np.linalg.solve(upper, np.eye(k1 - k0))[::-1, ::-1].T.copy()
            for r0 in range(k1, m, rows):
                panel = a[r0 : r0 + rows, k0:k1]
                panel[...] = panel @ inv_lt
            for j0 in range(k1, m, b):
                lj = a[j0 : j0 + b, k0:k1]
                for r0 in range(j0, m, rows):
                    a[r0 : r0 + rows, j0 : j0 + b] -= a[r0 : r0 + rows, k0:k1] @ lj.T
    except np.linalg.LinAlgError:
        return False
    return True


def certify_negative_type(dm: DistanceMatrix) -> NegTypeCertificate:
    """Test whether D is of negative type, that is whether Q is PSD.

    The verdict is computed on the first call for a `DistanceMatrix`, and
    later calls on the same object return the same certificate.

    This test always computes, whatever the matrix's `provenance`; the
    solve path calls `cite_or_certify` instead.

    Acceptance threshold: min eigenvalue of Q >= -tau with
    tau = PSD_TOL_SCALE * ||Q||_inf, so c * D gets the same verdict as D
    for every c > 0.  The verdict comes from one blocked Cholesky
    factorization of A = Q[1:, 1:] + tau * I, formed from D times a power
    of four in a single (n-1) x (n-1) buffer and factored in place.  If the
    factor exists, Q has no eigenvalue below -tau up to a backward error of
    about n * eps * ||Q||, and D is accepted with `min_eigenvalue` None and
    method "cholesky".
    Only when the factorization fails does `eigh` run on the same scaled
    form (method "eigh"): its smallest eigenvalue decides against the same
    threshold and, on rejection, its eigenvector gives the witness b
    (zero-sum, b @ D @ b > 0).  An all-zero D has tau == 0 and no factor;
    `eigh` accepts it with min eigenvalue 0.
    """
    if "_certificate" not in vars(dm):
        object.__setattr__(dm, "_certificate", _certify(dm))
    return dm._certificate


_CITED = NegTypeCertificate(is_negative_type=True, min_eigenvalue=None, method="catalogue")


def cite_or_certify(dm: DistanceMatrix) -> NegTypeCertificate:
    """The solve path's verdict: cited for a catalogue matrix, else computed.

    A matrix with a `provenance` is of negative type by the theorem its
    kind's entry in `build_distance` cites, and it is accepted on that
    ground, with method "catalogue" and no factorization.  Every other
    matrix gets `certify_negative_type(dm)`.
    """
    return _CITED if dm.provenance is not None else certify_negative_type(dm)


def _scaled_form(dm: DistanceMatrix, e: int) -> np.ndarray:
    """Q[1:, 1:] * 2**e, formed from D in one (n-1) x (n-1) buffer."""
    c, a = np.ldexp(dm.d[0, 1:], e), np.ldexp(dm.d[1:, 1:], e)
    step = _block_rows(len(c))
    for r0 in range(0, len(c), step):
        np.subtract(np.add.outer(c[r0 : r0 + step], c), a[r0 : r0 + step], out=a[r0 : r0 + step])
    a *= 0.5
    return a


def _certify(dm: DistanceMatrix) -> NegTypeCertificate:
    # With e even and max D * 2**e in [1/4, 1), nothing below overflows, and
    # in the normal range every step, square roots too, scales exactly.
    e = -2 * ((math.frexp(float(dm.d.max()))[1] + 1) // 2)
    a = _scaled_form(dm, e)
    tau = PSD_TOL_SCALE * _inf_norm(a)
    a.reshape(-1)[:: a.shape[0] + 1] += tau
    if _cholesky_in_place(a):
        return NegTypeCertificate(is_negative_type=True, min_eigenvalue=None, method="cholesky")
    del a  # overwritten by the factorization
    evals, evecs = np.linalg.eigh(_scaled_form(dm, e))
    min_eig = float(np.ldexp(evals[0], -e))
    if evals[0] >= -tau:
        return NegTypeCertificate(is_negative_type=True, min_eigenvalue=min_eig, method="eigh")
    u = evecs[:, 0]
    b = np.empty(dm.n)
    b[1:] = u
    b[0] = -u.sum()
    v = np.ldexp(b, e // 2)
    value = float(v @ dm.d @ v)
    try:
        value = math.ldexp(value, -e)
    except OverflowError:  # b @ D @ b is beyond the double range; v @ D @ v is not
        b = v
    if value <= 0:
        # b @ D @ b == -2 * min_eig * |u|^2 > 0 must hold for a genuinely
        # negative eigenvalue; anything else is a numerical contradiction.
        raise InternalInvariantError(
            f"negative eigenvalue {min_eig} produced a non-violating witness ({value})"
        )
    b.setflags(write=False)
    return NegTypeCertificate(False, min_eig, "eigh", witness=b, witness_value=value)


def check_union_inequality(dm: DistanceMatrix, x, a, b) -> UnionInequalityCheck:
    """Evaluate f(x^(A|B))/mass(A|B) >= f(x^A)/mass(A) + f(x^B)/mass(B).

    x^S zeroes x outside S and f is the pure quadratic dispersion.  The
    inequality is guaranteed for negative-type D; this helper just measures
    both sides.  A and B must be disjoint and each carry positive mass.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dm.n,):
        raise InvalidInputError(f"x must have shape ({dm.n},), got {x.shape}")
    a_set = frozenset(int(e) for e in a)
    b_set = frozenset(int(e) for e in b)
    for e in a_set | b_set:
        if not 0 <= e < dm.n:
            raise InvalidInputError(f"element {e} out of range")
    if a_set & b_set:
        raise InvalidInputError("A and B must be disjoint")

    def _side(subset):
        xs = np.zeros(dm.n)
        idx = sorted(subset)
        xs[idx] = x[idx]
        mass = xs.sum()
        if mass <= 0:
            raise InvalidInputError("each side must carry positive mass")
        return float(xs @ dm.d @ xs) / mass

    lhs = _side(a_set | b_set)
    rhs = _side(a_set) + _side(b_set)
    holds = lhs >= rhs - NUM_TOL * (1.0 + abs(rhs))
    return UnionInequalityCheck(holds=holds, lhs=lhs, rhs=rhs)
