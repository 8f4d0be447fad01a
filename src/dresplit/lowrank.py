"""LDL^T factor arithmetic.

A symmetric N x N matrix P is represented as P = L @ D @ L.T with a tall
basis L (N x r) and a small symmetric core D (r x r).  The core may be
indefinite; combinations with negative weights are therefore first-class
citizens.  All operations are pure: inputs are never mutated and results are
fresh factors, so values may be shared freely across threads.

Compression has one rule (``_truncate``: eigendecompose the core in an
orthonormal basis, drop the pairs of least energy) and two ways to get the
basis.  Below N columns it is the thin QR of the basis, with the core
R D R^T.  At N or more columns the thin QR's Q is N x N, so the identity
serves as well: the core is the N x N sum itself, formed as one product of
the side-by-side blocks B_j C_j with the stacked basis, and no QR is taken.

Compression only saves work below N columns.  A full-width sum that feeds
further flows (the affine flow's two terms, the quadrature rule's X(h))
is therefore not compressed at all: ``combine(..., truncate=False)``
returns it as its N x N core on the shared, read-only identity basis
``identity_basis(N)``, and the step that ends on it compresses once
(``compress`` takes an identity basis as it is, with no QR).  Onto an
exact X(h), already on that basis, the affine flow forms the sum itself
(``subflows.affine_flow``), checked by the same ``_symmetric_core``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, NonFiniteFactor, RefusedDense

DENSE_GUARD = 4096
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class LDLTFactor:
    """Low-rank factor pair (L, D) representing the product L D L^T.

    D is symmetrized on construction; rank 0 (L with zero columns, 0 x 0
    core) is a legal representation of the zero matrix.
    """

    L: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=np.float64)
        if L.ndim == 1:
            L = L.reshape(-1, 1)
        if L.ndim != 2:
            raise InvalidInput(f"basis must be a 2-D array, got {L.ndim} dimensions")
        D = np.asarray(self.D, dtype=np.float64)
        if D.ndim == 0:
            D = D.reshape(1, 1)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise InvalidInput(f"core must be square, got shape {D.shape}")
        if L.shape[1] != D.shape[0]:
            raise InvalidInput(
                f"basis has {L.shape[1]} columns but core is {D.shape[0]} x {D.shape[1]}"
            )
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "D", 0.5 * (D + D.T))

    @classmethod
    def _trusted(cls, L: np.ndarray, D: np.ndarray) -> "LDLTFactor":
        """Factor from arrays the library built itself: a float64 2-D basis
        and an exactly symmetric float64 core of matching size.  Skips the
        checks and the re-symmetrization of the public constructor."""
        factor = object.__new__(cls)
        object.__setattr__(factor, "L", L)
        object.__setattr__(factor, "D", D)
        return factor

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    @classmethod
    def zero(cls, n: int) -> "LDLTFactor":
        return cls(np.zeros((n, 0)), np.zeros((0, 0)))


@dataclass(frozen=True)
class CompressionOptions:
    """Truncation control for column compression.

    rel_tol bounds the relative Frobenius reconstruction error; None selects
    the default N * machine-epsilon for the factor at hand.
    """

    rel_tol: float | None = None

    def __post_init__(self):
        if self.rel_tol is not None and not self.rel_tol >= 0:
            raise InvalidInput(f"rel_tol must be nonnegative, got {self.rel_tol}")

    def resolve_tol(self, n: int) -> float:
        if self.rel_tol is not None:
            return self.rel_tol
        return n * _EPS


# Workspace per column for the LAPACK QR calls.  f2py's default (3 per
# column) makes dgeqrf/dorgqr fall back to unblocked code on bases wider
# than the crossover (128 columns), which changes the bits of Q and R; 64 per
# column covers the block size, so the results match np.linalg.qr.
_QR_WORK = 64


@functools.lru_cache(maxsize=256)
def _below_diagonal(k: int, m: int) -> np.ndarray:
    """Boolean k x m mask of the entries below the diagonal (np.triu's)."""
    return np.tri(k, m, -1, dtype=bool)


def _lapack_check(info: int, routine: str) -> None:
    """Raise LinAlgError, as numpy's wrappers do, when a LAPACK call fails."""
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info={info}")


def _thin_qr(basis: np.ndarray):
    """Reduced QR (Q, R) of an N x m basis, as np.linalg.qr(mode="reduced")."""
    m = basis.shape[1]
    k = min(basis.shape)
    qr, tau, _, info = lapack.dgeqrf(basis, lwork=_QR_WORK * m)
    _lapack_check(info, "dgeqrf")
    r = np.where(_below_diagonal(k, m), 0.0, qr[:k])
    # qr is ours: Q overwrites its leading columns, once R is taken out.
    q, _, info = lapack.dorgqr(qr[:, :k], tau, lwork=_QR_WORK * k, overwrite_a=1)
    _lapack_check(info, "dorgqr")
    return q, r


# The one identity basis per dimension, made only where a sum can reach N
# columns (an N x N core exists then anyway).  Never evicted: a factor on
# an evicted identity would no longer read as uncompressed.
_IDENTITIES = {}


def identity_basis(n: int) -> np.ndarray:
    """The read-only N x N identity that every full-width sum of dimension
    N shares as its basis, so that ``combine`` merges such terms by
    identity and ``on_identity`` tells an uncompressed factor apart."""
    basis = _IDENTITIES.get(n)
    if basis is None:
        basis = np.eye(n)
        basis.flags.writeable = False
        basis = _IDENTITIES.setdefault(n, basis)  # one object per n, across threads
    return basis


def on_identity(factor: LDLTFactor) -> bool:
    """Whether factor is an uncompressed sum on ``identity_basis``; makes
    no identity where none was made."""
    return factor.L is _IDENTITIES.get(factor.n)


def _symmetric_core(core: np.ndarray, width: int, n: int) -> np.ndarray:
    """(C + C^T) / 2, after checking it finite; NonFiniteFactor otherwise,
    naming the rank-``width`` factor of dimension n it would compress."""
    core = 0.5 * (core + core.T)
    if not np.isfinite(core).all():
        raise NonFiniteFactor(
            f"cannot compress a rank-{width} factor of dimension {n}: "
            "its core is not finite"
        )
    return core


def _core_norm(core: np.ndarray, width: int, n: int) -> float:
    """Frobenius norm of the core of ``combine``'s estimate, symmetrized as
    in ``_truncate`` and summed with its largest entry scaled into [0.5, 1)
    by a power of two as in ``compress``.  Raises NonFiniteFactor, naming
    the estimate as a rank-``width`` factor, when the core is not finite."""
    core = 0.5 * (core + core.T)
    if not np.isfinite(core).all():
        raise NonFiniteFactor(
            f"cannot take the norm of the estimate, a rank-{width} factor of "
            f"dimension {n}: its core is not finite"
        )
    top = np.abs(core).max()
    if top == 0.0:
        return 0.0
    e = np.frexp(top)[1]
    return float(np.ldexp(np.sqrt(np.sum(np.ldexp(core, -e) ** 2)), e))


def _truncate(q: np.ndarray | None, core: np.ndarray, width: int, n: int,
              opts: CompressionOptions) -> LDLTFactor:
    """Compressed factor of Q C Q^T, from an orthonormal basis Q (N x k)
    and its core C (k x k), as yet unsymmetrized.  q=None is the identity
    basis: C is the N x N matrix itself and the kept eigenvectors are the
    basis.  width, the number of columns the basis was stacked from, names
    the factor in the NonFiniteFactor raised when C is not finite."""
    core = _symmetric_core(core, width, n)
    eigvals, eigvecs, info = lapack.dsyevd(core, lower=1)
    _lapack_check(info, "dsyevd")

    mag = np.abs(eigvals)
    top = float(mag.max())
    if top == 0.0:
        return LDLTFactor.zero(n)
    # Energies are summed with the largest magnitude scaled into [0.5, 1) by
    # a power of two, so that squares of eigenvalues beyond ~1e154 cannot
    # overflow; the scaling is exact and leaves every decision in the normal
    # range as it would be unscaled.
    scaled = np.ldexp(eigvals, -math.frexp(top)[1])
    energy = scaled * scaled
    total = math.sqrt(energy.sum())

    # Discard the largest ascending-|eigenvalue| prefix whose cumulative
    # energy stays within the budget (inclusive comparison for determinism).
    order = mag.argsort(kind="stable")
    cumulative = np.sqrt(energy[order].cumsum())
    n_drop = int(cumulative.searchsorted(opts.resolve_tol(n) * total, side="right"))
    # Kept pairs in descending magnitude, for a canonical layout.
    keep = order[n_drop:][::-1]
    if keep.size == 0:
        return LDLTFactor.zero(n)
    kept = eigvecs[:, keep]
    return LDLTFactor._trusted(kept if q is None else q @ kept, np.diag(eigvals[keep]))


def compress(factor: LDLTFactor, opts: CompressionOptions = CompressionOptions()) -> LDLTFactor:
    """Rank-truncate a factor, bounding the relative reconstruction error.

    The basis is orthogonalized by a thin QR factorization, the congruence
    R D R^T of the core is eigendecomposed, and the eigenpairs of smallest
    magnitude are discarded as long as their cumulative energy stays within
    rel_tol times the total.  The discarded-energy criterion guarantees
    ||P_in - P_out||_F <= rel_tol * ||P_in||_F; the output core is diagonal.
    Rank never increases.  A factor on ``identity_basis`` is orthonormal
    already: its core is truncated as it is, with the bits the QR path
    would give.  Raises NonFiniteFactor when the congruence core is not
    finite.
    """
    if factor.rank == 0:
        return factor
    if on_identity(factor):
        return _truncate(None, factor.D, factor.rank, factor.n, opts)
    q, r = _thin_qr(factor.L)
    return _truncate(q, r @ factor.D @ r.T, factor.rank, factor.n, opts)


def _scaled(weight, core: np.ndarray) -> np.ndarray:
    """weight * core; a unit weight returns the core itself, which has the
    same bits."""
    weight = float(weight)
    return core if weight == 1.0 else weight * core


def _merge(terms, estimate_weights) -> tuple:
    """(bases, cores, estimate cores), in one pass over the terms: the
    distinct bases of the terms of nonzero rank, in first-seen order, and
    for each the weighted sums of the cores of the terms sharing it, summed
    in term order (estimate cores None without estimate weights).

    Bases are shared when they are the same array or equal entry by entry;
    the first entries are compared before the whole arrays, which decides
    the same (NaN never equals, -0.0 equals 0.0) at a fraction of the cost
    for bases that differ.
    """
    bases, cores, est_cores = [], [], []
    for i, (weight, factor) in enumerate(terms):
        basis = factor.L
        if basis.shape[1] == 0:
            continue
        core = _scaled(weight, factor.D)
        est = None if estimate_weights is None else _scaled(estimate_weights[i], factor.D)
        first = basis[0, 0]
        for j, seen in enumerate(bases):
            if seen is basis or (seen.shape == basis.shape and seen[0, 0] == first
                                 and np.array_equal(seen, basis)):
                cores[j] = cores[j] + core
                if est is not None:
                    est_cores[j] = est_cores[j] + est
                break
        else:
            bases.append(basis)
            cores.append(core)
            est_cores.append(est)
    return bases, cores, est_cores


def _block_diag(cores) -> np.ndarray:
    if len(cores) == 1:
        return cores[0]
    size = sum(c.shape[0] for c in cores)
    big_d = np.zeros((size, size))
    at = 0
    for c in cores:
        big_d[at : at + c.shape[0], at : at + c.shape[0]] = c
        at += c.shape[0]
    return big_d


def _stack(bases) -> np.ndarray:
    return bases[0] if len(bases) == 1 else np.concatenate(bases, axis=1)


def combine(
    terms,
    opts: CompressionOptions = CompressionOptions(),
    estimate_weights=None,
    truncate: bool = True,
):
    """Weighted sum sum_i w_i * L_i D_i L_i^T, compressed as in ``compress``.

    terms is a non-empty sequence of (weight, factor) pairs sharing the state
    dimension.  Concatenation happens in the given order; terms whose basis
    blocks are bitwise identical are merged by summing their scaled cores
    before compression, so exact cancellations produce an exact rank-0
    result.  Merged cores that are all zero are left out, and a unit weight
    takes the core as it is (1.0 * D has the bits of D), so distinct bases
    with unit weights are stacked without copying a core.

    The basis follows the width c of the merged bases that are kept.  Below
    N columns they are stacked, with their cores in a block-diagonal core,
    and compressed as in ``compress``, from a thin QR Q R of the stack.  At
    c >= N there is no QR: the N x N sum sum_j (B_j C_j) B_j^T over the
    merged bases B_j and cores C_j, formed as the one product
    [B_1 C_1, B_2 C_2, ...] [B_1, B_2, ...]^T, is eigendecomposed and
    truncated by the same rule, its kept eigenvectors being the basis.  The
    two agree to round-off and meet the same error bound.  With
    ``truncate=False`` (for a sum that feeds further flows) that N x N sum
    is returned as it is, symmetrized, on ``identity_basis(N)``: rank N, not
    eigendecomposed.  Terms on that shared identity merge as any shared
    basis does; below N columns the flag changes nothing.

    The return type follows ``estimate_weights``.  Without them it is the
    compressed sum.  Given a sequence of one estimate weight a_i per term
    (InvalidInput for any other length), it is the pair
    (compressed sum, ||sum_i a_i L_i D_i L_i^T||_F), both from the one basis:
    below N columns the norm is that of R D_a R^T, at N or more that of the
    N x N estimate sum, each symmetrized as in ``compress``.  A merged basis
    is then left out only when both of its cores are zero; where that keeps
    a basis whose sum core cancels, the compressed sum agrees with the plain
    one to round-off, elsewhere it has its bits.  Raises NonFiniteFactor
    when a core is not finite, naming a rank-c factor of dimension N on
    both branches, the estimate's with a message that names it.
    """
    terms = list(terms)
    if not terms:
        raise InvalidInput("combine needs at least one (weight, factor) term")
    if estimate_weights is not None and len(estimate_weights) != len(terms):
        raise InvalidInput(
            f"combine got {len(estimate_weights)} estimate weights for {len(terms)} terms"
        )
    n = terms[0][1].n
    for _, f in terms:
        if f.n != n:
            raise InvalidInput(f"state dimensions differ: {f.n} vs {n}")

    bases, cores, est_cores = _merge(terms, estimate_weights)
    estimating = estimate_weights is not None
    live = [i for i, c in enumerate(cores) if c.any() or (estimating and est_cores[i].any())]
    if not live:
        zero = LDLTFactor.zero(n)
        return (zero, 0.0) if estimating else zero
    stacked = _stack([bases[i] for i in live])
    width = stacked.shape[1]
    if width >= n:
        # The thin QR's Q would be N x N orthogonal, and Q = I spans the
        # same R^N: the core is the N x N sum [B_j C_j] [B_j]^T itself, one
        # product, with no QR.
        q = None

        def core_of(merged):
            return _stack([bases[i] @ merged[i] for i in live]) @ stacked.T
    else:
        q, r = _thin_qr(stacked)

        def core_of(merged):
            return r @ _block_diag([merged[i] for i in live]) @ r.T
    if q is None and not truncate:
        nxt = LDLTFactor._trusted(identity_basis(n), _symmetric_core(core_of(cores), width, n))
    else:
        nxt = _truncate(q, core_of(cores), width, n, opts)
    if not estimating:
        return nxt
    return nxt, _core_norm(core_of(est_cores), width, n)


def frob_norm(factor: LDLTFactor) -> float:
    """Frobenius norm of the represented product, without forming it.

    Uses ||L D L^T||_F = sqrt(trace((L^T L D)^2)); the argument of the root
    is clipped at zero against round-off.  L and D are first scaled so that
    their largest entries lie in [0.5, 1), and the trace is summed with the
    largest entry of L^T L D scaled likewise, all by powers of two: the
    scalings are exact, so factors far beyond ~1e154 (or below ~1e-154) do
    not overflow the Gram matrix, and the result in the normal range is
    that of the unscaled formula.  Raises NonFiniteFactor when L or D is not
    finite.
    """
    if factor.rank == 0:
        return 0.0
    if not (np.isfinite(factor.L).all() and np.isfinite(factor.D).all()):
        raise NonFiniteFactor(
            f"cannot take the norm of a rank-{factor.rank} factor of dimension "
            f"{factor.n}: it is not finite"
        )
    e_l = np.frexp(np.abs(factor.L).max())[1]
    e_d = np.frexp(np.abs(factor.D).max())[1]
    basis = np.ldexp(factor.L, -e_l)
    t = (basis.T @ basis) @ np.ldexp(factor.D, -e_d)
    e = np.frexp(np.abs(t).max())[1]
    t = np.ldexp(t, -e)
    val = float(np.sum(t * t.T))
    return float(np.ldexp(np.sqrt(max(val, 0.0)), e + 2 * e_l + e_d))


def to_dense(factor: LDLTFactor) -> np.ndarray:
    """Dense product L D L^T, exactly symmetric. Refuses N above DENSE_GUARD."""
    if factor.n > DENSE_GUARD:
        raise RefusedDense(f"refusing to densify dimension {factor.n} > guard {DENSE_GUARD}")
    p = factor.L @ factor.D @ factor.L.T
    return 0.5 * (p + p.T)
