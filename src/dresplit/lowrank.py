"""LDL^T factor arithmetic.

A symmetric N x N matrix P is represented as P = L @ D @ L.T with a tall
basis L (N x r) and a small symmetric core D (r x r).  The core may be
indefinite; combinations with negative weights are therefore first-class
citizens.  All operations are pure: inputs are never mutated and results are
fresh factors, so values may be shared freely across threads.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, NonFiniteFactor, RefusedDense

DENSE_GUARD = 4096


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
        if self.rel_tol is not None and self.rel_tol < 0:
            raise InvalidInput(f"rel_tol must be nonnegative, got {self.rel_tol}")

    def resolve_tol(self, n: int) -> float:
        if self.rel_tol is not None:
            return self.rel_tol
        return n * np.finfo(np.float64).eps


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
    q, _, info = lapack.dorgqr(qr[:, :k], tau, lwork=_QR_WORK * k)
    _lapack_check(info, "dorgqr")
    return q, np.where(_below_diagonal(k, m), 0.0, qr[:k])


def _core_norm(core: np.ndarray, n: int) -> float:
    """Frobenius norm of a square core, summed with its largest entry scaled
    into [0.5, 1) by a power of two as in ``compress``.  Raises
    NonFiniteFactor when the core is not finite."""
    if not np.isfinite(core).all():
        raise NonFiniteFactor(
            f"cannot take the norm of a rank-{core.shape[0]} factor of dimension {n}: "
            "its core is not finite"
        )
    top = np.abs(core).max()
    if top == 0.0:
        return 0.0
    e = np.frexp(top)[1]
    return float(np.ldexp(np.sqrt(np.sum(np.ldexp(core, -e) ** 2)), e))


def _truncate(q: np.ndarray, r: np.ndarray, d: np.ndarray, n: int,
              opts: CompressionOptions) -> LDLTFactor:
    """Compressed factor of (Q R) D (Q R)^T from a thin QR of its basis."""
    core = r @ d @ r.T
    core = 0.5 * (core + core.T)
    if not np.isfinite(core).all():
        raise NonFiniteFactor(
            f"cannot compress a rank-{d.shape[0]} factor of dimension {n}: "
            "its core is not finite"
        )
    eigvals, eigvecs, info = lapack.dsyevd(core, lower=1)
    _lapack_check(info, "dsyevd")

    mag = np.abs(eigvals)
    order = np.argsort(mag, kind="stable")
    # Energies are summed with the largest magnitude scaled into [0.5, 1) by
    # a power of two, so that squares of eigenvalues beyond ~1e154 cannot
    # overflow; the scaling is exact and leaves every decision in the normal
    # range as it would be unscaled.
    scaled = np.ldexp(eigvals, -np.frexp(mag.max())[1])
    total = float(np.sqrt(np.sum(scaled**2)))
    tol = opts.resolve_tol(n)
    if total == 0.0:
        return LDLTFactor.zero(n)

    # Discard the largest ascending-|eigenvalue| prefix whose cumulative
    # energy stays within the budget (inclusive comparison for determinism).
    cumulative = np.sqrt(np.cumsum(scaled[order] ** 2))
    n_drop = int(np.searchsorted(cumulative, tol * total, side="right"))
    keep = order[n_drop:]
    if keep.size == 0:
        return LDLTFactor.zero(n)

    # Order kept pairs by descending magnitude for a canonical layout.
    keep = keep[::-1]
    return LDLTFactor._trusted(q @ eigvecs[:, keep], np.diag(eigvals[keep]))


def compress(factor: LDLTFactor, opts: CompressionOptions = CompressionOptions()) -> LDLTFactor:
    """Rank-truncate a factor, bounding the relative reconstruction error.

    The basis is orthogonalized by a thin QR factorization, the congruence
    R D R^T of the core is eigendecomposed, and the eigenpairs of smallest
    magnitude are discarded as long as their cumulative energy stays within
    rel_tol times the total.  The discarded-energy criterion guarantees
    ||P_in - P_out||_F <= rel_tol * ||P_in||_F; the output core is diagonal.
    Rank never increases.  Raises NonFiniteFactor when the congruence core
    is not finite.
    """
    if factor.rank == 0:
        return factor
    q, r = _thin_qr(factor.L)
    return _truncate(q, r, factor.D, factor.n, opts)


def _merge_bases(factors) -> tuple:
    """(bases, members): the distinct bases of the factors of nonzero rank, in
    first-seen order, and for each the indices of the factors sharing it.

    Bases are shared when they are the same array or equal entry by entry.
    """
    bases: list[np.ndarray] = []
    members: list[list[int]] = []
    for i, f in enumerate(factors):
        if f.rank == 0:
            continue
        for basis, idx in zip(bases, members):
            if basis is f.L or (basis.shape == f.L.shape
                                and np.array_equal(basis, f.L)):
                idx.append(i)
                break
        else:
            bases.append(f.L)
            members.append([i])
    return bases, members


def _merged_cores(factors, members, weights) -> list:
    """Per merged basis, the weighted sum of its factors' cores, summed in
    factor order."""
    cores = []
    for idx in members:
        core = float(weights[idx[0]]) * factors[idx[0]].D
        for i in idx[1:]:
            core = core + float(weights[i]) * factors[i].D
        cores.append(core)
    return cores


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
    return bases[0] if len(bases) == 1 else np.hstack(bases)


def combine(
    terms,
    opts: CompressionOptions = CompressionOptions(),
) -> LDLTFactor:
    """Weighted sum sum_i w_i * L_i D_i L_i^T, compressed.

    terms is a non-empty sequence of (weight, factor) pairs sharing the state
    dimension.  Concatenation happens in the given order; terms whose basis
    blocks are bitwise identical are merged by summing their scaled cores
    before compression, so exact cancellations produce an exact rank-0
    result.
    """
    terms = list(terms)
    if not terms:
        raise InvalidInput("combine needs at least one (weight, factor) term")
    factors = [f for _, f in terms]
    n = factors[0].n
    for f in factors:
        if f.n != n:
            raise InvalidInput(f"state dimensions differ: {f.n} vs {n}")

    bases, members = _merge_bases(factors)
    cores = _merged_cores(factors, members, [w for w, _ in terms])
    live = [i for i, c in enumerate(cores) if c.any()]
    if not live:
        return LDLTFactor.zero(n)
    return compress(
        LDLTFactor._trusted(_stack([bases[i] for i in live]),
                            _block_diag([cores[i] for i in live])),
        opts,
    )


def _combine_and_norm(factors, gamma, alpha, opts: CompressionOptions):
    """(combine(gamma terms), norm of the alpha terms' sum) from one thin QR.

    Both sums run over the same factors, so the stacked basis Q R is factored
    once: the first result is compressed from R D_gamma R^T exactly as
    ``combine`` does it, and the norm is ||R D_alpha R^T||_F (symmetrized as
    in ``compress``), that of the uncompressed alpha sum.  Bases are merged
    by the rules of ``combine``, and a merged basis is stacked when either of
    its cores is nonzero.  Where no alpha core is live on a basis whose gamma
    core cancels, this is the stack ``combine`` builds for the gamma sum, and
    the next factor has its bits; otherwise the core carries an extra zero
    block and the next factor agrees with it to round-off.
    """
    n = factors[0].n
    bases, members = _merge_bases(factors)
    gamma_cores = _merged_cores(factors, members, gamma)
    alpha_cores = _merged_cores(factors, members, alpha)
    live = [i for i in range(len(bases)) if gamma_cores[i].any() or alpha_cores[i].any()]
    if not live:
        return LDLTFactor.zero(n), 0.0
    q, r = _thin_qr(_stack([bases[i] for i in live]))
    combined = _truncate(q, r, _block_diag([gamma_cores[i] for i in live]), n, opts)
    alpha_core = r @ _block_diag([alpha_cores[i] for i in live]) @ r.T
    return combined, _core_norm(0.5 * (alpha_core + alpha_core.T), n)


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


def interpolate(
    f1: LDLTFactor,
    f2: LDLTFactor,
    alpha: float,
    opts: CompressionOptions = CompressionOptions(),
) -> LDLTFactor:
    """Compressed convex combination alpha * P1 + (1 - alpha) * P2."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput(f"alpha must lie in [0, 1], got {alpha}")
    if f1.n != f2.n:
        raise InvalidInput(f"state dimensions differ: {f1.n} vs {f2.n}")
    return combine([(alpha, f1), (1.0 - alpha, f2)], opts)


def to_dense(factor: LDLTFactor) -> np.ndarray:
    """Dense product L D L^T, exactly symmetric. Refuses N above DENSE_GUARD."""
    if factor.n > DENSE_GUARD:
        raise RefusedDense(f"refusing to densify dimension {factor.n} > guard {DENSE_GUARD}")
    p = factor.L @ factor.D @ factor.L.T
    return 0.5 * (p + p.T)
