"""LDL^T factor arithmetic.

A symmetric N x N matrix P is represented as P = L @ D @ L.T with a tall
basis L (N x r) and a small symmetric core D (r x r).  The core may be
indefinite; combinations with negative weights are therefore first-class
citizens.  All operations are pure: inputs are never mutated and results are
fresh factors, so values may be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

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
    q, r = np.linalg.qr(factor.L, mode="reduced")
    core = r @ factor.D @ r.T
    core = 0.5 * (core + core.T)
    if not np.all(np.isfinite(core)):
        raise NonFiniteFactor(
            f"cannot compress a rank-{factor.rank} factor of dimension {factor.n}: "
            "its core is not finite"
        )
    eigvals, eigvecs = np.linalg.eigh(core)

    mag = np.abs(eigvals)
    order = np.argsort(mag, kind="stable")
    # Energies are summed with the largest magnitude scaled into [0.5, 1) by
    # a power of two, so that squares of eigenvalues beyond ~1e154 cannot
    # overflow; the scaling is exact and leaves every decision in the normal
    # range as it would be unscaled.
    scaled = np.ldexp(eigvals, -np.frexp(mag.max())[1])
    total = float(np.sqrt(np.sum(scaled**2)))
    tol = opts.resolve_tol(factor.n)
    if total == 0.0:
        return LDLTFactor.zero(factor.n)

    # Discard the largest ascending-|eigenvalue| prefix whose cumulative
    # energy stays within the budget (inclusive comparison for determinism).
    cumulative = np.sqrt(np.cumsum(scaled[order] ** 2))
    n_drop = int(np.searchsorted(cumulative, tol * total, side="right"))
    keep = order[n_drop:]
    if keep.size == 0:
        return LDLTFactor.zero(factor.n)

    # Order kept pairs by descending magnitude for a canonical layout.
    keep = keep[::-1]
    return LDLTFactor(q @ eigvecs[:, keep], np.diag(eigvals[keep]))


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
    n = terms[0][1].n
    for _, f in terms:
        if f.n != n:
            raise InvalidInput(f"state dimensions differ: {f.n} vs {n}")

    bases: list[np.ndarray] = []
    cores: list[np.ndarray] = []
    for weight, f in terms:
        if f.rank == 0:
            continue
        scaled = float(weight) * f.D
        for i, basis in enumerate(bases):
            if basis.shape == f.L.shape and np.array_equal(basis, f.L):
                cores[i] = cores[i] + scaled
                break
        else:
            bases.append(f.L)
            cores.append(scaled)

    live = [(b, c) for b, c in zip(bases, cores) if np.any(c)]
    if not live:
        return LDLTFactor.zero(n)

    big_l = np.hstack([b for b, _ in live])
    big_d = np.zeros((big_l.shape[1], big_l.shape[1]))
    at = 0
    for _, c in live:
        big_d[at : at + c.shape[0], at : at + c.shape[0]] = c
        at += c.shape[0]
    return compress(LDLTFactor(big_l, big_d), opts)


def frob_norm(factor: LDLTFactor) -> float:
    """Frobenius norm of the represented product, without forming it.

    Uses ||L D L^T||_F = sqrt(trace((L^T L D)^2)); the argument of the root
    is clipped at zero against round-off.  As in ``compress``, the trace is
    summed with the largest entry of L^T L D scaled into [0.5, 1) by a power
    of two, so norms beyond ~1e154 do not overflow; the scaling is exact.
    """
    if factor.rank == 0:
        return 0.0
    gram = factor.L.T @ factor.L
    t = gram @ factor.D
    e = np.frexp(np.abs(t).max())[1]
    t = np.ldexp(t, -e)
    val = float(np.sum(t * t.T))
    return float(np.ldexp(np.sqrt(max(val, 0.0)), e))


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
