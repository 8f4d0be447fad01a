"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks.

Dense operators form E = expm(t A^T) by scaling and squaring (Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 31, 2009) and return E V.  E is kept in a
bounded per-operator LRU cache keyed by t, so a repeated t costs a lookup;
the cache lives and dies with its operator.  This path is exact to
round-off, so ``rel_tol`` is not consulted there.

Sparse operators use the block shift-and-invert (restricted-denominator)
Krylov method (Moret & Novati, BIT 44, 2004; van den Eshof & Hochbruck,
SIAM J. Sci. Comput. 27, 2006).  With M = (I - gamma A^T)^{-1}, block Arnoldi
on V = Q_0 R_0 builds an orthonormal basis U_m of the block Krylov space of
M and the projection H_m = U_m^T M U_m.  Since A^T = (I - M^{-1}) / gamma,

    exp(t A^T) V ~ U_m exp((t/gamma) (I - H_m^{-1})) E_1 R_0.

The shift sits on a power-of-two grid, gamma = 2^floor(log2 t) / 2, so that
t/gamma lies in [2, 4): the dimension needed does not grow as t shrinks,
and one sparse LU of I - gamma A^T, kept in a small per-operator LRU cache
keyed by gamma, serves every t of its octave.  Each new block is
orthogonalized twice against the basis; its SVD then drops the directions
below _DEFLATE_TOL of the block's norm before orthogonalization (rank loss,
or an exhausted space), and the kept ones are orthogonalized once more.
The iteration stops when two successive iterates agree to ``rel_tol``.  An
exhausted (invariant) space, or dimension N, is exact and returns the
iterate; reaching ``max_dim`` below N first raises ToleranceNotMet.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge, ToleranceNotMet

# Exponentials kept per dense operator, keyed by t.
_EXPM_CACHE = 8
# Sparse LUs kept per operator, keyed by gamma.  Cached factors stay
# resident: with 4 entries, laplacian_lqr N=400 peaks 3.8% higher in RSS.
_LU_CACHE = 4
# Default Krylov dimension cap, min(N, _MAX_DIM).
_MAX_DIM = 512
# Directions of a new block below this share of its norm are dropped.
_DEFLATE_TOL = 1e-13


def _dense_expm(at: np.ndarray, t: float) -> np.ndarray:
    e = expm(t * at)
    e.flags.writeable = False
    return e


def _shift_lu(at_csc, gamma: float):
    """SuperLU factorization of I - gamma A^T."""
    shifted = (sp.identity(at_csc.shape[0], format="csc") - gamma * at_csc).tocsc()
    return spla.splu(shifted)


class StiffOperator:
    """Sparse or dense wrapper around the state matrix A.

    Exposes the transposed action w -> A^T w used throughout the solver; the
    wrapped matrix is treated as read-only.  A dense operator also exposes
    ``expm(t)``, the read-only matrix exp(t A^T); a sparse one exposes
    ``shift_lu(gamma)``, the SuperLU factors of I - gamma A^T.  Both are
    memoized in bounded LRU caches (safe to call from several threads; a
    concurrent miss computes the same value twice).  Cached values are
    shared and must not be modified.
    """

    def __init__(self, a):
        if sp.issparse(a):
            self.matrix = a.tocsr()
            self._at = self.matrix.T.tocsr()
            self.is_sparse = True
            self.shift_lu = functools.lru_cache(maxsize=_LU_CACHE)(
                functools.partial(_shift_lu, self._at.tocsc())
            )
        else:
            self.matrix = np.asarray(a, dtype=np.float64)
            self._at = self.matrix.T.copy()
            self.is_sparse = False
            self.expm = functools.lru_cache(maxsize=_EXPM_CACHE)(
                functools.partial(_dense_expm, self._at)
            )
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidInput(f"operator must be square, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix.data if self.is_sparse else self.matrix).all():
            raise InvalidInput("operator has non-finite entries")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply_transpose(self, block: np.ndarray) -> np.ndarray:
        return self._at @ block

    def as_dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix


@dataclass(frozen=True)
class ExpActionOptions:
    """rel_tol: stop of the sparse Krylov iteration (the dense path is exact).
    max_dim: Krylov dimension cap; None means min(N, 512)."""

    rel_tol: float = 1e-10
    max_dim: int | None = None

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise InvalidInput(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_dim is not None and self.max_dim < 1:
            raise InvalidInput(f"max_dim must be >= 1, got {self.max_dim}")


def _relative_change(w: np.ndarray, w_prev: np.ndarray) -> float:
    """||w - w_prev||_F / ||w||_F, or the absolute change when w = 0.

    Both norms are taken with the largest entry of w scaled into [0.5, 1) by
    a power of two, so blocks beyond ~1e154 do not overflow them; the
    scaling is exact and leaves the ratio in the normal range unchanged.
    """
    e = np.frexp(np.abs(w).max())[1]
    scale = float(np.linalg.norm(np.ldexp(w, -e)))
    diff = float(np.linalg.norm(np.ldexp(w - w_prev, -e)))
    return diff / scale if scale > 0.0 else diff


def _nonfinite(t: float, what: str) -> NonFiniteFactor:
    return NonFiniteFactor(f"exp action at t={t:g} produced a non-finite {what}")


def _rank_revealing(block: np.ndarray, norm: float | None = None):
    """(Q, R) with block ~ Q R, Q orthonormal, dropping directions whose
    singular value is at most _DEFLATE_TOL * norm (default: the largest)."""
    u, s, zt = np.linalg.svd(block, full_matrices=False)
    keep = int(np.count_nonzero(s > _DEFLATE_TOL * (s[0] if norm is None else norm)))
    return u[:, :keep], s[:keep, None] * zt[:keep]


def _krylov_iterate(h: np.ndarray, ratio: float, r0: np.ndarray, t: float) -> np.ndarray:
    """Coefficients exp(ratio (I - H^{-1})) E_1 R_0 in the Krylov basis."""
    m = h.shape[0]
    try:
        f = -ratio * np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise _nonfinite(t, "projected matrix") from exc
    f.flat[:: m + 1] += ratio
    if not np.isfinite(f).all():
        raise _nonfinite(t, "projected matrix")
    y = expm(f)[:, : r0.shape[0]] @ r0
    if not np.isfinite(y).all():
        raise _nonfinite(t, "iterate")
    return y


def _krylov_action(op: StiffOperator, t: float, v: np.ndarray,
                   opts: ExpActionOptions) -> np.ndarray:
    n = op.n
    cap = min(n, _MAX_DIM if opts.max_dim is None else opts.max_dim)
    gamma = float(np.ldexp(1.0, np.frexp(t)[1] - 2))
    try:
        lu = op.shift_lu(gamma)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StepTooLarge(
            f"shifted matrix I - gamma A^T is singular for the exp action at "
            f"t={t:g} (gamma={gamma:g})"
        ) from exc
    basis, r0 = _rank_revealing(v)
    if basis.shape[1] == 0:
        return np.zeros_like(v)
    ratio = t / gamma
    h = np.zeros((basis.shape[1], 0))
    done = 0  # leading basis columns whose image under M is projected
    y_prev = None
    check_at = 0
    estimate = np.inf
    while True:
        w = lu.solve(basis[:, done:])
        norm = float(np.linalg.norm(w))
        if not np.isfinite(norm):
            raise _nonfinite(t, "Krylov block")
        coeff = basis.T @ w
        w -= basis @ coeff
        again = basis.T @ w
        w -= basis @ again
        coeff += again
        q, sub = _rank_revealing(w, norm)
        again = basis.T @ q
        q, r = np.linalg.qr(q - basis @ again)
        coeff += again @ sub
        m = basis.shape[1]
        grown = np.zeros((m + q.shape[1], m))
        grown[: h.shape[0], :done] = h
        grown[:m, done:] = coeff
        grown[m:, done:] = r @ sub
        h, basis, done = grown, np.hstack([basis, q]), m

        exact = q.shape[1] == 0 or m >= n
        if not (exact or m >= check_at or m >= cap):
            continue
        # Successive iterates are compared on a geometric dimension grid, so
        # the projected exponentials cost a bounded multiple of the last one.
        # Past N/4 the space nears exhaustion, where the action is exact, and
        # each O(m^3) check outweighs the block steps; the grid coarsens.
        check_at = m + max(1, m // 8 if 4 * m < n else m // 2)
        y = _krylov_iterate(h[:m, :m], ratio, r0, t)
        if exact:
            return basis[:, :m] @ y
        if y_prev is not None:
            padded = np.zeros_like(y)
            padded[: y_prev.shape[0]] = y_prev
            estimate = _relative_change(y, padded)
            if estimate <= opts.rel_tol:
                return basis[:, :m] @ y
        if m >= cap:
            raise ToleranceNotMet(
                f"exp action did not reach rel_tol={opts.rel_tol:g} within "
                f"Krylov dimension {m} (estimate {estimate:.3e})",
                best=basis[:, :m] @ y,
                estimate=estimate,
            )
        y_prev = y


def exp_action(
    op: StiffOperator,
    t: float,
    v: np.ndarray,
    opts: ExpActionOptions = ExpActionOptions(),
) -> np.ndarray:
    """Approximate exp(t A^T) @ v.

    Dense operators: exact to round-off through the cached expm(t A^T).
    Sparse operators: block shift-and-invert Krylov to ``opts.rel_tol``.
    Raises ToleranceNotMet (carrying the best iterate and its estimate) if
    the Krylov dimension reaches ``opts.max_dim`` below N first,
    NonFiniteFactor on a non-finite block or iterate, and StepTooLarge if
    the shifted matrix I - gamma A^T is exactly singular.
    """
    if not (np.isfinite(t) and t >= 0):
        raise InvalidInput(f"t must be finite and nonnegative, got {t}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != op.n:
        raise InvalidInput(f"block has {v.shape[0]} rows, operator dimension is {op.n}")
    if v.shape[1] == 0 or t == 0.0:
        return v.copy()
    if not np.isfinite(v).all():
        raise _nonfinite(t, "input block")
    if op.is_sparse:
        return _krylov_action(op, t, v, opts)
    w = op.expm(t) @ v
    if not np.isfinite(w).all():
        raise _nonfinite(t, "iterate")
    return w
