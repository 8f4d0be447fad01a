"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks.

The propagation integrates w' = A^T w with the 3-stage, 5th-order Radau IA
implicit Runge-Kutta method.  Accuracy is controlled by comparing the
n-substep and 2n-substep results in the whole-block relative Frobenius norm
and doubling until they agree to the requested tolerance (the 2n solution is
returned).  For dense operators the one-substep propagator matrix K(tau) is
formed by a direct solve of the stacked stage system and kept in a bounded
per-operator LRU cache keyed by the substep size tau, so a repeated tau costs
a lookup; the cache lives and dies with its operator.  For sparse operators
the stage system is LU-factorized once per propagation and every substep
solve gets one iterative-refinement pass.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidInput, NonFiniteFactor, ToleranceNotMet

_SQRT6 = np.sqrt(6.0)
_RADAU_A = np.array(
    [
        [1.0 / 9.0, (-1.0 - _SQRT6) / 18.0, (-1.0 + _SQRT6) / 18.0],
        [1.0 / 9.0, (88.0 + 7.0 * _SQRT6) / 360.0, (88.0 - 43.0 * _SQRT6) / 360.0],
        [1.0 / 9.0, (88.0 + 43.0 * _SQRT6) / 360.0, (88.0 - 7.0 * _SQRT6) / 360.0],
    ]
)
_RADAU_B = np.array([1.0 / 9.0, (16.0 + _SQRT6) / 36.0, (16.0 - _SQRT6) / 36.0])
_STAGES = 3
# Propagators kept per dense operator: 8 N x N matrices, less than the one
# 3N x 3N stage matrix that a cache miss allocates.
_PROPAGATOR_CACHE = 8


class StiffOperator:
    """Sparse or dense wrapper around the state matrix A.

    Exposes the transposed action w -> A^T w used throughout the solver; the
    wrapped matrix is treated as read-only.  A dense operator also exposes
    ``propagator(tau)``, the one-substep Radau IA propagator K(tau), memoized
    in a bounded LRU cache (safe to call from several threads; a concurrent
    miss computes the same matrix twice).  Cached matrices are shared and
    must not be modified.
    """

    def __init__(self, a):
        if sp.issparse(a):
            self.matrix = a.tocsr()
            self._at = self.matrix.T.tocsr()
            self.is_sparse = True
        else:
            self.matrix = np.asarray(a, dtype=np.float64)
            self._at = self.matrix.T.copy()
            self.is_sparse = False
            self.propagator = functools.lru_cache(maxsize=_PROPAGATOR_CACHE)(
                functools.partial(_dense_propagator, self._at)
            )
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidInput(f"operator must be square, got shape {self.matrix.shape}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply_transpose(self, block: np.ndarray) -> np.ndarray:
        return self._at @ block

    def as_dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix


@dataclass(frozen=True)
class ExpActionOptions:
    rel_tol: float = 1e-10
    max_doublings: int = 30

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise InvalidInput(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_doublings < 1:
            raise InvalidInput(f"max_doublings must be >= 1, got {self.max_doublings}")


def _dense_propagator(at: np.ndarray, tau: float) -> np.ndarray:
    """One-substep Radau IA map K with w_{k+1} = K w_k, formed explicitly."""
    n = at.shape[0]
    # The stage matrix I - tau * kron(A_radau, A^T), built in place.
    m = np.kron(_RADAU_A, at)
    m *= -tau
    m.flat[:: _STAGES * n + 1] += 1.0
    rhs = np.tile(np.eye(n), (_STAGES, 1))
    stages = np.linalg.solve(m, rhs)
    weighted = sum(
        _RADAU_B[i] * stages[i * n : (i + 1) * n] for i in range(_STAGES)
    )
    k_mat = np.eye(n) + tau * (at @ weighted)
    k_mat.flags.writeable = False
    return k_mat


def _propagate_dense(op: StiffOperator, t: float, v: np.ndarray, n_sub: int) -> np.ndarray:
    tau = t / n_sub
    k_mat = op.propagator(tau)
    n, m = v.shape
    # Binary powering wins once repeated block application costs more.
    log_n = int(np.log2(n_sub)) + 1
    if n_sub * m > 2 * log_n * n:
        return np.linalg.matrix_power(k_mat, n_sub) @ v
    w = v
    for _ in range(n_sub):
        w = k_mat @ w
    return w


def _propagate_sparse(op: StiffOperator, t: float, v: np.ndarray, n_sub: int) -> np.ndarray:
    tau = t / n_sub
    n = op.n
    at = op._at.tocsc()
    m = (sp.identity(_STAGES * n, format="csc") - tau * sp.kron(_RADAU_A, at, format="csc")).tocsc()
    lu = spla.splu(m)
    w = np.array(v, dtype=np.float64)
    for _ in range(n_sub):
        rhs = np.tile(w, (_STAGES, 1))
        stages = lu.solve(rhs)
        stages += lu.solve(rhs - m @ stages)
        weighted = _RADAU_B[0] * stages[:n]
        for i in range(1, _STAGES):
            weighted += _RADAU_B[i] * stages[i * n : (i + 1) * n]
        w = w + tau * (at @ weighted)
    return w


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


def exp_action(
    op: StiffOperator,
    t: float,
    v: np.ndarray,
    opts: ExpActionOptions = ExpActionOptions(),
) -> np.ndarray:
    """Approximate exp(t A^T) @ v to the requested relative tolerance.

    Raises ToleranceNotMet (carrying the best iterate and its estimate) if
    the substep-doubling budget is exhausted first, and NonFiniteFactor as
    soon as the error estimate is not finite, which no further doubling
    can repair.
    """
    if t < 0:
        raise InvalidInput(f"t must be nonnegative, got {t}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != op.n:
        raise InvalidInput(f"block has {v.shape[0]} rows, operator dimension is {op.n}")
    if v.shape[1] == 0 or t == 0.0:
        return v.copy()

    propagate = _propagate_sparse if op.is_sparse else _propagate_dense
    n_sub = 1
    w_prev = propagate(op, t, v, n_sub)
    estimate = np.inf
    for _ in range(opts.max_doublings):
        n_sub *= 2
        w = propagate(op, t, v, n_sub)
        estimate = _relative_change(w, w_prev)
        if not np.isfinite(estimate):
            raise NonFiniteFactor(
                f"exp action at t={t:g} produced a non-finite iterate "
                f"with {n_sub} substeps"
            )
        if estimate <= opts.rel_tol:
            return w
        w_prev = w
    raise ToleranceNotMet(
        f"exp action did not reach rel_tol={opts.rel_tol:g} within "
        f"{opts.max_doublings} doublings (estimate {estimate:.3e})",
        best=w_prev,
        estimate=estimate,
    )
