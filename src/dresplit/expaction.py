"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks.

The propagation integrates w' = A^T w with the 3-stage, 5th-order Radau IA
implicit Runge-Kutta method.  Its stage system is decoupled through the
eigenvalues of the Radau coefficient matrix (the RADAU5 transformation,
Hairer & Wanner, Solving ODEs II, IV.8).  With J = A^T, one real pole/weight
pair (lambda_r, gamma_r) and one complex pair (lambda_c, gamma_c), a substep
of size tau is

    w <- w + tau J (gamma_r z_r + 2 Re(gamma_c z_c)),
    z_j = (I - tau lambda_j J)^{-1} w,

one real and one complex N x N shifted solve.  This increment form keeps
the identity part of the map exact; the equivalent residue sum
sum_j rho_j (I - tau lambda_j J)^{-1} leaves round-off of size eps on top of
I, which the repeated powering of a small tau amplifies.

Accuracy is controlled by comparing the n-substep and 2n-substep results in
the whole-block relative Frobenius norm and doubling until they agree to the
requested tolerance (the 2n solution is returned).  For dense operators the
one-substep propagator matrix K(tau) is formed by the two shifted solves
against the identity and kept in a bounded per-operator LRU cache keyed by
the substep size tau, so a repeated tau costs a lookup; the cache lives and
dies with its operator.  For sparse operators both shifted matrices are
LU-factorized once per propagation, and every substep solve gets one
iterative-refinement pass against its own shifted matrix.  An exactly
singular shifted matrix raises StepTooLarge.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge, ToleranceNotMet

# Eigenvalues of the Radau IA coefficient matrix and the weights b^T T_j
# (T^-1 1)_j of its eigenbasis, correctly rounded from a 60-digit
# computation.  The weights sum to b^T 1 = 1 exactly in floating point
# (gamma_r + 2 Re gamma_c == 1.0), which an eigensolver's output does not.
_POLE_REAL = 0.27488882959567734
_WEIGHT_REAL = 1.3826297484603085
_POLE_COMPLEX = 0.16255558520216132 + 0.1849493244071408j
_WEIGHT_COMPLEX = -0.19131487423015428 - 0.4923757627721005j
# Propagators kept per dense operator: 8 N x N matrices, about the working
# memory of one cache miss (a real and a complex N x N solve).
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
    rel_tol: float = 1e-10
    max_doublings: int = 30

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise InvalidInput(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_doublings < 1:
            raise InvalidInput(f"max_doublings must be >= 1, got {self.max_doublings}")


def _shifted(at, c):
    """The shifted matrix I - c A^T, dense or sparse CSC like ``at``."""
    if sp.issparse(at):
        return (sp.identity(at.shape[0], format="csc") - c * at).tocsc()
    m = at * -c
    m.flat[:: at.shape[0] + 1] += 1.0
    return m


def _increment(z_r: np.ndarray, z_c: np.ndarray) -> np.ndarray:
    """gamma_r z_r + 2 Re(gamma_c z_c), the weighted stage combination."""
    return _WEIGHT_REAL * z_r + 2.0 * (_WEIGHT_COMPLEX * z_c).real


def _singular(t: float, tau: float) -> StepTooLarge:
    return StepTooLarge(
        f"Radau shifted matrix is singular for the exp action at t={t:g} "
        f"(substep tau={tau:g})"
    )


def _dense_propagator(at: np.ndarray, tau: float) -> np.ndarray:
    """One-substep Radau IA map K with w_{k+1} = K w_k, formed explicitly."""
    n = at.shape[0]
    eye = np.eye(n)
    z_r = np.linalg.solve(_shifted(at, tau * _POLE_REAL), eye)
    z_c = np.linalg.solve(_shifted(at, tau * _POLE_COMPLEX), eye)
    k_mat = tau * (at @ _increment(z_r, z_c))
    k_mat.flat[:: n + 1] += 1.0
    k_mat.flags.writeable = False
    return k_mat


def _propagate_dense(op: StiffOperator, t: float, v: np.ndarray, n_sub: int) -> np.ndarray:
    tau = t / n_sub
    try:
        k_mat = op.propagator(tau)
    except np.linalg.LinAlgError as exc:
        raise _singular(t, tau) from exc
    n, m = v.shape
    # Binary powering wins once repeated block application costs more.  It
    # also bounds the cost of an action that never converges: a doubling
    # level costs O(log n_sub) products here but n_sub substep solves on the
    # sparse path, so a failing sparse action doubles its time per level
    # (laplacian_lqr N=20, rel_tol=5e-16, 16 doublings, 2-vCPU Xeon VM:
    # 0.00 s dense, 7.1 s sparse; the default 30 would take about 30 h).
    log_n = int(np.log2(n_sub)) + 1
    if n_sub * m > 2 * log_n * n:
        return np.linalg.matrix_power(k_mat, n_sub) @ v
    w = v
    for _ in range(n_sub):
        w = k_mat @ w
    return w


def _propagate_sparse(op: StiffOperator, t: float, v: np.ndarray, n_sub: int) -> np.ndarray:
    tau = t / n_sub
    at = op._at.tocsc()
    m_r = _shifted(at, tau * _POLE_REAL)
    m_c = _shifted(at, tau * _POLE_COMPLEX)
    try:
        lu_r = spla.splu(m_r)
        lu_c = spla.splu(m_c)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise _singular(t, tau) from exc
    w = np.array(v, dtype=np.float64)
    for _ in range(n_sub):
        z_r = lu_r.solve(w)
        z_r += lu_r.solve(w - m_r @ z_r)
        z_c = lu_c.solve(w)
        z_c += lu_c.solve(w - m_c @ z_c)
        w = w + tau * (at @ _increment(z_r, z_c))
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
    the substep-doubling budget is exhausted first, NonFiniteFactor as soon
    as the error estimate is not finite, which no further doubling can
    repair, and StepTooLarge if a shifted Radau matrix is exactly singular.
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
