"""Desk-scale dense reference solutions and error metrics.

Everything here works on full N x N matrices and is deliberately independent
of the factored solver.  Both closed forms are exponentials of a 2N x 2N
block matrix: the reference solution propagates the Hamiltonian system of
the Riccati equation (the modified Davison-Maki method), and the source
integral of the affine subflow is a block of Van Loan's block-triangular
exponential.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvalidInput, InvalidReference, OracleDiverged, StepTooLarge

DENSE_LIMIT = 256
_SYM_TOL = 1e-10
_PSD_TOL = 1e-12
_SELF_CHECK = 1e-12


def _check_symmetric_psd(m: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.T) > _SYM_TOL * scale:
        raise InvalidInput(f"{name} is not symmetric")
    eigvals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if eigvals.size and eigvals[0] < -_PSD_TOL * max(1.0, float(eigvals[-1])):
        raise InvalidInput(f"{name} has eigenvalue {eigvals[0]:.3e}, below the PSD tolerance")


@dataclass(frozen=True)
class DenseProblem:
    """Dense mirror of a Riccati problem, capped at N <= 256."""

    a: np.ndarray
    q: np.ndarray
    s: np.ndarray
    p0: np.ndarray
    horizon: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise InvalidInput(f"operator must be square, got {a.shape}")
        if n > DENSE_LIMIT:
            raise InvalidInput(f"dense problems are capped at N={DENSE_LIMIT}, got {n}")
        if not np.isfinite(a).all():
            raise InvalidInput("operator has non-finite entries")
        for name in ("q", "s", "p0"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (n, n):
                raise InvalidInput(f"{name} has shape {m.shape}, expected {(n, n)}")
            if not np.isfinite(m).all():
                raise InvalidInput(f"{name} has non-finite entries")
            _check_symmetric_psd(m, name)
            object.__setattr__(self, name, 0.5 * (m + m.T))
        object.__setattr__(self, "a", a)
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidInput(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _relative_frobenius(diff: np.ndarray, ref: np.ndarray) -> float:
    """||diff||_F / ||ref||_F, inf for a zero ref unless diff is zero too.

    Both are scaled by the power of two that brings the largest entry of ref
    into [0.5, 1), so finite matrices beyond ~1e154 do not overflow the
    norms; the scaling is exact and leaves the ratio unchanged.
    """
    e = np.frexp(np.abs(ref).max())[1]
    num = float(np.linalg.norm(np.ldexp(diff, -e)))
    den = float(np.linalg.norm(np.ldexp(ref, -e)))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def _davison_maki(hamiltonian: np.ndarray, p0: np.ndarray, horizon: float,
                  intervals: int) -> np.ndarray:
    """P at the horizon from equal intervals, each restarted from X = I."""
    n = p0.shape[0]
    step = expm((horizon / intervals) * hamiltonian)
    p = p0
    for k in range(1, intervals + 1):
        x = step[:n, :n] + step[:n, n:] @ p
        y = step[n:, :n] + step[n:, n:] @ p
        try:
            p = np.linalg.solve(x.T, y.T).T
        except np.linalg.LinAlgError as exc:
            raise OracleDiverged(
                f"reference solution escapes at interval {k} of {intervals}: X is singular"
            ) from exc
        if not np.isfinite(p).all():
            raise OracleDiverged(
                f"reference solution is not finite after interval {k} of {intervals}"
            )
        p = 0.5 * (p + p.T)
    return p


def dense_reference(problem: DenseProblem) -> np.ndarray:
    """P at the horizon from the exponential of the Hamiltonian.

    By Radon's lemma, [X; Y]' = H [X; Y] with H = [[-A, S], [Q, A^T]],
    X(0) = I and Y(0) = P0 gives P = Y X^{-1}.  The exponential is exact in
    time; the horizon is cut into m = max(1, ceil(T ||H||_1)) intervals only
    to keep X well conditioned.  The solution with 2m intervals is returned
    once it agrees with the one with m intervals to 1e-12 relative.  Raises
    OracleDiverged on a non-finite or escaping iterate, or a failed
    self-check.
    """
    a = problem.a
    hamiltonian = np.block([[-a, problem.s], [problem.q, a.T]])
    intervals = max(1, math.ceil(problem.horizon * np.linalg.norm(hamiltonian, 1)))
    coarse = _davison_maki(hamiltonian, problem.p0, problem.horizon, intervals)
    fine = _davison_maki(hamiltonian, problem.p0, problem.horizon, 2 * intervals)
    agreement = _relative_frobenius(coarse - fine, fine)
    if not agreement <= _SELF_CHECK:
        raise OracleDiverged(
            f"reference failed its self-check: {intervals} and {2 * intervals} "
            f"intervals differ by {agreement:.2e}, above {_SELF_CHECK:g}"
        )
    return fine


def dense_subflow(kind: str, p: np.ndarray, h: float, problem: DenseProblem) -> np.ndarray:
    """Exact dense evaluation of one subflow.

    kind "quadratic": (I + h P S)^{-1} P by direct solve.
    kind "affine": exp(hA^T) P exp(hA) plus int_0^h exp(sA^T) Q exp(sA) ds.
    Both terms come from F = exp(tau [[-A^T, Q], [0, A]]) (Van Loan) on
    tau = h / 2^k, the largest such step with ||tau A||_1 <= 1: Phi = F_22
    is exp(tau A) and the integral over tau is X = Phi^T F_12.  The block
    exp(-tau A^T) stays bounded on that step; k doublings
    X <- X + Phi^T X Phi, Phi <- Phi^2 then reach h.
    """
    p = np.asarray(p, dtype=np.float64)
    n = problem.n
    if kind == "quadratic":
        system = np.eye(n) + h * (p @ problem.s)
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > 1.0 / np.finfo(np.float64).eps:
            raise StepTooLarge(f"dense quadratic subflow is singular for h={h:g}")
        try:
            out = np.linalg.solve(system, p)
        except np.linalg.LinAlgError as exc:
            raise StepTooLarge(f"dense quadratic subflow failed for h={h:g}") from exc
        return 0.5 * (out + out.T)
    if kind == "affine":
        a_norm = np.linalg.norm(problem.a, 1)
        k = math.ceil(math.log2(h * a_norm)) if h * a_norm > 1.0 else 0
        tau = h / 2**k
        f = expm(tau * np.block([[-problem.a.T, problem.q], [np.zeros((n, n)), problem.a]]))
        phi = f[n:, n:]
        x = phi.T @ f[:n, n:]
        for _ in range(k):
            x = x + phi.T @ x @ phi
            phi = phi @ phi
        out = phi.T @ p @ phi + x
        return 0.5 * (out + out.T)
    raise InvalidInput(f"unknown subflow kind {kind!r}")


def relative_error(p_approx: np.ndarray, p_ref: np.ndarray) -> float:
    """Relative Frobenius error ||P_approx - P_ref||_F / ||P_ref||_F, finite
    for references whose norm overflows (power-of-two scaled)."""
    p_approx = np.asarray(p_approx, dtype=np.float64)
    p_ref = np.asarray(p_ref, dtype=np.float64)
    if p_approx.shape != p_ref.shape:
        raise InvalidInput(f"shape mismatch: {p_approx.shape} vs {p_ref.shape}")
    if not np.any(p_ref):
        raise InvalidReference("reference norm is zero")
    return _relative_frobenius(p_approx - p_ref, p_ref)
