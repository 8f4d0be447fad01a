"""Desk-scale dense reference solutions and error metrics.

Everything here works on full N x N matrices and is deliberately independent
of the factored solver: the reference integrates the matrix ODE with
classical RK4, and the dense subflows use a direct solve and a dense matrix
exponential with adaptive composite-Simpson quadrature for the source
integral.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvalidInput, InvalidReference, OracleDiverged, StepTooLarge

DENSE_LIMIT = 256
_SYM_TOL = 1e-10
_PSD_TOL = 1e-12


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
        for name in ("q", "s", "p0"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (n, n):
                raise InvalidInput(f"{name} has shape {m.shape}, expected {(n, n)}")
            _check_symmetric_psd(m, name)
            object.__setattr__(self, name, 0.5 * (m + m.T))
        object.__setattr__(self, "a", a)
        if self.horizon <= 0:
            raise InvalidInput(f"horizon must be positive, got {self.horizon}")

    @property
    def n(self) -> int:
        return self.a.shape[0]


def dense_dre_reference(problem: DenseProblem, n_fine: int) -> np.ndarray:
    """Reference solution at the horizon via fixed-step RK4 on the matrix
    ODE, symmetrizing after every step.  Accuracy is O(n_fine^-4); callers
    should self-verify by doubling n_fine."""
    if n_fine < 1:
        raise InvalidInput(f"n_fine must be >= 1, got {n_fine}")
    h = problem.horizon / n_fine
    a, q, s = problem.a, problem.q, problem.s
    at = a.T.copy()
    p = problem.p0.copy()
    for _ in range(n_fine):
        k1 = at @ p + p @ a + q - (p @ s) @ p
        p2 = p + (0.5 * h) * k1
        k2 = at @ p2 + p2 @ a + q - (p2 @ s) @ p2
        p3 = p + (0.5 * h) * k2
        k3 = at @ p3 + p3 @ a + q - (p3 @ s) @ p3
        p4 = p + h * k3
        k4 = at @ p4 + p4 @ a + q - (p4 @ s) @ p4
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = 0.5 * (p + p.T)
    if not np.all(np.isfinite(p)):
        raise OracleDiverged(
            "reference integration produced non-finite values; "
            "increase n_fine or shorten the horizon"
        )
    return p


def _source_integral_dense(a: np.ndarray, q: np.ndarray, h: float,
                           rel_tol: float = 1e-12) -> np.ndarray:
    """Adaptive composite Simpson for int_0^h exp(sA^T) Q exp(sA) ds.

    Panel counts double (reusing previous nodes) until two successive
    composite values agree to rel_tol in the Frobenius norm.
    """
    def integrand(s):
        e = expm(s * a)
        return e.T @ q @ e

    panels = 2
    values = {0.0: integrand(0.0), h: integrand(h)}
    prev = None
    for _ in range(16):
        grid = np.linspace(0.0, h, panels + 1)
        for s in grid:
            if s not in values:
                values[s] = integrand(float(s))
        f = [values[s] for s in grid]
        total = f[0] + f[-1] + 4.0 * sum(f[1:-1:2]) + 2.0 * sum(f[2:-1:2])
        total = (h / (3.0 * panels)) * total
        if prev is not None:
            scale = max(float(np.linalg.norm(total)), np.finfo(np.float64).tiny)
            if float(np.linalg.norm(total - prev)) <= rel_tol * scale:
                return total
        prev = total
        panels *= 2
    return prev


def dense_subflow(kind: str, p: np.ndarray, h: float, problem: DenseProblem) -> np.ndarray:
    """Exact dense evaluation of one subflow.

    kind "quadratic": (I + h P S)^{-1} P by direct solve.
    kind "affine": exp(hA^T) P exp(hA) plus the source integral to 1e-12.
    """
    p = np.asarray(p, dtype=np.float64)
    if kind == "quadratic":
        system = np.eye(problem.n) + h * (p @ problem.s)
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > 1.0 / np.finfo(np.float64).eps:
            raise StepTooLarge(f"dense quadratic subflow is singular for h={h:g}")
        try:
            out = np.linalg.solve(system, p)
        except np.linalg.LinAlgError as exc:
            raise StepTooLarge(f"dense quadratic subflow failed for h={h:g}") from exc
        return 0.5 * (out + out.T)
    if kind == "affine":
        phi = expm(h * problem.a)
        out = phi.T @ p @ phi + _source_integral_dense(problem.a, problem.q, h)
        return 0.5 * (out + out.T)
    raise InvalidInput(f"unknown subflow kind {kind!r}")


def relative_error(p_approx: np.ndarray, p_ref: np.ndarray) -> float:
    """Relative Frobenius error ||P_approx - P_ref||_F / ||P_ref||_F."""
    p_approx = np.asarray(p_approx, dtype=np.float64)
    p_ref = np.asarray(p_ref, dtype=np.float64)
    if p_approx.shape != p_ref.shape:
        raise InvalidInput(f"shape mismatch: {p_approx.shape} vs {p_ref.shape}")
    denom = float(np.linalg.norm(p_ref))
    if denom == 0.0:
        raise InvalidReference("reference norm is zero")
    return float(np.linalg.norm(p_approx - p_ref)) / denom


def self_verified_reference(problem: DenseProblem, n_start: int = 512,
                            rel_tol: float = 1e-10, max_doublings: int = 12) -> np.ndarray:
    """Reference with step-halving self-verification: doubles n_fine until
    two successive solutions agree to rel_tol."""
    n_fine = n_start
    prev = dense_dre_reference(problem, n_fine)
    for _ in range(max_doublings):
        n_fine *= 2
        cur = dense_dre_reference(problem, n_fine)
        if relative_error(prev, cur) <= rel_tol:
            return cur
        prev = cur
    raise OracleDiverged(
        f"reference did not self-verify to {rel_tol:g} within {max_doublings} doublings"
    )
