"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks.

Dense operators form E = expm(t A^T) by scaling and squaring (Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 31, 2009) and return E V.  E is kept in a
bounded per-operator LRU cache keyed by t, so a repeated t costs a lookup;
the cache lives and dies with its operator.  This path is exact to
round-off, so ``rel_tol`` is not consulted there.  On an equidistant grid
of t (the initial quadrature nodes k h / degree), BlockActions steps from
node to node with the one matrix expm((h/degree) A^T), as Al-Mohy & Higham
(SIAM J. Sci. Comput. 33, 2011) do for the action on a grid, and takes the
last node from the expm(h A^T) that the propagation over h caches: two
N x N exponentials per grid instead of one per node.

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

The basis, H_m, R_0 and the checkpoints (the dimensions at which the
stopping rule evaluates an iterate, and whether each is exact) depend on
gamma, V and the dimension cap only, not on t.  A Krylov space is therefore
resumable: the action at any t of its octave replays the stopping rule over
the checkpoints already built, one small expm each with H_m^{-1} kept per
checkpoint, and adds blocks only when the rule needs a dimension not built
yet.  exp_action builds a throwaway space per call; BlockActions keeps the
spaces of one fixed block V (the source factor of the quadrature blocks
exp(s A^T) L_Q) per octave.  The space at a checkpoint is the same
whichever t first built it, so a cached sparse action has the same bits as
a one-shot one.
"""

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge, ToleranceNotMet

# Exponentials kept per dense operator, keyed by t.
_EXPM_CACHE = 8
# Sparse LUs kept per operator, keyed by gamma, and Krylov spaces kept per
# BlockActions, keyed by gamma and cap; each space pins its LU.  Cached
# factors and bases stay resident: with 4 entries each, laplacian_lqr N=400
# (sym2, 2 fixed steps) peaks 3.8% higher in RSS for the LUs and another
# 2.0% for the spaces.
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


def _finite_iterate(w: np.ndarray, t: float) -> np.ndarray:
    if not np.isfinite(w).all():
        raise _nonfinite(t, "iterate")
    return w


def _rank_revealing(block: np.ndarray, norm: float | None = None):
    """(Q, R) with block ~ Q R, Q orthonormal, dropping directions whose
    singular value is at most _DEFLATE_TOL * norm (default: the largest)."""
    u, s, zt = np.linalg.svd(block, full_matrices=False)
    keep = int(np.count_nonzero(s > _DEFLATE_TOL * (s[0] if norm is None else norm)))
    return u[:, :keep], s[:keep, None] * zt[:keep]


def _octave_shift(t: float) -> float:
    """gamma = 2^floor(log2 t) / 2, so t/gamma lies in [2, 4)."""
    return float(np.ldexp(1.0, np.frexp(t)[1] - 2))


def _dim_cap(op: StiffOperator, opts: ExpActionOptions) -> int:
    return min(op.n, _MAX_DIM if opts.max_dim is None else opts.max_dim)


class _KrylovSpace:
    """Resumable block Krylov space of M = (I - gamma A^T)^{-1} on V, up to
    dimension cap (see the module docstring).

    ``checkpoints`` lists (m, exact) for the dimensions built so far at
    which the stopping rule evaluates an iterate.  Not thread-safe: callers
    that share a space hold its lock.  ``t`` only names the action in error
    messages.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray, gamma: float, cap: int, t: float):
        try:
            self._lu = op.shift_lu(gamma)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise StepTooLarge(
                f"shifted matrix I - gamma A^T is singular for the exp action at "
                f"t={t:g} (gamma={gamma:g})"
            ) from exc
        self.gamma = gamma
        self.cap = cap
        self.lock = threading.Lock()
        self._n = op.n
        self.basis, self._r0 = _rank_revealing(v)
        self._h = np.zeros((self.basis.shape[1], 0))
        self._done = 0  # leading basis columns whose image under M is projected
        self._check_at = 0
        self.checkpoints = []  # (m, exact)
        self._inverses = []  # H_m^{-1} per checkpoint, None where singular

    def _grow(self, t: float) -> None:
        """Add blocks until the next checkpoint is reached."""
        basis, h, done, n = self.basis, self._h, self._done, self._n
        while True:
            w = self._lu.solve(basis[:, done:])
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
            self.basis, self._h, self._done = basis, h, done

            exact = q.shape[1] == 0 or m >= n
            if exact or m >= self._check_at or m >= self.cap:
                # Successive iterates are compared on a geometric dimension
                # grid, so the projected exponentials cost a bounded multiple
                # of the last one.  Past N/4 the space nears exhaustion, where
                # the action is exact, and each O(m^3) check outweighs the
                # block steps; the grid coarsens.
                self._check_at = m + max(1, m // 8 if 4 * m < n else m // 2)
                self.checkpoints.append((m, exact))
                return

    def _iterate(self, k: int, ratio: float, t: float) -> np.ndarray:
        """Coefficients exp(ratio (I - H_m^{-1})) E_1 R_0 at checkpoint k."""
        m = self.checkpoints[k][0]
        if k == len(self._inverses):
            try:
                self._inverses.append(np.linalg.inv(self._h[:m, :m]))
            except np.linalg.LinAlgError:
                self._inverses.append(None)
        if self._inverses[k] is None:
            raise _nonfinite(t, "projected matrix")
        f = -ratio * self._inverses[k]
        f.flat[:: m + 1] += ratio
        if not np.isfinite(f).all():
            raise _nonfinite(t, "projected matrix")
        y = expm(f)[:, : self._r0.shape[0]] @ self._r0
        if not np.isfinite(y).all():
            raise _nonfinite(t, "iterate")
        return y

    def action(self, t: float, rel_tol: float) -> np.ndarray:
        """exp(t A^T) V for a t of this space's octave, to ``rel_tol``."""
        if self.basis.shape[1] == 0:
            return np.zeros((self._n, self._r0.shape[1]))
        ratio = t / self.gamma
        y_prev = None
        estimate = np.inf
        k = 0
        while True:
            if k == len(self.checkpoints):
                self._grow(t)
            m, exact = self.checkpoints[k]
            y = self._iterate(k, ratio, t)
            if exact:
                return self.basis[:, :m] @ y
            if y_prev is not None:
                padded = np.zeros_like(y)
                padded[: y_prev.shape[0]] = y_prev
                estimate = _relative_change(y, padded)
                if estimate <= rel_tol:
                    return self.basis[:, :m] @ y
            if m >= self.cap:
                raise ToleranceNotMet(
                    f"exp action did not reach rel_tol={rel_tol:g} within "
                    f"Krylov dimension {m} (estimate {estimate:.3e})",
                    best=self.basis[:, :m] @ y,
                    estimate=estimate,
                )
            y_prev = y
            k += 1


def _checked_block(op: StiffOperator, t: float, v) -> np.ndarray:
    """v as a float64 N x k block, after checking t; v must be finite
    unless the action is trivial (t = 0 or no columns)."""
    if not (np.isfinite(t) and t >= 0):
        raise InvalidInput(f"t must be finite and nonnegative, got {t}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != op.n:
        raise InvalidInput(f"block has {v.shape[0]} rows, operator dimension is {op.n}")
    if v.shape[1] > 0 and t != 0.0 and not np.isfinite(v).all():
        raise _nonfinite(t, "input block")
    return v


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
    v = _checked_block(op, t, v)
    if v.shape[1] == 0 or t == 0.0:
        return v.copy()
    if op.is_sparse:
        space = _KrylovSpace(op, v, _octave_shift(t), _dim_cap(op, opts), t)
        return space.action(t, opts.rel_tol)
    return _finite_iterate(op.expm(t) @ v, t)


class BlockActions:
    """t -> exp(t A^T) V for one operator and one fixed block V.

    Each call has the same bits as ``exp_action(op, t, v, opts)`` and
    raises the same errors.  A sparse operator keeps one Krylov space per
    octave shift gamma and dimension cap, in an LRU of _LU_CACHE entries
    (each space pins its LU), so a further t of a cached octave costs one
    small expm per checkpoint the stopping rule visits, plus blocks only
    past the dimension already built.  A dense operator calls exp_action.
    ``equidistant`` gives the blocks of a whole node grid; on a dense
    operator it steps from node to node (see there).  Safe to call from
    several threads: a space is used under its own lock, and a concurrent
    miss builds the same space twice and keeps one.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray):
        self.op = op
        self.v = v
        self._spaces = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, t: float, opts: ExpActionOptions = ExpActionOptions()) -> np.ndarray:
        if not self.op.is_sparse:
            return exp_action(self.op, t, self.v, opts)
        v = _checked_block(self.op, t, self.v)
        if v.shape[1] == 0 or t == 0.0:
            return v.copy()
        gamma, cap = key = (_octave_shift(t), _dim_cap(self.op, opts))
        with self._lock:
            space = self._spaces.get(key)
        if space is None:
            space = _KrylovSpace(self.op, v, gamma, cap, t)
        with self._lock:
            space = self._spaces.setdefault(key, space)
            self._spaces.move_to_end(key)
            if len(self._spaces) > _LU_CACHE:
                self._spaces.popitem(last=False)
        with space.lock:
            return space.action(t, opts.rel_tol)

    def equidistant(self, h: float, degree: int,
                    opts: ExpActionOptions = ExpActionOptions()) -> tuple:
        """The blocks at the nodes np.linspace(0, h, degree + 1).

        A sparse operator calls self per node, with the same bits.  A dense
        one steps along the grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
        2011): with E = expm((h/degree) A^T), block k is E times block k-1
        for 0 < k < degree, and the last block is expm(h A^T) V, the matrix
        the propagation over h caches.  A grid thus costs two N x N
        exponentials, not one per node, and its inner blocks agree with
        exp_action to round-off, not bit for bit.  Each block is checked
        finite as in exp_action.
        """
        if degree < 1:
            raise InvalidInput(f"degree must be >= 1, got {degree}")
        nodes = np.linspace(0.0, h, degree + 1)
        if self.op.is_sparse:
            return tuple(self(s, opts) for s in nodes)
        v = _checked_block(self.op, h, self.v)
        if v.shape[1] == 0 or h == 0.0:
            return tuple(v.copy() for _ in nodes)
        blocks = [v.copy()]
        if degree > 1:
            step = self.op.expm(h / degree)
            for s in nodes[1:-1]:
                blocks.append(_finite_iterate(step @ blocks[-1], s))
        blocks.append(_finite_iterate(self.op.expm(h) @ v, h))
        return tuple(blocks)
