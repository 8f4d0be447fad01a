"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks.

Dense operators form E = expm(t A^T) by scaling and squaring (Al-Mohy &
Higham, SIAM J. Matrix Anal. Appl. 31, 2009) and return E V.  E is kept in a
bounded per-operator LRU cache keyed by t, so a repeated t costs a lookup;
the cache lives and dies with its operator.  This path is exact to
round-off, so ``rel_tol`` is not consulted there.  On an equidistant grid
of t (the quadrature nodes k h / degree), BlockActions steps from
node to node with the one matrix expm((h/degree) A^T), as Al-Mohy & Higham
(SIAM J. Sci. Comput. 33, 2011) do for the action on a grid, and takes the
last node from the expm(h A^T) that the propagation over h caches.  The
t of a set of grids and substeps are integer multiples m u of one u, so
``StiffOperator.prime_expm`` fills their cache entries with the powers
expm(u A^T)^m, formed by products from one scipy expm: one N x N
exponential per set instead of one per t.

The affine flow's source integral X(t) = int_0^t exp(s A^T) Q exp(s A) ds
has a closed form in the 2N x 2N exponential of Van Loan's block matrix
[[-A^T, Q], [0, A]] (``SourceIntegral``).  One such exponential at u, with
the doubling a stiff A needs, gives both X(m u) and exp(m u A^T) for a
set of integers m by one addition chain of products, as ``prime_expm``
does for powers.  It serves problems of small N only, where X(t) is an
N x N matrix anyway; a sparse A is made dense for it.

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
iterate; reaching the cap min(N, _MAX_DIM) below N first raises
ToleranceNotMet.

The basis, H_m, R_0 and the checkpoints (the dimensions at which the
stopping rule evaluates an iterate, and whether each is exact) depend on
gamma, V and the cap only, not on t.  A Krylov space is therefore
resumable: the action at any t of its octave replays the stopping rule over
the checkpoints already built, one small expm each with H_m^{-1} kept per
checkpoint, and adds blocks only when the rule needs a dimension not built
yet.  exp_action builds a throwaway space per call, unless it is given
the BlockActions of its one fixed block V (the source factor of the
quadrature blocks, or a basis an additive step propagates more than
once), which caches one space per octave.  The space at a checkpoint is the same whichever t first
built it, so a cached sparse action has the same bits as a one-shot one.
"""

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge, ToleranceNotMet

# Exponentials kept per dense operator, keyed by t.
_EXPM_CACHE = 8
# Sparse LUs kept per operator, and Krylov spaces kept per BlockActions,
# both keyed by gamma; each space pins its LU.  Cached factors and bases
# stay resident: with 4 entries each, laplacian_lqr N=400 (sym2, 2 fixed
# steps) peaks 3.8% higher in RSS for the LUs and another 2.0% for the
# spaces.
_LU_CACHE = 4
# Blocks kept per BlockActions, keyed by t (and the options): the 9
# distinct node times of a sym2 step's two rules fit, and each block is
# N x rank(V), small beside a Krylov space.
_BLOCK_CACHE = 16
# Krylov dimension cap, min(N, _MAX_DIM), fixed when a space is built.
_MAX_DIM = 512
# Directions of a new block below this share of its norm are dropped.
_DEFLATE_TOL = 1e-13


def _dense_expm(at: np.ndarray, t: float) -> np.ndarray:
    e = expm(t * at)
    e.flags.writeable = False
    return e


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xy = x @ y
    xy.flags.writeable = False
    return xy


def _addition_chain(first, compose):
    """m -> the m-th power of first() under compose, for integers m >= 1.

    first() is called once, when a power first needs it.  Each further
    power is compose(power(a), power(m - a)) of two powers already formed:
    the largest a of the memo whose m - a is there too, else a = m // 2.
    The memo lives as long as the returned function.
    """
    memo = {}

    def power(m):
        if m not in memo:
            if m == 1:
                memo[1] = first()
            else:
                a = next((a for a in sorted(memo, reverse=True) if m - a in memo), m // 2)
                memo[m] = compose(power(a), power(m - a))
        return memo[m]

    return power


def _shift_lu(at_csc, gamma: float):
    """SuperLU factorization of I - gamma A^T."""
    import scipy.sparse.linalg  # loaded on first use: dense runs never need it
    shifted = (sp.identity(at_csc.shape[0], format="csc") - gamma * at_csc).tocsc()
    return scipy.sparse.linalg.splu(shifted)


class StiffOperator:
    """Sparse or dense wrapper around the state matrix A.

    The wrapped matrix is treated as read-only.  A dense operator exposes
    ``expm(t)``, the read-only matrix exp(t A^T), and ``prime_expm``, which
    fills a set of its cache entries from one exponential; a sparse one
    exposes ``shift_lu(gamma)``, the SuperLU factors of I - gamma A^T.  Both
    are memoized in the operator's one bounded LRU cache, keyed by t or
    gamma.  Safe to call from several threads: the operator's one lock is
    held across a lookup and the build it makes, so each entry is built
    once.  Cached values are shared and must not be modified.
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
        self._cache = OrderedDict()
        self._lock = threading.Lock()
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidInput(f"operator must be square, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix.data if self.is_sparse else self.matrix).all():
            raise InvalidInput("operator has non-finite entries")

    def expm(self, t: float) -> np.ndarray:
        with self._lock:
            return _lru_get(self._cache, t, lambda: _dense_expm(self._at, t), _EXPM_CACHE)

    def shift_lu(self, gamma: float):
        with self._lock:
            return _lru_get(self._cache, gamma, lambda: _shift_lu(self._at.tocsc(), gamma),
                            _LU_CACHE)

    def prime_expm(self, u: float, powers: dict) -> None:
        """Fill the ``expm`` cache entries t of ``powers`` = {t: m} that are
        missing with E^m, where E = expm(u A^T) and m >= 1 is an integer.

        E is one scipy expm, formed only if some entry is missing; each
        power is the product of two powers already formed (a sum m = a + b
        from the memo, else m // 2 + (m - m // 2)), and the memo's other
        powers are freed on return.  E^m agrees with expm(m u A^T) to
        round-off, not bit for bit.  Dense operators only; does nothing
        unless every t fits in the cache at once.  Under the operator's lock,
        the keys are looked up in ascending order of m, as by ``expm``.
        Priming before the threads that share the operator use it keeps a
        key's bits independent of thread scheduling.
        """
        if len(powers) > _EXPM_CACHE:
            return
        self._fill_expm(powers, _addition_chain(lambda: _dense_expm(self._at, u), _product))

    def _fill_expm(self, powers: dict, power) -> None:
        """Store power(m) under each missing key t of ``powers`` = {t: m},
        looked up in ascending order of m under the operator's lock."""
        with self._lock:
            for t in sorted(powers, key=powers.get):
                _lru_get(self._cache, t, functools.partial(power, powers[t]), _EXPM_CACHE)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def as_dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix


def _van_loan_pair(first: tuple, second: tuple) -> tuple:
    """(exp((s + t) A^T), X(s + t)) from the pairs (exp(s A^T), X(s)) and
    (exp(t A^T), X(t)): exp(s A^T) exp(t A^T) and
    X(s) + exp(s A^T) X(t) exp(s A), symmetrized; both read-only."""
    e_s, x_s = first
    e_t, x_t = second
    x = x_s + e_s @ x_t @ e_s.T
    x = 0.5 * (x + x.T)
    x.flags.writeable = False
    return _product(e_s, e_t), x


class SourceIntegral:
    """t -> X(t) = int_0^t exp(s A^T) Q exp(s A) ds, the affine flow's
    source integral, as a read-only N x N matrix, for one operator and one
    source factor Q = L_Q D_Q L_Q^T.

    X comes from Van Loan's block exponential (IEEE Trans. Automat.
    Control 23, 1978): F = expm(v [[-A^T, Q], [0, A]]) has exp(v A) as its
    lower right block and exp(-v A^T) X(v) as its upper right one, so
    X(v) = F_22^T F_12.  v is u / 2^k, the largest such step with
    ||v A||_1 <= 1, so that the block exp(-v A^T) stays bounded on a stiff
    A (Behr, Benner & Heiland, Calcolo 56, 2019; ``oracle.dense_subflow``
    does the same with its own code).  A sparse A is made dense for this,
    once, on first use.

    ``prime(u, powers)`` fills X(t) for every t = m u of ``powers`` = {t: m}
    (integers m >= 1) from one such exponential, by one addition chain over
    the pairs (exp(s A^T), X(s)), as ``StiffOperator.prime_expm`` does for
    powers:

        exp((s + t) A^T) = exp(s A^T) exp(t A^T),
        X(s + t) = X(s) + exp(s A^T) X(t) exp(s A).

    On a dense operator each exp(t A^T) goes into the operator's ``expm``
    cache as well; a sparse one keeps its Krylov actions.  Only missing
    entries are computed, and nothing unless every t fits in the cache at
    once.  ``__call__(t)`` is X(t) from the cache, after ``prime(t, {t: 1})``.
    X(m u) agrees with a direct Van Loan exponential at m u to round-off,
    not bit for bit.  The X are kept in an LRU of _EXPM_CACHE entries keyed
    by t.  Safe to call from several threads: its one reentrant lock is held
    across a fill, and the operator's lock is taken inside it.
    """

    def __init__(self, op: StiffOperator, l_q: np.ndarray, d_q: np.ndarray):
        self.op = op
        self._l_q = l_q
        self._d_q = d_q
        self._block = None  # [[-A^T, Q], [0, A]], made on first use
        self._norm = 0.0  # ||A||_1
        self._cache = OrderedDict()
        self._lock = threading.RLock()

    def _generator(self) -> np.ndarray:
        if self._block is None:
            a = self.op.as_dense()
            q = self._l_q @ self._d_q @ self._l_q.T
            self._block = np.block([[-a.T, 0.5 * (q + q.T)], [np.zeros_like(a), a]])
            self._norm = float(np.linalg.norm(a, 1))
        return self._block

    def prime(self, u: float, powers: dict) -> None:
        if len(powers) > _EXPM_CACHE:
            return
        with self._lock:
            block = self._generator()
            n = self.op.n
            scaled = u * self._norm
            k = math.ceil(math.log2(scaled)) if scaled > 1.0 else 0

            def first():
                f = expm(np.ldexp(u, -k) * block)
                e = f[n:, n:].T.copy()
                e.flags.writeable = False
                x = e @ f[:n, n:]
                x = 0.5 * (x + x.T)
                x.flags.writeable = False
                return e, x

            chain = _addition_chain(first, _van_loan_pair)

            def power(m):
                return chain(m << k)

            if not self.op.is_sparse:
                self.op._fill_expm(powers, lambda m: power(m)[0])
            for t in sorted(powers, key=powers.get):
                _lru_get(self._cache, t, lambda m=powers[t]: power(m)[1], _EXPM_CACHE)

    def __call__(self, t: float) -> np.ndarray:
        with self._lock:
            self.prime(t, {t: 1})
            return self._cache[t]


@dataclass(frozen=True)
class ExpActionOptions:
    """rel_tol: stop of the sparse Krylov iteration (the dense path is exact)."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise InvalidInput(f"rel_tol must be positive, got {self.rel_tol}")


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


class _KrylovSpace:
    """Resumable block Krylov space of M = (I - gamma A^T)^{-1} on V, up to
    dimension ``cap`` = min(N, _MAX_DIM) as of its construction (see the
    module docstring).

    ``checkpoints`` lists (m, exact) for the dimensions built so far at
    which the stopping rule evaluates an iterate.  Not thread-safe: a
    shared space is used under the lock of the BlockActions that keeps it.
    ``t`` only names the action in error messages.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray, gamma: float, t: float):
        try:
            self._lu = op.shift_lu(gamma)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise StepTooLarge(
                f"shifted matrix I - gamma A^T is singular for the exp action at "
                f"t={t:g} (gamma={gamma:g})"
            ) from exc
        self.gamma = gamma
        self.cap = min(op.n, _MAX_DIM)
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


def _check_time(t: float) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise InvalidInput(f"t must be finite and nonnegative, got {t}")


def _checked_block(op: StiffOperator, v) -> tuple:
    """(v as a float64 N x k block, whether it is finite)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != op.n:
        raise InvalidInput(f"block has {v.shape[0]} rows, operator dimension is {op.n}")
    return v, bool(np.isfinite(v).all())


def _lru_get(cache: OrderedDict, key, make, cap: int):
    """The value cached under key, after storing make() there if none is;
    key becomes the most recent.  The oldest entry is evicted before an
    insert, so the cache never holds more than cap entries.  Callers hold
    the cache's lock."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = make()
    if len(cache) >= cap:
        cache.popitem(last=False)
    cache[key] = value
    return value


def exp_action(
    op: StiffOperator,
    t: float,
    v: np.ndarray,
    opts: ExpActionOptions = ExpActionOptions(),
    blocks: "BlockActions | None" = None,
) -> np.ndarray:
    """Approximate exp(t A^T) @ v.

    Dense operators: exact to round-off through the cached expm(t A^T).
    Sparse operators: block shift-and-invert Krylov to ``opts.rel_tol``, on
    a space built for the call or, given the ``BlockActions`` of op and v
    (the same objects; InvalidInput otherwise), on its cached space of t's
    octave, with the same bits, under the lock of ``blocks``.  Raises
    ToleranceNotMet (carrying the best iterate and its estimate) if the
    Krylov dimension reaches its cap min(N, _MAX_DIM) below N first,
    NonFiniteFactor on a non-finite block (unless the action is trivial:
    t = 0 or no columns) or iterate, and StepTooLarge if the shifted matrix
    I - gamma A^T is exactly singular.  The block of ``blocks`` was checked
    when it was made.
    """
    if blocks is not None and (blocks.op is not op or blocks.v is not v):
        raise InvalidInput("blocks caches the actions of another operator or block")
    _check_time(t)
    v, finite = (v, blocks._finite) if blocks is not None else _checked_block(op, v)
    if v.shape[1] == 0 or t == 0.0:
        return v.copy()
    if not finite:
        raise _nonfinite(t, "input block")
    if not op.is_sparse:
        return _finite_iterate(op.expm(t) @ v, t)
    gamma = _octave_shift(t)
    if blocks is None:
        return _KrylovSpace(op, v, gamma, t).action(t, opts.rel_tol)
    with blocks._lock:
        space = _lru_get(blocks._spaces, gamma,
                         lambda: _KrylovSpace(op, v, gamma, t), _LU_CACHE)
        return space.action(t, opts.rel_tol)


class BlockActions:
    """t -> exp(t A^T) V for one operator and one fixed block V: the source
    factor L_Q (``ProblemData.source_blocks``), or one of the bases every
    chain of an additive step propagates over its substep: the step's start
    basis and the identity basis of its full-width flows.

    A call is ``exp_action(op, t, V, opts, self)``, which keeps this block's
    Krylov spaces: one per octave shift gamma, in an LRU of _LU_CACHE
    entries (each space pins its LU).  On a sparse operator a
    further t of a cached octave thus costs one small expm per checkpoint
    the stopping rule visits, plus blocks only past the dimension already
    built.  The blocks themselves are kept, read-only, in an LRU of
    _BLOCK_CACHE entries keyed by t and the options, so a t that several
    callers share (a substep of both chain directions, or a node time of
    two rules that agree bit for bit: t = 0, or h/5 of the rule over h and
    2(h/2)/5 of the one over h/2) is computed once.  On a dense operator a
    kept block is ``op.expm(t) @ V`` as of its first call; on a sparse one
    it has the bits of a new call, as a cached space gives those of a
    one-shot one.
    ``equidistant`` gives the blocks of a whole node grid; on a dense
    operator it steps from node to node (see there).  Safe to call from
    several threads: its one reentrant lock is held across a whole call,
    from the lookup through the exp_action it makes and the use of a cached
    space, so each space and block is built once.  The operator's lock is
    taken inside it, never the other way round.

    V is checked once, when the ``BlockActions`` is made: its shape
    (InvalidInput) and whether it is finite, which a nontrivial action
    then reports as exp_action does.  Every block an action returns is
    still checked finite.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray):
        self.op = op
        self.v, self._finite = _checked_block(op, v)
        self._spaces = OrderedDict()
        self._blocks = OrderedDict()
        self._lock = threading.RLock()

    def __call__(self, t: float, opts: ExpActionOptions = ExpActionOptions()) -> np.ndarray:
        def make():
            block = exp_action(self.op, t, self.v, opts, self)
            block.flags.writeable = False
            return block

        with self._lock:
            return _lru_get(self._blocks, (t, opts), make, _BLOCK_CACHE)

    def equidistant(self, h: float, degree: int,
                    opts: ExpActionOptions = ExpActionOptions()) -> tuple:
        """The blocks at the nodes np.linspace(0, h, degree + 1).

        A sparse operator calls self per node, with the same bits.  A dense
        one steps along the grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
        2011): with E = expm((h/degree) A^T), block k is E times block k-1
        for 0 < k < degree, and the last block is expm(h A^T) V, the matrix
        the propagation over h caches.  A grid thus takes two N x N
        exponentials, not one per node (``QuadraturePool.prepare`` primes
        both, with those of the other grids of its step, from one scipy
        expm), and its inner blocks agree with exp_action to round-off, not
        bit for bit.  Each block is checked finite as in exp_action.
        """
        if degree < 1:
            raise InvalidInput(f"degree must be >= 1, got {degree}")
        nodes = np.linspace(0.0, h, degree + 1)
        if self.op.is_sparse:
            return tuple(self(s, opts) for s in nodes)
        _check_time(h)
        v = self.v
        if v.shape[1] == 0 or h == 0.0:
            return tuple(v.copy() for _ in nodes)
        if not self._finite:
            raise _nonfinite(h, "input block")
        blocks = [v.copy()]
        if degree > 1:
            step = self.op.expm(h / degree)
            for s in nodes[1:-1]:
                blocks.append(_finite_iterate(step @ blocks[-1], s))
        blocks.append(_finite_iterate(self.op.expm(h) @ v, h))
        return tuple(blocks)
