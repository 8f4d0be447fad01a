"""Action of the matrix exponential, W = exp(t A^T) V, for tall blocks of a
dense A, and the Galerkin space on which a sparse A's problem is solved.

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
N x N matrix anyway.

A sparse operator has no exponential here: exp_action, the flows and the
source integral raise InvalidInput on it.  Its problem is solved on one
Galerkin space instead (Behr, Benner & Heiland, Appl. Math. Comput. 2021).
The factored solution stays in the smallest A^T-invariant space that holds
range(L_Q) and range(L_P0), so projecting the problem onto an orthonormal
basis U of a space that (nearly) holds that one gives a dense m x m problem
(``ProblemData.projected``) whose solution, lifted as L = U L_Y, is exact up
to the space.  U is the block shift-and-invert Krylov space of A^T on
[L_Q, L_P0] (``KrylovSpace``; Moret & Novati, BIT 44, 2004), with
M = (I - gamma A^T)^{-1} from one sparse LU.  Each new block is
orthogonalized twice against the basis; its SVD then drops the directions
below _DEFLATE_TOL of the block's norm before orthogonalization (rank loss,
or an exhausted space), and the kept ones are orthogonalized once more.
An exhausted (A^T-invariant) space, or dimension N, is exact.  The drivers
in ``adaptive`` grow the space until two successive lifted answers agree to
``rel_tol``; reaching the cap min(N, _MAX_DIM) below N first raises
ToleranceNotMet.
"""

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge

# Exponentials kept per dense operator, keyed by t.
_EXPM_CACHE = 8
# Blocks kept per BlockActions, keyed by t (and the options); each block is
# N x rank(V).
_BLOCK_CACHE = 16
# Galerkin space dimension cap, min(N, _MAX_DIM), fixed when a space is
# built.
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


class StiffOperator:
    """Sparse or dense wrapper around the state matrix A.

    The wrapped matrix is treated as read-only.  A dense operator exposes
    ``expm(t)``, the read-only matrix exp(t A^T), and ``prime_expm``, which
    fills a set of its cache entries from one exponential; both are
    memoized in the operator's one bounded LRU cache, keyed by t.  A sparse
    one has neither (``require_dense``): its problem is solved on a Galerkin
    space.  Safe to call from several threads: the operator's one lock is
    held across a lookup and the build it makes, so each entry is built
    once.  Cached values are shared and must not be modified.
    """

    def __init__(self, a):
        if sp.issparse(a):
            self.matrix = a.tocsr()
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

    def require_dense(self) -> None:
        """InvalidInput on a sparse operator, which has no exponential."""
        if self.is_sparse:
            raise InvalidInput(
                "a sparse operator has no exponential: its problem is solved on a "
                "Galerkin space, projected by ProblemData.projected (as integrate_fixed "
                "and integrate_adaptive do)"
            )

    def expm(self, t: float) -> np.ndarray:
        self.require_dense()
        with self._lock:
            return _lru_get(self._cache, t, lambda: _dense_expm(self._at, t), _EXPM_CACHE)

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
        self.require_dense()
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


def _rank_revealing(block: np.ndarray, norm: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning block, without the directions whose
    singular value is at most _DEFLATE_TOL * norm (default: the largest)."""
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    if norm is None:
        norm = s[0] if s.size else 0.0
    return u[:, : np.count_nonzero(s > _DEFLATE_TOL * norm)]


class KrylovSpace:
    """Orthonormal basis of the block Krylov space span{V, M V, M^2 V, ...}
    of M = (I - gamma A^T)^{-1}, for a sparse A and a block V, grown on
    demand (see the module docstring).

    One sparse LU of I - gamma A^T serves the whole build.  ``basis`` holds
    the columns built so far.  ``grow(size)`` adds whole blocks until there
    are at least min(size, ``cap``) columns, cap = min(N, _MAX_DIM) as of
    construction, or until the space is ``exact``: exhausted (a new block
    deflates to nothing, so the space is A^T-invariant) or of dimension N.
    Raises StepTooLarge if I - gamma A^T is exactly singular, and
    NonFiniteFactor on a non-finite block.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray, gamma: float):
        import scipy.sparse.linalg  # loaded on first use: dense runs never need it
        shifted = (sp.identity(op.n, format="csc") - gamma * op.matrix.T).tocsc()
        try:
            self._lu = scipy.sparse.linalg.splu(shifted)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise StepTooLarge(
                f"shifted matrix I - gamma A^T of the Galerkin space is singular "
                f"(gamma={gamma:g})"
            ) from exc
        self.cap = min(op.n, _MAX_DIM)
        self._n = op.n
        self.basis = _rank_revealing(v)
        self._done = 0  # leading basis columns whose image under M is spanned
        self._exhausted = self.basis.shape[1] == 0

    @property
    def exact(self) -> bool:
        return self._exhausted or self.basis.shape[1] >= self._n

    def grow(self, size: int) -> bool:
        """Add blocks up to min(size, cap) columns; whether the space is exact."""
        while not self.exact and self.basis.shape[1] < min(size, self.cap):
            basis = self.basis
            w = self._lu.solve(basis[:, self._done:])
            norm = float(np.linalg.norm(w))
            if not np.isfinite(norm):
                raise NonFiniteFactor("the Galerkin space produced a non-finite Krylov block")
            w -= basis @ (basis.T @ w)
            w -= basis @ (basis.T @ w)
            q = _rank_revealing(w, norm)
            q = np.linalg.qr(q - basis @ (basis.T @ q))[0]
            self._done = basis.shape[1]
            self.basis = np.hstack([basis, q])
            self._exhausted = q.shape[1] == 0
        return self.exact


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
    does the same with its own code).  Dense operators only.

    ``prime(u, powers)`` fills X(t) for every t = m u of ``powers`` = {t: m}
    (integers m >= 1) from one such exponential, by one addition chain over
    the pairs (exp(s A^T), X(s)), as ``StiffOperator.prime_expm`` does for
    powers:

        exp((s + t) A^T) = exp(s A^T) exp(t A^T),
        X(s + t) = X(s) + exp(s A^T) X(t) exp(s A).

    Each exp(t A^T) goes into the operator's ``expm`` cache as well.  Only
    missing entries are computed, and nothing unless every t fits in the cache at
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
            a = self.op.matrix
            q = self._l_q @ self._d_q @ self._l_q.T
            self._block = np.block([[-a.T, 0.5 * (q + q.T)], [np.zeros_like(a), a]])
            self._norm = float(np.linalg.norm(a, 1))
        return self._block

    def prime(self, u: float, powers: dict) -> None:
        self.op.require_dense()
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

            self.op._fill_expm(powers, lambda m: power(m)[0])
            for t in sorted(powers, key=powers.get):
                _lru_get(self._cache, t, lambda m=powers[t]: power(m)[1], _EXPM_CACHE)

    def __call__(self, t: float) -> np.ndarray:
        with self._lock:
            self.prime(t, {t: 1})
            return self._cache[t]


@dataclass(frozen=True)
class ExpActionOptions:
    """rel_tol: stop of a sparse problem's Galerkin space, where two
    successive lifted answers agree to it (``adaptive``).  Dense actions
    are exact and do not consult it."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise InvalidInput(f"rel_tol must be positive, got {self.rel_tol}")


def _nonfinite(t: float, what: str) -> NonFiniteFactor:
    return NonFiniteFactor(f"exp action at t={t:g} produced a non-finite {what}")


def _finite_iterate(w: np.ndarray, t: float) -> np.ndarray:
    if not np.isfinite(w).all():
        raise _nonfinite(t, "iterate")
    return w


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
    """exp(t A^T) @ v, exact to round-off through the cached expm(t A^T);
    ``opts`` is not consulted.

    Given the ``BlockActions`` of op and v (the same objects; InvalidInput
    otherwise), the block is the one checked when it was made.  Raises
    InvalidInput on a sparse operator (``StiffOperator.require_dense``),
    and NonFiniteFactor on a non-finite block (unless the action is
    trivial: t = 0 or no columns) or result.
    """
    if blocks is not None and (blocks.op is not op or blocks.v is not v):
        raise InvalidInput("blocks caches the actions of another operator or block")
    _check_time(t)
    op.require_dense()
    v, finite = (v, blocks._finite) if blocks is not None else _checked_block(op, v)
    if v.shape[1] == 0 or t == 0.0:
        return v.copy()
    if not finite:
        raise _nonfinite(t, "input block")
    return _finite_iterate(op.expm(t) @ v, t)


class BlockActions:
    """t -> exp(t A^T) V for one dense operator and one fixed block V: the
    source factor L_Q (``ProblemData.source_blocks``), or one of the bases
    every chain of an additive step propagates over its substep: the step's
    start basis and the identity basis of its full-width flows.

    A call is ``exp_action(op, t, V, opts, self)``.  The blocks are kept,
    read-only, in an LRU of _BLOCK_CACHE entries keyed by t and the
    options, so a t that several callers share (a substep of both chain
    directions) is computed once; a kept block is ``op.expm(t) @ V`` as of
    its first call.  ``equidistant`` gives the blocks of a whole node grid
    by stepping from node to node (see there).  Safe to call from several
    threads: its one lock is held across a whole call, from the lookup
    through the exp_action it makes, so each block is built once.  The
    operator's lock is taken inside it, never the other way round.

    V is checked once, when the ``BlockActions`` is made: its shape
    (InvalidInput) and whether it is finite, which a nontrivial action
    then reports as exp_action does.  Every block an action returns is
    still checked finite.
    """

    def __init__(self, op: StiffOperator, v: np.ndarray):
        self.op = op
        self.v, self._finite = _checked_block(op, v)
        self._blocks = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, t: float, opts: ExpActionOptions = ExpActionOptions()) -> np.ndarray:
        def make():
            block = exp_action(self.op, t, self.v, opts, self)
            block.flags.writeable = False
            return block

        with self._lock:
            return _lru_get(self._blocks, (t, opts), make, _BLOCK_CACHE)

    def equidistant(self, h: float, degree: int) -> tuple:
        """The blocks at the nodes np.linspace(0, h, degree + 1), stepped
        along the grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011):
        with E = expm((h/degree) A^T), block k is E times block k-1 for
        0 < k < degree, and the last block is expm(h A^T) V, the matrix the
        propagation over h caches.  A grid thus takes two N x N
        exponentials, not one per node (``QuadraturePool.prepare`` primes
        both, with those of the other grids of its step, from one scipy
        expm), and its inner blocks agree with exp_action to round-off, not
        bit for bit.  Each block is checked finite as in exp_action.
        """
        if degree < 1:
            raise InvalidInput(f"degree must be >= 1, got {degree}")
        nodes = np.linspace(0.0, h, degree + 1)
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
