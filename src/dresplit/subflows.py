"""Exact flows of the two split subproblems, in factored form.

The Riccati right-hand side splits into an affine part A^T P + P A + Q and a
quadratic part -P S P.  Both subproblems have closed-form solutions that stay
inside the LDL^T format: the quadratic flow is a small Woodbury-style core
update, and the affine flow conjugates the basis with exp(h A^T) and adds
the source integral

    X(h) = int_0^h exp(s A^T) Q exp(s A) ds.

Every step size gets a fresh X(h) per substep size (``init_quadrature``),
kept only while its h is unchanged bit for bit (``update_quadrature``).
How X(h) is formed depends on the width of the rule of the scheme's degree,
(degree + 1) rank(Q) columns (``full_width``):

- At N or more columns X(h) would be an N x N core anyway.  There it is
  exact: ``ProblemData.source_integral``, from Van Loan's block exponential
  (``expaction.SourceIntegral``), as an N x N core on the identity basis.
- Below N columns (the low-rank regime) it is the equidistant rule with
  nodes k h / degree, whose stability constant is always that of the
  equidistant rule.  Its weights are h times the unit rule's, computed
  exactly once per degree (``quad_weights``).  The node blocks
  exp(s_k A^T) L_Q are stepped with one exponential of (h/degree) A^T,
  plus the exp(h A^T) the propagation over h shares
  (``BlockActions.equidistant``; ``adaptive.QuadraturePool`` primes both
  from one expm).

The flows and the integral need a dense A.  A sparse problem is solved on
its Galerkin space (``ProblemData.projected``), a dense m x m problem, and
the flows raise InvalidInput on a sparse A.

Both flows work on a factor of any rank, so the affine flow and the rule
keep a sum of N or more columns uncompressed, as its N x N core on the
identity basis (``combine(..., truncate=False)``); the step that ends on
it compresses once.  On that basis both flows work in N x N arithmetic:
the quadratic flow takes the cross term S(I) its quadratic term keeps, and
the affine flow adds onto an exact X(h) with one product
(``lowrank.add_to_identity_sum``).
"""

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, NonFiniteFactor, StepTooLarge
from .expaction import (BlockActions, ExpActionOptions, SourceIntegral, StiffOperator,
                        exp_action)
from .lowrank import (CompressionOptions, LDLTFactor, add_to_identity_sum, combine,
                      identity_basis, on_identity)

PSD_EIG_TOL = 1e-12


def _require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInput(f"{what} has non-finite entries")


class QuadraticTerm:
    """The quadratic-term operator S, applied to tall blocks.

    Backed by a dense matrix, a sparse matrix, or the low-rank control form
    S = B Ru_inv B^T; every entry must be finite.
    """

    def __init__(self, apply_fn, n, dense_fn):
        self._apply = apply_fn
        self.n = n
        self._dense = dense_fn
        self._identity_cross = None

    @classmethod
    def from_dense(cls, s) -> "QuadraticTerm":
        s = np.asarray(s, dtype=np.float64)
        _require_finite("quadratic term", s)
        return cls(lambda x: s @ x, s.shape[0], lambda: s)

    @classmethod
    def from_sparse(cls, s) -> "QuadraticTerm":
        s = s.tocsr()
        _require_finite("quadratic term", s.data)
        return cls(lambda x: s @ x, s.shape[0], lambda: s.toarray())

    @classmethod
    def from_lowrank(cls, b, ru_inv=None) -> "QuadraticTerm":
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        ru_inv = np.eye(b.shape[1]) if ru_inv is None else np.asarray(ru_inv, dtype=np.float64)
        if ru_inv.shape != (b.shape[1], b.shape[1]):
            raise InvalidInput(
                f"Ru_inv shape {ru_inv.shape} does not match {b.shape[1]} input channels"
            )
        _require_finite("quadratic term", b, ru_inv)
        return cls(
            lambda x: b @ (ru_inv @ (b.T @ x)),
            b.shape[0],
            lambda: b @ ru_inv @ b.T,
        )

    def apply(self, block: np.ndarray) -> np.ndarray:
        return self._apply(block)

    def as_dense(self) -> np.ndarray:
        return self._dense()

    def identity_cross(self) -> np.ndarray:
        """I^T S(I) = S(I), read-only: the cross term of a factor on
        ``identity_basis``, formed once, with the bits of
        ``I.T @ apply(I)``."""
        if self._identity_cross is None:
            cross = self._apply(identity_basis(self.n))
            cross.flags.writeable = False
            self._identity_cross = cross
        return self._identity_cross


def _check_psd_core(core: np.ndarray, name: str) -> None:
    if core.size == 0:
        return
    eigvals = np.linalg.eigvalsh(0.5 * (core + core.T))
    floor = -PSD_EIG_TOL * max(1.0, float(eigvals[-1]))
    if eigvals[0] < floor:
        raise InvalidInput(
            f"{name} core has eigenvalue {eigvals[0]:.3e}, below the PSD tolerance"
        )


@dataclass(frozen=True)
class ProblemData:
    """Factored Riccati problem: operator, source factor, quadratic term,
    initial factor, and horizon.

    The source and initial factors must be finite and their cores positive
    semi-definite (up to a -1e-12 eigenvalue tolerance); this is what
    guarantees existence of the exact solution.  ``source_blocks`` gives
    the quadrature blocks exp(s A^T) L_Q of a dense operator.  A problem
    with a sparse operator is solved through ``projected``.
    """

    a: StiffOperator
    q: LDLTFactor
    s: QuadraticTerm
    p0: LDLTFactor
    horizon: float
    source_blocks: BlockActions = field(init=False, repr=False, compare=False)
    source_integral: SourceIntegral = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.a.n
        for name, dim in (("source factor", self.q.n), ("quadratic term", self.s.n),
                          ("initial factor", self.p0.n)):
            if dim != n:
                raise InvalidInput(f"{name} dimension {dim} does not match operator {n}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidInput(f"horizon must be finite and positive, got {self.horizon}")
        for name, factor in (("source", self.q), ("initial", self.p0)):
            _require_finite(f"{name} factor", factor.L, factor.D)
            _check_psd_core(factor.D, name)
        object.__setattr__(self, "source_blocks", BlockActions(self.a, self.q.L))
        object.__setattr__(self, "source_integral", SourceIntegral(self.a, self.q.L, self.q.D))

    @property
    def n(self) -> int:
        return self.a.n

    def projected(self, u: np.ndarray) -> "ProblemData":
        """The Galerkin projection onto the orthonormal columns of U
        (N x m): the dense operator U^T A U, the source factor U^T L_Q with
        D_Q, the quadratic term U^T S(U) (symmetrized), the initial factor
        U^T L_P0 with D_P0, and the same horizon.  Its solution Y lifts to
        U Y U^T, exact where P stays in range(U).  The initial factor is set
        as in ``_restarted``, so the factor of a restarted problem passes."""
        cross = u.T @ self.s.apply(u)
        return ProblemData(
            a=StiffOperator(u.T @ (self.a.matrix @ u)),
            q=LDLTFactor._trusted(u.T @ self.q.L, self.q.D),
            s=QuadraticTerm.from_dense(0.5 * (cross + cross.T)),
            p0=LDLTFactor.zero(u.shape[1]),
            horizon=self.horizon,
        )._restarted(LDLTFactor._trusted(u.T @ self.p0.L, self.p0.D), self.horizon)

    def _restarted(self, p0: LDLTFactor, horizon: float) -> "ProblemData":
        """This problem from p0 over [0, horizon], sharing its other parts and
        the cached source blocks.  For a p0 the library built: the input checks
        are not run again, so a round-off negative core eigenvalue is legal."""
        sub = copy.copy(self)
        object.__setattr__(sub, "p0", p0)
        object.__setattr__(sub, "horizon", horizon)
        return sub


def quadratic_flow(factor: LDLTFactor, h: float, s_op: QuadraticTerm) -> LDLTFactor:
    """Exact flow of P' = -P S P over a step h: basis unchanged, core becomes
    (I + h D L^T S L)^{-1} D, re-symmetrized.

    One LU of the small system serves both the LAPACK reciprocal 1-norm
    condition estimate and the solve.  Raises StepTooLarge when that estimate
    is below eps or not finite: the system is numerically singular, which
    signals that h exceeds the invertibility bound of the Woodbury update.
    """
    if not h >= 0:
        raise InvalidInput(f"h must be nonnegative, got {h}")
    if factor.rank == 0 or h == 0.0:
        return factor
    if on_identity(factor):
        cross = s_op.identity_cross()
    else:
        cross = factor.L.T @ s_op.apply(factor.L)
    system = h * (factor.D @ cross)
    system.flat[:: factor.rank + 1] += 1.0
    lu, piv, info = lapack.dgetrf(system)
    rcond = lapack.dgecon(lu, np.abs(system).sum(axis=0).max())[0] if info == 0 else 0.0
    if not rcond >= np.finfo(np.float64).eps:
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        raise StepTooLarge(
            f"quadratic subflow system has condition estimate {cond:.3e} for h={h:g}"
        )
    core = lapack.dgetrs(lu, piv, factor.D)[0]
    return LDLTFactor._trusted(factor.L, 0.5 * (core + core.T))


@functools.lru_cache(maxsize=None)
def _unit_weights(degree: int) -> np.ndarray:
    """Read-only weights of the closed Newton-Cotes rule of degree d on
    [0, 1]: weight k is the integral of prod_{j != k} (u - j) / (k - j) over
    u = d x in [0, d], divided by d, as exact integers divided once, so each
    weight is correctly rounded (as in ``additive_coeffs``)."""
    scale = math.lcm(*range(1, degree + 2))  # clears the 1/(i+1) of u^i's integral
    weights = np.empty(degree + 1)
    for k in range(degree + 1):
        coeffs, denom = [1], 1
        for j in range(degree + 1):
            if j != k:
                coeffs = [a - j * b for a, b in zip([0] + coeffs, coeffs + [0])]
                denom *= k - j
        num = sum(c * degree**i * (scale // (i + 1)) for i, c in enumerate(coeffs))
        weights[k] = num / (denom * scale)
    weights.flags.writeable = False
    return weights


def quad_weights(degree: int, h: float) -> np.ndarray:
    """Weights of the equidistant rule with nodes k h / degree, which
    integrates every polynomial of degree <= ``degree`` exactly over [0, h]:
    h times the unit rule's correctly rounded weights, computed once per
    degree."""
    if not h > 0:
        raise InvalidInput(f"h must be positive, got {h}")
    if degree < 1:
        raise InvalidInput(f"degree must be >= 1, got {degree}")
    return h * _unit_weights(degree)


@dataclass(frozen=True)
class QuadratureState:
    """The source integral over [0, h] as the factor ``assembled``.

    In the low-rank regime that is the weighted sum of the equidistant
    rule's node blocks exp(s_k A^T) L_Q, with the rule's nodes and
    weights.  At full width (``full_width``) it is the exact X(h) as an
    N x N core on the identity basis, with no node and the single weight h
    (stability constant 1).

    Values are immutable; transitions (init/update) return new states.
    fresh_blocks counts the node blocks computed by the transition that
    produced this state (0 for an exact X(h)).
    """

    degree: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray
    assembled: LDLTFactor
    fresh_blocks: int

    @property
    def lebesgue(self) -> float:
        """Lambda = sum |w_k| / h: 1 for nonnegative weights, and the factor by
        which the rule can amplify errors in its blocks."""
        return float(np.abs(self.weights).sum() / self.h)


def _assemble(problem: ProblemData, weights, blocks, comp_opts: CompressionOptions) -> LDLTFactor:
    """The rule's X(h) = sum_k w_k B_k D_Q B_k^T over the node blocks B_k,
    compressed.  ``init_quadrature`` calls it in the low-rank regime only,
    where the sum stays below N columns; a wider one would be kept as its
    N x N core on the identity basis (``combine(..., truncate=False)``)."""
    terms = [(w, LDLTFactor._trusted(blk, problem.q.D)) for w, blk in zip(weights, blocks)]
    return combine(terms, comp_opts, truncate=False)


def full_width(problem: ProblemData, degree: int) -> bool:
    """Whether the rule of this degree stacks N or more columns,
    (degree + 1) rank(Q) >= N, so that its X(h) is an N x N core on the
    identity basis anyway.  There the exact integral takes its place.
    How A is stored does not enter."""
    return (degree + 1) * problem.q.rank >= problem.n


def init_quadrature(
    problem: ProblemData,
    h: float,
    degree: int,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> QuadratureState:
    """The source integral over [0, h] for the rule of this degree.  At
    full width (``full_width``) it is the exact X(h) of
    ``problem.source_integral`` on the identity basis, with no node, the
    single weight h and no fresh block.  Below, it is the rule with
    equidistant nodes k*h/degree and all blocks freshly computed.  Dense
    operators only (InvalidInput otherwise)."""
    weights = quad_weights(degree, h)  # checks h and degree
    if full_width(problem, degree):
        assembled = LDLTFactor._trusted(identity_basis(problem.n), problem.source_integral(h))
        return QuadratureState(degree, h, np.empty(0), np.array([h]), assembled, 0)
    blocks = problem.source_blocks.equidistant(h, degree)
    assembled = _assemble(problem, weights, blocks, comp_opts)
    return QuadratureState(degree, h, np.linspace(0.0, h, degree + 1), weights, assembled,
                           degree + 1)


def update_quadrature(
    state: QuadratureState,
    h_new: float,
    problem: ProblemData,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> QuadratureState:
    """The rule of ``state`` moved to [0, h_new]: the state itself (with no
    fresh blocks) when h_new equals its h bit for bit, else the fresh
    equidistant rule of the same degree over h_new."""
    if h_new == state.h:
        return replace(state, fresh_blocks=0)
    return init_quadrature(problem, h_new, state.degree, exp_opts, comp_opts)


def affine_flow(
    factor: LDLTFactor,
    h: float,
    problem: ProblemData,
    state: QuadratureState,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
    starts: tuple = (),
) -> LDLTFactor:
    """Exact flow of P' = A^T P + P A + Q over a step h:
    exp(h A^T) L D L^T exp(h A) + X(h), where X(h) = L_X D_X L_X^T is the
    quadrature factor of ``state``.

    ``starts`` holds the ``BlockActions`` of the bases that a step
    propagates more than once (its start basis and the identity).  When L
    is the block of one of them, exp(h A^T) L is taken from it, kept there
    for the step's other flows; otherwise it is one exp_action.  The two
    terms are summed by ``combine`` with ``truncate=False``: below N
    columns the sum is compressed, at N or more it is the N x N core on
    the identity basis, left for the step to compress once.  An exact X(h)
    is on that basis already, and the propagated factor is added onto it
    by ``add_to_identity_sum``, the same one product with the same bits.
    A factor of rank 0 is passed as it is, and ``combine`` leaves it out.
    Raises InvalidInput on a sparse operator, and NonFiniteFactor naming
    the flow and h when the core of the sum is not finite.
    """
    if not h >= 0:
        raise InvalidInput(f"h must be nonnegative, got {h}")
    if h == 0.0:
        return factor
    problem.a.require_dense()
    if not abs(state.h - h) <= 1e-12 * abs(h):
        raise InvalidInput(f"quadrature state is for h={state.h:g}, step is h={h:g}")
    propagated = factor
    if factor.rank > 0:
        actions = next((b for b in starts if factor.L is b.v), None)
        if actions is not None:
            basis = actions(h, exp_opts)
        else:
            basis = exp_action(problem.a, h, factor.L, exp_opts)
        propagated = LDLTFactor._trusted(basis, factor.D)
    try:
        if factor.rank > 0 and on_identity(state.assembled):
            return add_to_identity_sum(propagated, state.assembled)
        return combine([(1.0, propagated), (1.0, state.assembled)], comp_opts, truncate=False)
    except NonFiniteFactor as exc:
        raise NonFiniteFactor(f"affine flow over h={h:g}: {exc}") from exc
