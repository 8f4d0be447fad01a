"""Exact flows of the two split subproblems, in factored form.

The Riccati right-hand side splits into an affine part A^T P + P A + Q and a
quadratic part -P S P.  Both subproblems have closed-form solutions that stay
inside the LDL^T format: the quadratic flow is a small Woodbury-style core
update, and the affine flow conjugates the basis with exp(h A^T) and adds an
interpolatory-quadrature approximation of the source integral

    int_0^h exp(s A^T) Q exp(s A) ds.

Every step size gets the fresh equidistant rule, with nodes k h / degree
(``init_quadrature``); a rule is kept only while its h is unchanged bit for
bit (``update_quadrature``), so its stability constant is always that of
the equidistant rule.  On a dense operator the node blocks exp(s_k A^T) L_Q
are stepped with one exponential of (h/degree) A^T, plus the exp(h A^T)
the propagation over h shares (``BlockActions.equidistant``;
``adaptive.QuadraturePool`` primes both from one expm); on a sparse one
the blocks of recent node times are kept, so a node that two rules share is
computed once.
"""

import copy
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, InvalidNodes, NonFiniteFactor, StepTooLarge
from .expaction import BlockActions, ExpActionOptions, StiffOperator, exp_action
from .lowrank import CompressionOptions, LDLTFactor, combine

PSD_EIG_TOL = 1e-12
NODE_CLASH_TOL = 1e-12


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
    the quadrature blocks exp(s A^T) L_Q; on a sparse operator it keeps the
    Krylov spaces of L_Q per octave of s, and each new problem starts with
    none.
    """

    a: StiffOperator
    q: LDLTFactor
    s: QuadraticTerm
    p0: LDLTFactor
    horizon: float
    source_blocks: BlockActions = field(init=False, repr=False, compare=False)

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

    @property
    def n(self) -> int:
        return self.a.n

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


def quad_weights(nodes, h: float) -> np.ndarray:
    """Weights making the rule with the given nodes integrate every
    polynomial of degree <= len(nodes)-1 exactly over [0, h].

    Solved from the moment system sum_k w_k s_k^j = h^{j+1}/(j+1) on nodes
    normalized by h for conditioning.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if h <= 0:
        raise InvalidNodes(f"interval length must be positive, got {h}")
    if nodes.ndim != 1 or nodes.size == 0:
        raise InvalidInput("nodes must be a non-empty 1-D array")
    gaps = np.diff(np.sort(nodes))
    if nodes.size > 1 and (gaps.size == 0 or gaps.min() <= NODE_CLASH_TOL * h):
        raise InvalidNodes("quadrature nodes are (numerically) duplicated")
    x = nodes / h
    degree = nodes.size - 1
    vander = np.vander(x, N=degree + 1, increasing=True).T
    moments = 1.0 / (np.arange(degree + 1) + 1.0)
    try:
        scaled = np.linalg.solve(vander, moments)
    except np.linalg.LinAlgError as exc:
        raise InvalidNodes("moment system is singular; nodes too close") from exc
    return h * scaled


@dataclass(frozen=True)
class QuadratureState:
    """Nodes, weights and cached exponential-action blocks for the source
    integral over [0, h].

    Values are immutable; transitions (init/update) return new states.
    fresh_blocks counts the node blocks (re)computed by the transition that
    produced this state.
    """

    degree: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray
    blocks: tuple
    assembled: LDLTFactor
    fresh_blocks: int

    @property
    def lebesgue(self) -> float:
        """Lambda = sum |w_k| / h: 1 for nonnegative weights, and the factor by
        which the rule can amplify errors in its blocks."""
        return float(np.abs(self.weights).sum() / self.h)


def _assemble(problem: ProblemData, weights, blocks, comp_opts: CompressionOptions) -> LDLTFactor:
    terms = [(w, LDLTFactor._trusted(blk, problem.q.D)) for w, blk in zip(weights, blocks)]
    return combine(terms, comp_opts)


def init_quadrature(
    problem: ProblemData,
    h: float,
    degree: int,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> QuadratureState:
    """Equidistant nodes k*h/degree with all blocks freshly computed."""
    if not h > 0:
        raise InvalidInput(f"h must be positive, got {h}")
    if degree < 1:
        raise InvalidInput(f"degree must be >= 1, got {degree}")
    nodes = np.linspace(0.0, h, degree + 1)
    blocks = problem.source_blocks.equidistant(h, degree, exp_opts)
    weights = quad_weights(nodes, h)
    assembled = _assemble(problem, weights, blocks, comp_opts)
    return QuadratureState(degree, h, nodes, weights, blocks, assembled, degree + 1)


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
    if not h_new > 0:
        raise InvalidInput(f"h must be positive, got {h_new}")
    if h_new == state.h:
        return replace(state, fresh_blocks=0)
    return init_quadrature(problem, h_new, state.degree, exp_opts, comp_opts)


class StepWork:
    """Factor work shared by the chains of one additive step.

    Every chain of an additive step starts from the step's factor, and
    ``quadratic_flow`` keeps its basis L, so the first affine flow of each
    chain of divisor k propagates that same L over h/k.  A StepWork keeps L
    alive as ``basis`` and holds ``propagated``, {t: exp(t A^T) L} for the
    given substeps t, computed when it is made (on the executor when given,
    else in order); ``affine_flow`` reads it for a factor whose basis is
    this L.  Each entry is exp_action's value, so a hit has the bits a
    recomputation would have.  Later bases of a chain are fresh arrays that
    no other chain sees, so they are not stored.
    """

    __slots__ = ("basis", "propagated")

    def __init__(self, factor: LDLTFactor, op: StiffOperator, subs,
                 exp_opts: ExpActionOptions, executor=None):
        basis = self.basis = factor.L
        self.propagated = {}
        if factor.rank > 0:
            run = (map if executor is None else executor.map)(
                lambda t: exp_action(op, t, basis, exp_opts), subs)
            self.propagated = dict(zip(subs, run))


def affine_flow(
    factor: LDLTFactor,
    h: float,
    problem: ProblemData,
    state: QuadratureState,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
    work: StepWork | None = None,
) -> LDLTFactor:
    """Exact flow of P' = A^T P + P A + Q over a step h:
    exp(h A^T) L D L^T exp(h A) + X(h), compressed, where X(h) = L_X D_X L_X^T
    is the quadrature factor of ``state``.

    When the basis L is the one ``work`` holds, exp(h A^T) L is taken from
    it if present (one dict lookup); otherwise it is one exp_action.  The
    two terms are summed by ``combine``; a factor of rank 0 is passed as it
    is, and ``combine`` leaves it out.  Raises NonFiniteFactor naming the
    flow and h when the compressed core is not finite.
    """
    if not h >= 0:
        raise InvalidInput(f"h must be nonnegative, got {h}")
    if h == 0.0:
        return factor
    if not abs(state.h - h) <= 1e-12 * abs(h):
        raise InvalidInput(f"quadrature state is for h={state.h:g}, step is h={h:g}")
    propagated = factor
    if factor.rank > 0:
        basis = None if work is None or factor.L is not work.basis else work.propagated.get(h)
        if basis is None:
            basis = exp_action(problem.a, h, factor.L, exp_opts)
        propagated = LDLTFactor._trusted(basis, factor.D)
    try:
        return combine([(1.0, propagated), (1.0, state.assembled)], comp_opts)
    except NonFiniteFactor as exc:
        raise NonFiniteFactor(f"affine flow over h={h:g}: {exc}") from exc
