"""Exact flows of the two split subproblems, in factored form.

The Riccati right-hand side splits into an affine part A^T P + P A + Q and a
quadratic part -P S P.  Both subproblems have closed-form solutions that stay
inside the LDL^T format: the quadratic flow is a small Woodbury-style core
update, and the affine flow conjugates the basis with exp(h A^T) and adds an
interpolatory-quadrature approximation of the source integral

    int_0^h exp(s A^T) Q exp(s A) ds,

whose per-node blocks exp(s_k A^T) L_Q are cached so that step-size changes
recompute as few of them as possible.  A fresh rule has equidistant nodes
k h / degree; on a dense operator its blocks are stepped with one
exponential of (h/degree) A^T, plus the exp(h A^T) the propagation over h
shares (``BlockActions.equidistant``), while the single nodes an update
adds are computed one at a time.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, InvalidNodes, StepTooLarge
from .expaction import BlockActions, ExpActionOptions, StiffOperator, exp_action
from .lowrank import CompressionOptions, LDLTFactor, combine

PSD_EIG_TOL = 1e-12
RESET_SHRINK = 0.8
RESET_GROW = 1.25
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


def quadratic_flow(factor: LDLTFactor, h: float, s_op: QuadraticTerm) -> LDLTFactor:
    """Exact flow of P' = -P S P over a step h: basis unchanged, core becomes
    (I + h D L^T S L)^{-1} D, re-symmetrized.

    One LU of the small system serves both the LAPACK reciprocal 1-norm
    condition estimate and the solve.  Raises StepTooLarge when that estimate
    is below eps or not finite: the system is numerically singular, which
    signals that h exceeds the invertibility bound of the Woodbury update.
    """
    if h < 0:
        raise InvalidInput(f"h must be nonnegative, got {h}")
    if factor.rank == 0 or h == 0.0:
        return factor
    cross = factor.L.T @ s_op.apply(factor.L)
    system = np.eye(factor.rank) + h * (factor.D @ cross)
    lu, piv, info = lapack.dgetrf(system)
    rcond = lapack.dgecon(lu, np.linalg.norm(system, 1))[0] if info == 0 else 0.0
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


def _assemble(problem: ProblemData, nodes, weights, blocks,
              comp_opts: CompressionOptions) -> LDLTFactor:
    if problem.q.rank == 0 or len(blocks) == 0:
        return LDLTFactor.zero(problem.n)
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
    if h <= 0:
        raise InvalidInput(f"h must be positive, got {h}")
    if degree < 1:
        raise InvalidInput(f"degree must be >= 1, got {degree}")
    nodes = np.linspace(0.0, h, degree + 1)
    blocks = problem.source_blocks.equidistant(h, degree, exp_opts)
    weights = quad_weights(nodes, h)
    assembled = _assemble(problem, nodes, weights, blocks, comp_opts)
    return QuadratureState(degree, h, nodes, weights, blocks, assembled, degree + 1)


def _remove_index_grow(nodes: np.ndarray, h_new: float) -> int:
    """Index to drop after appending h_new: the one whose removal leaves the
    most even coverage (smallest gap measure; ties take the smallest index)."""
    p = nodes.size - 2  # nodes = old 0..p plus appended
    measures = np.empty(nodes.size)
    measures[0] = nodes[1]
    for k in range(1, p + 1):
        measures[k] = nodes[k + 1] - nodes[k - 1]
    measures[p + 1] = h_new - nodes[p]
    return int(np.argmin(measures))


def _midpoint_candidates(nodes: list, h_new: float) -> list:
    """Gap midpoints of the current node sequence, largest gap first.

    Gaps include [0, first node] and [last node, h_new]; ties keep the
    smaller gap index first.
    """
    if not nodes:
        return [h_new / 2.0]
    m = len(nodes)
    gaps = np.empty(m + 1)
    gaps[0] = nodes[0]
    for k in range(1, m):
        gaps[k] = nodes[k] - nodes[k - 1]
    gaps[m] = h_new - nodes[-1]
    order = np.argsort(-gaps, kind="stable")
    out = []
    for i in order:
        if i == 0:
            out.append(nodes[0] / 2.0)
        elif i == m:
            out.append((h_new + nodes[-1]) / 2.0)
        else:
            out.append((nodes[i] + nodes[i - 1]) / 2.0)
    return out


def update_quadrature(
    state: QuadratureState,
    h_new: float,
    problem: ProblemData,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> QuadratureState:
    """Move the cached rule from [0, h_old] to [0, h_new], reusing blocks.

    Outside the band (0.8, 1.25) * h_old everything is reset equidistant and
    recomputed.  Inside the band, growth appends a node at h_new and then
    drops the node that evens out the coverage best (at most one new block);
    shrinkage relocates the nodes beyond h_new one at a time into midpoints
    of the largest remaining gaps.  Weights are recomputed from the moment
    system and the assembled factor is rebuilt either way.
    """
    if h_new <= 0:
        raise InvalidInput(f"h must be positive, got {h_new}")
    h_old = state.h
    if h_new <= RESET_SHRINK * h_old or h_new >= RESET_GROW * h_old:
        return init_quadrature(problem, h_new, state.degree, exp_opts, comp_opts)
    if h_new == h_old:
        return replace(state, fresh_blocks=0)

    nodes = list(state.nodes)
    blocks = list(state.blocks)
    fresh = 0
    if h_new > h_old:
        drop = _remove_index_grow(np.append(state.nodes, h_new), h_new)
        if drop != len(nodes):  # the appended node survives
            new_block = problem.source_blocks(h_new, exp_opts)
            fresh = 1
            del nodes[drop], blocks[drop]
            nodes.append(h_new)
            blocks.append(new_block)
    else:
        keep = sum(1 for s in nodes if s <= h_new)
        relocate = len(nodes) - keep
        nodes = nodes[:keep]
        blocks = blocks[:keep]
        for _ in range(relocate):
            placed = False
            for cand in _midpoint_candidates(nodes, h_new):
                if all(abs(cand - s) > NODE_CLASH_TOL * h_new for s in nodes):
                    pos = int(np.searchsorted(nodes, cand))
                    nodes.insert(pos, cand)
                    blocks.insert(pos, problem.source_blocks(cand, exp_opts))
                    fresh += 1
                    placed = True
                    break
            if not placed:
                raise InvalidNodes("could not place a relocated quadrature node")

    nodes_arr = np.asarray(nodes)
    weights = quad_weights(nodes_arr, h_new)
    assembled = _assemble(problem, nodes_arr, weights, blocks, comp_opts)
    return QuadratureState(state.degree, h_new, nodes_arr, weights, tuple(blocks),
                           assembled, fresh)


def affine_flow(
    factor: LDLTFactor,
    h: float,
    problem: ProblemData,
    state: QuadratureState,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> LDLTFactor:
    """Exact flow of P' = A^T P + P A + Q over a step h:
    exp(h A^T) P exp(h A) plus the quadrature factor, compressed."""
    if h < 0:
        raise InvalidInput(f"h must be nonnegative, got {h}")
    if h == 0.0:
        return factor
    if not abs(state.h - h) <= 1e-12 * abs(h):
        raise InvalidInput(f"quadrature state is for h={state.h:g}, step is h={h:g}")
    terms = []
    if factor.rank > 0:
        propagated = exp_action(problem.a, h, factor.L, exp_opts)
        terms.append((1.0, LDLTFactor._trusted(propagated, factor.D)))
    terms.append((1.0, state.assembled))
    return combine(terms, comp_opts)
