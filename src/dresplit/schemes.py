"""Time-stepping operators built from the two subflows.

Besides the classical Lie and Strang compositions, the module provides
additive schemes of arbitrary order: weighted sums of repeated Lie-type
chains at fractional substeps h/k, where the weights cancel the low-order
error terms (an extrapolation structure).  Dropping the last chain and
re-weighting yields an embedded lower-order method whose difference from the
full combination is a cheap local error estimate.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientConditioning, InvalidInput, NoEmbeddedMethod, NonFiniteFactor
from .expaction import BlockActions, ExpActionOptions
from .lowrank import CompressionOptions, LDLTFactor, combine, compress, on_identity
from .subflows import ProblemData, QuadratureState, affine_flow, quadratic_flow

MULTIPLICATIVE_KINDS = ("lie", "strang")
ADDITIVE_KINDS = ("asym", "sym")
EXACT_STAGE_LIMIT = 12

QUADRATIC_FIRST = "quadratic_first"
AFFINE_FIRST = "affine_first"


@dataclass(frozen=True)
class SchemeSpec:
    """Which splitting scheme to run.

    kind is one of lie, strang, asym, sym; stages matters for the additive
    kinds only.  Lie, Strang and asym apply the quadratic subflow first in
    each Lie-type substep; sym averages both operator orders.
    """

    kind: str
    stages: int = 1

    def __post_init__(self):
        if self.kind not in MULTIPLICATIVE_KINDS + ADDITIVE_KINDS:
            raise InvalidInput(f"unknown scheme kind {self.kind!r}")
        if self.stages < 1:
            raise InvalidInput(f"stages must be >= 1, got {self.stages}")

    @property
    def order(self) -> int:
        if self.kind == "lie":
            return 1
        if self.kind == "strang":
            return 2
        if self.kind == "asym":
            return self.stages
        return 2 * self.stages

    @property
    def is_additive(self) -> bool:
        return self.kind in ADDITIVE_KINDS

    @property
    def embedded_order(self) -> int | None:
        if not self.is_additive or self.stages < 2:
            return None
        return self.stages - 1 if self.kind == "asym" else 2 * self.stages - 2

    def substep_divisors(self) -> tuple:
        """Divisors k such that the scheme needs a quadrature state at h/k."""
        if self.kind in MULTIPLICATIVE_KINDS:
            return (1,)
        return tuple(range(1, self.stages + 1))


def _condition_rows(s: int, symmetric: bool):
    """Rows/rhs of the order-condition system, in floats."""
    power = 2 if symmetric else 1
    rows = [[2.0 if symmetric else 1.0] * s]
    rhs = [1.0]
    for j in range(1, s):
        rows.append([1 / k ** (power * j) for k in range(1, s + 1)])
        rhs.append(0.0)
    return rows, rhs


def coefficient_residual(gamma, s: int, symmetric: bool) -> float:
    """Largest order-condition residual of the given weights, in floats."""
    rows, rhs = _condition_rows(s, symmetric)
    worst = 0.0
    for row, target in zip(rows, rhs):
        val = float(np.dot(row, gamma)) - target
        worst = max(worst, abs(val))
    return worst


def additive_coeffs(s: int, symmetric: bool) -> np.ndarray:
    """Chain weights of the s-stage additive scheme (order s, or 2s when
    symmetric).

    The weights solve the order conditions in closed form:

        asym: gamma_k = (-1)^(s-k) k^s / (k! (s-k)!)
        sym:  gamma_k = (-1)^(s-k) k^(2s) / ((s+k)! (s-k)!)

    Numerator and denominator are exact Python integers and are divided
    once, so each weight is the correctly rounded float of its exact value.
    The order-condition residual is checked in floats; stage counts beyond
    12 get a conditioning warning because the weights grow and the rounding
    of them starts to dominate the cancellation they must achieve.
    """
    if s < 1:
        raise InvalidInput(f"stage count must be >= 1, got {s}")
    gamma = np.empty(s)
    for k in range(1, s + 1):
        if symmetric:
            num, den = k ** (2 * s), math.factorial(s + k) * math.factorial(s - k)
        else:
            num, den = k**s, math.factorial(k) * math.factorial(s - k)
        gamma[k - 1] = (-1) ** (s - k) * num / den
    if s > EXACT_STAGE_LIMIT:
        warnings.warn(
            f"stage count {s} exceeds {EXACT_STAGE_LIMIT}; float conversion of the "
            "weights loses accuracy",
            CoefficientConditioning,
            stacklevel=2,
        )
    residual = coefficient_residual(gamma, s, symmetric)
    budget = 1e-12 * max(1.0, float(np.abs(gamma).sum()))
    if residual > budget:
        raise InvalidInput(
            f"order conditions violated after float conversion (residual {residual:.3e})"
        )
    return gamma


def embedded_coeffs(s: int, symmetric: bool) -> np.ndarray:
    """Weights of the embedded companion: the (s-1)-stage scheme padded with
    a zero, so it reuses the already-computed chains."""
    if s < 2:
        raise NoEmbeddedMethod("a single-stage additive scheme has no embedded companion")
    return np.append(additive_coeffs(s - 1, symmetric), 0.0)


@dataclass(frozen=True)
class SchemeCoefficients:
    """Full-order weights gamma, embedded weights beta (last entry zero) and
    the estimate weights alpha = gamma - beta."""

    gamma: np.ndarray
    beta: np.ndarray | None
    alpha: np.ndarray | None = field(default=None)

    @classmethod
    def for_spec(cls, spec: SchemeSpec) -> "SchemeCoefficients":
        if not spec.is_additive:
            raise InvalidInput("coefficients are defined for additive schemes only")
        symmetric = spec.kind == "sym"
        gamma = additive_coeffs(spec.stages, symmetric)
        if spec.stages < 2:
            return cls(gamma, None, None)
        beta = embedded_coeffs(spec.stages, symmetric)
        return cls(gamma, beta, gamma - beta)


def lie_chain(
    factor: LDLTFactor,
    h: float,
    k: int,
    order: str,
    problem: ProblemData,
    state: QuadratureState,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
    starts: tuple = (),
) -> LDLTFactor:
    """k repetitions of the Lie-type substep of size h/k.

    order QUADRATIC_FIRST applies the quadratic flow then the affine flow in
    each repetition; AFFINE_FIRST is the reverse.  ``starts`` is passed to
    every affine flow, which takes the propagation of the step's start
    basis from it (see ``affine_flow``).  At N or more columns the chain
    ends on its uncompressed N x N core on the identity basis.
    """
    if k < 1:
        raise InvalidInput(f"repetition count must be >= 1, got {k}")
    sub = h / k
    current = factor
    for _ in range(k):
        if order == QUADRATIC_FIRST:
            current = quadratic_flow(current, sub, problem.s)
            current = affine_flow(current, sub, problem, state, exp_opts, comp_opts, starts)
        else:
            current = affine_flow(current, sub, problem, state, exp_opts, comp_opts, starts)
            current = quadratic_flow(current, sub, problem.s)
    return current


def _compressed(factor: LDLTFactor, comp_opts: CompressionOptions) -> LDLTFactor:
    """factor, compressed if it is an uncompressed sum on the identity basis."""
    return compress(factor, comp_opts) if on_identity(factor) else factor


def multiplicative_step(
    factor: LDLTFactor,
    h: float,
    kind: str,
    problem: ProblemData,
    states: dict,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
) -> LDLTFactor:
    """One Lie or Strang step in factored form.

    Lie applies the quadratic flow over h, then the affine flow over h;
    Strang applies half a quadratic step on each side of a full affine step.
    states maps substep divisors to prepared quadrature states; both kinds
    use divisor 1.  Each kind has one affine flow; where it leaves the
    uncompressed N x N core of a full-width sum, the step compresses that
    result once, where the flow itself would have.
    """
    if kind == "lie":
        return _compressed(lie_chain(factor, h, 1, QUADRATIC_FIRST, problem, states[1],
                                     exp_opts, comp_opts), comp_opts)
    if kind != "strang":
        raise InvalidInput(f"unknown multiplicative kind {kind!r}")
    mid = quadratic_flow(factor, h / 2, problem.s)
    mid = _compressed(affine_flow(mid, h, problem, states[1], exp_opts, comp_opts), comp_opts)
    return quadratic_flow(mid, h / 2, problem.s)


def additive_step(
    factor: LDLTFactor,
    h: float,
    spec: SchemeSpec,
    coeffs: SchemeCoefficients,
    problem: ProblemData,
    states: dict,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
):
    """One additive step: (next factor, error estimate or None).

    The chains are evaluated one after another in fixed (k, direction)
    order.  Both results come from one ``combine`` call over the chains:
    the next factor is their gamma-weighted sum, and the estimate, the
    Frobenius norm of their alpha-weighted sum, comes from the same basis
    with alpha as the estimate weights.  It is None for single-stage
    schemes, which have no embedded companion.  At N or more columns the
    chains end on the shared identity basis, uncompressed; that combine
    merges them into one N x N core and compresses it, the step's one
    eigendecomposition.

    Repeated factor work is done once, with the same bits.  The
    ``BlockActions`` of the step's basis L keeps exp((h/k) A^T) L from the
    first chain of divisor k that needs it; the other direction takes it
    from there, so L is propagated once per substep size.  The flows after
    a chain's first full-width one start on the identity basis and make no
    action: their propagation is the cached exp((h/k) A^T).  From a factor
    of rank 0, on which ``quadratic_flow`` returns the factor itself, the
    AFFINE_FIRST chain k equals ``quadratic_flow`` of the QUADRATIC_FIRST
    chain k over h/k, and is computed so.  A NonFiniteFactor from combining
    the chains names the step, h, and whether the next factor (``cannot
    compress``) or the estimate is not finite.
    """
    if not spec.is_additive:
        raise InvalidInput("additive_step requires an additive scheme spec")
    ks = range(1, spec.stages + 1)
    if spec.kind == "sym":
        directions = (QUADRATIC_FIRST, AFFINE_FIRST)
    else:
        directions = (QUADRATIC_FIRST,)
    jobs = [(k, d) for k in ks for d in directions]
    shared_prefix = spec.kind == "sym" and factor.rank == 0
    runs = [(k, QUADRATIC_FIRST) for k in ks] if shared_prefix else jobs
    starts = (BlockActions(problem.a, factor.L),)
    chains = [lie_chain(factor, h, k, d, problem, states[k], exp_opts, comp_opts, starts)
              for k, d in runs]
    if shared_prefix:
        chains = [c for k, chain in zip(ks, chains)
                  for c in (chain, quadratic_flow(chain, h / k, problem.s))]

    terms = [(coeffs.gamma[k - 1], chain) for (k, _), chain in zip(jobs, chains)]
    alphas = None if coeffs.alpha is None else [coeffs.alpha[k - 1] for k, _ in jobs]
    try:
        combined = combine(terms, comp_opts, alphas)
    except NonFiniteFactor as exc:
        raise NonFiniteFactor(f"additive step over h={h:g}, combining its chains: {exc}") from exc
    return (combined, None) if alphas is None else combined
