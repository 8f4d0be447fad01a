"""Fixed-step and adaptive integration drivers.

The adaptive driver follows the embedded-estimate protocol: evaluate the
chains once, form the full-order combination and the estimate combination,
compare the estimate against the tolerance (optionally per unit step), and
steer the step size with a PI controller.  Every rejection shrinks the
step, by at most the growth cap, and rebuilds the source integrals at the
new size.  A subflow that fails inside a step (a singular solve,
StepTooLarge) also counts as a rejection: the step is halved.  Each tried
step size gets fresh source integrals for its substeps: exact at full
width, else the equidistant rules (``subflows.full_width``).  A step that
would end within STRETCH times its size of the horizon is stretched to end
on it, the rule of Hairer & Wanner's DOPRI5 and RADAU5 codes, so a run
lands exactly on the horizon and never ends on a sliver step, whose
per-unit-step estimate would be round-off over a tiny h.

Both drivers solve a problem with a sparse operator on one Galerkin space
(``expaction.KrylovSpace``, ``ProblemData.projected``): the same run on
the dense m x m projected problem, its factors lifted as L = U L_Y.  The
space grows, from GALERKIN_FIRST_DIM columns by GALERKIN_GROWTH each time,
until the lifted final factors of two successive dimensions agree to
``exp_opts.rel_tol`` in relative Frobenius norm, or the space is exact;
the records are those of the last run.  A dense problem is solved as it
is, the case U = I.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NonFiniteFactor, StepSizeCollapse, StepTooLarge, ToleranceNotMet
from .expaction import ExpActionOptions, KrylovSpace
from .lowrank import CompressionOptions, LDLTFactor, combine, compress, frob_norm
from .schemes import SchemeCoefficients, SchemeSpec, additive_step, multiplicative_step
from .subflows import ProblemData, full_width, init_quadrature, update_quadrature

# The controller aims at SAFETY * tol.  Estimates are floored at
# EST_FLOOR_FACTOR * SAFETY * tol, and one step grows, or one rejection
# shrinks, by at most GROWTH_CAP.  A step below H_MIN_FACTOR * horizon
# collapses.
SAFETY = 0.9
EST_FLOOR_FACTOR = 1e-4
GROWTH_CAP = 5.0
H_MIN_FACTOR = 1e-12
# A step with t + STRETCH * h >= horizon becomes horizon - t.
STRETCH = 1.01
# The Galerkin spaces of a sparse problem: the shift gamma of their Krylov
# space is GALERKIN_SHIFT * horizon; the first has at least
# GALERKIN_FIRST_DIM columns, each next one GALERKIN_GROWTH times the last.
GALERKIN_SHIFT = 1e-2
GALERKIN_FIRST_DIM = 48
GALERKIN_GROWTH = 1.5


@dataclass(frozen=True)
class ControllerParams:
    """PI step-size controller settings.

    Both PI gains are 0.2 / p, where p is the order of the error estimate.
    epus divides estimates by the step size before comparing against tol.
    """

    tol: float
    epus: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidInput(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one accepted step (plus how hard it was to get there).

    min_core_eig is the smallest eigenvalue of the step's core (None at
    rank 0): the format does not keep P semidefinite, and a negative value
    shows by how much it was lost.
    """

    t: float
    h: float
    err_est: float | None
    rejections: int
    rank: int
    fresh_quad_blocks: int
    clamped: bool = False
    min_core_eig: float | None = None


@dataclass
class Trajectory:
    """Accepted step records plus the stored factors.

    factors[0] is the initial factor and factors[i] the result of step i;
    when factor storage is disabled only the initial and final factors are
    kept.
    """

    records: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    store_factors: bool = True

    @property
    def final(self) -> LDLTFactor:
        return self.factors[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def append(self, record: StepRecord, factor: LDLTFactor) -> None:
        self.records.append(record)
        if self.store_factors or len(self.factors) <= 1:
            self.factors.append(factor)
        else:
            self.factors[-1] = factor


def pi_update(e_prev: float, e_new: float, h: float, params: ControllerParams,
              p_est: int) -> float:
    """PI-controlled next step size from the last two (scaled) estimates.

    Estimates are clamped from below so a vanishing estimate cannot blow the
    step up; growth is capped.  Scale-invariant: scaling both estimates and
    the tolerance by a common factor leaves the result unchanged.
    """
    k_i = k_p = 0.2 / p_est
    floor = EST_FLOOR_FACTOR * SAFETY * params.tol
    e_new = max(e_new, floor)
    e_prev = max(e_prev, floor)
    factor = (SAFETY * params.tol / e_new) ** k_i * (e_prev / e_new) ** k_p
    return h * min(factor, GROWTH_CAP)


def reject_resize(e_new: float, h: float, params: ControllerParams,
                  est_order: int) -> float:
    """Step size to retry with after a rejection."""
    if e_new <= 0:
        raise InvalidInput("rejection requires a positive estimate")
    return h * (SAFETY * params.tol / e_new) ** (1.0 / est_order)


def default_quad_degree(spec: SchemeSpec) -> int:
    """Quadrature exactness degree: scheme order + 1."""
    return spec.order + 1


class QuadraturePool:
    """One quadrature state per substep divisor, each of the given degree
    (the drivers use ``default_quad_degree``).

    The pool owns the states.  prepare() moves every divisor's state to a
    step size h, keeping a state whose substep h/k is unchanged and
    building a fresh one otherwise; reset() drops the states first, so
    every state is built afresh (the retry after a rejection).  Both
    return the number of freshly computed blocks.

    At full width (``subflows.full_width``) a new step size h needs
    exp((h/k) A^T) and X(h/k) for every divisor k.  Both are sums of
    lcm(k) / k steps u = h / lcm(k), so prepare() fills the missing ones
    from one Van Loan exponential at u, in one addition-chain pass straight
    into both caches (``SourceIntegral.prime``), before any state is built
    or chain runs; each state then reads its X(h/k) from the cache, and
    the flows their exp((h/k) A^T).

    In the low-rank regime it needs expm at h/k (the
    substep's propagation, and the last node of its rule) and at
    (h/k)/degree (its rule's grid step).  All of these are integer powers
    of E = expm(u A^T) with u = h / (lcm(k) degree), so prepare() primes
    the missing ones from that one exponential.
    """

    def __init__(self, problem: ProblemData, degree: int,
                 exp_opts: ExpActionOptions, comp_opts: CompressionOptions):
        self.problem = problem
        self.degree = degree
        self.exp_opts = exp_opts
        self.comp_opts = comp_opts
        self.states: dict = {}

    def _prime(self, h: float, divisors) -> None:
        lcm = math.lcm(*divisors) * self.degree
        # The keys are the exact float expressions lie_chain and
        # BlockActions.equidistant ask the cache for.
        powers = {}
        for k in divisors:
            powers[h / k] = lcm // k
            powers[(h / k) / self.degree] = lcm // (k * self.degree)
        self.problem.a.prime_expm(h / lcm, powers)

    def prepare(self, h: float, divisors) -> int:
        if full_width(self.problem, self.degree):
            lcm = math.lcm(*divisors)
            self.problem.source_integral.prime(h / lcm, {h / k: lcm // k for k in divisors})
        else:
            self._prime(h, divisors)
        fresh = 0
        for k in divisors:
            sub = h / k
            if k in self.states:
                self.states[k] = update_quadrature(
                    self.states[k], sub, self.problem, self.exp_opts, self.comp_opts
                )
            else:
                self.states[k] = init_quadrature(
                    self.problem, sub, self.degree, self.exp_opts, self.comp_opts
                )
            fresh += self.states[k].fresh_blocks
        return fresh

    def reset(self, h: float, divisors) -> int:
        self.states.clear()
        return self.prepare(h, divisors)


def _min_core_eig(factor: LDLTFactor) -> float | None:
    """Smallest eigenvalue of the core, None at rank 0.  A compressed core
    is diagonal, so that is its smallest entry; a Strang step ends in the
    quadratic flow, whose core is not, and takes an eigvalsh."""
    if not factor.rank:
        return None
    diagonal = np.diagonal(factor.D)
    if np.array_equal(factor.D, np.diag(diagonal)):
        return float(diagonal.min())
    return float(np.linalg.eigvalsh(factor.D)[0])


def _blown_up(exc: NonFiniteFactor, t: float, h: float) -> NonFiniteFactor:
    """exc with the start t and size h of the step it came from."""
    return NonFiniteFactor(f"{exc} (in the step from t={t:g} with h={h:g})")


# Every layer checks what it computes and raises NonFiniteFactor (or
# StepTooLarge) on a non-finite value: exp_action's iterate, the congruence
# core of compress and combine, quadratic_flow's condition estimate.  Those
# checks are the guard, so numpy's overflow warnings are silenced once per
# solve, in the driver, rather than per call.
_SILENCED = {"over": "ignore", "invalid": "ignore"}


def _lift(factor: LDLTFactor, u: np.ndarray) -> LDLTFactor:
    """factor lifted from the Galerkin space of basis U: L = U L_Y."""
    return LDLTFactor._trusted(u @ factor.L, factor.D)


def _lifted(trajectory: Trajectory, u: np.ndarray) -> Trajectory:
    """trajectory with every factor lifted from the Galerkin space."""
    return Trajectory(trajectory.records, [_lift(f, u) for f in trajectory.factors],
                      trajectory.store_factors)


def _on_galerkin_spaces(problem: ProblemData, exp_opts: ExpActionOptions, solve) -> Trajectory:
    """solve(problem), a Trajectory; on a sparse problem, solve on its
    Galerkin spaces of growing dimension, as the module docstring says.
    Raises ToleranceNotMet when the space reaches its cap below N first,
    and lifts the partial trajectory of a StepSizeCollapse."""
    if not problem.a.is_sparse:
        return solve(problem)
    space = KrylovSpace(problem.a, np.concatenate([problem.q.L, problem.p0.L], axis=1),
                        GALERKIN_SHIFT * problem.horizon)
    size, previous = GALERKIN_FIRST_DIM, None
    while True:
        exact = space.grow(size)
        u = space.basis
        try:
            trajectory = solve(problem.projected(u))
        except StepSizeCollapse as exc:
            exc.trajectory = _lifted(exc.trajectory, u)
            raise
        if exact:
            return _lifted(trajectory, u)
        final = _lift(trajectory.final, u)
        if previous is not None:
            diff = combine([(1.0, final), (-1.0, previous)], CompressionOptions(rel_tol=0.0))
            if frob_norm(diff) <= exp_opts.rel_tol * frob_norm(final):
                return _lifted(trajectory, u)
        m = u.shape[1]
        if m >= space.cap:
            raise ToleranceNotMet(
                f"the Galerkin space reached its cap, dimension {m} of N={problem.n}, "
                f"before two successive answers agreed to rel_tol={exp_opts.rel_tol:g}"
            )
        previous, size = final, math.ceil(GALERKIN_GROWTH * m)


@np.errstate(**_SILENCED)
def integrate_fixed(
    problem: ProblemData,
    spec: SchemeSpec,
    n_steps: int,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
    store_factors: bool = True,
) -> Trajectory:
    """Integrate with n_steps equal steps of the chosen scheme.

    Quadrature states of degree ``default_quad_degree(spec)`` are built
    once per substep size and reused for every step; their initial cost is
    attributed to the first record.  The chains of each step run one after
    another.  A sparse problem is solved on its Galerkin space (see the
    module docstring).
    """
    return _on_galerkin_spaces(problem, exp_opts, lambda p: _integrate_fixed(
        p, spec, n_steps, exp_opts, comp_opts, store_factors))


def _integrate_fixed(problem, spec, n_steps, exp_opts, comp_opts, store_factors) -> Trajectory:
    if n_steps < 1:
        raise InvalidInput(f"n_steps must be >= 1, got {n_steps}")
    h = problem.horizon / n_steps
    pool = QuadraturePool(problem, default_quad_degree(spec), exp_opts, comp_opts)
    divisors = spec.substep_divisors()
    init_fresh = pool.prepare(h, divisors)
    coeffs = SchemeCoefficients.for_spec(spec) if spec.is_additive else None

    trajectory = Trajectory(store_factors=store_factors)
    current = compress(problem.p0, comp_opts)
    trajectory.factors.append(current)
    for i in range(1, n_steps + 1):
        try:
            if spec.is_additive:
                current, estimate = additive_step(
                    current, h, spec, coeffs, problem, pool.states,
                    exp_opts, comp_opts,
                )
            else:
                current = multiplicative_step(
                    current, h, spec.kind, problem, pool.states, exp_opts, comp_opts,
                )
                estimate = None
        except NonFiniteFactor as exc:
            raise _blown_up(exc, (i - 1) * h, h) from exc
        t = problem.horizon if i == n_steps else i * h
        trajectory.append(
            StepRecord(t, h, estimate, 0, current.rank, init_fresh if i == 1 else 0,
                       min_core_eig=_min_core_eig(current)),
            current,
        )
    return trajectory


@np.errstate(**_SILENCED)
def integrate_adaptive(
    problem: ProblemData,
    spec: SchemeSpec,
    h1: float,
    params: ControllerParams,
    exp_opts: ExpActionOptions = ExpActionOptions(),
    comp_opts: CompressionOptions = CompressionOptions(),
    store_factors: bool = True,
) -> Trajectory:
    """Adaptive integration with the embedded estimate and a PI controller.

    Requires an additive scheme with at least two stages.  Each tried step
    size gets quadrature rules of degree ``default_quad_degree(spec)``, and
    the chains of each try run one after another.  Raises
    StepSizeCollapse (carrying the partial trajectory, its message naming
    the last rejection's cause) if the controller drives the step below
    H_MIN_FACTOR * horizon.  A sparse problem is solved on its Galerkin
    space (see the module docstring).
    """
    return _on_galerkin_spaces(problem, exp_opts, lambda p: _integrate_adaptive(
        p, spec, h1, params, exp_opts, comp_opts, store_factors))


def _integrate_adaptive(problem, spec, h1, params, exp_opts, comp_opts,
                        store_factors) -> Trajectory:
    if not spec.is_additive or spec.stages < 2:
        raise InvalidInput("adaptive integration needs an additive scheme with >= 2 stages")
    if not h1 > 0:
        raise InvalidInput(f"h1 must be positive, got {h1}")
    p_est = spec.embedded_order
    coeffs = SchemeCoefficients.for_spec(spec)
    pool = QuadraturePool(problem, default_quad_degree(spec), exp_opts, comp_opts)
    divisors = spec.substep_divisors()
    h_min = H_MIN_FACTOR * problem.horizon

    trajectory = Trajectory(store_factors=store_factors)
    current = compress(problem.p0, comp_opts)
    trajectory.factors.append(current)
    t = 0.0
    h = h1
    clamped = False
    if t + STRETCH * h >= problem.horizon:
        h = problem.horizon - t
        clamped = True
    e_prev = SAFETY * params.tol

    while True:
        rejections = 0
        fresh = 0
        while True:
            try:
                # The first try of a step keeps the rules of an unchanged h;
                # a retry follows a shrink, so every rule is new.
                fresh += (pool.reset if rejections else pool.prepare)(h, divisors)
                candidate, estimate = additive_step(
                    current, h, spec, coeffs, problem, pool.states,
                    exp_opts, comp_opts,
                )
            except NonFiniteFactor as exc:
                raise _blown_up(exc, t, h) from exc
            except StepTooLarge as exc:
                # A subflow that fails at this h is a rejection: halve the
                # step.
                rejections += 1
                cause = f"{type(exc).__name__}: {exc}"
                h *= 0.5
            else:
                e_cmp = estimate / h if params.epus else estimate
                if e_cmp <= params.tol:
                    break
                rejections += 1
                cause = f"error estimate {e_cmp:.3e} above tol {params.tol:g}"
                # One rejection shrinks h by at most the growth cap, so an
                # estimate spike far above tol cannot cut it by many orders
                # of magnitude at once.
                h = max(reject_resize(e_cmp, h, params, p_est), h / GROWTH_CAP)
            clamped = False
            if h < h_min:
                raise StepSizeCollapse(
                    f"step size {h:.3e} fell below the floor {h_min:.3e} at t={t:g} "
                    f"(last rejection: {cause})",
                    trajectory=trajectory,
                )
        current = candidate
        t = problem.horizon if clamped else t + h
        trajectory.append(
            StepRecord(t, h, e_cmp, rejections, current.rank, fresh, clamped,
                       _min_core_eig(current)),
            current,
        )
        if t >= problem.horizon:
            break
        h_next = pi_update(e_prev, e_cmp, h, params, p_est)
        e_prev = e_cmp
        h = h_next
        clamped = False
        if t + STRETCH * h >= problem.horizon:
            h = problem.horizon - t
            clamped = True
    return trajectory

