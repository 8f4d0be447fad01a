import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm, lapack

from dresplit import (
    CompressionOptions,
    ControllerParams,
    InvalidInput,
    LDLTFactor,
    NonFiniteFactor,
    ProblemData,
    QuadraticTerm,
    SchemeSpec,
    StepTooLarge,
    StiffOperator,
    affine_flow,
    combine,
    exp_action,
    generate_problem,
    init_quadrature,
    integrate_adaptive,
    integrate_fixed,
    quad_weights,
    quadratic_flow,
    to_dense,
    update_quadrature,
)
from dresplit import subflows
from dresplit.lowrank import identity_basis
from dresplit.oracle import dense_reference, dense_subflow, relative_error
from dresplit.problems import to_dense_problem

from conftest import _random_instance, random_factor

COMP = CompressionOptions(rel_tol=1e-15)


def scalar_problem(a, q, s, p0, horizon=1.0):
    return ProblemData(
        a=StiffOperator(np.array([[a]])),
        q=(LDLTFactor(np.ones((1, 1)), np.array([[q]])) if q else LDLTFactor.zero(1)),
        s=QuadraticTerm.from_dense(np.array([[s]])),
        p0=(LDLTFactor(np.ones((1, 1)), np.array([[p0]])) if p0 else LDLTFactor.zero(1)),
        horizon=horizon,
    )


class TestQuadraticFlow:
    def test_zero_s_keeps_core(self, rng):
        f = random_factor(rng, 5, 3, definite=True)
        out = quadratic_flow(f, 0.7, QuadraticTerm.from_dense(np.zeros((5, 5))))
        assert np.array_equal(out.D, f.D)
        assert out.L is f.L

    def test_scalar_half(self):
        f = LDLTFactor(np.ones((1, 1)), np.ones((1, 1)))
        out = quadratic_flow(f, 1.0, QuadraticTerm.from_dense(np.ones((1, 1))))
        assert out.D[0, 0] == pytest.approx(0.5)

    def test_scalar_two_sevenths(self):
        f = LDLTFactor(np.ones((1, 1)), np.array([[2.0]]))
        out = quadratic_flow(f, 1.0, QuadraticTerm.from_dense(np.array([[3.0]])))
        assert out.D[0, 0] == pytest.approx(2.0 / 7.0)

    def test_woodbury_dense_equivalence(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 21))
            r = int(rng.integers(1, min(n, 5) + 1))
            f = random_factor(rng, n, r, definite=True)
            g = rng.standard_normal((n, n))
            s = g @ g.T
            h = float(rng.uniform(0.01, 0.5))
            out = to_dense(quadratic_flow(f, h, QuadraticTerm.from_dense(s)))
            p = to_dense(f)
            ref = np.linalg.solve(np.eye(n) + h * p @ s, p)
            assert np.linalg.norm(out - ref) <= 1e-11 * max(1.0, np.linalg.norm(ref))

    def test_psd_preserved(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            f = random_factor(rng, n, 3, definite=True)
            g = rng.standard_normal((n, n))
            s_op = QuadraticTerm.from_dense(g @ g.T)
            for h in (0.0, 0.1, 1.0, 10.0):
                out = quadratic_flow(f, h, s_op)
                eigs = np.linalg.eigvalsh(out.D)
                assert eigs.min() >= -1e-12 * max(1.0, eigs.max())

    def test_singular_system_raises_step_too_large(self):
        # 1 + h d s = 0 for d = -1, s = 1, h = 1: the core update has no inverse.
        f = LDLTFactor(np.ones((1, 1)), -np.ones((1, 1)))
        with pytest.raises(StepTooLarge, match="condition estimate inf for h=1"):
            quadratic_flow(f, 1.0, QuadraticTerm.from_dense(np.ones((1, 1))))

    @staticmethod
    def _always_estimated(factor, h, s_op, dgecon):
        """quadratic_flow's core as it was before the small-step skip: the
        condition estimate taken on every call.  (core, rcond)."""
        system = h * (factor.D @ (factor.L.T @ s_op.apply(factor.L)))
        system.flat[:: factor.rank + 1] += 1.0
        lu, piv, info = lapack.dgetrf(system)
        rcond = dgecon(lu, np.abs(system).sum(axis=0).max())[0] if info == 0 else 0.0
        if not rcond >= np.finfo(np.float64).eps:
            cond = 1.0 / rcond if rcond > 0.0 else np.inf
            raise StepTooLarge(
                f"quadratic subflow system has condition estimate {cond:.3e} for h={h:g}"
            )
        core = lapack.dgetrs(lu, piv, factor.D)[0]
        return 0.5 * (core + core.T), rcond

    def test_small_steps_skip_the_condition_estimate(self, rng, monkeypatch):
        # ||h D S||_1 <= 1/2 bounds kappa_1(I + h D S) by 3, so the estimate
        # (rcond >= 1/3) could not trip the eps check: the flow skips dgecon
        # there, with the bits and StepTooLarge decisions of the flow that
        # always takes it.  Above 1/2 it takes the estimate once, as before.
        # An indefinite core adds the h at which I + h D S is singular.
        real = lapack.dgecon
        calls, reference_calls = [], []
        monkeypatch.setattr(lapack, "dgecon", lambda *a: calls.append(a) or real(*a))

        def estimate(*args):
            reference_calls.append(args)
            return real(*args)

        checked = raised = 0
        for _ in range(40):
            n = int(rng.integers(2, 13))
            factor = random_factor(rng, n, int(rng.integers(1, min(n, 5) + 1)),
                                   definite=bool(rng.integers(2)))
            g = rng.standard_normal((n, n))
            s_op = QuadraticTerm.from_dense(g @ g.T)
            ds = factor.D @ (factor.L.T @ s_op.apply(factor.L))
            unit = np.abs(ds).sum(axis=0).max()
            steps = [scale / unit for scale in (1e-3, 0.1, 0.3, 0.5, 0.55, 0.7, 3.0, 1e2, 1e8)]
            lowest = np.linalg.eigvals(ds).real.min()
            if lowest < 0:
                steps.append(-1.0 / lowest)
            for h in steps:
                small = np.abs(h * ds).sum(axis=0).max() <= 0.5
                estimated = len(reference_calls)
                try:
                    want, rcond = self._always_estimated(factor, h, s_op, estimate)
                except StepTooLarge as exc:
                    raised += 1
                    with pytest.raises(StepTooLarge, match=f"^{re.escape(str(exc))}$"):
                        quadratic_flow(factor, h, s_op)
                else:
                    got = quadratic_flow(factor, h, s_op)
                    assert got.D.tobytes() == want.tobytes() and got.L is factor.L
                    assert rcond >= (1.0 - 1e-12) / 3.0 or not small
                # The LU of an exactly singular system takes no estimate.
                checked += not small and len(reference_calls) > estimated
                assert len(calls) == checked
        assert raised > 0 and 0 < checked < 400

    def test_near_singular_system_still_raises(self):
        # diag(1 - h, 1 + h) at h = 1 - 2^-52 has condition 9.0e15, past
        # 1/eps: the step is too large, with the message it always had.
        f = LDLTFactor(np.eye(2), np.diag([-1.0, 1.0]))
        with pytest.raises(StepTooLarge,
                           match=r"^quadratic subflow system has condition estimate "
                                 r"9\.007e\+15 for h=1$"):
            quadratic_flow(f, 1.0 - 2.0**-52, QuadraticTerm.from_dense(np.eye(2)))

    def test_rank_zero_passthrough(self):
        f = LDLTFactor.zero(4)
        out = quadratic_flow(f, 0.5, QuadraticTerm.from_dense(np.eye(4)))
        assert out.rank == 0

    def test_nan_step_rejected(self, rng):
        # A NaN h used to reach the solve and raise StepTooLarge, which the
        # adaptive driver answers by halving the step.
        f = random_factor(rng, 4, 2, definite=True)
        with pytest.raises(InvalidInput, match="h must be nonnegative, got nan"):
            quadratic_flow(f, np.nan, QuadraticTerm.from_dense(np.eye(4)))


    @pytest.mark.parametrize("form", ["dense", "sparse", "lowrank"])
    def test_identity_basis_takes_s_of_the_identity_once(self, rng, form):
        # On the shared identity basis the cross term L^T S L is S(I), kept
        # by the quadratic term: the bits of the general formula.
        n = 6
        b = rng.standard_normal((n, 2))
        s_op = {"dense": lambda: QuadraticTerm.from_dense(b @ b.T),
                "sparse": lambda: QuadraticTerm.from_sparse(sp.csr_matrix(b @ b.T)),
                "lowrank": lambda: QuadraticTerm.from_lowrank(b)}[form]()
        core = random_factor(rng, n, n).D
        on_identity = LDLTFactor._trusted(identity_basis(n), core)
        general = LDLTFactor._trusted(np.eye(n), core)
        for h in (0.1, 0.2):
            out = quadratic_flow(on_identity, h, s_op)
            ref = quadratic_flow(general, h, s_op)
            assert out.L is on_identity.L and out.D.tobytes() == ref.D.tobytes()
        assert s_op.identity_cross() is s_op.identity_cross()
        assert not s_op.identity_cross().flags.writeable


class TestQuadWeights:
    def test_trapezoid(self):
        w = quad_weights(1, 2.0)
        assert np.allclose(w, [1.0, 1.0])

    def test_simpson(self):
        w = quad_weights(2, 2.0)
        assert np.allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])

    @pytest.mark.parametrize("degree, table", [
        (3, np.array([1.0, 3.0, 3.0, 1.0]) / 8.0),
        (4, np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0),
    ])
    def test_newton_cotes_tables(self, degree, table):
        # Simpson's 3/8 rule and Boole's rule: the unit tables are the
        # correctly rounded weights, and a rule over h is h times them.
        assert np.array_equal(subflows._unit_weights(degree), table)
        for h in (0.37, 1.0, 2.5e-3):
            assert np.array_equal(quad_weights(degree, h), h * table)

    def test_unit_table_is_read_only(self):
        table = subflows._unit_weights(3)
        assert subflows._unit_weights(3) is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        kept = table.copy()
        w = quad_weights(3, 0.5)
        w[:] = 0.0  # the caller's array is its own
        assert np.array_equal(subflows._unit_weights(3), kept)

    def test_moment_residuals_high_degree(self):
        for d in range(1, 10):
            h = 0.37
            nodes = np.linspace(0.0, h, d + 1)
            w = quad_weights(d, h)
            for j in range(d + 1):
                target = h ** (j + 1) / (j + 1)
                assert abs(float(w @ nodes**j) - target) <= 1e-12 * target

    @pytest.mark.parametrize("degree, h", [(3, 0.0), (3, -1.0), (3, np.nan), (0, 1.0)])
    def test_bad_arguments_rejected(self, degree, h):
        with pytest.raises(InvalidInput):
            quad_weights(degree, h)

    def test_adaptive_run_solves_the_moment_system_once(self, monkeypatch):
        # Every rule of an adaptive sym3 run (degree 7) scales one table,
        # computed on the first rule only.
        subflows._unit_weights.cache_clear()
        rules = []
        real_weights = subflows.quad_weights
        monkeypatch.setattr(subflows, "quad_weights",
                            lambda *a: rules.append(a) or real_weights(*a))
        problem = generate_problem("random_lowrank", 10, 4, seed=0, horizon=1.0)
        integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                           ControllerParams(tol=1e-6, epus=True))
        assert len(rules) > 100 and {d for d, _ in rules} == {7}
        assert subflows._unit_weights.cache_info().misses == 1


def _narrow_instance(rng):
    """A random instance on which every rule up to degree 8 stays below N
    columns ((8 + 1) rank(Q) <= 36 < 40), so init_quadrature builds the
    rule rather than the exact integral of the full-width regime."""
    return _random_instance(rng, 40)[0]


class TestQuadratureState:
    def test_init_trapezoid(self, rng):
        problem = _narrow_instance(rng)
        state = init_quadrature(problem, 1.0, 1, COMP)
        assert np.allclose(state.nodes, [0.0, 1.0])
        assert np.allclose(state.weights, [0.5, 0.5])
        assert state.fresh_blocks == 2

    def test_init_simpson(self, rng):
        problem = _narrow_instance(rng)
        state = init_quadrature(problem, 2.0, 2, COMP)
        assert np.allclose(state.nodes, [0.0, 1.0, 2.0])
        assert np.allclose(state.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])

    def test_zero_source_gives_rank_zero(self):
        problem = scalar_problem(0.5, 0.0, 1.0, 1.0)
        state = init_quadrature(problem, 0.5, 3, COMP)
        assert state.assembled.rank == 0

    def test_zero_operator_integral(self, rng):
        n, r = 6, 2
        q_l = rng.standard_normal((n, r))
        problem = ProblemData(
            a=StiffOperator(np.zeros((n, n))),
            q=LDLTFactor(q_l, np.eye(r)),
            s=QuadraticTerm.from_dense(np.eye(n)),
            p0=LDLTFactor.zero(n),
            horizon=1.0,
        )
        h = 0.3
        state = init_quadrature(problem, h, 4, COMP)
        expected = h * (q_l @ q_l.T)
        assert np.linalg.norm(to_dense(state.assembled) - expected) <= 1e-10

    def test_scalar_closed_form(self):
        a, q, h = 0.7, 1.3, 0.4
        problem = scalar_problem(a, q, 1.0, 0.0)
        state = init_quadrature(problem, h, 8, COMP)
        exact = q * (np.exp(2 * a * h) - 1.0) / (2 * a)
        got = to_dense(state.assembled)[0, 0]
        assert got == pytest.approx(exact, rel=1e-8)

    def test_update_same_h_no_fresh(self, rng):
        problem = _random_instance(rng, 5)[0]
        state = init_quadrature(problem, 0.2, 4, COMP)
        out = update_quadrature(state, 0.2, problem, COMP)
        assert out.fresh_blocks == 0
        assert np.array_equal(out.nodes, state.nodes)

    def test_update_to_a_new_h_is_the_fresh_rule(self, rng):
        # However close the new h, the rule is rebuilt equidistant, with the
        # bits of init_quadrature and its stability constant 1.
        problem = _narrow_instance(rng)
        state = init_quadrature(problem, 0.2, 4, COMP)
        for h_new in (0.2 * (1 + 1e-15), 0.22, 0.19):
            out = update_quadrature(state, h_new, problem, COMP)
            fresh = init_quadrature(problem, h_new, 4, COMP)
            assert out.fresh_blocks == 5
            assert np.array_equal(out.nodes, fresh.nodes)
            assert np.array_equal(out.weights, fresh.weights)
            assert out.assembled.L.tobytes() == fresh.assembled.L.tobytes()
            assert out.assembled.D.tobytes() == fresh.assembled.D.tobytes()
            assert abs(out.lebesgue - 1.0) <= 1e-14

    def test_update_reset_on_large_growth(self, rng):
        problem = _narrow_instance(rng)
        d = 4
        state = init_quadrature(problem, 0.2, d, COMP)
        out = update_quadrature(state, 0.3, problem, COMP)
        assert out.fresh_blocks == d + 1
        assert np.allclose(out.nodes, np.linspace(0, 0.3, d + 1))

    def test_update_reset_on_large_shrink(self, rng):
        problem = _narrow_instance(rng)
        d = 3
        state = init_quadrature(problem, 0.2, d, COMP)
        out = update_quadrature(state, 0.2 * 0.8, problem, COMP)
        assert out.fresh_blocks == d + 1

    def test_update_preserves_exactness_and_order(self, rng):
        problem = _narrow_instance(rng)
        d = 5
        h = 0.1
        state = init_quadrature(problem, h, d, COMP)
        for ratio in [1.1, 0.9, 1.2, 0.85, 1.05, 0.95, 1.15]:
            h *= ratio
            state = update_quadrature(state, h, problem, COMP)
            assert np.all(np.diff(state.nodes) > 0)
            assert state.nodes[0] >= 0.0 and state.nodes[-1] <= h + 1e-15
            for j in range(d + 1):
                target = h ** (j + 1) / (j + 1)
                assert abs(float(state.weights @ state.nodes**j) - target) <= 1e-11 * target

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_lebesgue_of_equidistant_rules(self, rng, degree):
        # Up to degree 7 the weights are positive; the 9-point Newton-Cotes
        # rule (degree 8) has negative ones.
        problem = _narrow_instance(rng)
        state = init_quadrature(problem, 0.3, degree, COMP)
        if degree <= 7:
            assert abs(state.lebesgue - 1.0) <= 1e-14
        else:
            assert state.lebesgue > 1.0 + 1e-3

    def test_nan_step_rejected(self, rng):
        # Both used to fail at the first exponential action instead, with
        # "t must be finite and nonnegative".
        problem = _random_instance(rng, 4)[0]
        with pytest.raises(InvalidInput, match="h must be positive, got nan"):
            init_quadrature(problem, np.nan, 3, COMP)
        state = init_quadrature(problem, 0.1, 3, COMP)
        with pytest.raises(InvalidInput, match="h must be positive, got nan"):
            update_quadrature(state, np.nan, problem, COMP)

    def test_update_matches_fresh_init_value(self, rng):
        # The updated integral is that of a fresh equidistant rule of the
        # same degree.
        problem = _random_instance(rng, 6)[0]
        state = init_quadrature(problem, 0.1, 8, COMP)
        state = update_quadrature(state, 0.11, problem, COMP)
        fresh = init_quadrature(problem, 0.11, 8, COMP)
        a = to_dense(state.assembled)
        b = to_dense(fresh.assembled)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


class TestAffineFlow:
    def test_scalar_exponential(self):
        a, h = 0.6, 0.25
        problem = scalar_problem(a, 0.0, 1.0, 2.0)
        state = init_quadrature(problem, h, 3, COMP)
        out = to_dense(affine_flow(problem.p0, h, problem, state, COMP))[0, 0]
        assert out == pytest.approx(2.0 * np.exp(2 * a * h), rel=1e-10)

    def test_zero_operator(self, rng):
        n = 5
        q_l = rng.standard_normal((n, 2))
        p = random_factor(rng, n, 2, definite=True)
        problem = ProblemData(
            a=StiffOperator(np.zeros((n, n))),
            q=LDLTFactor(q_l, np.eye(2)),
            s=QuadraticTerm.from_dense(np.eye(n)),
            p0=p,
            horizon=1.0,
        )
        h = 0.4
        state = init_quadrature(problem, h, 4, COMP)
        out = to_dense(affine_flow(p, h, problem, state, COMP))
        expected = to_dense(p) + h * (q_l @ q_l.T)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            problem, dense, factor, h = _random_instance(rng, n)
            state = init_quadrature(problem, h, 9, COMP)
            got = to_dense(affine_flow(factor, h, problem, state, COMP))
            ref = dense_subflow("affine", to_dense(factor), h, dense)
            assert relative_error(got, ref) <= 1e-10

    def test_flow_property_without_source(self, rng):
        n = 6
        p = random_factor(rng, n, 3, definite=True)
        problem = ProblemData(
            a=StiffOperator(rng.standard_normal((n, n)) / np.sqrt(n)),
            q=LDLTFactor.zero(n),
            s=QuadraticTerm.from_dense(np.eye(n)),
            p0=p,
            horizon=1.0,
        )
        h = 0.3
        full = init_quadrature(problem, h, 3, COMP)
        half = init_quadrature(problem, h / 2, 3, COMP)
        one = to_dense(affine_flow(p, h, problem, full, COMP))
        two = affine_flow(p, h / 2, problem, half, COMP)
        two = to_dense(affine_flow(two, h / 2, problem, half, COMP))
        assert np.linalg.norm(one - two) <= 1e-9 * np.linalg.norm(one)

    def test_state_step_mismatch_rejected(self, rng):
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 0.1, 3, COMP)
        with pytest.raises(InvalidInput):
            affine_flow(problem.p0, 0.2, problem, state, COMP)

    def test_nan_step_rejected(self, rng):
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 0.1, 3, COMP)
        with pytest.raises(InvalidInput, match="h must be nonnegative, got nan"):
            affine_flow(problem.p0, np.nan, problem, state, COMP)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("factor_rank, source_rank", [(3, 2), (0, 2), (3, 0), (0, 0)])
    def test_same_bits_as_combine(self, rng, kind, factor_rank, source_rank):
        # The flow is combine on its two unit-weight terms with
        # truncate=False, bit for bit, also where a term has rank 0 or an
        # all-zero core.  Below N = 12 columns that sum is compressed; the
        # rank-3 factor and the rule's rank-10 X(h) reach 13, so the flow
        # returns the uncompressed 12 x 12 sum on the identity basis.
        # A sparse operator's problem goes through its projection, here
        # onto all of R^N.
        n, h = 12, 0.05
        if kind == "dense":
            a = StiffOperator(rng.standard_normal((n, n)))
        else:
            a = generate_problem("laplacian_lqr", n=n).a
        q = (LDLTFactor(rng.standard_normal((n, source_rank)), np.eye(source_rank))
             if source_rank else LDLTFactor.zero(n))
        problem = ProblemData(a=a, q=q, s=QuadraticTerm.from_dense(np.eye(n)),
                              p0=LDLTFactor.zero(n), horizon=1.0)
        if kind == "sparse":
            problem = problem.projected(np.eye(n))
        state = init_quadrature(problem, h, 4, COMP)
        full = []
        for factor in (random_factor(rng, n, factor_rank) if factor_rank else LDLTFactor.zero(n),
                       LDLTFactor(rng.standard_normal((n, 2)), np.zeros((2, 2)))):
            terms = []
            if factor.rank:
                propagated = exp_action(problem.a, h, factor.L)
                terms.append((1.0, LDLTFactor._trusted(propagated, factor.D)))
            terms.append((1.0, state.assembled))
            want = combine(terms, COMP, truncate=False)
            got = affine_flow(factor, h, problem, state, COMP)
            assert got.L.tobytes() == want.L.tobytes()
            assert got.D.tobytes() == want.D.tobytes()
            assert got.L.shape == want.L.shape
            width = sum(f.rank for _, f in terms if f.D.any())
            assert (got.L is identity_basis(n)) == (width >= n)
            full.append(width >= n)
            if width >= n:
                dense = sum(to_dense(f) for _, f in terms)
                assert np.linalg.norm(got.D - dense) <= 1e-14 * np.linalg.norm(dense)
        assert full == [(factor_rank, source_rank) == (3, 2), False]

    def test_nonfinite_core_names_the_flow(self):
        # exp(400 h) = 5e173 keeps the propagated basis finite, but its
        # congruence core overflows; the source core 1e-300 stays finite.
        n = 3
        problem = ProblemData(
            a=StiffOperator(400.0 * np.eye(n)),
            q=LDLTFactor(np.ones((n, 1)), np.array([[1e-300]])),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=LDLTFactor(np.ones((n, 1)), np.eye(1)),
            horizon=1.0,
        )
        state = init_quadrature(problem, 1.0, 2, COMP)
        # Called outside a driver, which would silence numpy's overflow warning.
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteFactor, match="affine flow over h=1: cannot compress"):
            affine_flow(problem.p0, 1.0, problem, state, COMP)


    @pytest.mark.parametrize("width", [2, 6, 9])
    def test_full_width_sum_matches_combine(self, rng, width):
        # On an exact X(h) (3 * rank(Q) >= N = 6) the flow forms
        # B D B^T + X(h) directly, with B = exp(h A^T) L, and a factor on
        # the identity basis takes B = the cached expm(h) itself.  combine
        # stacks the same two terms into one product: the sums agree to
        # round-off and land on the identity basis, exactly symmetric.
        n, h = 6, 0.05
        problem = _source_problem(rng.standard_normal((n, n)), rng.standard_normal((n, 2)))
        state = init_quadrature(problem, h, 2, COMP)
        assert state.assembled.L is identity_basis(n)
        core = random_factor(rng, n, n).D
        for factor in (random_factor(rng, n, width),
                       LDLTFactor._trusted(identity_basis(n), core)):
            got = affine_flow(factor, h, problem, state, COMP)
            propagated = LDLTFactor._trusted(exp_action(problem.a, h, factor.L), factor.D)
            want = combine([(1.0, propagated), (1.0, state.assembled)], COMP, truncate=False)
            assert got.L is want.L is identity_basis(n)
            assert got.D.tobytes() == got.D.T.tobytes()
            assert np.linalg.norm(got.D - want.D) <= 1e-14 * np.linalg.norm(want.D)

    def test_nonfinite_full_width_sum_reads_as_combine(self, rng):
        # The direct sum is checked as combine checks its stacked one, and
        # names the same rank-(2 + N) factor.
        n, h = 6, 0.05
        problem = _source_problem(rng.standard_normal((n, n)), rng.standard_normal((n, 2)))
        state = init_quadrature(problem, h, 2, COMP)
        message = (r"cannot compress a rank-8 factor of dimension 6: "
                   r"its core is not finite$")
        with np.errstate(over="ignore", invalid="ignore"):
            term = random_factor(rng, n, 2)
            term = LDLTFactor._trusted(term.L, np.finfo(np.float64).max * term.D)
            with pytest.raises(NonFiniteFactor, match=r"^affine flow over h=0\.05: " + message):
                affine_flow(term, h, problem, state, COMP)
            propagated = LDLTFactor._trusted(exp_action(problem.a, h, term.L), term.D)
            with pytest.raises(NonFiniteFactor, match="^" + message):
                combine([(1.0, propagated), (1.0, state.assembled)], COMP, truncate=False)


def _operator(kind, n, rng):
    """A random operator with ||A||_1 = 4, a strongly non-normal one
    (-I + 8 shift) or a stiff one (laplacian_lqr's, stored dense)."""
    if kind == "random":
        a = rng.standard_normal((n, n))
        return a * (4.0 / np.linalg.norm(a, 1))
    if kind == "nonnormal":
        return -np.eye(n) + 8.0 * np.diag(np.ones(n - 1), 1)
    return generate_problem("laplacian_lqr", n).a.matrix.toarray()


def _source_problem(a, q_l):
    n = a.shape[0]
    return ProblemData(a=StiffOperator(a), q=LDLTFactor(q_l, np.eye(q_l.shape[1])),
                       s=QuadraticTerm.from_dense(np.eye(n)), p0=LDLTFactor.zero(n),
                       horizon=1.0)


class TestExactSourceIntegral:
    # Where the rule's (degree + 1) rank(Q) columns reach N, init_quadrature
    # gives X(h) = int_0^h exp(sA^T) Q exp(sA) ds in closed form, from one
    # Van Loan exponential per step size.

    @pytest.mark.parametrize("kind", ["random", "nonnormal", "stiff"])
    def test_chain_matches_direct_van_loan_and_lyapunov(self, rng, kind):
        # The sym3 pool's chain from u = h/6 gives X(h/k) for k = 1, 2, 3;
        # each agrees with a Van Loan exponential taken at h/k itself (on a
        # fresh problem, and the oracle's own code), and satisfies the
        # Lyapunov identity A^T X + X A = exp(hA^T) Q exp(hA) - Q.
        n = 12
        a = _operator(kind, n, rng)
        q_l = rng.standard_normal((n, 2))
        h = 100.0 / np.linalg.norm(a, 1) if kind == "stiff" else 1.0
        problem = _source_problem(a, q_l)
        problem.source_integral.prime(h / 6, {h / k: 6 // k for k in (1, 2, 3)})
        q = q_l @ q_l.T
        for k in (1, 2, 3):
            t = h / k
            x = problem.source_integral(t)
            assert not x.flags.writeable and np.array_equal(x, x.T)
            direct = _source_problem(a, q_l).source_integral(t)
            oracle = dense_subflow("affine", np.zeros((n, n)), t, to_dense_problem(problem))
            for other in (direct, oracle):
                assert np.linalg.norm(x - other) <= 1e-13 * np.linalg.norm(other)
            e = expm(t * a)
            rhs = e.T @ q @ e - q
            residual = np.linalg.norm(a.T @ x + x @ a - rhs)
            assert residual <= 1e-14 * (np.linalg.norm(a, 1) * np.linalg.norm(x)
                                        + np.linalg.norm(rhs))
            # The chain's propagators went into the operator's expm cache.
            direct_e = expm(t * a.T)
            assert np.linalg.norm(problem.a.expm(t) - direct_e) <= 1e-13 * np.linalg.norm(direct_e)

    def test_full_width_reads_the_width_not_the_storage(self):
        # sym2's degree-5 rule stacks 6 * 4 = 24 columns of laplacian_lqr's Q.
        for n, wide in ((20, True), (24, True), (25, False)):
            sparse = generate_problem("laplacian_lqr", n)
            dense = _source_problem(sparse.a.matrix.toarray(), sparse.q.L)
            assert subflows.full_width(sparse, 5) is wide
            assert subflows.full_width(dense, 5) is wide

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_state_is_the_exact_integral_on_the_identity(self, storage):
        # A sparse operator's problem goes through its projection, here
        # onto all of R^N.
        problem = generate_problem("laplacian_lqr", 20)
        if storage == "dense":
            problem = _source_problem(problem.a.matrix.toarray(), problem.q.L)
        else:
            problem = problem.projected(np.eye(20))
        h = 0.01
        state = init_quadrature(problem, h, 5, COMP)
        assert state.assembled.L is identity_basis(20)
        assert state.fresh_blocks == 0 and state.h == h
        assert state.nodes.size == 0 and state.lebesgue == 1.0
        ref = dense_subflow("affine", np.zeros((20, 20)), h, to_dense_problem(problem))
        assert np.linalg.norm(state.assembled.D - ref) <= 1e-13 * np.linalg.norm(ref)
        same = update_quadrature(state, h, problem, COMP)
        assert same.assembled is state.assembled and same.fresh_blocks == 0
        moved = update_quadrature(state, 2 * h, problem, COMP)
        assert moved.assembled.D.tobytes() == problem.source_integral(2 * h).tobytes()

    def test_stiff_laplacian_dense_and_sparse_meet_the_reference(self):
        # laplacian_lqr N = 20, sym2, 2 fixed steps: the rule read 1.51e-1
        # here; the exact integral gives 3.1e-6, whichever way A is stored.
        sparse = generate_problem("laplacian_lqr", 20)
        dense = dataclasses.replace(sparse, a=StiffOperator(sparse.a.matrix.toarray()))
        ref = dense_reference(to_dense_problem(sparse))
        finals = {}
        for name, problem in (("sparse", sparse), ("dense", dense)):
            finals[name] = to_dense(integrate_fixed(problem, SchemeSpec("sym", 2), 2).final)
            assert relative_error(finals[name], ref) <= 1e-5
        assert relative_error(finals["dense"], finals["sparse"]) <= 1e-13

    def test_nonnormal_convection_dense_and_sparse_meet_the_reference(self):
        # laplacian_lqr N = 16 plus a first-order upwind convection of
        # speed 50, 50 (u_{i-1} - u_i) / dx: a stiff, non-normal A.  sym2
        # reads 2.48e-6 at 2 steps and 4.38e-7 at 8, whichever way A is
        # stored.
        n = 16
        diffusion = generate_problem("laplacian_lqr", n)
        dx = 1.0 / (n + 1)
        convection = (50.0 / dx) * sp.diags([np.ones(n - 1), -np.ones(n)], [-1, 0])
        sparse = dataclasses.replace(
            diffusion, a=StiffOperator((diffusion.a.matrix + convection).tocsr()))
        dense = dataclasses.replace(sparse, a=StiffOperator(sparse.a.as_dense()))
        ref = dense_reference(to_dense_problem(sparse))
        for steps, bound in ((2, 1e-5), (8, 1e-6)):
            finals = {}
            for name, problem in (("sparse", sparse), ("dense", dense)):
                final = integrate_fixed(problem, SchemeSpec("sym", 2), steps).final
                finals[name] = to_dense(final)
                assert relative_error(finals[name], ref) <= bound
            assert relative_error(finals["dense"], finals["sparse"]) <= 1e-10


class TestProblemData:
    def test_projection_onto_an_orthonormal_basis(self, rng):
        n, m = 30, 7
        problem = dataclasses.replace(generate_problem("laplacian_lqr", n),
                                      p0=LDLTFactor(rng.standard_normal((n, 2)), np.eye(2)))
        u = np.linalg.qr(rng.standard_normal((n, m)))[0]
        proj = problem.projected(u)
        assert (proj.n, proj.horizon, proj.a.is_sparse) == (m, problem.horizon, False)
        a, s = problem.a.as_dense(), problem.s.as_dense()
        assert np.allclose(proj.a.matrix, u.T @ a @ u, rtol=1e-14, atol=0)
        assert np.array_equal(proj.s.as_dense(), proj.s.as_dense().T)
        assert np.allclose(proj.s.as_dense(), u.T @ s @ u, rtol=0, atol=1e-15)
        for got, factor in ((proj.q, problem.q), (proj.p0, problem.p0)):
            assert np.array_equal(got.L, u.T @ factor.L) and got.D is factor.D

    def test_projection_keeps_a_restarted_initial_factor(self, rng):
        # A restarted problem's factor may carry a round-off negative core
        # eigenvalue, which the input check refuses; its projection keeps it.
        problem = generate_problem("laplacian_lqr", 20)
        start = LDLTFactor(np.linalg.qr(rng.standard_normal((20, 2)))[0],
                           np.diag([1e-3, -1e-9]))
        proj = problem._restarted(start, 0.01).projected(np.eye(20))
        assert proj.p0.D is start.D and proj.horizon == 0.01

    def test_psd_check_on_cores(self, rng):
        n = 4
        with pytest.raises(InvalidInput):
            ProblemData(
                a=StiffOperator(np.eye(n)),
                q=LDLTFactor(np.ones((n, 1)), -np.ones((1, 1))),
                s=QuadraticTerm.from_dense(np.eye(n)),
                p0=LDLTFactor.zero(n),
                horizon=1.0,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["q.L", "q.D", "p0.L", "p0.D"])
    def test_nonfinite_factor_rejected(self, part, value):
        n = 4
        parts = {"q.L": np.ones((n, 1)), "q.D": np.ones((1, 1)),
                 "p0.L": np.ones((n, 2)), "p0.D": np.eye(2)}
        parts[part][0, 0] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            ProblemData(
                a=StiffOperator(np.eye(n)),
                q=LDLTFactor(parts["q.L"], parts["q.D"]),
                s=QuadraticTerm.from_dense(np.eye(n)),
                p0=LDLTFactor(parts["p0.L"], parts["p0.D"]),
                horizon=1.0,
            )

    @pytest.mark.parametrize("form", ["dense", "sparse", "lowrank"])
    def test_nonfinite_quadratic_term_rejected(self, form):
        s = np.eye(3)
        s[1, 2] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            if form == "dense":
                QuadraticTerm.from_dense(s)
            elif form == "sparse":
                QuadraticTerm.from_sparse(sp.csr_matrix(s))
            else:
                QuadraticTerm.from_lowrank(s[:, 1:])

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4,)])
    def test_nonsquare_quadratic_term_rejected(self, form, shape):
        s = np.ones(shape)
        make = QuadraticTerm.from_dense if form == "dense" else (
            lambda m: QuadraticTerm.from_sparse(sp.csr_matrix(m)))
        with pytest.raises(InvalidInput, match="must be square"):
            make(s)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_nonfinite_horizon_rejected(self, horizon):
        with pytest.raises(InvalidInput, match="horizon"):
            ProblemData(
                a=StiffOperator(np.eye(3)),
                q=LDLTFactor.zero(3),
                s=QuadraticTerm.from_dense(np.eye(3)),
                p0=LDLTFactor.zero(3),
                horizon=horizon,
            )

    def test_dimension_check(self, rng):
        with pytest.raises(InvalidInput):
            ProblemData(
                a=StiffOperator(np.eye(4)),
                q=LDLTFactor.zero(5),
                s=QuadraticTerm.from_dense(np.eye(4)),
                p0=LDLTFactor.zero(4),
                horizon=1.0,
            )

    def test_lowrank_quadratic_term(self, rng):
        b = rng.standard_normal((6, 2))
        op = QuadraticTerm.from_lowrank(b)
        x = rng.standard_normal((6, 3))
        assert np.allclose(op.apply(x), b @ (b.T @ x), atol=1e-13)
        assert np.allclose(op.as_dense(), b @ b.T, atol=1e-13)
