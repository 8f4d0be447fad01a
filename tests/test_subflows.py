import numpy as np
import pytest
import scipy.sparse as sp

from dresplit import (
    CompressionOptions,
    ExpActionOptions,
    InvalidInput,
    InvalidNodes,
    LDLTFactor,
    ProblemData,
    QuadraticTerm,
    StepTooLarge,
    StiffOperator,
    affine_flow,
    init_quadrature,
    quad_weights,
    quadratic_flow,
    to_dense,
    update_quadrature,
)
from dresplit.oracle import dense_subflow, relative_error
from dresplit.problems import to_dense_problem
from dresplit.study import _random_instance

from conftest import random_factor

EXP = ExpActionOptions(rel_tol=1e-12)
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

    def test_rank_zero_passthrough(self):
        f = LDLTFactor.zero(4)
        out = quadratic_flow(f, 0.5, QuadraticTerm.from_dense(np.eye(4)))
        assert out.rank == 0


class TestQuadWeights:
    def test_trapezoid(self):
        w = quad_weights(np.array([0.0, 2.0]), 2.0)
        assert np.allclose(w, [1.0, 1.0])

    def test_simpson(self):
        h = 2.0
        w = quad_weights(np.array([0.0, 1.0, 2.0]), h)
        assert np.allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])

    def test_moment_residuals_random_nodes(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 5))
            h = float(rng.uniform(0.5, 2.0))
            nodes = np.sort(rng.uniform(0, h, d + 1))
            while np.diff(nodes).size and np.diff(nodes).min() < 0.05 * h:
                nodes = np.sort(rng.uniform(0, h, d + 1))
            w = quad_weights(nodes, h)
            for j in range(d + 1):
                target = h ** (j + 1) / (j + 1)
                assert abs(float(w @ nodes**j) - target) <= 1e-12 * target

    def test_moment_residuals_high_degree(self):
        for d in range(1, 10):
            h = 0.37
            nodes = np.linspace(0.0, h, d + 1)
            w = quad_weights(nodes, h)
            for j in range(d + 1):
                target = h ** (j + 1) / (j + 1)
                assert abs(float(w @ nodes**j) - target) <= 1e-12 * target

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidNodes):
            quad_weights(np.array([0.0, 0.5, 0.5 + 1e-16]), 1.0)


class TestQuadratureState:
    def test_init_trapezoid(self, rng):
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 1.0, 1, EXP, COMP)
        assert np.allclose(state.nodes, [0.0, 1.0])
        assert np.allclose(state.weights, [0.5, 0.5])
        assert state.fresh_blocks == 2

    def test_init_simpson(self, rng):
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 2.0, 2, EXP, COMP)
        assert np.allclose(state.nodes, [0.0, 1.0, 2.0])
        assert np.allclose(state.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0])

    def test_zero_source_gives_rank_zero(self):
        problem = scalar_problem(0.5, 0.0, 1.0, 1.0)
        state = init_quadrature(problem, 0.5, 3, EXP, COMP)
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
        state = init_quadrature(problem, h, 4, EXP, COMP)
        expected = h * (q_l @ q_l.T)
        assert np.linalg.norm(to_dense(state.assembled) - expected) <= 1e-10

    def test_scalar_closed_form(self):
        a, q, h = 0.7, 1.3, 0.4
        problem = scalar_problem(a, q, 1.0, 0.0)
        state = init_quadrature(problem, h, 8, EXP, COMP)
        exact = q * (np.exp(2 * a * h) - 1.0) / (2 * a)
        got = to_dense(state.assembled)[0, 0]
        assert got == pytest.approx(exact, rel=1e-8)

    def test_update_same_h_no_fresh(self, rng):
        problem = _random_instance(rng, 5)[0]
        state = init_quadrature(problem, 0.2, 4, EXP, COMP)
        out = update_quadrature(state, 0.2, problem, EXP, COMP)
        assert out.fresh_blocks == 0
        assert np.array_equal(out.nodes, state.nodes)

    def test_update_small_growth_one_block(self, rng):
        problem = _random_instance(rng, 5)[0]
        state = init_quadrature(problem, 0.2, 4, EXP, COMP)
        out = update_quadrature(state, 0.22, problem, EXP, COMP)
        assert out.fresh_blocks <= 1

    def test_update_reset_on_large_growth(self, rng):
        problem = _random_instance(rng, 5)[0]
        d = 4
        state = init_quadrature(problem, 0.2, d, EXP, COMP)
        out = update_quadrature(state, 0.3, problem, EXP, COMP)
        assert out.fresh_blocks == d + 1
        assert np.allclose(out.nodes, np.linspace(0, 0.3, d + 1))

    def test_update_reset_on_large_shrink(self, rng):
        problem = _random_instance(rng, 5)[0]
        d = 3
        state = init_quadrature(problem, 0.2, d, EXP, COMP)
        out = update_quadrature(state, 0.2 * 0.8, problem, EXP, COMP)
        assert out.fresh_blocks == d + 1

    def test_update_preserves_exactness_and_order(self, rng):
        problem = _random_instance(rng, 5)[0]
        d = 5
        h = 0.1
        state = init_quadrature(problem, h, d, EXP, COMP)
        for ratio in [1.1, 0.9, 1.2, 0.85, 1.05, 0.95, 1.15]:
            h *= ratio
            state = update_quadrature(state, h, problem, EXP, COMP)
            assert np.all(np.diff(state.nodes) > 0)
            assert state.nodes[0] >= 0.0 and state.nodes[-1] <= h + 1e-15
            for j in range(d + 1):
                target = h ** (j + 1) / (j + 1)
                assert abs(float(state.weights @ state.nodes**j) - target) <= 1e-11 * target

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_lebesgue_of_equidistant_rules(self, rng, degree):
        # Up to degree 7 the weights are positive; the 9-point Newton-Cotes
        # rule (degree 8) has negative ones.
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 0.3, degree, EXP, COMP)
        if degree <= 7:
            assert abs(state.lebesgue - 1.0) <= 1e-14
        else:
            assert state.lebesgue > 1.0 + 1e-3

    def test_lebesgue_follows_an_in_band_update(self, rng):
        # Shrinking to 0.19 relocates the node at 0.2 to the midpoint 0.125;
        # the new weights are partly negative.
        problem = _random_instance(rng, 5)[0]
        state = init_quadrature(problem, 0.2, 4, EXP, COMP)
        out = update_quadrature(state, 0.19, problem, EXP, COMP)
        assert out.fresh_blocks == 1
        expected = np.abs(quad_weights(out.nodes, 0.19)).sum() / 0.19
        assert out.lebesgue == pytest.approx(expected, rel=1e-14)
        assert out.lebesgue > 1.5

    def test_update_matches_fresh_init_value(self, rng):
        # The incrementally updated integral approximates the same quantity
        # as a fresh equidistant rule of the same degree.
        problem = _random_instance(rng, 6)[0]
        state = init_quadrature(problem, 0.1, 8, EXP, COMP)
        state = update_quadrature(state, 0.11, problem, EXP, COMP)
        fresh = init_quadrature(problem, 0.11, 8, EXP, COMP)
        a = to_dense(state.assembled)
        b = to_dense(fresh.assembled)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


class TestAffineFlow:
    def test_scalar_exponential(self):
        a, h = 0.6, 0.25
        problem = scalar_problem(a, 0.0, 1.0, 2.0)
        state = init_quadrature(problem, h, 3, EXP, COMP)
        out = to_dense(affine_flow(problem.p0, h, problem, state, EXP, COMP))[0, 0]
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
        state = init_quadrature(problem, h, 4, EXP, COMP)
        out = to_dense(affine_flow(p, h, problem, state, EXP, COMP))
        expected = to_dense(p) + h * (q_l @ q_l.T)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            problem, dense, factor, h = _random_instance(rng, n)
            state = init_quadrature(problem, h, 9, EXP, COMP)
            got = to_dense(affine_flow(factor, h, problem, state, EXP, COMP))
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
        full = init_quadrature(problem, h, 3, EXP, COMP)
        half = init_quadrature(problem, h / 2, 3, EXP, COMP)
        one = to_dense(affine_flow(p, h, problem, full, EXP, COMP))
        two = affine_flow(p, h / 2, problem, half, EXP, COMP)
        two = to_dense(affine_flow(two, h / 2, problem, half, EXP, COMP))
        assert np.linalg.norm(one - two) <= 1e-9 * np.linalg.norm(one)

    def test_state_step_mismatch_rejected(self, rng):
        problem = _random_instance(rng, 4)[0]
        state = init_quadrature(problem, 0.1, 3, EXP, COMP)
        with pytest.raises(InvalidInput):
            affine_flow(problem.p0, 0.2, problem, state, EXP, COMP)


class TestProblemData:
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
