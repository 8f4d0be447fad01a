import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from dresplit import (
    DenseProblem,
    InvalidInput,
    InvalidReference,
    OracleDiverged,
    StepTooLarge,
    dense_reference,
    dense_subflow,
    generate_problem,
    relative_error,
)

from conftest import make_random_problem
from dresplit import oracle
from dresplit.problems import to_dense_problem


def scalar_dense(a=0.0, q=1.0, s=1.0, p0=0.0, horizon=1.0):
    one = np.ones((1, 1))
    return DenseProblem(a=a * one, q=q * one, s=s * one, p0=p0 * one, horizon=horizon)


def rk4_dense(problem, n_steps):
    """Classical RK4 on P' = A^T P + P A + Q - P S P, independent of the oracle."""
    a, q, s = problem.a, problem.q, problem.s

    def rhs(p):
        return a.T @ p + p @ a + q - p @ s @ p

    h = problem.horizon / n_steps
    p = problem.p0.copy()
    for _ in range(n_steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * h * k1)
        k3 = rhs(p + 0.5 * h * k2)
        k4 = rhs(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


class TestReference:
    def test_tanh(self):
        problem = scalar_dense()
        out = dense_reference(problem)
        assert out[0, 0] == pytest.approx(np.tanh(1.0), abs=1e-10)

    @pytest.mark.parametrize("a, q, s, p0", [
        (-2.0, 1.0, 1.0, 0.0), (1.5, 0.5, 2.0, 1.0), (0.3, 0.0, 1.0, 3.0),
        (-40.0, 2.0, 0.5, 0.2),
    ])
    def test_scalar_closed_form(self, a, q, s, p0):
        # p' = 2ap + q - sp^2: H^2 = (a^2 + qs) I, so exp(tH) is
        # cosh(dt) I + sinh(dt) H / d with d = sqrt(a^2 + qs).
        t = 1.0
        d = np.sqrt(a * a + q * s)
        c, sh = np.cosh(d * t), np.sinh(d * t) / d
        expected = (c * p0 + sh * (q + a * p0)) / (c + sh * (s * p0 - a))
        out = dense_reference(scalar_dense(a, q, s, p0, t))
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_reference_beyond_norm_overflow(self):
        # p' = 2p + 1, p(0) = 1: P = 1.5 e^{400} - 0.5 ~ 7.8e173 is finite,
        # but its square overflows an unscaled Frobenius norm.
        out = dense_reference(scalar_dense(1.0, 1.0, 0.0, 1.0, 200.0))
        expected = np.array([[1.5 * np.exp(400.0) - 0.5]])
        assert relative_error(out, expected) <= 1e-12

    def test_pure_conjugation(self, rng):
        n = 6
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        g = rng.standard_normal((n, 3))
        p0 = g @ g.T
        problem = DenseProblem(a=a, q=np.zeros((n, n)), s=np.zeros((n, n)),
                               p0=p0, horizon=0.9)
        phi = expm(0.9 * a)
        ref = phi.T @ p0 @ phi
        out = dense_reference(problem)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_self_consistency_halving(self, rng):
        # Two half-horizon solves, the second started from the first, must
        # compose to the full-horizon solve (the flow is a semigroup).
        problem = to_dense_problem(make_random_problem(rng, 10, 4))
        full = dense_reference(problem)
        half = DenseProblem(a=problem.a, q=problem.q, s=problem.s, p0=problem.p0,
                            horizon=0.5 * problem.horizon)
        mid = dense_reference(half)
        rest = DenseProblem(a=problem.a, q=problem.q, s=problem.s, p0=mid,
                            horizon=0.5 * problem.horizon)
        assert relative_error(dense_reference(rest), full) <= 1e-10

    def test_fourth_order_converge_ratio(self, rng):
        # Against the reference, RK4 errors must fall by about 2^4 per step
        # halving: a reference off by more than RK4's error flattens the ratio.
        problem = to_dense_problem(make_random_problem(rng, 8, 3))
        exact = dense_reference(problem)
        d1 = np.linalg.norm(rk4_dense(problem, 500) - exact)
        d2 = np.linalg.norm(rk4_dense(problem, 1000) - exact)
        assert 10.0 <= d1 / d2 <= 22.0

    def test_symmetry_and_psd(self, rng):
        problem = to_dense_problem(make_random_problem(rng, 9, 4))
        out = dense_reference(problem)
        assert np.array_equal(out, out.T)
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= -1e-10 * max(1.0, eigs.max())

    def test_divergence_detected(self):
        # Exploding linear problem: q = s = 0, strongly unstable a; the exact
        # solution exp(2*a*T) overflows double precision.  The overflow must
        # surface as OracleDiverged, not as an error from a linear solve.
        one = np.ones((1, 1))
        problem = DenseProblem(a=500.0 * one, q=0.0 * one, s=0.0 * one,
                               p0=one, horizon=1.0)
        with pytest.raises(OracleDiverged, match="not finite after interval"):
            dense_reference(problem)

    def test_failed_self_check(self, rng, monkeypatch):
        # The two subdivisions agree to round-off, never exactly, on a random
        # problem; a zero limit makes that agreement a failure.
        problem = to_dense_problem(make_random_problem(rng, 6, 2))
        monkeypatch.setattr(oracle, "_SELF_CHECK", 0.0)
        with pytest.raises(OracleDiverged, match="self-check"):
            dense_reference(problem)

    def test_self_verified(self, rng):
        problem = to_dense_problem(make_random_problem(rng, 8, 3))
        ref = dense_reference(problem)
        again = rk4_dense(problem, 4000)
        assert relative_error(ref, again) <= 1e-9


class TestDenseSubflow:
    def test_quadratic_scalar(self):
        problem = scalar_dense()
        out = dense_subflow("quadratic", np.ones((1, 1)), 1.0, problem)
        assert out[0, 0] == pytest.approx(0.5)

    def test_affine_zero_operator(self, rng):
        n = 5
        g = rng.standard_normal((n, 2))
        q = g @ g.T
        problem = DenseProblem(a=np.zeros((n, n)), q=q, s=np.eye(n),
                               p0=np.zeros((n, n)), horizon=1.0)
        p = np.eye(n)
        out = dense_subflow("affine", p, 0.3, problem)
        assert np.linalg.norm(out - (p + 0.3 * q)) <= 1e-11

    @pytest.mark.parametrize("lam", [-3.0, 0.5, 2.0])
    def test_affine_scaled_identity(self, rng, lam):
        # A = lam I: the source integral is Q (exp(2 lam h) - 1) / (2 lam).
        n, h = 4, 0.7
        g = rng.standard_normal((n, 2))
        q = g @ g.T
        problem = DenseProblem(a=lam * np.eye(n), q=q, s=np.eye(n),
                               p0=np.zeros((n, n)), horizon=1.0)
        out = dense_subflow("affine", np.zeros((n, n)), h, problem)
        expected = q * np.expm1(2.0 * lam * h) / (2.0 * lam)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [20, 50, 100])
    @pytest.mark.parametrize("h_norm", [41.0, 104.0, 1e3])
    def test_affine_stiff_against_lyapunov(self, rng, n, h_norm):
        # A stable A gives the source integral X from the Lyapunov form
        # A^T X + X A = exp(hA^T) Q exp(hA) - Q, with h ||A||_1 = h_norm.
        problem = to_dense_problem(generate_problem("laplacian_lqr", n))
        a = problem.a
        h = h_norm / np.linalg.norm(a, 1)
        g = rng.standard_normal((n, 2))
        p = g @ g.T
        phi = expm(h * a)
        x = solve_continuous_lyapunov(a.T, phi.T @ problem.q @ phi - problem.q)
        expected = phi.T @ p @ phi + x
        out = dense_subflow("affine", p, h, problem)
        assert relative_error(out, 0.5 * (expected + expected.T)) <= 1e-11

    def test_singular_quadratic_raises(self):
        # (I + h P S) singular: P = -1/h * S^{-1} with scalar entries.
        one = np.ones((1, 1))
        problem = DenseProblem(a=0.0 * one, q=0.0 * one, s=one, p0=one, horizon=1.0)
        with pytest.raises(StepTooLarge):
            dense_subflow("quadratic", -1.0 * one, 1.0, problem)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            dense_subflow("other", np.eye(2), 0.1, scalar_dense())


class TestRelativeError:
    def test_identical(self, rng):
        x = rng.standard_normal((4, 4))
        assert relative_error(x, x) == 0.0

    def test_double(self, rng):
        x = rng.standard_normal((4, 4))
        assert relative_error(2.0 * x, x) == pytest.approx(1.0)

    def test_elementwise_recomputation(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        manual = np.sqrt(np.sum((a - b) ** 2)) / np.sqrt(np.sum(b**2))
        assert relative_error(a, b) == pytest.approx(manual, rel=1e-15)

    def test_scale_invariant_beyond_overflow(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        big = 2.0**600
        assert relative_error(big * a, big * b) == relative_error(a, b)

    def test_zero_reference(self):
        with pytest.raises(InvalidReference):
            relative_error(np.eye(2), np.zeros((2, 2)))


class TestDenseProblemValidation:
    def test_asymmetric_rejected(self, rng):
        n = 4
        m = rng.standard_normal((n, n))
        with pytest.raises(InvalidInput):
            DenseProblem(a=np.eye(n), q=m, s=np.eye(n), p0=np.eye(n), horizon=1.0)

    def test_indefinite_rejected(self):
        n = 3
        with pytest.raises(InvalidInput):
            DenseProblem(a=np.eye(n), q=-np.eye(n), s=np.eye(n), p0=np.eye(n), horizon=1.0)

    def test_size_cap(self):
        n = 300
        with pytest.raises(InvalidInput):
            DenseProblem(a=np.eye(n), q=np.eye(n), s=np.eye(n), p0=np.eye(n), horizon=1.0)

    @pytest.mark.parametrize("field, value", [
        ("a", np.nan), ("a", np.inf), ("q", np.nan), ("s", np.nan),
        ("p0", np.inf), ("horizon", np.nan), ("horizon", np.inf),
    ])
    def test_nonfinite_rejected(self, field, value):
        n = 3
        data = dict(a=np.eye(n), q=np.eye(n), s=np.eye(n), p0=np.eye(n), horizon=1.0)
        if field == "horizon":
            data[field] = value
        else:
            data[field][0, 0] = value
        with pytest.raises(InvalidInput, match="finite"):
            DenseProblem(**data)
