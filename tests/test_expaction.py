import logging
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from dresplit import (
    ExpActionOptions,
    InvalidInput,
    NonFiniteFactor,
    SchemeSpec,
    StepTooLarge,
    StiffOperator,
    ToleranceNotMet,
    exp_action,
    generate_problem,
    integrate_fixed,
)
from dresplit.expaction import (
    _POLE_COMPLEX,
    _POLE_REAL,
    _PROPAGATOR_CACHE,
    _WEIGHT_COMPLEX,
    _WEIGHT_REAL,
    _dense_propagator,
    _propagate_sparse,
    _relative_change,
)

logger = logging.getLogger(__name__)


def test_zero_operator_is_identity(rng):
    op = StiffOperator(np.zeros((4, 4)))
    v = rng.standard_normal((4, 3))
    assert np.array_equal(exp_action(op, 0.7, v), v)


def test_zero_time_returns_copy(rng):
    op = StiffOperator(rng.standard_normal((4, 4)))
    v = rng.standard_normal((4, 2))
    out = exp_action(op, 0.0, v)
    assert np.array_equal(out, v) and out is not v


def test_empty_block(rng):
    op = StiffOperator(rng.standard_normal((4, 4)))
    out = exp_action(op, 0.5, np.zeros((4, 0)))
    assert out.shape == (4, 0)


def test_nilpotent():
    op = StiffOperator(np.array([[0.0, 0.0], [1.0, 0.0]]))  # A^T = [[0,1],[0,0]]
    out = exp_action(op, 1.0, np.array([[0.0], [1.0]]), ExpActionOptions(rel_tol=1e-12))
    assert np.allclose(out.ravel(), [1.0, 1.0], atol=1e-12)


def test_matches_dense_expm(rng):
    opts = ExpActionOptions(rel_tol=1e-9)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        v = rng.standard_normal((5, 2))
        ref = expm(0.3 * a.T) @ v
        out = exp_action(StiffOperator(a), 0.3, v, opts)
        assert np.linalg.norm(out - ref) <= 10 * opts.rel_tol * np.linalg.norm(ref)


def test_diagonal_operator(rng):
    d = np.array([-3.0, -1.0, 0.5])
    op = StiffOperator(np.diag(d))
    v = rng.standard_normal((3, 4))
    out = exp_action(op, 0.8, v, ExpActionOptions(rel_tol=1e-12))
    ref = np.exp(0.8 * d)[:, None] * v
    assert np.allclose(out, ref, rtol=1e-11, atol=1e-13)


def test_semigroup_property(rng):
    opts = ExpActionOptions(rel_tol=1e-11)
    a = rng.standard_normal((6, 6))
    op = StiffOperator(a)
    v = rng.standard_normal((6, 2))
    direct = exp_action(op, 0.5, v, opts)
    chained = exp_action(op, 0.3, exp_action(op, 0.2, v, opts), opts)
    assert np.linalg.norm(direct - chained) <= 1e-9 * np.linalg.norm(direct)


def test_sparse_path_matches_dense_path(rng):
    n = 20
    dx = 1.0 / (n + 1)
    main = -2.0 * np.ones(n) / dx**2
    off = np.ones(n - 1) / dx**2
    a_sp = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    op_sp = StiffOperator(a_sp)
    op_de = StiffOperator(a_sp.toarray())
    v = rng.standard_normal((n, 2))
    opts = ExpActionOptions(rel_tol=1e-10)
    w_sp = exp_action(op_sp, 1e-3, v, opts)
    w_de = exp_action(op_de, 1e-3, v, opts)
    assert np.linalg.norm(w_sp - w_de) <= 1e-8 * np.linalg.norm(w_de)


def test_monotone_refinement_logged(rng):
    # Stiff 1-D Laplacian: halving substeps should not raise the estimate.
    # Observed and logged, not asserted hard.
    n = 16
    dx = 1.0 / (n + 1)
    a = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / dx**2
    op = StiffOperator(a)
    v = rng.standard_normal((n, 1))
    from dresplit.expaction import _propagate_dense

    t = 5e-4
    estimates = []
    prev = _propagate_dense(op, t, v, 1)
    n_sub = 1
    for _ in range(8):
        n_sub *= 2
        cur = _propagate_dense(op, t, v, n_sub)
        estimates.append(np.linalg.norm(cur - prev) / np.linalg.norm(cur))
        prev = cur
    increases = sum(1 for a_, b_ in zip(estimates, estimates[1:]) if b_ > a_)
    logger.info("laplacian refinement estimates: %s (%d increases)", estimates, increases)
    assert len(estimates) == 8


def test_tolerance_not_met_carries_best(rng):
    a = rng.standard_normal((4, 4)) * 50.0
    op = StiffOperator(a)
    v = rng.standard_normal((4, 1))
    with pytest.raises(ToleranceNotMet) as info:
        exp_action(op, 1.0, v, ExpActionOptions(rel_tol=1e-14, max_doublings=2))
    assert info.value.best is not None
    assert info.value.estimate > 0


def test_negative_time_rejected(rng):
    op = StiffOperator(np.eye(3))
    with pytest.raises(InvalidInput):
        exp_action(op, -0.1, np.ones((3, 1)))


def test_apply_transpose_linearity(rng):
    a = rng.standard_normal((7, 7))
    op = StiffOperator(a)
    x = rng.standard_normal((7, 2))
    y = rng.standard_normal((7, 2))
    lhs = op.apply_transpose(2.0 * x + y)
    rhs = 2.0 * op.apply_transpose(x) + op.apply_transpose(y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_cached_propagator_matches_direct(rng):
    op = StiffOperator(rng.standard_normal((9, 9)))
    for tau in (0.3, 0.3 / 7, 1e-3):
        k_mat = op.propagator(tau)
        assert np.array_equal(k_mat, _dense_propagator(op._at, tau))
        assert op.propagator(tau) is k_mat
        assert not k_mat.flags.writeable
    assert op.propagator.cache_info().hits == 3


def test_propagator_cache_under_thread_contention(rng):
    # More threads than cores and more substep sizes than cache entries, so
    # concurrent misses and evictions interleave; every lookup must still
    # return the directly formed propagator of its own substep size.
    op = StiffOperator(rng.standard_normal((6, 6)))
    taus = [0.1 / k for k in range(1, 2 * _PROPAGATOR_CACHE + 1)]
    direct = {tau: _dense_propagator(op._at, tau) for tau in taus}
    wrong = []

    def worker(offset):
        for i in range(200):
            tau = taus[(offset + 3 * i) % len(taus)]
            if not np.array_equal(op.propagator(tau), direct[tau]):
                wrong.append(tau)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    assert op.propagator.cache_info().currsize <= _PROPAGATOR_CACHE


def test_propagator_cache_bounded_after_fixed_run():
    problem = generate_problem("random_lowrank", n=12, seed=3, horizon=0.2)
    integrate_fixed(problem, SchemeSpec("sym", 3), 4)
    info = problem.a.propagator.cache_info()
    assert info.maxsize == _PROPAGATOR_CACHE
    assert 0 < info.currsize <= _PROPAGATOR_CACHE
    assert info.hits > 0


def test_operators_keep_their_own_propagators(rng):
    a = rng.standard_normal((6, 6))
    op1, op2 = StiffOperator(a), StiffOperator(2.0 * a)
    k1, k2 = op1.propagator(0.1), op2.propagator(0.1)
    assert np.array_equal(k1, _dense_propagator(op1._at, 0.1))
    assert np.array_equal(k2, _dense_propagator(op2._at, 0.1))
    assert not np.array_equal(k1, k2)
    assert op1.propagator.cache_info().currsize == 1
    assert op2.propagator.cache_info().currsize == 1


def test_thread_pool_factors_byte_identical():
    # Each run gets a fresh operator, so both start from an empty cache and
    # the two-thread run fills it from concurrent chains.
    finals = []
    for threads in (1, 2):
        problem = generate_problem("random_lowrank", n=16, seed=5, horizon=0.2)
        traj = integrate_fixed(problem, SchemeSpec("sym", 3), 3, threads=threads)
        finals.append([(f.L.tobytes(), f.D.tobytes()) for f in traj.factors])
    assert finals[0] == finals[1]


def test_large_finite_block_scale_invariant(rng):
    # Entries near 1e160 overflow an unscaled Frobenius norm of the block;
    # scaling by a power of two must not change the refinement decisions.
    op = StiffOperator(5.0 * rng.standard_normal((6, 6)))
    v = rng.standard_normal((6, 2))
    big = exp_action(op, 1.0, 2.0**530 * v)
    assert np.array_equal(big / 2.0**530, exp_action(op, 1.0, v))
    w, w_prev = rng.standard_normal((2, 6, 3))
    unscaled = np.linalg.norm(w - w_prev) / np.linalg.norm(w)
    assert _relative_change(w, w_prev) == unscaled


@pytest.mark.parametrize("sparse", [False, True])
def test_nonfinite_block_raises_promptly(rng, sparse):
    # A NaN column can never converge; the doubling must stop at once
    # instead of exhausting its budget (hours at the default on sparse).
    problem = generate_problem("laplacian_lqr", n=100)
    a = problem.a.matrix
    op = StiffOperator(a if sparse else a.toarray())
    v = rng.standard_normal((100, 3))
    v[:, 1] = np.nan
    start = time.perf_counter()
    with pytest.raises(NonFiniteFactor, match="t=0.01"):
        exp_action(op, 0.01, v, ExpActionOptions(max_doublings=14))
    assert time.perf_counter() - start < 1.0


# The Radau IA Butcher tableau: the reference for the decoupled propagator.
SQRT6 = np.sqrt(6.0)
RADAU_A = np.array(
    [
        [1.0 / 9.0, (-1.0 - SQRT6) / 18.0, (-1.0 + SQRT6) / 18.0],
        [1.0 / 9.0, (88.0 + 7.0 * SQRT6) / 360.0, (88.0 - 43.0 * SQRT6) / 360.0],
        [1.0 / 9.0, (88.0 + 43.0 * SQRT6) / 360.0, (88.0 - 7.0 * SQRT6) / 360.0],
    ]
)
RADAU_B = np.array([1.0 / 9.0, (16.0 + SQRT6) / 36.0, (16.0 - SQRT6) / 36.0])


def coupled_propagator(at, tau):
    """K(tau) from the coupled 3N x 3N stage system I - tau kron(A_radau, A^T)."""
    n = at.shape[0]
    m = np.eye(3 * n) - tau * np.kron(RADAU_A, at)
    stages = np.linalg.solve(m, np.tile(np.eye(n), (3, 1)))
    weighted = sum(RADAU_B[i] * stages[i * n : (i + 1) * n] for i in range(3))
    return np.eye(n) + tau * (at @ weighted)


def stable_operator(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g / np.sqrt(n) - 2.0 * np.eye(n)


def test_radau_weights_sum_to_one_exactly():
    assert _WEIGHT_REAL + 2.0 * _WEIGHT_COMPLEX.real == 1.0


def test_poles_and_weights_reproduce_stability_function():
    # R(z) of Radau IA in exact rational arithmetic.  In 1 + z b^T (I - zA)^-1 1
    # the increment cancels against 1 as R(z) ~ 3/|z| decays, so the error is
    # measured on the scale max(1, |R|) of the terms that are summed (near
    # z = -1e3 the coupled 3N x 3N form is also 6e-14 off relative to R).
    def exact_r(z):
        z = Fraction(z)
        num = 1 + Fraction(2, 5) * z + z * z / 20
        den = 1 - Fraction(3, 5) * z + Fraction(3, 20) * z * z - z**3 / 60
        return num / den

    for z in np.concatenate([-np.geomspace(1e-12, 1e3, 200), np.linspace(-1.0, 0.3, 53)]):
        k = Fraction(_dense_propagator(np.array([[z]]), 1.0)[0, 0])
        r = exact_r(z)
        assert abs(k - r) <= Fraction(1e-14) * max(1, abs(r)), z


TAU_NORMS = (1e-8, 1e-3, 0.1, 1.0, 10.0)


@pytest.mark.parametrize("n", [5, 57])
def test_dense_propagator_matches_coupled_reference(n):
    at = stable_operator(n, n).T.copy()
    eye = np.eye(n)
    for tau_norm in TAU_NORMS:
        tau = tau_norm / np.linalg.norm(at, 2)
        ref = coupled_propagator(at, tau) - eye
        # K - I relative to itself: at tau ||A|| = 1e-8 a residue sum would
        # leave ~eps / 1e-8 relative noise here.
        diff = (_dense_propagator(at, tau) - eye) - ref
        assert np.linalg.norm(diff) <= 1e-13 * np.linalg.norm(ref), tau_norm


@pytest.mark.parametrize("n", [5, 57])
def test_sparse_substep_matches_coupled_reference(n):
    a = stable_operator(n, n)
    a[np.abs(a) < 0.5] = 0.0
    op = StiffOperator(sp.csr_matrix(a))
    eye = np.eye(n)
    for tau_norm in TAU_NORMS:
        tau = tau_norm / np.linalg.norm(a, 2)
        ref = coupled_propagator(a.T.copy(), tau) - eye
        diff = (_propagate_sparse(op, tau, eye, 1) - eye) - ref
        assert np.linalg.norm(diff) <= 1e-13 * np.linalg.norm(ref), tau_norm


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_nonfinite_time_rejected(sparse, t):
    a = np.diag([-1.0, -2.0, -3.0])
    op = StiffOperator(sp.csr_matrix(a) if sparse else a)
    with pytest.raises(InvalidInput, match="finite"):
        exp_action(op, t, np.ones((3, 1)))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_operator_rejected(sparse, value):
    # Unchecked, a NaN entry makes every shifted solve fail, which the
    # adaptive driver mistakes for a step too large and halves h to collapse.
    a = np.diag([-1.0, -2.0, -3.0])
    a[0, 2] = value
    with pytest.raises(InvalidInput, match="non-finite"):
        StiffOperator(sp.csr_matrix(a) if sparse else a)


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_shift_raises_step_too_large(sparse):
    # Pick the diagonal entry d a few ulps around 1/(t lambda_r) for which
    # 1 - (t lambda_r) d is exactly zero, so the real shifted matrix of the
    # first (one-substep) propagation is exactly singular.
    t = 0.5
    c = t * _POLE_REAL
    d = 1.0 / c
    for _ in range(8):
        if 1.0 - c * d == 0.0:
            break
        d = np.nextafter(d, np.inf if c * d < 1.0 else -np.inf)
    assert 1.0 - c * d == 0.0
    a = np.diag([d, -1.0, -2.0])
    op = StiffOperator(sp.csr_matrix(a) if sparse else a)
    with pytest.raises(StepTooLarge, match=r"t=0\.5 .*tau=0\.5"):
        exp_action(op, t, np.ones((3, 2)))
