import dataclasses
import os

# BLAS is pinned to one thread before numpy loads it (an existing setting
# wins), as in perfbench/run.py: on a 2-vCPU box threaded BLAS
# oversubscribes the dense N=50-100 work, and the suite runs about a third
# slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
import scipy.sparse as sp

from dresplit import (
    LDLTFactor,
    ProblemData,
    QuadraticTerm,
    StiffOperator,
    to_dense_problem,
)


def random_factor(rng, n, r, definite=False):
    """Random LDL^T factor; indefinite core unless definite is requested."""
    l_mat = rng.standard_normal((n, r))
    if definite:
        g = rng.standard_normal((r, r))
        core = g @ g.T
    else:
        g = rng.standard_normal((r, r))
        core = g + g.T
    return LDLTFactor(l_mat, core)


def _random_instance(rng, n):
    """Random desk-scale instance (problem, dense mirror, state factor, h)."""
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    r = int(rng.integers(1, min(n, 4) + 1))
    q_l = rng.standard_normal((n, r))
    s_l = rng.standard_normal((n, r))
    p_l = rng.standard_normal((n, r))
    problem = ProblemData(
        a=StiffOperator(a),
        q=LDLTFactor(q_l, np.eye(r)),
        s=QuadraticTerm.from_dense(s_l @ s_l.T),
        p0=LDLTFactor(p_l, np.eye(r)),
        horizon=1.0,
    )
    dense = to_dense_problem(problem)
    h = float(rng.uniform(0.02, 0.12))
    return problem, dense, problem.p0, h


def make_tanh_problem(horizon=1.0, p0=0.0):
    """Scalar p' = 1 - p^2 whose solution is tanh(t + atanh(p0))."""
    if p0 == 0.0:
        start = LDLTFactor.zero(1)
    else:
        start = LDLTFactor(np.array([[1.0]]), np.array([[p0]]))
    return ProblemData(
        a=StiffOperator(np.zeros((1, 1))),
        q=LDLTFactor(np.ones((1, 1)), np.ones((1, 1))),
        s=QuadraticTerm.from_dense(np.ones((1, 1))),
        p0=start,
        horizon=horizon,
    )


def make_random_problem(rng, n, rank, horizon=1.0, spectral_scale=None):
    """Dense random problem with PSD rank-`rank` data factors."""
    a = rng.standard_normal((n, n))
    if spectral_scale is not None:
        a = a * (spectral_scale / np.sqrt(n))
    r = min(rank, n)
    return ProblemData(
        a=StiffOperator(a),
        q=LDLTFactor(rng.standard_normal((n, r)), np.eye(r)),
        s=QuadraticTerm.from_dense(
            (lambda g: g @ g.T)(rng.standard_normal((n, r)))
        ),
        p0=LDLTFactor(rng.standard_normal((n, r)), np.eye(r)),
        horizon=horizon,
    )


def make_sparse_linear_problem(rng, horizon):
    """Sparse N=40 problem with Q = 0, S = 0 and a rank-one P0: the solution
    exp(tA^T) P0 exp(tA) stays rank one, and every step's estimate is
    round-off."""
    n = 40
    a = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) * 10.0
    return ProblemData(
        a=StiffOperator(a.tocsr()),
        q=LDLTFactor.zero(n),
        s=QuadraticTerm.from_dense(np.zeros((n, n))),
        p0=LDLTFactor(rng.standard_normal((n, 1)), np.eye(1)),
        horizon=horizon,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def stored_dense(problem):
    """problem with its operator stored as a dense matrix."""
    return dataclasses.replace(problem, a=StiffOperator(problem.a.as_dense()))
