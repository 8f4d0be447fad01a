import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg import expm

from dresplit import (
    CompressionOptions,
    ControllerParams,
    ExpActionOptions,
    InvalidInput,
    LDLTFactor,
    NonFiniteFactor,
    ProblemData,
    QuadraticTerm,
    SchemeSpec,
    StepTooLarge,
    StiffOperator,
    ToleranceNotMet,
    exp_action,
    generate_problem,
    integrate_adaptive,
    integrate_fixed,
    relative_error,
)
from dresplit import adaptive, expaction
from dresplit.adaptive import QuadraturePool, default_quad_degree
from dresplit.expaction import _BLOCK_CACHE, _EXPM_CACHE, BlockActions, KrylovSpace, _dense_expm
from dresplit.lowrank import to_dense

from conftest import stored_dense


def laplacian(n):
    return generate_problem("laplacian_lqr", n=n).a.matrix


def nonsymmetric_sparse(n, seed):
    """Stable nonsymmetric sparse operator: random sparse part, diagonal shift."""
    r = sp.random(n, n, density=0.02, random_state=seed) * 20.0
    drift = sp.diags(30.0 * np.ones(n - 1), 1)
    return (r + drift - 50.0 * sp.identity(n)).tocsr()


def galerkin_action(a, t, v, size):
    """U exp(t T^T) U^T v on the Krylov space U of v grown to ``size``
    columns (gamma = 1e-3), T = U^T A U: the projected problem's action,
    lifted; and the space."""
    space = KrylovSpace(StiffOperator(a), v, 1e-3)
    space.grow(size)
    u = space.basis
    return u @ (expm(t * (u.T @ (a @ u)).T) @ (u.T @ v)), space


def run_threads(worker, count):
    """Run worker(k) for k < count with a tiny switch interval, so cache
    misses and hits interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(count)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


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


def test_sparse_path_matches_dense_path():
    # At N = 20 the Galerkin space of the sparse operator is all of R^N,
    # so its solve is the dense one's up to round-off.
    sparse = generate_problem("laplacian_lqr", 20)
    got = integrate_fixed(sparse, SchemeSpec("sym", 2), 2).final
    want = integrate_fixed(stored_dense(sparse), SchemeSpec("sym", 2), 2).final
    assert relative_error(to_dense(got), to_dense(want)) <= 1e-12


def test_sparse_operator_has_no_exponential(rng):
    op = StiffOperator(laplacian(20))
    blocks = BlockActions(op, rng.standard_normal((20, 2)))
    for call in (lambda: exp_action(op, 0.1, blocks.v), lambda: blocks(0.1),
                 lambda: blocks.equidistant(0.1, 3), lambda: op.expm(0.1),
                 lambda: op.prime_expm(0.1, {0.1: 1})):
        with pytest.raises(InvalidInput, match="ProblemData.projected"):
            call()


@pytest.mark.parametrize("tol", [np.nan, 0.0])
def test_rel_tol_validated(tol):
    with pytest.raises(InvalidInput, match="rel_tol"):
        ExpActionOptions(rel_tol=tol)


def test_negative_time_rejected(rng):
    op = StiffOperator(np.eye(3))
    with pytest.raises(InvalidInput):
        exp_action(op, -0.1, np.ones((3, 1)))


def count_scipy_expm(monkeypatch):
    """The list to which each scipy expm call of expaction appends."""
    calls = []
    monkeypatch.setattr(expaction, "expm", lambda m: calls.append(1) or expm(m))
    return calls


# The dense propagator is exp(t A^T), cached per operator and keyed by t.
def test_cached_propagator_matches_direct(rng, monkeypatch):
    op = StiffOperator(rng.standard_normal((9, 9)))
    ts = (0.3, 0.3 / 7, 1e-3)
    direct = {t: _dense_expm(op._at, t) for t in ts}
    calls = count_scipy_expm(monkeypatch)
    for t in ts:
        e = op.expm(t)
        assert np.array_equal(e, direct[t])
        assert op.expm(t) is e
        assert not e.flags.writeable
    # One scipy expm per t: each second lookup hits.
    assert len(calls) == 3


def test_propagator_cache_under_thread_contention(rng):
    # More threads than cores and more times than cache entries, so
    # concurrent misses and evictions interleave; every lookup must still
    # return the directly formed exponential of its own t.
    op = StiffOperator(rng.standard_normal((6, 6)))
    ts = [0.1 / k for k in range(1, 2 * _EXPM_CACHE + 1)]
    direct = {t: _dense_expm(op._at, t) for t in ts}
    wrong = []

    def worker(offset):
        for i in range(200):
            t = ts[(offset + 3 * i) % len(ts)]
            if not np.array_equal(op.expm(t), direct[t]):
                wrong.append(t)

    run_threads(worker, 6)
    assert wrong == []
    assert len(op._cache) <= _EXPM_CACHE


def test_concurrent_misses_build_each_entry_once(rng, monkeypatch):
    # Threads that miss on the same key at once wait for the one build.
    op, calls = StiffOperator(rng.standard_normal((60, 60))), count_scipy_expm(monkeypatch)
    lookup, keys = op.expm, [0.1 / k for k in range(1, 1 + _EXPM_CACHE)]
    got = {key: [] for key in keys}

    def worker(k):
        for key in keys:
            got[key].append(lookup(key))

    run_threads(worker, 6)
    assert len(calls) == len(keys)
    assert all(len(values) == 6 and all(v is values[0] for v in values)
               for values in got.values())


def test_propagator_cache_bounded_after_fixed_run():
    problem = generate_problem("random_lowrank", n=12, seed=3, horizon=0.2)
    op = problem.a
    lookup = op.expm
    returned = []
    op.expm = lambda t: returned.append((t, lookup(t))) or returned[-1][1]
    integrate_fixed(problem, SchemeSpec("sym", 3), 4)
    assert 0 < len(op._cache) <= _EXPM_CACHE
    # Hits: a repeated t gets the array its first lookup got.
    first = {}
    assert all(first.setdefault(t, e) is e for t, e in returned)
    assert len(returned) > len(first)


def test_operators_keep_their_own_propagators(rng):
    a = rng.standard_normal((6, 6))
    op1, op2 = StiffOperator(a), StiffOperator(2.0 * a)
    e1, e2 = op1.expm(0.1), op2.expm(0.1)
    assert np.array_equal(e1, _dense_expm(op1._at, 0.1))
    assert np.array_equal(e2, _dense_expm(op2._at, 0.1))
    assert not np.array_equal(e1, e2)
    assert len(op1._cache) == 1
    assert len(op2._cache) == 1


def test_large_finite_block_scale_invariant(rng):
    # Entries near 1e160 overflow an unscaled Frobenius norm of the block;
    # scaling by a power of two must not change the refinement decisions.
    op = StiffOperator(5.0 * rng.standard_normal((6, 6)))
    v = rng.standard_normal((6, 2))
    big = exp_action(op, 1.0, 2.0**530 * v)
    assert np.array_equal(big / 2.0**530, exp_action(op, 1.0, v))


def test_nonfinite_block_raises_promptly(rng):
    # A NaN column is refused before the exponential is formed.
    op = StiffOperator(laplacian(100).toarray())
    v = rng.standard_normal((100, 3))
    v[:, 1] = np.nan
    start = time.perf_counter()
    with pytest.raises(NonFiniteFactor, match="t=0.01"):
        exp_action(op, 0.01, v)
    assert time.perf_counter() - start < 1.0


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


def test_singular_shift_raises_step_too_large_sparse():
    # horizon 25 puts the Galerkin space's shift on gamma = horizon / 100 =
    # 0.25, so the diagonal entry 4 makes I - gamma A^T exactly singular.
    problem = ProblemData(a=StiffOperator(sp.csr_matrix(np.diag([4.0, -1.0, -2.0]))),
                          q=LDLTFactor(np.ones((3, 1)), np.eye(1)),
                          s=QuadraticTerm.from_dense(np.eye(3)), p0=LDLTFactor.zero(3),
                          horizon=25.0)
    with pytest.raises(StepTooLarge, match=r"gamma=0\.25"):
        integrate_fixed(problem, SchemeSpec("sym", 2), 2)


# The Galerkin space of a sparse operator: exp(t A^T) V is approximated by
# the lifted action of the projected operator, U exp(t T^T) U^T V.

@pytest.mark.parametrize("kind", ["laplacian", "nonsymmetric"])
def test_krylov_matches_dense_expm(rng, kind):
    n = 400
    a = laplacian(n) if kind == "laplacian" else nonsymmetric_sparse(n, 7)
    v = rng.standard_normal((n, 4))
    for t in (1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
        ref = expm(t * a.toarray().T) @ v
        out, space = galerkin_action(a, t, v, 240)
        assert space.basis.shape[1] == 240 and not space.exact
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref), t


def test_rank_deficient_block(rng):
    # Dependent columns deflate out of the first block; the action stays
    # linear in them.
    n = 100
    base = rng.standard_normal((n, 2))
    v = np.column_stack([base, base @ [1.0, -2.0], np.zeros(n)])
    out, space = galerkin_action(laplacian(n), 1e-3, v, 60)
    assert KrylovSpace(StiffOperator(laplacian(n)), v, 1e-3).basis.shape[1] == 2
    ref = expm(1e-3 * laplacian(n).toarray().T) @ v
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.allclose(out[:, 2], out[:, :2] @ [1.0, -2.0], rtol=0, atol=1e-12)
    assert not out[:, 3].any()


def test_invariant_subspace_is_exact():
    # Eigenvectors of the symmetric Laplacian span an invariant subspace:
    # the first new block deflates away and the space is exact.
    n = 50
    a = laplacian(n)
    lam, vecs = np.linalg.eigh(a.toarray())
    v = vecs[:, [0, 3, 7]]
    out, space = galerkin_action(a, 1e-3, v, 48)
    assert space.exact and space.basis.shape[1] == 3
    ref = v * np.exp(1e-3 * lam[[0, 3, 7]])
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_block_wider_than_half_n(rng):
    # The space fills R^N, where it is exact.
    n = 40
    a = nonsymmetric_sparse(n, 3)
    v = rng.standard_normal((n, 25))
    out, space = galerkin_action(a, 0.02, v, 48)
    assert space.exact and space.basis.shape[1] == n
    ref = expm(0.02 * a.toarray().T) @ v
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_unreachable_tolerance_is_bounded(monkeypatch):
    # Successive answers cannot agree to 5e-16; the dimension cap (here N,
    # where the space is exact) bounds the cost of the attempt, and the
    # exact space's answer is returned.
    problem = generate_problem("laplacian_lqr", 100)
    dims = []
    real = ProblemData.projected
    monkeypatch.setattr(ProblemData, "projected",
                        lambda self, u: dims.append(u.shape[1]) or real(self, u))
    got = integrate_fixed(problem, SchemeSpec("sym", 2), 2,
                          ExpActionOptions(rel_tol=5e-16)).final
    monkeypatch.undo()
    assert dims == [48, 72, 100]
    want = integrate_fixed(stored_dense(problem), SchemeSpec("sym", 2), 2).final
    assert relative_error(to_dense(got), to_dense(want)) <= 1e-12


def _solve_sizes(monkeypatch):
    """(dimension, lifted final factor) of each Galerkin solve, and the
    list to which each sparse LU factorization appends."""
    solves, lus = [], []
    real_solve, real_lu = adaptive._integrate_fixed, scipy.sparse.linalg.splu

    def solve(problem, *args):
        traj = real_solve(problem, *args)
        solves.append((problem.n, traj.final))
        return traj

    monkeypatch.setattr(adaptive, "_integrate_fixed", solve)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda m: lus.append(1) or real_lu(m))
    return solves, lus


def test_space_stops_on_agreement(monkeypatch):
    # laplacian_lqr N=400, sym2, 2 fixed steps: spaces of 48, 72 and 108
    # columns, one sparse LU for all three; the answers at 72 and 108
    # agree to the default 1e-10, those at 48 and 72 do not.
    solves, lus = _solve_sizes(monkeypatch)
    problem = generate_problem("laplacian_lqr", 400)
    final = integrate_fixed(problem, SchemeSpec("sym", 2), 2).final
    monkeypatch.undo()
    assert [m for m, _ in solves] == [48, 72, 108] and lus == [1]
    lifted = []
    for m, f in solves:
        space = KrylovSpace(problem.a, problem.q.L, 1e-3)
        space.grow(m)
        lifted.append(LDLTFactor(space.basis @ f.L, f.D))
    assert to_dense(final).tobytes() == to_dense(lifted[-1]).tobytes()
    assert relative_error(to_dense(lifted[0]), to_dense(lifted[1])) > 1e-10
    assert relative_error(to_dense(lifted[1]), to_dense(lifted[2])) <= 1e-10


def test_space_is_exact_when_exhausted(monkeypatch):
    # L_Q spans four eigenvectors of the Laplacian, an invariant space: the
    # space exhausts at dimension 4, and its one solve is the dense one.
    # At N = 20 sym2's rule would stack 24 >= N columns, so both take the
    # exact source integral.
    n = 20
    a = laplacian(n)
    vecs = np.linalg.eigh(a.toarray())[1][:, [0, 3, 7, 12]]
    problem = ProblemData(a=StiffOperator(a), q=LDLTFactor(vecs, np.eye(4)),
                          s=QuadraticTerm.from_dense(np.eye(n)), p0=LDLTFactor.zero(n),
                          horizon=0.1)
    solves, _ = _solve_sizes(monkeypatch)
    got = integrate_fixed(problem, SchemeSpec("sym", 2), 2).final
    monkeypatch.undo()
    assert [m for m, _ in solves] == [4]
    want = integrate_fixed(stored_dense(problem), SchemeSpec("sym", 2), 2).final
    assert relative_error(to_dense(got), to_dense(want)) <= 1e-12


def test_space_grows_by_whole_blocks_keeping_its_basis(rng):
    op = StiffOperator(laplacian(200))
    v = rng.standard_normal((200, 3))
    space = KrylovSpace(op, v, 1e-3)
    assert space.basis.shape[1] == 3
    assert not space.grow(10)
    first = space.basis.copy()
    assert first.shape[1] == 12
    space.grow(40)
    u = space.basis
    assert u.shape[1] == 42 and np.array_equal(u[:, :12], first)
    assert np.linalg.norm(u.T @ u - np.eye(42)) <= 1e-13
    assert np.linalg.norm(u @ (u.T @ v) - v) <= 1e-13 * np.linalg.norm(v)
    at_once = KrylovSpace(op, v, 1e-3)
    at_once.grow(40)
    assert at_once.basis.tobytes() == u.tobytes()


def test_space_cap_raises_tolerance_not_met(monkeypatch):
    # A cap of 60 below N = 400: the answers at 48 and 60 columns do not
    # agree to 1e-10, and no larger space is allowed.
    monkeypatch.setattr(expaction, "_MAX_DIM", 60)
    problem = generate_problem("laplacian_lqr", 400)
    with pytest.raises(ToleranceNotMet, match="dimension 60 of N=400"):
        integrate_fixed(problem, SchemeSpec("sym", 2), 2)
    with pytest.raises(ToleranceNotMet, match="dimension 60 of N=400"):
        integrate_adaptive(problem, SchemeSpec("sym", 2), 0.01, ControllerParams(tol=1e-4))


def test_source_blocks_under_thread_contention():
    # More times than cache entries, so concurrent misses and evictions
    # interleave; every block must keep its bits.
    problem = stored_dense(generate_problem("laplacian_lqr", n=80))
    ts = [0.05 / 2.0**k * f for k in range(2 * _EXPM_CACHE) for f in (1.0, 1.7)]
    serial = {t: exp_action(problem.a, t, problem.q.L).tobytes() for t in ts}
    blocks = BlockActions(problem.a, problem.q.L)
    wrong = []

    def worker(offset):
        for i in range(12):
            t = ts[(offset + 5 * i) % len(ts)]
            # exp_action with the cache, past the kept blocks of blocks(t).
            got = exp_action(problem.a, t, problem.q.L, ExpActionOptions(), blocks)
            if got.tobytes() != serial[t]:
                wrong.append(t)

    run_threads(worker, 4)
    assert wrong == []
    assert len(problem.a._cache) <= _EXPM_CACHE


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_exp_action_refuses_the_blocks_of_another_block(kind):
    # A cache's spaces belong to its own operator and block; an equal copy
    # of the block is refused too, since the cache keys only on t.
    problem = generate_problem("laplacian_lqr" if kind == "sparse" else "random_lowrank",
                               n=20, seed=1)
    blocks = problem.source_blocks
    other = generate_problem("laplacian_lqr" if kind == "sparse" else "random_lowrank",
                             n=20, seed=1)
    for op, v in ((problem.a, problem.q.L.copy()), (problem.a, problem.p0.L),
                  (other.a, problem.q.L)):
        with pytest.raises(InvalidInput, match="another operator or block"):
            exp_action(op, 0.01, v, ExpActionOptions(), blocks)
    if kind == "sparse":
        with pytest.raises(InvalidInput, match="ProblemData.projected"):
            exp_action(problem.a, 0.01, problem.q.L, ExpActionOptions(), blocks)
    else:
        assert exp_action(problem.a, 0.01, problem.q.L, ExpActionOptions(), blocks).tobytes() \
            == exp_action(problem.a, 0.01, problem.q.L).tobytes()


def test_dense_source_blocks_keep_the_dense_path():
    problem = generate_problem("random_lowrank", n=8, seed=1)
    for t in (0.1, 0.3, 0.1):
        assert problem.source_blocks(t).tobytes() == (
            problem.a.expm(t) @ problem.q.L).tobytes()


def test_dense_blocks_are_kept_read_only_with_the_bits_of_expm(rng):
    op = StiffOperator(rng.standard_normal((8, 8)))
    v = rng.standard_normal((8, 3))
    blocks = BlockActions(op, v)
    first = blocks(0.1)
    assert blocks(0.1) is first and not first.flags.writeable
    assert first.tobytes() == (op.expm(0.1) @ v).tobytes()
    assert blocks(0.2).tobytes() == (op.expm(0.2) @ v).tobytes()
    assert len(blocks._blocks) == 2


# Node grids are stepped with one exponential.

def _stepped_operator(kind, n, rng):
    """A dense operator with ||h A||_1 = 4 at h = 1 (the scale of the dense
    benchmark problem's steps), or a strongly non-normal one."""
    if kind == "random":
        a = rng.standard_normal((n, n))
        return a * (4.0 / np.linalg.norm(a, 1))
    return -np.eye(n) + 8.0 * np.diag(np.ones(n - 1), 1)


@pytest.mark.parametrize("kind", ["random", "nonnormal"])
@pytest.mark.parametrize("degree", range(1, 10))
def test_equidistant_matches_per_node_actions(rng, kind, degree):
    op = StiffOperator(_stepped_operator(kind, 40, rng))
    v = rng.standard_normal((40, 4))
    h = 1.0
    blocks = BlockActions(op, v).equidistant(h, degree)
    nodes = np.linspace(0.0, h, degree + 1)
    assert len(blocks) == degree + 1
    scale = np.linalg.norm(v) * max(np.linalg.norm(expm(s * op.matrix.T), 2) for s in nodes)
    for s, block in zip(nodes, blocks):
        assert np.linalg.norm(block - exp_action(op, s, v)) <= 1e-12 * scale
    # The end points keep their bits: V itself and the cached expm(h A^T) V.
    assert blocks[0].tobytes() == v.tobytes() and blocks[0] is not v
    assert blocks[-1].tobytes() == (op.expm(h) @ v).tobytes()


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_equidistant_takes_two_exponentials(rng, degree):
    op = StiffOperator(rng.standard_normal((10, 10)))
    asked = []
    cached = op.expm
    op.expm = lambda t: asked.append(t) or cached(t)
    BlockActions(op, rng.standard_normal((10, 3))).equidistant(0.3, degree)
    # Degree 1 (nodes 0 and h) has no inner node, so nothing is stepped.
    assert asked == ([0.3] if degree == 1 else [0.3 / degree, 0.3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("degree, t", [(1, "2"), (3, "1.33333"), (8, "1")])
def test_equidistant_overflow_raises_nonfinite(degree, t):
    # exp(800 s) overflows from s = 0.89 on; the first such node names it.
    blocks = BlockActions(StiffOperator(800.0 * np.eye(5)), np.ones((5, 2)))
    with pytest.raises(NonFiniteFactor, match=f"t={t} "):
        blocks.equidistant(2.0, degree)


def test_equidistant_rejects_bad_degree():
    blocks = BlockActions(StiffOperator(np.eye(3)), np.ones((3, 1)))
    with pytest.raises(InvalidInput, match="degree"):
        blocks.equidistant(1.0, 0)


def test_fixed_run_takes_two_exponentials_per_node_grid():
    # sym with 3 stages needs quadrature states at h, h/2 and h/3; each grid
    # needs expm(h_k/degree) and expm(h_k), which the propagation over h_k
    # shares, so the whole run fills 6 cache entries (all primed from one
    # scipy expm, see test_fixed_dense_run_takes_one_scipy_expm).
    problem = generate_problem("random_lowrank", n=40, rank=4, seed=0, horizon=0.05)
    integrate_fixed(problem, SchemeSpec("sym", 3), 2)
    # Below the cap nothing was evicted, so 6 entries mean 6 keys filled.
    assert len(problem.a._cache) == 6 < _EXPM_CACHE


# A fresh set of quadrature rules on a dense operator takes one scipy expm:
# every exponential its substeps and grid steps need is a power of it.

def _dense_operator(kind, n, rng):
    if kind == "laplacian":
        return laplacian(n).toarray()
    return _stepped_operator(kind, n, rng)


def _symmetric_expm(a, t):
    lam, vec = np.linalg.eigh(a)
    return (vec * np.exp(t * lam)) @ vec.T


# N = 41 keeps every rule below N columns (sym4: (9 + 1) 4 = 40), so the
# pool primes the rules' exponentials rather than taking the exact
# integral.  laplacian_lqr at N=41 has ||A||_1 = 7056, so h = 0.6 reaches
# ||h A||_1 = 4.2e3.  There scipy's expm itself is off by 1.4e-13 from the
# eigendecomposition of the symmetric A (the primed powers by 2.5e-13; at
# N=40, 9e-13 and 5e-13), so that case is checked against the
# eigendecomposition.
@pytest.mark.parametrize("kind, h", [("random", 1.0), ("nonnormal", 1.0),
                                     ("laplacian", 0.05), ("laplacian", 0.6)])
@pytest.mark.parametrize("spec", [SchemeSpec("strang"), SchemeSpec("sym", 2),
                                  SchemeSpec("sym", 3), SchemeSpec("sym", 4),
                                  SchemeSpec("asym", 3)])
def test_primed_powers_match_direct_exponentials(rng, monkeypatch, kind, h, spec):
    base = generate_problem("random_lowrank", n=41, rank=4, seed=0)
    problem = dataclasses.replace(base, a=StiffOperator(_dense_operator(kind, 41, rng)))
    op = problem.a
    primed = []
    prime = op.prime_expm
    op.prime_expm = lambda u, powers: primed.append(dict(powers)) or prime(u, powers)
    calls = count_scipy_expm(monkeypatch)
    degree = default_quad_degree(spec)
    QuadraturePool(problem, degree, ExpActionOptions(), CompressionOptions()).prepare(
        h, spec.substep_divisors())
    monkeypatch.undo()
    assert len(calls) == 1 and len(primed) == 1
    keys = primed[0]
    divisors = spec.substep_divisors()
    assert set(keys) == {h / k for k in divisors} | {(h / k) / degree for k in divisors}
    if kind == "laplacian" and h > 0.5:
        direct = {t: _symmetric_expm(op.matrix, t) for t in keys}
    else:
        direct = {t: _dense_expm(op._at, t) for t in keys}
    calls = count_scipy_expm(monkeypatch)
    for t in keys:
        assert np.linalg.norm(op.expm(t) - direct[t]) <= 1e-12 * np.linalg.norm(direct[t])
        assert not op.expm(t).flags.writeable
    # Every key was filled by the priming, so the lookups above all hit.
    assert calls == []


def test_priming_fills_only_missing_keys(rng, monkeypatch):
    op = StiffOperator(rng.standard_normal((10, 10)))
    cached = op.expm(0.3)
    calls = count_scipy_expm(monkeypatch)
    op.prime_expm(0.1, {0.3: 3})
    assert calls == [] and op.expm(0.3) is cached
    op.prime_expm(0.1, {0.3: 3, 0.2: 2, 0.4: 4})
    assert len(calls) == 1 and op.expm(0.3) is cached
    assert len(op._cache) == 3


def test_priming_skips_key_sets_beyond_the_cache(rng):
    op = StiffOperator(rng.standard_normal((6, 6)))
    op.prime_expm(0.01, {0.01 * m: m for m in range(1, _EXPM_CACHE + 2)})
    assert len(op._cache) == 0


def test_priming_under_thread_contention(rng):
    # Threads prime overlapping key sets and look keys up while others prime;
    # every lookup must return its own t's exponential.
    op = StiffOperator(_stepped_operator("random", 12, rng) * 0.1)
    u = 0.01
    sets = [{u * m: m for m in range(1 + k, 1 + k + _EXPM_CACHE // 2)} for k in range(6)]
    direct = {t: _dense_expm(op._at, t) for keys in sets for t in keys}
    wrong = []

    def worker(k):
        for i in range(30):
            op.prime_expm(u, sets[(k + i) % len(sets)])
            for t in sets[(k + 2 * i + 1) % len(sets)]:
                if not np.linalg.norm(op.expm(t) - direct[t]) <= 1e-13 * np.linalg.norm(direct[t]):
                    wrong.append(t)

    run_threads(worker, 6)
    assert wrong == []
    assert len(op._cache) <= _EXPM_CACHE


def test_source_integral_under_thread_contention(rng):
    # Threads prime overlapping key sets of one problem's source integral and
    # look keys up while others prime; every lookup must return its own t's
    # integral, and the operator's cache its own t's exponential.
    a = _stepped_operator("random", 12, rng) * 0.1
    q_l = rng.standard_normal((12, 2))

    def make():
        return ProblemData(a=StiffOperator(a), q=LDLTFactor(q_l, np.eye(2)),
                           s=QuadraticTerm.from_dense(np.eye(12)), p0=LDLTFactor.zero(12),
                           horizon=1.0)

    problem = make()
    u = 0.01
    sets = [{u * m: m for m in range(1 + k, 1 + k + _EXPM_CACHE // 2)} for k in range(6)]
    keys = {t for keys in sets for t in keys}
    direct = {t: make().source_integral(t) for t in keys}
    direct_e = {t: _dense_expm(problem.a._at, t) for t in keys}
    wrong = []

    def worker(k):
        for i in range(30):
            problem.source_integral.prime(u, sets[(k + i) % len(sets)])
            for t in sets[(k + 2 * i + 1) % len(sets)]:
                x, e = problem.source_integral(t), problem.a.expm(t)
                if not (np.linalg.norm(x - direct[t]) <= 1e-13 * np.linalg.norm(direct[t])
                        and np.linalg.norm(e - direct_e[t]) <= 1e-13 * np.linalg.norm(e)):
                    wrong.append(t)

    run_threads(worker, 6)
    assert wrong == []
    assert len(problem.source_integral._cache) <= _EXPM_CACHE
    assert len(problem.a._cache) <= _EXPM_CACHE


def test_fixed_dense_run_takes_one_scipy_expm(monkeypatch):
    calls = count_scipy_expm(monkeypatch)
    problem = generate_problem("random_lowrank", n=40, rank=4, seed=0, horizon=0.05)
    integrate_fixed(problem, SchemeSpec("sym", 3), 2)
    assert len(calls) == 1


def _callers():
    """Qualified names of the functions on the calling thread's stack."""
    frame, names = sys._getframe(1), set()
    while frame is not None:
        names.add(frame.f_code.co_qualname)
        frame = frame.f_back
    return names


def test_adaptive_dense_run_takes_one_scipy_expm_per_step_size(monkeypatch):
    # Every tried step size builds fresh rules (32 < 40 columns), and
    # primes their grid-step and substep exponentials from one scipy expm
    # before the step's work and chains read them; nothing else takes one.
    # adaptive_n10 of the benchmark made 586 calls over 193 tried step
    # sizes before priming.
    # The step's basis is propagated through BlockActions.__call__ from
    # additive_step or its chains, which must be reached for the check to
    # mean anything.
    step_work = ("BlockActions.__call__", "additive_step", "lie_chain")
    calls, sizes, propagations = [], [], []
    monkeypatch.setattr(expaction, "expm", lambda m: calls.append(_callers()) or expm(m))
    prepare = QuadraturePool.prepare
    monkeypatch.setattr(QuadraturePool, "prepare",
                        lambda pool, h, ks: sizes.append(h) or prepare(pool, h, ks))
    real_call = BlockActions.__call__
    monkeypatch.setattr(BlockActions, "__call__",
                        lambda self, *a: propagations.append(_callers())
                        or real_call(self, *a))
    problem = generate_problem("random_lowrank", n=40, rank=4, seed=2, horizon=0.05)
    traj = integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                              ControllerParams(tol=1e-5, epus=True))
    assert sum(r.rejections for r in traj.records) > 0 and len(set(sizes)) > 10
    assert len(calls) == len(sizes) == len(set(sizes))
    assert propagations
    assert all(any(n.startswith("additive_step") for n in names) for names in propagations)
    assert not any(n.startswith(step_work) for names in calls for n in names)



def test_adaptive_full_width_run_takes_one_van_loan_expm_per_step_size(monkeypatch):
    # At N = 30 the sym3 rule would stack 32 >= N columns, so each tried
    # step size takes the exact integral instead: one scipy expm of the
    # 2N x 2N Van Loan block, which gives every substep's propagator and
    # integral.  Nothing else takes one.
    calls, sizes = [], []
    monkeypatch.setattr(expaction, "expm",
                        lambda m: calls.append((m.shape, _callers())) or expm(m))
    prepare = QuadraturePool.prepare
    monkeypatch.setattr(QuadraturePool, "prepare",
                        lambda pool, h, ks: sizes.append(h) or prepare(pool, h, ks))
    problem = generate_problem("random_lowrank", n=30, rank=4, seed=2, horizon=0.05)
    traj = integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                              ControllerParams(tol=1e-5, epus=True))
    assert sum(r.rejections for r in traj.records) > 0 and len(set(sizes)) > 10
    assert len(calls) == len(sizes) == len(set(sizes))
    assert all(shape == (60, 60) and "SourceIntegral.prime" in names
               for shape, names in calls)


def test_block_is_checked_once_when_its_actions_are_made(rng, monkeypatch):
    op = StiffOperator(rng.standard_normal((6, 6)))
    v = rng.standard_normal((6, 2))
    checks = []
    real = expaction._checked_block
    monkeypatch.setattr(expaction, "_checked_block",
                        lambda op, v: checks.append(1) or real(op, v))
    blocks = BlockActions(op, v)
    got = [blocks(t) for t in (0.1, 0.2, 0.3)]
    assert len(checks) == 1
    for t, block in zip((0.1, 0.2, 0.3), got):
        assert block.tobytes() == (op.expm(t) @ v).tobytes()


def test_nonfinite_block_of_block_actions_raises_at_its_first_nontrivial_action():
    # As exp_action would: a trivial action (t = 0) returns the block, any
    # other raises naming t, for one call and for a node grid alike.
    op = StiffOperator(laplacian(5).toarray())
    v = np.ones((5, 2))
    v[1, 1] = np.nan
    blocks = BlockActions(op, v)
    assert np.isnan(blocks(0.0)[1, 1])
    with pytest.raises(NonFiniteFactor, match=r"t=0\.1 produced a non-finite input block"):
        blocks(0.1)
    with pytest.raises(NonFiniteFactor, match=r"t=0\.2 produced a non-finite input block"):
        exp_action(op, 0.2, v)
    with pytest.raises(NonFiniteFactor, match=r"t=2 produced a non-finite input block"):
        blocks.equidistant(2.0, 3)
    with pytest.raises(InvalidInput, match="4 rows"):
        BlockActions(op, np.ones((4, 1)))


def test_kept_blocks_are_read_only_and_keep_their_bits():
    problem = stored_dense(generate_problem("laplacian_lqr", n=60))
    blocks = problem.source_blocks
    loose = ExpActionOptions(rel_tol=1e-6)
    first = blocks(0.01)
    assert blocks(0.01) is first and not first.flags.writeable
    assert first.tobytes() == exp_action(problem.a, 0.01, problem.q.L).tobytes()
    other = blocks(0.01, loose)
    assert other is not first
    assert other.tobytes() == exp_action(problem.a, 0.01, problem.q.L, loose).tobytes()
    assert len(blocks._blocks) == 2


def test_kept_blocks_under_thread_contention():
    problem = stored_dense(generate_problem("laplacian_lqr", n=80))
    ts = [0.05 / 2.0**k * f for k in range(8) for f in (1.0, 1.3, 1.7)]
    serial = {t: exp_action(problem.a, t, problem.q.L).tobytes() for t in ts}
    blocks = BlockActions(problem.a, problem.q.L)
    wrong = []
    sizes = []

    def worker(offset):
        for i in range(24):
            t = ts[(offset + 7 * i) % len(ts)]
            if blocks(t).tobytes() != serial[t]:
                wrong.append(t)
            sizes.append(len(blocks._blocks))

    run_threads(worker, 4)
    assert wrong == []
    assert max(sizes) <= _BLOCK_CACHE
