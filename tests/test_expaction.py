import dataclasses
import sys
import threading
import time

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
    _EXPM_CACHE,
    _LU_CACHE,
    BlockActions,
    _dense_expm,
    _relative_change,
)


def laplacian(n):
    return generate_problem("laplacian_lqr", n=n).a.matrix


def nonsymmetric_sparse(n, seed):
    """Stable nonsymmetric sparse operator: random sparse part, diagonal shift."""
    r = sp.random(n, n, density=0.02, random_state=seed) * 20.0
    drift = sp.diags(30.0 * np.ones(n - 1), 1)
    return (r + drift - 50.0 * sp.identity(n)).tocsr()


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


def test_tolerance_not_met_carries_best(rng):
    # A dimension cap far below N stops the Krylov iteration unconverged.
    op = StiffOperator(laplacian(200))
    v = rng.standard_normal((200, 1))
    with pytest.raises(ToleranceNotMet) as info:
        exp_action(op, 1e-4, v, ExpActionOptions(rel_tol=1e-14, max_dim=4))
    assert info.value.best is not None
    assert info.value.estimate > 0


def test_max_dim_validated():
    with pytest.raises(InvalidInput, match="max_dim"):
        ExpActionOptions(max_dim=0)


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


# The dense propagator is exp(t A^T), cached per operator and keyed by t.
def test_cached_propagator_matches_direct(rng):
    op = StiffOperator(rng.standard_normal((9, 9)))
    for t in (0.3, 0.3 / 7, 1e-3):
        e = op.expm(t)
        assert np.array_equal(e, _dense_expm(op._at, t))
        assert op.expm(t) is e
        assert not e.flags.writeable
    assert op.expm.cache_info().hits == 3


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
    assert op.expm.cache_info().currsize <= _EXPM_CACHE


def test_propagator_cache_bounded_after_fixed_run():
    problem = generate_problem("random_lowrank", n=12, seed=3, horizon=0.2)
    integrate_fixed(problem, SchemeSpec("sym", 3), 4)
    info = problem.a.expm.cache_info()
    assert info.maxsize == _EXPM_CACHE
    assert 0 < info.currsize <= _EXPM_CACHE
    assert info.hits > 0


def test_operators_keep_their_own_propagators(rng):
    a = rng.standard_normal((6, 6))
    op1, op2 = StiffOperator(a), StiffOperator(2.0 * a)
    e1, e2 = op1.expm(0.1), op2.expm(0.1)
    assert np.array_equal(e1, _dense_expm(op1._at, 0.1))
    assert np.array_equal(e2, _dense_expm(op2._at, 0.1))
    assert not np.array_equal(e1, e2)
    assert op1.expm.cache_info().currsize == 1
    assert op2.expm.cache_info().currsize == 1


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
    # A NaN column can never converge; the action must stop at once instead
    # of growing the Krylov space to its cap.
    problem = generate_problem("laplacian_lqr", n=100)
    a = problem.a.matrix
    op = StiffOperator(a if sparse else a.toarray())
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
    # t = 0.5 puts the shift on gamma = 2^floor(log2 t) / 2 = 0.25, so the
    # diagonal entry 4 makes I - gamma A^T exactly singular.
    a = sp.csr_matrix(np.diag([4.0, -1.0, -2.0]))
    with pytest.raises(StepTooLarge, match=r"t=0\.5 .*gamma=0\.25"):
        exp_action(StiffOperator(a), 0.5, np.ones((3, 2)))


@pytest.mark.parametrize("kind", ["laplacian", "nonsymmetric"])
def test_krylov_matches_dense_expm(rng, kind):
    n = 400
    a = laplacian(n) if kind == "laplacian" else nonsymmetric_sparse(n, 7)
    op, a_t = StiffOperator(a), a.toarray().T
    v = rng.standard_normal((n, 4))
    for t in (1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
        ref = expm(t * a_t) @ v
        out = exp_action(op, t, v)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref), t


def test_rank_deficient_block(rng):
    # Dependent columns deflate out of the first block; the action stays
    # linear in them.
    n = 100
    op = StiffOperator(laplacian(n))
    base = rng.standard_normal((n, 2))
    v = np.column_stack([base, base @ [1.0, -2.0], np.zeros(n)])
    out = exp_action(op, 1e-3, v)
    ref = expm(1e-3 * laplacian(n).toarray().T) @ v
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.allclose(out[:, 2], out[:, :2] @ [1.0, -2.0], rtol=0, atol=1e-12)
    assert not out[:, 3].any()


def test_invariant_subspace_is_exact():
    # Eigenvectors of the symmetric Laplacian span an invariant subspace:
    # the first new block deflates away and the iterate is returned exactly.
    n = 50
    a = laplacian(n)
    lam, vecs = np.linalg.eigh(a.toarray())
    v = vecs[:, [0, 3, 7]]
    out = exp_action(StiffOperator(a), 1e-3, v, ExpActionOptions(rel_tol=1e-14))
    ref = v * np.exp(1e-3 * lam[[0, 3, 7]])
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_block_wider_than_half_n(rng):
    n = 40
    a = nonsymmetric_sparse(n, 3)
    v = rng.standard_normal((n, 25))
    out = exp_action(StiffOperator(a), 0.02, v)
    ref = expm(0.02 * a.toarray().T) @ v
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_unreachable_tolerance_is_bounded(rng):
    # Successive iterates cannot agree to 5e-16; the dimension cap (here N,
    # which is exact) bounds the cost of the attempt.  The first call also
    # factors the shifted matrix; the best of three runs keeps a busy shared
    # CPU from being read as cost of the action.
    op = StiffOperator(laplacian(400))
    v = rng.standard_normal((400, 4))
    opts = ExpActionOptions(rel_tol=5e-16)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        try:
            exp_action(op, 0.01, v, opts)
        except ToleranceNotMet:
            pass
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0


def test_shift_lu_shared_within_an_octave(rng):
    op = StiffOperator(laplacian(60))
    v = rng.standard_normal((60, 2))
    for t in (0.016, 0.02, 0.031):  # all in [2^-6, 2^-5), on gamma = 2^-7
        exp_action(op, t, v)
    info = op.shift_lu.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 2, _LU_CACHE)


def test_lu_cache_under_thread_contention(rng):
    # More octaves than cache entries, so concurrent misses and evictions
    # interleave; every action must match its serial result byte for byte.
    op = StiffOperator(laplacian(80))
    v = rng.standard_normal((80, 3))
    ts = [0.05 / 2.0**k for k in range(2 * _LU_CACHE)]
    serial = {t: exp_action(StiffOperator(laplacian(80)), t, v).tobytes() for t in ts}
    wrong = []

    def worker(offset):
        for i in range(12):
            t = ts[(offset + 3 * i) % len(ts)]
            if exp_action(op, t, v).tobytes() != serial[t]:
                wrong.append(t)

    run_threads(worker, 4)
    assert wrong == []
    assert op.shift_lu.cache_info().currsize <= _LU_CACHE


def test_sparse_thread_pool_factors_byte_identical():
    finals = []
    for threads in (1, 2):
        problem = generate_problem("laplacian_lqr", n=100)
        traj = integrate_fixed(problem, SchemeSpec("sym", 3), 2, threads=threads)
        finals.append([(f.L.tobytes(), f.D.tobytes()) for f in traj.factors])
    assert finals[0] == finals[1]


# Cached source blocks: every result must carry the bits of a one-shot action.

def _spaces(blocks):
    return list(blocks._spaces.values())


def test_source_blocks_match_one_shot_across_octaves():
    problem = generate_problem("laplacian_lqr", n=200)
    # Three octaves of s, revisited out of order and with repeats.
    nodes = [0.01, 0.0125, 0.02, 0.0075, 0.01, 0.03, 0.0125, 0.005, 0.005, 0.0]
    for s in nodes:
        cached = problem.source_blocks(s)
        assert cached.tobytes() == exp_action(problem.a, s, problem.q.L).tobytes()
    assert len(_spaces(problem.source_blocks)) == 3


def test_source_blocks_grow_past_the_cached_dimension():
    problem = generate_problem("laplacian_lqr", n=200)
    # One octave (gamma = 2^-8); each tighter tolerance needs checkpoints
    # past those already built, a looser one replays the built ones only.
    runs = [(2.0**-7 * 1.9, 1e-4), (2.0**-7 * 1.9, 1e-8), (2.0**-7 * 1.9, 1e-12),
            (2.0**-7 * 1.2, 1e-6), (2.0**-7, 1e-12)]
    built = []
    for t, tol in runs:
        opts = ExpActionOptions(rel_tol=tol)
        cached = problem.source_blocks(t, opts)
        assert cached.tobytes() == exp_action(problem.a, t, problem.q.L, opts).tobytes()
        (space,) = _spaces(problem.source_blocks)
        built.append(len(space.checkpoints))
    assert built[0] < built[1] < built[2] == built[3] < built[4]


def test_source_blocks_on_an_exhausted_space():
    # N = 12 is below the dimension the tolerance asks for, so the space
    # exhausts and its last checkpoint is exact.
    problem = generate_problem("laplacian_lqr", n=12)
    for t in (0.003, 0.0035, 0.002, 0.0039, 0.003):
        opts = ExpActionOptions(rel_tol=1e-14)
        cached = problem.source_blocks(t, opts)
        assert cached.tobytes() == exp_action(problem.a, t, problem.q.L, opts).tobytes()
    (space,) = _spaces(problem.source_blocks)
    assert space.checkpoints[-1][1]


def test_source_blocks_tolerance_not_met_matches_one_shot():
    problem = generate_problem("laplacian_lqr", n=200)
    opts = ExpActionOptions(rel_tol=1e-15, max_dim=12)
    with pytest.raises(ToleranceNotMet) as direct:
        exp_action(problem.a, 0.05, problem.q.L, opts)
    for t in (0.05, 0.05, 0.04):
        with pytest.raises(ToleranceNotMet) as cached:
            problem.source_blocks(t, opts)
        if t == 0.05:
            assert cached.value.best.tobytes() == direct.value.best.tobytes()
            assert cached.value.estimate == direct.value.estimate
    # A larger cap is a different space; both stay cached.
    ok = problem.source_blocks(0.05)
    assert ok.tobytes() == exp_action(problem.a, 0.05, problem.q.L).tobytes()
    assert len(_spaces(problem.source_blocks)) == 2


def test_source_blocks_under_thread_contention():
    # More octaves than cache entries, so concurrent misses, evictions and
    # growth of one space interleave; every block must keep its bits.
    problem = generate_problem("laplacian_lqr", n=80)
    ts = [0.05 / 2.0**k * f for k in range(2 * _LU_CACHE) for f in (1.0, 1.7)]
    serial = {t: exp_action(problem.a, t, problem.q.L).tobytes() for t in ts}
    blocks = BlockActions(problem.a, problem.q.L)
    wrong = []
    sizes = []

    def worker(offset):
        for i in range(12):
            t = ts[(offset + 5 * i) % len(ts)]
            if blocks(t).tobytes() != serial[t]:
                wrong.append(t)
            sizes.append(len(blocks._spaces))

    run_threads(worker, 4)
    assert wrong == []
    assert max(sizes) <= _LU_CACHE
    assert problem.a.shift_lu.cache_info().currsize <= _LU_CACHE


def test_fresh_problem_starts_with_no_spaces():
    problem = generate_problem("laplacian_lqr", n=60)
    integrate_fixed(problem, SchemeSpec("sym", 2), 2)
    assert 0 < len(_spaces(problem.source_blocks)) <= _LU_CACHE
    assert _spaces(generate_problem("laplacian_lqr", n=60).source_blocks) == []
    copy = dataclasses.replace(problem, horizon=0.2)
    assert _spaces(copy.source_blocks) == []


def test_dense_source_blocks_keep_the_dense_path():
    problem = generate_problem("random_lowrank", n=8, seed=1)
    for t in (0.1, 0.3, 0.1):
        assert problem.source_blocks(t).tobytes() == (
            problem.a.expm(t) @ problem.q.L).tobytes()
    assert _spaces(problem.source_blocks) == []


# Dense node grids are stepped with one exponential; sparse ones are not.

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


def test_sparse_equidistant_is_per_node_source_blocks():
    stepped = generate_problem("laplacian_lqr", n=200).source_blocks
    per_node = generate_problem("laplacian_lqr", n=200).source_blocks
    for h, degree in ((0.0125, 4), (0.025, 3), (0.00625, 9)):
        got = stepped.equidistant(h, degree)
        want = [per_node(s) for s in np.linspace(0.0, h, degree + 1)]
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


def test_fixed_run_takes_two_exponentials_per_node_grid():
    # sym with 3 stages needs quadrature states at h, h/2 and h/3; each grid
    # costs expm(h_k/degree) and expm(h_k), which the propagation over h_k
    # shares, so the whole run takes 6 exponentials.
    problem = generate_problem("random_lowrank", n=40, rank=4, seed=0, horizon=0.05)
    integrate_fixed(problem, SchemeSpec("sym", 3), 2)
    assert problem.a.expm.cache_info().misses == 6
