import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dresplit import adaptive, expaction, lowrank, schemes, subflows
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
    StepSizeCollapse,
    StepTooLarge,
    StiffOperator,
    generate_problem,
    integrate_adaptive,
    integrate_fixed,
    pi_update,
    reject_resize,
    relative_error,
    to_dense,
)
from dresplit.oracle import dense_reference
from dresplit.problems import to_dense_problem

from conftest import (
    make_sparse_linear_problem,
    make_tanh_problem,
    random_factor,
    stored_dense,
)

EXP = ExpActionOptions(rel_tol=1e-12)
COMP = CompressionOptions(rel_tol=1e-14)


class TestController:
    def test_unchanged_at_target(self):
        params = ControllerParams(tol=1e-3)
        e = 0.9 * 1e-3
        assert pi_update(e, e, 0.1, params, 2) == pytest.approx(0.1)

    def test_known_shrink_factor(self):
        p = 3
        params = ControllerParams(tol=1e-4)
        e = 2.0**p * 0.9 * params.tol
        out = pi_update(e, e, 1.0, params, p)
        assert out == pytest.approx(2.0**-0.2, rel=1e-12)

    def test_zero_estimate_capped_growth(self, monkeypatch):
        params = ControllerParams(tol=1e-3)
        out = pi_update(0.0, 0.0, 0.5, params, 2)
        assert 0.5 < out <= 0.5 * adaptive.GROWTH_CAP
        # A deep floor would hit the cap without it.
        monkeypatch.setattr(adaptive, "EST_FLOOR_FACTOR", 1e-12)
        assert pi_update(0.0, 0.0, 0.5, params, 2) == pytest.approx(0.5 * adaptive.GROWTH_CAP)

    def test_scale_invariance(self):
        params_a = ControllerParams(tol=1e-3)
        params_b = ControllerParams(tol=1e-6)
        scale = 1e-3
        h_a = pi_update(4e-4, 7e-4, 0.2, params_a, 2)
        h_b = pi_update(4e-4 * scale, 7e-4 * scale, 0.2, params_b, 2)
        assert h_a == pytest.approx(h_b, rel=1e-12)

    def test_reject_resize_known_values(self):
        params = ControllerParams(tol=1.0)
        assert reject_resize(4.0 * 0.9, 1.0, params, 2) == pytest.approx(0.5)
        assert reject_resize(10.0 * 0.9, 1.0, params, 1) == pytest.approx(0.1)

    def test_reject_resize_strictly_shrinks(self):
        params = ControllerParams(tol=1.0)
        e = 0.9 + 1e-9
        assert reject_resize(e, 1.0, params, 3) < 1.0

    def test_invalid_params(self):
        with pytest.raises(InvalidInput):
            ControllerParams(tol=-1.0)
        with pytest.raises(InvalidInput, match="tol"):
            ControllerParams(tol=np.nan)


class TestFixedDriver:
    def test_tanh_fourth_order_refinement(self):
        problem = make_tanh_problem()
        exact = np.tanh(1.0)
        spec = SchemeSpec("sym", 2)
        errs = {}
        for n in (16, 32):
            traj = integrate_fixed(problem, spec, n, EXP, COMP)
            errs[n] = abs(to_dense(traj.final)[0, 0] - exact)
        ratio = errs[16] / errs[32]
        assert 8.0 <= ratio <= 32.0

    def test_core_floor_log_is_eigenvalue(self):
        # Each step record logs its core's smallest eigenvalue.  A Strang
        # step ends in the quadratic flow, whose core is not diagonal: here
        # its smallest diagonal entry exceeds its smallest eigenvalue by 6-9%.
        problem = generate_problem("random_lowrank", 8, 3, seed=2, horizon=1.0)
        traj = integrate_fixed(problem, SchemeSpec("strang"), 2, EXP, COMP)
        logged = [r.min_core_eig for r in traj.records]
        expected = [np.linalg.eigvalsh(f.D)[0] for f in traj.factors[1:]]
        assert logged == pytest.approx(expected, rel=1e-12)
        assert all(np.diagonal(f.D).min() > 1.05 * e for f, e in zip(traj.factors[1:], expected))

    def test_core_floor_of_a_compressed_core_is_its_smallest_entry(self):
        # An additive step ends in combine's compression, whose core is
        # diagonal; the record holds its smallest entry, bit for bit.
        problem = generate_problem("random_lowrank", 10, rank=4, seed=0, horizon=0.1)
        traj = integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                                  ControllerParams(tol=1e-6, epus=True))
        for record, factor in zip(traj.records, traj.factors[1:]):
            assert np.count_nonzero(factor.D - np.diag(np.diagonal(factor.D))) == 0
            assert record.min_core_eig == np.diagonal(factor.D).min()

    def test_pure_conjugation(self, rng):
        n = 5
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        p = random_factor(rng, n, 2, definite=True)
        problem = ProblemData(
            a=StiffOperator(a),
            q=LDLTFactor.zero(n),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=p,
            horizon=0.8,
        )
        from scipy.linalg import expm

        phi = expm(problem.horizon * a)
        ref = phi.T @ to_dense(p) @ phi
        for n_steps in (1, 4):
            traj = integrate_fixed(problem, SchemeSpec("strang"), n_steps, EXP, COMP)
            assert np.linalg.norm(to_dense(traj.final) - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_final_time_exact_and_monotone(self):
        problem = make_tanh_problem(horizon=0.7)
        traj = integrate_fixed(problem, SchemeSpec("sym", 2), 7, EXP, COMP)
        times = traj.times
        assert times[-1] == 0.7
        assert np.all(np.diff(times) > 0)

    def test_records_have_ranks(self):
        # asym2's rules (degree 3) stack 16 < 20 columns, so the first step
        # builds node blocks.
        problem = generate_problem("random_lowrank", n=20, rank=4, seed=0)
        traj = integrate_fixed(problem, SchemeSpec("asym", 2), 5, EXP, COMP)
        assert all(r.rank >= 1 for r in traj.records)
        assert traj.records[0].fresh_quad_blocks > 0
        assert all(r.fresh_quad_blocks == 0 for r in traj.records[1:])

    def test_blow_up_names_the_step(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=r"\(in the step from t=0\.75 with h=0\.25\)$"):
            integrate_fixed(_blow_up_problem(), SchemeSpec("lie"), 4)


def _blow_up_problem():
    """A = 400 I: P grows like exp(800 t) until the affine flow's congruence
    core overflows, while every exponential stays finite."""
    n = 3
    return ProblemData(
        a=StiffOperator(400.0 * np.eye(n)),
        q=LDLTFactor(np.ones((n, 1)), np.array([[1e-300]])),
        s=QuadraticTerm.from_dense(np.zeros((n, n))),
        p0=LDLTFactor(np.ones((n, 1)), np.eye(1)),
        horizon=1.0,
    )


class TestAdaptiveDriver:
    def test_requires_embedded(self):
        problem = make_tanh_problem()
        with pytest.raises(InvalidInput):
            integrate_adaptive(problem, SchemeSpec("sym", 1), 0.1,
                               ControllerParams(tol=1e-4))
        with pytest.raises(InvalidInput):
            integrate_adaptive(problem, SchemeSpec("strang"), 0.1,
                               ControllerParams(tol=1e-4))

    def test_tanh_accuracy_and_acceptance(self):
        problem = make_tanh_problem()
        tol = 1e-6
        traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.05,
                                  ControllerParams(tol=tol), EXP, COMP)
        assert all(r.err_est <= tol for r in traj.records)
        assert traj.times[-1] == 1.0
        final_err = abs(to_dense(traj.final)[0, 0] - np.tanh(1.0))
        assert final_err <= tol

    def test_nan_first_step_rejected(self):
        # It used to fail later, at the first exponential action, with
        # "t must be finite and nonnegative".
        with pytest.raises(InvalidInput, match="h1 must be positive, got nan"):
            integrate_adaptive(make_tanh_problem(), SchemeSpec("sym", 2), np.nan,
                               ControllerParams(tol=1e-4))

    def test_single_clamped_step_for_loose_tol(self):
        problem = make_tanh_problem(horizon=0.05)
        traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 1.0,
                                  ControllerParams(tol=10.0), EXP, COMP)
        assert len(traj.records) == 1
        assert traj.records[0].clamped
        assert traj.records[0].t == 0.05

    def test_epus_scaling_recorded(self):
        problem = make_tanh_problem()
        tol = 1e-4
        traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.05,
                                  ControllerParams(tol=tol, epus=True), EXP, COMP)
        assert all(r.err_est <= tol for r in traj.records)
        assert traj.times[-1] == 1.0

    def test_step_size_collapse_carries_partial(self, monkeypatch):
        problem = make_tanh_problem()
        monkeypatch.setattr(adaptive, "H_MIN_FACTOR", 1e-6)
        params = ControllerParams(tol=1e-30)
        with pytest.raises(StepSizeCollapse) as info:
            integrate_adaptive(problem, SchemeSpec("sym", 2), 0.1, params, EXP, COMP)
        assert info.value.trajectory is not None

    def test_rejection_shrinks_by_at_most_the_growth_cap(self, monkeypatch):
        # At tol 1e-300 every estimate is far above tol: the bare controller
        # formula would cut h by ~150 orders of magnitude in one rejection.
        trials = []
        step = adaptive.additive_step

        def record(current, h, *args, **kwargs):
            trials.append(h)
            return step(current, h, *args, **kwargs)

        monkeypatch.setattr(adaptive, "additive_step", record)
        params = ControllerParams(tol=1e-300)
        with pytest.raises(StepSizeCollapse):
            integrate_adaptive(generate_problem("random_lowrank", n=10), SchemeSpec("sym", 2),
                               0.01, params)
        shrinks = list(zip(trials, trials[1:]))  # the first rejection shrinks too
        cap = adaptive.GROWTH_CAP
        assert shrinks and all(new == old / cap for old, new in shrinks)
        # The run collapses one shrink below the floor (horizon 1).
        assert trials[-1] / cap < adaptive.H_MIN_FACTOR <= trials[-1]

    @staticmethod
    def _singular_above(monkeypatch, h_max):
        """Make every quadratic flow over h > h_max raise StepTooLarge."""
        real = schemes.quadratic_flow

        def flow(factor, h, s_op):
            if h > h_max:
                raise StepTooLarge(f"quadratic subflow system is singular for h={h:g}")
            return real(factor, h, s_op)

        monkeypatch.setattr(schemes, "quadratic_flow", flow)

    def test_failed_subflow_counts_as_rejection(self, rng, monkeypatch):
        # A quadratic flow singular above h = 0.05 fails the first trial,
        # h = 0.1; the driver must shrink the step instead of aborting the
        # run.  Unhindered, the same problem takes h = 0.1 in one step.
        problem = make_sparse_linear_problem(rng, 0.1)
        unhindered = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.1,
                                        ControllerParams(tol=1e-6))
        assert [r.rejections for r in unhindered.records] == [0]
        self._singular_above(monkeypatch, 0.05)
        traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.1,
                                  ControllerParams(tol=1e-6))
        assert traj.records[0].rejections >= 1
        assert traj.records[0].h < 0.1
        assert traj.times[-1] == 0.1

    def test_collapse_names_failure_cause(self, rng, monkeypatch):
        # A quadratic flow singular at every h halves the step to collapse;
        # the partial trajectory is lifted from the Galerkin space.
        self._singular_above(monkeypatch, 0.0)
        problem = make_sparse_linear_problem(rng, 0.2)
        monkeypatch.setattr(adaptive, "H_MIN_FACTOR", 0.3)
        params = ControllerParams(tol=1e-6)
        with pytest.raises(StepSizeCollapse, match="last rejection: StepTooLarge") as info:
            integrate_adaptive(problem, SchemeSpec("sym", 2), 0.2, params)
        assert [f.n for f in info.value.trajectory.factors] == [problem.n]

    def test_blow_up_names_the_step(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=r"affine flow over h=0\.75: .*"
                                    r"\(in the step from t=0\.25 with h=0\.75\)$"):
            integrate_adaptive(_blow_up_problem(), SchemeSpec("sym", 2), 0.25,
                               ControllerParams(tol=1e300))

    def test_rejection_bookkeeping(self):
        # Start with a huge h1 so the first trial must be rejected.
        problem = make_tanh_problem(horizon=0.5)
        traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.5,
                                  ControllerParams(tol=1e-10), EXP, COMP)
        assert traj.records[0].rejections >= 1
        assert all(r.err_est <= 1e-10 for r in traj.records)
        assert traj.times[-1] == 0.5


SPARSE_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                    / "sparse_fixed_n400.npz")


def test_sparse_n400_matches_stored_answer():
    # laplacian_lqr N=400, sym2, 2 fixed steps against the answer stored
    # with the benchmark (read only).
    with np.load(SPARSE_REFERENCE, allow_pickle=False) as stored:
        ref = to_dense(LDLTFactor(stored["L"], stored["D"]))
    problem = generate_problem("laplacian_lqr", n=400)
    final = integrate_fixed(problem, SchemeSpec("sym", 2), 2).final
    assert np.linalg.norm(to_dense(final) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_stiff_adaptive_run_meets_its_tolerance():
    # laplacian_lqr N=50 (||A||_1 = 1e4), sym2, tol 1e-4 against the dense
    # reference: 55 steps, 3 rejections, error 1.6e-4.  A rule moved in
    # band to each new h gave estimates that passed steps far above tol:
    # 60 steps, 11 rejections, error 1.6e-3.
    problem = generate_problem("laplacian_lqr", n=50)
    reference = dense_reference(to_dense_problem(problem))
    traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.01, ControllerParams(tol=1e-4))
    assert traj.times[-1] == problem.horizon
    assert relative_error(to_dense(traj.final), reference) <= 5e-4


@pytest.mark.parametrize("spec, tol", [(SchemeSpec("sym", 3), None),
                                       (SchemeSpec("sym", 3), 1e-5),
                                       (SchemeSpec("sym", 5), None)])
def test_dense_warm_cache_rerun_gives_identical_bits(spec, tol):
    # sym3 primes its exponentials from one expm per fresh rule set, and
    # the adaptive run its substeps from one expm per step size; a fresh
    # sym5 set needs 10 keys, more than the cache holds, and keeps one expm
    # per key.  The second run finds the first one's exponentials cached
    # and must give the same bits.
    problem = generate_problem("random_lowrank", n=30, rank=4, seed=2, horizon=0.05)
    finals = []
    for _ in range(2):
        if tol is None:
            traj = integrate_fixed(problem, spec, 2)
        else:
            traj = integrate_adaptive(problem, spec, 0.01, ControllerParams(tol=tol, epus=True))
            assert sum(r.rejections for r in traj.records) > 0
        finals.append((traj.final.L.tobytes(), traj.final.D.tobytes(), len(traj.records)))
    assert finals[0] == finals[1]


@pytest.mark.parametrize("tol", [None, 1e-4])
def test_sparse_storage_matches_dense_storage(tol):
    # laplacian_lqr N=60, sym2: the sparse operator is solved on Galerkin
    # spaces of 50 and then 60 = N columns, the dense one as it is; both
    # take the equidistant rule.  2 fixed steps, or adaptive at tol 1e-4
    # (64 steps, 3 rejections).
    sparse = generate_problem("laplacian_lqr", n=60)
    runs = []
    for problem in (sparse, stored_dense(sparse)):
        if tol is None:
            traj = integrate_fixed(problem, SchemeSpec("sym", 2), 2)
        else:
            traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.01,
                                      ControllerParams(tol=tol))
        runs.append(traj)
    got, want = runs
    assert [r.rejections for r in got.records] == [r.rejections for r in want.records]
    assert np.allclose(got.times, want.times, rtol=1e-9, atol=0)
    assert relative_error(to_dense(got.final), to_dense(want.final)) <= 1e-12


def test_sliver_final_step_is_stretched():
    # h1 falls 1e-13 short of the horizon.  Clamped only past the horizon,
    # the run took that step and then a sliver of 1e-15, whose per unit step
    # estimate (round-off over h) every rejection made worse, to collapse.
    # Within STRETCH of the horizon, the first step lands on it.
    problem = generate_problem("random_lowrank", 10, rank=2, seed=1, horizon=0.01)
    traj = integrate_adaptive(problem, SchemeSpec("sym", 2), 0.01 * (1 - 1e-13),
                              ControllerParams(tol=0.1, epus=True))
    assert [(r.t, r.h, r.clamped, r.rejections) for r in traj.records] == \
        [(0.01, 0.01, True, 0)]


def test_stretched_step_after_the_controller(monkeypatch):
    # The controller keeps h, which would leave 1e-13 of the horizon after
    # the second step; that step is stretched to land on the horizon.
    monkeypatch.setattr(adaptive, "pi_update", lambda e_prev, e_new, h, params, p: h)
    h1 = 0.5 * (1 - 1e-13)
    traj = integrate_adaptive(make_tanh_problem(), SchemeSpec("sym", 2), h1,
                              ControllerParams(tol=1.0))
    assert [(r.t, r.h, r.clamped) for r in traj.records] == \
        [(h1, h1, False), (1.0, 1.0 - h1, True)]


def test_sparse_problem_with_an_initial_factor_matches_dense_storage():
    # A random P0 lies outside the Krylov space of L_Q; the Galerkin space
    # starts from [L_Q, L_P0], so the sparse solve keeps it.
    rng = np.random.default_rng(3)
    sparse = dataclasses.replace(generate_problem("laplacian_lqr", n=100),
                                 p0=LDLTFactor(rng.standard_normal((100, 2)), np.eye(2)))
    got = integrate_fixed(sparse, SchemeSpec("sym", 2), 2).final
    want = integrate_fixed(stored_dense(sparse), SchemeSpec("sym", 2), 2).final
    assert relative_error(to_dense(got), to_dense(want)) <= 1e-9


def test_sparse_warm_cache_rerun_gives_identical_bits():
    # From P0 = 0 the AFFINE_FIRST chains are quadratic flows of the
    # QUADRATIC_FIRST ones; the second step shares the start propagations.
    # The second run finds the first one's source blocks, Krylov spaces and
    # LU factors cached and must give the same bits.
    problem = generate_problem("laplacian_lqr", n=60)
    finals = []
    for _ in range(2):
        traj = integrate_fixed(problem, SchemeSpec("sym", 2), 2)
        finals.append([(f.L.tobytes(), f.D.tobytes()) for f in traj.factors])
    assert finals[0] == finals[1]


def test_adaptive_run_propagates_each_basis_once_per_substep(monkeypatch):
    # Within each tried step the start basis is propagated once per substep
    # size, and no (basis, t) pair is computed twice; every retry follows
    # one pool reset at the shrunk size.
    resets = []
    real_reset = adaptive.QuadraturePool.reset
    monkeypatch.setattr(adaptive.QuadraturePool, "reset",
                        lambda pool, *args: resets.append(args) or real_reset(pool, *args))
    real = expaction.exp_action
    real_step = adaptive.additive_step
    steps = []

    def stepping(current, h, *args):
        steps.append((current.L, []))
        return real_step(current, h, *args)

    def counting(op, t, v, opts=ExpActionOptions(), blocks=None):
        if blocks is not problem.source_blocks:
            steps[-1][1].append((v, t))  # keeps v alive, so identities stay unique
        return real(op, t, v, opts, blocks)

    problem = generate_problem("random_lowrank", n=30, rank=4, seed=2, horizon=0.05)
    monkeypatch.setattr(adaptive, "additive_step", stepping)
    monkeypatch.setattr(subflows, "exp_action", counting)
    monkeypatch.setattr(expaction, "exp_action", counting)
    traj = integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                              ControllerParams(tol=1e-5, epus=True))
    rejections = sum(r.rejections for r in traj.records)
    assert rejections > 0 and len(resets) == rejections
    assert len(steps) == len(traj.records) + rejections
    for start, calls in steps:
        assert sum(v is start for v, _ in calls) == (3 if start.shape[1] else 0)
        assert len({(id(v), t) for v, t in calls}) == len(calls)


def test_strang_ranks_follow_one_compression_per_step():
    # A Strang step compresses its affine flow's full-width sum before the
    # last half quadratic flow, where a compressing flow would; compressing
    # after it instead records rank 30 at step 6.
    problem = generate_problem("random_lowrank", 30, rank=4, seed=2, horizon=0.5)
    traj = integrate_fixed(problem, SchemeSpec("strang"), 8)
    assert [r.rank for r in traj.records] == [20, 26, 28, 29, 29, 29, 30, 30]


def test_full_rank_adaptive_run_eigendecomposes_once_per_tried_step(monkeypatch):
    # The benchmark's adaptive_n10 problem: at N = 10 every sum of a step
    # reaches N columns, so each tried step eigendecomposes once, in the
    # combine of its chains, and the run once more, compressing P0.
    calls = []
    real = lowrank.lapack.dsyevd
    monkeypatch.setattr(lowrank.lapack, "dsyevd",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    problem = generate_problem("random_lowrank", 10, rank=4, seed=0, horizon=1.0)
    traj = integrate_adaptive(problem, SchemeSpec("sym", 3), 0.01,
                              ControllerParams(tol=1e-6, epus=True))
    monkeypatch.undo()
    rejections = sum(r.rejections for r in traj.records)
    assert (len(traj.records), rejections) == (189, 3)
    assert len(calls) == len(traj.records) + rejections + 1
    reference = dense_reference(to_dense_problem(problem))
    assert relative_error(to_dense(traj.final), reference) <= 1e-12
