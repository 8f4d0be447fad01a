from dataclasses import replace

import csv
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from dresplit import (
    ControllerParams,
    InvalidInput,
    LDLTFactor,
    ProblemData,
    RunConfig,
    SchemeSpec,
    StepSizeCollapse,
    StiffOperator,
    StudySpec,
    generate_problem,
    integrate_adaptive,
    integrate_fixed,
    run_study,
    to_dense,
)
from dresplit import expaction, study
from dresplit.adaptive import StepRecord, Trajectory
from dresplit.oracle import _davison_maki
from dresplit.problems import to_dense_problem
from dresplit.study import fit_order, run_fixed_ladder, run_solve, scheme_label


class TestConfig:
    def test_exactly_one_mode(self):
        with pytest.raises(InvalidInput):
            RunConfig(n_steps=10, tol=1e-3, h1=0.1)
        with pytest.raises(InvalidInput):
            RunConfig()

    def test_adaptive_needs_h1(self):
        with pytest.raises(InvalidInput):
            RunConfig(tol=1e-3)

    def test_json_roundtrip(self):
        config = RunConfig(scheme="asym", stages=3, n_steps=16, exp_tol=1e-9,
                           comp_tol=1e-12)
        back = RunConfig.from_json(config.to_json())
        assert back == config

    # A config.json of an older version may hold the keys threads and
    # quad_degree, which no run reads any more.
    @pytest.mark.parametrize("text, message", [
        ('{"n_steps": 4, "threads": 1, "quad_degree": null}',
         "unknown run config keys: quad_degree, threads"),
        ('{"bogus": 1}', "unknown run config keys: bogus"),
        ("[1]", "a run config is a JSON object, got list"),
        ("3", "a run config is a JSON object, got int"),
        ("not json", "a run config is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"tol": "x", "h1": 1}', "tol must be a number, got 'x'"),
        ('{"n_steps": 4, "stages": "x"}', "stages must be an integer, got 'x'"),
        ('{"n_steps": 4.5}', "n_steps must be an integer, got 4.5"),
        ('{"n_steps": true}', "n_steps must be an integer, got True"),
        ('{"n_steps": 4, "exp_tol": false}', "exp_tol must be a number, got False"),
        ('{"n_steps": 4, "comp_tol": "1e-8"}', "comp_tol must be a number, got '1e-8'"),
        ('{"n_steps": 4, "epus": 1}', "epus must be true or false, got 1"),
        ('{"n_steps": 4, "scheme": 2}', "scheme must be a string, got 2"),
    ])
    def test_from_json_rejects_what_is_not_a_config(self, text, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            RunConfig.from_json(text)

    def test_positive_tolerances(self):
        with pytest.raises(InvalidInput):
            RunConfig(n_steps=4, exp_tol=-1.0)

    @pytest.mark.parametrize("field", ["tol", "h1", "exp_tol", "comp_tol"])
    def test_nan_option_rejected(self, field):
        values = {"tol": 1e-3, "h1": 0.1, field: float("nan")}
        with pytest.raises(InvalidInput, match=field):
            RunConfig(**values)

    def test_zero_comp_tol_allowed(self):
        assert RunConfig(n_steps=4, comp_tol=0.0).comp_tol == 0.0

    def test_ladder_rungs_below_one_rejected(self):
        with pytest.raises(InvalidInput, match="rungs must be >= 1"):
            StudySpec(ladder=(4, 0, 8))


class TestRunSolveCollapse:
    def test_partial_trajectory_written(self, tmp_path, monkeypatch):
        problem = generate_problem("random_lowrank", 6, rank=2, seed=1)
        partial = Trajectory()
        partial.factors.append(problem.p0)
        for i, est in enumerate((1e-5, 2e-5, 3e-5)):
            partial.append(StepRecord(0.1 * (i + 1), 0.1, est, i, 2, 3), problem.p0)

        def collapse(*args, **kwargs):
            raise StepSizeCollapse("step size 1e-13 fell below the floor", trajectory=partial)

        monkeypatch.setattr(study, "integrate_adaptive", collapse)
        config = RunConfig(scheme="sym", stages=2, tol=1e-6, h1=0.1)
        with pytest.raises(StepSizeCollapse):
            run_solve(problem, config, tmp_path)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["step", "t", "h"]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
        assert [float(row[3]) for row in rows[1:]] == [1e-5, 2e-5, 3e-5]
        assert [row[5] for row in rows[1:]] == ["0", "1", "2"]
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert summary[0] == "steps: 3"
        assert summary[1] == "collapsed: step size 1e-13 fell below the floor"
        assert not (tmp_path / "final_L.mtx").exists()

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_solve_keeps_only_the_first_and_last_factor(self, tmp_path, adaptive):
        # run_solve writes the final factor only, so it stores no other; its
        # files are those of a run that stores every factor.
        problem = generate_problem("random_lowrank", 8, rank=2, seed=1)
        if adaptive:
            config = RunConfig(scheme="sym", stages=2, tol=1e-8, h1=0.1)
            full = integrate_adaptive(problem, config.spec, config.h1,
                                      ControllerParams(tol=config.tol))
        else:
            config = RunConfig(scheme="sym", stages=2, n_steps=8)
            full = integrate_fixed(problem, config.spec, 8)
        traj = run_solve(problem, config, tmp_path / "kept")
        assert len(traj.records) == len(full.records) >= 8
        assert len(traj.factors) == 2 and len(full.factors) == len(full.records) + 1
        study._write_trajectory(tmp_path, full.records)
        study._write_mm(tmp_path / "final_L.mtx", full.final.L)
        study._write_mm(tmp_path / "final_D.mtx", full.final.D)
        for name in ("trajectory.csv", "final_L.mtx", "final_D.mtx"):
            assert (tmp_path / "kept" / name).read_bytes() == (tmp_path / name).read_bytes()


class TestStudySpec:
    def test_short_ladder_rejected(self):
        with pytest.raises(InvalidInput):
            StudySpec(ladder=(4, 8))

    def test_unknown_reference(self):
        with pytest.raises(InvalidInput):
            StudySpec(reference="exact")

    def test_labels(self):
        assert scheme_label(SchemeSpec("lie")) == "lie"
        assert scheme_label(SchemeSpec("sym", 3)) == "sym3"


class TestFitOrder:
    def test_exact_power(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = 3.0 * hs**2
        slope, npts = fit_order(hs, errs, (1e-16, 1.0))
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert npts == 4

    def test_window_filtering(self):
        hs = np.array([0.1, 0.05, 0.025])
        errs = np.array([0.5, 1e-5, 1e-6])
        slope, npts = fit_order(hs, errs, (1e-8, 1e-3))
        assert npts == 2

    def test_insufficient_points(self):
        slope, npts = fit_order([0.1, 0.05], [1.0, 1.0], (1e-8, 1e-3))
        assert np.isnan(slope) and npts == 0


class TestLadder:
    def test_finest_reference_policy(self):
        problem = generate_problem("random_lowrank", 6, 2, seed=4, horizon=0.4)
        study = StudySpec(
            schemes=(SchemeSpec("strang"), SchemeSpec("sym", 2)),
            ladder=(4, 8, 16),
            reference="finest",
        )
        config = RunConfig(n_steps=4, exp_tol=1e-11, comp_tol=1e-14)
        rows, slopes, failures = run_fixed_ladder(problem, study, config)
        assert not failures
        assert len(rows) == 6
        errs = {(r[0], r[2]): r[4] for r in rows}
        # Errors shrink with the ladder for both schemes.
        assert errs[("strang", 16)] < errs[("strang", 4)]
        assert errs[("sym2", 16)] < errs[("sym2", 4)]

    def test_failures_logged_not_raised(self, tmp_path, monkeypatch):
        problem = generate_problem("random_lowrank", 6, 2, seed=4, horizon=0.4)
        problem = replace(problem, a=StiffOperator(sp.csr_matrix(problem.a.matrix)))
        study = StudySpec(
            schemes=(SchemeSpec("strang"),),
            ladder=(4, 8, 16),
        )
        # An unreachable exponential tolerance fails each run but the study
        # must complete and record the failures.  Sparse actions are capped
        # at Krylov dimension 2, where no two iterates can be compared.
        monkeypatch.setattr(expaction, "_MAX_DIM", 2)
        config = RunConfig(
            scheme="strang", stages=1, n_steps=4,
            exp_tol=5e-16, comp_tol=1e-14,
        )
        report = run_study(problem, study, config, "order", tmp_path)
        assert report.failures
        assert (tmp_path / "summary.txt").read_text().count("FAILED run") >= 1


class TestRefinement:
    def test_start_with_roundoff_negative_eigenvalue(self):
        # A factor the solver built may carry a core eigenvalue just below
        # zero.  The input check refuses it as an initial factor; the
        # per-step refinement starts from it all the same.
        problem = generate_problem("random_lowrank", 6, 2, seed=4)
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0]
        start = LDLTFactor(basis, np.diag([1e-3, -1e-9]))
        with pytest.raises(InvalidInput, match="eigenvalue -1.000e-09"):
            ProblemData(a=problem.a, q=problem.q, s=problem.s, p0=start, horizon=0.01)
        config = RunConfig(scheme="sym", stages=2, tol=1e-4, h1=0.01)
        err = study._refined_step_error(problem, config.spec, config, start, 0.01, start)
        assert np.isfinite(err) and err > 0.0

    def test_restart_matches_a_checked_problem(self):
        problem = generate_problem("laplacian_lqr", 20)
        start = generate_problem("random_lowrank", 20, 2, seed=1).p0
        sub = problem._restarted(start, 0.02)
        assert sub.source_integral is problem.source_integral
        assert (sub.p0, sub.horizon) == (start, 0.02)
        checked = ProblemData(a=problem.a, q=problem.q, s=problem.s, p0=start, horizon=0.02)
        spec = SchemeSpec("sym", 2)
        got = integrate_fixed(sub, spec, study.refine_substeps(spec)).final
        ref = integrate_fixed(checked, spec, study.refine_substeps(spec)).final
        assert got.L.tobytes() == ref.L.tobytes() and got.D.tobytes() == ref.D.tobytes()

    @pytest.mark.parametrize("spec, m", [
        (SchemeSpec("strang"), 32), (SchemeSpec("asym", 3), 10), (SchemeSpec("sym", 2), 6),
        (SchemeSpec("sym", 3), 4), (SchemeSpec("sym", 4), 3), (SchemeSpec("sym", 5), 2),
    ])
    def test_substeps_by_order(self, spec, m):
        assert study.refine_substeps(spec) == m

    def test_substeps_are_the_fewest_that_reach_the_gain(self):
        for p in range(1, 13):
            m = study.refine_substeps(SchemeSpec("asym", p))
            assert m >= 2 and m**p >= study.REFINE_GAIN
            if m > 2:
                assert (m - 1)**p < study.REFINE_GAIN

    def test_sweep_refines_each_accepted_step_once(self, monkeypatch):
        problem = generate_problem("random_lowrank", 6, 2, seed=4, horizon=0.4)
        config = RunConfig(scheme="sym", stages=2, tol=1e-3, h1=0.05, epus=True)
        calls = []
        inner = study.integrate_fixed

        def counting(sub, spec, n_steps, *args, **kwargs):
            calls.append((spec, n_steps))
            return inner(sub, spec, n_steps, *args, **kwargs)

        monkeypatch.setattr(study, "integrate_fixed", counting)
        _, per_tol, failures = study.run_adaptive_sweep(
            problem, StudySpec(tolerances=(1e-1, 1e-2)), config)
        assert not failures
        accepted = sum(len(rows) for rows in per_tol.values())
        assert accepted > 0
        assert calls == [(config.spec, study.refine_substeps(config.spec))] * accepted

    # The refinement runs the scheme under test; the Davison-Maki solve of
    # the step is exact in time and shares no code with it.
    @pytest.mark.parametrize("stages", [3, 2])
    def test_reference_matches_davison_maki(self, stages):
        problem = generate_problem("random_lowrank", 10)
        h = 0.05
        spec = SchemeSpec("sym", stages)
        config = RunConfig(scheme="sym", stages=stages, tol=1e-4, h1=h)
        step = problem._restarted(problem.p0, h)
        accepted = integrate_fixed(step, spec, 1).final
        dense = to_dense_problem(step)
        hamiltonian = np.block([[-dense.a, dense.s], [dense.q, dense.a.T]])
        intervals = max(1, math.ceil(h * np.linalg.norm(hamiltonian, 1)))
        exact = _davison_maki(hamiltonian, dense.p0, h, intervals)
        e_exact = np.linalg.norm(to_dense(accepted) - exact)
        e_refined = study._refined_step_error(problem, spec, config, problem.p0, h, accepted)
        assert e_refined == pytest.approx(e_exact, rel=1e-2)
