import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from dresplit import (
    IngestError,
    LDLTFactor,
    ProblemData,
    QuadraticTerm,
    RunConfig,
    StiffOperator,
    StudySpec,
    generate_problem,
    ingest_problem,
    to_dense,
)
from dresplit.cli import _FLAG_SETTINGS, _add_run_flags, build_parser, main
from dresplit.problems import export_problem


def corrupt_matrix(path, fault):
    """Rewrite a MatrixMarket file with one more column (fault "nonsquare")
    or with its first stored entry replaced by ``fault`` (NaN or inf),
    keeping its dense or sparse layout."""
    m = scipy.io.mmread(str(path))
    if fault == "nonsquare":
        m = sp.hstack([m, m.tocsc()[:, :1]]) if sp.issparse(m) else np.hstack([m, m[:, :1]])
    elif sp.issparse(m):
        m = m.tocoo()
        m.data[0] = fault
    else:
        m[0, 0] = fault
    scipy.io.mmwrite(str(path), m, precision=17)


class TestGenerateIngest:
    def test_generate_deterministic(self):
        a = generate_problem("random_lowrank", 10, 4, seed=7)
        b = generate_problem("random_lowrank", 10, 4, seed=7)
        assert np.array_equal(a.a.as_dense(), b.a.as_dense())
        assert np.array_equal(a.q.L, b.q.L)
        assert np.array_equal(a.p0.L, b.p0.L)

    def test_generated_cores_psd(self):
        p = generate_problem("random_lowrank", 10, 4, seed=3)
        for core in (p.q.D, p.p0.D):
            assert np.linalg.eigvalsh(core).min() >= -1e-12
        s_eigs = np.linalg.eigvalsh(p.s.as_dense())
        assert s_eigs.min() >= -1e-12

    def test_roundtrip_bit_exact(self, tmp_path):
        problem = generate_problem("random_lowrank", 8, 3, seed=11)
        export_problem(problem, tmp_path)
        back = ingest_problem(tmp_path)
        assert np.array_equal(back.a.as_dense(), problem.a.as_dense())
        assert np.array_equal(back.q.L, problem.q.L)
        assert np.array_equal(back.q.D, problem.q.D)
        assert np.array_equal(back.s.as_dense(), problem.s.as_dense())
        assert np.array_equal(back.p0.L, problem.p0.L)
        assert back.horizon == problem.horizon

    def test_laplacian_roundtrip_sparse(self, tmp_path):
        problem = generate_problem("laplacian_lqr", 12, 2, seed=0)
        assert problem.a.is_sparse
        assert problem.p0.rank == 0
        export_problem(problem, tmp_path)
        back = ingest_problem(tmp_path)
        assert back.a.is_sparse
        assert np.array_equal(back.a.as_dense(), problem.a.as_dense())

    def test_malformed_header_names_line(self, tmp_path):
        problem = generate_problem("random_lowrank", 4, 2, seed=1)
        export_problem(problem, tmp_path)
        bad = tmp_path / "A.mtx"
        content = bad.read_text().splitlines()
        content[0] = "not a matrix market file"
        bad.write_text("\n".join(content))
        with pytest.raises(IngestError) as info:
            ingest_problem(tmp_path)
        msg = str(info.value)
        assert "A.mtx" in msg and "line 1" in msg

    def test_missing_file_named(self, tmp_path):
        problem = generate_problem("random_lowrank", 4, 2, seed=1)
        export_problem(problem, tmp_path)
        (tmp_path / "S.mtx").unlink()
        with pytest.raises(IngestError) as info:
            ingest_problem(tmp_path)
        assert "S.mtx" in str(info.value)

    def test_dimension_mismatch_reported(self, tmp_path):
        problem = generate_problem("random_lowrank", 4, 2, seed=1)
        export_problem(problem, tmp_path)
        import scipy.io

        scipy.io.mmwrite(str(tmp_path / "Q_L.mtx"), np.ones((5, 2)), precision=16)
        with pytest.raises(IngestError) as info:
            ingest_problem(tmp_path)
        assert "Q_L.mtx" in str(info.value)

    @pytest.mark.parametrize("kind, name, message", [
        ("random_lowrank", "A.mtx", "operator must be square"),
        ("laplacian_lqr", "A.mtx", "operator must be square"),
        ("random_lowrank", "Q_D.mtx", "core must be square"),
        ("random_lowrank", "P0_D.mtx", "core must be square"),
    ])
    def test_nonsquare_matrix_named(self, tmp_path, kind, name, message):
        export_problem(generate_problem(kind, 4, 2, seed=1), tmp_path)
        corrupt_matrix(tmp_path / name, "nonsquare")
        with pytest.raises(IngestError, match=f"{name}: {message}"):
            ingest_problem(tmp_path)

    @pytest.mark.parametrize("fault", [np.nan, np.inf])
    @pytest.mark.parametrize("kind, name", [
        ("random_lowrank", "A.mtx"),
        ("random_lowrank", "Q_L.mtx"),
        ("random_lowrank", "Q_D.mtx"),
        ("random_lowrank", "P0_L.mtx"),
        ("random_lowrank", "P0_D.mtx"),
        ("random_lowrank", "S.mtx"),
        ("laplacian_lqr", "A.mtx"),
        ("laplacian_lqr", "Q_L.mtx"),
    ])
    def test_nonfinite_entry_rejected(self, tmp_path, kind, name, fault):
        export_problem(generate_problem(kind, 6, 2, seed=1), tmp_path)
        corrupt_matrix(tmp_path / name, fault)
        with pytest.raises(IngestError, match=f"{name}: non-finite"):
            ingest_problem(tmp_path)

    def test_control_form(self, tmp_path):
        rng = np.random.default_rng(0)
        import scipy.io

        n = 6
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 2))
        c = rng.standard_normal((1, n))
        scipy.io.mmwrite(str(tmp_path / "A.mtx"), a, precision=16)
        scipy.io.mmwrite(str(tmp_path / "B.mtx"), b, precision=16)
        scipy.io.mmwrite(str(tmp_path / "C.mtx"), c, precision=16)
        manifest = {
            "form": "control",
            "horizon": 0.5,
            "files": {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx"},
        }
        (tmp_path / "problem.json").write_text(json.dumps(manifest))
        problem = ingest_problem(tmp_path)
        assert problem.q.rank == 1
        assert np.allclose(to_dense(problem.q), c.T @ c, atol=1e-14)
        assert np.allclose(problem.s.as_dense(), b @ b.T, atol=1e-14)


class TestCommands:
    def test_generate_solve_fixed(self, tmp_path):
        prob_dir = tmp_path / "prob"
        out_dir = tmp_path / "run"
        assert main(["generate", "--kind", "random_lowrank", "--n", "6", "--rank", "2",
                     "--seed", "5", "--out", str(prob_dir)]) == 0
        assert main(["solve", "--problem", str(prob_dir), "--scheme", "sym",
                     "--stages", "2", "--steps", "8", "--out", str(out_dir)]) == 0
        with open(out_dir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 9  # header + 8 steps
        assert (out_dir / "final_L.mtx").exists()
        assert (out_dir / "config.json").exists()

    @pytest.mark.parametrize("kind", ["random_lowrank", "laplacian_lqr"])
    def test_solve_summary_names_the_galerkin_space(self, tmp_path, kind):
        # A sparse problem's summary gets one line with its Galerkin space's
        # dimension and newest-block share, the same on a rerun; a dense
        # problem's has none.
        prob_dir = tmp_path / "prob"
        export_problem(generate_problem(kind, 100), prob_dir)
        summaries = []
        for run in ("a", "b"):
            assert main(["solve", "--problem", str(prob_dir), "--scheme", "sym",
                         "--stages", "2", "--steps", "2", "--out", str(tmp_path / run)]) == 0
            summaries.append((tmp_path / run / "summary.txt").read_text().splitlines())
        lines = [line for line in summaries[0] if line.startswith("galerkin space:")]
        if kind == "random_lowrank":
            assert lines == []
            return
        assert re.fullmatch(r"galerkin space: dimension 72, newest-block share "
                            r"\d\.\d{3}e-\d\d", lines[0])
        share = float(lines[0].rsplit(" ", 1)[1])
        assert 0 < share <= 1e-10
        assert summaries[0][:-1] == summaries[1][:-1]  # all but wallclock_s

    def test_solve_adaptive(self, tmp_path):
        prob_dir = tmp_path / "prob"
        out_dir = tmp_path / "run"
        main(["generate", "--n", "6", "--rank", "2", "--seed", "5",
              "--out", str(prob_dir)])
        assert main(["solve", "--problem", str(prob_dir), "--scheme", "sym",
                     "--stages", "2", "--tol", "1e-3", "--h1", "0.05", "--epus",
                     "--out", str(out_dir)]) == 0
        with open(out_dir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        t_col = header.index("t")
        assert float(data[-1][t_col]) == 1.0

    def test_study_order(self, tmp_path):
        prob_dir = tmp_path / "prob"
        out_dir = tmp_path / "study"
        main(["generate", "--n", "6", "--rank", "2", "--seed", "5",
              "--out", str(prob_dir), "--horizon", "0.5"])
        assert main(["study", "order", "--problem", str(prob_dir),
                     "--schemes", "strang,sym:2", "--ladder", "4,8,16",
                     "--exp-tol", "1e-10", "--out", str(out_dir)]) == 0
        assert (out_dir / "order.csv").exists()
        assert (out_dir / "slopes.csv").exists()
        assert (out_dir / "summary.txt").exists()
        with open(out_dir / "order.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["scheme", "stages", "n_steps", "h"]
        assert len(rows) == 7

    def test_study_adaptivity(self, tmp_path):
        prob_dir = tmp_path / "prob"
        out_dir = tmp_path / "study"
        main(["generate", "--n", "5", "--rank", "2", "--seed", "2",
              "--out", str(prob_dir), "--horizon", "0.4"])
        assert main(["study", "adaptivity", "--problem", str(prob_dir),
                     "--scheme", "sym", "--stages", "2", "--tols", "1e-1,1e-2",
                     "--h1", "0.02", "--epus", "--out", str(out_dir)]) == 0
        assert (out_dir / "adaptive_summary.csv").exists()
        step_files = list(out_dir.glob("adaptive_steps_tol*.csv"))
        assert len(step_files) == 2

    def test_ingest_error_exit_code(self, tmp_path):
        assert main(["solve", "--problem", str(tmp_path / "nope"), "--steps", "4",
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("kind", ["random_lowrank", "laplacian_lqr"])
    @pytest.mark.parametrize("name, fault", [
        ("A.mtx", "nonsquare"), ("A.mtx", np.nan), ("Q_D.mtx", np.nan), ("S.mtx", np.nan),
        ("S.mtx", "nonsquare"),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, kind, name, fault):
        prob_dir = tmp_path / "prob"
        export_problem(generate_problem(kind, 6, 2, seed=1), prob_dir)
        corrupt_matrix(prob_dir / name, fault)
        code = main(["solve", "--problem", str(prob_dir), "--steps", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ingestion error:") and name in err

    @pytest.mark.parametrize("edit, key", [
        (lambda m: [m], "JSON object"),
        (lambda m: {**m, "files": ["A.mtx"]}, "'files'"),
        (lambda m: {**m, "files": {k: v for k, v in m["files"].items() if k != "A"}}, "'A'"),
        (lambda m: {**m, "files": {**m["files"], "S": ""}}, "'S'"),
        (lambda m: {**m, "horizon": "abc"}, "'horizon'"),
        (lambda m: {**m, "horizon": None}, "'horizon'"),
    ], ids=["not an object", "files not an object", "no A", "empty S", "horizon abc",
            "horizon null"])
    def test_malformed_manifest_exit_code(self, tmp_path, capsys, edit, key):
        prob_dir = tmp_path / "prob"
        manifest = export_problem(generate_problem("random_lowrank", 6, 2, seed=1), prob_dir)
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        code = main(["solve", "--problem", str(prob_dir), "--steps", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ingestion error:") and "problem.json" in err and key in err

    def test_solver_error_exit_code(self, tmp_path):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--seed", "1",
              "--out", str(prob_dir)])
        # Unattainable tolerance with a tight step floor collapses the driver.
        code = main(["solve", "--problem", str(prob_dir), "--scheme", "lie",
                     "--steps", "0", "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("kind, flag, value, entry", [
        ("order", "--ladder", "10,x", "'x'"),
        ("order", "--schemes", "sym:x", "'sym:x'"),
        ("adaptivity", "--tols", "1e-2,abc", "'abc'"),
    ])
    def test_malformed_list_flag_exit_code(self, tmp_path, capsys, kind, flag, value, entry):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["study", kind, "--problem", str(prob_dir), flag, value,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and flag in err and entry in err

    # A flag its study kind ignores must fail: running the defaults in its
    # place would hide the mistake.
    @pytest.mark.parametrize("kind, flag, value", [
        ("adaptivity", "--schemes", "asym:3,sym:2"),
        ("adaptivity", "--ladder", "4,8,16"),
        ("adaptivity", "--tol", "1e-6"),
        ("adaptivity", "--steps", "4"),
        ("order", "--tols", "1e-3"),
        ("efficiency", "--tols", "1e-3"),
        ("adaptivity", "--reference", "finest"),
        ("order", "--steps", "4"),
        ("order", "--tol", "1e-3"),
        ("order", "--h1", "0.3"),
        # --epus takes no value; its slot carries a flag the study does use.
        ("order", "--epus", "--exp-tol=1e-10"),
        ("efficiency", "--scheme", "lie"),
        ("efficiency", "--stages", "2"),
        ("efficiency", "--steps", "4"),
    ])
    def test_unused_study_flag_exit_code(self, tmp_path, capsys, kind, flag, value):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["study", kind, "--problem", str(prob_dir), "--scheme", "sym",
                     "--stages", "3", flag, value, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and f"does not use {flag}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra, named", [
        (["--h1", "0.1"], ["--h1"]),
        (["--epus"], ["--epus"]),
        (["--epus", "--h1", "0.1"], ["--h1", "--epus"]),
    ])
    def test_unused_fixed_solve_flag_exit_code(self, tmp_path, capsys, extra, named):
        # A fixed-step solve has no initial step and no error per unit step.
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["solve", "--problem", str(prob_dir), "--steps", "2", *extra,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error:")
        assert all(f"solve --steps does not use {flag}" in err for flag in named)
        assert not (tmp_path / "o").exists()

    # config.json records what the study ran, and only the settings its
    # kind reads: no placeholder step count, scheme or tolerance.
    @pytest.mark.parametrize("kind, flags, config", [
        ("adaptivity",
         ["--scheme", "sym", "--stages", "3", "--tols", "1e-1,1e-2", "--h1", "0.05", "--epus"],
         {"scheme": "sym", "stages": 3, "h1": 0.05, "epus": True, "exp_tol": 1e-10,
          "comp_tol": None, "tolerances": [0.1, 0.01]}),
        ("order",
         ["--schemes", "strang,sym:2", "--ladder", "2,4,8", "--reference", "finest"],
         {"exp_tol": 1e-10, "comp_tol": None,
          "schemes": [{"kind": "strang", "stages": 1}, {"kind": "sym", "stages": 2}],
          "ladder": [2, 4, 8], "reference": "finest"}),
        ("efficiency",
         ["--schemes", "lie", "--ladder", "2,3,4", "--comp-tol", "1e-12", "--exp-tol", "1e-9"],
         {"exp_tol": 1e-9, "comp_tol": 1e-12, "schemes": [{"kind": "lie", "stages": 1}],
          "ladder": [2, 3, 4], "reference": "oracle"}),
    ])
    def test_study_config_records_what_ran(self, tmp_path, kind, flags, config):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--horizon", "0.2",
              "--out", str(prob_dir)])
        assert main(["study", kind, "--problem", str(prob_dir), *flags,
                     "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "config.json").read_text()) == config

    # The adaptive driver refuses these schemes at every tolerance, so the
    # study refuses them once, up front.
    @pytest.mark.parametrize("scheme, stages", [
        ("lie", "1"), ("strang", "1"), ("asym", "1"), ("sym", "1"),
    ])
    def test_adaptivity_scheme_without_estimate_exit_code(self, tmp_path, capsys,
                                                          scheme, stages):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["study", "adaptivity", "--problem", str(prob_dir),
                     "--scheme", scheme, "--stages", stages, "--tols", "1e-2",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and ">= 2 stages" in err
        assert not (tmp_path / "o").exists()

    # argparse exits with 2 on a usage error, the code of an ingestion
    # error; its message tells the two apart.
    @pytest.mark.parametrize("flag, value", [("--threads", "2"), ("--quad-degree", "4")])
    def test_unknown_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        with pytest.raises(SystemExit) as exited:
            main(["solve", "--problem", str(prob_dir), "--steps", "2",
                  flag, value, "--out", str(tmp_path / "o")])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_removed_validate_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["validate"])
        assert exited.value.code == 2
        assert "invalid choice: 'validate'" in capsys.readouterr().err

    # A NaN compression tolerance truncated every factor to rank 0; a NaN
    # adaptive tolerance ran and failed inside the driver with exit 0.
    @pytest.mark.parametrize("args, message", [
        (["solve", "--steps", "2", "--comp-tol", "nan"], "comp_tol must be nonnegative"),
        (["study", "adaptivity", "--tols", "nan"], "tol must be positive"),
    ])
    def test_nan_option_exit_code(self, tmp_path, capsys, args, message):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(args + ["--problem", str(prob_dir), "--out", str(tmp_path / "o")])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tols", ["-1", "nan", "inf", "1e-2,0"])
    def test_bad_tolerance_exit_code(self, tmp_path, capsys, tols):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["study", "adaptivity", "--problem", str(prob_dir), "--tols", tols,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ladder_rung_below_one_exit_code(self, tmp_path, capsys):
        prob_dir = tmp_path / "prob"
        main(["generate", "--n", "4", "--rank", "2", "--out", str(prob_dir)])
        code = main(["study", "order", "--problem", str(prob_dir), "--schemes", "lie",
                     "--ladder", "0,-1,2", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "rungs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_finest_reference_exit_code(self, tmp_path, capsys):
        # Q_D = 0 and no P0: the finest run, and so the reference, is zero.
        base = generate_problem("laplacian_lqr", 6, 2)
        problem = ProblemData(a=base.a, q=LDLTFactor(base.q.L, np.zeros((2, 2))),
                              s=base.s, p0=base.p0, horizon=base.horizon)
        prob_dir = tmp_path / "prob"
        export_problem(problem, prob_dir)
        code = main(["study", "order", "--problem", str(prob_dir), "--reference", "finest",
                     "--schemes", "lie", "--ladder", "2,4,8", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "reference norm is zero" in capsys.readouterr().err

    @staticmethod
    def _blow_up(tmp_path, n):
        """Run `solve` on A = 400 I in dimension n: exp(400) = 5e173 keeps
        every exponential finite, but the affine flow's congruence core of
        P0 overflows.  The rule's three blocks of rank 1 and P0 sum to two
        columns at n = 4, which take a QR; at n = 2 the rule alone has N
        columns, so the flow sums P0's column and the identity basis's two,
        with no QR."""
        problem = ProblemData(
            a=StiffOperator(400.0 * np.eye(n)),
            q=LDLTFactor(np.ones((n, 1)), np.array([[1e-300]])),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=LDLTFactor(np.ones((n, 1)), np.eye(1)),
            horizon=1.0,
        )
        prob_dir = tmp_path / "prob"
        export_problem(problem, prob_dir)
        # In a process of its own, so that a numpy warning would reach stderr.
        done = _run_cli(["solve", "--problem", str(prob_dir), "--scheme", "lie",
                         "--steps", "1", "--out", str(tmp_path / "o")])
        assert done.returncode == 3
        assert "(in the step from t=0 with h=1)" in done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        assert "RuntimeWarning" not in done.stderr
        return done

    def test_blow_up_exits_3_without_traceback(self, tmp_path):
        done = self._blow_up(tmp_path, 4)
        assert done.stderr.startswith("solver error: affine flow over h=1: cannot compress")

    def test_blow_up_without_qr_exits_3_alike(self, tmp_path):
        done = self._blow_up(tmp_path, 2)
        assert done.stderr.startswith(
            "solver error: affine flow over h=1: cannot compress a rank-3 factor of dimension 2")

    def test_collapse_writes_partial_output(self, tmp_path, capsys):
        prob_dir = tmp_path / "prob"
        out_dir = tmp_path / "run"
        main(["generate", "--n", "10", "--out", str(prob_dir)])
        code = main(["solve", "--problem", str(prob_dir), "--tol", "1e-300",
                     "--h1", "0.01", "--out", str(out_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: step size")
        with open(out_dir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["step", "t", "h", "err_est", "rank", "rejections",
                         "fresh_quad_blocks", "clamped", "min_core_eig"]]
        summary = (out_dir / "summary.txt").read_text().splitlines()
        assert summary[0] == "steps: 0"
        assert summary[1].startswith("collapsed: step size")
        assert "fell below the floor" in summary[1]


def _run_cli(args):
    """The dresplit command with args, in a fresh interpreter on this source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys\nfrom dresplit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_readme_names_every_run_flag():
    # The README's "Shared flags" paragraph lists the options of
    # _add_run_flags, no more and no fewer.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Shared flags:"):].split("\n\n", 1)[0]
    parser = argparse.ArgumentParser(add_help=False)
    _add_run_flags(parser)
    options = {o for action in parser._actions for o in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", paragraph)) == options


def test_every_study_flag_names_its_setting():
    # A study kind rejects the flags whose setting it does not read; a flag
    # missing from the table would be dropped without a word.
    study = next(action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)).choices["study"]
    flags = {action.dest for action in study._actions if action.option_strings}
    assert flags - {"help", "problem", "out"} == set(_FLAG_SETTINGS)
    settings = set(dataclasses.asdict(RunConfig(n_steps=1))) | set(dataclasses.asdict(StudySpec()))
    assert set(_FLAG_SETTINGS.values()) <= settings


def test_readme_names_every_command():
    # The README's CLI block runs each subcommand of build_parser, no more
    # and no fewer.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {choice for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)
                for choice in action.choices}
    assert commands == {"generate", "solve", "study"}
    assert set(re.findall(r"^dresplit ([a-z]+)", block, re.MULTILINE)) == commands


def test_dense_solve_loads_neither_sparse_lu_nor_matrix_market():
    # Both stacks are loaded on first use; a sparse solve then loads the LU.
    script = (
        "import sys\n"
        "from dresplit import SchemeSpec, generate_problem, integrate_fixed\n"
        "loaded = lambda: [m for m in ('scipy.sparse.linalg', 'scipy.io') if m in sys.modules]\n"
        "integrate_fixed(generate_problem('random_lowrank', 8), SchemeSpec('sym', 2), 2)\n"
        "print(loaded())\n"
        "integrate_fixed(generate_problem('laplacian_lqr', 20), SchemeSpec('sym', 2), 2)\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['scipy.sparse.linalg']"]
