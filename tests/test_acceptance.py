"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import csv
import dataclasses
import time

import numpy as np
import pytest

from dresplit import (
    CompressionOptions,
    ControllerParams,
    ExpActionOptions,
    ProblemData,
    QuadraticTerm,
    RunConfig,
    SchemeSpec,
    StiffOperator,
    StudySpec,
    additive_coeffs,
    generate_problem,
    init_quadrature,
    integrate_adaptive,
    integrate_fixed,
    quad_weights,
    relative_error,
    run_study,
    to_dense,
)
from dresplit.adaptive import QuadraturePool, default_quad_degree
from dresplit.expaction import KrylovSpace
from dresplit.lowrank import LDLTFactor, compress, frob_norm
from dresplit.oracle import dense_reference, dense_subflow
from dresplit.problems import to_dense_problem
from dresplit.schemes import coefficient_residual
from dresplit.study import fit_order, run_adaptive_sweep
from dresplit.subflows import affine_flow, quadratic_flow

from conftest import _random_instance, make_tanh_problem

SEED = 0
EXP_TIGHT = ExpActionOptions(rel_tol=1e-13)
COMP_TIGHT = CompressionOptions(rel_tol=1e-16)


def _report(num, name, passed, detail, budget_s, elapsed):
    line = (f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} "
            f"[{detail}; {elapsed:.1f}s of {budget_s:.0f}s budget]")
    print(flush=True)
    print(line, flush=True)
    assert passed, line
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget: {line}"


def study_problem():
    return generate_problem("random_lowrank", 10, 4, seed=SEED, horizon=1.0)


def test_criterion_1_order_study():
    started = time.perf_counter()
    problem = study_problem()
    reference = dense_reference(to_dense_problem(problem))

    ladders = {
        "lie": (SchemeSpec("lie"), [1024, 2048, 4096, 8192]),
        "strang": (SchemeSpec("strang"), [64, 128, 256, 512, 1024]),
        "asym3": (SchemeSpec("asym", 3), [32, 64, 128, 256, 512]),
        "sym2": (SchemeSpec("sym", 2), [8, 16, 32, 64, 128]),
        "sym3": (SchemeSpec("sym", 3), [8, 16, 32, 64, 128]),
    }
    slopes = {}
    for name, (spec, ladder) in ladders.items():
        hs, errs = [], []
        for n in ladder:
            traj = integrate_fixed(problem, spec, n, EXP_TIGHT, COMP_TIGHT,
                                   store_factors=False)
            hs.append(problem.horizon / n)
            errs.append(relative_error(to_dense(traj.final), reference))
        slopes[name], _ = fit_order(hs, errs, (1e-10, 1e-3))

    checks = [
        slopes["lie"] >= 0.8,
        1.7 <= slopes["strang"] <= 2.3,
        slopes["asym3"] >= 2.7,
        3.6 <= slopes["sym2"] <= 4.4,
        slopes["sym3"] >= 5.0,
    ]
    detail = ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
    _report(1, "order study", all(checks), detail, 300.0,
            time.perf_counter() - started)


def test_criterion_2_subflow_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    exp_opts = ExpActionOptions(rel_tol=1e-12)
    comp_opts = CompressionOptions(rel_tol=1e-15)
    worst_quadratic = worst_affine = 0.0
    n_instances = 100
    for _ in range(n_instances):
        n = int(rng.integers(1, 21))
        problem, dense, factor, h = _random_instance(rng, n)
        p_dense = to_dense(factor)
        got_g = to_dense(quadratic_flow(factor, h, problem.s))
        ref_g = dense_subflow("quadratic", p_dense, h, dense)
        worst_quadratic = max(worst_quadratic, relative_error(got_g, ref_g))
        state = init_quadrature(problem, h, 9, exp_opts, comp_opts)
        got_f = to_dense(affine_flow(factor, h, problem, state, exp_opts, comp_opts))
        ref_f = dense_subflow("affine", p_dense, h, dense)
        worst_affine = max(worst_affine, relative_error(got_f, ref_f))

    # Full-width instances, where the rule's 10 rank(Q) columns reach N and
    # init_quadrature gives the exact integral: the N = 10 study problem, a
    # stiff one (laplacian_lqr N = 30, ||h A||_1 = 192, dense and sparse),
    # and a non-normal one (-I + 8 shift, N = 12, ||h A||_1 = 4.5).  The
    # sparse one flows on its Galerkin projection, onto the Krylov space of
    # L_Q (all of R^30 here), and is lifted back.
    laplacian = generate_problem("laplacian_lqr", 30)
    space = KrylovSpace(laplacian.a, laplacian.q.L, 1e-3)
    assert space.grow(30)
    nonnormal = ProblemData(
        a=StiffOperator(-np.eye(12) + 8.0 * np.diag(np.ones(11), 1)),
        q=LDLTFactor(rng.standard_normal((12, 2)), np.eye(2)),
        s=QuadraticTerm.from_dense(np.eye(12)),
        p0=LDLTFactor.zero(12),
        horizon=1.0,
    )
    named = {
        "full width": (study_problem(), None, 0.1),
        "stiff dense": (dataclasses.replace(
            laplacian, a=StiffOperator(laplacian.a.matrix.toarray())), None, 0.05),
        "stiff sparse": (laplacian, space.basis, 0.05),
        "non-normal": (nonnormal, None, 0.5),
    }
    worst_named = {}
    for name, (problem, u, h) in named.items():
        factor = LDLTFactor(rng.standard_normal((problem.n, 2)), np.eye(2))
        if u is None:
            solved, start, u = problem, factor, np.eye(problem.n)
        else:
            solved, start = problem.projected(u), LDLTFactor(u.T @ factor.L, factor.D)
        state = init_quadrature(solved, h, 9, exp_opts, comp_opts)
        flowed = affine_flow(start, h, solved, state, exp_opts, comp_opts)
        got_f = to_dense(LDLTFactor(u @ flowed.L, flowed.D))
        ref_f = dense_subflow("affine", to_dense(factor), h, to_dense_problem(problem))
        worst_named[name] = relative_error(got_f, ref_f)
    worst_affine = max(worst_affine, *worst_named.values())

    worst_moment = 0.0
    for degree in range(1, 10):
        h = float(rng.uniform(0.5, 2.0))
        nodes = np.linspace(0.0, h, degree + 1)
        w = quad_weights(degree, h)
        for j in range(degree + 1):
            target = h ** (j + 1) / (j + 1)
            worst_moment = max(worst_moment, abs(float(w @ nodes**j) - target) / target)

    passed = worst_quadratic <= 1e-10 and worst_affine <= 1e-10 and worst_moment <= 1e-12
    detail = (f"{n_instances} instances, quadratic {worst_quadratic:.1e}, "
              f"affine {worst_affine:.1e} ("
              + ", ".join(f"{k} {v:.1e}" for k, v in worst_named.items())
              + f"), moments {worst_moment:.1e}")
    _report(2, "subflow oracle equivalence", passed, detail, 60.0,
            time.perf_counter() - started)


def test_criterion_3_coefficient_correctness():
    import math

    started = time.perf_counter()
    worst = 0.0
    closed_ok = True
    for s in range(1, 9):
        for symmetric in (False, True):
            gamma = additive_coeffs(s, symmetric)
            worst = max(worst, coefficient_residual(gamma, s, symmetric))
        gamma = additive_coeffs(s, False)
        closed = np.array(
            [(-1.0) ** (s - k) * k**s / (math.factorial(k) * math.factorial(s - k))
             for k in range(1, s + 1)]
        )
        closed_ok &= bool(
            np.allclose(gamma, closed, rtol=1e-13, atol=1e-13 * max(1.0, abs(closed).max()))
        )
    exact_two = bool(np.array_equal(additive_coeffs(2, False), [-1.0, 2.0]))
    passed = worst <= 1e-12 and exact_two and closed_ok
    detail = f"max residual {worst:.1e}, asym2 exact={exact_two}, closed form={closed_ok}"
    _report(3, "coefficient correctness", passed, detail, 1.0,
            time.perf_counter() - started)


def test_criterion_4_embedded_estimate_order():
    # One step from a mid-trajectory state; the estimate per unit step then
    # scales with the embedded order (s-1 asymmetric, 2s-2 symmetric).
    started = time.perf_counter()
    p_mid = float(np.tanh(0.5))
    targets = {
        ("asym", 2): 1.0,
        ("asym", 3): 2.0,
        ("sym", 2): 2.0,
        ("sym", 3): 4.0,
    }
    observed = {}
    ok = True
    for (kind, stages), expected in targets.items():
        spec = SchemeSpec(kind, stages)
        hs, ests = [], []
        for h in (0.05, 0.025, 0.0125, 0.00625):
            problem = make_tanh_problem(horizon=h, p0=p_mid)
            traj = integrate_fixed(problem, spec, 1, EXP_TIGHT, COMP_TIGHT,
                                   store_factors=False)
            rec = traj.records[-1]
            hs.append(rec.h)
            ests.append(rec.err_est / rec.h)  # error per unit step
        slope, _ = fit_order(hs, ests, (1e-16, 1.0))
        observed[f"{kind}{stages}"] = slope
        ok &= expected - 0.3 <= slope <= expected + 0.3
    detail = ", ".join(f"{k}={v:.2f}" for k, v in observed.items())
    _report(4, "embedded estimate order", ok, detail, 60.0,
            time.perf_counter() - started)


def test_criterion_5_adaptive_driver():
    started = time.perf_counter()
    problem = study_problem()
    config = RunConfig(scheme="sym", stages=2, tol=1e-2, h1=0.05, epus=True,
                       exp_tol=1e-12, comp_tol=1e-14)
    study = StudySpec(tolerances=(1e-1, 1e-2, 1e-3))
    summary, per_tol, failures = run_adaptive_sweep(problem, study, config)

    ok = not failures and len(summary) == 3
    details = []
    for row, tol in zip(summary, study.tolerances):
        frac_below = row[5]
        steps = per_tol[tol]
        ests_ok = all(r[3] <= tol for r in steps)
        final_exact = steps[-1][1] == problem.horizon
        ok &= ests_ok and final_exact and frac_below >= 0.9
        details.append(f"tol={tol:g}: {len(steps)} steps, frac={frac_below:.2f}, "
                       f"est<=tol={ests_ok}, t_end exact={final_exact}")
    _report(5, "adaptive driver", ok, "; ".join(details), 120.0,
            time.perf_counter() - started)


def test_criterion_6_quadrature_rule_stability(monkeypatch):
    # Every rule the pool holds during an adaptive run is the equidistant
    # rule of its h: its stability constant is that of a fresh rule of the
    # same degree (1 for degree 7), and its moments are exact.  The rule of
    # sym3 with a rank-4 Q stacks (7 + 1) 4 = 32 columns, so N = 40 keeps it
    # below N; on the N = 10 study problem the exact integral replaces it.
    started = time.perf_counter()
    problem = generate_problem("random_lowrank", 40, 4, seed=SEED, horizon=0.5)
    spec = SchemeSpec("sym", 3)
    degree = default_quad_degree(spec)
    fresh_lebesgue = init_quadrature(problem, 0.1, degree).lebesgue
    worst = {"lebesgue": 0.0, "moment": 0.0, "nodes": 0.0}
    held = []
    prepare = QuadraturePool.prepare

    def checked(pool, h, divisors):
        fresh = prepare(pool, h, divisors)
        for st in pool.states.values():
            held.append(st.h)
            worst["lebesgue"] = max(worst["lebesgue"], abs(st.lebesgue - fresh_lebesgue))
            grid = np.linspace(0.0, st.h, degree + 1)
            worst["nodes"] = max(worst["nodes"], float(np.abs(st.nodes - grid).max()))
            for j in range(degree + 1):
                target = st.h ** (j + 1) / (j + 1)
                err = abs(float(st.weights @ st.nodes**j) - target) / target
                worst["moment"] = max(worst["moment"], err)
        return fresh

    monkeypatch.setattr(QuadraturePool, "prepare", checked)
    traj = integrate_adaptive(problem, spec, 0.01, ControllerParams(tol=1e-6, epus=True))
    rejections = sum(r.rejections for r in traj.records)
    ok = (bool(held) and rejections > 0 and worst["nodes"] == 0.0
          and worst["lebesgue"] <= 1e-14 and worst["moment"] <= 1e-12)
    detail = (f"{len(traj.records)} steps, {rejections} rejections, {len(held)} rules held; "
              f"max |Lambda - {fresh_lebesgue:.3g}|={worst['lebesgue']:.2e}, "
              f"max node offset={worst['nodes']:.1e}, max moment error={worst['moment']:.1e}")
    _report(6, "quadrature rule stability", ok, detail, 30.0,
            time.perf_counter() - started)


def test_criterion_7_compression_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_ratio = 0.0
    worst_norm = 0.0
    rank_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 65))
        r = int(rng.integers(1, 21))
        l_mat = rng.standard_normal((n, r))
        g = rng.standard_normal((r, r))
        factor = LDLTFactor(l_mat, g + g.T)
        tol = float(rng.choice([1e-4, 1e-6, 1e-8]))
        out = compress(factor, CompressionOptions(rel_tol=tol))
        rank_ok &= out.rank <= factor.rank
        p_in = to_dense(factor)
        err = np.linalg.norm(p_in - to_dense(out)) / np.linalg.norm(p_in)
        worst_ratio = max(worst_ratio, err / tol)
        dense_norm = np.linalg.norm(p_in)
        worst_norm = max(worst_norm, abs(frob_norm(factor) - dense_norm) / dense_norm)
    passed = worst_ratio <= 1.0 and rank_ok and worst_norm <= 1e-12
    detail = (f"worst error/tol {worst_ratio:.3f}, rank non-increasing={rank_ok}, "
              f"frob vs dense {worst_norm:.1e}")
    _report(7, "compression contract", passed, detail, 30.0,
            time.perf_counter() - started)


def _strip_wallclock(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if "wallclock" not in name]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def test_criterion_8_determinism(tmp_path):
    # A rerun on the same problem starts with its caches warm: the dense
    # expm cache, the kept source blocks and Krylov spaces.  The results
    # must not depend on them.
    started = time.perf_counter()
    problem = study_problem()
    study = StudySpec(
        schemes=(SchemeSpec("strang"), SchemeSpec("sym", 2)),
        ladder=(4, 8, 16),
        tolerances=(1e-2,),
    )
    config = RunConfig(scheme="sym", stages=2, n_steps=4, exp_tol=1e-10, comp_tol=1e-14)
    adaptive_config = RunConfig(scheme="sym", stages=2, tol=1e-2, h1=0.05, epus=True,
                                exp_tol=1e-10, comp_tol=1e-14)
    outputs = {}
    for run in ("fresh", "warm"):
        out = tmp_path / run
        run_study(problem, study, config, "order", out / "order")
        run_study(problem, study, adaptive_config, "adaptivity", out / "adaptive")
        texts = {}
        for name in ("order/order.csv", "order/slopes.csv",
                     "adaptive/adaptive_summary.csv",
                     "adaptive/adaptive_steps_tol0.01.csv"):
            texts[name] = _strip_wallclock(out / name)
        outputs[run] = texts

    mismatched = [name for name in outputs["fresh"]
                  if outputs["fresh"][name] != outputs["warm"][name]]
    passed = not mismatched
    detail = "all CSVs byte-identical" if passed else f"mismatch in {mismatched}"
    _report(8, "determinism with warm caches", passed, detail, 120.0,
            time.perf_counter() - started)
