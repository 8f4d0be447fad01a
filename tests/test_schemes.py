import warnings

import numpy as np
import pytest

from dresplit import (
    CoefficientConditioning,
    CompressionOptions,
    ExpActionOptions,
    InvalidInput,
    LDLTFactor,
    NoEmbeddedMethod,
    NonFiniteFactor,
    ProblemData,
    QuadraticTerm,
    SchemeCoefficients,
    SchemeSpec,
    StiffOperator,
    additive_coeffs,
    additive_step,
    combine,
    embedded_coeffs,
    frob_norm,
    generate_problem,
    integrate_fixed,
    lie_chain,
    multiplicative_step,
    quadratic_flow,
    to_dense,
)
from dresplit import expaction, schemes, subflows
from dresplit.adaptive import default_quad_degree
from dresplit.lowrank import identity_basis
from dresplit.schemes import AFFINE_FIRST, QUADRATIC_FIRST, coefficient_residual
from dresplit.study import fit_order
from dresplit.subflows import init_quadrature

from conftest import make_tanh_problem, random_factor, stored_dense

EXP = ExpActionOptions(rel_tol=1e-12)
COMP = CompressionOptions(rel_tol=1e-15)


class TestCoefficients:
    def test_asym_known_values(self):
        assert np.array_equal(additive_coeffs(1, False), [1.0])
        assert np.array_equal(additive_coeffs(2, False), [-1.0, 2.0])
        assert np.allclose(additive_coeffs(3, False), [0.5, -4.0, 4.5], atol=1e-14)

    def test_sym_known_values(self):
        assert np.array_equal(additive_coeffs(1, True), [0.5])
        assert np.allclose(additive_coeffs(2, True), [-1.0 / 6.0, 2.0 / 3.0], atol=1e-15)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_order_conditions(self, s):
        for symmetric in (False, True):
            gamma = additive_coeffs(s, symmetric)
            assert coefficient_residual(gamma, s, symmetric) <= 1e-12

    @pytest.mark.parametrize("s", range(1, 9))
    def test_asym_closed_form(self, s):
        import math

        gamma = additive_coeffs(s, False)
        closed = [
            (-1.0) ** (s - k) * k**s / (math.factorial(k) * math.factorial(s - k))
            for k in range(1, s + 1)
        ]
        assert np.allclose(gamma, closed, rtol=1e-13, atol=0)

    def test_consistency_sums(self):
        for s in range(1, 9):
            assert abs(additive_coeffs(s, False).sum() - 1.0) <= 1e-13
            assert abs(2.0 * additive_coeffs(s, True).sum() - 1.0) <= 1e-13

    def test_embedded_values(self):
        assert np.array_equal(embedded_coeffs(2, False), [1.0, 0.0])
        assert np.array_equal(embedded_coeffs(2, True), [0.5, 0.0])
        assert np.array_equal(embedded_coeffs(3, False), [-1.0, 2.0, 0.0])

    def test_embedded_single_stage_rejected(self):
        with pytest.raises(NoEmbeddedMethod):
            embedded_coeffs(1, False)

    def test_conditioning_warning(self):
        with pytest.warns(CoefficientConditioning):
            additive_coeffs(13, False)

    def test_for_spec_alpha(self):
        coeffs = SchemeCoefficients.for_spec(SchemeSpec("sym", 2))
        assert np.allclose(coeffs.alpha, coeffs.gamma - coeffs.beta)
        assert coeffs.beta[-1] == 0.0
        single = SchemeCoefficients.for_spec(SchemeSpec("sym", 1))
        assert single.beta is None and single.alpha is None


class TestSpec:
    def test_orders(self):
        assert SchemeSpec("lie").order == 1
        assert SchemeSpec("strang").order == 2
        assert SchemeSpec("asym", 3).order == 3
        assert SchemeSpec("sym", 3).order == 6

    def test_embedded_orders(self):
        assert SchemeSpec("asym", 3).embedded_order == 2
        assert SchemeSpec("sym", 3).embedded_order == 4
        assert SchemeSpec("sym", 1).embedded_order is None

    def test_divisors(self):
        assert SchemeSpec("lie").substep_divisors() == (1,)
        assert SchemeSpec("strang").substep_divisors() == (1,)
        assert SchemeSpec("sym", 3).substep_divisors() == (1, 2, 3)

    def test_bad_kind(self):
        with pytest.raises(InvalidInput):
            SchemeSpec("leapfrog")


def _states_for(problem, h, divisors, degree=6):
    return {k: init_quadrature(problem, h / k, degree, EXP, COMP) for k in divisors}


class TestChainsAndSteps:
    def test_chain_k1_is_lie(self, rng):
        problem = make_tanh_problem(p0=0.3)
        h = 0.1
        states = _states_for(problem, h, (1,))
        chain = lie_chain(problem.p0, h, 1, "quadratic_first", problem, states[1], EXP, COMP)
        lie = multiplicative_step(problem.p0, h, "lie", problem, states, EXP, COMP)
        assert np.allclose(to_dense(chain), to_dense(lie), atol=1e-15)

    def test_chain_collapses_without_source_and_quadratic(self, rng):
        n = 5
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        p = random_factor(rng, n, 2, definite=True)
        problem = ProblemData(
            a=StiffOperator(a),
            q=LDLTFactor.zero(n),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=p,
            horizon=1.0,
        )
        h = 0.4
        from scipy.linalg import expm

        for k in (1, 3):
            states = _states_for(problem, h, (k,))
            out = to_dense(lie_chain(p, h, k, "quadratic_first", problem, states[k], EXP, COMP))
            phi = expm(h * a)
            ref = phi.T @ to_dense(p) @ phi
            assert np.linalg.norm(out - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_chain_scalar_matches_dense_composition(self):
        problem = make_tanh_problem(p0=0.2)
        h, k = 0.3, 3
        states = _states_for(problem, h, (k,), degree=8)
        got = to_dense(lie_chain(problem.p0, h, k, "quadratic_first", problem,
                                 states[k], EXP, COMP))[0, 0]
        # dense composition of the exact scalar subflows
        p = 0.2
        sub = h / k
        for _ in range(k):
            p = p / (1.0 + sub * p)          # quadratic flow
            p = p + sub                       # affine flow: a=0, q=1
        assert got == pytest.approx(p, rel=1e-8)

    def test_strang_with_zero_quadratic_equals_affine(self, rng):
        n = 4
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        q_l = rng.standard_normal((n, 2))
        p = random_factor(rng, n, 2, definite=True)
        problem = ProblemData(
            a=StiffOperator(a),
            q=LDLTFactor(q_l, np.eye(2)),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=p,
            horizon=1.0,
        )
        h = 0.2
        states = _states_for(problem, h, (1,))
        from dresplit import affine_flow

        strang = multiplicative_step(p, h, "strang", problem, states, EXP, COMP)
        affine = affine_flow(p, h, problem, states[1], EXP, COMP)
        assert np.allclose(to_dense(strang), to_dense(affine), atol=1e-13)

    def test_tanh_orders_lie_strang(self):
        problem = make_tanh_problem()
        exact = np.tanh(1.0)
        for kind, expected in (("lie", 1.0), ("strang", 2.0)):
            hs, errs = [], []
            for n in (10, 20, 40, 80):
                traj = integrate_fixed(problem, SchemeSpec(kind), n, EXP, COMP)
                err = abs(to_dense(traj.final)[0, 0] - exact)
                hs.append(1.0 / n)
                errs.append(err)
            slope, _ = fit_order(hs, errs, (1e-16, 1.0))
            assert expected - 0.2 <= slope <= expected + 0.2

    def test_additive_single_stage_symmetric(self, rng):
        problem = make_tanh_problem(p0=0.4)
        h = 0.2
        spec = SchemeSpec("sym", 1)
        coeffs = SchemeCoefficients.for_spec(spec)
        states = _states_for(problem, h, (1,))
        nxt, est = additive_step(problem.p0, h, spec, coeffs, problem, states, EXP, COMP)
        assert est is None
        fg = lie_chain(problem.p0, h, 1, "quadratic_first", problem, states[1], EXP, COMP)
        gf = lie_chain(problem.p0, h, 1, "affine_first", problem, states[1], EXP, COMP)
        ref = 0.5 * (to_dense(fg) + to_dense(gf))
        assert np.allclose(to_dense(nxt), ref, atol=1e-13)

    def test_asym2_tanh_orders(self):
        problem = make_tanh_problem()
        exact = np.tanh(1.0)
        spec = SchemeSpec("asym", 2)
        hs, errs, ests = [], [], []
        for n in (10, 20, 40, 80):
            traj = integrate_fixed(problem, spec, n, EXP, COMP)
            errs.append(abs(to_dense(traj.final)[0, 0] - exact))
            # error-per-unit-step scaling of the final-step estimate
            ests.append(traj.records[-1].err_est / traj.records[-1].h)
            hs.append(1.0 / n)
        slope, _ = fit_order(hs, errs, (1e-16, 1.0))
        assert 1.8 <= slope <= 2.2
        est_slope, _ = fit_order(hs, ests, (1e-16, 1.0))
        assert 0.8 <= est_slope <= 1.2

    def test_embedded_difference_identity(self, rng):
        problem = make_tanh_problem(p0=0.3)
        h = 0.25
        spec = SchemeSpec("sym", 2)
        coeffs = SchemeCoefficients.for_spec(spec)
        states = _states_for(problem, h, (1, 2))
        zero_tol = CompressionOptions(rel_tol=0.0)
        chains = []
        for k in (1, 2):
            for order in ("quadratic_first", "affine_first"):
                chains.append(
                    (k, lie_chain(problem.p0, h, k, order, problem, states[k], EXP, zero_tol))
                )
        full = combine([(coeffs.gamma[k - 1], c) for k, c in chains], zero_tol)
        embedded = combine([(coeffs.beta[k - 1], c) for k, c in chains], zero_tol)
        alpha_comb = combine([(coeffs.alpha[k - 1], c) for k, c in chains], zero_tol)
        diff = to_dense(full) - to_dense(embedded)
        assert np.linalg.norm(diff - to_dense(alpha_comb)) <= 1e-12

    def test_symmetric_step_symmetry(self, rng):
        problem = make_tanh_problem(p0=0.5)
        h = 0.2
        spec = SchemeSpec("sym", 2)
        coeffs = SchemeCoefficients.for_spec(spec)
        states = _states_for(problem, h, (1, 2))
        nxt, est = additive_step(problem.p0, h, spec, coeffs, problem, states, EXP, COMP)
        x = to_dense(nxt)
        assert np.array_equal(x, x.T)
        assert est is not None and est >= 0.0


class TestSharedQRStep:
    """additive_step forms the next factor and the estimate from one QR of
    the stacked chain bases; both must match two separate combinations."""

    @staticmethod
    def _step_and_chains(problem, spec, h, coeffs=None):
        if coeffs is None:
            coeffs = SchemeCoefficients.for_spec(spec)
        degree = default_quad_degree(spec)
        states = {k: init_quadrature(problem, h / k, degree) for k in spec.substep_divisors()}
        nxt, est = additive_step(problem.p0, h, spec, coeffs, problem, states)
        jobs = [(k, d) for k in range(1, spec.stages + 1)
                for d in (QUADRATIC_FIRST, AFFINE_FIRST)]
        chains = [lie_chain(problem.p0, h, k, d, problem, states[k]) for k, d in jobs]
        return nxt, est, chains, [k for k, _ in jobs], coeffs

    @pytest.mark.parametrize("kind, n, stages", [("laplacian_lqr", 20, 2),
                                                 ("random_lowrank", 10, 3)])
    def test_matches_separate_combinations(self, kind, n, stages):
        problem = stored_dense(generate_problem(kind, n, rank=4))
        nxt, est, chains, ks, coeffs = self._step_and_chains(
            problem, SchemeSpec("sym", stages), 0.01)
        if kind == "laplacian_lqr":
            # From P0 = 0 both k=1 chains keep one compressed source basis,
            # which the combination merges.
            assert chains[0].L.tobytes() == chains[1].L.tobytes()
        else:
            assert problem.p0.rank == 4
        ref = combine([(coeffs.gamma[k - 1], c) for k, c in zip(ks, chains)])
        assert nxt.L.tobytes() == ref.L.tobytes()
        assert nxt.D.tobytes() == ref.D.tobytes()
        expected = frob_norm(combine([(coeffs.alpha[k - 1], c) for k, c in zip(ks, chains)]))
        assert expected > 0.0
        assert abs(est - expected) <= 1e-14 * expected

    def test_nonfinite_estimate_core_raises(self):
        # The alpha weights overflow the chain cores while the gamma
        # combination stays finite, so only the estimate path can raise.
        problem = generate_problem("random_lowrank", 10, rank=4)
        spec = SchemeSpec("sym", 2)
        coeffs = SchemeCoefficients.for_spec(spec)
        huge = SchemeCoefficients(coeffs.gamma, coeffs.beta,
                                  np.full_like(coeffs.alpha, np.finfo(np.float64).max))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor, match="norm"):
            self._step_and_chains(problem, spec, 0.01, huge)

    def test_one_combine_per_step(self, monkeypatch):
        # The next factor and the estimate of a step come from one combine
        # call over all six chains of sym3.
        terms = []
        real = schemes.combine
        monkeypatch.setattr(schemes, "combine",
                            lambda t, *rest: terms.append(len(t)) or real(t, *rest))
        problem = generate_problem("random_lowrank", 10, rank=4)
        traj = integrate_fixed(problem, SchemeSpec("sym", 3), 3)
        assert terms == [6, 6, 6]
        assert all(r.err_est > 0.0 for r in traj.records)


class TestSharedFactorWork:
    """An additive step propagates its start basis once per substep size
    and the identity basis of its full-width flows never, builds the
    AFFINE_FIRST chains from a zero start out of the QUADRATIC_FIRST ones,
    and keeps the bits of the unshared evaluation."""

    @staticmethod
    def _count_propagations(monkeypatch, problem):
        """(v, t) of every exponential action but those of the source node
        blocks: the affine flows' own, and those of the step basis, which
        go through its BlockActions."""
        calls = []
        real = expaction.exp_action

        def counting(op, t, v, opts=ExpActionOptions(), blocks=None):
            if blocks is not problem.source_blocks:
                calls.append((v, t))  # keeps v alive, so identities stay unique
            return real(op, t, v, opts, blocks)

        monkeypatch.setattr(subflows, "exp_action", counting)
        monkeypatch.setattr(expaction, "exp_action", counting)
        return calls

    def test_dense_sym3_step_propagates_nine_times(self, monkeypatch):
        # Of the 12 affine flows of a sym3 step, the first of each chain
        # pair k propagates the start basis over h/k: 3 shared, 6 not.  At
        # N = 40 every sum stays below N columns, so each flow compresses.
        problem = generate_problem("random_lowrank", 40, rank=4, seed=3, horizon=0.05)
        calls = self._count_propagations(monkeypatch, problem)
        traj = integrate_fixed(problem, SchemeSpec("sym", 3), 2)
        assert len(calls) == 18
        for start, step in zip(traj.factors, (calls[:9], calls[9:])):
            assert sum(v is start.L for v, _ in step) == 3
            assert len({(id(v), t) for v, t in step}) == 9

    def test_dense_full_width_sym3_step_makes_no_identity_action(self, monkeypatch):
        # At N = 20 the rule's 8 blocks of rank 4 reach N columns, so every
        # affine flow ends on the identity basis.  A sym3 step propagates
        # its start basis over h, h/2 and h/3, each once; a flow from the
        # identity takes the cached exp((h/k) A^T) itself and makes no
        # action.
        problem = generate_problem("random_lowrank", 20, rank=4, seed=3, horizon=0.05)
        calls = self._count_propagations(monkeypatch, problem)
        traj = integrate_fixed(problem, SchemeSpec("sym", 3), 2)
        assert len(calls) == 6
        h = problem.horizon / 2
        for start, step in zip(traj.factors, (calls[:3], calls[3:])):
            assert [t for v, t in step if v is start.L] == [h, h / 2, h / 3]
        assert not any(v is identity_basis(20) for v, _ in calls)

    def test_sparse_sym2_from_zero_propagates_five_times(self, monkeypatch):
        # From P0 = 0 only the second substep of chain 2 propagates (the
        # AFFINE_FIRST chains are quadratic flows of the QUADRATIC_FIRST
        # ones); the second step makes 2 shared and 2 unshared propagations.
        # At N = 40 every sum stays below N columns.
        problem = generate_problem("laplacian_lqr", 40)
        calls = self._count_propagations(monkeypatch, problem)
        traj = integrate_fixed(problem, SchemeSpec("sym", 2), 2)
        assert traj.factors[0].rank == 0
        assert len(calls) == 5

    def test_sparse_full_width_sym2_from_zero_propagates_twice(self, monkeypatch):
        # At N = 20 the rule's sum reaches N columns, so the chains run on
        # the identity basis, whose flows make no action.  The first step
        # starts from rank 0 and propagates nothing; the second propagates
        # its start basis over h and h/2.  The Galerkin space is R^20, and
        # the start basis that of the projected problem.
        problem = generate_problem("laplacian_lqr", 20)
        calls = self._count_propagations(monkeypatch, problem)
        traj = integrate_fixed(problem, SchemeSpec("sym", 2), 2)
        assert traj.factors[0].rank == 0
        h = problem.horizon / 2
        assert [t for _, t in calls] == [h, h / 2] and calls[0][0] is calls[1][0]
        assert calls[0][0].shape == traj.factors[1].L.shape

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_affine_first_chain_from_zero(self, k):
        problem = stored_dense(generate_problem("laplacian_lqr", 20))
        h = 0.02
        states = _states_for(problem, h, (k,))
        qf = lie_chain(problem.p0, h, k, QUADRATIC_FIRST, problem, states[k], EXP, COMP)
        af = lie_chain(problem.p0, h, k, AFFINE_FIRST, problem, states[k], EXP, COMP)
        via = quadratic_flow(qf, h / k, problem.s)
        assert qf.rank > 0
        assert af.L.tobytes() == via.L.tobytes()
        assert af.D.tobytes() == via.D.tobytes()

    @pytest.mark.parametrize("kind", ["random_lowrank", "laplacian_lqr"])
    def test_shared_propagations_keep_the_bits_of_unshared_chains(self, monkeypatch, kind):
        # A step propagates its start basis once per substep size, and the
        # identity basis its full-width flows end on (8 blocks of rank 4 at
        # N = 20) never, and has the bits of its chains evaluated one by one
        # without sharing.  The start basis is L_Q itself, so the source
        # node blocks are told apart by their BlockActions.
        problem = stored_dense(generate_problem(kind, 20, rank=4, seed=3))
        start = LDLTFactor(problem.q.L, np.eye(problem.q.rank))
        spec = SchemeSpec("sym", 3)
        coeffs = SchemeCoefficients.for_spec(spec)
        h = 0.01
        states = _states_for(problem, h, (1, 2, 3))
        jobs = [(k, d) for k in (1, 2, 3) for d in (QUADRATIC_FIRST, AFFINE_FIRST)]
        chains = [lie_chain(start, h, k, d, problem, states[k]) for k, d in jobs]
        unshared = combine([(coeffs.gamma[k - 1], c) for (k, _), c in zip(jobs, chains)],
                           CompressionOptions(), [coeffs.alpha[k - 1] for k, _ in jobs])
        calls = self._count_propagations(monkeypatch, problem)
        shared = additive_step(start, h, spec, coeffs, problem, states)
        assert [t for v, t in calls if v is start.L] == [h, h / 2, h / 3]
        assert len(calls) == 3
        assert shared[0].L.tobytes() == unshared[0].L.tobytes()
        assert shared[0].D.tobytes() == unshared[0].D.tobytes()
        assert shared[1] == unshared[1]


class TestAdditiveStepFailures:
    # The run fails in its first step whatever the number of steps, and
    # names that step's t and h.
    @pytest.mark.parametrize("steps", [1, 2])
    def test_nonfinite_combination_names_the_chains_and_h(self, steps):
        # A = 0 and S = 0 keep every chain at the P0 core 8e307; the two
        # bitwise equal chains of k = 4 merge to 2 * 1.625 * 8e307, which
        # overflows, while every subflow stays finite.  The driver silences
        # numpy's overflow warnings.
        n = 3
        e1 = np.eye(n)[:, :1]
        problem = ProblemData(
            a=StiffOperator(np.zeros((n, n))),
            q=LDLTFactor(np.ones((n, 1)), np.array([[1e-300]])),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=LDLTFactor(e1, np.array([[8e307]])),
            horizon=0.5 * steps,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteFactor,
                               match=r"^additive step over h=0\.5, combining its chains: "
                                     r"cannot compress .*\(in the step from t=0 with h=0\.5\)$"):
                integrate_fixed(problem, SchemeSpec("sym", 4), steps)

    # The chains of the problem above share one basis of width 1.  At
    # N = 11 the rule (degree 9, rank-1 Q) stacks 10 < N columns and
    # combine takes a QR; at N = 3 it is full width, the chains end on the
    # identity basis and their sum is rank N; at N = 1 combine sums the
    # 1 x 1 matrix.  The three read alike but for the rank.
    @pytest.mark.parametrize("n, rank", [(3, 3), (11, 1), (1, 1)], ids=["3", "11", "1"])
    def test_combination_failure_reads_alike_on_both_branches(self, n, rank):
        e1 = np.eye(n)[:, :1]
        problem = ProblemData(
            a=StiffOperator(np.zeros((n, n))),
            q=LDLTFactor(np.ones((n, 1)), np.array([[1e-300]])),
            s=QuadraticTerm.from_dense(np.zeros((n, n))),
            p0=LDLTFactor(e1, np.array([[8e307]])),
            horizon=0.5,
        )
        with pytest.raises(NonFiniteFactor,
                           match=rf"^additive step over h=0\.5, combining its chains: "
                                 rf"cannot compress a rank-{rank} factor of dimension {n}: "
                                 r"its core is not finite \(in the step from t=0 with h=0\.5\)$"):
            integrate_fixed(problem, SchemeSpec("sym", 4), 1)

    # At N = 10 the step's chains end on the shared identity basis, which
    # merges to 10 columns (no QR); at N = 100 they stack 80 (a QR).
    @pytest.mark.parametrize("n, width", [(10, 10), (100, 80)])
    def test_estimate_failure_reads_alike_on_both_branches(self, n, width):
        problem = generate_problem("random_lowrank", n, rank=4)
        spec = SchemeSpec("sym", 2)
        coeffs = SchemeCoefficients.for_spec(spec)
        huge = SchemeCoefficients(coeffs.gamma, coeffs.beta,
                                  np.full_like(coeffs.alpha, np.finfo(np.float64).max))
        states = _states_for(problem, 0.01, (1, 2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=r"^additive step over h=0\.01, combining its chains: "
                                    rf"cannot take the norm of the estimate, a rank-{width} "
                                    rf"factor of dimension {n}: its core is not finite$"):
            additive_step(problem.p0, 0.01, spec, huge, problem, states, EXP, COMP)

    def test_nonfinite_estimate_names_the_estimate_and_h(self):
        problem = generate_problem("random_lowrank", 10, rank=4)
        spec = SchemeSpec("sym", 2)
        coeffs = SchemeCoefficients.for_spec(spec)
        huge = SchemeCoefficients(coeffs.gamma, coeffs.beta,
                                  np.full_like(coeffs.alpha, np.finfo(np.float64).max))
        states = _states_for(problem, 0.01, (1, 2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=r"^additive step over h=0\.01, combining its chains: "
                                    r"cannot take the norm of the estimate"):
            additive_step(problem.p0, 0.01, spec, huge, problem, states, EXP, COMP)
