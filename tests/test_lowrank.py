import numpy as np
import pytest
import scipy.linalg

from dresplit import (
    CompressionOptions,
    InvalidInput,
    LDLTFactor,
    NonFiniteFactor,
    RefusedDense,
    SchemeSpec,
    combine,
    compress,
    frob_norm,
    generate_problem,
    integrate_fixed,
    interpolate,
    to_dense,
)
from dresplit import lowrank
from dresplit.lowrank import _combine_and_norm

from conftest import random_factor


def reference_compress(factor, tol):
    """compress through scipy's QR and divide-and-conquer eigensolver
    drivers, which size the LAPACK workspace optimally and, as asked here,
    read the lower triangle."""
    q, r = scipy.linalg.qr(factor.L, mode="economic")
    core = r @ factor.D @ r.T
    core = 0.5 * (core + core.T)
    eigvals, eigvecs = scipy.linalg.eigh(core, lower=True, driver="evd")
    mag = np.abs(eigvals)
    order = np.argsort(mag, kind="stable")
    scaled = np.ldexp(eigvals, -np.frexp(mag.max())[1])
    total = float(np.sqrt(np.sum(scaled**2)))
    cumulative = np.sqrt(np.cumsum(scaled[order] ** 2))
    n_drop = int(np.searchsorted(cumulative, tol * total, side="right"))
    keep = order[n_drop:][::-1]
    return q @ eigvecs[:, keep], np.diag(eigvals[keep])


class TestFactor:
    def test_core_symmetrized_on_construction(self):
        f = LDLTFactor(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(f.D, f.D.T)

    def test_zero_factor(self):
        z = LDLTFactor.zero(5)
        assert z.rank == 0 and z.n == 5
        assert np.array_equal(to_dense(z), np.zeros((5, 5)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            LDLTFactor(np.ones((3, 2)), np.eye(3))

    def test_vector_inputs_promoted(self):
        f = LDLTFactor(np.array([1.0, 1.0]), np.array(2.0))
        assert f.L.shape == (2, 1) and f.D.shape == (1, 1)

    def test_public_constructor_checks_and_symmetrizes(self):
        # The unchecked internal constructor must not leak into the public one.
        f = LDLTFactor(np.ones((3, 2), dtype=np.int64), [[1, 4], [0, 2]])
        assert f.L.dtype == np.float64 and f.D.dtype == np.float64
        assert np.array_equal(f.D, [[1.0, 2.0], [2.0, 2.0]])
        with pytest.raises(InvalidInput, match="square"):
            LDLTFactor(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(InvalidInput, match="2-D"):
            LDLTFactor(np.ones((3, 2, 1)), np.eye(2))
        with pytest.raises(InvalidInput, match="columns"):
            LDLTFactor(np.ones((3, 2)), np.eye(1))


class TestTrustedConstructor:
    """Factors built by the library skip the public constructor's checks;
    routing them back through it must not change a single bit."""

    @pytest.mark.parametrize("kind, n, stages", [("random_lowrank", 10, 3),
                                                 ("laplacian_lqr", 20, 2)])
    def test_checked_construction_gives_same_bits(self, monkeypatch, kind, n, stages):
        def run():
            return integrate_fixed(generate_problem(kind, n), SchemeSpec("sym", stages), 4).final

        trusted = run()
        calls = []

        def checked(cls, L, D):
            calls.append(1)
            return cls(L, D)

        monkeypatch.setattr(LDLTFactor, "_trusted", classmethod(checked))
        routed = run()
        assert calls
        assert routed.L.tobytes() == trusted.L.tobytes()
        assert routed.D.tobytes() == trusted.D.tobytes()


class TestCombine:
    def test_exact_cancellation_gives_rank_zero(self, rng):
        f = random_factor(rng, 6, 3)
        out = combine([(1.0, f), (-1.0, f)])
        assert out.rank == 0

    def test_bitwise_identical_bases_merge(self, rng):
        f = random_factor(rng, 6, 3)
        g = LDLTFactor(f.L.copy(), f.D.copy())
        assert combine([(1.0, f), (-1.0, g)]).rank == 0

    def test_scaling(self):
        f = LDLTFactor(np.array([[1.0], [1.0]]), np.array([[1.0]]))
        out = combine([(2.0, f)])
        assert np.allclose(to_dense(out), 2.0 * np.ones((2, 2)))

    def test_weighted_sum_matches_dense(self, rng):
        f1 = random_factor(rng, 8, 3)
        f2 = random_factor(rng, 8, 4)
        out = combine([(-1.0, f1), (2.0, f2)], CompressionOptions(rel_tol=0.0))
        expected = -to_dense(f1) + 2.0 * to_dense(f2)
        assert np.linalg.norm(to_dense(out) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInput):
            combine([(1.0, random_factor(rng, 4, 2)), (1.0, random_factor(rng, 5, 2))])

    def test_empty_terms_rejected(self):
        with pytest.raises(InvalidInput):
            combine([])

    def test_order_insensitive_values(self, rng):
        # Same fixed input order twice gives bitwise-identical output.
        terms = [(w, random_factor(rng, 6, 2)) for w in (0.5, -1.5, 2.0)]
        a = combine(terms)
        b = combine(terms)
        assert np.array_equal(a.L, b.L) and np.array_equal(a.D, b.D)


class TestCompress:
    def test_duplicate_columns_collapse(self, rng):
        v = rng.standard_normal((7, 1))
        f = LDLTFactor(np.hstack([v, v]), np.eye(2))
        out = compress(f)
        assert out.rank == 1
        assert np.allclose(to_dense(out), 2.0 * v @ v.T)

    def test_noop_below_spectrum(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        f = LDLTFactor(q, np.diag([4.0, -3.0, 2.0, 1.0]))
        out = compress(f, CompressionOptions(rel_tol=1e-3))
        assert out.rank == 4
        assert np.linalg.norm(to_dense(out) - to_dense(f)) <= 1e-14 * np.linalg.norm(to_dense(f))

    def test_reconstruction_bound_and_rank(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 33))
            r = int(rng.integers(1, min(n, 12) + 1))
            f = random_factor(rng, n, r)
            tol = float(rng.choice([1e-4, 1e-6, 1e-8]))
            out = compress(f, CompressionOptions(rel_tol=tol))
            p_in = to_dense(f)
            assert out.rank <= f.rank
            assert np.linalg.norm(p_in - to_dense(out)) <= tol * np.linalg.norm(p_in)
            assert np.count_nonzero(out.D - np.diag(np.diag(out.D))) == 0

    def test_roundtrip_tol_zero(self, rng):
        f = random_factor(rng, 10, 5)
        out = compress(f, CompressionOptions(rel_tol=0.0))
        assert np.linalg.norm(to_dense(out) - to_dense(f)) <= 1e-13 * np.linalg.norm(to_dense(f))

    @pytest.mark.parametrize("scale", [1e200, np.nan])
    def test_large_core_kept_nonfinite_core_rejected(self, rng, scale):
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        f = LDLTFactor(q, scale * np.eye(2))
        if np.isnan(scale):
            with pytest.raises(NonFiniteFactor):
                compress(f)
            return
        out = compress(f)
        assert out.rank == 2
        p = q @ q.T
        assert np.linalg.norm(to_dense(out) / scale - p) <= 1e-13 * np.linalg.norm(p)

    def test_eigendecomposition_oracle(self, rng):
        f = random_factor(rng, 10, 6)
        tol = 1e-8
        out = compress(f, CompressionOptions(rel_tol=tol))
        w = np.linalg.eigvalsh(to_dense(f))
        err = np.linalg.norm(to_dense(f) - to_dense(out))
        assert err <= tol * np.sqrt(np.sum(w**2))


    # 200 x 200 and 200 x 260 exceed the blocking crossover of LAPACK's QR,
    # where too small a workspace changes the bits of Q and R.
    @pytest.mark.parametrize("shape", [(10, 20), (10, 7), (400, 46), (200, 200), (200, 260)])
    def test_bits_match_reference_drivers(self, rng, shape):
        f = random_factor(rng, *shape)
        for tol in (None, 1e-6):
            opts = CompressionOptions(rel_tol=tol)
            out = compress(f, opts)
            ref_l, ref_d = reference_compress(f, opts.resolve_tol(f.n))
            assert out.L.tobytes() == ref_l.tobytes()
            assert out.D.tobytes() == ref_d.tobytes()

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr", "dsyevd"])
    def test_lapack_failure_raises(self, rng, monkeypatch, routine):
        real = getattr(lowrank.lapack, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(lowrank.lapack, routine, failing)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            compress(random_factor(rng, 10, 4))


class TestCombineAndNorm:
    """The additive step's shared QR against two separate combinations."""

    def test_matches_combine_and_frob_norm(self, rng):
        shared = rng.standard_normal((12, 3))
        factors = [random_factor(rng, 12, 3), LDLTFactor(shared, np.eye(3)),
                   LDLTFactor(shared.copy(), np.diag([1.0, -2.0, 3.0])),
                   LDLTFactor.zero(12), random_factor(rng, 12, 2)]
        gamma = [0.5, -1.5, 2.0, 1.0, 0.25]
        alpha = [0.1, 0.3, -0.2, 7.0, -0.05]
        nxt, est = _combine_and_norm(factors, gamma, alpha, CompressionOptions())
        ref = combine(zip(gamma, factors))
        assert nxt.L.tobytes() == ref.L.tobytes() and nxt.D.tobytes() == ref.D.tobytes()
        expected = frob_norm(combine(zip(alpha, factors)))
        assert abs(est - expected) <= 1e-14 * expected

    def test_alpha_live_where_gamma_cancels(self, rng):
        # The gamma sum cancels exactly on a merged basis that the alpha sum
        # keeps; that basis stays in the stack with a zero gamma block.
        f = random_factor(rng, 8, 2)
        g = LDLTFactor(f.L.copy(), f.D)
        h = random_factor(rng, 8, 3)
        factors, gamma, alpha = [f, g, h], [1.0, -1.0, 0.5], [1.0, 1.0, -0.25]
        nxt, est = _combine_and_norm(factors, gamma, alpha, CompressionOptions())
        ref = combine(zip(gamma, factors))
        assert nxt.rank == ref.rank == 3
        diff = np.linalg.norm(to_dense(nxt) - to_dense(ref))
        assert diff <= 1e-14 * np.linalg.norm(to_dense(ref))
        expected = frob_norm(combine(zip(alpha, factors)))
        assert expected > 0.0
        assert abs(est - expected) <= 1e-14 * expected

    def test_gamma_cancels_everywhere(self, rng):
        f = random_factor(rng, 8, 2)
        g = LDLTFactor(f.L.copy(), f.D)
        nxt, est = _combine_and_norm([f, g], [1.0, -1.0], [1.0, 1.0], CompressionOptions())
        assert nxt.rank == 0 and nxt.n == 8
        expected = frob_norm(combine([(1.0, f), (1.0, g)]))
        assert expected > 0.0
        assert abs(est - expected) <= 1e-14 * expected

    def test_all_cores_zero(self, rng):
        f = random_factor(rng, 8, 2)
        nxt, est = _combine_and_norm([f, f], [1.0, -1.0], [2.0, -2.0], CompressionOptions())
        assert nxt.rank == 0 and nxt.n == 8 and est == 0.0

    def test_nonfinite_alpha_core_rejected(self, rng):
        f = random_factor(rng, 8, 3)
        big = np.finfo(np.float64).max
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor, match="norm"):
            _combine_and_norm([f, random_factor(rng, 8, 2)], [1.0, 1.0], [big, 1.0],
                              CompressionOptions())


class TestFrobNorm:
    def test_diagonal(self):
        assert frob_norm(LDLTFactor(np.eye(2), np.diag([3.0, 4.0]))) == pytest.approx(5.0)

    def test_rank_one(self):
        f = LDLTFactor(np.array([[1.0], [1.0]]), np.array([[2.0]]))
        assert frob_norm(f) == pytest.approx(4.0)

    def test_matches_dense(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 33))
            r = int(rng.integers(1, min(n, 8) + 1))
            f = random_factor(rng, n, r)
            dense = np.linalg.norm(to_dense(f))
            assert frob_norm(f) == pytest.approx(dense, rel=1e-12)

    def test_zero(self):
        assert frob_norm(LDLTFactor.zero(4)) == 0.0

    def test_large_norm_finite(self):
        # ||P||_F ~ 7e160: the squared trace terms overflow unless scaled.
        l_mat = np.random.default_rng(0).standard_normal((6, 2))
        unit = frob_norm(LDLTFactor(l_mat, np.diag([1.0, 2.0])))
        big = frob_norm(LDLTFactor(l_mat, np.diag([1e160, 2e160])))
        assert np.isfinite(big)
        assert big == pytest.approx(1e160 * unit, rel=1e-14)

    @pytest.mark.parametrize("basis, core, norm", [(1e160, 1e-300, 1e21),
                                                   (1e-160, 1e300, 1e-19)])
    def test_extreme_basis_with_compensating_core(self, basis, core, norm):
        # L^T L overflows (or underflows) unless L is scaled before the Gram
        # matrix is formed, although the product itself is of moderate size.
        f = LDLTFactor(basis * np.ones((5, 2)), core * np.eye(2))
        assert frob_norm(f) == pytest.approx(norm, rel=1e-14)
        assert frob_norm(f) == pytest.approx(frob_norm(compress(f)), rel=1e-14)

    @pytest.mark.parametrize("where", ["basis", "core"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_raises(self, rng, where, value):
        f = random_factor(rng, 6, 2)
        l_mat, core = f.L.copy(), f.D.copy()
        (l_mat if where == "basis" else core)[1, 1] = value
        with pytest.raises(NonFiniteFactor, match="not finite"):
            frob_norm(LDLTFactor(l_mat, core))

    def test_scaling_exact_in_normal_range(self, rng):
        for _ in range(20):
            f = random_factor(rng, 12, 4)
            t = f.L.T @ f.L @ f.D
            assert frob_norm(f) == float(np.sqrt(np.sum(t * t.T)))


class TestInterpolate:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_endpoints_and_midpoint(self, rng, alpha):
        f1 = random_factor(rng, 6, 3)
        f2 = random_factor(rng, 6, 2)
        out = interpolate(f1, f2, alpha, CompressionOptions(rel_tol=0.0))
        expected = alpha * to_dense(f1) + (1 - alpha) * to_dense(f2)
        assert np.allclose(to_dense(out), expected, atol=1e-13)

    def test_same_factor_midpoint(self, rng):
        f = random_factor(rng, 5, 3)
        out = interpolate(f, f, 0.5)
        assert np.linalg.norm(to_dense(out) - to_dense(f)) <= 1e-14 * np.linalg.norm(to_dense(f))

    def test_alpha_out_of_range(self, rng):
        with pytest.raises(InvalidInput):
            interpolate(random_factor(rng, 4, 2), random_factor(rng, 4, 2), 1.5)


class TestToDense:
    def test_diag(self):
        f = LDLTFactor(np.eye(3), np.diag([1.0, -2.0, 3.0]))
        assert np.array_equal(to_dense(f), np.diag([1.0, -2.0, 3.0]))

    def test_exactly_symmetric(self, rng):
        x = to_dense(random_factor(rng, 12, 5))
        assert np.array_equal(x, x.T)

    def test_guard(self):
        f = LDLTFactor.zero(4097)
        with pytest.raises(RefusedDense):
            to_dense(f)
