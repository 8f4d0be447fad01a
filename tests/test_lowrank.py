import numpy as np
import pytest

from dresplit import (
    CompressionOptions,
    InvalidInput,
    LDLTFactor,
    NonFiniteFactor,
    RefusedDense,
    combine,
    compress,
    frob_norm,
    interpolate,
    to_dense,
)

from conftest import random_factor


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


class TestCombine:
    def test_exact_cancellation_gives_rank_zero(self, rng):
        f = random_factor(rng, 6, 3)
        out = combine([(1.0, f), (-1.0, f)])
        assert out.rank == 0

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
