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
    to_dense,
)
from dresplit import lowrank

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

    def test_merge_decisions(self, rng):
        basis = rng.standard_normal((5, 2))
        core = np.eye(2)

        def merged(a, b):
            terms = [(1.0, LDLTFactor._trusted(a, core)), (1.0, LDLTFactor._trusted(b, core))]
            return len(lowrank._merge(terms, None)[0]) == 1

        signed_zero, tail = basis.copy(), basis.copy()
        signed_zero[0, 0] = 0.0
        tail[-1, -1] += 1.0
        nan = basis.copy()
        nan[0, 0] = np.nan
        negative_zero = signed_zero.copy()
        negative_zero[0, 0] = -0.0
        assert merged(basis, basis)
        assert merged(basis, basis.copy())
        assert merged(signed_zero, negative_zero)
        assert merged(nan, nan)  # the same array merges by identity
        assert not merged(nan, nan.copy())
        assert not merged(basis, tail)

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

    @pytest.mark.parametrize("tol", [np.nan, -1e-3])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidInput, match="rel_tol"):
            CompressionOptions(rel_tol=tol)

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

    # Four eigenvalues of equal magnitude: the cumulative energies are m,
    # sqrt(2) m, sqrt(3) m, 2 m, with m the magnitude after scaling, and the
    # budget rel_tol * total meets the first at 0.5 and the last at 1.0
    # exactly.  A tie drops the pair (inclusive comparison); a tolerance one
    # ulp lower keeps it.  The scaling keeps the decisions at 1e200, whose
    # squares overflow, and at 1e-200, whose squares underflow.
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("tol, rank", [(0.5, 3), (np.nextafter(0.5, 0.0), 4),
                                           (1.0, 0), (np.nextafter(1.0, 0.0), 1)])
    def test_budget_tie_decisions(self, scale, tol, rank):
        f = LDLTFactor(np.eye(6)[:, :4], scale * np.diag([1.0, -1.0, -1.0, 1.0]))
        out = compress(f, CompressionOptions(rel_tol=tol))
        assert out.rank == rank
        assert np.array_equal(np.abs(np.diag(out.D)), np.full(rank, scale))

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
    """combine with estimate weights (the additive step's shared QR)
    against two separate combinations."""

    def test_matches_combine_and_frob_norm(self, rng):
        shared = rng.standard_normal((12, 3))
        factors = [random_factor(rng, 12, 3), LDLTFactor(shared, np.eye(3)),
                   LDLTFactor(shared.copy(), np.diag([1.0, -2.0, 3.0])),
                   LDLTFactor.zero(12), random_factor(rng, 12, 2)]
        gamma = [0.5, -1.5, 2.0, 1.0, 0.25]
        alpha = [0.1, 0.3, -0.2, 7.0, -0.05]
        nxt, est = combine(zip(gamma, factors), CompressionOptions(), alpha)
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
        nxt, est = combine(zip(gamma, factors), CompressionOptions(), alpha)
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
        nxt, est = combine([(1.0, f), (-1.0, g)], CompressionOptions(), [1.0, 1.0])
        assert nxt.rank == 0 and nxt.n == 8
        expected = frob_norm(combine([(1.0, f), (1.0, g)]))
        assert expected > 0.0
        assert abs(est - expected) <= 1e-14 * expected

    def test_all_cores_zero(self, rng):
        f = random_factor(rng, 8, 2)
        nxt, est = combine([(1.0, f), (-1.0, f)], CompressionOptions(), [2.0, -2.0])
        assert nxt.rank == 0 and nxt.n == 8 and est == 0.0

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_estimate_weights_one_per_term(self, rng, count):
        terms = [(1.0, random_factor(rng, 8, 2)), (0.5, random_factor(rng, 8, 3))]
        with pytest.raises(InvalidInput, match=f"{count} estimate weights for 2 terms"):
            combine(terms, CompressionOptions(), [1.0] * count)

    def test_nonfinite_alpha_core_rejected(self, rng):
        f = random_factor(rng, 8, 3)
        big = np.finfo(np.float64).max
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor, match="norm"):
            combine([(1.0, f), (1.0, random_factor(rng, 8, 2))], CompressionOptions(),
                    [big, 1.0])


def _qr_reference(terms, opts=CompressionOptions()):
    """The sum compressed through the thin QR of its stacked basis: distinct
    bases with unit weights, so combine's QR branch would stack them as they
    are."""
    factor = LDLTFactor(np.hstack([f.L for _, f in terms]),
                        scipy.linalg.block_diag(*[w * f.D for w, f in terms]))
    return compress(factor, opts)


def _count_qrs(monkeypatch):
    calls = []
    real = lowrank.lapack.dgeqrf
    monkeypatch.setattr(lowrank.lapack, "dgeqrf",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


class TestSaturatedCombine:
    """At N or more stacked columns combine compresses the N x N sum itself
    (Q = I) instead of taking a QR of the stacked basis."""

    # Stacked widths c = N and c > N of N = 6.
    WIDTHS = [(3, 3), (4, 3, 2)]

    def terms(self, rng, widths, n=6):
        weights = [0.5, -1.5, 2.0][: len(widths)]
        return [(w, random_factor(rng, n, r)) for w, r in zip(weights, widths)]

    @pytest.mark.parametrize("widths", WIDTHS)
    def test_agrees_with_the_qr_branch(self, rng, widths):
        terms = self.terms(rng, widths)
        out = combine(terms)
        ref = _qr_reference(terms)
        assert out.rank == ref.rank == 6
        p_ref = to_dense(ref)
        assert np.linalg.norm(to_dense(out) - p_ref) <= 1e-14 * np.linalg.norm(p_ref)
        gap = np.abs(np.diag(out.D) - np.diag(ref.D)).max()
        assert gap <= 1e-13 * np.abs(ref.D).max()

    @pytest.mark.parametrize("widths", WIDTHS)
    @pytest.mark.parametrize("tol", [0.3, 1e-2, 1e-6, 0.0])
    def test_compression_contract(self, rng, widths, tol):
        terms = self.terms(rng, widths)
        out = combine(terms, CompressionOptions(rel_tol=tol))
        p_in = sum(w * to_dense(f) for w, f in terms)
        w = np.linalg.eigvalsh(p_in)
        err = np.linalg.norm(p_in - to_dense(out))
        assert err <= tol * np.sqrt(np.sum(w**2)) + 1e-14 * np.linalg.norm(p_in)
        assert out.rank <= 6 and out.L.shape == (6, out.rank)
        assert np.count_nonzero(out.D - np.diag(np.diag(out.D))) == 0
        assert np.allclose(out.L.T @ out.L, np.eye(out.rank), atol=1e-14)
        if tol == 0.0:
            assert out.rank == 6

    def test_bitwise_cancellation_gives_rank_zero(self, rng):
        # Weights 3 and -1 on D and 3 D: the merged core 3 D - 3 D is zero.
        basis, core = rng.standard_normal((4, 5)), random_factor(rng, 5, 5).D
        terms = [(3.0, LDLTFactor(basis, core)), (-1.0, LDLTFactor(basis.copy(), 3.0 * core))]
        assert combine(terms).rank == 0
        # An estimate that does not cancel keeps the basis: the sum is then
        # taken over the saturated basis and is exactly zero.
        nxt, est = combine(terms, CompressionOptions(), [1.0, 1.0])
        assert nxt.rank == 0 and nxt.n == 4
        expected = frob_norm(combine([(1.0, LDLTFactor(basis, 4.0 * core))]))
        assert abs(est - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("widths", WIDTHS)
    def test_estimate_weights(self, rng, widths):
        terms = self.terms(rng, widths)
        factors = [f for _, f in terms]
        alpha = [0.1, 0.3, -0.2][: len(factors)]
        nxt, est = combine(terms, CompressionOptions(), alpha)
        ref = combine(terms)
        assert nxt.L.tobytes() == ref.L.tobytes() and nxt.D.tobytes() == ref.D.tobytes()
        expected = frob_norm(combine(zip(alpha, factors)))
        assert abs(est - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("widths, qrs", [((2, 3), 1), ((3, 3), 0), ((4, 3, 2), 0)])
    def test_qr_only_below_n_columns(self, rng, monkeypatch, widths, qrs):
        terms = self.terms(rng, widths)
        calls = _count_qrs(monkeypatch)
        combine(terms)
        assert len(calls) == qrs
        combine(terms, CompressionOptions(), [1.0] * len(terms))
        assert len(calls) == 2 * qrs

    def test_below_n_columns_keeps_the_qr_bits(self, rng):
        terms = self.terms(rng, (2, 3))
        out, ref = combine(terms), _qr_reference(terms)
        assert out.L.tobytes() == ref.L.tobytes() and out.D.tobytes() == ref.D.tobytes()

    # The same messages on both branches: c < N takes the QR, c >= N not.
    @pytest.mark.parametrize("widths", [(2, 3), (3, 3), (4, 3, 2)])
    def test_nonfinite_sum_names_the_stacked_width(self, rng, widths):
        terms = self.terms(rng, widths)
        big = np.finfo(np.float64).max
        terms[0] = (big, terms[0][1])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=rf"^cannot compress a rank-{sum(widths)} factor of "
                                    r"dimension 6: its core is not finite$"):
            combine(terms)

    @pytest.mark.parametrize("widths", [(2, 3), (3, 3), (4, 3, 2)])
    def test_nonfinite_estimate_names_the_estimate(self, rng, widths):
        terms = self.terms(rng, widths)
        alpha = [np.finfo(np.float64).max] + [1.0] * (len(terms) - 1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=rf"^cannot take the norm of the estimate, a "
                                    rf"rank-{sum(widths)} factor of dimension 6: "
                                    r"its core is not finite$"):
            combine(terms, CompressionOptions(), alpha)


class TestUncompressedSum:
    """combine(..., truncate=False) returns a sum of N or more columns as its
    symmetrized N x N core on the shared identity basis, and compresses a
    narrower one as usual; compress takes that identity basis with no QR."""

    terms = TestSaturatedCombine.terms

    @pytest.mark.parametrize("widths", TestSaturatedCombine.WIDTHS)
    def test_full_width_sum_is_its_core_on_the_identity(self, rng, widths, monkeypatch):
        terms = self.terms(rng, widths)
        calls = _count_qrs(monkeypatch)
        out = combine(terms, truncate=False)
        assert out.L is lowrank.identity_basis(6) and not out.L.flags.writeable
        p_in = sum(w * to_dense(f) for w, f in terms)
        assert np.linalg.norm(out.D - p_in) <= 1e-14 * np.linalg.norm(p_in)
        assert out.D.tobytes() == out.D.T.tobytes()
        assert calls == []

    def test_narrow_sum_keeps_the_compressed_bits(self, rng):
        terms = self.terms(rng, (2, 3))
        out, ref = combine(terms, truncate=False), combine(terms)
        assert out.L.tobytes() == ref.L.tobytes() and out.D.tobytes() == ref.D.tobytes()

    @pytest.mark.parametrize("widths", TestSaturatedCombine.WIDTHS)
    def test_compressing_the_core_gives_the_compressed_sum(self, rng, widths, monkeypatch):
        # compress on the identity truncates the core as it is: the bits of
        # combine's own compression and of a QR of an equal basis.
        terms = self.terms(rng, widths)
        dense = combine(terms, truncate=False)
        calls = _count_qrs(monkeypatch)
        out = compress(dense)
        assert calls == []
        via_qr = compress(LDLTFactor(np.eye(6), dense.D))
        for ref in (combine(terms), via_qr):
            assert out.L.tobytes() == ref.L.tobytes() and out.D.tobytes() == ref.D.tobytes()

    def test_identity_terms_merge(self, rng):
        core = random_factor(rng, 6, 6).D
        ident = LDLTFactor._trusted(lowrank.identity_basis(6), core)
        out = combine([(2.0, ident), (-0.5, ident)])
        ref = compress(LDLTFactor._trusted(lowrank.identity_basis(6), 1.5 * core))
        assert out.L.tobytes() == ref.L.tobytes() and out.D.tobytes() == ref.D.tobytes()

    @pytest.mark.parametrize("widths", TestSaturatedCombine.WIDTHS)
    def test_nonfinite_sum_reads_as_a_compressed_one(self, rng, widths):
        terms = self.terms(rng, widths)
        terms[0] = (np.finfo(np.float64).max, terms[0][1])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteFactor,
                              match=rf"^cannot compress a rank-{sum(widths)} factor of "
                                    r"dimension 6: its core is not finite$"):
            combine(terms, truncate=False)


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
