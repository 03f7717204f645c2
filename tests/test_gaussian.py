"""Gaussian primitive tests: whitening, KL divergence, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftwin.errors import DimensionMismatch, SingularCovariance
from difftwin.gaussian import (
    GaussianEstimate,
    LinearObservation,
    kl_divergence_bits,
    project,
    whitening_from_cov,
)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def kl_nats_reference(mu0, cov0, mu1, cov1):
    """Independent closed-form Gaussian KL, written directly from the
    textbook formula with explicit inverse and determinants."""
    k = len(mu0)
    inv1 = np.linalg.inv(cov1)
    tr = np.trace(inv1 @ cov0)
    diff = np.asarray(mu1) - np.asarray(mu0)
    maha = diff @ inv1 @ diff
    logdet = np.log(np.linalg.det(cov1)) - np.log(np.linalg.det(cov0))
    return 0.5 * (tr + maha - k + logdet)


class TestGaussianEstimate:
    def test_symmetrizes_on_construction(self):
        cov = np.array([[1.0, 0.2 + 1e-12], [0.2, 1.0]])
        est = GaussianEstimate([0.0, 0.0], cov)
        assert np.array_equal(est.cov, est.cov.T)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianEstimate([0.0, 0.0], np.eye(3))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularCovariance):
            GaussianEstimate([0.0, 0.0], np.diag([1.0, -1e-3]))

    def test_allows_degenerate_psd(self):
        est = GaussianEstimate([0.0, 0.0], np.diag([1.0, 0.0]))
        assert est.dim == 2


def with_eigenvalues(rng, eigs):
    """Symmetric matrix with the given spectrum in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    return q @ np.diag(eigs) @ q.T


def eigvalsh_verdict(cov):
    """The eigenvalue rule the factorization check replaced: accept unless the
    smallest eigenvalue is below -1e-10 times the largest."""
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    return not eigs[0] < -1e-10 * max(max(eigs[-1], 0.0), 1e-300)


def accepted(cov):
    try:
        GaussianEstimate(np.zeros(cov.shape[0]), cov)
    except SingularCovariance:
        return False
    return True


class TestFactorizationCheck:
    @pytest.mark.parametrize(
        "cov",
        [
            np.zeros((3, 3)),
            np.diag([1.0, 0.0]),
            with_eigenvalues(np.random.default_rng(1), [-1e-13, 0.25, 0.5, 1.0]),
        ],
        ids=["zero", "diag-1-0", "min-eig-minus-1e-13-max"],
    )
    def test_accepts_psd_and_round_off_negative(self, cov):
        assert accepted(cov)

    def test_rejection_reports_eigenvalues(self):
        with pytest.raises(SingularCovariance, match=r"min eigenvalue -1\.000e-03 vs max 1\.000e\+00"):
            GaussianEstimate([0.0, 0.0], np.diag([1.0, -1e-3]))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 68),
        kind=st.sampled_from(["symmetric", "psd", "low-rank", "negative-tail"]),
    )
    def test_agrees_with_eigvalsh_outside_the_tolerance_band(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "symmetric":
            a = rng.standard_normal((n, n))
            cov = a + a.T
        elif kind == "psd":
            cov = with_eigenvalues(rng, 10.0 ** rng.uniform(-8, 8, n))
        elif kind == "low-rank":
            a = rng.standard_normal((n, int(rng.integers(0, n + 1))))
            cov = a @ a.T
        else:
            eigs = rng.uniform(0.0, 1.0, n)
            eigs[0] = -(10.0 ** rng.uniform(-13, 0)) * eigs.sum()
            cov = with_eigenvalues(rng, eigs)
        eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if 0.0 <= eigs[0] or eigs[0] < -1e-10 * np.trace(cov):
            assert accepted(cov) == eigvalsh_verdict(cov)


class TestLinearObservation:
    def test_rejects_rank_deficient_matrix(self):
        value = GaussianEstimate([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            LinearObservation([[1.0, 0.0], [1.0, 0.0]], value)

    def test_accepts_full_row_rank(self):
        value = GaussianEstimate([1.0], np.eye(1))
        obs = LinearObservation([[1.0, 1.0, 0.0]], value)
        assert obs.out_dim == 1 and obs.state_dim == 3

    def test_with_value_shares_checked_rows(self, monkeypatch):
        obs = LinearObservation([[1.0, 1.0, 0.0]], GaussianEstimate([1.0], np.eye(1)))
        ranks = []
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda *a, **k: ranks.append(a))
        other = obs.with_value(GaussianEstimate([2.0], 3.0 * np.eye(1)))
        assert other.matrix is obs.matrix and not ranks
        assert other.value.mean[0] == 2.0
        with pytest.raises(DimensionMismatch):
            obs.with_value(GaussianEstimate([1.0, 2.0], np.eye(2)))


class TestWithMean:
    def test_shares_covariance_and_its_cache(self):
        est = GaussianEstimate([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        est.cov_cache["whitening"] = "cached"
        moved = est.with_mean([3.0, 4.0])
        assert moved.cov is est.cov and moved.cov_cache is est.cov_cache
        np.testing.assert_array_equal(moved.mean, [3.0, 4.0])
        assert not moved.mean.flags.writeable
        assert est.mean[0] == 1.0

    def test_rejects_wrong_dimension_and_non_finite_mean(self):
        est = GaussianEstimate([1.0, 2.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            est.with_mean([1.0])
        with pytest.raises(ValueError):
            est.with_mean([np.nan, 0.0])


class TestWhitening:
    def test_identity(self):
        np.testing.assert_allclose(whitening_from_cov(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        L = whitening_from_cov(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(L, np.diag([0.5, 1.0 / 3.0]), rtol=1e-9)

    def test_random_spd_4x4_inverse_oracle(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 4)
        L = whitening_from_cov(a)
        np.testing.assert_allclose(L.T @ L @ a, np.eye(4), atol=1e-8)

    def test_round_trip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 8)
            gamma = random_spd(rng, int(n), scale=10.0 ** rng.integers(-3, 3))
            L = whitening_from_cov(gamma)
            recon = np.linalg.inv(L.T @ L)
            err = np.linalg.norm(recon - gamma) / np.linalg.norm(gamma)
            assert err <= 1e-8

    def test_singular_rejected(self):
        with pytest.raises(SingularCovariance):
            whitening_from_cov(np.diag([1.0, 0.0]))
        with pytest.raises(SingularCovariance):
            whitening_from_cov(np.diag([1.0, 1e-14]))


class TestKlDivergence:
    def test_identical_is_zero(self):
        est = GaussianEstimate([1.0, -2.0], np.diag([2.0, 3.0]))
        assert kl_divergence_bits(est, est) == 0.0

    def test_1d_closed_form(self):
        p = GaussianEstimate([0.0], [[1.0]])
        q = GaussianEstimate([1.0], [[1.0]])
        # tolerance leaves room for the documented 1e-10 trace regularization
        assert kl_divergence_bits(p, q) == pytest.approx(0.5 / math.log(2.0), rel=1e-9)

    def test_2d_vs_reference_formula(self):
        p = GaussianEstimate([0.0, 0.0], np.eye(2))
        q = GaussianEstimate([0.0, 0.0], 2.0 * np.eye(2))
        want = kl_nats_reference(p.mean, p.cov, q.mean, q.cov) / math.log(2.0)
        assert kl_divergence_bits(p, q) == pytest.approx(want, rel=1e-10)

    def test_random_vs_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            q = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            want = kl_nats_reference(p.mean, p.cov, q.mean, q.cov) / math.log(2.0)
            assert kl_divergence_bits(p, q) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_nonnegative_zero_only_at_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            q = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            kl = kl_divergence_bits(p, q)
            assert kl >= 0.0
            if kl <= 1e-12:
                np.testing.assert_allclose(p.mean, q.mean, atol=1e-5)

    @pytest.mark.parametrize("n", [38, 54, 68])
    def test_fusion_dims_vs_reference(self, n):
        rng = np.random.default_rng(n)

        def regularized(cov):
            # The oracle sees the documented transient 1e-10 * trace / n shift.
            return cov + 1e-10 * np.trace(cov) / n * np.eye(n)

        for _ in range(5):
            p = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            q = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            want = kl_nats_reference(
                p.mean, regularized(p.cov), q.mean, regularized(q.cov)
            ) / math.log(2.0)
            assert kl_divergence_bits(p, q) == pytest.approx(want, rel=1e-10)
            assert kl_divergence_bits(p, GaussianEstimate(p.mean, p.cov)) == 0.0

    def test_dimension_mismatch(self):
        p = GaussianEstimate([0.0], [[1.0]])
        q = GaussianEstimate([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            kl_divergence_bits(p, q)


class TestProject:
    def test_identity(self):
        est = GaussianEstimate([1.0, 2.0], np.diag([1.0, 4.0]))
        out = project(est, np.eye(2))
        np.testing.assert_allclose(out.mean, est.mean)
        np.testing.assert_allclose(out.cov, est.cov)

    def test_leading_block_cut(self):
        rng = np.random.default_rng(2)
        est = GaussianEstimate(rng.standard_normal(6), random_spd(rng, 6))
        m = np.hstack([np.eye(3), np.zeros((3, 3))])
        out = project(est, m)
        np.testing.assert_allclose(out.mean, est.mean[:3])
        np.testing.assert_allclose(out.cov, est.cov[:3, :3])

    def test_marginal_of_diagonal(self):
        est = GaussianEstimate([1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
        out = project(est, np.array([[0.0, 1.0, 0.0]]))
        assert out.mean[0] == 2.0 and out.cov[0, 0] == 2.0

    def test_preserves_psd_property(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m_rows = int(rng.integers(1, n + 1))
            est = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
            m = rng.standard_normal((m_rows, n))
            out = project(est, m)
            assert np.linalg.eigvalsh(out.cov)[0] >= -1e-10 * max(
                np.linalg.eigvalsh(out.cov)[-1], 1e-30
            )
