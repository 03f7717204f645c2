"""Dense Gaussian primitives: estimates, whitening, KL divergence, projection.

All covariances are plain dense float64 arrays. Symmetry is enforced by
symmetrization at construction; near-singular matrices are regularized only
inside whitening and KL, never in stored state.

Every GaussianEstimate is checked when it is built, by one factorization:
the covariance is accepted when cov + tau I has a Cholesky factor, with
tau = 1e-10 * trace(cov) (at least 1e-300). A positive semi-definite
covariance, singular ones included, always passes; one whose smallest
eigenvalue lies below -1e-10 * trace(cov) never does.

What is derived from a covariance alone, such as the whitening that
fusion caches there, is shared by every estimate that `with_mean` makes
from it; `LinearObservation.with_value` likewise reuses rows whose rank
was checked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularCovariance

# Relative eigenvalue floor below which a covariance counts as singular.
_SINGULAR_RTOL = 1e-12
# Regularization scale used transiently inside whitening and KL.
_REG_RTOL = 1e-10
# Diagonal shift, relative to the trace, under which an estimate's
# covariance must still have a Cholesky factor.
_PSD_RTOL = 1e-10


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    return v.reshape(-1)


def _as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def symmetrize(cov) -> np.ndarray:
    """Return (C + C^T)/2 as a fresh array."""
    c = _as_matrix(cov)
    if c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got {c.shape}")
    return 0.5 * (c + c.T)


@dataclass(frozen=True)
class GaussianEstimate:
    """Mean vector plus symmetric PSD covariance; the unit of exchanged state.

    The covariance is symmetrized on construction and validated by one
    Cholesky factorization of cov + tau I, tau = 1e-10 * max(trace(cov),
    1e-300): SingularCovariance, reporting the eigenvalue range, when that
    factorization fails. Every PSD covariance passes, and every covariance
    with an eigenvalue below -1e-10 * trace(cov) is rejected.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        mean = _as_vector(mean)
        cov = symmetrize(cov)
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch(
                f"mean has dim {mean.shape[0]} but cov is {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("GaussianEstimate requires finite mean and cov")
        shifted = cov.copy()
        shifted.flat[:: cov.shape[0] + 1] += _PSD_RTOL * max(float(np.trace(cov)), 1e-300)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(cov)
            raise SingularCovariance(
                f"covariance indefinite: min eigenvalue {eigs[0]:.3e} "
                f"vs max {max(eigs[-1], 0.0):.3e}"
            ) from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        self._set(mean, cov, {})

    def _set(self, mean, cov, cov_cache):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        # Operators derived from the covariance alone, keyed by name.
        object.__setattr__(self, "cov_cache", cov_cache)

    def with_mean(self, mean) -> GaussianEstimate:
        """This covariance around a new mean: the covariance is not checked
        again, and the two estimates share its cache."""
        mean = np.array(mean, dtype=float).reshape(-1)
        if mean.shape != self.mean.shape:
            raise DimensionMismatch(f"mean has dim {mean.shape[0]}, estimate dim is {self.dim}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("GaussianEstimate requires finite mean and cov")
        mean.setflags(write=False)
        est = object.__new__(GaussianEstimate)
        est._set(mean, self.cov, self.cov_cache)
        return est

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GaussianEstimate):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(
            self.cov, other.cov
        )


@dataclass(frozen=True)
class LinearObservation:
    """A linear view M x of the state with a Gaussian value for M x.

    M must have full row rank; rank-deficient observation matrices are
    rejected at construction.
    """

    matrix: np.ndarray
    value: GaussianEstimate

    def __init__(self, matrix, value: GaussianEstimate):
        m = _as_matrix(matrix)
        if m.shape[0] != value.dim:
            raise DimensionMismatch(
                f"observation matrix has {m.shape[0]} rows but value dim is {value.dim}"
            )
        if m.shape[0] > m.shape[1] or np.linalg.matrix_rank(m) < m.shape[0]:
            raise DimensionMismatch(
                f"observation matrix {m.shape} does not have full row rank"
            )
        m = m.copy()
        m.setflags(write=False)
        self._set(m, value)

    def _set(self, matrix, value):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "value", value)

    def with_value(self, value: GaussianEstimate) -> LinearObservation:
        """The same rows with a new value; their rank is not checked again."""
        if value.dim != self.out_dim:
            raise DimensionMismatch(
                f"observation matrix has {self.out_dim} rows but value dim is {value.dim}"
            )
        obs = object.__new__(LinearObservation)
        obs._set(self.matrix, value)
        return obs

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[1]


def _regularized(cov: np.ndarray) -> np.ndarray:
    n = cov.shape[0]
    eps = _REG_RTOL * np.trace(cov) / n
    if eps > 0.0:
        return cov + eps * np.eye(n)
    return cov


def whitening_from_cov(cov) -> np.ndarray:
    """Whitening operator L with L^T L = cov^{-1}.

    Convention: L is the inverse of the lower Cholesky factor C of the
    covariance (cov = C C^T, L = C^{-1}), so L is lower triangular and
    whitened residuals L(x - mu) have identity covariance.

    Raises SingularCovariance when the smallest eigenvalue is below
    1e-12 times the largest.
    """
    c = symmetrize(cov)
    eigs = np.linalg.eigvalsh(c)
    if eigs[0] <= _SINGULAR_RTOL * max(eigs[-1], 0.0) or eigs[-1] <= 0.0:
        raise SingularCovariance(
            f"covariance not invertible: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
    chol = np.linalg.cholesky(_regularized(c))
    n = c.shape[0]
    # Lower-triangular inverse by forward substitution on the identity.
    return np.linalg.solve(chol, np.eye(n))


def whitening_from_cov_fast(cov) -> np.ndarray:
    """Cholesky-based whitening without the eigenvalue precondition check.

    Internal hot path for fusion assembly; falls back to the checked
    variant (and its diagnostics) when the factorization fails.
    """
    c = symmetrize(cov)
    try:
        chol = np.linalg.cholesky(_regularized(c))
    except np.linalg.LinAlgError:
        return whitening_from_cov(c)
    return np.linalg.solve(chol, np.eye(c.shape[0]))


def kl_divergence_bits(p: GaussianEstimate, q: GaussianEstimate) -> float:
    """KL(p || q) between two Gaussians, in bits.

    Standard closed form in nats divided by ln 2. Both covariances are
    transiently regularized; result is clamped at zero against round-off,
    and is exactly zero for equal estimates.

    With Cholesky factors Sigma_p = C_p C_p^T and Sigma_q = C_q C_q^T, one
    solve Y = C_q^{-1} [C_p | mu_q - mu_p] gives both data terms:
    tr(Sigma_q^{-1} Sigma_p) is the squared Frobenius norm of Y's first k
    columns and the Mahalanobis term the squared norm of its last column.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    if p == q:
        return 0.0
    k = p.dim
    cov_p = _regularized(np.asarray(p.cov))
    cov_q = _regularized(np.asarray(q.cov))
    try:
        chol_q = np.linalg.cholesky(cov_q)
        chol_p = np.linalg.cholesky(cov_p)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"KL requires invertible covariances: {exc}") from exc
    y = np.linalg.solve(chol_q, np.column_stack([chol_p, q.mean - p.mean]))
    tr = float(np.sum(y[:, :k] ** 2))
    maha = float(y[:, k] @ y[:, k])
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(chol_p))))
    nats = 0.5 * (tr + maha - k + logdet_q - logdet_p)
    return max(nats, 0.0) / math.log(2.0)


def project(est: GaussianEstimate, matrix) -> GaussianEstimate:
    """Project an estimate through a linear map: (M mu, M Gamma M^T)."""
    m = _as_matrix(matrix)
    if m.shape[1] != est.dim:
        raise DimensionMismatch(
            f"projection matrix has {m.shape[1]} columns but estimate dim is {est.dim}"
        )
    return GaussianEstimate(m @ est.mean, m @ est.cov @ m.T)
