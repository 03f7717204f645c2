"""Residual rows for fusion: nonlinear models and constant linear rows.

A nonlinear model exposes out_dim, noise_cov, evaluate(x) and jacobian(x)
over the concatenated per-step state [x_next; x_cur]. Models are immutable
after construction and evaluation is pure; fusion keeps the whitening of
noise_cov on the model object.

Constant rows A x with zero-mean Gaussian row noise are not models: their
builders return one LinearObservation, the same type as prior, parameter,
sensor and communication rows, and `stack_rows` joins several of them.
"""

from __future__ import annotations

import numpy as np

from ..gaussian import GaussianEstimate, LinearObservation


class DifferentiableModel:
    """Base: residual rows f(x) with analytic Jacobian and noise covariance."""

    out_dim: int
    noise_cov: np.ndarray

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def linear_rows(matrix, noise_cov) -> LinearObservation:
    """Rows A x observed as zero with noise covariance noise_cov."""
    return LinearObservation(matrix, GaussianEstimate(np.zeros(len(matrix)), noise_cov))


def stack_rows(blocks) -> LinearObservation:
    """Vertical stack of row blocks with block-diagonal noise."""
    out_dim = sum(b.out_dim for b in blocks)
    cov = np.zeros((out_dim, out_dim))
    off = 0
    for b in blocks:
        m = b.out_dim
        cov[off : off + m, off : off + m] = b.value.cov
        off += m
    return linear_rows(np.vstack([b.matrix for b in blocks]), cov)


def fd_jacobian(model: DifferentiableModel, x, h=1e-6) -> np.ndarray:
    """Central finite-difference Jacobian, the conformance oracle for
    every concrete model's analytic jacobian()."""
    x = np.asarray(x, dtype=float)
    jac = np.zeros((model.out_dim, x.shape[0]))
    for k in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (model.evaluate(xp) - model.evaluate(xm)) / (2.0 * h)
    return jac
