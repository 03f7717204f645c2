"""Small feed-forward network with analytic input Jacobian.

Used as the black-box magnetic-sorter model: inputs are the two
material-class input flows plus the magnet height, outputs the four
true/false-positive outlet flows. tanh hidden layers keep the forward map
smooth so the fusion's Gauss-Newton linearization is valid. Training is
plain full-batch Adam in numpy, bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingDiverged

# Training length of the sorter network, for `prepare_models` and the CLI.
MLP_EPOCHS = 4000
LEARNING_RATE = 1e-2  # Adam step size
VAL_FRACTION = 0.2  # share of the rows held out to estimate residual_cov


@dataclass
class MlpModel:
    """Affine-standardized tanh network y = W_n h_{n-1} + b_n."""

    weights: list  # per layer arrays (out, in)
    biases: list
    in_offset: np.ndarray
    in_scale: np.ndarray
    out_offset: np.ndarray
    out_scale: np.ndarray
    residual_cov: np.ndarray = field(default=None)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def hidden_widths(self):
        return tuple(w.shape[0] for w in self.weights[:-1])


def mlp_forward(mlp: MlpModel, u) -> np.ndarray:
    """Network output for one input vector (physical units in and out)."""
    z = (np.asarray(u, dtype=float) - mlp.in_offset) / mlp.in_scale
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        z = np.tanh(w @ z + b)
    y = mlp.weights[-1] @ z + mlp.biases[-1]
    return y * mlp.out_scale + mlp.out_offset


def mlp_jacobian(mlp: MlpModel, u) -> np.ndarray:
    """Analytic d(output)/d(input) through the tanh layers and the
    standardization affine maps."""
    z = (np.asarray(u, dtype=float) - mlp.in_offset) / mlp.in_scale
    jac = np.diag(1.0 / mlp.in_scale)
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        a = w @ z + b
        z = np.tanh(a)
        jac = (w * (1.0 - z**2)[:, None]) @ jac
    jac = mlp.weights[-1] @ jac
    return mlp.out_scale[:, None] * jac


def _forward_batch(weights, biases, z):
    acts = [z]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = np.tanh(z @ w.T + b)
        acts.append(z)
    y = z @ weights[-1].T + biases[-1]
    return y, acts


def mlp_train(
    dataset,
    epochs: int = MLP_EPOCHS,
    seed: int = 0,
    hidden=(16, 16),
) -> MlpModel:
    """Deterministic full-batch Adam training.

    dataset is (X, Y) with rows of matching inputs and targets. Inputs and
    targets are standardized by training statistics; the returned model's
    residual_cov is the empirical covariance of validation errors in
    physical units. Raises TrainingDiverged on a non-finite validation loss.
    """
    x_all, y_all = (np.asarray(a, dtype=float) for a in dataset)
    if x_all.ndim != 2 or y_all.ndim != 2 or len(x_all) != len(y_all):
        raise ValueError("dataset must be (X[n,din], Y[n,dout]) with equal n")
    n = len(x_all)
    if n < 5:
        raise ValueError(f"dataset too small to train on ({n} rows)")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    val_ix, train_ix = order[:n_val], order[n_val:]
    x_tr, y_tr = x_all[train_ix], y_all[train_ix]
    x_va, y_va = x_all[val_ix], y_all[val_ix]

    in_offset = x_tr.mean(axis=0)
    in_scale = np.maximum(x_tr.std(axis=0), 1e-9)
    out_offset = y_tr.mean(axis=0)
    out_scale = np.maximum(y_tr.std(axis=0), 1e-9)
    xs = (x_tr - in_offset) / in_scale
    ys = (y_tr - out_offset) / out_scale

    widths = [x_all.shape[1], *hidden, y_all.shape[1]]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for step in range(1, epochs + 1):
        y_hat, acts = _forward_batch(weights, biases, xs)
        err = y_hat - ys
        delta = 2.0 * err / len(xs)
        grads_w, grads_b = [None] * len(weights), [None] * len(weights)
        for layer in reversed(range(len(weights))):
            a_in = acts[layer]
            grads_w[layer] = delta.T @ a_in
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
        for i in range(len(weights)):
            for g, m, v, p in (
                (grads_w[i], m_w[i], v_w[i], weights[i]),
                (grads_b[i], m_b[i], v_b[i], biases[i]),
            ):
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                p -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)

    mlp = MlpModel(
        weights=weights,
        biases=biases,
        in_offset=in_offset,
        in_scale=in_scale,
        out_offset=out_offset,
        out_scale=out_scale,
    )
    residuals = np.array([mlp_forward(mlp, x) for x in x_va]) - y_va
    val_loss = float(np.mean(residuals**2))
    if not np.isfinite(val_loss):
        raise TrainingDiverged(f"validation loss is {val_loss}")
    if len(residuals) > 1:
        cov = np.cov(residuals.T, ddof=1)
    else:
        cov = np.outer(residuals[0], residuals[0])
    cov = np.atleast_2d(cov)
    # Variance floor keeps the fusion row covariance invertible.
    cov = cov + 1e-8 * np.eye(cov.shape[0])
    mlp.residual_cov = 0.5 * (cov + cov.T)
    return mlp
