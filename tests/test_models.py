"""Machine model tests: conformance, steady states, kernels, constraints."""

import numpy as np
import pytest

from difftwin.errors import ConfigError, FitIllConditioned
from difftwin.models import (
    ResidenceKernel,
    conveyor_layout,
    conveyor_model,
    delay_interpolation_weights,
    fd_jacobian,
    fit_splits,
    fit_step_response,
    hist_name,
    history_prediction,
    lowpass_prediction,
    magsorter_layout,
    magsorter_model,
    mlp_train,
    siever_layout,
    shift_register_rows,
    siever_model,
    split_fractions,
)
from difftwin.models.layouts import MATERIALS, SIZES


def default_kernels(slots=8):
    return {
        "S": ResidenceKernel.from_parameters(10.0, 8.0, slots),
        "M": ResidenceKernel.from_parameters(14.0, 10.0, slots),
        "L": ResidenceKernel.from_parameters(18.0, 12.0, slots),
    }


def default_splits():
    # mid-range linear curves, inside (0, 1) over speeds 5..21; per size the
    # outlet fractions sum below one (the remainder is lost material)
    return {
        ("S", "S"): (0.84, -0.004),
        ("M", "S"): (0.10, 0.003),
        ("L", "S"): (0.04, 0.001),
        ("S", "M"): (0.27, -0.012),
        ("M", "M"): (0.54, 0.012),
        ("L", "M"): (0.17, 0.000),
        ("S", "L"): (0.04, 0.000),
        ("M", "L"): (0.31, -0.009),
        ("L", "L"): (0.63, 0.009),
    }


def trained_tiny_mlp(seed=0):
    rng = np.random.default_rng(seed)
    n = 120
    x = np.column_stack(
        [
            rng.uniform(0.0, 0.05, n),
            rng.uniform(0.0, 0.08, n),
            rng.uniform(8.0, 16.0, n),
        ]
    )
    # synthetic smooth targets resembling capture behavior
    capture = 1.0 / (1.0 + np.exp((x[:, 2] - 12.0) / 1.5))
    drag = 0.3 / (1.0 + np.exp((x[:, 2] - 10.0) / 1.0))
    y = np.column_stack(
        [
            x[:, 0] * capture,
            x[:, 1] * drag,
            x[:, 1] * (1 - drag),
            x[:, 0] * (1 - capture),
        ]
    )
    return mlp_train((x, y), epochs=600, seed=seed, hidden=(8, 8))


def nonlinear_models():
    # Linear rows (prediction, conveyor) have their matrix as Jacobian.
    return [
        ("siever_process", siever_model(default_kernels(), default_splits()), siever_layout()),
        ("mag_process", magsorter_model(trained_tiny_mlp()), magsorter_layout()),
    ]


class TestConformance:
    @pytest.mark.parametrize("name,model,layout", nonlinear_models())
    def test_jacobian_matches_finite_differences(self, name, model, layout):
        rng = np.random.default_rng(77)
        for _ in range(20):
            x = rng.uniform(0.0, 0.1, layout.dim)
            # keep parameter coordinates in their physical ranges
            for pc in layout.param_coords:
                lo, hi = (5.0, 21.0) if pc == "speed" else (8.0, 16.0)
                x[layout.nxt(pc)] = rng.uniform(lo, hi)
                x[layout.cur(pc)] = rng.uniform(lo, hi)
            jac = model.jacobian(x)
            fd = fd_jacobian(model, x, h=1e-6)
            scale = max(np.abs(fd).max(), 1e-9)
            assert np.abs(jac - fd).max() / scale <= 1e-5, name


class TestConveyor:
    def test_interpolation_weights_32s(self):
        w = delay_interpolation_weights(32.0, 8)
        # mass delayed 32 s out of 30 s windows: 28/30 lands one window
        # later, 2/30 two windows later
        assert w[1] == pytest.approx(28.0 / 30.0)
        assert w[2] == pytest.approx(2.0 / 30.0)
        assert w.sum() == pytest.approx(1.0)

    def test_steady_state_zero_residual(self):
        lay = conveyor_layout()
        model = conveyor_model(8, 32.0)
        x = np.zeros(lay.dim)
        for name in lay.names:
            x[lay.nxt(name)] = 1.0
            x[lay.cur(name)] = 1.0
        np.testing.assert_allclose(model.matrix @ x, 0.0, atol=1e-12)

    def test_delay_beyond_history_rejected(self):
        with pytest.raises(ConfigError):
            conveyor_model(8, 8 * 30.0 + 1.0)

    def test_step_propagates_with_one_step_lag(self):
        # steady 0 then unit input: output responds dominantly at lag 1
        w = delay_interpolation_weights(32.0, 8)
        assert np.argmax(w) == 1


class TestResidenceKernel:
    def test_weights_sum_to_one(self):
        for dead, tau in ((0.0, 5.0), (32.0, 15.0), (45.0, 0.0), (10.0, 40.0)):
            k = ResidenceKernel.from_parameters(dead, tau, 8)
            assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(k.weights >= 0.0)

    def test_pure_delay_matches_interpolation(self):
        k = ResidenceKernel.from_parameters(32.0, 0.0, 8)
        w = delay_interpolation_weights(32.0, 8)
        np.testing.assert_allclose(k.weights, w, atol=1e-9)


class TestSiever:
    def test_steady_state_matched_outlet(self):
        # all input in one class, split 1.0 to its matched outlet
        lay = siever_layout()
        splits = {(o, p): (0.0, 0.0) for o in SIZES for p in SIZES}
        splits[("M", "M")] = (1.0, 0.0)
        kernels = default_kernels()
        model = siever_model(kernels, splits)
        x = np.zeros(lay.dim)
        for h in range(8):
            x[lay.cur(hist_name("M", h))] = 2.0
            x[lay.nxt(hist_name("M", h))] = 2.0
        x[lay.cur("speed")] = x[lay.nxt("speed")] = 12.0
        x[lay.cur("out.M.M")] = x[lay.nxt("out.M.M")] = 2.0
        r = model.evaluate(x)
        # smooth clamp and renormalization keep the fraction within 0.5%
        ix = [f"{o}|{p}" for o in SIZES for p in SIZES].index("M|M")
        assert abs(r[ix]) <= 2.0 * 0.005

    def test_impulse_gives_kernel_shape(self):
        lay = siever_layout()
        splits = {(o, p): (0.0, 0.0) for o in SIZES for p in SIZES}
        splits[("M", "M")] = (1.0, 0.0)
        kernels = default_kernels()
        model = siever_model(kernels, splits)
        # impulse: mass in history slot h only -> outlet flow proportional
        # to kernel weight h
        responses = []
        for h in range(8):
            x = np.zeros(lay.dim)
            x[lay.cur(hist_name("M", h))] = 1.0
            x[lay.cur("speed")] = x[lay.nxt("speed")] = 12.0
            r = model.evaluate(x)
            ix = [f"{o}|{p}" for o in SIZES for p in SIZES].index("M|M")
            responses.append(-r[ix])  # residual = out - frac*conv, out = 0
        responses = np.array(responses) / np.sum(responses)
        np.testing.assert_allclose(responses, kernels["M"].weights, atol=1e-3)

    def test_split_fractions_sum_le_one(self):
        frac, _ = split_fractions(default_splits(), 21.0)
        for p in SIZES:
            assert sum(frac[(o, p)] for o in SIZES) <= 1.0 + 1e-9

    def test_boundary_speed_tracks_linear_model(self):
        coeffs = default_splits()
        frac, _ = split_fractions(coeffs, 21.0)
        for (o, p), (a, b) in coeffs.items():
            lin = a + b * 21.0
            if 0.05 <= lin <= 0.95:
                assert frac[(o, p)] == pytest.approx(lin, abs=1e-6)


class TestMagsorter:
    def test_zero_flows_zero_constraint_residuals(self):
        lay = magsorter_layout()
        model = magsorter_model(trained_tiny_mlp())
        x = np.zeros(lay.dim)
        x[lay.cur("height")] = x[lay.nxt("height")] = 12.0
        r = model.evaluate(x)
        np.testing.assert_allclose(r[4:], 0.0, atol=1e-12)

    def test_single_size_class_kills_input_independence(self):
        lay = magsorter_layout()
        model = magsorter_model(trained_tiny_mlp())
        x = np.zeros(lay.dim)
        x[lay.cur("in.NFM.M")] = 0.03
        x[lay.cur("in.FM.M")] = 0.02
        x[lay.cur("height")] = 12.0
        r = model.evaluate(x)
        np.testing.assert_allclose(r[10:12], 0.0, atol=1e-15)

    def test_proportional_outputs_kill_output_independence(self):
        lay = magsorter_layout()
        model = magsorter_model(trained_tiny_mlp())
        x = np.zeros(lay.dim)
        shares = {"S": 0.2, "M": 0.5, "L": 0.3}
        for m, capture in (("NFM", 0.1), ("FM", 0.8)):
            for p in SIZES:
                x[lay.cur(f"out.{m}.FM.{p}")] = shares[p] * capture
                x[lay.cur(f"out.{m}.NFM.{p}")] = shares[p] * (1 - capture)
        x[lay.cur("height")] = 12.0
        r = model.evaluate(x)
        np.testing.assert_allclose(r[12:], 0.0, atol=1e-15)

    def test_conservation_row_coefficients(self):
        lay = magsorter_layout()
        model = magsorter_model(trained_tiny_mlp())
        jac = model.jacobian(np.zeros(lay.dim))
        row = 4
        for m in MATERIALS:
            for p in SIZES:
                assert jac[row, lay.cur(f"in.{m}.{p}")] == 1.0
                assert jac[row, lay.cur(f"out.{m}.NFM.{p}")] == -1.0
                assert jac[row, lay.cur(f"out.{m}.FM.{p}")] == -1.0
                assert np.count_nonzero(jac[row]) == 3
                row += 1


class TestLowpass:
    def test_history_prediction_stacks_blocks(self):
        lay = siever_layout()
        rows = history_prediction(lay)
        blocks = [shift_register_rows(lay), lowpass_prediction(lay)]
        assert np.array_equal(rows.matrix, np.vstack([b.matrix for b in blocks]))
        n = blocks[0].out_dim
        assert np.array_equal(rows.value.cov[:n, :n], blocks[0].value.cov)
        assert np.array_equal(rows.value.cov[n:, n:], blocks[1].value.cov)
        assert not rows.value.cov[:n, n:].any() and not rows.value.cov[n:, :n].any()
        assert not rows.value.mean.any()

    def test_equal_blocks_zero_residual(self):
        lay = magsorter_layout()
        model = lowpass_prediction(lay)
        x = np.arange(lay.dim, dtype=float)
        x[: lay.n] = x[lay.n :]
        np.testing.assert_allclose(model.matrix @ x, 0.0)

    def test_unit_jump_whitened_residual_100(self):
        lay = magsorter_layout()
        model = lowpass_prediction(lay)
        x = np.zeros(lay.dim)
        x[lay.nxt("in.NFM.S")] = 1.0
        r = model.matrix @ x
        # whitened by std 1e-2 on input coordinates
        from difftwin.gaussian import whitening_from_cov

        wr = whitening_from_cov(model.value.cov) @ r
        assert np.abs(wr).max() == pytest.approx(100.0, rel=1e-6)

    def test_jacobian_is_plus_minus_identity_blocks(self):
        lay = magsorter_layout()
        model = lowpass_prediction(lay)
        jac = model.matrix
        for r, name in enumerate(
            list(lay.input_coords) + list(lay.output_coords)
        ):
            assert jac[r, lay.nxt(name)] == 1.0
            assert jac[r, lay.cur(name)] == -1.0
            assert np.count_nonzero(jac[r]) == 2
        # parameter column untouched by prediction
        assert np.count_nonzero(jac[:, lay.cur("height")]) == 0
        assert np.count_nonzero(jac[:, lay.nxt("height")]) == 0


class TestFitting:
    def test_step_response_round_trip(self):
        # synthesize a windowed step response from known parameters
        true = ResidenceKernel.from_parameters(32.0, 15.0, 8)
        cum = np.cumsum(true.weights)
        series = np.concatenate([np.zeros(3), cum, np.ones(6)]) * 0.04
        fitted = fit_step_response({"M": series}, step_index=3)
        k = fitted["M"]
        assert k.dead_time == pytest.approx(32.0, rel=0.10)
        assert k.tau == pytest.approx(15.0, rel=0.10)

    def test_noiseless_split_recovery_exact(self):
        records = []
        for speed in (6.0, 10.0, 14.0, 18.0):
            for (o, p), (a, b) in default_splits().items():
                records.append((speed, p, o, a + b * speed))
        coeffs = fit_splits(records)
        for key, (a, b) in default_splits().items():
            assert coeffs[key][0] == pytest.approx(a, abs=1e-12)
            assert coeffs[key][1] == pytest.approx(b, abs=1e-12)

    def test_single_speed_rejected(self):
        records = [(10.0, "M", "M", 0.5), (10.0, "M", "M", 0.51)]
        with pytest.raises(FitIllConditioned):
            fit_splits(records)


class TestMlp:
    def test_zero_network_outputs_offset(self):
        from difftwin.models.mlp import MlpModel, mlp_forward

        mlp = MlpModel(
            weights=[np.zeros((4, 3)), np.zeros((4, 4))],
            biases=[np.zeros(4), np.zeros(4)],
            in_offset=np.zeros(3),
            in_scale=np.ones(3),
            out_offset=np.zeros(4),
            out_scale=np.ones(4),
            residual_cov=np.eye(4),
        )
        np.testing.assert_allclose(mlp_forward(mlp, np.zeros(3)), 0.0)

    def test_jacobian_matches_fd_on_random_weights(self):
        from difftwin.models.mlp import MlpModel, mlp_forward, mlp_jacobian

        rng = np.random.default_rng(13)
        mlp = MlpModel(
            weights=[rng.standard_normal((8, 3)), rng.standard_normal((8, 8)), rng.standard_normal((4, 8))],
            biases=[rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal(4)],
            in_offset=rng.standard_normal(3),
            in_scale=np.abs(rng.standard_normal(3)) + 0.5,
            out_offset=rng.standard_normal(4),
            out_scale=np.abs(rng.standard_normal(4)) + 0.5,
            residual_cov=np.eye(4),
        )
        u = rng.standard_normal(3)
        jac = mlp_jacobian(mlp, u)
        h = 1e-6
        fd = np.zeros_like(jac)
        for k in range(3):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            fd[:, k] = (mlp_forward(mlp, up) - mlp_forward(mlp, um)) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(jac - fd).max() / scale <= 1e-5

    def test_training_is_bitwise_deterministic(self):
        a = trained_tiny_mlp(seed=5)
        b = trained_tiny_mlp(seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.residual_cov, b.residual_cov)

    def test_trained_model_tracks_monotone_capture(self):
        mlp = trained_tiny_mlp(seed=3)
        heights = np.linspace(8.5, 15.5, 15)
        captures = [
            (lambda y: y[0])(  # TP at the FM outlet
                np.asarray(
                    __import__("difftwin.models.mlp", fromlist=["mlp_forward"]).mlp_forward(
                        mlp, np.array([0.03, 0.04, h])
                    )
                )
            )
            for h in heights
        ]
        # Spearman sign: capture decreases as the magnet moves up
        ranks_h = np.argsort(np.argsort(heights))
        ranks_c = np.argsort(np.argsort(captures))
        rho = np.corrcoef(ranks_h, ranks_c)[0, 1]
        assert rho < -0.9
