"""Fusion engine tests: MAP, posterior covariance, CI weights, Jacobians.

Expected values come from independent oracles: closed-form generalized
least squares for linear problems, bisection on the chi-square gradient
for the 1-D nonlinear case, finite differences of re-solved MAPs for the
implicit Jacobian, and a simplex grid for the CI weight optimum.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftwin import fusion
from difftwin.errors import KernelFailure, SingularInformation, WellPosednessError
from difftwin.fusion import (
    KIND_COMMUNICATION,
    KIND_PARAMETER,
    KIND_PREDICTION,
    KIND_PRIOR,
    KIND_PROCESS,
    KIND_SENSOR,
    CiWeights,
    FusionProblem,
    InformationSource,
    Linearization,
    ci_optimize_weights,
    fuse,
    implicit_jacobian,
    naive_weights,
    posterior_covariance,
    solve_map,
)
from difftwin.gaussian import GaussianEstimate, LinearObservation, project


def obs(matrix, mean, cov):
    return LinearObservation(
        np.atleast_2d(np.asarray(matrix, dtype=float)),
        GaussianEstimate(np.atleast_1d(mean), np.atleast_2d(cov)),
    )


class QuadraticModel:
    """Residual x0^2 - target with selectable coordinate, for tests."""

    def __init__(self, dim, coord, target, var):
        self.out_dim = 1
        self.noise_cov = np.array([[var]])
        self.dim = dim
        self.coord = coord
        self.target = target

    def evaluate(self, x):
        return np.array([x[self.coord] ** 2 - self.target])

    def jacobian(self, x):
        j = np.zeros((1, self.dim))
        j[0, self.coord] = 2.0 * x[self.coord]
        return j


class LowpassModel:
    """Rows x_next - x_cur over the leading n coordinates of a 2n state."""

    def __init__(self, n, var):
        self.out_dim = n
        self.n = n
        self.noise_cov = var * np.eye(n)

    def evaluate(self, x):
        return x[: self.n] - x[self.n :]

    def jacobian(self, x):
        return np.hstack([np.eye(self.n), -np.eye(self.n)])


class RowsModel:
    """Constant rows A x as a model payload, for comparison with a
    LinearObservation of the same rows."""

    def __init__(self, matrix, noise_cov):
        self.matrix = matrix
        self.out_dim = matrix.shape[0]
        self.noise_cov = noise_cov

    def evaluate(self, x):
        return self.matrix @ x

    def jacobian(self, x):
        return self.matrix


def scalar_pair_problem(prior_mean=1.0, prior_var=1.0, sensor_mean=3.0, sensor_var=1.0):
    """Concatenated scalar state [x_next, x_cur]: prior and one sensor on
    x_cur, a low-pass prediction model tying the blocks."""
    sources = [
        InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], prior_mean, prior_var)),
        InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
        InformationSource("s1", KIND_SENSOR, obs([[0.0, 1.0]], sensor_mean, sensor_var)),
    ]
    return FusionProblem(2, sources)


def gls_oracle(matrices, means, covs):
    """Closed-form generalized least squares: fuse stacked linear
    observations by explicit normal equations (independent of solve_map)."""
    m = np.vstack(matrices)
    b = np.concatenate([np.atleast_1d(v) for v in means])
    w = np.zeros((len(b), len(b)))
    off = 0
    for c in covs:
        c = np.atleast_2d(c)
        k = c.shape[0]
        w[off : off + k, off : off + k] = np.linalg.inv(c)
        off += k
    info = m.T @ w @ m
    cov = np.linalg.inv(info)
    mean = cov @ (m.T @ w @ b)
    return mean, cov


def random_linear_problem(rng, n_x):
    """All-linear concatenated problem with prior, linear 'prediction',
    sensors and optional communications; returns problem plus the pieces
    for the GLS oracle."""
    dim = 2 * n_x
    mats, means, covs, sources = [], [], [], []

    m_pr = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
    mu = rng.standard_normal(n_x)
    g = random_spd(rng, n_x)
    sources.append(InformationSource("prior", KIND_PRIOR, obs(m_pr, mu, g)))
    mats.append(m_pr), means.append(mu), covs.append(g)

    class LinearPred:
        out_dim = n_x
        noise_cov = 0.5 * np.eye(n_x)

        def evaluate(self, x):
            return x[:n_x] - x[n_x:]

        def jacobian(self, x):
            return np.hstack([np.eye(n_x), -np.eye(n_x)])

    sources.append(InformationSource("pred", KIND_PREDICTION, LinearPred()))
    mats.append(np.hstack([np.eye(n_x), -np.eye(n_x)]))
    means.append(np.zeros(n_x))
    covs.append(0.5 * np.eye(n_x))

    n_sens = int(rng.integers(1, 3))
    for i in range(n_sens):
        rows = int(rng.integers(1, n_x + 1))
        m = rng.standard_normal((rows, dim))
        v = rng.standard_normal(rows)
        c = random_spd(rng, rows)
        sources.append(InformationSource(f"s{i}", KIND_SENSOR, obs(m, v, c)))
        mats.append(m), means.append(v), covs.append(c)

    return FusionProblem(dim, sources), (mats, means, covs)


def count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name in a one-element list."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def all_linear(problem):
    """The problem with its low-pass prediction model given as the same
    rows in a LinearObservation."""
    sources = []
    for src in problem.sources:
        payload = src.payload
        if src.is_model:
            j = payload.jacobian(np.zeros(problem.dim))
            payload = obs(j, np.zeros(payload.out_dim), payload.noise_cov)
        sources.append(InformationSource(src.id, src.kind, payload))
    return FusionProblem(problem.dim, sources)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


class TestAssemble:
    def test_single_prior_at_mean_zero_residual(self):
        p = scalar_pair_problem()
        r, _ = p.assemble(np.array([1.0, 1.0]))
        # prior row and sensor row; prediction row is zero at equal blocks
        assert r[p.chunk_slice("prior")][0] == 0.0

    def test_hand_computed_whitened_stack(self):
        p = scalar_pair_problem(prior_mean=1.0, prior_var=1.0, sensor_mean=3.0, sensor_var=1.0)
        x = np.array([2.0, 2.0])
        r, _ = p.assemble(x)
        assert r[p.chunk_slice("prior")][0] == pytest.approx(1.0)
        assert r[p.chunk_slice("s1")][0] == pytest.approx(-1.0)
        # chi2 contribution of the two observation rows
        chi2 = float(r @ r)
        assert chi2 == pytest.approx(2.0)

    def test_model_kinds_take_linear_rows_bitwise(self):
        # The payload type, not the kind, decides how rows are evaluated.
        rng = np.random.default_rng(5)
        n_x, dim = 3, 6
        prior = obs(
            np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)]),
            rng.standard_normal(n_x),
            random_spd(rng, n_x),
        )
        rows = [
            (sid, kind, obs(rng.standard_normal((m, dim)), np.zeros(m), random_spd(rng, m)))
            for sid, kind, m in (("proc", KIND_PROCESS, 2), ("pred", KIND_PREDICTION, n_x))
        ]

        def problem(as_model):
            sources = [InformationSource("prior", KIND_PRIOR, prior)]
            for sid, kind, o in rows:
                payload = RowsModel(o.matrix, o.value.cov) if as_model else o
                sources.append(InformationSource(sid, kind, payload))
            return FusionProblem(dim, sources)

        linear, model = problem(False), problem(True)
        assert not any(s.is_model for s in linear.sources)
        assert [s.ci_group for s in linear.sources] == [s.ci_group for s in model.sources]
        x = rng.standard_normal(dim)
        r_lin, j_lin = linear.assemble(x)
        r_mod, j_mod = model.assemble(x)
        assert np.array_equal(r_lin, r_mod)
        assert np.array_equal(j_lin, j_mod)


class TestSolveMap:
    def test_prior_only_returns_prior_mean(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 2.5, 1.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
        ]
        p = FusionProblem(2, sources)
        x = solve_map(p, np.zeros(2))
        assert x[1] == pytest.approx(2.5, abs=1e-9)
        # prediction block follows the gradient-tolerance contract only
        assert x[0] == pytest.approx(2.5, abs=1e-7)

    def test_linear_matches_gls_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n_x = int(rng.integers(1, 4))
            p, (mats, means, covs) = random_linear_problem(rng, n_x)
            want_mean, want_cov = gls_oracle(mats, means, covs)
            x = solve_map(p, np.zeros(2 * n_x))
            np.testing.assert_allclose(x, want_mean, rtol=1e-8, atol=1e-8)
            got_cov = posterior_covariance(Linearization(p, x))
            np.testing.assert_allclose(got_cov, want_cov, rtol=1e-8, atol=1e-10)

    def test_nonlinear_scalar_root(self):
        # Tight quadratic model x^2 = 4 plus weak prior at 1.9; the MAP is
        # near the root found by bisection on the chi-square gradient.
        model = QuadraticModel(2, 1, 4.0, 1e-6)
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 1.9, 100.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
            InformationSource("quad", KIND_PROCESS, model),
        ]
        p = FusionProblem(2, sources)

        def dchi2(v):
            x = np.array([v, v])
            r, jac = p.assemble(x)
            g = 2.0 * jac.T @ r
            # gradient along the symmetric direction
            return g[0] + g[1]

        lo, hi = 1.5, 2.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dchi2(lo) * dchi2(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)

        x = solve_map(p, np.array([1.9, 1.9]))
        assert x[1] == pytest.approx(root, abs=1e-6)
        assert abs(x[1] - 2.0) < 1e-3

    def test_uninformed_coordinate_raises_well_posedness_error(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
        ]
        p = FusionProblem(2, sources, coord_names=["next.flow", "cur.flow"])
        with pytest.raises(WellPosednessError) as err:
            solve_map(p, np.zeros(2))
        assert err.value.uninformed == ("next.flow",)
        assert "next.flow" in str(err.value)

    def test_linear_problem_takes_one_solve_and_no_iteration(self, monkeypatch):
        # No model rows: one exact Newton step from one factorization (the
        # general solve), no damped trial (each makes a Cholesky verdict)
        # and no assembly of the stacked system.
        rng = np.random.default_rng(23)
        problems = []
        for _ in range(10):
            n_x = int(rng.integers(1, 4))
            p, pieces = random_linear_problem(rng, n_x)
            problems.append((all_linear(p), pieces))
        solves = count_calls(monkeypatch, np.linalg, "solve")
        cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
        assembles = count_calls(monkeypatch, FusionProblem, "assemble")
        for p, (mats, means, covs) in problems:
            assert p.all_linear
            solves[0] = cholesky[0] = 0
            x = solve_map(p, np.zeros(p.dim))
            assert (solves[0], cholesky[0], assembles[0]) == (1, 0, 0)
            np.testing.assert_allclose(x, gls_oracle(mats, means, covs)[0], rtol=1e-8, atol=1e-8)
            # At its own MAP the solve stops on the gradient test.
            solves[0] = 0
            np.testing.assert_array_equal(solve_map(p, x), x)
            assert solves[0] == 0

    def test_restart_at_map_stops_at_round_off_floor(self, monkeypatch):
        # A heavily weighted bilinear row x0 x1 = 1 leaves a gradient above
        # the gradient test at the MAP, but the predicted decrease of the
        # next step is below what chi2 can resolve: the solve returns that
        # step without evaluating the model rows there.
        class Bilinear:
            out_dim = 1
            noise_cov = np.array([[1e-8]])

            def evaluate(self, x):
                return np.array([x[0] * x[1] - 1.0])

            def jacobian(self, x):
                return np.array([[x[1], x[0]]])

        sources = [
            InformationSource("prior", KIND_PRIOR, obs(np.eye(2), [3.0, 0.1], np.eye(2))),
            InformationSource("bilinear", KIND_PROCESS, Bilinear()),
        ]
        p = FusionProblem(2, sources)
        x_map = solve_map(p, np.array([3.0, 0.1]))
        assert x_map[0] * x_map[1] == pytest.approx(1.0, abs=1e-6)
        evaluations = count_calls(monkeypatch, Bilinear, "evaluate")
        assembles = count_calls(monkeypatch, FusionProblem, "assemble")
        x_again = solve_map(p, x_map)
        assert (evaluations[0], assembles[0]) == (1, 0)
        np.testing.assert_allclose(x_again, x_map, rtol=0.0, atol=1e-9)

    def test_matches_stacked_least_squares_with_model_rows(self):
        # The information form gives the MAP of the stacked system, found
        # here by Gauss-Newton steps on the stacked rows by least squares,
        # for naive and CI weights.
        rng = np.random.default_rng(29)
        for _ in range(8):
            n_x = int(rng.integers(1, 4))
            p, _ = random_linear_problem(rng, n_x)
            m_cur = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
            comm = obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))
            quad = QuadraticModel(2 * n_x, 2 * n_x - 1, 2.0, 1.0)
            p = FusionProblem(
                p.dim,
                p.sources
                + [
                    InformationSource("quad", KIND_PROCESS, quad),
                    InformationSource("c1", KIND_COMMUNICATION, comm),
                ],
            )
            for w in (1.0, float(rng.uniform(0.1, 0.9))):
                p.set_weights(CiWeights(w_local=w, w_comm={"comm:c1": 1.0 - w}))
                x = solve_map(p, np.ones(p.dim))
                want = x.copy()
                for _ in range(20):
                    r, jac = p.assemble(want)
                    want -= np.linalg.lstsq(jac, r, rcond=None)[0]
                # The gradient test and the round-off floor leave up to
                # about 3e-8 here.
                np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-7)


class TestFixedRows:
    def test_parameter_row_residual_exact_at_its_mean(self):
        # sigma = 1e-4 at value 12: L (M x - mu) is exactly 0 at the mean
        # and keeps every digit of a small offset, which the cancelling
        # form (L M) x - L mu loses.
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[1.0, 0.0]], 0.0, 1.0)),
            InformationSource("param", KIND_PARAMETER, obs([[0.0, 1.0]], 12.0, 1e-8)),
        ]
        fixed = FusionProblem(2, sources).fixed_rows()
        _, L, _, a = fixed.sources[1]
        assert fixed.residuals(np.array([0.0, 12.0]))[1][0] == 0.0
        x = np.array([0.0, 12.0 + 1e-9])
        offset = x[1] - 12.0  # exact: both lie within a factor two
        r = fixed.residuals(x)[1][0]
        assert r == pytest.approx(L[0, 0] * offset, rel=1e-15)
        assert abs((a @ x - L @ [12.0])[0] - r) > 1e-12 * abs(r)

    def test_group_information_sums_whitened_rows(self):
        p = _three_group_problem()
        fixed = p.fixed_rows()
        assert set(fixed.info) == {"local", "comm:c1", "comm:c2"}
        for src in p.sources:
            if not src.is_model:
                o = src.payload
                want = o.matrix.T @ np.linalg.inv(o.value.cov) @ o.matrix
                # Whitening regularizes by 1e-10 * trace / n.
                np.testing.assert_allclose(fixed.info[src.ci_group], want, rtol=1e-9)

    def test_whitening_computed_once_per_covariance(self, monkeypatch):
        whitenings = count_calls(monkeypatch, fusion, "whitening_from_cov_fast")
        model = LowpassModel(1, 1.0)
        prior = obs([[0.0, 1.0]], 1.0, 2.0)
        param = obs([[1.0, 0.0]], 12.0, 1e-8)

        def problem(param_value):
            return FusionProblem(
                2,
                [
                    InformationSource("prior", KIND_PRIOR, prior),
                    InformationSource("pred", KIND_PREDICTION, model),
                    InformationSource("param", KIND_PARAMETER, param_value),
                ],
            )

        problem(param)
        assert whitenings[0] == 3
        # Same estimates and model again; a new mean on the same covariance.
        problem(param.with_value(param.value.with_mean([13.0])))
        assert whitenings[0] == 3
        model.noise_cov = 2.0 * np.eye(1)
        problem(param)
        assert whitenings[0] == 4


class TestLinearization:
    def test_rank_deficient_system_raises_singular_information(self):
        # Every coordinate is observed, but only through x0 + x1.
        collinear = [InformationSource("prior", KIND_PRIOR, obs([[1.0, 1.0]], 0.0, 1.0))]
        with pytest.raises(SingularInformation):
            Linearization(FusionProblem(2, collinear), np.zeros(2))
        # A coordinate with no information at all is named.
        partial = [InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0))]
        p = FusionProblem(2, partial, coord_names=["next.flow", "cur.flow"])
        with pytest.raises(SingularInformation) as err:
            Linearization(p, np.zeros(2))
        assert err.value.uninformed == ("next.flow",)


class TestPosteriorCovariance:
    def test_two_sensors_information_addition(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1e12)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1e12)),
            InformationSource("a", KIND_SENSOR, obs([[0.0, 1.0]], 1.0, 1.0)),
            InformationSource("b", KIND_SENSOR, obs([[0.0, 1.0]], 1.0, 1.0)),
        ]
        p = FusionProblem(2, sources)
        cov = posterior_covariance(Linearization(p, np.array([1.0, 1.0])))
        assert cov[1, 1] == pytest.approx(0.5, rel=1e-6)

    def test_ci_identical_estimates_stay_at_var_one(self):
        # Two identical scalar estimates fused with any simplex weights give
        # posterior variance 1, not 0.5: the defining conservatism.
        for w in (0.2, 0.5, 0.8):
            sources = [
                InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
                InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1e12)),
                InformationSource(
                    "c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 0.0, 1.0)
                ),
            ]
            p = FusionProblem(2, sources)
            p.set_weights(CiWeights(w_local=w, w_comm={"comm:c1": 1.0 - w}))
            cov = posterior_covariance(Linearization(p, np.zeros(2)))
            assert cov[1, 1] == pytest.approx(1.0, rel=1e-9)


def _three_group_problem():
    """Local, c1 and c2 groups on a 2-D block, drawn from a fixed seed."""
    rng = np.random.default_rng(31)
    n_x = 2
    m_cur = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
    sources = [
        InformationSource("prior", KIND_PRIOR, obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))),
        InformationSource("pred", KIND_PREDICTION, LowpassModel(n_x, 1.0)),
        InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))),
        InformationSource("c2", KIND_COMMUNICATION, obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))),
    ]
    return FusionProblem(2 * n_x, sources)


class TestCiWeights:
    def test_no_communication_gives_local_one(self):
        p = scalar_pair_problem()
        w = ci_optimize_weights(p, np.array([1.0, 1.0]))
        assert w.w_local == 1.0 and not w.w_comm and w.w_pred == 1.0

    def test_identical_groups_tie_breaks_to_local(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 2.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 0.5, 2.0)),
        ]
        p = FusionProblem(2, sources)
        w = ci_optimize_weights(p, np.zeros(2))
        assert w.w_local == pytest.approx(1.0, abs=1e-6)
        # determinant is flat across the simplex for identical information
        vals = []
        for wl in np.linspace(0.05, 0.95, 7):
            p.set_weights(CiWeights(w_local=wl, w_comm={"comm:c1": 1.0 - wl}))
            c = posterior_covariance(Linearization(p, np.zeros(2)))
            vals.append(np.linalg.slogdet(c)[1])
        assert max(vals) - min(vals) <= 1e-12

    def test_dominant_group_gets_most_weight(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 100.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1e6)),
            InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 0.5, 1.0)),
        ]
        p = FusionProblem(2, sources)
        w = ci_optimize_weights(p, np.zeros(2))
        assert w.w_comm["comm:c1"] >= 0.9

    def test_grid_oracle_three_groups(self):
        p = _three_group_problem()
        x0 = np.zeros(p.dim)
        w = ci_optimize_weights(p, x0)
        p.set_weights(w)
        got = np.linalg.slogdet(posterior_covariance(Linearization(p, x0)))[1]

        best = np.inf
        for wl in np.arange(0.0, 1.0 + 1e-12, 1e-3):
            for w1 in np.arange(0.0, 1.0 - wl + 1e-12, 1e-3):
                w2 = 1.0 - wl - w1
                p.set_weights(CiWeights(w_local=wl, w_comm={"comm:c1": w1, "comm:c2": w2}))
                try:
                    val = np.linalg.slogdet(posterior_covariance(Linearization(p, x0)))[1]
                except Exception:
                    continue
                best = min(best, val)
        assert got <= best + 1e-4

    def test_simplex_enforced_exactly(self):
        rng = np.random.default_rng(37)
        p, _ = random_linear_problem(rng, 2)
        m_cur = np.hstack([np.zeros((2, 2)), np.eye(2)])
        p2 = FusionProblem(
            4,
            p.sources
            + [
                InformationSource(
                    "c1", KIND_COMMUNICATION, obs(m_cur, rng.standard_normal(2), random_spd(rng, 2))
                )
            ],
        )
        w = ci_optimize_weights(p2, np.zeros(4))
        assert w.w_pred == 1.0
        assert w.w_local >= 0.0 and all(v >= 0.0 for v in w.w_comm.values())
        assert w.w_local + sum(w.w_comm.values()) == pytest.approx(1.0, abs=1e-15)


    def test_few_log_determinants_per_call(self, monkeypatch):
        calls = []
        real = fusion._logdet_information

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fusion, "_logdet_information", counting)
        ci_optimize_weights(_three_group_problem(), np.zeros(4))
        assert 0 < len(calls) <= 20

    def test_dominated_group_gets_exact_zero(self):
        # c2 carries a quarter of the local information, so weight on it is
        # better spent on the local group. Local and c1 mirror each other
        # under swapping the two coordinates, so the optimum (0.5, 0.5, 0)
        # lies on the grid.
        m_cur = np.hstack([np.zeros((2, 2)), np.eye(2)])
        covs = [np.diag([1.0, 50.0]), np.diag([50.0, 1.0]), np.diag([4.0, 200.0])]
        sources = [
            InformationSource("prior", KIND_PRIOR, obs(m_cur, [0.0, 0.0], covs[0])),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(2, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, [0.0, 0.0], covs[1])),
            InformationSource("c2", KIND_COMMUNICATION, obs(m_cur, [0.0, 0.0], covs[2])),
        ]
        w = ci_optimize_weights(FusionProblem(4, sources), np.zeros(4))
        assert w.w_comm["comm:c2"] == 0.0

        j_pred = np.hstack([np.eye(2), -np.eye(2)])
        base = j_pred.T @ j_pred
        infos = [m_cur.T @ np.linalg.inv(c) @ m_cur for c in covs]

        def logdet(wl, w1, w2):
            m = base + wl * infos[0] + w1[:, None, None] * infos[1] + w2[:, None, None] * infos[2]
            return np.linalg.slogdet(m)[1]

        got = logdet(w.w_local, np.array([w.w_comm["comm:c1"]]), np.array([0.0]))[0]
        best = -np.inf
        for wl in np.arange(0.0, 1.0 + 1e-12, 1e-3):
            w1 = np.arange(0.0, 1.0 - wl + 1e-12, 1e-3)
            best = max(best, float(np.max(logdet(wl, w1, np.maximum(1.0 - wl - w1, 0.0)))))
        assert abs(got - best) <= 1e-9

    def test_singular_at_uniform_returns_local_corner(self):
        # Nothing informs x_next, so M is singular on the whole simplex.
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 1.0, 1.0)),
        ]
        w = ci_optimize_weights(FusionProblem(2, sources), np.zeros(2))
        assert w.w_local == 1.0 and w.w_comm == {"comm:c1": 0.0}

    def test_warm_start_agrees_with_uniform_start(self):
        # Seeded problems of two or three groups; starts at the previous
        # optimum, at a random simplex point and at every corner. Where M
        # is singular at the start, or the groups differ, the search starts
        # from uniform weights; where M is nearly singular there (log det
        # -40 against -5 at uniform weights), the search from the start
        # stalls and is replaced by one from uniform weights.
        rng = np.random.default_rng(59)
        singular_starts = nearly_singular_starts = 0
        for _ in range(20):
            n_x, n_comm = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            dim = 2 * n_x
            m_cur = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
            prior = obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))
            pred = LowpassModel(n_x, float(rng.uniform(0.1, 10.0)))
            sources = [
                InformationSource("prior", KIND_PRIOR, prior),
                InformationSource("pred", KIND_PREDICTION, pred),
            ]
            for i in range(n_comm):
                rows = int(rng.integers(1, dim + 1))
                m, mean = rng.standard_normal((rows, dim)), rng.standard_normal(rows)
                o = obs(m, mean, random_spd(rng, rows))
                sources.append(InformationSource(f"c{i}", KIND_COMMUNICATION, o))
            p = FusionProblem(dim, sources)
            x = np.zeros(dim)
            comm = p.comm_groups()
            infos = fusion._group_information(p, x)
            group_infos = [infos[g] for g in ["local"] + comm]

            def f(w):
                vec = [w.w_local] + [w.w_comm[g] for g in comm]
                return fusion._logdet_information(infos["pred"], group_infos, vec)[0]

            uniform = ci_optimize_weights(p, x)
            k = n_comm + 1
            starts = [uniform] + [
                CiWeights(w_local=v[0], w_comm=dict(zip(comm, v[1:])))
                for v in list(np.eye(k)) + [rng.dirichlet(np.ones(k))]
            ]
            tol = fusion._CI_DECREMENT_RTOL * max(1.0, abs(f(uniform)))
            for start in starts:
                singular_starts += f(start) == -np.inf
                nearly_singular_starts += -np.inf < f(start) < f(uniform) - 30.0
                warm = ci_optimize_weights(p, x, start)
                assert warm.w_local + sum(warm.w_comm.values()) == pytest.approx(1.0, abs=1e-15)
                assert abs(f(warm) - f(uniform)) <= tol
            other = CiWeights(w_local=0.5, w_comm={"comm:other": 0.5})
            assert ci_optimize_weights(p, x, other) == uniform
        assert singular_starts > 0 and nearly_singular_starts > 0

    def test_warm_start_at_the_optimum_stops_at_once(self, monkeypatch):
        p = _three_group_problem()
        w = ci_optimize_weights(p, np.zeros(4))
        logdets = count_calls(monkeypatch, fusion, "_logdet_information")
        directions = count_calls(monkeypatch, fusion, "_newton_direction")
        assert ci_optimize_weights(p, np.zeros(4), w) == w
        # The start, then the corner tie-break; one Newton direction.
        assert (logdets[0], directions[0]) == (2, 1)


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(1, 3),
        n_comm=st.integers(1, 2),
    )
    def test_property_simplex_and_no_worse_than_start_or_vertices(self, seed, n_x, n_comm):
        # Random problems of two or three groups on dims 2-6: a prior on
        # x_cur, a low-pass prediction and communications observing random
        # rows of the whole state, so some vertices leave M singular.
        rng = np.random.default_rng(seed)
        dim = 2 * n_x
        m_cur = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
        pred_var = float(rng.uniform(0.1, 10.0))
        observations = [obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))]
        for _ in range(n_comm):
            rows = int(rng.integers(1, dim + 1))
            observations.append(
                obs(rng.standard_normal((rows, dim)), rng.standard_normal(rows), random_spd(rng, rows))
            )
        sources = [
            InformationSource("prior", KIND_PRIOR, observations[0]),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(n_x, pred_var)),
        ] + [
            InformationSource(f"c{i}", KIND_COMMUNICATION, o)
            for i, o in enumerate(observations[1:])
        ]
        w = ci_optimize_weights(FusionProblem(dim, sources), np.zeros(dim))

        vec = np.array([w.w_local] + [w.w_comm[f"comm:c{i}"] for i in range(n_comm)])
        assert w.w_pred == 1.0
        assert np.all(vec >= 0.0)
        assert abs(float(np.sum(vec)) - 1.0) <= 1e-15

        j_pred = np.hstack([np.eye(n_x), -np.eye(n_x)])
        base = j_pred.T @ j_pred / pred_var
        infos = [o.matrix.T @ np.linalg.inv(o.value.cov) @ o.matrix for o in observations]

        def f(weights):
            sign, val = np.linalg.slogdet(base + sum(wi * i for wi, i in zip(weights, infos)))
            return val if sign > 0 else -np.inf

        k = n_comm + 1
        starts = [f(np.full(k, 1.0 / k))] + [f(v) for v in np.eye(k)]
        assert f(vec) >= max(starts) - 1e-12


class TestImplicitJacobian:
    def test_prior_only_unit_sensitivity(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[1.0]], 2.0, 1.0)),
        ]
        p = FusionProblem(1, sources)
        x = solve_map(p, np.zeros(1))
        chunks = implicit_jacobian(Linearization(p, x))
        # d(MAP)/d(prior mean) = 1
        assert chunks["prior"][0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_two_sensor_half_sensitivity(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1e12)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1e12)),
            InformationSource("a", KIND_SENSOR, obs([[0.0, 1.0]], 1.0, 1.0)),
            InformationSource("b", KIND_SENSOR, obs([[0.0, 1.0]], 1.0, 1.0)),
        ]
        p = FusionProblem(2, sources)
        x = solve_map(p, np.zeros(2))
        chunks = implicit_jacobian(Linearization(p, x))
        assert chunks["a"][1, 0] == pytest.approx(0.5, rel=1e-6)
        assert chunks["b"][1, 0] == pytest.approx(0.5, rel=1e-6)

    def test_matches_finite_differences_on_random_problems(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            n_x = int(rng.integers(1, 4))
            p, _ = random_linear_problem(rng, n_x)
            # Nonlinear row anchored near the linear solution: the implicit
            # formula omits Hessian-times-residual terms, so agreement at
            # 1e-4 requires a small residual at the MAP.
            x_lin = solve_map(p, np.zeros(p.dim))
            target = x_lin[-1] ** 2 + 1e-4 * rng.standard_normal()
            q = QuadraticModel(2 * n_x, 2 * n_x - 1, target, 10.0)
            p = FusionProblem(p.dim, p.sources + [InformationSource("quad", KIND_PROCESS, q)])
            x0 = x_lin + 0.05 * rng.standard_normal(p.dim)
            x_map = solve_map(p, x0)
            chunks = implicit_jacobian(Linearization(p, x_map))
            h = 1e-5
            for sid, off, m in p.offsets:
                src = p.sources[[s.id for s in p.sources].index(sid)]
                if src.is_model:
                    continue  # beta fixed at zero for models in this check
                fd = np.zeros((p.dim, m))
                for k in range(m):
                    for sign in (+1.0, -1.0):
                        shifted = _shift_source_mean(p, sid, k, sign * h)
                        xs = solve_map(shifted, x_map)
                        fd[:, k] += sign * xs / (2 * h)
                scale = max(np.abs(fd).max(), 1e-12)
                assert np.abs(chunks[sid] - fd).max() / scale <= 1e-4


def _shift_source_mean(problem, source_id, comp, delta):
    """Rebuild the problem with one observation mean component shifted."""
    new_sources = []
    for src in problem.sources:
        if src.id == source_id:
            o = src.payload
            mean = o.value.mean.copy()
            mean[comp] += delta
            new_sources.append(
                InformationSource(
                    src.id, src.kind, obs(o.matrix, mean, o.value.cov)
                )
            )
        else:
            new_sources.append(InformationSource(src.id, src.kind, src.payload))
    p = FusionProblem(problem.dim, new_sources)
    p.set_weights(problem.weights)
    return p


class TestFuse:
    def test_local_only_equals_naive(self):
        p = scalar_pair_problem()
        res = fuse(p, np.zeros(2))
        assert res.ci_weights.w_local == 1.0
        assert res.map[1] == pytest.approx(2.0, abs=1e-8)  # midpoint of 1 and 3

    def test_comm_map_between_local_and_comm_only(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 4.0, 1.0)),
        ]
        p = FusionProblem(2, sources)
        res = fuse(p, np.zeros(2))
        assert 0.0 <= res.map[1] <= 4.0

    def test_chi2_monotone_improvement(self):
        rng = np.random.default_rng(43)
        p, _ = random_linear_problem(rng, 2)
        m_cur = np.hstack([np.zeros((2, 2)), np.eye(2)])
        p = FusionProblem(
            4,
            p.sources
            + [InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, [5.0, -3.0], np.eye(2)))],
        )
        x0 = np.zeros(4)
        res = fuse(p, x0)
        r0, _ = p.assemble(x0)
        assert res.chi2 <= float(r0 @ r0) + 1e-12

    def test_one_linearization_per_fuse(self, monkeypatch):
        # solve_map never assembles the stacked system: the one assembly of
        # a fuse is its Linearization at the MAP.
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 4.0, 1.0)),
        ]
        p = FusionProblem(2, sources)
        solves = count_calls(monkeypatch, fusion, "solve_map")
        linearizations = count_calls(monkeypatch, fusion, "Linearization")
        assembles = count_calls(monkeypatch, FusionProblem, "assemble")
        fuse(p, np.zeros(2))
        assert solves[0] == 2
        assert (linearizations[0], assembles[0]) == (1, 1)
        # The fixed rows are dropped with the fuse.
        assert p._fixed is None

    def test_result_equals_fresh_linearization_at_map(self):
        rng = np.random.default_rng(53)
        p, _ = random_linear_problem(rng, 2)
        m_cur = np.hstack([np.zeros((2, 2)), np.eye(2)])
        p = FusionProblem(
            4,
            p.sources
            + [InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, [1.0, -2.0], np.eye(2)))],
        )
        res = fuse(p, np.zeros(4))
        lin = Linearization(p, res.map)
        np.testing.assert_array_equal(res.post_cov, posterior_covariance(lin))
        assert res.chi2 == float(lin.r @ lin.r)
        fresh = implicit_jacobian(lin, fusion.RELAYED_KINDS)
        assert res.jac_chunks.keys() == fresh.keys() == {"prior", "c1"}
        for sid, chunk in fresh.items():
            np.testing.assert_array_equal(res.jac_chunks[sid], chunk)
        # Solving only some chunks gives the same columns as solving all.
        every = implicit_jacobian(lin)
        assert set(every) == {s.id for s in p.sources}
        for sid, chunk in fresh.items():
            np.testing.assert_allclose(chunk, every[sid], rtol=1e-12, atol=1e-15)

    def test_numpy_failure_is_a_typed_error(self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(fusion, "_newton_direction", failing)
        p = FusionProblem(
            2,
            [
                InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
                InformationSource("pred", KIND_PREDICTION, LowpassModel(1, 1.0)),
                InformationSource("c1", KIND_COMMUNICATION, obs([[0.0, 1.0]], 4.0, 1.0)),
            ],
        )
        with pytest.raises(KernelFailure, match="SVD did not converge"):
            fuse(p, np.zeros(2))
        assert p._fixed is None

    def test_well_posedness_error_names_coordinates(self):
        sources = [
            InformationSource("prior", KIND_PRIOR, obs([[0.0, 1.0]], 0.0, 1.0)),
        ]
        p = FusionProblem(2, sources, coord_names=["next.flow", "cur.flow"])
        with pytest.raises(WellPosednessError) as err:
            fuse(p, np.zeros(2))
        assert "next.flow" in err.value.uninformed

    def test_ci_consistency_monte_carlo_small(self):
        # CI fused covariance must dominate the true fused-error covariance
        # for admissible cross-covariances (small version; acceptance runs 1e3).
        rng = np.random.default_rng(47)
        worst = ci_consistency_worst_eig(rng, trials=100, n=2)
        assert worst >= -1e-9


def ci_consistency_worst_eig(rng, trials, n):
    """Monte-Carlo check of CI conservatism through the fusion machinery.

    Builds random estimate pairs with a random admissible cross-covariance,
    fuses them via a FusionProblem (prior = local estimate, communication =
    neighbor estimate), and returns the worst eigenvalue of
    (fused covariance - true error covariance of the fused mean).
    """
    worst = np.inf
    for _ in range(trials):
        g1 = random_spd(rng, n)
        g2 = random_spd(rng, n)
        # admissible cross-covariance: joint [[g1, c], [c^T, g2]] PSD
        s1 = np.linalg.cholesky(g1)
        s2 = np.linalg.cholesky(g2)
        contraction = rng.uniform(0.0, 0.95)
        u, _, vt = np.linalg.svd(rng.standard_normal((n, n)))
        c = s1 @ (contraction * u @ vt) @ s2.T

        m_cur = np.hstack([np.zeros((n, n)), np.eye(n)])
        sources = [
            InformationSource("prior", KIND_PRIOR, obs(m_cur, np.zeros(n), g1)),
            InformationSource("pred", KIND_PREDICTION, LowpassModel(n, 1.0)),
            InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, np.zeros(n), g2)),
        ]
        p = FusionProblem(2 * n, sources)
        res = fuse(p, np.zeros(2 * n))
        w = res.ci_weights
        fused_cov = res.post_cov[n:, n:]

        inv1 = np.linalg.inv(g1)
        inv2 = np.linalg.inv(g2)
        gain = np.linalg.inv(w.w_local * inv1 + w.w_comm["comm:c1"] * inv2)
        k1 = gain @ (w.w_local * inv1)
        k2 = gain @ (w.w_comm["comm:c1"] * inv2)
        true_err = k1 @ g1 @ k1.T + k2 @ g2 @ k2.T + k1 @ c @ k2.T + k2 @ c.T @ k1.T
        worst = min(worst, float(np.linalg.eigvalsh(fused_cov - true_err)[0]))
    return worst
