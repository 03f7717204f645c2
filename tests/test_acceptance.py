"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Long scenario runs are shared
module-scoped fixtures; everything is deterministic for fixed seeds.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
from collections import defaultdict

import numpy as np
import pytest

from difftwin.facility import ScenarioSpec
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
    posterior_covariance,
    solve_map,
)
from difftwin.gaussian import GaussianEstimate, LinearObservation
from difftwin.oracle import oracle_optimum
from difftwin.protocol import decode, encode
from difftwin.runner import RunConfig, run

RUN_SEED = 7


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared scenario runs -------------------------------------------------------


@pytest.fixture(scope="module")
def static_opt_run(prepared_models, tmp_path_factory):
    mlp_doc, fit_doc = prepared_models
    cfg = RunConfig(
        scenario=ScenarioSpec("static", duration_s=2400.0, seed=RUN_SEED),
        out_dir=str(tmp_path_factory.mktemp("static_opt")),
        optimize=True,
        mlp_doc=mlp_doc,
        siever_fit_doc=fit_doc,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def static_noopt_run(prepared_models, tmp_path_factory):
    mlp_doc, fit_doc = prepared_models
    cfg = RunConfig(
        scenario=ScenarioSpec("static", duration_s=1500.0, seed=RUN_SEED),
        out_dir=str(tmp_path_factory.mktemp("static_noopt")),
        optimize=False,
        mlp_doc=mlp_doc,
        siever_fit_doc=fit_doc,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def dynamic_noopt_run(prepared_models, tmp_path_factory):
    mlp_doc, fit_doc = prepared_models
    cfg = RunConfig(
        scenario=ScenarioSpec("dynamic", duration_s=1800.0, seed=RUN_SEED),
        out_dir=str(tmp_path_factory.mktemp("dyn_noopt")),
        optimize=False,
        mlp_doc=mlp_doc,
        siever_fit_doc=fit_doc,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def dynamic_opt_run(prepared_models, tmp_path_factory):
    mlp_doc, fit_doc = prepared_models
    cfg = RunConfig(
        scenario=ScenarioSpec(
            "dynamic", duration_s=3900.0, seed=RUN_SEED, phase_period_s=900.0
        ),
        out_dir=str(tmp_path_factory.mktemp("dyn_opt")),
        optimize=True,
        mlp_doc=mlp_doc,
        siever_fit_doc=fit_doc,
    )
    return run(cfg)


# -- randomized fusion problem generator ----------------------------------------


class LinearPred:
    def __init__(self, n, var=0.5):
        self.n = n
        self.out_dim = n
        self.noise_cov = var * np.eye(n)

    def evaluate(self, x):
        return x[: self.n] - x[self.n :]

    def jacobian(self, x):
        return np.hstack([np.eye(self.n), -np.eye(self.n)])


class QuadRow:
    """One mildly nonlinear process row: x_k^2 anchored near a target."""

    def __init__(self, dim, coord, target, var):
        self.dim = dim
        self.coord = coord
        self.target = target
        self.out_dim = 1
        self.noise_cov = np.array([[var]])

    def evaluate(self, x):
        return np.array([x[self.coord] ** 2 - self.target])

    def jacobian(self, x):
        jac = np.zeros((1, self.dim))
        jac[0, self.coord] = 2.0 * x[self.coord]
        return jac


class OffsetModel:
    """Wraps a model with one residual row shifted by a constant, which is
    equivalent to shifting that row's inhomogeneity entry."""

    def __init__(self, base, row, delta):
        self.base = base
        self.row = row
        self.delta = delta
        self.out_dim = base.out_dim
        self.noise_cov = base.noise_cov

    def evaluate(self, x):
        r = np.array(self.base.evaluate(x), dtype=float)
        r[self.row] -= self.delta
        return r

    def jacobian(self, x):
        return self.base.jacobian(x)


def obs(matrix, mean, cov):
    return LinearObservation(
        np.atleast_2d(np.asarray(matrix, dtype=float)),
        GaussianEstimate(np.atleast_1d(mean), np.atleast_2d(cov)),
    )


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def random_problem(rng, nonlinear=True, with_comm=True):
    """Mixed linear/nonlinear fusion problem with near-consistent data, so
    the omitted second-order terms stay within the stated tolerance."""
    n_x = int(rng.integers(1, 7))
    dim = 2 * n_x
    m_pr = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
    sources = [
        InformationSource(
            "prior", KIND_PRIOR, obs(m_pr, rng.standard_normal(n_x), random_spd(rng, n_x))
        ),
        InformationSource("pred", KIND_PREDICTION, LinearPred(n_x)),
    ]
    for i in range(int(rng.integers(1, 3))):
        rows = int(rng.integers(1, n_x + 1))
        sources.append(
            InformationSource(
                f"s{i}",
                KIND_SENSOR,
                obs(rng.standard_normal((rows, dim)), rng.standard_normal(rows), random_spd(rng, rows)),
            )
        )
    if with_comm and rng.random() < 0.7:
        for i in range(int(rng.integers(1, 3))):
            sources.append(
                InformationSource(
                    f"c{i}",
                    KIND_COMMUNICATION,
                    obs(m_pr, rng.standard_normal(n_x), random_spd(rng, n_x)),
                )
            )
    problem = FusionProblem(dim, sources)
    x_lin = solve_map(problem, np.zeros(dim))
    if nonlinear:
        coord = int(rng.integers(0, dim))
        target = x_lin[coord] ** 2 + 1e-4 * rng.standard_normal()
        sources = sources + [
            InformationSource("quad", KIND_PROCESS, QuadRow(dim, coord, target, 10.0))
        ]
        problem = FusionProblem(dim, sources)
    return problem, x_lin


def shift_beta(problem, source_id, comp, delta):
    """Rebuild the problem with one inhomogeneity entry shifted."""
    new_sources = []
    for src in problem.sources:
        if src.id != source_id:
            new_sources.append(InformationSource(src.id, src.kind, src.payload))
        elif src.is_model:
            new_sources.append(
                InformationSource(src.id, src.kind, OffsetModel(src.payload, comp, delta))
            )
        else:
            o = src.payload
            mean = o.value.mean.copy()
            mean[comp] += delta
            new_sources.append(
                InformationSource(src.id, src.kind, obs(o.matrix, mean, o.value.cov))
            )
    shifted = FusionProblem(problem.dim, new_sources)
    shifted.set_weights(problem.weights)
    return shifted


# -- criteria -------------------------------------------------------------------


class TestCriterion01ImplicitJacobian:
    def test_fd_agreement_on_50_random_problems(self):
        rng = np.random.default_rng(2024)
        h = 1e-5
        worst = 0.0
        for _ in range(50):
            problem, x_lin = random_problem(rng)
            x0 = x_lin + 0.05 * rng.standard_normal(problem.dim)
            x_map = solve_map(problem, x0)
            chunks = implicit_jacobian(Linearization(problem, x_map))
            for sid, off, m in problem.offsets:
                fd = np.zeros((problem.dim, m))
                for comp in range(m):
                    for sign in (1.0, -1.0):
                        shifted = shift_beta(problem, sid, comp, sign * h)
                        fd[:, comp] += sign * solve_map(shifted, x_map) / (2 * h)
                scale = max(np.abs(fd).max(), 1e-12)
                err = np.abs(chunks[sid] - fd).max() / scale
                worst = max(worst, err)
        report(
            "criterion 1 implicit Jacobian vs finite differences",
            worst <= 1e-4,
            f"max relative error {worst:.2e} (tolerance 1e-4)",
        )


class TestCriterion02LinearGaussianOracle:
    def test_gls_equivalence(self):
        rng = np.random.default_rng(11)
        worst_mean = worst_cov = 0.0
        for _ in range(20):
            problem, _ = random_problem(rng, nonlinear=False, with_comm=False)
            mats, means, covs = [], [], []
            for src in problem.sources:
                if src.is_model:
                    mats.append(np.hstack([np.eye(src.payload.n), -np.eye(src.payload.n)]))
                    means.append(np.zeros(src.payload.n))
                    covs.append(src.payload.noise_cov)
                else:
                    mats.append(src.payload.matrix)
                    means.append(src.payload.value.mean)
                    covs.append(src.payload.value.cov)
            m = np.vstack(mats)
            b = np.concatenate(means)
            w = np.zeros((len(b), len(b)))
            off = 0
            for c in covs:
                c = np.atleast_2d(c)
                k = c.shape[0]
                w[off : off + k, off : off + k] = np.linalg.inv(c)
                off += k
            info = m.T @ w @ m
            want_cov = np.linalg.inv(info)
            want_mean = want_cov @ (m.T @ w @ b)

            res = fuse(problem, np.zeros(problem.dim))
            scale_m = max(np.abs(want_mean).max(), 1.0)
            scale_c = np.abs(want_cov).max()
            worst_mean = max(worst_mean, np.abs(res.map - want_mean).max() / scale_m)
            worst_cov = max(worst_cov, np.abs(res.post_cov - want_cov).max() / scale_c)
        report(
            "criterion 2 linear-Gaussian closed form",
            worst_mean <= 1e-8 and worst_cov <= 1e-8,
            f"mean err {worst_mean:.2e}, cov err {worst_cov:.2e} (tolerance 1e-8)",
        )


class TestCriterion03CiConsistency:
    def test_monte_carlo_conservatism(self):
        rng = np.random.default_rng(33)
        worst = np.inf
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            g1 = random_spd(rng, n)
            g2 = random_spd(rng, n)
            s1 = np.linalg.cholesky(g1)
            s2 = np.linalg.cholesky(g2)
            contraction = rng.uniform(0.0, 0.95)
            u, _, vt = np.linalg.svd(rng.standard_normal((n, n)))
            cross = s1 @ (contraction * u @ vt) @ s2.T

            m_cur = np.hstack([np.zeros((n, n)), np.eye(n)])
            sources = [
                InformationSource("prior", KIND_PRIOR, obs(m_cur, np.zeros(n), g1)),
                InformationSource("pred", KIND_PREDICTION, LinearPred(n, 1.0)),
                InformationSource("c1", KIND_COMMUNICATION, obs(m_cur, np.zeros(n), g2)),
            ]
            problem = FusionProblem(2 * n, sources)
            res = fuse(problem, np.zeros(2 * n))
            w = res.ci_weights
            fused_cov = res.post_cov[n:, n:]

            inv1 = np.linalg.inv(g1)
            inv2 = np.linalg.inv(g2)
            gain = np.linalg.inv(w.w_local * inv1 + w.w_comm["comm:c1"] * inv2)
            k1 = gain @ (w.w_local * inv1)
            k2 = gain @ (w.w_comm["comm:c1"] * inv2)
            true_err = k1 @ g1 @ k1.T + k2 @ g2 @ k2.T + k1 @ cross @ k2.T + k2 @ cross.T @ k1.T
            worst = min(worst, float(np.linalg.eigvalsh(fused_cov - true_err)[0]))
        report(
            "criterion 3 covariance-intersection conservatism",
            worst >= -1e-9,
            f"min eigenvalue of (fused - true) over 1e3 pairs: {worst:.2e} (floor -1e-9)",
        )


class TestCriterion04CiWeightOptimizer:
    def test_grid_agreement(self):
        rng = np.random.default_rng(44)
        worst_gap = 0.0
        for trial in range(4):
            n_x = int(rng.integers(1, 3))
            dim = 2 * n_x
            m_cur = np.hstack([np.zeros((n_x, n_x)), np.eye(n_x)])
            n_comm = 1 + trial % 2  # two and three CI groups
            sources = [
                InformationSource(
                    "prior", KIND_PRIOR, obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x))
                ),
                InformationSource("pred", KIND_PREDICTION, LinearPred(n_x)),
            ]
            for i in range(n_comm):
                sources.append(
                    InformationSource(
                        f"c{i}",
                        KIND_COMMUNICATION,
                        obs(m_cur, rng.standard_normal(n_x), random_spd(rng, n_x)),
                    )
                )
            problem = FusionProblem(dim, sources)
            x0 = np.zeros(dim)
            weights = ci_optimize_weights(problem, x0)
            problem.set_weights(weights)
            got = np.linalg.slogdet(posterior_covariance(Linearization(problem, x0)))[1]

            groups = problem.comm_groups()
            best = np.inf
            grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
            if len(groups) == 1:
                for wl in grid:
                    problem.set_weights(CiWeights(w_local=wl, w_comm={groups[0]: 1 - wl}))
                    try:
                        cov = posterior_covariance(Linearization(problem, x0))
                        best = min(best, np.linalg.slogdet(cov)[1])
                    except Exception:
                        pass
            else:
                for wl in grid:
                    for w1 in np.arange(0.0, 1.0 - wl + 1e-12, 1e-3):
                        problem.set_weights(
                            CiWeights(
                                w_local=wl,
                                w_comm={groups[0]: w1, groups[1]: 1.0 - wl - w1},
                            )
                        )
                        try:
                            cov = posterior_covariance(Linearization(problem, x0))
                            best = min(best, np.linalg.slogdet(cov)[1])
                        except Exception:
                            pass
            worst_gap = max(worst_gap, got - best)
        report(
            "criterion 4 CI weight optimizer vs 1e-3 simplex grid",
            worst_gap <= 1e-4,
            f"worst log-det gap {worst_gap:.2e} (tolerance 1e-4)",
        )


def _series_from_states(path, node, prefix):
    series = defaultdict(float)
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["node"] == node and row["coord"].startswith(prefix):
                series[int(row["window"])] += float(row["mean"])
    return [series[w] for w in sorted(series)]


class TestCriterion05DeadTime:
    def test_step_appears_one_step_later(self, dynamic_noopt_run):
        res = dynamic_noopt_run
        inp = np.asarray(
            _series_from_states(res.states_path, "conveyor", "hist.")
        )
        # history slot zero only: rebuild precisely
        inp = np.asarray(_inferred_inputs(res.states_path))
        out = np.asarray(_series_from_states(res.states_path, "conveyor", "out."))
        a = np.diff(inp)
        b = np.diff(out)
        corrs = {}
        for lag in range(0, 4):
            aa, bb = a[: len(a) - lag or None], b[lag:]
            corrs[lag] = float(np.dot(aa, bb) / (np.linalg.norm(aa) * np.linalg.norm(bb) + 1e-12))
        peak = max(corrs, key=corrs.get)
        report(
            "criterion 5 conveyor dead time shift",
            peak == 1,
            f"cross-correlation peak at lag {peak} (need 1); corrs {corrs}",
        )


def _inferred_inputs(path):
    series = defaultdict(float)
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if (
                row["node"] == "conveyor"
                and row["coord"].startswith("hist.")
                and row["coord"].endswith(".0")
            ):
                series[int(row["window"])] += float(row["mean"])
    return [series[w] for w in sorted(series)]


class TestCriterion06Calibration:
    def test_two_sigma_coverage(self, static_noopt_run):
        res = static_noopt_run
        total = hit = 0
        with open(res.states_path) as fh:
            for row in csv.DictReader(fh):
                if row["truth"] == "" or float(row["time_s"]) < 300.0:
                    continue
                mean, std, truth = (
                    float(row["mean"]),
                    float(row["std"]),
                    float(row["truth"]),
                )
                total += 1
                hit += abs(truth - mean) <= 2.0 * std
        coverage = hit / max(total, 1)
        report(
            "criterion 6 inference calibration",
            coverage >= 0.85 and total > 500,
            f"2-sigma coverage {coverage:.3f} over {total} (step, coordinate) pairs (need >= 0.85)",
        )


class TestCriterion07StaticOptimization:
    def test_height_converges_and_speed_pins(self, static_opt_run, facility_params):
        res = static_opt_run
        oracle = oracle_optimum(facility_params, "static")
        tail = [r for r in res.rows if r.time_s >= res.rows[-1].time_s - 600.0 + 30.0]
        heights = np.array([r.height for r in tail])
        speeds = np.array([r.speed for r in tail])
        h_ok = abs(heights.mean() - oracle.height) <= 1.0 and heights.std() <= 1.0
        s_ok = speeds.mean() >= 20.5 and speeds[-1] == 21.0
        report(
            "criterion 7 static-scenario optimization",
            h_ok and s_ok,
            f"height mean {heights.mean():.2f} (oracle {oracle.height:.2f} +- 1.0), "
            f"std {heights.std():.2f} (<= 1.0); speed mean {speeds.mean():.2f}, final {speeds[-1]:.1f}",
        )


class TestCriterion08DynamicTracking:
    def test_phase_conditional_means(self, dynamic_opt_run, facility_params):
        res = dynamic_opt_run
        oracle_a = oracle_optimum(facility_params, "dyn_a")
        oracle_b = oracle_optimum(facility_params, "dyn_b")
        period = 900.0
        phases = defaultdict(list)
        for r in res.rows:
            phase_start = (r.time_s // period) * period
            if phase_start < period:  # activation happens in the first phase
                continue
            if r.time_s - phase_start < period / 2:  # transition half
                continue
            if phase_start + period > res.rows[-1].time_s + 30.0:  # incomplete
                continue
            phases[r.phase].append(r.height)
        mean_a = float(np.mean(phases["dyn_a"]))
        mean_b = float(np.mean(phases["dyn_b"]))
        same_direction = (mean_b - mean_a) * (oracle_b.height - oracle_a.height) > 0
        separated = abs(mean_b - mean_a) >= 0.5
        report(
            "criterion 8 dynamic-scenario tracking",
            same_direction and separated,
            f"phase means {mean_a:.2f} / {mean_b:.2f} cm vs oracle "
            f"{oracle_a.height:.2f} / {oracle_b.height:.2f}; separation "
            f"{abs(mean_b - mean_a):.2f} (need >= 0.5, same direction)",
        )


class TestCriterion09MessageEconomy:
    def test_information_bounds_and_gradient_decay(self, static_opt_run):
        res = static_opt_run
        max_pair = max(r.max_info_per_pair_step for r in res.rows)
        max_step = max(r.max_info_per_step for r in res.rows)
        report(
            "criterion 9 message economy",
            max_pair <= 10 and max_step <= 30 and res.max_grad_rounds < 1000,
            f"info per neighbor-step max {max_pair} (<= 10), per step max {max_step} (<= 30), "
            f"gradient avalanche settled within {res.max_grad_rounds} rounds (< 1000)",
        )


class TestCriterion10GradientRelay:
    def test_siever_gradient_nonzero_through_dead_time(self, static_opt_run):
        res = static_opt_run
        first_backprop = next((r for r in res.rows if r.grad_msgs > 0), None)
        ok = first_backprop is not None and first_backprop.siever_grad > 0.0
        report(
            "criterion 10 gradient relay through the conveyor",
            ok,
            "no backpropagation period ran"
            if first_backprop is None
            else f"siever parameter gradient {first_backprop.siever_grad:.2e} after first period",
        )


class TestCriterion11CodecSchema:
    def test_round_trips_and_negatives(self):
        from test_protocol import TestSchema, random_message

        rng = np.random.default_rng(2025)
        ok = True
        for _ in range(1000):
            msg = random_message(rng)
            if decode(encode(msg)) != msg:
                ok = False
                break

        import json

        from difftwin.errors import MalformedMessage

        schema = TestSchema()
        negatives = 0
        for mtype in ("information", "gradient", "control"):
            base = schema.base(mtype)
            for key in set(base) - {"type"}:
                doc = dict(base)
                del doc[key]
                try:
                    decode(json.dumps(doc).encode())
                    ok = False
                except MalformedMessage:
                    negatives += 1
        foreign_cases = [
            ("information", "action", "to_information"),
            ("information", "gradient", [0.0]),
            ("gradient", "mean", [0.0]),
            ("gradient", "cov", [[1.0]]),
            ("gradient", "action", "to_information"),
            ("control", "time_stamp", 1),
            ("control", "mean", [0.0]),
            ("control", "gradient", [0.0]),
            ("control", "cov", [[1.0]]),
        ]
        for mtype, key, value in foreign_cases:
            doc = dict(schema.base(mtype))
            doc[key] = value
            try:
                decode(json.dumps(doc).encode())
                ok = False
            except MalformedMessage:
                negatives += 1
        report(
            "criterion 11 codec and schema",
            ok,
            f"1000 round-trips exact; {negatives} schema negatives rejected",
        )


class TestCriterion12DeterminismAndTransport:
    def test_bitwise_memory_and_tcp_equivalence(self, prepared_models, tmp_path_factory):
        mlp_doc, fit_doc = prepared_models
        digests = []
        for sub in ("one", "two"):
            out = tmp_path_factory.mktemp(f"det_{sub}")
            cfg = RunConfig(
                scenario=ScenarioSpec("static", duration_s=300.0, seed=3),
                out_dir=str(out),
                optimize=True,
                activation_delay=120.0,
                mlp_doc=mlp_doc,
                siever_fit_doc=fit_doc,
            )
            res = run(cfg)
            digests.append(
                (
                    open(res.run_path, "rb").read(),
                    open(res.states_path, "rb").read(),
                    res.final_setpoints,
                )
            )
        bitwise = digests[0][0] == digests[1][0] and digests[0][1] == digests[1][1]

        cfg_tcp = RunConfig(
            scenario=ScenarioSpec("static", duration_s=300.0, seed=3),
            out_dir=str(tmp_path_factory.mktemp("det_tcp")),
            optimize=True,
            activation_delay=120.0,
            transport="tcp",
            mlp_doc=mlp_doc,
            siever_fit_doc=fit_doc,
            write_states=False,
        )
        res_tcp = run(cfg_tcp)
        tcp_gap = max(
            abs(res_tcp.final_setpoints[k] - digests[0][2][k])
            for k in digests[0][2]
        )
        tcp_bitwise = open(res_tcp.run_path, "rb").read() == digests[0][0]
        report(
            "criterion 12 determinism and transport equivalence",
            bitwise and tcp_bitwise and tcp_gap <= 1e-9,
            f"memory runs bitwise identical: {bitwise}; TCP run.csv bitwise identical: "
            f"{tcp_bitwise}; TCP final-parameter gap {tcp_gap:.2e} (<= 1e-9)",
        )
