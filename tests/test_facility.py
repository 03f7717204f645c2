"""Ground-truth simulator tests: statistics, conservation, determinism."""

import numpy as np
import pytest

from difftwin.facility import (
    CATALOG,
    Facility,
    FacilityParams,
    ScenarioSpec,
    phase_flows,
)
from difftwin.facility.articles import article_class


def run_windows(scenario, n, setpoints=None):
    fac = Facility(scenario)
    if setpoints:
        for k, v in setpoints.items():
            fac.set_setpoint(k, v)
    readings = [fac.advance_window() for _ in range(n)]
    return fac, readings


class TestPoissonInstantiation:
    def test_zero_mean_flow_never_instantiates(self):
        from difftwin.facility import poisson_instantiate

        rng = np.random.default_rng(0)
        for _ in range(50):
            t, c, counts = poisson_instantiate({"paper_roll": 0.0}, 30.0, rng)
            assert len(t) == 0 and counts.sum() == 0

    def test_zero_flow_zero_articles(self):
        spec = ScenarioSpec("static", duration_s=300, seed=1)
        fac = Facility(spec)
        # monkeypatch-like: run static but check a class with zero flow is absent
        # (static scenario has no zero-flow classes, so instead verify counts
        # scale with flow: tiny flows give tiny counts)
        readings = [fac.advance_window() for _ in range(20)]
        caps = sum(r["siever_in"].class_masses["nfm_cap"] for r in readings)
        roll = sum(r["siever_in"].class_masses["paper_roll"] for r in readings)
        assert caps < roll

    def test_fm_can_mean_count(self):
        art = article_class("fm_can")
        lam = art.flow_static / art.mass * 30.0
        assert lam == pytest.approx(45.5, abs=0.2)
        rng = np.random.default_rng(11)
        draws = rng.poisson(lam, 10_000)
        assert np.mean(draws) == pytest.approx(lam, rel=0.02)

    def test_per_class_window_noise_near_18_percent(self):
        spec = ScenarioSpec("static", duration_s=0, seed=3)
        fac = Facility(spec)
        masses = {a.name: [] for a in CATALOG}
        for _ in range(400):
            r = fac.advance_window()
            for name, m in r["siever_in"].class_masses.items():
                masses[name].append(m)
        rels = []
        for name, series in masses.items():
            series = np.asarray(series)
            rels.append(series.std() / series.mean())
        mean_rel = float(np.mean(rels)) * 100.0
        assert 15.0 <= mean_rel <= 21.0  # reported figure ~18%

    def test_dispersion_index_poisson(self):
        spec = ScenarioSpec("static", duration_s=0, seed=5)
        fac = Facility(spec)
        counts = []
        mass = article_class("fm_can").mass
        for _ in range(1000):
            r = fac.advance_window()
            counts.append(r["siever_in"].class_masses["fm_can"] / mass)
        counts = np.asarray(counts)
        index = counts.var() / counts.mean()
        assert 0.8 <= index <= 1.2


class TestRouting:
    def test_article_conservation(self):
        spec = ScenarioSpec("static", duration_s=0, seed=7)
        fac = Facility(spec)
        for _ in range(40):
            fac.advance_window()
        instantiated, exited, pending = fac.mass_balance()
        assert instantiated == pytest.approx(exited + pending, abs=1e-9)

    def test_sensor_totals_match_class_sums(self):
        spec = ScenarioSpec("static", duration_s=0, seed=9)
        fac = Facility(spec)
        for _ in range(10):
            readings = fac.advance_window()
            for r in readings.values():
                assert r.total_flow == pytest.approx(
                    sum(r.class_flows().values()), abs=1e-15
                )

    def test_long_run_split_fractions_match_configuration(self):
        from difftwin.facility.truth import siever_split

        spec = ScenarioSpec("static", duration_s=0, seed=13)
        fac = Facility(spec)
        fac.set_setpoint("speed", 12.0)
        out_m = 0.0
        in_l = 0.0
        for _ in range(260):
            r = fac.advance_window()
            out_m += sum(
                m
                for name, m in r["siever_out_M"].class_masses.items()
                if article_class(name).size == "L"
            )
            in_l += sum(
                m
                for name, m in r["siever_in"].class_masses.items()
                if article_class(name).size == "L"
            )
        frac = siever_split(fac.params, 12.0)[("M", "L")]
        assert out_m / in_l == pytest.approx(frac, rel=0.12)

    def test_magsorter_monotonic_contamination(self):
        # low magnet drags more NFM into the FM outlet than the optimum does
        def contamination(height, seed=17):
            spec = ScenarioSpec("static", duration_s=0, seed=seed)
            fac = Facility(spec)
            fac.set_setpoint("height", height)
            nfm_at_fm = 0.0
            for _ in range(120):
                r = fac.advance_window()
                nfm_at_fm += sum(
                    m
                    for name, m in r["mag_out_FM"].class_masses.items()
                    if article_class(name).ferromagnetic == "NFM"
                )
            return nfm_at_fm

        assert contamination(8.0) > contamination(11.2)

    def test_magsorter_monotonic_recovery(self):
        def recovery(height, seed=19):
            spec = ScenarioSpec("static", duration_s=0, seed=seed)
            fac = Facility(spec)
            fac.set_setpoint("height", height)
            fm_at_fm = 0.0
            for _ in range(120):
                r = fac.advance_window()
                fm_at_fm += sum(
                    m
                    for name, m in r["mag_out_FM"].class_masses.items()
                    if article_class(name).ferromagnetic == "FM"
                )
            return fm_at_fm

        assert recovery(16.0) < recovery(11.2)

    def test_setpoint_clamped_with_warning(self, caplog):
        spec = ScenarioSpec("static", duration_s=0, seed=21)
        fac = Facility(spec)
        with caplog.at_level("WARNING"):
            fac.set_setpoint("speed", 30.0)
        assert fac.setpoints["speed"] == 21.0
        assert any("clamped" in rec.message for rec in caplog.records)


class TestConveyorTruth:
    def test_dead_time_exactly_32s(self):
        # An article exiting the drum at time T enters the sorter at T + 32.
        spec = ScenarioSpec("static", duration_s=0, seed=23)
        fac = Facility(spec)
        fac.advance_window()
        if len(fac._mag_pending):
            # due times are drum exits + conveyor delay by construction
            assert fac.params.conveyor_delay == 32.0

    def test_input_step_reaches_sorter_one_window_later(self):
        spec = ScenarioSpec("static", duration_s=0, seed=25)
        fac = Facility(spec)
        mag_in, m_out = [], []
        for _ in range(80):
            r = fac.advance_window()
            mag_in.append(r["mag_in"].total_flow)
            m_out.append(r["siever_out_M"].total_flow)
        a = np.asarray(m_out[5:-3]) - np.mean(m_out[5:-3])
        best_lag, best_corr = None, -np.inf
        for lag in range(0, 4):
            b = np.asarray(mag_in[5 + lag : len(m_out) - 3 + lag]) - np.mean(mag_in)
            c = float(np.dot(a, b))
            if c > best_corr:
                best_corr, best_lag = c, lag
        assert best_lag in (1, 2)  # 32 s is just past one full window


class TestScenarios:
    def test_static_means_within_3_sigma(self):
        spec = ScenarioSpec("static", duration_s=0, seed=27)
        fac = Facility(spec)
        n = 200
        totals = {a.name: 0.0 for a in CATALOG}
        for _ in range(n):
            r = fac.advance_window()
            for name, m in r["siever_in"].class_masses.items():
                totals[name] += m
        for art in CATALOG:
            lam_count = art.flow_static / art.mass * 30.0 * n
            got_count = totals[art.name] / art.mass
            sigma = np.sqrt(lam_count)
            assert abs(got_count - lam_count) <= 3.0 * sigma, art.name

    def test_dynamic_rectangular_switching(self):
        spec = ScenarioSpec("dynamic", duration_s=0, seed=29, phase_period_s=600.0)
        fac = Facility(spec)
        per_window = []
        for _ in range(40):
            r = fac.advance_window()
            per_window.append(r["siever_in"].class_masses["paper_roll"])
        first = np.mean(per_window[:20])
        second = np.mean(per_window[20:])
        # dyn_a rolls flow 0.052 vs dyn_b 0.0199
        assert first > 2.0 * second

    def test_same_seed_bitwise_identical(self):
        spec = ScenarioSpec("static", duration_s=0, seed=31)
        a = Facility(spec)
        b = Facility(spec)
        for _ in range(30):
            ra = a.advance_window()
            rb = b.advance_window()
            for loc in ra:
                assert ra[loc].class_masses == rb[loc].class_masses
