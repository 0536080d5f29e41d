import math

import numpy as np
import pytest

from ddaenorm import (
    PerturbationStudy,
    commensurate_approximation,
    decompose,
    eval_Ta,
    run_perturbation_study,
    sample_delays,
    strong_hinf_norm_T,
)


class TestCommensurateApproximation:
    def test_already_commensurate(self):
        np.testing.assert_array_equal(commensurate_approximation([1.0, 2.0], 1), [1.0, 2.0])

    def test_rounding(self):
        out = commensurate_approximation([1.0, np.sqrt(2.0)], 100)
        np.testing.assert_allclose(out, [1.0, 1.41])

    def test_error_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tau = rng.uniform(0.3, 5.0, 3)
            s = int(rng.integers(1, 50))
            out = commensurate_approximation(tau, s)
            assert np.abs(out - tau).max() <= 0.5 / s + 1e-15

    def test_zero_rounding_rejected(self):
        with pytest.raises(ValueError):
            commensurate_approximation([0.04], 10)

    def test_periodicity_after_approximation(self, sys_a):
        # tau_r = round(tau * 10)/10 makes T_a periodic with period 2*pi*10.
        dec = decompose(sys_a)
        tau_r = commensurate_approximation([1.0, np.sqrt(2.0)], 10)
        rng = np.random.default_rng(1)
        for w in rng.uniform(0.0, 30.0, 20):
            a = eval_Ta(dec, w, tau_r)
            b = eval_Ta(dec, w + 2.0 * np.pi * 10, tau_r)
            assert np.abs(a - b).max() < 1e-10


class TestSampling:
    def test_deterministic_rational_hits_lattice_points(self):
        study = PerturbationStudy(tau=[1.0, 2.0], epsilon=0.02, count=8)
        samples = [tuple(np.round(s, 6)) for s in sample_delays(study)]
        assert (0.99, 2.0) in samples
        assert all(np.linalg.norm(np.array(s) - [1.0, 2.0]) < 0.02 for s in samples)

    def test_tiny_epsilon_falls_back_to_nominal(self):
        study = PerturbationStudy(tau=[1.0, 2.0], epsilon=1e-12, count=4)
        samples = sample_delays(study)
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0], [1.0, 2.0])

    def test_random_uniform_in_ball(self):
        study = PerturbationStudy(tau=[1.0, 2.0], epsilon=0.1,
                                  scheme="random-uniform", count=32, seed=3)
        samples = sample_delays(study)
        assert len(samples) == 32
        for s in samples:
            assert np.linalg.norm(s - np.array([1.0, 2.0])) < 0.1
            assert (s > 0).all()

    def test_random_is_seed_deterministic(self):
        kw = dict(tau=[1.0, 2.0], epsilon=0.1, scheme="random-uniform", count=5, seed=7)
        a = sample_delays(PerturbationStudy(**kw))
        b = sample_delays(PerturbationStudy(**kw))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            PerturbationStudy(tau=[1.0], epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            PerturbationStudy(tau=[1.0], epsilon=epsilon, scheme="random-uniform")

    @pytest.mark.parametrize("tau", [[-1.0, 2.0], [math.nan, 2.0]])
    def test_bad_delays_rejected(self, tau):
        # a negative delay made the random scheme's rejection loop run forever
        with pytest.raises(ValueError, match="^tau must hold finite, strictly positive"):
            PerturbationStudy(tau=tau, epsilon=0.1, scheme="random-uniform")


class TestStudies:
    def test_covers_first_rational_perturbation(self, sys_a):
        study = PerturbationStudy(tau=sys_a.tau, epsilon=0.02, count=4)
        run_perturbation_study(sys_a, study)
        assert all(r.status == "ok" for r in study.records)
        by_tau = {tuple(np.round(r.tau_sample, 6)): r for r in study.records}
        rec = by_tau[(0.99, 2.0)]
        assert rec.hinf == pytest.approx(3.9993, abs=1e-3)
        assert rec.peak_omega == pytest.approx(158.6578, rel=0.01)

    def test_tight_ball_reaches_second_perturbation(self, sys_a):
        # epsilon = 0.002 admits the s = 1000 lattice: the nominal delays and
        # their single-coordinate neighbor (0.999, 2).
        study = PerturbationStudy(tau=sys_a.tau, epsilon=0.002, count=2)
        run_perturbation_study(sys_a, study)
        by_tau = {tuple(np.round(r.tau_sample, 6)): r for r in study.records}
        assert by_tau[(1.0, 2.0)].hinf == pytest.approx(2.6422, abs=1e-3)
        assert by_tau[(0.999, 2.0)].hinf == pytest.approx(3.9998, abs=1e-3)

    def test_upper_envelope_below_strong_norm(self, sys_a):
        strong = strong_hinf_norm_T(sys_a).value
        study = PerturbationStudy(tau=sys_a.tau, epsilon=0.02, count=4)
        run_perturbation_study(sys_a, study)
        assert study.max_hinf <= strong + 1e-3

    def test_monotone_approach_to_strong_norm(self, sys_a, monkeypatch):
        # hinf at (1 - 10^-k, 2) climbs toward 4 as the perturbation shrinks.
        # The reported value is the smallest-frequency peak inside the level
        # tie window, so it may sit up to one window width below the best
        # peak; the best peaks themselves must be monotone.
        from ddaenorm import hinf_norm_T, norms
        dec = decompose(sys_a)
        values, peaks, tols = [], [], []
        for k, density in ((2, norms.SCAN_DENSITY), (3, norms.SCAN_DENSITY), (4, 32)):
            monkeypatch.setattr(norms, "SCAN_DENSITY", density)
            res = hinf_norm_T(sys_a, dec, tau=[1.0 - 10.0 ** (-k), 2.0])
            values.append(res.value)
            peaks.append(res.diagnostics["global_peak"])
            tols.append(res.rel_tol * res.value)
        assert all(a <= b + 1e-12 for a, b in zip(peaks, peaks[1:]))
        assert all(b >= a - tol for a, b, tol in zip(values, values[1:], tols))
        assert values[-1] <= 4.0 + 1e-9
        assert peaks[-1] == pytest.approx(4.0, abs=1e-3)

    def test_failures_recorded_not_raised(self):
        # gamma_a > 1 makes every record fail, but the study survives.
        from ddaenorm import DdaeSystem
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[1.0]], [[-1.0]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        study = PerturbationStudy(tau=sys.tau, epsilon=0.05, count=2)
        with pytest.warns(RuntimeWarning):
            run_perturbation_study(sys, study)
        assert study.records
        assert all(r.status == "solver-failure" for r in study.records)
        assert math.isnan(study.max_hinf)

    def test_csv_and_json_outputs(self, sys_a, tmp_path):
        study = PerturbationStudy(tau=sys_a.tau, epsilon=0.02, count=2)
        run_perturbation_study(sys_a, study)
        csv_path = tmp_path / "study.csv"
        study.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "tau_1,tau_2,hinf,peak_omega,status"
        assert len(lines) == 3
        doc = study.to_dict()
        assert doc["records"][0]["status"] == "ok"
