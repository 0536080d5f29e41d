import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddaenorm import (
    BRANCH_ASYMPTOTIC,
    BRANCH_PLAIN,
    DdaeSystem,
    InstabilityError,
    PerturbationStudy,
    UnboundedNormError,
    check_difference_stability,
    decompose,
    eval_T,
    frequency_bound,
    eval_Ta,
    hinf_norm_T,
    norms,
    run_perturbation_study,
    strong_hinf_norm_T,
    strong_norm_Ta,
    system_model,
)
from ddaenorm.response import sigma_Ta_samples, sigma_Ta_torus_samples
from ddaenorm.system_model import _min_sigma, _pencil_basis, _pencil_map, _torus_grid
from conftest import (
    _orthogonal,
    brute_hinf_formula,
    brute_hinf_system,
    dense_stable_system,
    formula_T,
    formula_T_b,
    make_sys_a,
    make_sys_b,
    random_stable_system,
    three_delay_system,
)


class TestStrongNormTa:
    def test_sys_a_is_four(self, sys_a):
        res = strong_norm_Ta(decompose(sys_a))
        assert res.value == pytest.approx(4.0, abs=1e-6)
        assert res.branch == BRANCH_ASYMPTOTIC
        theta = res.attained_at
        assert theta[0] == pytest.approx(0.0, abs=1e-6) or theta[0] == pytest.approx(
            2 * np.pi, abs=1e-6
        )
        assert theta[1] == pytest.approx(np.pi, abs=1e-6)

    def test_sys_b_is_sixteen_sevenths(self, sys_b):
        res = strong_norm_Ta(decompose(sys_b))
        assert res.value == pytest.approx(16.0 / 7.0, abs=1e-6)

    def test_nu_zero_gives_zero(self):
        sys = DdaeSystem(E=np.eye(2), A=(-np.eye(2), 0.2 * np.eye(2)),
                         B=np.eye(2), C=np.eye(2), tau=[1.0])
        res = strong_norm_Ta(decompose(sys))
        assert res.value == 0.0

    def test_delay_independent_by_construction(self, sys_a):
        # The decomposition carries no delays, so recomputation is bit-identical
        # regardless of which delays any caller has in mind.
        dec = decompose(sys_a)
        a = strong_norm_Ta(dec)
        b = strong_norm_Ta(dec)
        assert a.value == b.value and a.attained_at == b.attained_at

    def test_attainment_point_reevaluates(self, sys_a):
        from ddaenorm import eval_Ta_torus
        dec = decompose(sys_a)
        res = strong_norm_Ta(dec)
        sigma = np.linalg.svd(eval_Ta_torus(dec, res.attained_at), compute_uv=False)[0]
        assert sigma == pytest.approx(res.value, rel=1e-12)

    def test_dominates_frequency_sweep(self, sys_a):
        dec = decompose(sys_a)
        w = np.linspace(0.0, 200.0, 200001)
        sig, ok = sigma_Ta_samples(dec, w, sys_a.tau)
        assert ok.all()
        res = strong_norm_Ta(dec)
        assert res.value >= sig[:, 0].max() - 1e-6

    def test_refuses_large_torus_without_override(self):
        rng = np.random.default_rng(0)
        n, m = 6, 5
        A = [np.eye(n)] + [1e-3 * rng.standard_normal((n, n)) for _ in range(m)]
        sys = DdaeSystem(E=np.zeros((n, n)), A=tuple(A), B=np.eye(n), C=np.eye(n),
                         tau=np.linspace(1.0, 2.0, m))
        with pytest.raises(ValueError):
            strong_norm_Ta(decompose(sys))
        res = strong_norm_Ta(decompose(sys), grid_per_dim=4)
        assert res.value > 0.0

    @pytest.mark.parametrize("g, message", [
        (130.5, "grid_per_dim must be an integer, got 130.5"),
        (64.0, "grid_per_dim must be an integer, got 64.0"),
        ("64", "grid_per_dim must be an integer, got '64'"),
        (True, "grid_per_dim must be at least 2"),
    ])
    def test_non_integral_grid_rejected(self, sys_a, g, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            strong_norm_Ta(decompose(sys_a), grid_per_dim=g)

    def test_integral_grid_accepted(self, sys_a):
        dec = decompose(sys_a)
        assert strong_norm_Ta(dec, grid_per_dim=np.int64(41)) == strong_norm_Ta(dec, 41)

    def test_unbounded_when_difference_part_unstable(self):
        # gamma_a > 1: a torus point makes A22 singular.
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[1.0]], [[-1.0]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(UnboundedNormError):
                strong_norm_Ta(decompose(sys))


class TestHinfNorm:
    def test_sys_a_nominal(self, sys_a):
        res = hinf_norm_T(sys_a)
        assert res.value == pytest.approx(2.6422, abs=1e-3)
        assert res.attained_at == pytest.approx(1.6598, abs=1e-2)
        assert res.branch == BRANCH_PLAIN
        assert res.diagnostics["tail_certified"]

    def test_sys_a_matches_brute_oracle(self, sys_a):
        _, want = brute_hinf_formula(formula_T, 10.0, 400001)
        res = hinf_norm_T(sys_a)
        assert res.value == pytest.approx(want, rel=1e-6)

    def test_perturbed_099(self, sys_a):
        res = hinf_norm_T(sys_a, tau=[0.99, 2.0])
        assert res.value == pytest.approx(3.9993, abs=1e-3)
        assert res.attained_at == pytest.approx(158.6578, rel=0.01)

    def test_perturbed_0999(self, sys_a):
        res = hinf_norm_T(sys_a, tau=[0.999, 2.0])
        assert res.value == pytest.approx(3.9998, abs=1e-3)
        assert res.attained_at == pytest.approx(1566.0816, rel=0.01)

    def test_attainment_reevaluates(self, sys_a):
        res = hinf_norm_T(sys_a)
        sigma = np.linalg.svd(eval_T(sys_a, res.attained_at), compute_uv=False)[0]
        assert sigma == pytest.approx(res.value, rel=res.rel_tol)

    def test_no_sample_above_the_global_peak(self, sys_a, monkeypatch):
        # every polished value is at least its grid sample, so no scan sample
        # (and no stencil point of the polish) lies above the reported peak
        real, top = norms.sigma_T_samples, []

        def sampler(system, grid, *args):
            sig, ok = real(system, grid, *args)
            top.append(sig[ok, 0].max())
            return sig, ok

        monkeypatch.setattr(norms, "sigma_T_samples", sampler)
        res = hinf_norm_T(sys_a, tau=[0.99, 2.0])
        assert max(top) <= res.diagnostics["global_peak"] * (1.0 + 1e-12)
        assert res.diagnostics["iterations"] == len(top) - 2  # the scan took 2 calls

    def test_diagnostics_keys(self, sys_a):
        diag = hinf_norm_T(sys_a, tau=[0.99, 2.0]).diagnostics
        for key in ("iterations", "omega_cap", "global_peak"):
            assert key in diag
        for key in ("levels", "crossings", "level_state", "seed_level"):
            assert key not in diag

    def test_ode_reduction(self):
        # nu = 0 single pole: ||1/(1+jw)||_inf = 1 at w = 0
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        res = hinf_norm_T(sys)
        assert res.value == pytest.approx(1.0, rel=1e-8)
        assert res.attained_at == pytest.approx(0.0, abs=1e-6)

    def test_retarded_system(self):
        # x' = -x - 0.5 x(t-1) + w: stable retarded system, nu = 0
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]], [[-0.5]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        res = hinf_norm_T(sys)
        w = np.linspace(0.0, 50.0, 500001)
        direct = np.abs(1.0 / (1j * w + 1.0 + 0.5 * np.exp(-1j * w)))
        assert res.value == pytest.approx(direct.max(), rel=1e-4)

    def test_unbounded_difference_part(self):
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[1.0]], [[-1.0]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        with pytest.raises(UnboundedNormError):
            hinf_norm_T(sys)
        # m = 2 incommensurate delays: no period of T_a is swept, and the
        # gamma_a gate still refuses the norm (gamma_a = 1.2)
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[1.0]], [[-0.6]], [[-0.6]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0, np.sqrt(2.0)])
        with pytest.raises(UnboundedNormError, match="gamma_a=1.2000 >= 1"):
            hinf_norm_T(sys)

    def test_root_on_the_scan_names_its_frequency(self, sys_a, monkeypatch):
        # a singular sample on the scan, the only one, is reported by frequency
        real = norms.sigma_T_samples
        flagged = []

        def sampler(system, grid, *args):
            sig, ok = real(system, grid, *args)
            if not flagged:
                ok = ok.copy()
                ok[5] = False
                flagged.append(float(grid[5]))
            return sig, ok

        monkeypatch.setattr(norms, "sigma_T_samples", sampler)
        with pytest.raises(InstabilityError) as err:
            hinf_norm_T(sys_a)
        assert len(flagged) == 1
        assert f"omega={flagged[0]:.6g}" in str(err.value)

    def test_one_pass_beats_the_level_loop(self):
        # the level loop reached 3.9215563161592155 here only in a second
        # iteration, after its first polish fell below a scan sample
        res = hinf_norm_T(random_stable_system(6), scan_density=4)
        assert res.value > 3.9215563161592155
        assert res.diagnostics["scan_points"] == 80

    def test_start_at_zero_frequency_climbs(self):
        # a peak within one step of w = 0, whose grid maximum is w = 0: the
        # gradient vanishes there, so only the hard-case step leaves it
        res = hinf_norm_T(random_stable_system(36), scan_density=4)
        assert res.value >= 2.298363774500912 * (1.0 - 1e-14)

    @pytest.mark.parametrize("option, value", [
        ("scan_density", 0), ("scan_density", -3), ("max_scan_points", 1),
        ("bisect_tol", -1e-3), ("bisect_tol", float("nan")),
    ])
    def test_out_of_range_option_rejected(self, sys_a, option, value):
        with pytest.raises(ValueError, match=option):
            hinf_norm_T(sys_a, **{option: value})

    def test_two_scan_points_give_an_honest_bracket(self, sys_a):
        res = hinf_norm_T(sys_a, max_scan_points=2)
        assert res.value == 2.0 and res.abs_tol == 2.0
        assert res.diagnostics["scan_truncated"]


class TestStrongHinfNorm:
    def test_sys_a_branch_asymptotic(self, sys_a):
        res = strong_hinf_norm_T(sys_a)
        assert res.value == 4.0
        assert res.branch == BRANCH_ASYMPTOTIC

    def test_exact_max_of_components(self, sys_a):
        dec = decompose(sys_a)
        plain = hinf_norm_T(sys_a, dec, ta_result=strong_norm_Ta(dec))
        ta = strong_norm_Ta(dec)
        strong = strong_hinf_norm_T(sys_a, dec)
        assert strong.value == max(plain.value, ta.value)

    def test_sys_b_branch_plain(self, sys_b):
        res = strong_hinf_norm_T(sys_b)
        assert res.branch == BRANCH_PLAIN
        _, want = brute_hinf_formula(formula_T_b, 500.0, 1000001)
        assert res.value == pytest.approx(want, rel=1e-4)
        assert not res.diagnostics["tie"]

    def test_ode_equals_plain_norm(self):
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        res = strong_hinf_norm_T(sys)
        assert res.branch == BRANCH_PLAIN
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_strong_at_least_plain(self, sys_b):
        dec = decompose(sys_b)
        plain = hinf_norm_T(sys_b, dec)
        strong = strong_hinf_norm_T(sys_b, dec)
        assert strong.value >= plain.value - 1e-9

    def test_tie_resolves_to_asymptotic_branch(self):
        # Purely algebraic system: T coincides with T_a, and with one delay
        # the frequency sweep fills the whole circle, so the plain norm ties
        # the strong norm of T_a exactly.
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[-1.0]], [[0.25]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        res = strong_hinf_norm_T(sys)
        assert res.value == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert res.diagnostics["tie"]
        assert res.branch == BRANCH_ASYMPTOTIC

    @pytest.mark.parametrize("tau", [(1.0, 2.0 ** 0.5), (0.999, 2.0)])
    def test_abs_tol_keeps_plain_branch_uncertainty(self, tau):
        # the torus value 4 wins, but the plain branch's tail is uncertified:
        # the bracket must reach as far as the plain branch's own
        res = strong_hinf_norm_T(make_sys_a(tau))
        plain = res.diagnostics["plain"]
        assert res.branch == BRANCH_ASYMPTOTIC and res.value == 4.0
        assert plain["abs_tol"] > 0.01
        assert res.value + res.abs_tol == pytest.approx(plain["value"] + plain["abs_tol"],
                                                        rel=1e-15)

    def test_abs_tol_of_plain_branch(self, sys_b):
        dec = decompose(sys_b)
        res = strong_hinf_norm_T(sys_b, dec)
        ta = strong_norm_Ta(dec)
        assert res.branch == BRANCH_PLAIN
        assert res.abs_tol >= res.diagnostics["plain"]["abs_tol"]
        assert res.value + res.abs_tol >= ta.value + ta.abs_tol

    def test_json_round_trip(self, sys_a):
        import json
        res = strong_hinf_norm_T(sys_a)
        doc = json.loads(res.to_json())
        assert doc["value"] == res.value
        assert doc["branch"] == res.branch


class TestFrequencyBound:
    def test_a_posteriori_validity(self, sys_a):
        dec = decompose(sys_a)
        omega = frequency_bound(dec, sys_a.tau, 0.1)
        assert np.isfinite(omega) and omega > 0
        for w in np.geomspace(omega, 100.0 * omega, 100):
            diff = eval_T(sys_a, w) - eval_Ta(dec, w, sys_a.tau)
            assert np.linalg.svd(diff, compute_uv=False)[0] < 0.1

    def test_monotone_nonincreasing_in_gamma(self, sys_a):
        dec = decompose(sys_a)
        gammas = [0.01, 0.1, 1.0, 100.0, 1e9]
        caps = [frequency_bound(dec, sys_a.tau, g) for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_ode_resolvent_decay(self):
        sys = DdaeSystem(E=np.eye(2), A=(-np.eye(2), 0.2 * np.eye(2)),
                         B=np.eye(2), C=np.eye(2), tau=[1.0])
        dec = decompose(sys)
        omega = frequency_bound(dec, sys.tau, 0.05)
        for w in np.geomspace(omega, 50.0 * omega, 50):
            # T_a vanishes for nu = 0: the bound caps sigma_1(T) itself
            sig = np.linalg.svd(eval_T(sys, w), compute_uv=False)[0]
            assert sig < 0.05

    def test_no_bound_when_unstable_difference_part(self):
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[1.0]], [[-1.0]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        with pytest.raises(UnboundedNormError):
            frequency_bound(decompose(sys), sys.tau, 0.1)

    def test_rejects_nonpositive_gamma(self, sys_a):
        with pytest.raises(ValueError):
            frequency_bound(decompose(sys_a), sys_a.tau, 0.0)


def _bumps(x, bumps):
    """Even sum of rational bumps ``a / (1 + ((x -+ c) / w)^2)``, like ``sigma_1`` in ``w``."""
    return sum(a / (1.0 + ((x - c) / w) ** 2) + a / (1.0 + ((x + c) / w) ** 2)
               for a, c, w in bumps)


class TestBracketedAscent:
    """The ascent of :func:`norms._ascent` from grid maxima, each within its bracket."""

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 10.0), st.floats(0.05, 3.0)),
                    min_size=1, max_size=3),
           st.floats(0.01, 1.0))
    def test_local_maximum_in_bracket(self, bumps, step):
        calls = []

        def f(x):
            calls.append(len(x))
            return _bumps(x[:, 0], bumps)

        grid = np.arange(0.0, 12.0, step)
        values = _bumps(grid, bumps)
        start = grid[norms._local_max_indices(values)]
        lo, hi = np.maximum(start - step, 0.0), start + step
        x, best, n = norms._ascent(f, start[:, None], _bumps(start, bumps), step, 1e-5 * step,
                                   1e-10, lo[:, None], hi[:, None])
        assert n == len(calls) <= norms._MAX_ASCENT
        x = x[:, 0]
        assert (best >= _bumps(start, bumps)).all()
        assert (best == _bumps(x, bumps)).all()
        assert ((lo <= x) & (x <= hi)).all()
        radii = step * np.array([1e-6, 1e-5, 1e-4, 1e-3])
        near = x[:, None] + np.concatenate([radii, -radii])
        assert (_bumps(near, bumps).max(axis=1) <= best * (1.0 + 1e-12)).all()


class TestEvaluationCounts:
    """The delay-independent grid quantities are evaluated once per decomposition."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for module, name in ((system_model, "_difference_radius"),
                             (system_model, "_min_sigma"),
                             (norms, "_block_norm_sums")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return counts

    def test_perturbation_study(self, sys_a, counts):
        study = PerturbationStudy(tau=sys_a.tau, epsilon=0.02, count=3)
        run_perturbation_study(sys_a, study)
        assert len(study.records) == 3
        assert counts == {"_difference_radius": 1, "_min_sigma": 1, "_block_norm_sums": 1}

    def test_strong_hinf_norm(self, sys_a, counts):
        strong_hinf_norm_T(sys_a)
        assert counts == {"_difference_radius": 1, "_min_sigma": 1, "_block_norm_sums": 1}

    def test_pencil_maps_built_once(self, monkeypatch):
        built = Counter()
        real = system_model._pencil_basis
        monkeypatch.setattr(system_model, "_pencil_basis",
                            lambda *args: built.update(["map"]) or real(*args))
        sys = make_sys_a()
        dec = decompose(sys)
        first = strong_hinf_norm_T(sys, dec)
        assert built["map"] <= 3  # the system's, the torus matrix's and gamma_a's
        built.clear()
        assert strong_hinf_norm_T(sys, dec) == first
        assert built["map"] == 0

    def test_each_decomposition_has_its_own_gamma_a(self, sys_a, sys_b, counts):
        dec_a, dec_b = decompose(sys_a), decompose(sys_b)
        assert dec_a.gamma_a == pytest.approx(0.75, abs=1e-12)
        assert dec_b.gamma_a == pytest.approx(1.0 / 16.0 + 0.5, abs=1e-12)
        assert dec_a.gamma_a == pytest.approx(0.75, abs=1e-12)
        assert counts["_difference_radius"] == 2


class TestRationallyIndependentApproach:
    def test_sweep_sup_approaches_strong_norm(self, sys_a):
        # For tau = (1, sqrt(2)) the frequency curve of T_a is dense in the
        # torus image: sup over [0, W] climbs toward the strong norm and is
        # within 2% of it by W = 20000.
        dec = decompose(sys_a)
        tau = np.array([1.0, np.sqrt(2.0)])
        strong = strong_norm_Ta(dec).value
        sups = []
        for W in (200.0, 2000.0, 20000.0):
            w = np.linspace(0.0, W, int(W * 40) + 1)
            sig, ok = sigma_Ta_samples(dec, w, tau)
            assert ok.all()
            sups.append(sig[:, 0].max())
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))
        assert all(s <= strong + 1e-9 for s in sups)
        assert sups[-1] >= 0.98 * strong


# Systems whose tail is certified far inside the scan to the floors, with the
# lobes 2 pi / sum(tau) that reach past those floors: 1,000 for the random
# systems (their floor for incommensurate delays), 20 for the dense one, whose
# floor is its low-frequency range.
_SHORT_SCANS = [pytest.param(lambda seed=seed: random_stable_system(seed), 1_000,
                             id=f"random-{seed}") for seed in range(6)]
_SHORT_SCANS.append(pytest.param(lambda: dense_stable_system(1, 40), 20, id="dense-n40"))


class TestPlainNormEvaluations:
    """Points of the frequency scan and of the peak polish, and their calls."""

    @pytest.mark.parametrize("tau, points, calls", [
        ((1.0, 2.0), 8_034, 7),
        ((0.99, 2.0), 39_606, 9),
        ((0.999, 2.0), 397_537, 17),
    ])
    def test_sys_a(self, monkeypatch, tau, points, calls):
        seen = []
        real = norms.sigma_T_samples

        def counted(system, grid, *args):
            seen.append(np.size(grid))
            return real(system, grid, *args)

        monkeypatch.setattr(norms, "sigma_T_samples", counted)
        hinf_norm_T(make_sys_a(tau))
        assert sum(seen) == points
        assert len(seen) == calls

    @pytest.mark.parametrize("tau, points, calls", [
        ((1.0, 2.0), 526, 6),
        ((0.999, 2.0), 191_948, 5),
        ((1.0, np.sqrt(2.0)), 0, 0),  # incommensurate
        ((0.9999, 2.0), 0, 0),  # one period needs 1,000,000 samples
        ((1.0, 2.0 * np.pi / 3.0), 0, 0),  # detected as s = 16,664
    ])
    def test_ta_tail_sys_a(self, monkeypatch, tau, points, calls):
        # T_a's tail is swept only when one period sets its supremum exactly
        seen = []
        real = norms.sigma_Ta_samples

        def counted(dec, grid, *args):
            seen.append(np.size(grid))
            return real(dec, grid, *args)

        monkeypatch.setattr(norms, "sigma_Ta_samples", counted)
        diag = hinf_norm_T(make_sys_a(tau)).diagnostics
        assert (sum(seen), len(seen)) == (points, calls)
        assert (diag["ta_tail_sup"] is None) == (calls == 0)
        assert "ta_tail_exact" not in diag

    @pytest.mark.parametrize("make, lobes", _SHORT_SCANS)
    def test_scan_stops_at_the_cap(self, make, lobes):
        # the scan to the floors took 2,019 to 64,000 points on these systems
        diag = hinf_norm_T(make()).diagnostics
        assert diag["scan_points"] <= 1_500
        assert diag["tail_certified"]
        assert diag["omega_cap"] <= diag["omega_scan"]


class TestWideProbe:
    """sigma_1(T), by plain numpy solves and SVDs, stays within the result's
    bracket far beyond the shortened scan, over all that the scan to the
    floors covered."""

    @pytest.mark.parametrize("make, lobes", _SHORT_SCANS)
    def test_no_probe_above_the_bracket(self, make, lobes):
        sys = make()
        res = hinf_norm_T(sys)
        lobe = 2.0 * np.pi / float(np.sum(sys.tau))
        wmax = max(10.0 * (1.0 + norms._bound_params(decompose(sys)).scale), lobes * lobe)
        assert wmax >= 5.0 * res.diagnostics["omega_scan"]
        _, top = brute_hinf_system(sys, wmax, int(24 * wmax / lobe))
        assert top <= (res.value + res.abs_tol) * (1.0 + 1e-9)


class TestTorusEvaluations:
    """Points and calls of ``strong_norm_Ta``'s half-torus sweep and its polish."""

    @pytest.mark.parametrize("make, rows", [(make_sys_a, 945), (make_sys_b, 1_905)],
                             ids=["SYS-A", "SYS-B"])
    def test_sweep_and_polish(self, monkeypatch, make, rows):
        seen = []
        real = norms.sigma_Ta_torus_samples

        def counted(dec, thetas):
            seen.append(len(thetas))
            return real(dec, thetas)

        monkeypatch.setattr(norms, "sigma_Ta_torus_samples", counted)
        res = strong_norm_Ta(decompose(make()))
        assert seen[0] == 1_300  # one centre per 8 x 8 cell that holds half-grid rows: 26 * 50
        # the pruned sweep, of the (400**2 + 2**2) / 2 = 80,002 rows of the half grid
        assert seen[1] == rows == res.diagnostics["grid_points"]
        # one 5-point stencil: the grid maximum is a critical point, so the ascent stops there
        assert sum(seen) == 1_300 + rows + 5
        assert len(seen) == 3

    @pytest.mark.parametrize("make, most", [
        (make_sys_a, 20),
        (make_sys_b, 20),
        (three_delay_system, 30),
        (lambda: dense_stable_system(1, 6, nu=4, m=3, tau=(1.0, 2.0, 3.0)), 30),
    ], ids=["SYS-A", "SYS-B", "three-delay", "nu4-m3"])
    def test_polish_calls(self, monkeypatch, make, most):
        seen = []
        real = norms.sigma_Ta_torus_samples

        def counted(dec, thetas):
            seen.append(len(thetas))
            return real(dec, thetas)

        monkeypatch.setattr(norms, "sigma_Ta_torus_samples", counted)
        dec = decompose(make())
        res = strong_norm_Ta(dec)
        sweep = seen.index(res.diagnostics["grid_points"])  # after the centres of a pruned grid
        polish = seen[sweep + 1:]
        assert len(polish) == res.diagnostics["refine_cycles"] <= most
        stencil = dec.m * (dec.m + 3) // 2
        assert set(polish) <= {stencil, stencil + 1}  # a stencil, with the candidate or without
        first = seen[:]
        seen.clear()
        assert strong_norm_Ta(dec).value == res.value
        assert seen == first


def _algebraic_system(kind, nu, p, seed, m=2):
    """Seeded E = 0 system with ``m`` delays whose torus function is smooth,
    sharply peaked (gamma_a near 1), symmetric in the phases (tied maxima) or
    flat to rounding (delay terms of relative size 1e-16)."""
    rng = np.random.default_rng(seed)
    A0 = _orthogonal(rng, nu) @ np.diag(rng.uniform(0.8, 1.6, nu)) @ _orthogonal(rng, nu).T
    R = rng.standard_normal((nu, nu))
    F = np.linalg.solve(A0, R)
    if kind == "near-one":  # F(theta) = F (e^{-j theta_1} + sum_k c_k e^{-j theta_k}),
        # spectral radius up to 0.999
        c = [rng.uniform(0.2, 1.0) for _ in range(m - 1)]
        A = [A0, R] + [ck * R for ck in c]
        scale = 0.999 / (np.abs(np.linalg.eigvals(F)).max() * (1.0 + sum(c)))
    else:
        A = [A0, R] + [R if kind == "tied" else rng.standard_normal((nu, nu))
                       for _ in range(m - 1)]
        gain = 3e-16 if kind == "flat" else rng.uniform(0.2, 0.9)
        scale = gain / sum(np.linalg.norm(np.linalg.solve(A0, Ai), 2) for Ai in A[1:])
    A[1:] = [Ai * scale for Ai in A[1:]]
    return DdaeSystem(E=np.zeros((nu, nu)), A=tuple(A), B=rng.standard_normal((nu, p)),
                      C=rng.standard_normal((p, nu)), tau=[1.0, 2.0, 3.0][:m])


@st.composite
def _algebraic_systems(draw, m=2):
    """:func:`_algebraic_system` with a drawn kind, size and seed."""
    nu, p = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "near-one", "tied", "flat"]))
    return _algebraic_system(kind, nu, p, draw(st.integers(0, 2**32 - 1)), m)


class TestTorusAscent:
    """The polish of the torus maximum ends at a local maximum above the grid's."""

    @settings(max_examples=60)
    @given(st.one_of(_algebraic_systems(1), _algebraic_systems(2), _algebraic_systems(3)))
    def test_local_maximum(self, sys):
        dec = decompose(sys)
        m = dec.m
        res = strong_norm_Ta(dec, grid_per_dim={1: 64, 2: 48, 3: 16}[m])
        value, at = res.value, np.array(res.attained_at)
        assert value >= res.diagnostics["grid_max"]
        [again] = sigma_Ta_torus_samples(dec, at[None])[0][:, 0]
        assert again == pytest.approx(value, rel=1e-12)
        eye = np.eye(m)
        i, j = np.triu_indices(m, 1)
        unit = np.concatenate([eye, -eye, eye[i] + eye[j], eye[i] - eye[j],
                               eye[j] - eye[i], -eye[i] - eye[j]])
        stencil = at + np.concatenate([r * unit for r in (1e-6, 1e-5, 1e-4, 1e-3)])
        assert sigma_Ta_torus_samples(dec, stencil)[0][:, 0].max() <= value * (1.0 + 1e-12)

    def test_ridge_beyond_the_coordinate_ascent(self):
        # A sharp ridge on which the coordinate-wise golden-section ascent
        # stopped after 1,240 calls at 2122.741053939958.
        res = strong_norm_Ta(decompose(_algebraic_system("near-one", 2, 2, 1001)))
        assert res.value >= 2122.741053939958
        assert res.diagnostics["refine_cycles"] <= 30


def _grid_index(thetas, g):
    """Flat C-order index of each torus grid point."""
    return np.rint(thetas * (g / (2.0 * np.pi))).astype(int) @ g ** np.arange(thetas.shape[1])[::-1]


class TestPrunedSweep:
    """The pruned strong-norm sweep against the whole half grid, evaluated in the test."""

    g = norms._PRUNE_MIN_G  # the smallest grid that is pruned

    @settings(max_examples=40)
    @given(_algebraic_systems())
    def test_max_and_argmax_bit_for_bit(self, sys):
        dec, g = decompose(sys), self.g
        grid = _torus_grid(2, g)
        rows = norms._sweep_rows(dec, g)
        kept = np.isin(_grid_index(grid, g), _grid_index(rows, g))
        np.testing.assert_array_equal(rows, grid[kept])  # a subsequence of the half grid
        whole = sigma_Ta_torus_samples(dec, grid)[0][:, 0]
        pruned = sigma_Ta_torus_samples(dec, rows)[0][:, 0]
        i, j = int(np.argmax(whole)), int(np.argmax(pruned))
        assert pruned[j] == whole[i]
        assert rows[j].tolist() == grid[i].tolist()  # the first occurrence
        res = strong_norm_Ta(dec, grid_per_dim=g)
        assert res.diagnostics["grid_max"] == whole[i]
        assert res.diagnostics["grid_points"] == len(rows)

    @pytest.mark.filterwarnings("ignore:gamma_a")
    @settings(max_examples=20)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.sampled_from([0, 1]),
           st.sampled_from([0, 1]))
    def test_singular_row_as_whole_grid(self, nu, seed, k1, k2):
        # M(theta) = -A0 - A1 e^{-j theta_1} - A2 e^{-j theta_2} is singular at
        # theta = (k1 pi, k2 pi), a grid point that is its own mirror (a 1x1
        # pencil is never flagged: its condition number is 1).
        rng = np.random.default_rng(seed)
        A1, A2, N = rng.standard_normal((3, nu, nu))
        U, s, Vt = np.linalg.svd(N)
        A0 = -(-1.0) ** k1 * A1 - (-1.0) ** k2 * A2 + (U * np.append(s[:-1], 0.0)) @ Vt
        dec = decompose(DdaeSystem(E=np.zeros((nu, nu)), A=(A0, A1, A2), B=np.ones((nu, 1)),
                                   C=np.ones((1, nu)), tau=[1.0, 2.0]))
        grid = _torus_grid(2, self.g)
        ok = sigma_Ta_torus_samples(dec, grid)[1]
        assert not ok.all()
        bad = tuple(grid[int(np.argmax(~ok))].tolist())
        with pytest.raises(UnboundedNormError, match=re.escape(f"theta={bad};")):
            strong_norm_Ta(dec, grid_per_dim=self.g)


def _full_torus_grid(m, g):
    theta = 2.0 * np.pi * np.arange(g) / g
    return np.stack(np.meshgrid(*([theta] * m), indexing="ij"), axis=-1).reshape(-1, m)


class TestHalfTorusMatchesFullGrid:
    """The half grids give the full grids' values, which the test evaluates itself."""

    @pytest.mark.parametrize("make, g", [
        (make_sys_a, None),
        (make_sys_b, 41),
        (lambda: random_stable_system(9), None),    # m = 1, nu = 2
        (lambda: random_stable_system(14), 61),     # m = 1, nu = 2
        (lambda: random_stable_system(10), 33),     # m = 2, nu = 2
        (three_delay_system, 17),                   # m = 3, nu = 2
    ], ids=["SYS-A", "SYS-B-odd", "m1", "m1-odd", "m2-odd", "m3-odd"])
    def test_values(self, make, g):
        dec = decompose(make())
        m = dec.m
        res = strong_norm_Ta(dec, grid_per_dim=g)
        g_sweep = res.diagnostics["grid_per_dim"]
        sig, ok = sigma_Ta_torus_samples(dec, _full_torus_grid(m, g_sweep))
        assert ok.all()
        assert res.diagnostics["grid_max"] == pytest.approx(sig[:, 0].max(), rel=1e-14)

        g_diff, g_odd = {1: 64, 2: 64, 3: 24}[m], g or 15
        A0 = dec.A22[0].astype(complex)
        for grid, gamma, smin in (
            (g_diff, dec.gamma_a, dec.torus_sigma_min),
            (g_odd, check_difference_stability(dec, grid_per_dim=g_odd),
             _min_sigma(dec.pencil_basis, thetas=_torus_grid(m, g_odd))),
        ):
            full = _full_torus_grid(m, grid)
            radii = _pencil_map(
                lambda M: np.abs(np.linalg.eigvals(np.linalg.solve(-A0, M))).max(),
                _pencil_basis((np.zeros_like(A0),) + dec.A22[1:]), thetas=full)
            assert gamma == pytest.approx(max(radii), rel=1e-14)
            assert smin == pytest.approx(_min_sigma(dec.pencil_basis, thetas=full), rel=1e-14)
