import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddaenorm import (
    BRANCH_ASYMPTOTIC,
    BRANCH_PLAIN,
    DdaeSystem,
    DimensionError,
    InstabilityError,
    PerturbationStudy,
    UnboundedNormError,
    check_assumption1,
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
from ddaenorm.system_model import (_default_diff_grid, _min_sigma, _pencil_basis, _pencil_map,
                                   _torus_grid)
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

    def test_five_delays_take_the_grid_rule(self):
        rng = np.random.default_rng(0)
        n, m = 6, 5
        A = [np.eye(n)] + [1e-3 * rng.standard_normal((n, n)) for _ in range(m)]
        sys = DdaeSystem(E=np.zeros((n, n)), A=tuple(A), B=np.eye(n), C=np.eye(n),
                         tau=np.linspace(1.0, 2.0, m))
        dec = decompose(sys)
        res = strong_norm_Ta(dec)
        assert res.value > 0.0
        assert res == norms._torus_maximum(dec, 8)

    @pytest.mark.parametrize("m, g", [(1, 400), (2, 400), (3, 64), (4, 16), (5, 8), (6, 8),
                                      (7, 4), (8, 4)])
    def test_grid_rule(self, monkeypatch, m, g):
        monkeypatch.setattr(norms, "_torus_maximum", lambda dec, g: g)
        assert strong_norm_Ta(SimpleNamespace(m=m)) == g

    @pytest.mark.parametrize("m, points", [(1, 201), (3, 131_076), (4, 32_776), (5, 16_400),
                                           (6, 131_104)])
    def test_grid_points_within_the_half_grid(self, m, points):
        # (g**m + 2**m) / 2 rows of the half grid, of which the pruned sweep takes some
        g = min(400, 2 ** (18 // m))
        assert len(_torus_grid(m, g)) == points
        dec = decompose(dense_stable_system(3, 6, m=m, tau=np.linspace(1.0, 3.5, m)))
        assert 0 < strong_norm_Ta(dec).diagnostics["grid_points"] <= points

    def test_no_delays_singular_is_unbounded(self):
        # sigma_min(A22[0]) = 2e-10 passes Assumption 1's floor of 1e-10, but the
        # ratio 2e-16 is flagged: the constant torus matrix is singular
        sys = DdaeSystem(E=np.zeros((2, 2)), A=(np.diag([1e6, 2e-10]),), B=np.eye(2),
                         C=np.eye(2), tau=[])
        with pytest.raises(UnboundedNormError, match=re.escape("singular at theta=();")):
            strong_norm_Ta(decompose(sys))

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

        def sampler(system, grid, *args, **kwargs):
            sig, ok = real(system, grid, *args, **kwargs)
            top.append(sig[ok, 0].max())
            return sig, ok

        monkeypatch.setattr(norms, "sigma_T_samples", sampler)
        res = hinf_norm_T(sys_a, tau=[0.99, 2.0])
        assert max(top) <= res.diagnostics["global_peak"] * (1.0 + 1e-12)
        # the scan took 3 calls: its first segment whole, then the centres and the
        # open cells of the pruned second
        assert res.diagnostics["iterations"] == len(top) - 3

    def test_diagnostics_keys(self, sys_a):
        diag = hinf_norm_T(sys_a, tau=[0.99, 2.0]).diagnostics
        for key in ("iterations", "omega_cap", "global_peak", "scan_samples", "ta_tail_samples"):
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

        def sampler(system, grid, *args, **kwargs):
            sig, ok = real(system, grid, *args, **kwargs)
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

    def test_one_pass_beats_the_level_loop(self, monkeypatch):
        # the level loop reached 3.9215563161592155 here only in a second
        # iteration, after its first polish fell below a scan sample
        monkeypatch.setattr(norms, "SCAN_DENSITY", 4)
        res = hinf_norm_T(random_stable_system(6))
        assert res.value > 3.9215563161592155
        assert res.diagnostics["scan_points"] == 80

    def test_start_at_zero_frequency_climbs(self, monkeypatch):
        # a peak within one step of w = 0, whose grid maximum is w = 0: the
        # gradient vanishes there, so only the hard-case step leaves it
        monkeypatch.setattr(norms, "SCAN_DENSITY", 4)
        res = hinf_norm_T(random_stable_system(36))
        assert res.value >= 2.298363774500912 * (1.0 - 1e-14)

    @pytest.mark.parametrize("option, value", [
        ("bisect_tol", -1e-3), ("bisect_tol", float("nan")),
    ])
    def test_out_of_range_option_rejected(self, sys_a, option, value):
        with pytest.raises(ValueError, match=option):
            hinf_norm_T(sys_a, **{option: value})

    def test_two_scan_points_give_an_honest_bracket(self, sys_a, monkeypatch):
        monkeypatch.setattr(norms, "MAX_SCAN_POINTS", 2)
        res = hinf_norm_T(sys_a)
        assert res.value == 2.0 and res.abs_tol == 2.0
        assert res.diagnostics["scan_truncated"]


class TestTorusGridLimit:
    """Nine delays put the gamma_a grid of 8 points per delay over 2**24 points."""

    @pytest.fixture()
    def sys9(self):
        return dense_stable_system(3, 6, m=9, tau=np.arange(1.0, 10.0))

    def test_gamma_a(self, sys9):
        with pytest.raises(DimensionError, match=re.escape("8**9 points")):
            decompose(sys9).gamma_a

    @pytest.mark.parametrize("norm", [strong_norm_Ta, hinf_norm_T, strong_hinf_norm_T])
    def test_norms(self, sys9, norm):
        with pytest.raises(DimensionError, match="over the limit of 2"):
            norm(decompose(sys9)) if norm is strong_norm_Ta else norm(sys9)

    def test_coarse_grid_still_computes(self, sys9):
        assert 0.0 < check_difference_stability(decompose(sys9), grid_per_dim=2) < 1.0


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
        ((1.0, 2.0), 8_034, 7),  # no segment holds enough cells to be pruned
        # the scan's phases come from tables (ulp-level moves of the samples),
        # so the polish of the flat peaks takes other steps; the pruned second
        # segment takes two calls, its cell centres and its open cells
        ((0.99, 2.0), 8_619, 10),
        ((0.999, 2.0), 76_214, 16),
    ])
    def test_sys_a(self, monkeypatch, tau, points, calls):
        seen = []
        real = norms.sigma_T_samples

        def counted(system, grid, *args, **kwargs):
            seen.append(np.size(grid))
            return real(system, grid, *args, **kwargs)

        monkeypatch.setattr(norms, "sigma_T_samples", counted)
        hinf_norm_T(make_sys_a(tau))
        assert sum(seen) == points
        assert len(seen) == calls

    @pytest.mark.parametrize("tau, points, calls, sweep", [
        # half a period: 257 of 512 samples in one call, and 17,201 of the
        # 95,969 of 191,937, in two calls (the cell centres, then the open cells)
        ((1.0, 2.0), 271, 6, 1),
        ((0.999, 2.0), 17_215, 7, 2),
        ((1.0, np.sqrt(2.0)), 0, 0, 0),  # incommensurate
        ((0.9999, 2.0), 0, 0, 0),  # one period needs 1,000,000 samples
        ((1.0, 2.0 * np.pi / 3.0), 0, 0, 0),  # detected as s = 16,664
    ])
    def test_ta_tail_sys_a(self, monkeypatch, tau, points, calls, sweep):
        # T_a's tail is swept only when one period sets its supremum exactly;
        # its mirror symmetry leaves half of that period
        seen = []
        real = norms.sigma_Ta_samples

        def counted(dec, grid, *args, **kwargs):
            seen.append(np.size(grid))
            return real(dec, grid, *args, **kwargs)

        monkeypatch.setattr(norms, "sigma_Ta_samples", counted)
        diag = hinf_norm_T(make_sys_a(tau)).diagnostics
        assert (sum(seen), len(seen)) == (points, calls)
        assert (diag["ta_tail_sup"] is None) == (calls == 0)
        # the half-period sweep comes first, then the polish's stencils
        assert diag["ta_tail_samples"] == sum(seen[:sweep])
        assert all(k <= 3 for k in seen[sweep:])
        assert "ta_tail_exact" not in diag

    def test_sys_a_chunks(self, monkeypatch):
        # every pencil chunk of the perturbed SYS-A stays within the cap, and
        # the cap moves no sample: the same 94,139 as in chunks of 8 MiB (the
        # samplers' stacks; the pruned scan and tail took 494,395 whole)
        seen = []
        real = system_model._pencil_stack

        def counted(S, n, omegas=None, tau=None, thetas=None, step=None):
            seen.append(len(thetas) if omegas is None else len(omegas))
            return real(S, n, omegas, tau, thetas, step)

        monkeypatch.setattr(system_model, "_pencil_stack", counted)
        hinf_norm_T(make_sys_a((0.999, 2.0)))
        assert max(seen) == system_model._CHUNK_SAMPLES == 1 << 14
        assert (sum(seen), len(seen)) == (94_139, 36)


def _without_samples(doc):
    """A ``to_dict()`` without the counts of the samples taken."""
    if isinstance(doc, dict):
        return {k: _without_samples(v) for k, v in doc.items()
                if k not in ("scan_samples", "ta_tail_samples")}
    return [_without_samples(v) for v in doc] if isinstance(doc, list) else doc


def _with_root(sys, w0):
    """SYS-A with ``A_0``'s first row moved so that ``M(j w0)`` is singular; the
    algebraic block ``A_0[1, 1]`` and the coupling ``A_0[1, 0]`` stay."""
    M = 1j * w0 * sys.E - sys.A[0] - sum(
        Ai * np.exp(-1j * w0 * t) for Ai, t in zip(sys.A[1:], sys.tau))
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]  # det(M - [[a, b], [0, 0]]) = 0:
    lhs = np.array([[-M[1, 1].real, M[1, 0].real], [-M[1, 1].imag, M[1, 0].imag]])
    a, b = np.linalg.solve(lhs, [-det.real, -det.imag])
    return DdaeSystem(E=sys.E, A=(sys.A[0] + [[a, b], [0.0, 0.0]], *sys.A[1:]), B=sys.B,
                      C=sys.C, tau=sys.tau)


_PRUNED = [pytest.param(lambda tau=tau: make_sys_a(tau), id=f"SYS-A-{name}") for tau, name in (
    ((1.0, 2.0), "nominal"), ((0.99, 2.0), "0.99"), ((0.999, 2.0), "0.999"),
    ((0.9999, 2.0), "0.9999"), ((1.0, np.sqrt(2.0)), "sqrt2"),
    ((1.0, 2.0 * np.pi / 3.0), "2pi/3"))]
_PRUNED += [pytest.param(make_sys_b, id="SYS-B"),
            pytest.param(lambda: random_stable_system(3), id="random-3-n2"),
            pytest.param(lambda: random_stable_system(34), id="random-34-n1")]


class TestPrunedScan:
    """The scan and the ``T_a`` tail sweep skip the frequency cells whose closed-form
    bound lies below the capture window (the tail: below its running maximum), with
    every result field that of the whole grids."""

    @pytest.mark.parametrize("min_cells", [None, 1], ids=["long-sweeps", "every-sweep"])
    @pytest.mark.parametrize("make", _PRUNED)
    def test_same_bits_as_the_whole_grids(self, make, min_cells, monkeypatch):
        # "every-sweep" prunes short sweeps too: the 257-sample tail, the
        # 1,280-sample first segment and the random systems' scans
        if min_cells is not None:
            monkeypatch.setattr(norms, "_MIN_CELLS", min_cells)
        sys = make()
        pruned = [norm(sys).to_dict() for norm in (hinf_norm_T, strong_hinf_norm_T)]
        monkeypatch.setattr(norms, "_frequency_cell_bound", lambda *args: None)
        whole = [norm(sys).to_dict() for norm in (hinf_norm_T, strong_hinf_norm_T)]
        assert repr(_without_samples(pruned)) == repr(_without_samples(whole))
        diag, full = pruned[0]["diagnostics"], whole[0]["diagnostics"]
        assert full["scan_samples"] == diag["scan_points"]
        assert full["ta_tail_samples"] == diag["ta_tail_points"]
        assert diag["scan_samples"] <= diag["scan_points"]
        if min_cells is not None:
            assert diag["scan_samples"] < diag["scan_points"]

    def test_samples_taken_on_sys_a(self):
        diag = hinf_norm_T(make_sys_a((0.999, 2.0))).diagnostics
        assert (diag["scan_points"], diag["scan_samples"]) == (393_469, 71_981)
        assert (diag["ta_tail_points"], diag["ta_tail_samples"]) == (95_969, 17_201)
        assert diag["scan_samples"] <= 0.5 * 393_469

    @pytest.mark.parametrize("min_cells", [None, 1], ids=["long-sweeps", "every-sweep"])
    @pytest.mark.parametrize("k", [700, 3_000])
    def test_root_on_a_grid_sample_is_named(self, k, min_cells, monkeypatch):
        # a root at grid sample k, in the first segment (700) or the pruned
        # second (3,000), away from the peak near sample 4,830
        if min_cells is not None:
            monkeypatch.setattr(norms, "_MIN_CELLS", min_cells)
        step = 2.0 * np.pi / 2.99 / norms.SCAN_DENSITY
        sys = _with_root(make_sys_a((0.99, 2.0)), k * step)
        messages = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(norms, "_frequency_cell_bound", lambda *args: None)
            with pytest.raises(InstabilityError) as err:
                hinf_norm_T(sys)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"omega={k * step:.6g}" in messages[0]

    def test_samples_next_to_zero_are_in_no_cell(self, monkeypatch):
        # cells centred on k = 17, 34, 51 and 68 of a 100-sample grid; a bound
        # of 0 skips all but their centres, and a flagged centre keeps its cell
        monkeypatch.setattr(norms, "_MIN_CELLS", 1)
        grid, flag = np.arange(100) * 0.5, []

        def sample(w):
            return np.ones((len(w), 1)), ~np.isin(w, flag)

        def taken():
            sigma1, bad, count = norms._cell_sweep(
                sample, lambda: lambda c, r, step: np.zeros(len(c)), grid, 0.5, lambda top: top)
            assert count == np.isfinite(sigma1).sum()
            return np.flatnonzero(np.isfinite(sigma1)), bad

        want = np.r_[0:9, 17, 34, 51, 68, 77:100]
        at, bad = taken()
        np.testing.assert_array_equal(at, want)
        assert bad is None
        flag.append(17.0)  # sample 34
        at, bad = taken()
        np.testing.assert_array_equal(at, np.union1d(want, np.r_[26:43]))
        assert bad == 17.0


def _full_table_denominator(tau):
    """The common denominator from one table of every candidate up to the cap."""
    prods = tau[:, None] * np.arange(1, norms.COMMENSURATE_S_CAP + 1)
    near = np.abs(prods - np.round(prods)) <= norms.COMMENSURATE_REL_TOL * np.maximum(1.0, prods)
    hits = np.nonzero(near.all(axis=0))[0]
    return int(hits[0]) + 1 if hits.size else None


class TestCommonDenominator:
    """The block search for ``s`` gives the full table's answer."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("t, want", [
        (1.0, 1), (2.37, 100), (0.999, 1000), (1.00005, norms.COMMENSURATE_S_CAP),
        (65.0 / 64.0, 64), (66.0 / 65.0, 65), (449.0 / 448.0, 448), (450.0 / 449.0, 449),
        (np.sqrt(2.0), None),
        (2.0 * np.pi / 3.0, 16_664),  # a hit at rounding level in the last block
    ])
    def test_matches_the_full_table(self, m, t, want):
        assert norms._S_BLOCK == 64  # blocks 1..64, 65..192, 193..448, 449..960, ...
        tau = np.array([(t,), (1.0, t), (2.0, t, 3.0)][m - 1])
        assert norms._common_denominator(tau) == _full_table_denominator(tau) == want


class TestHalfPeriodTail:
    """``T_a(-jw)`` is the conjugate of ``T_a(jw)``, so half a period of the
    tail sweep gives the supremum of the whole period."""

    @pytest.mark.parametrize("make", [
        lambda: make_sys_a((1.0, 2.0)),
        lambda: make_sys_a((0.99, 2.0)),
        lambda: make_sys_a((0.999, 2.0)),
        make_sys_b,
        lambda: _algebraic_system("random", 3, 2, 7, m=1),
        lambda: _algebraic_system("near-one", 2, 2, 1001, m=1),
    ], ids=["SYS-A", "SYS-A-0.99", "SYS-A-0.999", "SYS-B", "m1-random", "m1-near-one"])
    def test_matches_the_whole_period(self, make):
        sys = make()
        dec = decompose(sys)
        diag = hinf_norm_T(sys, dec).diagnostics
        period = 2.0 * np.pi * (diag["commensurate_s"] if sys.m > 1 else 1.0 / sys.tau[0])
        npts = max(int(period / diag["scan_step"]) + 1, 512)
        assert diag["ta_tail_points"] == npts // 2 + 1
        omegas = np.linspace(0.0, period, npts, endpoint=False)
        sig = sigma_Ta_samples(dec, omegas, sys.tau)[0][:, 0]
        i = int(np.argmax(sig))
        [_], [whole], _ = norms._frequency_ascent(sigma_Ta_samples, dec, sys.tau,
                                                  omegas[i:i + 1], sig[i:i + 1], omegas[1])
        assert diag["ta_tail_sup"] == pytest.approx(whole, rel=1e-12, abs=0.0)

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
    """Cells, points and calls of ``strong_norm_Ta``'s pruned half-torus sweep and its polish."""

    @pytest.mark.parametrize("make, cells, rows", [
        (make_sys_a, [325, 28, 40], 153),
        (make_sys_b, [325, 44, 32], 217),
    ], ids=["SYS-A", "SYS-B"])
    def test_sweep_and_polish(self, monkeypatch, make, cells, rows):
        seen = []
        real = norms.sigma_Ta_torus_samples

        def counted(dec, thetas):
            seen.append(len(thetas))
            return real(dec, thetas)

        monkeypatch.setattr(norms, "sigma_Ta_torus_samples", counted)
        res = strong_norm_Ta(decompose(make()))
        # one centre per 16 x 16 cell that holds half-grid rows (13 * 25), then one
        # per 8 x 8 and per 4 x 4 child of the cells still open
        assert res.diagnostics["cells"] == cells
        # the pruned sweep, of the (400**2 + 2**2) / 2 = 80,002 rows of the half grid
        assert seen[0] == rows == res.diagnostics["grid_points"]
        # one 5-point stencil: the grid maximum is a critical point, so the ascent stops there
        assert seen[1:] == [5]

    def test_pruned_three_delay_sweep(self):
        # 5,399 of the (64**3 + 2**3) / 2 = 131,076 rows of the half grid; nu = 4 and a
        # 2 x 2 transfer take cells of 16, 8, 4 and 2 steps
        res = strong_norm_Ta(decompose(dense_stable_system(1, 6, nu=4, m=3, tau=(1.0, 2.0, 3.0))))
        assert res.diagnostics["cells"] == [43, 293, 2_185, 6_377]
        assert res.diagnostics["grid_points"] == 5_399

    @pytest.mark.parametrize("nu, p, seed, m, cells, rows", [
        (3, 1, 11, 1, [26], 201),
        (4, 3, 17, 3, [293], 131_076),
        (4, 3, 11, 3, [293, 2_185], 62_488),  # q <= 1 at the first level: the second closes cells
        (3, 1, 11, 3, [43], 131_076),  # three halvings left: no cell has q <= 4
    ])
    def test_second_level_skipped_where_no_cell_can_close(self, nu, p, seed, m, cells, rows):
        # gamma_a 0.999: no cell of the first level has a bound, and where every one
        # has q > 2^(k-1), k halvings before the last level, the rounds stop; the half
        # grid has 201 or 131,076 rows
        res = strong_norm_Ta(decompose(_algebraic_system("near-one", nu, p, seed, m)))
        assert res.diagnostics["grid_points"] == rows
        assert res.diagnostics["cells"] == cells

    @pytest.mark.parametrize("m, nu, outs, ins, widths", [
        (1, 4, 1, 1, (8, 4)),
        (2, 1, 1, 1, (16, 8, 4)),
        (2, 6, 3, 3, (16, 8, 4)),
        (3, 2, 1, 1, (8, 4)),         # nu <= 2: a row costs no more than a vertex
        (3, 3, 1, 3, (16, 8, 4, 2)),  # a row vector
        (3, 3, 3, 1, (16, 8, 4, 2)),  # a column
        (3, 4, 2, 2, (16, 8, 4, 2)),
        (3, 4, 2, 3, (8, 4)),         # the vertices take an SVD
        (3, 4, 3, 3, (8, 4)),
        (4, 3, 2, 2, (8, 4)),         # m >= 4: not measured to gain
        (5, 5, 3, 2, (8, 4)),
    ])
    def test_schedule(self, m, nu, outs, ins, widths):
        rng = np.random.default_rng(5)
        A = (np.eye(nu),) + tuple(0.1 / m * rng.standard_normal((m, nu, nu)))
        dec = decompose(DdaeSystem(E=np.zeros((nu, nu)), A=A, B=rng.standard_normal((nu, ins)),
                                   C=rng.standard_normal((outs, nu)), tau=1.0 + np.arange(m)))
        assert norms._sweep_widths(dec) == widths
        # widths >= g are skipped: g = 64, 16 and 8 for m = 3, 4 and 5
        g = min(400, 2 ** (18 // m))
        cells = strong_norm_Ta(dec).diagnostics["cells"]
        assert 1 <= len(cells) <= len([w for w in widths if w < g])

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
        assert seen[0] == res.diagnostics["grid_points"]  # the sweep, then the polish
        polish = seen[1:]
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
        res = norms._torus_maximum(dec, {1: 64, 2: 48, 3: 16}[m])
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


class TestCellBound:
    """The cell bound of the pruned sweep dominates ``sigma_1`` on its cell."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_dominates_the_cell(self, m, data):
        # 16 cells with q <= 1/2: 8 anywhere, and 8 long in one direction near the
        # smallest sigma_1 of a coarse grid, where sigma_1 curves up and the
        # phase remainder is tight
        dec = decompose(data.draw(_algebraic_systems(m)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grid = _torus_grid(m, 32)
        low = grid[np.argmin(sigma_Ta_torus_samples(dec, grid)[0][:, 0])]
        c = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, (8, m)),
                            low + rng.normal(0.0, 0.05, (8, m)) * np.arange(8)[:, None]])
        w = np.concatenate([rng.uniform(0.1, 1.0, (8, m)), rng.uniform(0.0, 0.1, (8, m))])
        w[8 + np.arange(8), rng.integers(0, m, 8)] = 1.0
        a = np.array([np.linalg.norm(Ai, 2) for Ai in dec.A22[1:]])
        M = -dec.A22[0] - np.einsum("kij,ck->cij", np.array(dec.A22[1:]), np.exp(-1j * c))
        G = np.linalg.norm(np.linalg.inv(M), axis=(1, 2))
        # at most 0.99 / 2 for q = 1.01^2 (r @ a) ||G||_F, and at most 1.2 in the long direction
        most = 0.99 * 0.5 / (1.01 ** 2 * G * (w @ a))
        r = w * np.minimum(most, rng.uniform(0.1, 1.2, 16))[:, None]
        value, bound, _ = norms._cell_bounds(dec)(c, r)
        assert np.isfinite(bound).all()
        signs = 1.0 - 2.0 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)
        points = np.concatenate([c[:, None] + r[:, None] * signs,
                                 c[:, None] + r[:, None] * rng.uniform(-1.0, 1.0, (16, 64, m))],
                                axis=1)
        sig, ok = sigma_Ta_torus_samples(dec, points.reshape(-1, m))
        assert ok.all()
        assert (sig[:, 0].reshape(16, -1).max(axis=1) <= bound).all()

    def test_chunks_split_anywhere(self, monkeypatch):
        # a cell's value and bound do not depend on the chunk that computes them
        dec = decompose(_algebraic_system("random", 4, 3, 17, 3))
        c = _torus_grid(3, 16)[:500]
        r = np.full_like(c, 0.05)
        value, bound, _ = norms._cell_bounds(dec)(c, r)
        assert np.isfinite(bound).sum() > 400
        monkeypatch.setattr(system_model, "_STACK_BYTES", 20_000)  # chunks of 7 cells
        chunked = norms._cell_bounds(dec)(c, r)
        np.testing.assert_array_equal(chunked[0], value)
        np.testing.assert_array_equal(chunked[1], bound)

    def test_stacks_stay_within_the_chunk_bound(self):
        # 2^3 vertex matrices of 20 x 20 per cell: about 50 MB for 1,000 cells at once
        dec = decompose(_algebraic_system("near-one", 4, 20, 17, 3))
        c = _torus_grid(3, 16)[:1000]
        tracemalloc.start()
        try:
            norms._cell_bounds(dec)(c, np.full_like(c, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * system_model._STACK_BYTES

    @pytest.mark.parametrize("make", [
        make_sys_a,
        make_sys_b,
        lambda: dense_stable_system(1, 10, nu=2),
        lambda: dense_stable_system(1, 6, nu=4, m=3, tau=(1.0, 2.0, 3.0)),
        lambda: dense_stable_system(1, 10, nu=8),
    ], ids=["SYS-A", "SYS-B", "nu2", "nu4-m3", "nu8"])
    def test_centre_values_are_the_samplers(self, monkeypatch, make):
        # the sweep is bit for bit because every centre's value is the sampler's
        # sigma_1 there (NaN where it is flagged), whatever the cell's round
        dec, seen, rounds = decompose(make()), [], norms._cell_rounds

        def watched(m, g, widths, bounds):
            def spied(centres, r):
                out = bounds(centres, r)
                seen.append((centres, out[0]))
                return out
            return rounds(m, g, widths, spied)

        monkeypatch.setattr(norms, "_cell_rounds", watched)
        strong_norm_Ta(dec)
        assert len(seen) >= 2
        for centres, value in seen:
            np.testing.assert_array_equal(value, sigma_Ta_torus_samples(dec, centres)[0][:, 0])


class TestPrunedSweep:
    """The pruned strong-norm sweep against the whole half grid, evaluated in the test."""

    g = 128

    @staticmethod
    def _bit_for_bit(dec, g):
        """Rows swept and rows of the half grid, once the sweep matches the whole grid."""
        grid = _torus_grid(dec.m, g)
        rows, _ = norms._cell_rounds(dec.m, g, norms._sweep_widths(dec), norms._cell_bounds(dec))
        kept = np.isin(_grid_index(grid, g), _grid_index(rows, g))
        np.testing.assert_array_equal(rows, grid[kept])  # a subsequence of the half grid
        whole = sigma_Ta_torus_samples(dec, grid)[0][:, 0]
        pruned = sigma_Ta_torus_samples(dec, rows)[0][:, 0]
        i, j = int(np.argmax(whole)), int(np.argmax(pruned))
        assert pruned[j] == whole[i]
        assert rows[j].tolist() == grid[i].tolist()  # the first occurrence
        res = norms._torus_maximum(dec, g)
        assert res.diagnostics["grid_max"] == whole[i]
        assert res.diagnostics["grid_points"] == len(rows)
        return len(rows), len(grid)

    @pytest.mark.parametrize("m, g", [(1, 64), (2, 128), (3, 32)])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_max_and_argmax_bit_for_bit(self, m, g, data):
        self._bit_for_bit(decompose(data.draw(_algebraic_systems(m))), g)

    @pytest.mark.parametrize("kind", ["near-one", "tied"])
    @pytest.mark.parametrize("m, g", [(1, 64), (2, 128), (3, 32)])
    def test_peaked_and_tied_grids_are_pruned(self, kind, m, g):
        rows, whole = self._bit_for_bit(decompose(_algebraic_system(kind, 2, 2, 7, m)), g)
        assert rows < whole

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
            norms._torus_maximum(dec, self.g)


class TestWeylSweep:
    """``torus_sigma_min``, pruned by the Weyl bound, against the whole default grid."""

    @staticmethod
    def _whole(dec):
        return _min_sigma(dec.pencil_basis, thetas=_torus_grid(dec.m, _default_diff_grid(dec.m)))

    @settings(max_examples=40)
    @given(st.one_of(_algebraic_systems(1), _algebraic_systems(2), _algebraic_systems(3)))
    def test_bit_for_bit(self, sys):
        dec = decompose(sys)
        assert dec.torus_sigma_min == self._whole(dec)

    @pytest.mark.parametrize("kind", ["near-one", "tied", "flat"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_peaked_tied_and_flat(self, kind, m):
        dec = decompose(_algebraic_system(kind, 3, 2, 7, m))
        assert dec.torus_sigma_min == self._whole(dec)

    @pytest.mark.parametrize("make", [
        make_sys_a, make_sys_b, three_delay_system,
        # the 8-point grid of m >= 4: rounds of 4 and 2 steps
        lambda: dense_stable_system(3, 6, m=5, tau=np.arange(1.0, 6.0)),
    ], ids=["SYS-A", "SYS-B", "three-delay", "m=5"])
    def test_systems(self, make):
        dec = decompose(make())
        assert dec.torus_sigma_min == self._whole(dec)

    @pytest.mark.parametrize("tau", [[1.0], []], ids=["m=1", "m=0"])
    def test_no_algebraic_part(self, tau):
        # nonsingular E: no torus matrix, as check_assumption1 reports
        A = (-np.eye(2), 0.1 * np.eye(2))[:len(tau) + 1]
        dec = decompose(DdaeSystem(E=np.eye(2), A=A, B=np.ones((2, 1)), C=np.ones((1, 2)),
                                   tau=tau))
        assert dec.nu == 0
        assert dec.torus_sigma_min == np.inf == check_assumption1(dec)[1]

    @pytest.mark.parametrize("make, svds", [
        # the centres of the 8-step cells that hold half-grid rows (4 * 8 + 5), of the
        # 4- and 2-step children of those still open, and the rows left: 126 SVDs
        # against the 2,050 rows of the whole half grid
        (make_sys_a, [37, 16, 28, 45]),
        # flat to rounding: no cell could close at any width, so one round and every row
        (lambda: _algebraic_system("flat", 4, 2, 11, 2), [37, 2_050]),
    ], ids=["SYS-A", "flat"])
    def test_svd_count(self, monkeypatch, make, svds):
        seen = []
        real = system_model._pencil_map

        def counted(fn, S, **samples):
            seen.append(len(samples["thetas"]))
            return real(fn, S, **samples)

        monkeypatch.setattr(system_model, "_pencil_map", counted)
        dec = decompose(make())
        smin = dec.torus_sigma_min
        assert seen == svds
        assert smin == self._whole(dec)


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
        res = norms._torus_maximum(dec, g) if g else strong_norm_Ta(dec)
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
