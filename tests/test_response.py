import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddaenorm import (
    DdaeSystem,
    EvaluationError,
    FrequencyGrid,
    decompose,
    eval_T,
    eval_Ta,
    eval_Ta_torus,
    hinf_norm_T,
    strong_norm_Ta,
    sweep,
)
from conftest import dense_stable_system, formula_T, make_sys_a


class TestFrequencyGrid:
    def test_linear_values(self):
        grid = FrequencyGrid("linear", 0.0, 1.0, 5)
        np.testing.assert_allclose(grid.values(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FrequencyGrid("linear", 2.0, 1.0, 10)
        with pytest.raises(ValueError):
            FrequencyGrid("logarithmic", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            FrequencyGrid("linear", 0.0, 1.0, 1)

    @pytest.mark.parametrize("kind, lo, hi, name", [
        ("linear", 0.0, np.inf, "omega_max"),
        ("logarithmic", 1.0, np.inf, "omega_max"),
        ("linear", 0.0, np.nan, "omega_max"),
        ("linear", np.nan, 1.0, "omega_min"),
        ("linear", -np.inf, 1.0, "omega_min"),
    ])
    def test_nonfinite_bound_is_named(self, kind, lo, hi, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FrequencyGrid(kind, lo, hi, 5)


class TestEvalT:
    def test_sys_a_at_zero(self, sys_a):
        val = eval_T(sys_a, 0.0)
        assert val.shape == (1, 1)
        assert val[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_sys_a_at_resonance_peak(self, sys_a):
        assert abs(eval_T(sys_a, 1.6598)[0, 0]) == pytest.approx(2.6422, abs=1e-3)

    def test_matches_closed_form(self, sys_a):
        rng = np.random.default_rng(42)
        for w in rng.uniform(0.1, 100.0, 20):
            got = eval_T(sys_a, w)[0, 0]
            want = complex(formula_T(1j * w))
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_delay_override(self, sys_a):
        w = 3.7
        got = eval_T(sys_a, w, tau=[0.99, 2.0])[0, 0]
        want = complex(formula_T(1j * w, tau=(0.99, 2.0)))
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_characteristic_root_raises(self):
        # Undamped oscillator: characteristic matrix singular at omega = 1.
        sys = DdaeSystem(E=np.eye(2), A=([[0.0, 1.0], [-1.0, 0.0]],),
                         B=[[0.0], [1.0]], C=[[1.0, 0.0]], tau=[])
        with pytest.raises(EvaluationError) as err:
            eval_T(sys, 1.0)
        assert err.value.point == pytest.approx(1.0)

    def test_nan_frequency_raises(self, sys_a):
        # a non-finite phase is flagged by the kernel, without a numpy warning first
        for sys in (sys_a, dense_stable_system(3, 4)):
            for w in (np.nan, np.inf, -np.inf):
                with pytest.raises(EvaluationError,
                                   match=f"characteristic matrix is not finite at {w}"):
                    eval_T(sys, w)


class TestEvalTa:
    def test_sys_a_at_zero(self, sys_a):
        dec = decompose(sys_a)
        val = eval_Ta(dec, 0.0, sys_a.tau)
        assert val[0, 0] == pytest.approx(0.8, abs=1e-14)

    def test_nu_zero_is_zero(self):
        sys = DdaeSystem(E=np.eye(2), A=(-np.eye(2), 0.1 * np.eye(2)),
                         B=np.eye(2), C=np.eye(2), tau=[1.0])
        dec = decompose(sys)
        np.testing.assert_allclose(eval_Ta(dec, 1.3, sys.tau), 0.0)

    def test_dense_sweep_norm_over_one_period(self, sys_a):
        from ddaenorm.response import sigma_Ta_samples
        dec = decompose(sys_a)
        w = np.linspace(0.0, 2.0 * np.pi, 40001)
        sig, ok = sigma_Ta_samples(dec, w, sys_a.tau)
        assert ok.all()
        assert sig[:, 0].max() == pytest.approx(2.0320, abs=1e-3)


class TestTorus:
    def test_modulus_four_at_special_point(self, sys_a):
        dec = decompose(sys_a)
        val = eval_Ta_torus(dec, [0.0, np.pi])
        assert abs(val[0, 0]) == pytest.approx(4.0, abs=1e-12)

    def test_origin(self, sys_a):
        dec = decompose(sys_a)
        assert abs(eval_Ta_torus(dec, [0.0, 0.0])[0, 0]) == pytest.approx(0.8, abs=1e-14)

    def test_batch_sampler_matches_scalar_form(self, sys_a):
        from ddaenorm.response import sigma_Ta_torus_samples
        dec = decompose(sys_a)
        rng = np.random.default_rng(8)
        thetas = rng.uniform(0.0, 2.0 * np.pi, (16, 2))
        sig, ok = sigma_Ta_torus_samples(dec, thetas)
        assert ok.all()
        for row, theta in zip(sig, thetas):
            direct = np.linalg.svd(eval_Ta_torus(dec, theta), compute_uv=False)
            np.testing.assert_allclose(row, direct, atol=1e-13)

    @settings(max_examples=40)
    @given(w=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_identity_with_frequency_form(self, w):
        sys = make_sys_a()
        dec = decompose(sys)
        theta = np.mod(w * sys.tau, 2.0 * np.pi)
        lhs = eval_Ta_torus(dec, theta)
        rhs = eval_Ta(dec, w, sys.tau)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestProperties:
    def test_conjugate_symmetry(self, sys_a):
        for w in (0.3, 1.7, 9.2):
            plus = eval_T(sys_a, w)
            minus = eval_T(sys_a, -w)
            np.testing.assert_allclose(minus, np.conj(plus), atol=1e-13)

    def test_high_frequency_convergence(self, sys_a):
        dec = decompose(sys_a)
        maxima = []
        for k in range(1, 5):
            w = np.geomspace(10.0 ** k, 10.0 ** (k + 1), 4001)
            diff = [abs(eval_T(sys_a, wi)[0, 0] - eval_Ta(dec, wi, sys_a.tau)[0, 0])
                    for wi in w[::40]]
            maxima.append(max(diff))
        assert all(a > b for a, b in zip(maxima, maxima[1:]))

    def test_commensurate_periodicity(self, sys_a):
        # tau = (1, 2) has common denominator 1, so T_a is 2*pi periodic.
        dec = decompose(sys_a)
        rng = np.random.default_rng(5)
        for w in rng.uniform(0.0, 100.0, 25):
            a = eval_Ta(dec, w, sys_a.tau)
            b = eval_Ta(dec, w + 2.0 * np.pi, sys_a.tau)
            assert np.abs(a - b).max() < 1e-10


class TestSweep:
    def test_t_sweep_finds_resonance_peak(self, sys_a):
        curve = sweep(sys_a, FrequencyGrid("linear", 0.0, 5.0, 2001), which="T")
        w, val = curve.max_point()
        assert val == pytest.approx(2.6422, abs=1e-3)
        assert w == pytest.approx(1.66, abs=0.02)
        assert curve.sigmas.shape[1] == 1
        # ordering invariants
        assert np.all(np.diff(curve.params) > 0)

    def test_ta_sweep_period_max(self, sys_a):
        curve = sweep(sys_a, FrequencyGrid("linear", 0.0, float(2 * np.pi), 2001), which="Ta")
        _, val = curve.max_point()
        assert val == pytest.approx(2.0320, abs=1e-3)

    def test_log_sweep_perturbed_shows_high_frequency_peaks(self, sys_a):
        # Perturbing (1, 2) to (0.99, 2) moves the peak into the hundreds and
        # lifts it toward 4; the nominal curve stays near 2.64.  Log grids
        # only locate the region, the norm search pins the exact value.
        perturbed = sweep(sys_a, FrequencyGrid("logarithmic", 1.0, 1e4, 20001),
                          which="T", tau=[0.99, 2.0])
        nominal = sweep(sys_a, FrequencyGrid("logarithmic", 1.0, 1e4, 20001), which="T")
        w_pert, val_pert = perturbed.max_point()
        _, val_nom = nominal.max_point()
        assert 3.5 < val_pert <= 4.0
        assert w_pert > 100.0
        assert val_nom == pytest.approx(2.6422, abs=2e-3)

    def test_gaps_recorded_not_fabricated(self):
        sys = DdaeSystem(E=np.eye(2), A=([[0.0, 1.0], [-1.0, 0.0]],),
                         B=[[0.0], [1.0]], C=[[1.0, 0.0]], tau=[])
        curve = sweep(sys, FrequencyGrid("linear", 0.0, 2.0, 3), which="T")
        assert len(curve.gaps) == 1
        assert curve.gaps[0][0] == pytest.approx(1.0)
        assert curve.params.size == 2
        assert np.isfinite(curve.sigmas).all()

    def test_all_gaps_have_no_max(self):
        # E = A_0 = 0: every sample of the pencil is singular
        sys = DdaeSystem(E=[[0.0]], A=([[0.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        curve = sweep(sys, FrequencyGrid("linear", 0.0, 1.0, 5), which="T")
        assert curve.params.size == 0 and len(curve.gaps) == 5
        with pytest.raises(EvaluationError, match="all 5 points are gaps"):
            curve.max_point()

    def test_ode_reduction_matches_resolvent(self):
        rng = np.random.default_rng(11)
        A0 = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((2, 3))
        sys = DdaeSystem(E=np.eye(3), A=(A0,), B=B, C=C, tau=[])
        curve = sweep(sys, FrequencyGrid("linear", 0.0, 10.0, 101), which="T")
        for w, sig in zip(curve.params, curve.sigmas):
            direct = C @ np.linalg.solve(1j * w * np.eye(3) - A0, B)
            np.testing.assert_allclose(
                sig, np.linalg.svd(direct, compute_uv=False), atol=1e-12
            )

    def test_sigma_rows_descending(self, sys_a):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        sys = DdaeSystem(E=sys_a.E, A=sys_a.A, B=B, C=C, tau=sys_a.tau)
        curve = sweep(sys, FrequencyGrid("linear", 0.0, 5.0, 101), which="T")
        assert np.all(curve.sigmas[:, 0] >= curve.sigmas[:, 1] - 1e-15)

    def test_csv_columns(self, sys_a, tmp_path):
        curve = sweep(sys_a, FrequencyGrid("linear", 0.0, 1.0, 5), which="T")
        out = tmp_path / "curve.csv"
        curve.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,sigma_1"
        assert len(lines) == 6
        # full-precision round trip of the first data row
        w, s = lines[1].split(",")
        assert float(w) == curve.params[0]
        assert float(s) == curve.sigmas[0, 0]


def random_system(rng, n=5, p_in=2, p_out=2, m=2):
    """Random descriptor system with a two-dimensional algebraic part."""
    E = np.diag([1.0] * (n - 2) + [0.0, 0.0])
    A = [rng.standard_normal((n, n)) - 4.0 * np.eye(n)]
    A += [0.2 * rng.standard_normal((n, n)) for _ in range(m)]
    return DdaeSystem(E=E, A=tuple(A), B=rng.standard_normal((n, p_in)),
                      C=rng.standard_normal((p_out, n)), tau=np.arange(1.0, m + 1.0))


def oscillator():
    # Undamped oscillator: characteristic matrix singular at omega = 1.
    return DdaeSystem(E=np.eye(2), A=([[0.0, 1.0], [-1.0, 0.0]],),
                      B=[[0.0], [1.0]], C=[[1.0, 0.0]], tau=[])


class TestPencilKernel:
    """The one pencil kernel behind every evaluation in ``response``."""

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2)])
    def test_one_point_matches_batched(self, shape, m):
        from ddaenorm.response import (sigma_T_samples, sigma_Ta_samples,
                                       sigma_Ta_torus_samples)
        rng = np.random.default_rng(21)
        sys = random_system(rng, p_in=shape[0], p_out=shape[1], m=m)
        dec = decompose(sys)
        omegas = np.linspace(0.0, 30.0, 41)
        thetas = rng.uniform(0.0, 2.0 * np.pi, (41, sys.m))
        cases = [
            (lambda x: sigma_T_samples(sys, x), omegas),
            (lambda x: sigma_Ta_samples(dec, x, sys.tau), omegas),
            (lambda x: sigma_Ta_torus_samples(dec, x), thetas),
        ]
        for sample, points in cases:
            batched, ok = sample(points)
            assert ok.all()
            for row, point in zip(batched, points):
                one, ok1 = sample(np.asarray(point)[None])
                assert ok1[0]
                np.testing.assert_array_equal(one[0], row)

    @pytest.mark.parametrize("make", [
        make_sys_a,
        lambda: dense_stable_system(1, 10),        # 2 inputs, 2 outputs
        lambda: dense_stable_system(1, 10, nu=8),  # the nu = 8 torus system
        lambda: dense_stable_system(1, 40),        # the low-rank kernel of T
        # 2x2 pencils of T and of the torus with non-integer coefficients, where
        # SYS-A's small integers would hide the rounding of the product
        lambda: random_system(np.random.default_rng(28), n=2),
    ], ids=["SYS-A", "n10", "nu8", "n40", "n2"])
    def test_one_point_is_bit_identical_to_batched(self, make):
        from ddaenorm.response import _T_map, _transfer, sigma_T_samples, sigma_Ta_torus_samples
        from ddaenorm.system_model import _pencil_map
        sys = make()
        dec = decompose(sys)
        rng = np.random.default_rng(27)
        omegas = rng.uniform(0.0, 50.0, 200)
        thetas = rng.uniform(0.0, 2.0 * np.pi, (200, dec.m))

        def transfers(parts):
            assert all(ok.all() for _, ok, _ in parts)
            return np.concatenate([T for T, _, _ in parts])

        cases = [
            (lambda x: sigma_T_samples(sys, x), lambda x: eval_T(sys, x), omegas,
             transfers(_T_map(lambda *t: t, sys, omegas, sys.tau))),
            (lambda x: sigma_Ta_torus_samples(dec, x), lambda x: eval_Ta_torus(dec, x), thetas,
             transfers(_pencil_map(lambda M: _transfer(M, dec.B2, dec.C2), dec.pencil_basis,
                                   thetas=thetas))),
        ]
        for sample, evaluate, points, T in cases:
            batched, ok = sample(points)
            assert ok.all()
            for point, row, T_k in zip(points, batched, T):
                np.testing.assert_array_equal(sample(np.asarray(point)[None])[0][0], row)
                np.testing.assert_array_equal(evaluate(point), T_k)

    def test_one_point_matches_scalar_evaluators(self):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_samples
        rng = np.random.default_rng(22)
        sys = random_system(rng)
        dec = decompose(sys)
        for w in (0.0, 0.7, 13.0):
            sig, _ = sigma_T_samples(sys, [w])
            direct = np.linalg.svd(eval_T(sys, w), compute_uv=False)
            np.testing.assert_allclose(sig[0], direct, rtol=1e-14)
            sig, _ = sigma_Ta_samples(dec, [w], sys.tau)
            direct = np.linalg.svd(eval_Ta(dec, w, sys.tau), compute_uv=False)
            np.testing.assert_allclose(sig[0], direct, rtol=1e-14)

    def test_mixed_singular_stack(self):
        from ddaenorm.response import sigma_T_samples
        sig, ok = sigma_T_samples(oscillator(), [0.0, 0.5, 1.0, 1.5, 1.0])
        np.testing.assert_array_equal(ok, [True, True, False, True, False])
        assert np.isnan(sig[~ok]).all()
        assert np.isfinite(sig[ok]).all()

    def test_nonfinite_torus_point(self, sys_a):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_torus_samples
        dec = decompose(sys_a)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(EvaluationError,
                               match=rf"torus matrix is not finite at \({bad}, 0.0\)"):
                eval_Ta_torus(dec, [bad, 0.0])
            sig, ok = sigma_Ta_torus_samples(dec, [[bad, 0.0], [0.0, 0.0]])
            np.testing.assert_array_equal(ok, [False, True])
            assert np.isnan(sig[0]).all() and sig[1, 0] == pytest.approx(0.8)
        # n >= 3 takes the solve with the probe instead of the closed form
        sys = dense_stable_system(3, 4, nu=3)
        for sig, ok in (sigma_T_samples(sys, [np.inf, 1.0, -np.inf, np.nan]),
                        sigma_Ta_torus_samples(decompose(sys), [[np.inf, 0.0], [0.0, 0.0],
                                                                [0.0, -np.inf]])):
            np.testing.assert_array_equal(ok, np.isfinite(sig[:, 0]))
            assert ok.tolist() == [False, True, False, False][:len(ok)]

    def test_mixed_singular_torus_stack(self):
        from ddaenorm.response import _sample
        from ddaenorm.system_model import _pencil_basis
        # -A0 - A1 e^{-j theta} = 1 - e^{-j theta} vanishes at theta = 0 only.
        S = _pencil_basis((-np.eye(1), np.eye(1)))
        thetas = np.array([[0.0], [1.0], [0.0], [3.0]])
        sig, ok = _sample(S, np.ones((1, 1)), np.ones((1, 1)), thetas=thetas)
        np.testing.assert_array_equal(ok, [False, True, False, True])
        assert np.isnan(sig[~ok]).all()
        np.testing.assert_allclose(sig[ok, 0], 1.0 / np.abs(1.0 - np.exp(-1j * thetas[ok, 0])),
                                   rtol=1e-14)

    def test_chunk_boundaries_do_not_change_results(self, monkeypatch):
        from ddaenorm import (check_difference_stability, imaginary_axis_margin, response,
                              system_model)
        rng = np.random.default_rng(23)
        sys = random_system(rng, n=4)
        dec = decompose(sys)
        omegas = np.linspace(0.0, 20.0, 23)
        low_rank = dense_stable_system(1, 40)
        assert low_rank.delay_channels.kernel == "low-rank"
        # roots at the grid samples 3 and 7 of a step sweep: the low-rank kernel hands
        # both off at once, and their phases come from the grid phases' gathers
        h, rooted = 0.25, with_roots(low_rank_system(3, 12, 2), 0.75, 1.75)
        assert rooted.delay_channels.kernel == "low-rank"

        def evaluate():
            return [
                *response.sigma_T_samples(sys, omegas),
                *response.sigma_T_samples(oscillator(), np.linspace(0.0, 2.0, 9)),
                # the last sample's squared norm is beyond Cramer's rule
                *response.sigma_T_samples(make_sys_a(), [0.3, 1.0, 1.7, 1e150]),
                *response.sigma_T_samples(low_rank, omegas),
                *response.sigma_T_samples(rooted, h * np.arange(12), step=h),
                *response.sigma_Ta_samples(dec, omegas, sys.tau),
                *response.sigma_Ta_torus_samples(dec, np.outer(omegas, sys.tau)),
                imaginary_axis_margin(sys, 20.0, count=23),
                # a fresh decomposition: its grid quantities are memoised
                check_difference_stability(decompose(sys)),
                decompose(sys).torus_sigma_min,
            ]

        whole = evaluate()
        assert not whole[3].all()  # the oscillator grid hits its root
        np.testing.assert_array_equal(np.flatnonzero(~whole[9]), [3, 7])
        sig, ok = dense_kernel(rooted, h * np.arange(12))
        np.testing.assert_array_equal(ok, whole[9])
        assert_sigmas_close(whole[8][ok], sig[ok], 1e-12)
        # three samples of a 2x2 pencil per chunk, one of a 4x4 or 40x40 one;
        # then at most seven samples per chunk
        for name, value in (("_STACK_BYTES", 3 * 16 * 4), ("_CHUNK_SAMPLES", 7)):
            monkeypatch.setattr(system_model, name, value)
            for a, b in zip(whole, evaluate(), strict=True):
                np.testing.assert_array_equal(a, b)
            monkeypatch.undo()

    def test_square_input_matrix(self):
        # p_in == n with stacks of one and of n samples: B is a matrix
        # right-hand side for every sample, never a stack of vectors.
        from ddaenorm.response import sigma_T_samples
        rng = np.random.default_rng(25)
        sys = random_system(rng, n=3, p_in=3, p_out=2)
        omegas = np.array([0.0, 0.7, 13.0])
        for points in (omegas, omegas[1:2]):
            sig, ok = sigma_T_samples(sys, points)
            assert ok.all()
            for row, w in zip(sig, points):
                M = 1j * w * sys.E - sys.A[0] - sum(
                    Ai * np.exp(-1j * w * t) for Ai, t in zip(sys.A[1:], sys.tau))
                T = sys.C @ np.linalg.inv(M) @ sys.B
                np.testing.assert_allclose(row, np.linalg.svd(T, compute_uv=False),
                                           rtol=1e-12)

    @pytest.mark.parametrize("p_in, p_out", [(0, 2), (2, 0)])
    def test_no_inputs_or_outputs(self, p_in, p_out):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_samples
        rng = np.random.default_rng(26)
        sys = random_system(rng, p_in=p_in, p_out=p_out)
        dec = decompose(sys)
        for points in (np.linspace(0.0, 5.0, 7), np.array([0.5])):
            for sig, ok in (sigma_T_samples(sys, points), sigma_Ta_samples(dec, points, sys.tau)):
                assert ok.all()
                np.testing.assert_array_equal(sig, np.zeros((points.size, 1)))

    @pytest.mark.parametrize("p_in, p_out", [(1, 1), (1, 3), (3, 1)])
    def test_vector_norm_path_matches_svd(self, p_in, p_out):
        from ddaenorm.response import sigma_T_samples
        rng = np.random.default_rng(24)
        sys = random_system(rng, p_in=p_in, p_out=p_out)
        omegas = np.linspace(0.0, 10.0, 51)
        sig, ok = sigma_T_samples(sys, omegas)
        assert ok.all() and sig.shape == (omegas.size, 1)
        want = np.array([np.linalg.svd(eval_T(sys, w), compute_uv=False) for w in omegas])
        np.testing.assert_allclose(sig, want, rtol=1e-14)


def pencil_stacks(A, E=None, **samples):
    """Every stack ``_pencil_map`` assembles for these samples, in sample order."""
    from ddaenorm.system_model import _pencil_basis, _pencil_map
    return np.concatenate(_pencil_map(lambda M: M.copy(), _pencil_basis(A, E), **samples))


def assembly_cases(rng, n, m, count):
    """Random ``A`` and ``(samples, want)`` for the frequency axis with and
    without ``E`` and the torus, ``want`` from ``1j*w*E - A0 - sum A_i exp(-1j*theta_i)``."""
    A = tuple(rng.standard_normal((n, n)) for _ in range(m + 1))
    E = rng.standard_normal((n, n))
    omegas = np.linspace(0.0, 40.0, count) if count > 1 else np.array([7.3])
    tau = rng.uniform(0.5, 3.0, m)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (count, m))

    def direct(lam, theta):
        return np.array([l * E - A[0] - sum(
            Ai * np.exp(-1j * t) for Ai, t in zip(A[1:], row)) for l, row in zip(lam, theta)])

    axis = np.outer(omegas, tau)
    return A, [
        ({"E": E, "omegas": omegas, "tau": tau}, direct(1j * omegas, axis)),
        ({"omegas": omegas, "tau": tau}, direct(np.zeros(count), axis)),
        ({"thetas": thetas}, direct(np.zeros(count), thetas)),
    ]


class TestPencilAssembly:
    """``_pencil_map`` against the direct formula, and its chunking."""

    @pytest.mark.parametrize("count", [1, 29])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_matches_direct_formula(self, n, m, count):
        rng = np.random.default_rng(1000 * n + 10 * m + count)
        A, cases = assembly_cases(rng, n, m, count)
        for samples, want in cases:
            got = pencil_stacks(A, **samples)
            assert got.shape == want.shape
            err = np.abs(got - want).max(axis=(1, 2))
            assert (err <= 1e-15 * np.abs(want).max(axis=(1, 2))).all()

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_one_sample_chunks_match_one_whole_chunk(self, n, m, monkeypatch):
        # n <= 2: one 2-D product per chunk, a lone sample padded to two rows
        from ddaenorm import system_model
        rng = np.random.default_rng(31 + m + 10 * n)
        A, cases = assembly_cases(rng, n, m, 37)
        whole = [pencil_stacks(A, **samples) for samples, _ in cases]
        monkeypatch.setattr(system_model, "_STACK_BYTES", 1)
        for (samples, _), stack in zip(cases, whole, strict=True):
            np.testing.assert_array_equal(pencil_stacks(A, **samples), stack)

    @pytest.mark.parametrize("count", [1, 5])
    def test_complex_coefficients(self, count):
        from ddaenorm.system_model import _pencil_basis
        rng = np.random.default_rng(33)
        A, cases = assembly_cases(rng, 3, 2, count)
        samples = cases[2][0]  # the torus
        # a complex dtype with a zero imaginary part is the real matrix
        zero_imag = (A[0].astype(complex), *A[1:])
        np.testing.assert_array_equal(pencil_stacks(zero_imag, **samples),
                                      pencil_stacks(A, **samples))
        nonreal = (A[0], A[1] + 1e-3j * A[1], A[2])
        with pytest.raises(ValueError, match="real"):
            _pencil_basis(nonreal)


def near_singular_stack(rng, n, count):
    """Stack ``U diag(sigma) V^H`` whose sigma_min / sigma_max spans 1e-22 .. 1e-8."""
    def unitary():
        Z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        return np.linalg.qr(Z)[0]
    ratio = 10.0 ** rng.uniform(-22.0, -8.0, count)
    sigma = ratio[:, None] ** np.linspace(0.0, 1.0, n)  # geometric from 1 down to ratio
    return (unitary() * sigma[:, None, :]) @ unitary().conj().swapaxes(1, 2)


def svd_ok(M):
    """The exact reciprocal-condition test that the solve-based one bounds."""
    from ddaenorm.response import RCOND_MIN
    s = np.linalg.svd(M, compute_uv=False)
    return s[:, -1] > RCOND_MIN * s[:, 0], s[:, -1] / s[:, 0]


def count_svd(monkeypatch):
    """Count calls of ``np.linalg.svd`` from here on; returns a one-item list."""
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestSingularityRule:
    """The solve-based singularity test is one-sided against the SVD test."""

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 40])
    def test_one_sided_against_svd_test(self, n):
        from ddaenorm.response import _transfer
        rng = np.random.default_rng(100 + n)
        M = near_singular_stack(rng, n, 400)
        _, ok, _ = _transfer(M, rng.standard_normal((n, 2)), rng.standard_normal((2, n)))
        exact, ratio = svd_ok(M)
        assert not (exact & ~ok).any()  # never flags a sample the SVD test passes
        assert not ok[ratio <= 1e-16].any()  # flags every numerically singular sample
        if n > 1:
            assert (ratio <= 1e-16).sum() > 50  # the stack does reach that range

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_svd_test(self, n, monkeypatch):
        # n <= 2 is decided by the exact ratio, without an SVD, with a
        # one-sided slack of RCOND_MIN / 4 against its roundoff; outside that
        # window the decision is the SVD test's
        from ddaenorm.response import RCOND_MIN, _transfer
        calls = count_svd(monkeypatch)
        for seed in range(20):
            rng = np.random.default_rng(200 + 20 * n + seed)
            M = near_singular_stack(rng, n, 2000) * 10.0 ** rng.uniform(-100.0, 100.0,
                                                                         (2000, 1, 1))
            exact, ratio = svd_ok(M)
            before = calls[0]
            _, ok, _ = _transfer(M, rng.standard_normal((n, 2)), rng.standard_normal((2, n)))
            assert calls[0] == before
            assert not (exact & ~ok).any()
            outside = (ratio <= RCOND_MIN / 2) | exact
            np.testing.assert_array_equal(ok[outside], exact[outside])

    def test_exact_zero_pivot_falls_back_to_svd(self, monkeypatch):
        # numpy rejects a stack with an exactly singular matrix as a whole
        from ddaenorm.response import _transfer
        calls = count_svd(monkeypatch)
        M = np.array([np.eye(3), np.ones((3, 3)), 2.0 * np.eye(3)], dtype=complex)
        T, ok, rcond = _transfer(M, np.eye(3), np.eye(3))
        np.testing.assert_array_equal(ok, [True, False, True])
        assert rcond[1] == 0.0 and calls == [1]
        np.testing.assert_allclose(T, [np.eye(3), 0.5 * np.eye(3)], rtol=1e-15)

    def test_exact_zero_pivot_leaves_the_other_samples_to_the_solve(self):
        # only the exactly singular sample takes the SVD test: a sample just
        # above the threshold passes beside it as it passes alone
        from ddaenorm.response import _transfer
        rng = np.random.default_rng(0)
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((10, 10)))[0] for _ in range(2))
        M1 = Q1 @ np.diag(np.r_[np.ones(9), 5e-15]) @ Q2.T
        B, C = rng.standard_normal((10, 2)), rng.standard_normal((2, 10))
        T1, ok1, _ = _transfer(M1[None].astype(complex), B, C)
        T, ok, rcond = _transfer(np.array([np.zeros((10, 10)), M1], dtype=complex), B, C)
        assert ok1.tolist() == [True] and ok.tolist() == [False, True] and rcond[0] == 0.0
        np.testing.assert_array_equal(T, T1)

    def test_closed_form_flags_exact_zero_without_svd(self, monkeypatch):
        from ddaenorm.response import _transfer
        calls = count_svd(monkeypatch)
        M = np.array([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)], dtype=complex)
        T, ok, rcond = _transfer(M, np.eye(2), np.eye(2))
        np.testing.assert_array_equal(ok, [True, False, True])
        assert rcond[1] == 0.0 and calls == [0]
        np.testing.assert_allclose(T, [np.eye(2), 0.5 * np.eye(2)], rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-160, 1e160, 1e-200, 1e200])
    def test_extreme_scaling_is_decided_exactly(self, scale, monkeypatch):
        # the squared norms of the estimate under- or overflow; the SVD test
        # passes these well-conditioned samples, so they must pass here too
        from ddaenorm.response import _transfer
        rng = np.random.default_rng(111)
        M = scale * (rng.standard_normal((5, 3, 3)) + 4.0 * np.eye(3))
        calls = count_svd(monkeypatch)
        _, ok, _ = _transfer(M.astype(complex), np.ones((3, 1)), np.ones((1, 3)))
        assert ok.all() and calls == [1]

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-150, 1e150, 1e160, 1e200])
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_extreme_scaling_is_decided_exactly(self, n, scale):
        # products of entries under- or overflow: a stack with such samples,
        # mixed here with samples of ordinary scale, takes the SVD and a solve
        from ddaenorm.response import _transfer
        rng = np.random.default_rng(112)
        M = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        M += 4.0 * np.eye(n)
        M[1::2] *= scale
        M[3, -1] = M[3, 0]  # singular at any scale
        B, C = rng.standard_normal((n, 2)), rng.standard_normal((2, n))
        T, ok, rcond = _transfer(M, B, C)
        np.testing.assert_array_equal(ok, [True, True, True, n == 1, True, True])
        if n == 2:
            assert rcond[3] <= 1e-16
        want = C @ np.linalg.solve(M[ok], B[None])
        np.testing.assert_allclose(T, want, rtol=1e-13)

    def test_message_reports_the_estimate(self):
        from ddaenorm.response import RCOND_MIN
        with pytest.raises(EvaluationError, match=r"rcond <= ") as err:
            eval_T(oscillator(), 1.0)
        assert float(str(err.value).rsplit("<= ", 1)[1].rstrip(")")) <= RCOND_MIN


class TestClosedForm2x2:
    """The closed-form singular values of 2x2 transfers against LAPACK."""

    @staticmethod
    def check(T):
        from ddaenorm.response import _sigma_2x2
        got = _sigma_2x2(np.asarray(T, dtype=complex))
        want = np.linalg.svd(T, compute_uv=False)
        assert np.isfinite(got).all()
        # sigma_2 is accurate to roundoff relative to sigma_1, as for an SVD
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * want[:, :1].max())
        return got

    def test_random_complex(self):
        rng = np.random.default_rng(120)
        self.check(rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2)))

    def test_equal_singular_values(self):
        rng = np.random.default_rng(121)
        Z = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        Q = np.linalg.qr(Z)[0] * rng.uniform(0.1, 10.0, (50, 1, 1))
        got = self.check(Q)
        np.testing.assert_allclose(got[:, 1], got[:, 0], rtol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(122)
        u = rng.standard_normal((50, 2, 1)) + 1j * rng.standard_normal((50, 2, 1))
        v = rng.standard_normal((50, 1, 2)) + 1j * rng.standard_normal((50, 1, 2))
        self.check(u @ v)
        self.check(np.array([[[1.0, 2.0], [2.0, 4.0]]]))  # exactly singular

    def test_zero_matrix(self):
        got = self.check(np.zeros((3, 2, 2)))
        np.testing.assert_array_equal(got, 0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_entries(self, scale):
        rng = np.random.default_rng(123)
        Z = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        self.check(scale * Z)


class TestSvdFreeHotPath:
    """Grids of T and of the torus function take no SVD; other shapes one per chunk."""

    def test_scan_of_sys_a(self, sys_a, monkeypatch):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_torus_samples
        dec = decompose(sys_a)
        calls = count_svd(monkeypatch)
        sigma_T_samples(sys_a, np.linspace(0.0, 50.0, 1000))
        sigma_Ta_torus_samples(dec, np.random.default_rng(130).uniform(0.0, 6.3, (1000, 2)))
        assert calls == [0]

    def test_scan_of_two_by_two_system(self, monkeypatch):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_torus_samples
        sys = random_system(np.random.default_rng(131), n=10)
        dec = decompose(sys)
        calls = count_svd(monkeypatch)
        sig, ok = sigma_T_samples(sys, np.linspace(0.0, 50.0, 1000))
        sigma_Ta_torus_samples(dec, np.random.default_rng(132).uniform(0.0, 6.3, (1000, 2)))
        assert ok.all() and sig.shape == (1000, 2)
        assert calls == [0]

    @pytest.mark.parametrize("run", [
        lambda s, dec: hinf_norm_T(s, dec),
        lambda s, dec: strong_norm_Ta(dec),
    ], ids=["hinf_norm_T", "strong_norm_Ta"])
    def test_sys_a_norms_take_no_lapack_per_sample(self, run, monkeypatch):
        # n <= 2 pencils are solved in closed form; the memoised grids of the
        # decomposition are computed before counting
        s = make_sys_a((0.999, 2.0))
        dec = decompose(s)
        dec.gamma_a, dec.torus_sigma_min
        calls = {}
        for name in ("solve", "svd"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                if np.ndim(a) == 3:  # a stack of samples, not a block norm
                    calls[_name] = calls.get(_name, 0) + 1
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run(s, dec)
        assert calls == {}

    def test_three_by_two_output_takes_one_svd_per_chunk(self, monkeypatch):
        from ddaenorm import system_model
        from ddaenorm.response import sigma_T_samples
        sys = random_system(np.random.default_rng(133), p_in=2, p_out=3)
        # 300 samples: a 5x5 pencil with three solution columns (two inputs and the probe)
        monkeypatch.setattr(system_model, "_STACK_BYTES", 300 * 16 * 5 * (5 + 3))
        calls = count_svd(monkeypatch)
        sig, ok = sigma_T_samples(sys, np.linspace(0.0, 50.0, 1000))
        assert ok.all() and sig.shape == (1000, 2)
        assert calls == [4]

    def test_low_rank_scan_solves_no_pencil_stack(self, monkeypatch):
        # the n = 40 scan and its polish solve only r x r capacitance stacks
        sys = dense_stable_system(1, 40)
        calls = []
        real = np.linalg.solve

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[-2:] == (sys.n, sys.n):
                calls.append(np.shape(a))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "solve", counted)
        result = hinf_norm_T(sys)
        assert result.diagnostics["kernel"] == "low-rank"
        assert result.diagnostics["scan_points"] > 1000
        assert calls == []


class TestOneProductPerChunk:
    """Each chunk of pencils is one ``np.matmul``: a 2-D one for ``n <= 2``."""

    @pytest.mark.parametrize("count", [1, 2, 29])
    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matmul_calls(self, n, m, count, monkeypatch):
        A, cases = assembly_cases(np.random.default_rng(135), n, m, count)
        calls = []
        real = np.matmul

        def counted(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np, "matmul", counted)
        for samples, _ in cases:
            calls.clear()
            pencil_stacks(A, **samples)
            assert calls == [2 if n <= 2 else 3]


class TestGridPhases:
    """Phases of a uniform grid ``omegas = k h`` from two short tables per delay."""

    B = 256  # 2**system_model._PHASE_BITS

    @settings(max_examples=150)
    @given(tau=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
           h=st.floats(1e-4, 1.0), q=st.integers(0, 2_000_000 // 256),
           r=st.integers(0, 255), count=st.integers(1, 3 * 256),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_within_a_few_eps_of_libm(self, tau, h, q, r, count, seed):
        # runs from any residue, across block boundaries, and random subsets of them
        from ddaenorm.system_model import _grid_phases
        tau = np.array(tau)
        k = np.arange(q * self.B + r, q * self.B + r + count)
        pick = np.flatnonzero(np.random.default_rng(seed).random(count) < 0.5)
        for ks in (k, k[pick]):
            omegas = ks * h
            c, s = np.empty((2, tau.size, ks.size))
            _grid_phases(tau, h, omegas, c, s)
            phase = np.multiply.outer(tau, omegas)  # tau_i * (k * h)
            tol = 4.0 * np.finfo(float).eps * (1.0 + np.abs(phase))
            assert (np.abs(c - np.cos(phase)) <= tol).all()
            assert (np.abs(s - np.sin(phase)) <= tol).all()

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_sample_ignores_its_company(self, n, m, monkeypatch):
        # the same bits alone, in a gathered subset and in any chunk split
        from ddaenorm import system_model
        rng = np.random.default_rng(40 + 10 * n + m)
        A = tuple(rng.standard_normal((n, n)) for _ in range(m + 1))
        E, tau, h = rng.standard_normal((n, n)), rng.uniform(0.5, 3.0, m), 0.0321
        for samples in ({"E": E}, {}):
            omegas = np.arange(1000, 1700) * h
            whole = pencil_stacks(A, omegas=omegas, tau=tau, step=h, **samples)
            pick = np.sort(rng.choice(omegas.size, 50, replace=False))
            np.testing.assert_array_equal(
                pencil_stacks(A, omegas=omegas[pick], tau=tau, step=h, **samples), whole[pick])
            for j in pick[:4]:
                np.testing.assert_array_equal(
                    pencil_stacks(A, omegas=omegas[j:j + 1], tau=tau, step=h, **samples),
                    whole[j:j + 1])
            # lone samples, runs across blocks, and runs of at most seven samples
            for name, value in (("_STACK_BYTES", 16 * n * n), ("_STACK_BYTES", 16 * n * n * 300),
                                ("_CHUNK_SAMPLES", 7)):
                monkeypatch.setattr(system_model, name, value)
                np.testing.assert_array_equal(
                    pencil_stacks(A, omegas=omegas, tau=tau, step=h, **samples), whole)
                monkeypatch.undo()

    def test_samplers_take_the_grid_step(self):
        from ddaenorm.response import sigma_T_samples, sigma_Ta_samples
        sys = make_sys_a((0.999, 2.0))
        dec = decompose(sys)
        h = 2.0 * np.pi / 2.999 / 64.0
        omegas = np.arange(3000) * h
        for sample, system in ((sigma_T_samples, sys), (sigma_Ta_samples, dec)):
            sig, ok = sample(system, omegas, sys.tau, step=h)
            want, ok_want = sample(system, omegas, sys.tau)
            np.testing.assert_array_equal(ok, ok_want)
            np.testing.assert_allclose(sig, want, rtol=1e-12)
            with pytest.raises(ValueError, match="integer multiple"):
                sample(system, omegas + 0.5 * h, sys.tau, step=h)
            for bad in (0.0, -h, np.nan, np.inf):
                with pytest.raises(ValueError, match="step must be finite"):
                    sample(system, omegas, sys.tau, step=bad)


def low_rank_system(seed, n, r, m=2, p=2):
    """Random stable system with ``n`` states, ``r`` delay channels and an ``E``
    of rank ``n - k``, ``k`` up to ``n / 2``."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n // 2 + 1))
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    E = Q1 @ np.diag(np.r_[rng.uniform(0.5, 2.0, n - k), np.zeros(k)]) @ Q2
    X = rng.standard_normal((n, n)) / np.sqrt(n)
    A0 = X - (np.linalg.norm(X, 2) + rng.uniform(0.1, 1.0)) * np.eye(n)
    U, V = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    A = [A0] + [U @ rng.standard_normal((r, r)) @ V.T / np.sqrt(n) for _ in range(m)]
    return DdaeSystem(E=E, A=tuple(A), B=rng.standard_normal((n, p)),
                      C=rng.standard_normal((p, n)), tau=rng.uniform(0.3, 3.0, m))


def with_A0(sys, A0):
    return DdaeSystem(E=sys.E, A=(A0, *sys.A[1:]), B=sys.B, C=sys.C, tau=sys.tau)


def with_root(sys, w0):
    """``sys`` with ``A_0`` moved by a real matrix of rank <= 2 so that ``M(j w0)`` is singular."""
    M = 1j * w0 * sys.E - sys.A[0] - sum(
        Ai * np.exp(-1j * w0 * t) for Ai, t in zip(sys.A[1:], sys.tau))
    Uu, s, Vh = np.linalg.svd(M)
    u, v = Uu[:, -1], Vh[-1].conj()  # M v = s u: a real D with D v = s u closes it
    if w0 == 0.0:
        delta = s[-1] * np.outer(u.real, v.real) / (v.real @ v.real)
    else:
        delta = s[-1] * np.stack([u.real, u.imag], 1) @ np.linalg.pinv(
            np.stack([v.real, v.imag], 1))
    return with_A0(sys, sys.A[0] + delta)


def with_roots(sys, *ws):
    """``sys`` with ``A_0`` moved by a real matrix of rank <= 2 per frequency so that
    ``M(j w)`` is singular at each (nonzero) ``w`` of ``ws``."""
    V, Y = [], []
    for w in ws:
        M = 1j * w * sys.E - sys.A[0] - sum(
            Ai * np.exp(-1j * w * t) for Ai, t in zip(sys.A[1:], sys.tau))
        v = np.linalg.svd(M)[2][-1].conj()
        V += [v.real, v.imag]  # a real D with D V = Y has D v = M v
        Y += [(M @ v).real, (M @ v).imag]
    return with_A0(sys, sys.A[0] + np.stack(Y, 1) @ np.linalg.pinv(np.stack(V, 1)))


def dense_kernel(sys, omegas):
    from ddaenorm.response import _sample
    return _sample(sys.pencil_basis, sys.B, sys.C, omegas=np.asarray(omegas), tau=sys.tau)


def dense_kernel_transfer(sys, omegas):
    from ddaenorm.response import _transfer
    return _transfer(pencil_stacks(sys.A, sys.E, omegas=np.asarray(omegas), tau=sys.tau),
                     sys.B, sys.C)[0]


def assert_sigmas_close(sig, want, rtol):
    """Every singular value within ``rtol`` of its row's ``sigma_1``."""
    rel = np.abs(sig - want) / want[:, :1]
    assert (rel <= rtol).all(), rel.max()


class TestLowRankKernel:
    """``T`` through its delay channels against the dense kernel."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 40), r=st.integers(1, 3))
    def test_matches_dense_kernel(self, seed, n, r):
        from ddaenorm.response import sigma_T_samples
        sys = low_rank_system(seed, n, r)
        assume(sys.delay_channels.kernel == "low-rank")
        assert sys.delay_channels.rank == r
        omegas = np.linspace(0.0, 30.0, 61)
        sig, ok = sigma_T_samples(sys, omegas)
        want, ok_want = dense_kernel(sys, omegas)
        assert ok.all() and ok_want.all()
        assert_sigmas_close(sig, want, 1e-12)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 40), r=st.integers(1, 3),
           on_zero=st.booleans())
    def test_flags_are_one_sided_near_roots(self, seed, n, r, on_zero):
        # a characteristic root at j w0: samples within 1e-15 of it and around it
        from ddaenorm.response import sigma_T_samples
        w0 = 0.0 if on_zero else float(np.random.default_rng(seed).uniform(0.1, 10.0))
        sys = with_root(low_rank_system(seed, n, r), w0)
        assume(sys.delay_channels.kernel == "low-rank")
        omegas = np.r_[w0, w0 + 1e-15, w0 + 1e-12, w0 + 1e-9, w0 + 1e-6,
                       np.linspace(0.0, 10.0, 21)]
        sig, ok = sigma_T_samples(sys, omegas)
        exact, ratio = svd_ok(pencil_stacks(sys.A, sys.E, omegas=omegas, tau=sys.tau))
        assert not (exact & ~ok).any()  # never flags a sample the SVD test passes
        np.testing.assert_array_equal(ok, dense_kernel(sys, omegas)[1])
        assert not ok[0]  # the root itself

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 40), r=st.integers(1, 3))
    def test_integrator_closed_by_delayed_feedback(self, seed, n, r):
        # A_0 v = 0: P(0) = -A_0 is singular, M(0) = -A_0 - sum A_i is not
        from ddaenorm.response import sigma_T_samples
        sys = low_rank_system(seed, n, r)
        v = np.random.default_rng(seed).standard_normal(n)
        v /= np.linalg.norm(v)
        sys = with_A0(sys, sys.A[0] - np.outer(sys.A[0] @ v, v))
        assume(sys.delay_channels.kernel == "low-rank")
        assert np.linalg.svd(sys.A[0], compute_uv=False)[-1] < 1e-14 * np.linalg.norm(sys.A[0])
        omegas = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0])
        sig, ok = sigma_T_samples(sys, omegas)
        want, ok_want = dense_kernel(sys, omegas)
        assert ok.all() and ok_want.all()
        assert_sigmas_close(sig, want, 1e-12)

    def test_exactly_singular_capacitance_takes_the_dense_kernel(self, monkeypatch):
        # numpy rejects a stack with an exactly singular matrix as a whole: the
        # sample whose capacitance determinant is 0 goes to the dense kernel
        from ddaenorm.response import _T_map
        sys = dense_stable_system(1, 40)
        omegas = np.linspace(0.0, 5.0, 7)
        want = np.concatenate([T for T, _, _ in _T_map(lambda *t: t, sys, omegas, sys.tau)])
        solve, det = np.linalg.solve, np.linalg.det
        rejected = []

        def rejecting(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[-1] == 2 and not rejected:
                rejected.append(len(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "solve", rejecting)
        monkeypatch.setattr(np.linalg, "det", lambda a: np.where(np.arange(len(a)) == 3, 0.0,
                                                                 det(a)))
        [(T, ok, rcond)] = _T_map(lambda *t: t, sys, omegas, sys.tau)
        assert rejected == [7] and ok.all() and rcond is None
        np.testing.assert_array_equal(np.delete(T, 3, 0), np.delete(want, 3, 0))
        np.testing.assert_array_equal(T[3], dense_kernel_transfer(sys, omegas[3:4])[0])

    @pytest.mark.parametrize("make, kernel, rank", [
        (make_sys_a, "closed-form", 1),
        (lambda: dense_stable_system(1, 40), "low-rank", 2),
        (lambda: random_system(np.random.default_rng(134), n=10), "dense", 10),
        (lambda: dense_stable_system(1, 10, nu=3), "dense", 3),  # 4 r > n
    ], ids=["SYS-A", "n40", "full-rank", "n10-r3"])
    def test_diagnostics_name_the_kernel(self, make, kernel, rank):
        sys = make()
        result = hinf_norm_T(sys)
        assert result.diagnostics["kernel"] == kernel
        assert result.diagnostics["delay_rank"] == rank

    def test_chunks_sized_by_the_low_rank_stacks(self, monkeypatch):
        # one low-rank chunk of 1,000 samples (2,383 fit: 220 entries per sample at
        # n = 40, r = 2), and with every sample handed to the dense kernel its
        # stacks keep the dense chunks of 304 samples (40 x 43 entries per sample)
        from ddaenorm import response
        sys = dense_stable_system(1, 40)
        omegas = np.linspace(0.0, 5.0, 1000)
        want = dense_kernel(sys, omegas)
        monkeypatch.setattr(response, "_GAIN_MAX", 0.0)
        chunks, stacks = [], []
        low_rank, solve = response._low_rank_transfer, np.linalg.solve

        def chunk(system, w, tau, **kwargs):
            chunks.append(len(w))
            return low_rank(system, w, tau, **kwargs)

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 3 and np.shape(a)[-1] == sys.n:
                stacks.append(len(a))
            return solve(a, *args, **kwargs)
        monkeypatch.setattr(response, "_low_rank_transfer", chunk)
        monkeypatch.setattr(np.linalg, "solve", counted)
        sig, ok = response.sigma_T_samples(sys, omegas)
        assert chunks == [1000]
        assert stacks == [304, 304, 304, 88]
        np.testing.assert_array_equal(sig, want[0])
        np.testing.assert_array_equal(ok, want[1])

    def test_memory_stays_within_the_chunk_bound(self):
        from ddaenorm import system_model
        from ddaenorm.response import sigma_T_samples
        sys = dense_stable_system(1, 100)
        omegas = np.linspace(0.0, 300.0, 100_000)
        tracemalloc.start()
        try:
            sig, ok = sigma_T_samples(sys, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.delay_channels.kernel == "low-rank" and ok.all()
        assert peak < 4 * system_model._STACK_BYTES


def cell_case(S, A, E, B, C, tau, c, r, step=None, samples=401):
    """The bound of :func:`_frequency_cell_bound` on the cell ``[c - r, c + r]`` and
    the sampler's ``(sigma_1, ok)`` on a dense grid of it (``w >= 0``): ``samples``
    points, or with a ``step`` every multiple of it in the cell, whose centre then
    moves to the nearest multiple."""
    from ddaenorm.response import _frequency_cell_bound, _sample
    if step is None:
        w = np.linspace(c - r, c + r, samples)
    else:
        k = round(c / step)
        c = k * step
        w = np.arange(k - int(r / step), k + int(r / step) + 1) * step
    w = w[w >= 0.0]
    bound = _frequency_cell_bound(S, A, E, B, C, tau)(np.array([c]), r, step)[0]
    sig, ok = _sample(S, B, C, omegas=w, tau=tau, step=step)
    return bound, sig[:, 0], ok


class TestFrequencyCellBound:
    """The closed-form cell bound of ``n <= 2`` pencils dominates every ``sigma_1``
    that the sampler computes in its cell, and a cell with a finite bound holds no
    sample that the sampler flags."""

    @settings(max_examples=120)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]), m=st.integers(0, 3),
           kind=st.sampled_from(["regular", "singular", "no-E"]), io=st.sampled_from([1, 2]),
           c=st.floats(0.0, 60.0), log_r=st.floats(-3.0, 0.5), gridded=st.booleans())
    def test_dominates_random_cells(self, seed, n, m, kind, io, c, log_r, gridded):
        # "no-E" is the pencil of T_a on the frequency axis (the map of the torus matrix)
        from ddaenorm.system_model import _pencil_basis
        rng = np.random.default_rng(seed)
        A = tuple(rng.standard_normal((n, n)) * rng.uniform(0.1, 2.0) for _ in range(m + 1))
        E = {"regular": rng.standard_normal((n, n)), "no-E": None,
             "singular": np.outer(rng.standard_normal(n), rng.standard_normal(n)) * (n > 1)}[kind]
        B, C = rng.standard_normal((n, io)), rng.standard_normal((io, n))
        tau, r = rng.uniform(0.1, 3.0, m), 10.0 ** log_r
        step = r / 20.0 if gridded else None
        bound, sigma1, ok = cell_case(_pencil_basis(A, E), A, E, B, C, tau, c, r, step)
        assume(np.isfinite(bound))
        assert ok.all()
        assert sigma1.max() <= bound

    @settings(max_examples=60)
    @given(n=st.sampled_from([1, 2]), e=st.floats(1.0, 2.0), t=st.floats(0.5, 1.0),
           d0=st.floats(0.005, 0.02), share=st.floats(0.4, 0.8), io=st.sampled_from([1, 2]))
    def test_dominates_tight_cells(self, n, e, t, d0, share, io):
        # x(w) = j w e - a0 + (e / t) e^{-j w t} has x'(0) = 0 and a constant
        # |x''| = e t, so |x(w)| = |x(0)| -+ e t w^2 / 2 to third order: the
        # remainder R_D (n = 1, D = x) or R_N (n = 2, N = -x over a constant D)
        # is the whole change over the cell [-r, r], where it is share |x(0)| and
        # r t <= 0.18: the bound is within 5% of the samples, and halving either
        # remainder would put it below them
        from ddaenorm.system_model import _pencil_basis
        r = np.sqrt(2.0 * share * d0 / (e * t))
        if n == 1:  # D(0) = d0 > 0, D'' = -e t at w = 0: |D| falls
            A, E = (np.array([[e / t - d0]]), np.array([[-e / t]])), np.array([[e]])
            B, C = np.ones((1, io)), np.ones((io, 1))
        else:  # M = [[1, x], [0, 1]], x(0) = -d0 < 0, x'' = -e t at w = 0: |N| rises
            A = (np.array([[-1.0, e / t + d0], [0.0, -1.0]]),
                 np.array([[0.0, -e / t], [0.0, 0.0]]))
            E = np.array([[0.0, e], [0.0, 0.0]])
            B = np.zeros((2, io))
            B[1, 0] = 1.0
            C = np.zeros((io, 2))
            C[0, 0] = 1.0
        bound, sigma1, ok = cell_case(_pencil_basis(A, E), A, E, B, C, np.array([t]), 0.0, r)
        assert ok.all()
        assert sigma1.max() <= bound <= 1.05 * sigma1.max()

    def test_singular_cells_are_not_bounded(self, sys_a):
        # a cell that holds a characteristic root, or a sample the sampler
        # flags, gets no finite bound
        sys = with_root(sys_a, 3.0)
        bound, _, ok = cell_case(sys.pencil_basis, sys.A, sys.E, sys.B, sys.C, sys.tau, 3.0, 0.01)
        assert bound == np.inf and not ok.all()

    def test_only_small_pencils(self):
        from ddaenorm.response import _frequency_cell_bound
        for n in (0, 3):
            A = (np.zeros((n, n)), np.zeros((n, n)))
            assert _frequency_cell_bound(None, A, None, np.zeros((n, 1)), np.zeros((1, n)),
                                         np.ones(1)) is None
