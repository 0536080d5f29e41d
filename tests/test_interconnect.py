import numpy as np
import pytest

from ddaenorm import (
    DdaeSystem,
    DimensionError,
    PlantBlock,
    StaticDelayController,
    absorb_io_delay,
    check_assumption1,
    close_feedback,
    decompose,
    eliminate_feedthrough,
    eval_T,
    from_neutral,
)
from conftest import transfer_matrix

SAMPLE_FREQS = np.linspace(0.07, 23.0, 20)


def scalar_plant():
    return PlantBlock(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0]],
                      D1=[[0.0]], F=[[1.0]])


class TestCloseFeedback:
    def test_scalar_closed_loop_transfer(self):
        # u = 0.5 y(t-1) around x' = -x + u + w, y = x, z = x eliminates by
        # hand to 1 / (lam + 1 - 0.5 e^{-lam}).
        sys = close_feedback(scalar_plant(), StaticDelayController(K=[[0.5]], tau=1.0))
        assert sys.n == 3 and sys.m == 1
        for w in SAMPLE_FREQS:
            lam = 1j * w
            want = 1.0 / (lam + 1.0 - 0.5 * np.exp(-lam))
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_displayed_structure(self):
        rng = np.random.default_rng(0)
        n, n_u, n_y = 3, 2, 2
        plant = PlantBlock(
            A=rng.standard_normal((n, n)), B1=rng.standard_normal((n, n_u)),
            B2=rng.standard_normal((n, 1)), C=rng.standard_normal((n_y, n)),
            D1=rng.standard_normal((n_y, n_u)), F=rng.standard_normal((1, n)),
        )
        K = rng.standard_normal((n_u, n_y))
        sys = close_feedback(plant, StaticDelayController(K=K, tau=0.7))
        N = n + n_u + n_y
        E = np.zeros((N, N))
        E[:n, :n] = np.eye(n)
        np.testing.assert_array_equal(sys.E, E)
        np.testing.assert_array_equal(sys.A[0][:n, :n], plant.A)
        np.testing.assert_array_equal(sys.A[0][:n, n:n + n_u], plant.B1)
        np.testing.assert_array_equal(sys.A[0][n:n + n_y, n + n_u:], -np.eye(n_y))
        np.testing.assert_array_equal(sys.A[0][n + n_y:, n:n + n_u], np.eye(n_u))
        np.testing.assert_array_equal(sys.A[1][n + n_y:, n + n_u:], -K)
        np.testing.assert_array_equal(sys.B[:n], plant.B2)
        np.testing.assert_array_equal(sys.C[:, :n], plant.F)

    def test_open_loop_when_gain_zero(self):
        sys = close_feedback(scalar_plant(), StaticDelayController(K=[[0.0]], tau=1.0))
        # zero gain drops the delayed block entirely
        assert sys.m == 0
        for w in SAMPLE_FREQS:
            want = 1.0 / (1j * w + 1.0)
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_zero_delay_folds_into_undelayed_part(self):
        # With tau = 0 and D1 = 0 the loop eliminates to
        # x' = (A + B1 K C) x + B2 w.
        sys = close_feedback(scalar_plant(), StaticDelayController(K=[[0.5]], tau=0.0))
        assert sys.m == 0
        for w in SAMPLE_FREQS:
            want = 1.0 / (1j * w + 1.0 - 0.5)
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0])
    def test_rejects_nonfinite_or_negative_delay(self, tau):
        with pytest.raises(ValueError, match="^tau must be finite and nonnegative"):
            StaticDelayController(K=[[0.5]], tau=tau)

    def test_affine_in_gain(self):
        rng = np.random.default_rng(1)
        plant = PlantBlock(
            A=rng.standard_normal((2, 2)), B1=rng.standard_normal((2, 2)),
            B2=rng.standard_normal((2, 1)), C=rng.standard_normal((2, 2)),
            D1=np.zeros((2, 2)), F=rng.standard_normal((1, 2)),
        )
        K1 = rng.standard_normal((2, 2))
        K2 = rng.standard_normal((2, 2))
        def mats(K):
            return close_feedback(plant, StaticDelayController(K=K, tau=1.0)).A
        A_k1, A_k2 = mats(K1), mats(K2)
        A_zero = close_feedback(plant, StaticDelayController(K=np.zeros((2, 2)), tau=1.0)).A
        A_sum = mats(K1 + K2)
        # zero gain drops the delay term; compare the undelayed parts exactly
        np.testing.assert_array_equal(A_k1[0], A_zero[0])
        np.testing.assert_array_equal(A_k1[1] + A_k2[1], A_sum[1])

    def test_gain_shape_mismatch(self):
        with pytest.raises(DimensionError):
            close_feedback(scalar_plant(), StaticDelayController(K=np.ones((2, 2)), tau=1.0))

    def test_assumption1_holds_on_example_class(self):
        sys = close_feedback(scalar_plant(), StaticDelayController(K=[[0.5]], tau=1.0))
        ok, _ = check_assumption1(decompose(sys))
        assert ok


def test_all_builders_preserve_assumption1():
    # Slack rows always carry a -I block, so the undelayed algebraic part of
    # every builder output stays nonsingular for well-posed inputs.
    closed = close_feedback(scalar_plant(), StaticDelayController(K=[[0.5]], tau=1.0))
    base = DdaeSystem(E=np.eye(1), A=([[-1.0]], [[0.3]]), B=[[1.0]], C=[[1.0]], tau=[1.0])
    outputs = [
        closed,
        eliminate_feedthrough(base, [[2.0]]),
        absorb_io_delay(base, "input", [[1.0]], 0.7),
        absorb_io_delay(base, "output", [[1.0]], 0.7),
        from_neutral([[0.2]], 1.0, [[-1.5]], [[0.3]], 2.0, [[1.0]], [[1.0]]),
        eliminate_feedthrough(closed, [[1.0]]),
    ]
    for sys in outputs:
        ok, margin = check_assumption1(decompose(sys))
        assert ok and margin > 0.1


class TestEliminateFeedthrough:
    def base_system(self):
        return DdaeSystem(E=np.eye(1), A=([[-1.0]], [[0.3]]), B=[[1.0]],
                          C=[[1.0]], tau=[1.0])

    def test_zero_feedthrough_preserves_transfer(self):
        sys = self.base_system()
        out = eliminate_feedthrough(sys, np.zeros((1, 1)))
        for w in SAMPLE_FREQS:
            a = eval_T(sys, w)[0, 0]
            b = eval_T(out, w)[0, 0]
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_shifts_transfer_by_feedthrough(self):
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        out = eliminate_feedthrough(sys, [[3.0]])
        assert eval_T(out, 0.0)[0, 0] == pytest.approx(4.0, abs=1e-13)
        for w in SAMPLE_FREQS:
            want = eval_T(sys, w)[0, 0] + 3.0
            got = eval_T(out, w)[0, 0]
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_displayed_structure(self):
        rng = np.random.default_rng(2)
        n, p, q = 3, 2, 2
        A = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        B = rng.standard_normal((n, p))
        F = rng.standard_normal((q, n))
        D2 = rng.standard_normal((q, p))
        sys = DdaeSystem(E=np.eye(n), A=(A, A1), B=B, C=F, tau=[0.9])
        out = eliminate_feedthrough(sys, D2)
        assert out.n == n + p
        np.testing.assert_array_equal(out.E[:n, :n], np.eye(n))
        np.testing.assert_array_equal(out.E[n:, :], 0.0)
        np.testing.assert_array_equal(out.A[0][:n, :n], A)
        np.testing.assert_array_equal(out.A[0][n:, n:], -np.eye(p))
        np.testing.assert_array_equal(out.A[1][:n, :n], A1)
        np.testing.assert_array_equal(out.A[1][n:, :], 0.0)
        np.testing.assert_array_equal(out.B[n:], np.eye(p))
        np.testing.assert_array_equal(out.C, np.hstack([F, D2]))

    def test_slack_outputs_touch_no_input_directly(self):
        # builders never produce direct feedthrough: w enters only through B
        sys = self.base_system()
        out = eliminate_feedthrough(sys, [[2.0]])
        assert out.p_in == sys.p_in and out.p_out == sys.p_out


class TestAbsorbIoDelay:
    def test_zero_delayed_path_preserves_transfer(self):
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        out = absorb_io_delay(sys, "input", np.zeros((1, 1)), 1.0)
        for w in SAMPLE_FREQS:
            a = eval_T(sys, w)[0, 0]
            b = eval_T(out, w)[0, 0]
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_scalar_pure_input_delay(self):
        # x' = -x + w(t - 1), z = x  ->  T = e^{-lam} / (lam + 1)
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[0.0]], C=[[1.0]], tau=[])
        out = absorb_io_delay(sys, "input", [[1.0]], 1.0)
        assert eval_T(out, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-13)
        for w in SAMPLE_FREQS:
            lam = 1j * w
            want = np.exp(-lam) / (lam + 1.0)
            got = eval_T(out, w)[0, 0]
            assert abs(got - want) <= 1e-12

    def test_displayed_structure(self):
        rng = np.random.default_rng(3)
        n, p = 2, 2
        A = rng.standard_normal((n, n))
        B1 = rng.standard_normal((n, p))
        B2 = rng.standard_normal((n, p))
        C = rng.standard_normal((1, n))
        sys = DdaeSystem(E=np.eye(n), A=(A,), B=B1, C=C, tau=[])
        out = absorb_io_delay(sys, "input", B2, 0.8)
        np.testing.assert_array_equal(out.A[0][:n, :n], A)
        np.testing.assert_array_equal(out.A[0][:n, n:], B1)
        np.testing.assert_array_equal(out.A[0][n:, n:], -np.eye(p))
        np.testing.assert_array_equal(out.A[1][:n, n:], B2)
        np.testing.assert_array_equal(out.B[:n], 0.0)
        np.testing.assert_array_equal(out.B[n:], np.eye(p))
        np.testing.assert_array_equal(out.C, np.hstack([C, np.zeros((1, p))]))

    def test_displayed_structure_output(self):
        rng = np.random.default_rng(5)
        n, p, q = 2, 3, 2
        A = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        B = rng.standard_normal((n, p))
        C = rng.standard_normal((q, n))
        F = rng.standard_normal((q, n))
        sys = DdaeSystem(E=np.eye(n), A=(A, A1), B=B, C=C, tau=[0.5])
        out = absorb_io_delay(sys, "output", F, 0.8)
        N = n + q
        E = np.zeros((N, N))
        E[:n, :n] = np.eye(n)
        A0 = np.zeros((N, N))
        A0[:n, :n] = A
        A0[n:, n:] = -np.eye(q)
        Ad1 = np.zeros((N, N))
        Ad1[:n, :n] = A1
        Ad2 = np.zeros((N, N))
        Ad2[n:, :n] = F
        np.testing.assert_array_equal(out.tau, [0.5, 0.8])
        np.testing.assert_array_equal(out.E, E)
        for got, want in zip(out.A, (A0, Ad1, Ad2), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out.B, np.vstack([B, np.zeros((q, p))]))
        np.testing.assert_array_equal(out.C, np.hstack([C, np.eye(q)]))

    def test_output_delay(self):
        # z = x(t) + 2 x(t - 1.5) for x' = -x + w
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        out = absorb_io_delay(sys, "output", [[2.0]], 1.5)
        for w in SAMPLE_FREQS:
            lam = 1j * w
            want = (1.0 + 2.0 * np.exp(-1.5 * lam)) / (lam + 1.0)
            got = eval_T(out, w)[0, 0]
            assert abs(got - want) <= 1e-12

    def test_rejects_zero_delay(self):
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        with pytest.raises(ValueError):
            absorb_io_delay(sys, "input", [[1.0]], 0.0)


    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0])
    def test_rejects_nonfinite_delay_by_name(self, tau):
        sys = DdaeSystem(E=np.eye(1), A=([[-1.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        with pytest.raises(ValueError, match="^tau_new must be finite and strictly positive"):
            absorb_io_delay(sys, "input", [[1.0]], tau)


class TestFromNeutral:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("name", ["tau1", "tau2"])
    def test_rejects_nonfinite_delay_by_name(self, name, tau):
        delays = {"tau1": 1.0, "tau2": 2.0, name: tau}
        with pytest.raises(ValueError, match=f"^{name} must be finite and strictly positive"):
            from_neutral([[0.5]], delays["tau1"], [[-2.0]], [[0.5]], delays["tau2"],
                         [[1.0]], [[1.0]])

    def test_zero_neutral_term_gives_retarded_system(self):
        A0, A1 = [[-2.0]], [[0.5]]
        sys = from_neutral([[0.0]], 1.0, A0, A1, 2.0, [[1.0]], [[1.0]])
        assert sys.m == 1  # the zero neutral block is dropped
        for w in SAMPLE_FREQS:
            lam = 1j * w
            want = 1.0 / (lam + 2.0 - 0.5 * np.exp(-2.0 * lam))
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-12

    def test_displayed_structure(self):
        rng = np.random.default_rng(4)
        n = 2
        D = rng.standard_normal((n, n))
        A0 = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((1, n))
        sys = from_neutral(D, 1.0, A0, A1, 2.0, B, C)
        assert sys.n == 2 * n and sys.m == 2
        np.testing.assert_array_equal(sys.E[:n, n:], np.eye(n))
        np.testing.assert_array_equal(sys.E[n:, :], 0.0)
        np.testing.assert_array_equal(sys.A[0][:n, :n], A0)
        np.testing.assert_array_equal(sys.A[0][n:, :n], np.eye(n))
        np.testing.assert_array_equal(sys.A[0][n:, n:], -np.eye(n))
        np.testing.assert_array_equal(sys.A[1][n:, :n], D)
        np.testing.assert_array_equal(sys.A[2][:n, :n], A1)
        np.testing.assert_array_equal(sys.B[:n], B)
        np.testing.assert_array_equal(sys.C[:, :n], C)

    def test_transfer_matches_neutral_formula(self):
        rng = np.random.default_rng(5)
        n = 2
        D = 0.3 * rng.standard_normal((n, n))
        A0 = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        A1 = 0.4 * rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((1, n))
        sys = from_neutral(D, 0.7, A0, A1, 1.9, B, C)
        for w in SAMPLE_FREQS:
            lam = 1j * w
            M = lam * (np.eye(n) + D * np.exp(-0.7 * lam)) - A0 - A1 * np.exp(-1.9 * lam)
            want = (C @ np.linalg.solve(M, B))[0, 0]
            got = eval_T(sys, w)[0, 0]
            assert abs(got - want) <= 1e-11 * max(abs(want), 1.0)

    def test_coinciding_delays_merge(self):
        sys = from_neutral([[0.25]], 1.0, [[-1.0]], [[0.5]], 1.0, [[1.0]], [[1.0]])
        assert sys.m == 1
        assert sys.tau[0] == pytest.approx(1.0)

    def test_transfer_preserved_via_direct_evaluation(self):
        # Builders route through transfer_matrix (independent formula) too.
        sys = from_neutral([[0.2]], 1.0, [[-1.5]], [[0.3]], 2.0, [[1.0]], [[1.0]])
        for w in SAMPLE_FREQS[:5]:
            got = eval_T(sys, w)[0, 0]
            want = transfer_matrix(sys, w)[0, 0]
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
