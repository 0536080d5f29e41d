import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddaenorm
from ddaenorm import (
    AssumptionError,
    DdaeSystem,
    DimensionError,
    check_assumption1,
    check_difference_stability,
    decompose,
    eval_T,
    hinf_norm_T,
    imaginary_axis_margin,
    nullspace_bases,
    strong_hinf_norm_T,
    system_model,
    validate_system,
)
from ddaenorm.response import sigma_T_samples
from ddaenorm.system_model import _pencil_basis, _pencil_map, _torus_grid
from conftest import (dense_stable_system, make_sys_a, make_sys_b, random_stable_system,
                      three_delay_system)


class TestDelays:
    """Delay overrides are checked as ``DdaeSystem.tau`` is."""

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_delay_rejected(self, sys_a, bad):
        tau = [bad, 2.0]
        calls = [
            lambda: make_sys_a(tau),
            lambda: eval_T(sys_a, 1.0, tau),
            lambda: sigma_T_samples(sys_a, [1.0], tau),
            lambda: hinf_norm_T(sys_a, tau=tau),
            lambda: strong_hinf_norm_T(sys_a, tau=tau),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^tau must hold finite, strictly positive"):
                call()

    @pytest.mark.parametrize("bad", [np.complex128(1.0 + 0.5j), math.nan], ids=["complex", "nan"])
    @pytest.mark.parametrize("name, call", [
        ("tau", lambda sys, t: hinf_norm_T(sys, tau=[t, 2.0])),
        ("tau", lambda sys, t: eval_T(sys, 1.0, tau=[t, 2.0])),
        ("tau", lambda sys, t: ddaenorm.PerturbationStudy(tau=[t, 2.0], epsilon=0.1)),
        ("tau", lambda sys, t: ddaenorm.StaticDelayController(K=[[1.0]], tau=t)),
        ("tau", lambda sys, t: ddaenorm.commensurate_approximation([t, 2.0], 10)),
        ("tau_new", lambda sys, t: ddaenorm.absorb_io_delay(sys, "input", [[1.0]], t)),
        ("tau1", lambda sys, t: ddaenorm.from_neutral([[0.5]], t, [[-1.0]], [[0.1]], 2.0,
                                                      [[1.0]], [[1.0]])),
        ("step", lambda sys, t: sigma_T_samples(sys, [0.0, 1.0], step=t)),
    ], ids=["hinf_norm_T", "eval_T", "PerturbationStudy", "StaticDelayController",
            "commensurate_approximation", "absorb_io_delay", "from_neutral", "step"])
    def test_every_delay_input_refuses_complex_and_nonfinite(self, sys_a, name, call, bad):
        # one check for every delay: the imaginary part is refused, never dropped
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(sys_a, bad)

    def test_no_delays_pass(self):
        sys = DdaeSystem(E=np.eye(1), A=(-np.eye(1),), B=[1.0], C=[1.0], tau=[])
        assert eval_T(sys, 0.0, tau=[])[0, 0] == 1.0


class TestCoefficients:
    """``DdaeSystem`` refuses a non-finite coefficient by the matrix's name."""

    @pytest.mark.parametrize("name", ["E", "A[0]", "A[1]", "B", "C"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_coefficient_rejected_by_name(self, sys_a, name, bad):
        parts = {"E": sys_a.E.copy(), "A": [Ai.copy() for Ai in sys_a.A],
                 "B": sys_a.B.copy(), "C": sys_a.C.copy()}
        M = parts["A"][int(name[2])] if name.startswith("A") else parts[name]
        M[0, 0] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must hold finite entries"):
            DdaeSystem(E=parts["E"], A=tuple(parts["A"]), B=parts["B"], C=parts["C"],
                       tau=sys_a.tau)


class TestNullspaceBases:
    def test_zero_matrix_full_nullspace(self):
        U, V, Uperp, Vperp = nullspace_bases(np.zeros((2, 2)), 1e-10)
        assert U.shape == (2, 2) and V.shape == (2, 2)
        assert Uperp.shape == (2, 0) and Vperp.shape == (2, 0)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-14)

    def test_identity_trivial_nullspace(self):
        U, V, Uperp, Vperp = nullspace_bases(np.eye(2), 1e-10)
        assert U.shape == (2, 0) and V.shape == (2, 0)
        np.testing.assert_allclose(Uperp @ Uperp.T, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(Vperp @ Vperp.T, np.eye(2), atol=1e-14)

    def test_rank_one_diagonal(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0]])
        U, V, Uperp, Vperp = nullspace_bases(E, 1e-10)
        np.testing.assert_allclose(np.abs(U.ravel()), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(Vperp.ravel()), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(U.T @ E, 0.0, atol=1e-14)
        np.testing.assert_allclose(E @ V, 0.0, atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            nullspace_bases(np.zeros((2, 3)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_rank_tol_rejected(self, sys_a, tol):
        # a NaN threshold would count no singular value, so rank(E) = 0
        message = f"rank_tol must be finite and positive, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nullspace_bases(sys_a.E, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_known_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        r = int(rng.integers(0, n + 1))
        L = rng.standard_normal((n, r))
        R = rng.standard_normal((r, n))
        E = L @ R
        U, V, Uperp, Vperp = nullspace_bases(E)
        assert U.shape[1] == n - r
        norm_E = max(np.linalg.norm(E, 2), 1.0)
        assert np.abs(U.T @ E).max(initial=0.0) <= 1e-10 * norm_E
        assert np.abs(E @ V).max(initial=0.0) <= 1e-10 * norm_E
        stacked_u = np.hstack([Uperp, U])
        stacked_v = np.hstack([Vperp, V])
        np.testing.assert_allclose(stacked_u.T @ stacked_u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(stacked_v.T @ stacked_v, np.eye(n), atol=1e-12)


class TestDecompose:
    def test_sys_a_blocks(self, sys_a):
        dec = decompose(sys_a)
        assert dec.nu == 1 and dec.nd == 1
        np.testing.assert_allclose(dec.A22[0], [[-1.0]], atol=1e-14)
        np.testing.assert_allclose(np.abs(dec.B2), [[1.0]], atol=1e-14)
        np.testing.assert_allclose(np.abs(dec.C2), [[1.0]], atol=1e-14)

    def test_identity_E_degenerates_to_ode(self):
        sys = DdaeSystem(E=np.eye(3), A=(np.eye(3) * -1.0,), B=np.ones((3, 1)),
                         C=np.ones((1, 3)), tau=[])
        dec = decompose(sys)
        assert dec.nu == 0
        assert dec.A22[0].shape == (0, 0)
        assert dec.A12[0].shape == (3, 0)

    def test_pure_algebraic(self):
        sys = DdaeSystem(E=np.zeros((2, 2)), A=(np.eye(2),), B=np.eye(2),
                         C=np.eye(2), tau=[])
        dec = decompose(sys)
        assert dec.nu == 2
        # A22[0] equals the identity up to orthogonal similarity.
        s = np.linalg.svd(dec.A22[0], compute_uv=False)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-14)
        ok, margin = check_assumption1(dec)
        assert ok and margin == pytest.approx(1.0)

    def test_congruence_block_structure(self):
        rng = np.random.default_rng(7)
        n, r = 5, 3
        E = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        sys = DdaeSystem(E=E, A=(rng.standard_normal((n, n)),),
                         B=rng.standard_normal((n, 1)),
                         C=rng.standard_normal((1, n)), tau=[])
        dec = decompose(sys)
        stacked_u = np.hstack([dec.Uperp, dec.U])
        stacked_v = np.hstack([dec.Vperp, dec.V])
        G = stacked_u.T @ E @ stacked_v
        np.testing.assert_allclose(G[:r, :r], dec.E11, atol=1e-12)
        np.testing.assert_allclose(G[r:, :], 0.0, atol=1e-10)
        np.testing.assert_allclose(G[:, r:], 0.0, atol=1e-10)


class TestAssumption1:
    def test_sys_a_margin_one(self, sys_a):
        ok, margin = check_assumption1(decompose(sys_a))
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-14)

    def test_zero_algebraic_block_fails(self):
        sys = DdaeSystem(E=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                         B=np.eye(2), C=np.eye(2), tau=[])
        ok, margin = check_assumption1(decompose(sys))
        assert not ok and margin == 0.0

    def test_vacuous_for_ode(self):
        sys = DdaeSystem(E=np.eye(2), A=(-np.eye(2),), B=np.eye(2), C=np.eye(2), tau=[])
        ok, margin = check_assumption1(decompose(sys))
        assert ok and np.isinf(margin)

    def test_margin_invariant_under_basis_rotation(self):
        # sigma_min of A22[0] must not depend on which orthonormal nullspace
        # basis the SVD happened to return; rotate E and compare.
        rng = np.random.default_rng(3)
        n, r = 4, 2
        E = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        A0 = rng.standard_normal((n, n))
        sys = DdaeSystem(E=E, A=(A0,), B=np.eye(n), C=np.eye(n), tau=[])
        _, margin = check_assumption1(decompose(sys))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sys_rot = DdaeSystem(E=Q @ E, A=(Q @ A0,), B=np.eye(n), C=np.eye(n), tau=[])
        _, margin_rot = check_assumption1(decompose(sys_rot))
        assert margin_rot == pytest.approx(margin, rel=1e-10)


class TestDifferenceStability:
    def test_sys_a_gamma(self, sys_a):
        gamma = check_difference_stability(decompose(sys_a))
        assert gamma == pytest.approx(0.75, abs=1e-12)

    def test_sys_b_gamma(self, sys_b):
        gamma = check_difference_stability(decompose(sys_b))
        assert gamma == pytest.approx(1.0 / 16.0 + 0.5, abs=1e-12)

    def test_no_delayed_terms(self):
        sys = DdaeSystem(E=np.zeros((2, 2)), A=(np.eye(2),), B=np.eye(2),
                         C=np.eye(2), tau=[])
        assert check_difference_stability(decompose(sys)) == 0.0

    @pytest.mark.parametrize("grid_per_dim", [None, 16])
    def test_no_delays_checks_assumption1(self, grid_per_dim):
        # m = 0: 0 once Assumption 1 holds, refused where it fails, as gamma_a is;
        # validate_system checks Assumption 1 first, so its reports do not change
        ill, well = (DdaeSystem(E=[[0.0]], A=([[a0]],), B=[[1.0]], C=[[1.0]], tau=[])
                     for a0 in (0.0, 2.0))
        with pytest.raises(AssumptionError, match=re.escape("A22[0] is singular")):
            check_difference_stability(decompose(ill), grid_per_dim=grid_per_dim)
        with pytest.raises(AssumptionError):
            decompose(ill).gamma_a
        assert check_difference_stability(decompose(well), grid_per_dim=grid_per_dim) == 0.0
        report = validate_system(ill, grid_per_dim=grid_per_dim)
        assert not report.assumption1_ok and math.isnan(report.difference_stability_margin)
        report = validate_system(well, grid_per_dim=grid_per_dim)
        assert report.ok and report.difference_stability_margin == 0.0

    def test_requires_assumption1(self):
        sys = DdaeSystem(E=np.zeros((1, 1)), A=([[0.0]], [[0.5]]), B=[[1.0]],
                         C=[[1.0]], tau=[1.0])
        with pytest.raises(AssumptionError):
            check_difference_stability(decompose(sys))

    @pytest.mark.parametrize("make", [
        make_sys_a,
        lambda: DdaeSystem(E=[[1.0]], A=([[-1.0]], [[0.5]]), B=[[1.0]], C=[[1.0]], tau=[1.0]),
        lambda: DdaeSystem(E=np.zeros((2, 2)), A=(np.eye(2),), B=np.eye(2), C=np.eye(2), tau=[]),
    ], ids=["SYS-A", "nu0", "m0"])
    @pytest.mark.parametrize("g, message", [
        *[(g, f"grid_per_dim must be an integer, got {g!r}") for g in (130.5, 16.0, "16", 2.5)],
        *[(g, "grid_per_dim must be >= 1") for g in (0, -3)],
    ], ids=["130.5", "16.0", "'16'", "2.5", "0", "-3"])
    def test_non_integral_grid_rejected(self, make, g, message):
        # refused for every system, also where the value would not need the grid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_difference_stability(decompose(make()), grid_per_dim=g)

    def test_monotone_under_grid_doubling(self, sys_a):
        dec = decompose(sys_a)
        values = [check_difference_stability(dec, grid_per_dim=g)
                  for g in (16, 32, 64, 128)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.75, abs=1e-10)


def _difference_system(F):
    """An E = 0 system with ``A22[0] = -I``, whose gamma_a grid is that of ``F``."""
    n = F[0].shape[0]
    return DdaeSystem(E=np.zeros((n, n)), A=(-np.eye(n), *F), B=np.ones((n, 1)),
                      C=np.ones((1, n)), tau=np.arange(1.0, len(F) + 1.0))


def _grid_radius(dec, thetas):
    """The largest ``eigvals`` radius of ``A22[0]^{-1} sum_i A22[i] e^{-j theta_i}``
    over every sample of ``thetas``."""
    A0 = dec.A22[0]
    A = (np.zeros_like(A0),) + tuple(np.linalg.solve(-A0, Ai) for Ai in dec.A22[1:])
    return float(max(_pencil_map(lambda M: np.abs(np.linalg.eigvals(M)).max(),
                                 _pencil_basis(A), thetas=thetas)))


def _whole_grid_radius(dec, g):
    """gamma_a with ``eigvals`` on every sample of the whole grid."""
    return _grid_radius(dec, _torus_grid(dec.m, g))


def _slice_radius(dec, g):
    """gamma_a with ``eigvals`` on every sample of the grid's slice ``theta_1 = 0``."""
    rest = _torus_grid(dec.m - 1, g)
    return _grid_radius(dec, np.column_stack([np.zeros(len(rest)), rest]))


@st.composite
def _adversarial_parts(draw):
    """Delay terms whose radii are ill-conditioned, tied, or far below ``||F||_F``."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["jordan", "nilpotent", "normal", "wide", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = np.eye(n, k=1)
    if kind == "jordan":
        F = [rng.uniform(0.3, 0.99) * np.eye(n) + shift, 1e-3 * rng.standard_normal((n, n))]
    elif kind == "nilpotent":  # radius (1e-8)^(1/n) at every sample
        F = [shift, 1e-8 * np.eye(n, k=1 - n)]
    elif kind == "normal":  # equal radii, and F_2 commutes with F_1
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        F1 = Q @ np.diag(rng.choice([-1.0, 1.0], n)) @ Q.T * rng.uniform(0.1, 0.6)
        F = [F1, rng.uniform(0.0, 1.0) * F1]
    elif kind == "wide":  # ||F||_F >> rho
        F = [np.diag(rng.uniform(-0.5, 0.5, n)) + 1e3 * np.triu(rng.standard_normal((n, n)), 1),
             1e-3 * rng.standard_normal((n, n))]
    else:
        F = list(rng.standard_normal((2, n, n)) * rng.uniform(0.05, 0.5))
    g = draw(st.sampled_from([16, 64, 400] if m == 1 else [16, 33, 64]))
    return F[:m], g


class TestPrunedDifferenceRadius:
    """gamma_a against ``eigvals`` on every sample of the slice ``theta_1 = 0``,
    bit for bit, and on the whole grid up to rounding."""

    @settings(max_examples=60)
    @given(_adversarial_parts())
    def test_matches_whole_grid(self, parts):
        F, g = parts
        dec = decompose(_difference_system(F))
        value = check_difference_stability(dec, grid_per_dim=g)
        assert value == _slice_radius(dec, g)
        # Near-Jordan radii are ill-conditioned: eigvals gives e^{-j phi} F radii up
        # to 3e-14 apart at n = 7, and slice and whole grid differ by as much.
        assert value == pytest.approx(_whole_grid_radius(dec, g), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("f", [0.75, 1.0 / 3.0, -0.999])
    def test_tied_scalar_grid(self, f):
        # F(theta) = f e^{-j theta}: all 201 samples have the radius |f|, up to rounding
        dec = decompose(_difference_system([np.array([[f]])]))
        value = check_difference_stability(dec, grid_per_dim=400)
        assert value == _slice_radius(dec, 400)
        assert value == pytest.approx(_whole_grid_radius(dec, 400), rel=1e-14)

    @pytest.mark.parametrize("make, samples", [
        (make_sys_a, [33]),           # whole grid 2,050
        (three_delay_system, [290]),  # whole grid 6,916
        (lambda: dense_stable_system(3, 6, m=5, tau=np.arange(1.0, 6.0)), [2056]),  # 16,400
    ], ids=["SYS-A", "m3", "dense-m5"])
    def test_eigvals_samples(self, monkeypatch, make, samples):
        # Counts, not clocks: one eigvals call covers the slice and no more.
        dec = decompose(make())
        seen = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: seen.append(len(M)) or real(M))
        dec.gamma_a
        assert seen == samples

    @pytest.mark.parametrize("make, g", [(make_sys_a, 64), (three_delay_system, 24)],
                             ids=["SYS-A", "m3"])
    def test_one_sample_eigvals_batches(self, make, g):
        dec = decompose(make())
        value = check_difference_stability(dec)
        assert value == _slice_radius(dec, g)
        assert value == pytest.approx(_whole_grid_radius(dec, g), rel=1e-14)

    @pytest.mark.parametrize("g", [1, 64, 4096])
    def test_one_delay_is_one_eigvals_sample(self, monkeypatch, g):
        F1 = np.random.default_rng(7).standard_normal((4, 4))
        dec = decompose(_difference_system([F1]))
        seen = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: seen.append(M.shape) or real(M))
        value = check_difference_stability(dec, grid_per_dim=g)
        assert seen == [(1, 4, 4)]
        assert value == pytest.approx(np.abs(real(F1)).max(), rel=1e-15)


@st.composite
def _rotated_parts(draw):
    """Delay terms ``F_i`` (m = 1..3), a torus point and a diagonal shift ``phi``."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal((m, n, n)) * rng.uniform(0.1, 2.0),
            rng.uniform(0.0, 2.0 * np.pi, m), rng.uniform(0.0, 2.0 * np.pi))


# The random_stable_system seeds of 1..11 that have an algebraic part.
_ALGEBRAIC_SEEDS = (1, 4, 5, 6, 7, 9, 10)


def _radius(F, theta):
    return np.abs(np.linalg.eigvals(np.tensordot(np.exp(-1j * theta), F, axes=1))).max()


class TestDiagonalRotation:
    """``F(theta + phi (1, .., 1)) = e^{-j phi} F(theta)``: the radius is constant
    along the diagonal, so the slice ``theta_1 = 0`` holds every grid value."""

    @settings(max_examples=100)
    @given(_rotated_parts())
    def test_radius_is_constant_along_the_diagonal(self, parts):
        F, theta, phi = parts
        assert _radius(F, theta + phi) == pytest.approx(_radius(F, theta), rel=1e-12)

    @pytest.mark.parametrize("make", [
        make_sys_a, make_sys_b, three_delay_system,
        *[functools.partial(random_stable_system, seed) for seed in _ALGEBRAIC_SEEDS],
        *[functools.partial(dense_stable_system, 3, 6, m=m, tau=np.arange(1.0, m + 1.0))
          for m in (3, 4, 5)],
    ], ids=["SYS-A", "SYS-B", "m3", *[f"random-{s}" for s in _ALGEBRAIC_SEEDS],
            *[f"dense-m{m}" for m in (3, 4, 5)]])
    def test_slice_matches_whole_grid(self, make):
        dec = decompose(make())
        whole = _whole_grid_radius(dec, system_model._default_diff_grid(dec.m))
        assert dec.gamma_a == pytest.approx(whole, rel=1e-14)


class TestValidateSystem:
    def test_sys_a_report(self, sys_a):
        report = validate_system(sys_a)
        assert report.ok
        assert report.rank_E == 1 and report.nu == 1
        assert report.difference_stability_margin == pytest.approx(0.75, abs=1e-12)

    def test_ill_posed_report(self):
        sys = DdaeSystem(E=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                         B=np.eye(2), C=np.eye(2), tau=[])
        report = validate_system(sys)
        assert not report.ok
        assert not report.assumption1_ok
        assert report.messages

    def test_axis_scan(self, sys_a):
        report = validate_system(sys_a, axis_scan_omega_max=20.0)
        assert report.axis_margin is not None and report.axis_margin > 1e-3

    def test_grid_over_the_torus_limit_refused(self, sys_a):
        # 4097**2 > 2**24, and the grid is refused before any row is built
        with pytest.raises(DimensionError, match=re.escape("4097**2 points")):
            validate_system(sys_a, grid_per_dim=4097)

    @pytest.mark.parametrize("E", [[[0.0]], [[1.0]]], ids=["ill-posed", "ode"])
    @pytest.mark.parametrize("options, name", [
        ({"axis_scan_omega_max": math.nan}, "omega_max"),
        ({"axis_scan_omega_max": -5.0}, "omega_max"),
        ({"axis_scan_omega_max": math.inf}, "omega_max"),
        ({"grid_per_dim": 0}, "grid_per_dim"),
        ({"grid_per_dim": -3}, "grid_per_dim"),
        ({"grid_per_dim": 2.5}, "grid_per_dim"),
        ({"grid_per_dim": "16"}, "grid_per_dim"),
        *[({"rank_tol": tol}, "rank_tol") for tol in (math.nan, math.inf, 0.0, -1.0)],
    ])
    def test_options_checked_before_assumptions(self, E, options, name):
        # A_0 = 0: Assumption 1 fails for E = 0 and is vacuous for E = 1
        sys = DdaeSystem(E=E, A=([[0.0]],), B=[[1.0]], C=[[1.0]], tau=[])
        with pytest.raises(ValueError, match=name):
            validate_system(sys, **options)


class TestImaginaryAxisMargin:
    def test_too_few_delays_rejected(self, sys_a):
        with pytest.raises(DimensionError):
            imaginary_axis_margin(sys_a, 20.0, tau=[1.0])

    def test_too_many_delays_rejected(self, sys_a):
        with pytest.raises(DimensionError):
            imaginary_axis_margin(sys_a, 20.0, tau=[1.0, 2.0, 3.0])

    def test_delay_override_matches_direct_scan(self, sys_a):
        tau = np.array([0.99, 2.0])
        omegas = np.linspace(0.0, 20.0, 201)
        want = min(
            np.linalg.svd(1j * w * sys_a.E - sys_a.A[0]
                          - sum(Ai * np.exp(-1j * w * t) for Ai, t in zip(sys_a.A[1:], tau)),
                          compute_uv=False)[-1]
            for w in omegas
        )
        got = imaginary_axis_margin(sys_a, 20.0, count=201, tau=tau)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("omega_max, count, name", [
        (20.0, 0, "count"),
        (20.0, -3, "count"),
        *[(20.0, c, "count must be an integer") for c in (2.5, math.nan, "16", 16.0)],
        (math.nan, 201, "omega_max"),
        (math.inf, 201, "omega_max"),
        (-5.0, 201, "omega_max"),
    ])
    def test_invalid_grid_rejected(self, sys_a, omega_max, count, name):
        with pytest.raises(ValueError, match=name):
            imaginary_axis_margin(sys_a, omega_max, count=count)

    def test_one_point_grid_is_omega_zero(self, sys_a):
        want = np.linalg.svd(-sum(sys_a.A), compute_uv=False)[-1]
        for omega_max, count in ((0.0, 5), (20.0, 1)):
            got = imaginary_axis_margin(sys_a, omega_max, count=count)
            assert got == pytest.approx(want, rel=1e-14)


class TestDdaeSystemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DdaeSystem(E=np.eye(2), A=(np.eye(3),), B=np.eye(2), C=np.eye(2), tau=[])

    def test_nonpositive_delay(self):
        with pytest.raises(ValueError):
            DdaeSystem(E=np.eye(1), A=([[0.0]], [[1.0]]), B=[[1.0]], C=[[1.0]], tau=[0.0])

    def test_delay_count_mismatch(self):
        with pytest.raises(DimensionError):
            DdaeSystem(E=np.eye(1), A=([[0.0]], [[1.0]]), B=[[1.0]], C=[[1.0]], tau=[1.0, 2.0])

    def test_matrices_are_frozen(self, sys_a):
        with pytest.raises(ValueError):
            sys_a.E[0, 0] = 5.0

    def test_caller_arrays_are_copied(self):
        # the system freezes its own copies: the caller's arrays stay
        # writeable, and writing to them leaves the system unchanged
        E, A0, A1 = np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [-1.0, -1.0]]), 0.25 * np.eye(2)
        B, C, tau = np.array([0.0, 1.0]), np.array([[2.0, 1.0]]), np.array([1.0])
        sys = DdaeSystem(E=E, A=(A0, A1), B=B, C=C, tau=tau)
        before = [a.copy() for a in (sys.E, *sys.A, sys.B, sys.C, sys.tau)]
        for a in (E, A0, A1, B, C, tau):
            assert a.flags.writeable
            a[...] = 7.0
        assert sys.E is not E
        for got, want in zip((sys.E, *sys.A, sys.B, sys.C, sys.tau), before):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize("as_list", [False, True], ids=["ndarray", "list"])
    @pytest.mark.parametrize("name", ["E", "A[0]", "A[1]", "B", "C", "tau"])
    def test_complex_input_is_refused(self, name, as_list):
        # Complex coefficients would break the conjugate symmetry the torus
        # grids rely on; they are refused, never truncated to the real part.
        args = {"E": [[1.0, 0.0], [0.0, 0.0]], "A[0]": [[0.0, 1.0], [-1.0, -1.0]],
                "A[1]": [[0.0, 0.0], [0.0, 0.25]], "B": [0.0, 1.0], "C": [2.0, 1.0],
                "tau": [1.0]}
        value = np.array(args[name], dtype=complex)
        value.flat[-1] += 0.3j  # e.g. A[1] = [[0, 0], [0, 0.25+0.3j]]
        args[name] = value.tolist() if as_list else value
        with pytest.raises(ValueError, match=re.escape(f"{name} must be real")):
            DdaeSystem(E=args["E"], A=(args["A[0]"], args["A[1]"]), B=args["B"],
                       C=args["C"], tau=args["tau"])


class TestTorusGrid:
    """``_torus_grid`` keeps the lexicographically smaller point of each conjugate pair."""

    @settings(max_examples=60)
    @given(m=st.integers(1, 4), g=st.integers(2, 12))
    def test_half_of_the_full_grid(self, m, g):
        thetas = _torus_grid(m, g)
        k = np.rint(thetas * g / (2.0 * np.pi)).astype(int)
        # Bit-identical to the points of the full grid.
        np.testing.assert_array_equal(thetas, (2.0 * np.pi * np.arange(g) / g)[k])
        rows = [tuple(r) for r in k.tolist()]
        mirrors = [tuple((-np.array(r)) % g) for r in rows]
        assert rows == sorted(set(rows))  # distinct, in lexicographic (C) order
        assert all(r <= q for r, q in zip(rows, mirrors))
        assert set(rows) | set(mirrors) == set(itertools.product(range(g), repeat=m))
        expected = (g ** m + 2 ** m) // 2 if g % 2 == 0 else (g ** m + 1) // 2
        assert len(rows) == expected
