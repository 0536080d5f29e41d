"""Shared fixtures and independent oracles.

The scalar closed forms and the brute-force grid searches here are written
directly against numpy, independent of the package's evaluation and search
paths, so they can serve as oracles for both.
"""

import numpy as np
import pytest
from hypothesis import settings

from ddaenorm import DdaeSystem

# Every property test draws the same examples on every run and writes no
# example database into the checkout; each test sets its own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# ---------------------------------------------------------------------------
# Reference systems.
#
# SYS-A realizes the scalar transfer function
#     (lam + 2) / (lam * (1 - 0.25 e^{-lam t1} + 0.5 e^{-lam t2}) + 1)
# at (t1, t2) = (1, 2); SYS-B replaces the coefficient 0.25 by 1/16.
# Both realizations are verified pointwise against the closed form before
# anything else relies on them (acceptance criterion 1).


def make_sys_a(tau=(1.0, 2.0)):
    return DdaeSystem(
        E=[[1.0, 0.0], [0.0, 0.0]],
        A=(
            [[0.0, 1.0], [-1.0, -1.0]],
            [[0.0, 0.0], [0.0, 0.25]],
            [[0.0, 0.0], [0.0, -0.5]],
        ),
        B=[0.0, 1.0],
        C=[2.0, 1.0],
        tau=list(tau),
    )


def make_sys_b(tau=(1.0, 2.0)):
    return DdaeSystem(
        E=[[1.0, 0.0], [0.0, 0.0]],
        A=(
            [[0.0, 1.0], [-1.0, -1.0]],
            [[0.0, 0.0], [0.0, 1.0 / 16.0]],
            [[0.0, 0.0], [0.0, -0.5]],
        ),
        B=[0.0, 1.0],
        C=[2.0, 1.0],
        tau=list(tau),
    )


@pytest.fixture(scope="session")
def sys_a():
    return make_sys_a()


@pytest.fixture(scope="session")
def sys_b():
    return make_sys_b()


# ---------------------------------------------------------------------------
# Scalar closed-form oracles.


def formula_T(lam, tau=(1.0, 2.0), c1=0.25):
    lam = np.asarray(lam, dtype=complex)
    d = 1.0 - c1 * np.exp(-lam * tau[0]) + 0.5 * np.exp(-lam * tau[1])
    return (lam + 2.0) / (lam * d + 1.0)


def formula_Ta(lam, tau=(1.0, 2.0), c1=0.25):
    lam = np.asarray(lam, dtype=complex)
    d = 1.0 - c1 * np.exp(-lam * tau[0]) + 0.5 * np.exp(-lam * tau[1])
    return 1.0 / d


def formula_T_b(lam, tau=(1.0, 2.0)):
    return formula_T(lam, tau, c1=1.0 / 16.0)


# ---------------------------------------------------------------------------
# Independent numeric oracles (dense grid + golden-section refinement).


def golden_max(f, lo, hi, tol=1e-12):
    """Golden-section maximization, independent of the package's version."""
    tol = max(tol, 16 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if f1 > fm:
        xm, fm = x1, f1
    if f2 > fm:
        xm, fm = x2, f2
    return xm, fm


def brute_hinf_formula(f, wmax, samples):
    """Dense-grid + golden-section supremum of |f(j w)| over [0, wmax]."""
    w = np.linspace(0.0, wmax, samples)
    vals = np.abs(f(1j * w))
    i = int(np.argmax(vals))
    lo = w[max(i - 1, 0)]
    hi = w[min(i + 1, samples - 1)]
    return golden_max(lambda x: abs(complex(f(1j * x))), lo, hi)


def transfer_matrix(sys, omega, tau=None):
    """Direct transfer evaluation from the matrices, bypassing the package."""
    tau = np.asarray(sys.tau if tau is None else tau, dtype=float)
    lam = 1j * omega
    M = lam * sys.E.astype(complex) - sys.A[0]
    for i in range(sys.m):
        M = M - np.exp(-lam * tau[i]) * sys.A[i + 1]
    return sys.C @ np.linalg.solve(M, sys.B.astype(complex))


def sigma1_direct(sys, omega, tau=None):
    return float(np.linalg.svd(transfer_matrix(sys, omega, tau), compute_uv=False)[0])


def sigma1_grid(sys, w, tau):
    """sigma_1(T(j w)) on the frequencies ``w``: one batched solve and SVD."""
    M = 1j * w[:, None, None] * sys.E.astype(complex) - sys.A[0]
    for i in range(sys.m):
        phases = np.exp(-1j * w * tau[i])
        M = M - phases[:, None, None] * sys.A[i + 1]
    X = np.linalg.solve(M, np.broadcast_to(sys.B.astype(complex), (w.size,) + sys.B.shape))
    return np.linalg.svd(sys.C @ X, compute_uv=False)[:, 0]


def brute_hinf_system(sys, wmax, samples, tau=None):
    """Grid oracle for arbitrary systems: vectorized scan + golden refinement.

    The grid is evaluated in chunks of 512 frequencies, so memory stays small.
    """
    tau_arr = np.asarray(sys.tau if tau is None else tau, dtype=float)
    w = np.linspace(0.0, wmax, samples)
    vals = np.concatenate([sigma1_grid(sys, part, tau_arr)
                           for part in np.array_split(w, -(-samples // 512))])
    i = int(np.argmax(vals))
    lo = w[max(i - 1, 0)]
    hi = w[min(i + 1, samples - 1)]
    return golden_max(lambda x: sigma1_direct(sys, x, tau_arr), lo, hi)


# ---------------------------------------------------------------------------
# Random stable instance generator for the property suite.


def _orthogonal(rng, n):
    if n == 0:
        return np.zeros((0, 0))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def three_delay_system():
    """Seeded E = 0 system with m = 3 delays and a 2x2 algebraic block."""
    rng = np.random.default_rng(5)
    A = [np.eye(2) + 0.2 * rng.standard_normal((2, 2))]
    A += [0.25 * rng.standard_normal((2, 2)) for _ in range(3)]
    return DdaeSystem(E=np.zeros((2, 2)), A=tuple(A), B=rng.standard_normal((2, 2)),
                      C=rng.standard_normal((2, 2)), tau=[1.0, 1.5, 2.5])


def random_stable_system(seed):
    """Deterministic stable DDAE instance with n <= 6, m <= 2, gamma_a < 0.9.

    The differential part is a stable ODE block, the delay-difference part is
    scaled so the sum of ||A22[0]^{-1} A22[i]|| stays below 0.85, and the
    cross couplings are kept small so stability of the parts carries over.
    The differential input/output path is boosted so the plain H-infinity
    branch dominates and grid oracles see a smooth low-frequency peak.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    nu = int(rng.integers(0, 3))
    nd = int(rng.integers(1, 7 - nu))
    n = nd + nu

    X = rng.standard_normal((nd, nd))
    shift = np.abs(np.linalg.eigvals(X)).max() + 0.5 + rng.uniform(0.0, 1.0)
    A11_0 = X - shift * np.eye(nd)

    if nu:
        A22_0 = _orthogonal(rng, nu) @ np.diag(rng.uniform(0.8, 1.6, nu)) @ _orthogonal(rng, nu).T
        raw = [rng.standard_normal((nu, nu)) for _ in range(m)]
        total = sum(
            np.linalg.svd(np.linalg.solve(A22_0, R), compute_uv=False)[0] for R in raw
        )
        target = rng.uniform(0.3, 0.85)
        scale = target / max(total, 1e-12)
        A22 = [A22_0] + [R * scale for R in raw]
        A12_0 = 0.01 * rng.standard_normal((nd, nu))
        A21_0 = 0.01 * rng.standard_normal((nu, nd))
    else:
        A22 = []
        A12_0 = np.zeros((nd, 0))
        A21_0 = np.zeros((0, nd))

    Q1 = _orthogonal(rng, n)
    Q2 = _orthogonal(rng, n)
    Uperp, U = Q1[:, :nd], Q1[:, nd:]
    Vperp, V = Q2[:, :nd], Q2[:, nd:]
    E = Uperp @ np.diag(rng.uniform(0.5, 2.0, nd)) @ Vperp.T

    p_in = int(rng.integers(1, 3))
    p_out = int(rng.integers(1, 3))
    B1 = 3.0 * rng.standard_normal((nd, p_in))
    C1 = 3.0 * rng.standard_normal((p_out, nd))
    B2 = 0.3 * rng.standard_normal((nu, p_in))
    C2 = 0.3 * rng.standard_normal((p_out, nu))

    A_list = []
    for i in range(m + 1):
        Ai = np.zeros((n, n))
        if i == 0:
            Ai += Uperp @ A11_0 @ Vperp.T
            if nu:
                Ai += Uperp @ A12_0 @ V.T + U @ A21_0 @ Vperp.T + U @ A22[0] @ V.T
        elif nu:
            Ai += U @ A22[i] @ V.T
        A_list.append(Ai)

    tau = np.sort(rng.uniform(0.5, 2.5, m))
    while m == 2 and tau[1] - tau[0] < 0.05:
        tau = np.sort(rng.uniform(0.5, 2.5, m))

    B = Uperp @ B1 + (U @ B2 if nu else 0.0)
    C = C1 @ Vperp.T + (C2 @ V.T if nu else 0.0)
    return DdaeSystem(E=E, A=tuple(A_list), B=B, C=C, tau=tau)


def dense_stable_system(seed, n, nu=2, m=2, p=2, tau=(1.0, 2.0)):
    """Seeded dense DDAE with ``n`` states, ``nu`` algebraic ones and rank-``nu`` delay terms.

    Built in nullspace-aligned bases, as :func:`random_stable_system`:
    ``A11_0 + A11_0^T`` is negative definite, so the differential part is
    stable; ``sum_i ||A22_0^{-1} A22_i|| = 0.6``, so ``gamma_a <= 0.6``; and
    ``E`` is scaled so that the summed block norms are 30 times
    ``sigma_min(E11)``, which puts the low-frequency range at ``[0, 310]``.
    """
    rng = np.random.default_rng(seed)
    nd = n - nu
    norm2 = lambda M: float(np.linalg.svd(M, compute_uv=False)[0])  # noqa: E731
    X = rng.standard_normal((nd, nd)) / np.sqrt(nd)
    A11_0 = X - (norm2(X) + 0.5) * np.eye(nd)
    A22_0 = _orthogonal(rng, nu) @ np.diag(rng.uniform(0.8, 1.6, nu)) @ _orthogonal(rng, nu).T
    raw = [rng.standard_normal((nu, nu)) for _ in range(m)]
    gain = sum(norm2(np.linalg.solve(A22_0, R)) for R in raw)
    A22 = [A22_0] + [R * (0.6 / gain) for R in raw]
    A12_0 = 0.01 * rng.standard_normal((nd, nu))
    A21_0 = 0.01 * rng.standard_normal((nu, nd))
    Q1, Q2 = _orthogonal(rng, n), _orthogonal(rng, n)
    Uperp, U, Vperp, V = Q1[:, :nd], Q1[:, nd:], Q2[:, :nd], Q2[:, nd:]
    block_norms = norm2(A11_0) + norm2(A12_0) + norm2(A21_0) + sum(map(norm2, A22))
    B1 = 3.0 * rng.standard_normal((nd, p)) / np.sqrt(nd)
    B2, C2 = 0.1 * rng.standard_normal((nu, p)), 0.1 * rng.standard_normal((p, nu))
    A0 = Uperp @ A11_0 @ Vperp.T + Uperp @ A12_0 @ V.T + U @ A21_0 @ Vperp.T + U @ A22_0 @ V.T
    return DdaeSystem(E=(block_norms / 30.0) * (Uperp @ Vperp.T),
                      A=(A0,) + tuple(U @ Ai @ V.T for Ai in A22[1:]),
                      B=Uperp @ B1 + U @ B2, C=B1.T @ Vperp.T + C2 @ V.T, tau=list(tau))


def with_ports(sys, outputs=None, inputs=None):
    """``sys`` with the first ``outputs`` rows of ``C`` and ``inputs`` columns of ``B``."""
    return DdaeSystem(E=sys.E, A=sys.A, B=sys.B[:, :inputs], C=sys.C[:outputs], tau=sys.tau)
