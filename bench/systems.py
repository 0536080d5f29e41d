"""Benchmark inputs: the paper's two fixed systems and seeded random systems.

SYS-A and SYS-B are the scalar examples of the paper (n = 2, SISO, m = 2);
they are rebuilt here so the benchmark does not import the test suite.  The
random generator follows the construction of the property suite's
``random_stable_system`` but takes its sizes as arguments and fixes the
quantities that set the cost of a norm computation, so that two seeds give
systems of equal cost:

* in the basis the system is built in, ``E11 = e0 * I`` and
  ``A11_0 = X - shift * I`` with ``||X|| < shift``; ``A11_0 + A11_0^T`` is
  negative definite, so the differential part is stable by construction;
* the delay-difference part has ``sum_i ||A22_0^{-1} A22_i|| = 0.6``, so
  ``gamma_a <= 0.6 < 1`` by construction;
* ``e0`` is chosen so that the frequency scale ``(a11 + a12 + a21 + a22) / e0``
  that sizes the plain-norm scan equals ``SCAN_SCALE`` exactly;
* the outputs of the differential part are collocated with its inputs
  (``C1 = B1^T``) and the algebraic part's gains are small, so the plain peak
  stays well above the tail bound and the scan is never extended.
"""

from __future__ import annotations

import numpy as np

# Bound on sum_i ||A22_0^{-1} A22_i||, hence on gamma_a.
DIFFERENCE_GAIN = 0.6
# Frequency scale of the plain-norm scan: 9,473 points at delays (1, 2).
SCAN_SCALE = 30.0


def sys_a(ddaenorm, tau=(1.0, 2.0)):
    """SYS-A: T(lam) = (lam + 2) / (lam (1 - 0.25 e^{-lam t1} + 0.5 e^{-lam t2}) + 1)."""
    return _scalar_example(ddaenorm, 0.25, tau)


def sys_b(ddaenorm, tau=(1.0, 2.0)):
    """SYS-B: SYS-A with the coefficient 0.25 replaced by 1/16."""
    return _scalar_example(ddaenorm, 1.0 / 16.0, tau)


def _scalar_example(ddaenorm, c1, tau):
    return ddaenorm.DdaeSystem(
        E=[[1.0, 0.0], [0.0, 0.0]],
        A=(
            [[0.0, 1.0], [-1.0, -1.0]],
            [[0.0, 0.0], [0.0, c1]],
            [[0.0, 0.0], [0.0, -0.5]],
        ),
        B=[0.0, 1.0],
        C=[2.0, 1.0],
        tau=list(tau),
    )


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _norm2(M):
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def stable_system(ddaenorm, rng, *, n, nu, m, p, tau):
    """Random DDAE with ``n`` states, ``nu`` algebraic ones, ``m`` delays and
    ``p`` inputs and outputs, stable and with ``gamma_a < 1`` by construction."""
    nd = n - nu
    X = rng.standard_normal((nd, nd)) / np.sqrt(nd)
    A11_0 = X - (_norm2(X) + 0.5) * np.eye(nd)

    A22_0 = _orthogonal(rng, nu) @ np.diag(rng.uniform(0.8, 1.6, nu)) @ _orthogonal(rng, nu).T
    raw = [rng.standard_normal((nu, nu)) for _ in range(m)]
    gain = sum(_norm2(np.linalg.solve(A22_0, R)) for R in raw)
    A22 = [A22_0] + [R * (DIFFERENCE_GAIN / gain) for R in raw]
    A12_0 = 0.01 * rng.standard_normal((nd, nu))
    A21_0 = 0.01 * rng.standard_normal((nu, nd))

    Q1 = _orthogonal(rng, n)
    Q2 = _orthogonal(rng, n)
    Uperp, U = Q1[:, :nd], Q1[:, nd:]
    Vperp, V = Q2[:, :nd], Q2[:, nd:]
    block_norms = _norm2(A11_0) + _norm2(A12_0) + _norm2(A21_0) + sum(_norm2(M) for M in A22)
    E = (block_norms / SCAN_SCALE) * (Uperp @ Vperp.T)

    B1 = 3.0 * rng.standard_normal((nd, p)) / np.sqrt(nd)
    C1 = B1.T
    B2 = 0.1 * rng.standard_normal((nu, p))
    C2 = 0.1 * rng.standard_normal((p, nu))

    A0 = Uperp @ A11_0 @ Vperp.T + Uperp @ A12_0 @ V.T + U @ A21_0 @ Vperp.T + U @ A22[0] @ V.T
    A = [A0] + [U @ A22[i] @ V.T for i in range(1, m + 1)]
    return ddaenorm.DdaeSystem(
        E=E, A=tuple(A), B=Uperp @ B1 + U @ B2, C=C1 @ Vperp.T + C2 @ V.T, tau=list(tau),
    )
