"""Independent checks of norm results, written against plain numpy.

Nothing here calls into ddaenorm: the transfer function, the nullspace split
and the torus function are evaluated directly from the system matrices, so a
defect in the package's kernels cannot hide itself.  Every check returns a
list of problems; an empty list means the result passed.
"""

from __future__ import annotations

import math

import numpy as np

# Probe points per result and component.
PROBES = 48
# Re-evaluation at the reported attainment point must agree this closely.
REEVAL_RTOL = 1e-8
# Slack on top of a result's own tolerance when probing for larger values.
PROBE_RTOL = 1e-6


def sigma1_T(sys, omegas, tau=None):
    """sigma_1(C (j w E - A_0 - sum A_i e^{-j w tau_i})^{-1} B) per frequency."""
    tau = np.asarray(sys.tau if tau is None else tau, dtype=float)
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    M = 1j * w[:, None, None] * sys.E - sys.A[0]
    for i, t in enumerate(tau):
        M = M - np.exp(-1j * w * t)[:, None, None] * sys.A[i + 1]
    X = np.linalg.solve(M, np.broadcast_to(sys.B.astype(complex), (w.size,) + sys.B.shape))
    return np.linalg.svd(sys.C @ X, compute_uv=False)[:, 0]


def torus_blocks(sys, rank_tol=1e-10):
    """(A22 list, B2, C2) from an SVD of E; sigma_1 is basis-invariant."""
    P, s, Qt = np.linalg.svd(sys.E)
    rank = int(np.count_nonzero(s >= rank_tol * s[0])) if s.size and s[0] > 0 else 0
    U, V = P[:, rank:], Qt.T[:, rank:]
    return [U.T @ Ai @ V for Ai in sys.A], U.T @ sys.B, sys.C @ V


def sigma1_Ta(blocks, thetas):
    """sigma_1(C2 (-A22_0 - sum A22_i e^{-j theta_i})^{-1} B2) per torus point."""
    A22, B2, C2 = blocks
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    M = np.broadcast_to(-A22[0].astype(complex), (th.shape[0],) + A22[0].shape)
    for i in range(th.shape[1]):
        M = M - np.exp(-1j * th[:, i])[:, None, None] * A22[i + 1]
    X = np.linalg.solve(M, np.broadcast_to(B2.astype(complex), (th.shape[0],) + B2.shape))
    return np.linalg.svd(C2 @ X, compute_uv=False)[:, 0]


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(b), 1.0)


def check_plain(sys, value, omega, abs_tol, rng, tau=None, omega_max=None):
    """A plain-norm value re-evaluates at its frequency and bounds seeded probes.

    Probes lie uniformly on ``[0, omega_max]`` (default: ten times the peak
    frequency plus 10) and within one unit of the peak; none may exceed the
    certified bracket ``value + abs_tol``.
    """
    problems = []
    at = float(sigma1_T(sys, [omega], tau)[0])
    if not _close(at, value, REEVAL_RTOL):
        problems.append(f"plain value {value!r} re-evaluates to {at!r} at omega={omega!r}")
    hi = omega_max if omega_max is not None else 10.0 * omega + 10.0
    probes = np.concatenate([rng.uniform(0.0, hi, PROBES // 2),
                             np.abs(omega + rng.uniform(-1.0, 1.0, PROBES // 2))])
    top = float(sigma1_T(sys, probes, tau).max())
    if top > (value + abs_tol) * (1.0 + PROBE_RTOL):
        problems.append(f"probe sigma_1(T) = {top!r} exceeds plain value {value!r} + {abs_tol!r}")
    return problems


def check_torus(blocks, value, theta, rng):
    """A torus maximum re-evaluates at its point and bounds seeded probes."""
    problems = []
    theta = np.asarray(theta, dtype=float)
    at = float(sigma1_Ta(blocks, theta[None, :])[0])
    if not _close(at, value, REEVAL_RTOL):
        problems.append(f"torus value {value!r} re-evaluates to {at!r} at theta={theta.tolist()}")
    probes = rng.uniform(0.0, 2.0 * math.pi, (PROBES, theta.size))
    top = float(sigma1_Ta(blocks, probes).max())
    if top > value * (1.0 + PROBE_RTOL):
        problems.append(f"probe sigma_1(T_a) = {top!r} exceeds torus value {value!r}")
    return problems


def check_strong(sys, doc, rng, tau=None):
    """Invariants of a strong-norm result given as its JSON dict."""
    plain, asym = doc["diagnostics"]["plain"], doc["diagnostics"]["asymptotic"]
    problems = []
    if doc["value"] != max(plain["value"], asym["value"]):
        problems.append(f"strong {doc['value']!r} != max(plain {plain['value']!r}, "
                        f"torus {asym['value']!r})")
    omega_scan = doc["diagnostics"]["plain_diagnostics"].get("omega_scan")
    problems += check_plain(sys, plain["value"], plain["attained_at"], plain["abs_tol"],
                            rng, tau, omega_scan)
    problems += check_torus(torus_blocks(sys), asym["value"], asym["attained_at"], rng)
    return problems


def check_reference(label, got, want, tol):
    if abs(got - want) > tol:
        return [f"{label} = {got!r}, reference {want!r} +/- {tol}"]
    return []
