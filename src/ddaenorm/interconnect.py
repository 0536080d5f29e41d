"""Builders that bring interconnections into DDAE standard form.

Feedback loops with delayed measurements, direct feedthrough terms, delayed
input/output paths and neutral derivative terms are all absorbed by appending
slack variables; no matrix inversion or elimination is performed, so the
resulting coefficient matrices stay affine in controller gains.

Slack variables are appended, never interleaved, in a fixed order (controller
states, then output slacks, then input slacks), so matrix layouts are
reproducible for golden-file tests.  Delay terms are canonicalized: sorted
increasing, duplicates within ``MERGE_TOL`` summed, all-zero coefficient
blocks dropped, and zero delays folded into the undelayed coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .system_model import DdaeSystem, _as_real, _check_delays

__all__ = [
    "PlantBlock",
    "StaticDelayController",
    "close_feedback",
    "eliminate_feedthrough",
    "absorb_io_delay",
    "from_neutral",
    "MERGE_TOL",
]

# Absolute tolerance on delay equality when merging coefficient blocks.
MERGE_TOL = 1e-12


def _mat(M, name, rows=None, cols=None):
    """``M`` as a real float matrix; complex or non-finite entries are refused by name."""
    M = _as_real(M, name)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim == 1:
        M = M.reshape(-1, 1) if cols == 1 else M.reshape(1, -1) if rows == 1 else M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a matrix")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} columns, got {M.shape[1]}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must hold finite entries")
    return M


@dataclass(frozen=True, eq=False)
class PlantBlock:
    """Open-loop plant with control input u, disturbance w, measurement y and
    regulated output z:

        x' = A x + B1 u + B2 w,   y = C x + D1 u,   z = F x
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    D1: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        A = _mat(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError("A must be square")
        B1 = _mat(self.B1, "B1", rows=n)
        B2 = _mat(self.B2, "B2", rows=n)
        C = _mat(self.C, "C", cols=n)
        D1 = _mat(self.D1, "D1", rows=C.shape[0], cols=B1.shape[1])
        F = _mat(self.F, "F", cols=n)
        for name, val in (("A", A), ("B1", B1), ("B2", B2), ("C", C), ("D1", D1), ("F", F)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B1.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class StaticDelayController:
    """Static output feedback ``u(t) = K y(t - tau)`` with tau >= 0."""

    K: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "K", _mat(self.K, "K"))
        object.__setattr__(self, "tau", float(_check_delays(self.tau, zero=True)))


def _canonical_terms(A0, delayed):
    """Sort delayed terms, merge near-equal delays, fold tau<=tol into A0,
    and drop all-zero coefficient blocks.  Returns (A_list, tau_array)."""
    A0 = np.array(A0, dtype=float)
    items = sorted(((float(t), np.asarray(M, dtype=float)) for t, M in delayed),
                   key=lambda item: item[0])
    merged = []
    for t, M in items:
        if t <= MERGE_TOL:
            A0 = A0 + M
        elif merged and abs(t - merged[-1][0]) <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + M)
        else:
            merged.append((t, M.copy()))
    kept = [(t, M) for t, M in merged if np.any(M != 0.0)]
    A_list = [A0] + [M for _, M in kept]
    tau = np.array([t for t, _ in kept], dtype=float)
    return A_list, tau


def _append_slacks(sys: DdaeSystem, k: int):
    """``E`` and the ``A`` list of ``sys`` with ``k`` slack states appended.

    The slacks are algebraic (zero rows of ``E``) with ``-I`` as their block of
    ``A_0``; callers fill in the couplings.
    """
    grow = ((0, k), (0, k))
    A = [np.pad(Ai, grow) for Ai in sys.A]
    A[0][sys.n:, sys.n:] = -np.eye(k)
    return np.pad(sys.E, grow), A


def close_feedback(plant: PlantBlock, ctrl: StaticDelayController) -> DdaeSystem:
    """Close the loop ``u(t) = K y(t - tau)`` around a plant without elimination.

    The augmented state is ``X = [x; u; y]`` with a singular descriptor
    ``E = diag(I, 0, 0)``; the measurement and controller equations become
    algebraic rows and the delayed gain ``-K`` sits in a delayed coefficient.
    All closed-loop matrices are affine in the entries of K.  A zero
    controller delay is folded into the undelayed coefficient (delays must be
    strictly positive in standard form).
    """
    n, n_u, n_y = plant.n, plant.n_u, plant.n_y
    if ctrl.K.shape != (n_u, n_y):
        raise DimensionError(f"K must be {n_u}x{n_y}, got {ctrl.K.shape}")
    N = n + n_u + n_y
    E = np.zeros((N, N))
    E[:n, :n] = np.eye(n)
    A0 = np.zeros((N, N))
    A0[:n, :n] = plant.A
    A0[:n, n:n + n_u] = plant.B1
    A0[n:n + n_y, :n] = plant.C
    A0[n:n + n_y, n:n + n_u] = plant.D1
    A0[n:n + n_y, n + n_u:] = -np.eye(n_y)
    A0[n + n_y:, n:n + n_u] = np.eye(n_u)
    Ad = np.zeros((N, N))
    Ad[n + n_y:, n + n_u:] = -ctrl.K
    A_list, tau = _canonical_terms(A0, [(ctrl.tau, Ad)])
    B = np.vstack([plant.B2, np.zeros((n_u + n_y, plant.B2.shape[1]))])
    C = np.hstack([plant.F, np.zeros((plant.F.shape[0], n_u + n_y))])
    return DdaeSystem(E=E, A=tuple(A_list), B=B, C=C, tau=tau)


def eliminate_feedthrough(sys: DdaeSystem, D2) -> DdaeSystem:
    """Absorb a direct feedthrough ``z = C x + D2 w`` via a slack variable.

    The slack satisfies the algebraic row ``-gamma_w + w = 0``, so the
    transfer function of the result equals ``T_old + D2`` pointwise.
    """
    D2 = _mat(D2, "D2", rows=sys.p_out, cols=sys.p_in)
    E, A_list = _append_slacks(sys, sys.p_in)
    B = np.vstack([sys.B, np.eye(sys.p_in)])
    C = np.hstack([sys.C, D2])
    return DdaeSystem(E=E, A=tuple(A_list), B=B, C=C, tau=sys.tau.copy())


def absorb_io_delay(sys: DdaeSystem, which: str, matrix, tau_new: float) -> DdaeSystem:
    """Absorb a delayed input or output path via a slack variable.

    ``which="input"`` realizes ``x' = ... + B_old w(t) + matrix * w(t - tau)``:
    the slack ``gamma_w = w`` becomes an algebraic state, the old input matrix
    moves into the undelayed coefficient and the delayed path into a delayed
    coefficient, so the transfer gains the term driven by
    ``matrix * e^{-lambda tau}``.

    ``which="output"`` realizes ``z = C_old x(t) + matrix * x(t - tau)`` with
    an output slack ``gamma_z = matrix * x(t - tau)``.
    """
    tau_new = float(_check_delays(tau_new, "tau_new"))
    n = sys.n
    if which == "input":
        M = _mat(matrix, "matrix", rows=n, cols=sys.p_in)
        k = sys.p_in
    elif which == "output":
        M = _mat(matrix, "matrix", rows=sys.p_out, cols=n)
        k = sys.p_out
    else:
        raise ValueError("which must be 'input' or 'output'")
    E, A = _append_slacks(sys, k)
    Anew = np.zeros_like(E)
    if which == "input":
        A[0][:n, n:] = sys.B
        Anew[:n, n:] = M
        B = np.vstack([np.zeros((n, k)), np.eye(k)])
        C = np.hstack([sys.C, np.zeros((sys.p_out, k))])
    else:
        Anew[n:, :n] = M
        B = np.vstack([sys.B, np.zeros((k, sys.p_in))])
        C = np.hstack([sys.C, np.eye(k)])
    delayed = list(zip(sys.tau.tolist(), A[1:])) + [(tau_new, Anew)]
    A_list, tau = _canonical_terms(A[0], delayed)
    return DdaeSystem(E=E, A=tuple(A_list), B=B, C=C, tau=tau)


def from_neutral(D, tau1: float, A0, A1, tau2: float, B, C) -> DdaeSystem:
    """Standard form of the neutral system
    ``d/dt (x(t) + D x(t - tau1)) = A0 x(t) + A1 x(t - tau2) + B w(t)``,
    ``z = C x``.

    The slack ``gamma = x + D x(t - tau1)`` carries the derivative, giving the
    transfer ``C (lambda (I + D e^{-lambda tau1}) - A0 - A1 e^{-lambda tau2})^{-1} B``.
    Coinciding delays are merged; a zero D drops the neutral delay term.
    """
    A0 = _mat(A0, "A0")
    n = A0.shape[0]
    if A0.shape != (n, n):
        raise DimensionError("A0 must be square")
    D = _mat(D, "D", rows=n, cols=n)
    A1 = _mat(A1, "A1", rows=n, cols=n)
    B = _mat(B, "B", rows=n)
    C = _mat(C, "C", cols=n)
    tau1, tau2 = float(_check_delays(tau1, "tau1")), float(_check_delays(tau2, "tau2"))
    N = 2 * n
    E = np.zeros((N, N))
    E[:n, n:] = np.eye(n)
    A0_new = np.zeros((N, N))
    A0_new[:n, :n] = A0
    A0_new[n:, :n] = np.eye(n)
    A0_new[n:, n:] = -np.eye(n)
    Ad1 = np.zeros((N, N))
    Ad1[n:, :n] = D
    Ad2 = np.zeros((N, N))
    Ad2[:n, :n] = A1
    A_list, tau = _canonical_terms(A0_new, [(tau1, Ad1), (tau2, Ad2)])
    B_new = np.vstack([B, np.zeros((n, B.shape[1]))])
    C_new = np.hstack([C, np.zeros((C.shape[0], n))])
    return DdaeSystem(E=E, A=tuple(A_list), B=B_new, C=C_new, tau=tau)
