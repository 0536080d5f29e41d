"""H-infinity norms of DDAE systems and the delay-insensitive strong variants.

Three quantities are computed:

* ``strong_norm_Ta`` -- the strong norm of the asymptotic transfer function,
  a maximum of ``sigma_1`` over the delay torus.  It does not depend on the
  delay values at all, which is why :class:`BlockDecomposition` (and not a
  system plus delays) is its input.
* ``hinf_norm_T`` -- the plain H-infinity norm of the transfer function for
  fixed delays, by a dense scan whose peaks a trust-region ascent polishes.
* ``strong_hinf_norm_T`` -- their maximum, which is the smallest upper bound
  of the H-infinity norm that is insensitive to arbitrarily small delay
  perturbations, and is continuous in the delays (the plain norm is not).

The plain norm reports the smallest frequency whose peak value lies within
the relative level tolerance of the best value found; peaks that agree at
that tolerance are treated as ties and the lowest frequency wins.  This keeps
results deterministic even when near-equal peaks recur at high frequency,
which is exactly what happens for weakly perturbed commensurate delays.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InstabilityError, UnboundedNormError
from .response import (
    _frequency_cell_bound,
    _sigma_chunk,
    _singular_values,
    _transfer,
    sigma_T_samples,
    sigma_Ta_samples,
    sigma_Ta_torus_samples,
)
from .system_model import (
    _ROUNDING_SLACK,
    BlockDecomposition,
    DdaeSystem,
    _cell_rounds,
    _pencil_map,
    _resolve_tau,
    _sigma_min,
    _spectral_norm,
    check_difference_stability,
    decompose,
)

__all__ = [
    "NormResult",
    "strong_norm_Ta",
    "hinf_norm_T",
    "strong_hinf_norm_T",
    "frequency_bound",
    "BRANCH_PLAIN",
    "BRANCH_ASYMPTOTIC",
]

BRANCH_PLAIN = "plain-T"
BRANCH_ASYMPTOTIC = "asymptotic-Ta"

# Relative level tolerance of the plain-norm search (also the tie window).
DEFAULT_BISECT_TOL = 1e-4
# Scan points per oscillation scale 2*pi/sum(tau) of the frequency response,
# and the scan's cap; hinf_norm_T reads both at call time.
SCAN_DENSITY = 64
MAX_SCAN_POINTS = 2_000_000
# Commensurate-delay detection: smallest common denominator up to this cap.
COMMENSURATE_S_CAP = 20000
COMMENSURATE_REL_TOL = 1e-9
# Candidates of the first block of that search; each later block doubles.
_S_BLOCK = 64

# Step below which the strong-norm polish of a torus maximum stops.
_REFINE_TOL = 1e-8
# Stencil radius of that polish, and the sampler call cap of every ascent.
_STENCIL_RADIUS = 1e-5
_MAX_ASCENT = 60
# Inflation of the torus resolvent estimate in the high-frequency envelope.
_BOUND_SAFETY = 2.0
# The cell bound of the strong-norm sweep (see _cell_bounds): an absolute floor
# for underflow in sums of squares.
_UNDERFLOW = 1e-150
# Grid samples per frequency cell of the pruned uniform sweeps, and the fewest
# cells a sweep must hold to be pruned (see _cell_sweep).
_CELL_SAMPLES = 17
_MIN_CELLS = 1024


@dataclass(frozen=True)
class NormResult:
    """A computed norm with its attainment certificate.

    ``attained_at`` is a frequency (plain branch) or a torus point tuple
    (asymptotic branch) and re-evaluates to ``value`` within ``rel_tol``.
    ``diagnostics`` carries iteration counts, grid sizes and certification
    details; numbers there are informational, ``value`` is the result.
    """

    value: float
    attained_at: object
    branch: str
    abs_tol: float
    rel_tol: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        at = self.attained_at
        if isinstance(at, tuple):
            at = list(at)
        return {
            "value": self.value,
            "attained_at": at,
            "branch": self.branch,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "diagnostics": _jsonable(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # keep the JSON strictly parseable
    return obj


def _sigma1(sample, system, points, *args) -> np.ndarray:
    """sigma_1 at ``points`` from a sampler, -inf where the pencil is singular."""
    sig, ok = sample(system, points, *args)
    return np.where(ok, sig[:, 0], -np.inf)


def _sweep_widths(dec: BlockDecomposition) -> tuple:
    """The cell widths of the strong-norm sweep's rounds, in grid steps per dimension.

    16, 8 and 4 for m = 2.  For m = 3, 16, 8, 4 and 2 where ``nu >= 3`` and
    the transfer ``C2 (.) B2`` is a vector or 2x2: a row then costs a LAPACK
    solve, while a cell's ``2^m`` vertices take the closed form of
    :func:`_singular_values`.  Otherwise (m = 1, m >= 4, ``nu <= 2`` or a
    wider transfer) 8, then 4, where the other rounds cost more than they
    saved or were not measured to save.
    """
    outs, ins = dec.C2.shape[0], dec.B2.shape[1]
    if dec.m == 2:
        return 16, 8, 4
    if dec.m == 3 and dec.nu >= 3 and (min(outs, ins) <= 1 or outs == ins == 2):
        return 16, 8, 4, 2
    return 8, 4


def _cell_bounds(dec: BlockDecomposition):
    """A map from torus cells to the sampler's ``sigma_1`` at their centres and bounds on them.

    The map takes ``centres`` and half-widths ``r``, both (K, m): a cell holds
    the points within ``r[k, i]`` of ``centres[k, i]`` in each dimension.  It
    returns ``(value, bound, q)``: ``value`` is NaN where the sampler flags
    the centre, ``bound`` is ``inf`` there and wherever the conditions below
    fail, and ``q`` (below) is ``inf`` where the centre is flagged.  Norms are
    spectral norms, bounded by Frobenius norms where marked ``_F``.  Each
    chunk of :func:`_pencil_map` computes the whole bound of its cells, so
    every stack, the ``2^m`` vertex matrices per cell included, stays within
    its memory bound.

    The bound.  With ``M(theta) = -A22[0] - sum_i A22[i] e^{-j theta_i}``,
    ``G = M(c)^{-1}``, ``J_i = -j e^{-j c_i} C2 G A22[i] G B2``, ``delta =
    sum_i r_i ||A22[i]||`` and ``q = delta ||G||_F <= 1/2``, on every point of
    the cell

        ``sigma_1(T(theta)) <= max over the 2^m vertices v of sigma_1(T(c) +
        sum_i v_i r_i J_i) + sum_i ||J_i||_F r_i^2 / 2
        + ||C2 G||_F delta^2 ||G||_F ||G B2||_F / (1 - q)``.

    ``M(theta) = M(c) + D`` with ``||D|| <= delta``, since ``|e^{-j theta} -
    e^{-j c}| <= |theta - c|``, and the Neumann series gives ``T(theta) =
    T(c) - C2 G D G B2`` up to the last (Neumann) term.  ``-C2 G D G B2`` is
    ``sum_i (theta_i - c_i) J_i`` up to the middle (phase) term, as
    ``|e^{-j s} - 1 + j s| <= s^2 / 2``.  ``sigma_1`` of the affine model is
    convex in ``theta``, so its maximum over the box lies at a vertex.
    ``kappa = a ||G||_F / (1 - q)``, with ``a = sum_{i>=0} ||A22[i]|| >=
    ||M||``, bounds the condition number of ``M`` on the cell.  The
    conditions are ``q <= 1/2`` and ``u kappa <= 1e-3``, with ``u =
    _ROUNDING_SLACK (n + m) eps``.

    Rounding.  Every centre is factored once, by the sampler's kernel:
    ``_transfer(M, [B2, I], [C2; I])`` gives ``T(c)``, the sampler's value,
    ``C2 X``, ``X B2`` and ``X``, the computed ``G``, from one solve against
    ``[B2 | I | r]`` for ``n >= 3`` and Cramer's adjugate for ``n <= 2``.
    With ``s = u kappa ||C2||_F ||G||_F ||B2||_F / (1 - q)``, the errors
    below add up to at most ``5.6 s``, and the bound adds ``6 s +
    _UNDERFLOW``.  A solved column is off by ``u kappa ||G||`` times the norm
    of its right-hand side, as a solve's backward error ``p(n) eps ||M||``
    (``p(n)`` a modest multiple of ``n``, as partial pivoting's growth factor
    is in practice) is amplified by the condition number, and so is the
    forward-stable adjugate: ``||X - G|| <= u kappa ||G||``, and ``X B2``,
    solved against ``B2``, is within the bound of a product with ``X``.

    * A computed row's ``sigma_1`` against the exact one (``s``): it is the
      exact one of a pencil perturbed by the assembly (``(2 m + 2) eps`` times
      the entries' sums: each entry is a sum of at most ``2 m + 2`` products,
      which that bounds in any order of summation, so also in the 2-D product
      of ``n <= 2`` pencils) and by the solve's backward error, plus the
      roundoff of ``C2 X`` and of the singular values.
    * ``T(c)`` from the same solve (``s``).
    * The ``J_i`` from ``C2 X`` and ``X B2``, each off by ``2.001 u kappa
      ||A22[i]|| ||G||^2 ||C2|| ||B2||``: ``2.001 q s <= 1.001 s`` over the
      vertex model, and at most ``r_i / 2 <= 1.6`` times that over the phase.
    * The vertex sums, their phases and their ``sigma_1`` (``s``).

    ``||G||_F``, ``||C2 G||_F`` and ``||G B2||_F`` carry the relative error
    of ``X`` (``u kappa <= 1e-3``), the ``||J_i||_F`` the roundoff of their
    sums, and ``r`` the rounding of the grid points: a factor 1.01 on each
    covers it.  ``_UNDERFLOW`` covers squares of tiny entries that
    underflow.  ``u kappa <= 1e-3`` puts ``kappa`` below ``2.5e10``, far below
    ``1 / RCOND_MIN``, so the sampler (whose test is one-sided) flags no point
    of the cell.
    """
    n, m = dec.nu, dec.m
    B2, C2, A = dec.B2, dec.C2, np.concatenate(dec.A22[1:], axis=1)
    outs, ins = len(C2), B2.shape[1]
    a = np.array([_spectral_norm(Ai) for Ai in dec.A22])
    c2, b2 = _frobenius(C2[None])[0], _frobenius(B2[None])[0]
    u = _ROUNDING_SLACK * (n + m) * np.finfo(float).eps
    signs = 1.0 - 2.0 * ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1)  # (2^m, m) vertices
    # columns of n entries per cell: the pencil, the vertex stack, C2 G [A22[1] .. A22[m]],
    # G B2 and C2 G, thrice, as the products' temporaries peak at 2.0-3.4 times these
    rhs = 3 * (n - (-(2 ** m) * outs * ins // n) + m * outs + ins + outs) - n
    Bw, Cw = np.concatenate([B2, np.eye(n)], axis=1), np.concatenate([C2, np.eye(n)])

    def chunk(M, c, r):
        W, ok, _ = _transfer(M, Bw, Cw)  # [[T(c), C2 G], [G B2, G]] at the passing centres
        T, CX, XB, X = W[:, :outs, :ins], W[:, :outs, ins:], W[:, outs:, :ins], W[:, outs:, ins:]
        value = _sigma_chunk(T, ok)[0]
        bound, q_all = np.full(len(M), np.inf), np.full(len(M), np.inf)
        c, r, K = c[ok], 1.01 * r[ok], len(W)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            CXA = (CX.reshape(-1, n) @ A).reshape(K, outs * m, n)
            P = (CXA @ XB).reshape(K, outs, m, ins).transpose(0, 2, 1, 3).reshape(K, m, outs * ins)
            D = np.empty(r.shape, dtype=complex)  # r_i J_i = D_i C2 G A22[i] G B2
            D.real, D.imag = -r * np.sin(c), -r * np.cos(c)
            S = (D[:, :, None] * P).transpose(1, 0, 2).reshape(m, K * outs * ins)
            nv = len(signs)
            vertices = (signs @ S).reshape(nv, K, outs * ins) + T.reshape(K, outs * ins)
            top = _singular_values(vertices.reshape(nv * K, outs, ins))[:, 0].reshape(nv, K).max(0)
            ginv = 1.01 * _frobenius(X)
            cg = 1.01 * _frobenius(CX)
            gb = 1.01 * _frobenius(XB)
            phase = 1.01 * _frobenius(P.reshape(K * m, outs, ins)).reshape(K, m)
            delta = r @ a[1:]
            q = delta * ginv
            G = ginv / (1.0 - q)
            kappa = a.sum() * G
            cell = (top + (phase * r * r).sum(1) / 2
                    + cg * delta * delta * ginv * gb / (1.0 - q)
                    + 6.0 * u * kappa * c2 * G * b2 + _UNDERFLOW)
            cell[~((q <= 0.5) & (u * kappa <= 1e-3))] = np.inf
        bound[ok], q_all[ok] = cell, q
        return value[:, 0], bound, q_all

    def bounds(centres, r):
        done = 0

        def at(M):  # _pencil_map's chunks run in order over the centres
            nonlocal done
            sl = slice(done, done + len(M))
            done = sl.stop
            return chunk(M, centres[sl], r[sl])

        parts = _pencil_map(at, dec.pencil_basis, thetas=centres, rhs=rhs)
        return tuple(np.concatenate(x) for x in zip(*parts))

    return bounds


def _frobenius(X) -> np.ndarray:
    """An upper bound of the Frobenius norm of each matrix of a stack, to rounding.

    A square that underflows loses less than the smallest normal number, which
    is added back for each; one that overflows gives ``inf``.
    """
    V = np.ascontiguousarray(X)
    V = V.view(np.float64) if np.iscomplexobj(V) else V
    V = V.reshape(len(V), math.prod(V.shape[1:]))
    return np.sqrt(np.einsum("ki,ki->k", V, V) + V.shape[1] * np.finfo(float).tiny)


def _ascent(f, x, best, delta, r, tol, lo=None, hi=None):
    """Trust-region ascent of ``f`` from the starts ``x`` (K, m), where it is ``best``.

    ``f`` maps points (N, m) to values (N,), ``-inf`` where singular.  The K
    starts run in lockstep, so each iteration is one ``f`` call, whatever K.
    A quadratic model at a point comes from its value and the ``m (m + 3) /
    2``-point stencil ``x +- r e_i``, ``x + r (e_i + e_j)`` (``i < j``):
    central differences give its gradient, second and mixed differences its
    Hessian.  The candidate maximises the model within the trust radius, at
    first ``delta`` (see :func:`_trust_step`), and is clipped to ``[lo,
    hi]`` when these are given.  One call holds every live start's candidate
    with its own stencil, which is the next model once the candidate is
    accepted.  Only strict improvements are accepted, so the values never
    fall below ``best``.  An accepted step that reaches the trust radius
    doubles it (up to pi), so the ascent follows ridges far narrower than
    their length; a rejected step sets it to a quarter of the step's length.
    A start stops when its step or trust radius falls below ``tol`` or a
    stencil point is singular, and all stop after ``_MAX_ASCENT`` calls.
    Returns the points, their values and the number of calls.
    """
    x, best = np.array(x, dtype=float), np.array(best, dtype=float)
    K, m = x.shape
    eye = np.eye(m)
    i, j = np.triu_indices(m, 1)
    offsets = r * np.concatenate([eye, -eye, eye[i] + eye[j]])
    values = f((x[:, None] + offsets).reshape(-1, m)).reshape(K, -1)
    delta = np.full(K, float(delta))
    live = np.isfinite(values).all(axis=1)
    calls = 1
    while calls < _MAX_ASCENT and (k := np.nonzero(live)[0]).size:
        plus, minus, mixed = values[k, :m], values[k, m:2 * m], values[k, 2 * m:]
        centre = best[k, None]
        hess = np.zeros((k.size, m, m))
        hess[:, np.arange(m), np.arange(m)] = plus - 2.0 * centre + minus
        hess[:, i, j] = hess[:, j, i] = mixed - plus[:, i] - plus[:, j] + centre
        step = _trust_step((plus - minus) / (2.0 * r), hess / (r * r), delta[k])
        trial = x[k] + step
        if lo is not None:
            trial = np.clip(trial, lo[k], hi[k])
            step = trial - x[k]
        length = np.linalg.norm(step, axis=1)
        moving = length >= tol
        live[k[~moving]] = False
        if not moving.any():
            break
        k, trial, length = k[moving], trial[moving], length[moving]
        out = f((trial[:, None] + np.vstack([np.zeros(m), offsets])).reshape(-1, m))
        out = out.reshape(k.size, -1)
        calls += 1
        up = out[:, 0] > best[k]
        a, b = k[up], k[~up]
        x[a], best[a], values[a] = trial[up], out[up, 0], out[up, 1:]
        live[a] = np.isfinite(values[a]).all(axis=1)
        wide = a[length[up] >= 0.9 * delta[a]]
        delta[wide] = np.minimum(2.0 * delta[wide], np.pi)
        delta[b] = 0.25 * length[~up]
        live[b] = delta[b] >= tol
    return x, best, calls


def _trust_step(grad, hess, delta):
    """Maximiser of each model ``grad[k] . s + s . hess[k] . s / 2`` on ``|s| <= delta[k]``.

    The Newton step when ``hess`` is negative definite and the step fits.  At
    a critical point with positive curvature (the hard case, say a start at
    a frequency of 0, where ``sigma_1`` is even) the step of length ``delta``
    along the top eigenvector; at one without, no step.  Otherwise ``s =
    (lam I - hess)^{-1} grad`` with ``lam > max(0, lambda_max(hess))``
    bisected, on these rows only, until ``0.9 delta <= |s| <= delta``, or for
    60 halvings, which ends with ``|s| <= delta`` when ``grad`` is nearly
    orthogonal to the top eigenvector.
    """
    w, Q = np.linalg.eigh(hess)
    c = np.matmul(grad[:, None], Q)[:, 0]  # Q^T grad per row
    top = w[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -c / w
    newton = (top < 0.0) & (np.linalg.norm(s, axis=1) <= delta)
    s[~newton] = 0.0
    g = np.linalg.norm(grad, axis=1)
    hard = ~newton & ~(g > 0.0) & (top > 0.0)
    s[hard, -1] = delta[hard]
    if (b := np.nonzero(~newton & (g > 0.0))[0]).size:
        c, w, delta = c[b], w[b], delta[b]
        lo = np.maximum(top[b], 0.0)
        hi = lo + g[b] / delta  # |s(hi)| <= |c| / (hi - lambda_max) = delta
        sb = c / (hi[:, None] - w)
        for _ in range(60):
            if not (short := np.linalg.norm(sb, axis=1) < 0.9 * delta).any():
                break
            lam = 0.5 * (lo + hi)
            t = c / (lam[:, None] - w)
            over = np.linalg.norm(t, axis=1) > delta
            lo = np.where(short & over, lam, lo)
            fit = short & ~over
            hi = np.where(fit, lam, hi)
            sb[fit] = t[fit]
        s[b] = sb
    return np.matmul(Q, s[..., None])[..., 0]


def strong_norm_Ta(dec: BlockDecomposition) -> NormResult:
    """Strong H-infinity norm of the asymptotic transfer function.

    Equals the maximum of ``sigma_1`` of the torus function over
    ``[0, 2*pi]^m`` -- the smallest upper bound of ``||T_a||_inf`` that is
    insensitive to arbitrarily small delay perturbations.  Because the torus
    sweep ranges over all phase combinations, the result is independent of
    the delay values; delays are deliberately not an argument.

    A uniform grid of ``g = min(400, 2 ** (18 // m))`` points per dimension
    (400, 400, 64, 16, 8, 8, 4 and 4 for m = 1..8, never more than ``2**18``
    points) seeds a trust-region ascent on quadratic models from
    difference stencils (:func:`_ascent`), one sampler call per
    iteration, that runs until its step is below ``_REFINE_TOL`` (1e-8);
    ``diagnostics["refine_cycles"]`` counts its iterations.  The result is at
    least the grid maximum, ``diagnostics["grid_max"]``, and ``abs_tol``
    covers the difference.  Since ``sigma_1`` takes the same value
    at ``theta`` and ``-theta``, the grid holds one point of each such pair,
    the lexicographically smaller (about half the points).  Grid points
    tie-break to the lexicographically smallest torus point, as on the full
    grid.  The sweep skips the rows that a second-order cell bound
    (:func:`_cell_bounds`, which flags no row of a cell it bounds) proves to
    compute below the grid maximum, in rounds of dyadic cells
    (:func:`_cell_rounds`, :func:`_sweep_widths`) that split only the cells
    still open; the grid maximum, its first occurrence, the first singular
    torus matrix and so the whole result are those of the whole grid, bit for
    bit.  ``diagnostics["grid_points"]`` counts the rows swept and
    ``diagnostics["cells"]`` the cells bounded in each round.

    Raises
    ------
    AssumptionError
        If the undelayed algebraic block is singular.
    DimensionError
        If the gamma_a grid (:attr:`BlockDecomposition.gamma_a`) has more
        than ``2**24`` points, as it has for m >= 9 delays.
    UnboundedNormError
        If a singular torus matrix is encountered (gamma_a >= 1 regime), also
        the constant one of a system without delays.
    """
    return _torus_maximum(dec, min(400, 2 ** (18 // max(dec.m, 1))))


def _torus_maximum(dec: BlockDecomposition, g: int) -> NormResult:
    """:func:`strong_norm_Ta` on a grid of ``g`` points per dimension."""
    m = dec.m
    if dec.nu == 0:
        return NormResult(
            value=0.0, attained_at=tuple([0.0] * m), branch=BRANCH_ASYMPTOTIC,
            abs_tol=0.0, rel_tol=1e-12,
            diagnostics={"note": "nonsingular E: asymptotic transfer function is zero"},
        )
    gamma_a = dec.gamma_a
    if gamma_a >= 1.0:
        warnings.warn(
            f"gamma_a={gamma_a:.4f} >= 1: strong norm of T_a may be unbounded",
            RuntimeWarning,
            stacklevel=3,
        )
    if m == 0:
        sig, ok = sigma_Ta_torus_samples(dec, np.zeros((1, 0)))
        if not ok[0]:
            raise UnboundedNormError("torus matrix singular at theta=(); the delay-difference "
                                     "part is not strongly stable")
        value = float(sig[0, 0])
        return NormResult(
            value=value, attained_at=(), branch=BRANCH_ASYMPTOTIC,
            abs_tol=1e-12 * max(value, 1.0), rel_tol=1e-12,
            diagnostics={"gamma_a": gamma_a, "note": "no delays: constant T_a"},
        )
    thetas, cells = _cell_rounds(m, g, _sweep_widths(dec), _cell_bounds(dec))
    sig, ok = sigma_Ta_torus_samples(dec, thetas)
    if not ok.all():
        j = int(np.argmax(~ok))
        raise UnboundedNormError(
            f"torus matrix singular at theta={tuple(thetas[j].tolist())}; "
            "the delay-difference part is not strongly stable"
        )
    values = sig[:, 0]
    i_best = int(np.argmax(values))  # first occurrence = lexicographically smallest
    grid_max = float(values[i_best])
    [theta], [best], cycles = _ascent(
        lambda t: _sigma1(sigma_Ta_torus_samples, dec, t), thetas[i_best:i_best + 1], [grid_max],
        2.0 * np.pi / g, _STENCIL_RADIUS, _REFINE_TOL)
    theta = np.mod(theta, 2.0 * np.pi)
    return NormResult(
        value=best,
        attained_at=tuple(float(t) for t in theta),
        branch=BRANCH_ASYMPTOTIC,
        abs_tol=max(best - grid_max, 0.0) + 1e-12 * max(best, 1.0),
        rel_tol=1e-12,
        diagnostics={
            "grid_per_dim": g,
            "grid_points": len(thetas),
            "cells": cells,
            "grid_max": grid_max,
            "refine_cycles": cycles,
            "gamma_a": gamma_a,
        },
    )


def _block_norm_sums(dec: BlockDecomposition):
    a11 = sum(_spectral_norm(M) for M in dec.A11)
    a12 = sum(_spectral_norm(M) for M in dec.A12)
    a21 = sum(_spectral_norm(M) for M in dec.A21)
    a22 = sum(_spectral_norm(M) for M in dec.A22)
    return a11, a12, a21, a22


@dataclass(frozen=True)
class _BoundParams:
    e: float          # sigma_min(E11)
    a11: float
    K: float          # constant of the O(1/omega) envelope
    omega_valid: float  # validity threshold of the Schur expansion
    scale: float      # summed block norms over e: the frequency scale of the scan


_BOUND_PARAMS = weakref.WeakKeyDictionary()  # _bound_params per decomposition


def _bound_params(dec: BlockDecomposition) -> _BoundParams:
    """Constants of the high-frequency envelope sigma_1(T - T_a) <= K / (w*e - a11).

    Derived from the two-by-two block form of the transfer function: the
    differential-block resolvent decays like ``1/(w*e - a11)`` while the
    algebraic block stays bounded by ``beta = _BOUND_SAFETY / min_theta
    sigma_min(-A22(theta))``; the Schur-complement correction terms are valid
    once ``beta * a21 * a12 / (w*e - a11) <= 1/2``.  Needs gamma_a < 1; beta is 0
    without an algebraic part, and for nd = 0, where T = T_a needs no envelope.
    Computed once per decomposition; the gamma_a test runs on every call.
    """
    if (gamma_a := check_difference_stability(dec)) >= 1.0:
        raise UnboundedNormError(f"gamma_a={gamma_a:.4f} >= 1: no finite frequency bound exists")
    if (params := _BOUND_PARAMS.get(dec)) is not None:
        return params
    e = _sigma_min(dec.E11)
    a11, a12, a21, a22 = _block_norm_sums(dec)
    scale = (a11 + a12 + a21 + a22) / e if e > 0.0 else 0.0
    c1 = _spectral_norm(dec.C1)
    c2 = _spectral_norm(dec.C2)
    b1 = _spectral_norm(dec.B1)
    b2 = _spectral_norm(dec.B2)
    smin = dec.torus_sigma_min if dec.nu and dec.nd else math.inf
    if smin <= 0.0:
        raise UnboundedNormError("torus matrix singular: no finite frequency bound")
    beta = _BOUND_SAFETY / smin
    coupling = a21 * a12
    omega_valid = (2.0 * beta * coupling + a11) / e if e else math.inf
    r_valid = 1.0 / (2.0 * beta * coupling) if coupling > 0.0 else 0.0
    K = (
        c1 * b1
        + 2.0 * beta * (c1 * a12 * b2 + c2 * a21 * b1)
        + 2.0 * beta * beta * c2 * coupling * b2
        + 2.0 * beta * c1 * coupling * b1 * r_valid
    )
    _BOUND_PARAMS[dec] = _BoundParams(e=e, a11=a11, K=K, omega_valid=omega_valid, scale=scale)
    return _BOUND_PARAMS[dec]


def _bound_value_at(params: _BoundParams, omega: float) -> float:
    if params.e <= 0.0 or omega <= params.omega_valid or omega * params.e <= params.a11:
        return math.inf
    return params.K / (omega * params.e - params.a11)


def _omega_cap(params: _BoundParams, gamma: float) -> float:
    """The cap of :func:`frequency_bound` from bound parameters in hand."""
    if params.e == 0.0:
        return 0.0  # no differential part: T coincides with T_a
    return max(params.omega_valid, (params.K / gamma + params.a11) / params.e)


def frequency_bound(dec: BlockDecomposition, tau, gamma: float) -> float:
    """Frequency cap Omega with ``sigma_1(T(jw) - T_a(jw)) < gamma`` for w > Omega.

    The bound decays like ``O(1/w)``; the torus resolvent estimate is
    inflated by a safety factor of 2.  Larger gamma gives a smaller cap,
    down to the validity threshold of the underlying expansion.  ``tau`` is
    not used: the cap depends on the coefficient matrices only.

    Raises
    ------
    UnboundedNormError
        If the delay-difference part is not strongly stable (gamma_a >= 1):
        no finite bound exists.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return _omega_cap(_bound_params(dec), gamma)


def _tail_sup_Ta(dec: BlockDecomposition, tau: np.ndarray, step: float, max_points: int):
    """``s``, the period of ``sigma_1(T_a(jw))``, its supremum and the sweep's sizes.

    The denominator ``s`` is the smallest integer up to ``COMMENSURATE_S_CAP`` with every
    ``tau_i`` within tolerance of some ``n_i / s``, or ``None``.  The curve
    then has period ``2*pi*s`` (``2*pi / tau_1`` for one delay, whatever
    ``s``), and the supremum is the polished maximum over one period.  It is
    ``None``, and no sample is taken, without a period or when one period
    needs more than ``max_points`` samples: the strong norm of T_a bounds it.
    Of the period's ``npts`` samples ``k * h`` only the first ``npts // 2 + 1``
    are grid samples: ``T_a(-jw)`` is the conjugate of ``T_a(jw)``, so samples
    ``k`` and ``npts - k`` are mirror images (exactly for one delay, within
    ``COMMENSURATE_REL_TOL`` otherwise, as the period itself).  The sweep
    passes ``h`` to the sampler as its ``step``, and for ``nu <= 2`` skips
    the cells whose bound lies below its running maximum (see
    :func:`_cell_sweep`), so the first maximum, the polish's start, and the
    first singular sample are the whole grid's.  Returns ``(s, period, sup,
    points, samples)``: the grid's size and the samples taken, not those of
    the polish (one sample without delays, none when nothing is sampled).
    """
    if dec.nu == 0:
        return None, None, 0.0, 0, 0
    if dec.m == 0:
        return None, None, float(_sigma1(sigma_Ta_samples, dec, np.zeros(1), tau)[0]), 1, 1
    s = _common_denominator(tau)
    if dec.m == 1:
        period = 2.0 * math.pi / float(tau[0])
    elif s is not None:
        period = 2.0 * math.pi * s
    else:
        return s, None, None, 0, 0
    npts = max(int(period / step) + 1, 512)
    if npts > max_points:
        return s, period, None, 0, 0
    omegas = np.linspace(0.0, period, npts, endpoint=False)[:npts // 2 + 1]
    h = omegas[1]
    sigma1, bad, taken = _cell_sweep(
        lambda w: sigma_Ta_samples(dec, w, tau, step=h),
        lambda: _frequency_cell_bound(dec.pencil_basis, dec.A22, None, dec.B2, dec.C2, tau),
        omegas, h, lambda top: top)
    if bad is not None:
        raise UnboundedNormError(
            f"A22(j*omega) singular at omega={bad:.6g}: difference part unstable"
        )
    i = int(np.argmax(sigma1))
    [_], [v], _ = _frequency_ascent(sigma_Ta_samples, dec, tau, omegas[i:i + 1],
                                    sigma1[i:i + 1], h)
    return s, period, float(v), len(omegas), taken


def _common_denominator(tau) -> int | None:
    """The smallest integer ``s`` up to ``COMMENSURATE_S_CAP`` with every ``tau_i s``
    within ``COMMENSURATE_REL_TOL`` (relative) of an integer, or ``None``.

    The candidates are tested in blocks of ``_S_BLOCK``, ``2 _S_BLOCK``, ...
    of them, stopping at the first block with a hit, so a small ``s`` costs a
    small table.  Each candidate's test is elementwise, the same in any block.
    """
    lo, width = 1, _S_BLOCK
    while lo <= COMMENSURATE_S_CAP:
        hi = min(lo + width, COMMENSURATE_S_CAP + 1)
        prods = tau[:, None] * np.arange(lo, hi)
        near = np.abs(prods - np.round(prods)) <= COMMENSURATE_REL_TOL * np.maximum(1.0, prods)
        hits = np.flatnonzero(near.all(axis=0))
        if hits.size:
            return lo + int(hits[0])
        lo, width = hi, 2 * width
    return None


def _frequency_ascent(sample, system, tau, omegas, values, h):
    """:func:`_ascent` of ``sigma_1`` from the frequencies ``omegas``, where it is
    ``values``, each within ``h`` of its start (and at ``w >= 0``)."""
    w = omegas[:, None]
    w, v, calls = _ascent(lambda x: _sigma1(sample, system, x[:, 0], tau), w, values, h,
                          1e-5 * h, 1e-10, np.maximum(w - h, 0.0), w + h)
    return w[:, 0], v, calls


def _cell_sweep(sample, bound, grid, h, floor):
    """``sigma_1`` of ``sample`` on ``grid``, except in cells that ``bound`` puts below ``floor``.

    ``grid`` holds consecutive samples ``k h`` of a uniform sweep and
    ``sample`` maps frequencies to a sampler's ``(sigmas, ok)``.  ``bound()``
    gives a map of :func:`ddaenorm.response._frequency_cell_bound`, or None;
    it is called only for a grid of at least ``_MIN_CELLS`` cells.  The cells
    are the runs of ``_CELL_SAMPLES`` samples centred on the multiples of
    ``_CELL_SAMPLES`` (in ``k``) that lie within the grid, so the samples
    next to ``w = 0`` are in none.  The centres are sampled first, in one
    call; ``floor`` maps their largest ``sigma_1`` to a level, and each cell
    whose bound lies below it, at a centre that passed, is skipped.  The
    other samples are taken in one more call.  The bound is taken at the
    centres ``j (_CELL_SAMPLES h)``, which differ from the grid's ``k h`` by
    rounding only, and its radius covers that rounding.  A cell with a finite
    bound holds no sample that the sampler could flag, so the first flagged
    sample taken is the grid's first.

    Below ``_MIN_CELLS`` cells the whole grid is sampled in one call.  The
    pruner's fixed cost, a second sampler call and the bound's own, is
    about 0.2 ms (2-vCPU host): on SYS-A's and SYS-B's scans and tails it
    broke even between 8,000 and 16,000 samples (medians of 41 calls), and
    saved 26-52% from 32,000 on.

    Returns ``sigma_1`` (``-inf`` at the skipped samples), the first flagged
    frequency (None when no sample is flagged) and the number of samples
    taken.
    """
    N, L = len(grid), _CELL_SAMPLES
    half = L // 2
    k0 = round(float(grid[0]) / h) if N else 0
    j = np.arange(-(-(k0 + half) // L), (k0 + N - half) // L)  # cells within the grid
    if j.size < _MIN_CELLS or (bound := bound()) is None:
        sig, ok = sample(grid)
        return sig[:, 0], _first(grid, ok), N
    at = j * L - k0  # the centres' places in the grid
    sig, ok = sample(grid[at])
    sigma1 = np.full(N, -np.inf)
    sigma1[at], bad = sig[:, 0], _first(grid[at], ok)
    level = floor(float(sig[ok, 0].max(initial=-np.inf)))
    r = half * h + 4.0 * np.finfo(float).eps * float(grid[-1])
    kept = at[~((bound(j * (L * h), r, L * h) < level) & ok)]
    rest = np.concatenate([np.arange(at[0] - half),  # before the cells, the open cells, after
                           (kept[:, None] + np.r_[-half:0, 1:half + 1]).ravel(),
                           np.arange(at[-1] + half + 1, N)])
    if rest.size:
        sig, ok = sample(grid[rest])
        sigma1[rest] = sig[:, 0]
        if (more := _first(grid[rest], ok)) is not None:
            bad = more if bad is None else min(bad, more)
    return sigma1, bad, at.size + rest.size


def _first(grid, ok):
    """The first frequency of ``grid`` that ``ok`` flags, or None."""
    return None if ok.all() else float(grid[np.argmin(ok)])


def _local_max_indices(values: np.ndarray) -> np.ndarray:
    if values.size == 1:
        return np.array([0])
    left = np.empty(values.size, dtype=bool)
    right = np.empty(values.size, dtype=bool)
    left[0] = True
    left[1:] = values[1:] >= values[:-1]
    right[-1] = True
    right[:-1] = values[:-1] >= values[1:]
    return np.nonzero(left & right)[0]


def _scan(scan, cap, step, lobe, omega_low, period, max_points):
    """Scan ``sigma_1`` on the grid ``k * step`` only as far as the tail certificate needs.

    ``scan`` evaluates grid points (``np.arange(0, upto, step)`` is exactly
    ``k * step``, so it may pass ``step`` to a sampler), ``-inf`` where it
    proves a sample below the level that matters; ``cap`` maps a grid
    maximum, a lower bound of the supremum, to a valid certified cap (``inf``
    if none).  The floors are ``omega_low``, 20 lobes and two periods of
    ``T_a`` (1,000 lobes for incommensurate delays), cut to ``max_points``.
    The grid grows in segments, each continuing the one before: first to the
    nearer of 20 lobes (``omega_low`` without delays) and the floors, where a
    cap within the floors certifies the tail once the scan reaches it;
    otherwise to the floors, where a cap within ``max_points`` does.  Returns
    the grid, its ``sigma_1``, the scan's extent, the cap (``None`` for an
    uncertified tail) and whether ``max_points`` cut that tail's scan.
    """
    floors = omega_low
    if lobe:
        floors = max(floors, 20.0 * lobe, 2.05 * period if period else 1000.0 * lobe)
    truncated = floors / step > max_points
    floors = step * max_points if truncated else floors
    first = min(20.0 * lobe if lobe else omega_low, floors)

    def grow(sigma1, upto):
        grid = np.arange(0.0, upto, step)
        return grid, np.concatenate([sigma1, scan(grid[sigma1.size:])])

    sigma1 = np.empty(0)
    for upto in (first, floors) if first < floors else (floors,):
        omegas, sigma1 = grow(sigma1, upto)
        omega_cap = cap(float(sigma1.max()))
        if omega_cap <= upto:
            return omegas, sigma1, upto, omega_cap, False
        if (omega_cap <= floors if upto < floors
                else (omega_cap - upto) / step + omegas.size <= max_points):
            omegas, sigma1 = grow(sigma1, omega_cap + step)
            return omegas, sigma1, omega_cap + step, omega_cap, False
    return omegas, sigma1, floors, None, truncated


def hinf_norm_T(
    sys: DdaeSystem,
    dec: BlockDecomposition | None = None,
    tau=None,
    *,
    bisect_tol: float = DEFAULT_BISECT_TOL,
    ta_result: NormResult | None = None,
) -> NormResult:
    """Plain H-infinity norm ``sup_{w >= 0} sigma_1(T(jw))`` for fixed delays.

    The search scans ``sigma_1`` on a delay-scale linear grid
    (``SCAN_DENSITY`` points per oscillation scale ``2*pi / sum(tau)``, at
    most ``MAX_SCAN_POINTS``; both are read at call time), then polishes the
    candidate peaks: the grid's local maxima within 2% (or ``8 * bisect_tol``)
    of its maximum, the 400 highest at most.  One batched trust-region
    ascent (:func:`_ascent`) polishes them all in lockstep, each within one
    grid step of its sample and from its sample's value, so every polished
    value is at least its sample and no scan sample lies above the global
    peak; the reported level is ``value * (1 + bisect_tol)``.  The scan
    covers 20 oscillation scales and then only as far as the rigorous
    frequency bound of its maximum, beyond which ``T`` cannot rise above
    that level.  Only when that bound is out of reach does it cover the
    low-frequency resonance range and -- for commensurate delays -- two full
    periods of the asymptotic part (see :func:`_scan`); if the bound is
    still out of reach there, the remaining tail uncertainty is reported in
    the diagnostics.  ``T_a``'s part of the tail is bounded by its supremum
    over one period (``diagnostics["ta_tail_sup"]``, see :func:`_tail_sup_Ta`)
    or, when that is ``None``, by its strong norm;
    ``diagnostics["ta_tail_points"]`` counts the grid of that sweep, which
    covers half the period, beside the scan's ``diagnostics["scan_points"]``.
    The scan and that sweep sample uniform grids, whose phases come from
    short tables (the samplers' ``step``).

    For ``n <= 2`` (the tail: ``nu <= 2``) both grids are pruned
    (:func:`_cell_sweep`) when a segment of the scan, or the tail's half
    period, holds at least ``_MIN_CELLS`` cells of ``_CELL_SAMPLES``
    samples: the cell centres are sampled first, and a cell is skipped when
    the closed-form bound of
    :func:`ddaenorm.response._frequency_cell_bound` puts every sample in it
    below ``(1 - capture)`` times the scan's running maximum (the tail's:
    below its running maximum), ``capture`` being the 2% (or ``8 *
    bisect_tol``) window of the candidate peaks.  A skipped sample could
    neither enter that window nor be a local maximum of it, nor lower the
    grid maximum, the first one of the tail or the first flagged sample
    (a cell is skipped only where the sampler can flag none), so every
    reported field is that of the whole grids, bit for bit.
    ``diagnostics["scan_samples"]`` and ``diagnostics["ta_tail_samples"]``
    count the samples taken; on SYS-A at delays (0.999, 2) they are 71,981 of
    393,469 and 17,201 of 95,969.
    ``diagnostics["iterations"]`` counts the ascent's sampler calls,
    ``diagnostics["kernel"]`` names the evaluator of ``T`` and
    ``diagnostics["delay_rank"]`` the rank of its delay channels (see
    :attr:`DdaeSystem.delay_channels`).

    Peaks whose values agree within ``bisect_tol`` (relative) are ties and the
    smallest frequency wins, so weakly separated recurring peaks yield the
    first, lowest-frequency attainment point.

    Raises
    ------
    ValueError
        ``bisect_tol`` is negative or NaN.
    AssumptionError
        Undelayed algebraic block singular.
    DimensionError
        The gamma_a grid has more than ``2**24`` points (m >= 9 delays, see
        :func:`strong_norm_Ta`).
    InstabilityError
        A characteristic root was detected on the scanned axis.
    UnboundedNormError
        gamma_a >= 1: the asymptotic branch dominates with no finite cap.
    """
    if not bisect_tol >= 0.0:
        raise ValueError(f"bisect_tol must be >= 0, got {bisect_tol!r}")
    if dec is None:
        dec = decompose(sys)
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    gamma_a = dec.gamma_a
    params = _bound_params(dec)
    ta = ta_result if ta_result is not None else strong_norm_Ta(dec)

    tau_sum = float(tau.sum())
    lobe = 2.0 * math.pi / tau_sum if tau_sum > 0.0 else None
    omega_low = 10.0 * (1.0 + params.scale)
    step = lobe / SCAN_DENSITY if lobe else omega_low / 10000.0

    s, period, ta_sup, ta_points, ta_samples = _tail_sup_Ta(dec, tau, step,
                                                            MAX_SCAN_POINTS // 2)
    # Rigorous tail cap: beyond it the response cannot rise above the level
    # of a grid maximum unless the asymptotic branch already dominates.
    tail_ub = ta.value if ta_sup is None else ta_sup * (1.0 + 1e-6)

    def cap(xi_grid):
        gamma_cap = xi_grid * (1.0 + bisect_tol) - tail_ub
        return _omega_cap(params, gamma_cap) if gamma_cap > 0.0 else math.inf

    capture = max(0.02, 8.0 * bisect_tol)
    bound = functools.cache(
        lambda: _frequency_cell_bound(sys.pencil_basis, sys.A, sys.E, sys.B, sys.C, tau))
    taken, best = 0, -math.inf

    def scan(grid):
        nonlocal taken, best
        sigma1, bad, count = _cell_sweep(lambda w: sigma_T_samples(sys, w, tau, step=step), bound,
                                         grid, step, lambda top: max(top, best) * (1.0 - capture))
        taken += count
        if bad is not None:
            raise InstabilityError(
                f"characteristic root detected on the imaginary axis near omega={bad:.6g}"
            )
        best = max(best, float(sigma1.max()))
        return sigma1

    omegas, sigma1, omega_scan, omega_cap, truncated = _scan(
        scan, cap, step, lobe, omega_low, period, MAX_SCAN_POINTS)
    tail_certified = omega_cap is not None
    omega_cap = omega_cap if tail_certified else omega_scan
    xi_grid = float(sigma1.max())

    idx = _local_max_indices(sigma1)
    idx = idx[sigma1[idx] >= xi_grid * (1.0 - capture)]
    if idx.size > 400:
        order = np.argsort(sigma1[idx])[::-1]
        idx = idx[order[:400]]
    w, v, iterations = _frequency_ascent(sigma_T_samples, sys, tau, omegas[idx], sigma1[idx],
                                         step)
    catalog = [(0.0, float(sigma1[0]))] + list(zip(w.tolist(), v.tolist()))
    xi = max(v for _, v in catalog)

    certified = xi * (1.0 + bisect_tol)
    window = xi * (1.0 - bisect_tol)
    eligible = [(w, v) for w, v in catalog if v >= window]
    w_sel, v_sel = min(eligible, key=lambda t: t[0])

    tail_gap = 0.0
    if not tail_certified:
        g_at = _bound_value_at(params, omega_scan)
        if ta_sup is not None:
            tail_gap = max(tail_ub + g_at - certified, 0.0)
        else:
            tail_gap = max(ta.value - certified, 0.0) + (g_at if math.isfinite(g_at) else 0.0)

    diagnostics = {
        "iterations": iterations,
        "scan_points": int(omegas.size),
        "scan_samples": taken,
        "scan_step": step,
        "omega_scan": omega_scan,
        "omega_cap": omega_cap,
        "gamma_a": gamma_a,
        "strong_ta": ta.value,
        "ta_tail_sup": ta_sup,
        "ta_tail_points": ta_points,
        "ta_tail_samples": ta_samples,
        "commensurate_s": s,
        "tail_certified": tail_certified,
        "tail_gap": tail_gap,
        "scan_truncated": truncated,
        "global_peak": xi,
        "kernel": sys.delay_channels.kernel,
        "delay_rank": sys.delay_channels.rank,
    }
    return NormResult(
        value=v_sel,
        attained_at=float(w_sel),
        branch=BRANCH_PLAIN,
        abs_tol=(certified - v_sel) + tail_gap,
        rel_tol=bisect_tol,
        diagnostics=diagnostics,
    )


def strong_hinf_norm_T(
    sys: DdaeSystem,
    dec: BlockDecomposition | None = None,
    tau=None,
    *,
    bisect_tol: float = DEFAULT_BISECT_TOL,
) -> NormResult:
    """Strong H-infinity norm: ``max(||T||_inf, strong norm of T_a)``.

    The result is exactly the maximum of the two component values.  The
    branch records which argument attained it; values that agree within the
    plain norm's relative tolerance are ties, resolved to the asymptotic
    branch with a tie flag in the diagnostics.  ``value + abs_tol`` is the
    larger of the components' own ``value + abs_tol``, so the plain branch's
    uncertainty (an uncertified tail, say) is kept when the asymptotic branch
    wins.  Unlike the plain norm, this quantity is continuous in the delay
    parameters.  ``bisect_tol`` is passed to :func:`hinf_norm_T`.
    """
    if dec is None:
        dec = decompose(sys)
    ta = strong_norm_Ta(dec)
    plain = hinf_norm_T(sys, dec, tau, bisect_tol=bisect_tol, ta_result=ta)
    value = max(plain.value, ta.value)
    tie = abs(plain.value - ta.value) <= plain.rel_tol * max(plain.value, ta.value)
    asymptotic = ta.value >= plain.value or tie
    chosen = ta if asymptotic else plain
    return NormResult(
        value=value,
        attained_at=chosen.attained_at,
        branch=BRANCH_ASYMPTOTIC if asymptotic else BRANCH_PLAIN,
        abs_tol=max(plain.value + plain.abs_tol, ta.value + ta.abs_tol) - value,
        rel_tol=chosen.rel_tol,
        diagnostics={
            "tie": tie,
            "plain": {"value": plain.value, "attained_at": plain.attained_at,
                      "abs_tol": plain.abs_tol},
            "asymptotic": {"value": ta.value, "attained_at": list(ta.attained_at)
                           if isinstance(ta.attained_at, tuple) else ta.attained_at},
            "plain_diagnostics": plain.diagnostics,
        },
    )
