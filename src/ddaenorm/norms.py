"""H-infinity norms of DDAE systems and the delay-insensitive strong variants.

Three quantities are computed:

* ``strong_norm_Ta`` -- the strong norm of the asymptotic transfer function,
  a maximum of ``sigma_1`` over the delay torus.  It does not depend on the
  delay values at all, which is why :class:`BlockDecomposition` (and not a
  system plus delays) is its input.
* ``hinf_norm_T`` -- the plain H-infinity norm of the transfer function for
  fixed delays, by dense scanning plus a level-set iteration with golden
  section polishing.
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

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    InstabilityError,
    UnboundedNormError,
)
from .response import (
    sigma_T_samples,
    sigma_Ta_samples,
    sigma_Ta_torus_samples,
)
from .system_model import (
    _ROUNDING_SLACK,
    _UNDERFLOW,
    BlockDecomposition,
    DdaeSystem,
    _pencil_map,
    _resolve_tau,
    _sigma_min,
    _spectral_norm,
    _torus_grid,
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
# Scan points per oscillation scale 2*pi/sum(tau) of the frequency response.
DEFAULT_SCAN_DENSITY = 64
DEFAULT_MAX_SCAN_POINTS = 2_000_000
# Commensurate-delay detection: smallest common denominator up to this cap.
COMMENSURATE_S_CAP = 20000
COMMENSURATE_REL_TOL = 1e-9

_MAX_LEVEL_ITER = 40
_MAX_DENSIFY = 3
# Inflation of the torus resolvent estimate in the high-frequency envelope.
_BOUND_SAFETY = 2.0
# The strong-norm sweep skips cells of _CELL grid steps per dimension that
# cannot hold its maximum (see _sweep_rows), on grids with m >= 2 delays and at
# least _PRUNE_MIN_G points per dimension; coarser grids are swept whole.
_CELL = 8
_PRUNE_MIN_G = 16 * _CELL


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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ULPS16 = 16.0 * float(np.finfo(float).eps)  # golden-section x tolerance floor, relative


def _golden_section_max(f, lo, hi, xtol):
    """Derivative-free maximization on the brackets ``[lo[k], hi[k]]`` in lockstep.

    ``f`` maps an array of points to an array of values.  The first call holds
    both ends and both interior points of every bracket; each later call holds
    the one new point of every bracket still wider than its x tolerance, so a
    search costs one ``f`` call per golden-section step, whatever the number
    of brackets.  Each bracket runs the scalar search on Python floats (same
    updates, strict ``>`` for the best point seen), so a single bracket costs
    what a scalar search would.  Returns the arrays of best points and values.
    The x tolerance is floored at a few ulps of the bracket location so the
    shrink loop terminates even when ``xtol`` is below floating resolution.
    """
    lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
    if not lo:
        return np.empty(0), np.empty(0)
    tol = [max(xtol, _ULPS16 * max(abs(l), abs(h), 1.0)) for l, h in zip(lo, hi)]
    a, b = lo[:], hi[:]
    x1 = [r - _INVPHI * (r - l) for l, r in zip(a, b)]
    x2 = [l + _INVPHI * (r - l) for l, r in zip(a, b)]
    f_lo, f_hi, f1, f2 = (v.tolist() for v in np.split(f(np.array(lo + hi + x1 + x2)), 4))
    best = [(r, fr) if fr > fl else (l, fl) for l, r, fl, fr in zip(lo, hi, f_lo, f_hi)]
    live = range(len(lo))
    while live := [k for k in live if b[k] - a[k] > tol[k]]:
        up = [f1[k] < f2[k] for k in live]
        for k, u in zip(live, up):
            if u:
                a[k], x1[k], f1[k] = x1[k], x2[k], f2[k]
                x2[k] = a[k] + _INVPHI * (b[k] - a[k])
            else:
                b[k], x2[k], f2[k] = x2[k], x1[k], f1[k]
                x1[k] = b[k] - _INVPHI * (b[k] - a[k])
        values = f(np.array([x2[k] if u else x1[k] for k, u in zip(live, up)])).tolist()
        for k, u, value in zip(live, up, values):
            if u:
                f2[k] = value
            else:
                f1[k] = value
            for x, fx in ((x1[k], f1[k]), (x2[k], f2[k])):
                if fx > best[k][1]:
                    best[k] = (x, fx)
    return np.array([x for x, _ in best]), np.array([fx for _, fx in best])


def _default_torus_points(m: int) -> int:
    if m <= 2:
        return 400
    if m == 3:
        return 64
    if m == 4:
        return 16
    raise ValueError(
        f"torus grids grow exponentially; pass grid_per_dim explicitly for m={m} > 4"
    )


def _sigma1(sample, system, points, *args) -> np.ndarray:
    """sigma_1 at ``points`` from a sampler, -inf where the pencil is singular."""
    sig, ok = sample(system, points, *args)
    return np.where(ok, sig[:, 0], -np.inf)


def _sweep_rows(dec: BlockDecomposition, g: int) -> np.ndarray:
    """The rows of ``_torus_grid(dec.m, g)`` that may hold the sweep's maximum.

    Returns the half-grid rows, in their order, whose computed ``sigma_1`` may
    reach the largest one, so that the grid maximum, its first occurrence and
    the first singular row are those of the whole grid, bit for bit.  Grids
    with ``m < 2`` or ``g < _PRUNE_MIN_G`` are returned whole.

    Cells of ``_CELL`` grid steps per dimension cover the full grid, each with
    a grid point ``c`` at its centre and every point within ``r_i`` steps of
    ``h = 2 pi / g`` in dimension ``i``; only cells that hold half-grid rows
    are used.  Norms are spectral norms, bounded by Frobenius norms where
    marked ``_F``.  The torus matrix ``M`` satisfies ``||M(theta) - M(c)|| <=
    delta = h sum_i r_i ||A22[i]||``, since ``|e^{-j theta} - e^{-j c}| <=
    |theta - c|``.  With ``G = ||M(c)^{-1}||_F`` and ``q = delta G <= 1/2``, the
    Neumann series gives, on every point of the cell,

        ``sigma_1(T(theta)) <= sigma_1(T(c)) + ||C2 M(c)^{-1}||_F delta
        ||M(c)^{-1} B2||_F / (1 - q)``,

    and ``kappa = a G / (1 - q)``, with ``a = sum_{i>=0} ||A22[i]|| >= ||M||``,
    bounds the condition number of ``M``.  ``sigma_1(T(c))`` is the sampler's
    value; the norms come from one batched ``inv``.  A cell is skipped when
    ``q <= 1/2``, ``u kappa <= 1e-3`` (``u = _ROUNDING_SLACK (n + m) eps``) and
    its bound plus twice the rounding slack and ``_UNDERFLOW`` lies below ``t``,
    the largest centre value on a half-grid row.  ``t`` is a value the sweep
    computes, so every skipped row computes below the sweep's maximum.

    Rounding.  A computed ``sigma_1`` is the exact one of a pencil perturbed by
    the assembly (``(2 m + 2) eps`` times the entries' sums) and by the
    solve's backward error (``p(n) eps ||M||``, ``p(n)`` a modest multiple of
    ``n``, as partial pivoting's growth factor is in practice), plus the
    roundoff of ``C2 X`` and of the singular values: at most ``u a
    ||C2||_F ||B2||_F ||M(theta)^{-1}||^2``, the slack, on every point of the
    cell.  Twice the slack covers the centre's value and the skipped row's.  The
    centre's norms come from a computed inverse, off by at most ``u kappa <=
    1e-3`` relative, and ``delta`` from rounded grid points: a factor 1.01 on
    ``delta`` and on the three norms covers both.  ``_UNDERFLOW`` covers
    squares of tiny entries that underflow in the sampler's singular values.

    Singular rows.  ``u kappa <= 1e-3`` puts ``kappa`` below ``2.5e10``, far
    below ``1 / RCOND_MIN``, so no row of a skipped cell can be flagged (the
    sampler's test is one-sided) and the first flagged row of the sweep is the
    whole grid's.  A cell whose centre is flagged is never skipped.
    """
    m = dec.m
    if m < 2 or g < _PRUNE_MIN_G:
        return _torus_grid(m, g)
    theta = 2.0 * np.pi * np.arange(g) / g
    lo = np.arange(0, g, _CELL)  # each block of _CELL indices per dimension
    size = np.minimum(lo + _CELL, g) - lo
    centre, radius = lo + size // 2, size // 2
    nb, nb0 = lo.size, g // 2 // _CELL + 1  # blocks; leading blocks holding half-grid rows
    blocks = np.stack(np.meshgrid(np.arange(nb0), *[np.arange(nb)] * (m - 1), indexing="ij"),
                      axis=-1).reshape(-1, m)
    index = centre[blocks]
    # The rows of _torus_grid: the first coordinate that is not its own mirror
    # lies in (0, pi), or every coordinate is its own mirror.
    i = np.arange(g)
    low, own = (0 < 2 * i) & (2 * i < g), (i == 0) | (2 * i == g)
    half = np.ones((), dtype=bool)
    for _ in range(m):
        half = low.reshape(-1, *[1] * half.ndim) | (own.reshape(-1, *[1] * half.ndim) & half)
    centres = theta[index]
    sig, ok = sigma_Ta_torus_samples(dec, centres)
    value = sig[:, 0]  # NaN where flagged
    t = np.max(value[half[tuple(index.T)] & ok], initial=-np.inf)

    n, B2, C2 = dec.nu, dec.B2, dec.C2
    inv_norms = np.full((len(centres), 3), np.nan)
    try:
        inv_norms[ok] = np.concatenate(_pencil_map(
            lambda M: _inverse_norms(M, B2, C2), dec.A22, thetas=centres[ok],
            rhs=n + B2.shape[1] + C2.shape[0]))
    except np.linalg.LinAlgError:  # an exactly singular pivot where the sampler saw none
        return _torus_grid(m, g)
    a = np.array([_spectral_norm(Ai) for Ai in dec.A22])
    c2, b2 = _frobenius(C2[None])[0], _frobenius(B2[None])[0]
    u = _ROUNDING_SLACK * (n + m) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = 1.01 * (2.0 * np.pi / g) * (radius[blocks] @ a[1:])
        ginv, cg, gb = 1.01 * inv_norms.T
        q = delta * ginv
        G = ginv / (1.0 - q)
        kappa = a.sum() * G
        bound = (value + cg * delta * gb / (1.0 - q)
                 + 2.0 * u * kappa * c2 * G * b2 + _UNDERFLOW)
        skip = (q <= 0.5) & (u * kappa <= 1e-3) & (bound < t)
    keep = (~skip).reshape(nb0, *[nb] * (m - 1))
    cell = np.arange(g) // _CELL
    rows = half & keep[np.ix_(np.minimum(cell, nb0 - 1), *[cell] * (m - 1))]
    return np.stack([theta[i] for i in np.nonzero(rows)], axis=1)


def _frobenius(X) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, without underflow or overflow in squares."""
    return np.hypot.reduce(np.abs(X).reshape(len(X), -1), axis=1, initial=0.0)


def _inverse_norms(M, B, C) -> np.ndarray:
    """``||M^{-1}||_F``, ``||C M^{-1}||_F`` and ``||M^{-1} B||_F`` per sample."""
    G = np.linalg.inv(M)
    return np.stack([_frobenius(G), _frobenius(C @ G), _frobenius(G @ B)], axis=1)


def strong_norm_Ta(
    dec: BlockDecomposition,
    grid_per_dim: int | None = None,
    refine_tol: float = 1e-8,
) -> NormResult:
    """Strong H-infinity norm of the asymptotic transfer function.

    Equals the maximum of ``sigma_1`` of the torus function over
    ``[0, 2*pi]^m`` -- the smallest upper bound of ``||T_a||_inf`` that is
    insensitive to arbitrarily small delay perturbations.  Because the torus
    sweep ranges over all phase combinations, the result is independent of
    the delay values; delays are deliberately not an argument.

    A uniform grid (``grid_per_dim`` points per dimension, default 400 for
    m <= 2, 64 for m = 3, 16 for m = 4, refusal beyond without an explicit
    override) seeds a coordinate-wise golden-section ascent that runs until
    the step is below ``refine_tol``.  Since ``sigma_1`` takes the same value
    at ``theta`` and ``-theta``, the grid holds one point of each such pair,
    the lexicographically smaller (about half the points).  Grid points
    tie-break to the lexicographically smallest torus point, as on the full
    grid.  On grids with m >= 2 and at least 128 points per dimension, the
    sweep skips the rows that a cell bound (:func:`_sweep_rows`) proves to
    compute below the grid maximum; the grid maximum, its location, the first
    singular torus matrix and so the whole result are those of the whole grid,
    bit for bit.  ``diagnostics["grid_points"]`` counts the rows swept.

    Raises
    ------
    AssumptionError
        If the undelayed algebraic block is singular.
    UnboundedNormError
        If a singular torus matrix is encountered (gamma_a >= 1 regime).
    """
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
            stacklevel=2,
        )
    if m == 0:
        value = float(_sigma1(sigma_Ta_torus_samples, dec, np.zeros((1, 0)))[0])
        return NormResult(
            value=value, attained_at=(), branch=BRANCH_ASYMPTOTIC,
            abs_tol=1e-12 * max(value, 1.0), rel_tol=1e-12,
            diagnostics={"gamma_a": gamma_a, "note": "no delays: constant T_a"},
        )
    g = grid_per_dim if grid_per_dim is not None else _default_torus_points(m)
    if g < 2:
        raise ValueError("grid_per_dim must be at least 2")
    thetas = _sweep_rows(dec, g)
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
    theta = thetas[i_best].copy()
    best = grid_max
    h = 2.0 * np.pi / g
    cycles = 0
    for cycles in range(1, 61):
        moved = 0.0
        for i in range(m):
            def f(t, _i=i):
                points = np.repeat(theta[None], t.size, axis=0)
                points[:, _i] = t
                return _sigma1(sigma_Ta_torus_samples, dec, points)
            [x], [fx] = _golden_section_max(f, [theta[i] - h], [theta[i] + h], refine_tol)
            if fx > best:
                moved = max(moved, abs(x - theta[i]))
                theta[i] = x
                best = float(fx)
        h = max(h * 0.5, 4.0 * refine_tol)
        if moved < refine_tol:
            break
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


def _bound_params(dec: BlockDecomposition) -> _BoundParams:
    """Constants of the high-frequency envelope sigma_1(T - T_a) <= K / (w*e - a11).

    Derived from the two-by-two block form of the transfer function: the
    differential-block resolvent decays like ``1/(w*e - a11)`` while the
    algebraic block stays bounded by ``beta = _BOUND_SAFETY / min_theta
    sigma_min(-A22(theta))``; the Schur-complement correction terms are valid
    once ``beta * a21 * a12 / (w*e - a11) <= 1/2``.  Needs gamma_a < 1; beta is 0
    without an algebraic part, and for nd = 0, where T = T_a needs no envelope.
    """
    if (gamma_a := check_difference_stability(dec)) >= 1.0:
        raise UnboundedNormError(f"gamma_a={gamma_a:.4f} >= 1: no finite frequency bound exists")
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
    return _BoundParams(e=e, a11=a11, K=K, omega_valid=omega_valid, scale=scale)


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


def _commensurate_denominator(tau: np.ndarray, s_cap: int = COMMENSURATE_S_CAP,
                              rel_tol: float = COMMENSURATE_REL_TOL):
    """Smallest s <= s_cap with every tau_i within tolerance of n_i / s, else None."""
    if tau.size == 0:
        return None
    svals = np.arange(1, s_cap + 1)
    prods = tau[:, None] * svals[None, :]
    err = np.abs(prods - np.round(prods))
    ok = (err <= rel_tol * np.maximum(1.0, prods)).all(axis=0)
    hits = np.nonzero(ok)[0]
    return int(svals[hits[0]]) if hits.size else None


def _tail_sup_Ta(dec: BlockDecomposition, tau: np.ndarray, step: float,
                 max_points: int) -> dict:
    """Supremum of sigma_1(T_a(jw)) over all frequencies.

    For commensurate delays ``n_i / s`` the curve is periodic with period
    ``2*pi*s`` and the supremum is the (refined) maximum over one period,
    marked exact.  Otherwise a budgeted sweep yields a lower bound; the
    strong norm of T_a is always an upper bound.
    """
    if dec.nu == 0:
        return {"value": 0.0, "omega": 0.0, "exact": True, "s": None, "period": None}
    if dec.m == 0:
        val = float(_sigma1(sigma_Ta_samples, dec, np.zeros(1), tau)[0])
        return {"value": val, "omega": 0.0, "exact": True, "s": None, "period": None}
    if dec.m == 1:
        # A single phase makes T_a periodic regardless of rationality.
        s = _commensurate_denominator(tau)
        period = 2.0 * math.pi / float(tau[0])
    elif (s := _commensurate_denominator(tau)) is not None:
        period = 2.0 * math.pi * s
    else:
        period = None
    if period is not None:
        npts = max(int(period / step) + 1, 512)
        exact = npts <= max_points
        if not exact:
            npts = max_points
        omegas = np.linspace(0.0, period, npts, endpoint=False)
    else:
        width = min(1000.0 * 2.0 * math.pi / float(tau.sum()), step * max_points)
        omegas = np.arange(0.0, width, step)
        exact = False
    sig, ok = sigma_Ta_samples(dec, omegas, tau)
    if not ok.all():
        bad = omegas[~ok][0]
        raise UnboundedNormError(
            f"A22(j*omega) singular at omega={bad:.6g}: difference part unstable"
        )
    i = int(np.argmax(sig[:, 0]))
    h = omegas[1] - omegas[0] if omegas.size > 1 else step
    [w], [v] = _golden_section_max(
        lambda x: _sigma1(sigma_Ta_samples, dec, x, tau),
        [max(omegas[i] - h, 0.0)], [omegas[i] + h], 1e-10,
    )
    return {"value": float(v), "omega": float(w), "exact": exact, "s": s, "period": period}


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


def _bisect_crossing(f, lo, hi, flo, xtol):
    """Locate a sign change of f on each bracket ``[lo[k], hi[k]]``, all in lockstep.

    ``flo`` holds the signs at ``lo``; ``f`` maps an array of points to an
    array of values, and each step evaluates the midpoints of the brackets
    still wider than ``xtol`` in one call (at most 60 steps).
    """
    lo, hi, pos = np.array(lo, dtype=float), np.array(hi, dtype=float), np.asarray(flo) > 0.0
    for _ in range(60):
        if not (open_ := np.nonzero(hi - lo > xtol)[0]).size:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        same = (f(mid) > 0.0) == pos[open_]
        lo[open_[same]], hi[open_[~same]] = mid[same], mid[~same]
    return 0.5 * (lo + hi)


def hinf_norm_T(
    sys: DdaeSystem,
    dec: BlockDecomposition | None = None,
    tau=None,
    *,
    bisect_tol: float = DEFAULT_BISECT_TOL,
    scan_density: int = DEFAULT_SCAN_DENSITY,
    max_scan_points: int = DEFAULT_MAX_SCAN_POINTS,
    max_iter: int = _MAX_LEVEL_ITER,
    rank_tol=None,
    ta_result: NormResult | None = None,
) -> NormResult:
    """Plain H-infinity norm ``sup_{w >= 0} sigma_1(T(jw))`` for fixed delays.

    The search scans ``sigma_1`` on a delay-scale linear grid (``scan_density``
    points per oscillation scale ``2*pi / sum(tau)``), covering at least the
    low-frequency resonance range and -- for commensurate delays -- two full
    periods of the asymptotic part, then polishes candidate peaks by golden
    section and certifies the level by a crossing search: the iteration stops
    once ``sigma_1`` nowhere crosses ``value * (1 + bisect_tol)``.  All peaks
    are polished, and all crossings of a level bisected, in lockstep: each
    step is one batched evaluation holding the next point of every open
    bracket, so the number of calls does not grow with the number of peaks.
    When the certified cap requires it (and the budget allows), the scan is
    extended to the rigorous frequency bound; otherwise the remaining tail
    uncertainty is reported in the diagnostics.

    Peaks whose values agree within ``bisect_tol`` (relative) are ties and the
    smallest frequency wins, so weakly separated recurring peaks yield the
    first, lowest-frequency attainment point.

    Raises
    ------
    ValueError
        An option is out of range: ``bisect_tol >= 0``, ``scan_density > 0``,
        ``max_scan_points >= 2`` and ``max_iter >= 1`` are required.
    AssumptionError
        Undelayed algebraic block singular.
    InstabilityError
        A characteristic root was detected on the scanned axis.
    UnboundedNormError
        gamma_a >= 1: the asymptotic branch dominates with no finite cap.
    ConvergenceError
        The level iteration exhausted its budget without certifying.
    """
    for name, value, rule, ok in (
        ("bisect_tol", bisect_tol, ">= 0", bisect_tol >= 0.0),
        ("scan_density", scan_density, "> 0", scan_density > 0),
        ("max_scan_points", max_scan_points, ">= 2", max_scan_points >= 2),
        ("max_iter", max_iter, ">= 1", max_iter >= 1),
    ):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    if dec is None:
        dec = decompose(sys) if rank_tol is None else decompose(sys, rank_tol)
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    gamma_a = dec.gamma_a
    params = _bound_params(dec)
    ta = ta_result if ta_result is not None else strong_norm_Ta(dec)

    tau_sum = float(tau.sum())
    lobe = 2.0 * math.pi / tau_sum if tau_sum > 0.0 else None
    omega_low = 10.0 * (1.0 + params.scale)
    step = lobe / scan_density if lobe else omega_low / 10000.0

    tail = _tail_sup_Ta(dec, tau, step, max_scan_points // 2)

    omega_scan = omega_low
    if tail["period"] is not None:
        # Two periods of T_a expose the recurring peak structure; the point
        # budget clamp below keeps huge periods affordable.
        omega_scan = max(omega_scan, 2.05 * tail["period"])
    elif lobe:
        omega_scan = max(omega_scan, 1000.0 * lobe)
    if lobe:
        omega_scan = max(omega_scan, 20.0 * lobe)
    truncated = False
    if omega_scan / step > max_scan_points:
        omega_scan = step * max_scan_points
        truncated = True

    def scan(grid):
        sig, ok = sigma_T_samples(sys, grid, tau)
        if not ok.all():
            w_bad = float(grid[~ok][0])
            raise InstabilityError(
                f"characteristic root detected on the imaginary axis near omega={w_bad:.6g}"
            )
        return sig[:, 0]

    omegas = np.arange(0.0, omega_scan, step)
    sigma1 = scan(omegas)
    xi_grid = float(sigma1.max())

    # Rigorous tail cap: beyond Omega_r the response cannot rise above the
    # current level unless the asymptotic branch already dominates.
    tail_ub = tail["value"] * (1.0 + 1e-6) if tail["exact"] else ta.value
    tail_certified = False
    omega_cap = omega_scan
    gamma_cap = xi_grid * (1.0 + bisect_tol) - tail_ub
    if gamma_cap > 0.0:
        omega_rig = _omega_cap(params, gamma_cap)
        if omega_rig <= omega_scan:
            tail_certified = True
            omega_cap = omega_rig
        elif (omega_rig - omega_scan) / step + omegas.size <= max_scan_points:
            ext = np.arange(omega_scan, omega_rig + step, step)
            omegas = np.concatenate([omegas, ext])
            sigma1 = np.concatenate([sigma1, scan(ext)])
            xi_grid = float(sigma1.max())
            omega_scan = float(omegas[-1]) + step
            tail_certified = True
            omega_cap = omega_rig

    def sigma_at(points):
        return _sigma1(sigma_T_samples, sys, points, tau)

    def refine_peaks(w_center, h):
        return _golden_section_max(sigma_at, np.maximum(w_center - h, 0.0), w_center + h, 1e-10)

    capture = max(0.02, 8.0 * bisect_tol)
    idx = _local_max_indices(sigma1)
    idx = idx[sigma1[idx] >= xi_grid * (1.0 - capture)]
    if idx.size > 400:
        order = np.argsort(sigma1[idx])[::-1]
        idx = idx[order[:400]]
    w, v = refine_peaks(omegas[idx], step)
    catalog = [(0.0, float(sigma1[0]))] + list(zip(w.tolist(), v.tolist()))
    xi = max(v for _, v in catalog)

    levels = [xi]
    crossings = []
    densify_left = _MAX_DENSIFY
    converged = False
    for iteration in range(1, max_iter + 1):
        level = xi * (1.0 + bisect_tol)
        above = sigma1 > level
        if not above.any():
            converged = True
            break
        # Bracket the crossings of the current level.
        flips = np.nonzero(above[:-1] != above[1:])[0]
        crossings = _bisect_crossing(lambda x: sigma_at(x) - level, omegas[flips],
                                     omegas[flips + 1], sigma1[flips] - level,
                                     step * 1e-3).tolist()
        if above[0]:
            crossings.insert(0, 0.0)
        if above[-1]:
            crossings.append(float(omegas[-1]))
        lo_w, hi_w = np.array(crossings[:-1:2]), np.array(crossings[1::2])
        mid = 0.5 * (lo_w + hi_w)
        v_mid = sigma_at(mid)
        w, v = refine_peaks(mid, np.maximum(0.5 * (hi_w - lo_w), step))
        w, v = np.where(v_mid > v, mid, w), np.where(v_mid > v, v_mid, v)
        catalog += zip(w.tolist(), v.tolist())
        new_xi = max(xi, float(v.max()))
        if new_xi > xi * (1.0 + 1e-12):
            xi = new_xi
            levels.append(xi)
            continue
        if densify_left > 0:
            densify_left -= 1
            step *= 0.5
            omegas = np.arange(0.0, omega_scan, step)
            sigma1 = scan(omegas)
            continue
        raise ConvergenceError(
            "level iteration stalled with crossings remaining; "
            f"level={xi:.6g}, crossings={len(crossings)}"
        )
    if not converged:
        raise ConvergenceError(f"no convergence within {max_iter} level iterations")

    certified = xi * (1.0 + bisect_tol)
    window = xi * (1.0 - bisect_tol)
    eligible = [(w, v) for w, v in catalog if v >= window]
    w_sel, v_sel = min(eligible, key=lambda t: t[0])

    tail_gap = 0.0
    if not tail_certified:
        g_at = _bound_value_at(params, omega_scan)
        if tail["exact"]:
            tail_gap = max(tail_ub + g_at - certified, 0.0)
        else:
            tail_gap = max(ta.value - certified, 0.0) + (g_at if math.isfinite(g_at) else 0.0)

    diagnostics = {
        "iterations": iteration,
        "scan_points": int(omegas.size),
        "scan_step": step,
        "omega_scan": omega_scan,
        "omega_cap": omega_cap,
        "levels": levels,
        "crossings": crossings,
        "gamma_a": gamma_a,
        "strong_ta": ta.value,
        "ta_tail_sup": tail["value"],
        "ta_tail_exact": tail["exact"],
        "commensurate_s": tail["s"],
        "tail_certified": tail_certified,
        "tail_gap": tail_gap,
        "scan_truncated": truncated,
        "global_peak": xi,
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
    grid_per_dim: int | None = None,
    refine_tol: float = 1e-8,
    **hinf_opts,
) -> NormResult:
    """Strong H-infinity norm: ``max(||T||_inf, strong norm of T_a)``.

    The result is exactly the maximum of the two component values.  The
    branch records which argument attained it; values that agree within the
    plain norm's relative tolerance are ties, resolved to the asymptotic
    branch with a tie flag in the diagnostics.  ``value + abs_tol`` is the
    larger of the components' own ``value + abs_tol``, so the plain branch's
    uncertainty (an uncertified tail, say) is kept when the asymptotic branch
    wins.  Unlike the plain norm, this quantity is continuous in the delay
    parameters.
    """
    if dec is None:
        rank_tol = hinf_opts.get("rank_tol")
        dec = decompose(sys) if rank_tol is None else decompose(sys, rank_tol)
    ta = strong_norm_Ta(dec, grid_per_dim=grid_per_dim, refine_tol=refine_tol)
    plain = hinf_norm_T(sys, dec, tau, ta_result=ta, **hinf_opts)
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
