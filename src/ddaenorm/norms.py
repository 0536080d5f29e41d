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

import json
import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InstabilityError, UnboundedNormError
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
    _integral,
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

# Step below which the strong-norm polish of a torus maximum stops.
_REFINE_TOL = 1e-8
# Stencil radius of that polish, and the sampler call cap of every ascent.
_STENCIL_RADIUS = 1e-5
_MAX_ASCENT = 60
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
            lambda M: _inverse_norms(M, B2, C2), dec.pencil_basis, thetas=centres[ok],
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


def strong_norm_Ta(
    dec: BlockDecomposition,
    grid_per_dim: int | None = None,
) -> NormResult:
    """Strong H-infinity norm of the asymptotic transfer function.

    Equals the maximum of ``sigma_1`` of the torus function over
    ``[0, 2*pi]^m`` -- the smallest upper bound of ``||T_a||_inf`` that is
    insensitive to arbitrarily small delay perturbations.  Because the torus
    sweep ranges over all phase combinations, the result is independent of
    the delay values; delays are deliberately not an argument.

    A uniform grid (``grid_per_dim`` points per dimension, default 400 for
    m <= 2, 64 for m = 3, 16 for m = 4, refusal beyond without an explicit
    override) seeds a trust-region ascent on quadratic models from
    difference stencils (:func:`_ascent`), one sampler call per
    iteration, that runs until its step is below ``_REFINE_TOL`` (1e-8);
    ``diagnostics["refine_cycles"]`` counts its iterations.  The result is at
    least the grid maximum, ``diagnostics["grid_max"]``, and ``abs_tol``
    covers the difference.  Since ``sigma_1`` takes the same value
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
    ValueError
        If ``grid_per_dim`` is not an integer of at least 2.
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
    if grid_per_dim is None:
        g = _default_torus_points(m)
    else:
        g = _integral("grid_per_dim", grid_per_dim)
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
    """The denominator ``s``, the period of ``sigma_1(T_a(jw))`` and its supremum.

    ``s`` is the smallest integer up to ``COMMENSURATE_S_CAP`` with every
    ``tau_i`` within tolerance of some ``n_i / s``, or ``None``.  The curve
    then has period ``2*pi*s`` (``2*pi / tau_1`` for one delay, whatever
    ``s``), and the supremum is the polished maximum over one period.  It is
    ``None``, and no sample is taken, without a period or when one period
    needs more than ``max_points`` samples: the strong norm of T_a bounds it.
    """
    if dec.nu == 0:
        return None, None, 0.0
    if dec.m == 0:
        return None, None, float(_sigma1(sigma_Ta_samples, dec, np.zeros(1), tau)[0])
    prods = tau[:, None] * np.arange(1, COMMENSURATE_S_CAP + 1)
    near = np.abs(prods - np.round(prods)) <= COMMENSURATE_REL_TOL * np.maximum(1.0, prods)
    hits = np.nonzero(near.all(axis=0))[0]
    s = int(hits[0]) + 1 if hits.size else None
    if dec.m == 1:
        period = 2.0 * math.pi / float(tau[0])
    elif s is not None:
        period = 2.0 * math.pi * s
    else:
        return s, None, None
    npts = max(int(period / step) + 1, 512)
    if npts > max_points:
        return s, period, None
    omegas = np.linspace(0.0, period, npts, endpoint=False)
    sig, ok = sigma_Ta_samples(dec, omegas, tau)
    if not ok.all():
        bad = omegas[~ok][0]
        raise UnboundedNormError(
            f"A22(j*omega) singular at omega={bad:.6g}: difference part unstable"
        )
    i = int(np.argmax(sig[:, 0]))
    [_], [v], _ = _frequency_ascent(sigma_Ta_samples, dec, tau, omegas[i:i + 1],
                                    sig[i:i + 1, 0], omegas[1])
    return s, period, float(v)


def _frequency_ascent(sample, system, tau, omegas, values, h):
    """:func:`_ascent` of ``sigma_1`` from the frequencies ``omegas``, where it is
    ``values``, each within ``h`` of its start (and at ``w >= 0``)."""
    w = omegas[:, None]
    w, v, calls = _ascent(lambda x: _sigma1(sample, system, x[:, 0], tau), w, values, h,
                          1e-5 * h, 1e-10, np.maximum(w - h, 0.0), w + h)
    return w[:, 0], v, calls


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

    ``scan`` evaluates grid points; ``cap`` maps a grid maximum, a lower bound
    of the supremum, to a valid certified cap (``inf`` if none).  The floors
    are ``omega_low``, 20 lobes and two periods of ``T_a`` (1,000 lobes for
    incommensurate delays), cut to ``max_points``.  The grid grows in
    segments, each continuing the one before: first to the nearer of 20 lobes
    (``omega_low`` without delays) and the floors, where a cap within the
    floors certifies the tail once the scan reaches it; otherwise to the
    floors, where a cap within ``max_points`` does.  Returns the grid, its
    ``sigma_1``, the scan's extent, the cap (``None`` for an uncertified
    tail) and whether ``max_points`` cut that tail's scan.
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
    scan_density: int = DEFAULT_SCAN_DENSITY,
    max_scan_points: int = DEFAULT_MAX_SCAN_POINTS,
    ta_result: NormResult | None = None,
) -> NormResult:
    """Plain H-infinity norm ``sup_{w >= 0} sigma_1(T(jw))`` for fixed delays.

    The search scans ``sigma_1`` on a delay-scale linear grid (``scan_density``
    points per oscillation scale ``2*pi / sum(tau)``), then polishes the
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
    or, when that is ``None``, by its strong norm.
    ``diagnostics["iterations"]`` counts the ascent's sampler calls.

    Peaks whose values agree within ``bisect_tol`` (relative) are ties and the
    smallest frequency wins, so weakly separated recurring peaks yield the
    first, lowest-frequency attainment point.

    Raises
    ------
    ValueError
        An option is out of range: ``bisect_tol >= 0``, ``scan_density > 0``,
        and ``max_scan_points >= 2`` are required.
    AssumptionError
        Undelayed algebraic block singular.
    InstabilityError
        A characteristic root was detected on the scanned axis.
    UnboundedNormError
        gamma_a >= 1: the asymptotic branch dominates with no finite cap.
    """
    for name, value, rule, ok in (
        ("bisect_tol", bisect_tol, ">= 0", bisect_tol >= 0.0),
        ("scan_density", scan_density, "> 0", scan_density > 0),
        ("max_scan_points", max_scan_points, ">= 2", max_scan_points >= 2),
    ):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    if dec is None:
        dec = decompose(sys)
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    gamma_a = dec.gamma_a
    params = _bound_params(dec)
    ta = ta_result if ta_result is not None else strong_norm_Ta(dec)

    tau_sum = float(tau.sum())
    lobe = 2.0 * math.pi / tau_sum if tau_sum > 0.0 else None
    omega_low = 10.0 * (1.0 + params.scale)
    step = lobe / scan_density if lobe else omega_low / 10000.0

    s, period, ta_sup = _tail_sup_Ta(dec, tau, step, max_scan_points // 2)
    # Rigorous tail cap: beyond it the response cannot rise above the level
    # of a grid maximum unless the asymptotic branch already dominates.
    tail_ub = ta.value if ta_sup is None else ta_sup * (1.0 + 1e-6)

    def cap(xi_grid):
        gamma_cap = xi_grid * (1.0 + bisect_tol) - tail_ub
        return _omega_cap(params, gamma_cap) if gamma_cap > 0.0 else math.inf

    def scan(grid):
        sig, ok = sigma_T_samples(sys, grid, tau)
        if not ok.all():
            w_bad = float(grid[~ok][0])
            raise InstabilityError(
                f"characteristic root detected on the imaginary axis near omega={w_bad:.6g}"
            )
        return sig[:, 0]

    omegas, sigma1, omega_scan, omega_cap, truncated = _scan(
        scan, cap, step, lobe, omega_low, period, max_scan_points)
    tail_certified = omega_cap is not None
    omega_cap = omega_cap if tail_certified else omega_scan
    xi_grid = float(sigma1.max())

    capture = max(0.02, 8.0 * bisect_tol)
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
        "scan_step": step,
        "omega_scan": omega_scan,
        "omega_cap": omega_cap,
        "gamma_a": gamma_a,
        "strong_ta": ta.value,
        "ta_tail_sup": ta_sup,
        "commensurate_s": s,
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
    parameters.  ``hinf_opts`` are passed to :func:`hinf_norm_T`; the torus
    sweep takes its default grid.
    """
    if dec is None:
        dec = decompose(sys)
    ta = strong_norm_Ta(dec)
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
