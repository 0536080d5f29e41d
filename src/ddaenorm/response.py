"""Frequency responses of DDAE systems.

Evaluates the transfer function ``T``, the asymptotic transfer function
``T_a`` (the response of the delay-difference part alone, which ``T``
approaches at high frequency) and its torus form, and produces sampled
maximum-singular-value curves for plotting and oracle checks.

Every evaluation goes through one pencil kernel.  ``_pencil_map`` (in
:mod:`ddaenorm.system_model`, which also uses it for the stability checks)
assembles stacks of ``lam*E - A_0 - sum_i A_i e^{-j theta_i}``: ``lam = j w`` and
``theta = w tau`` for ``T``; no ``E`` term for the torus matrix of the
algebraic block, whose value at ``theta = w tau`` gives ``T_a(j w)``.
``_transfer`` is the one singularity test and solve; samplers flag singular
samples and samples with a non-finite entry, the ``eval_*`` functions raise.
Grids are evaluated in chunks whose pencil stack fits ``_STACK_BYTES``, so
memory stays bounded for any grid length and system size.  Each chunk is one
stacked product: the real rows ``[1, cos theta_i, w, sin theta_i]`` times a
real map of the coefficients, written straight into the float64 view of the
complex stack, with no stack-sized temporary.  The map is built once per system, on first use
(``DdaeSystem.pencil_basis`` for ``T``, ``BlockDecomposition.pencil_basis``
for ``T_a`` and the torus).  The product is the same small one for every
sample, whether it is evaluated alone, in a search step or in any chunk, so
the pencils do not depend on where the chunks split.

No sample needs an SVD of the pencil.  Pencils with ``n <= 2`` (the paper's
examples and their algebraic blocks) need no LAPACK call either: Cramer's
rule gives ``T = C adj(M) B / det M``, where ``C adj(M) B`` is one product of
the flattened stack with a cached map, and the exact test
``sigma_min(M) > RCOND_MIN * sigma_max(M)`` follows from
``sigma_1^2 + sigma_2^2 = ||M||_F^2`` and ``sigma_1 sigma_2 = |det M|``, with
a small one-sided slack for roundoff.  A chunk with a sample whose squared
norm could over- or underflow takes the SVD instead.  For ``n >= 3`` the
singularity test is read off the solve: the one solve against ``[B | r]``,
with ``r`` a fixed probe vector, also gives a lower bound of the condition
number, from the row norms of ``M`` and the norm of ``M^{-1} r``.  It is
one-sided: every flagged sample also fails the exact test, while a sample
just below the threshold (``sigma_min / sigma_max`` roughly in
``(1e-16, 1e-14]``) may pass.  Only a chunk whose LU factorisation meets an
exactly zero pivot (numpy then rejects the whole stack), and a sample whose
estimate over- or underflows, fall back to the exact test from singular
values.  Transfers with a single row or column reduce to a vector 2-norm and
2x2 transfers to a closed form; other shapes take an SVD of ``T``.

Pencils with ``n >= 3`` are solved with partial pivoting and never inverted
explicitly; for ``n = 2`` Cramer's rule is forward stable.  Since
``T(-j w)`` is the complex conjugate of ``T(j w)``, singular value curves are
even in ``w`` and sweeps cover ``w >= 0`` only.  For the same reason (the
coefficients are real) the torus function at ``-theta`` is the conjugate of
its value at ``theta``, and the torus grids hold one point of each such pair.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, EvaluationError
from .fileio import _write_csv, _write_json
from .system_model import BlockDecomposition, DdaeSystem, _pencil_map, _resolve_tau, decompose

__all__ = [
    "FrequencyGrid",
    "SvCurve",
    "eval_T",
    "eval_Ta",
    "eval_Ta_torus",
    "sweep",
    "system_hash",
    "RCOND_MIN",
]

# Reciprocal-condition threshold separating near-characteristic-root samples
# from ordinary roundoff.  A sample with n >= 3 is flagged when a lower bound of
# its condition number reaches 1 / RCOND_MIN (see ``_transfer``); one with
# n <= 2 by the exact ratio, less a slack for its roundoff (``_CRAMER_RCOND``).
# Either way a flagged sample has sigma_min <= RCOND_MIN * sigma_max.
RCOND_MIN = 1e-14
# The closed-form ratio of a 2x2 sample carries roundoff of a few eps.  Flagging
# at 0.75 RCOND_MIN (a slack of about 11 eps) never flags a sample that the SVD
# test passes.
_CRAMER_RCOND = 0.75 * RCOND_MIN
# Squared Frobenius norms for which no product of two entries of a 2x2 sample
# over- or underflows; a chunk with a sample outside takes the SVD.
_CRAMER_RANGE = (1e-290, 1e290)


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampling grid on the nonnegative frequency axis."""

    kind: str
    omega_min: float
    omega_max: float
    count: int

    def __post_init__(self):
        if self.kind not in ("linear", "logarithmic"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        for name in ("omega_min", "omega_max"):
            if not math.isfinite(bound := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {bound!r}")
        if not self.omega_min < self.omega_max:
            raise ValueError("omega_min must be smaller than omega_max")
        if self.omega_min < 0.0:
            raise ValueError("sweeps cover omega >= 0 (curves are even in omega)")
        if self.kind == "logarithmic" and self.omega_min <= 0.0:
            raise ValueError("logarithmic grids require omega_min > 0")

    def values(self) -> np.ndarray:
        if self.kind == "linear":
            return np.linspace(self.omega_min, self.omega_max, self.count)
        return np.geomspace(self.omega_min, self.omega_max, self.count)


@lru_cache(maxsize=64)
def _with_probe(shape, data) -> np.ndarray:
    """``[B | r]`` for the real ``B`` with this shape and bytes.

    ``r_k = exp(2 pi j k phi)``, ``phi`` the golden ratio, is a fixed
    unit-modulus probe.  Cached because the peak and crossing searches solve
    against the same ``B`` in every step.
    """
    r = np.exp(2j * np.pi * (0.5 + 0.5 * math.sqrt(5.0)) * np.arange(shape[0]))
    R = np.concatenate([np.frombuffer(data).reshape(shape), r[:, None]], axis=1)
    R.flags.writeable = False
    return R


def _svd_rcond(M) -> np.ndarray:
    """Exact ``sigma_min / sigma_max`` per sample (0 for a zero matrix, NaN for a
    sample with a non-finite entry, which fails every test)."""
    rcond = np.full(len(M), np.nan)
    finite = np.isfinite(M).all(axis=(1, 2))
    s = np.linalg.svd(M[finite], compute_uv=False)
    rcond[finite] = s[:, -1] / np.maximum(s[:, 0], 1e-300)
    return rcond


def _exact_transfer(M, B, C):
    """:func:`_transfer` decided by the exact ratio from singular values, then solved."""
    rcond = _svd_rcond(M)
    ok = rcond > RCOND_MIN
    return C @ np.linalg.solve(M[ok], B[None]), ok, rcond


def _transfer(M, B, C):
    """``C M^{-1} B`` at the samples of ``M`` that pass the singularity test.

    Pencils with ``n <= 2`` take the closed form of :func:`_cramer`, decided
    by the exact test.  Larger ones take one solve against ``[B | r]``
    (``r`` the fixed probe), which gives the transfer and the estimate
    ``kappa = max_i ||e_i^T M|| * ||M^{-1} r|| / ||r||``.  Both factors are
    lower bounds of ``||M||`` and ``||M^{-1}||``, so
    ``kappa <= sigma_max / sigma_min``: a sample fails (``kappa >= 1 / RCOND_MIN``)
    only if it also fails ``sigma_min > RCOND_MIN * sigma_max``, while one with
    ``sigma_min / sigma_max`` slightly below the threshold may pass.  An
    exactly zero pivot makes numpy reject the whole stack: that chunk, and any
    sample whose estimate is not finite, is decided by the exact ratio from
    its singular values instead.  Returns ``(T, ok, rcond)``: ``T`` stacks the
    passing samples only, ``ok`` flags them and ``rcond`` holds ``1 / kappa``
    or the exact ratio per sample for error messages (a flagged sample always
    has its exact ratio at ``n <= 2``, and a sample with a non-finite entry
    NaN), or is None when every sample passes.
    """
    N, n, _ = M.shape
    p = B.shape[1]
    if n == 0:  # no states: the transfer is zero
        return np.zeros((N, C.shape[0], p), dtype=complex), np.ones(N, dtype=bool), None
    if n <= 2:
        return _cramer(M, B, C)
    R = _with_probe(B.shape, np.asarray(B, dtype=np.float64).tobytes())
    try:
        X = np.linalg.solve(M, R[None])
    except np.linalg.LinAlgError:  # an exactly zero pivot rejects the whole stack
        return _exact_transfer(M, B, C)
    V, W = M.view(np.float64), X.view(np.float64)[..., -2:]  # W: the probe's solution
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf at extreme scales
        kappa2 = np.maximum.reduce(np.einsum("kij,kij->ki", V, V), axis=1) * np.einsum(
            "kij,kij->k", W, W) / n
    ok = kappa2 < RCOND_MIN ** -2
    rcond = None
    if np.count_nonzero(ok) < N:
        rcond = 1.0 / np.sqrt(kappa2)
        inexact = ~np.isfinite(kappa2)  # the estimate over- or underflowed
        if inexact.any():
            rcond[inexact] = _svd_rcond(M[inexact])
            ok[inexact] = rcond[inexact] > RCOND_MIN
        X = X[ok]  # keep the passing samples only
    return C @ X[..., :p], ok, rcond


@lru_cache(maxsize=64)
def _adjugate_map(b_shape, b_data, c_shape, c_data) -> np.ndarray:
    """The linear map from ``M`` to ``C adj(M) B`` for ``n <= 2`` (see :func:`_cramer`).

    For ``n = 2``, ``adj(M) = J M^T J^T`` with ``J`` the quarter turn
    ``[[0, 1], [-1, 0]]``, so the entry ``M[l, k]`` contributes
    ``(C J)[:, k] (J^T B)[l, :]``: row ``2 l + k`` of the returned
    ``(4, p_out * p_in)`` map.  For ``n = 1`` the adjugate is 1 and the map is
    ``C B`` itself.  The map is real but stored complex, so that no product
    with a stack casts it.  Cached like :func:`_with_probe`.
    """
    B = np.frombuffer(b_data).reshape(b_shape)
    C = np.frombuffer(c_data).reshape(c_shape)
    if b_shape[0] == 1:
        W = C @ B
    else:
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        W = np.einsum("ik,lj->lkij", C @ J, J.T @ B).reshape(4, c_shape[0] * b_shape[1])
    W = W.astype(complex)
    W.flags.writeable = False
    return W


def _cramer(M, B, C):
    """:func:`_transfer` for ``n <= 2`` by Cramer's rule, ``T = C adj(M) B / det(M)``.

    A 2x2 sample is decided by the exact test: with ``F = ||M||_F^2``,
    ``sigma_1^2 + sigma_2^2 = F`` and ``sigma_1 sigma_2 = |det M|``, so the
    ratio ``r = sigma_2 / sigma_1`` solves ``|det M| / F = r / (1 + r^2)``, and
    ``|det M| <= _CRAMER_RCOND * F`` flags the samples with
    ``r <= _CRAMER_RCOND`` (``r^2`` is below roundoff there).  A 1x1 sample has
    ``r = 1``.  A chunk with a sample whose ``F`` lies outside ``_CRAMER_RANGE``
    (a product of two entries could over- or underflow) is decided and solved
    by :func:`_exact_transfer` instead, as a chunk with an exactly zero pivot is
    for ``n >= 3``.
    """
    N, n, _ = M.shape
    V = M.reshape(N, n * n)
    F = np.einsum("ki,ki->k", V.view(np.float64), V.view(np.float64))
    lo, hi = _CRAMER_RANGE
    if not (F.min(initial=lo) >= lo and F.max(initial=hi) <= hi):  # also NaN
        return _exact_transfer(M, B, C)
    W = _adjugate_map(B.shape, np.asarray(B, dtype=np.float64).tobytes(),
                      C.shape, np.asarray(C, dtype=np.float64).tobytes())
    if n == 1:
        return W / V[:, :, None], np.ones(N, dtype=bool), None
    det = V[:, 0] * V[:, 3] - V[:, 1] * V[:, 2]
    q = np.abs(det)
    ok = q > _CRAMER_RCOND * F
    rcond = None
    if not ok.all():
        q /= F  # r = 2 q / (1 + sqrt(1 - 4 q^2)), clipped against roundoff at q = 1/2
        rcond = 2.0 * q / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * q * q, 0.0)))
        V, det = V[ok], det[ok]
    return (V @ W / det[:, None]).reshape(len(V), C.shape[0], B.shape[1]), ok, rcond


def _sigma_2x2(T) -> np.ndarray:
    """Descending singular values of a stack of 2x2 matrices, in closed form.

    From the Gram entries ``a``, ``c`` (squared column norms) and ``b`` (the
    column inner product): ``sigma_1^2 = (a + c) / 2 + hypot((a - c) / 2, |b|)``
    and ``sigma_2 = |det T| / sigma_1`` (0 when ``sigma_1`` is 0).
    """
    V = T.view(np.float64)  # squared column norms without a stack-sized temporary
    s = np.einsum("kij,kij->kj", V, V)
    a, c = s[:, 0] + s[:, 1], s[:, 2] + s[:, 3]
    b = np.abs(np.einsum("ki,ki->k", T[:, :, 0].conj(), T[:, :, 1]))
    s1 = np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b))
    det = np.abs(T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0])
    s2 = np.divide(det, s1, out=np.zeros_like(s1), where=s1 > 0.0)
    return np.stack([s1, np.minimum(s2, s1)], axis=1)


def _sigma_chunk(M, B, C):
    """Descending singular values of ``C M^{-1} B`` per sample, NaN where singular."""
    T, ok, _ = _transfer(M, B, C)
    N, p, q = T.shape
    if min(p, q) <= 1:  # a row or column: its one singular value is the 2-norm
        sig = np.abs(T).reshape(N, p * q)
        if p * q != 1:  # an empty row reduces to 0
            sig = np.hypot.reduce(sig, axis=1, keepdims=True)
    elif p == q == 2:
        sig = _sigma_2x2(T)
    else:
        sig = np.linalg.svd(T, compute_uv=False)
    if N < len(ok):  # scatter the passing samples, NaN elsewhere
        full = np.full((ok.size, sig.shape[1]), np.nan)
        full[ok] = sig
        sig = full
    return sig, ok


def _sample(S, B, C, **samples):
    """Singular values of ``C M^{-1} B`` over the pencils of map ``S`` (see :func:`_pencil_map`).

    Returns ``(sigmas, ok)``: one descending row per sample, NaN where the
    matrix failed the rcond test and ``ok`` is False.
    """
    parts = _pencil_map(lambda M: _sigma_chunk(M, B, C), S, rhs=B.shape[1] + 1, **samples)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _evaluate(S, B, C, point, what, **samples) -> np.ndarray:
    """Transfer matrix at one sample; raises EvaluationError where singular or not finite."""
    [(T, ok, rcond)] = _pencil_map(lambda M: _transfer(M, B, C), S, **samples)
    if not ok[0]:
        if np.isnan(rcond[0]):
            raise EvaluationError(f"{what} is not finite at {point}", point=point)
        raise EvaluationError(f"{what} is singular at {point} (rcond <= {rcond[0]:.1e})",
                              point=point)
    return T[0]


def eval_T(sys: DdaeSystem, omega: float, tau=None) -> np.ndarray:
    """Transfer function ``C (j w E - A_0 - sum A_i e^{-j w tau_i})^{-1} B``.

    Parameters
    ----------
    sys : DdaeSystem
    omega : float
        Frequency in rad/time.
    tau : array_like, optional
        Delay vector overriding ``sys.tau`` (used by perturbation studies).

    Raises
    ------
    EvaluationError
        If ``j*omega`` is (numerically) a characteristic root.
    """
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    return _evaluate(sys.pencil_basis, sys.B, sys.C, float(omega), "characteristic matrix",
                     omegas=np.array([omega], dtype=float), tau=tau)


def eval_Ta(dec: BlockDecomposition, omega: float, tau) -> np.ndarray:
    """Asymptotic transfer function ``-C2 A22(j w)^{-1} B2``.

    ``A22(j w) = A22[0] + sum_{i>=1} A22[i] e^{-j w tau_i}``.  Equivalent to
    :func:`eval_Ta_torus` at ``theta = (w tau_1 mod 2 pi, ...)``.
    """
    tau = _resolve_tau(tau, dec.m)
    return _evaluate(dec.pencil_basis, dec.B2, dec.C2, float(omega), "A22(j*omega)",
                     omegas=np.array([omega], dtype=float), tau=tau)


def eval_Ta_torus(dec: BlockDecomposition, theta) -> np.ndarray:
    """Torus form ``C2 (-A22[0] - sum A22[i] e^{-j theta_i})^{-1} B2``.

    A singular torus matrix signals that the delay-difference part is not
    strongly stable (gamma_a >= 1 territory).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != dec.m:
        raise DimensionError(f"expected theta of length {dec.m}, got {theta.size}")
    return _evaluate(dec.pencil_basis, dec.B2, dec.C2, tuple(theta.tolist()), "torus matrix",
                     thetas=theta[None])


def sigma_T_samples(sys: DdaeSystem, omegas, tau=None):
    """Singular values of ``T(j w)`` on a frequency grid.

    Returns ``(sigmas, ok)`` where ``sigmas`` has one descending row of
    singular values per frequency and ``ok`` flags samples where the
    characteristic matrix was safely invertible; failed rows are NaN.
    """
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    omegas = np.asarray(omegas, dtype=float)
    return _sample(sys.pencil_basis, sys.B, sys.C, omegas=omegas, tau=tau)


def sigma_Ta_samples(dec: BlockDecomposition, omegas, tau):
    """Singular values of ``T_a(j w)`` on a frequency grid (NaN where singular).

    This is the torus function at ``theta = w * tau``.
    """
    tau = _resolve_tau(tau, dec.m)
    return _sample(dec.pencil_basis, dec.B2, dec.C2, omegas=np.asarray(omegas, dtype=float),
                   tau=tau)


def sigma_Ta_torus_samples(dec: BlockDecomposition, thetas):
    """Singular values of the torus function on points ``thetas`` (N, m)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas.reshape(-1, max(dec.m, 1))
    return _sample(dec.pencil_basis, dec.B2, dec.C2, thetas=thetas)


def system_hash(sys: DdaeSystem) -> str:
    """Short content hash of a system, used as curve provenance."""
    payload = {
        "E": sys.E.tolist(),
        "A": [Ai.tolist() for Ai in sys.A],
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "tau": sys.tau.tolist(),
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class SvCurve:
    """Sampled singular value curve over a frequency axis or torus grid.

    ``params`` holds the evaluated sample points (strictly increasing for
    frequency curves), ``sigmas`` one descending row of singular values per
    sample.  Samples where the evaluation hit a singular matrix are excluded
    and listed in ``gaps`` instead of carrying fabricated values.
    """

    kind: str
    params: np.ndarray
    sigmas: np.ndarray
    gaps: tuple
    meta: dict

    def max_point(self):
        """Sample point and value of the largest sigma_1 (EvaluationError if all are gaps)."""
        if not len(self.sigmas):
            raise EvaluationError(f"no sample to maximise: all {len(self.gaps)} points are gaps")
        i = int(np.argmax(self.sigmas[:, 0]))
        p = self.params[i]
        return (float(p) if np.ndim(p) == 0 else tuple(p.tolist()), float(self.sigmas[i, 0]))

    def _columns(self):
        if self.kind == "frequency":
            param_cols = ["omega"]
            params = self.params.reshape(-1, 1)
        else:
            params = np.atleast_2d(self.params)
            param_cols = [f"theta_{i + 1}" for i in range(params.shape[1])]
        sigma_cols = [f"sigma_{i + 1}" for i in range(self.sigmas.shape[1])]
        return param_cols + sigma_cols, np.hstack([params, self.sigmas])

    def to_csv(self, path_or_buf) -> None:
        """Write ``omega,sigma_1,...`` rows (full-precision decimals)."""
        cols, data = self._columns()
        _write_csv(path_or_buf, cols, ([repr(float(x)) for x in row] for row in data))

    def to_dict(self) -> dict:
        cols, data = self._columns()
        return {
            "kind": self.kind,
            "columns": cols,
            "rows": [[float(x) for x in row] for row in data],
            "gaps": [{"param": p, "reason": r} for p, r in self.gaps],
            "meta": self.meta,
        }

    def to_json(self, path=None):
        return _write_json(self.to_dict(), path)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def sweep(
    sys: DdaeSystem,
    grid: FrequencyGrid,
    which: str = "T",
    tau=None,
) -> SvCurve:
    """Sample all singular values of ``T`` or ``T_a`` over a frequency grid.

    Singular samples become gaps, never fabricated values.  The sample order
    is the deterministic grid order regardless of any internal chunking.
    """
    if which not in ("T", "Ta"):
        raise ValueError("which must be 'T' or 'Ta'")
    omegas = grid.values()
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    if which == "T":
        sigmas, ok = sigma_T_samples(sys, omegas, tau)
    else:
        sigmas, ok = sigma_Ta_samples(decompose(sys), omegas, tau)
    gaps = tuple(
        (float(w), "singular matrix (near characteristic root)")
        for w in omegas[~ok]
    )
    meta = {
        "system": system_hash(sys),
        "which": which,
        "grid": {"kind": grid.kind, "omega_min": grid.omega_min,
                 "omega_max": grid.omega_max, "count": grid.count},
        "tau": tau.tolist(),
    }
    return SvCurve(kind="frequency", params=omegas[ok], sigmas=sigmas[ok], gaps=gaps, meta=meta)
