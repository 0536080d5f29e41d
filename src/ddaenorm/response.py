"""Frequency responses of DDAE systems.

Evaluates the transfer function ``T``, the asymptotic transfer function
``T_a`` (the response of the delay-difference part alone, which ``T``
approaches at high frequency) and its torus form, and produces sampled
maximum-singular-value curves for plotting and oracle checks.

Every evaluation goes through one pencil kernel, except ``T`` of a system
whose delays enter through few channels (below).  ``_pencil_map`` (in
:mod:`ddaenorm.system_model`, which also uses it for the stability checks)
assembles stacks of ``lam*E - A_0 - sum_i A_i e^{-j theta_i}``: ``lam = j w`` and
``theta = w tau`` for ``T``; no ``E`` term for the torus matrix of the
algebraic block, whose value at ``theta = w tau`` gives ``T_a(j w)``.
``_transfer`` is the one singularity test and solve; samplers flag singular
samples and samples with a non-finite entry, the ``eval_*`` functions raise.
Grids are evaluated in chunks whose pencil stack fits ``_STACK_BYTES``, so
memory stays bounded for any grid length and system size, and which hold at
most ``_CHUNK_SAMPLES`` samples, so the long grids of small pencils run near
the cache instead of streaming 8 MiB stacks.  Each chunk is one
product: a real ``(K, N)`` block of coefficients ``[1, cos theta_i, w, sin
theta_i]``, one contiguous row each, times a real map of the coefficients,
written straight into the float64 view of the complex stack, with no
stack-sized temporary.  The map is built once per system, on first use
(``DdaeSystem.pencil_basis`` for ``T``, ``BlockDecomposition.pencil_basis``
for ``T_a`` and the torus).  For ``n <= 2`` the product is one 2-D GEMM per
chunk (a lone sample padded to two rows), where a stacked product would make
one BLAS call per sample: 6-18 ns against 46-82 ns a sample.  Larger pencils
keep the stacked product.  Either way a sample gets the same bits whether it
is evaluated alone, in a search step or in any chunk, so the pencils do not
depend on where the chunks split.  On a uniform grid ``w = k h`` (the plain
norm's scan and its ``T_a`` tail sweep) the samplers take ``step=h``, and the
phases come from two short tables per delay instead of one ``cos`` and
``sin`` per sample (:func:`ddaenorm.system_model._grid_phases`); a grid
sample's pencil then also does not depend on the samples beside it.

No sample needs an SVD of the pencil.  Pencils with ``n <= 2`` (the paper's
examples and their algebraic blocks) need no LAPACK call either: Cramer's
rule gives ``T = C adj(M) B / det M``, where ``C adj(M) B`` is one product of
the flattened stack with a cached map, and the exact test
``sigma_min(M) > RCOND_MIN * sigma_max(M)`` follows from
``sigma_1^2 + sigma_2^2 = ||M||_F^2`` and ``sigma_1 sigma_2 = |det M|``, with
a small one-sided slack for roundoff.  A sample whose squared norm could
over- or underflow takes the SVD instead.  For ``n >= 3``, ``C M^{-1} B``
is one 2-D GEMM per chunk (:func:`_times`), and the singularity test is
read off the solve: the one solve against ``[B | r]``, with ``r`` a fixed
probe vector, also gives a lower bound of the condition number, from the
row norms of ``M`` and the norm of ``M^{-1} r``.  It is
one-sided: every flagged sample also fails the exact test, while a sample
just below the threshold (``sigma_min / sigma_max`` roughly in
``(1e-16, 1e-14]``) may pass.  Only a sample whose LU factorisation meets an
exactly zero pivot (numpy rejects the whole stack; the others are solved
again), and one whose estimate over- or underflows, fall back to the exact
test from singular values.  Transfers with a single row or column reduce to
a vector 2-norm and 2x2 transfers to a closed form; other shapes take an SVD.

``T`` of a system whose delays enter through few channels skips the pencil
(see :func:`_low_rank_transfer`).  ``DdaeSystem.delay_channels``, built once
per system, factors the delay terms as ``A_i = U K_i V^T`` (``U``, ``V``
orthonormal with ``r`` columns) and reduces ``P(s) = s E - A_0`` once as
``(s0 E - A_0)(I + (s - s0) Z)`` with ``Z = W diag(lam) W^{-1}`` from ``eig``.
Per frequency only the ``(p_out + r) x (p_in + r + 1)`` projections
``[C; V^T] P^{-1} [B, r, U]`` are formed, through
``diag(1 / (1 + (j w - s0) lam))``, and an ``r x r`` capacitance system is
solved (Woodbury).  It is taken when ``n >= max(4 r, 5)`` and the
reduction is well conditioned; a sample where ``P(j w)`` is near singular,
or the pencil near a characteristic root, takes the dense kernel, which then
also decides the singularity test.  Every such choice depends on the sample
alone.  Per point on the seeded dense test systems (``r = 2``, two inputs and
outputs, 1,318 points, one BLAS thread; the rules and their measurements are
in :func:`ddaenorm.system_model._delay_channels`):

    n     dense kernel   low-rank   max rel. diff of sigma_1
    10    4.9 us         3.2 us     1.4e-15
    40    45.4 us        4.8 us     2.0e-15
    100   290 us         8.1 us     1.9e-15

For ``n <= 2`` a frequency cell also has a closed-form upper bound of the
sampler's ``sigma_1`` (:func:`_frequency_cell_bound`): a first-order Taylor
model of Cramer's ``N = C adj(M) B`` and ``D = det M`` at the cell centre,
whose derivatives come from one more product of the centre's coefficient
block, with second-order remainders from sums of coefficient magnitudes.
A cell with a finite bound holds no sample that the sampler flags.  The
plain norm's scan and its ``T_a`` tail sweep skip the cells that this bound
puts below what they keep (:func:`ddaenorm.norms._cell_sweep`).  A centre
costs 80-100 ns (a 2x2 pencil, chunks of 8,192 centres, one BLAS thread).

Pencils with ``n >= 3`` are solved with partial pivoting and never inverted
explicitly; for ``n = 2`` Cramer's rule is forward stable.  Since
``T(-j w)`` is the complex conjugate of ``T(j w)``, singular value curves are
even in ``w`` and sweeps cover ``w >= 0`` only.  For the same reason (the
coefficients are real) the torus function at ``-theta`` is the conjugate of
its value at ``theta``, and the torus grids hold one point of each such pair.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, EvaluationError
from .fileio import _write_csv, _write_json
from .system_model import (_GAIN_MAX, _ROUNDING_SLACK, BlockDecomposition, DdaeSystem,
                           _check_delays, _chunks, _pencil_basis, _pencil_map, _pencil_stack,
                           _probe, _resolve_tau, decompose)

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
# over- or underflows; a sample outside takes the SVD.
_CRAMER_RANGE = (1e-290, 1e290)
# The low-rank kernel of T hands a sample to the dense kernel when its lower
# bound of the condition number reaches 1 / _HANDOFF_RCOND, 1e4 below the
# flagging level: near a characteristic root the dense kernel decides.
_HANDOFF_RCOND = 1e4 * RCOND_MIN


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
    R = np.concatenate([np.frombuffer(data).reshape(shape), _probe(shape[0])[:, None]], axis=1)
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


def _gemm(A, B) -> np.ndarray:
    """``A @ B`` as one GEMM: a one-row ``A`` is padded to two rows, as a one-row product
    takes gemv, whose bits are not GEMM's, so a lone sample would lose its batched bits."""
    return (A @ B if len(A) != 1 else np.concatenate([A, A]) @ B)[:len(A)]


def _times(C, X):
    """``C @ X`` for a real ``(q, n)`` ``C`` (None: the identity) and a complex stack ``X``
    ``(N, n, p)``: one :func:`_gemm` of ``C`` with the real view of ``X``, laid out as
    ``(n, 2 N p)``.  Real pairs give the complex product's bits, where a stacked product
    makes one small BLAS call per sample."""
    if C is None:
        return X
    N, n, p = X.shape
    CY = _gemm(C, X.view(np.float64).transpose(1, 0, 2).reshape(n, 2 * N * p))
    return np.ascontiguousarray(CY.reshape(len(C), N, 2 * p).transpose(1, 0, 2)).view(complex)


def _exact_transfer(M, B, C):
    """:func:`_transfer` decided by the exact ratio from singular values, then solved."""
    rcond = _svd_rcond(M)
    ok = rcond > RCOND_MIN
    return _times(C, np.linalg.solve(M[ok], B[None])), ok, rcond


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
    exactly zero pivot makes numpy reject the whole stack: the samples whose
    determinant is 0 (or NaN), and any whose estimate is not finite, are
    decided by the exact ratio from their singular values, and the others
    are solved again.  Returns ``(T, ok, rcond)``: ``T`` stacks the
    passing samples only, ``ok`` flags them and ``rcond`` holds ``1 / kappa``
    or the exact ratio per sample for error messages (a flagged sample always
    has its exact ratio at ``n <= 2``, and a sample with a non-finite entry
    NaN), or is None when every sample passes.  For ``n >= 3`` (only), ``C``
    None gives the solve's own columns, ``M^{-1} B``.
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
        zero = ~(np.linalg.det(M) != 0.0)  # a zero pivot, or a non-finite entry
        return _split(M, B, C, zero, _transfer) if zero.any() else _exact_transfer(M, B, C)
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
    return _times(C, X[..., :p]), ok, rcond


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
    ``r = 1``.  A sample whose ``F`` lies outside ``_CRAMER_RANGE`` (a product
    of two entries could over- or underflow) is decided and solved by
    :func:`_exact_transfer` instead; the others of its chunk keep Cramer's
    rule, so a sample gets the same bits alone and in any chunk.
    """
    N, n, _ = M.shape
    V = M.reshape(N, n * n)
    F = np.einsum("ki,ki->k", V.view(np.float64), V.view(np.float64))
    lo, hi = _CRAMER_RANGE
    if not (F.min(initial=lo) >= lo and F.max(initial=hi) <= hi):  # also NaN
        return _split(M, B, C, ~((F >= lo) & (F <= hi)), _cramer)
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
    return (_gemm(V, W) / det[:, None]).reshape(len(V), C.shape[0], B.shape[1]), ok, rcond


def _frequency_cell_bound(S, A, E, B, C, tau):
    """Upper bounds of the sampler's ``sigma_1`` on frequency cells, for ``n <= 2``.

    ``S`` is the pencil map of ``M(w) = j w E - A[0] - sum_i A[i] e^{-j w
    tau_i}`` (no ``E`` term when ``E`` is None: the torus matrix of ``T_a``
    on the frequency axis), and the transfer is ``C M^{-1} B``.  Returns None
    for ``n = 0`` and ``n >= 3``; otherwise a map ``bound(c, r, step=None)``
    from cell centres ``c`` (``w >= 0``) and one radius ``r`` to a bound per
    cell that is at least every ``sigma_1`` that :func:`_transfer` and
    :func:`_singular_values` compute at a frequency within ``r`` of the
    centre, with or without a ``step``.  It is ``inf`` unless every such
    sample passes the singularity test of :func:`_cramer` in its range
    (``|det| > _CRAMER_RCOND ||M||_F^2`` with ``||M||_F^2`` in
    ``_CRAMER_RANGE``), so a cell with a finite bound holds no sample the
    sampler could flag.  ``step`` is passed on to the centres' phases.

    The bound.  Cramer's rule gives ``T = N / D`` with ``N = C adj(M) B`` and
    ``D = det M``.  ``N`` is linear in ``M`` and ``D`` a product of two
    entries (or ``M`` itself for ``n = 1``, where ``N = C B``), so with
    ``M' = j E + sum_i tau_i A[i] (j cos theta_i + sin theta_i)`` and ``M''
    = sum_i tau_i^2 A[i] e^{-j theta_i}`` both ``N`` and ``D`` and their
    derivatives come from the centre's pencil and ``j M'``, one product of
    the centre's coefficient block with the map ``[S | S']``
    (:func:`ddaenorm.system_model._pencil_stack`).  The second-order Taylor
    remainder gives, on the cell,

        ``sigma_1(T(w)) <= ||N(w)||_F / |D(w)| <= (||N(c)||_F + r ||N'(c)||_F
        + R_N) / (|D(c)| - r |D'(c)| - R_D)``,

    with ``R_N = r^2 / 2 sum_i tau_i^2 ||N(A[i])||_F`` (``N`` taken as the
    linear map of ``M``) and ``R_D = r^2 / 2`` times a bound of ``|D''|``:
    ``|M_kl| <= P_kl = sum_i |A[i]_kl| + |w| |E_kl|``, ``|M'_kl| <=
    |E_kl| + sum_i tau_i |A[i]_kl|`` and ``|M''_kl| <= sum_i tau_i^2
    |A[i]_kl|`` entrywise, with ``|w| <= c + r``; ``||P||_F`` bounds
    ``||M||_F`` for the singularity test.  This is a Taylor model with a
    remainder bound (Makino & Berz, 2003).  Each chunk of centres takes the
    rounding terms and ``||P||_F`` at its largest ``c``.

    Rounding.  With ``u = _ROUNDING_SLACK (n + m + tau_max (c + r)) eps``, a
    computed pencil, the sampler's or the centre's, is within ``u P``
    entrywise of the exact one: its ``2 m + 2`` products, and the phases,
    which are within a few ``eps (1 + tau_i |w|)`` of ``cos`` and ``sin`` of
    ``tau_i w``, with or without a ``step``.  So a computed ``N`` is within
    ``1.1 u`` times ``N``'s entrywise magnitude bound (from ``P``), a
    computed ``D`` within ``2.2 u`` times ``D``'s, and the same holds for
    ``N'`` and ``D'`` at the centre.  The centre terms and the sampler's
    sample together take ``3 u`` and ``6 u`` times those magnitudes; a factor
    ``1 + u`` on the remainders and the bound covers the arithmetic of the
    bound itself, the sampler's division and its singular value.
    """
    n, m = len(A[0]), len(A) - 1
    if not 1 <= n <= 2:
        return None
    tau = np.asarray(tau, dtype=float)
    zero = np.zeros((n, n))
    # j M' = -E - sum_i tau_i A[i] e^{-j theta_i}: a pencil map without its w term
    Sd = _pencil_basis((zero if E is None else E, *(t * Ai for t, Ai in zip(tau, A[1:]))),
                       None if E is None else zero)
    Sc = np.concatenate([S, Sd], axis=1)
    W = _adjugate_map(B.shape, np.asarray(B, dtype=np.float64).tobytes(),
                      C.shape, np.asarray(C, dtype=np.float64).tobytes())
    absA = np.abs(np.stack(A)).reshape(m + 1, n * n)
    e = np.zeros(n * n) if E is None else np.abs(E).ravel()
    a, d1, d2 = absA.sum(0), e + tau @ absA[1:], (tau * tau) @ absA[1:]  # P = a + |w| e
    if n == 1:  # N = C B, D = M
        NN, k_n, nu = np.array([np.linalg.norm(W), 0.0]), 0.0, (0.0, 0.0, 0.0)
        dm, dd, d2m = (a[0], e[0], 0.0), (d1[0], 0.0), (d2[0], 0.0)
    else:
        wn = np.linalg.norm(W, axis=1)

        def pair(x, y):  # D's two products, entries (0, 3) and (1, 2), both ways round
            return x[0] * y[3] + x[1] * y[2] + y[0] * x[3] + y[1] * x[2]

        k_n = sum(t * t * float(np.linalg.norm(Ai.ravel() @ W)) for t, Ai in zip(tau, A[1:]))
        nu = (a @ wn, e @ wn, d1 @ wn)  # |N| <= nu0 + |w| nu1, |N'| <= nu2
        dm = (pair(a, a) / 2, pair(a, e), pair(e, e) / 2)  # |D| <= dm0 + |w| dm1 + w^2 dm2
        dd = (pair(d1, a), pair(d1, e))  # |D'|
        d2m = (pair(d2, a) + pair(d1, d1), pair(d2, e))  # |D''|
        # [D, j D'] from the products of the entries of M and j M' with M's, reversed
        G = np.zeros((8, 2), dtype=complex)
        G[[0, 1, 4, 5, 6, 7], [0, 0, 1, 1, 1, 1]] = [1.0, -1.0, 1.0, -1.0, -1.0, 1.0]
    fa, fe = float(np.linalg.norm(a)), float(np.linalg.norm(e))  # ||M(w)||_F <= fa + |w| fe
    tmax = float(tau.max(initial=0.0))
    lo, hi = _CRAMER_RANGE

    def chunk(c, r, step):
        Z = _pencil_stack(Sc, n, c, tau, step=step).reshape(len(c), 2, n * n)  # M, j M'
        if n == 1:
            DD, N = Z[:, :, 0], NN
        else:
            DD = (Z * Z[:, :1, ::-1]).reshape(len(c), 8) @ G
            N = np.abs(Z.reshape(-1, 4) @ W)  # ||N||_F and ||N'||_F
            N = (N if W.shape[1] == 1 else np.sqrt((N * N).sum(1))).reshape(len(c), 2)
        # the rounding terms and ||M||_F^2 at the chunk's largest |w|, where they are largest
        w = float(c.max(initial=0.0)) + r
        u = _ROUNDING_SLACK * np.finfo(float).eps * (n + m + tmax * w)
        g, v, h = 1.0 + u, np.array([1.0, r]), 0.5 * r * r
        F = g ** 3 * (fa + w * fe) ** 2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            num = (N @ v + h * k_n) * g * g + 3.0 * u * g * (nu[0] + w * nu[1] + r * nu[2])
            den = (np.abs(DD) @ (v * [1.0, -1.0]) - (g * h * d2m[1]) * c
                   - (g * h * (d2m[0] + r * d2m[1])
                      + 6.0 * u * (dm[0] + w * (dm[1] + w * dm[2]) + r * (dd[0] + w * dd[1]))))
            bound = num / den
        bound[~(den > max(_CRAMER_RCOND * F, 2.0 * math.sqrt(lo)))] = np.inf
        return bound if F <= 0.5 * hi else np.full(len(c), np.inf)

    def bound(c, r, step=None):
        c = np.asarray(c, dtype=float)
        return np.concatenate([chunk(c[sl], r, step) for sl in _chunks(len(c), 16 * n * n)])

    return bound


def _low_rank_transfer(sys: DdaeSystem, omegas, tau, step=None):
    """:func:`_transfer` of ``T`` at ``omegas`` through the low-rank delay channels.

    With ``ch = sys.delay_channels``, ``M = P(j w) - U D V^T`` and
    ``G_XY = X P(j w)^{-1} Y``, Woodbury's identity gives
    ``T = G_CB + G_CU D (I - G_VU D)^{-1} G_VB``.  The projections come from
    one product ``L diag(d) R`` with ``d = 1 / (1 + (j w - s0) lam)``, a 2-D
    GEMM (:func:`_gemm`) of the flattened ``(N (p_out + r), n)`` stack
    ``L diag(d)`` with ``R``, and the capacitance matrix ``I - G_VU D`` is
    ``r x r``.

    The dense kernel keeps every sample that the low-rank one could get
    wrong, and decides the singularity test on it: a sample where
    ``P(j w)`` is near singular (``gain max_k |d_k| > _GAIN_MAX``, see
    :func:`ddaenorm.system_model._delay_channels`), where the capacitance
    matrix is exactly singular, or whose estimate ``kappa`` reaches
    ``1 / _HANDOFF_RCOND``.  ``kappa`` is the product of two lower bounds,
    ``||M||_F / sqrt(n)`` of ``||M||`` (from ``ch.UPV`` and ``ch.rest``) and
    ``||V^T M^{-1} r|| / ||r||`` of ``||M^{-1}||``, where
    ``V^T M^{-1} r = (I - G_VU D)^{-1} G_Vr`` comes from the same solve as
    ``T``.  So ``kappa`` is at most the condition number of ``M``, and every
    sample near a characteristic root goes to the dense kernel, on one stack
    of those samples.  Each choice depends on the sample alone, so a sample
    gives the same bits alone and in any chunk.  ``step`` is passed on to the
    phases of ``D`` and of the hand-off (see :func:`_T_map`).
    """
    ch, B, C = sys.delay_channels, sys.B, sys.C
    N, n, r, p = len(omegas), sys.n, ch.rank, B.shape[1]
    q = C.shape[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # to the dense kernel
        d = 1.0 / (1.0 + (1j * omegas[:, None] - ch.s0) * ch.lam)
        dense = ~(np.abs(d).max(axis=1, initial=0.0) * ch.gain <= _GAIN_MAX)
    T = np.empty((N, q, p), dtype=complex)
    low = np.flatnonzero(~dense)
    if low.size:
        G = _gemm((ch.L * d[low, None, :]).reshape(-1, n), ch.R).reshape(
            len(low), q + r, p + r + 1)  # [C; V^T] P^{-1} [B, r, U]
        D = _pencil_stack(ch.D, r, omegas[low], tau, step=step)
        cap = np.eye(r) - G[:, q:, p + 1:] @ D
        try:
            Y = np.linalg.solve(cap, G[:, q:, :p + 1])  # V^T M^{-1} [B, r]
        except np.linalg.LinAlgError:  # an exactly singular capacitance rejects the stack
            singular = np.linalg.det(cap) == 0.0
            dense[low[singular]] = True
            low, G, D = low[~singular], G[~singular], D[~singular]
            Y = np.linalg.solve(cap[~singular], G[:, q:, :p + 1])
        Euv, Auv = ch.UPV
        X = (D - 1j * omegas[low, None, None] * Euv + Auv).view(np.float64)  # -U^T M V
        F = np.einsum("kij,kij->k", X, X) + omegas[low] ** 2 * ch.rest[0] + ch.rest[1]
        Yr = Y[..., p]
        with np.errstate(over="ignore", invalid="ignore"):
            kappa2 = F * (Yr.real ** 2 + Yr.imag ** 2).sum(axis=1) / (n * n)
        keep = kappa2 < _HANDOFF_RCOND ** -2
        dense[low[~keep]] = True
        T[low[keep]] = (G[:, :q, :p] + G[:, :q, p + 1:] @ (D @ Y[..., :p]))[keep]
    if not dense.any():
        return T, np.ones(N, dtype=bool), None
    where, parts = np.flatnonzero(dense), []
    for part in _transfer_map(lambda *t: t, sys.pencil_basis, B, C, p + 1,
                              omegas=omegas[where], tau=tau, step=step):
        at, where = where[:len(part[1])], where[len(part[1]):]
        parts.append((at, part))
    return _scatter(T, parts)


def _split(M, B, C, exact, rest):
    """:func:`_transfer` by :func:`_exact_transfer` at the samples ``exact`` and by
    ``rest`` at the others, so that a sample gets the same result in any chunk."""
    parts = [(np.flatnonzero(w), solve(M[w], B, C))
             for w, solve in ((exact, _exact_transfer), (~exact, rest))]
    rows = M.shape[1] if C is None else len(C)
    return _scatter(np.empty((len(M), rows, B.shape[1]), dtype=complex), parts)


def _scatter(T, parts):
    """One :func:`_transfer` result from the results ``(at, (T_at, ok_at, rcond_at))``
    of the samples ``at``, in sample order.  ``T`` is the whole stack; a sample
    in no part passes, with its transfer already in ``T``."""
    ok, rcond = np.ones(len(T), dtype=bool), np.ones(len(T))
    for at, (T_at, ok_at, rcond_at) in parts:
        T[at[ok_at]], ok[at] = T_at, ok_at
        if rcond_at is not None:
            rcond[at] = rcond_at
    return (T, ok, None) if ok.all() else (T[ok], ok, rcond)


def _transfer_map(fn, S, B, C, rhs=0, **samples) -> list:
    """``fn(T, ok, rcond)`` of :func:`_transfer` over the pencil chunks of :func:`_pencil_map`."""
    return _pencil_map(lambda M: fn(*_transfer(M, B, C)), S, rhs=rhs, **samples)


def _T_map(fn, sys: DdaeSystem, omegas, tau, rhs=0, step=None) -> list:
    """:func:`_transfer_map` for ``T`` at ``omegas``, by the kernel ``sys.delay_channels`` names.

    The low-rank kernel's chunks are sized by its own per-sample stacks, the
    ``(p_out + r) x n`` factors ``L diag(d)`` and the ``n`` entries of ``d``,
    with the projections; its dense hand-off takes the chunks of
    :func:`_pencil_map`.  A ``step`` is passed on to both kernels' phases
    (see :func:`ddaenorm.system_model._grid_phases`).
    """
    ch = sys.delay_channels
    if ch.kernel != "low-rank":
        return _transfer_map(fn, sys.pencil_basis, sys.B, sys.C, rhs, omegas=omegas, tau=tau,
                             step=step)
    rows = sys.p_out + ch.rank
    entries = (rows + 1) * sys.n + rows * (sys.p_in + ch.rank + 1)
    return [fn(*_low_rank_transfer(sys, omegas[sl], tau, step=step))
            for sl in _chunks(len(omegas), entries)]


def _top_singular_value(T) -> np.ndarray:
    """``sigma_1`` of each matrix of a stack ``(N, p, q)``: for 2x2 matrices the closed form
    ``sigma_1^2 = (a + c) / 2 + hypot((a - c) / 2, |b|)`` from the Gram entries ``a``, ``c``
    (squared column norms) and ``b`` (column inner product), else :func:`_singular_values`."""
    if T.shape[1:] != (2, 2):
        return _singular_values(T)[:, 0]
    V = T.view(np.float64)  # squared column norms without a stack-sized temporary
    s = np.einsum("kij,kij->kj", V, V)
    a, c = s[:, 0] + s[:, 1], s[:, 2] + s[:, 3]
    b = np.abs(np.einsum("ki,ki->k", T[:, :, 0].conj(), T[:, :, 1]))
    return np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), b))


def _sigma_2x2(T) -> np.ndarray:
    """Descending singular values of a stack of 2x2 matrices, in closed form:
    ``sigma_1`` from :func:`_top_singular_value` and ``sigma_2 = |det T| /
    sigma_1`` (0 when ``sigma_1`` is 0)."""
    s1 = _top_singular_value(T)
    det = np.abs(T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0])
    s2 = np.divide(det, s1, out=np.zeros_like(s1), where=s1 > 0.0)
    return np.stack([s1, np.minimum(s2, s1)], axis=1)


def _sigma_chunk(T, ok, rcond=None):
    """Descending singular values per sample of a :func:`_transfer` result, NaN where singular."""
    sig = _singular_values(T)
    if len(sig) < len(ok):  # scatter the passing samples, NaN elsewhere
        full = np.full((ok.size, sig.shape[1]), np.nan)
        full[ok] = sig
        sig = full
    return sig, ok


def _singular_values(T) -> np.ndarray:
    """Descending singular values of each matrix of a stack ``(N, p, q)``."""
    N, p, q = T.shape
    if min(p, q) <= 1:  # a row or column: its one singular value is the 2-norm
        sig = np.abs(T).reshape(N, p * q)
        if p * q != 1:  # an empty row reduces to 0
            sig = np.hypot.reduce(sig, axis=1, keepdims=True)
        return sig
    if p == q == 2:
        return _sigma_2x2(T)
    return np.linalg.svd(T, compute_uv=False)


def _sample(S, B, C, **samples):
    """Singular values of ``C M^{-1} B`` over the pencils of map ``S`` (see :func:`_pencil_map`).

    Returns ``(sigmas, ok)``: one descending row per sample, NaN where the
    matrix failed the rcond test and ``ok`` is False.
    """
    return _joined(_transfer_map(_sigma_chunk, S, B, C, B.shape[1] + 1, **samples))


def _joined(parts):
    """One ``(sigmas, ok)`` from the chunks' ones."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _evaluate(parts, point, what) -> np.ndarray:
    """The transfer matrix of a one-sample :func:`_transfer` result ``[(T, ok, rcond)]``;
    raises EvaluationError where singular or not finite."""
    [(T, ok, rcond)] = parts
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
    parts = _T_map(lambda *t: t, sys, np.array([omega], dtype=float), tau)
    return _evaluate(parts, float(omega), "characteristic matrix")


def eval_Ta(dec: BlockDecomposition, omega: float, tau) -> np.ndarray:
    """Asymptotic transfer function ``-C2 A22(j w)^{-1} B2``.

    ``A22(j w) = A22[0] + sum_{i>=1} A22[i] e^{-j w tau_i}``.  Equivalent to
    :func:`eval_Ta_torus` at ``theta = (w tau_1 mod 2 pi, ...)``.
    """
    tau = _resolve_tau(tau, dec.m)
    parts = _transfer_map(lambda *t: t, dec.pencil_basis, dec.B2, dec.C2,
                          omegas=np.array([omega], dtype=float), tau=tau)
    return _evaluate(parts, float(omega), "A22(j*omega)")


def eval_Ta_torus(dec: BlockDecomposition, theta) -> np.ndarray:
    """Torus form ``C2 (-A22[0] - sum A22[i] e^{-j theta_i})^{-1} B2``.

    A singular torus matrix signals that the delay-difference part is not
    strongly stable (gamma_a >= 1 territory).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != dec.m:
        raise DimensionError(f"expected theta of length {dec.m}, got {theta.size}")
    parts = _transfer_map(lambda *t: t, dec.pencil_basis, dec.B2, dec.C2, thetas=theta[None])
    return _evaluate(parts, tuple(theta.tolist()), "torus matrix")


def sigma_T_samples(sys: DdaeSystem, omegas, tau=None, *, step=None):
    """Singular values of ``T(j w)`` on a frequency grid.

    Returns ``(sigmas, ok)`` where ``sigmas`` has one descending row of
    singular values per frequency and ``ok`` flags samples where the
    characteristic matrix was safely invertible; failed rows are NaN.
    ``omegas`` must be 1-D (``ValueError`` otherwise); an empty grid gives
    ``(0, k)`` sigmas and an empty ``ok``.

    ``step`` promises that every frequency is ``k * step`` for an integer
    ``k``, exactly: the phases ``e^{-j w tau_i}`` then come from short
    tables per delay, not from one ``cos`` and ``sin`` per sample and delay,
    and agree with those within a few ``eps (1 + |w tau_i|)``.  A frequency
    off that grid raises ``ValueError``.
    """
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    return _joined(_T_map(_sigma_chunk, sys, _resolve_omegas(omegas), tau, rhs=sys.p_in + 1,
                          step=_resolve_step(step)))


def sigma_Ta_samples(dec: BlockDecomposition, omegas, tau, *, step=None):
    """Singular values of ``T_a(j w)`` on a frequency grid (NaN where singular).

    This is the torus function at ``theta = w * tau``.  ``omegas`` and
    ``step`` are as in :func:`sigma_T_samples`.
    """
    tau = _resolve_tau(tau, dec.m)
    return _sample(dec.pencil_basis, dec.B2, dec.C2, omegas=_resolve_omegas(omegas), tau=tau,
                   step=_resolve_step(step))


def _resolve_omegas(omegas) -> np.ndarray:
    """A sampler's frequencies as a float array; ``ValueError`` unless they are 1-D."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a 1-D grid, got shape {omegas.shape}")
    return omegas


def _resolve_step(step):
    """A sampler's ``step``: None, or a finite, strictly positive float."""
    return None if step is None else float(_check_delays(step, "step"))


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
