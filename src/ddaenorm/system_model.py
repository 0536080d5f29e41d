"""DDAE data model, nullspace block decomposition and standing-assumption checks.

A system is

    E x'(t) = A_0 x(t) + sum_i A_i x(t - tau_i) + B w(t),   z(t) = C x(t)

with E allowed to be singular.  Splitting the state along the nullspace of E
separates the dynamics into a delay differential part and a delay difference
(algebraic) part; most of the analysis in :mod:`ddaenorm.response` and
:mod:`ddaenorm.norms` operates on that block decomposition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AssumptionError, DecompositionError, DimensionError

__all__ = [
    "DdaeSystem",
    "BlockDecomposition",
    "ValidationReport",
    "nullspace_bases",
    "decompose",
    "check_assumption1",
    "check_difference_stability",
    "imaginary_axis_margin",
    "validate_system",
    "DEFAULT_RANK_TOL",
    "DEFAULT_ASSUMPTION_TOL",
]

# Relative rank tolerance: singular values >= tol * sigma_1 count toward rank(E).
DEFAULT_RANK_TOL = 1e-10
# Absolute floor on sigma_min(A22[0]) for Assumption 1.
DEFAULT_ASSUMPTION_TOL = 1e-10
# Byte budget of one complex pencil stack and its solution columns (131,072
# samples of a bare 2x2 pencil): the memory bound of every chunk.  Larger
# budgets ran no faster on 2x2 to 40x40 pencils and took 2-3x the memory;
# smaller ones slowed the short low-rank scans (1-2 MiB: dense-mimo 2-6%).
_STACK_BYTES = 8 << 20
# The most samples in one chunk, whatever its budget.  A chunk of a 2x2 pencil
# runs about ten elementwise passes over its arrays, so long grids of small
# pencils run faster in chunks near the 2 MiB L2 cache of a core (see
# :func:`_chunks`).
_CHUNK_SAMPLES = 1 << 14
# The most points a full torus grid may have: 2**24 (8 per delay at m = 8);
# m = 9 with 8 points per delay would hold about 4.8 GB of rows.
_MAX_TORUS_POINTS = 2 ** 24
# The low-rank kernel of T (see :func:`_delay_channels`) takes a sample only
# where its error gain ``cond(s0 E - A_0) cond(W) max_k |d_k|`` is at most this.
_GAIN_MAX = 1e3
# The cell bounds of the torus sweeps (``norms._cell_bounds`` and
# :func:`_weyl_bounds`): the multiple of ``(n + m) eps`` that covers the rounding
# of a computed sample.
_ROUNDING_SLACK = 64.0
# Grid phases (see :func:`_grid_phases`): ``k = q B + r`` with ``B = 2**_PHASE_BITS``,
# the residues ``r`` whose cos and sin one table holds.
_PHASE_BITS = 8


def _as_real(x, name) -> np.ndarray:
    """A float copy of ``x``; complex input is refused, never truncated."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real")
    return x.astype(float)


def _as_matrix(M, name):
    M = _as_real(M, name)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    return M


def _spectral_norm(M):
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _sigma_min(M):
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[-1])


@dataclass(frozen=True, eq=False)
class DdaeSystem:
    """Immutable delay differential algebraic system with real coefficients.

    The system holds read-only float copies of its inputs, so the caller's
    arrays stay writeable and later writes to them do not reach it.  Complex
    input is refused with a ``ValueError`` naming the argument.

    Parameters
    ----------
    E : (n, n) array
        Possibly singular descriptor matrix.
    A : sequence of (n, n) arrays
        ``A[0]`` is the undelayed coefficient, ``A[i]`` belongs to delay
        ``tau[i-1]``.
    B : (n, p_in) array
        Input matrix (a 1-D vector is treated as a single column).
    C : (p_out, n) array
        Output matrix (a 1-D vector is treated as a single row).
    tau : sequence of float
        Finite, strictly positive delays, one per delayed coefficient.
    """

    E: np.ndarray
    A: tuple
    B: np.ndarray
    C: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        E = _as_matrix(self.E, "E")
        n = E.shape[0]
        if E.shape != (n, n):
            raise DimensionError(f"E must be square, got {E.shape}")
        A = tuple(_as_matrix(Ai, f"A[{i}]") for i, Ai in enumerate(self.A))
        if not A:
            raise DimensionError("A must contain at least A_0")
        for i, Ai in enumerate(A):
            if Ai.shape != (n, n):
                raise DimensionError(f"A[{i}] has shape {Ai.shape}, expected {(n, n)}")
        B = _as_real(self.B, "B")
        if B.ndim == 1:
            B = B.reshape(n, 1)
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got shape {B.shape}")
        C = _as_real(self.C, "C")
        if C.ndim == 1:
            C = C.reshape(1, n)
        if C.ndim != 2 or C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got shape {C.shape}")
        tau = np.atleast_1d(_as_real(self.tau, "tau"))
        if tau.ndim != 1 or len(tau) != len(A) - 1:
            raise DimensionError(
                f"tau has {tau.size} entries for {len(A) - 1} delayed coefficients"
            )
        _check_delays(tau)
        for name, M in (("E", E), *((f"A[{i}]", Ai) for i, Ai in enumerate(A)), ("B", B),
                        ("C", C)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must hold finite entries")
        for arr in (E, *A, B, C, tau):
            arr.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return len(self.A) - 1

    @property
    def p_in(self) -> int:
        return self.B.shape[1]

    @property
    def p_out(self) -> int:
        return self.C.shape[0]

    @cached_property
    def pencil_basis(self) -> np.ndarray:
        """The map of :func:`_pencil_basis` for ``j w E - A_0 - sum A_i e^{-j w tau_i}``,
        built on first use."""
        return _pencil_basis(self.A, self.E)

    @cached_property
    def delay_channels(self) -> DelayChannels:
        """The reduction of :func:`_delay_channels` that evaluates ``T``, built on first use."""
        return _delay_channels(self)


@dataclass(frozen=True, eq=False)
class DelayChannels:
    """``T``'s delay terms as low-rank channels around a once-reduced delay-free pencil.

    ``A_i = U K_i V^T`` for every delayed coefficient, with ``U`` and ``V``
    ``(n, rank)`` and orthonormal, and ``P(s) = s E - A_0`` is reduced as
    ``(s0 E - A_0)(I + (s - s0) Z)`` with ``Z = (s0 E - A_0)^{-1} E = W diag(lam) W^{-1}``.
    ``kernel`` names the evaluator of ``T`` (see :mod:`ddaenorm.response`):
    ``"closed-form"`` for ``n <= 2``, ``"low-rank"`` or ``"dense"``.  The
    arrays are set for ``"low-rank"`` only:

    - ``L = [C; V^T] W`` and ``R = W^{-1} (s0 E - A_0)^{-1} [B, r, U]`` (``r``
      the probe of :func:`_probe`), so that ``[C; V^T] P(s)^{-1} [B, r, U]`` is
      ``L diag(1 / (1 + (s - s0) lam)) R``;
    - ``D``, the map of :func:`_pencil_basis` for ``D = sum_i K_i e^{-j theta_i}``;
    - ``UPV = (U^T E V, U^T A_0 V)`` and ``rest``, the squared Frobenius norms
      of ``E`` and ``A_0`` outside that block, from which
      ``||M||_F^2 = w^2 rest[0] + rest[1] + ||D - U^T P(j w) V||_F^2``.
    """

    rank: int
    kernel: str
    gain: float = 0.0
    s0: float = 0.0
    lam: np.ndarray | None = None
    L: np.ndarray | None = None
    R: np.ndarray | None = None
    D: np.ndarray | None = None
    UPV: tuple = ()
    rest: tuple = ()


def _probe(n) -> np.ndarray:
    """The fixed unit-modulus probe ``r_k = exp(2 pi j k phi)``, ``phi`` the golden ratio."""
    return np.exp(2j * np.pi * (0.5 + 0.5 * math.sqrt(5.0)) * np.arange(n))


def _delay_channels(sys) -> DelayChannels:
    """The :class:`DelayChannels` of ``sys`` (the low-rank kernel of ``T``).

    ``rank`` is the larger of the ranks of ``[A_1 ... A_m]`` and of
    ``[A_1; ...; A_m]`` at rounding level (``np.linalg.matrix_rank``).

    The cost rule: the low-rank kernel pays when ``n >= max(4 rank, 5)``.
    Measured per point on 600 to 1,318-point grids with one BLAS thread, it
    cost 0.3-0.6 of the dense kernel at ``n = 10`` (``rank <= 2``), 0.63-0.91
    at ``n = 5, rank = 1``, 0.81-0.99 at ``n = 8, rank = 2``, 0.27 at
    ``n = 40, rank = 10``, 0.63 at ``n = 40, rank = 20`` and 1.9 at
    ``n = 40, rank = 30``; at ``n = 4, rank = 1`` it cost as much as the
    dense one.  Its per-sample solve of size ``rank`` sets its cost; inputs
    and outputs cost both kernels alike (0.70-0.95 from ``p = 6`` to 40 at
    ``rank = 2``), so they do not enter the rule.

    The accuracy rule: the error of the low-rank kernel grows with
    ``gain = cond(s0 E - A_0) cond(W)`` and with ``max_k |d_k|``.  A system
    with ``gain > _GAIN_MAX`` keeps the dense kernel, and
    :func:`ddaenorm.response._low_rank_transfer` gives it every sample with
    ``gain max_k |d_k| > _GAIN_MAX``.  On 1,000 random systems (``n``
    from 3 to 40, ``rank`` from 1 to 3, 151 frequencies each; 166 took the
    low-rank kernel) ``sigma_1`` then differed from the dense kernel's by at
    most 4.3e-13 relative, and by 7.8e-13 with twice the limit.

    ``W`` does not depend on ``s0``: its columns are the eigenvectors of the
    pencil ``(A_0, E)``.  ``s0`` is the one of ``scale / 10`` and ``scale``,
    ``scale = ||A_0||_F / ||E||_F`` (1 if either is zero), with the better
    conditioned ``s0 E - A_0``.  The smaller one keeps
    ``|d_k| = |s0 - mu_k| / |j w - mu_k|`` near 1 for well damped delay-free
    poles ``mu_k`` (on the seeded dense test systems at ``n = 40`` the largest
    ``gain max_k |d_k|`` is 626 with it and 2,151 with ``scale``); the larger
    one keeps ``s0 E - A_0`` well conditioned when ``A_0`` is near singular,
    as with an integrator.
    """
    n, delayed = sys.n, sys.A[1:]
    rank = 0
    if delayed and n:
        rank = int(max(np.linalg.matrix_rank(np.hstack(delayed)),
                       np.linalg.matrix_rank(np.vstack(delayed))))
    if n <= 2:
        return DelayChannels(rank, "closed-form")
    if not n >= max(4 * rank, 5):
        return DelayChannels(rank, "dense")
    E, A0 = sys.E, sys.A[0]
    norm_e, norm_a = np.linalg.norm(E), np.linalg.norm(A0)
    scale = float(norm_a / norm_e) if norm_e > 0.0 and norm_a > 0.0 else 1.0
    gain, s0 = min((float(np.linalg.cond(s * E - A0)), s) for s in (0.1 * scale, scale))
    P0 = s0 * E - A0
    if gain <= _GAIN_MAX:  # cond(W) >= 1: else P0 is too ill-conditioned already
        lam, W = np.linalg.eig(np.linalg.solve(P0, E))
        gain *= float(np.linalg.cond(W))
    if not gain <= _GAIN_MAX:
        return DelayChannels(rank, "dense")
    U = np.linalg.svd(np.hstack(delayed))[0][:, :rank] if rank else np.zeros((n, 0))
    V = np.linalg.svd(np.vstack(delayed))[2][:rank].T if rank else np.zeros((n, 0))
    Y = np.hstack([sys.B, _probe(n)[:, None], U])
    R = np.linalg.solve(W, np.linalg.solve(P0, Y))
    L = np.vstack([sys.C, V.T]) @ W
    K = tuple(U.T @ Ai @ V for Ai in delayed)
    UPV = (U.T @ E @ V, U.T @ A0 @ V)
    rest = tuple(float(np.sum((X - U @ Xuv @ V.T) ** 2)) for X, Xuv in zip((E, A0), UPV))
    for arr in (lam, L, R, *UPV):
        arr.setflags(write=False)
    return DelayChannels(rank, "low-rank", gain, s0, lam, L, R,
                         _pencil_basis((np.zeros((rank, rank)), *(-Ki for Ki in K))), UPV, rest)


def nullspace_bases(E, rank_tol: float = DEFAULT_RANK_TOL):
    """Orthonormal bases of the left/right nullspaces of E and their complements.

    Returns ``(U, V, Uperp, Vperp)`` with ``U^T E = 0`` and ``E V = 0``.  The
    rank is decided from the singular values of E: values ``>= rank_tol *
    sigma_1`` count toward the rank (boundary values included, so the split is
    deterministic).

    Parameters
    ----------
    E : (n, n) array
    rank_tol : float
        Relative singular value threshold, must be finite and positive.
    """
    E = _as_matrix(E, "E")
    if E.shape[0] != E.shape[1]:
        raise DimensionError(f"E must be square, got {E.shape}")
    if not (math.isfinite(rank_tol) and rank_tol > 0.0):
        raise ValueError(f"rank_tol must be finite and positive, got {rank_tol!r}")
    P, s, Qt = np.linalg.svd(E)
    if s.size and s[0] > 0.0:
        rank = int(np.count_nonzero(s >= rank_tol * s[0]))
    else:
        rank = 0
    Q = Qt.T
    return P[:, rank:], Q[:, rank:], P[:, :rank], Q[:, :rank]


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Nullspace-aligned block form of a :class:`DdaeSystem`.

    ``A11[i] = Uperp^T A_i Vperp`` couples the differential states,
    ``A22[i] = U^T A_i V`` governs the delay difference part, and ``A12``/
    ``A21`` are the cross couplings.  ``E11 = Uperp^T E Vperp`` is invertible
    by construction.  The decomposition carries no delay values: everything
    here depends on the coefficient matrices only, so the grid quantities
    :attr:`gamma_a` and :attr:`torus_sigma_min`, and the pencil map
    :attr:`pencil_basis`, are computed once, on first use.
    """

    U: np.ndarray
    V: np.ndarray
    Uperp: np.ndarray
    Vperp: np.ndarray
    E11: np.ndarray
    A11: tuple
    A12: tuple
    A21: tuple
    A22: tuple
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    rank_tol: float

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def nu(self) -> int:
        """Dimension of the nullspace of E (size of the algebraic part)."""
        return self.U.shape[1]

    @property
    def nd(self) -> int:
        """Number of differential states."""
        return self.n - self.nu

    @property
    def m(self) -> int:
        return len(self.A22) - 1

    @cached_property
    def gamma_a(self) -> float:
        """gamma_a, the largest ``eigvals`` radius over every sample of the default
        grid's slice ``theta_1 = 0`` (exactly ``max |eigvals(F_1)|`` for m = 1, see
        :func:`check_difference_stability`); raises
        :class:`AssumptionError` if ``A22[0]`` is singular, also for m = 0, and
        :class:`DimensionError` when the whole grid is over 2**24 points (m >= 9)."""
        return _difference_radius(self, _default_diff_grid(self.m))

    @cached_property
    def torus_sigma_min(self) -> float:
        """``min_theta sigma_min(-A22[0] - sum_{i>=1} A22[i] e^{-j theta_i})`` on
        the whole default grid, whose slice :attr:`gamma_a` takes
        (``sigma_min(A22[0])`` for m = 0, and ``inf`` without an algebraic part,
        as :func:`check_assumption1` reports).

        Cell rounds of 8, 4 and 2 grid steps (:func:`_cell_rounds`, widths
        ``>= g`` skipped) with the Weyl bound of :func:`_weyl_bounds` skip the
        cells whose rows all compute above a value the rounds have seen, so the
        SVDs of the rows left give the whole grid's minimum, bit for bit."""
        if self.nu == 0:
            return math.inf
        if self.m == 0:
            return _sigma_min(self.A22[0])
        rows, _ = _cell_rounds(self.m, _default_diff_grid(self.m), (8, 4, 2), _weyl_bounds(self))
        return _min_sigma(self.pencil_basis, thetas=rows)

    @cached_property
    def pencil_basis(self) -> np.ndarray:
        """The map of :func:`_pencil_basis` for ``A22`` (the torus matrix), built on first use."""
        return _pencil_basis(self.A22)


def decompose(sys: DdaeSystem, rank_tol: float = DEFAULT_RANK_TOL) -> BlockDecomposition:
    """Compute the nullspace block decomposition of a system.

    Raises
    ------
    DecompositionError
        If ``E11`` is numerically singular, which signals an inconsistent
        rank decision.
    """
    U, V, Uperp, Vperp = nullspace_bases(sys.E, rank_tol)
    E11 = Uperp.T @ sys.E @ Vperp
    norm_E = _spectral_norm(sys.E)
    if E11.size:
        # Boundary singular values count toward the rank, hence ">=" with slack.
        smin = _sigma_min(E11)
        if smin < rank_tol * norm_E * (1.0 - 1e-12):
            raise DecompositionError(
                f"E11 numerically singular (sigma_min={smin:.3e}, "
                f"threshold={rank_tol * norm_E:.3e})"
            )
    A11 = tuple(Uperp.T @ Ai @ Vperp for Ai in sys.A)
    A12 = tuple(Uperp.T @ Ai @ V for Ai in sys.A)
    A21 = tuple(U.T @ Ai @ Vperp for Ai in sys.A)
    A22 = tuple(U.T @ Ai @ V for Ai in sys.A)
    dec = BlockDecomposition(
        U=U, V=V, Uperp=Uperp, Vperp=Vperp, E11=E11,
        A11=A11, A12=A12, A21=A21, A22=A22,
        B1=Uperp.T @ sys.B, B2=U.T @ sys.B,
        C1=sys.C @ Vperp, C2=sys.C @ V,
        rank_tol=rank_tol,
    )
    for arr in (dec.E11, *A11, *A12, *A21, *A22, dec.B1, dec.B2, dec.C1, dec.C2):
        arr.setflags(write=False)
    return dec


def check_assumption1(dec: BlockDecomposition):
    """Check that the undelayed algebraic block ``A22[0]`` is nonsingular.

    Returns ``(ok, margin)`` with ``margin = sigma_min(A22[0])`` and ``ok =
    margin > DEFAULT_ASSUMPTION_TOL``.  For a nonsingular E (no algebraic
    part) the assumption is vacuous and the margin is ``inf``.
    """
    if dec.nu == 0:
        return True, math.inf
    margin = _sigma_min(dec.A22[0])
    return margin > DEFAULT_ASSUMPTION_TOL, margin


def _torus_grid(m: int, grid_per_dim: int) -> np.ndarray:
    """One point of each conjugate pair of the uniform grid on [0, 2*pi)^m, C-order.

    The coefficients are real, so every torus quantity at ``-theta`` is the
    conjugate of its value at ``theta``.  Of grid index ``k`` and its mirror
    ``(-k) mod g`` only the lexicographically smaller is kept: the rows are the
    full C-order grid's rows with the larger mirrors removed, and there are
    ``(g**m + 2**m) / 2`` of them for even ``g`` and ``(g**m + 1) / 2`` for odd.
    A row is kept when its first coordinate that is not its own mirror (``0``,
    or ``pi`` for even ``g``) lies in ``(0, pi)``; the grid is built from that
    rule one leading coordinate at a time.  A full grid of more than
    ``_MAX_TORUS_POINTS`` points raises :class:`DimensionError`.
    """
    _check_grid_size(m, grid_per_dim)
    g = grid_per_dim
    theta = 2.0 * np.pi * np.arange(g) / g
    low = theta[1:(g + 1) // 2]  # (0, pi): the smaller point of each pair
    own = theta[[0, g // 2]] if g % 2 == 0 else theta[:1]  # each its own mirror
    half = full = np.empty((1, 0))  # kept rows and all rows of the trailing coordinates
    for j in range(m):
        half = _products([(own[:1], half), (low, full), (own[1:], half)])
        if j < m - 1:
            full = _products([(theta, full)])
    return half


def _check_grid_size(m: int, g: int):
    """Refuse a torus grid of ``g**m`` points over ``_MAX_TORUS_POINTS``."""
    if g ** m > _MAX_TORUS_POINTS:
        raise DimensionError(f"a torus grid of {g}**{m} points is over the limit of 2**24")


def _products(parts) -> np.ndarray:
    """Rows ``(t, *r)`` for each ``(ts, rows)`` of ``parts`` in turn, ``t`` in ``ts``
    and ``r`` a row of ``rows``, in C order and written into one array."""
    width = 1 + parts[0][1].shape[1]
    out = np.empty((sum(len(t) * len(r) for t, r in parts), width))
    lo = 0
    for t, r in parts:
        block = out[lo:lo + len(t) * len(r)].reshape(len(t), len(r), width)
        block[:, :, 0] = t[:, None]
        block[:, :, 1:] = r
        lo += len(t) * len(r)
    return out


def _cell_rounds(m: int, g: int, widths, bounds):
    """The rows of ``_torus_grid(m, g)`` that may hold a largest computed value.

    Returns the half-grid rows, in their order, that rounds of dyadic cells
    leave open, and the number of cells bounded in each round.  A round of
    width ``w`` covers the grid with blocks of ``w`` grid steps per
    dimension, clipped at the grid's edge; ``widths`` halve from one round to
    the next, and those ``>= g`` are skipped.  The first round takes every
    cell that holds half-grid rows, a later one the ``2^m`` children of the
    cells still open.  A cell has a grid point ``c`` at its centre and every
    point within ``r_i`` steps of ``h = 2 pi / g`` in dimension ``i``, and
    ``bounds(centres, r)``, both (K, m), returns ``(value, bound, q)`` per
    cell: the computed value at ``c`` (NaN where it is flagged), a bound of
    the value computed at every row of the cell (``inf`` where there is
    none), and ``q``, which the bound needs at most 1/2 and which halves
    with the cell.

    A cell is closed when its bound lies below ``t``, the largest value at a
    centre that is a half-grid row, over this round and the ones before.
    ``t`` is a value the sweep computes, so every row of a closed cell
    computes below the sweep's maximum, and the grid maximum and its first
    occurrence are the whole grid's.  A cell whose centre is flagged is never
    closed, and where ``bounds`` promises that no row of a closed cell is
    flagged, the first flagged row is the whole grid's too.  With ``k``
    halvings left, the rounds stop when no cell of this one has ``q <=
    2^(k-1)``: the finest cells would have ``q`` above 1/2, so they would
    cost their bounds and keep every row.  Stopping early only sweeps more
    rows.  Where ``bounds`` raises ``LinAlgError`` (only an SVD that does
    not converge raises it), the whole half grid is returned.  A grid
    of more than ``_MAX_TORUS_POINTS`` points raises :class:`DimensionError`.
    """
    _check_grid_size(m, g)
    widths = [w for w in widths if w < g]
    theta = 2.0 * np.pi * np.arange(g) / g
    i = np.arange(g)
    low, own = (0 < 2 * i) & (2 * i < g), (i == 0) | (2 * i == g)
    half, t, counts, kept = _half_rows(low, own, m), -np.inf, [], None
    for left, w in zip(range(len(widths) - 1, -1, -1), widths):
        lo = np.arange(0, g, w)
        size = np.minimum(lo + w, g) - lo
        held = _half_rows(np.logical_or.reduceat(low, lo), np.logical_or.reduceat(own, lo), m)
        if kept is not None:  # the children of the cells still open
            held &= kept[np.ix_(*[lo // (2 * w)] * m)]
        cells = np.argwhere(held)
        index = (lo + size // 2)[cells]
        counts.append(len(cells))
        try:
            value, bound, q = bounds(theta[index], (2.0 * np.pi / g) * (size // 2)[cells])
        except np.linalg.LinAlgError:
            return _torus_grid(m, g), counts
        t = np.fmax.reduce(value[half[tuple(index.T)]], initial=t)  # skips NaN (flagged)
        kept = held
        kept[tuple(cells[bound < t].T)] = False
        if left and not (q <= 2.0 ** (left - 1)).any():
            break
    if kept is None:
        return _torus_grid(m, g), counts
    for axis in range(m):
        kept = np.repeat(kept, size, axis=axis)
    rows = np.flatnonzero(half & kept)  # flat C-order indices, as the half grid runs
    return theta[rows[:, None] // g ** np.arange(m - 1, -1, -1) % g], counts


def _half_rows(low, own, m: int) -> np.ndarray:
    """The rows of :func:`_torus_grid` as a mask: the first coordinate that is
    not its own mirror lies in (0, pi), or every coordinate is its own mirror.

    ``low`` and ``own`` flag these per grid index; given per block of
    indices (whether the block holds one), the mask flags the cells that hold
    a row of the half grid.
    """
    half = np.ones((), dtype=bool)
    for _ in range(m):
        half = low.reshape(-1, *[1] * half.ndim) | (own.reshape(-1, *[1] * half.ndim) & half)
    return half


def _weyl_bounds(dec: BlockDecomposition):
    """The ``bounds`` of :func:`_cell_rounds` for the smallest ``sigma_min`` of
    the torus matrix ``M(theta) = -A22[0] - sum_i A22[i] e^{-j theta_i}``.

    The rounds keep a largest value, so the values are ``-sigma_min``.  With
    ``delta = sum_i r_i ||A22[i]||``, ``||M(theta) - M(c)|| <= delta`` on the
    cell (``|e^{-j theta} - e^{-j c}| <= |theta - c|``), and Weyl's inequality
    gives ``sigma_min(M(theta)) >= sigma_min(M(c)) - delta``.  A computed
    ``sigma_min`` lies within ``s = u sum_{i>=0} ||A22[i]||`` of the exact one,
    with ``u = _ROUNDING_SLACK (n + m) eps``: it is the exact one of a matrix
    perturbed by the assembly (``(2 m + 1) eps`` times the entries' sums) and
    by the SVD's backward error (a modest multiple of ``n eps ||M||``).  So
    every row of the cell computes at least ``sigma_min(c) - 1.01 delta - 2 s``,
    the factor 1.01 covering the rounding of ``r`` and of the norms.  ``q =
    1.01 delta / (2 (sigma_min(c) - sigma_0 - 2 s))``, with ``sigma_0`` the
    smallest value at the round's centres (``inf`` where the gap is not
    positive), is at most 1/2 about where the cell can close, so the rounds
    stop where no cell could close even at the finest width, as on grids
    flat to rounding.
    """
    a = np.array([_spectral_norm(Ai) for Ai in dec.A22])
    slack = 2.0 * _ROUNDING_SLACK * (dec.nu + dec.m) * np.finfo(float).eps * a.sum()

    def bounds(centres, r):
        smin = np.concatenate(_pencil_map(lambda M: np.linalg.svd(M, compute_uv=False)[:, -1],
                                          dec.pencil_basis, thetas=centres))
        delta = 1.01 * (r @ a[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = delta / (2.0 * (smin - smin.min() - slack))
        q[~(q >= 0.0)] = np.inf
        return -smin, delta + slack - smin, q

    return bounds


def _default_diff_grid(m: int) -> int:
    if m <= 2:
        return 64
    if m == 3:
        return 24
    return 8


def _resolve_tau(tau, m: int) -> np.ndarray:
    """A delay override as a vector of ``m`` delays, checked as :class:`DdaeSystem` checks tau."""
    tau = np.atleast_1d(tau)
    if tau.size != m:
        raise DimensionError(f"expected {m} delays, got {tau.size}")
    return _check_delays(tau)


def _check_delays(tau, name="tau", *, zero=False) -> np.ndarray:
    """``tau``, a delay or an array of them, as floats.

    Raises a ``ValueError`` naming ``name`` unless every delay is real, finite
    and strictly positive, or also zero where ``zero``.
    """
    tau = _as_real(tau, name)
    if not (np.isfinite(tau) & ((tau >= 0.0) if zero else (tau > 0.0))).all():
        rule = "nonnegative" if zero else "strictly positive"
        if tau.ndim:
            raise ValueError(f"{name} must hold finite, {rule} delays, got {tau.tolist()}")
        raise ValueError(f"{name} must be finite and {rule}, got {float(tau)!r}")
    return tau


def _pencil_map(fn, S, *, omegas=None, tau=None, thetas=None, rhs=0, step=None) -> list:
    """Apply ``fn`` to pencil stacks over consecutive chunks of the samples.

    ``S`` is the map of :func:`_pencil_basis`, built once per system.  Sample
    ``k`` is ``lam_k E - A[0] - sum_{i>=1} A[i] e^{-j theta_k[i-1]}`` with
    ``theta_k = omegas[k] * tau`` on the frequency axis, else ``thetas[k]`` on
    the torus; ``lam_k = 1j*omegas[k]``, and a map built without ``E`` drops
    the term (the torus matrix of the algebraic block).  A ``step`` promises
    that every ``omegas[k]`` is an integer multiple of it, and the phases then
    come from the tables of :func:`_grid_phases`.  Each chunk's stack,
    together with the ``rhs`` solution columns per sample that ``fn``
    allocates, holds at most ``_STACK_BYTES`` (and at least one sample), so
    memory stays bounded however long the grid, and at most
    ``_CHUNK_SAMPLES`` samples, so the long grids of small pencils run in
    chunks that stay near the cache (see :func:`_chunks`).  Every chunk, a
    lone sample included, is one product of a ``(K, N)`` coefficient block
    with ``S``: one 2-D GEMM for ``n <= 2`` (a lone sample padded to two
    rows), a stacked product otherwise (see :func:`_pencil_stack`); either
    way, and with or without ``step``, a sample's pencil does not depend on
    where the chunks split.  Returns the ``fn`` results in sample order.
    """
    n = math.isqrt(S.shape[1] // 2)
    chunks = _chunks(len(thetas) if omegas is None else len(omegas), n * (n + rhs))
    if omegas is None:
        return [fn(_pencil_stack(S, n, thetas=thetas[sl])) for sl in chunks]
    return [fn(_pencil_stack(S, n, omegas[sl], tau, step=step)) for sl in chunks]


def _chunks(count, entries):
    """Slices of ``count`` samples (one slice when 0), each within ``_STACK_BYTES``
    at ``entries`` complex numbers per sample and at most ``_CHUNK_SAMPLES`` long.

    The budget bounds memory.  The cap binds only where a sample has fewer
    than 32 entries (so ``n <= 5``, with few solution columns), where the
    budget would allow up to 131,072 samples: the elementwise passes of a
    chunk (its phases, the closed-form solve and the singular values) then
    stream from memory instead of staying near the cache.  On
    SYS-A's 393,469-point scan, one BLAS thread, ``sigma_T_samples`` took 38-41
    ns a point with caps of 8,192 and 16,384 samples, against 43 ns at
    4,096, 47 ns at 32,768 and 52-53 ns at 65,536 or with no cap.
    """
    step = min(max(_STACK_BYTES // (16 * max(entries, 1)), 1), _CHUNK_SAMPLES)
    return (slice(lo, lo + step) for lo in range(0, max(count, 1), step))


def _pencil_basis(A, E=None) -> np.ndarray:
    """The real, read-only ``(K, 2 n^2)`` map of :func:`_pencil_stack`.

    ``-A[0]`` and ``-A[1..m]`` fill the even (real-part) columns of the first
    ``m + 1`` rows; ``E`` (when given) and ``A[1..m]`` the odd (imaginary-part)
    columns of the others, so that the coefficient row
    ``[1, cos theta_1..m, omega, sin theta_1..m]`` maps to the float64 view of
    ``j omega E - A[0] - sum_i A[i] e^{-j theta_i}``; ``K`` is ``2 m + 2`` with
    ``E`` and ``2 m + 1`` without.  The coefficients must be real: a complex
    one with a nonzero imaginary part raises ``ValueError`` (a zero one is
    dropped).
    """
    imag = A[1:] if E is None else (E, *A[1:])
    if any(np.iscomplexobj(M) and M.imag.any() for M in (*A, *imag)):
        raise ValueError("pencil coefficients must be real")
    S = np.zeros((len(A) + len(imag), *A[0].shape, 2))
    for k, Ak in enumerate(A):
        S[k, ..., 0] = -Ak.real
    for k, Mk in enumerate(imag, len(A)):
        S[k, ..., 1] = Mk.real
    S = S.reshape(len(S), -1)
    S.setflags(write=False)
    return S


def _pencil_stack(S, n, omegas=None, tau=None, thetas=None, step=None) -> np.ndarray:
    """One chunk of :func:`_pencil_map`: the coefficient block times the map ``S``.

    A map of ``L`` pencils side by side (``[S | S']``, ``L 2 n^2`` columns)
    gives them one under another, an ``(N, L n, n)`` stack.

    The block is ``(K, N)``, one contiguous row per coefficient: the phases
    ``tau_i * omegas`` (or ``thetas``) go straight into rows ``1..m``, their
    ``sin`` into the last ``m`` rows, then their ``cos`` in place; with a
    ``step``, :func:`_grid_phases` writes both from its tables instead.  The
    ``omegas`` row is there only when ``S`` has one for ``E``.  The product
    is written straight into the float64 view of the complex stack, with no
    stack-sized temporary.  For ``n <= 2`` it is one 2-D product ``X^T S``,
    where a stacked product would make one small BLAS call per sample.  A
    lone sample is padded to two rows, as a one-row product would take
    another BLAS routine, so a sample gives the same bits alone and in any
    chunk.  Larger pencils keep the stacked product, the same small one for
    every sample, fed from a contiguous copy of ``X^T``.  Per sample of a
    65,536-sample chunk (before the ``_CHUNK_SAMPLES`` cap) with ``K = 6``,
    one BLAS thread:

        n     stacked product   2-D product
        1     52-76 ns          6.0 ns
        2     46-82 ns          12-18 ns
        8     230-259 ns        272-303 ns
        10    303-352 ns        457-492 ns

    With the product that small, the phases were most of a chunk at
    ``n <= 2``.  The whole stack per sample of a run of SYS-A's scan grid at
    delays (0.999, 2), whose ``cos`` and ``sin`` come from libm or, with
    ``step``, from the tables of :func:`_grid_phases` (medians of 45
    interleaved calls per process, one BLAS thread; six processes at the
    cap's 16,384 samples, three at 65,536):

        n     16,384 samples        65,536 samples
              libm      tables      libm      tables
        1     28-30 ns  12-13 ns    29-32 ns  15-16 ns
        2     30-32 ns  13-15 ns    35-38 ns  20-21 ns
    """
    K = len(S)
    m = (K - 1) // 2
    N = len(thetas) if omegas is None else len(omegas)
    X = np.empty((K, N))
    X[0] = 1.0
    phase = X[1:m + 1]
    if omegas is not None and K > 2 * m + 1:
        X[m + 1] = omegas
    if step is not None:
        _grid_phases(tau, step, omegas, phase, X[K - m:])
    else:
        if omegas is None:
            phase[...] = thetas.T
        else:
            np.multiply.outer(tau, omegas, out=phase)
        with np.errstate(invalid="ignore"):  # a non-finite phase gives NaN, flagged downstream
            np.sin(phase, out=X[K - m:])
            np.cos(phase, out=phase)
    M = np.empty((N, S.shape[1] // (2 * max(n, 1)), n), dtype=complex)
    V = M.reshape(N, M.shape[1] * n).view(np.float64)
    if n > 2:
        np.matmul(np.ascontiguousarray(X.T)[:, None], S, out=V[:, None])
    elif N != 1:
        np.matmul(X.T, S, out=V)
    else:  # a one-row product would take another BLAS routine: pad it to two rows
        V[:] = np.matmul(np.concatenate([X.T, X.T]), S)[:1]
    return M


def _grid_phases(tau, h, omegas, c, s):
    """``cos`` and ``sin`` of the phases ``tau_i * omegas`` into ``c`` and ``s``,
    both ``(m, N)``, where every ``omegas[k]`` is an integer multiple of ``h``.

    With ``B = 2**_PHASE_BITS = 256``, sample ``w = (q B + r) h`` takes the cos and
    sin of ``a = tau_i (h (q B))`` and ``b = tau_i (h r)`` from two tables and
    adds the angles: ``cos(a + b) = cos a cos b - sin a sin b`` and ``sin(a +
    b) = sin a cos b + cos a sin b``.  So one chunk makes about ``2 m N / B``
    libm calls, not ``2 m N``, and the residue table (:func:`_residue_table`)
    its ``2 m B`` once per delays and step.  A contiguous run of the grid, a
    lone sample included, takes outer products of the tables over whole
    blocks; any other set of samples (a subset, say) gathers from a table of
    the ``q`` it holds and from the residue table.  Both do the same multiplies and the same
    addition, and a table entry depends only on ``(tau_i, h, q)`` or ``(tau_i,
    h, r)``, so a sample's phases depend only on ``(tau, h, k)``: the same
    bits alone, in any chunk and in any subset.  Each side of the addition
    is within a few ulps of its angle, so the phases agree with ``cos`` and
    ``sin`` of ``tau_i * omegas`` within a few ``eps (1 + |tau_i w|)``: both
    round the phase itself by about ``|tau_i w| eps``.  Raises ``ValueError``
    when a sample is not an exact multiple ``k h`` with ``|k| <= 2^52``
    (without delays there is nothing to compute or check).
    """
    B, N, m = 1 << _PHASE_BITS, len(omegas), len(tau)
    if not (N and m):
        return
    k0 = float(omegas[0]) / h
    k0 = round(k0) if abs(k0) <= 2.0 ** 52 - N else None
    if k0 is not None and (np.arange(k0, k0 + N) * h == omegas).all():
        q0, lo = divmod(k0, B)
        nq = (lo + N - 1) // B + 1
        qs = np.arange(q0 * B, (q0 + nq) * B, B)
    else:
        k = np.rint(omegas / h)
        if not ((k * h == omegas) & (np.abs(k) <= 2.0 ** 52)).all():
            raise ValueError("step: every frequency must be an integer multiple of it")
        k = k.astype(np.int64)
        q, r = k >> _PHASE_BITS, k & (B - 1)
        if q.max() - q.min() < 2 * N:  # the blocks from the first sample's to the last's
            qs = np.arange(q.min(), q.max() + 1)
            q -= qs[0]
        else:
            qs, q = np.unique(q, return_inverse=True)
        nq, lo, qs = len(qs), None, B * qs
    angles = np.multiply.outer(tau, h * qs)
    a = np.empty((2, m, nq))  # [cos; sin] of the q angles
    np.cos(angles, out=a[0])
    np.sin(angles, out=a[1])
    b = _residue_table(np.asarray(tau, dtype=np.float64).tobytes(), float(h))
    if lo is None:  # the gathers
        a, b, lo = a.take(q, axis=2), b.take(r, axis=2), 0
    else:  # whole blocks, then the run within them
        a, b = a[..., None], b[..., None, :]
    t = a * b  # [cos a cos b, sin a sin b]
    run = t.reshape(2, m, -1)[..., lo:lo + N]
    np.subtract(run[0], run[1], out=c)
    np.multiply(a, b[::-1], out=t)  # [cos a sin b, sin a cos b]
    np.add(run[1], run[0], out=s)


@lru_cache(maxsize=64)
def _residue_table(tau_data, h) -> np.ndarray:
    """``[cos; sin]`` of ``tau_i (h r)`` for the residues ``r`` of :func:`_grid_phases`.

    ``(2, m, 2**_PHASE_BITS)``, for the delays with these bytes.  Cached and
    read-only, as a grid's step recurs in every chunk and call of a sweep:
    its ``2 m 2**_PHASE_BITS`` libm calls were about half the cost of a
    short call.
    """
    angles = np.multiply.outer(np.frombuffer(tau_data), h * np.arange(1 << _PHASE_BITS))
    table = np.empty((2, *angles.shape))
    np.cos(angles, out=table[0])
    np.sin(angles, out=table[1])
    table.flags.writeable = False
    return table


def _min_sigma(S, **samples) -> float:
    """Smallest singular value of the pencil over all samples (see :func:`_pencil_map`)."""
    return min(_pencil_map(lambda M: float(np.linalg.svd(M, compute_uv=False)[:, -1].min()),
                           S, **samples))


def check_difference_stability(dec: BlockDecomposition, grid_per_dim: int | None = None) -> float:
    """Spectral-radius margin gamma_a of the delay-difference part.

    gamma_a is the maximum over a uniform grid on ``[0, 2*pi)^m`` of the
    spectral radius of ``F(theta) = A22[0]^{-1} sum_{i>=1} A22[i] e^{-j theta_i}``.
    The difference part is strongly exponentially stable only if gamma_a < 1;
    the quantity does not depend on the delay values.  It is 0 without an
    algebraic part, and 0 without delays once Assumption 1 holds; where it
    fails, :class:`AssumptionError` is raised, also for m = 0.  On the default
    grid (``grid_per_dim=None``) this is the value memoised in
    :attr:`BlockDecomposition.gamma_a`.

    ``F(theta + phi (1, .., 1)) = e^{-j phi} F(theta)``, so every grid point
    shares its radius with a point of the slice ``theta_1 = 0``, and only that
    slice is sampled: ``g**(m-1)`` points, one of each conjugate pair
    (:func:`_torus_grid`).  The value equals the whole grid's up to rounding;
    for m = 1 it is ``max |eigvals(F_1)|``, one sample whatever the grid.  It
    is monotone nondecreasing under refinement by doubling, since the pair of
    every coarse point lies in the doubled grid.  ``eigvals`` runs on every
    sample of the slice.  A ``grid_per_dim`` that is not an integer ``>= 1``
    raises ``ValueError`` for every system, and a whole grid of more than
    ``2**24`` points (the default one from m = 9 on) raises
    :class:`DimensionError`, though only its slice would be built.
    """
    g = None if grid_per_dim is None else _positive_int(grid_per_dim, "grid_per_dim")
    return dec.gamma_a if g is None else _difference_radius(dec, g)


def _positive_int(value, name) -> int:
    """``value`` by ``operator.index``; ``ValueError`` naming ``name`` unless it
    is an integer ``>= 1``."""
    try:
        g = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if g < 1:
        raise ValueError(f"{name} must be >= 1")
    return g


def _difference_radius(dec: BlockDecomposition, g: int) -> float:
    """gamma_a on the slice ``theta_1 = 0`` of a ``g``-point-per-dimension grid,
    after Assumption 1; refused, as :func:`_torus_grid`, if ``g**m > 2**24``.

    The value is the largest ``eigvals`` radius over every sample of the slice.
    """
    if dec.nu == 0:
        return 0.0
    ok, margin = check_assumption1(dec)
    if not ok:
        raise AssumptionError(
            f"A22[0] is singular to tolerance (sigma_min={margin:.3e}); "
            "the difference part is ill-posed"
        )
    if dec.m == 0:
        return 0.0
    # With a zero constant term and the delay terms F_i = -A22[0]^{-1} A22[i],
    # solved once, the pencil is A22[0]^{-1} sum_{i>=1} A22[i] e^{-j theta_i}.
    A0 = dec.A22[0]
    S = _pencil_basis((np.zeros_like(A0),) + tuple(np.linalg.solve(-A0, Ai) for Ai in dec.A22[1:]))
    _check_grid_size(dec.m, g)
    thetas = _products([(np.zeros(1), _torus_grid(dec.m - 1, g))])
    return float(max(_pencil_map(lambda M: np.abs(np.linalg.eigvals(M)).max(), S, thetas=thetas)))


def imaginary_axis_margin(sys: DdaeSystem, omega_max: float, count: int = 2001, tau=None) -> float:
    """Best-effort stability diagnostic: min over a frequency grid of
    ``sigma_min(j*omega*E - A_0 - sum A_i e^{-j*omega*tau_i})``.

    A small value flags a characteristic root close to the scanned part of the
    imaginary axis; a comfortable margin proves nothing by itself.  The grid
    has ``count`` points on ``[0, omega_max]``, with ``count`` an integer ``>= 1``
    and ``omega_max`` finite and nonnegative; other values raise ``ValueError``.
    """
    count = _positive_int(count, "count")
    omega_max = _omega_max(omega_max)
    tau = _resolve_tau(sys.tau if tau is None else tau, sys.m)
    omegas = np.linspace(0.0, omega_max, count)
    return _min_sigma(sys.pencil_basis, omegas=omegas, tau=tau)


def _omega_max(value) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite and nonnegative."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"omega_max must be finite and nonnegative, got {value}")
    return value


@dataclass
class ValidationReport:
    """Outcome of the standing-assumption checks for one system."""

    rank_E: int
    nu: int
    assumption1_ok: bool
    assumption1_margin: float
    difference_stability_margin: float
    messages: list = field(default_factory=list)
    axis_margin: float | None = None

    @property
    def ok(self) -> bool:
        gamma = self.difference_stability_margin
        return self.assumption1_ok and math.isfinite(gamma) and gamma < 1.0

    def to_dict(self) -> dict:
        def num(x):
            return x if (x is None or math.isfinite(x)) else None
        return {
            "rank_E": self.rank_E,
            "nu": self.nu,
            "assumption1_ok": self.assumption1_ok,
            "assumption1_margin": num(self.assumption1_margin),
            "difference_stability_margin": num(self.difference_stability_margin),
            "axis_margin": num(self.axis_margin),
            "messages": list(self.messages),
        }


def validate_system(
    sys: DdaeSystem,
    rank_tol: float = DEFAULT_RANK_TOL,
    grid_per_dim: int | None = None,
    axis_scan_omega_max: float | None = None,
) -> ValidationReport:
    """Run the assumption checks and collect a human-readable report.

    The strong-stability check is a diagnostic, not a certificate: it verifies
    gamma_a < 1 for the delay-difference part and, optionally, scans
    ``sigma_min`` of the characteristic matrix along part of the imaginary
    axis.  Full characteristic-root analysis is out of scope.

    The options are checked first, whatever the assumption checks find: a
    ``rank_tol`` that is not finite and positive, a ``grid_per_dim`` that is
    not an integer ``>= 1`` and an ``axis_scan_omega_max`` that is not finite
    and nonnegative raise ``ValueError``.
    """
    if grid_per_dim is not None:
        _positive_int(grid_per_dim, "grid_per_dim")
    if axis_scan_omega_max is not None:
        _omega_max(axis_scan_omega_max)
    dec = decompose(sys, rank_tol)
    messages = []
    ok1, margin1 = check_assumption1(dec)
    if dec.nu == 0:
        messages.append("E is nonsingular: no algebraic part, assumption on A22[0] is vacuous")
    elif not ok1:
        messages.append(
            f"U^T A_0 V is singular to tolerance (sigma_min={margin1:.3e}); system is ill-posed"
        )
    gamma_a = math.nan
    if ok1:
        gamma_a = check_difference_stability(dec, grid_per_dim=grid_per_dim)
        if gamma_a >= 1.0:
            messages.append(
                f"delay-difference part not strongly stable (gamma_a={gamma_a:.4f} >= 1); "
                "H-infinity norms may be unbounded"
            )
        elif gamma_a >= 0.95:
            messages.append(f"gamma_a={gamma_a:.4f} is close to 1; results may be fragile")
    axis_margin = None
    if axis_scan_omega_max is not None and ok1:
        axis_margin = imaginary_axis_margin(sys, axis_scan_omega_max)
        if axis_margin < 1e-8:
            messages.append(
                f"characteristic matrix nearly singular on the scanned axis "
                f"(min sigma_min={axis_margin:.3e}); system may be unstable"
            )
    return ValidationReport(
        rank_E=dec.nd,
        nu=dec.nu,
        assumption1_ok=ok1,
        assumption1_margin=margin1,
        difference_stability_margin=gamma_a,
        messages=messages,
        axis_margin=axis_margin,
    )

