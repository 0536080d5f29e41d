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
from functools import cached_property

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
# samples of a bare 2x2 pencil); on 2x2 to 40x40 pencils larger budgets ran no
# faster and took 2-3x the memory.
_STACK_BYTES = 8 << 20
# Pruned grids (gamma_a here, the strong-norm sweep in ``norms``): the multiple of
# ``n eps`` (times the problem's scale) that covers the rounding of one computed
# sample, and an absolute floor that covers underflow in sums of squares.
_ROUNDING_SLACK = 64.0
_UNDERFLOW = 1e-150
# Samples per ``eigvals`` call of the pruned gamma_a grid, and at most per part
# of its bound pass.
_EIG_BATCH = 64
_BOUND_PART = 256


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
        Relative singular value threshold, must be positive.
    """
    E = _as_matrix(E, "E")
    if E.shape[0] != E.shape[1]:
        raise DimensionError(f"E must be square, got {E.shape}")
    if rank_tol <= 0.0:
        raise ValueError("rank_tol must be positive")
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
        """gamma_a on the default grid (:func:`check_difference_stability`);
        raises :class:`AssumptionError` if ``A22[0]`` is singular, also for m = 0."""
        return _difference_radius(self, _default_diff_grid(self.m))

    @cached_property
    def torus_sigma_min(self) -> float:
        """``min_theta sigma_min(-A22[0] - sum_{i>=1} A22[i] e^{-j theta_i})`` on
        the default grid of :attr:`gamma_a` (``sigma_min(A22[0])`` for m = 0)."""
        if self.m == 0:
            return _sigma_min(self.A22[0])
        return _min_sigma(self.pencil_basis,
                          thetas=_torus_grid(self.m, _default_diff_grid(self.m)))

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
    rule one leading coordinate at a time.
    """
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


def _default_diff_grid(m: int) -> int:
    if m <= 2:
        return 64
    if m == 3:
        return 24
    return 8


def _resolve_tau(tau, m: int) -> np.ndarray:
    """A delay override as a vector of ``m`` delays, checked as :class:`DdaeSystem` checks tau."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if tau.size != m:
        raise DimensionError(f"expected {m} delays, got {tau.size}")
    return _check_delays(tau)


def _check_delays(tau, name="tau", *, zero=False) -> np.ndarray:
    """``tau``, a delay or an array of them, as floats.

    Raises a ``ValueError`` naming ``name`` unless every delay is finite and
    strictly positive, or also zero where ``zero``.
    """
    tau = np.asarray(tau, dtype=float)
    if not (np.isfinite(tau) & ((tau >= 0.0) if zero else (tau > 0.0))).all():
        rule = "nonnegative" if zero else "strictly positive"
        if tau.ndim:
            raise ValueError(f"{name} must hold finite, {rule} delays, got {tau.tolist()}")
        raise ValueError(f"{name} must be finite and {rule}, got {float(tau)!r}")
    return tau


def _pencil_map(fn, S, *, omegas=None, tau=None, thetas=None, rhs=0) -> list:
    """Apply ``fn`` to pencil stacks over consecutive chunks of the samples.

    ``S`` is the map of :func:`_pencil_basis`, built once per system.  Sample
    ``k`` is ``lam_k E - A[0] - sum_{i>=1} A[i] e^{-j theta_k[i-1]}`` with
    ``theta_k = omegas[k] * tau`` on the frequency axis, else ``thetas[k]`` on
    the torus; ``lam_k = 1j*omegas[k]``, and a map built without ``E`` drops
    the term (the torus matrix of the algebraic block).  Each chunk's stack,
    together with the ``rhs`` solution columns per sample that ``fn``
    allocates, holds at most ``_STACK_BYTES`` (and at least one sample), so
    memory stays bounded however long the grid.  Every chunk, a lone sample
    included, is one product with ``S`` (see :func:`_pencil_stack`).  Returns
    the ``fn`` results in sample order.
    """
    n = math.isqrt(S.shape[1] // 2)
    count = len(thetas) if omegas is None else len(omegas)
    step = max(_STACK_BYTES // (16 * max(n * (n + rhs), 1)), 1)
    out = []
    for lo in range(0, max(count, 1), step):
        sl = slice(lo, lo + step)
        if omegas is None:
            out.append(fn(_pencil_stack(S, n, thetas[sl])))
        else:
            out.append(fn(_pencil_stack(S, n, omegas[sl, None] * tau, omegas[sl])))
    return out


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


def _pencil_stack(S, n, theta, omegas=None) -> np.ndarray:
    """One chunk of :func:`_pencil_map`: one stacked product with the map ``S``.

    The ``(N, 1, K)`` coefficient rows times ``S`` are written straight into
    the float64 view of the complex stack, with no stack-sized temporary; the
    ``omegas`` row is there only when ``S`` has one for ``E``.  The stacked
    form makes the same small product for every sample, whether it is alone
    or in a chunk of any length, where a 2-D product of a one-row chunk would
    take another BLAS routine, so the stacks do not depend on where the chunks
    split.
    """
    N, m = theta.shape
    X = np.empty((N, len(S)))
    X[:, 0] = 1.0
    with np.errstate(invalid="ignore"):  # a non-finite phase gives NaN, flagged downstream
        np.cos(theta, out=X[:, 1:m + 1])
        np.sin(theta, out=X[:, len(S) - m:])
    if len(S) > 2 * m + 1:
        X[:, m + 1] = omegas
    M = np.empty((N, n, n), dtype=complex)
    np.matmul(X[:, None], S, out=M.reshape(N, 1, n * n).view(np.float64))
    return M


def _min_sigma(S, **samples) -> float:
    """Smallest singular value of the pencil over all samples (see :func:`_pencil_map`)."""
    return min(_pencil_map(lambda M: float(np.linalg.svd(M, compute_uv=False)[:, -1].min()),
                           S, **samples))


def check_difference_stability(dec: BlockDecomposition, grid_per_dim: int | None = None) -> float:
    """Spectral-radius margin gamma_a of the delay-difference part.

    gamma_a is the maximum over a uniform grid on ``[0, 2*pi)^m`` of the
    spectral radius of ``A22[0]^{-1} sum_{i>=1} A22[i] e^{-j theta_i}``.  The
    difference part is strongly exponentially stable only if gamma_a < 1; the
    quantity does not depend on the delay values.  It is 0 without delays or
    without an algebraic part.  On the default grid (``grid_per_dim=None``)
    this is the value memoised in :attr:`BlockDecomposition.gamma_a`.

    The grid estimate is monotone nondecreasing under refinement by doubling:
    the grid keeps one point of each conjugate pair (:func:`_torus_grid`), and
    the pair of every coarse point lies in the doubled grid.  Only the samples
    whose Gelfand bound ``||F^8||^(1/8)`` (plus a rounding slack) exceeds the
    largest radius found are decomposed, so the value is the whole grid's,
    bit for bit, at a fraction of the ``eigvals`` calls.
    """
    if dec.m == 0:
        return 0.0
    if grid_per_dim is None:
        return dec.gamma_a
    return _difference_radius(dec, _integral("grid_per_dim", grid_per_dim))


def _integral(name: str, value) -> int:
    """``value`` by ``operator.index``; ``ValueError`` naming ``name`` if it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _difference_radius(dec: BlockDecomposition, g: int) -> float:
    """gamma_a on a ``g``-point-per-dimension grid, after Assumption 1.

    The value is the largest ``eigvals`` radius over the grid, but only the
    samples that may hold it are decomposed.  A first pass keeps one scalar
    per sample, the bound :func:`_radius_bound` of the radius ``eigvals``
    computes there.  ``eigvals`` then runs on batches of ``_EIG_BATCH`` samples
    in decreasing order of that bound and stops once the next bound is at most
    the best radius found: no sample left can exceed it, so the result is the
    whole grid's maximum, bit for bit.  The samples of a batch are assembled
    again, which repeats the first pass's sums exactly.
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
    if g < 1:
        raise ValueError("grid_per_dim must be >= 1")
    # With a zero constant term and the delay terms F_i = -A22[0]^{-1} A22[i],
    # solved once, the pencil is A22[0]^{-1} sum_{i>=1} A22[i] e^{-j theta_i}.
    A0 = dec.A22[0]
    S = _pencil_basis((np.zeros_like(A0),) + tuple(np.linalg.solve(-A0, Ai) for Ai in dec.A22[1:]))
    thetas = _torus_grid(dec.m, g)
    # Parts of at most _BOUND_PART samples keep the squarings' stacks small.
    parts = np.array_split(thetas, -(-len(thetas) // _BOUND_PART))
    bound = np.concatenate([b for part in parts for b in _pencil_map(
        _radius_bound, S, thetas=part, rhs=2 * A0.shape[0])])
    order = np.argsort(-bound, kind="stable")
    best = -math.inf
    for lo in range(0, order.size, _EIG_BATCH):
        if bound[order[lo]] <= best:
            break
        best = max(best, *_pencil_map(lambda M: np.abs(np.linalg.eigvals(M)).max(), S,
                                      thetas=thetas[order[lo:lo + _EIG_BATCH]]))
    return float(best)


def _radius_bound(M) -> np.ndarray:
    """Per sample, an upper bound of the spectral radius ``eigvals`` computes for ``M``.

    Gelfand's bound ``rho(F) <= ||F^8||^(1/8) <= ||F^8||_F^(1/8)``, with ``F^8``
    from three squarings and ``f = ||F||_F``, plus a slack for rounding:
    ``(||fl(F^8)||_F + _ROUNDING_SLACK n (n + 1) eps f^8 + _UNDERFLOW)^(1/8)``.

    * The squarings: a product ``fl(XY)`` is off by at most ``n eps ||X|| ||Y||``
      in the Frobenius norm, which adds up to ``7 n eps f^8`` over the three.
    * ``eigvals``: the radius it returns is that of ``F + E`` with
      ``||E||_F <= p(n) eps f`` (backward stability, ``p(n)`` a modest multiple of
      ``n``), and ``||(F + E)^8 - F^8||_F <= (f + ||E||)^8 - f^8``, about
      ``8 p(n) eps f^8``.
    * The Frobenius norms (a sum of ``2 n^2`` squares), the absolute value of the
      eigenvalue and the eighth root are accurate to ``2 n^2 eps`` relative at
      worst, which is at most ``2 n^2 eps f^8`` on the eighth power (``rho <= f``).

    Together these stay below ``64 n (n + 1) eps f^8``.  ``_UNDERFLOW`` covers
    the squares that underflow in the norms (below ``n * 1.5e-154`` in all).
    A sample with a non-finite entry gets an infinite bound, so it is
    decomposed first and fails as it would on the whole grid.
    """
    n = M.shape[1]
    P = M @ M
    P = P @ P
    P = P @ P
    V, W = M.view(np.float64), P.view(np.float64)  # squared norms with no stack-sized temporary
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = np.einsum("kij,kij->k", V, V)
        slack = _ROUNDING_SLACK * n * (n + 1) * np.finfo(float).eps * f2 ** 4 + _UNDERFLOW
        bound = (np.sqrt(np.einsum("kij,kij->k", W, W)) + slack) ** 0.125
    return np.nan_to_num(bound, nan=math.inf)


def imaginary_axis_margin(sys: DdaeSystem, omega_max: float, count: int = 2001, tau=None) -> float:
    """Best-effort stability diagnostic: min over a frequency grid of
    ``sigma_min(j*omega*E - A_0 - sum A_i e^{-j*omega*tau_i})``.

    A small value flags a characteristic root close to the scanned part of the
    imaginary axis; a comfortable margin proves nothing by itself.  The grid
    has ``count >= 1`` points on ``[0, omega_max]``, with ``omega_max`` finite
    and nonnegative; other values raise ``ValueError``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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

    The options are checked first, whatever the assumption checks find:
    ``grid_per_dim < 1`` and an ``axis_scan_omega_max`` that is not finite and
    nonnegative raise ``ValueError``.
    """
    if grid_per_dim is not None and grid_per_dim < 1:
        raise ValueError("grid_per_dim must be >= 1")
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

