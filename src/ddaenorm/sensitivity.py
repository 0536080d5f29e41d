"""Delay-perturbation studies and commensurability utilities.

The plain H-infinity norm can jump under arbitrarily small delay changes; the
study machinery here samples delay vectors from a ball around the nominal
delays and recomputes the norm for each, exposing that discontinuity
empirically.  Finite sampling only ever lower-bounds the worst case -- the
strong H-infinity norm is the exact delay-insensitive upper bound.

The default sampling scheme perturbs the delays to nearby rationals ``n_i/s``
on denominator ladders, because the discontinuity is driven by
commensurability structure; uniform random sampling is available as an
alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DdaeError, DimensionError
from .fileio import _write_csv, _write_json
from .norms import DEFAULT_BISECT_TOL, hinf_norm_T, strong_norm_Ta
from .system_model import BlockDecomposition, DdaeSystem, _check_delays, decompose

__all__ = [
    "PerturbationRecord",
    "PerturbationStudy",
    "sample_delays",
    "run_perturbation_study",
    "commensurate_approximation",
]

_S_LADDER = tuple(10 ** k for k in range(1, 10))


@dataclass(frozen=True)
class PerturbationRecord:
    """One perturbed delay vector with its computed norm."""

    tau_sample: tuple
    hinf: float
    peak_omega: float
    status: str  # "ok" | "solver-failure"
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "tau_sample": list(self.tau_sample),
            "hinf": self.hinf if math.isfinite(self.hinf) else None,
            "peak_omega": self.peak_omega if math.isfinite(self.peak_omega) else None,
            "status": self.status,
            "message": self.message,
        }


@dataclass
class PerturbationStudy:
    """Sampling plan and (after running) results of a perturbation study.

    Sampled delay vectors always lie in the open ball of radius ``epsilon``
    around ``tau`` intersected with the positive orthant.
    """

    tau: np.ndarray
    epsilon: float
    scheme: str = "deterministic-rational"
    count: int = 8
    seed: int = 0
    records: list = field(default_factory=list)

    def __post_init__(self):
        self.tau = np.atleast_1d(_check_delays(self.tau))
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if self.scheme not in ("deterministic-rational", "random-uniform"):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")

    @property
    def max_hinf(self) -> float:
        vals = [r.hinf for r in self.records if r.status == "ok"]
        return max(vals) if vals else math.nan

    def to_dict(self) -> dict:
        return {
            "tau": self.tau.tolist(),
            "epsilon": self.epsilon,
            "scheme": self.scheme,
            "count": self.count,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
            "max_hinf": self.max_hinf if math.isfinite(self.max_hinf) else None,
        }

    def to_json(self, path=None):
        return _write_json(self.to_dict(), path)

    def to_csv(self, path_or_buf) -> None:
        header = [f"tau_{i + 1}" for i in range(self.tau.size)] + ["hinf", "peak_omega", "status"]
        _write_csv(path_or_buf, header,
                   ([repr(float(t)) for t in r.tau_sample]
                    + [repr(float(r.hinf)), repr(float(r.peak_omega)), r.status]
                    for r in self.records))


def sample_delays(study: PerturbationStudy) -> list:
    """Generate the delay vectors of a study (deterministic for a given plan).

    deterministic-rational: walk denominator ladders s = 10, 100, ... with
    1/s < epsilon and perturb one coordinate of the rounded rational delay
    vector by +-1/s per sample (the appendix-style commensurate lattice).
    Sample order is (s ascending, coordinate, -, +), truncated to ``count``.
    If the ball is too tight for the ladder, the nominal delays are the only
    sample.

    random-uniform: seeded uniform draws from the ball, rejected until all
    components are positive.
    """
    tau = study.tau
    m = tau.size
    eps = study.epsilon
    samples: list = []

    def admit(vec):
        vec = np.asarray(vec, dtype=float)
        if np.linalg.norm(vec - tau) < eps and (vec > 0.0).all():
            for existing in samples:
                if np.array_equal(existing, vec):
                    return
            samples.append(vec)

    if study.scheme == "deterministic-rational":
        for s in _S_LADDER:
            if 1.0 / s >= eps:
                continue
            base = np.round(tau * s) / s
            admit(base)
            for i in range(m):
                for sign in (-1.0, 1.0):
                    vec = base.copy()
                    vec[i] += sign / s
                    admit(vec)
                    if len(samples) >= study.count:
                        return samples[: study.count]
            if len(samples) >= study.count:
                break
        if not samples:
            samples.append(tau.copy())
        return samples[: study.count]

    rng = np.random.default_rng(study.seed)
    while len(samples) < study.count:
        direction = rng.standard_normal(m)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        radius = eps * rng.uniform() ** (1.0 / m)
        vec = tau + direction / norm * radius
        if (vec > 0.0).all():
            samples.append(vec)
    return samples


def run_perturbation_study(
    sys: DdaeSystem,
    study: PerturbationStudy,
    dec: BlockDecomposition | None = None,
    *,
    bisect_tol: float = DEFAULT_BISECT_TOL,
) -> PerturbationStudy:
    """Fill a study with per-sample H-infinity norms of the perturbed system.

    Per-record solver failures are recorded, never abort the study.  The
    strong norm of T_a is delay-independent, so it is computed once and
    shared across all records.  ``bisect_tol`` is passed to :func:`hinf_norm_T`.
    """
    if study.tau.size != sys.m:
        raise DimensionError(f"study has {study.tau.size} delays, system has {sys.m}")
    if dec is None:
        dec = decompose(sys)
    try:
        ta = strong_norm_Ta(dec)
    except DdaeError:
        # Globally ill-posed (e.g. unstable difference part): let every
        # record report its own failure instead of aborting the study.
        ta = None
    study.records = []
    for vec in sample_delays(study):
        try:
            res = hinf_norm_T(sys, dec, tau=vec, bisect_tol=bisect_tol, ta_result=ta)
            study.records.append(
                PerturbationRecord(
                    tau_sample=tuple(float(t) for t in vec),
                    hinf=res.value,
                    peak_omega=float(res.attained_at),
                    status="ok",
                )
            )
        except DdaeError as exc:
            study.records.append(
                PerturbationRecord(
                    tau_sample=tuple(float(t) for t in vec),
                    hinf=math.nan,
                    peak_omega=math.nan,
                    status="solver-failure",
                    message=str(exc),
                )
            )
    return study


def commensurate_approximation(tau, s: int):
    """Nearest delays of the form ``n_i / s``; each within ``1/(2 s)`` of tau.

    Raises
    ------
    ValueError
        If s < 1, a delay is not real, finite and positive, or a component
        rounds to zero.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    tau = np.atleast_1d(_check_delays(tau))
    rounded = np.round(tau * s) / s
    if (rounded <= 0.0).any():
        raise ValueError(f"component of tau rounds to zero at s={s}")
    return rounded

