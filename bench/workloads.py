"""The three workloads: fixed lists of operations with their checks.

An operation is one norm computation through the public API.  Each workload
function does the set-up (instance generation and, for ``dense-mimo``, file
writes) and returns the operations; the runner times only ``Op.run``.

Functions are looked up on the ``ddaenorm`` modules at call time, never bound
once, so an installed tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
import systems

# Closed-form references of the paper's examples (tolerances as in the
# package's acceptance tests).
STRONG_A = 4.0                # 1 / (1 - 0.25 - 0.5)
STRONG_B = 16.0 / 7.0         # 1 / (1 - 1/16 - 0.5)
TORUS_TOL = 1e-6
VALUE_TOL = 1e-3
# Relative level tolerance of the plain norm (the package default), used to
# probe records of a perturbation study, which carry no tolerance of their own.
PLAIN_RTOL = 1e-4


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its result.

    ``check(result, rng)`` returns ``(problems, tails)``: a list of
    problem strings (empty when the result is correct) and one
    ``tail_certified`` flag per plain-norm result it contains.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, np.random.Generator], tuple]


def _tails(doc):
    return [doc["diagnostics"]["plain_diagnostics"]["tail_certified"]]


def delay_jump(api, seed, workdir):
    """SYS-A/SYS-B: the paper's delay-jump case, on a 2x2 pencil."""
    a, b = systems.sys_a(api), systems.sys_b(api)
    sqrt2 = math.sqrt(2.0)

    def study():
        plan = api.PerturbationStudy(tau=a.tau, epsilon=0.02, count=3)
        return api.run_perturbation_study(a, plan)

    def check_study(res, rng):
        taus = [r.tau_sample for r in res.records]
        if taus != [(1.0, 2.0), (0.99, 2.0), (1.01, 2.0)]:
            return [f"unexpected samples {taus}"], []
        problems = [f"record {r.tau_sample}: {r.status} {r.message}"
                    for r in res.records if r.status != "ok"]
        if problems:
            return problems, []
        nominal, low = res.records[0], res.records[1]
        problems += oracle.check_reference("||T|| at (1, 2)", nominal.hinf, 2.6422, VALUE_TOL)
        problems += oracle.check_reference("peak at (1, 2)", nominal.peak_omega, 1.6598, 1e-2)
        problems += oracle.check_reference("||T|| at (0.99, 2)", low.hinf, 3.9993, VALUE_TOL)
        problems += oracle.check_reference("peak at (0.99, 2)", low.peak_omega, 158.6578,
                                           0.01 * 158.6578)
        for r in res.records:
            if r.hinf > STRONG_A + TORUS_TOL:
                problems.append(f"record {r.tau_sample} exceeds the strong norm: {r.hinf!r}")
            problems += oracle.check_plain(a, r.hinf, r.peak_omega, PLAIN_RTOL * r.hinf,
                                           rng, r.tau_sample)
        return problems, []

    def strong_a(tau):
        return lambda: api.strong_hinf_norm_T(a, tau=tau)

    def check_strong_a(tau, plain_ref=None):
        def check(res, rng):
            doc = res.to_dict()
            problems = oracle.check_reference("strong norm of SYS-A", doc["value"],
                                              STRONG_A, TORUS_TOL)
            if plain_ref is not None:
                plain = doc["diagnostics"]["plain"]
                value, omega = plain_ref
                problems += oracle.check_reference("plain part", plain["value"], value,
                                                   VALUE_TOL)
                problems += oracle.check_reference("plain peak", plain["attained_at"], omega,
                                                   0.01 * omega)
            return problems + oracle.check_strong(a, doc, rng, tau), _tails(doc)
        return check

    def check_strong_b(res, rng):
        doc = res.to_dict()
        problems = oracle.check_reference("torus part of SYS-B",
                                          doc["diagnostics"]["asymptotic"]["value"],
                                          STRONG_B, TORUS_TOL)
        if doc["branch"] != api.BRANCH_PLAIN:
            problems.append(f"SYS-B branch {doc['branch']}, expected {api.BRANCH_PLAIN}")
        return problems + oracle.check_strong(b, doc, rng), _tails(doc)

    return [
        Op("study-sys-a", study, check_study),
        Op("strong-sys-a-0.999", strong_a((0.999, 2.0)),
           check_strong_a((0.999, 2.0), (3.9998, 1566.0816))),
        Op("strong-sys-a-sqrt2", strong_a((1.0, sqrt2)), check_strong_a((1.0, sqrt2))),
        Op("strong-sys-b", lambda: api.strong_hinf_norm_T(b), check_strong_b),
    ]


def dense_mimo(api, seed, workdir):
    """Random dense systems (n = 10, 40) through the ``ddaenorm norm`` command."""
    rng = np.random.default_rng(seed)
    ops = []
    for n in (10, 40):
        sys_ = systems.stable_system(api, rng, n=n, nu=2, m=2, p=2, tau=(1.0, 2.0))
        path = os.path.join(workdir, f"dense-n{n}.json")
        out = os.path.join(workdir, f"dense-n{n}.result.json")
        api.fileio.save_system(sys_, path, name=f"dense-n{n}-seed{seed}")
        ops.append(Op(f"cli-norm-n{n}", _cli_norm(api, path, out), _check_cli(sys_, out)))
    return ops


def _cli_norm(api, path, out):
    def run():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = api.cli.main(["norm", path, "--kind", "strong", "--out", out])
        return code, err.getvalue()
    return run


def _check_cli(sys_, out):
    def check(res, rng):
        code, err = res
        if code != 0:
            return [f"exit code {code}: {err.strip()}"], []
        with open(out) as fh:
            doc = json.load(fh)
        return oracle.check_strong(sys_, doc, rng), _tails(doc)
    return check


def torus(api, seed, workdir):
    """strong_norm_Ta alone: the delay-independent torus branch, no frequency scan."""
    rng = np.random.default_rng(seed)
    cases = [
        ("torus-sys-a", systems.sys_a(api), STRONG_A),
        ("torus-sys-b", systems.sys_b(api), STRONG_B),
        ("torus-nu8-m2", systems.stable_system(api, rng, n=10, nu=8, m=2, p=2,
                                               tau=(1.0, 2.0)), None),
        ("torus-nu4-m3", systems.stable_system(api, rng, n=6, nu=4, m=3, p=2,
                                               tau=(1.0, 2.0, 3.0)), None),
    ]
    return [Op(name, _torus_norm(api, sys_), _check_torus(sys_, ref))
            for name, sys_, ref in cases]


def _torus_norm(api, sys_):
    return lambda: api.strong_norm_Ta(api.decompose(sys_))


def _check_torus(sys_, ref):
    def check(res, rng):
        problems = []
        if ref is not None:
            problems += oracle.check_reference("torus norm", res.value, ref, TORUS_TOL)
        gamma_a = res.diagnostics["gamma_a"]
        if not gamma_a < 1.0:
            problems.append(f"gamma_a = {gamma_a!r} >= 1 on a strongly stable system")
        problems += oracle.check_torus(oracle.torus_blocks(sys_), res.value,
                                       res.attained_at, rng)
        return problems, []
    return check


WORKLOADS = {
    "delay-jump": delay_jump,
    "dense-mimo": dense_mimo,
    "torus": torus,
}
