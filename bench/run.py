#!/usr/bin/env python3
"""Benchmark of ddaenorm's norm computations.

    python3 bench/run.py --workload delay-jump --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  One caller drives the
public API in a closed loop: a pass runs the workload's operations one after
the other, and passes repeat until ``--seconds`` have been measured.  Each
workload runs in a fresh process (``--workload all`` starts one per
workload) with BLAS pinned to one thread, so thread count cannot move a
figure.  Every timed operation and set-up sits between two probes of a
reference kernel, and the end-to-end times are calibrated by them against
the host's load (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an outside-in traced run (see ``tracer.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it record the environment
(Python, numpy and BLAS versions, CPU count) and a table of the metrics.
"""

import os

# Before numpy is imported: thread count changes speed only, never values.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ddaenorm.cli; "
                "t = time.perf_counter() - t; import calibrate; print(t, calibrate.probe())")

# Per-layer metrics of a traced run: (name, unit).  Counts repeat exactly.
PER_LAYER = [
    ("response.sigma_T_samples.calls", "count"),
    ("response.sigma_T_samples.points", "count"),
    ("response.sigma_T_samples.s", "s"),
    ("response.sigma_T_samples.us_per_point", "us"),
    ("response.sigma_Ta_samples.calls", "count"),
    ("response.sigma_Ta_samples.points", "count"),
    ("response.sigma_Ta_samples.s", "s"),
    ("response.eval_T.calls", "count"),
    ("response.eval_T.s", "s"),
    ("response.eval_Ta_torus.calls", "count"),
    ("response.eval_Ta_torus.s", "s"),
    ("norms.strong_norm_Ta.calls", "count"),
    ("norms.strong_norm_Ta.s", "s"),
    ("norms.strong_norm_Ta.self_s", "s"),
    ("norms.hinf_norm_T.calls", "count"),
    ("norms.hinf_norm_T.s", "s"),
    ("norms.hinf_norm_T.self_s", "s"),
    ("norms.frequency_bound.calls", "count"),
    ("norms.frequency_bound.s", "s"),
    ("norms.strong_hinf_norm_T.calls", "count"),
    ("norms.strong_hinf_norm_T.s", "s"),
    ("norms.scan_points", "count"),
    ("norms.level_iterations", "count"),
    ("norms.torus_refine_cycles", "count"),
    ("system_model.decompose.calls", "count"),
    ("system_model.decompose.s", "s"),
    ("system_model.check_difference_stability.calls", "count"),
    ("system_model.check_difference_stability.s", "s"),
    ("sensitivity.run_perturbation_study.s", "s"),
    ("sensitivity.records", "count"),
    ("sensitivity.strong_norm_Ta.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("fileio.load_system.s", "s"),
    ("fileio.save_system.s", "s"),
    ("trace.overhead_frac", "fraction"),
]


def load_package():
    """Import ddaenorm from this checkout's ``src/``; exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "ddaenorm", "__init__.py")):
        sys.exit(f"bench: no src/ddaenorm under {ROOT}; run from a source checkout")
    sys.path.insert(0, SRC)
    import ddaenorm
    import ddaenorm.cli  # noqa: F401  (the tracer wraps what is loaded)
    if os.path.dirname(os.path.abspath(ddaenorm.__file__)) != os.path.join(SRC, "ddaenorm"):
        sys.exit(f"bench: imported ddaenorm from {ddaenorm.__file__}, not from {SRC}")
    return ddaenorm


def import_seconds():
    """Calibrated time of ``import ddaenorm.cli`` in a fresh interpreter.

    The interpreter probes the reference kernel after the import, on the core
    it ran on.
    """
    path = os.pathsep.join([SRC, os.path.dirname(os.path.abspath(__file__))])
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    seconds, ref = map(float, proc.stdout.split())
    return seconds * calibrate.scale(ref, ref)


def calibrated(fn):
    """Call ``fn`` between two reference probes; return (calibrated s, result)."""
    before = calibrate.probe()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return seconds * calibrate.scale(before, calibrate.probe()), result


def run_pass(ops, tracer=None):
    """Run every operation once, each between two reference probes.

    Returns ``[(op, wall seconds, calibrated seconds, result)]``; a probe
    after one operation is the probe before the next.
    """
    timed = []
    before = calibrate.probe()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            result = exc
        wall = time.perf_counter() - t0
        after = calibrate.probe()
        timed.append((op, wall, wall * calibrate.scale(before, after), result))
        before = after
    return timed


def check_pass(timed, rng, tally):
    """Check each result of a pass outside the timed region; update ``tally``."""
    for op, _, _, result in timed:
        tally["attempted"] += 1
        if isinstance(result, Exception):
            problems, tails = [f"raised {type(result).__name__}: {result}"], []
        else:
            try:
                problems, tails = op.check(result, rng)
            except Exception as exc:  # a malformed result fails its check
                problems, tails = [f"check raised {type(exc).__name__}: {exc}"], []
        for problem in problems:
            print(f"bench: {op.name}: {problem}", file=sys.stderr)
        tally["failed"] += bool(problems)
        tally["plain"] += len(tails)
        tally["certified"] += sum(bool(t) for t in tails)


def run_passes(ops, seconds, min_passes, rng, tally, tracer=None):
    """Closed loop: passes back to back until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        timed = run_pass(ops, tracer)
        layers = tracer.summary() if tracer is not None else None
        check_pass(timed, rng, tally)
        passes.append({"wall": sum(t[1] for t in timed), "cal": sum(t[2] for t in timed),
                       "ops": {op.name: cal for op, _, cal, _ in timed},
                       "ops_wall": {op.name: wall for op, wall, _, _ in timed},
                       "layers": layers})
    return passes


def environment(args, ops):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": [op.name for op in ops],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loop": "closed, one caller",
        "ref_seconds": calibrate.REF_SECONDS,
    }


def end_to_end(passes, setup_s, tally):
    fails = tally["failed"] / tally["attempted"]
    certified = tally["certified"] / tally["plain"] if tally["plain"] else 1.0
    return {
        "run_s": (statistics.median(p["cal"] for p in passes), "s"),
        "worst_case_s": (statistics.median(max(p["ops"].values()) for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_frac": (1.0 - fails, "fraction"),
        "certified_frac": (certified, "fraction"),
    }


def per_layer(setup_layers, untraced, traced):
    """Per-layer metrics: the traced set-up plus the median traced pass."""
    setup_counts, setup_times = setup_layers
    counts = traced[0]["layers"][0] + setup_counts
    times = {name: setup_times.get(name, 0.0)
             + statistics.median(p["layers"][1].get(name, 0.0) for p in traced)
             for name, unit in PER_LAYER if unit == "s"}
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (statistics.median(p["cal"] for p in traced)
                     / statistics.median(p["cal"] for p in untraced) - 1.0)
        elif name.endswith(".us_per_point"):
            base = name.removesuffix(".us_per_point")
            points = counts[f"{base}.points"]
            value = 1e6 * times[f"{base}.s"] / points if points else 0.0
        elif unit == "s":
            value = times[name]
        else:
            value = counts[name]
        out[name] = (value, unit)
    return out


def counts_repeat(traced):
    """The traced passes' counts agree exactly; report any difference."""
    first = traced[0]["layers"][0]
    same = True
    for i, p in enumerate(traced[1:], start=2):
        if p["layers"][0] != first:
            diff = {k: (first[k], p["layers"][0][k])
                    for k in set(first) | set(p["layers"][0]) if first[k] != p["layers"][0][k]}
            print(f"bench: traced pass {i} counts differ from pass 1: {diff}", file=sys.stderr)
            same = False
    return same


def run_workload(args):
    api = load_package()
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    make = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, ops = calibrated(lambda: make(api, args.seed, workdir))
            setups.append(seconds)
        rng = np.random.default_rng([args.seed, 1])
        tally = {"attempted": 0, "failed": 0, "plain": 0, "certified": 0}
        correct = True
        if not args.trace:
            passes = run_passes(ops, args.seconds, 2, rng, tally)
            metrics = end_to_end(passes, import_s + statistics.median(setups), tally)
        else:
            tracer = Tracer()
            tracer.install()
            tracer.op = "setup"
            ops = make(api, args.seed, workdir)
            setup_layers = tracer.summary()
            setup_spans = tracer.dump()
            tracer.uninstall()
            untraced = run_passes(ops, args.seconds / 3.0, 1, rng, tally)
            tracer.install()
            traced = run_passes(ops, args.seconds * 2.0 / 3.0, 2, rng, tally, tracer)
            tracer.uninstall()
            correct = counts_repeat(traced)
            metrics = per_layer(setup_layers, untraced, traced)
            _write_spans(args, {"setup": setup_spans, "pass": tracer.dump()})
        env = environment(args, ops)
        if not args.trace:
            env["pass_s"] = [p["cal"] for p in passes]
            env["pass_wall_s"] = [p["wall"] for p in passes]
            env["op_s"] = {op.name: [p["ops"][op.name] for p in passes] for op in ops}
            env["op_wall_s"] = {op.name: [p["ops_wall"][op.name] for p in passes]
                                for op in ops}
        else:
            env["pass_s"] = {"untraced": [p["cal"] for p in untraced],
                             "traced": [p["cal"] for p in traced]}
            env["pass_wall_s"] = {"untraced": [p["wall"] for p in untraced],
                                  "traced": [p["wall"] for p in traced]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and tally["failed"] == 0
    return env, {
        "correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _write_spans(args, spans):
    """Spans of the traced set-up and of the last traced pass; ids are per phase."""
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, fh)
    print(f"bench: spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def run_all(args):
    """Each workload in a fresh process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


# Complements printed under the names of the rates they stand for; the
# result line carries only metrics that are never 0.
_COMPLEMENTS = {"ok_frac": "error_rate", "certified_frac": "uncertified_frac"}


def _table(result):
    for name, m in result["metrics"].items():
        rows = [(name, m["value"])]
        prefix, _, last = name.rpartition(".")
        if last in _COMPLEMENTS:
            rows.append((f"{prefix}.{_COMPLEMENTS[last]}".lstrip("."), 1.0 - m["value"]))
        for label, value in rows:
            print(f"  {label:<52} {value:>14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        env, result = run_workload(args)
        print(json.dumps({"env": env}))
    _table(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
