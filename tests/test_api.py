"""The public functions' options, pinned: a new option is a deliberate edit here."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import ddaenorm

# The defaulted parameters of every public function in ``ddaenorm.__all__``.
OPTIONS = {
    "check_difference_stability": ["grid_per_dim"],
    "decompose": ["rank_tol"],
    "eval_T": ["tau"],
    "hinf_norm_T": ["dec", "tau", "bisect_tol", "ta_result"],
    "imaginary_axis_margin": ["count", "tau"],
    "nullspace_bases": ["rank_tol"],
    "run_perturbation_study": ["dec", "bisect_tol"],
    "save_system": ["name", "description"],
    "strong_hinf_norm_T": ["dec", "tau", "bisect_tol"],
    "sweep": ["which", "tau"],
    "system_to_dict": ["name", "description"],
    "validate_system": ["rank_tol", "grid_per_dim", "axis_scan_omega_max"],
}


def _public_functions():
    return {name: getattr(ddaenorm, name) for name in ddaenorm.__all__
            if inspect.isfunction(getattr(ddaenorm, name))}


def test_defaulted_parameters_are_pinned():
    found = {}
    for name, fn in _public_functions().items():
        params = inspect.signature(fn).parameters.values()
        if defaulted := [p.name for p in params if p.default is not p.empty]:
            found[name] = defaulted
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 24


def test_no_variadic_keywords():
    variadic = [name for name, fn in _public_functions().items()
                if any(p.kind is p.VAR_KEYWORD for p in inspect.signature(fn).parameters.values())]
    assert variadic == []


def test_import_does_not_load_jsonschema():
    # Only file validation needs jsonschema, so importing the package and the
    # CLI leaves it unloaded; the child imports the same ddaenorm as this process.
    src = str(Path(ddaenorm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ddaenorm, ddaenorm.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
