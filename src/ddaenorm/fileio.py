"""JSON serialization of systems and interconnection descriptions.

System files hold the standard-form matrices row-major with full-precision
numbers (shortest round-trip decimals), so write -> read preserves every
matrix bit-exactly and fixtures stay human-diffable.  Delays are
canonicalized at load time as the interconnect builders do it: strictly
increasing, delays within ``MERGE_TOL`` of each other merged by summing their
coefficient blocks, a delay of at most ``MERGE_TOL`` folded into ``A_0``, and
an all-zero delayed block dropped together with its delay.
"""

from __future__ import annotations

import contextlib
import csv
import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DimensionError
from .interconnect import (
    PlantBlock,
    StaticDelayController,
    _canonical_terms,
    absorb_io_delay,
    close_feedback,
    eliminate_feedthrough,
    from_neutral,
)
from .system_model import DdaeSystem

__all__ = [
    "SchemaError",
    "load_system",
    "save_system",
    "system_to_dict",
    "system_from_dict",
    "load_interconnect",
    "build_from_dict",
]


class SchemaError(DimensionError):
    """A file violates the system or interconnect schema."""


@lru_cache(maxsize=None)
def _validator(name: str):
    """Validator of the packaged schema ``name``, checked against its metaschema once."""
    import jsonschema  # only file validation needs it, so not at package import
    with resources.files("ddaenorm.schemas").joinpath(name).open("r") as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc, schema_name: str):
    """As ``jsonschema.validate``: the best-matching error is reported.

    Walking every number of a large matrix through jsonschema is slow, so the
    schema first checks a skeleton of ``doc`` in which each matrix that passes
    :func:`_is_matrix` is replaced by ``[[0.0]]``.  Such a matrix is valid
    wherever the schemas allow a matrix or anything at all, and invalid
    wherever they do not, as ``[[0.0]]`` is, so the skeleton is valid exactly
    when ``doc`` is.  Only an invalid skeleton sends ``doc`` itself through the
    schema, which gives the message.
    """
    validator = _validator(schema_name)
    if validator.is_valid(_skeleton(doc)):
        return
    import jsonschema
    exc = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise SchemaError(f"{schema_name}: {exc.message} (at {path})") from exc


def _skeleton(node):
    """``node`` with every list that passes :func:`_is_matrix` replaced by ``[[0.0]]``."""
    if isinstance(node, dict):
        return {k: _skeleton(v) for k, v in node.items()}
    if isinstance(node, list):
        return [[0.0]] if _is_matrix(node) else [_skeleton(v) for v in node]
    return node


_NUMBER_TYPES = {int, float}


def _is_matrix(rows) -> bool:
    """A non-empty list of equal-length, non-empty lists of ``int`` or ``float`` (not ``bool``)."""
    width = len(rows[0]) if rows and type(rows[0]) is list else 0
    return width > 0 and all(
        type(r) is list and len(r) == width and set(map(type, r)) <= _NUMBER_TYPES for r in rows)


def _matrix(rows, label) -> np.ndarray:
    """A matrix that passed the schema, as a float array; the schema allows ragged rows."""
    if len({len(r) for r in rows}) > 1:
        raise SchemaError(f"{label} has rows of unequal length")
    return np.asarray(rows, dtype=float)


def system_from_dict(doc: dict) -> DdaeSystem:
    _validate(doc, "system.schema.json")
    n = doc["n"]
    delays = np.asarray(doc["delays"], dtype=float)
    E = _matrix(doc["E"], "E")
    A_raw = [_matrix(Ai, f"A[{i}]") for i, Ai in enumerate(doc["A"])]
    if len(A_raw) != delays.size + 1:
        raise SchemaError(
            f"A holds {len(A_raw)} matrices but delays has {delays.size} entries "
            "(need one undelayed plus one per delay)"
        )
    for label, M in [("E", E)] + [(f"A[{i}]", Ai) for i, Ai in enumerate(A_raw)]:
        if M.shape != (n, n):
            raise SchemaError(f"{label} has shape {M.shape}, expected ({n}, {n})")
    B = _matrix(doc["B"], "B")
    C = _matrix(doc["C"], "C")
    if B.shape[0] != n:
        raise SchemaError(f"B has {B.shape[0]} rows, expected {n}")
    if C.shape[1] != n:
        raise SchemaError(f"C has {C.shape[1]} columns, expected {n}")
    A_list, tau = _canonical_terms(A_raw[0], zip(delays, A_raw[1:]))
    return DdaeSystem(E=E, A=tuple(A_list), B=B, C=C, tau=tau)


def system_to_dict(sys: DdaeSystem, name=None, description=None) -> dict:
    doc = {
        "n": sys.n,
        "delays": sys.tau.tolist(),
        "E": sys.E.tolist(),
        "A": [Ai.tolist() for Ai in sys.A],
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
    }
    meta = {}
    if name is not None:
        meta["name"] = name
    if description is not None:
        meta["description"] = description
    if meta:
        doc["metadata"] = meta
    return doc


def load_system(path) -> DdaeSystem:
    """Read and validate a system file; canonicalizes the delay order."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return system_from_dict(doc)


def save_system(sys: DdaeSystem, path, name=None, description=None) -> None:
    """Write a system file with canonical key order and full precision."""
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys, name, description), fh, indent=2)
        fh.write("\n")


def build_from_dict(doc: dict) -> DdaeSystem:
    """Apply the reduction steps of an interconnect description in order.

    An empty step list passes the plant through as the ODE system
    ``x' = A x + B2 w, z = F x``.  ``close_feedback`` consumes the plant and
    controller sections; ``from_neutral`` replaces the current system with
    the neutral realization given in its own parameters; the remaining steps
    transform the current system.
    """
    _validate(doc, "interconnect.schema.json")
    plant = None
    if "plant" in doc:
        p = doc["plant"]
        plant = PlantBlock(
            A=np.asarray(p["A"], dtype=float),
            B1=np.asarray(p["B1"], dtype=float),
            B2=np.asarray(p["B2"], dtype=float),
            C=np.asarray(p["C"], dtype=float),
            D1=np.asarray(p["D1"], dtype=float),
            F=np.asarray(p["F"], dtype=float),
        )
    controller = None
    if "controller" in doc:
        c = doc["controller"]
        controller = StaticDelayController(K=np.asarray(c["K"], dtype=float), tau=c["tau"])

    sys = None
    for i, step in enumerate(doc["steps"]):
        op = step["op"]
        if op == "close_feedback":
            if plant is None or controller is None:
                raise SchemaError(f"step {i}: close_feedback needs plant and controller sections")
            if sys is not None:
                raise SchemaError(f"step {i}: close_feedback must be the first step")
            sys = close_feedback(plant, controller)
        elif op == "from_neutral":
            for key in ("D", "tau1", "A0", "A1", "tau2", "B", "C"):
                if key not in step:
                    raise SchemaError(f"step {i}: from_neutral requires {key!r}")
            sys = from_neutral(
                D=np.asarray(step["D"], dtype=float), tau1=step["tau1"],
                A0=np.asarray(step["A0"], dtype=float),
                A1=np.asarray(step["A1"], dtype=float), tau2=step["tau2"],
                B=np.asarray(step["B"], dtype=float), C=np.asarray(step["C"], dtype=float),
            )
        elif op == "eliminate_feedthrough":
            if sys is None:
                sys = _plant_passthrough(plant, i)
            if "D2" not in step:
                raise SchemaError(f"step {i}: eliminate_feedthrough requires 'D2'")
            sys = eliminate_feedthrough(sys, np.asarray(step["D2"], dtype=float))
        elif op == "absorb_io_delay":
            if sys is None:
                sys = _plant_passthrough(plant, i)
            for key in ("which", "matrix", "tau"):
                if key not in step:
                    raise SchemaError(f"step {i}: absorb_io_delay requires {key!r}")
            sys = absorb_io_delay(
                sys, step["which"], np.asarray(step["matrix"], dtype=float), step["tau"]
            )
        else:  # pragma: no cover - schema forbids
            raise SchemaError(f"step {i}: unknown op {op!r}")
    if sys is None:
        sys = _plant_passthrough(plant, None)
    return sys


def _plant_passthrough(plant, step_index):
    if plant is None:
        where = "interconnect file" if step_index is None else f"step {step_index}"
        raise SchemaError(f"{where}: no plant section to start from")
    n = plant.n
    return DdaeSystem(
        E=np.eye(n), A=(plant.A.copy(),), B=plant.B2.copy(), C=plant.F.copy(), tau=np.zeros(0)
    )


def _write_csv(path_or_buf, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to a path or to an open text buffer."""
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    with open(path_or_buf, "w", newline="") if own else contextlib.nullcontext(path_or_buf) as fh:
        csv.writer(fh).writerows([header, *rows])


def _write_json(doc, path=None):
    """``doc`` as indented JSON text, or written to ``path`` (then None)."""
    text = json.dumps(doc, indent=2)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)


def load_interconnect(path) -> DdaeSystem:
    """Read an interconnect description and build the resulting system."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return build_from_dict(doc)
