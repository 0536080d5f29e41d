"""Outside-in spans around ddaenorm's public functions.

Modules import each other's functions by name (``norms`` binds ``eval_T``,
``cli`` binds ``strong_hinf_norm_T`` and so on), so wrapping a function in its
home module alone would miss most calls.  :meth:`Tracer.install` therefore
replaces every binding of each traced function in every loaded ``ddaenorm``
module, and each wrapper remembers the module it was looked up in (its
*site*).  A span records its name, site, start, end, parent span and the
operation it belongs to; self time is the span's time minus its children's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ddaenorm"

# Home-module names of the traced functions.
TRACED = (
    "response.sigma_T_samples",
    "response.sigma_Ta_samples",
    "response.eval_T",
    "response.eval_Ta_torus",
    "norms.strong_norm_Ta",
    "norms.hinf_norm_T",
    "norms.frequency_bound",
    "norms.strong_hinf_norm_T",
    "system_model.decompose",
    "system_model.check_difference_stability",
    "sensitivity.run_perturbation_study",
    "cli.main",
    "fileio.load_system",
    "fileio.save_system",
)

# Functions whose second positional argument is a grid of points.
_POINT_ARG = {"response.sigma_T_samples", "response.sigma_Ta_samples"}

# Span fields, kept as lists so a wrapped call allocates one small object.
_ID, _PARENT, _OP, _NAME, _SITE, _START, _END, _CHILD, _POINTS = range(9)


class Tracer:
    """Collects spans while installed; counters come from returned results."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for qual in TRACED:
            home, func = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], func)
            for mod in modules:
                site = mod.__name__.removeprefix(PACKAGE).lstrip(".") or PACKAGE
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, self._wrap(qual, site, original))
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, site, fn):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(tracer.spans), parent[_ID] if parent else None, tracer.op,
                   name, site, 0.0, 0.0, 0.0, None]
            if name in _POINT_ARG:
                grid = args[1] if len(args) > 1 else kwargs["omegas"]
                rec[_POINTS] = len(grid)
            tracer.spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += rec[_END] - rec[_START]
            tracer._count(name, site, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, site, result):
        c = self.counts
        if name == "norms.hinf_norm_T":
            c["norms.scan_points"] += result.diagnostics["scan_points"]
            c["norms.level_iterations"] += result.diagnostics["iterations"]
        elif name == "norms.strong_norm_Ta":
            c["norms.torus_refine_cycles"] += result.diagnostics.get("refine_cycles", 0)
            if site == "sensitivity":
                c["sensitivity.strong_norm_Ta.calls"] += 1
        elif name == "sensitivity.run_perturbation_study":
            c["sensitivity.records"] += len(result.records)

    def summary(self):
        """Per-layer totals of the spans recorded since the last reset.

        Returns ``(counts, times)``: exact counts (calls, points and the
        counters read from results) and wall times in seconds.
        """
        counts = Counter(self.counts)
        times = defaultdict(float)
        for rec in self.spans:
            name, dur = rec[_NAME], rec[_END] - rec[_START]
            counts[f"{name}.calls"] += 1
            if rec[_POINTS] is not None:
                counts[f"{name}.points"] += rec[_POINTS]
            times[f"{name}.s"] += dur
            times[f"{name}.self_s"] += dur - rec[_CHILD]
        return counts, times

    def dump(self):
        """Spans as JSON-ready dicts."""
        keys = ("id", "parent", "op", "name", "site", "start", "end")
        return [dict(zip(keys, rec[:7])) | {"points": rec[_POINTS]} for rec in self.spans]
