"""Outside-in tracing of the randomhorizon layers.

The tracer wraps public functions of the package without touching its
files.  Engine modules import each other's functions by name
(``from .lp import zero_in_relative_interior``), so patching the defining
module alone would miss most calls: :meth:`Tracer.install` rebinds every
attribute of every loaded ``randomhorizon.*`` module that holds the
original function object, and :meth:`Tracer.uninstall` restores them.

Each call records one span ``(name, start, end, parent, op)`` in memory;
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` the
benchmark operation it belongs to.  A layer's self time is its spans'
duration minus that of their direct children.  The node-LP entry points
also feed deterministic counters: problem shape ``(k points, d dims)``,
distinct ordered families and the bit size of the returned weights.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "randomhorizon"

# (module, function, reported times): "incl" = inclusive, "self" = self.
TARGETS = (
    ("lp", "zero_in_relative_interior", ()),
    ("lp", "solve_min", ("self",)),
    ("lp", "separating_direction", ()),
    ("lp", "maximize_over_admissible", ()),
    ("nupbr", "certify_nupbr", ("incl", "self")),
    ("nupbr", "preservation_report", ("incl",)),
    ("nupbr", "masked_increment_criterion_all", ("incl",)),
    ("nupbr", "single_jump_equivalences", ("incl",)),
    ("nupbr", "single_jump_martingale_transfer", ("incl",)),
    ("enlargement", "azema", ("incl",)),
    ("enlargement", "enlarge", ("incl",)),
    ("enlargement", "compensator_of_stopped", ("incl",)),
    ("enlargement", "compensator_of_rescaled", ("incl",)),
    ("enlargement", "projection_transfer_identities", ("incl",)),
    ("enlargement", "g_martingale_part", ("incl",)),
    ("enlargement", "jump_time_measures", ("incl",)),
    ("deflator", "build_deflator", ("incl",)),
    ("deflator", "is_supermartingale", ("incl",)),
    ("deflator", "verify_deflator", ("incl",)),
    ("projections", "is_martingale", ("self",)),
    ("projections", "dual_predictable", ("self",)),
    ("space", "condexp", ("self",)),
    ("generator", "random_instance", ("self",)),
    ("generator", "random_martingale", ("self",)),
    ("io", "parse_scenario", ("incl",)),
    ("io", "dump_json", ("incl",)),
    ("cli", "inspect_report", ("incl",)),
    ("cli", "certify_report", ("incl",)),
    ("cli", "theorems_report", ("incl",)),
    ("campaign", "instance_report", ("incl",)),
    ("mc", "simulate", ("incl",)),
    ("mc", "validate_survival_formula", ("incl",)),
    ("mc", "survival_closed_form", ("self",)),
)

# functions whose call counts are per-layer metrics
COUNTED = (
    "lp.zero_in_relative_interior",
    "lp.solve_min",
    "lp.separating_direction",
    "lp.maximize_over_admissible",
    "nupbr.certify_nupbr",
    "space.condexp",
    "mc.survival_closed_form",
)
LP_ENTRIES = (
    "lp.zero_in_relative_interior",
    "lp.separating_direction",
    "lp.maximize_over_admissible",
)
SHAPES = tuple(f"k{k}_d{d}" for d in (1, 2) for k in ("1", "2", "3", "4plus"))


def _shape(deltas) -> str | None:
    k = len(deltas)
    if k == 0:
        return None
    d = len(deltas[0])
    return f"k{k if k < 4 else '4plus'}_d{d}"


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.calls = Counter()
        self.shapes = Counter()
        self.families = set()
        self.weight_max_bits = 0
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for module_name, func_name, _ in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue  # a layer this workload never imports has no calls
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith(PACKAGE):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        observe = self._observe_family if name == "lp.zero_in_relative_interior" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args[0] if args else kwargs["deltas"], result)
            return result

        return traced

    def _observe_family(self, deltas, result) -> None:
        shape = _shape(deltas)
        if shape is not None:
            self.shapes[shape] += 1
        self.families.add(tuple(tuple(v) for v in deltas))
        _, weights = result
        for w in weights or ():
            bits = max(w.numerator.bit_length(), w.denominator.bit_length())
            if bits > self.weight_max_bits:
                self.weight_max_bits = bits

    # -- summaries ----------------------------------------------------
    def layer_times(self):
        """Per span name: (inclusive seconds, self seconds).  Inclusive time
        counts only the outermost span of a name, so recursion is not
        counted twice."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl, self_ = Counter(), Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_[name] += end - start - child_time[index]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += end - start
        return incl, self_

    def metrics(self, traced_wall: float, overhead: float) -> dict:
        """Per-layer metrics; times are shares of ``traced_wall``, the
        traced pass's time, and ``overhead`` is traced over untraced time."""
        incl, self_ = self.layer_times()
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for module_name, func_name, kinds in TARGETS:
            name = f"{module_name}.{func_name}"
            for kind in kinds:
                seconds = (incl if kind == "incl" else self_)[name]
                out[f"{name}.{kind}_pct"] = (100.0 * seconds / traced_wall, "%")
        for shape in SHAPES:
            out[f"lp.shape.{shape}"] = (self.shapes[shape], "count")
        entries = sum(self.calls[n] for n in LP_ENTRIES)
        zri = self.calls["lp.zero_in_relative_interior"]
        out["lp.simplex_ratio"] = (
            self.calls["lp.solve_min"] / entries if entries else 0.0,
            "ratio",
        )
        out["lp.family_repeat_share"] = (
            1.0 - len(self.families) / zri if zri else 0.0,
            "ratio",
        )
        out["lp.weight_max_bits"] = (self.weight_max_bits, "bits")
        out["trace_overhead"] = (overhead, "ratio")
        return out

    def counters(self) -> dict:
        """Deterministic counts, for comparing runs exactly."""
        doc = {name: self.calls[name] for name in sorted(self.calls)}
        doc.update({f"lp.shape.{s}": self.shapes[s] for s in SHAPES})
        doc["lp.distinct_families"] = len(self.families)
        doc["lp.weight_max_bits"] = self.weight_max_bits
        return doc
