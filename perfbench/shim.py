"""Layer tracing for one ``bratteli`` invocation, installed from outside ``src/``.

``Tracer.install`` wraps the layer callables listed in ``TRACED`` so that
every call records a span (name, start, end, parent span) in memory.
Modules bind each other's functions at import (``from .linalg import
heights`` in ``limits``, ``measures``, ``extension`` and ``cli``), so a
function is replaced in every ``bratteli`` module that holds it, including
module-level dicts such as ``extension.EXTENSION_CASES``.  A method is
replaced on every class of its hierarchy that defines it, so each call is
traced once.

A span's self time is its duration minus the time its child spans cover.
``summary`` folds the spans into per-name calls, total and self time plus
the counters below; ``write_spans`` writes the raw spans for inspection.

Counters (all exact, independent of timing):
  linalg.cone_entries        sum of the set sizes ``cone_levels`` returns
  linalg.height_lookups      height lookups made by ``stochastic_row``
  linalg.height_hits         ... of those whose key was in its height cache
                             before the call
  limits.iterations          steps taken by ``limit_along``
  extension.terms            series terms ``extension_terms`` returns
  vershik.edges_lookups      ``OrderedDiagram.edges_into`` calls
  vershik.edges_hits         ... of those, served from its order cache
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from itertools import islice

# (module, callable, span name).  "Class.method" entries cover every subclass
# of Class that defines the method.
TRACED = (
    ("core", "Diagram.predecessors", "core.predecessors"),
    ("core", "Diagram.successors", "core.successors"),
    ("core", "Diagram.check_vertex", "core.check_vertex"),
    ("core", "Diagram.level_vertices", "core.level_vertices"),
    ("core", "Diagram.rank", "core.rank"),
    ("core", "Diagram.closed_form_height", "core.closed_form_height"),
    ("core", "Diagram.cone_levels", "core.cone_levels"),
    ("core", "Subdiagram.outside_predecessors", "core.outside_predecessors"),
    ("core", "Subdiagram.deleted_predecessors", "core.deleted_predecessors"),
    ("core", "build_diagram", "core.build_diagram"),
    ("core", "build_subdiagram", "core.build_subdiagram"),
    ("core", "vertex_window", "core.vertex_window"),
    ("core", "step_polynomial_coefficients", "core.step_polynomial"),
    ("linalg", "heights", "linalg.heights"),
    ("linalg", "heights_closed_form", "linalg.heights_closed_form"),
    ("linalg", "stochastic_row", "linalg.stochastic_row"),
    ("linalg", "stochastic_rows", "linalg.stochastic_rows"),
    ("linalg", "continuity_profile", "linalg.continuity_profile"),
    ("linalg", "simplex_distance", "linalg.simplex_distance"),
    ("linalg", "weighted_row_norm", "linalg.weighted_row_norm"),
    ("limits", "product_row", "limits.product_row"),
    ("limits", "closed_form_product_row", "limits.closed_form_product_row"),
    ("limits", "normalized_product_row", "limits.normalized_product_row"),
    ("limits", "limit_along", "limits.limit_along"),
    ("limits", "binfty_limit_vector", "limits.binfty_limit_vector"),
    ("limits", "pascal_limit_vector", "limits.pascal_limit_vector"),
    ("measures", "TailInvariantMeasure.p", "measures.p"),
    ("measures", "TailInvariantMeasure.q", "measures.q"),
    ("measures", "TailInvariantMeasure.successor_mass", "measures.successor_mass"),
    ("measures", "TailInvariantMeasure.level_support", "measures.level_support"),
    ("measures", "TailInvariantMeasure.level_mass", "measures.level_mass"),
    ("measures", "StaircaseMeasure.determining_value", "measures.determining_value"),
    ("measures", "invariance_report", "measures.invariance_report"),
    ("measures", "restricted_level_mass", "measures.restricted_level_mass"),
    ("measures", "difference_table", "measures.difference_table"),
    ("measures", "completely_monotone_witness", "measures.completely_monotone_witness"),
    ("measures", "sample_paths", "measures.sample_paths"),
    ("extension", "extension_terms", "extension.extension_terms"),
    ("extension", "series_verdict", "extension.series_verdict"),
    ("extension", "run_extension_case", "extension.run_extension_case"),
    ("extension", "restricted_mass_limit", "extension.restricted_mass_limit"),
    ("extension", "staircase_extension", "extension.staircase_extension"),
    ("extension", "edge_binomial_extension", "extension.edge_binomial_extension"),
    ("extension", "odometer_column_extension", "extension.odometer_column_extension"),
    ("vershik", "validate_path", "vershik.validate_path"),
    ("vershik", "vershik_step", "vershik.step"),
    ("vershik", "vershik_inverse", "vershik.step"),
    ("vershik", "extremal_path_to", "vershik.extremal_path_to"),
    ("vershik", "scan_tail", "vershik.scan_tail"),
    ("vershik", "materialize", "vershik.materialize"),
    ("vershik", "orbit", "vershik.orbit"),
    ("vershik", "classify_extremal", "vershik.classify_extremal"),
    ("vershik", "classify_descriptor", "vershik.classify_descriptor"),
    ("vershik", "succ_pred", "vershik.succ_pred"),
    ("vershik", "succ_pred_descriptor", "vershik.succ_pred_descriptor"),
    ("vershik", "mirror_descriptor", "vershik.mirror_descriptor"),
    ("vershik", "path_from_json", "vershik.path_from_json"),
    ("vershik", "path_to_json", "vershik.path_to_json"),
    ("vershik", "make_order", "vershik.make_order"),
    ("vershik", "OrderedDiagram.edges_into", "vershik.edges_into"),
    ("vershik", "EdgeOrder.edges_into", "vershik.order_edges_into"),
)

MAIN_SPAN = "cli.main"


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = defaultdict(int)
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording one span per call; hooks run outside the span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                after(args, kwargs, result, token)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _hooks(self):
        c = self.counters

        def cone_entries(args, kwargs, result, token):
            c["linalg.cone_entries"] += sum(len(s) for s in result.values())

        def cache_size(args, kwargs):
            cache = args[3] if len(args) > 3 else kwargs.get("height_cache")
            return (cache, None if cache is None else len(cache))

        def height_reuse(args, kwargs, result, token):
            # stochastic_row looks up the height of the target and of every
            # source of its row.  The cache is a dict that only grows, so the
            # keys it gained in this call are its last ones; a lookup is a
            # hit when its key was there before the call.
            cache, size = token
            level, v = args[1:3]
            keys = [(level, v)] + [(level - 1, w) for w in result]
            c["linalg.height_lookups"] += len(keys)
            if cache is None:
                return
            if len(cache) < size:
                raise RuntimeError("stochastic_row removed entries from its height cache")
            added = set(islice(reversed(cache), len(cache) - size))
            c["linalg.height_hits"] += sum(k in cache and k not in added for k in keys)

        def iterations(args, kwargs, result, token):
            c["limits.iterations"] += result.steps

        def terms(args, kwargs, result, token):
            c["extension.terms"] += len(result)

        def in_order_cache(args, kwargs):
            od, level, v = args[:3]
            return (level, v) in od._cache

        def order_lookup(args, kwargs, result, hit):
            c["vershik.edges_lookups"] += 1
            c["vershik.edges_hits"] += hit

        return {
            "core.cone_levels": (None, cone_entries),
            "linalg.stochastic_row": (cache_size, height_reuse),
            "limits.limit_along": (None, iterations),
            "extension.extension_terms": (None, terms),
            "vershik.edges_into": (in_order_cache, order_lookup),
        }

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bratteli" or n.startswith("bratteli."))]
        hooks = self._hooks()
        for mod_name, attr, span in TRACED:
            module = sys.modules["bratteli." + mod_name]
            before, after = hooks.get(span, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                for cls in _subclasses(getattr(module, cls_name)):
                    fn = cls.__dict__.get(method)
                    if inspect.isfunction(fn):
                        setattr(cls, method, self.wrap(fn, span, before, after))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, span, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced

    def run_main(self, main, argv):
        return self.wrap(main, MAIN_SPAN)(argv)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]; plus counters."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        spans: dict = {}
        for i in range(n):
            entry = spans.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        return {"spans": spans, "counters": dict(self.counters), "span_count": n}

    def write_spans(self, path):
        """Raw spans: a JSON header line, then the name, parent (int32) and
        start, end (float64, seconds) columns, each ``count`` entries long."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
