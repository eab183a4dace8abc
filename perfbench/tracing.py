"""Span recorder around linkdiag's public entry points.

``Tracer.install`` wraps each entry point in ``ENTRY_POINTS`` and rebinds
the wrapper under every name any ``linkdiag`` module holds the original by,
so calls between modules are traced too while the source stays untouched.
Spans are kept in memory as ``[name, start_ns, end_ns, parent, request,
note]`` and turned into per-layer numbers by ``layer_metrics``.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, note taken from (args, result) for the layer metrics)
ENTRY_POINTS = (
    ("linkdiag.cli", "run", None),
    ("linkdiag.diagram", "parse_diagram", None),
    ("linkdiag.diagram", "import_pd", None),
    ("linkdiag.braids", "parse_braid", None),
    ("linkdiag.braids", "witness_from_json", None),
    ("linkdiag.braids", "closure", None),
    ("linkdiag.seifert", "seifert_analysis", None),
    ("linkdiag.seifert", "homogeneity", None),
    ("linkdiag.graph_index", "ind_all", lambda args, result: result.size_limited),
    # The package attribute ``linkdiag.homfly`` is the function, so the
    # module is reached through sys.modules.
    ("linkdiag.homfly", "homfly", lambda args, result: args[0]),
    ("linkdiag.theorems", "certify", None),
    ("linkdiag.theorems", "braid_index_bounds", None),
    ("linkdiag.theorems", "witness_sl", None),
    ("linkdiag.vogel", "vogel_braidize", lambda args, result: (len(args[0].crossings), len(result.letters))),
)

PARSE = ("diagram.parse_diagram", "diagram.import_pd", "braids.parse_braid", "braids.witness_from_json")
THEOREMS = ("theorems.certify", "theorems.braid_index_bounds", "theorems.witness_sl")

# Per-layer metric -> unit, in BENCHMARK.json order.
UNITS = {
    "homfly.calls": "count",
    "homfly.ms": "ms",
    "homfly.crossings_mean": "count",
    "homfly.distinct_ratio": "ratio",
    "seifert.analysis_calls": "count",
    "seifert.analysis_ms": "ms",
    "seifert.homogeneity_ms": "ms",
    "graph_index.ind_all_calls": "count",
    "graph_index.ind_all_ms": "ms",
    "graph_index.size_limited_ratio": "ratio",
    "theorems.self_ms": "ms",
    "theorems.bounds_calls": "count",
    "vogel.self_ms": "ms",
    "vogel.r2_moves": "count",
    "vogel.verified_ratio": "ratio",
    "cli.self_ms": "ms",
    "diagram.parse_ms": "ms",
    "braids.closure_calls": "count",
    "braids.closure_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self._bound = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "linkdiag" or n.startswith("linkdiag.")]
        for module_name, func_name, note in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], func_name)
            name = module_name.split(".", 1)[1] + "." + func_name
            wrapper = self._wrap(name, original, note)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bound.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in self._bound:
            setattr(m, attr, original)
        self._bound.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, _note in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def layer_metrics(spans, requests, unverified, overhead_ratio):
    """Per-request means of the per-layer numbers, from the recorded spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _req, _note in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    calls, incl, self_ns = {}, {}, {}
    for i, (name, start, end, _parent, _req, _note) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]

    def per_req(x):
        return x / requests

    def ms(ns):
        return per_req(ns) / 1e6

    homfly = [s for s in spans if s[0] == "homfly.homfly"]
    distinct = len({(s[4], s[5]) for s in homfly})
    ind = [s for s in spans if s[0] == "graph_index.ind_all"]
    vogel = [s for s in spans if s[0] == "vogel.vogel_braidize" and s[5] is not None]
    m = {
        "homfly.calls": per_req(len(homfly)),
        "homfly.ms": ms(incl.get("homfly.homfly", 0)),
        "homfly.crossings_mean": sum(len(s[5].crossings) for s in homfly) / len(homfly) if homfly else 0.0,
        "homfly.distinct_ratio": distinct / len(homfly) if homfly else 0.0,
        "seifert.analysis_calls": per_req(calls.get("seifert.seifert_analysis", 0)),
        "seifert.analysis_ms": ms(incl.get("seifert.seifert_analysis", 0)),
        "seifert.homogeneity_ms": ms(incl.get("seifert.homogeneity", 0)),
        "graph_index.ind_all_calls": per_req(len(ind)),
        "graph_index.ind_all_ms": ms(incl.get("graph_index.ind_all", 0)),
        "graph_index.size_limited_ratio": sum(1 for s in ind if s[5]) / len(ind) if ind else 0.0,
        "theorems.self_ms": ms(sum(self_ns.get(n, 0) for n in THEOREMS)),
        "theorems.bounds_calls": per_req(calls.get("theorems.braid_index_bounds", 0)),
        "vogel.self_ms": ms(self_ns.get("vogel.vogel_braidize", 0)),
        "vogel.r2_moves": per_req(sum((out - inp) / 2 for inp, out in (s[5] for s in vogel))),
        "vogel.verified_ratio": 1 - unverified / len(vogel) if vogel else 0.0,
        "cli.self_ms": ms(self_ns.get("cli.run", 0)),
        "diagram.parse_ms": ms(sum(incl.get(n, 0) for n in PARSE)),
        "braids.closure_calls": per_req(calls.get("braids.closure", 0)),
        "braids.closure_ms": ms(incl.get("braids.closure", 0)),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": m[name], "unit": unit} for name, unit in UNITS.items()}
