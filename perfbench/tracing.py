"""Span recording for the traced pass, and the per-layer metrics made from it.

The traced pass rebinds public eopack functions, in every eopack module that
holds a reference to them, to timing wrappers defined here.  No file under
``src/eopack`` changes; the wrappers live only in the traced child
interpreter.  Spans (name, start, end, parent) are kept in memory and written
out when the pass ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

# (module, function, role); roles: "request" and "cached" calls are classed as
# value-cache hits or misses, "materialize" drains a generator inside its span,
# "label" tags the span with its first argument
TRACED = (
    ("cli", "main", "request"),
    ("graph", "parse_graph6", None),
    ("graph", "enumerate_trees", "materialize"),
    ("graph", "enumerate_graphs", "materialize"),
    ("graph", "distances", None),
    ("invariants", "nu_i", "cached"),
    ("invariants", "rho_eo", "cached"),
    ("invariants", "alpha", "cached"),
    ("invariants", "rho_o", "cached"),
    ("invariants", "distance_packing", "cached"),
    ("invariants", "gamma", "cached"),
    ("invariants", "build_conflict_graph", None),
    ("invariants", "max_independent_set", None),
    ("invariants", "enumerate_optimal", None),
    ("invariants", "has_perfect_code", None),
    ("invariants", "verify_witness", None),
    ("products", "product", None),
    ("products", "cartesian", None),
    ("products", "direct", None),
    ("products", "strong", None),
    ("products", "lex", None),
    ("products", "rooted_product", None),
    ("products", "corona", None),
    ("products", "join", None),
    ("trees", "recognize_family_f", None),
    ("constructions", "hypercube_eop_witness", None),
    ("harness", "run_check", "label"),
)

# spans whose self time is exact search (for rho_k it includes the small
# distance-threshold conflict build, which is not a public call)
SEARCH = {
    "invariants.max_independent_set",
    "invariants.enumerate_optimal",
    "invariants.has_perfect_code",
    "invariants.distance_packing",
    "invariants.rho_o",
    "invariants.gamma",
}
# spans whose result carries a fresh branch-and-bound node count
NODE_COUNTING = {
    "invariants.max_independent_set",
    "invariants.distance_packing",
    "invariants.rho_o",
    "invariants.gamma",
}
VALUE_CALLS = {f"{m}.{f}" for m, f, role in TRACED if role in ("request", "cached")}
PRODUCTS = {f"products.{f}" for m, f, _ in TRACED if m == "products"}

NAME, START, END, PARENT, LABEL, COUNT, HIT = range(7)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, cache: dict):
        self.spans: list = []
        self._stack: list = []
        self._cache = cache

    def wrap(self, name: str, fn, role):
        spans, stack, cache = self.spans, self._stack, self._cache
        clock = time.perf_counter
        params = list(inspect.signature(fn).parameters)
        cap_pos = params.index("max_items") if "max_items" in params else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None, None]
            stack.append(len(spans))
            spans.append(span)
            size = len(cache)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                if role == "materialize":
                    out = list(out)
            finally:
                span[END] = clock()
                stack.pop()
            if role == "label":
                span[LABEL] = args[0]
            if role in ("request", "cached"):
                capped = kwargs.get("max_items") is not None or (
                    cap_pos is not None and len(args) > cap_pos and args[cap_pos] is not None
                )
                span[HIT] = not capped and len(cache) == size
            if role == "materialize":
                span[COUNT] = len(out)
            elif name == "invariants.build_conflict_graph":
                span[COUNT] = out.item_count
            elif name in NODE_COUNTING and not span[HIT]:
                span[COUNT] = out.nodes
            return out

        return traced

    def install(self, package) -> None:
        """Rebind every reference to a traced function in the package's modules."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, fn_name, role in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, role)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
                for key, idx in (("label", LABEL), ("count", COUNT), ("hit", HIT)):
                    if s[idx] is not None:
                        rec[key] = s[idx]
                fh.write(json.dumps(rec) + "\n")


def _p50_ms(durations) -> float:
    return 1000 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list, check_ids) -> dict:
    """Per-layer figures of one traced pass, from its spans alone."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def total(name: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s[NAME] == name)

    def count(name: str) -> int:
        return sum(s[COUNT] or 0 for s in spans if s[NAME] == name)

    search_s = sum(d - c for s, d, c in zip(spans, dur, child_time) if s[NAME] in SEARCH)
    nodes = sum(s[COUNT] or 0 for s in spans if s[NAME] in NODE_COUNTING)
    value_calls = [
        i for i, s in enumerate(spans) if s[NAME] in VALUE_CALLS and not has_ancestor(i, VALUE_CALLS)
    ]
    hits = [dur[i] for i in value_calls if spans[i][HIT]]
    misses = [dur[i] for i in value_calls if not spans[i][HIT]]
    requests = [i for i, s in enumerate(spans) if s[NAME] == "cli.main"]
    products = [i for i, s in enumerate(spans) if s[NAME] in PRODUCTS and not has_ancestor(i, PRODUCTS)]
    checks: dict = {}
    for s, d in zip(spans, dur):
        if s[NAME] == "harness.run_check":
            checks[s[LABEL]] = checks.get(s[LABEL], 0.0) + d

    out = {
        "invariants.search_s": search_s,
        "invariants.bb_nodes": nodes,
        "invariants.nodes_per_s": nodes / search_s if search_s else 0.0,
        "invariants.conflict_build_s": total("invariants.build_conflict_graph"),
        "invariants.conflict_items": count("invariants.build_conflict_graph"),
        "invariants.verify_witness_s": total("invariants.verify_witness"),
        "invariants.cache_hit_frac": len(hits) / len(value_calls) if value_calls else 0.0,
        "invariants.cache_hit_ms_p50": _p50_ms(hits),
        "invariants.cache_miss_ms_p50": _p50_ms(misses),
        "graph.parse_graph6_s": total("graph.parse_graph6"),
        "cli.overhead_ms_p50": _p50_ms([dur[i] - child_time[i] for i in requests]),
        "graph.enumerate_trees_s": total("graph.enumerate_trees"),
        "graph.trees_count": count("graph.enumerate_trees"),
        "graph.enumerate_graphs_s": total("graph.enumerate_graphs"),
        "graph.graphs_count": count("graph.enumerate_graphs"),
        "graph.distances_s": total("graph.distances"),
        "products.build_s": sum(dur[i] for i in products),
        "products.count": len(products),
        "trees.recognize_family_f_s": total("trees.recognize_family_f"),
        "constructions.hypercube_eop_witness_s": total("constructions.hypercube_eop_witness"),
    }
    for cid in check_ids:
        out[f"harness.check_s.{cid}"] = checks.get(cid, 0.0)
    return out
