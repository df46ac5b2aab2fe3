"""One cold benchmark pass, run in a fresh interpreter by ``run.py``.

The child imports eopack from the checkout's ``src``, makes the workload's
inputs from the seed, notes the moment its inputs are ready, runs the
workload once as a closed loop (each call waits for the previous one) and
checks every output.  Its last line on standard output is one JSON object.

    python3 perfbench/child.py --workload graph-enum --seed 0 [--quick]
        [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench_out"


def _import_eopack():
    import eopack
    import eopack.cli

    where = Path(eopack.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"eopack imported from {where}, not from the checkout's src")
    return eopack


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(eopack, workload: str, seed: int, quick: bool) -> dict:
    Graph = eopack.Graph
    if workload == "suite-cold":
        return {"seed": seed}
    if workload == "hypercube-frontier":
        cubes = wl.frontier_cubes(seed, quick)
        k = wl.WITNESS_K_QUICK if quick else wl.WITNESS_K
        return {
            "graphs": {d: Graph.from_edges(1 << d, e) for d, e in cubes.items()},
            "witness_k": k,
            "witness_host_edges": wl.hypercube_edges(1 << k, None),
        }
    if workload == "g6-corpus":
        lines = wl.g6_corpus(seed, quick)
        graphs = {}
        for line, n, edges in lines:
            if line not in graphs:
                graphs[line] = Graph.from_edges(n, edges)
        return {
            "lines": lines,
            "graphs": graphs,
            "expected": wl.g6_expected(seed, quick, wl.corpus_digest(lines)),
        }
    if workload == "graph-enum":
        return {"max_n": wl.GRAPH_MAX_N_QUICK if quick else wl.GRAPH_MAX_N}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# workloads; each returns attempted operations, failures and its own figures
# ---------------------------------------------------------------------------

def suite_cold(eopack, inp: dict, quick: bool) -> dict:
    reports, _ = eopack.harness.run_suite(
        seed=inp["seed"], max_n=wl.SUITE_QUICK_MAX_N if quick else None
    )
    status = {r.id: r.status for r in reports}
    failures = []
    for cid in sorted(set(wl.SUITE_CHECK_IDS) | set(status)):
        want = "skipped" if cid in wl.SUITE_SKIPPED else "pass"
        if cid not in wl.SUITE_CHECK_IDS:
            failures.append(f"{cid}: unexpected check")
        elif status.get(cid) != want:
            failures.append(f"{cid}: {status.get(cid, 'missing')}, expected {want}")
    return {
        "attempted": len(set(wl.SUITE_CHECK_IDS) | set(status)),
        "failures": failures,
        "instances_run": sum(r.instances_run for r in reports),
    }


def hypercube_frontier(eopack, inp: dict, quick: bool) -> dict:
    inv = eopack.invariants
    failures = []
    nodes, seconds = {}, {}
    frontier = wl.FRONTIER_QUICK if quick else wl.FRONTIER
    for (name, fn, d, want), (slot, *_) in zip(frontier, wl.FRONTIER):
        g = inp["graphs"][d]
        t0 = time.perf_counter()
        if fn == "rho_eo":
            res, kind, k = inv.rho_eo(g, max_items=wl.FRONTIER_MAX_ITEMS), "eop", None
        elif fn == "nu_i":
            res, kind, k = inv.nu_i(g, max_items=wl.FRONTIER_MAX_ITEMS), "induced_matching", None
        else:
            k = int(fn[-1])
            res = inv.distance_packing(g, k, max_items=wl.FRONTIER_MAX_ITEMS)
            kind = "k_packing"
        seconds[slot] = time.perf_counter() - t0
        nodes[slot] = res.nodes
        if res.value != want or len(res.witness) != want:
            failures.append(f"{name}: value {res.value}, expected {want}")
        elif not inv.verify_witness(g, res.witness, kind, k):
            failures.append(f"{name}: witness fails verify_witness")

    k = inp["witness_k"]
    host, w = eopack.constructions.hypercube_eop_witness(k)
    want = 1 << ((1 << k) - 1)
    if host.edges != inp["witness_host_edges"]:
        failures.append(f"hypercube_eop_witness({k}): host is not Q_{1 << k}")
    elif len(w) != want or not inv.verify_witness(host, w, "eop"):
        failures.append(f"hypercube_eop_witness({k}): not {want} valid edges")
    return {
        "attempted": len(frontier) + 1,
        "failures": failures,
        "nodes": nodes,
        "instance_s": seconds,
    }


def _check_reply(inv, g, code: int, text: str, kind: str):
    """Value printed by one compute request, or None if the reply is wrong."""
    lines = text.splitlines()
    if code != 0 or len(lines) != 2 or not lines[1].startswith("witness:"):
        return None
    value = int(lines[0])
    pairs = [tuple(map(int, p.split("-"))) for p in lines[1][len("witness:"):].split()]
    if any(p not in g.edge_index for p in pairs) or len(pairs) != value:
        return None
    if not inv.verify_witness(g, [g.edge_index[p] for p in pairs], kind):
        return None
    return value


def g6_corpus(eopack, inp: dict, quick: bool) -> dict:
    inv, main = eopack.invariants, eopack.cli.main
    kinds = {"rho-eo": "eop", "nu-i": "induced_matching"}
    failures, latencies, values = [], [], []
    for i, (line, _, _) in enumerate(inp["lines"]):
        g = inp["graphs"][line]
        got = []
        for name in wl.G6_INVARIANTS:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = main(["compute", "--invariant", name, "--g6", line, "--witness"])
            latencies.append(time.perf_counter() - t0)
            value = _check_reply(inv, g, code, buf.getvalue(), kinds[name])
            if value is None:
                failures.append(f"line {i} {name}: bad reply {buf.getvalue()!r}")
            got.append(value)
        rho, nu = got
        expected = inp["expected"]
        if None not in got and nu > rho:
            failures.append(f"line {i}: nu_i {nu} > rho_eo {rho}")
        elif None not in got and expected is not None and tuple(got) != expected[i]:
            failures.append(f"line {i}: values {tuple(got)}, frozen {expected[i]}")
        values.append(got)
    return {
        "attempted": len(latencies),
        "failures": failures,
        "latencies": latencies,
        "values": values,
    }


def graph_enum(eopack, inp: dict, quick: bool) -> dict:
    failures = []
    for n in range(1, inp["max_n"] + 1):
        count = sum(1 for _ in eopack.graph.enumerate_graphs(n, dedup=True))
        if count != wl.GRAPH_COUNTS[n - 1]:
            failures.append(f"n={n}: {count} graphs, expected {wl.GRAPH_COUNTS[n - 1]}")
    return {"attempted": inp["max_n"], "failures": failures}


RUNNERS = {
    "suite-cold": suite_cold,
    "hypercube-frontier": hypercube_frontier,
    "g6-corpus": g6_corpus,
    "graph-enum": graph_enum,
}


def run_pass(eopack, workload: str, inp: dict, quick: bool, tracer=None) -> dict:
    """Run one pass and return its result; layer figures too when traced."""
    t0 = time.perf_counter()
    out = RUNNERS[workload](eopack, inp, quick)
    out["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        import tracing

        layers = tracing.layer_metrics(tracer.spans, wl.SUITE_CHECK_IDS)
        nodes = out.get("nodes", {})
        layers.update({f"invariants.bb_nodes.{name}": nodes.get(name, 0) for name, *_ in wl.FRONTIER})
        layers["harness.instances_run"] = out.get("instances_run", 0)
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    eopack = _import_eopack()
    inp = make_inputs(eopack, args.workload, args.seed, args.quick)
    result = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(eopack.invariants._CACHE)
            tracer.install("eopack")
        try:
            result.update(run_pass(eopack, args.workload, inp, args.quick, tracer))
        except Exception:
            result.update(attempted=1, failures=["pass raised:\n" + traceback.format_exc()])
        if tracer is not None:
            tag = f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}"
            path = SPAN_DIR / f"spans-{tag}.jsonl"
            tracer.write(path)
            result["spans"] = {"path": str(path.relative_to(ROOT)), "count": len(tracer.spans)}
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
