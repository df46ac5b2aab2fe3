"""eopack benchmark: cold passes of four workloads, each in a fresh interpreter.

    python3 perfbench/run.py --workload hypercube-frontier --seed 0 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn; ``--quick`` runs the same
code paths on tiny inputs.  With ``--trace 0`` the passes are untraced and the
end-to-end metrics are reported; with ``--trace 1`` one untraced and one
traced pass are run and the per-layer metrics are reported, with the tracing
overhead.  Passes run one at a time.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with the spread of every figure,
the workload's own figures and the environment.  See ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "invariants.search_s": "s",
    "invariants.bb_nodes": "count",
    **{f"invariants.bb_nodes.{name}": "count" for name, *_ in wl.FRONTIER},
    "invariants.nodes_per_s": "1/s",
    "invariants.conflict_build_s": "s",
    "invariants.conflict_items": "count",
    "invariants.verify_witness_s": "s",
    "invariants.cache_hit_frac": "ratio",
    "invariants.cache_hit_ms_p50": "ms",
    "invariants.cache_miss_ms_p50": "ms",
    "graph.parse_graph6_s": "s",
    "cli.overhead_ms_p50": "ms",
    "graph.enumerate_trees_s": "s",
    "graph.trees_count": "count",
    "graph.enumerate_graphs_s": "s",
    "graph.graphs_count": "count",
    "graph.distances_s": "s",
    "products.build_s": "s",
    "products.count": "count",
    "trees.recognize_family_f_s": "s",
    "constructions.hypercube_eop_witness_s": "s",
    **{f"harness.check_s.{cid}": "s" for cid in wl.SUITE_CHECK_IDS},
    "harness.instances_run": "count",
    "trace.overhead_s": "s",
}


def _clock() -> float:
    # system-wide on Linux, so parent and child readings compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EOPACK_MAX_ITEMS", "EOPACK_MAX_VERTICES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every child compiles the sources alike
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run one child to completion; its result, or a failed pass on any error."""
    cmd = [sys.executable, "-s", str(CHILD), *args]
    start = _clock()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"attempted": 1, "failures": ["pass timed out"]}
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failures": [f"child exited {proc.returncode}: {err.strip()[-2000:]}"]}
    res["setup_s"] = res["ready_at"] - start
    res["child_s"] = _clock() - start
    return res


def _spread(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eopack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def collect(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> tuple:
    """Run the children of one workload: (untraced passes, setup times, traced pass)."""
    deadline = _clock() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    passes, setups, traced = [], [], None
    if trace:
        passes.append(spawn(base, deadline))
        traced = spawn(base + ["--trace"], deadline)
    else:
        for _ in range(SETUP_SAMPLES):
            probe = spawn(base + ["--setup-only"], deadline)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        t0 = _clock()
        while True:
            passes.append(spawn(base, deadline))
            elapsed = _clock() - t0
            # start another pass only if one more like the last fits in the window
            if elapsed + passes[-1].get("child_s", seconds) > seconds or _clock() > deadline - 5:
                break
    setups += [p["setup_s"] for p in passes if "setup_s" in p]
    return passes, setups, traced


def summarize(workload: str, seed: int, quick: bool, passes: list, setups: list, traced=None) -> dict:
    """Check and reduce the children's results to the run's metrics and report."""
    runs = passes + ([traced] if traced is not None else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    ok = [p for p in passes if "wall_s" in p]
    if traced is not None and "layers" not in traced:
        failures.append("traced pass gave no layer figures")
    if not ok:
        failures.append("no pass completed")

    report = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "trace": traced is not None,
        "environment": {
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "src_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "passes": len(passes),
        "wall_s": _spread([p["wall_s"] for p in ok]),
        "setup_s": _spread(setups),
        "peak_rss_mb": _spread([p["peak_rss_kb"] / 1024 for p in ok]),
    }
    if workload == "hypercube-frontier" and ok:
        nodes = ok[0]["nodes"]
        if any(p["nodes"] != nodes for p in ok):
            failures.append("node counts differ between passes of one input")
        report["bb_nodes"] = {"total": sum(nodes.values()), "by_instance": nodes}
        report["instance_s"] = {k: _spread([p["instance_s"][k] for p in ok]) for k in nodes}
    if workload == "g6-corpus" and ok:
        lat = [x for p in ok for x in p["latencies"]]
        if any(p["values"] != ok[0]["values"] for p in ok):
            failures.append("values differ between passes of one corpus")
        report["requests"] = len(lat)
        report["requests_per_s"] = _spread([len(p["latencies"]) / sum(p["latencies"]) for p in ok])
        report["request_ms_p50"] = 1000 * statistics.median(lat)
        report["request_ms_p99"] = 1000 * statistics.quantiles(lat, n=100)[98]
    attempted = max(attempted, len(failures))
    report["failed_frac"] = {"value": len(failures) / attempted, "failed": len(failures), "attempted": attempted}
    report["failures"] = failures[:20]

    if traced is not None and "layers" in traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - ok[0]["wall_s"] if ok else 0.0
        report["traced_wall_s"] = traced["wall_s"]
        report["spans"] = traced["spans"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    elif traced is not None:
        metrics = {k: {"value": 0.0, "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, same code paths")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eopack" / "__init__.py").is_file():
        print(f"error: no eopack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        passes, setups, traced = collect(w, args.seed, args.seconds, bool(args.trace), args.quick)
        results.append(summarize(w, args.seed, args.quick, passes, setups, traced))
    for res in results:
        rep = res["report"]
        for name, metric in res["metrics"].items():
            if rep["trace"] and not metric["value"]:
                continue  # layers this workload does not reach
            print(f"{rep['workload']:<19} {name:<45} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({"report": rep}))
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['report']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
