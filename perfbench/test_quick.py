"""Quick-mode checks of the benchmark itself.

    python3 -m pytest perfbench -q

The quick mode runs every workload's code paths on tiny inputs, so these
tests check the metric names, units and correctness gate in seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    reports = [json.loads(line)["report"] for line in lines if line.startswith('{"report"')]
    return reports, json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    reports, final = _run("--workload", "all", "--trace", trace)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert [r["workload"] for r in reports] == list(wl.WORKLOADS)
    want = {f"{w}.{m['name']}": m["unit"] for w in wl.WORKLOADS for m in BENCH[key]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == want
    for r in reports:
        assert r["failed_frac"]["value"] == 0 and r["failed_frac"]["attempted"] > 0
        assert set(r["environment"]) == {"python", "git_revision", "src_sha256", "nproc"}
    by_name = {r["workload"]: r for r in reports}
    if trace == "0":
        frontier = by_name["hypercube-frontier"]["bb_nodes"]
        assert frontier["total"] == sum(frontier["by_instance"].values()) > 0
        for name in ("requests_per_s", "request_ms_p50", "request_ms_p99"):
            assert name in by_name["g6-corpus"]
    else:
        for r in reports:
            assert (ROOT / r["spans"]["path"]).is_file() and r["spans"]["count"] > 0
        assert final["metrics"]["suite-cold.harness.instances_run"]["value"] > 0
        assert final["metrics"]["g6-corpus.invariants.cache_hit_frac"]["value"] > 0


def test_single_workload_prints_exactly_the_declared_metrics():
    _, final = _run("--workload", "graph-enum", "--trace", "0")
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in final["metrics"].values())


def _pass_in_process(workload: str, capsys) -> dict:
    child.main(["--workload", workload, "--seed", "0", "--quick"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    res["setup_s"] = 0.1
    return res


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_correct_values_pass_the_gate(workload, capsys):
    res = run.summarize(workload, 0, True, [_pass_in_process(workload, capsys)], [0.1])
    assert res["correct"] and res["failed"] == 0


def test_wrong_expected_values_raise_failed_frac(monkeypatch, capsys):
    monkeypatch.setattr(wl, "GRAPH_COUNTS", (1, 2, 4, 11, 35, 156, 1044))
    res = run.summarize("graph-enum", 0, True, [_pass_in_process("graph-enum", capsys)], [0.1])
    assert not res["correct"]
    assert res["report"]["failed_frac"] == {"value": 0.2, "failed": 1, "attempted": 5}

    frontier = list(wl.FRONTIER_QUICK)
    frontier[0] = frontier[0][:3] + (4,)
    monkeypatch.setattr(wl, "FRONTIER_QUICK", tuple(frontier))
    res = run.summarize("hypercube-frontier", 0, True, [_pass_in_process("hypercube-frontier", capsys)], [0.1])
    assert not res["correct"] and res["report"]["failed_frac"]["failed"] == 1

    frozen = wl.g6_expected

    def off_by_one(seed, quick, digest):
        values = frozen(seed, quick, digest)
        return [(values[0][0] + 1, values[0][1])] + values[1:]

    monkeypatch.setattr(wl, "g6_expected", off_by_one)
    res = run.summarize("g6-corpus", 0, True, [_pass_in_process("g6-corpus", capsys)], [0.1])
    assert not res["correct"] and res["report"]["failed_frac"]["failed"] >= 1


def test_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
