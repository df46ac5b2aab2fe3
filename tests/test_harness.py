import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from eopack import harness, invariants, products
from eopack.harness import (
    REGISTRY,
    list_checks,
    report_json,
    run_check,
    run_suite,
    suite_json,
)

ALL_CHECK_IDS = [
    "paths-formulas",
    "spider-equality",
    "family-f-value-uniqueness",
    "trees-iff-family-f",
    "subdivided-star-lemma",
    "lex-nu-equality",
    "lex-eop-bounds",
    "lex-eop-sharpness",
    "lex-nu-remark",
    "direct-nu-bound",
    "direct-eop-bound",
    "direct-eop-counterexample",
    "direct-nu-remark",
    "spanning-incomparability",
    "lex-min-box",
    "box-eop-bounds",
    "nu-box-analogues",
    "lex-strong-kn",
    "hypercube-nu",
    "perfect-code-regular",
    "hamming-codes",
    "bipartite-eop-lemma",
    "prism-3packing",
    "table1-hypercubes",
    "roeo-q2k",
    "q9-bound",
    "rooted-three-values",
    "corona-formula",
    "rooted-eop-equ2",
]


def test_registry_covers_every_statement():
    # one check per supported statement; ids are frozen so coverage is static
    assert [c.id for c in list_checks()] == ALL_CHECK_IDS
    assert len(set(ALL_CHECK_IDS)) == len(ALL_CHECK_IDS)


def test_repeated_check_id_is_refused():
    before = list(REGISTRY.items())
    declare = harness._check("spider-equality", "again", "nothing", 1)
    with pytest.raises(ValueError, match="'spider-equality' is declared twice"):
        declare(lambda run: iter(()))
    assert list(REGISTRY.items()) == before


def test_suite_runs_the_registered_runner_once(monkeypatch):
    patched = dataclasses.replace(
        REGISTRY["spider-equality"], runner=lambda run: iter([(["x"], 1, 1)])
    )
    monkeypatch.setitem(REGISTRY, "spider-equality", patched)
    reports, _ = run_suite("spider-eq")
    assert [(r.id, r.instances_run) for r in reports] == [("spider-equality", 1)]


def test_every_check_has_citation_and_corpus():
    for c in list_checks():
        assert c.citation.strip()
        assert c.corpus.strip()
        assert c.budget_s >= 0


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_paths_check_passes():
    r = run_check("paths-formulas")
    assert r.status == "pass"
    assert r.instances_run == 20
    assert r.failures == []


def test_q9_is_registered_but_skipped():
    r = run_check("q9-bound")
    assert r.status == "skipped" and r.instances_run == 0


def test_report_json_schema():
    r = run_check("spider-equality")
    d = report_json(r)
    assert list(d.keys()) == [
        "id",
        "citation",
        "instances_run",
        "failures",
        "wall_ms",
        "status",
        "capacity_skips",
        "error",
    ]
    stable = report_json(r, with_timing=False)
    assert "wall_ms" not in stable
    json.dumps(d)  # must be serializable


def test_reports_reproducible_without_timing():
    a = report_json(run_check("paths-formulas", seed=3), with_timing=False)
    b = report_json(run_check("paths-formulas", seed=3), with_timing=False)
    assert json.dumps(a) == json.dumps(b)


def test_seed_does_not_affect_formula_checks():
    a = report_json(run_check("spider-equality", seed=1), with_timing=False)
    b = report_json(run_check("spider-equality", seed=99), with_timing=False)
    assert a == b


def test_seeded_check_passes_for_multiple_seeds():
    for seed in (0, 7):
        r = run_check("family-f-value-uniqueness", seed=seed)
        assert r.status == "pass" and r.instances_run == 50


def test_budget_exhaustion_skips_with_partial_counts():
    r = run_check("lex-nu-equality", budget=0)
    assert r.status == "skipped"
    assert r.failures == []


def test_max_n_shrinks_corpus():
    full = run_check("lex-nu-equality", max_n=2)
    assert full.status == "pass"
    assert full.instances_run == 9  # three unlabeled graphs on <= 2 vertices


@pytest.mark.parametrize("check_id", ["trees-iff-family-f", "paths-formulas"])
def test_max_n_zero_leaves_a_corpus_empty(check_id):
    # no tree or path has at most 0 vertices, so nothing runs and nothing passes
    r = run_check(check_id, max_n=0)
    assert (r.status, r.instances_run) == ("skipped", 0)


def test_suite_filter():
    reports, summary = run_suite("hypercube")
    ids = {r.id for r in reports}
    assert {"hypercube-nu", "table1-hypercubes", "roeo-q2k",
            "hamming-codes", "perfect-code-regular"} <= ids
    assert "trees-iff-family-f" not in ids
    assert summary["total"] == len(reports)


def test_suite_json_shape():
    reports, summary = run_suite("spider")
    d = suite_json(reports, summary, with_timing=False)
    assert set(d.keys()) == {"checks", "summary"}
    assert d["summary"]["fail"] == 0
    json.dumps(d)


def test_capacity_skip_never_passes(monkeypatch):
    from eopack.invariants import clear_cache

    clear_cache()
    monkeypatch.setenv("EOPACK_MAX_ITEMS", "10")
    r = run_check("lex-nu-equality")
    assert r.status == "skipped"
    assert r.failures == []
    assert r.capacity_skips > 0
    monkeypatch.delenv("EOPACK_MAX_ITEMS")
    clear_cache()


def _patch_runner(monkeypatch, runner, check_id="lex-nu-equality"):
    patched = dataclasses.replace(REGISTRY[check_id], runner=runner)
    monkeypatch.setitem(REGISTRY, check_id, patched)


def test_checkrun_budget_bookkeeping(monkeypatch):
    def two_records(run):
        yield ["x"], 1, 1
        yield ["y"], 1, 2

    _patch_runner(monkeypatch, two_records)
    r = run_check("lex-nu-equality")
    assert r.instances_run == 2 and r.status == "fail"
    assert len(r.failures) == 1
    assert r.failures[0]["inputs_graph6"] == ["y"]
    stale = run_check("lex-nu-equality", budget=-1)
    assert stale.status == "skipped" and stale.instances_run == 0


@pytest.mark.parametrize(
    "bound, status, actual",
    [
        ((3, 1), "fail", "1 outside [3,None]"),
        ((0, 5, 4), "fail", "5 outside [0,4]"),
        ((1, 2, 2), "pass", "holds"),
    ],
)
def test_bound_misses_are_reported(monkeypatch, bound, status, actual):
    _patch_runner(monkeypatch, lambda run: iter([(["x"], "holds", harness._within(*bound))]))
    r = run_check("lex-nu-equality")
    assert r.status == status
    failures = [{"inputs_graph6": ["x"], "expected": "holds", "actual": actual}]
    assert r.failures == ([] if actual == "holds" else failures)


def test_runner_exception_is_recorded_as_error(monkeypatch):
    def broken(run):
        yield ["x"], 1, 1
        raise AssertionError("broken runner")

    _patch_runner(monkeypatch, broken)
    reports, summary = run_suite("lex-nu", max_n=2)
    status = {r.id: r.status for r in reports}
    # the rest of the suite still runs
    assert status == {"lex-nu-equality": "error", "lex-nu-remark": "pass"}
    assert summary["error"] == 1 and summary["pass"] == 1
    d = report_json(reports[0], with_timing=False)
    assert d["error"] == "AssertionError: broken runner"
    assert d["instances_run"] == 1 and d["capacity_skips"] == 0
    assert report_json(reports[1], with_timing=False)["error"] is None


def test_zero_budget_never_enters_a_runner(monkeypatch):
    entered = []

    def runner(run):
        entered.append(run)
        yield ["x"], 1, 1

    _patch_runner(monkeypatch, runner)
    r = run_check("lex-nu-equality", budget=0)
    assert (r.status, r.instances_run) == ("skipped", 0)
    assert entered == []


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("extra", [0, 2], ids=["last-instance", "more-left"])
def test_deadline_passing_after_k_instances_skips(monkeypatch, k, extra):
    # the clock reads 0 for t0 and the first k gates, then jumps past the
    # deadline, so instance k + 1 is never started
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= k + 1 else 100.0

    def runner(run):
        for i in range(k + extra):
            yield [f"i={i}"], i, i

    _patch_runner(monkeypatch, runner)
    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=clock))
    r = run_check("lex-nu-equality", budget=10)
    assert (r.status, r.instances_run, r.failures) == ("skipped", k, [])


def test_capacity_skips_reported_without_timing(monkeypatch):
    from eopack.invariants import clear_cache

    clear_cache()
    monkeypatch.setenv("EOPACK_MAX_ITEMS", "0")
    d = report_json(run_check("lex-nu-equality", max_n=2), with_timing=False)
    clear_cache()
    assert d["status"] == "skipped"
    assert d["capacity_skips"] == 1


# instances_run per check for run_suite() at full size and at max_n=3; every
# check passes with no capacity skip, except q9-bound, which records nothing
PINNED_INSTANCES = {
    "paths-formulas": (20, 3),
    "spider-equality": (4, 4),
    "family-f-value-uniqueness": (50, 50),
    "trees-iff-family-f": (95, 3),
    "subdivided-star-lemma": (372, 6),
    "lex-nu-equality": (324, 49),
    "lex-eop-bounds": (324, 49),
    "lex-eop-sharpness": (12, 12),
    "lex-nu-remark": (3, 3),
    "direct-nu-bound": (174, 31),
    "direct-eop-bound": (175, 32),
    "direct-eop-counterexample": (2, 2),
    "direct-nu-remark": (1, 1),
    "spanning-incomparability": (3, 3),
    "lex-min-box": (324, 49),
    "box-eop-bounds": (667, 106),
    "nu-box-analogues": (324, 49),
    "lex-strong-kn": (25, 14),
    "hypercube-nu": (4, 2),
    "perfect-code-regular": (14, 9),
    "hamming-codes": (2, 2),
    "bipartite-eop-lemma": (26, 6),
    "prism-3packing": (52, 7),
    "table1-hypercubes": (14, 6),
    "roeo-q2k": (3, 3),
    "q9-bound": (0, 0),
    "rooted-three-values": (1134, 133),
    "corona-formula": (324, 49),
    "rooted-eop-equ2": (1107, 128),
}


def _outcomes(**kwargs):
    reports, _ = run_suite(**kwargs)
    return {r.id: (r.status, r.instances_run, r.capacity_skips) for r in reports}


@pytest.mark.parametrize(
    "column, kwargs", [(0, {}), (1, {"max_n": 3})], ids=["full", "max_n=3"]
)
def test_suite_outcomes_are_pinned(column, kwargs):
    want = {
        cid: ("skipped" if cid == "q9-bound" else "pass", counts[column], 0)
        for cid, counts in PINNED_INSTANCES.items()
    }
    assert _outcomes(**kwargs) == want


def test_zero_budget_ends_each_runner_at_its_first_gate():
    want = {cid: ("skipped", 0, 0) for cid in ALL_CHECK_IDS}
    # spanning-incomparability's trailing K_5 vs C_5 record must not run either
    assert _outcomes(budget=0) == want


# ---------------------------------------------------------------------------
# the worker pool: each test forces a path through the worker-count helper
# ---------------------------------------------------------------------------


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(harness, "_workers", lambda n_checks: min(n_checks, workers))


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_n": 3}, {"name_filter": "box"}],
    ids=["full", "max_n=3", "box"],  # "box" selects part of each chain
)
def test_pooled_and_serial_suites_are_byte_identical(monkeypatch, kwargs):
    texts = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        texts.append(json.dumps(suite_json(*run_suite(seed=0, **kwargs), with_timing=False)))
    assert texts[0] == texts[1]


def test_the_max_n_3_suite_report_is_pinned_by_digest():
    # CI pins the full seed-0 report alike; this smaller suite runs in a fraction of a second
    invariants.clear_cache()
    report = json.dumps(suite_json(*run_suite(max_n=3), with_timing=False))
    digest = "6bab52fbb5cdb897edcc35eebfd3e50e3ba6d0b50285b47d819cef1729ead90b"
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_every_chained_check_is_registered():
    assert {cid for chain in harness._CHAINS for cid in chain} <= set(REGISTRY)


@pytest.mark.parametrize("chain", harness._CHAINS, ids=lambda chain: chain[0])
def test_later_chain_members_reuse_the_earlier_members_products(monkeypatch, chain):
    hits = []
    front_door = invariants._invariant

    def spy(name, g, unit, solve, max_items):
        # as perfbench's tracer counts: an uncapped call that adds no entry is a hit
        size = len(invariants._CACHE)
        res = front_door(name, g, unit, solve, max_items)
        if max_items is None and len(invariants._CACHE) == size:
            hits.append((g.n, res))
        return res

    monkeypatch.setattr(invariants, "_invariant", spy)
    invariants.clear_cache()
    for i, cid in enumerate(chain):
        earlier = {id(res) for res in invariants._CACHE.values()}
        hits.clear()
        assert run_check(cid, max_n=3).status == "pass"
        # factors have at most 3 vertices, so larger graphs are products; a hit
        # returns the stored value itself, so its identity says which check stored it
        product_hits = [n for n, res in hits if n > 3 and id(res) in earlier]
        assert bool(product_hits) == (i > 0), cid


# ---------------------------------------------------------------------------
# the product memo: shared by the checks of one pool task, and emptied when the
# run_check, pool task or in-process run_suite that filled it returns
# ---------------------------------------------------------------------------


def _memo_is_empty() -> bool:
    return harness._PRODUCTS == {} and harness._memo_users == 0


_RUN_TASK = harness._run_task


def _task_leaving_the_memo_empty(ids, *args):
    reports = _RUN_TASK(ids, *args)
    # raised in the worker, this comes back out of the task's future in the parent
    assert _memo_is_empty(), ids
    return reports


@pytest.mark.parametrize("workers", [1, 2])
def test_no_product_outlives_the_suite(monkeypatch, workers):
    monkeypatch.setattr(harness, "_run_task", _task_leaving_the_memo_empty)
    _force_workers(monkeypatch, workers)
    _, summary = run_suite(max_n=3)
    assert summary["pass"] == summary["total"] - 1
    assert _memo_is_empty()


def test_no_product_outlives_a_direct_run_check(monkeypatch):
    sizes = []
    memo = harness._memo

    def spy(key, build):
        sizes.append(len(harness._PRODUCTS))
        return memo(key, build)

    monkeypatch.setattr(harness, "_memo", spy)
    assert run_check("box-eop-bounds", max_n=3).status == "pass"
    assert max(sizes) > 0 and _memo_is_empty()


def test_the_eop_chain_builds_each_product_once(monkeypatch):
    built, blocks = [], products._blocks
    asked, product = [], harness.product

    def blocks_spy(*args):
        built.append(args)
        return blocks(*args)

    def product_spy(kind, g, h):
        asked.append((kind, g, h))
        return product(kind, g, h)

    monkeypatch.setattr(products, "_blocks", blocks_spy)
    monkeypatch.setattr(harness, "product", product_spy)
    chain = ("lex-eop-bounds", "lex-min-box", "box-eop-bounds")
    assert chain in harness._CHAINS
    assert [r.status for r in harness._run_task(list(chain), None, 0, None)] == ["pass"] * 3
    # 324 lex products, 171 box and 171 strong ones (one per unordered pair), K_{1,2} box K_{1,3}
    assert len(built) == len(set(asked)) == len(asked) == 667
    assert _memo_is_empty()


def test_roots_are_represented_by_their_orbit_minima():
    graphs = harness._graphs_upto(5)
    assert len(graphs) == 52
    for h in graphs:
        auts = [
            p
            for p in itertools.permutations(range(h.n))
            if all(h.has_edge(p[u], p[v]) for u, v in h.edges)
        ]
        assert harness._orbit_minima(h) == tuple(min(p[v] for p in auts) for v in range(h.n))


def test_a_serial_suite_builds_and_solves_shared_products_once(monkeypatch):
    calls = Counter()
    for module, name in ((products, "_blocks"), (invariants, "_solve")):

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    _force_workers(monkeypatch, 1)
    invariants.clear_cache()
    run_suite(seed=0)
    # 6,371 and 4,824 when every ordered pair and every root built and solved its own product
    assert calls == {"_blocks": 1906, "_solve": 3558}


def test_pooled_reports_come_back_in_registry_order(monkeypatch):
    def slow(run):
        time.sleep(0.5)  # the next check, in the other worker, ends first
        yield ["x"], 1, 1

    _patch_runner(monkeypatch, slow)
    _force_workers(monkeypatch, 2)
    reports, _ = run_suite("lex-nu", max_n=2)
    assert [(r.id, r.status) for r in reports] == [
        ("lex-nu-equality", "pass"),
        ("lex-nu-remark", "pass"),
    ]
    assert reports[0].wall_ms >= 500


def test_two_workers_run_no_check_in_the_parent(monkeypatch):
    parent = os.getpid()

    def in_a_worker(check_id, *args):
        if os.getpid() == parent:
            raise AssertionError(f"{check_id} ran in the parent process")
        return run_check(check_id, *args)

    monkeypatch.setattr(harness, "run_check", in_a_worker)
    _force_workers(monkeypatch, 2)
    _, summary = run_suite("lex", max_n=2)
    assert summary["pass"] == summary["total"] > 2


def test_the_pool_receives_the_last_registered_tasks_first(monkeypatch):
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def recording(self, fn, task, *args):
        submitted.append(task)
        return submit(self, fn, task, *args)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", recording)
    _force_workers(monkeypatch, 2)
    reports, _ = run_suite("lex", max_n=2)
    assert submitted == [
        ["lex-strong-kn"],
        ["lex-nu-remark"],
        ["lex-eop-sharpness"],
        ["lex-eop-bounds", "lex-min-box"],
        ["lex-nu-equality"],
    ]
    assert [r.id for r in reports] == [
        "lex-nu-equality",
        "lex-eop-bounds",
        "lex-eop-sharpness",
        "lex-nu-remark",
        "lex-min-box",
        "lex-strong-kn",
    ]


def test_no_worker_outlives_the_suite(monkeypatch):
    _force_workers(monkeypatch, 2)
    reports, _ = run_suite("lex", max_n=2)
    assert len(reports) > 2
    assert multiprocessing.active_children() == []


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


@pytest.mark.parametrize("workers, name_filter", [(1, "lex"), (2, "spider-eq")])
def test_one_worker_or_one_check_runs_without_a_pool(monkeypatch, workers, name_filter):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    _force_workers(monkeypatch, workers)
    _, summary = run_suite(name_filter, max_n=2)
    assert summary["pass"] == summary["total"] > 0


@pytest.mark.parametrize("budget", [0, -1])
def test_a_suite_with_no_budget_runs_without_a_pool(monkeypatch, budget):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    _force_workers(monkeypatch, 2)
    assert _outcomes(budget=budget) == {cid: ("skipped", 0, 0) for cid in ALL_CHECK_IDS}


def test_a_nan_budget_is_refused_before_any_runner_or_pool(monkeypatch):
    # t0 + nan is no deadline at all: every comparison with it is false
    entered = []

    def runner(run):
        entered.append(run)
        yield ["x"], 1, 1

    _patch_runner(monkeypatch, runner)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    _force_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="nan"):
        run_check("lex-nu-equality", budget=float("nan"))
    with pytest.raises(ValueError, match="nan"):
        run_suite(budget=float("nan"))
    assert entered == []
    assert run_check("paths-formulas", budget=float("inf")).status == "pass"


@pytest.mark.parametrize(
    "sides",
    [lambda g: None, lambda g: (tuple(range(127)), tuple(range(127, 256)))],
    ids=["odd-cycle", "unequal-sides"],
)
def test_the_q8_certificate_never_passes_on_a_bad_bipartition(monkeypatch, sides):
    monkeypatch.setattr(harness, "bipartition", sides)
    assert run_check("roeo-q2k").status in ("error", "fail")


def _kill_a_worker(monkeypatch, name_filter, dying) -> list:
    """Pooled reports of the filter when check ``dying`` kills its worker."""
    parent = os.getpid()

    def dies(run):
        if os.getpid() == parent:
            raise AssertionError("ran in the parent process")
        time.sleep(0.3)  # let the other worker finish the rest first
        os._exit(1)
        yield

    _force_workers(monkeypatch, 2)
    before, _ = run_suite(name_filter, max_n=2)
    _patch_runner(monkeypatch, dies, dying)
    reports, summary = run_suite(name_filter, max_n=2)
    assert multiprocessing.active_children() == []
    assert [r.id for r in reports] == [r.id for r in before]
    for old, new in zip(before, reports):
        if new.status == "error":  # the dead worker's check, or one lost with it
            assert new.error.startswith("BrokenProcessPool: ")
            assert (new.instances_run, new.failures) == (0, [])
        else:
            assert report_json(new, with_timing=False) == report_json(old, with_timing=False)
    assert summary["error"] == sum(r.status == "error" for r in reports) >= 1
    assert summary["total"] == len(before)
    return reports


def test_a_dead_worker_errors_its_checks_and_the_suite_returns(monkeypatch):
    reports = _kill_a_worker(monkeypatch, "lex", "lex-nu-equality")
    assert reports[0].id == "lex-nu-equality" and reports[0].status == "error"


@pytest.mark.parametrize("dying", ["lex-min-box", "box-eop-bounds"])
def test_a_dead_worker_errors_every_check_of_its_chain(monkeypatch, dying):
    # "box" selects lex-min-box and box-eop-bounds of one chain: one task, lost
    # whole, whichever member kills its worker
    reports = _kill_a_worker(monkeypatch, "box", dying)
    status = {r.id: r.status for r in reports}
    assert status["lex-min-box"] == status["box-eop-bounds"] == "error"


_PRINT_THEN_SUITE = """
from eopack import harness
print("printed before the suite")
harness._workers = lambda n_checks: min(n_checks, 2)
reports, _ = harness.run_suite("lex-nu", max_n=2)
assert [r.status for r in reports] == ["pass", "pass"]
"""


def test_a_line_printed_before_the_suite_comes_out_once():
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # a buffered stdout, so that a fork before a flush would copy the line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_THEN_SUITE],
        capture_output=True,
        text=True,
        env=dict(env, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "printed before the suite\n"


# ---------------------------------------------------------------------------
# when the pool is not used, whatever the number of CPUs
# ---------------------------------------------------------------------------


def _two_cpus_no_pool(monkeypatch) -> None:
    """Two available CPUs, and a pool that fails the test if made."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


def test_two_cpus_give_two_workers(monkeypatch):
    _two_cpus_no_pool(monkeypatch)
    assert [harness._workers(n) for n in (1, 2, 5)] == [1, 2, 2]


def test_a_second_thread_keeps_the_suite_in_process(monkeypatch):
    _two_cpus_no_pool(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Python 3.12 warns on a fork with threads
            _, summary = run_suite("lex", max_n=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert summary["pass"] == summary["total"] > 2


def test_a_rebound_run_check_runs_in_process(monkeypatch):
    _two_cpus_no_pool(monkeypatch)
    seen = []

    def traced(check_id, *args):
        seen.append((check_id, os.getpid()))
        return run_check(check_id, *args)

    monkeypatch.setattr(harness, "run_check", traced)
    reports, _ = run_suite("lex", max_n=2)
    assert seen == [(r.id, os.getpid()) for r in reports] and len(seen) > 2


def _suite_statuses() -> list:
    return [r.status for r in run_suite("lex", max_n=2)[0]]


def test_a_suite_in_a_daemonic_worker_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # a daemonic process may not start children, so a pool there would raise
    with multiprocessing.get_context("fork").Pool(1) as pool:
        statuses = pool.apply_async(_suite_statuses).get(timeout=120)
    assert statuses == ["pass"] * len(statuses) and len(statuses) > 2
