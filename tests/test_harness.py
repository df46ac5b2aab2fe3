import dataclasses
import json
from types import SimpleNamespace

import pytest

from eopack import harness
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


def _patch_runner(monkeypatch, runner):
    patched = dataclasses.replace(REGISTRY["lex-nu-equality"], runner=runner)
    monkeypatch.setitem(REGISTRY, "lex-nu-equality", patched)


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
