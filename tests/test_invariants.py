import dataclasses
import hashlib
import itertools
import random
import sys

import pytest

from eopack.graph import (
    Graph,
    bits,
    complete,
    cycle,
    distances,
    empty_graph,
    enumerate_graphs,
    hypercube,
    parse_graph6,
    path,
    random_graph,
    spider,
    star,
    write_graph6,
)
from eopack import invariants
from eopack.constructions import hamming_perfect_code, hypercube_eop_witness
from eopack.products import PRODUCT_KINDS, product
from eopack.invariants import (
    CapacityError,
    InvariantResult,
    _greedy_set,
    _search,
    alpha,
    beta,
    build_conflict_graph,
    distance_packing,
    enumerate_optimal,
    gamma,
    has_perfect_code,
    max_independent_set,
    nu_i,
    rho_eo,
    rho_o,
    verify_witness,
)


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


# ---------------------------------------------------------------------------
# conflict graphs
# ---------------------------------------------------------------------------

def test_conflict_p4_eop():
    cg = build_conflict_graph(path(4), "eop")
    # edges (0,1)=0, (1,2)=1, (2,3)=2; only 0 and 2 conflict (via edge (1,2))
    assert cg.conflicts == (0b100, 0b000, 0b001)


def test_conflict_p4_induced_matching():
    cg = build_conflict_graph(path(4), "induced_matching")
    assert cg.conflicts == (0b110, 0b101, 0b011)


def test_conflict_star_eop_empty():
    for r in (2, 3, 5):
        cg = build_conflict_graph(star(r), "eop")
        assert all(c == 0 for c in cg.conflicts)


def test_conflict_builder_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown conflict kind 'bogus'$"):
        build_conflict_graph(path(3), "bogus")


def pairwise_conflicts(g, kind):
    # the literal per-pair definitions, independent of the bitset builder
    test = set_form_im_conflict if kind == "induced_matching" else set_form_eop_conflict
    conf = [0] * g.m
    for i, j in itertools.combinations(range(g.m), 2):
        if test(g, g.edges[i], g.edges[j]):
            conf[i] |= 1 << j
            conf[j] |= 1 << i
    return tuple(conf)


def test_conflict_builder_matches_pairwise_definition():
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n, dedup=True)]
    corpus += [
        random_graph(n, p, seed=7000 + n)
        for n in range(2, 25)
        for p in ("1/6", "1/3", "1/2", "5/6")
    ]
    corpus += [hypercube(d) for d in range(1, 8)]
    for g in corpus:
        for kind in ("induced_matching", "eop"):
            cg = build_conflict_graph(g, kind)
            assert cg.base is g
            assert cg.conflicts == pairwise_conflicts(g, kind), (g.edges, kind)


def set_form_im_conflict(g, e1, e2):
    # the induced matching conflict written with sets: a shared end, or an edge between the ends
    return bool(set(e1) & set(e2)) or any(g.has_edge(x, y) for x in e1 for y in e2)


def set_form_eop_conflict(g, e1, e2):
    # the edge open packing conflict written with sets: a third edge {x, y},
    # x an end of e1 and y an end of e2, that is neither e1 nor e2
    s1, s2 = set(e1), set(e2)
    return any(
        x != y and g.has_edge(x, y) and {x, y} != s1 and {x, y} != s2
        for x in e1
        for y in e2
    )


def vertex_conflicts(g, name):
    # the literal per-pair definitions: a shared neighbour, or distance <= k
    d = distances(g)

    def joined(u, v):
        return g.adj[u] & g.adj[v] if name == "rho_o" else d[u][v] <= int(name[-1])

    return [sum(1 << v for v in range(g.n) if v != u and joined(u, v)) for u in range(g.n)]


def test_vertex_packing_rows_match_pairwise_definition(monkeypatch):
    rows = {}

    def capture(count, adj, g, edge_items):
        # the rows ride out as the witness, under the name the front door gives
        return InvariantResult("mis", 0, tuple(adj), 0)

    monkeypatch.setattr(invariants, "_solve", capture)
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n, dedup=True)]
    corpus += [
        random_graph(n, p, seed=8000 + n)
        for n in range(2, 30)
        for p in ("1/12", "1/6", "1/3", "2/3")
    ]
    for d in range(1, 8):
        perm = list(range(1 << d))
        random.Random(d).shuffle(perm)
        corpus.append(Graph.from_edges(1 << d, [(perm[u], perm[v]) for u, v in hypercube(d).edges]))
    for g in corpus:
        # an explicit cap bypasses the value cache, so every call builds rows
        for res in (
            rho_o(g, max_items=g.n),
            distance_packing(g, 2, max_items=g.n),
            distance_packing(g, 3, max_items=g.n),
        ):
            rows[res.name] = list(res.witness)
        assert sorted(rows) == ["rho_2", "rho_3", "rho_o"]
        for name in rows:
            assert rows[name] == vertex_conflicts(g, name), (g.edges, name)
        rows.clear()


# ---------------------------------------------------------------------------
# maximum independent set core
# ---------------------------------------------------------------------------

def brute_alpha(g):
    best = 0
    for size in range(g.n, -1, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return best


def test_alpha_examples():
    assert alpha(cycle(5)).value == 2
    assert alpha(hypercube(4)).value == 8
    assert alpha(petersen()).value == brute_alpha(petersen()) == 4


def test_mis_deterministic_witness():
    a = max_independent_set(petersen())
    b = max_independent_set(petersen())
    assert a.witness == b.witness and a.value == 4
    assert a.nodes == b.nodes > 0
    assert a.proven_optimal


def test_mis_capacity_error():
    big = Graph(70, [0] * 70)
    with pytest.raises(CapacityError, match="witness"):
        max_independent_set(big)
    assert max_independent_set(big, max_items=70).value == 70


@pytest.mark.parametrize(
    "solve, var, message",
    [
        (nu_i, "EOPACK_MAX_ITEMS", "4 items"),
        (rho_eo, "EOPACK_MAX_ITEMS", "4 items"),
        (alpha, "EOPACK_MAX_VERTICES", "5 vertices"),
        (beta, "EOPACK_MAX_VERTICES", "5 vertices"),
        (rho_o, "EOPACK_MAX_VERTICES", "5 vertices"),
        (lambda g: distance_packing(g, 2), "EOPACK_MAX_VERTICES", "5 vertices"),
        (lambda g: distance_packing(g, 3), "EOPACK_MAX_VERTICES", "5 vertices"),
        (gamma, "EOPACK_MAX_VERTICES", "5 vertices"),
    ],
    ids=["nu_i", "rho_eo", "alpha", "beta", "rho_o", "rho_2", "rho_3", "gamma"],
)
def test_a_cached_value_obeys_a_lower_cap(monkeypatch, solve, var, message):
    monkeypatch.delenv(var, raising=False)
    invariants.clear_cache()
    value = solve(path(5)).value
    monkeypatch.setenv(var, "3")
    with pytest.raises(CapacityError, match=f"{message} exceed the exact-solver cap of 3"):
        solve(path(5))
    monkeypatch.setenv(var, "5")
    assert solve(path(5)).value == value


def test_a_miss_reads_the_cap_once(monkeypatch):
    # a miss checks the cap and solves under it from one read; a hit reads again
    reads = []
    env_cap = invariants._env_cap

    def counting(var, default):
        reads.append(var)
        return env_cap(var, default)

    monkeypatch.setattr(invariants, "_env_cap", counting)
    invariants.clear_cache()
    assert nu_i(cycle(6)).value == 2
    assert reads == ["EOPACK_MAX_ITEMS"]
    assert nu_i(cycle(6)).value == 2
    assert reads == ["EOPACK_MAX_ITEMS"] * 2
    assert alpha(cycle(7)).value == 3
    assert reads == ["EOPACK_MAX_ITEMS"] * 2 + ["EOPACK_MAX_VERTICES"]


@pytest.mark.parametrize(
    "solve, instance, count, unit, takes_max_items",
    [
        (max_independent_set, lambda: build_conflict_graph(path(5), "eop"), 4, "items", True),
        (max_independent_set, lambda: path(5), 5, "vertices", True),
        (enumerate_optimal, lambda: build_conflict_graph(path(5), "eop"), 4, "items", True),
        (has_perfect_code, lambda: path(5), 5, "vertices", False),
    ],
    ids=["mis-items", "mis-vertices", "enumerate_optimal", "has_perfect_code"],
)
def test_uncached_entries_solve_up_to_their_cap(
    monkeypatch, solve, instance, count, unit, takes_max_items
):
    c = instance()
    var = f"EOPACK_MAX_{unit.upper()}"
    refused = f"^{count} {unit} exceed the exact-solver cap of {count - 1};"
    monkeypatch.setenv(var, str(count - 1))
    with pytest.raises(CapacityError, match=refused):
        solve(c)
    monkeypatch.setenv(var, str(count))
    want = solve(c)
    if takes_max_items:
        # max_items, not the environment, sets the cap
        with pytest.raises(CapacityError, match=refused):
            solve(c, max_items=count - 1)
        monkeypatch.setenv(var, "0")
        assert solve(c, max_items=count) == want


def _count_front_door(monkeypatch):
    """Patch the front door to log each entry's name, and each solve it makes."""
    entries, solves = [], []
    front_door = invariants._invariant

    def counting(name, g, unit, solve, max_items):
        entries.append(name)
        return front_door(name, g, unit, lambda cap: solves.append(name) or solve(cap), max_items)

    monkeypatch.setattr(invariants, "_invariant", counting)
    return entries, solves


# every entry point the front door serves, by the name it caches under
NAMED = {
    "nu_i": nu_i,
    "rho_eo": rho_eo,
    "alpha": alpha,
    "rho_o": rho_o,
    "rho_2": lambda g, **kw: distance_packing(g, 2, **kw),
    "rho_3": lambda g, **kw: distance_packing(g, 3, **kw),
    "gamma": gamma,
}


@pytest.mark.parametrize("name", list(NAMED) + ["beta"])
def test_every_named_invariant_of_the_empty_graph_is_zero_after_one_node(name):
    invariants.clear_cache()
    r = NAMED.get(name, beta)(Graph(0, []))
    assert (r.value, r.witness, r.nodes) == (0, (), 1)


@pytest.mark.parametrize("solve", list(NAMED.values()), ids=list(NAMED))
def test_max_items_bypasses_the_value_cache(monkeypatch, solve):
    _, solves = _count_front_door(monkeypatch)
    invariants.clear_cache()
    g = cycle(7)
    capped = solve(g, max_items=7)
    assert (invariants._CACHE, len(solves)) == ({}, 1)
    assert solve(g) == capped and len(solves) == 2
    stored = dict(invariants._CACHE)
    # a value already cached is solved again, and the cache is left as it was
    assert solve(g, max_items=7) == capped and len(solves) == 3
    assert invariants._CACHE == stored
    assert solve(g) == capped and len(solves) == 3


@pytest.mark.parametrize("name", list(NAMED) + ["beta"])
@pytest.mark.parametrize("max_items", [None, 7], ids=["cached", "capped"])
def test_each_invariant_enters_the_front_door_once_per_call(monkeypatch, name, max_items):
    entries, _ = _count_front_door(monkeypatch)
    invariants.clear_cache()
    solve = NAMED.get(name, beta)
    for calls in (1, 2):
        res = solve(cycle(7), max_items=max_items)
        # beta is derived from alpha, and enters only through it
        assert entries == ["alpha" if name == "beta" else name] * calls
        assert res.name == name


def test_capped_calls_leave_the_value_cache_empty(monkeypatch):
    # every cached entry point, capped; the root of rho_eo(Q_6) asks for
    # Aut(Q_6), which serves that solve and is kept nowhere
    asked = []
    inner = invariants.automorphism_generators
    monkeypatch.setattr(invariants, "automorphism_generators", lambda g: asked.append(g) or inner(g))
    invariants.clear_cache()
    g = cycle(7)
    for solve in (nu_i, rho_eo, alpha, beta, rho_o, gamma):
        solve(g, max_items=7)
    for k in (2, 3):
        distance_packing(g, k, max_items=7)
    q6 = hypercube(6)
    assert rho_eo(q6, max_items=192).value == 24
    assert asked == [q6]
    assert invariants._CACHE == {}


@pytest.mark.parametrize("solve", list(NAMED.values()), ids=list(NAMED))
def test_a_graph_and_its_graph6_copy_share_one_entry(monkeypatch, solve):
    entries, solves = _count_front_door(monkeypatch)
    invariants.clear_cache()
    g = random_graph(9, "1/2", seed=11)
    copy = parse_graph6(write_graph6(g))
    assert copy is not g
    first = solve(g)
    # the copy is a hit: it enters the front door but solves nothing
    assert solve(copy) is first
    assert (len(entries), len(solves), len(invariants._CACHE)) == (2, 1, 1)
    # a capped call is solved again and leaves the cache as it was
    stored = dict(invariants._CACHE)
    assert solve(copy, max_items=max(g.n, g.m)) == first
    assert len(solves) == 2 and invariants._CACHE == stored


@pytest.mark.parametrize("solve", list(NAMED.values()), ids=list(NAMED))
def test_equal_edge_lists_on_different_orders_get_separate_entries(monkeypatch, solve):
    _, solves = _count_front_door(monkeypatch)
    invariants.clear_cache()
    small, large = Graph.from_edges(3, [(0, 1)]), Graph.from_edges(4, [(0, 1)])
    assert small.edges == large.edges
    solve(small)
    solve(large)
    assert (len(solves), len(invariants._CACHE)) == (2, 2)


# ---------------------------------------------------------------------------
# edge invariants against brute force over all edge subsets
# ---------------------------------------------------------------------------

def brute_edge_invariant(g, kind):
    best = 0
    for mask in range(1 << g.m):
        idxs = [i for i in range(g.m) if (mask >> i) & 1]
        if len(idxs) > best and verify_witness(g, idxs, kind):
            best = len(idxs)
    return best


def test_path_formula_examples():
    assert nu_i(path(7)).value == 2
    assert rho_eo(path(7)).value == 4
    assert nu_i(path(5)).value == 2
    assert rho_eo(path(5)).value == 2


def test_spider_equality():
    for k in range(2, 6):
        s = spider(k)
        assert nu_i(s).value == k
        assert rho_eo(s).value == k


def test_edge_invariants_match_brute_force_small():
    for n in range(1, 5):
        for g in enumerate_graphs(n, dedup=True):
            assert nu_i(g).value == brute_edge_invariant(g, "induced_matching")
            assert rho_eo(g).value == brute_edge_invariant(g, "eop")


def test_chain_and_witnesses_on_corpus():
    for n in range(1, 5):
        for g in enumerate_graphs(n, dedup=True):
            ni, re_, al = nu_i(g), rho_eo(g), alpha(g)
            assert ni.value <= re_.value <= al.value
            assert len(ni.witness) == ni.value
            assert len(re_.witness) == re_.value
            assert verify_witness(g, ni.witness, "induced_matching")
            assert verify_witness(g, re_.witness, "eop")


# ---------------------------------------------------------------------------
# vertex invariants against brute force over all vertex subsets
# ---------------------------------------------------------------------------

def brute_vertex(g, ok):
    best = 0
    for mask in range(1 << g.n):
        sub = [v for v in range(g.n) if (mask >> v) & 1]
        if len(sub) > best and ok(g, sub):
            best = len(sub)
    return best


def ok_open_packing(g, sub):
    return all(
        not (g.adj[u] & g.adj[v]) for u, v in itertools.combinations(sub, 2)
    )


def test_alpha_beta_examples():
    assert alpha(path(4)).value == 2 and beta(path(4)).value == 2
    assert alpha(complete(5)).value == 1 and beta(complete(5)).value == 4
    assert alpha(cycle(4)).value == 2
    b = beta(path(4))
    assert len(b.witness) == 2
    assert all(
        u in b.witness or v in b.witness for u, v in path(4).edges
    )


def test_rho_o_examples():
    assert rho_o(hypercube(4)).value == 4
    assert rho_o(path(4)).value == brute_vertex(path(4), ok_open_packing) == 2
    for n in (3, 4, 5):
        assert rho_o(complete(n)).value == 1


def test_distance_packing_examples():
    q3 = hypercube(3)
    assert distance_packing(q3, 2).value == 2
    assert distance_packing(q3, 3).value == 1
    assert distance_packing(hypercube(5), 3).value == 2
    with pytest.raises(ValueError):
        distance_packing(q3, 4)


def test_distance_packing_q7_with_cap_override():
    # 128 vertices exceed the default cap; the override solves it exactly
    with pytest.raises(CapacityError):
        distance_packing(hypercube(7), 2)
    assert distance_packing(hypercube(7), 2, max_items=128).value == 16


def test_mis_on_conflict_graph_directly():
    res = max_independent_set(build_conflict_graph(path(4), "eop"))
    assert res.value == 2 and res.proven_optimal


def test_distance_packing_brute():
    d = distances(cycle(9))

    def ok2(g, sub):
        return all(d[u][v] > 2 for u, v in itertools.combinations(sub, 2))

    assert distance_packing(cycle(9), 2).value == brute_vertex(cycle(9), ok2) == 3


def test_gamma_examples():
    assert gamma(hypercube(3)).value == 2
    assert gamma(cycle(4)).value == 2
    assert gamma(path(4)).value == 2
    assert has_perfect_code(cycle(4)) is None
    code = has_perfect_code(hypercube(3))
    assert code == (0, 7)
    assert verify_witness(hypercube(3), code, "perfect_code")


def test_gamma_brute():
    def ok_dom(g, sub):
        covered = 0
        for v in sub:
            covered |= g.adj[v] | (1 << v)
        return covered == (1 << g.n) - 1

    # gamma is a minimum: brute force smallest dominating set
    for g in (path(6), cycle(7), petersen()):
        best = g.n
        for mask in range(1 << g.n):
            sub = [v for v in range(g.n) if (mask >> v) & 1]
            if len(sub) < best and ok_dom(g, sub):
                best = len(sub)
        assert gamma(g).value == best


# ---------------------------------------------------------------------------
# witness verification
# ---------------------------------------------------------------------------

def test_verify_witness_examples():
    p4 = path(4)
    e01 = p4.edge_index[(0, 1)]
    e12 = p4.edge_index[(1, 2)]
    assert verify_witness(p4, [e01, e12], "eop")
    assert not verify_witness(p4, [e01, e12], "induced_matching")
    assert verify_witness(hypercube(3), [0, 7], "perfect_code")
    assert verify_witness(path(4), [1, 2], "dominating")
    assert not verify_witness(path(4), [0, 1], "dominating")
    assert verify_witness(path(4), [0, 3], "k_packing", k=2)
    assert not verify_witness(path(4), [0, 3], "k_packing", k=3)


def test_verify_witness_errors():
    with pytest.raises(ValueError):
        verify_witness(path(4), [99], "eop")
    with pytest.raises(ValueError):
        verify_witness(path(4), [99], "open_packing")
    with pytest.raises(ValueError):
        verify_witness(path(4), [0], "no_such_kind")


def test_rho_o_witness_is_a_maximum_open_packing():
    # every unlabeled graph up to 6 vertices, against all vertex subsets
    for n in range(1, 7):
        for g in enumerate_graphs(n, dedup=True):
            best = 0
            for r in range(n + 1):
                for s in itertools.combinations(range(n), r):
                    ok = all(not g.adj[a] & g.adj[b] for a, b in itertools.combinations(s, 2))
                    assert verify_witness(g, s, "open_packing") == ok
                    best = max(best, r) if ok else best
            res = rho_o(g)
            assert verify_witness(g, res.witness, "open_packing")
            assert res.value == len(res.witness) == best


@pytest.mark.parametrize(
    "g, w, kind, k",
    [
        (path(4), [0], "induced_matching", None),
        (path(4), [0, 1], "eop", None),
        (path(4), [0, 3], "open_packing", None),
        (path(4), [0, 3], "k_packing", 2),
        (path(4), [1, 2], "dominating", None),
        (hypercube(3), [0, 7], "perfect_code", None),
    ],
)
def test_verify_witness_rejects_a_repeated_index(g, w, kind, k):
    assert verify_witness(g, w, kind, k)
    assert not verify_witness(g, w + [w[0]], kind, k)


def test_verify_witness_rejects_overlapping_perfect_code_balls():
    code = hamming_perfect_code(2)
    assert verify_witness(hypercube(3), code, "perfect_code")
    # the ball of 1 meets the ball of codeword 0
    assert not verify_witness(hypercube(3), code + (1,), "perfect_code")


def test_verify_witness_matches_the_literal_forms_on_small_graphs():
    # every unlabeled graph on at most 6 vertices.  Edge kinds: every edge
    # subset (at most 4 edges at n = 6) against the set-form pairwise
    # conflicts.  Vertex kinds: every vertex subset against distances and
    # neighbourhoods written as sets
    cases = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, dedup=True):
            for kind in ("induced_matching", "eop"):
                conf = pairwise_conflicts(g, kind)
                for r in range(min(g.m, 4 if n == 6 else g.m) + 1):
                    for s in itertools.combinations(range(g.m), r):
                        mask = sum(1 << i for i in s)
                        ok = not any(conf[i] & mask for i in s)
                        assert verify_witness(g, s, kind) == ok, (g.edges, s, kind)
                        cases += 1
            d = distances(g)
            opened = [set(g.neighbors(v)) for v in range(n)]
            closed = [opened[v] | {v} for v in range(n)]
            for r in range(n + 1):
                for s in itertools.combinations(range(n), r):
                    pairs = list(itertools.combinations(s, 2))
                    for k in (1, 2, 3):
                        ok = all(d[a][b] > k for a, b in pairs)
                        assert verify_witness(g, s, "k_packing", k) == ok, (g.edges, s, k)
                    covers = set().union(*(closed[v] for v in s)) == set(range(n))
                    apart = all(not closed[a] & closed[b] for a, b in pairs)
                    assert verify_witness(g, s, "dominating") == covers, (g.edges, s)
                    assert verify_witness(g, s, "perfect_code") == (covers and apart), (g.edges, s)
                    ok = all(not opened[a] & opened[b] for a, b in pairs)
                    assert verify_witness(g, s, "open_packing") == ok, (g.edges, s)
                    cases += 6
    # 74,788 edge cases and 67,740 vertex cases
    assert cases == 142_528


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda: hypercube_eop_witness(3), "eop"),
        (lambda: (hypercube(7), nu_i(hypercube(7), max_items=448).witness), "induced_matching"),
    ],
    ids=["eop-Q8", "induced-matching-Q7"],
)
def test_verify_witness_rejects_every_edge_added_to_a_maximum_witness(make, kind):
    # no oracle: the witness is maximum, so no one-edge addition is a witness
    g, w = make()
    assert len(w) == {"eop": 128, "induced_matching": 32}[kind]
    assert verify_witness(g, w, kind)
    assert not any(verify_witness(g, w + (e,), kind) for e in range(g.m) if e not in w)


def test_verify_witness_calls_nothing_on_the_solver_path(monkeypatch):
    # one accepted and one rejected witness of each kind
    cases = [
        (path(5), (0, 3), "induced_matching", None),
        (path(5), (0, 2), "induced_matching", None),
        (path(4), (0, 1), "eop", None),
        (path(4), (0, 2), "eop", None),
        (path(4), (0, 3), "open_packing", None),
        (path(4), (0, 2), "open_packing", None),
        (path(4), (0, 3), "k_packing", 2),
        (path(4), (0, 3), "k_packing", 3),
        (path(4), (1, 2), "dominating", None),
        (path(4), (0, 1), "dominating", None),
        (hypercube(3), (0, 7), "perfect_code", None),
        (hypercube(3), (0, 1, 7), "perfect_code", None),
    ]
    verdicts = [verify_witness(*case) for case in cases]
    assert verdicts == [True, False] * 6

    def refuse(*args, **kwargs):
        raise AssertionError("the solver path was called")

    for name in ("_reach", "build_conflict_graph", "_search"):
        monkeypatch.setattr(invariants, name, refuse)
    with pytest.raises(AssertionError, match="solver path"):
        nu_i(path(5), max_items=10)
    assert [verify_witness(*case) for case in cases] == verdicts


# ---------------------------------------------------------------------------
# enumeration of all optimal sets
# ---------------------------------------------------------------------------

def test_enumerate_optimal_p5_unique():
    sets = enumerate_optimal(build_conflict_graph(path(5), "induced_matching"))
    assert sets == [(0, 3)]  # the two pendant edges


def test_enumerate_optimal_p3():
    sets = enumerate_optimal(build_conflict_graph(path(3), "induced_matching"))
    assert sorted(sets) == [(0,), (1,)]


def test_enumerate_optimal_spider2_eop():
    # spider(2) numbering: edges (0,1)=0, (0,3)=1, (1,2)=2, (3,4)=3
    sets = enumerate_optimal(build_conflict_graph(spider(2), "eop"))
    assert sorted(sets) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_golden_witnesses_frozen():
    # fixed branching rules make these stable across runs and platforms
    assert rho_eo(path(7)).witness == (0, 1, 4, 5)
    assert nu_i(path(5)).witness == (0, 3)
    # (0, 2, 8, 9) under max-degree branching, (2, 4, 5, 6) as the first
    # optimum under branch-set branching, and (0, 2, 8, 9) again as the
    # min-degree greedy set, which the search starts from and cannot beat
    assert alpha(petersen()).witness == (0, 2, 8, 9)
    assert verify_witness(petersen(), (0, 2, 8, 9), "k_packing", 1)
    assert gamma(hypercube(3)).witness == (0, 7)


def test_edge_invariants_brute_force_up_to_twelve_edges():
    cases = [
        complete(5),                                  # 10 edges
        complete(5).without_edges([(0, 1)]),          # 9 edges
        cycle(6),
        hypercube(3),                                 # 12 edges
        Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
    ]
    for g in cases:
        assert g.m <= 12
        assert nu_i(g).value == brute_edge_invariant(g, "induced_matching")
        assert rho_eo(g).value == brute_edge_invariant(g, "eop")


def test_chain_on_five_vertex_corpus():
    for g in enumerate_graphs(5, dedup=True):
        assert nu_i(g).value <= rho_eo(g).value <= alpha(g).value


def test_spider_eop_optima_structure():
    # for k >= 3 the only maximum EOP sets are all-internal and all-pendant;
    # k = 2 additionally admits the two mixed adjacent pairs
    for k in (3, 4):
        s = spider(k)
        internal = tuple(
            s.edge_index[e] for e in s.edges if 0 in e
        )
        pendant = tuple(
            s.edge_index[e] for e in s.edges if 0 not in e
        )
        optima = sorted(enumerate_optimal(build_conflict_graph(s, "eop")))
        assert optima == sorted([tuple(sorted(internal)), tuple(sorted(pendant))])


def test_verify_witness_k_packing_requires_k():
    with pytest.raises(ValueError):
        verify_witness(path(4), [0, 3], "k_packing")


def test_enumerate_optimal_edgeless_base():
    sets = enumerate_optimal(build_conflict_graph(Graph(3, [0, 0, 0]), "eop"))
    assert sets == [()]


def test_alpha_deep_search_leaves_recursion_limit():
    limit = sys.getrecursionlimit()
    assert alpha(empty_graph(1100), max_items=1100).value == 1100
    assert sys.getrecursionlimit() == limit


def test_domination_searches_leave_recursion_limit(monkeypatch):
    # both searches run thousands of levels deep on long paths
    monkeypatch.setenv("EOPACK_MAX_VERTICES", "5000")
    invariants.clear_cache()
    limit = sys.getrecursionlimit()
    assert len(has_perfect_code(path(3000))) == 1000
    assert gamma(path(1500), max_items=5000).value == 500
    assert sys.getrecursionlimit() == limit
    invariants.clear_cache()


def test_has_perfect_code_vertex_cap(monkeypatch):
    monkeypatch.delenv("EOPACK_MAX_VERTICES", raising=False)
    with pytest.raises(CapacityError):
        has_perfect_code(hypercube(7))
    assert has_perfect_code(hypercube(3)) == (0, 7)


# ---------------------------------------------------------------------------
# the greedy incumbent and the early-exit bound
# ---------------------------------------------------------------------------

def test_search_incumbent_edge_cases():
    # no items: the empty set is the one optimum, whatever the mode
    assert _search(0, []) == (0, [()], 1)
    assert _search(0, [], all_optima=True) == (0, [()], 1)
    # edgeless: the greedy set is already everything
    assert _greedy_set(6, [0] * 6).bit_count() == 6
    res = alpha(empty_graph(6))
    assert (res.value, res.witness) == (6, tuple(range(6)))
    assert enumerate_optimal(build_conflict_graph(star(4), "eop")) == [(0, 1, 2, 3)]


@pytest.mark.parametrize(
    "g6, greedy_below_optimum",
    [("DkC", False), ("EBzg", True)],  # spider(2), and a 6-vertex graph
)
def test_enumerate_optimal_with_greedy_incumbent(g6, greedy_below_optimum):
    nx = pytest.importorskip("networkx")
    cg = build_conflict_graph(parse_graph6(g6), "eop")
    ours = enumerate_optimal(cg)
    greedy = tuple(bits(_greedy_set(cg.item_count, cg.conflicts)))
    assert (len(greedy) < len(ours[0])) == greedy_below_optimum

    conflict = nx.Graph()
    conflict.add_nodes_from(range(cg.item_count))
    conflict.add_edges_from(
        (i, j) for i in range(cg.item_count) for j in range(i) if cg.conflicts[i] >> j & 1
    )
    cliques = list(nx.find_cliques(nx.complement(conflict)))
    top = max(len(c) for c in cliques)
    assert sorted(ours) == sorted(tuple(sorted(c)) for c in cliques if len(c) == top)
    # the single witness is the greedy set when that is a maximum, and else
    # the first larger set the search finds (here the first optimum in
    # depth-first order)
    assert max_independent_set(cg).witness == (ours[0] if greedy_below_optimum else greedy)


def test_search_node_ceilings_on_natural_cubes():
    # node counts are exact; before the greedy incumbent rho_eo(Q_5) and
    # rho_2(Q_7) took 1,889 and 33,439 nodes, under max-degree branching
    # 1,851 and 674, and with only the greedy set's size as incumbent
    # 1,011 and 154 (rho_eo(Q_6) 358).  These are the seed-0 instances of
    # the benchmark's hypercube-frontier workload, 1,540 nodes in all
    counts = [
        rho_eo(hypercube(5), max_items=1000).nodes,
        nu_i(hypercube(6), max_items=1000).nodes,
        distance_packing(hypercube(7), 2, max_items=1000).nodes,
        distance_packing(hypercube(8), 3, max_items=1000).nodes,
        rho_eo(hypercube(6), max_items=1000).nodes,
    ]
    assert counts == [1_002, 10, 145, 18, 365]


def test_product_solves_are_pinned_by_digest():
    # (value, witness, nodes) of nu_i and rho_eo on the four products of
    # every ordered pair of unlabeled graphs on 1 to 4 vertices: 2,592
    # solves, some of them past SYMMETRY_MIN_ITEMS (the strong square of
    # K_4 is K_16, 120 items).  Finding the root's group only when the root
    # branches left this digest unchanged
    factors = [g for n in range(1, 5) for g in enumerate_graphs(n, dedup=True)]
    digest = hashlib.sha256()
    for kind in PRODUCT_KINDS:
        for g in factors:
            for h in factors:
                p = product(kind, g, h).graph
                for solve in (nu_i, rho_eo):
                    r = solve(p, max_items=300)
                    digest.update(repr((r.value, r.witness, r.nodes)).encode() + b"\n")
    assert digest.hexdigest() == "265b690c972aefcd0922310a0f47f9a0c2e0c3458659929697b9ea61eab9930e"


def test_a_double_star_lex_k2_plus_k1_attains_the_lower_lex_eop_bound_strictly():
    # rho_eo(G) alpha(H) <= rho_eo(G lex H) <= that + rho_eo(H) (alpha(G) - rho_eo(G)):
    # an instance where the bounds differ and the lower one is attained
    g = Graph.from_edges(6, [(0, 5), (1, 5), (2, 4), (3, 4), (4, 5)])
    h = Graph.from_edges(3, [(0, 1)])
    lower = rho_eo(g).value * alpha(h).value
    upper = lower + rho_eo(h).value * (alpha(g).value - rho_eo(g).value)
    p = product("lex", g, h).graph
    r = rho_eo(p)
    assert (lower, upper, r.value, r.nodes) == (6, 7, 6, 10)
    assert len(r.witness) == 6 and verify_witness(p, r.witness, "eop")


def test_invariant_result_is_slotted_and_frozen():
    r = nu_i(path(5))
    assert not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 3
    s = dataclasses.replace(r, value=3)
    assert (s.name, s.value, s.witness, s.nodes, s.proven_optimal) == ("nu_i", 3, r.witness, r.nodes, True)
    assert r.value == 2
