import itertools
import sys

import pytest

from eopack.graph import (
    Graph,
    complete,
    cycle,
    distances,
    empty_graph,
    enumerate_graphs,
    hypercube,
    path,
    random_graph,
    spider,
    star,
)
from eopack.invariants import (
    CapacityError,
    _eop_conflict,
    _im_conflict,
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


def pairwise_conflicts(g, kind):
    # the literal per-pair definitions, independent of the bitset builder
    test = _im_conflict if kind == "induced_matching" else _eop_conflict
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
            assert cg.items == g.edges
            assert cg.conflicts == pairwise_conflicts(g, kind), (g.edges, kind)


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
    assert alpha(petersen()).witness == (0, 2, 8, 9)
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


def test_has_perfect_code_vertex_cap(monkeypatch):
    monkeypatch.delenv("EOPACK_MAX_VERTICES", raising=False)
    with pytest.raises(CapacityError):
        has_perfect_code(hypercube(7))
    assert has_perfect_code(hypercube(3)) == (0, 7)
