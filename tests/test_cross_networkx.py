"""Cross-checks against networkx, used purely as an independent oracle.

Skipped when networkx is not installed; the package itself never imports it.
"""

import hashlib
import itertools
import math

import pytest

nx = pytest.importorskip("networkx")

from eopack.graph import (
    Graph,
    _graph_from_bits,
    bipartition,
    bits,
    canonical_form,
    distances,
    enumerate_graphs,
    enumerate_trees,
    hypercube,
    parse_graph6,
    random_graph,
    write_graph6,
)
from eopack.invariants import (
    _greedy_set,
    _search,
    alpha,
    build_conflict_graph,
    distance_packing,
    enumerate_optimal,
    max_independent_set,
    rho_o,
)


def to_nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def from_nx(h) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return Graph.from_edges(
        h.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in h.edges()]
    )


def corpus():
    for n in range(1, 6):
        yield from enumerate_graphs(n, dedup=True)
    for i in range(50):
        yield random_graph(4 + i % 9, "1/2", seed=3000 + i)


def graph6_corpus():
    # orders past 62 take the 4-byte length field
    yield from corpus()
    for n in (63, 100, 300):
        yield random_graph(n, "1/3", seed=n)
    yield hypercube(9)


def test_graph6_encoding_matches_networkx():
    for g in graph6_corpus():
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_graph6_decoding_matches_networkx():
    for g in graph6_corpus():
        s = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert parse_graph6(s) == g


def test_distances_match_networkx():
    for i in range(10):
        g = random_graph(9, "1/4", seed=4000 + i)
        ours = distances(g)
        theirs = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.n):
            for v in range(g.n):
                want = theirs.get(u, {}).get(v, math.inf)
                assert ours[u][v] == want


def test_bipartiteness_matches_networkx():
    for g in corpus():
        assert (bipartition(g) is not None) == nx.is_bipartite(to_nx(g))


def test_unlabeled_tree_enumeration_matches_networkx():
    for n in range(2, 10):
        ours = {canonical_form(t) for t in enumerate_trees(n, dedup=True)}
        theirs = {canonical_form(from_nx(t)) for t in nx.nonisomorphic_trees(n)}
        assert ours == theirs


def test_unlabeled_graph_counts_match_networkx_atlas():
    # the graph atlas holds all unlabeled graphs on up to 7 vertices
    from networkx.generators.atlas import graph_atlas_g

    by_order = {}
    for h in graph_atlas_g()[1:]:
        by_order.setdefault(h.number_of_nodes(), 0)
        by_order[h.number_of_nodes()] += 1
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_graphs(n, dedup=True)) == by_order[n]


def test_unlabeled_tree_enumeration_matches_networkx_n10():
    ours = {canonical_form(t) for t in enumerate_trees(10, dedup=True)}
    theirs = {canonical_form(from_nx(t)) for t in nx.nonisomorphic_trees(10)}
    assert len(ours) == 106 and ours == theirs


def test_unlabeled_graphs_n6_n7_match_networkx_atlas():
    from networkx.generators.atlas import graph_atlas_g

    atlas = {6: set(), 7: set()}
    for h in graph_atlas_g()[1:]:
        if h.number_of_nodes() in atlas:
            atlas[h.number_of_nodes()].add(canonical_form(from_nx(h)))
    for n, theirs in atlas.items():
        ours = list(enumerate_graphs(n, dedup=True))
        forms = [canonical_form(g) for g in ours]
        assert len(forms) == len(theirs) == {6: 156, 7: 1044}[n]
        assert set(forms) == theirs
        # each yielded graph is its own canonical form, in ascending order
        assert forms == sorted(forms)
        assert ours == [_graph_from_bits(n, f) for f in forms]


def test_induced_matching_conflicts_match_square_of_line_graph():
    for g in corpus():
        cg = build_conflict_graph(g, "induced_matching")
        square = nx.power(nx.line_graph(to_nx(g)), 2)
        for i, e in enumerate(g.edges):
            want = 0
            for f in square[e]:
                want |= 1 << g.edge_index[tuple(sorted(f))]
            assert cg.conflicts[i] == want, (g.edges, e)


def maximum_sets(count, rows):
    """Every maximum independent set of the conflict rows, sorted: the largest cliques of the complement."""
    conflict = nx.Graph()
    conflict.add_nodes_from(range(count))
    conflict.add_edges_from((i, j) for i in range(count) for j in bits(rows[i]) if i < j)
    cliques = list(nx.find_cliques(nx.complement(conflict))) or [[]]
    top = max(len(c) for c in cliques)
    return sorted(tuple(sorted(c)) for c in cliques if len(c) == top)


def test_enumerate_optimal_matches_maximum_cliques_of_complement():
    for g in corpus():
        for kind in ("induced_matching", "eop"):
            cg = build_conflict_graph(g, kind)
            ours = enumerate_optimal(cg)
            assert len(set(ours)) == len(ours)
            assert sorted(ours) == maximum_sets(cg.item_count, cg.conflicts), (g.edges, kind)


def shares_a_neighbour(h):
    out = nx.Graph()
    out.add_nodes_from(h)
    for w in h:
        out.add_edges_from(itertools.combinations(h[w], 2))
    return out


def test_vertex_packings_match_max_weight_clique():
    # alpha, rho_o, rho_2 and rho_3 are independence numbers of G, of the
    # shares-a-neighbour graph and of the powers G^2 and G^3
    for i in range(40):
        g = random_graph(6 + i % 15, ["1/4", "1/2"][i % 2], seed=5000 + i)
        h = to_nx(g)
        cases = [
            (alpha(g), h),
            (rho_o(g), shares_a_neighbour(h)),
            (distance_packing(g, 2), nx.power(h, 2)),
            (distance_packing(g, 3), nx.power(h, 3)),
        ]
        for res, conflict in cases:
            _, size = nx.max_weight_clique(nx.complement(conflict), weight=None)
            assert res.value == size == len(res.witness), (g.edges, res.name)
            pairs = itertools.combinations(res.witness, 2)
            assert not any(conflict.has_edge(u, v) for u, v in pairs), (g.edges, res.name)


def differential_instances():
    """(graph, kind, instance, item count, conflict rows) of eop, induced_matching and alpha.

    The graphs are seeded random graphs on at most 10 vertices, at three densities.
    """
    for i in range(60):
        g = random_graph(2 + i % 9, ("1/4", "1/2", "3/4")[i % 3], seed=6000 + i)
        for kind in ("eop", "induced_matching"):
            cg = build_conflict_graph(g, kind)
            yield g, kind, cg, cg.item_count, cg.conflicts
        yield g, "alpha", g, g.n, g.adj


def test_witness_is_the_greedy_set_unless_a_larger_set_exists():
    # the search starts from the min-degree greedy set and looks only for a
    # larger one, so the single witness is that set exactly when it is a
    # maximum, and otherwise a maximum set found by the search
    outcomes = set()
    for g, kind, c, count, rows in differential_instances():
        theirs = maximum_sets(count, rows)
        witness = max_independent_set(c).witness
        greedy = tuple(bits(_greedy_set(count, rows)))
        assert witness in theirs, (g.edges, kind)
        optimal = len(greedy) == len(witness)
        assert (witness == greedy) == optimal, (g.edges, kind)
        outcomes.add(optimal)
    assert outcomes == {False, True}


# the digest of every list, taken before the search started from the greedy
# set as its witness: listing all optima keeps only the greedy set's size
ALL_OPTIMA_SHA256 = "41bcc3c801b42922cf93212941c0287421920f421039edae662b7f038867145e"


def test_all_optima_are_the_maximum_sets_in_a_pinned_order():
    digest = hashlib.sha256()
    for g, kind, c, count, rows in differential_instances():
        ours = _search(count, rows, all_optima=True)[1] if kind == "alpha" else enumerate_optimal(c)
        assert sorted(ours) == maximum_sets(count, rows), (g.edges, kind)
        digest.update(repr(ours).encode())
    assert digest.hexdigest() == ALL_OPTIMA_SHA256
