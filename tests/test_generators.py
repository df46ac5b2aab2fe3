import copy
import math
import pickle

import pytest

from eopack.graph import (
    Graph,
    GraphError,
    bipartition,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    distances,
    figure1,
    figure1_xy_edges,
    hypercube,
    path,
    random_graph,
    spider,
    star,
    subdivided_star,
)
from eopack.invariants import nu_i


def test_path_cycle_complete_sizes():
    assert path(1).m == 0
    assert path(7).m == 6
    assert cycle(5).m == 5
    assert complete(5).m == 10
    assert complete_bipartite(2, 3).m == 6


def test_star_is_k1r():
    g = star(4)
    assert g.n == 5 and g.m == 4
    assert g.degree(0) == 4


def test_spider_shape():
    g = spider(3)
    assert g.n == 7 and g.m == 6
    assert g.degree(0) == 3
    assert sorted(g.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]


def test_subdivided_star_path_cases():
    # S(l) is a path on l+1 vertices; S(2,2) is P_5
    assert canonical_form(subdivided_star([4])) == canonical_form(path(5))
    assert canonical_form(subdivided_star([2, 2])) == canonical_form(path(5))


def test_hypercube_small():
    q3 = hypercube(3)
    assert q3.n == 8 and q3.m == 12
    assert all(q3.degree(v) == 3 for v in range(8))
    assert bipartition(q3) is not None


@pytest.mark.parametrize("n", range(1, 11))
def test_hypercube_structure(n):
    q = hypercube(n)
    assert q.n == 2 ** n
    assert q.m == n * 2 ** (n - 1)
    assert all(q.degree(v) == n for v in range(q.n))
    sides = bipartition(q)
    assert sides is not None
    assert set(sides[0]) == {v for v in range(q.n) if v.bit_count() % 2 == 0}


FIGURE1_R1_EDGES = [
    (0, 1), (1, 2),
    (0, 3), (0, 4), (3, 5), (4, 5),
    (1, 6), (1, 7), (6, 8), (7, 8),
    (2, 9), (2, 10), (9, 11), (10, 11),
]

FIGURE1_R2_EDGES = [
    (0, 1), (1, 2), (3, 4),
    (0, 5), (0, 6), (5, 7), (6, 7),
    (1, 8), (1, 9), (8, 10), (9, 10),
    (2, 11), (2, 12), (11, 13), (12, 13),
    (3, 14), (3, 15), (14, 16), (15, 16),
    (4, 17), (4, 18), (17, 19), (18, 19),
]


def test_figure1_frozen_fixture():
    assert figure1(1) == Graph.from_edges(12, FIGURE1_R1_EDGES)
    assert figure1(2) == Graph.from_edges(20, FIGURE1_R2_EDGES)


def test_figure1_xy_edges_are_present():
    for r in (1, 2):
        g = figure1(r)
        xys = figure1_xy_edges(r)
        assert len(xys) == 2 * r + 1
        assert all(g.has_edge(u, v) for u, v in xys)
        h = g.without_edges(xys)
        assert h.m == g.m - (2 * r + 1)


def test_distances():
    d = distances(path(4))
    assert d[0][3] == 3
    q3 = hypercube(3)
    assert distances(q3)[0][7] == 3
    d2 = distances(Graph(2, [0, 0]))
    assert d2[0][1] == math.inf


def test_bipartition_cases():
    sides = bipartition(cycle(4))
    assert sides is not None and sorted(map(len, sides)) == [2, 2]
    assert bipartition(cycle(5)) is None
    q4 = bipartition(hypercube(4))
    assert q4 is not None and len(q4[0]) == len(q4[1]) == 8


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [1, 0])  # asymmetric / loop bits


_BAD_INPUTS = [
    (lambda: Graph(-1, []), "vertex count must be nonnegative"),
    (lambda: Graph(2, [0]), "adjacency list length does not match vertex count"),
    (lambda: Graph(2, [0b100, 0b000]), "neighbor out of range at vertex 0"),
    (lambda: Graph(2, [0b10, 0b00]), "asymmetric adjacency between 0 and 1"),
    (lambda: path(3).without_edges([(2, 0)]), "edge (0,2) not present"),
    (lambda: path(0), "path needs n >= 1"),
    (lambda: cycle(2), "cycle needs n >= 3"),
    (lambda: complete(0), "complete graph needs n >= 1"),
    (lambda: complete_bipartite(2, 0), "complete bipartite needs positive sides"),
    (lambda: subdivided_star([]), "subdivided star needs positive path lengths"),
    (lambda: subdivided_star([2, 0]), "subdivided star needs positive path lengths"),
    (lambda: star(0), "star needs r >= 1"),
    (lambda: spider(0), "spider needs k >= 1"),
    (lambda: hypercube(0), "hypercube needs n >= 1"),
    (lambda: figure1(0), "figure1 needs r >= 1"),
    (lambda: random_graph(5, 1.5, 0), "edge probability must lie in [0, 1]"),
    (lambda: random_graph(5, float("nan"), 0), "edge probability must lie in [0, 1]"),
    (lambda: random_graph(5, float("inf"), 0), "edge probability must lie in [0, 1]"),
]


@pytest.mark.parametrize(
    "build, message", _BAD_INPUTS, ids=[f"{i}-{m}" for i, (_, m) in enumerate(_BAD_INPUTS)]
)
def test_bad_input_raises_its_message(build, message):
    with pytest.raises(GraphError) as exc:
        build()
    assert str(exc.value) == message


def test_graph_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_edge_index_is_built_on_first_access_and_kept():
    g = cycle(5)
    assert not hasattr(g, "_edge_index")
    index = g.edge_index
    assert index == {e: i for i, e in enumerate(g.edges)}
    assert g.edge_index is index and g._edge_index is index


def test_edge_index_cannot_be_assigned():
    g = path(4)
    for _ in range(2):  # before and after the index is built
        for name in ("edge_index", "_edge_index"):
            with pytest.raises(AttributeError):
                setattr(g, name, {})
        g.edge_index
    assert g.edge_index == {(0, 1): 0, (1, 2): 1, (2, 3): 2}


def test_graphs_on_at_most_64_vertices_share_each_pair():
    a, b = path(4), Graph.from_edges(5, [(2, 1), (4, 0)])
    assert a.edges[1] == (1, 2) and a.edges[1] is b.edges[1]
    q6 = hypercube(6)  # 64 vertices, the table's bound
    assert q6.edges[0] == (0, 1) and q6.edges[0] is a.edges[0]
    assert q6.edges[-1] is Graph.from_edges(64, [(62, 63)]).edges[0]


def test_a_graph_past_the_shared_pairs_builds_and_solves():
    q7 = hypercube(7)
    assert q7.n == 128 and q7.m == 448
    assert q7.edges[0] == (0, 1) and q7.edges[0] is not path(2).edges[0]
    assert q7.edge_index[(63, 127)] == q7.edges.index((63, 127))
    assert nu_i(q7, max_items=448).value == 32


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_rebuild_the_graph(roundtrip):
    for g in (Graph(0, []), figure1(1), hypercube(7)):
        g.edge_index
        c = roundtrip(g)
        assert not hasattr(c, "_edge_index")  # the index slot is never shipped
        assert c == g and c.adj == g.adj and c.edges == g.edges
        assert c.edge_index == g.edge_index


def test_edge_count_matches_popcount():
    for g in (path(6), cycle(6), complete(5), hypercube(3), figure1(1)):
        assert 2 * g.m == sum(g.adj[v].bit_count() for v in range(g.n))
