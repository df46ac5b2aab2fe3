import hashlib

import pytest

from eopack.graph import (
    Graph,
    GraphError,
    _pack_bits,
    _smaller_strings,
    _tree_code,
    canonical_form,
    complete,
    enumerate_graphs,
    enumerate_trees,
    is_connected,
    random_graph,
    spider,
)


def test_labeled_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_unlabeled_counts_small():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_graphs(n, dedup=True)) == want


def test_unlabeled_count_n6():
    assert sum(1 for _ in enumerate_graphs(6, dedup=True)) == 156


def test_enumeration_range_checks():
    with pytest.raises(GraphError):
        list(enumerate_graphs(7))
    with pytest.raises(GraphError):
        list(enumerate_graphs(9, dedup=True))
    with pytest.raises(GraphError):
        list(enumerate_graphs(0, dedup=True))


# sha256 of the comma-joined decimal canonical forms, in yield order, as the
# one-vertex extension without canonical deletion produced them
FORM_DIGESTS = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
    4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
    5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
    6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
    7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
}


def test_unlabeled_forms_and_order_are_pinned():
    for n, want in FORM_DIGESTS.items():
        forms = [canonical_form(g) for g in enumerate_graphs(n, dedup=True)]
        assert hashlib.sha256(",".join(map(str, forms)).encode()).hexdigest() == want


def test_each_form_extends_a_form_one_vertex_smaller_by_one_column():
    # orderly generation: the forms are the classes of all one-vertex
    # extensions of the smaller forms; a form less its last column is a
    # form, and the column is at least twice that parent's last column
    parents = list(enumerate_graphs(1, dedup=True))
    for n in range(2, 8):
        new = n - 1
        children = {
            canonical_form(Graph(n, [a | (nbrs >> v & 1) << new for v, a in enumerate(p.adj)]
                                 + [nbrs]))
            for p in parents
            for nbrs in range(1 << new)
        }
        graphs = list(enumerate_graphs(n, dedup=True))
        forms = [canonical_form(g) for g in graphs]
        assert forms == sorted(children)
        parent_forms = {canonical_form(p) for p in parents}
        for form in forms:
            parent, col = form >> new, form & ((1 << new) - 1)
            assert parent in parent_forms
            assert col >= (parent & ((1 << (new - 1)) - 1)) << 1
        parents = graphs


def test_smaller_strings_is_empty_exactly_on_canonical_strings():
    for n in (4, 5):
        nbits = n * (n - 1) // 2
        graphs = list(enumerate_graphs(n))
        assert len(graphs) == 1 << nbits
        for g in graphs:
            packed, form = _pack_bits(g), canonical_form(g)
            assert (next(_smaller_strings(n, g.adj, packed), None) is None) == (packed == form)
            down = list(_smaller_strings(n, g.adj, 1 << nbits))
            assert down and down[-1] == form
            assert all(a > b for a, b in zip(down, down[1:]))


def test_canonical_form_matches_orbit_minimum():
    # dedup reps are orbit minima; every labeled graph must canonize onto one
    for n in (3, 4):
        reps = {canonical_form(g) for g in enumerate_graphs(n, dedup=True)}
        for g in enumerate_graphs(n):
            assert canonical_form(g) in reps
        assert len(reps) == len(list(enumerate_graphs(n, dedup=True)))


def test_canonical_form_is_invariant_under_relabeling():
    g = spider(3)
    perm = [3, 5, 0, 6, 1, 4, 2]
    relabeled = Graph.from_edges(7, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_form(relabeled) == canonical_form(g)


def test_canonical_form_is_the_least_relabeling_of_every_graph_on_five_vertices():
    from itertools import combinations, permutations

    n = 5
    pairs = list(combinations(range(n), 2))
    # weight[u][v]: the packed bit of pair {u, v}, column-major, first pair most significant
    weight = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(sorted(pairs, key=lambda e: (e[1], e[0]))):
        weight[i][j] = weight[j][i] = 1 << (len(pairs) - 1 - k)
    perms = list(permutations(range(n)))
    graphs = list(enumerate_graphs(n))
    assert len(graphs) == 1 << len(pairs) and len(perms) == 120
    for g in graphs:
        assert sum(weight[u][v] for u, v in g.edges) == _pack_bits(g)
        least = min(sum(weight[p[u]][p[v]] for u, v in g.edges) for p in perms)
        assert canonical_form(g) == least, g.edges


def test_canonical_form_is_invariant_under_random_relabelings():
    import random

    rng = random.Random(2024)
    for seed in range(48):
        n = 7 + seed % 4
        g = random_graph(n, ("1/4", "1/2", "3/4")[seed % 3], seed=900 + seed)
        form = canonical_form(g)
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(relabeled) == form, (g.edges, perm)


def test_labeled_tree_counts():
    assert sum(1 for _ in enumerate_trees(2)) == 1
    assert sum(1 for _ in enumerate_trees(4)) == 16
    assert sum(1 for _ in enumerate_trees(5)) == 125


def test_prufer_trees_are_trees():
    for n in (4, 5, 6):
        for t in enumerate_trees(n):
            assert t.n == n and t.m == n - 1 and is_connected(t)


def test_unlabeled_tree_counts():
    expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_trees(n, dedup=True)) == want


def test_tree_dedup_agrees_with_prufer_dedup():
    for n in (4, 5, 6):
        via_prufer = {canonical_form(t) for t in enumerate_trees(n)}
        via_reps = {canonical_form(t) for t in enumerate_trees(n, dedup=True)}
        assert via_prufer == via_reps


def test_random_graph_extremes():
    assert random_graph(6, 0, seed=9).m == 0
    assert random_graph(6, 1, seed=9) == complete(6)


def test_random_graph_deterministic():
    a = random_graph(8, "1/2", seed=1)
    b = random_graph(8, "1/2", seed=1)
    assert a.edges == b.edges
    c = random_graph(8, "1/2", seed=2)
    assert a.edges != c.edges


def test_random_graph_probability_range():
    with pytest.raises(GraphError):
        random_graph(4, 2, seed=0)


def test_canonical_form_matches_brute_force_permutation_minimum():
    from itertools import permutations

    def brute_min(g):
        best = None
        for perm in permutations(range(g.n)):
            relabeled = Graph.from_edges(
                g.n, [(perm[u], perm[v]) for u, v in g.edges]
            )
            packed = _pack_bits(relabeled)
            if best is None or packed < best:
                best = packed
        return best

    for seed in range(12):
        g = random_graph(6, "1/2", seed=500 + seed)
        assert canonical_form(g) == brute_min(g)
    for seed in range(6):
        g = random_graph(5, "1/4", seed=600 + seed)
        assert canonical_form(g) == brute_min(g)


def test_unlabeled_tree_counts_to_14():
    # OEIS A000055
    expected = {10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}
    for n, want in expected.items():
        trees = list(enumerate_trees(n, dedup=True))
        assert len(trees) == want
        codes = [_tree_code(t.adj) for t in trees]
        assert codes == sorted(set(codes))  # distinct classes, in code order
        assert all(t.m == n - 1 and is_connected(t) for t in trees)


def test_tree_enumeration_range_checks():
    with pytest.raises(GraphError):
        list(enumerate_trees(15, dedup=True))
    with pytest.raises(GraphError):
        list(enumerate_trees(10))
    with pytest.raises(GraphError):
        list(enumerate_trees(1, dedup=True))


def test_canonical_form_with_twins_matches_brute_force():
    # twin classes let canonical_form skip branches; check it on graphs full
    # of them against the minimum over every relabeling
    from itertools import permutations

    from eopack.graph import complete_bipartite, empty_graph, star

    def brute_min(g):
        return min(
            _pack_bits(Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges]))
            for p in permutations(range(g.n))
        )

    twin_rich = [
        star(5),
        empty_graph(5),
        complete(6),
        complete_bipartite(2, 4),
        spider(2),
        Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]),
        Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)]),
    ]
    for g in twin_rich:
        assert canonical_form(g) == brute_min(g), g.edges
