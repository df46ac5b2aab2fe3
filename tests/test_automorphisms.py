"""Automorphism generators and the symmetric search root built on them."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from eopack import graph
from eopack.graph import (
    Graph,
    _automorphisms,
    _individualize,
    _refine,
    automorphism_generators,
    bits,
    complete,
    complete_bipartite,
    cycle,
    distances,
    empty_graph,
    enumerate_graphs,
    hypercube,
    is_aut,
    orbit_masks,
    parse_graph6,
    path,
    random_graph,
)
from eopack import invariants
from eopack.invariants import (
    SYMMETRY_MIN_ITEMS,
    _greedy_set,
    _item_orbits,
    _search,
    build_conflict_graph,
    clear_cache,
    enumerate_optimal,
    nu_i,
    rho_eo,
    verify_witness,
)
from eopack.products import product


def relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def edge_map(g, p):
    return [g.edge_index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in g.edges]


def orbit_sets(g, perms):
    vertex = orbit_masks(g.n, perms)
    edge = orbit_masks(g.m, [edge_map(g, p) for p in perms])
    return vertex, edge


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# the automorphism routine
# ---------------------------------------------------------------------------

def test_orbit_masks():
    assert orbit_masks(4, []) == [1, 2, 4, 8]
    assert orbit_masks(5, [(1, 0, 2, 4, 3)]) == [0b11, 0b100, 0b11000]
    assert orbit_masks(3, [(1, 2, 0)]) == [0b111]


@pytest.mark.parametrize(
    "g",
    [
        petersen(),
        relabel(hypercube(5), 3),
        relabel(product("direct", complete(3), complete(4)).graph, 5),
        relabel(product("lex", complete_bipartite(2, 2), complete(2)).graph, 6),
        random_graph(12, 0.5, 11),
        empty_graph(5),
        complete(6),
    ],
)
def test_every_generator_is_an_automorphism(g):
    gens = automorphism_generators(g)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert p != tuple(range(g.n))
        assert is_aut(g, p)


def test_is_aut_rejects_a_non_automorphism():
    assert is_aut(cycle(5), (1, 2, 3, 4, 0))
    assert not is_aut(Graph.from_edges(3, [(0, 1)]), (0, 2, 1))


def test_is_aut_rejects_maps_that_are_not_permutations():
    # [0, 1, 0] maps both edges of the path onto the edge 01, yet no vertex
    # maps to 2; a map of another length is no permutation of the vertices
    assert is_aut(path(3), [2, 1, 0])
    assert not is_aut(path(3), [0, 1, 0])
    assert not is_aut(complete(3), (1, 1, 2))
    assert not is_aut(path(3), [0, 1])
    assert not is_aut(path(3), [2, 1, 0, 3])


def digest_corpus():
    """Adjacency rows of every graph whose generators the digest below pins."""
    for n in range(1, 8):
        for i, g in enumerate(enumerate_graphs(n, dedup=True)):
            yield relabel(g, i).adj
    for n in range(1, 41):
        for seed in range(10):
            yield random_graph(n, Fraction(1 + seed % 3, 4), seed).adj
    for d in range(2, 8):
        yield relabel(hypercube(d), d).adj
    for d in range(3, 7):
        for kind in ("eop", "induced_matching"):
            yield build_conflict_graph(hypercube(d), kind).conflicts


def test_generators_are_pinned_by_digest():
    # 2,319 maps over 1,666 graphs: a faster refinement must return the
    # same partitions, so the same generators in the same order
    digest = hashlib.sha256()
    for rows in digest_corpus():
        digest.update(repr(_automorphisms(rows)).encode() + b"\n")
    assert digest.hexdigest() == "a814204f56fb1cd00cb1ed62b7b403f026f239a680ae0c57d62e013a83bed55f"


def test_generators_under_work_limits_are_pinned_by_digest(monkeypatch):
    # every seventh digest graph under ten work limits: a leaf search that
    # skips a descent must charge the individualizations it skips, so that
    # it runs out of work exactly where the full descent would
    digest = hashlib.sha256()
    corpus = list(digest_corpus())[::7]
    for steps in (1, 2, 3, 5, 8, 13, 21, 40, 80, 200):
        for rows in corpus:
            monkeypatch.setattr(graph, "_AUT_WORK_LIMIT", len(rows) * steps)
            digest.update(repr(_automorphisms(rows)).encode())
    assert digest.hexdigest() == "b31441ab07cef7ece9bbf609a9a26dd5f6c60d449e3608206f633c448d31438c"


def induced_rows(adj, domain):
    """Rows of the subgraph induced on ``domain``, relabelled to 0..k-1 in vertex order."""
    items = list(bits(domain))
    pos = {v: i for i, v in enumerate(items)}
    return [sum(1 << pos[u] for u in bits(adj[v] & domain)) for v in items], items


def test_a_domain_gives_the_maps_of_the_relabelled_induced_subgraph():
    # on each digest graph, three masks: a random one, all vertices but a
    # few random ones, and all but the closed neighbourhood of a random
    # vertex (a search child's candidates).  The maps found in place are
    # those of G[domain] relabelled to 0..k-1, carried back, in order
    rng = random.Random(22)
    symmetric = 0
    for rows in digest_corpus():
        n = len(rows)
        full = (1 << n) - 1
        drop = sum(1 << v for v in rng.sample(range(n), min(n, 3)))
        v = rng.randrange(n)
        for domain in (rng.getrandbits(n), full & ~drop, full & ~(rows[v] | 1 << v)):
            sub, items = induced_rows(rows, domain)
            want = []
            for q in _automorphisms(sub):
                p = list(range(n))
                for i, j in enumerate(q):
                    p[items[i]] = items[j]
                want.append(tuple(p))
            assert _automorphisms(rows, domain) == want
            symmetric += bool(want)
    assert symmetric > 3800  # of 4,998 domains


def assert_equitable(adj, cells, ns):
    # the cells tile 0..n-1 by position, ns lists the non-singleton starts,
    # and the vertices of each cell agree on their neighbour count in each cell
    n = len(adj)
    starts = [s for s, x in enumerate(cells) if x]
    assert [0] + [s + cells[s].bit_count() for s in starts] == starts + [n]
    assert sum(cells[s] for s in starts) == (1 << n) - 1
    assert ns == [s for s in starts if cells[s] & (cells[s] - 1)]
    for s in ns:
        for t in starts:
            assert len({(adj[v] & cells[t]).bit_count() for v in bits(cells[s])}) == 1


def refinement_corpus():
    for n in range(1, 7):
        for i, g in enumerate(enumerate_graphs(n, dedup=True)):
            yield relabel(g, i).adj
    for n in (8, 16, 40):
        for seed in range(6):
            yield random_graph(n, Fraction(1 + seed % 3, 4), seed).adj
    for d in range(2, 6):
        yield relabel(hypercube(d), d).adj
    yield petersen().adj
    yield FRUCHT.adj
    for kind in ("eop", "induced_matching"):
        yield build_conflict_graph(relabel(hypercube(4), 4), kind).conflicts


@pytest.mark.parametrize("pick", [min, max])
def test_refinement_is_equitable_after_each_individualization(pick):
    # down one path of the search tree, individualizing the least or the
    # greatest vertex of the first non-singleton cell
    for adj in refinement_corpus():
        n = len(adj)
        cells = [(1 << n) - 1] + [0] * (n - 1)
        ns = [0] if n > 1 else []
        _refine(adj, cells, ns, [0])
        assert_equitable(adj, cells, ns)
        while ns:
            nxt = _individualize(adj, cells, ns, pick(bits(cells[ns[0]])))
            assert nxt == (ns[0] if ns else -1)
            assert_equitable(adj, cells, ns)


def graphs_up_to_six_vertices():
    # every labelled graph up to 5 vertices; on 6, one relabelled graph per class
    for n in range(1, 6):
        yield from enumerate_graphs(n)
    for i, g in enumerate(enumerate_graphs(6, dedup=True)):
        yield relabel(g, i)


def test_orbits_match_brute_force_up_to_six_vertices():
    checked = 0
    for g in graphs_up_to_six_vertices():
        full = [p for p in itertools.permutations(range(g.n)) if is_aut(g, p)]
        assert orbit_sets(g, automorphism_generators(g)) == orbit_sets(g, full)
        checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024 + 156


def random_cubic(n, seed):
    # configuration model, redrawn until the pairing is a simple graph
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph.from_edges(n, edges)


FRUCHT = Graph.from_edges(12, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 7), (1, 7),
    (2, 8), (3, 8), (4, 9), (5, 10), (6, 10), (7, 11), (8, 9), (9, 11), (10, 11),
])


def test_orbits_match_networkx_on_cubic_graphs():
    # regular graphs leave refinement little to work with, so leaves whose
    # cell sizes match the first path's are often not automorphisms
    nx = pytest.importorskip("networkx")
    assert automorphism_generators(FRUCHT) == []
    for seed in range(12):
        for n in (10, 12, 16):
            g = random_cubic(n, seed)
            ours = automorphism_generators(g)
            assert all(is_aut(g, p) for p in ours)
            h = nx.Graph(g.edges)
            full = [
                tuple(m[v] for v in range(n))
                for m in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()
            ]
            assert orbit_sets(g, ours) == orbit_sets(g, full)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_relabelled_hypercubes_have_one_vertex_and_one_edge_orbit(d):
    g = relabel(hypercube(d), d)
    vertex, edge = orbit_sets(g, automorphism_generators(g))
    assert vertex == [(1 << g.n) - 1]
    assert edge == [(1 << g.m) - 1]


def test_work_limit_keeps_large_twin_classes_cheap():
    # 1,100 mutual twins form one twin cell, so no search runs at all
    assert orbit_masks(1100, automorphism_generators(empty_graph(1100))) == [(1 << 1100) - 1]
    for p in automorphism_generators(complete(100)):
        assert is_aut(complete(100), p)


@pytest.mark.parametrize(
    "g, cells",
    [
        (complete(300), [(1 << 300) - 1]),
        (empty_graph(1100), [(1 << 1100) - 1]),
        (complete_bipartite(3, 5), [0b111, 0b11111000]),
        # a path's ends are twins; its middle is a singleton cell
        (Graph.from_edges(3, [(0, 1), (1, 2)]), [0b101, 0b010]),
    ],
)
def test_twin_cells_give_the_full_group(g, cells):
    gens = automorphism_generators(g)
    assert all(is_aut(g, p) for p in gens)
    assert sorted(orbit_masks(g.n, gens)) == sorted(cells)


def test_twin_cells_need_every_cell_twin():
    # C_5 beside K_{1,3}: the leaves form a twin cell, but the cycle's cell
    # is no twin cell, so the search runs and still finds both orbits
    g = Graph.from_edges(9, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (5, 7), (5, 8)])
    gens = automorphism_generators(g)
    assert all(is_aut(g, p) for p in gens)
    assert sorted(orbit_masks(9, gens)) == sorted([0b11111, 1 << 5, 0b111 << 6])


@pytest.mark.parametrize(
    "adj, root_branches",
    [
        (relabel(hypercube(5), 3).adj, False),
        (build_conflict_graph(relabel(hypercube(5), 3), "eop").conflicts, True),
        (
            build_conflict_graph(
                relabel(product("cartesian", path(3), cycle(4)).graph, 7), "eop"
            ).conflicts,
            True,
        ),
    ],
    ids=["Q5", "eop-conflicts-Q5", "eop-conflicts-P3xC4"],
)
def test_work_limit_only_shrinks_the_subgroup(monkeypatch, adj, root_branches):
    # from no work up to the whole search: the first path runs out (no
    # generators), then the search stops midway (a partial subgroup); every
    # partial answer is a subgroup of the full one that the search may use.
    # Only the root may ask for a group, and it asks if it branches over two
    # or more items: the roots of both conflict graphs do, and their searches
    # read every partial group; the Q5 root is pruned at once
    n = len(adj)
    g = Graph(n, adj)
    full = orbit_masks(n, _automorphisms(adj))
    want = _search(n, adj)[0]
    monkeypatch.setattr(invariants, "SYMMETRY_MIN_ITEMS", n)
    assert (root_branch_set(n, adj).bit_count() >= 2) == root_branches
    exits = set()
    for steps in range(40):
        monkeypatch.setattr(graph, "_AUT_WORK_LIMIT", n * steps)
        gens = _automorphisms(adj)
        assert all(is_aut(g, p) for p in gens)
        orbits = orbit_masks(n, gens)
        assert all(any(o & f == o for f in full) for o in orbits)
        asked = []
        root_orbits = lambda: asked.append(steps) or [o for o in orbits if o & (o - 1)]
        assert _search(n, adj, root_orbits=root_orbits)[0] == want
        assert asked == [steps] * root_branches
        exits.add("first path" if not gens else "midway" if len(orbits) > len(full) else "done")
    assert exits == {"first path", "midway", "done"}


# ---------------------------------------------------------------------------
# the symmetric root against the plain search
# ---------------------------------------------------------------------------

def instance(g, name):
    """(item count, conflict rows, edge items?, witness kind, k) of one invariant."""
    if name in ("nu_i", "rho_eo"):
        kind = "induced_matching" if name == "nu_i" else "eop"
        c = build_conflict_graph(g, kind)
        return c.item_count, c.conflicts, True, kind, None
    k = int(name[-1])
    dist = distances(g)
    rows = [sum(1 << v for v in range(g.n) if v != u and dist[u][v] <= k) for u in range(g.n)]
    return g.n, rows, False, "k_packing", k


def root_branch_set(count, adj):
    """The root's branch set B in ``_search``: what its cover by greedy-size cliques leaves."""
    left = (1 << count) - 1
    for _ in range(_greedy_set(count, adj).bit_count()):
        if not left:
            break
        low = left & -left
        left ^= low
        cand = adj[low.bit_length() - 1] & left
        while cand:
            lu = cand & -cand
            left ^= lu
            cand = (cand ^ lu) & adj[lu.bit_length() - 1]
    return left


def check_symmetric_root(monkeypatch, g, name, want=None):
    """Check one symmetric solve against the plain search.

    An instance of fewer than ``SYMMETRY_MIN_ITEMS`` items lowers the
    threshold to its size, so that its root, and no node below it, may ask
    for a group.  The root asks exactly when its branch set holds two or
    more items.
    """
    count, adj, edge_items, kind, k = instance(g, name)
    orbits = _item_orbits(g, edge_items)
    assert orbits, "expected a non-trivial item orbit"
    monkeypatch.setattr(
        invariants, "SYMMETRY_MIN_ITEMS", min(invariants.SYMMETRY_MIN_ITEMS, count)
    )
    asked = []
    size, (witness,), _ = _search(count, adj, root_orbits=lambda: asked.append(1) or orbits)
    assert len(asked) == (root_branch_set(count, adj).bit_count() >= 2)
    if want is None:
        want = _search(count, adj)[0]
    assert size == len(witness) == want
    assert verify_witness(g, witness, kind, k)


NAMES = ["nu_i", "rho_eo", "rho_2", "rho_3"]
CUBE_DIMENSIONS = [3, 4, 5, 6]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("d", CUBE_DIMENSIONS)
def test_symmetric_root_matches_plain_search_on_relabelled_cubes(monkeypatch, d, name):
    # the plain rho_eo(Q_6) search takes ~500,000 nodes; its value 24 is
    # compared instead
    want = 24 if (d, name) == (6, "rho_eo") else None
    check_symmetric_root(monkeypatch, relabel(hypercube(d), 10 * d), name, want)


VERTEX_TRANSITIVE_PRODUCTS = [
    ("cartesian", cycle(3), complete(2)),
    ("cartesian", cycle(5), complete(2)),
    ("cartesian", cycle(8), complete(2)),
    ("direct", complete(3), complete(4)),
    ("direct", complete(4), complete(4)),
    ("direct", complete(3), complete(5)),
    ("lex", complete_bipartite(2, 2), complete(2)),
    ("lex", complete_bipartite(2, 2), empty_graph(2)),
    ("lex", complete_bipartite(3, 3), complete(2)),
    ("lex", cycle(5), complete_bipartite(2, 2)),
]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kind, g, h", VERTEX_TRANSITIVE_PRODUCTS)
def test_symmetric_root_matches_plain_search_on_products(monkeypatch, kind, g, h, name):
    check_symmetric_root(monkeypatch, relabel(product(kind, g, h).graph, 1), name)


def test_symmetric_root_tests_reach_root_groups():
    # of the 56 instances of the two tests above, many roots are pruned at
    # once (the greedy set is a maximum and the cover proves it); a change
    # that prunes more roots must not quietly drop the ones that ask
    graphs = [relabel(hypercube(d), 10 * d) for d in CUBE_DIMENSIONS]
    graphs += [relabel(product(kind, g, h).graph, 1) for kind, g, h in VERTEX_TRANSITIVE_PRODUCTS]
    asking = [
        root_branch_set(*instance(g, name)[:2]).bit_count() >= 2 for g in graphs for name in NAMES
    ]
    assert len(asking) == 56
    assert sum(asking) >= 24


def test_symmetric_root_node_ceiling_on_q6():
    # the plain search needed 499,863 nodes on natural labels, the symmetric
    # root alone 37,583, orbital branching at every large node 2,033, with
    # branch sets 358, and with the greedy set as the first witness 365
    assert rho_eo(hypercube(6), max_items=1000).nodes <= 412


def test_induced_matching_node_ceiling_on_q7():
    # 448 items; the symmetric root alone needed 80,351 nodes, orbital
    # branching at every large node 2,816, with branch sets 177, and with
    # the greedy set as the first witness 154
    res = nu_i(hypercube(7), max_items=1000)
    assert res.value == 32
    assert res.nodes <= 204


def counting_node_automorphisms(monkeypatch):
    """Sizes of the subproblems whose automorphisms the search asks for."""
    sizes = []

    def counting(adj, domain):
        sizes.append(domain.bit_count())
        return _automorphisms(adj, domain)

    monkeypatch.setattr(invariants, "_automorphisms", counting)
    return sizes


def test_automorphisms_are_found_once_per_asking_root(monkeypatch):
    # the value cache holds invariant values only, so each root that asks
    # finds Aut(Q_6) itself, once, however many subproblems below it ask for
    # their own groups
    calls = []

    def counting(g):
        calls.append(g)
        return automorphism_generators(g)

    monkeypatch.setattr(invariants, "automorphism_generators", counting)
    node_sizes = counting_node_automorphisms(monkeypatch)
    clear_cache()
    q6 = hypercube(6)
    assert nu_i(q6).value == 16
    assert rho_eo(q6).value == 24
    assert calls == [q6, q6]
    assert node_sizes and min(node_sizes) >= SYMMETRY_MIN_ITEMS


def test_a_root_pruned_at_once_finds_no_group(monkeypatch):
    # K_16 has 120 edges, one induced-matching clique: the greedy set (one
    # edge) is a maximum, the root's one-clique cover prunes it, and Aut(K_16)
    # is never asked for
    calls = []
    monkeypatch.setattr(invariants, "_item_orbits", lambda *args: calls.append(args))
    res = nu_i(complete(16), max_items=120)
    assert (res.value, res.nodes) == (1, 1)
    assert calls == []


# ---------------------------------------------------------------------------
# orbital branching below the root against the plain search
# ---------------------------------------------------------------------------

@pytest.fixture
def low_threshold(monkeypatch):
    # every node with two or more candidates asks for its own group
    monkeypatch.setattr(invariants, "SYMMETRY_MIN_ITEMS", 2)
    return counting_node_automorphisms(monkeypatch)


@pytest.mark.parametrize("name", ["nu_i", "rho_eo", "rho_2", "rho_3"])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_node_orbits_match_plain_search_on_relabelled_cubes(monkeypatch, low_threshold, d, name):
    want = 24 if (d, name) == (6, "rho_eo") else None
    check_symmetric_root(monkeypatch, relabel(hypercube(d), 10 * d), name, want)


@pytest.mark.parametrize("name", ["nu_i", "rho_eo", "rho_2", "rho_3"])
@pytest.mark.parametrize("kind, g, h", VERTEX_TRANSITIVE_PRODUCTS)
def test_node_orbits_match_plain_search_on_products(monkeypatch, low_threshold, kind, g, h, name):
    check_symmetric_root(monkeypatch, relabel(product(kind, g, h).graph, 1), name)


@pytest.mark.parametrize("d, name", [(5, "rho_eo"), (5, "rho_2"), (6, "nu_i"), (6, "rho_3")])
def test_node_orbits_are_orbits_of_the_induced_subgraph(monkeypatch, d, name):
    # each node's orbits against a Graph built from the edges inside rem
    monkeypatch.setattr(invariants, "SYMMETRY_MIN_ITEMS", 2)
    seen = []

    def checked(adj, rem):
        out = candidate_orbits(adj, rem)
        items = [i for i in range(len(adj)) if rem >> i & 1]
        sub = Graph.from_edges(len(items), [
            (a, b) for a, b in itertools.combinations(range(len(items)), 2)
            if adj[items[a]] >> items[b] & 1
        ])
        want = [
            sum(1 << items[i] for i in range(len(items)) if o >> i & 1)
            for o in orbit_masks(sub.n, automorphism_generators(sub))
            if o & (o - 1)
        ]
        assert out == want
        seen.append(rem)
        return out

    candidate_orbits = invariants._candidate_orbits
    monkeypatch.setattr(invariants, "_candidate_orbits", checked)
    check_symmetric_root(monkeypatch, relabel(hypercube(d), 10 * d), name)
    assert seen


def mirrored(seed):
    """Two copies of a random graph G, and a random H joined alike to both.

    Swapping the copies fixes H pointwise, so the group has fixed points.
    """
    rng = random.Random(seed)
    k, h = rng.randint(5, 7), rng.randint(3, 5)
    g = random_graph(k, Fraction(1, 2), seed)
    edges = g.edges + tuple((u + k, v + k) for u, v in g.edges)
    edges += tuple((u + 2 * k, v + 2 * k) for u, v in random_graph(h, Fraction(1, 2), seed + 1).edges)
    for x in range(2 * k, 2 * k + h):
        for v in range(k):
            if rng.random() < 0.3:
                edges += ((v, x), (v + k, x))
    return Graph.from_edges(2 * k + h, edges)


@pytest.mark.parametrize("name", ["nu_i", "rho_eo", "rho_2"])
def test_node_orbits_with_fixed_points_match_plain_search(monkeypatch, low_threshold, name):
    # nodes whose group fixes some of their branch set branch on those
    # items one at a time, beside the orbits of the others
    fixed = []

    def recording(adj, rem):
        out = candidate_orbits(adj, rem)
        fixed.append(bool(out) and sum(out) != rem)
        return out

    candidate_orbits = invariants._candidate_orbits
    monkeypatch.setattr(invariants, "_candidate_orbits", recording)
    for seed in range(120):
        check_symmetric_root(monkeypatch, mirrored(seed), name)
    assert any(fixed)


def test_orbit_frames_keep_the_items_outside_every_orbit(monkeypatch):
    # the adjacent twins 5 and 6 swap, and the root is given that one orbit;
    # the min-degree greedy set is {2, 4}, and both maximum sets, {0, 1, 2}
    # and {0, 1, 3}, lie outside the orbit
    g = parse_graph6("F@rvg")
    monkeypatch.setattr(invariants, "SYMMETRY_MIN_ITEMS", g.n)
    asked = []
    size, (witness,), _ = _search(g.n, g.adj, root_orbits=lambda: asked.append(1) or [0b1100000])
    assert asked == [1]
    assert (size, witness) == (3, (0, 1, 2))


@pytest.mark.parametrize("solve", [nu_i, rho_eo])
def test_asymmetric_instances_search_plainly(monkeypatch, solve):
    g = random_graph(24, 0.4, 0)
    assert automorphism_generators(g) == []
    kind = "induced_matching" if solve is nu_i else "eop"
    c = build_conflict_graph(g, kind)
    assert c.item_count >= SYMMETRY_MIN_ITEMS
    node_sizes = counting_node_automorphisms(monkeypatch)
    clear_cache()
    res = solve(g)
    size, (witness,), nodes = _search(c.item_count, c.conflicts)
    assert (res.value, res.witness, res.nodes) == (size, witness, nodes)
    assert node_sizes == []


@pytest.mark.parametrize("name", ["nu_i", "rho_eo"])
def test_all_optima_use_no_symmetry(low_threshold, name):
    nx = pytest.importorskip("networkx")
    g = relabel(hypercube(4), 4)
    count, adj, edge_items, kind, _ = instance(g, name)
    orbits = _item_orbits(g, edge_items)
    assert orbits
    c = build_conflict_graph(g, kind)
    ours = enumerate_optimal(c)
    asked = []
    root_orbits = lambda: asked.append(1) or orbits
    assert _search(count, adj, all_optima=True, root_orbits=root_orbits)[1] == ours
    assert asked == low_threshold == []

    conflict = nx.Graph()
    conflict.add_nodes_from(range(count))
    conflict.add_edges_from((i, j) for i in range(count) for j in range(i) if adj[i] >> j & 1)
    cliques = list(nx.find_cliques(nx.complement(conflict)))
    top = max(len(q) for q in cliques)
    assert sorted(ours) == sorted(tuple(sorted(q)) for q in cliques if len(q) == top)
