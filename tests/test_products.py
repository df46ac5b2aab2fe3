import pytest

from eopack.graph import (
    Graph,
    GraphError,
    canonical_form,
    complete,
    cycle,
    enumerate_graphs,
    hypercube,
    path,
    random_graph,
    star,
)
from eopack.products import (
    cartesian,
    corona,
    direct,
    join,
    lex,
    product,
    rooted_product,
    strong,
)


def small_pairs():
    gs = [g for n in (1, 2, 3, 4) for g in enumerate_graphs(n, dedup=True)]
    hs = [g for n in (1, 2, 3) for g in enumerate_graphs(n, dedup=True)]
    return [(g, h) for g in gs for h in hs]


def test_cartesian_k2_k2_is_c4():
    p = cartesian(path(2), path(2))
    assert canonical_form(p.graph) == canonical_form(cycle(4))


def test_direct_p3_p3():
    p = direct(path(3), path(3))
    assert p.graph.n == 9 and p.graph.m == 8


def test_lex_edge_count_example():
    p = lex(path(2), path(3))
    assert p.graph.n == 6 and p.graph.m == 1 * 9 + 2 * 2


def test_edge_count_identities_exhaustive():
    for g, h in small_pairs():
        mc = cartesian(g, h).graph.m
        md = direct(g, h).graph.m
        ms = strong(g, h).graph.m
        ml = lex(g, h).graph.m
        assert mc == g.m * h.n + g.n * h.m
        assert md == 2 * g.m * h.m
        assert ms == mc + md
        assert ml == g.m * h.n ** 2 + g.n * h.m


def test_strong_is_union_of_cartesian_and_direct():
    for g, h in [(path(3), cycle(3)), (star(3), path(4))]:
        ec = set(cartesian(g, h).graph.edges)
        ed = set(direct(g, h).graph.edges)
        es = set(strong(g, h).graph.edges)
        assert es == ec | ed


def test_commutativity_up_to_transpose():
    # (a,b) -> (b,a) is an isomorphism for the three commutative products
    for seed in (1, 2, 3):
        g = random_graph(4, "1/2", seed)
        h = random_graph(3, "2/3", seed + 10)
        for kind in ("cartesian", "direct", "strong"):
            p = product(kind, g, h)
            q = product(kind, h, g)
            mapped = sorted(
                tuple(sorted((q.encode(b, a), q.encode(y, x))))
                for (v, w) in p.graph.edges
                for (a, b) in [p.decode(v)]
                for (x, y) in [p.decode(w)]
            )
            assert mapped == list(q.graph.edges)


def test_lex_not_commutative_witness():
    p = lex(path(2), path(3))
    q = lex(path(3), path(2))
    ds_p = sorted(p.graph.degree(v) for v in range(6))
    ds_q = sorted(q.graph.degree(v) for v in range(6))
    assert ds_p != ds_q


def test_strong_with_complete_equals_lex_with_complete():
    # G box K_n and G lex K_n coincide on the shared vertex encoding
    for n in (3, 4):
        for gsize in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(gsize, dedup=True):
                assert strong(g, complete(n)).graph == lex(g, complete(n)).graph


def test_hypercube_is_iterated_prism():
    for n in (2, 3, 4):
        assert cartesian(hypercube(n - 1), path(2)).graph == hypercube(n)


def test_fibers_induce_factors():
    g, h = cycle(4), path(3)
    p = cartesian(g, h)
    fiber = p.h_fiber(2)
    induced = [
        (a, b)
        for i, a in enumerate(fiber)
        for b in fiber[i + 1:]
        if p.graph.has_edge(a, b)
    ]
    assert len(induced) == h.m


def test_empty_factor_rejected():
    with pytest.raises(GraphError):
        product("cartesian", Graph(0, []), path(2))
    with pytest.raises(GraphError):
        product("octa", path(2), path(2))


def test_rooted_product_path_example():
    p = rooted_product(path(2), path(2), 0)
    assert p.graph.n == 4 and p.graph.m == 3
    assert canonical_form(p.graph) == canonical_form(path(4))


def test_rooted_product_edge_count():
    p = rooted_product(cycle(4), star(2), 0)
    assert p.graph.n == 12 and p.graph.m == 4 + 4 * 2


def test_rooted_fibers_and_root_slice():
    g = random_graph(4, "1/2", seed=5)
    h = star(2)
    for root in range(h.n):
        p = rooted_product(g, h, root)
        for i in range(g.n):
            fiber = p.h_fiber(i)
            induced = {
                (x, y)
                for x in range(h.n)
                for y in range(x + 1, h.n)
                if p.graph.has_edge(fiber[x], fiber[y])
            }
            assert induced == set(h.edges)
        slice_edges = {
            (a, b)
            for a in range(g.n)
            for b in range(a + 1, g.n)
            if p.graph.has_edge(p.encode(a, root), p.encode(b, root))
        }
        assert slice_edges == set(g.edges)
    with pytest.raises(GraphError):
        rooted_product(g, h, h.n)


def test_join_examples():
    assert canonical_form(join(Graph(1, [0]), Graph(3, [0, 0, 0]))) == canonical_form(star(3))
    assert canonical_form(join(Graph(1, [0]), path(2))) == canonical_form(complete(3))
    assert join(cycle(4), cycle(3)).m == 4 + 3 + 12


def test_corona_examples():
    assert canonical_form(corona(Graph(1, [0]), path(2)).graph) == canonical_form(complete(3))
    p = corona(cycle(4), Graph(1, [0]))
    assert p.graph.n == 8 and p.graph.m == 8


def test_corona_edge_count_and_structure():
    # independent oracle: build corona adjacency directly from its definition
    g = random_graph(4, "1/2", seed=3)
    h = random_graph(3, "1/2", seed=4)
    p = corona(g, h)
    assert p.graph.n == g.n * (h.n + 1)
    assert p.graph.m == g.m + g.n * (h.m + h.n)
    expect = set()
    for a, b in g.edges:
        expect.add((p.encode(a, 0), p.encode(b, 0)))
    for a in range(g.n):
        for x, y in h.edges:
            expect.add(tuple(sorted((p.encode(a, 1 + x), p.encode(a, 1 + y)))))
        for x in range(h.n):
            expect.add(tuple(sorted((p.encode(a, 0), p.encode(a, 1 + x)))))
    assert set(p.graph.edges) == expect


def test_fibers_per_product_kind():
    # H-fibers and G-fibers induce the factors for cartesian/strong/lex;
    # direct-product fibers are edgeless
    g, h = cycle(4), path(3)
    for kind in ("cartesian", "strong", "lex", "direct"):
        p = product(kind, g, h)
        hf = p.h_fiber(1)
        h_induced = {
            (x, y)
            for x in range(h.n)
            for y in range(x + 1, h.n)
            if p.graph.has_edge(hf[x], hf[y])
        }
        gf = p.g_fiber(1)
        g_induced = {
            (a, b)
            for a in range(g.n)
            for b in range(a + 1, g.n)
            if p.graph.has_edge(gf[a], gf[b])
        }
        if kind == "direct":
            assert h_induced == set() and g_induced == set()
        else:
            assert h_induced == set(h.edges)
            assert g_induced == set(g.edges)


def test_edge_count_identities_larger_factors():
    # identity check is pure arithmetic, so sample bigger factors too
    for seed in range(4):
        g = random_graph(6, "1/2", seed=100 + seed)
        h = random_graph(5, "1/3", seed=200 + seed)
        assert cartesian(g, h).graph.m == g.m * h.n + g.n * h.m
        assert direct(g, h).graph.m == 2 * g.m * h.m
        assert strong(g, h).graph.m == g.m * h.n + g.n * h.m + 2 * g.m * h.m
        assert lex(g, h).graph.m == g.m * h.n ** 2 + g.n * h.m


# (a, x) ~ (b, y) in each product, read off the definition; vertex (a, x) of a
# product with blocks of size k is a * k + x
_DEFINED = {
    "cartesian": lambda g, h, a, x, b, y: (a == b and h.has_edge(x, y))
    or (g.has_edge(a, b) and x == y),
    "direct": lambda g, h, a, x, b, y: g.has_edge(a, b) and h.has_edge(x, y),
    "strong": lambda g, h, a, x, b, y: (a == b and h.has_edge(x, y))
    or (g.has_edge(a, b) and (x == y or h.has_edge(x, y))),
    "lex": lambda g, h, a, x, b, y: (a == b and h.has_edge(x, y)) or g.has_edge(a, b),
}


def _defined_edges(gn, k, adjacent):
    n = gn * k
    return tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if adjacent(*divmod(u, k), *divmod(v, k))
    )


def test_products_match_their_definitions_on_all_small_factors():
    factors = [g for n in (1, 2, 3, 4) for g in enumerate_graphs(n, dedup=True)]
    assert len(factors) ** 2 == 324
    for g in factors:
        for h in factors:
            for kind, adjacent in _DEFINED.items():
                p = product(kind, g, h)
                assert (p.gn, p.hn) == (g.n, h.n)
                want = _defined_edges(
                    g.n, h.n, lambda a, x, b, y: adjacent(g, h, a, x, b, y)
                )
                assert p.graph.edges == want, (kind, g.edges, h.edges)
            for r in range(h.n):
                # h on every block; g on the root slots only
                want = _defined_edges(
                    g.n,
                    h.n,
                    lambda a, x, b, y: (a == b and h.has_edge(x, y))
                    or (g.has_edge(a, b) and x == y == r),
                )
                assert rooted_product(g, h, r).graph.edges == want, (r, g.edges, h.edges)
            # slot 0 of block a is the host vertex a, slots 1.. a copy of h
            want = _defined_edges(
                g.n,
                h.n + 1,
                lambda a, x, b, y: (a == b and x != y and 0 in (x, y))
                or (a == b and x and y and h.has_edge(x - 1, y - 1))
                or (g.has_edge(a, b) and x == y == 0),
            )
            assert corona(g, h).graph.edges == want, (g.edges, h.edges)
