import pytest

from eopack.graph import (
    Graph,
    GraphError,
    SplitMix64,
    complete,
    cycle,
    enumerate_graphs,
    hypercube,
    path,
    star,
)
from eopack.constructions import (
    bipartite_eop_witness,
    box_eop_witness,
    direct_eop_witness,
    direct_im_witness,
    hamming_perfect_code,
    hypercube_eop_witness,
    lex_eop_witness,
    lex_im_witness,
    prism_3packing_witness,
    rooted_im_witness,
)
from eopack.invariants import (
    alpha,
    beta,
    distance_packing,
    nu_i,
    rho_eo,
    rho_o,
    verify_witness,
)
from eopack.products import cartesian


def test_lex_im_examples():
    p, w = lex_im_witness(path(3), path(3))
    assert len(w) == alpha(path(3)).value * nu_i(path(3)).value == 2
    assert verify_witness(p.graph, w, "induced_matching")
    p, w = lex_im_witness(Graph(1, [0]), cycle(5))
    assert len(w) == nu_i(cycle(5)).value
    p, w = lex_im_witness(path(2), path(4))
    assert len(w) == 1
    assert nu_i(p.graph).value == 1


def test_lex_eop_star_based():
    p, w = lex_eop_witness(star(3), path(3), "star_based")
    assert len(w) == rho_eo(star(3)).value * alpha(path(3)).value == 6
    assert verify_witness(p.graph, w, "eop")
    assert rho_eo(p.graph).value == 6


def test_lex_eop_fiber_based():
    p, w = lex_eop_witness(path(3), star(3), "fiber_based")
    assert len(w) == alpha(path(3)).value * rho_eo(star(3)).value == 6
    assert verify_witness(p.graph, w, "eop")
    p, w = lex_eop_witness(path(3), complete(3), "fiber_based")
    assert len(w) == 2
    assert rho_eo(p.graph).value == 2


def test_lex_eop_unknown_variant():
    with pytest.raises(GraphError):
        lex_eop_witness(path(2), path(2), "sideways")


def test_box_eop_witness_refuses_other_product_kinds():
    with pytest.raises(GraphError, match="^unsupported product kind 'lex'$"):
        box_eop_witness(path(2), path(2), "lex")


def test_direct_im_examples():
    p, w = direct_im_witness(path(4), path(4))
    assert len(w) == 2
    assert verify_witness(p.graph, w, "induced_matching")
    assert nu_i(p.graph).value >= 2
    p, w = direct_im_witness(path(3), complete(3))
    assert len(w) == 2
    assert nu_i(p.graph).value == 2
    p, w = direct_im_witness(path(3), Graph(2, [0, 0]))
    assert w == ()


def test_direct_eop_examples():
    p, w = direct_eop_witness(cycle(4), cycle(4))
    assert len(w) == 8
    assert verify_witness(p.graph, w, "eop")
    assert rho_eo(p.graph).value == 8
    p, w = direct_eop_witness(complete(4), complete(3))
    assert len(w) == 3 == rho_eo(p.graph).value
    p, w = direct_eop_witness(complete(3), complete(3))
    assert len(w) == 2 == rho_eo(p.graph).value


def test_direct_eop_formula_size():
    g, h = cycle(4), path(4)
    p, w = direct_eop_witness(g, h)
    size_gh = rho_eo(g).value * sum(h.degree(v) for v in rho_o(h).witness)
    size_hg = rho_eo(h).value * sum(g.degree(v) for v in rho_o(g).witness)
    assert len(w) == max(size_gh, size_hg)
    assert verify_witness(p.graph, w, "eop")


def test_box_eop_examples():
    p, w = box_eop_witness(star(2), star(3), "cartesian")
    assert len(w) == 6
    assert verify_witness(p.graph, w, "eop")
    assert rho_eo(p.graph).value == 6
    p, w = box_eop_witness(path(4), complete(3), "strong")
    assert len(w) == alpha(path(4)).value == 2
    assert rho_eo(p.graph).value == 2
    p, w = box_eop_witness(Graph(1, [0]), path(5), "cartesian")
    assert len(w) == rho_eo(path(5)).value


def test_bipartite_eop_examples():
    q4 = hypercube(4)
    w = bipartite_eop_witness(q4)
    assert len(w) == 4 * distance_packing(q4, 3).value == 8
    assert verify_witness(q4, w, "eop")
    assert rho_eo(q4).value == 8
    c8 = cycle(8)
    w = bipartite_eop_witness(c8)
    assert len(w) == 4 == rho_eo(c8).value
    with pytest.raises(GraphError):
        bipartite_eop_witness(cycle(5))


def test_prism_3packing_examples():
    p, w = prism_3packing_witness(hypercube(3))
    assert len(w) == 2
    assert p.graph == hypercube(4)
    assert verify_witness(p.graph, w, "k_packing", k=3)
    assert distance_packing(p.graph, 3).value == 2
    p, w = prism_3packing_witness(path(4))
    assert len(w) == distance_packing(path(4), 2).value == 2
    assert verify_witness(p.graph, w, "k_packing", k=3)
    with pytest.raises(GraphError):
        prism_3packing_witness(cycle(3))


def test_hamming_code_small():
    assert hamming_perfect_code(2) == (0, 7)
    code = hamming_perfect_code(3)
    assert len(code) == 16
    assert verify_witness(hypercube(7), code, "perfect_code")


def test_hamming_code_k4_mask_arithmetic():
    # independent check without building the 32768-vertex graph: minimum
    # distance >= 3 and exact ball-partition count
    code = hamming_perfect_code(4)
    assert len(code) == 2 ** (15 - 4)
    assert len(code) * 16 == 2 ** 15
    sample = code[:40]
    assert all(
        (a ^ b).bit_count() >= 3 for i, a in enumerate(sample) for b in sample[i + 1:]
    )


def test_hamming_code_range():
    with pytest.raises(GraphError):
        hamming_perfect_code(5)


def test_hypercube_eop_witness():
    g, w = hypercube_eop_witness(1)
    assert g == hypercube(2) and len(w) == 2
    assert rho_eo(g).value == 2
    g, w = hypercube_eop_witness(2)
    assert g == hypercube(4) and len(w) == 8
    assert verify_witness(g, w, "eop")
    g, w = hypercube_eop_witness(3)
    assert g == hypercube(8) and len(w) == 128
    assert verify_witness(g, w, "eop")
    with pytest.raises(GraphError):
        hypercube_eop_witness(4)


def test_rooted_im_examples():
    p, w = rooted_im_witness(path(3), path(2), 0)
    assert len(w) >= 3 * 1 - beta(path(3)).value == 2
    assert verify_witness(p.graph, w, "induced_matching")
    assert nu_i(p.graph).value >= len(w)
    p, w = rooted_im_witness(cycle(4), star(2), 1)
    assert len(w) >= 4 * 1 - beta(cycle(4)).value == 2
    assert verify_witness(p.graph, w, "induced_matching")
    p, w = rooted_im_witness(cycle(4), Graph(3, [0, 0, 0]), 0)
    assert w == ()


def test_constructions_verify_on_sampled_pairs():
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n, dedup=True)]
    rng = SplitMix64(2024)
    for _ in range(25):
        g = graphs[rng.below(len(graphs))]
        h = graphs[rng.below(len(graphs))]
        p, w = lex_im_witness(g, h)
        assert len(w) == alpha(g).value * nu_i(h).value
        assert verify_witness(p.graph, w, "induced_matching")
        p, w = lex_eop_witness(g, h, "star_based")
        assert len(w) == rho_eo(g).value * alpha(h).value
        assert verify_witness(p.graph, w, "eop")
        p, w = lex_eop_witness(g, h, "fiber_based")
        assert len(w) == alpha(g).value * rho_eo(h).value
        assert verify_witness(p.graph, w, "eop")
        p, w = direct_im_witness(g, h)
        assert len(w) == 2 * nu_i(g).value * nu_i(h).value
        assert verify_witness(p.graph, w, "induced_matching")
        p, w = direct_eop_witness(g, h)
        assert verify_witness(p.graph, w, "eop")
        for kind in ("cartesian", "strong"):
            p, w = box_eop_witness(g, h, kind)
            assert len(w) == max(
                rho_eo(g).value * alpha(h).value, alpha(g).value * rho_eo(h).value
            )
            assert verify_witness(p.graph, w, "eop")
        root = rng.below(h.n)
        p, w = rooted_im_witness(g, h, root)
        assert len(w) >= g.n * nu_i(h).value - beta(g).value
        assert verify_witness(p.graph, w, "induced_matching")


def test_prism_composition_matches_direct_product_encoding():
    # the prism construction must address vertices of hypercube(n) itself
    for n in (2, 3):
        p, w = prism_3packing_witness(hypercube(n))
        assert p.graph == cartesian(hypercube(n), path(2)).graph == hypercube(n + 1)
