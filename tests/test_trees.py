import hashlib

import pytest

from eopack.graph import (
    Graph,
    GraphError,
    cycle,
    enumerate_trees,
    path,
    spider,
    star,
    subdivided_star,
)
from eopack.invariants import (
    build_conflict_graph,
    enumerate_optimal,
    nu_i,
    rho_eo,
    verify_witness,
)
from eopack.trees import (
    SpiderPartition,
    _partition_fault,
    generate_family_f,
    is_tree,
    nu_i_tree,
    recognize_family_f,
    verify_spider_partition,
)


def test_nu_i_tree_examples():
    assert nu_i_tree(path(7)).value == 2
    assert nu_i_tree(spider(4)).value == 4
    assert nu_i_tree(star(5)).value == 1


def test_nu_i_tree_on_one_vertex_follows_the_rule_of_every_tree():
    # no edge to match, and nodes is the vertex count
    res = nu_i_tree(path(1))
    assert (res.value, res.witness, res.nodes) == (0, (), 1)


@pytest.mark.parametrize("ks", [[1, 3], []])
def test_generate_family_f_needs_spiders_of_at_least_two_legs(ks):
    with pytest.raises(GraphError, match="^every spider needs at least 2 legs$"):
        generate_family_f(ks)


def test_nu_i_tree_rejects_non_trees():
    with pytest.raises(GraphError):
        nu_i_tree(cycle(4))
    with pytest.raises(GraphError):
        nu_i_tree(Graph(2, [0, 0]))


def test_nu_i_tree_matches_solver_on_all_small_trees():
    from eopack.harness import _trees_upto

    for t in _trees_upto(9):
        if t.n < 2:
            continue
        res = nu_i_tree(t)
        assert res.value == nu_i(t).value
        assert len(res.witness) == res.value
        assert verify_witness(t, res.witness, "induced_matching")


def test_path_formula_via_tree_dp():
    for n in range(1, 21):
        assert nu_i_tree(path(n)).value == (n + 1) // 3


def test_recognize_trivial_and_small():
    assert recognize_family_f(path(1)).trivial
    assert recognize_family_f(path(2)).trivial
    part = recognize_family_f(path(5))
    assert part is not None and not part.trivial
    assert part.leg_counts == (2,)
    assert verify_spider_partition(path(5), part)


def test_recognize_p7_absent():
    assert recognize_family_f(path(7)) is None


def test_recognize_two_spiders_joined_at_centers():
    tree, cert = generate_family_f([2, 2], wiring=[(0, 5)])
    part = recognize_family_f(tree)
    assert part is not None
    assert len(part.spiders) == 2 and len(part.extra_edges) == 1
    assert verify_spider_partition(tree, part)
    assert nu_i(tree).value == rho_eo(tree).value == 4


def test_recognize_rejects_non_tree():
    with pytest.raises(GraphError):
        recognize_family_f(cycle(6))


def test_generate_single_spider():
    tree, cert = generate_family_f([3])
    assert tree == spider(3)
    assert cert.leg_counts == (3,)
    assert cert.extra_edges == ()


def test_generate_validates_wiring():
    with pytest.raises(GraphError, match="no center"):
        generate_family_f([2, 2], wiring=[(1, 6)])
    with pytest.raises(GraphError, match="cycle|one edge"):
        generate_family_f([2, 2], wiring=[(0, 5), (0, 6)])
    with pytest.raises(GraphError, match="untouched leaves"):
        generate_family_f([2, 2], wiring=[(0, 7)])  # hits a leaf of a 2-leg spider...


def test_generate_c2_leaf_wiring_allowed_with_three_legs():
    # wiring a center into a leaf of a 3-leg spider keeps two untouched leaves
    tree, cert = generate_family_f([3, 2], wiring=[(7, 2)])
    assert verify_spider_partition(tree, cert)
    assert recognize_family_f(tree) is not None


def test_generate_random_round_trip():
    for seed in range(8):
        tree, cert = generate_family_f([2, 2, 2], seed=seed)
        assert is_tree(tree)
        assert verify_spider_partition(tree, cert)
        part = recognize_family_f(tree)
        assert part is not None
        assert verify_spider_partition(tree, part)


def test_family_value_and_unique_optimum():
    for ks, seed in [([2, 2], 0), ([3, 2], 1), ([2, 2, 2], 7)]:
        tree, cert = generate_family_f(ks, seed=seed)
        assert nu_i(tree).value == sum(ks)
        optima = enumerate_optimal(build_conflict_graph(tree, "induced_matching"))
        assert len(optima) == 1
        pendant = tuple(sorted(tree.edge_index[e] for e in cert.pendant_edges()))
        assert optima[0] == pendant


def test_characterization_small_trees():
    # family membership (or P1/P2) iff the two invariants agree
    for n in range(2, 13):
        for t in enumerate_trees(n, dedup=True):
            part = recognize_family_f(t)
            equal = nu_i(t).value == rho_eo(t).value
            assert (part is not None) == equal
            if part is not None:
                assert verify_spider_partition(t, part)


def test_recognizer_certificates_are_pinned():
    # sha256 over repr(recognize_family_f(t)) for the 986 unlabeled trees on
    # 2..12 vertices, in enumeration order; pins spider order, leg order and
    # extra-edge order of every certificate, and every non-member
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 13):
        for t in enumerate_trees(n, dedup=True):
            digest.update(repr(recognize_family_f(t)).encode())
            count += 1
    assert count == 986
    assert digest.hexdigest() == (
        "541695908a5c84649a6e6a57c79d77f86af46175cc0eaca751a31512100700d8"
    )


def test_recognizer_certificates_are_pinned_13_14():
    # as above, over the 4,460 unlabeled trees on 13 and 14 vertices
    digest = hashlib.sha256()
    count = 0
    for n in (13, 14):
        for t in enumerate_trees(n, dedup=True):
            digest.update(repr(recognize_family_f(t)).encode())
            count += 1
    assert count == 4460
    assert digest.hexdigest() == (
        "f824219e50a47c3cdd44a077c57acf4b3d0010a1b8f9b4a9e2c6cfde1ac10142"
    )


def test_recognizer_augmenting_tie_break():
    # centers 0 and 1 each own three supports of tree leaves; center 2 owns
    # one (7) and is adjacent to supports 3 (of 0) and 5 (of 1), so it takes
    # over the least of them, 3, from center 0
    edges = [(0, 3), (2, 3), (3, 4), (1, 5), (2, 5), (5, 6), (2, 7), (7, 8)]
    edges += [(0, 9), (9, 10), (0, 11), (11, 12)]
    edges += [(1, 13), (13, 14), (1, 15), (15, 16)]
    t = Graph.from_edges(17, edges)
    assert recognize_family_f(t) == SpiderPartition(
        (
            (0, ((9, 10), (11, 12))),
            (1, ((5, 6), (13, 14), (15, 16))),
            (2, ((3, 4), (7, 8))),
        ),
        ((0, 3), (2, 5)),
    )


def test_recognizer_leg_support_is_the_end_of_smaller_degree():
    # legs 29-30 and 19-20 touch no tree leaf; 30 and 20 have the smaller
    # degree, so they are the supports, each with its least center
    tree, _ = generate_family_f([3] * 12, seed=2)
    part = recognize_family_f(tree)
    center_of = {leg: center for center, legs in part.spiders for leg in legs}
    assert center_of[(30, 29)] == 7 and center_of[(20, 19)] == 77
    assert verify_spider_partition(tree, part)


@pytest.mark.parametrize("spiders", [40, 1000])
def test_recognizer_certifies_large_members(spiders):
    tree, _ = generate_family_f([2] * spiders, seed=5)
    part = recognize_family_f(tree)
    assert part is not None and verify_spider_partition(tree, part)


def _near_misses(tree):
    # a leaf hung off a spider leaf, a second tree leaf on a support, and a
    # new 2-leg spider wired to center 0 through one of its own leaves
    n = tree.n
    edges = list(tree.edges)
    spider = [(n, n + 1), (n + 1, n + 2), (n, n + 3), (n + 3, n + 4), (n + 2, 0)]
    return [
        Graph.from_edges(n + 1, edges + [(2, n)]),
        Graph.from_edges(n + 1, edges + [(1, n)]),
        Graph.from_edges(n + 5, edges + spider),
    ]


def test_recognizer_rejects_near_misses():
    small, _ = generate_family_f([2, 2], wiring=[(0, 5)])
    for t in _near_misses(small):
        assert nu_i(t).value != rho_eo(t).value
        assert recognize_family_f(t) is None
    large, _ = generate_family_f([2] * 40, seed=5)
    for t in _near_misses(large):
        assert recognize_family_f(t) is None


def test_recognizer_agrees_with_solvers_on_larger_random_trees():
    from eopack.graph import SplitMix64, _prufer_tree

    rng = SplitMix64(11)
    for _ in range(40):
        n = 15 + rng.below(46)
        t = _prufer_tree([rng.below(n) for _ in range(n - 2)], n)
        part = recognize_family_f(t)
        assert (part is not None) == (nu_i(t).value == rho_eo(t).value)
        if part is not None:
            assert verify_spider_partition(t, part)


def _three_spiders_with_triangle():
    # three 2-leg spiders centred at 0, 5 and 10; the extra edges (0,5) and
    # (0,6) close the triangle 0-5-6 and leave the spider at 10 detached
    spiders = tuple(
        (b, ((b + 1, b + 2), (b + 3, b + 4))) for b in (0, 5, 10)
    )
    edges = [(c, s) for c, legs in spiders for s, _ in legs]
    edges += [(s, l) for _, legs in spiders for s, l in legs]
    g = Graph.from_edges(15, edges + [(0, 5), (0, 6)])
    return g, SpiderPartition(spiders, ((0, 5), (0, 6)))


def test_verify_rejects_partition_of_non_tree():
    g, part = _three_spiders_with_triangle()
    assert not is_tree(g)
    assert not verify_spider_partition(g, part)
    with pytest.raises(GraphError):
        generate_family_f([2, 2, 2], wiring=[(0, 5), (0, 6)])


def test_verify_rejects_vertices_outside_the_graph():
    # a negative support, a center past the end and a leaf past the end of
    # P_5, whose own certificate is the 2-leg spider centered at 2
    t = path(5)
    assert verify_spider_partition(t, SpiderPartition(((2, ((1, 0), (3, 4))),), ()))
    for spiders in (
        ((2, ((-1, 0), (3, 4))),),
        ((7, ((1, 0), (3, 4))),),
        ((2, ((1, 9), (3, 4))),),
    ):
        assert verify_spider_partition(t, SpiderPartition(spiders, ())) is False


# the member generate_family_f([2, 3], seed=1): spiders centered at 0 and 5,
# joined by the extra edge (0, 11)
_S0 = (0, ((1, 2), (3, 4)))
_S1 = (5, ((6, 7), (8, 9), (10, 11)))


@pytest.mark.parametrize(
    "spiders, extra_edges, fault",
    [
        (((0, ((1, 2),)), _S1), ((0, 11),), "spider 0 has fewer than 2 legs"),
        (
            ((0, ((2, 1), (3, 4))), _S1),
            ((0, 11),),
            "spider 0 leg (2,1) is not a path from its center",
        ),
        (((0, ((1, 2), (1, 2))), _S1), ((0, 11),), "spider 0 repeats a vertex"),
        ((_S0, _S0, _S1), ((0, 11),), "spider 1 repeats a vertex"),
        ((_S0, (5, ((6, 7), (8, 9)))), ((0, 11),), "spiders do not cover every vertex"),
        (
            (_S0, _S1),
            ((0, 5),),
            "extra edges differ from the tree edges in no spider",
        ),
        ((_S0, _S1), (), "extra edges differ from the tree edges in no spider"),
    ],
)
def test_verifier_names_each_broken_condition(spiders, extra_edges, fault):
    t, cert = generate_family_f([2, 3], seed=1)
    assert cert == SpiderPartition((_S0, _S1), ((0, 11),))
    assert _partition_fault(t, cert) == ""
    part = SpiderPartition(spiders, extra_edges)
    assert verify_spider_partition(t, part) is False
    assert _partition_fault(t, part) == fault


def test_subdivided_star_equality_cases():
    # equality holds exactly for P_2, P_5 and spiders with >= 3 legs
    cases = {
        (1,): True,  # P_2
        (4,): True,  # P_5
        (2, 2): True,  # P_5 again
        (1, 3): True,  # P_5 rooted off-center
        (2,): False,  # P_3
        (3,): False,  # P_4
        (1, 1): False,  # P_3
        (2, 2, 2): True,  # spider
        (1, 2, 2): False,
        (2, 2, 2, 2): True,
        (1, 1, 2): False,
        (3, 2, 2): False,
    }
    for lens, want in cases.items():
        g = subdivided_star(list(lens))
        assert (nu_i(g).value == rho_eo(g).value) == want, lens


def test_recognizer_agrees_with_solvers_on_random_trees():
    # beyond the exhaustive <= 9 corpus: seeded random labeled trees
    from eopack.graph import SplitMix64, _prufer_tree

    rng = SplitMix64(77)
    for _ in range(150):
        seq = [rng.below(12) for _ in range(10)]
        t = _prufer_tree(seq, 12)
        part = recognize_family_f(t)
        equal = nu_i(t).value == rho_eo(t).value
        assert (part is not None) == equal
        if part is not None:
            assert verify_spider_partition(t, part)


def test_recognizer_scales_to_thirty_vertices():
    tree, cert = generate_family_f([3, 3, 3, 3], seed=5)
    part = recognize_family_f(tree)
    assert part is not None and verify_spider_partition(tree, part)
    # hanging one extra leaf off a spider leaf breaks the two-free-leaves rule
    n = tree.n
    near = Graph.from_edges(n + 1, list(tree.edges) + [(2, n)])
    assert recognize_family_f(near) is None
    assert recognize_family_f(path(30)) is None
