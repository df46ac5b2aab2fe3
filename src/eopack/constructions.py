"""Witness builders for product lower bounds.

Each constructive lower-bound argument becomes an executable builder whose
output is a concrete edge or vertex witness on the product graph, checkable
by :func:`eopack.invariants.verify_witness` without any solver call.  Factor
optima are taken from the deterministic solver, so outputs are reproducible.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graph import Graph, GraphError, bipartition, bits, hypercube, path
from .invariants import alpha, distance_packing, nu_i, rho_eo, rho_o, verify_witness
from .products import ProductGraph, cartesian, direct, lex, product, rooted_product


def _star_decomposition(g: Graph, witness: Sequence[int]) -> list:
    """Split an edge-open-packing witness into stars: ``[(center, leaves)]``.

    Components with one edge use the lower-indexed endvertex as center.
    """
    pairs = [g.edges[i] for i in witness]
    deg: dict = {}
    for u, v in pairs:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    stars: dict = {}
    for u, v in pairs:
        if deg[u] > 1 and deg[v] > 1:
            raise GraphError("witness does not induce a disjoint union of stars")
        if deg[u] > 1:
            c, leaf = u, v
        elif deg[v] > 1:
            c, leaf = v, u
        else:
            c, leaf = min(u, v), max(u, v)
        stars.setdefault(c, []).append(leaf)
    return sorted((c, sorted(ls)) for c, ls in stars.items())


def _edge_idx(p: ProductGraph, a: int, b: int) -> int:
    return p.graph.edge_index[(a, b) if a < b else (b, a)]


def lex_im_witness(g: Graph, h: Graph) -> tuple:
    """Induced matching of size alpha(g) * nu_i(h) inside independent fibers."""
    p = lex(g, h)
    fibers = alpha(g).witness
    matching = nu_i(h).witness
    w = set()
    for gv in fibers:
        for i in matching:
            x, y = h.edges[i]
            w.add(_edge_idx(p, p.encode(gv, x), p.encode(gv, y)))
    return p, tuple(sorted(w))


def lex_eop_witness(g: Graph, h: Graph, variant: str = "star_based") -> tuple:
    """Edge open packing on the lexicographic product.

    ``star_based`` replays the star decomposition of a maximum EOP set of g,
    fanning each star edge out to an independent set of h-positions: size
    rho_eo(g) * alpha(h).  ``fiber_based`` copies a maximum EOP set of h into
    the fibers over an independent set of g: size alpha(g) * rho_eo(h).
    """
    p = lex(g, h)
    w = set()
    if variant == "star_based":
        stars = _star_decomposition(g, rho_eo(g).witness)
        spots = alpha(h).witness
        for center, leaves in stars:
            for leaf in leaves:
                for hv in spots:
                    w.add(_edge_idx(p, p.encode(center, 0), p.encode(leaf, hv)))
    elif variant == "fiber_based":
        fibers = alpha(g).witness
        packing = rho_eo(h).witness
        for gv in fibers:
            for i in packing:
                x, y = h.edges[i]
                w.add(_edge_idx(p, p.encode(gv, x), p.encode(gv, y)))
    else:
        raise GraphError(f"unknown variant {variant!r}")
    return p, tuple(sorted(w))


def direct_im_witness(g: Graph, h: Graph) -> tuple:
    """Induced matching of size 2 * nu_i(g) * nu_i(h) on the direct product.

    Every pair of factor matching edges contributes both diagonal copies.
    """
    p = direct(g, h)
    mg = [g.edges[i] for i in nu_i(g).witness]
    mh = [h.edges[i] for i in nu_i(h).witness]
    w = set()
    for a, b in mg:
        for x, y in mh:
            w.add(_edge_idx(p, p.encode(a, x), p.encode(b, y)))
            w.add(_edge_idx(p, p.encode(b, x), p.encode(a, y)))
    return p, tuple(sorted(w))


def _direct_eop_oneway(p: ProductGraph, g: Graph, h: Graph, swap: bool) -> set:
    # stars of a maximum EOP set of the first factor, fanned out from the
    # star centers to the neighborhoods of an open packing of the second
    stars = _star_decomposition(g, rho_eo(g).witness)
    packing = rho_o(h).witness
    w = set()
    for center, leaves in stars:
        for leaf in leaves:
            for hv in packing:
                for hn in bits(h.adj[hv]):
                    if swap:
                        w.add(_edge_idx(p, p.encode(hv, center), p.encode(hn, leaf)))
                    else:
                        w.add(_edge_idx(p, p.encode(center, hv), p.encode(leaf, hn)))
    return w


def direct_eop_witness(g: Graph, h: Graph) -> tuple:
    """Edge open packing on the direct product; the larger of both orientations.

    One orientation has size rho_eo(g) * sum of degrees over an open packing
    of h (>= rho_eo(g) * delta(h) * rho_o(h)); the other swaps the factors.
    """
    p = direct(g, h)
    w1 = _direct_eop_oneway(p, g, h, swap=False)
    w2 = _direct_eop_oneway(p, h, g, swap=True)
    best = w1 if len(w1) >= len(w2) else w2
    return p, tuple(sorted(best))


def box_eop_witness(g: Graph, h: Graph, kind: str = "cartesian") -> tuple:
    """Edge open packing valid in both the Cartesian and the strong product.

    Variant one replicates the star decomposition of a maximum EOP set of g
    at every position of an independent set of h (size rho_eo(g)*alpha(h));
    variant two copies a maximum EOP set of h into the fibers over an
    independent set of g (size alpha(g)*rho_eo(h)).  Returns the larger.
    """
    if kind not in ("cartesian", "strong"):
        raise GraphError(f"unsupported product kind {kind!r}")
    p = product(kind, g, h)
    stars = _star_decomposition(g, rho_eo(g).witness)
    w1 = set()
    for center, leaves in stars:
        for leaf in leaves:
            for hv in alpha(h).witness:
                w1.add(_edge_idx(p, p.encode(center, hv), p.encode(leaf, hv)))
    w2 = set()
    packing = rho_eo(h).witness
    for gv in alpha(g).witness:
        for i in packing:
            x, y = h.edges[i]
            w2.add(_edge_idx(p, p.encode(gv, x), p.encode(gv, y)))
    best = w1 if len(w1) >= len(w2) else w2
    return p, tuple(sorted(best))


def bipartite_eop_witness(g: Graph, packing: Optional[Sequence[int]] = None) -> tuple:
    """All edges at the vertices of a 3-packing of a bipartite graph.

    Size is the degree sum over the packing, at least delta(g) * rho_3(g)
    when the packing is maximum.
    """
    if bipartition(g) is None:
        raise GraphError("input graph is not bipartite")
    pack = tuple(packing) if packing is not None else distance_packing(g, 3).witness
    w = set()
    for v in pack:
        for u in bits(g.adj[v]):
            w.add(g.edge_index[(v, u) if v < u else (u, v)])
    return tuple(sorted(w))


def prism_3packing_witness(
    g: Graph, two_packing: Optional[Sequence[int]] = None
) -> tuple:
    """3-packing of g box K_2 of size rho_2(g), for bipartite g.

    Lifts a 2-packing to the prism, sending one side of the bipartition to
    each K_2 level; for bipartite g the result is maximum.
    """
    sides = bipartition(g)
    if sides is None:
        raise GraphError("input graph is not bipartite")
    pack = tuple(two_packing) if two_packing is not None else distance_packing(g, 2).witness
    side1 = set(sides[0])
    p = cartesian(g, path(2))
    w = tuple(sorted(p.encode(u, 0 if u in side1 else 1) for u in pack))
    return p, w


def hamming_perfect_code(k: int) -> tuple:
    """1-perfect code in the hypercube of dimension 2^k - 1.

    Codewords are the masks whose positionwise syndrome vanishes: the xor of
    the 1-based positions of the set bits is zero (parity-check columns are
    the binary expansions of 1..n in increasing order).
    """
    if not 1 <= k <= 4:
        raise GraphError("hamming code supports 1 <= k <= 4")
    n = (1 << k) - 1
    code = []
    for v in range(1 << n):
        syndrome = 0
        rest = v
        while rest:
            low = rest & -rest
            syndrome ^= low.bit_length()
            rest ^= low
        if syndrome == 0:
            code.append(v)
    return tuple(code)


def hypercube_eop_witness(k: int) -> tuple:
    """Edge open packing of size 2^(2^k - 1) on the hypercube of dimension 2^k.

    Composes the perfect-code, prism-lift and bipartite constructions; the
    result matches the sharp independence upper bound, so it certifies the
    exact value with no solver call.
    """
    if not 1 <= k <= 3:
        raise GraphError("hypercube witness supports 1 <= k <= 3")
    n = 1 << k
    code = hamming_perfect_code(k)
    prism, pack3 = prism_3packing_witness(hypercube(n - 1), two_packing=code)
    witness = bipartite_eop_witness(prism.graph, packing=pack3)
    return prism.graph, witness


class HypercubeRow(NamedTuple):
    """One row of the hypercube packing table.

    ``rho_2`` is None where the value is open; ``rho_eo`` is exact when
    ``rho_eo_exact``, else a witness-certified lower bound; ``verified`` says
    every witness the row rests on passed :func:`verify_witness`.
    """

    n: int
    rho_2: Optional[int]
    rho_3: int
    rho_eo: int
    rho_eo_exact: bool
    verified: bool


def hypercube_table(max_n: int) -> list:
    """Rows of the hypercube packing table for Q_1 .. Q_min(max_n, 8).

    Up to dimension 6 the packings are solved exactly, and rho_eo is solved
    up to dimension 4, then witnessed by all edges at a maximum 3-packing.
    Q_7 and Q_8 follow the code -> prism -> edge-packing chain: Q_7's rho_2
    is the Hamming perfect code, and a 2-packing of Q_(n-1) (Q_6's exact one,
    or that code) lifts through the prism Q_n = Q_(n-1) box K_2 to a maximum
    3-packing, whose edges give the rho_eo bound.
    """
    rows = []
    for n in range(1, min(max_n, 8) + 1):
        q = hypercube(n)
        checks = []
        r2: Optional[int] = None
        if n <= 6:
            r2 = distance_packing(q, 2).value
            pack = distance_packing(q, 3).witness
        else:
            code = hamming_perfect_code(3)
            if n == 7:
                checks.append(verify_witness(q, code, "perfect_code"))
                r2 = len(code)
            # Q_7 lifts Q_6's exact 2-packing and Q_8 lifts the code; the
            # prism of Q_(n-1) is Q_n with the same vertex labels
            _, pack = prism_3packing_witness(hypercube(n - 1), None if n == 7 else code)
            checks.append(verify_witness(q, pack, "k_packing", k=3))
        if n <= 4:
            eop, exact = rho_eo(q).value, True
        else:
            w = bipartite_eop_witness(q, packing=pack)
            checks.append(verify_witness(q, w, "eop"))
            eop, exact = len(w), False
        rows.append(HypercubeRow(n, r2, len(pack), eop, exact, all(checks)))
    return rows


def rooted_im_witness(g: Graph, h: Graph, root: int) -> tuple:
    """Induced matching on the rooted product of size >= n*nu_i(h) - beta(g).

    Full matching copies go into the fibers over a maximum independent set of
    g; in the remaining fibers any root-incident matching edge is dropped.
    """
    p = rooted_product(g, h, root)
    matching = [h.edges[i] for i in nu_i(h).witness]
    independent = set(alpha(g).witness)
    w = set()
    for i in range(g.n):
        for x, y in matching:
            if i not in independent and root in (x, y):
                continue
            w.add(_edge_idx(p, p.encode(i, x), p.encode(i, y)))
    return p, tuple(sorted(w))
