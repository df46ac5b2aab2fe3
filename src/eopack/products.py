"""Graph products with fixed coordinate bookkeeping.

Every product vertex (a, b) is encoded as ``a * hn + b`` where ``hn`` is the
per-fiber block size, so witnesses built by the construction module address
product vertices without lookup tables.  For the corona the block also holds
the host vertex: fiber slot 0 is the host, slots 1..hn-1 the private copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError

PRODUCT_KINDS = ("cartesian", "direct", "strong", "lex")


@dataclass(frozen=True)
class ProductGraph:
    """A product with its factor orders and the (a, b) <-> a*hn+b bijection."""

    graph: Graph
    gn: int
    hn: int

    def encode(self, a: int, b: int) -> int:
        return a * self.hn + b

    def decode(self, v: int) -> tuple:
        return divmod(v, self.hn)

    def h_fiber(self, a: int) -> list:
        return [self.encode(a, b) for b in range(self.hn)]

    def g_fiber(self, b: int) -> list:
        return [self.encode(a, b) for a in range(self.gn)]


def _blocks(g: Graph, h: Graph, within, across) -> ProductGraph:
    """(a, x) is adjacent to ``within[x]`` in its own block a and to
    ``across[x]`` in every block b adjacent to a in g.
    """
    gn, hn = g.n, h.n
    # spread[a] has one bit at the start of each block next to a: times a row
    # of h, it copies that row into all those blocks
    spread = [0] * gn
    for a, b in g.edges:
        spread[a] |= 1 << (b * hn)
        spread[b] |= 1 << (a * hn)
    rows = [
        (w << (a * hn)) | (c * spread[a])
        for a in range(gn)
        for w, c in zip(within, across)
    ]
    return ProductGraph(Graph(gn * hn, rows), gn, hn)


def product(kind: str, g: Graph, h: Graph) -> ProductGraph:
    """One of the four standard products of nonempty factors."""
    if kind not in PRODUCT_KINDS:
        raise GraphError(f"unknown product kind {kind!r}")
    if g.n == 0 or h.n == 0:
        raise GraphError("product factors must be nonempty")
    # the slots of block b that (a, x) sees when a ~ b in g
    across = {
        "cartesian": [1 << x for x in range(h.n)],
        "direct": h.adj,
        "strong": [r | 1 << x for x, r in enumerate(h.adj)],
        "lex": [(1 << h.n) - 1] * h.n,
    }[kind]
    return _blocks(g, h, [0] * h.n if kind == "direct" else h.adj, across)


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    return product("cartesian", g, h)


def direct(g: Graph, h: Graph) -> ProductGraph:
    return product("direct", g, h)


def strong(g: Graph, h: Graph) -> ProductGraph:
    return product("strong", g, h)


def lex(g: Graph, h: Graph) -> ProductGraph:
    return product("lex", g, h)


def rooted_product(g: Graph, h: Graph, root: int) -> ProductGraph:
    """A copy of h glued onto every vertex of g by identifying the root.

    Fiber i is a copy of h; the root slices across fibers induce g.
    """
    if not 0 <= root < h.n:
        raise GraphError(f"root {root} out of range for factor of order {h.n}")
    across = [0] * h.n
    across[root] = 1 << root
    return _blocks(g, h, h.adj, across)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides; h is shifted by g.n."""
    edges = list(g.edges)
    edges.extend((g.n + x, g.n + y) for x, y in h.edges)
    edges.extend((a, g.n + x) for a in range(g.n) for x in range(h.n))
    return Graph.from_edges(g.n + h.n, edges)


def corona(g: Graph, h: Graph) -> ProductGraph:
    """Every vertex of g joined to all vertices of a private copy of h.

    Built as the rooted product of g with K_1 joined to h, rooted at the K_1
    vertex, so fiber slot 0 of block i is the host vertex i.
    """
    cone = join(Graph(1, [0]), h)
    return rooted_product(g, cone, 0)
