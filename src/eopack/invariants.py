"""Exact packing invariants via conflict graphs and one branch-and-bound core.

Both edge invariants (induced matching number, edge open packing number)
reduce to maximum independent set on a conflict graph over edge indices, so a
single exact solver backs every invariant here.  The solver is deterministic:
it branches on the unresolved vertex of maximum degree (ties to the lowest
index), explores the include branch first, and prunes with a greedy
clique-cover bound, so witnesses are reproducible.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graph import Graph, bits, distances

DEFAULT_MAX_ITEMS = 250
DEFAULT_MAX_VERTICES = 64


class CapSettingError(ValueError):
    """An EOPACK_MAX_* environment variable is not a nonnegative integer."""


def _env_cap(var: str, default: int) -> int:
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise CapSettingError(f"{var} must be a nonnegative integer, got {raw!r}")
    return value


def _item_cap(override: "Optional[int]") -> int:
    if override is not None:
        return override
    return _env_cap("EOPACK_MAX_ITEMS", DEFAULT_MAX_ITEMS)


def _vertex_cap(override: "Optional[int]") -> int:
    if override is not None:
        return override
    return _env_cap("EOPACK_MAX_VERTICES", DEFAULT_MAX_VERTICES)


def env_caps() -> tuple:
    """Solver caps in force, ``(max items, max vertices)``.

    Read from EOPACK_MAX_ITEMS / EOPACK_MAX_VERTICES, else the defaults;
    raises :class:`CapSettingError` naming a malformed variable.
    """
    return _item_cap(None), _vertex_cap(None)


EDGE_KINDS = ("induced_matching", "eop")
VERTEX_KINDS = ("open_packing", "k_packing", "dominating", "perfect_code")


class CapacityError(RuntimeError):
    """Instance exceeds the exact-solver cap; use a witness construction instead."""


@dataclass(frozen=True)
class InvariantResult:
    """Exact invariant value with a verifying witness.

    ``witness`` indexes edges of the base graph for edge invariants and
    vertices otherwise; ``nodes`` counts branch-and-bound nodes expanded.
    """

    name: str
    value: int
    witness: tuple
    nodes: int
    proven_optimal: bool = True


@dataclass(frozen=True)
class ConflictGraph:
    """Auxiliary graph over edge indices of ``base``.

    Independent sets of the conflict graph are exactly the induced matchings
    (kind ``induced_matching``) or edge open packing sets (kind ``eop``) of
    the base graph.
    """

    base: Graph
    kind: str
    items: tuple
    conflicts: tuple

    @property
    def item_count(self) -> int:
        return len(self.items)


def _eop_conflict(g: Graph, e1, e2) -> bool:
    # a third edge joining an endvertex of e1 to an endvertex of e2
    s1, s2 = set(e1), set(e2)
    for x in e1:
        row = g.adj[x]
        for y in e2:
            if x != y and (row >> y) & 1 and {x, y} != s1 and {x, y} != s2:
                return True
    return False


def _im_conflict(g: Graph, e1, e2) -> bool:
    # shared endvertex, or any edge between the endvertex sets
    if e1[0] in e2 or e1[1] in e2:
        return True
    for x in e1:
        row = g.adj[x]
        for y in e2:
            if (row >> y) & 1:
                return True
    return False


def build_conflict_graph(g: Graph, kind: str) -> ConflictGraph:
    """Conflict graph of ``kind`` over the edges of g.

    Rows are ORs of per-vertex edge-incidence bitsets; the pairwise
    predicates ``_im_conflict`` / ``_eop_conflict`` stay the literal
    definitions that :func:`verify_witness` and the tests use.  With
    ``reach[v]`` the edges touching N[v], edge ab conflicts:

    - for ``induced_matching``, with every other edge in reach[a] | reach[b];
    - for ``eop``, with every edge at a neighbor y of an endpoint x (y not
      x's partner) except xy itself.  Those are the edges of reach[a] |
      reach[b] that miss a and b, plus az and bz for each common neighbor z.
    """
    if kind not in EDGE_KINDS:
        raise ValueError(f"unknown conflict kind {kind!r}")
    adj = g.adj
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    reach = []
    for v in range(g.n):
        row = 0
        for u in bits(adj[v]):
            row |= inc[u]
        reach.append(row)
    conf = []
    if kind == "induced_matching":
        for i, (a, b) in enumerate(g.edges):
            conf.append((reach[a] | reach[b]) & ~(1 << i))
    else:
        for a, b in g.edges:
            ends = inc[a] | inc[b]
            row = (reach[a] | reach[b]) & ~ends
            for z in bits(adj[a] & adj[b]):
                row |= inc[z] & ends
            conf.append(row)
    return ConflictGraph(g, kind, g.edges, tuple(conf))


# ---------------------------------------------------------------------------
# branch-and-bound maximum independent set core
# ---------------------------------------------------------------------------

def _clique_cover_bound(adj: Sequence[int], rem: int) -> int:
    """Number of cliques in a greedy partition of ``rem``; upper-bounds alpha."""
    cliques = 0
    left = rem
    while left:
        low = left & -left
        v = low.bit_length() - 1
        left ^= low
        cand = adj[v] & left
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            left ^= lu
            cand = (cand ^ lu) & adj[u]
        cliques += 1
    return cliques


def _branch_vertex(adj: Sequence[int], rem: int) -> int:
    best_v = -1
    best_d = -1
    r = rem
    while r:
        low = r & -r
        v = low.bit_length() - 1
        r ^= low
        d = (adj[v] & rem).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    return best_v


def _search(count: int, adj: Sequence[int], all_optima: bool = False):
    """Deterministic exact MIS on an explicit stack; returns (size, witnesses, nodes).

    Branches include-first on :func:`_branch_vertex` and prunes with
    :func:`_clique_cover_bound`: when maximising a branch must beat the best
    size, and the single witness is the first maximum set found.  With
    ``all_optima`` ties are kept, and the witnesses are every maximum set in
    depth-first order.  Each witness is sorted.
    """
    tie = 0 if all_optima else 1
    best = -1
    found: list = []
    nodes = 0
    # frames are (remaining candidates, size, chosen vertices), sets as bitmasks
    stack = [((1 << count) - 1, 0, 0)]
    while stack:
        rem, size, chosen = stack.pop()
        nodes += 1
        if not rem:
            if size > best:
                best, found = size, [chosen]
            elif all_optima and size == best:
                found.append(chosen)
            continue
        if size + _clique_cover_bound(adj, rem) < best + tie:
            continue
        v = _branch_vertex(adj, rem)
        bit = 1 << v
        stack.append((rem & ~bit, size, chosen))
        stack.append((rem & ~(adj[v] | bit), size + 1, chosen | bit))
    return best, [tuple(bits(c)) for c in found], nodes


def _check_cap(count: int, cap: int, unit: str) -> None:
    if count > cap:
        raise CapacityError(
            f"{count} {unit} exceed the exact-solver cap of {cap}; "
            "use a witness-only construction instead"
        )


def _solve(name: str, count: int, adj: Sequence[int]) -> InvariantResult:
    size, (witness,), nodes = _search(count, adj)
    return InvariantResult(name, size, witness, nodes)


def max_independent_set(
    c: Union[ConflictGraph, Graph], max_items: Optional[int] = None
) -> InvariantResult:
    """Exact MIS of a conflict graph (over items) or a plain graph (over vertices)."""
    if isinstance(c, ConflictGraph):
        count, adj, cap = c.item_count, c.conflicts, _item_cap(max_items)
    else:
        count, adj, cap = c.n, c.adj, _vertex_cap(max_items)
    _check_cap(count, cap, "items")
    return _solve("mis", count, adj)


def _vertex_conflicts(g: Graph, pred) -> list:
    """Rows of the graph on V(g) joining each pair u < v with ``pred(u, v)``."""
    conf = [0] * g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if pred(u, v):
                conf[u] |= 1 << v
                conf[v] |= 1 << u
    return conf


# value cache keyed by (invariant, order, edge list); results are immutable
# and solves are deterministic, so concurrent writers can only insert
# identical entries
_CACHE: dict = {}


def _cached(name: str, g: Graph, fn, max_items: Optional[int]):
    key = (name, g.n, g.edges)
    if max_items is None and key in _CACHE:
        return _CACHE[key]
    res = fn()
    if max_items is None:
        _CACHE[key] = res
    return res


def clear_cache() -> None:
    _CACHE.clear()


# ---------------------------------------------------------------------------
# named invariants
# ---------------------------------------------------------------------------

def _mis_invariant(name: str, g: Graph, instance, max_items: Optional[int]):
    # max_independent_set on instance(), renamed and cached under ``name``
    def solve():
        res = max_independent_set(instance(), max_items)
        return InvariantResult(name, res.value, res.witness, res.nodes)

    return _cached(name, g, solve, max_items)


def nu_i(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Induced matching number: max edges pairwise non-adjacent and unjoined."""
    return _mis_invariant(
        "nu_i", g, lambda: build_conflict_graph(g, "induced_matching"), max_items
    )


def rho_eo(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Edge open packing number: max edges with no third edge joining two of them."""
    return _mis_invariant("rho_eo", g, lambda: build_conflict_graph(g, "eop"), max_items)


def alpha(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Independence number."""
    return _mis_invariant("alpha", g, lambda: g, max_items)


def beta(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Vertex cover number, n - alpha; witness is the complement of the alpha witness."""
    a = alpha(g, max_items)
    independent = set(a.witness)
    cover = tuple(v for v in range(g.n) if v not in independent)
    return InvariantResult("beta", g.n - a.value, cover, a.nodes)


def rho_o(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Open packing number: max vertices with pairwise disjoint open neighborhoods."""

    def solve():
        _check_cap(g.n, _vertex_cap(max_items), "vertices")
        adj = g.adj
        return _solve("rho_o", g.n, _vertex_conflicts(g, lambda u, v: adj[u] & adj[v]))

    return _cached("rho_o", g, solve, max_items)


def distance_packing(g: Graph, k: int, max_items: Optional[int] = None) -> InvariantResult:
    """k-packing number for k in {2, 3}: max vertices pairwise at distance > k."""
    if k not in (2, 3):
        raise ValueError("distance packing supports k in {2, 3}")

    def solve():
        _check_cap(g.n, _vertex_cap(max_items), "vertices")
        dist = distances(g)
        return _solve(f"rho_{k}", g.n, _vertex_conflicts(g, lambda u, v: dist[u][v] <= k))

    return _cached(f"rho_{k}", g, solve, max_items)


def gamma(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Domination number via exact set cover over closed neighborhoods.

    Branches on the uncovered vertex with the fewest covering candidates,
    candidates ordered by coverage of the still-uncovered set (ties to the
    lowest index).
    """

    def solve():
        n = g.n
        _check_cap(n, _vertex_cap(max_items), "vertices")
        closed = [g.adj[v] | (1 << v) for v in range(n)]
        full = (1 << n) - 1
        if n == 0:
            return InvariantResult("gamma", 0, (), 0)

        unc = full
        greedy = []
        while unc:
            v = max(range(n), key=lambda x: ((closed[x] & unc).bit_count(), -x))
            greedy.append(v)
            unc &= ~closed[v]
        best = sorted(greedy)
        best_size = len(greedy)
        nodes = 0
        chosen: list = []

        def dfs(unc: int):
            nonlocal best, best_size, nodes
            nodes += 1
            if unc == 0:
                if len(chosen) < best_size:
                    best_size = len(chosen)
                    best = sorted(chosen)
                return
            maxcov = 0
            for v in range(n):
                cov = (closed[v] & unc).bit_count()
                if cov > maxcov:
                    maxcov = cov
            lower = -(-unc.bit_count() // maxcov)
            if len(chosen) + lower >= best_size:
                return
            u = min(bits(unc), key=lambda x: (closed[x].bit_count(), x))
            cands = sorted(
                bits(closed[u]),
                key=lambda v: (-(closed[v] & unc).bit_count(), v),
            )
            for v in cands:
                chosen.append(v)
                dfs(unc & ~closed[v])
                chosen.pop()

        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
        dfs(full)
        return InvariantResult("gamma", best_size, tuple(best), nodes)

    return _cached("gamma", g, solve, max_items)


def has_perfect_code(g: Graph) -> Optional[tuple]:
    """A 2-packing whose closed neighborhoods partition V, or None.

    Exact cover search: the lowest uncovered vertex must be covered by
    exactly one code vertex from its closed neighborhood.  Graphs above the
    vertex cap raise :class:`CapacityError`.
    """
    n = g.n
    _check_cap(n, _vertex_cap(None), "vertices")
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def dfs(covered: int):
        if covered == full:
            return ()
        u = (~covered & full)
        u = (u & -u).bit_length() - 1
        for w in bits(closed[u]):
            if closed[w] & covered == 0:
                sub = dfs(covered | closed[w])
                if sub is not None:
                    return (w,) + sub
        return None

    code = dfs(0)
    return tuple(sorted(code)) if code is not None else None


# ---------------------------------------------------------------------------
# witness checking and optimal-set enumeration
# ---------------------------------------------------------------------------

def verify_witness(g: Graph, w, kind: str, k: Optional[int] = None) -> bool:
    """Check a witness against the literal definition; never consults the solver."""
    w = tuple(w)
    if kind in EDGE_KINDS:
        for i in w:
            if not 0 <= i < g.m:
                raise ValueError(f"edge index {i} out of range")
        if len(set(w)) != len(w):
            return False
        pairs = [g.edges[i] for i in w]
        test = _im_conflict if kind == "induced_matching" else _eop_conflict
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                if test(g, pairs[a], pairs[b]):
                    return False
        return True

    for v in w:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if len(set(w)) != len(w):
        return False
    if kind == "open_packing":
        return all(
            not (g.adj[w[a]] & g.adj[w[b]])
            for a in range(len(w))
            for b in range(a + 1, len(w))
        )
    if kind == "k_packing":
        if k is None:
            raise ValueError("k_packing needs k")
        from .graph import _bfs_dist

        others = set(w)
        for v in w:
            dist = _bfs_dist(g, v)
            if any(u != v and dist[u] <= k for u in others):
                return False
        return True
    if kind == "dominating":
        covered = 0
        for v in w:
            covered |= g.adj[v] | (1 << v)
        return covered == (1 << g.n) - 1
    if kind == "perfect_code":
        covered = 0
        for v in w:
            ball = g.adj[v] | (1 << v)
            if ball & covered:
                return False
            covered |= ball
        return covered == (1 << g.n) - 1
    raise ValueError(f"unknown witness kind {kind!r}")


def enumerate_optimal(c: ConflictGraph, max_items: Optional[int] = None) -> list:
    """All maximum independent sets of a conflict graph, as sorted witnesses."""
    _check_cap(c.item_count, _item_cap(max_items), "items")
    return _search(c.item_count, c.conflicts, all_optima=True)[1]
