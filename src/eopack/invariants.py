"""Exact packing invariants via conflict graphs and one branch-and-bound core.

Edge invariants (induced matching, edge open packing) and vertex packings
(open, 2-, 3-packing) reduce to maximum independent set on a conflict graph
whose rows one neighbourhood step, :func:`_reach`, builds, so a single
exact solver, :func:`_search`, backs every invariant here.  Its docstring
states the child rule and the group rule once: which nodes branch over
orbits, and whose automorphisms each of them uses.  The search is
deterministic, so witnesses are reproducible.
:func:`enumerate_optimal` (which needs every optimum, and reaches each
once) never uses a group.

Every named invariant (``nu_i``, ``rho_eo``, ``alpha``, ``rho_o``,
``distance_packing``, ``gamma``; ``beta`` through ``alpha``) enters through
one front door, :func:`_invariant`: gate, then cache, then solve.  The cap
is read and checked once, before the value cache, and a miss is solved
under that cap and named there; a call with ``max_items`` neither reads nor
writes the cache.  :func:`max_independent_set`, :func:`enumerate_optimal`
and :func:`has_perfect_code` gate themselves and are never cached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .graph import (
    Graph,
    _automorphisms,
    automorphism_generators,
    bits,
    orbit_masks,
)

DEFAULT_MAX_ITEMS = 250
DEFAULT_MAX_VERTICES = 64
# search nodes with at least this many candidates, and two or more items in
# their branch set, branch over orbits
SYMMETRY_MIN_ITEMS = 96


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


# the cap setting of each unit a solver counts: (environment variable, default)
_CAPS = {
    "items": ("EOPACK_MAX_ITEMS", DEFAULT_MAX_ITEMS),
    "vertices": ("EOPACK_MAX_VERTICES", DEFAULT_MAX_VERTICES),
}


def env_caps() -> tuple:
    """Solver caps in force, ``(max items, max vertices)``.

    Read from EOPACK_MAX_ITEMS / EOPACK_MAX_VERTICES, else the defaults;
    raises :class:`CapSettingError` naming a malformed variable.
    """
    return tuple(_env_cap(*setting) for setting in _CAPS.values())


EDGE_KINDS = ("induced_matching", "eop")


class CapacityError(RuntimeError):
    """Instance exceeds the exact-solver cap; use a witness construction instead."""


@dataclass(frozen=True, slots=True)
class InvariantResult:
    """Exact invariant value with a verifying witness.

    ``witness`` indexes edges of the base graph for edge invariants and
    vertices otherwise.  ``nodes`` counts the branch-and-bound nodes expanded;
    for ``beta`` it is the count of the ``alpha`` solve it is derived from, and
    for ``nu_i_tree``, which runs no search, the tree's vertex count.
    """

    name: str
    value: int
    witness: tuple
    nodes: int
    proven_optimal: bool = True


@dataclass(frozen=True)
class ConflictGraph:
    """Auxiliary graph over edge indices of ``base``: row i of ``conflicts`` holds
    the edges that conflict with ``base.edges[i]``.

    Independent sets of the conflict graph are exactly the induced matchings
    (kind ``induced_matching``) or edge open packing sets (kind ``eop``) of
    the base graph.
    """

    base: Graph
    conflicts: tuple

    @property
    def item_count(self) -> int:
        return len(self.conflicts)


def _reach(adj: Sequence[int], rows: Sequence[int]) -> list:
    """One neighbourhood step: row v is the OR of ``rows[u]`` over neighbours u of v."""
    out = []
    for a in adj:
        row = 0
        while a:
            low = a & -a
            row |= rows[low.bit_length() - 1]
            a ^= low
        out.append(row)
    return out


def build_conflict_graph(g: Graph, kind: str) -> ConflictGraph:
    """Conflict graph of ``kind`` over the edges of g.

    Rows are ORs of per-vertex edge-incidence bitsets, gathered by
    :func:`_reach` like every conflict row.  With ``reach[v]`` the edges
    touching N[v], edge ab conflicts:

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
    reach = _reach(adj, inc)
    conf = []
    if kind == "induced_matching":
        for i, (a, b) in enumerate(g.edges):
            conf.append((reach[a] | reach[b]) & ~(1 << i))
    else:
        for a, b in g.edges:
            ends = inc[a] | inc[b]
            row = (reach[a] | reach[b]) & ~ends
            common = adj[a] & adj[b]
            while common:
                low = common & -common
                row |= inc[low.bit_length() - 1] & ends
                common ^= low
            conf.append(row)
    return ConflictGraph(g, tuple(conf))


# ---------------------------------------------------------------------------
# branch-and-bound maximum independent set core
# ---------------------------------------------------------------------------

def _greedy_set(count: int, adj: Sequence[int]) -> int:
    """A min-degree greedy independent set (ties to the lowest index), as a mask."""
    rem = (1 << count) - 1
    chosen = 0
    while rem:
        best_v = -1
        best_d = count
        r = rem
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            d = (adj[v] & rem).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
                if not d:
                    break
        rem &= ~(adj[best_v] | (1 << best_v))
        chosen |= 1 << best_v
    return chosen


def _candidate_orbits(adj: Sequence[int], rem: int) -> list:
    """Non-singleton orbits of automorphisms of G[rem], as item masks by least item.

    The automorphisms act on rem in place and fix every other item, so the
    orbits are closed over rem alone.
    """
    return [o for o in orbit_masks(len(adj), _automorphisms(adj, rem), rem) if o & (o - 1)]


def _search(
    count: int, adj: Sequence[int], all_optima: bool = False, root_orbits: Optional[Callable] = None
):
    """Deterministic exact MIS on an explicit stack; returns (size, witnesses, nodes).

    The incumbent starts as a min-degree greedy independent set (a pass
    not counted in ``nodes``).  It is the first witness, so the search only
    has to find or rule out a larger set; with ``all_optima`` only its size
    is kept, since the sets of that size are still to be listed.  Each node
    covers its candidates ``rem`` greedily by at most need - 1 cliques,
    ``need`` being the size a set must reach to count (beat the best so
    far, or equal it with ``all_optima``).  If the cliques cover ``rem``,
    the node is pruned: an independent set meets each clique at most once.
    Otherwise the uncovered candidates form the branch set B.  The node's
    group splits B's items into sets S_1 < ... < S_k by least item: the
    orbits that meet B, and the items of B outside every orbit as
    singletons.  Child i includes r_i = min S_i and excludes S_1..S_(i-1)
    and N[r_i], and child 1 is explored first.  The witnesses are sorted.

    This is exact: a set of ``need`` items from ``rem`` cannot fit in the
    need - 1 cliques, so it meets B.  If S_i is the first set it meets, a
    group element that fixes every S_j and maps one of its items onto r_i
    carries it into child i.  Under the trivial group the S_i are the
    singletons of B (the branch sets of MCQ-style clique solvers, applied
    to the complement), and each set of ``need`` items is reached once,
    through its least item of B; so with ``all_optima``, which uses no
    group, the witnesses are every maximum set in depth-first order.
    Otherwise the single witness is the greedy set if no larger set
    exists, and else the first maximum set found.

    Without ``root_orbits`` every node uses the trivial group.  With it,
    every unpruned node with at least ``SYMMETRY_MIN_ITEMS`` candidates and
    at least two items in B asks for its group (orbital branching, Ostrowski
    et al., Math. Prog. 126, 2011).  The root asks ``root_orbits()``, which
    returns the non-singleton orbits of a group of automorphisms of ``adj``,
    as masks (:func:`_solve` passes the base graph's automorphisms lifted to
    the items, :func:`_item_orbits`); a node below asks for those of its own
    subproblem, the conflict subgraph G[rem] (:func:`_candidate_orbits`).
    That is exact too: what the subtree can add depends only on G[rem].  A
    node whose orbits are all singletons, and everything below it, uses the
    trivial group.  A node whose B holds one item has one child whatever its
    group, so it asks for none and leaves its children's groups to them.
    """
    greedy = _greedy_set(count, adj)
    best = greedy.bit_count()
    tie = 0 if all_optima else 1
    found: list = [] if all_optima else [greedy]
    nodes = 0
    # frames are (remaining candidates, size, chosen vertices, symmetric?),
    # sets as bitmasks
    stack = [((1 << count) - 1, 0, 0, root_orbits is not None and not all_optima)]
    while stack:
        rem, size, chosen, sym = stack.pop()
        nodes += 1
        if not rem:
            if size > best:
                best, found = size, [chosen]
            elif all_optima and size == best:
                found.append(chosen)
            continue
        # cover rem by at most need - 1 greedy cliques; what is left is B
        need = best + tie - size
        cliques = 0
        left = rem
        while left and cliques < need - 1:
            low = left & -left
            left ^= low
            cand = adj[low.bit_length() - 1] & left
            while cand:
                lu = cand & -cand
                left ^= lu
                cand = (cand ^ lu) & adj[lu.bit_length() - 1]
            cliques += 1
        if not left:
            continue
        group = ()
        if sym and left & (left - 1) and rem.bit_count() >= SYMMETRY_MIN_ITEMS:
            # the root is the first node popped
            group = root_orbits() if nodes == 1 else _candidate_orbits(adj, rem)
            sym = bool(group)
        sets = [o for o in group if o & left]
        for o in sets:
            left &= ~o
        while left:
            low = left & -left
            sets.append(low)
            left ^= low
        if group:
            sets.sort(key=lambda s: s & -s)
        frames = []
        done = 0
        for s in sets:
            r = s & -s
            frames.append((rem & ~(done | adj[r.bit_length() - 1] | r), size + 1, chosen | r, sym))
            done |= s
        stack += reversed(frames)
    return best, [tuple(bits(c)) for c in found], nodes


def _gate(count: int, unit: str, max_items: Optional[int] = None) -> int:
    """The cap on ``unit``, ``max_items`` if given and else the one in force (read once).

    Every solver passes here before its cache or its search; ``count`` past
    the cap raises :class:`CapacityError`.
    """
    cap = _env_cap(*_CAPS[unit]) if max_items is None else max_items
    if count > cap:
        raise CapacityError(
            f"{count} {unit} exceed the exact-solver cap of {cap}; "
            "use a witness-only construction instead"
        )
    return cap


def _item_orbits(g: Graph, edge_items: bool) -> list:
    """Non-singleton item orbits under automorphisms of g, as masks by least item.

    Each generator of :func:`automorphism_generators`, found afresh for each
    root that asks, is lifted to the items: a vertex item maps as its
    vertex, an edge item uv to the edge p(u)p(v).  Every conflict graph here
    is defined by the structure of g alone, so a lifted automorphism of g is
    an automorphism of the conflict graph.
    """
    gens = automorphism_generators(g)
    if edge_items:
        index = g.edge_index
        gens = [[index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in g.edges] for p in gens]
    count = g.m if edge_items else g.n
    return [o for o in orbit_masks(count, gens) if o & (o - 1)]


def _solve(count: int, adj: Sequence[int], g: Graph, edge_items: bool) -> InvariantResult:
    # the root's group is lifted from Aut(g), found only if the root asks
    size, (witness,), nodes = _search(count, adj, root_orbits=lambda: _item_orbits(g, edge_items))
    return InvariantResult("mis", size, witness, nodes)


def max_independent_set(
    c: Union[ConflictGraph, Graph], max_items: Optional[int] = None
) -> InvariantResult:
    """Exact MIS of a conflict graph (over items) or a plain graph (over vertices)."""
    edge_items = isinstance(c, ConflictGraph)
    if edge_items:
        count, adj, g, unit = c.item_count, c.conflicts, c.base, "items"
    else:
        count, adj, g, unit = c.n, c.adj, c, "vertices"
    _gate(count, unit, max_items)
    return _solve(count, adj, g, edge_items)


# value cache of InvariantResults keyed by (invariant, adjacency rows); a
# Graph's validated rows fix its order and edge list, so the key is exact and
# keeps no edge list alive.  Entries are never mutated and solves are
# deterministic, so concurrent writers can only insert identical entries
_CACHE: dict = {}


def clear_cache() -> None:
    _CACHE.clear()


# ---------------------------------------------------------------------------
# named invariants
# ---------------------------------------------------------------------------

def _invariant(name: str, g: Graph, unit: str, solve, max_items: Optional[int]):
    """Gate, then cache, then ``solve(cap)``: the front door of every named invariant.

    ``unit`` says whether g's edges (``"items"``) or vertices meet the cap.
    Uncapped calls share one entry per ``(name, g.adj)``, however g was built.
    """
    cap = _gate(g.m if unit == "items" else g.n, unit, max_items)
    key = (name, g.adj)
    if max_items is None:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
    res = solve(cap)
    res = InvariantResult(name, res.value, res.witness, res.nodes, res.proven_optimal)
    if max_items is None:
        _CACHE[key] = res
    return res


def nu_i(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Induced matching number: max edges pairwise non-adjacent and unjoined."""

    def solve(cap):
        return max_independent_set(build_conflict_graph(g, "induced_matching"), cap)

    return _invariant("nu_i", g, "items", solve, max_items)


def rho_eo(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Edge open packing number: max edges with no third edge joining two of them."""

    def solve(cap):
        return max_independent_set(build_conflict_graph(g, "eop"), cap)

    return _invariant("rho_eo", g, "items", solve, max_items)


def alpha(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Independence number."""
    return _invariant("alpha", g, "vertices", lambda cap: max_independent_set(g, cap), max_items)


def beta(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Vertex cover number, n - alpha; witness is the complement of the alpha witness."""
    a = alpha(g, max_items)
    independent = set(a.witness)
    cover = tuple(v for v in range(g.n) if v not in independent)
    return InvariantResult("beta", g.n - a.value, cover, a.nodes)


def _vertex_packing(rows: Sequence[int], g: Graph) -> InvariantResult:
    # MIS over V(g), v conflicting with rows[v] - v
    return _solve(g.n, [row & ~(1 << v) for v, row in enumerate(rows)], g, False)


def rho_o(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Open packing number: max vertices with pairwise disjoint open neighborhoods."""
    return _invariant(
        "rho_o", g, "vertices", lambda cap: _vertex_packing(_reach(g.adj, g.adj), g), max_items
    )


def distance_packing(g: Graph, k: int, max_items: Optional[int] = None) -> InvariantResult:
    """k-packing number for k in {2, 3}: max vertices pairwise at distance > k."""
    if k not in (2, 3):
        raise ValueError("distance packing supports k in {2, 3}")

    def solve(cap):
        # radius-k balls: closed neighbourhoods, then k - 1 steps
        rows = [row | (1 << v) for v, row in enumerate(g.adj)]
        for _ in range(k - 1):
            rows = _reach(g.adj, rows)
        return _vertex_packing(rows, g)

    return _invariant(f"rho_{k}", g, "vertices", solve, max_items)


def gamma(g: Graph, max_items: Optional[int] = None) -> InvariantResult:
    """Domination number via exact set cover over closed neighborhoods.

    Branches on the uncovered vertex with the fewest covering candidates,
    candidates ordered by coverage of the still-uncovered set (ties to the
    lowest index).
    """

    def solve(cap):
        n = g.n
        closed = [g.adj[v] | (1 << v) for v in range(n)]
        full = (1 << n) - 1
        unc = full
        greedy = []
        while unc:
            v = max(range(n), key=lambda x: ((closed[x] & unc).bit_count(), -x))
            greedy.append(v)
            unc &= ~closed[v]
        best = sorted(greedy)
        best_size = len(greedy)
        nodes = 0
        # frames are (uncovered set, chosen vertices); children are pushed in
        # reverse, so they are explored in candidate order, depth first
        stack = [(full, ())]
        while stack:
            unc, chosen = stack.pop()
            nodes += 1
            if unc == 0:
                if len(chosen) < best_size:
                    best_size, best = len(chosen), sorted(chosen)
                continue
            maxcov = max((c & unc).bit_count() for c in closed)
            lower = -(-unc.bit_count() // maxcov)
            if len(chosen) + lower >= best_size:
                continue
            u = min(bits(unc), key=lambda x: (closed[x].bit_count(), x))
            cands = sorted(
                bits(closed[u]),
                key=lambda v: (-(closed[v] & unc).bit_count(), v),
            )
            stack.extend((unc & ~closed[v], chosen + (v,)) for v in reversed(cands))
        return InvariantResult("gamma", best_size, tuple(best), nodes)

    return _invariant("gamma", g, "vertices", solve, max_items)


def has_perfect_code(g: Graph) -> Optional[tuple]:
    """A 2-packing whose closed neighborhoods partition V, or None.

    Exact cover search: the lowest uncovered vertex must be covered by
    exactly one code vertex from its closed neighborhood.  Graphs above the
    vertex cap raise :class:`CapacityError`.
    """
    n = g.n
    _gate(n, "vertices")
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    # frames are (covered set, code so far); children are pushed in reverse,
    # so they are tried in increasing order, depth first
    stack = [(0, ())]
    while stack:
        covered, code = stack.pop()
        if covered == full:
            return tuple(sorted(code))
        u = ~covered & full
        u = (u & -u).bit_length() - 1
        stack.extend(
            (covered | closed[w], code + (w,))
            for w in reversed(list(bits(closed[u])))
            if closed[w] & covered == 0
        )
    return None


# ---------------------------------------------------------------------------
# witness checking and optimal-set enumeration
# ---------------------------------------------------------------------------

def verify_witness(g: Graph, w, kind: str, k: Optional[int] = None) -> bool:
    """Check a witness against the paper's definition in one pass; never consults the solver.

    An edge witness S must induce exactly S: each end of S sees among the
    ends just its partners along S.  For ``induced_matching`` each end has
    one partner; for ``eop`` each edge has an end with no other, so every
    component is a star.  A vertex witness grows a ball around each vertex
    (radius k for ``k_packing``, the open neighbourhood for ``open_packing``,
    the closed one otherwise) and looks where the balls meet.
    """
    w = tuple(w)
    adj = g.adj
    edge_kind = kind in EDGE_KINDS
    count = g.m if edge_kind else g.n
    for i in w:
        if not 0 <= i < count:
            raise ValueError(f"{'edge index' if edge_kind else 'vertex'} {i} out of range")
    if len(set(w)) != len(w):
        return False
    if edge_kind:
        pairs = [g.edges[i] for i in w]
        partners: dict = {}
        for u, v in pairs:
            partners[u] = partners.get(u, 0) | 1 << v
            partners[v] = partners.get(v, 0) | 1 << u
        ends = sum(1 << v for v in partners)
        if any(adj[v] & ends != p for v, p in partners.items()):
            return False
        if kind == "induced_matching":
            return len(partners) == 2 * len(pairs)
        return all(partners[u].bit_count() == 1 or partners[v].bit_count() == 1 for u, v in pairs)
    if kind == "k_packing":
        if k is None:
            raise ValueError("k_packing needs k")
        members = sum(1 << v for v in w)
        for v in w:
            # grow the ball around v one distance r at a time, up to k; the
            # frontier is its newest layer
            ball = frontier = 1 << v
            r = 1
            while frontier and r <= k:
                step = 0
                for u in bits(frontier):
                    step |= adj[u]
                frontier = step & ~ball
                if frontier & members:
                    return False
                ball |= frontier
                r += 1
        return True
    if kind not in ("open_packing", "dominating", "perfect_code"):
        raise ValueError(f"unknown witness kind {kind!r}")
    covered = overlap = 0
    for v in w:
        ball = adj[v] if kind == "open_packing" else adj[v] | 1 << v
        overlap |= covered & ball
        covered |= ball
    if kind == "open_packing":
        return not overlap
    return covered == (1 << g.n) - 1 and (kind == "dominating" or not overlap)


def enumerate_optimal(c: ConflictGraph, max_items: Optional[int] = None) -> list:
    """All maximum independent sets of a conflict graph, as sorted witnesses."""
    _gate(c.item_count, "items", max_items)
    return _search(c.item_count, c.conflicts, all_optima=True)[1]
