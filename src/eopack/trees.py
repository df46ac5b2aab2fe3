"""Tree algorithms: induced matching DP and the spider-assembly family.

A spider is a star with every edge subdivided once.  The family recognized
here consists of trees obtained from disjoint spiders (each with at least two
legs) by adding connecting extra edges such that every extra edge touches a
spider center and every spider keeps at least two leaves of tree-degree 1.
Together with P_1 and P_2 these are exactly the trees whose induced matching
number equals their edge open packing number, which is what the harness
checks against the exact solvers.

One verifier, :func:`verify_spider_partition`, decides membership: the
recognizer returns a certificate only once it verifies, and the generator
raises the verifier's first fault for an invalid wiring.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, GraphError, SplitMix64, is_connected
from .invariants import InvariantResult


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


@dataclass(frozen=True)
class SpiderPartition:
    """Certificate of family membership.

    ``spiders`` is a tuple of ``(center, ((support, leaf), ...))`` entries
    partitioning the vertex set; ``extra_edges`` are the tree edges in no
    spider.  ``trivial`` marks the P_1/P_2 outcome, where both tuples are
    empty.
    """

    spiders: tuple
    extra_edges: tuple
    trivial: bool = False

    @property
    def leg_counts(self) -> tuple:
        return tuple(len(legs) for _, legs in self.spiders)

    def pendant_edges(self) -> tuple:
        return tuple(
            (min(s, l), max(s, l)) for _, legs in self.spiders for s, l in legs
        )


def _spider_edges(spiders) -> set:
    """Center-support and support-leaf edges of ``spiders``, as sorted pairs."""
    out = set()
    for center, legs in spiders:
        for s, l in legs:
            out.add((min(center, s), max(center, s)))
            out.add((min(s, l), max(s, l)))
    return out


def _partition_fault(t: Graph, part: SpiderPartition) -> str:
    """The first family condition ``part`` breaks on ``t``, or "" if none.

    The one place the family conditions are written.  Once ``t`` is a tree,
    each spider spans exactly its own 2k edges and there are exactly
    (spiders - 1) extra edges, so neither count needs a check of its own.
    """
    named = [x for e in part.extra_edges for x in e]
    for center, legs in part.spiders:
        named.append(center)
        named.extend(x for leg in legs for x in leg)
    if any(not 0 <= x < t.n for x in named):
        return "certificate names a vertex outside the graph"
    if not is_tree(t):
        return "graph is not a tree"
    if part.trivial:
        return "" if t.n <= 2 else "trivial certificate for more than two vertices"
    seen: set = set()
    centers = set()
    for i, (center, legs) in enumerate(part.spiders):
        if len(legs) < 2:
            return f"spider {i} has fewer than 2 legs"
        centers.add(center)
        group = {center}
        for s, l in legs:
            if not (t.has_edge(center, s) and t.has_edge(s, l)):
                return f"spider {i} leg ({s},{l}) is not a path from its center"
            group.update((s, l))
        if len(group) != 1 + 2 * len(legs) or group & seen:
            return f"spider {i} repeats a vertex"
        seen |= group
        if sum(1 for _, l in legs if t.degree(l) == 1) < 2:
            return f"spider {i} keeps fewer than two untouched leaves"
    if len(seen) != t.n:
        return "spiders do not cover every vertex"
    spider_edges = _spider_edges(part.spiders)
    extras = tuple(e for e in t.edges if e not in spider_edges)
    if extras != tuple(part.extra_edges):
        return "extra edges differ from the tree edges in no spider"
    for u, v in extras:
        if u not in centers and v not in centers:
            return f"extra edge ({u},{v}) touches no center"
    return ""


def verify_spider_partition(t: Graph, part: SpiderPartition) -> bool:
    """Validate a certificate against the family conditions, from scratch."""
    return not _partition_fault(t, part)


# ---------------------------------------------------------------------------
# linear induced-matching DP
# ---------------------------------------------------------------------------

def nu_i_tree(t: Graph) -> InvariantResult:
    """Exact induced matching number of a tree by rooted dynamic programming.

    Per-vertex states: A = vertex unmatched and no child matched (parent may
    match into it), B = vertex unmatched (parent is matched elsewhere),
    C = unconstrained.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    n = t.n
    if n == 1:
        return InvariantResult("nu_i_tree", 0, (), 0)

    parent = [-1] * n
    order = [0]
    seen = 1
    for v in order:
        for u in t.neighbors(v):
            if not (seen >> u) & 1:
                seen |= 1 << u
                parent[u] = v
                order.append(u)
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)

    A = [0] * n
    B = [0] * n
    C = [0] * n
    match_child = [-1] * n  # C-state choice; -1 means all children take C
    for v in reversed(order):
        ch = children[v]
        sum_b = sum(B[c] for c in ch)
        sum_c = sum(C[c] for c in ch)
        A[v] = sum_b
        B[v] = sum_c
        best, pick = sum_c, -1
        for c in ch:
            cand = 1 + A[c] + sum_b - B[c]
            if cand > best:
                best, pick = cand, c
        C[v] = best
        match_child[v] = pick

    chosen = []
    stack = [(0, "C")]
    while stack:
        v, state = stack.pop()
        if state == "A":
            stack.extend((c, "B") for c in children[v])
        elif state == "B":
            stack.extend((c, "C") for c in children[v])
        else:
            pick = match_child[v]
            if pick == -1:
                stack.extend((c, "C") for c in children[v])
            else:
                chosen.append((min(v, pick), max(v, pick)))
                stack.append((pick, "A"))
                stack.extend((c, "B") for c in children[v] if c != pick)
    witness = tuple(sorted(t.edge_index[e] for e in chosen))
    return InvariantResult("nu_i_tree", C[0], witness, n)


# ---------------------------------------------------------------------------
# family recognition
# ---------------------------------------------------------------------------

def recognize_family_f(t: Graph) -> Optional[SpiderPartition]:
    """Certificate-producing membership test.

    Backtracks over role assignments (center / support / leaf), visiting
    vertices by ascending degree so tree leaves force their legs early.
    Edges between assigned vertices are classified incrementally and an edge
    that is neither a spider edge nor a center-touching extra edge fails the
    branch at once; a complete assignment counts only if its certificate
    verifies.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    n = t.n
    if n <= 2:
        return SpiderPartition((), (), trivial=True)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    role = [None] * n
    cen = [-1] * n  # supports: owning center
    lf = [-1] * n  # supports: owned leaf
    order = sorted(range(n), key=lambda v: (t.degree(v), v))

    def edge_ok(u: int, v: int) -> bool:
        ru, rv = role[u], role[v]
        if ru == "c" and rv == "s" and cen[v] == u:
            return True
        if rv == "c" and ru == "s" and cen[u] == v:
            return True
        if ru == "s" and rv == "l" and lf[u] == v:
            return True
        if rv == "s" and ru == "l" and lf[v] == u:
            return True
        return ru == "c" or rv == "c"

    def edges_ok(u: int) -> bool:
        return all(
            role[w] is None or edge_ok(u, w) for w in t.neighbors(u)
        )

    def center_feasible(c: int) -> bool:
        pool = 0
        for w in t.neighbors(c):
            if role[w] is None or (role[w] == "s" and cen[w] == c):
                pool += 1
        return pool >= 2

    def finalize() -> Optional[SpiderPartition]:
        # spiders by ascending center, legs by ascending support
        spiders = tuple(
            (v, tuple((s, lf[s]) for s in range(n) if cen[s] == v))
            for v in range(n)
            if role[v] == "c"
        )
        spider_edges = _spider_edges(spiders)
        extras = tuple(e for e in t.edges if e not in spider_edges)
        part = SpiderPartition(spiders, extras)
        return None if _partition_fault(t, part) else part

    def leg(s: int, c: int, l: int, idx: int) -> Optional[SpiderPartition]:
        # assign support s with center c and leaf l, recurse, then undo
        if role[c] in ("s", "l"):
            return None
        new_center = role[c] is None
        if new_center and t.degree(c) < 2:
            return None
        role[s], cen[s], lf[s] = "s", c, l
        role[l] = "l"
        if new_center:
            role[c] = "c"
        res = None
        ok = edges_ok(s) and edges_ok(l)
        if ok and new_center:
            ok = edges_ok(c) and center_feasible(c)
        if ok:
            res = solve(idx + 1)
        role[s], cen[s], lf[s] = None, -1, -1
        role[l] = None
        if new_center:
            role[c] = None
        return res

    def solve(idx: int) -> Optional[SpiderPartition]:
        while idx < n and role[order[idx]] is not None:
            idx += 1
        if idx == n:
            return finalize()
        u = order[idx]
        if t.degree(u) >= 2:
            # center
            role[u] = "c"
            if center_feasible(u) and edges_ok(u):
                res = solve(idx + 1)
                if res is not None:
                    return res
            role[u] = None
            # support with chosen center and leaf
            nbrs = t.neighbors(u)
            for c in nbrs:
                for l in nbrs:
                    if l != c and role[l] is None:
                        res = leg(u, c, l, idx)
                        if res is not None:
                            return res
        # leaf with chosen support and its center
        for s in t.neighbors(u):
            if role[s] is not None or t.degree(s) < 2:
                continue
            for c in t.neighbors(s):
                if c != u:
                    res = leg(s, c, u, idx)
                    if res is not None:
                        return res
        return None

    return solve(0)


# ---------------------------------------------------------------------------
# family generation
# ---------------------------------------------------------------------------

def generate_family_f(
    ks: Sequence[int], wiring: Optional[Sequence] = None, seed: int = 0
):
    """Build a family member from spider leg counts plus connecting edges.

    Spider i occupies a contiguous block: center first, then support/leaf
    pairs per leg.  ``wiring`` is a list of vertex pairs joining the spiders
    into a tree (each touching a center, leaving two untouched leaves per
    spider); when omitted, a seeded random wiring is drawn, rejecting
    attachments that would break the two-free-leaves condition.
    Returns ``(tree, certificate)``; raises :class:`GraphError` naming the
    first family condition an invalid wiring breaks.
    """
    ks = list(ks)
    if not ks or any(k < 2 for k in ks):
        raise GraphError("every spider needs at least 2 legs")
    spiders = []
    base = 0
    for k in ks:
        legs = tuple((base + 1 + 2 * leg, base + 2 + 2 * leg) for leg in range(k))
        spiders.append((base, legs))
        base += 2 * k + 1
    nspiders = len(ks)
    offsets = [center for center, _ in spiders]
    leaves_of = [{l for _, l in legs} for _, legs in spiders]

    def spider_of(v: int) -> int:
        return bisect_right(offsets, v) - 1

    if wiring is None:
        rng = SplitMix64(seed)
        touched = [set() for _ in range(nspiders)]
        wiring = []
        for i in range(1, nspiders):
            j = rng.below(i)
            pick = None
            for _ in range(30):
                if rng.below(2) == 0:
                    u, v = offsets[i], offsets[j] + rng.below(2 * ks[j] + 1)
                else:
                    u, v = offsets[j], offsets[i] + rng.below(2 * ks[i] + 1)
                bad = False
                for w in (u, v):
                    sw = spider_of(w)
                    if w in leaves_of[sw]:
                        if len(leaves_of[sw] - touched[sw] - {w}) < 2:
                            bad = True
                if not bad:
                    pick = (u, v)
                    break
            if pick is None:
                pick = (offsets[i], offsets[j])
            u, v = pick
            for w in (u, v):
                sw = spider_of(w)
                if w in leaves_of[sw]:
                    touched[sw].add(w)
            wiring.append((min(u, v), max(u, v)))
    else:
        wiring = [(min(u, v), max(u, v)) for u, v in wiring]

    if len(wiring) != nspiders - 1:
        raise GraphError("wiring must contain exactly one edge per added spider")
    tree = Graph.from_edges(base, list(_spider_edges(spiders)) + wiring)
    cert = SpiderPartition(tuple(spiders), tuple(sorted(wiring)))
    fault = _partition_fault(tree, cert)
    if fault:
        raise GraphError(fault)
    return tree, cert
