"""Tree algorithms: induced matching DP and the spider-assembly family.

A spider is a star with every edge subdivided once.  The family recognized
here consists of trees obtained from disjoint spiders (each with at least two
legs) by adding connecting extra edges such that every extra edge touches a
spider center and every spider keeps at least two leaves of tree-degree 1.
Together with P_1 and P_2 these are exactly the trees whose induced matching
number equals their edge open packing number, which is what the harness
checks against the exact solvers.

Membership forces every role, so recognition needs no search.  A tree leaf
is always a spider leaf, so its neighbour is a support and that support's
other neighbours are centers; this finds every center, and each other vertex
pairs with its one non-center neighbour into a leg.  Only a leg's center is
free: a support of a tree leaf takes its least center, a center short of two
such legs takes one over by an augmenting path, and any other leg takes its
end of smaller (degree, vertex) as support, with that vertex's least center.

One verifier, :func:`verify_spider_partition`, decides membership: the
recognizer returns a certificate only once it verifies, and the generator
raises the verifier's first fault for an invalid wiring.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, GraphError, SplitMix64, _bfs, is_connected
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
    order, parent = _bfs(t.adj, 0)
    children = [[] for _ in range(n)]
    for v, p in zip(order[1:], parent[1:]):
        children[p].append(v)

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
    """Certificate-producing membership test, from the roles membership forces.

    In a member every tree leaf is a spider leaf, so its neighbour is a
    support whose other neighbours are all centers, and every center owns
    two such supports: this finds every center.  Every other vertex must
    then have exactly one non-center neighbour; these pairs are the legs.
    Tie-breaks, which fix the certificate returned:

    - each support of a tree leaf joins its least adjacent center;
    - centers are then taken in ascending order, and one left with fewer
      than two such legs takes one over by a shortest augmenting path
      (breadth first, neighbours ascending) from the first center found
      with three or more; if there is none the tree is not a member;
    - every other leg takes as support its end of smaller (degree, vertex),
      with that vertex's least center.

    Spiders are listed by ascending center and legs by ascending support.
    The certificate is returned only if :func:`verify_spider_partition`
    accepts it, so soundness rests on the verifier alone.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    n = t.n
    if n <= 2:
        return SpiderPartition((), (), trivial=True)
    # support -> leaf; a support of two tree leaves makes one of them a
    # center, which cannot own two legs
    leaf = {t.neighbors(v)[0]: v for v in range(n) if t.degree(v) == 1}
    centers = {c for s, l in leaf.items() for c in t.neighbors(s) if c != l}
    partner = {}
    for v in range(n):
        if v not in centers:
            others = [w for w in t.neighbors(v) if w not in centers]
            if len(others) != 1:
                return None
            partner[v] = others[0]

    cen = {s: min(c for c in t.neighbors(s) if c != l) for s, l in leaf.items()}
    count = dict.fromkeys(centers, 0)
    for c in cen.values():
        count[c] += 1
    for d in sorted(centers):
        while count[d] < 2:
            via = {d: None}  # center -> (center it hands a support to, support)
            queue = [d]
            for c in queue:
                if count[c] > 2:
                    break
                for s in t.neighbors(c):
                    if s in cen and cen[s] not in via:
                        via[cen[s]] = (c, s)
                        queue.append(cen[s])
            else:
                return None
            count[c] -= 1
            count[d] += 1
            while c != d:
                c, s = via[c]
                cen[s] = c

    for v, w in partner.items():
        if (t.degree(v), v) < (t.degree(w), w) and v not in leaf and w not in leaf:
            cen[v] = min(c for c in t.neighbors(v) if c in centers)
            leaf[v] = w
    legs = {c: [] for c in sorted(centers)}
    for s in sorted(cen):
        legs[cen[s]].append((s, leaf[s]))
    spiders = tuple((c, tuple(ls)) for c, ls in legs.items())
    spider_edges = _spider_edges(spiders)
    extras = tuple(e for e in t.edges if e not in spider_edges)
    part = SpiderPartition(spiders, extras)
    return None if _partition_fault(t, part) else part


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
