"""Statement registry and corpus runner.

Every supported claim about induced matchings, edge open packings and their
behavior on products is a named executable check: a corpus of instances plus
a per-instance predicate wired to the exact solvers and witness builders.
Reports are machine readable and deterministic for a fixed (id, seed, budget)
apart from wall-clock timing.

A check is declared once, where its runner is defined: the
``@_check(id, citation, corpus, budget_s)`` decorator adds a :class:`Check`
to ``REGISTRY``, so ``list_checks()`` follows declaration order, and a repeated
id is a ``ValueError``.  A runner is a
generator that yields one ``(inputs, expected, actual)`` record per instance.
:func:`run_check` drives it and is the one place that reads the clock, counts
instances and builds failure entries.  It checks the deadline before every
``next()``, so no runner starts an instance once its budget is spent, and the
partial run is reported as ``skipped``: a check never passes on a partial run.

The product checks build their products through one memo (:func:`_product`,
:func:`_rooted`), which keeps each distinct product for as long as the
outermost ``run_check``, pool task or in-process ``run_suite`` that uses it;
only ``prism-3packing`` and ``corona-formula``, whose products no other
instance builds, call the constructors directly.
Instances that are isomorphic by construction build one labelled graph: box
and strong products take their factors in one order, and a rooted product is
rooted at the least vertex of its root's orbit.  So the duplicate is a memo
hit and a value-cache hit, while the records stay one per ordered pair and
per root.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator, Optional

from .constructions import (
    bipartite_eop_witness,
    hamming_perfect_code,
    hypercube_eop_witness,
    hypercube_table,
    prism_3packing_witness,
)
from .graph import (
    Graph,
    SplitMix64,
    automorphism_generators,
    bipartition,
    bits,
    complete,
    cycle,
    enumerate_graphs,
    enumerate_trees,
    figure1,
    figure1_xy_edges,
    hypercube,
    orbit_masks,
    path,
    spider,
    star,
    subdivided_star,
    write_graph6,
)
from .invariants import (
    CapacityError,
    alpha,
    beta,
    build_conflict_graph,
    distance_packing,
    enumerate_optimal,
    gamma,
    has_perfect_code,
    nu_i,
    rho_eo,
    rho_o,
    verify_witness,
)
from .products import cartesian, corona, product, rooted_product
from .trees import generate_family_f, recognize_family_f, verify_spider_partition


@dataclass(frozen=True)
class Check:
    """One named statement with its corpus and executable predicate."""

    id: str
    citation: str
    corpus: str
    budget_s: float
    runner: Callable


@dataclass(frozen=True)
class CheckRun:
    """Settings handed to check runners: the seed and the corpus size cap."""

    seed: int
    max_n: Optional[int] = None

    def limit(self, default: int) -> int:
        if self.max_n is None:
            return default
        return min(default, self.max_n)


@dataclass
class CheckReport:
    id: str
    citation: str
    instances_run: int
    failures: list
    wall_ms: int
    status: str
    capacity_skips: int = field(default=0, compare=False)
    error: Optional[str] = None


def _within(lo, val, hi=None) -> str:
    """``"holds"`` when lo <= val (and val <= hi, if given), else the miss."""
    if lo <= val and (hi is None or val <= hi):
        return "holds"
    return f"{val} outside [{lo},{hi}]"


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, str, bool, float)) or x is None:
        return x
    return str(x)


# check id -> Check, in declaration order
REGISTRY: dict = {}
# checks that solve the same product graphs; run_suite hands the selected members of each
# chain to one pool task, run in registry order, so later members take that task's products
# from the product memo and their values from the worker's value cache, instead of building
# and solving them again in another worker
_CHAINS = (
    ("lex-nu-equality", "nu-box-analogues"),  # nu_I of G lex H, G strong H and G box H
    ("lex-eop-bounds", "lex-min-box", "box-eop-bounds"),  # rho_e^o of the same products
)


def _check(id: str, citation: str, corpus: str, budget_s: float):
    """Register the decorated runner as check ``id``, in declaration order."""

    def register(runner: Callable) -> Callable:
        if id in REGISTRY:
            raise ValueError(f"check id {id!r} is declared twice")
        REGISTRY[id] = Check(id, citation, corpus, budget_s, runner)
        return runner

    return register


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _graphs_upto(nmax: int) -> tuple:
    out = []
    for n in range(1, nmax + 1):
        out.extend(enumerate_graphs(n, dedup=True))
    return tuple(out)


def _trees_upto(nmax: int) -> list:
    out = [path(1)] if nmax >= 1 else []
    for n in range(2, nmax + 1):
        out.extend(enumerate_trees(n, dedup=True))
    return out


def _pairs(run: CheckRun, nmax: int = 4, ordered: bool = True) -> Iterator:
    gs = _graphs_upto(run.limit(nmax))
    return ((g, h) for i, g in enumerate(gs) for h in gs[0 if ordered else i:])


def _partitions_upto(total: int):
    """All nondecreasing positive tuples with sum <= total."""

    def rec(prefix, minimum, left):
        for v in range(minimum, left + 1):
            yield prefix + (v,)
            yield from rec(prefix + (v,), v, left - v)

    yield from rec((), 1, total)


def _assembly_leg_counts(rng: SplitMix64) -> Iterator:
    """Seeded spider leg counts for assemblies of at most 22 edges, endlessly."""
    while True:
        nsp = 1 + rng.below(3)
        ks = [2 + rng.below(3) for _ in range(nsp)]
        if sum(2 * k for k in ks) + nsp - 1 <= 22:
            yield ks


def _wounded_spider(ell: int, t: int) -> Graph:
    return subdivided_star([2] * t + [1] * (ell - t))


def _upper_sharp_g(ell: int) -> Graph:
    # star with a pendant 2-path glued to its first leaf
    edges = [(0, i) for i in range(1, ell + 1)]
    edges += [(ell + 1, ell + 2), (1, ell + 1)]
    return Graph.from_edges(ell + 3, edges)


# ---------------------------------------------------------------------------
# the product memo
# ---------------------------------------------------------------------------

# (kind, g, h) -> the product graph, ("rooted", g, h, root) -> the rooted product and
# ("roots", h) -> h's orbit minima; filled by the product checks and emptied when the
# outermost run_check, pool task or in-process run_suite that uses it returns
_PRODUCTS: dict = {}
_memo_users = 0


@contextmanager
def _product_memo():
    """Keep :data:`_PRODUCTS` for the body; the outermost user empties it on the way out."""
    global _memo_users
    _memo_users += 1
    try:
        yield
    finally:
        _memo_users -= 1
        if not _memo_users:
            _PRODUCTS.clear()


def _memo(key, build):
    # a hit hashes the key's graphs once; no memo value is None
    value = _PRODUCTS.get(key)
    if value is None:
        value = _PRODUCTS[key] = build()
    return value


def _product(kind: str, g: Graph, h: Graph) -> Graph:
    """The ``kind`` product of g and h, built once per memo.

    G box H and G strong H are isomorphic to H box G and H strong G, so those
    kinds take their factors in ``(n, edges)`` order: both orders of a pair
    build one labelled graph, and the second is a value-cache hit.
    """
    if kind in ("cartesian", "strong") and (h.n, h.edges) < (g.n, g.edges):
        g, h = h, g
    return _memo((kind, g, h), lambda: product(kind, g, h).graph)


def _orbit_minima(h: Graph) -> tuple:
    """Each vertex's least orbit-mate under the group ``automorphism_generators(h)`` generates."""
    least = [0] * h.n
    for orbit in orbit_masks(h.n, automorphism_generators(h)):
        for v in bits(orbit):
            least[v] = (orbit & -orbit).bit_length() - 1
    return tuple(least)


def _rooted(g: Graph, h: Graph, root: int) -> Graph:
    """The rooted product of g and h at ``root``, built once per memo at root's orbit minimum.

    An automorphism of h taking one root to the other, applied in every fiber,
    is an isomorphism of the two rooted products, so a subgroup's orbits suffice.
    """
    v = _memo(("roots", h), lambda: _orbit_minima(h))[root]
    return _memo(("rooted", g, h, v), lambda: rooted_product(g, h, v).graph)


# ---------------------------------------------------------------------------
# checks, in registry order
# ---------------------------------------------------------------------------

@_check(
    "paths-formulas",
    "nu_I(P_n) = floor((n+1)/3); rho_e^o(P_n) = (n+1)/2 if n = 3 (mod 4), "
    "else ceil((n-1)/2)",
    "paths P_1..P_20",
    30,
)
def _paths_formulas(run: CheckRun) -> Iterator:
    for n in range(1, run.limit(20) + 1):
        p = path(n)
        want_rho = (n + 1) // 2 if n % 4 == 3 else n // 2
        yield [p], ((n + 1) // 3, want_rho), (nu_i(p).value, rho_eo(p).value)


@_check(
    "spider-equality",
    "a spider with k >= 2 legs has nu_I = rho_e^o = k",
    "spiders k = 2..5",
    30,
)
def _spider_equality(run: CheckRun) -> Iterator:
    for k in range(2, 6):
        s = spider(k)
        yield [s], (k, k), (nu_i(s).value, rho_eo(s).value)


@_check(
    "family-f-value-uniqueness",
    "a spider assembly with leg counts k_1..k_m has nu_I = sum k_i and a "
    "unique maximum induced matching, the set of pendant spider edges",
    "50 seeded assemblies with at most 22 edges",
    120,
)
def _family_f_value_uniqueness(run: CheckRun) -> Iterator:
    rng = SplitMix64(run.seed * 2 + 1)
    for ks in islice(_assembly_leg_counts(rng), 50):
        tree, cert = generate_family_f(ks, seed=rng.next64())
        optima = enumerate_optimal(build_conflict_graph(tree, "induced_matching"))
        pendant = tuple(sorted(tree.edge_index[e] for e in cert.pendant_edges()))
        yield (
            [tree],
            (sum(ks), 1, True),
            (nu_i(tree).value, len(optima), optima[0] == pendant if optima else False),
        )


@_check(
    "trees-iff-family-f",
    "a tree satisfies nu_I = rho_e^o iff it is P_1, P_2, or a spider assembly",
    "all unlabeled trees on at most 9 vertices",
    120,
)
def _trees_iff_family_f(run: CheckRun) -> Iterator:
    for t in _trees_upto(run.limit(9)):
        part = recognize_family_f(t)
        member = part is not None
        certified = part is None or verify_spider_partition(t, part)
        equal = nu_i(t).value == rho_eo(t).value
        yield [t], (equal, True), (member, certified)


@_check(
    "subdivided-star-lemma",
    "a subdivided star has nu_I = rho_e^o iff it is P_2, P_5, or a spider "
    "with at least 3 legs",
    "all subdivided stars on at most 14 vertices",
    60,
)
def _subdivided_star_lemma(run: CheckRun) -> Iterator:
    for lens in _partitions_upto(run.limit(13)):
        g = subdivided_star(list(lens))
        k, total = len(lens), sum(lens)
        want = (k <= 2 and total in (1, 4)) or (k >= 3 and all(l == 2 for l in lens))
        yield (
            ["lens=" + ",".join(map(str, lens)), g],
            want,
            nu_i(g).value == rho_eo(g).value,
        )


@_check(
    "lex-nu-equality",
    "nu_I(G lex H) = alpha(G) nu_I(H) whenever H has an edge; for "
    "edgeless H the product is a blow-up of G and keeps nu_I(G)",
    "ordered pairs of unlabeled graphs, at most 4 vertices per factor",
    600,
)
def _lex_nu_equality(run: CheckRun) -> Iterator:
    # the product formula needs an edge in H: an edgeless H only blows up
    # every vertex of G, which leaves nu_I(G) unchanged
    for g, h in _pairs(run):
        want = alpha(g).value * nu_i(h).value if h.m else nu_i(g).value
        yield [g, h], want, nu_i(_product("lex", g, h)).value


@_check(
    "lex-eop-bounds",
    "rho_e^o(G) alpha(H) <= rho_e^o(G lex H) <= rho_e^o(G) alpha(H) + "
    "rho_e^o(H) (alpha(G) - rho_e^o(G))",
    "ordered pairs of unlabeled graphs, at most 4 vertices per factor",
    600,
)
def _lex_eop_bounds(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        val = rho_eo(_product("lex", g, h)).value
        lo = rho_eo(g).value * alpha(h).value
        hi = lo + rho_eo(h).value * (alpha(g).value - rho_eo(g).value)
        yield [g, h], "holds", _within(lo, val, hi)


@_check(
    "lex-eop-sharpness",
    "a star with a pendant 2-path attains the upper lex bound; wounded "
    "spiders attain the lower lex bound",
    "ell in {2,3}, t in {0,1}, second factors P_3 and K_3",
    120,
)
def _lex_eop_sharpness(run: CheckRun) -> Iterator:
    hs = [path(3), complete(3)]
    for ell in (2, 3):
        g_up = _upper_sharp_g(ell)
        for h in hs:
            val = rho_eo(_product("lex", g_up, h)).value
            hi = rho_eo(g_up).value * alpha(h).value + rho_eo(h).value * (
                alpha(g_up).value - rho_eo(g_up).value
            )
            yield [f"upper ell={ell}", g_up, h], hi, val
        for t in (0, 1):
            g_low = _wounded_spider(ell, t)
            for h in hs:
                val = rho_eo(_product("lex", g_low, h)).value
                yield (
                    [f"lower ell={ell} t={t}", g_low, h],
                    rho_eo(g_low).value * alpha(h).value,
                    val,
                )


@_check(
    "lex-nu-remark",
    "nu_I(P_2 lex P_{3n+1}) = n, strictly below nu_I(P_2) alpha(P_{3n+1})",
    "n = 1..3",
    60,
)
def _lex_nu_remark(run: CheckRun) -> Iterator:
    for n in (1, 2, 3):
        g = _product("lex", path(2), path(3 * n + 1))
        val = nu_i(g).value
        trivial_bound = nu_i(path(2)).value * alpha(path(3 * n + 1)).value
        yield [f"n={n}"], (n, True), (val, val < trivial_bound)


@_check(
    "direct-nu-bound",
    "nu_I(G x H) >= 2 nu_I(G) nu_I(H); P_{3m} x K_n attains 2m",
    "unordered pairs at most 4 vertices per factor; (m,n) in "
    "{(1,3),(1,4),(2,3)}",
    600,
)
def _direct_nu_bound(run: CheckRun) -> Iterator:
    for g, h in _pairs(run, ordered=False):
        val = nu_i(_product("direct", g, h)).value
        yield [g, h], "holds", _within(2 * nu_i(g).value * nu_i(h).value, val)
    for m, n in ((1, 3), (1, 4), (2, 3)):
        p = _product("direct", path(3 * m), complete(n))
        yield [f"P_{3*m} x K_{n}"], 2 * m, nu_i(p).value


@_check(
    "direct-eop-bound",
    "rho_e^o(G x H) >= max(rho_e^o(G) delta(H) rho^o(H), rho_e^o(H) "
    "delta(G) rho^o(G)); K_m x K_n attains m-1 for m >= n >= 3",
    "unordered pairs at most 4 vertices per factor; complete pairs up to "
    "(5,3)",
    600,
)
def _direct_eop_bound(run: CheckRun) -> Iterator:
    for g, h in _pairs(run, ordered=False):
        val = rho_eo(_product("direct", g, h)).value
        b1 = rho_eo(g).value * h.min_degree() * rho_o(h).value
        b2 = rho_eo(h).value * g.min_degree() * rho_o(g).value
        yield [g, h], "holds", _within(max(b1, b2), val)
    for m, n in ((3, 3), (4, 3), (4, 4), (5, 3)):
        p = _product("direct", complete(m), complete(n))
        yield [f"K_{m} x K_{n}"], m - 1, rho_eo(p).value


@_check(
    "direct-eop-counterexample",
    "rho_e^o(P_3 x P_{12n-5}) = 24n - 10, below 2 rho_e^o(P_3) "
    "rho_e^o(P_{12n-5})",
    "n in {1,2}",
    120,
)
def _direct_eop_counterexample(run: CheckRun) -> Iterator:
    for n in (1, 2):
        lengths = 12 * n - 5
        p = _product("direct", path(3), path(lengths))
        val = rho_eo(p).value
        naive = 2 * rho_eo(path(3)).value * rho_eo(path(lengths)).value
        yield [f"n={n}"], (24 * n - 10, True), (val, val < naive)


@_check(
    "direct-nu-remark",
    "nu_I(K_m x K_n) = 2 for m >= n >= 4",
    "K_4 x K_4",
    60,
)
def _direct_nu_remark(run: CheckRun) -> Iterator:
    p = _product("direct", complete(4), complete(4))
    yield ["K_4 x K_4"], 2, nu_i(p).value


@_check(
    "spanning-incomparability",
    "rho_e^o of a graph and a spanning subgraph are incomparable: gadget "
    "chains give (4r+2, 3r+2); complete vs spanning cycle gives (1, r+1)",
    "gadget chains r in {1,2}; K_5 vs C_5",
    60,
)
def _spanning_incomparability(run: CheckRun) -> Iterator:
    for r in (1, 2):
        g = figure1(r)
        h = g.without_edges(figure1_xy_edges(r))
        yield [g, h], (4 * r + 2, 3 * r + 2), (rho_eo(g).value, rho_eo(h).value)
    g, h = complete(5), cycle(5)
    yield [g, h], (1, 2), (rho_eo(g).value, rho_eo(h).value)


@_check(
    "lex-min-box",
    "rho_e^o(G lex H) <= min(rho_e^o(G strong H), rho_e^o(G box H))",
    "ordered pairs at most 4 vertices per factor",
    600,
)
def _lex_min_box(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        v_lex = rho_eo(_product("lex", g, h)).value
        v_str = rho_eo(_product("strong", g, h)).value
        v_box = rho_eo(_product("cartesian", g, h)).value
        yield [g, h], "holds", _within(0, v_lex, min(v_str, v_box))


@_check(
    "box-eop-bounds",
    "rho_e^o of the box and strong products is at least "
    "max(rho_e^o(G) alpha(H), alpha(G) rho_e^o(H)); K_{1,2} box K_{1,3} "
    "attains 6; G strong K_3 attains alpha(G)",
    "ordered pairs at most 4 vertices per factor",
    600,
)
def _box_eop_bounds(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        bound = max(
            rho_eo(g).value * alpha(h).value, alpha(g).value * rho_eo(h).value
        )
        for kind in ("cartesian", "strong"):
            val = rho_eo(_product(kind, g, h)).value
            yield [kind, g, h], "holds", _within(bound, val)
    p = _product("cartesian", star(2), star(3))
    yield ["K_{1,2} box K_{1,3}"], 6, rho_eo(p).value
    for g in _graphs_upto(run.limit(4)):
        p = _product("strong", g, complete(3))
        yield ["strong with K_3", g], alpha(g).value, rho_eo(p).value


@_check(
    "nu-box-analogues",
    "nu_I(G lex H) <= min over box/strong; nu_I of box and strong >= "
    "max(nu_I(G) alpha(H), alpha(G) nu_I(H))",
    "ordered pairs at most 4 vertices per factor",
    600,
)
def _nu_box_analogues(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        v_lex = nu_i(_product("lex", g, h)).value
        v_str = nu_i(_product("strong", g, h)).value
        v_box = nu_i(_product("cartesian", g, h)).value
        bound = max(nu_i(g).value * alpha(h).value, alpha(g).value * nu_i(h).value)
        ok = v_lex <= min(v_str, v_box) and v_box >= bound and v_str >= bound
        yield (
            [g, h],
            "holds",
            "holds" if ok else f"lex={v_lex} box={v_box} strong={v_str} bound={bound}",
        )


@_check(
    "lex-strong-kn",
    "rho_e^o(G lex K_n) = alpha(G) for n >= 3",
    "unlabeled G at most 4 vertices with K_3; at most 3 with K_4",
    300,
)
def _lex_strong_kn(run: CheckRun) -> Iterator:
    for g in _graphs_upto(run.limit(4)):
        p = _product("lex", g, complete(3))
        yield [g], alpha(g).value, rho_eo(p).value
    for g in _graphs_upto(run.limit(3)):
        p = _product("lex", g, complete(4))
        yield [g], alpha(g).value, rho_eo(p).value


@_check(
    "hypercube-nu",
    "nu_I(Q_n) = 2^(n-2)",
    "n = 2..5",
    120,
)
def _hypercube_nu(run: CheckRun) -> Iterator:
    for n in range(2, run.limit(5) + 1):
        yield [f"Q_{n}"], 2 ** (n - 2), nu_i(hypercube(n)).value


@_check(
    "perfect-code-regular",
    "an r-regular graph with a 1-perfect code has gamma = rho_2 = "
    "|V|/(r+1)",
    "regular unlabeled graphs at most 5 vertices plus C_6, C_9, "
    "hypercube Q_3, K_4",
    120,
)
def _perfect_code_regular(run: CheckRun) -> Iterator:
    pool = list(_graphs_upto(run.limit(5)))
    pool += [cycle(6), cycle(9), hypercube(3), complete(4)]
    for g in pool:
        degs = {g.degree(v) for v in range(g.n)}
        if len(degs) != 1:
            continue
        code = has_perfect_code(g)
        if code is None:
            continue
        r = degs.pop()
        want = g.n // (r + 1)
        yield (
            [g],
            (True, 0, want, want),
            (
                verify_witness(g, code, "perfect_code"),
                g.n % (r + 1),
                gamma(g).value,
                distance_packing(g, 2).value,
            ),
        )


@_check(
    "hamming-codes",
    "Q_{2^k-1} has a 1-perfect code of size 2^(n-k), hence gamma = rho_2 "
    "= 2^(n-k)",
    "hypercube codes on Q_3 and Q_7; gamma and rho_2 solved exactly at "
    "k=2",
    60,
)
def _hamming_codes(run: CheckRun) -> Iterator:
    code2 = hamming_perfect_code(2)
    q3 = hypercube(3)
    yield (
        ["k=2"],
        (True, 2, 2, 2),
        (
            verify_witness(q3, code2, "perfect_code"),
            len(code2),
            gamma(q3).value,
            distance_packing(q3, 2).value,
        ),
    )
    code3 = hamming_perfect_code(3)
    q7 = hypercube(7)
    # regularity identity: a verified code pins gamma and rho_2 to |V|/(r+1)
    yield (
        ["k=3"],
        (True, 16, 16),
        (verify_witness(q7, code3, "perfect_code"), len(code3), q7.n // 8),
    )


@_check(
    "bipartite-eop-lemma",
    "bipartite G satisfies rho_e^o(G) >= delta(G) rho_3(G), witnessed by "
    "all edges at a maximum 3-packing",
    "bipartite unlabeled graphs on at most 5 vertices",
    120,
)
def _bipartite_eop_lemma(run: CheckRun) -> Iterator:
    for g in _graphs_upto(run.limit(5)):
        if bipartition(g) is None:
            continue
        bound = g.min_degree() * distance_packing(g, 3).value
        val = rho_eo(g).value
        w = bipartite_eop_witness(g)
        wit_ok = verify_witness(g, w, "eop") and len(w) >= bound
        yield [g], ("holds", True), (_within(bound, val), wit_ok)


@_check(
    "prism-3packing",
    "rho_3(G box K_2) <= rho_2(G), with equality and an explicit lifted "
    "witness when G is bipartite",
    "unlabeled graphs on at most 5 vertices",
    300,
)
def _prism_3packing(run: CheckRun) -> Iterator:
    for g in _graphs_upto(run.limit(5)):
        prism = cartesian(g, path(2)).graph
        r3 = distance_packing(prism, 3).value
        r2 = distance_packing(g, 2).value
        if bipartition(g) is None:
            yield [g], "holds", _within(0, r3, r2)
        else:
            _, w = prism_3packing_witness(g)
            yield (
                [g],
                (r2, True),
                (r3, verify_witness(prism, w, "k_packing", k=3) and len(w) == r2),
            )


_TABLE_RHO2 = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 8}
_TABLE_RHO3 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4}
_TABLE_EOP_EXACT = {1: 1, 2: 2, 3: 3, 4: 8}
_TABLE_EOP_LOWER = {5: 10, 6: 24, 7: 56, 8: 128}


@_check(
    "table1-hypercubes",
    "rho_2(Q_n) = 1,1,2,2,4,8 and rho_3(Q_n) = 1,1,1,2,2,4 for n = 1..6; "
    "rho_e^o(Q_n) = 1,2,3,8 for n <= 4 and witnessed >= 10,24,56,128 for "
    "n = 5..8",
    "hypercubes Q_1..Q_8",
    300,
)
def _table1_hypercubes(run: CheckRun) -> Iterator:
    for row in hypercube_table(run.limit(8)):
        n = row.n
        if n in _TABLE_RHO2:
            yield (
                [f"Q_{n} packings"], (_TABLE_RHO2[n], _TABLE_RHO3[n]), (row.rho_2, row.rho_3)
            )
        exact = n in _TABLE_EOP_EXACT
        eop = _TABLE_EOP_EXACT[n] if exact else _TABLE_EOP_LOWER[n]
        yield (
            [f"Q_{n} eop"], (eop, exact, True), (row.rho_eo, row.rho_eo_exact, row.verified)
        )


@_check(
    "roeo-q2k",
    "rho_e^o(Q_n) = 2^(n-1) when n is a power of two",
    "hypercubes Q_2, Q_4 exact; Q_8 by witness plus independence "
    "certificate",
    300,
)
def _roeo_q2k(run: CheckRun) -> Iterator:
    for k in (1, 2):
        n = 2 ** k
        q, w = hypercube_eop_witness(k)
        yield (
            [f"k={k}"],
            (2 ** (n - 1), 2 ** (n - 1), True),
            (rho_eo(hypercube(n)).value, len(w), verify_witness(q, w, "eop")),
        )
    # k=3: witness of 128 edges; the bit-flip perfect matching between the two
    # independent sides caps alpha(Q_8), and so rho_e^o(Q_8), at 128
    q8, w = hypercube_eop_witness(3)
    even, odd = bipartition(q8)
    matching = sorted(v ^ 1 for v in even) == list(odd) and all(
        q8.has_edge(v, v ^ 1) for v in even
    )
    yield (
        ["k=3"],
        (128, True, True, True),
        (len(w), verify_witness(q8, w, "eop"), len(even) == len(odd) == 128, matching),
    )


@_check(
    "q9-bound",
    "rho_e^o(Q_9) >= 9 * 17 = 153 via rho_2(Q_8) >= 17",
    "none",
    0,
)
def _q9_bound(run: CheckRun) -> Iterator:
    """Yield nothing, so the check reports ``skipped``.

    The bound needs a 17-word binary code of length 8 and minimum distance
    3, and no verified one is stored yet.
    """
    yield from ()


@_check(
    "rooted-three-values",
    "nu_I of the rooted product lies in {n nu_I(H) - beta(G), n nu_I(H), "
    "n nu_I(H) + nu_I(G)}; three root gadgets realize each value",
    "ordered pairs at most 4 vertices per factor, every root; gadgets at "
    "r in {2,3}",
    600,
)
def _rooted_three_values(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        for root in range(h.n):
            val = nu_i(_rooted(g, h, root)).value
            n, nh = g.n, nu_i(h).value
            allowed = {n * nh - beta(g).value, n * nh, n * nh + nu_i(g).value}
            yield (
                [g, h, f"root={root}"],
                "in set",
                "in set" if val in allowed else f"{val} not in {sorted(allowed)}",
            )
    # gadget families hitting each of the three values
    for r in (2, 3):
        h_plus = subdivided_star([2] + [1] * (r - 1))  # root: far end of the long leg
        h_mid = star(r)  # root: any leaf
        h_minus = subdivided_star([2, 2] + [1] * (r - 2))  # root: far leaf of a long leg
        for g in _graphs_upto(run.limit(4)):
            n = g.n
            v_plus = nu_i(_rooted(g, h_plus, 2)).value
            v_mid = nu_i(_rooted(g, h_mid, 1)).value
            v_minus = nu_i(_rooted(g, h_minus, 2)).value
            yield (
                [f"r={r}", g],
                (n + nu_i(g).value, n, 2 * n - beta(g).value),
                (v_plus, v_mid, v_minus),
            )


@_check(
    "corona-formula",
    "nu_I(G corona H) = |V(G)| nu_I(H) if H has an edge, else alpha(G)",
    "ordered pairs at most 4 vertices per factor",
    600,
)
def _corona_formula(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        val = nu_i(corona(g, h).graph).value
        want = g.n * nu_i(h).value if h.m > 0 else alpha(g).value
        yield [g, h], want, val


@_check(
    "rooted-eop-equ2",
    "n rho_e^o(H) - deg_H(v) beta(G) <= rho_e^o(G rooted_v H) <= "
    "n rho_e^o(H) + rho_e^o(G); even cycles with star fibers rooted at "
    "the center attain the lower bound, long-leg subdivided stars rooted "
    "at the far end attain the upper bound",
    "ordered pairs at most 4 vertices per factor, every root; named "
    "families",
    600,
)
def _rooted_eop_equ2(run: CheckRun) -> Iterator:
    for g, h in _pairs(run):
        for root in range(h.n):
            val = rho_eo(_rooted(g, h, root)).value
            lo = g.n * rho_eo(h).value - h.degree(root) * beta(g).value
            hi = g.n * rho_eo(h).value + rho_eo(g).value
            yield [g, h, f"root={root}"], "holds", _within(lo, val, hi)
    # sharpness: cycles with star fibers rooted at the center hit the lower
    # bound; long-leg subdivided stars rooted at the far end hit the upper
    for n, r in ((4, 2), (4, 3), (6, 2)):
        val = rho_eo(_rooted(cycle(n), star(r), 0)).value
        yield [f"C_{n} rooted K_1,{r}"], n * r // 2, val
    for r in (2, 3):
        h = subdivided_star([3] + [1] * (r - 1))
        for g in (path(3), cycle(4), complete(3)):
            val = rho_eo(_rooted(g, h, 3)).value
            yield (
                [f"r={r}", g, h],
                (g.n * r + rho_eo(g).value, r),
                (val, rho_eo(h).value),
            )


def list_checks(name_filter: str = "") -> list:
    """Checks whose id or corpus contains the filter, in declaration order."""
    return [c for c in REGISTRY.values() if name_filter in c.id or name_filter in c.corpus]


def _refuse_nan(budget: Optional[float]) -> None:
    """Raise ValueError on a nan budget, whose deadline ``t0 + nan`` would never pass."""
    if budget is not None and budget != budget:
        raise ValueError("budget must be a number of seconds, not nan")


def run_check(
    check_id: str,
    budget: Optional[float] = None,
    seed: int = 0,
    max_n: Optional[int] = None,
) -> CheckReport:
    """Run one registered check.

    The runner is called and driven inside one ``try``.  The status is
    ``error`` when it raised anything but :class:`CapacityError` (the report
    carries ``"<ExcType>: <message>"``), else ``fail`` on any recorded
    failure, else ``skipped`` on a partial run (the deadline passed before the
    runner finished, a capacity hit, or no instances), else ``pass``.
    """
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check id {check_id!r}")
    _refuse_nan(budget)
    check = REGISTRY[check_id]
    t0 = time.monotonic()
    deadline = t0 + (check.budget_s if budget is None else budget)
    instances_run, failures, capacity_skips = 0, [], 0
    timed_out, error = False, None
    try:
        with _product_memo():
            records = check.runner(CheckRun(seed, max_n))
            # the one budget gate: no instance starts once the deadline has passed
            while not (timed_out := time.monotonic() > deadline):
                record = next(records, None)
                if record is None:
                    break
                inputs, expected, actual = record
                instances_run += 1
                expected, actual = _jsonable(expected), _jsonable(actual)
                if expected != actual:
                    failures.append(
                        {
                            "inputs_graph6": [
                                write_graph6(x) if isinstance(x, Graph) else str(x)
                                for x in inputs
                            ],
                            "expected": expected,
                            "actual": actual,
                        }
                    )
    except CapacityError:
        capacity_skips = 1
    except Exception as exc:  # one broken runner must not abort the suite
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = int((time.monotonic() - t0) * 1000)
    if error is not None:
        status = "error"
    elif failures:
        status = "fail"
    # capacity-hit or budget-hit corpora never pass silently on the partial run
    elif timed_out or capacity_skips or instances_run == 0:
        status = "skipped"
    else:
        status = "pass"
    return CheckReport(
        check.id,
        check.citation,
        instances_run,
        failures,
        wall_ms,
        status,
        capacity_skips=capacity_skips,
        error=error,
    )


def _workers(n_tasks: int) -> int:
    """One process per available CPU for ``n_tasks`` pool tasks; 1 without ``fork``, with a
    second thread alive, in a daemonic worker (which may not have children) or with
    ``run_check`` rebound by a tracer (whose records would stay in the workers)."""
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or threading.active_count() > 1 or run_check.__module__ != __name__:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 1 if mp and mp.current_process().daemon else min(n_tasks, cpus or 1)


def _tasks(ids: list) -> list:
    """``ids`` as pool tasks: the members of each chain in ``_CHAINS`` form one task, placed
    at its first member, and every other check is a task of its own."""
    tasks: dict = {}
    for cid in ids:
        tasks.setdefault(next((ch for ch in _CHAINS if cid in ch), cid), []).append(cid)
    return list(tasks.values())


def _run_task(ids: list, budget, seed, max_n) -> list:
    """Reports of the checks ``ids``, run in order in this process with one product memo: one
    pool task."""
    with _product_memo():
        return [run_check(cid, budget, seed, max_n) for cid in ids]


def run_suite(
    name_filter: str = "",
    budget: Optional[float] = None,
    seed: int = 0,
    max_n: Optional[int] = None,
) -> tuple:
    """Run all checks whose id or corpus contains the filter; returns (reports, summary).

    The checks run as pool tasks (:func:`_tasks`) in forked workers (:func:`_workers`), each
    timing its own ``wall_ms``, or in process as one task, in registry order, when there is one
    worker or a budget of at most 0 s, under which every check is skipped before its first
    instance.
    Tasks are submitted last-registered first: the longest checks come last in the registry,
    so a worker that starts them early leaves the short ones to fill the other workers' tails.
    Reports come back in registry order, ``error`` for every check of a task whose worker died.
    """
    _refuse_nan(budget)
    ids = [c.id for c in list_checks(name_filter)]
    tasks = _tasks(ids)
    workers = 1 if budget is not None and budget <= 0 else _workers(len(tasks))
    if workers <= 1:
        done = dict(zip(ids, _run_task(ids, budget, seed, max_n)))
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from multiprocessing import get_context
        done = {}
        tasks.reverse()
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            futures = [pool.submit(_run_task, task, budget, seed, max_n) for task in tasks]
        for task, future in zip(tasks, futures):
            try:
                done.update(zip(task, future.result()))
            except BrokenExecutor as exc:  # the worker running the task died
                error = f"{type(exc).__name__}: {exc}"
                for cid in task:
                    c = REGISTRY[cid]
                    done[cid] = CheckReport(cid, c.citation, 0, [], 0, "error", error=error)
    reports = [done[cid] for cid in ids]
    summary = {
        "total": len(reports),
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
        "error": sum(r.status == "error" for r in reports),
    }
    return reports, summary


def report_json(report: CheckReport, with_timing: bool = True) -> dict:
    out = asdict(report)
    if not with_timing:
        del out["wall_ms"]
    return out


def suite_json(reports, summary, with_timing: bool = True) -> dict:
    return {
        "checks": [report_json(r, with_timing) for r in reports],
        "summary": summary,
    }
