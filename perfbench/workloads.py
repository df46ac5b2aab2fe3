"""Seeded inputs and expected results of the four benchmark workloads.

Inputs are made here from the workload seed with the standard library only
(``random.Random`` and a graph6 encoder of the benchmark's own), so a change
to eopack's generators cannot change what the benchmark feeds it.  Each
workload also has a quick form that runs the same code paths on tiny inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("suite-cold", "hypercube-frontier", "g6-corpus", "graph-enum")

# suite-cold: run_suite(seed=seed) on the full corpora, or max_n=3 when quick.
# Every check passes except the one the registry skips by design.
SUITE_CHECK_IDS = (
    "paths-formulas",
    "spider-equality",
    "family-f-value-uniqueness",
    "trees-iff-family-f",
    "subdivided-star-lemma",
    "lex-nu-equality",
    "lex-eop-bounds",
    "lex-eop-sharpness",
    "lex-nu-remark",
    "direct-nu-bound",
    "direct-eop-bound",
    "direct-eop-counterexample",
    "direct-nu-remark",
    "spanning-incomparability",
    "lex-min-box",
    "box-eop-bounds",
    "nu-box-analogues",
    "lex-strong-kn",
    "hypercube-nu",
    "perfect-code-regular",
    "hamming-codes",
    "bipartite-eop-lemma",
    "prism-3packing",
    "table1-hypercubes",
    "roeo-q2k",
    "q9-bound",
    "rooted-three-values",
    "corona-formula",
    "rooted-eop-equ2",
)
SUITE_SKIPPED = ("q9-bound",)
SUITE_QUICK_MAX_N = 3

# hypercube-frontier: (instance, invariant, dimension, exact value), solved in
# this order with FRONTIER_MAX_ITEMS, which also bypasses the value cache.
FRONTIER = (
    ("rho_eo_Q5", "rho_eo", 5, 12),
    ("nu_i_Q6", "nu_i", 6, 16),
    ("rho_2_Q7", "rho_2", 7, 16),
    ("rho_3_Q8", "rho_3", 8, 16),
    ("rho_eo_Q6", "rho_eo", 6, 24),
)
# stand-ins of the same invariants in the same order; their node counts are
# reported under the names of FRONTIER
FRONTIER_QUICK = (
    ("rho_eo_Q3", "rho_eo", 3, 3),
    ("nu_i_Q4", "nu_i", 4, 4),
    ("rho_2_Q4", "rho_2", 4, 2),
    ("rho_3_Q5", "rho_3", 5, 2),
    ("rho_eo_Q4", "rho_eo", 4, 8),
)
FRONTIER_MAX_ITEMS = 1000
# constructions.hypercube_eop_witness(k) covers Q_(2^k) with 2^(2^k - 1) edges
WITNESS_K, WITNESS_K_QUICK = 3, 2

# g6-corpus: closed-loop CLI requests, two invariants per line.
G6_LINES, G6_LINES_QUICK = 1500, 16
G6_ORDERS, G6_ORDERS_QUICK = (8, 24), (8, 10)
G6_DENSITIES = (1 / 6, 1 / 4, 1 / 3, 1 / 2)
G6_REPEAT = 0.25
G6_INVARIANTS = ("rho-eo", "nu-i")
G6_EXPECTED = Path(__file__).with_name("g6_expected.json")

# graph-enum: OEIS A000088, graphs on n = 1.. vertices up to isomorphism
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
GRAPH_MAX_N, GRAPH_MAX_N_QUICK = 7, 5


def graph6(n: int, edges) -> str:
    """Headerless graph6 of a graph on n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("the benchmark encoder handles 0 <= n <= 62")
    present = set(edges)
    out = [n + 63]
    acc = k = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in present)
            k += 1
            if k == 6:
                out.append(acc + 63)
                acc = k = 0
    if k:
        out.append((acc << (6 - k)) + 63)
    return bytes(out).decode("ascii")


def g6_corpus(seed: int, quick: bool) -> list:
    """Lines of (graph6, n, sorted edges); about a quarter repeat an earlier line."""
    rng = random.Random(seed)
    lo, hi = G6_ORDERS_QUICK if quick else G6_ORDERS
    lines: list = []
    for _ in range(G6_LINES_QUICK if quick else G6_LINES):
        if lines and rng.random() < G6_REPEAT:
            lines.append(lines[rng.randrange(len(lines))])
            continue
        n = rng.randint(lo, hi)
        p = G6_DENSITIES[rng.randrange(len(G6_DENSITIES))]
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        edges.sort()
        lines.append((graph6(n, edges), n, tuple(edges)))
    return lines


def corpus_digest(lines) -> str:
    return hashlib.sha256("\n".join(line for line, _, _ in lines).encode()).hexdigest()


def g6_expected(seed: int, quick: bool, digest: str):
    """Frozen (rho_eo, nu_i) per line, or None when this corpus has none."""
    frozen = json.loads(G6_EXPECTED.read_text()).get("quick" if quick else "full")
    if frozen is None or frozen["seed"] != seed:
        return None
    if frozen["sha256"] != digest:
        raise RuntimeError("g6 corpus for the frozen seed no longer matches its digest")
    return [tuple(v) for v in frozen["values"]]


def hypercube_edges(d: int, rng) -> tuple:
    """Edges of Q_d with vertices relabeled by a permutation drawn from rng.

    A ``None`` rng keeps the natural labels (vertex = bit mask).
    """
    n = 1 << d
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    edges = []
    for v in range(n):
        for b in range(d):
            if not (v >> b) & 1:
                x, y = perm[v], perm[v | (1 << b)]
                edges.append((min(x, y), max(x, y)))
    edges.sort()
    return tuple(edges)


def frontier_cubes(seed: int, quick: bool) -> dict:
    """Relabeled hypercube edge lists by dimension; seed 0 keeps natural labels."""
    rng = random.Random(seed) if seed else None
    dims = sorted({d for _, _, d, _ in (FRONTIER_QUICK if quick else FRONTIER)})
    return {d: hypercube_edges(d, rng) for d in dims}
