"""Isomorphic product instances have equal values, so the product checks solve one of each.

The checks build G box H and G strong H with their factors in one order, and
root each rooted product at the least vertex of its root's orbit.  These tests
solve every labelled instance that the checks no longer solve, with a
``max_items`` cap so the value cache is bypassed. Each value must equal the
value of the instance the checks do solve.  The wide run at 5 vertices is a CI step:

    PYTHONPATH=src:tests python -c 'from test_product_symmetry import compare; print(*compare(5, 300))'
"""

from eopack import enumerate_graphs, invariants, nu_i, rho_eo, verify_witness
from eopack.harness import _orbit_minima
from eopack.products import product, rooted_product

SOLVES = ((nu_i, "induced_matching"), (rho_eo, "eop"))


def _values(g, max_items: int) -> tuple:
    """(nu_i, rho_eo) of g, each solved under the cap, with every witness verified."""
    values = []
    for solve, kind in SOLVES:
        r = solve(g, max_items=max_items)
        assert len(r.witness) == r.value and verify_witness(g, r.witness, kind), (g, kind)
        values.append(r.value)
    return tuple(values)


def compare(nmax: int, max_items: int) -> tuple:
    """Check both factor orders of box and strong, and every root against its orbit's least
    root, on all factors with at most ``nmax`` vertices.

    Returns the counts of ordered pairs, unordered pairs, rooted instances and root orbits.
    """
    factors = [g for n in range(1, nmax + 1) for g in enumerate_graphs(n, dedup=True)]
    for kind in ("cartesian", "strong"):
        values = {
            (i, j): _values(product(kind, g, h).graph, max_items)
            for i, g in enumerate(factors)
            for j, h in enumerate(factors)
        }
        for (i, j), v in values.items():
            assert v == values[j, i], (kind, factors[i], factors[j])
    rooted = orbits = 0
    for h in factors:
        least = _orbit_minima(h)
        for g in factors:
            values = [_values(rooted_product(g, h, root).graph, max_items) for root in range(h.n)]
            assert all(v == values[least[root]] for root, v in enumerate(values)), (g, h)
            rooted += h.n
            orbits += len(set(least))
    unordered = {(min(i, j), max(i, j)) for i in range(len(factors)) for j in range(len(factors))}
    return len(factors) ** 2, len(unordered), rooted, orbits


def test_commuted_and_rerooted_products_agree():
    cached = len(invariants._CACHE)
    assert compare(4, 250) == (324, 171, 1098, 522)
    assert len(invariants._CACHE) == cached  # capped solves neither read nor write the cache
