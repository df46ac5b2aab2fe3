"""Hypercube packings: the table, the code chain, and rho_eo(Q_8) = 128.

The chain runs: a perfect code in Q_{2^k-1} is a maximum 2-packing; lifting
it through the prism Q_{2^k} = Q_{2^k-1} box K_2 gives a 3-packing; taking
all edges at the packed vertices gives an edge open packing of size
2^k * 2^(2^k-1-k) = 2^(2^k-1), which meets the independence-number ceiling.
The table comes from ``constructions.hypercube_table``, the builder behind
``eopack table``: no exact solver is needed beyond dimension 6, and every
witness it rests on passes ``verify_witness``.

Run with:  python demos/04_hypercubes_and_codes.py
"""

from eopack import hypercube, nu_i, verify_witness
from eopack.constructions import (
    hamming_perfect_code,
    hypercube_eop_witness,
    hypercube_table,
    prism_3packing_witness,
)

print("n  rho_2  rho_3  rho_eo  verified  nu_I")
for row in hypercube_table(8):
    r2 = "?" if row.rho_2 is None else row.rho_2
    eop = f"{'=' if row.rho_eo_exact else '>='}{row.rho_eo}"
    nu = nu_i(hypercube(row.n)).value if row.n <= 6 else "-"
    print(f"{row.n}  {r2:>5}  {row.rho_3:5d}  {eop:6s}  {row.verified!s:8s}  {nu}")

print()
print("Perfect codes (syndrome construction):")
for k in (2, 3):
    n = 2 ** k - 1
    code = hamming_perfect_code(k)
    ok = verify_witness(hypercube(n), code, "perfect_code")
    print(f"  k={k}: |code| = {len(code)} = 2^({n}-{k}) in Q_{n}, verified {ok}")

print()
print("The composed chain at k=3 (code -> prism lift -> edge packing):")
code = hamming_perfect_code(3)
prism, pack = prism_3packing_witness(hypercube(7), two_packing=code)
print(f"  3-packing of Q_8 of size {len(pack)}, "
      f"valid {verify_witness(prism.graph, pack, 'k_packing', k=3)}")
q8, w = hypercube_eop_witness(3)
print(f"  edge open packing of Q_8 of size {len(w)}, valid {verify_witness(q8, w, 'eop')}")

even = {v for v in range(256) if v.bit_count() % 2 == 0}
independent = not any(u in even and v in even for u, v in q8.edges)
print(f"  even-parity class: independent set of {len(even)} ({independent}); "
      f"bit-flip matching caps alpha(Q_8) at 128")
print(f"  => rho_eo(Q_8) = 128 exactly, certified without solving")
