"""The brute-force oracle, and the valuation path on non-Delzant input.

The oracle knows nothing about cones or operators.  It sums phi over the
lattice points of dilates N*P, one lattice line at a time with exact power
sums, for N = 1, ..., D+1, interpolates the weighted
Ehrhart polynomial of degree D = dim P + deg phi, verifies the result at
two extra dilations, and reads the A_n off the coefficients.  Agreement
with expansion() is therefore a genuine two-route check.

The triangle conv{(0,0),(1,0),(1,2)} is not Delzant: the transverse cone
at (1,2) has index 2, so the engine takes the signed-subdivision route
(flagged by valuation_used).  The oracle does not care either way.
"""

from emsum import (
    MultiPoly,
    build_polytope,
    coefficients_from_oracle,
    expansion,
    riemann_sum,
    weighted_ehrhart,
)

tri = build_polytope([(0, 0), (1, 0), (1, 2)])
x = MultiPoly.variable(2, 0)
phi = x * x

print("triangle conv{(0,0),(1,0),(1,2)}, phi = x^2")
print()

print("raw Riemann sums (exact rationals):")
for n_dil in (1, 2, 4, 8):
    print(f"  R_{n_dil} = {riemann_sum(tri, phi, n_dil)}")
print()

ehr = weighted_ehrhart(tri, phi)
print("weighted Ehrhart polynomial, highest degree first:")
print(f"  t |-> {[str(c) for c in reversed(ehr.coeffs)]}")
print(f"  A_n from the oracle: {[str(c) for c in ehr.a_coefficients(4)]}")
print()

res = expansion(tri, phi)
print("engine on the same input:")
print(f"  A_n = {[str(c) for c in res.coefficients]}")
print(f"  valuation path used: {res.valuation_used}")
print()

oracle = coefficients_from_oracle(tri, phi)
match = list(res.coefficients) == oracle
print(f"two routes agree exactly: {match}")
print()

octa = build_polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)])
one3 = MultiPoly.const(3, 1)
res = expansion(octa, one3)
oracle = coefficients_from_oracle(octa, one3)
print("octahedron conv{+-e_i}, phi = 1 (every vertex cone has index 2):")
print(f"  engine: {[str(c) for c in res.coefficients]}")
print(f"  oracle: {[str(c) for c in oracle]}")
print(f"  agree : {list(res.coefficients) == oracle}")
