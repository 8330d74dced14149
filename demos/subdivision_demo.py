"""Signed unimodular subdivision of a pointed cone.

Vertices of a non-Delzant polytope have transverse cones that are not
unimodular, so no single operator applies.  The valuation route writes the
cone as a signed combination of unimodular pieces.  The stellar route,
which the "alternate" strategy takes, goes in three steps:

  1. triangulate the cone by pulling vertices of a cross-section,
  2. refine each simplicial cell by stellar subdivision until every cell
     has index one,
  3. assign inclusion-exclusion coefficients to all faces of the resulting
     fan so that indicator functions add up to the indicator of the cone.

The "default" strategy keeps step 1 and replaces steps 2 and 3 by signed
short-vector steps through half-open cells: a cell of index k > 1 is
split, with signs, into cells of index at most k / 2.

The operator of the original cone is then the signed sum of the pieces'
operators, and `cone_operator(cone).cells` lists the signed cells that it
sums under the strategy chosen.  This script walks the cone generated by
(1,0) and (1,2) through all three steps, then counts the pieces of both
routes on cones of growing index: the stellar route through its steps,
the default route through `cone_operator`.
"""

from emsum import (
    bv_op_pointed,
    cone_operator,
    signed_coefficients,
    triangulate_cone,
    unimodularize,
)

rays = [(1, 0), (1, 2)]
print(f"cone generated by {rays}  (index 2: not unimodular)")
print()

cells = triangulate_cone(rays)
print(f"step 1, triangulation: {len(cells)} simplicial cell(s)")
for cell in cells:
    print(f"  {cell}")
print()

fan = unimodularize(cells)
print(f"step 2, stellar refinement: {len(fan)} unimodular cells")
for cell in fan:
    print(f"  {cell}")
print()

signed = signed_coefficients(fan)
print("step 3, inclusion-exclusion over all faces of the fan:")
for cell in signed:
    name = cell.gens if cell.gens else "origin"
    print(f"  r = {cell.coeff:+d}  dim {cell.dim}  {name}")
print()
print("the two full cells count once each; their shared ray is")
print("subtracted so no point is counted twice.")
print()

op = bv_op_pointed(rays, 2)
print(f"assembled order-2 operator: symbol = {op.symbol}")
print("(3/8 from the cell at (1,0), 17/40 from the cell at (1,2),")
print(" minus 1/2 from the shared ray: 3/10)")
print()

print("pieces of cone(e1, e2, e1 + e2 + k e3), of index k:")
print("      k  stellar fan  its signed faces  default signed cells")
for k in (3, 15, 63, 255):
    cone = [(1, 0, 0), (0, 1, 0), (1, 1, k)]
    fan = unimodularize(triangulate_cone(cone))
    faces = sum(1 for cell in signed_coefficients(fan) if cell.coeff)
    signed = cone_operator(cone).cells
    print(f"  {k:5d}  {len(fan):11d}  {faces:16d}  {len(signed):20d}")
print("the stellar fan grows with k; the short-vector steps do not.")
print()

penta = [(0, 0, 1), (2, 0, 1), (3, 1, 1), (1, 3, 1), (0, 2, 1)]
a = bv_op_pointed(penta, 3, strategy="default")
b = bv_op_pointed(penta, 3, strategy="alternate")
print("a 3D cone over a pentagon, under the two strategies:")
print(f"  default  : {a.symbol}")
print(f"  alternate: {b.symbol}")
print(f"  equal    : {a.symbol == b.symbol}")
print("the operator is a property of the cone, not of the subdivision.")
