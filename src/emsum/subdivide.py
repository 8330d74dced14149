"""Signed unimodular subdivisions of pointed rational cones.

A pointed cone that is not unimodular is handled in three steps: a
pulling triangulation on its own extreme rays, a stellar refinement of
the resulting fan until every maximal cell is unimodular, and an
inclusion-exclusion pass that turns the closed cover by cells into a
signed decomposition of the indicator function.  Every simplicial cell
is inverted once, exactly and over the integers (`_cell_inverse`), so
the stellar refinement and the fan self-check of the inclusion-exclusion
pass test membership by integer dot products.  The Berline-Vergne
vertex operator of the cone is then the signed sum of the vertex
operators of the cells, each taken at the order matching its dimension
drop.  The final result must not depend on any of the choices made on
the way; callers are expected to exercise both built-in strategies when
they want that checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .conecalc import DiffOp, UniCone, vertex_op
from .exactcore import (
    MultiPoly,
    as_matrix,
    as_vector,
    det,
    hnf_lattice_basis,
    matrix_inverse,
    matrix_rank,
    primitive_vector,
    rref,
    saturation_basis,
    vdot,
)
from .geometry import (
    _pulling_triangulation,
    build_polytope,
    cone_is_pointed,
    point_in_cone,
    positive_functional,
)

STRATEGIES = ("default", "alternate")


@dataclass(frozen=True)
class SignedCell:
    """A simplicial cone in a signed decomposition, with its integer
    inclusion-exclusion coefficient."""

    gens: tuple
    coeff: int

    @property
    def dim(self) -> int:
        return len(self.gens)


def _ray_list(gens) -> list:
    """Primitivized, deduplicated integer generators (order preserved)."""
    vecs = [as_vector(g) for g in gens]
    if any(len(vec) != len(vecs[0]) for vec in vecs):
        raise ValueError("generators must all have the same length")
    rays = []
    for vec in vecs:
        if any(x.denominator != 1 for x in vec):
            raise ValueError("generators must be integer vectors")
        if all(x == 0 for x in vec):
            raise ValueError("zero vector is not a cone generator")
        ray = primitive_vector(vec)
        if ray not in rays:
            rays.append(ray)
    if not rays:
        raise ValueError("empty generating set")
    return rays


def _cell_key(gens) -> tuple:
    return tuple(sorted(gens))


def _cell_index(cell: Sequence[tuple]) -> int:
    """Index of the lattice generated by the cell's rays inside the
    saturated lattice of its span."""
    return hnf_lattice_basis(list(cell))[1]


def _cell_inverse(cell: Sequence[tuple]) -> tuple:
    """Exact integer inverse of a simplicial cell, built once.

    Returns (D, coords).  D > 0 is the absolute determinant of a maximal
    nonsingular minor of the generator matrix G (columns = rays), and
    coords(p) is the integer vector D*t for the coordinates t of the
    integer point p over the rays, or None when p is off the cell's
    span.  The minor's rows satisfy G t = p by construction, so only
    the other rows are checked.
    """
    _, rows = rref(as_matrix(cell))
    minor = as_matrix([[g[r] for g in cell] for r in rows])
    scale = int(abs(det(minor)))
    adj = [[int(scale * x) for x in row] for row in matrix_inverse(minor)]
    others = [j for j in range(len(cell[0])) if j not in rows]

    def coords(p) -> Optional[tuple]:
        t = tuple(sum(a * p[r] for a, r in zip(row, rows)) for row in adj)
        for j in others:
            if sum(ti * g[j] for ti, g in zip(t, cell)) != scale * p[j]:
                return None
        return t

    return scale, coords


def _simplicial_cells(data) -> list:
    """Normalize unimodularize input: one cone or a list of cells."""
    items = list(data)
    if not items:
        raise ValueError("empty generating set")
    head = list(items[0])
    if head and isinstance(head[0], (list, tuple)):
        raw_cells = [list(c) for c in items]
    else:
        raw_cells = [items]
    cells = []
    for raw in raw_cells:
        rays = _ray_list(raw)
        if matrix_rank([as_vector(r) for r in rays]) != len(rays):
            raise ValueError("cells must be simplicial cones")
        cells.append(_cell_key(rays))
    if len({len(cell[0]) for cell in cells}) > 1:
        raise ValueError("generators must all have the same length")
    return cells


# ---------------------------------------------------------------------------
# triangulation on the cone's own rays


def triangulate_cone(gens, strategy: str = "default") -> list:
    """Triangulate a pointed cone into simplicial cones on its extreme rays.

    Returns a sorted list of cells, each a sorted tuple of primitive
    integer generators.  The cells form a fan covering the cone, with no
    new rays.  strategy="alternate" pulls from the other end of the
    vertex order and generally produces a different triangulation.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    rays = _ray_list(gens)
    if not cone_is_pointed(rays):
        raise ValueError("cone is not pointed")
    extreme = [
        g
        for g in rays
        if point_in_cone(g, [h for h in rays if h != g]) is None
    ]
    d = matrix_rank([as_vector(g) for g in extreme])
    if len(extreme) == d:
        return [_cell_key(extreme)]

    # Slice by a positive functional and triangulate the section.
    xi = positive_functional(extreme)
    if xi is None:
        raise AssertionError("pointed cone must admit a positive functional")
    heights = [vdot(as_vector(xi), as_vector(g)) for g in extreme]
    scaled = [
        tuple(Fraction(gc, 1) / h for gc in g)
        for g, h in zip(extreme, heights)
    ]
    scale = math.lcm(*[c.denominator for p in scaled for c in p])
    section = [tuple(int(c * scale) for c in p) for p in scaled]
    poly = build_polytope(section, affine_hull=True)
    if len(poly.vertices) != len(extreme):
        raise AssertionError("extreme rays must slice to polytope vertices")
    origin, basis = poly.affine_data
    by_point = {}
    for g, pt in zip(extreme, section):
        by_point[pt] = g
    pull_rule = "min" if strategy == "default" else "max"
    cells = []
    for simplex in _pulling_triangulation(
        poly, poly.polytope_face, pull_rule=pull_rule
    ):
        cell = []
        for vid in simplex:
            y = poly.vertices[vid]
            ambient = tuple(
                origin[i] + sum(y[j] * basis[j][i] for j in range(len(y)))
                for i in range(len(origin))
            )
            cell.append(by_point[ambient])
        cells.append(_cell_key(cell))
    return sorted(cells)


# ---------------------------------------------------------------------------
# stellar refinement to a unimodular fan


def _stellar_point(cell: tuple, strategy: str) -> tuple:
    """Primitive lattice point in the half-open fundamental parallelepiped
    of the cell minimizing the largest barycentric coordinate."""
    d = len(cell)
    basis = saturation_basis(list(cell))
    basis_det, basis_coords = _cell_inverse(basis)
    coord_rows = []
    for g in cell:
        y = basis_coords(g)
        if y is None or any(c % basis_det for c in y):
            raise AssertionError("integral generator coordinates")
        coord_rows.append([c // basis_det for c in y])
    # x = M^T t for barycentric t, with M rows = generator coordinates;
    # the box loop compares the integer vectors D*t.
    scale, barycentric = _cell_inverse(coord_rows)
    ranges = []
    for j in range(d):
        lo = sum(min(0, coord_rows[i][j]) for i in range(d))
        hi = sum(max(0, coord_rows[i][j]) for i in range(d))
        ranges.append(range(lo, hi + 1))
    best = None
    for x in itertools.product(*ranges):
        t = barycentric(x)
        if not all(0 <= ti < scale for ti in t) or not any(t):
            continue
        w = tuple(
            sum(x[j] * basis[j][i] for j in range(d))
            for i in range(len(cell[0]))
        )
        order_key = w if strategy == "default" else tuple(-c for c in w)
        key = (max(t), order_key)
        if best is None or key < best[0]:
            best = (key, w)
    if best is None:
        raise AssertionError("cell of index > 1 must contain a stellar point")
    return best[1]


def unimodularize(cone_or_cells, strategy: str = "default") -> list:
    """Refine simplicial cones into a fan of unimodular cones.

    Accepts either the generators of one simplicial cone or a list of
    cells forming a fan.  Repeatedly picks a cell of maximal index,
    stellar-subdivides the whole fan at a primitive lattice point from
    that cell's half-open fundamental parallelepiped (chosen to minimize
    the largest barycentric coordinate, ties broken by vector order),
    and stops when every cell is unimodular.  Each stellar step strictly
    decreases the index of every cell it touches, which bounds the
    number of steps.  Every cell's index and exact inverse are computed
    once and kept for the rest of the call.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    work = set(_simplicial_cells(cone_or_cells))
    index = {cell: _cell_index(cell) for cell in work}
    coords = {}
    while True:
        worst = max(sorted(work), key=index.get)
        if index[worst] == 1:
            return sorted(work)
        w = _stellar_point(worst, strategy)
        refined = set()
        for cell in work:
            if cell not in coords:
                coords[cell] = _cell_inverse(cell)[1]
            t = coords[cell](w)
            if t is None or min(t) < 0:
                refined.add(cell)
                continue
            for i, ti in enumerate(t):
                if ti == 0:
                    continue
                piece = _cell_key(cell[:i] + cell[i + 1:] + (w,))
                if piece not in index:
                    index[piece] = _cell_index(piece)
                if index[piece] >= index[cell]:
                    raise AssertionError(
                        "stellar subdivision must decrease the index"
                    )
                refined.add(piece)
        work = refined


# ---------------------------------------------------------------------------
# inclusion-exclusion over the closed cells


def _subsets(cell: tuple):
    """Every face of a simplicial cell, as sorted sub-tuples of its sorted
    generators, the empty face included."""
    return itertools.chain.from_iterable(
        itertools.combinations(cell, r) for r in range(len(cell) + 1)
    )


def signed_coefficients(cells) -> list:
    """Integer coefficients r making sum of r_sigma * [sigma] over all
    faces sigma of the fan equal the indicator of the union.

    The input cells must be the maximal cones of a fan (any two cells
    meet in a common face); otherwise ValueError("non-complex input").
    Returns SignedCell entries for every face, maximal cells first.

    Every interval of the face poset is boolean, so one pass over it
    gives r_tau = sum of (-1)^(dim sigma - dim tau) over the faces sigma
    containing tau.  The self-check inverts each maximal cell once
    (`_cell_inverse`): a sample p lies in exactly the faces tau with
    supp(t) <= tau <= sigma, over the maximal cells sigma where p's
    coordinates t are non-negative, because a cell's rays are
    independent.
    """
    maximal = _simplicial_cells(cells)
    faces = sorted(
        {tau for sigma in maximal for tau in _subsets(sigma)},
        key=lambda c: (-len(c), c),
    )
    coeff = dict.fromkeys(faces, 0)
    for sigma in faces:
        for tau in _subsets(sigma):
            coeff[tau] += (-1) ** (len(sigma) - len(tau))

    # A wrong face poset (overlapping, non-facially glued cells) shows up
    # as a point covered with total weight != 1.  Check the relative
    # interior of every face and a midpoint sample inside each maximal
    # cell, scaled by dim + 1 to an integer point of the same ray.
    samples = [tuple(map(sum, zip(*tau))) for tau in faces if tau]
    samples += [
        tuple(
            sum((i + 1) * g[k] for i, g in enumerate(sigma))
            for k in range(len(sigma[0]))
        )
        for sigma in maximal
    ]
    inverses = [(sigma, _cell_inverse(sigma)[1]) for sigma in maximal]
    for p in samples:
        covering = set()
        for sigma, coords in inverses:
            t = coords(p)
            if t is None or min(t) < 0:
                continue
            support = tuple(g for g, ti in zip(sigma, t) if ti)
            free = tuple(g for g, ti in zip(sigma, t) if not ti)
            covering.update(
                tuple(sorted(support + extra)) for extra in _subsets(free)
            )
        if sum(coeff[tau] for tau in covering) != 1:
            raise ValueError("non-complex input")
    return [SignedCell(gens=c, coeff=coeff[c]) for c in faces]


# ---------------------------------------------------------------------------
# vertex operator of a pointed cone


def cone_operator(gens, qmat=None, strategy: str = "default"):
    """Berline-Vergne vertex operators D_n(C; 0) of a pointed rational cone.

    The signed decomposition of the cone is built once: a unimodular
    cone is its own single cell with coefficient 1; any other cone is
    triangulated and refined to a unimodular fan.  Returns a callable
    n -> D_n(C; 0) = sum of r_sigma * D_{n - d + dim sigma}(sigma; 0)
    over the nonzero signed cells, where d = dim C.  The callable
    requires n >= d; its result is homogeneous of order n - d and only
    pairs with the span of C.  Its `unimodular` attribute tells whether
    the cone was its own single cell.  Independent rays always span a
    pointed cone; any other cone that is not pointed is rejected by
    `triangulate_cone`.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    rays = _ray_list(gens)
    d = matrix_rank([as_vector(g) for g in rays])
    unimodular = len(rays) == d and _cell_index(tuple(rays)) == 1
    if unimodular:
        signed = [SignedCell(gens=tuple(rays), coeff=1)]
    else:
        fan = unimodularize(triangulate_cone(rays, strategy=strategy), strategy)
        signed = signed_coefficients(fan)
    cells = [
        (Fraction(c.coeff), UniCone(list(c.gens), qmat=qmat) if c.dim else None)
        for c in signed
        if c.coeff
    ]
    m = len(rays[0])

    def operator(n: int) -> DiffOp:
        if n < 0:
            raise ValueError("order must be non-negative")
        if n < d:
            raise ValueError(
                "operator requires order at least the dimension of the cone"
            )
        total = MultiPoly.zero(m)
        for coeff, cone in cells:
            if cone is None:
                if n == d:
                    total = total + MultiPoly.const(m, coeff)
                continue
            part = vertex_op(cone, n - d + cone.dim)
            total = total + part.symbol * coeff
        return DiffOp(m, n - d, total)

    operator.unimodular = unimodular
    return operator


def bv_op_pointed(
    gens,
    n: int,
    qmat=None,
    strategy: str = "default",
) -> DiffOp:
    """Berline-Vergne vertex operator D_n(C; 0) for a pointed rational cone:
    the order-n operator of `cone_operator`."""
    return cone_operator(gens, qmat=qmat, strategy=strategy)(n)
