"""Signed unimodular subdivisions of pointed rational cones.

A pointed cone that is not unimodular is handled in three steps: a
pulling triangulation on its own extreme rays, a stellar refinement of
the resulting fan until every maximal cell is unimodular, and an
inclusion-exclusion pass that turns the closed cover by cells into a
signed decomposition of the indicator function.  The Berline-Vergne
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
    hnf_lattice_basis,
    mat_vec,
    matrix_inverse,
    matrix_rank,
    primitive_vector,
    saturation_basis,
    solve_unique,
    transpose,
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
    rays = []
    for g in gens:
        vec = as_vector(g)
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
    assert xi is not None, "pointed cone must admit a positive functional"
    heights = [vdot(as_vector(xi), as_vector(g)) for g in extreme]
    scaled = [
        tuple(Fraction(gc, 1) / h for gc in g)
        for g, h in zip(extreme, heights)
    ]
    scale = math.lcm(*[c.denominator for p in scaled for c in p])
    section = [tuple(int(c * scale) for c in p) for p in scaled]
    poly = build_polytope(section, affine_hull=True)
    assert len(poly.vertices) == len(extreme), (
        "extreme rays must slice to polytope vertices"
    )
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
    bmat = as_matrix(transpose(basis))  # columns span the saturated lattice
    coord_rows = []
    for g in cell:
        y = solve_unique(bmat, as_vector(g))
        assert y is not None and all(c.denominator == 1 for c in y)
        coord_rows.append([int(c) for c in y])
    # x = M^T t for barycentric t, with M rows = generator coordinates.
    minv = matrix_inverse(as_matrix(transpose(coord_rows)))
    ranges = []
    for j in range(d):
        lo = sum(min(0, coord_rows[i][j]) for i in range(d))
        hi = sum(max(0, coord_rows[i][j]) for i in range(d))
        ranges.append(range(lo, hi + 1))
    best = None
    for x in itertools.product(*ranges):
        t = mat_vec(minv, as_vector(x))
        if not all(0 <= ti < 1 for ti in t):
            continue
        if all(ti == 0 for ti in t):
            continue
        w = tuple(
            sum(x[j] * basis[j][i] for j in range(d))
            for i in range(len(cell[0]))
        )
        order_key = w if strategy == "default" else tuple(-c for c in w)
        key = (max(t), order_key)
        if best is None or key < best[0]:
            best = (key, w, tuple(t))
    assert best is not None, "cell of index > 1 must contain a stellar point"
    return best[1], best[2]


def _barycentric(cell: tuple, point) -> Optional[tuple]:
    """Coordinates of point over the cell's rays if it lies in the cell."""
    cols = as_matrix(transpose([as_vector(g) for g in cell]))
    t = solve_unique(cols, as_vector(point))
    if t is None or any(ti < 0 for ti in t):
        return None
    return tuple(t)


def unimodularize(cone_or_cells, strategy: str = "default") -> list:
    """Refine simplicial cones into a fan of unimodular cones.

    Accepts either the generators of one simplicial cone or a list of
    cells forming a fan.  Repeatedly picks a cell of maximal index,
    stellar-subdivides the whole fan at a primitive lattice point from
    that cell's half-open fundamental parallelepiped (chosen to minimize
    the largest barycentric coordinate, ties broken by vector order),
    and stops when every cell is unimodular.  Each stellar step strictly
    decreases the index of every cell it touches, which bounds the
    number of steps.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    work = set(_simplicial_cells(cone_or_cells))
    while True:
        worst = None
        worst_index = 1
        for cell in sorted(work):
            idx = _cell_index(cell)
            if idx > worst_index:
                worst = cell
                worst_index = idx
        if worst is None:
            return sorted(work)
        w, _ = _stellar_point(worst, strategy)
        refined = set()
        for cell in work:
            t = _barycentric(cell, w)
            if t is None:
                refined.add(cell)
                continue
            old_index = _cell_index(cell)
            for i, ti in enumerate(t):
                if ti == 0:
                    continue
                piece = _cell_key(cell[:i] + cell[i + 1:] + (w,))
                assert _cell_index(piece) < old_index, (
                    "stellar subdivision must decrease the index"
                )
                refined.add(piece)
        work = refined


# ---------------------------------------------------------------------------
# inclusion-exclusion over the closed cells


def _face_cells(maximal: Sequence[tuple]) -> list:
    faces = set()
    for cell in maximal:
        for r in range(len(cell) + 1):
            for sub in itertools.combinations(cell, r):
                faces.add(tuple(sorted(sub)))
    return sorted(faces, key=lambda c: (-len(c), c))


def _member(cell: tuple, point) -> bool:
    if not cell:
        return all(x == 0 for x in as_vector(point))
    return _barycentric(cell, point) is not None


def signed_coefficients(cells) -> list:
    """Integer coefficients r making sum of r_sigma * [sigma] over all
    faces sigma of the fan equal the indicator of the union.

    The input cells must be the maximal cones of a fan (any two cells
    meet in a common face); otherwise ValueError("non-complex input").
    Returns SignedCell entries for every face, maximal cells first.
    """
    maximal = _simplicial_cells(cells)
    faces = _face_cells(maximal)
    coeff = {}
    for tau in faces:
        tau_set = set(tau)
        above = sum(
            coeff[sigma]
            for sigma in faces
            if len(sigma) > len(tau) and tau_set <= set(sigma)
        )
        coeff[tau] = 1 - above

    # A wrong face poset (overlapping, non-facially glued cells) shows up
    # as a point covered with total weight != 1.  Check the relative
    # interior of every face and a midpoint sample inside each maximal
    # cell.
    samples = []
    for tau in faces:
        if tau:
            samples.append(tuple(sum(col) for col in zip(*tau)))
    for sigma in maximal:
        samples.append(tuple(
            sum(Fraction(i + 1, len(sigma) + 1) * Fraction(g[k])
                for i, g in enumerate(sigma))
            for k in range(len(sigma[0]))
        ))
    for p in samples:
        total = sum(coeff[c] for c in faces if _member(c, p))
        if total != 1:
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
    the cone was its own single cell.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    rays = _ray_list(gens)
    if not cone_is_pointed(rays):
        raise ValueError("cone is not pointed")
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
    directions = tuple(
        tuple(Fraction(c) for c in b) for b in saturation_basis(rays)
    )

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
        return DiffOp(m, n - d, total, directions)

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
