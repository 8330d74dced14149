"""Signed unimodular decompositions of pointed rational cones.

A pointed cone that is not unimodular is first cut by a pulling
triangulation on its own extreme rays, read off the cone's face lattice
with no section polytope built.  Every simplicial cell gets one Smith
normal form (`_cell_lattice`), which gives its index, its integer
coordinates and the lattice points of its fundamental box.  From there
the two strategies take independent routes to signed unimodular cells:

- default: signed short-vector steps (`_signed_decomposition`).  Each
  cell is half-open with respect to one perturbed interior point, and a
  cell of index > 1 is replaced by the signed cells that a short lattice
  vector from its box makes, each of index at most half its own, until
  every cell is unimodular; a half-open unimodular cell is then an
  inclusion-exclusion over its closed faces.  An index-k cone of the
  form cone(e1, e2, e1 + e2 + k e3) takes 5 signed cells for every k.
- alternate: a stellar refinement of the fan, star by star, until every
  maximal cell is unimodular (`unimodularize`), and signs read off the
  boundary walls that make the fan's faces a signed decomposition of the
  cone's indicator function (`signed_coefficients`); the one coverage
  check, wall by wall, reads sides off the coordinates.  The same
  cone takes 2k - 1 fan cells.

The vertex operator of the cone is then the signed sum of the vertex
operators of the cells, each taken at the order matching its dimension
drop.  The final result must not depend on any of the choices made on
the way, and the two routes share only `_triangulate` and
`_cell_lattice`, so their agreement is a check of the theory; callers
are expected to exercise both built-in strategies when they want that
checked.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .conecalc import DiffOp, _bv_sym, _Cell, _poly, _to_ambient, _ysum
from .exactcore import (
    _integer_rows,
    _integer_vectors,
    _is_int,
    _unimodular_basis,
    identity_matrix,
    inner_product_matrix,
    matrix_rank,
    primitive_vector,
    smith_normal_form,
)
from .geometry import _cone_facets, _extreme_rays, _face_lattice, _pulling_triangulation

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
    vecs = _integer_vectors(gens, "generators")
    if not vecs:
        raise ValueError("empty generating set")
    if not all(map(any, vecs)):
        raise ValueError("zero vector is not a cone generator")
    return list(dict.fromkeys(map(primitive_vector, vecs)))


def _cell_key(gens) -> tuple:
    return tuple(sorted(gens))


class _Lattice(NamedTuple):
    """Lattice data of a simplicial cell, from `_cell_lattice`."""

    index: int
    scale: int
    coords: Callable
    box: Callable


def _cell_lattice(cell: Sequence[tuple]) -> _Lattice:
    """Index, integer coordinates and box of a simplicial cell, all from
    one Smith normal form U G V = D of its generator matrix G (columns =
    rays, k of them, diagonal d_1 | ... | d_k of D).

    The saturated lattice L = Z^m cap span(cell) is U^-1 (Z^k x 0) and
    the rays generate U^-1 (D Z^k), so the index of the cell in L is the
    product of the d_i, and the box L / (sum of Z g_i) is the group of
    residues r_i mod d_i.  With scale = d_k:

    - coords(p) is the integer vector scale * t of the coordinates t of
      the integer point p over the rays, V diag(scale / d_i) (Up)[:k], or
      None when (Up)[k:] != 0, that is when p is off the cell's span;
    - box() yields index-many pairs (scale * t, p), one per residue r:
      V diag(scale / d_i) r reduced mod scale gives the lattice point
      p = sum t_i g_i of the half-open parallelepiped 0 <= t_i < 1.
    """
    k, m = len(cell), len(cell[0])
    u, dmat, v = smith_normal_form(list(zip(*cell)))
    d = [dmat[i][i] for i in range(k)]
    scale = d[-1]
    mult = [scale // di for di in d]

    def lift(s) -> list:
        return [sum(a * c * x for a, c, x in zip(row, mult, s)) for row in v]

    # W = V diag(scale / d_i) U[:k], one integer k x m matrix per cell
    w = list(zip(*(lift(col) for col in zip(*u[:k]))))
    off_span = u[k:]

    def coords(p):
        if any(sum(map(mul, row, p)) for row in off_span):
            return None
        return tuple(sum(map(mul, row, p)) for row in w)

    def box():
        for r in itertools.product(*map(range, d)):
            t = tuple(x % scale for x in lift(r))
            p = tuple(
                sum(ti * g[j] for ti, g in zip(t, cell)) // scale
                for j in range(m)
            )
            yield t, p

    return _Lattice(math.prod(d), scale, coords, box)


def _simplicial_cells(data) -> list:
    """Normalize unimodularize and signed_coefficients input, one cone or a
    list of cells, to sorted cells of primitive rays.  A cell listed twice
    raises ValueError("non-complex input"): its copies cover its points
    twice."""
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
        if matrix_rank(rays) != len(rays):
            raise ValueError("cells must be simplicial cones")
        cells.append(_cell_key(rays))
    _integer_vectors([cell[0] for cell in cells], "generators")
    if len(set(cells)) < len(cells):
        raise ValueError("non-complex input")
    return cells


# ---------------------------------------------------------------------------
# triangulation on the cone's own rays


def triangulate_cone(gens, strategy: str = "default") -> list:
    """Triangulate a pointed cone into simplicial cones on its extreme rays.

    Returns a sorted list of cells, each a sorted tuple of primitive
    integer generators.  The cells form a fan covering the cone, with no
    new rays.  strategy="alternate" pulls from the other end of the
    vertex order and generally produces a different triangulation.

    The facets come from `geometry._cone_facets` in integer coordinates
    of the rays' span, the first k rows of U in one Smith normal form
    U G V = D of the generator matrix G.  A ray is extreme exactly when
    the facets tight on it meet in that ray alone, its least face, and the
    cone is pointed exactly when some ray is extreme, since a line lies in
    every face.  The sum xi of the normals is positive on every extreme
    ray g, and the section {<xi, x> = 1} is a polytope with vertices
    g / <xi, g> and the cone's face lattice (`geometry._face_lattice`).
    Its rays are numbered by the lex order of g / <xi, g>, and the pulling
    triangulation of the face lattice gives the cells.  No section
    polytope is built.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    rays = _ray_list(gens)
    return _triangulate(rays, matrix_rank(rays), strategy)


def _triangulate(rays: list, k: int, strategy: str) -> list:
    """`triangulate_cone` on checked input: the distinct primitive rays of
    `_ray_list`, their rank k and a known strategy."""
    if k == len(rays):
        # independent rays are pointed and every one of them is extreme
        return [_cell_key(rays)]
    u, _, _ = smith_normal_form(list(zip(*rays)))
    coords = [[sum(a * x for a, x in zip(row, g)) for row in u[:k]] for g in rays]
    facets = _cone_facets(coords)
    extreme = _extreme_rays(facets, len(rays))
    if not extreme:
        raise ValueError("cone is not pointed")
    if len(extreme) == k:
        return [_cell_key([rays[i] for i in extreme])]
    # number the extreme rays by the lex order of g / <xi, g>
    xi = [sum(column) for column in zip(*facets)]
    heights = {i: sum(a * y for a, y in zip(xi, coords[i])) for i in extreme}
    top = math.lcm(*heights.values())
    order = sorted(extreme, key=lambda i: [x * (top // heights[i]) for x in rays[i]])
    faces = _face_lattice(facets, order)
    choose = min if strategy == "default" else max
    simplices = _pulling_triangulation(faces, faces[-1], choose)
    return sorted(_cell_key([rays[order[v]] for v in s]) for s in simplices)


# ---------------------------------------------------------------------------
# stellar refinement to a unimodular fan


def _box_min(lattice: _Lattice, key: Callable):
    """The least key(scale * t, p) over the nonzero points of the cell's box,
    by one streaming scan of `lattice.box()`."""
    best = min((key(t, p) for t, p in lattice.box() if any(t)), default=None)
    if best is None:
        raise AssertionError("cell of index > 1 must contain a stellar point")
    return best


def _stellar_point(lattice: _Lattice, strategy: str) -> tuple:
    """(scale * t, p): the primitive lattice point p = sum t_i g_i of the cell's
    half-open fundamental parallelepiped minimizing the largest t_i."""
    sign = 1 if strategy == "default" else -1
    return _box_min(lattice, lambda t, p: (max(t), tuple(sign * c for c in p), t, p))[2:]


def unimodularize(cone_or_cells, strategy: str = "default") -> list:
    """Refine simplicial cones into a fan of unimodular cones.

    Accepts either the generators of one simplicial cone or a list of
    cells forming a fan; a cell listed twice raises ValueError("non-complex
    input").  Repeatedly picks a cell of maximal index, stellar-subdivides
    the whole fan at a primitive lattice point w from
    that cell's half-open fundamental parallelepiped (chosen to minimize
    the largest barycentric coordinate, ties broken by vector order),
    and stops when every cell is unimodular.  Each stellar step strictly
    decreases the index of every cell it touches, which bounds the
    number of steps.  A step touches only the star of w: w is interior to
    the face tau of the worst cell on the rays where its coordinates are
    positive, so the cells that contain w are those that contain every ray
    of tau, and w replaces each ray of tau in them.  Every cell's lattice
    data (`_cell_lattice`: index, coordinates and box from one Smith
    normal form) is computed once, when the cell is made, and a refined
    cell's entry is dropped; the alternate `cone_operator` hands the
    final cells' data on to the signs of `_signed_faces`.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    return list(_unimodular_fan(_simplicial_cells(cone_or_cells), strategy))


def _unimodular_fan(cells, strategy: str) -> dict:
    """`unimodularize` on cells normalized as by `_simplicial_cells`: its
    maximal cells in sorted order, each mapped to its `_cell_lattice`."""
    lattice = {cell: _cell_lattice(cell) for cell in cells}
    star = {}
    for cell in lattice:
        for g in cell:
            star.setdefault(g, set()).add(cell)
    # the worst cell is the first in sorted order of those of largest index
    heap = [(-lattice[cell].index, cell) for cell in lattice]
    heapq.heapify(heap)
    while True:
        worst = heap[0][1]
        if worst not in lattice:
            heapq.heappop(heap)
            continue
        if lattice[worst].index == 1:
            return dict(sorted(lattice.items()))
        t, w = _stellar_point(lattice[worst], strategy)
        tau = {g for g, ti in zip(worst, t) if ti}
        for cell in set.intersection(*(star[g] for g in tau)):
            index = lattice.pop(cell).index
            for g in cell:
                star[g].remove(cell)
            for i, g in enumerate(cell):
                if g not in tau:
                    continue
                # w is interior to tau, a face of dimension >= 2, so it is no
                # ray of an earlier cell and every piece is new
                piece = _cell_key(cell[:i] + cell[i + 1:] + (w,))
                lattice[piece] = _cell_lattice(piece)
                if lattice[piece].index >= index:
                    raise AssertionError("stellar subdivision must decrease the index")
                for h in piece:
                    star.setdefault(h, set()).add(piece)
                heapq.heappush(heap, (-lattice[piece].index, piece))


# ---------------------------------------------------------------------------
# signed faces of a fan covering a convex cone


def _subsets(cell: tuple):
    """Every face of a simplicial cell, as sorted sub-tuples of its sorted
    generators, the empty face included."""
    return itertools.chain.from_iterable(
        itertools.combinations(cell, r) for r in range(len(cell) + 1)
    )


def signed_coefficients(cells) -> list:
    """Integer coefficients r making sum of r_sigma * [sigma] over all
    faces sigma of the fan equal the indicator of the union.

    The input cells must be the maximal cones of a fan covering a convex
    cone, of any dimension, pointed or not; that cone is then the one
    generated by the cells' rays.  Any other input, a cell listed twice or
    a fan with non-convex support included, raises ValueError("non-complex
    input"): a repeat from `_simplicial_cells`, anything else from
    `_signed_faces`' pseudomanifold test over the cells' own rays.
    Returns SignedCell entries for every face, maximal cells first.
    """
    maximal = _simplicial_cells(cells)
    rays = sorted({g for cell in maximal for g in cell})
    return _signed_faces({cell: _cell_lattice(cell) for cell in maximal}, rays)


def _signed_faces(maximal: dict, rays) -> list:
    """`signed_coefficients` on cells already normalized by
    `_simplicial_cells` or built by `_unimodular_fan`, each mapped to its
    `_cell_lattice`, that should form a fan covering the convex cone
    generated by `rays`.

    The self-check runs wall by wall, linear in the fan save for one pass
    over `rays` per boundary wall: every wall (a cell minus one ray) must
    lie in two cells whose apexes are strictly on opposite sides of it,
    or be a boundary wall, in one cell with no ray strictly beyond it or
    off its span, and one interior point of one cell must lie in that
    cell alone (the pseudomanifold test; De Loera, Rambau and Santos,
    Triangulations, ch. 4).  Beyond the wall of sigma opposite g_i means
    a negative i-th integer coordinate over sigma.  The cells then form a
    fan on a convex k-cone K, and [K] sums (-1)^(k - dim tau) [tau] over
    the faces tau off the boundary of K, whose links are spheres, not
    balls.  That boundary is the union of the boundary walls, and a face
    in it is a face of the wall holding one of its relative interior
    points: r_tau = 0 on their faces, the empty one too if there are any.
    """
    faces = sorted({tau for sigma in maximal for tau in _subsets(sigma)}, key=lambda c: (-len(c), c))
    boundary, walls = set(), {}
    for sigma in maximal:
        for i in range(len(sigma)):
            walls.setdefault(sigma[:i] + sigma[i + 1:], []).append((sigma, i))
    for (sigma, i), *rest in walls.values():
        coords = maximal[sigma].coords
        if rest:
            t = coords(rest[0][0][rest[0][1]]) if len(rest) == 1 else None
            ok = t is not None and t[i] < 0
        else:
            ok = all(t is not None and t[i] >= 0 for t in map(coords, rays))
            boundary.update(_subsets(sigma[:i] + sigma[i + 1:]))
        if not ok:
            raise ValueError("non-complex input")
    inside = tuple(map(sum, zip(*next(iter(maximal)))))
    covering = [lattice.coords(inside) for lattice in maximal.values()]
    if sum(t is not None and min(t) >= 0 for t in covering) != 1:
        raise ValueError("non-complex input")
    return [SignedCell(c, 0 if c in boundary else (-1) ** (len(faces[0]) - len(c))) for c in faces]


# ---------------------------------------------------------------------------
# signed short-vector decomposition through half-open cells


def _short_vector(lattice: _Lattice, cell: tuple) -> tuple:
    """(scale * lambda, w): the lattice vector w = sum lambda_i g_i of the
    cell's span with every lambda_i in {t_i, t_i - 1} for a nonzero box
    point t, minimizing max |lambda_i| (at most 1/2), ties broken by w.
    When every lambda_i <= 0, w lies in -cell and is negated."""
    scale, minus = lattice.scale, [tuple(-c for c in g) for g in cell]

    def key(t, p):
        lam = tuple(x if 2 * x <= scale else x - scale for x in t)
        # w = p - the rays whose lambda_i = t_i - 1
        w = tuple(map(sum, zip(p, *(h for h, x in zip(minus, lam) if x < 0))))
        return max(map(abs, lam)), w, lam

    _, w, lam = _box_min(lattice, key)
    if max(lam) <= 0:
        return tuple(-x for x in lam), tuple(-x for x in w)
    return lam, w


def _signed_decomposition(cells: list, rays: list) -> list:
    """Signed closed unimodular cells whose indicators sum to [K], for the
    cells of a triangulation of the pointed cone K generated by `rays`:
    the nonzero SignedCell entries, sorted by (-dim, gens).

    Every cell is half-open with respect to y = sum of the rays,
    perturbed lexicographically by the first cell's rays: the facet
    opposite g_i is dropped when the i-th coordinates of y, then of those
    rays, have their first nonzero one negative.  y is interior to K, so
    the half-open cells of the triangulation cover K exactly once
    (Koeppe and Verdoolaege, Electron. J. Combin. 15, 2008).  A cell
    sigma of index > 1 is replaced by the cells sigma[g_i <- w] with
    lambda_i != 0, w from `_short_vector`, each with the sign of lambda_i
    (Barvinok, Math. Oper. Res. 19, 1994): along x - s w, s >= 0, the
    i-th of them holds x when the line crosses the facet opposite g_i,
    leaving sigma when lambda_i > 0 and entering when lambda_i < 0, and
    w not in -sigma keeps the line from staying in sigma for ever.  Each
    new cell has index |lambda_i| ind sigma <= ind sigma / 2.  A
    half-open cell is fixed by its rays, so one table maps each cell met
    to its `_cell_lattice` and summed sign, drained largest index first:
    pieces are smaller than their cell, so each cell is taken once, with
    its whole sign, and one whose signs sum to 0 is dropped unsplit.  A
    unimodular leaf with open facets S is the sum over the subsets T of
    S of (-1)^|T| [its face without the rays in T]; one pass of its
    coordinates over y, the first cell's rays and the other rays gives S
    and its count of the points it holds.  The self-check raises
    AssertionError: each step must lower the index, the half-open leaves
    must hold y and every ray once, and the coefficients must sum to 1,
    the count at the origin, with 0 on the face {0} itself, which the
    compactly supported Euler characteristic forces: it is 1 on {0} and
    0 on every other closed cone.
    """
    points = [tuple(map(sum, zip(*rays))), *dict.fromkeys([*cells[0], *rays])]
    table, coeff, held = {cell: [_cell_lattice(cell), 1] for cell in cells}, {}, [0] * len(points)
    heap = sorted((-lattice.index, cell) for cell, (lattice, _) in table.items())
    while heap:
        lattice, sign = table[cell := heapq.heappop(heap)[1]]
        if not sign:
            continue
        if lattice.index > 1:
            lam, w = _short_vector(lattice, cell)
            for i, x in enumerate(lam):
                if x:
                    piece = _cell_key(cell[:i] + (w,) + cell[i + 1:])
                    if piece not in table:
                        table[piece] = [_cell_lattice(piece), 0]
                        heapq.heappush(heap, (-table[piece][0].index, piece))
                    if table[piece][0].index >= lattice.index:
                        raise AssertionError("a signed step must decrease the index")
                    table[piece][1] += sign if x > 0 else -sign
            continue
        coords = [lattice.coords(p) for p in points]
        opened = {i for i in range(len(cell)) if next(c[i] for c in coords if c[i]) < 0}
        held = [h + sign * all(ti > 0 or (ti == 0 and i not in opened) for i, ti in enumerate(t))
                for h, t in zip(held, coords)]
        for drop in _subsets(tuple(sorted(opened))):
            face = tuple(g for i, g in enumerate(cell) if i not in drop)
            coeff[face] = coeff.get(face, 0) + (-1) ** len(drop) * sign
    if held != [1] * len(points):
        raise AssertionError("signed cells must hold each point of the cone once")
    if sum(coeff.values()) != 1 or coeff.get((), 0):
        raise AssertionError("signed cells must hold the origin once, in cells with rays")
    return [SignedCell(c, r) for c, r in sorted(coeff.items(), key=lambda e: (-len(e[0]), e[0])) if r]


# ---------------------------------------------------------------------------
# vertex operator of a pointed cone


def cone_operator(gens, qmat=None, strategy: str = "default"):
    """Berline-Vergne vertex operators D_n(C; 0) of a pointed rational cone.

    The signed decomposition of the cone is built once.  A cone of full
    dimension whose rays have determinant +-1 is unimodular, its own single
    cell with coefficient 1, known from one elimination with no
    triangulation and no Smith form.  Any other cone is triangulated and
    then split by signed short-vector steps (strategy "default") or
    refined to a unimodular stellar fan (strategy "alternate"), and is
    unimodular when it is its own single signed cell.  Returns a callable
    n -> D_n(C; 0) = sum of r_sigma * D_{n - d + dim sigma}(sigma; 0)
    over the nonzero signed cells, where d = dim C.  The callable
    requires n >= d; its result is homogeneous of order n - d and only
    pairs with the span of C.  Its `cells` attribute lists those
    SignedCell entries, sorted by (-dim, gens), and its `unimodular`
    attribute tells whether the cone was its own single cell.
    Independent rays always span a pointed cone; any other cone that is
    not pointed is rejected by `_triangulate`.  Q is checked once per
    call, and each order is one integer sum of the cells' symbols.  Cells
    whose Gram matrices are equal up to a scalar share one symbol per
    order (`conecalc._Cell`).
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    rays = _ray_list(gens)
    m = len(rays[0])
    return _cone_operator(rays, matrix_rank(rays), inner_product_matrix(qmat, m),
                          identity_matrix(m), strategy, {})


def _cone_operator(rays: list, d: int, qmat, basis, strategy: str, classes: dict):
    """`cone_operator` on validated input: distinct primitive integer rays
    spanning a space of dimension d, a symmetric positive definite Q on
    their coordinates and rows b_j of length M, one per coordinate: the
    identity in `cone_operator`, and in `engine` a face's transverse G and
    B as `transverse_cone` returns them.  The cells share their symbols
    with every cell of proportional Gram matrix in `classes`, a dict the
    caller owns (`engine.expansion` keeps one per call).

    Q and B are scaled to integers once per cone, as sQ and rows t b_j.
    The operators come out lifted to Q^M, as if composed with
    xi_j = <xi, b_j>: a cell ray h enters as the form sum_j h_j t b_j,
    built once per distinct ray, and each cell's symbol is composed
    straight to these forms.  A cone of d rays in Q^d with determinant +-1
    is its own single cell, by `_unimodular_basis`; any other cone takes
    `_triangulate`, then `_signed_decomposition` under "default" or
    `_unimodular_fan` and `_signed_faces` under "alternate".  All three
    give the sorted nonzero cells that the operator keeps as `cells`, and
    the cone is unimodular when they are its rays alone.
    """
    qi, (lift, t) = _integer_rows(qmat)[0], _integer_rows(basis)
    own = [SignedCell(_cell_key(rays), 1)]
    if _unimodular_basis(rays):
        signed = own
    elif strategy == "default":
        signed = _signed_decomposition(_triangulate(rays, d, strategy), rays)
    else:
        cells = _unimodular_fan(_triangulate(rays, d, strategy), strategy)
        signed = [c for c in _signed_faces(cells, rays) if c.coeff]
    size, cols = len(lift[0]), list(zip(*lift))
    forms = {h: {k: x for k, col in enumerate(cols) if (x := sum(map(mul, h, col)))}
             for h in {h for c in signed for h in c.gens}}
    cells = [(c.coeff, _Cell(c.gens, qi, [forms[h] for h in c.gens], t, size, classes))
             for c in signed]

    def operator(n: int) -> DiffOp:
        if not _is_int(n):
            raise ValueError("order must be an integer")
        if n < 0:
            raise ValueError("order must be non-negative")
        if n < d:
            raise ValueError("operator requires order at least the dimension of the cone")
        parts = [
            (coeff, _to_ambient(cell, _bv_sym(cell, tuple(range(cell.dim)), n - d + cell.dim)))
            for coeff, cell in cells
        ]
        return DiffOp(size, n - d, _poly(_ysum(parts), t, size))

    operator.cells, operator.unimodular = signed, signed == own
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
