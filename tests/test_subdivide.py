"""Tests for signed unimodular subdivisions and pointed-cone operators."""

import hashlib
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emsum import conecalc, exactcore, geometry, subdivide
from emsum.conecalc import UniCone, bv_op_unimodular, ibp_op, vertex_op
from emsum.exactcore import (
    MultiPoly,
    as_matrix,
    mat_mul,
    matrix_inverse,
    matrix_rank,
    primitive_vector,
    transpose,
)
from emsum.subdivide import (
    SignedCell,
    STRATEGIES,
    _cell_lattice,
    bv_op_pointed,
    cone_operator,
    signed_coefficients,
    triangulate_cone,
    unimodularize,
)

from _helpers import (
    assert_cells_hold_the_cone_pointwise,
    built_cell_symbols,
    facet_candidates,
    fraction_det,
    in_simplicial_cone,
    run_optimized,
    sample_cover_coefficients,
    section_fan,
    stellar_fan_reference,
    unimodular_matrix,
)


SQUARE_CONE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


def index_cone(k):
    """Cone of lattice index k; its unimodular fan has 2k - 1 cells."""
    return [(1, 0, 0), (0, 1, 0), (1, 1, k)]


# Cone over an integral pentagon at height one.  Its two pulling
# triangulations genuinely differ, and several cells need stellar
# refinement, so it exercises every choice the subdivision code makes.
PENTAGON_CONE = [
    (0, 0, 1),
    (2, 0, 1),
    (3, 1, 1),
    (1, 3, 1),
    (0, 2, 1),
]


def test_triangulate_simplicial_identity():
    assert triangulate_cone([(1, 0), (1, 1)]) == [((1, 0), (1, 1))]
    assert triangulate_cone([(3, 6, 0)]) == [((1, 2, 0),)]
    orthant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert triangulate_cone(orthant) == [tuple(sorted(orthant))]


def test_triangulate_redundant_ray():
    # the middle ray is not extreme and must be dropped
    assert triangulate_cone([(1, 0), (1, 1), (0, 1)]) == [((0, 1), (1, 0))]


@st.composite
def cones_with_a_lift(draw):
    m = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * m).filter(any)
    gens = draw(st.lists(vec, min_size=m + 1, max_size=m + 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return gens, unimodular_matrix(rng, m + 1)


@settings(max_examples=60, deadline=None)
@given(cones_with_a_lift())
def test_pointed_and_extreme_rays_match_hull_reference(case):
    # independently of the cone's facets: cone(G) is pointed exactly when
    # 0 is a vertex of conv({0} u G), and a primitive g in G is extreme
    # exactly when [0, g] is an edge, both read off the m-subset scan;
    # the same cone carried into Z^(m+1) by a unimodular map must agree
    gens, lift = case
    rays = sorted({primitive_vector(g) for g in gens})
    m = len(rays[0])
    assume(matrix_rank(as_matrix(rays)) == m < len(rays))
    origin = (0,) * m
    facets = facet_candidates([origin] + rays, m)

    def tight_rank(*points):
        return matrix_rank(as_matrix(
            alpha for alpha, c in facets
            if all(sum(a * x for a, x in zip(alpha, p)) == c for p in points)
        ))

    def lifted(g):
        return tuple(sum(a * x for a, x in zip(row, g + (0,))) for row in lift)

    for cone, image in ((rays, lambda g: g), ([lifted(g) for g in rays], lifted)):
        for strategy in STRATEGIES:
            if tight_rank(origin) < m:
                with pytest.raises(ValueError, match="not pointed"):
                    triangulate_cone(cone, strategy=strategy)
                continue
            cells = triangulate_cone(cone, strategy=strategy)
            extreme = {image(g) for g in rays if tight_rank(origin, g) == m - 1}
            assert {g for cell in cells for g in cell} == extreme


@st.composite
def pointed_cones(draw):
    # a positive last coordinate keeps the cone pointed
    m = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * (m - 1), st.integers(1, 3))
    gens = draw(st.lists(vec, min_size=m + 1, max_size=m + 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return gens, unimodular_matrix(rng, m), unimodular_matrix(rng, m + 1)


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_triangulation_matches_section_fan_reference(case):
    # pulling on the cone's own face lattice, its extreme rays numbered by
    # the lex order of g / <xi, g>, gives the fan of the section polytope
    # pulled in the lex order of its ambient vertices, here and on
    # unimodular images of the cone in Z^m and Z^(m+1)
    gens, square, lift = case
    assume(len(triangulate_cone(gens)) > 1)

    def image(mat, g):
        g = g + (0,) * (len(mat) - len(g))
        return tuple(sum(a * x for a, x in zip(row, g)) for row in mat)

    for cone in (gens, [image(square, g) for g in gens],
                 [image(lift, g) for g in gens]):
        for strategy in STRATEGIES:
            assert triangulate_cone(cone, strategy=strategy) == section_fan(
                cone, strategy
            )


def test_triangulation_builds_no_section_polytope(monkeypatch):
    # the cone's facets give its face lattice: one double description and
    # no polytope, of a section or otherwise
    polytopes, facet_calls = [], []
    real_init, real_facets = geometry.LatticePolytope.__init__, geometry._cone_facets

    def counting_init(self, *args, **kwargs):
        polytopes.append(args)
        real_init(self, *args, **kwargs)

    def counting_facets(rays):
        facet_calls.append(rays)
        return real_facets(rays)

    monkeypatch.setattr(geometry.LatticePolytope, "__init__", counting_init)
    for module in (geometry, subdivide):
        monkeypatch.setattr(module, "_cone_facets", counting_facets)
    assert len(triangulate_cone(PENTAGON_CONE)) == 3
    assert polytopes == []
    assert len(facet_calls) == 1


def test_triangulate_square_cone():
    cells = triangulate_cone(SQUARE_CONE)
    assert len(cells) == 2
    for cell in cells:
        assert len(cell) == 3
    # the two cells share a 2-dimensional face and cover all four rays
    rays = {g for cell in cells for g in cell}
    assert rays == {tuple(g) for g in SQUARE_CONE}
    shared = set(cells[0]) & set(cells[1])
    assert len(shared) == 2
    signed_coefficients(cells)  # fan property holds


def test_triangulate_validation():
    with pytest.raises(ValueError, match="not pointed"):
        triangulate_cone([(1, 0), (-1, 0)])
    with pytest.raises(ValueError, match="integer"):
        triangulate_cone([(F(1, 2), F(0))])
    with pytest.raises(ValueError, match="zero vector"):
        triangulate_cone([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="empty"):
        triangulate_cone([])
    with pytest.raises(ValueError, match="strategy"):
        triangulate_cone([(1, 0)], strategy="fancy")


def test_unimodularize_hirzebruch_jung_pairs():
    assert unimodularize([(1, 0), (1, 2)]) == [
        ((1, 0), (1, 1)),
        ((1, 1), (1, 2)),
    ]
    assert unimodularize([(1, 0), (2, 3)]) == [
        ((1, 0), (1, 1)),
        ((1, 1), (2, 3)),
    ]
    for cell in unimodularize([(1, 0), (2, 3)]):
        assert _cell_lattice(cell).index == 1


def test_unimodularize_already_unimodular():
    assert unimodularize([(0, 1), (1, 0)]) == [((0, 1), (1, 0))]
    skew = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert unimodularize(skew) == [tuple(sorted(skew))]


def test_unimodularize_strategies_converge_in_2d():
    # both stellar orders must end at the same continued-fraction fan
    fan_a = unimodularize([(1, 0), (1, 3)])
    fan_b = unimodularize([(1, 0), (1, 3)], strategy="alternate")
    expected = [
        ((1, 0), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 3)),
    ]
    assert fan_a == expected
    assert fan_b == expected


def test_unimodularize_fan_input_shared_face():
    # the stellar point (0,0,1) lies on the face shared by both cells,
    # so the subdivision must touch the whole fan to stay a complex
    fan = unimodularize(triangulate_cone(SQUARE_CONE))
    assert len(fan) == 4
    for cell in fan:
        assert _cell_lattice(cell).index == 1
        assert (0, 0, 1) in cell
    signed_coefficients(fan)


def test_unimodularize_interior_stellar_point():
    fan = unimodularize([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert len(fan) == 3
    for cell in fan:
        assert _cell_lattice(cell).index == 1
        assert (1, 1, 1) in cell


def test_unimodularize_one_smith_form_per_cell(monkeypatch):
    calls = []
    real = subdivide.smith_normal_form

    def counting(mat):
        calls.append(tuple(map(tuple, mat)))
        return real(mat)

    monkeypatch.setattr(subdivide, "smith_normal_form", counting)
    fan = unimodularize(triangulate_cone(index_cone(15)))
    assert len(fan) == 29
    assert len(calls) == len(set(calls)) >= len(fan)


def test_cone_operator_one_smith_form_per_fan_cell(monkeypatch):
    # one per cell that the stellar refinement meets, the cone itself
    # included, which is also the unimodularity check; the
    # inclusion-exclusion pass reuses the final cells' data instead of
    # recomputing it
    calls = []
    real = subdivide.smith_normal_form

    def counting(mat):
        calls.append(tuple(map(tuple, mat)))
        return real(mat)

    monkeypatch.setattr(subdivide, "smith_normal_form", counting)
    cone_operator(index_cone(15))
    assert len(calls) <= 55


@st.composite
def simplicial_cells(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    row = st.tuples(*[st.integers(-4, 4)] * m)
    cell = draw(st.lists(row, min_size=k, max_size=k))
    assume(matrix_rank(as_matrix(cell)) == k)
    return cell


@settings(max_examples=80, deadline=None)
@given(simplicial_cells(), st.data())
def test_cell_lattice_matches_exact_algebra(cell, data):
    k, m = len(cell), len(cell[0])
    lattice = _cell_lattice(cell)
    scale = lattice.scale

    def combine(t):
        return tuple(
            sum(ti * g[j] for ti, g in zip(t, cell)) for j in range(m)
        )

    # the index is the gcd of the maximal minors (|det| when k == m)
    minors = [
        int(fraction_det([[g[r] for g in cell] for r in rows]))
        for rows in combinations(range(m), k)
    ]
    assert lattice.index == math.gcd(*minors)

    box = list(lattice.box())
    assert len(box) == len({p for _, p in box}) == lattice.index
    for t, p in box:
        assert all(0 <= ti < scale for ti in t)
        assert combine(t) == tuple(scale * x for x in p)
        assert lattice.coords(p) == t

    c = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    assert lattice.coords(combine(c)) == tuple(scale * ci for ci in c)

    q = data.draw(st.tuples(*[st.integers(-4, 4)] * m))
    t = lattice.coords(q)
    assert (t is None) == (matrix_rank(as_matrix(cell + [q])) > k)
    if t is not None:
        assert combine(t) == tuple(scale * x for x in q)


def test_unimodularize_validation():
    with pytest.raises(ValueError, match="simplicial"):
        unimodularize([(1, 0), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match="empty"):
        unimodularize([])


def test_signed_coefficients_single_cell():
    out = signed_coefficients([[(1, 0), (0, 1)]])
    table = {cell.gens: cell.coeff for cell in out}
    assert table == {
        ((0, 1), (1, 0)): 1,
        ((0, 1),): 0,
        ((1, 0),): 0,
        (): 0,
    }


def test_signed_coefficients_shared_ray():
    out = signed_coefficients([[(1, 0), (1, 1)], [(1, 1), (0, 1)]])
    table = {cell.gens: cell.coeff for cell in out}
    assert table[((1, 0), (1, 1))] == 1
    assert table[((0, 1), (1, 1))] == 1
    assert table[((1, 1),)] == -1
    assert table[((1, 0),)] == 0
    assert table[((0, 1),)] == 0
    assert table[()] == 0


def test_signed_coefficients_sorted_output():
    out = signed_coefficients([[(1, 0), (1, 1)], [(1, 1), (0, 1)]])
    dims = [cell.dim for cell in out]
    assert dims == sorted(dims, reverse=True)


def test_signed_coefficients_window_count():
    # the signed cells must count lattice points exactly like the cone
    cells = unimodularize([(1, 0), (1, 2)])
    signed = signed_coefficients(cells)
    box = [(x, y) for x in range(6) for y in range(6)]
    direct = sum(1 for p in box if in_simplicial_cone(p, [(1, 0), (1, 2)]))
    weighted = 0
    for cell in signed:
        for p in box:
            if in_simplicial_cone(p, cell.gens):
                weighted += cell.coeff
    assert weighted == direct


def test_signed_coefficients_non_complex():
    # (1,1) is interior to the first cell, so the cells do not meet in
    # a common face
    with pytest.raises(ValueError, match="non-complex input"):
        signed_coefficients([[(1, 0), (0, 1)], [(0, 1), (1, 1)]])


@pytest.mark.parametrize(
    "cells",
    [
        # the 2D overlap lifted into R^3: samples leave some cells' spans
        [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (1, 1, 0)]],
        # (1,1,1) is interior to the orthant
        [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 1, 1), (0, 1, 0), (0, 0, 1)]],
        # two quadrants in different planes: a fan, but its support is not
        # convex, and only fans covering a convex cone are accepted
        [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 0, 1)]],
    ],
    ids=["lifted-2d-overlap", "3d-overlap", "planes-sharing-a-ray"],
)
def test_signed_coefficients_non_complex_beyond_2d(cells):
    with pytest.raises(ValueError, match="non-complex input"):
        signed_coefficients(cells)


REPEATED_CELLS = {
    "one-cell-twice": [[(1, 0), (0, 1)], [(0, 1), (1, 0)]],
    "repeat-beside-a-neighbour": [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(0, 1), (-1, 0)]],
    "non-unimodular-cell-twice": [[(1, 0), (1, 2)], [(1, 2), (1, 0)]],
}


@pytest.mark.parametrize(
    "function, cells",
    [
        pytest.param(function, cells, id=prefix + name)
        for prefix, function in (("", signed_coefficients), ("unimodularize-", unimodularize))
        for name, cells in REPEATED_CELLS.items()
    ],
)
def test_signed_coefficients_rejects_a_repeated_cell(function, cells):
    # a cell listed twice covers its points twice, even though it has the
    # same sorted rays as its copy
    with pytest.raises(ValueError, match="non-complex input"):
        function(cells)


@pytest.mark.parametrize(
    "cells, expected",
    [
        (
            [[(1, 0, 0), (1, 1, 0)], [(1, 1, 0), (0, 1, 0)]],
            {
                ((0, 1, 0), (1, 1, 0)): 1,
                ((1, 0, 0), (1, 1, 0)): 1,
                ((0, 1, 0),): 0,
                ((1, 0, 0),): 0,
                ((1, 1, 0),): -1,
                (): 0,
            },
        ),
    ],
    ids=["flat-fan-in-3d"],
)
def test_signed_coefficients_lower_dimensional_fans(cells, expected):
    out = signed_coefficients(cells)
    assert {cell.gens: cell.coeff for cell in out} == expected


# The square cone's rays, its apex ray and the midpoints of its edges.
SQ_A, SQ_B, SQ_C, SQ_D = SQUARE_CONE
SQ_O = (0, 0, 1)
SQ_MIDPOINTS = [(1, 1, 2), (-1, 1, 2), (-1, -1, 2), (1, -1, 2)]
# a second triangulation of the square cone: the star of SQ_O with every
# edge split at its midpoint, so it shares no wall with the first one
SQ_STAR = [
    cell
    for g, mid, h in zip(SQUARE_CONE, SQ_MIDPOINTS, SQUARE_CONE[1:] + SQUARE_CONE[:1])
    for cell in ([SQ_O, g, mid], [SQ_O, mid, h])
]
E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _walls_checked(cells, rays):
    maximal = {}
    for cell in cells:
        key = tuple(sorted(cell))
        maximal[key] = _cell_lattice(key)
    return subdivide._signed_faces(maximal, rays)


@pytest.mark.parametrize(
    "cells, rays",
    [
        # (1,1,1) is interior to the orthant
        ([[E1, E2, E3], [(1, 1, 1), E2, E3]], [E1, E2, E3]),
        # the wall {A, C} of the first cell is split at SQ_O in the others
        ([[SQ_A, SQ_B, SQ_C], [SQ_A, SQ_O, SQ_D], [SQ_O, SQ_C, SQ_D]], SQUARE_CONE),
        # both apexes of the wall {(1,0)} lie above it
        ([[(1, 0), (0, 1)], [(1, 0), (1, 1)]], [(1, 0), (0, 1)]),
        # nothing covers the cone beyond the ray (1,1)
        ([[(1, 0), (1, 1)]], [(1, 0), (0, 1)]),
        # every wall passes, yet each point is covered twice
        ([[SQ_A, SQ_B, SQ_C], [SQ_A, SQ_C, SQ_D]] + SQ_STAR, SQUARE_CONE),
        # the wall {A, C} lies in three cells; the third one starts a
        # triangulation of the cell {A, C, D} with split boundary edges
        ([[SQ_A, SQ_B, SQ_C], [SQ_A, SQ_C, SQ_D], [SQ_A, SQ_C, SQ_MIDPOINTS[2]],
          [SQ_A, SQ_MIDPOINTS[2], SQ_MIDPOINTS[3]],
          [SQ_MIDPOINTS[2], SQ_D, SQ_MIDPOINTS[3]]], SQUARE_CONE),
        # a valid fan plus three cones over (1,2), (1,3), (1,4) that fold
        # over each other: walls (1,2) and (1,4) have both apexes on one side
        ([[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(1, 2), (1, 3)], [(1, 3), (1, 4)],
          [(1, 2), (1, 4)]], [(1, 0), (0, 1)]),
    ],
    ids=["overlapping", "glued-on-a-non-face", "same-side-of-a-wall",
         "boundary-wall-inside-the-cone", "covers-twice", "wall-in-three-cells",
         "folded-cells"],
)
def test_wall_check_rejects_broken_fans(cells, rays):
    with pytest.raises(ValueError, match="non-complex input"):
        _walls_checked(cells, rays)


@pytest.mark.parametrize(
    "cells",
    [[[SQ_A, SQ_B, SQ_C], [SQ_A, SQ_C, SQ_D]], SQ_STAR],
    ids=["two-cells", "star-of-the-apex"],
)
def test_wall_check_accepts_triangulations(cells):
    signed = _walls_checked(cells, SQUARE_CONE)
    assert signed == signed_coefficients(cells)


@st.composite
def small_pointed_cones(draw):
    """Rays of a 2-4D cone, pointed because every last entry is positive."""
    d = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-2, 2)] * (d - 1), st.integers(1, 2))
    return draw(st.lists(ray, min_size=2, max_size=d + 2))


@settings(max_examples=40, deadline=None)
@given(small_pointed_cones(), st.data())
def test_wall_check_matches_sample_cover_reference(gens, data):
    # the one check accepts the fans both strategies build, with the
    # coefficients of the all-pairs sample cover, and rejects whatever the
    # reference rejects: a cell on the fan's rays mixed in, or the other
    # strategy's cells
    fans = [unimodularize(triangulate_cone(gens, strategy=s), strategy=s) for s in STRATEGIES]
    for fan in fans:
        signed = signed_coefficients(fan)
        assert {c.gens: c.coeff for c in signed} == sample_cover_coefficients(fan)
    rays = sorted({g for cell in fans[0] for g in cell})
    extra = data.draw(st.lists(st.sampled_from(rays), min_size=len(fans[0][0]),
                               max_size=len(fans[0][0]), unique=True))
    broken = [fans[0] + fans[1]]
    if matrix_rank(as_matrix(extra)) == len(extra):
        broken.append(fans[0] + [extra])
    for cells in broken:
        try:
            sample_cover_coefficients(cells)
        except ValueError:
            with pytest.raises(ValueError, match="non-complex input"):
                signed_coefficients(cells)


PLANE_A, PLANE_B = (1, -1, 0), (0, 1, -1)


def _neg(g):
    return tuple(-x for x in g)


# fans whose support small_pointed_cones never draws: complete, with a
# line, or spanning a plane of a larger lattice
SUPPORT_FANS = {
    "complete-z2": [list(c) for c in product(*[[(1, 0), (-1, 0)], [(0, 1), (0, -1)]])],
    "complete-z3": [list(c) for c in product([E1, _neg(E1)], [E2, _neg(E2)], [E3, _neg(E3)])],
    "half-plane": [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]],
    "half-space": [list(c) for c in product([E1, _neg(E1)], [E2, _neg(E2)], [E3])],
    "slab": [[E1, E2, E3], [_neg(E1), E2, E3]],
    "plane-in-z3": [[PLANE_A, PLANE_B], [PLANE_B, _neg(PLANE_A)],
                    [_neg(PLANE_A), _neg(PLANE_B)], [_neg(PLANE_B), PLANE_A]],
    "half-plane-in-z3": [[PLANE_A, PLANE_B], [PLANE_B, _neg(PLANE_A)]],
}


@pytest.mark.parametrize("cells", SUPPORT_FANS.values(), ids=SUPPORT_FANS.keys())
def test_signed_coefficients_match_sample_cover_reference_beyond_pointed_cones(cells):
    signed = signed_coefficients(cells)
    assert {c.gens: c.coeff for c in signed} == sample_cover_coefficients(cells)


def test_signs_enumerate_only_the_cells_and_the_boundary_walls(monkeypatch):
    # each face's sign comes from whether it lies in a boundary wall, a wall
    # of one cell only, so the faces of no other face are ever listed
    fan = unimodularize(triangulate_cone(index_cone(7)))
    walls = [cell[:i] + cell[i + 1:] for cell in fan for i in range(len(cell))]
    boundary = [wall for wall in walls if walls.count(wall) == 1]
    assert len(fan) == 13 and len(boundary) == 3
    listed = []
    real = subdivide._subsets

    def counting(cell):
        listed.append(cell)
        return real(cell)

    monkeypatch.setattr(subdivide, "_subsets", counting)
    signed = signed_coefficients(fan)
    assert sorted(listed) == sorted(fan + boundary)
    zero = {tau for wall in boundary for r in range(3) for tau in combinations(wall, r)}
    assert len(zero) == 7 and {c.gens for c in signed if not c.coeff} == zero


@settings(max_examples=40, deadline=None)
@given(small_pointed_cones())
@example(index_cone(15))
def test_every_stellar_piece_is_new(gens):
    # each stellar point is interior to a face of dimension >= 2 of the
    # worst cell, so it is no ray of the fan and every piece it makes is a
    # cell never seen before: no Smith form is taken twice, by the stellar
    # refinement or by the cone operator, whose fan also tells whether the
    # cone is unimodular; a matrix is recorded by its set of columns, so a
    # cell met with its rays in another order counts as the same cell.  A
    # unimodular cone of full dimension is its own fan, and the cone
    # operator tells it by one determinant and takes no Smith form.  Only
    # the alternate cone operator refines the stellar fan; the default one
    # takes signed short-vector steps.
    real = subdivide.smith_normal_form
    rays = subdivide._ray_list(gens)
    for strategy in STRATEGIES:
        cells = triangulate_cone(gens, strategy=strategy)
        fan = unimodularize(cells, strategy=strategy)
        unimodular = len(rays) == len(rays[0]) and fan == [tuple(sorted(rays))]
        legs = [(unimodularize, cells)] + [(cone_operator, gens)] * (strategy == "alternate")
        for build, data in legs:
            calls = []

            def counting(mat):
                calls.append(tuple(sorted(zip(*mat))))
                return real(mat)

            with mock.patch.object(subdivide, "smith_normal_form", counting):
                build(data, strategy=strategy)
            if build is cone_operator and unimodular:
                assert calls == []
            else:
                assert len(calls) == len(set(calls)) >= len(fan)


@pytest.mark.parametrize(
    "gens, strategy",
    [
        # cones where refining the worst cell alone gives another fan
        ([(-4, -2, 1), (-3, -4, 1), (3, -4, 1)], "alternate"),
        ([(4, 1, 1), (0, -3, 4), (-3, 3, 5)], "default"),
        (SQUARE_CONE, "default"),
        (PENTAGON_CONE, "alternate"),
        (index_cone(31), "default"),
    ],
)
def test_stellar_steps_on_the_star_match_full_scan(gens, strategy):
    fan = triangulate_cone(gens, strategy=strategy)
    assert unimodularize(fan, strategy=strategy) == stellar_fan_reference(fan, strategy)


def _logged_lattices(monkeypatch) -> tuple:
    """Record each cell that `_cell_lattice` builds, and each (cell, index,
    point) that the cell's `coords` is asked about."""
    built, asked = [], []
    real = subdivide._cell_lattice

    def logging(cell):
        lattice = real(cell)
        built.append(cell)

        def coords(p):
            asked.append((cell, lattice.index, p))
            return lattice.coords(p)

        return lattice._replace(coords=coords)

    monkeypatch.setattr(subdivide, "_cell_lattice", logging)
    return built, asked


def test_cone_operator_coverage_check_is_linear_in_the_fan(monkeypatch):
    # on the alternate strategy's stellar fan, an all-pairs sample cover
    # would make (faces + cells) * cells calls; the default route's count
    # does not grow with k at all
    _, calls = _logged_lattices(monkeypatch)
    per_cell, default = {}, {}
    for k in (15, 31, 63, 127):
        calls.clear()
        cone_operator(index_cone(k), strategy="alternate")
        per_cell[k] = len(calls) / (2 * k - 1)
        calls.clear()
        cone_operator(index_cone(k))
        default[k] = len(calls)
    assert max(per_cell.values()) <= 3, per_cell
    assert len(set(default.values())) == 1, default


def _seeded_cones(count: int, seed: int = 0) -> list:
    """Pointed 2-4D cones of d to d + 2 small integer rays, each with a
    positive last coordinate."""
    rng = random.Random(seed)
    cones = []
    for _ in range(count):
        d = rng.randint(2, 4)
        cones.append([tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.randint(1, 3),)
                      for _ in range(rng.randint(d, d + 2))])
    return cones


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_leaf_reads_its_coordinates_in_one_pass(monkeypatch, strategy):
    # a default leaf asks its coords about y and every ray once, in one run
    # that gives both its open facets and its part of the self-check, and
    # no call of either route builds one cell's lattice twice
    built, asked = _logged_lattices(monkeypatch)
    per_index_cone = {}
    corpus = [(k, index_cone(k)) for k in (15, 31, 63, 127)] + [(None, g) for g in _seeded_cones(40)]
    for k, gens in corpus:
        built.clear()
        asked.clear()
        cone_operator(gens, strategy=strategy)
        assert len(built) == len(set(built)), gens
        if strategy == "alternate":
            continue
        rays = subdivide._ray_list(gens)
        points = sorted([tuple(map(sum, zip(*rays))), *rays])
        for start in range(0, len(asked), len(points)):
            run = asked[start:start + len(points)]
            assert len({(cell, index) for cell, index, _ in run}) == 1 and run[0][1] == 1, gens
            assert sorted(p for _, _, p in run) == points, gens
        if k is not None:
            per_index_cone[k] = len(asked)
    if strategy == "default":
        assert per_index_cone == {15: 12, 31: 12, 63: 12, 127: 12}


def test_signed_coefficients_coverage_check_is_linear_in_the_fan(monkeypatch):
    # an all-pairs sample cover makes (faces + cells) * cells calls; the
    # wall check makes one per interior wall, one per ray for each of the
    # three boundary walls and one per cell for the interior point
    fans = {k: unimodularize(triangulate_cone(index_cone(k))) for k in (15, 31, 63, 127)}
    _, calls = _logged_lattices(monkeypatch)
    per_cell = {}
    for k, fan in fans.items():
        calls.clear()
        signed_coefficients(fan)
        per_cell[k] = len(calls) / len(fan)
    assert max(per_cell.values()) <= 5, per_cell


def test_signed_coefficients_inverts_each_cell_once(monkeypatch):
    fan = unimodularize(triangulate_cone(index_cone(15)))
    assert len(fan) == 29
    calls = []
    real_eliminate = exactcore._eliminate

    def counting_eliminate(mat):
        calls.append(mat)
        return real_eliminate(mat)

    # rref, matrix_rank and every solve share this one elimination
    monkeypatch.setattr(exactcore, "_eliminate", counting_eliminate)
    signed_coefficients(fan)
    # one rank check per maximal cell and no rational inverse
    assert len(calls) == len(fan)


def test_cone_operator_validates_its_fan_once(monkeypatch):
    # triangulate_cone checks the rays; the fan it builds from them goes
    # to the stellar refinement without being normalized again
    calls = []
    real = subdivide._simplicial_cells

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(subdivide, "_simplicial_cells", counting)
    cone_operator(index_cone(7))
    assert len(calls) == 0


def test_cone_operator_checks_its_rays_once(monkeypatch):
    # cone_operator normalizes and ranks the rays; the triangulation it
    # asks for takes them as they are
    calls = []
    real = subdivide._ray_list

    def counting(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(subdivide, "_ray_list", counting)
    assert not cone_operator(index_cone(7)).unimodular
    assert len(calls) == 1


def test_unimodular_cone_operator_runs_no_pointedness_lp(monkeypatch):
    # independent rays need no facets to be pointed
    calls = []
    real = subdivide._cone_facets

    def counting(rays):
        calls.append(rays)
        return real(rays)

    monkeypatch.setattr(subdivide, "_cone_facets", counting)
    op = cone_operator([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert op.unimodular
    assert op(3).symbol == MultiPoly.const(3, F(1, 8))
    assert calls == []


RAGGED = "generators must all have the same length"


@pytest.mark.parametrize(
    "call",
    [
        lambda: triangulate_cone([(1, 0), (0, 1, 2)]),
        lambda: signed_coefficients([[(1, 0), (0, 1, 2)]]),
        lambda: unimodularize([[(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0)]]),
        lambda: signed_coefficients([[(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0)]]),
        lambda: cone_operator([(1, 0), (0, 1, 2)]),
    ],
    ids=["triangulate", "signed", "unimodularize-mixed-cells", "signed-mixed-cells", "operator"],
)
def test_ragged_generators_rejected(call):
    with pytest.raises(ValueError, match=RAGGED):
        call()


INVARIANT_SCRIPT = """
import sys
from emsum import subdivide

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
real = subdivide._cell_lattice
subdivide._cell_lattice = lambda cell: real(cell)._replace(index=2)
try:
    subdivide.unimodularize({gens!r})
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "gens, message",
    [
        ([(1, 0), (1, 2)], "stellar subdivision must decrease the index"),
        ([(1, 0), (0, 1)], "cell of index > 1 must contain a stellar point"),
    ],
    ids=["index-never-drops", "unimodular-cell-reported-as-index-2"],
)
def test_stellar_invariants_fire_under_optimize(gens, message):
    # with every index reported as 2, the refinement cannot make progress
    proc = run_optimized(INVARIANT_SCRIPT.format(gens=gens))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message


def test_bv_pointed_delegates_to_unimodular():
    for gens, qmat in [
        ([(1, 0), (0, 1)], None),
        ([(1, 0), (1, 1)], None),
        ([(1, 0), (0, 1)], ((2, 1), (1, 2))),
    ]:
        cone = UniCone(gens, qmat=qmat)
        ops = cone_operator(gens, qmat=qmat)
        assert ops.unimodular
        for n in range(len(gens), len(gens) + 3):
            direct = bv_op_unimodular(cone, cone.labels(), n)
            routed = bv_op_pointed(gens, n, qmat=qmat)
            assert routed.symbol == direct.symbol
            assert routed.order == direct.order
            assert ops(n).symbol == routed.symbol
            assert ops(n).order == routed.order


def test_cone_operator_matches_bv_op_pointed():
    for gens, unimodular in [
        ([(1, 0), (1, 1)], True),
        ([(1, 0), (1, 2)], False),
        (PENTAGON_CONE, False),
    ]:
        d = len(gens[0])
        for strategy in STRATEGIES:
            ops = cone_operator(gens, strategy=strategy)
            assert ops.unimodular is unimodular
            for n in range(d, d + 3):
                routed = bv_op_pointed(gens, n, strategy=strategy)
                assert ops(n).symbol == routed.symbol
                assert ops(n).order == routed.order


@st.composite
def lifted_cone_cases(draw):
    """A 2-3D cone of index 1-15 under a unimodular map, an inner product
    (identity or tridiagonal) and a random rational d x M basis."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(1, 15))
    apex = [draw(st.integers(0, k - 1)) for _ in range(d - 1)] + [k]
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d - 1)]
    rays.append(tuple(apex))
    mat = unimodular_matrix(random.Random(draw(st.integers(0, 10**6))), d)
    gens = [tuple(sum(a * x for a, x in zip(row, g)) for row in mat) for g in rays]
    qmat = draw(st.sampled_from([
        None,
        [[2 if i == j else int(abs(i - j) == 1) for j in range(d)] for i in range(d)],
    ]))
    size = draw(st.integers(d, d + 2))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    basis = [[draw(entry) for _ in range(size)] for _ in range(d)]
    return gens, qmat, basis, draw(st.integers(d, d + 2))


@settings(max_examples=40, deadline=None)
@given(lifted_cone_cases())
def test_lifted_cone_operator_matches_composed_reference(case):
    # the two-compose route: build in the generators' coordinates, then
    # substitute xi_j = <xi, b_j>
    gens, qmat, basis, n = case
    images = [MultiPoly.linear_form(row) for row in basis]
    for strategy in STRATEGIES:
        q = exactcore.inner_product_matrix(qmat, len(gens[0]))
        ops = subdivide._cone_operator(subdivide._ray_list(gens), len(gens), q, basis, strategy, {})
        plain = cone_operator(gens, qmat=qmat, strategy=strategy)(n)
        lifted = ops(n)
        assert lifted.dim == len(basis[0]) and lifted.order == plain.order
        assert lifted.symbol == plain.symbol.compose(images)


def test_cone_operator_checks_inner_product_once(monkeypatch):
    calls = []
    real = exactcore.inner_product_matrix

    def counting(qmat, m):
        calls.append(m)
        return real(qmat, m)

    for module in (conecalc, subdivide):
        monkeypatch.setattr(module, "inner_product_matrix", counting, raising=False)
    skew = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    ops = cone_operator(index_cone(15), qmat=skew)
    assert not ops(4).symbol.is_zero()
    assert calls == [3]


def test_cone_operator_builds_each_cell_symbol_once_per_gram_class(monkeypatch):
    built = built_cell_symbols(monkeypatch)
    ops = cone_operator(index_cone(15), strategy="alternate")
    for n in (3, 4, 5, 4):
        ops(n)
    classes = {gram for gram, _ in built}
    fan = triangulate_cone(index_cone(15), strategy="alternate")
    fan = unimodularize(fan, strategy="alternate")
    assert len(classes) < sum(1 for cell in signed_coefficients(fan) if cell.coeff)
    assert len(built) == len(set(built)) == 3 * len(classes)
    # the default route's five signed cells fall into at most four classes
    built.clear()
    ops = cone_operator(index_cone(15))
    for n in (3, 4, 5, 4):
        ops(n)
    classes = {gram for gram, _ in built}
    assert len(classes) <= 4
    assert len(built) == len(set(built)) == 3 * len(classes)


def test_cone_operator_builds_44_gram_classes_on_the_index_15_cone():
    # the 85 nonzero signed cells of the alternate strategy's stellar fan
    # fall into 44 classes, since cells whose Gram matrices differ by a
    # scalar share one
    rays = index_cone(15)
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    classes = {}
    subdivide._cone_operator(rays, 3, eye, eye, "alternate", classes)(4)
    assert len(classes) == 44


@pytest.mark.parametrize("gens", [[(1, 0), (2, 1)], [(1, 1, 0), (0, 1, 0), (2, 3, -1)]])
def test_square_unimodular_cone_takes_one_determinant(monkeypatch, gens):
    # a cone of full dimension with determinant +-1 is its own single cell:
    # no triangulation and no Smith form
    calls = []
    for name in ("_triangulate", "smith_normal_form"):
        monkeypatch.setattr(subdivide, name, lambda *args: calls.append(args))
    d = len(gens)
    ops = cone_operator(gens, qmat=[[1 + (i == j) for j in range(d)] for i in range(d)])
    assert ops.unimodular and not ops(d + 2).symbol.is_zero()
    assert calls == []


@st.composite
def index_cone_cases(draw):
    """A 2-3D cone of index 1-15 under a unimodular map and an order."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(1, 15))
    apex = [draw(st.integers(0, k - 1)) for _ in range(d - 1)] + [k]
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d - 1)]
    rays.append(tuple(apex))
    mat = unimodular_matrix(random.Random(draw(st.integers(0, 10**6))), d)
    gens = [tuple(sum(a * x for a, x in zip(row, g)) for row in mat) for g in rays]
    return gens, draw(st.integers(d, d + 2))


@settings(max_examples=40, deadline=None)
@given(index_cone_cases())
def test_shared_cell_symbols_match_cell_by_cell_sum(case):
    # UniCone keeps the caller's labels and shares nothing, so the signed
    # sum of its vertex operators is the unshared reference; one scope
    # serves both inner products and both strategies, as in an expansion
    gens, n = case
    d = len(gens[0])
    tridiagonal = [[2 if i == j else int(abs(i - j) == 1) for j in range(d)] for i in range(d)]
    classes = {}
    for qmat, strategy in product((None, tridiagonal), STRATEGIES):
        q = exactcore.inner_product_matrix(qmat, d)
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        shared = subdivide._cone_operator(subdivide._ray_list(gens), d, q, eye, strategy, classes)(n)
        fan = unimodularize(triangulate_cone(gens, strategy=strategy), strategy=strategy)
        reference = MultiPoly.zero(d)
        for cell in signed_coefficients(fan):
            if cell.coeff:
                op = vertex_op(UniCone(cell.gens, qmat=qmat), n - d + cell.dim)
                reference = reference + op.symbol * cell.coeff
        assert shared.symbol == reference


def test_unicone_keeps_its_labels():
    # the key (G_ii, sorted row i) would put (0, 1) first
    cone = UniCone([(2, 0), (0, 1)])
    assert cone._gram == ((4, 0), (0, 1))
    assert ibp_op(cone, [0], [0], {0: 1}).symbol == MultiPoly.linear_form([2, 0])
    cell = conecalc._Cell([(2, 0), (0, 1)], [[1, 0], [0, 1]], [{0: 2}, {1: 1}], 1, 2, {})
    assert cell._gram == ((1, 0), (0, 4))


def test_bv_pointed_redundant_generators():
    # extra non-extreme rays must not change the operator
    qmat = ((2, 1), (1, 2))
    orthant = UniCone([(1, 0), (0, 1)], qmat=qmat)
    for n in range(2, 5):
        direct = bv_op_unimodular(orthant, orthant.labels(), n)
        routed = bv_op_pointed([(1, 0), (1, 1), (0, 1)], n, qmat=qmat)
        assert routed.symbol == direct.symbol


def test_bv_pointed_index_two_value():
    # cells (1,0),(1,1) and (1,1),(1,2) with the shared ray subtracted:
    # 3/8 + 17/40 - 1/2 = 3/10
    op = bv_op_pointed([(1, 0), (1, 2)], 2)
    assert op.symbol == MultiPoly.const(2, F(3, 10))
    assert op.order == 0


def test_bv_pointed_index_three_value():
    # cells (1,0),(1,1) and (1,1),(2,3): 3/8 + 51/104 - 1/2 = 19/52
    op = bv_op_pointed([(1, 0), (2, 3)], 2)
    assert op.symbol == MultiPoly.const(2, F(19, 52))


def test_bv_pointed_lower_dimensional_cone():
    # same cone embedded in a 3-dimensional ambient lattice
    op = bv_op_pointed([(1, 0, 0), (1, 2, 0)], 2)
    assert op.symbol == MultiPoly.const(3, F(3, 10))
    assert op.dim == 3
    assert op.order == 0
    flat = bv_op_pointed([(1, 0, 0), (1, 2, 0)], 3)
    assert flat.order == 1
    # the symbol only pairs against the span of the cone
    for exps, _coeff in flat.symbol.iter_terms():
        assert exps[2] == 0


def test_bv_pointed_strategy_independence():
    tri_a = triangulate_cone(PENTAGON_CONE)
    tri_b = triangulate_cone(PENTAGON_CONE, strategy="alternate")
    assert tri_a != tri_b  # the check below is not vacuous
    for n in (3, 4):
        op_a = bv_op_pointed(PENTAGON_CONE, n)
        op_b = bv_op_pointed(PENTAGON_CONE, n, strategy="alternate")
        assert op_a.symbol == op_b.symbol
        assert op_a.order == n - 3
        assert not op_a.symbol.is_zero()


def test_index_31_cone_strategy_independence():
    op_a = bv_op_pointed(index_cone(31), 4)
    op_b = bv_op_pointed(index_cone(31), 4, strategy="alternate")
    assert op_a.symbol == op_b.symbol
    assert op_a.order == 1
    assert not op_a.symbol.is_zero()


# A in GL_3(Z); A * index_cone(15) = [(13,11,2), (17,21,5), (75,92,22)]
SHEAR = [[13, 17, 3], [11, 21, 4], [2, 5, 1]]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sheared_index_15_cone_transports(strategy):
    # D_n(AC; A^-T Q A^-1)(xi) = D_n(C; Q)(A^T xi), here with Q = I
    amat = as_matrix(SHEAR)
    inv = matrix_inverse(amat)
    gens = [
        tuple(sum(a * x for a, x in zip(row, g)) for row in SHEAR)
        for g in index_cone(15)
    ]
    assert gens == [(13, 11, 2), (17, 21, 5), (75, 92, 22)]
    started = time.perf_counter()
    op = bv_op_pointed(gens, 4, qmat=mat_mul(transpose(inv), inv),
                       strategy=strategy)
    elapsed = time.perf_counter() - started
    ref = bv_op_pointed(index_cone(15), 4, strategy=strategy)
    images = [MultiPoly.linear_form([row[i] for row in SHEAR])
              for i in range(3)]
    assert op.order == ref.order == 1
    assert op.symbol == ref.symbol.compose(images)
    # the stellar box has index-many points however sheared the cell is
    assert elapsed < 2, f"sheared cone took {elapsed:.2f} s"


def test_bv_pointed_strategy_independence_with_inner_product():
    qmat = ((2, 0, 1), (0, 3, 1), (1, 1, 2))
    op_a = bv_op_pointed(SQUARE_CONE, 3, qmat=qmat)
    op_b = bv_op_pointed(SQUARE_CONE, 3, qmat=qmat, strategy="alternate")
    assert op_a.symbol == op_b.symbol


def test_bv_pointed_square_cone_homogeneity():
    op = bv_op_pointed(SQUARE_CONE, 4)
    assert op.order == 1
    for exps, _coeff in op.symbol.iter_terms():
        assert sum(exps) == 1


def test_bv_pointed_errors():
    with pytest.raises(ValueError, match="order at least the dimension"):
        bv_op_pointed([(1, 0), (1, 2)], 1)
    with pytest.raises(ValueError, match="not pointed"):
        bv_op_pointed([(1, 0), (-1, 0)], 2)
    with pytest.raises(ValueError, match="strategy"):
        bv_op_pointed([(1, 0)], 1, strategy="fancy")
    with pytest.raises(ValueError, match="non-negative"):
        bv_op_pointed([(1, 0)], -1)


def test_signed_cell_repr_and_dim():
    cell = SignedCell(gens=((1, 0), (1, 1)), coeff=-1)
    assert cell.dim == 2
    assert "coeff=-1" in repr(cell)


def _cross_polytope_vertex_cone(m, i, sign):
    """The tangent cone of the m-dimensional cross-polytope at the vertex
    sign * e_i, generated by its 2(m - 1) edge directions."""
    return [
        tuple(t * (k == j) - sign * (k == i) for k in range(m))
        for j in range(m)
        if j != i
        for t in (1, -1)
    ]


# Operators are valuations, so they cannot depend on the fan a cone is
# cut into.  This digest pins bv_op_pointed on non-simplicial cones whose
# fans depend on the slicing functional, at n = d and d + 1, under both
# strategies and two inner products.  Two of the eight vertex cones of
# the 4D cross-polytope keep the test within its time budget.
POINTED_CONES = [SQUARE_CONE, PENTAGON_CONE] + [
    _cross_polytope_vertex_cone(3, i, sign) for i in range(3) for sign in (1, -1)
] + [_cross_polytope_vertex_cone(4, 0, 1), _cross_polytope_vertex_cone(4, 2, -1)]
POINTED_OPERATORS_SHA256 = (
    "3bc9f401604af2241095ec068fd41f1f3ea9bc774e65daf62efaee937f81c309"
)


def test_pointed_cone_operators_match_pinned_digest():
    lines = []
    for gens in POINTED_CONES:
        m = len(gens[0])
        skew = [[2 if i == j else int(abs(i - j) == 1) for j in range(m)]
                for i in range(m)]
        for strategy in STRATEGIES:
            for qname, qmat in (("I", None), ("tridiagonal", skew)):
                for n in (m, m + 1):
                    op = bv_op_pointed(gens, n, qmat=qmat, strategy=strategy)
                    lines.append(
                        f"{gens} {strategy} {qname} {n} "
                        f"{sorted(op.symbol.terms.items())}"
                    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == POINTED_OPERATORS_SHA256


def _sheared(gens):
    return [tuple(sum(a * x for a, x in zip(row, g)) for row in SHEAR)
            for g in gens]


def _fan_corpus():
    rng = random.Random(15)
    cones = []
    while len(cones) < 40:
        m = rng.randint(2, 4)
        cones.append([tuple(rng.randint(-2, 2) for _ in range(m - 1))
                      + (rng.randint(1, 3),)
                      for _ in range(rng.randint(m + 1, m + 4))])
    return cones


# Fans of triangulate_cone (and, on the 3D cones, of unimodularize and
# signed_coefficients), both strategies: the index-15 and index-31 cones,
# the GL_3(Z) image of the index-15 cone, the square and pentagon cones,
# the vertex cones of the 3D cross-polytope and 40 seeded random cones.
FANS_SHA256 = (
    "12a6d04399a2246b09a3a052ed20899c406a601ec818652f3ba1e7600c31e6d2"
)


def test_fans_match_pinned_digest():
    small = [index_cone(15), index_cone(31), _sheared(index_cone(15)),
             SQUARE_CONE, PENTAGON_CONE] + [
        _cross_polytope_vertex_cone(3, i, sign)
        for i in range(3) for sign in (1, -1)
    ]
    lines = []
    for gens in small + _fan_corpus():
        for strategy in STRATEGIES:
            fan = triangulate_cone(gens, strategy=strategy)
            lines.append(f"{gens} {strategy} {fan}")
            if gens in small:
                cells = unimodularize(fan, strategy=strategy)
                lines.append(f"{cells} {signed_coefficients(cells)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FANS_SHA256


# Signed cells of the default route's `_signed_decomposition`, run on both
# strategies' triangulations of the FANS_SHA256 corpus: the same small
# cones and 40 seeded random cones.
SIGNED_CELLS_SHA256 = (
    "7731f2479ea953797a2910e9ea9e3b49b789d42adc5106b70cbabadb8e730937"
)


def test_signed_cells_match_pinned_digest():
    small = [index_cone(15), index_cone(31), _sheared(index_cone(15)), SQUARE_CONE, PENTAGON_CONE]
    small += [_cross_polytope_vertex_cone(3, i, sign) for i in range(3) for sign in (1, -1)]
    lines = []
    for gens in small + _fan_corpus():
        rays = subdivide._ray_list(gens)
        d = matrix_rank(as_matrix(rays))
        for strategy in STRATEGIES:
            cells = subdivide._triangulate(rays, d, strategy)
            lines.append(f"{gens} {strategy} {subdivide._signed_decomposition(cells, rays)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SIGNED_CELLS_SHA256


# ---------------------------------------------------------------------------
# the default route: signed short-vector steps through half-open cells


def check_signed_cells_hold_the_cone_pointwise(gens, radius):
    rays = subdivide._ray_list(gens)
    d = matrix_rank(as_matrix(rays))
    signed = subdivide._signed_decomposition(subdivide._triangulate(rays, d, "default"), rays)
    assert_cells_hold_the_cone_pointwise(rays, signed, radius)


@settings(max_examples=40, deadline=None)
@given(small_pointed_cones())
def test_signed_cells_hold_random_cones_pointwise(gens):
    # simplicial and non-simplicial cones, and two rays in Z^3 or Z^4
    check_signed_cells_hold_the_cone_pointwise(gens, {2: 4, 3: 2, 4: 1}[len(gens[0])])


@pytest.mark.parametrize("gens, radius", [
    # three rays in Z^3 spanning the plane x + y = z, where the cone of the
    # first two has index 3 and the third ray is inside it
    ([(1, 0, 1), (1, 3, 4), (1, 1, 2)], 4),
    # index 2: y = (2, 2) lies on the inner wall cone((1, 1)) of the step
    ([(1, 0), (1, 2)], 5),
    # index 7: the least key is w = (-1, -2), in -sigma, and it is negated
    ([(1, 0), (3, 7)], 8),
    (index_cone(15), 2),
    (PENTAGON_CONE, 3),
], ids=["plane-in-z3", "index-2-y-on-the-wall", "w-in-minus-sigma", "index-15", "pentagon"])
def test_signed_cells_hold_the_cone_pointwise(gens, radius):
    check_signed_cells_hold_the_cone_pointwise(gens, radius)


def test_short_vector_in_minus_sigma_is_negated():
    # lambda = (1/7, 2/7) and (-1/7, -2/7) tie at max |lambda_i| = 2/7, and
    # the second, w = (-1, -2), is less; w in -sigma is negated
    cell = ((1, 0), (3, 7))
    assert subdivide._short_vector(_cell_lattice(cell), cell) == ((1, 2), (1, 2))


def _route_counts(monkeypatch, gens, strategy):
    """(signed cells, Smith forms, Gram classes) of one `_cone_operator`."""
    smith, cells = [], []
    real_smith, real_cell = subdivide.smith_normal_form, subdivide._Cell
    monkeypatch.setattr(subdivide, "smith_normal_form", lambda mat: smith.append(mat) or real_smith(mat))
    monkeypatch.setattr(subdivide, "_Cell", lambda *args: cells.append(args) or real_cell(*args))
    d, classes = len(gens[0]), {}
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    subdivide._cone_operator(subdivide._ray_list(gens), d, eye, eye, strategy, classes)
    monkeypatch.undo()
    return len(cells), len(smith), len(classes)


def test_default_route_splits_every_index_cone_into_five_signed_cells(monkeypatch):
    # the short vector is w = -e3, with lambda = (1, 1, -1) / k: three
    # unimodular cells, whose half-open faces sum to five signed cells; the
    # stellar fan of the alternate route has 2k - 1 cells
    for k in (15, 63, 255, 1023, 4095):
        assert _route_counts(monkeypatch, index_cone(k), "default") == (5, 4, 4)
    alternate = [_route_counts(monkeypatch, index_cone(k), "alternate") for k in (15, 63, 255)]
    assert alternate[0] == (85, 53, 44)
    for small, large in zip(alternate, alternate[1:]):
        assert all(a < b for a, b in zip(small, large)), alternate


# Both pulling cells of this cone have index > 1, and the step on the
# index-10 cell makes the other, of index 2, with sign -1: its signs sum to 0.
EXAMPLE_CONE = [(-3, -1, 3), (0, 0, 3), (-2, 0, 2), (-1, 3, 3)]


def _logged_splits(monkeypatch) -> list:
    """Record each cell that `_short_vector` is asked to split."""
    split, real = [], subdivide._short_vector
    monkeypatch.setattr(subdivide, "_short_vector", lambda lattice, cell: split.append(cell) or real(lattice, cell))
    return split


def test_signed_decomposition_splits_each_distinct_cell_once(monkeypatch):
    # cells are taken largest index first, each with its summed sign: the
    # index-2 cell is dropped unsplit, where a depth-first walk split it
    # twice (4 splits on 3 cells and 9 lattices) for the same signed cells
    built, _ = _logged_lattices(monkeypatch)
    split = _logged_splits(monkeypatch)
    rays = subdivide._ray_list(EXAMPLE_CONE)
    signed = subdivide._signed_decomposition(subdivide._triangulate(rays, 3, "default"), rays)
    assert len(split) == len(set(split)) == 2
    assert len(built) == len(set(built)) == 7
    assert [(c.gens, c.coeff) for c in signed] == [
        (((-3, -1, 3), (-1, 0, 1), (0, 0, 1)), 1),
        (((-1, 0, 1), (-1, 3, 3), (0, -1, -1)), -1),
        (((-1, 0, 1), (0, -1, -1), (0, 0, 1)), -1),
        (((-1, 3, 3), (0, -1, -1), (0, 0, 1)), 1),
        (((-1, 0, 1), (-1, 3, 3)), 1),
        (((-1, 0, 1), (0, -1, -1)), 1),
        (((-1, 0, 1),), -1),
    ]
    monkeypatch.undo()
    default, alternate = cone_operator(EXAMPLE_CONE), cone_operator(EXAMPLE_CONE, strategy="alternate")
    for n in (3, 4, 5):
        assert default(n).symbol == alternate(n).symbol


def test_no_default_decomposition_splits_a_cell_twice(monkeypatch):
    split = _logged_splits(monkeypatch)
    for gens in _seeded_cones(120, seed=2026):
        split.clear()
        cone_operator(gens)
        assert len(split) == len(set(split)), gens


SIGNED_STEP_SCRIPT = """
import sys
from emsum import subdivide

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
{corrupt}
try:
    subdivide.cone_operator({gens!r})
except AssertionError as exc:
    print(exc)
"""

# the first step keeps w in -sigma, whose signed cells leave out a cone
# with a line (a later corrupted step could cancel it)
KEEP_MINUS_SIGMA = """
real = subdivide._short_vector
steps = []

def first_negated(lattice, cell):
    steps.append(cell)
    lam, w = real(lattice, cell)
    return (tuple(-x for x in lam), tuple(-x for x in w)) if len(steps) == 1 else (lam, w)

subdivide._short_vector = first_negated
"""
# every index reads 2, so no step lowers it
INDEX_TWO = """
real = subdivide._cell_lattice
subdivide._cell_lattice = lambda cell: real(cell)._replace(index=2)
"""


@pytest.mark.parametrize("corrupt, gens, message", [
    (KEEP_MINUS_SIGMA, [(1, 0), (3, 7)], "signed cells must hold each point of the cone once"),
    (INDEX_TWO, [(1, 0), (1, 2)], "a signed step must decrease the index"),
], ids=["w-in-minus-sigma", "index-never-drops"])
def test_corrupted_signed_step_trips_the_self_check_under_optimize(corrupt, gens, message):
    proc = run_optimized(SIGNED_STEP_SCRIPT.format(corrupt=corrupt, gens=gens))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message
