"""Tests for lattice polytope geometry."""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emsum import exactcore, geometry, subdivide
from emsum.exactcore import (
    MultiPoly,
    as_matrix,
    as_vector,
    identity_matrix,
    mat_vec,
    matrix_rank,
    orth_project,
    primitive_vector,
    qform,
    smith_normal_form,
    solve_unique,
    transpose,
)
from emsum.geometry import (
    LatticePolytope,
    build_polytope,
    euler_brion_window_check,
    integrate_poly_over_face,
    is_delzant,
    transverse_cone,
)
from emsum.subdivide import triangulate_cone

from _helpers import (
    compose_integral,
    facet_candidates,
    fraction_det,
    random_spd,
    run_optimized,
    unimodular_matrix,
)

F = Fraction

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
SIMPLEX2 = [(0, 0), (1, 0), (0, 1)]
TRAPEZOID = [(0, 0), (2, 0), (2, 1), (0, 1)]
SKEW_TRIANGLE = [(0, 0), (1, 0), (1, 2)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
OCTAHEDRON = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]
SIMPLEX3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
PRISM = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]


# ---------------------------------------------------------------------------
# hulls and face lattices


def test_square_structure():
    p = build_polytope(SQUARE)
    assert p.vertices == tuple(sorted(SQUARE))
    assert len(p.facets) == 4
    dims = sorted(f.dim for f in p.faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert p.polytope_face.dim == 2


def test_interior_points_are_dropped():
    p = build_polytope(SQUARE + [(0, 0), (1, 1)])
    assert p.vertices == tuple(sorted(SQUARE))
    q = build_polytope([(0, 0), (1, 0), (2, 0), (0, 1), (2, 2), (0, 2)])
    assert (1, 0) not in q.vertices


def test_octahedron_structure():
    p = build_polytope(OCTAHEDRON)
    assert len(p.facets) == 8
    assert len(p.vertices) == 6
    # every vertex meets four edges
    for v in range(6):
        count = sum(1 for f in p.faces_of_dim(1) if v in f.vertex_ids)
        assert count == 4
    assert not is_delzant(p)


def test_cube_structure():
    p = build_polytope(CUBE)
    assert len(p.facets) == 6
    assert len(p.faces_of_dim(1)) == 12
    assert len(p.faces_of_dim(2)) == 6
    assert is_delzant(p)


def test_not_full_dimensional():
    with pytest.raises(ValueError, match="not full-dimensional"):
        build_polytope([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="not full-dimensional"):
        build_polytope([(1, 1)], affine_hull=True)


@pytest.mark.parametrize("affine_hull", [False, True])
def test_points_without_coordinates_rejected(affine_hull):
    with pytest.raises(
        ValueError, match="polytope vertices need at least one coordinate"
    ):
        build_polytope([()], affine_hull=affine_hull)


def test_ragged_points_rejected():
    with pytest.raises(
        ValueError, match="polytope vertices must all have the same length"
    ):
        build_polytope([[0, 0], [1]])


def test_affine_hull_reduction():
    p = build_polytope([(0, 0), (2, 2)], affine_hull=True)
    assert p.dim == 1
    assert p.vertices == ((0,), (2,))
    origin, basis = p.affine_data
    assert origin == (0, 0)
    assert basis == ((1, 1),)


def test_delzant_flags():
    assert is_delzant(build_polytope(SQUARE))
    assert is_delzant(build_polytope(SIMPLEX2))
    assert is_delzant(build_polytope(TRAPEZOID))
    assert not is_delzant(build_polytope(SKEW_TRIANGLE))


def test_contains_with_dilation():
    p = build_polytope(SQUARE)
    assert p.contains((F(3, 2), F(1, 2)), dilation=2)
    assert not p.contains((F(3, 2), F(1, 2)), dilation=1)


@pytest.mark.parametrize("dilation", [1.5, True, 0, -1, F(1), "1"])
def test_contains_rejects_dilations_that_are_not_positive_ints(dilation):
    p = build_polytope([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(ValueError, match="the dilation factor must be a positive integer"):
        p.contains((1, 1), dilation)


# ---------------------------------------------------------------------------
# tangent and transverse cones


def test_tangent_cone_at_vertex():
    p = build_polytope(SQUARE)
    v = p.face_by_vertex_ids([0])
    assert p.vertices[0] == (0, 0)
    assert v.tangent_gens == ((0, 1), (1, 0))
    assert v.lineality_basis == ()


def test_tangent_cone_at_edge():
    p = build_polytope(SQUARE)
    edge = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((1, 0))]
    )
    assert edge.lineality_basis == ((1, 0),)
    assert (0, 1) in edge.tangent_gens


def test_transverse_cone_of_edge():
    p = build_polytope(SQUARE)
    edge = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((1, 0))]
    )
    t = transverse_cone(p, edge)
    assert t.dim == 1
    assert t.gens == ((1,),)
    assert t.basis == ((F(0), F(1)),)
    assert t.qmat == ((F(1),),)


def test_transverse_cone_skew_lattice():
    # hypotenuse of the unit triangle: the projected lattice is finer than
    # the intersection with Z^2
    p = build_polytope(SIMPLEX2)
    hyp = p.face_by_vertex_ids(
        [p.vertices.index((1, 0)), p.vertices.index((0, 1))]
    )
    t = transverse_cone(p, hyp)
    assert t.dim == 1
    assert t.basis == ((F(1, 2), F(1, 2)),)
    assert t.gens == ((-1,),)


def test_transverse_cone_of_vertex_is_tangent_cone():
    p = build_polytope(SKEW_TRIANGLE)
    v = p.face_by_vertex_ids([p.vertices.index((0, 0))])
    t = transverse_cone(p, v)
    assert t.dim == 2
    assert sorted(t.gens) == [(1, 0), (1, 2)]
    assert t.qmat == identity_matrix(2)


def test_transverse_cone_of_whole_polytope():
    p = build_polytope(SQUARE)
    t = transverse_cone(p, p.polytope_face)
    assert t.dim == 0
    assert t.gens == ()


def test_transverse_cone_rejects_non_spd_q():
    p = build_polytope(SQUARE)
    edge = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((1, 0))]
    )
    for q in ([[1, 2], [2, 1]], [[2, 1], [0, 2]]):
        with pytest.raises(
            ValueError,
            match="inner product matrix must be symmetric positive definite",
        ):
            transverse_cone(p, edge, q)


@st.composite
def hulls_and_inner_products(draw):
    m = draw(st.integers(2, 3))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1,
                           max_size=m + 3))
    try:
        poly = build_polytope(points)
    except ValueError:
        assume(False)
    return poly, random_spd(random.Random(draw(st.integers(0, 10**6))), m)


@settings(max_examples=25, deadline=None)
@given(hulls_and_inner_products())
def test_transverse_cone_matches_projection_definition(case):
    # the transverse lattice is the image of Z^m under the Q-orthogonal
    # projection P onto the complement of L(f), and the generators are the
    # primitive coordinate vectors of the nonzero projected edge directions
    poly, q = case
    for face in poly.faces[:-1]:
        t = transverse_cone(poly, face, q)
        d = poly.dim - face.dim
        lin = [as_vector(b) for b in face.lineality_basis]
        proj = orth_project(q, lin)
        bmat = transpose(t.basis)

        def coords(v):
            y = solve_unique(bmat, mat_vec(proj, as_vector(v)))
            assert y is not None and all(c.denominator == 1 for c in y)
            return y

        rows = face.quotient_rows
        assert [[sum(map(operator.mul, r, b)) for b in t.basis] for r in rows] == [
            [int(i == j) for j in range(d)] for i in range(d)
        ]
        images = [coords(e) for e in identity_matrix(poly.dim)]
        _, dmat, _ = smith_normal_form(list(zip(*images)))
        assert t.dim == d
        assert [dmat[i][i] for i in range(d)] == [1] * d
        assert all(qform(q, b, v) == 0 for b in t.basis for v in lin)
        assert t.qmat == tuple(
            tuple(qform(q, bi, bj) for bj in t.basis) for bi in t.basis
        )
        projected = (coords(g) for g in face.tangent_gens)
        assert list(t.gens) == sorted(
            {primitive_vector(y) for y in projected if any(y)}
        )


# Every transverse cone of a fixed corpus (2D to 4D, Delzant or not) under
# the identity, the tridiagonal Q and a Q with non-integer entries: the
# integer formulas for B and G must give the same exact cones as the
# rational inverses they replaced.
TRANSVERSE_CORPUS = {
    "square": SQUARE,
    "skew-triangle": SKEW_TRIANGLE,
    "trapezoid": TRAPEZOID,
    "cube": CUBE,
    "octahedron": OCTAHEDRON,
    "prism": PRISM,
    "tetrahedron-non-delzant": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)],
    "simplex4": [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                 (0, 0, 0, 1)],
}
TRANSVERSE_SHA256 = (
    "cf4cb38479322439ecdad58590445f8082debfd4766d81b52bef6e3685eebf3f"
)


def test_transverse_cones_match_pinned_digest():
    lines = []
    for name, vertices in TRANSVERSE_CORPUS.items():
        poly = build_polytope(vertices)
        m = poly.ambient_dim
        qmats = {
            "I": None,
            "tridiagonal": [[2 if i == j else int(abs(i - j) == 1)
                             for j in range(m)] for i in range(m)],
            "fractional": [[F(3, 2) if i == j else
                            (F(1, 3) if abs(i - j) == 1 else 0)
                            for j in range(m)] for i in range(m)],
        }
        for qname, q in qmats.items():
            lines += [
                f"{name} {qname} {f.vertex_ids} {transverse_cone(poly, f, q)!r}"
                for f in poly.faces
            ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TRANSVERSE_SHA256


# The same cones past the corpus above: every transverse cone of [0,1]^5
# and of the 5D cross-polytope under the same three inner products.
TRANSVERSE_5D_SHA256 = (
    "3cf262f7e1e5952afa299f3f1d94e9a5f391c518e061036c31f93e99e8b33fef"
)


def test_five_dimensional_transverse_cones_match_pinned_digest():
    lines = []
    for name, vertices in (
        ("cube5", list(itertools.product((0, 1), repeat=5))),
        ("cross5", [tuple(s * int(i == j) for j in range(5)) for i in range(5) for s in (1, -1)]),
    ):
        poly = build_polytope(vertices)
        qmats = {
            "I": None,
            "tridiagonal": [[2 if i == j else int(abs(i - j) == 1) for j in range(5)]
                            for i in range(5)],
            "fractional": [[F(3, 2) if i == j else (F(1, 3) if abs(i - j) == 1 else 0)
                            for j in range(5)] for i in range(5)],
        }
        for qname, q in qmats.items():
            lines += [
                f"{name} {qname} {f.vertex_ids} {transverse_cone(poly, f, q)!r}"
                for f in poly.faces
            ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TRANSVERSE_5D_SHA256


@st.composite
def hulls_2d_to_4d(draw):
    m = draw(st.integers(2, 4))
    coord = st.integers(-1, 2)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1,
                           max_size=m + 3))
    try:
        return build_polytope(points)
    except ValueError:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(hulls_2d_to_4d())
def test_tangent_gens_match_scan_of_edges(poly):
    # every face holds the sorted primitive directions of the edges through
    # its reference vertex, one tuple shared by the faces at that vertex
    for i, v in enumerate(poly.vertices):
        scan = sorted(
            primitive_vector([w - x for w, x in zip(poly.vertices[j], v)])
            for f in poly.faces_of_dim(1) if i in f.vertex_ids
            for j in f.vertex_ids if j != i
        )
        at_vertex = [f for f in poly.faces if f.vertex_ids[0] == i]
        assert at_vertex[0].tangent_gens == tuple(scan)
        assert all(f.tangent_gens is at_vertex[0].tangent_gens for f in at_vertex)


@settings(max_examples=30, deadline=None)
@given(hulls_2d_to_4d())
def test_pyramid_heights_match_lattice_determinants(poly):
    # the pyramid facets of a face F are its facets G that miss its
    # reference vertex x_0, and h_G is the lattice distance from x_0 to G
    # in F's lattice: |det(w_1, ..., w_(k-1), y)| in F's lattice
    # coordinates, w a lattice basis of G's directions and y a vertex of G
    # less x_0
    for face in poly.faces:
        x0, k = face.ref_vertex, face.dim
        frame = as_matrix(transpose(face.lineality_basis)) if k else ()

        def coords(direction):
            y = solve_unique(frame, direction)
            assert all(c.denominator == 1 for c in y)
            return y

        expected = {
            g.index: abs(fraction_det(
                [coords(w) for w in g.lineality_basis]
                + [coords([a - b for a, b in zip(g.ref_vertex, x0)])]
            ))
            for g in poly.faces
            if g.dim == k - 1 and set(g.vertex_ids) <= set(face.vertex_ids)
            and face.vertex_ids[0] not in g.vertex_ids
        }
        assert dict(face.pyramid) == expected
        assert len(face.pyramid) == len(expected)
        assert all(h > 0 for _, h in face.pyramid)


@settings(max_examples=30, deadline=None)
@given(hulls_2d_to_4d())
def test_face_frame_splits_the_lattice(poly):
    # the quotient rows R of a face map Z^m onto Z^(m - dim) with kernel
    # spanned by its lineality basis, all in Python ints
    m = poly.ambient_dim
    for face in poly.faces:
        rows, lin = face.quotient_rows, face.lineality_basis
        assert len(rows) == m - face.dim and len(lin) == face.dim
        assert all(sum(map(operator.mul, r, l)) == 0 for r in rows for l in lin)
        _, dmat, _ = smith_normal_form(rows)
        assert all(dmat[i][i] == 1 for i in range(len(rows)))
        assert all(type(x) is int for v in rows + lin for x in v)


@settings(max_examples=30, deadline=None)
@given(hulls_2d_to_4d())
@example(build_polytope(CUBE))
@example(build_polytope(OCTAHEDRON))
def test_parallel_faces_share_one_lattice_frame(poly):
    # faces with the same direction space hold the same lineality basis and
    # quotient rows, as objects, and a build takes one Smith form per
    # direction space of positive dimension
    spaces = []  # (dim, lineality basis, frame) of each distinct space
    for face in poly.faces:
        frame = (face.lineality_basis, face.quotient_rows)
        same = [s for s in spaces if s[0] == face.dim
                and matrix_rank(list(s[1]) + list(face.lineality_basis)) == face.dim]
        if same:
            assert len(same) == 1
            assert all(x is y for x, y in zip(same[0][2], frame))
        else:
            spaces.append((face.dim, face.lineality_basis, frame))
    real = exactcore.smith_normal_form
    calls = []

    def counting(mat):
        calls.append(mat)
        return real(mat)

    with mock.patch.object(exactcore, "smith_normal_form", counting):
        build_polytope(poly.vertices)
    assert len(calls) == sum(1 for s in spaces if s[0])


def test_face_loop_names_each_space_from_the_faces_own_edges(monkeypatch):
    # [0,1]^4 is simple, so each k-face has k edges at its reference vertex:
    # each elimination of the face loop takes dim F rows, not the 2^k - 1
    # vertex differences, which only seed the Smith form of each of the 15
    # direction spaces of positive dimension
    eliminations = _counted(monkeypatch, "_eliminate")
    seeds = _counted(monkeypatch, "_lattice_frame")
    poly = build_polytope(list(itertools.product((0, 1), repeat=4)))
    loop = [len(mat) for mat, in eliminations if not mat or len(mat[0]) == 4]
    assert loop == [f.dim for f in poly.faces] and len(loop) == 81
    assert sorted(len(mat) for mat, in seeds) == sorted(
        2 ** k - 1 for k in range(1, 5) for _ in range(math.comb(4, k)))


PYRAMID3 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
PYRAMID4 = [p + (0,) for p in OCTAHEDRON] + [(0, 0, 0, 1)]


@st.composite
def unimodular_images_of_hulls(draw):
    """Random 2-4D hulls and non-simple ones (the octahedron and pyramids
    over a square and over the octahedron), under a random GL_m(Z) map."""
    m = draw(st.integers(2, 4))
    coord = st.integers(-1, 2)
    points = draw(st.one_of(
        st.lists(st.tuples(*[coord] * m), min_size=m + 1, max_size=m + 4),
        st.sampled_from([OCTAHEDRON, PYRAMID3, PYRAMID4]),
    ))
    mat = unimodular_matrix(random.Random(draw(st.integers(0, 10**6))), len(points[0]))
    try:
        return build_polytope([tuple(sum(map(operator.mul, row, p)) for row in mat) for p in points])
    except ValueError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(unimodular_images_of_hulls())
def test_faces_share_quotient_rows_exactly_when_their_spaces_agree(poly):
    # reference key of a face's direction space: the nonzero rows of the
    # rref of its vertex differences
    def key(face):
        x0 = face.ref_vertex
        rows, _ = exactcore.rref([exactcore.vsub(poly.vertices[v], x0) for v in face.vertex_ids[1:]])
        return tuple(r for r in rows if any(r))

    pairs = {(key(f), id(f.quotient_rows)) for f in poly.faces}
    assert len(pairs) == len({k for k, _ in pairs}) == len({i for _, i in pairs})


def test_transverse_cone_inverts_one_matrix_per_direction_space_and_never_q(monkeypatch):
    # B solves R B = I and l^T Q B = 0 from one fraction-free inverse of
    # [R; l^T sQ] per direction space of a proper face: 4 of facets, 6 of
    # edges and 1 of the vertices, 11 for the 26 proper faces; Q itself is
    # never inverted
    poly = build_polytope(OCTAHEDRON)
    q = as_matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    calls = []
    real = geometry._scaled_inverse

    def counting(mat):
        calls.append(as_matrix(mat))
        return real(mat)

    monkeypatch.setattr(geometry, "_scaled_inverse", counting)
    for face in poly.faces:
        transverse_cone(poly, face, q)
    assert len(calls) == 11 and len(poly.faces) - 1 == 26
    assert q not in calls


def _counted(monkeypatch, name):
    calls = []
    real = getattr(geometry, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, name, counting)
    return calls


TRIDIAGONAL3 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
FRACTIONAL3 = [[F(3, 2), F(1, 3), 0], [F(1, 3), F(3, 2), F(1, 3)], [0, F(1, 3), F(3, 2)]]


def test_transverse_cone_takes_one_frame_per_direction_space(monkeypatch):
    # [0,1]^6 has 728 proper faces in 63 direction spaces, the coordinate
    # subspaces but R^6; under the identity no Q is checked.  The
    # octahedron under the exact tridiagonal Q checks it once and solves 11
    # frames
    for points, qmat, checked, inverted in (
        (list(itertools.product((0, 1), repeat=6)), None, 0, 63),
        (OCTAHEDRON, as_matrix(TRIDIAGONAL3), 1, 11),
    ):
        poly = build_polytope(points)
        checks = _counted(monkeypatch, "inner_product_matrix")
        inverses = _counted(monkeypatch, "_scaled_inverse")
        for face in poly.faces:
            transverse_cone(poly, face, qmat)
        assert len(poly.faces) - 1 == (728 if qmat is None else 26)
        assert (len(checks), len(inverses)) == (checked, inverted)


@pytest.mark.parametrize("qmat", [None, TRIDIAGONAL3, FRACTIONAL3])
def test_parallel_faces_share_basis_and_gram_objects(qmat):
    # the octahedron's antipodal faces are parallel: each pair returns the
    # same B and G tuples, and faces of different spaces do not
    poly = build_polytope(OCTAHEDRON)
    cones = {f.index: transverse_cone(poly, f, qmat) for f in poly.faces if f.dim < 3}
    for f in poly.faces[:-1]:
        for g in poly.faces[:-1]:
            same = f.quotient_rows is g.quotient_rows
            assert (cones[f.index].basis is cones[g.index].basis) == same
            assert (cones[f.index].qmat is cones[g.index].qmat) == same


@settings(max_examples=20, deadline=None)
@given(hulls_2d_to_4d(), st.randoms(use_true_random=False))
@example(build_polytope(OCTAHEDRON), random.Random(0))
@example(build_polytope(PRISM), random.Random(1))
def test_warm_transverse_cones_equal_fresh_ones(poly, rng):
    # one polytope serves the identity, tridiagonal and fractional Q in a
    # mixed order, with faces met in a shuffled order; every cone equals
    # the one a fresh polytope of the same points gives
    m = poly.ambient_dim
    qmats = [
        None,
        [[2 if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)],
        [[F(3, 2) if i == j else (F(1, 3) if abs(i - j) == 1 else 0) for j in range(m)]
         for i in range(m)],
    ]
    order = [rng.randrange(3) for _ in range(6)]
    for k in order:
        faces = list(poly.faces)
        rng.shuffle(faces)
        fresh = build_polytope(poly.vertices)
        for face in faces:
            assert transverse_cone(poly, face, qmats[k]) == transverse_cone(
                fresh, fresh.faces[face.index], qmats[k])


def test_transverse_cone_checks_every_q_that_is_not_exact(monkeypatch):
    # only None or a tuple of tuples of Fractions skips the check once the
    # polytope has seen it; Python hashes 2.0 and Fraction(2) alike, so a
    # float matrix would otherwise be served from the table
    poly = build_polytope(OCTAHEDRON)
    exact = as_matrix(TRIDIAGONAL3)
    edge = poly.faces_of_dim(1)[0]
    warm = transverse_cone(poly, edge, exact)
    checks = _counted(monkeypatch, "inner_product_matrix")
    inverses = _counted(monkeypatch, "_scaled_inverse")
    assert transverse_cone(poly, edge, exact) == warm and checks == []
    for inexact in (
        tuple(tuple(float(x) for x in row) for row in exact),
        tuple(tuple(Decimal(int(x)) for x in row) for row in exact),
    ):
        with pytest.raises(TypeError):
            transverse_cone(poly, edge, inexact)
    checks.clear()
    for equal in (TRIDIAGONAL3, tuple(tuple(str(x) for x in row) for row in exact)):
        cone = transverse_cone(poly, edge, equal)
        assert cone.basis is warm.basis and cone.qmat is warm.qmat
    assert len(checks) == 2 and inverses == []
    tables = len(poly._frames)
    for bad in ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], ((F(1), F(2)), (F(2), F(1)))):
        for _ in range(2):
            with pytest.raises(ValueError, match="positive definite"):
                transverse_cone(poly, edge, bad)
    assert len(poly._frames) == tables


def test_transverse_cone_respects_q():
    p = build_polytope(SQUARE)
    edge = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((1, 0))]
    )
    q = as_matrix([[2, 1], [1, 2]])
    t = transverse_cone(p, edge, q)
    # L(f) = span(e1); Q-orthocomplement is spanned by (-1, 2)
    assert t.dim == 1
    # the generator in ambient coordinates, sum_j g_j B_j
    amb = [sum(g * b[i] for g, b in zip(t.gens[0], t.basis)) for i in range(2)]
    assert amb[1] > 0
    assert 2 * amb[0] + amb[1] == 0 or (q[0][0] * amb[0] + q[0][1] * amb[1]) == 0


# ---------------------------------------------------------------------------
# integration


def test_integrate_over_polytope():
    p = build_polytope(SQUARE)
    one = MultiPoly.const(2, F(1))
    assert integrate_poly_over_face(p, p.polytope_face, one) == 1
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert integrate_poly_over_face(p, p.polytope_face, x * y) == F(1, 4)


def test_integrate_simplex_monomial():
    p = build_polytope(SIMPLEX2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert integrate_poly_over_face(p, p.polytope_face, x * y) == F(1, 24)
    assert integrate_poly_over_face(
        p, p.polytope_face, MultiPoly.const(2, F(1))
    ) == F(1, 2)


def test_integrate_over_edge():
    p = build_polytope(TRAPEZOID)
    edge = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((2, 0))]
    )
    x = MultiPoly.variable(2, 0)
    assert integrate_poly_over_face(p, edge, x) == 2
    assert integrate_poly_over_face(p, edge, MultiPoly.const(2, F(1))) == 2


def test_integrate_lattice_normalization():
    # the diagonal edge from (0,0) to (2,2) has lattice length 2
    p = build_polytope([(0, 0), (2, 0), (2, 2)])
    diag = p.face_by_vertex_ids(
        [p.vertices.index((0, 0)), p.vertices.index((2, 2))]
    )
    one = MultiPoly.const(2, F(1))
    assert integrate_poly_over_face(p, diag, one) == 2


def test_integrate_vertex_evaluates():
    p = build_polytope(SQUARE)
    v = p.face_by_vertex_ids([p.vertices.index((1, 1))])
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert integrate_poly_over_face(p, v, x + 2 * y) == 3


def test_integrate_cube():
    p = build_polytope(CUBE)
    x = MultiPoly.variable(3, 0)
    z = MultiPoly.variable(3, 2)
    assert integrate_poly_over_face(p, p.polytope_face, x * x * z) == F(1, 6)


def test_integrate_octahedron_volume():
    p = build_polytope(OCTAHEDRON)
    one = MultiPoly.const(3, F(1))
    assert integrate_poly_over_face(p, p.polytope_face, one) == F(4, 3)


@pytest.mark.parametrize(
    "points", [CUBE, PRISM, OCTAHEDRON, TRAPEZOID, SIMPLEX3]
)
def test_face_integral_matches_its_affine_hull_polytope(points):
    # The face, rebuilt as a full-dimensional polytope over a saturated
    # basis of its affine hull, carries the face's lattice measure as its
    # Lebesgue measure; this covers faces such as the octahedron's
    # triangles, whose lattice is not a coordinate sublattice.
    p = build_polytope(points)
    m = p.ambient_dim
    x = [MultiPoly.variable(m, i) for i in range(m)]
    phi = x[0] ** 3 - 2 * x[0] * x[-1] + F(1, 3) * x[1] * x[1] + 5
    for face in p.faces:
        if face.dim == 0:
            continue
        sub = build_polytope(
            [p.vertices[i] for i in face.vertex_ids], affine_hull=True
        )
        pulled = phi
        if sub.affine_data is not None:
            origin, basis = sub.affine_data
            pulled = phi.compose([
                MultiPoly.linear_form([b[i] for b in basis]) + origin[i]
                for i in range(m)
            ])
        assert integrate_poly_over_face(p, face, phi) == (
            integrate_poly_over_face(sub, sub.polytope_face, pulled)
        )


@st.composite
def hulls_and_polynomials(draw):
    m = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1,
                           max_size=m + 3))
    try:
        poly = build_polytope(points)
    except ValueError:
        assume(False)
    coeff = st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)
    )
    exps = st.tuples(*[st.integers(0, 3)] * m).filter(lambda e: sum(e) <= 3)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=5))
    return poly, MultiPoly(m, terms)


@settings(max_examples=30, deadline=None)
@given(hulls_and_polynomials())
def test_moment_table_integration_matches_compose_reference(case):
    # integration through the polytope's moment table equals composing
    # all of phi with each simplex's parametrization, on every face, and
    # asking again reads the same values back from the table
    poly, phi = case
    expected = [compose_integral(poly, face, phi) for face in poly.faces]
    for _ in range(2):
        assert [
            integrate_poly_over_face(poly, face, phi) for face in poly.faces
        ] == expected


# non-simple faces (the octahedron's and the cross-polytope's vertices, the
# pyramid's apex), faces whose lattice is not a coordinate sublattice, and
# faces whose simplices are not unimodular (the index-3 tetrahedron, the
# height-2 prism)
MOMENT_CORPUS = {
    "octahedron": OCTAHEDRON,
    "cross-polytope4": [tuple(s * int(i == j) for j in range(4))
                        for i in range(4) for s in (1, -1)],
    "tetrahedron-index3": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)],
    "prism-height2": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 2),
                      (0, 1, 2)],
    "sheared-pyramid": [(x + y, y + z, z) for x, y, z in
                        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]],
}


@pytest.mark.parametrize("points", MOMENT_CORPUS.values(), ids=MOMENT_CORPUS.keys())
def test_face_moments_match_simplex_reference(points):
    # every moment of degree <= 3 on every face equals the integral through
    # the face's own pulling triangulation and Smith-form volumes
    poly = build_polytope(points)
    m = poly.ambient_dim
    for e in itertools.product(range(4), repeat=m):
        if sum(e) <= 3:
            monomial = MultiPoly.monomial(e)
            for face in poly.faces:
                assert poly.face_moment(face, e) == compose_integral(poly, face, monomial)


def test_fresh_face_moments_compose_no_polynomial(monkeypatch):
    # a fresh polytope's moments come from an integer recursion up its face
    # lattice, not from composing x^e with any parametrization
    calls = []
    real = MultiPoly.compose

    def counted(self, images):
        calls.append(images)
        return real(self, images)

    monkeypatch.setattr(MultiPoly, "compose", counted)
    for points in (OCTAHEDRON, PRISM, SKEW_TRIANGLE):
        poly = build_polytope(points)
        m = poly.ambient_dim
        for face in poly.faces:
            for e in itertools.product(range(3), repeat=m):
                poly.face_moment(face, e)
    assert calls == []


# ---------------------------------------------------------------------------
# inclusion-exclusion window identity


@pytest.mark.parametrize(
    "verts",
    [SQUARE, SIMPLEX2, TRAPEZOID, SKEW_TRIANGLE],
)
def test_euler_brion_2d(verts):
    assert euler_brion_window_check(build_polytope(verts), n_values=(1, 2, 3))


def test_euler_brion_interval():
    p = build_polytope([(0,), (3,)])
    assert euler_brion_window_check(p, n_values=(1, 2))


def test_euler_brion_octahedron():
    p = build_polytope(OCTAHEDRON)
    assert euler_brion_window_check(p, n_values=(1,))


def test_euler_brion_fails_without_any_one_face():
    # every face, the triangle itself included, carries a term of the
    # identity; with one of them dropped some sample point breaks it
    p = build_polytope([[0, 0], [1, 0], [1, 2]])
    for i in range(len(p.faces)):
        faces = p.faces[:i] + p.faces[i + 1:]
        assert not euler_brion_window_check(LatticePolytope(p.vertices, p.facets, faces)), i


@pytest.mark.parametrize("n", [True, 0, -1, 1.5, F(2)])
def test_euler_brion_rejects_dilations_that_are_not_positive_ints(n):
    p = build_polytope(SIMPLEX2)
    with pytest.raises(ValueError, match="the dilation factor must be a positive integer"):
        euler_brion_window_check(p, n_values=(1, n))


# ---------------------------------------------------------------------------
# randomized hull properties


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=3,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_random_2d_hulls(pts):
    if matrix_rank([(1,) + tuple(p) for p in pts]) != 3:
        return
    p = build_polytope(pts)
    # every input point satisfies every facet inequality
    for pt in pts:
        assert p.contains(pt)
    # Euler relation and face dimensions
    assert sum((-1) ** f.dim for f in p.faces) == 1
    # vertices are among the inputs
    assert set(p.vertices) <= set(tuple(x) for x in pts)
    # total area equals the triangulated area and is positive
    one = MultiPoly.const(2, F(1))
    assert integrate_poly_over_face(p, p.polytope_face, one) > 0


def _reference_cone_facets(rays):
    """`geometry._cone_facets` on homogenized points {(1, p)}, read off the
    m-subset scan: the facet (alpha, c) is the normal (-c, alpha)."""
    points = [ray[1:] for ray in rays]
    return {
        (-c,) + alpha: frozenset(
            i for i, p in enumerate(points)
            if sum(a * x for a, x in zip(alpha, p)) == c
        )
        for alpha, c in facet_candidates(points, len(points[0]))
    }


@st.composite
def point_sets(draw):
    m = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    return draw(st.lists(st.tuples(*[coord] * m), min_size=1,
                         max_size=m + 5))


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_hull_matches_subset_scan_reference(points):
    # the double description finds exactly the facets the m-subset scan
    # finds, so vertices, facets and faces are those of the hull built
    # from the scan's facets; a full-dimensional hull has at least m + 1
    # facets, a flat one at most one supporting hyperplane
    m = len(points[0])
    reference = facet_candidates(sorted(set(points)), m)
    if len(reference) <= m:
        with pytest.raises(ValueError, match="not full-dimensional"):
            build_polytope(points)
        return
    poly = build_polytope(points)
    with mock.patch.object(geometry, "_cone_facets", _reference_cone_facets):
        expected = build_polytope(points)
    assert poly.vertices == expected.vertices
    assert poly.facets == expected.facets
    assert poly.faces == expected.faces


@st.composite
def hulls_with_points_off_their_vertices(draw):
    # a random hull, a pyramid (not simple at its apex once the floor has
    # m or more vertices) or a cross-polytope, doubled so that the
    # midpoint of any two of its points, on an edge, on a facet or
    # inside, is a lattice point; then a GL_m(Z) map and a translation
    m = draw(st.integers(2, 4))
    coord = st.integers(-1, 2)
    kind = draw(st.sampled_from(["random", "pyramid", "cross"]))
    if kind == "random":
        base = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 2, max_size=m + 4,
                             unique=True))
    elif kind == "pyramid":
        floor = draw(st.lists(st.tuples(*[coord] * (m - 1)), min_size=m, max_size=m + 2,
                              unique=True))
        apex = draw(st.tuples(*[coord] * (m - 1), st.integers(1, 2)))
        base = [p + (0,) for p in floor] + [apex]
    else:
        base = [tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)]
    index = st.integers(0, len(base) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=4))
    points = [tuple(2 * x for x in p) for p in base]
    points += [tuple(map(operator.add, base[i], base[j])) for i, j in pairs]
    assume(matrix_rank([(1,) + p for p in points]) == m + 1)
    rng = draw(st.randoms(use_true_random=False))
    mat = unimodular_matrix(rng, m)
    shift = [rng.randint(-2, 2) for _ in range(m)]
    return [tuple(sum(map(operator.mul, row, p)) + t for row, t in zip(mat, shift))
            for p in points], rng


@settings(max_examples=60, deadline=None)
@given(hulls_with_points_off_their_vertices())
@example(([(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2),
           (1, 1, 0), (0, 0, 0)], random.Random(0)))
@example(([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2),
           (1, 0, 0), (1, 1, 0), (1, 1, 1)], random.Random(1)))
def test_face_dimensions_and_extreme_rays_match_rank_reference(case):
    # the face lattice is read off the facets' incidences with no rank;
    # rank is the reference: a face's dim is the rank of its homogenized
    # vertices minus 1, and an input point is a vertex exactly when the
    # normals of the m-subset scan's facets tight on it have rank m.  The
    # same holds for the lattice that triangulate_cone pulls on, on the
    # cone over {1} x P carried by a unimodular map into Z^(m+2), where
    # the points off the vertices are rays that are not extreme
    points, rng = case
    distinct = sorted(set(points))
    m = len(distinct[0])
    facets = facet_candidates(distinct, m)
    vertices = [
        p for p in distinct
        if matrix_rank(as_matrix(
            alpha for alpha, c in facets if sum(map(operator.mul, alpha, p)) == c
        )) == m
    ]
    poly = build_polytope(points)
    assert list(poly.vertices) == vertices
    for face in poly.faces:
        homogenized = [(1,) + poly.vertices[v] for v in face.vertex_ids]
        assert face.dim == matrix_rank(homogenized) - 1

    lift = unimodular_matrix(rng, m + 2)

    def image(p):
        return tuple(sum(map(operator.mul, row, (1,) + p + (0,))) for row in lift)

    rays = [image(p) for p in distinct]
    lattices = []

    def recording(facets, order):
        faces = geometry._face_lattice(facets, order)
        lattices.append((order, faces))
        return faces

    with mock.patch.object(subdivide, "_face_lattice", recording):
        cells = triangulate_cone(rays)
    assert {g for cell in cells for g in cell} == set(map(image, vertices))
    assert len(lattices) == (len(vertices) > m + 1)
    for order, faces in lattices:
        assert sorted(rays[i] for i in order) == sorted(map(image, vertices))
        for dim, vids in faces:
            assert dim == matrix_rank([rays[order[v]] for v in vids]) - 1


def test_face_lattice_takes_no_rank(monkeypatch):
    # extreme rays, pointedness and face dimensions come from the facets'
    # incidences: a hull's one rank is its full-dimension check, and
    # triangulate_cone's one rank is of its rays; neither _extreme_rays,
    # _face_lattice nor _triangulate's pointedness test eliminates
    calls = []

    def counting(name):
        real = getattr(exactcore, name)

        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        return wrapper

    for name in ("matrix_rank", "_eliminate", "smith_normal_form"):
        wrapper = counting(name)
        for module in (exactcore, geometry, subdivide):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    def ranks():
        return [caller for name, caller in calls if name == "matrix_rank"]

    for points in (CUBE, OCTAHEDRON):
        calls.clear()
        build_polytope(points)
        assert ranks() == ["build_polytope"]
        assert not {"_extreme_rays", "_face_lattice"} & {caller for _, caller in calls}
    # the octahedron's vertex cone at (1, 0, 0), over a square
    calls.clear()
    cells = triangulate_cone([(-1, 1, 0), (-1, -1, 0), (-1, 0, 1), (-1, 0, -1)])
    assert len(cells) == 2
    assert ranks() == ["triangulate_cone"]
    assert [name for name, caller in calls if caller == "_triangulate"] == ["smith_normal_form"]
    assert not {"_extreme_rays", "_face_lattice"} & {caller for _, caller in calls}


@pytest.mark.parametrize(
    "points, nfacets",
    [
        (list(itertools.product((0, 1), repeat=5)), 10),
        ([tuple(s * int(i == j) for j in range(5))
          for i in range(5) for s in (1, -1)], 32),
    ],
    ids=["cube5", "cross-polytope5"],
)
def test_five_dimensional_hull_within_budget(points, nfacets):
    started = time.perf_counter()
    poly = build_polytope(points)
    elapsed = time.perf_counter() - started
    assert len(poly.facets) == nfacets
    assert len(poly.faces) == 243
    assert elapsed < 10, f"hull took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# hull invariants under python -O


INVARIANT_SCRIPT = """
import sys
from fractions import Fraction
from emsum import exactcore, geometry, subdivide

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
{patch}
try:
    geometry.build_polytope({points!r}, affine_hull=True)
except AssertionError as exc:
    print(exc)
"""

# every solve reports half-integer coordinates
HALF_COORDINATES = (
    "geometry.solve_unique = lambda mat, rhs: (Fraction(1, 2),) * len(mat[0])"
)
# every vertex reported as an edge
VERTICES_AS_EDGES = """
real = geometry.Face
geometry.Face = lambda **kw: real(**dict(kw, dim=kw["dim"] or 1))
"""


@pytest.mark.parametrize(
    "patch, points, message",
    [
        (HALF_COORDINATES, [(0, 0), (1, 1)],
         "saturated basis must give integer coordinates"),
        (VERTICES_AS_EDGES, SQUARE,
         "face lattice must satisfy the Euler relation"),
    ],
    ids=["affine-hull-integrality", "euler-relation"],
)
def test_hull_invariants_fire_under_optimize(patch, points, message):
    script = INVARIANT_SCRIPT.format(patch=patch, points=points)
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message
