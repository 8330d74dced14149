"""Tests for the expansion engine and its closed-form references."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emsum import conecalc, engine, exactcore, geometry, subdivide
from emsum.conecalc import DiffOp, UniCone
from emsum.engine import (
    ExpansionResult,
    closed_form_2d,
    closed_form_A0_A1,
    closed_form_A2,
    expansion,
)
from emsum.exactcore import MultiPoly, matrix_inverse
from emsum.geometry import build_polytope, integrate_poly_over_face
from emsum.oracle import coefficients_from_oracle, riemann_sum

from _helpers import built_cell_symbols, run_optimized, unimodular_matrix

ONE2 = MultiPoly.const(2, F(1))
ONE3 = MultiPoly.const(3, F(1))
X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)

SQUARE = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX2 = build_polytope([(0, 0), (1, 0), (0, 1)])
TRAPEZOID = build_polytope([(0, 0), (2, 0), (2, 1), (0, 1)])
CUBE = build_polytope(
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
)
TRIANGLE_NON_DELZANT = build_polytope([(0, 0), (1, 0), (1, 2)])
OCTAHEDRON = build_polytope(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
)


def test_unit_square_constant():
    res = expansion(SQUARE, ONE2)
    assert res.coefficients == (F(1), F(2), F(1))
    assert res.complete
    assert not res.valuation_used


def test_two_simplex_constant():
    res = expansion(SIMPLEX2, ONE2)
    assert res.coefficients == (F(1, 2), F(3, 2), F(1))


def test_interval_linear():
    interval = build_polytope([(0,), (1,)])
    phi = MultiPoly.variable(1, 0)
    res = expansion(interval, phi)
    assert res.coefficients == (F(1, 2), F(1, 2), F(0))


def test_unit_cube_constant():
    res = expansion(CUBE, ONE3)
    assert res.coefficients == (F(1), F(3), F(3), F(1))


def test_per_face_entries_sum_to_totals():
    res = expansion(TRAPEZOID, X * Y)
    sums = {}
    for (n, _fid), val in res.per_face.items():
        sums[n] = sums.get(n, F(0)) + val
    for n, total in enumerate(res.coefficients):
        assert sums.get(n, F(0)) == total


@pytest.mark.parametrize(
    "poly,phi",
    [
        (SQUARE, X * X + Y),
        (SIMPLEX2, X * Y),
        (TRAPEZOID, X),
        (TRAPEZOID, Y * Y),
        (CUBE, MultiPoly.variable(3, 2) ** 2),
    ],
)
def test_engine_matches_oracle_delzant(poly, phi):
    res = expansion(poly, phi)
    assert list(res.coefficients) == coefficients_from_oracle(poly, phi)
    assert not res.valuation_used


def test_expansion_is_exact_for_small_dilations():
    phi = X + Y * Y
    res = expansion(TRAPEZOID, phi)
    for n_dil in (1, 2, 3):
        predicted = sum(
            a / F(n_dil) ** n for n, a in enumerate(res.coefficients)
        )
        assert predicted == riemann_sum(TRAPEZOID, phi, n_dil)


def test_non_delzant_triangle_matches_oracle():
    for phi in (ONE2, X * X):
        res = expansion(TRIANGLE_NON_DELZANT, phi)
        assert list(res.coefficients) == coefficients_from_oracle(
            TRIANGLE_NON_DELZANT, phi
        )
        assert res.valuation_used
        alt = expansion(TRIANGLE_NON_DELZANT, phi, strategy="alternate")
        assert alt.coefficients == res.coefficients


def test_octahedron_matches_oracle():
    res = expansion(OCTAHEDRON, ONE3)
    assert list(res.coefficients) == coefficients_from_oracle(
        OCTAHEDRON, ONE3
    )
    assert res.valuation_used


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_octahedron_triangulates_each_cone_once(monkeypatch):
    # 8 facets with a unimodular transverse cone, and 12 edges and 6
    # vertices with a non-unimodular one.  Each face's antipode has the
    # negated cone and takes its operator, so only 4 facets, 6 edges and 3
    # vertices build one.  A facet's cone is one ray of determinant 1,
    # unimodular without a triangulation, so each of the 6 edge and 3
    # vertex cones passes through the triangulation once.  The
    # decomposition serves every order, and the polytope keeps it.
    octahedron = build_polytope(OCTAHEDRON.vertices)
    calls = _count_calls(monkeypatch, subdivide, "_triangulate")
    expansion(octahedron, ONE3)
    assert len(calls) == 9
    calls.clear()
    expansion(octahedron, ONE3)
    assert calls == []


def test_face_integrals_build_no_hull(monkeypatch):
    calls = _count_calls(monkeypatch, geometry, "build_polytope")
    expansion(CUBE, ONE3)
    assert calls == []


def test_face_moments_triangulate_nothing(monkeypatch):
    # every moment of a fresh polytope comes from the recursion up its face
    # lattice: no face is triangulated and no lattice volume is taken
    octahedron = build_polytope(OCTAHEDRON.vertices)
    calls = [
        _count_calls(monkeypatch, geometry, "_pulling_triangulation"),
        _count_calls(monkeypatch, exactcore, "smith_normal_form"),
    ]
    for face in octahedron.faces:
        for e in itertools.product(range(3), repeat=3):
            octahedron.face_moment(face, e)
    assert calls == [[]] * 2


def test_one_smith_form_per_direction_space(monkeypatch):
    # build_polytope takes one Smith normal form per direction space of
    # positive dimension, which gives the lineality basis and the quotient
    # rows of every face parallel to it: the octahedron's 12 edges span 6
    # lines, its 8 facets 4 planes and the polytope is one space; expansion
    # takes none outside subdivide, which imports its own name (geometry
    # does not, so the counter sees every Smith form it takes)
    assert not hasattr(geometry, "smith_normal_form")
    calls = _count_calls(monkeypatch, exactcore, "smith_normal_form")
    octahedron = build_polytope(OCTAHEDRON.vertices)
    assert len(calls) == 6 + 4 + 1 == 11
    fresh = build_polytope(OCTAHEDRON.vertices)
    calls.clear()
    expansion(fresh, ONE3)
    assert calls == []


def test_q_independence_of_totals():
    qmat = ((2, 1), (1, 2))
    for poly, phi in [(SQUARE, X * Y), (TRIANGLE_NON_DELZANT, ONE2)]:
        base = expansion(poly, phi)
        other = expansion(poly, phi, qmat=qmat)
        assert base.coefficients == other.coefficients
        # the per-face pieces are allowed to differ, and generally do
        assert base.per_face != other.per_face


def test_result_metadata_and_lookup():
    res = expansion(SQUARE, ONE2)
    assert res.n_max == 2
    assert res.qmat == ((1, 0), (0, 1))
    assert res.coefficient(1) == F(2)
    assert res.coefficient(7) == F(0)  # complete expansions vanish beyond
    assert res.items() == [(0, F(1)), (1, F(2)), (2, F(1))]
    with pytest.raises(ValueError, match="non-negative"):
        res.coefficient(-1)


def test_truncated_expansion():
    res = expansion(SQUARE, ONE2, n_max=1)
    assert res.coefficients == (F(1), F(2))
    assert not res.complete
    with pytest.raises(ValueError, match="beyond computed range"):
        res.coefficient(2)


def test_expansion_validation():
    with pytest.raises(ValueError, match="one variable per ambient"):
        expansion(SQUARE, ONE3)
    with pytest.raises(ValueError, match="non-negative"):
        expansion(SQUARE, ONE2, n_max=-1)
    with pytest.raises(ValueError, match="strategy"):
        expansion(SQUARE, ONE2, strategy="fancy")
    with pytest.raises(ValueError, match="positive definite"):
        expansion(SQUARE, ONE2, qmat=((1, 3), (3, 1)))


def test_closed_form_a0_a1_values():
    assert closed_form_A0_A1(SQUARE, ONE2) == (F(1), F(2))
    assert closed_form_A0_A1(CUBE, ONE3) == (F(1), F(3))
    assert closed_form_A0_A1(SIMPLEX2, ONE2) == (F(1, 2), F(3, 2))


def test_closed_form_a0_a1_matches_engine():
    phi = X * X + Y
    a0, a1 = closed_form_A0_A1(TRAPEZOID, phi)
    res = expansion(TRAPEZOID, phi)
    assert (a0, a1) == (res.coefficients[0], res.coefficients[1])


def test_closed_form_a2_values():
    assert closed_form_A2(SQUARE, ONE2) == F(1)
    assert closed_form_A2(CUBE, ONE3) == F(3)
    assert closed_form_A2(SIMPLEX2, ONE2) == F(1)


def test_closed_form_a2_matches_engine():
    for poly, phi in [(SQUARE, X * Y), (TRAPEZOID, X), (CUBE, ONE3)]:
        assert closed_form_A2(poly, phi) == expansion(poly, phi).coefficient(2)


def test_closed_form_a2_guards():
    with pytest.raises(ValueError, match="Delzant"):
        closed_form_A2(TRIANGLE_NON_DELZANT, ONE2)


def test_closed_form_2d_matches_engine():
    # GL_2(Z) images tilt every edge off the axes
    images = [
        build_polytope([tuple(sum(a * c for a, c in zip(row, p)) for row in u) for p in poly.vertices])
        for poly in (SQUARE, SIMPLEX2, TRAPEZOID)
        for u in (((2, 1), (1, 1)), ((1, -3), (0, 1)))
    ]
    qmats = (((2, 1), (1, 2)), ((3, -1), (-1, 1)), ((F(5, 2), F(1, 3)), (F(1, 3), F(7, 5))))
    for poly in (SQUARE, SIMPLEX2, TRAPEZOID, *images):
        for phi in (ONE2, X, X * Y):
            res = expansion(poly, phi, n_max=5)
            for n in range(2, 6):
                assert closed_form_2d(poly, phi, n) == res.coefficient(n)
            for qmat in qmats:
                res_q = expansion(poly, phi, qmat=qmat, n_max=5)
                for n in range(2, 6):
                    assert closed_form_2d(poly, phi, n, qmat=qmat) == (
                        res_q.coefficient(n)
                    )


def test_closed_form_2d_guards():
    with pytest.raises(ValueError, match="two-dimensional"):
        closed_form_2d(CUBE, ONE3, 2)
    with pytest.raises(ValueError, match="Delzant"):
        closed_form_2d(TRIANGLE_NON_DELZANT, ONE2, 2)
    with pytest.raises(ValueError, match="order two"):
        closed_form_2d(SQUARE, ONE2, 1)


@pytest.mark.parametrize(
    "qmat", [((1,),), ((1, 0, 0), (0, 1, 0), (0, 0, 1))], ids=["1x1", "3x3"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda q: expansion(SQUARE, ONE2, qmat=q),
        lambda q: geometry.transverse_cone(SQUARE, SQUARE.faces[0], q),
        lambda q: geometry.transverse_cone(SQUARE, SQUARE.polytope_face, q),
        lambda q: closed_form_2d(SQUARE, ONE2, 2, qmat=q),
        lambda q: UniCone([(1, 0), (0, 1)], qmat=q),
    ],
    ids=["expansion", "transverse-cone", "transverse-cone-codim-0",
         "closed-form-2d", "unicone"],
)
def test_inner_product_of_the_wrong_size_rejected(call, qmat):
    # an SPD matrix of another size is not an inner product on Q^2
    with pytest.raises(
        ValueError, match="inner product matrix must be symmetric positive definite"
    ):
        call(qmat)


def test_asymmetric_inner_product_with_positive_minors_rejected():
    # leading principal minors 2 and 4 are positive; only symmetry fails
    qmat = ((2, 1), (0, 2))
    with pytest.raises(ValueError, match="positive definite"):
        expansion(SQUARE, ONE2, qmat=qmat)
    with pytest.raises(ValueError, match="positive definite"):
        closed_form_2d(SQUARE, ONE2, 2, qmat=qmat)
    with pytest.raises(ValueError, match="positive definite"):
        UniCone([(1, 0), (0, 1)], qmat=qmat)


def test_expansion_result_repr():
    res = expansion(SQUARE, ONE2)
    assert "complete=True" in repr(res)
    assert isinstance(res, ExpansionResult)


TRIDIAGONAL3 = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_face_operators_built_once_per_polytope_and_inner_product(monkeypatch):
    cube = build_polytope(CUBE.vertices)
    phi = MultiPoly.variable(3, 0) ** 3
    tcones = _count_calls(monkeypatch, engine, "transverse_cone")
    operators = _count_calls(monkeypatch, engine, "_cone_operator")
    # every face has its transverse cone taken, and half of them, the
    # antipodes of faces met earlier, take the negated cone's operator
    for qmat, cones, built in ((None, 26, 13), (None, 0, 0),
                               (TRIDIAGONAL3, 26, 13), (TRIDIAGONAL3, 0, 0)):
        tcones.clear()
        operators.clear()
        expansion(cube, phi, qmat=qmat)
        assert (len(tcones), len(operators)) == (cones, built)


def test_expansion_takes_each_transverse_cone_from_the_public_function(monkeypatch):
    # the engine calls geometry.transverse_cone by its public name once per
    # proper face, the 8 of the square, so a tracer that rebinds the public
    # functions sees every transverse cone; the polytope keeps the frames
    assert engine.transverse_cone is geometry.transverse_cone
    tcones = _count_calls(monkeypatch, engine, "transverse_cone")
    square = build_polytope(SQUARE.vertices)
    expansion(square, ONE2, qmat=[[2, 1], [1, 2]])
    assert [face for _, face, _ in tcones] == list(square.faces[:-1])
    assert len(tcones) == 8


def test_fresh_expansion_builds_no_order_past_degree_of_phi(monkeypatch):
    # D_n of a codimension-c face has order n - c, so a constant phi needs
    # only D_c of each face; the higher entries are recorded as 0
    cube = build_polytope(CUBE.vertices)
    orders = _count_calls(monkeypatch, subdivide, "_bv_sym")
    res = expansion(cube, ONE3)
    assert orders and all(n == cell.dim for cell, _, n in orders)
    assert sorted(res.per_face) == sorted(
        (n, f.index) for f in cube.faces
        for n in range(cube.dim - f.dim, res.n_max + 1)
        if f.dim < cube.dim or n == 0
    )
    assert all(
        value == 0 for (n, i), value in res.per_face.items()
        if n > cube.dim - cube.faces[i].dim
    )
    assert res.coefficients == (F(1), F(3), F(3), F(1))


def test_fresh_expansion_lifts_no_vertex_operator(monkeypatch):
    # cone_operator composes each cell's symbol straight to the lifted
    # generators, so the engine composes no symbol for any face: not for
    # a vertex, whose basis is the identity, nor for an edge or a facet
    lifted = []
    real = MultiPoly.compose

    def compose(self, images):
        if sys._getframe(1).f_globals["__name__"] == engine.__name__:
            lifted.append(len(images))
        return real(self, images)

    monkeypatch.setattr(MultiPoly, "compose", compose)
    simplex = build_polytope(PER_FACE_CORPUS["simplex3"])
    res = expansion(simplex, MultiPoly.variable(3, 0) * MultiPoly.variable(3, 2))
    assert lifted == [] and any(res.per_face.values())


def test_repeat_expansion_hashes_inner_product_once(monkeypatch):
    # the kept operators are looked up by (Q, strategy) once per call and
    # then by face index, so Q's entries are hashed once, not per face
    cube = build_polytope(CUBE.vertices)
    expansion(cube, ONE3, qmat=TRIDIAGONAL3)
    hashes = _count_calls(monkeypatch, F, "__hash__")
    expansion(cube, ONE3, qmat=TRIDIAGONAL3)
    assert len(hashes) == 9


def test_expansion_of_delzant_polytope_skips_delzant_test(monkeypatch):
    calls = _count_calls(monkeypatch, engine, "is_delzant")
    expansion(build_polytope(CUBE.vertices), ONE3)
    assert calls == []


def test_fresh_expansion_tests_delzant_once(monkeypatch):
    # 18 of the octahedron's 26 transverse cones are not unimodular
    calls = _count_calls(monkeypatch, engine, "is_delzant")
    res = expansion(build_polytope(OCTAHEDRON.vertices), ONE3)
    assert res.valuation_used and len(calls) == 1


def test_expansion_checks_q_once_for_the_cone_operators(monkeypatch):
    # the polytope keeps the Q that transverse_cone checked on the first of
    # the octahedron's 26 faces, and the other 25 take it without a check
    checks = [_count_calls(monkeypatch, module, "inner_product_matrix")
              for module in (engine, geometry, subdivide)]
    expansion(build_polytope(OCTAHEDRON.vertices), ONE3, qmat=TRIDIAGONAL3)
    assert [len(c) for c in checks] == [1, 1, 0]


def test_fresh_expansion_builds_one_cell_symbol_per_gram_class(monkeypatch):
    # under the identity Q every transverse cone of the cube is an orthant
    # with Gram matrix I_c, c = 1, 2, 3: 26 faces, 3 classes
    built = built_cell_symbols(monkeypatch)
    phi = MultiPoly.variable(3, 0) ** 2 + MultiPoly.variable(3, 1)
    expansion(build_polytope(CUBE.vertices), phi)
    assert sorted(built) == sorted(
        (tuple(tuple(int(i == j) for j in range(c)) for i in range(c)), n)
        for c in (1, 2, 3) for n in range(c, c + 3)
    )


def test_fresh_expansion_builds_one_weight_plan_per_order_and_cell_dimension(monkeypatch):
    # the weights of D_n over its peeling operators depend on n and the
    # cell's labels alone, so one plan per (n, cell dimension) serves every
    # Gram class of the call; the cells of a lattice image of the
    # octahedron fall into many classes
    plans, real = [], conecalc._bv_plan
    monkeypatch.setattr(conecalc, "_bv_plan", lambda out, n: plans.append((n, len(out))) or real(out, n))
    built = built_cell_symbols(monkeypatch)
    mat = unimodular_matrix(random.Random(3), 3)
    image = [tuple(sum(a * x for a, x in zip(row, v)) for row in mat) for v in OCTAHEDRON.vertices]
    phi = MultiPoly.variable(3, 0) ** 2 + MultiPoly.variable(3, 1)
    expansion(build_polytope(image), phi)
    assert len(plans) == len(set(plans))
    assert len(built) > 3 * len(plans), (len(built), sorted(plans))


def test_kept_operators_match_fresh_polytope_under_every_key(monkeypatch):
    phi = MultiPoly.variable(3, 0) ** 2 * MultiPoly.variable(3, 1)
    keys = [(q, s) for q in (None, TRIDIAGONAL3)
            for s in ("default", "alternate")]
    fresh = [
        expansion(build_polytope(OCTAHEDRON.vertices), phi, qmat=q, strategy=s)
        for q, s in keys
    ]
    kept = build_polytope(OCTAHEDRON.vertices)
    operators = _count_calls(monkeypatch, engine, "_cone_operator")
    seen = set()
    for i in (0, 3, 1, 2, 3, 0, 2, 1):
        q, s = keys[i]
        operators.clear()
        res = expansion(kept, phi, qmat=q, strategy=s)
        assert len(operators) == (0 if i in seen else 13)
        seen.add(i)
        assert res.coefficients == fresh[i].coefficients
        assert res.per_face == fresh[i].per_face


def check_kept_operators_are_fresh(points, qmat, strategy):
    """Every operator that expansion keeps for the hull of the points,
    built or taken from an antipodal face, equals a fresh `_cone_operator`
    on the face's own transverse cone, at even and odd orders."""
    poly = build_polytope(points)
    m = poly.ambient_dim
    expansion(poly, MultiPoly.monomial((2,) + (0,) * (m - 1)) + 1, qmat=qmat, strategy=strategy)
    [kept] = poly.face_operators.values()
    assert sorted(kept) == [f.index for f in poly.faces if f.dim < poly.dim]
    for face in (f for f in poly.faces if f.dim < poly.dim):
        tcone = geometry.transverse_cone(poly, face, qmat)
        fresh = subdivide._cone_operator(list(tcone.gens), tcone.dim, tcone.qmat, tcone.basis, strategy, {})
        assert kept[face.index].unimodular == fresh.unimodular
        codim = poly.dim - face.dim
        for n in range(codim, codim + 3):
            assert kept[face.index](n) == fresh(n)


def _tridiagonal(m):
    return [[2 if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)]


@st.composite
def symmetric_images(draw):
    """A GL_m(Z) image of [-1,1]^m or of the m-dimensional cross-polytope,
    moved by an integer vector, m = 2..4, with an inner product and a
    strategy."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        points = list(itertools.product((-1, 1), repeat=m))
    else:
        points = [tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)]
    u = unimodular_matrix(random.Random(draw(st.integers(0, 10**6))), m)
    t = draw(st.tuples(*[st.integers(-3, 3)] * m))
    image = [tuple(sum(a * c for a, c in zip(row, p)) + s for row, s in zip(u, t)) for p in points]
    qmat = draw(st.sampled_from([None, _tridiagonal(m)]))
    return image, qmat, draw(st.sampled_from(["default", "alternate"]))


@settings(max_examples=12, deadline=None)
@given(symmetric_images())
def test_kept_operators_equal_fresh_ones_on_symmetric_images(case):
    check_kept_operators_are_fresh(*case)


PRISM = [(x, y, z) for x, y in ((0, 0), (2, 0), (0, 1)) for z in (0, 1)]


@pytest.mark.parametrize("qmat", [None, TRIDIAGONAL3])
@pytest.mark.parametrize("strategy", ["default", "alternate"])
def test_kept_operators_equal_fresh_ones_on_a_prism(qmat, strategy):
    check_kept_operators_are_fresh(PRISM, qmat, strategy)


@pytest.mark.parametrize("qmat", [None, TRIDIAGONAL3])
def test_only_antipodal_faces_share_operators(monkeypatch, qmat):
    # a simplex has no two faces with opposite transverse cones, so it
    # builds the operator of each of its 14 proper faces; of the prism's
    # 20, only the second of its two parallel triangles takes the first's
    operators = _count_calls(monkeypatch, engine, "_cone_operator")
    for points, built in ((PER_FACE_CORPUS["simplex3"], 14), (PRISM, 19)):
        operators.clear()
        expansion(build_polytope(points), ONE3, qmat=qmat)
        assert len(operators) == built


@pytest.mark.parametrize("m, seed", [(3, 3), (3, 5), (4, 0), (4, 3), (4, 4), (4, 5)])
@pytest.mark.parametrize("tridiagonal", [False, True])
def test_antipodal_faces_of_cross_polytope_images_share_operators(monkeypatch, m, seed, tridiagonal):
    # antipodal faces are parallel, so they share one lattice frame and
    # their transverse cones are negatives of each other in the same R, G
    # and B: every proper face but the first of its pair takes the other's
    # operator, on these images too, where one Smith form per face gave the
    # two faces different bases of the same quotient lattice
    u = unimodular_matrix(random.Random(seed), m)
    image = build_polytope([
        tuple(s * row[i] for row in u) for i in range(m) for s in (1, -1)
    ])
    operators = _count_calls(monkeypatch, engine, "_cone_operator")
    expansion(image, MultiPoly.const(m, F(1)), qmat=_tridiagonal(m) if tridiagonal else None)
    assert len(operators) == (len(image.faces) - 1) // 2


@pytest.mark.parametrize(
    "poly, qmat",
    [
        (CUBE, None),
        (SQUARE, [[2, 1], [1, 3]]),
        (TRIANGLE_NON_DELZANT, None),
    ],
    ids=["cube", "square-skew-q", "non-delzant-triangle"],
)
def test_expansion_runs_no_linear_program(monkeypatch, poly, qmat):
    # transverse cones come from a Smith normal form, and simplicial
    # cones skip the facet enumeration that pointedness and extreme rays
    # need; a fresh polytope, because operators kept on a shared one
    # would build nothing
    calls = _count_calls(monkeypatch, subdivide, "_cone_facets")
    fresh = build_polytope(poly.vertices)
    expansion(fresh, MultiPoly.const(poly.ambient_dim, F(1)), qmat=qmat)
    assert calls == []


# The totals A_n do not depend on Q, so a transverse cone realized with a
# wrong induced inner product can still pass every test of totals.  This
# digest pins every per-face value of the criterion-5 Delzant corpus, the
# octahedron and the non-Delzant triangle under two inner products, two
# polynomials and (on the two non-Delzant polytopes) both strategies.
PER_FACE_CORPUS = {
    "interval": [(0,), (1,)],
    "square": SQUARE.vertices,
    "simplex2": SIMPLEX2.vertices,
    "trapezoid": TRAPEZOID.vertices,
    "cube": CUBE.vertices,
    "simplex3": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "prism": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1),
              (0, 1, 1)],
    "octahedron": OCTAHEDRON.vertices,
    "triangle": TRIANGLE_NON_DELZANT.vertices,
}
PER_FACE_SHA256 = (
    "fdbc3e67f2cde882b01b09324af5b95a23c1df2829771271b6d232bfc1e1cadb"
)


def test_per_face_values_match_pinned_digest():
    lines = []
    for name, vertices in PER_FACE_CORPUS.items():
        poly = build_polytope(vertices)
        m = poly.ambient_dim
        skew = [[2 if i == j else int(abs(i - j) == 1) for j in range(m)]
                for i in range(m)]
        phis = {
            "1": MultiPoly.const(m, F(1)),
            "x0*x_last": MultiPoly.variable(m, 0) * MultiPoly.variable(m, m - 1),
        }
        strategies = (
            ("default",) if geometry.is_delzant(poly) else subdivide.STRATEGIES
        )
        for qname, qmat in (("I", None), ("tridiagonal", skew)):
            for strategy in strategies:
                for phiname, phi in phis.items():
                    res = expansion(poly, phi, qmat=qmat, strategy=strategy)
                    lines += [
                        f"{name} {qname} {strategy} {phiname} {n} "
                        f"{poly.faces[i].vertex_ids} {value}"
                        for (n, i), value in res.per_face.items()
                    ]
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == PER_FACE_SHA256


def _mixed_phi(m: int) -> MultiPoly:
    x = [MultiPoly.variable(m, i) for i in range(m)]
    return F(-3, 2) * x[0] ** 2 * x[-1] + F(5, 7) * x[1] - x[0] + F(1, 3)


@pytest.mark.parametrize("strategy", subdivide.STRATEGIES)
@pytest.mark.parametrize(
    "vertices", [OCTAHEDRON.vertices, CUBE.vertices], ids=["octahedron", "cube"]
)
def test_per_face_values_equal_integrals_of_applied_operators(vertices, strategy):
    # reading int_F D_n phi off the moment table gives the integral of the
    # polynomial D_n phi, face by face and order by order
    poly = build_polytope(vertices)
    phi = _mixed_phi(3)
    res = expansion(poly, phi, qmat=TRIDIAGONAL3, strategy=strategy)
    assert len(res.per_face) == 1 + sum(
        res.n_max + 1 - (poly.dim - f.dim) for f in poly.faces[:-1]
    )
    operators = poly.face_operators[(res.qmat, strategy)]
    for (n, i), value in res.per_face.items():
        face = poly.faces[i]
        if face.dim == poly.dim:
            integrand = phi
        else:
            integrand = operators[i](n).apply(phi)
        assert value == integrate_poly_over_face(poly, face, integrand)


def test_repeat_expansion_composes_no_polynomial(monkeypatch):
    # operators and face moments live on the polytope, so asking again,
    # or for a multiple of phi, needs no moment that is not in the table
    octahedron = build_polytope(OCTAHEDRON.vertices)
    phi = _mixed_phi(3)
    composes = _count_calls(monkeypatch, MultiPoly, "compose")
    applies = _count_calls(monkeypatch, DiffOp, "apply")
    symbols = _count_calls(monkeypatch, subdivide, "_to_ambient")
    first = expansion(octahedron, phi, qmat=TRIDIAGONAL3)
    assert symbols and not composes and not applies
    for again in (phi, phi * F(-2, 9)):
        composes.clear()
        res = expansion(octahedron, again, qmat=TRIDIAGONAL3)
        assert composes == [] and applies == []
    assert res.coefficients == tuple(c * F(-2, 9) for c in first.coefficients)


FACE_OPERATOR_INVARIANT_SCRIPT = """
import sys
from emsum import engine
from emsum.exactcore import MultiPoly
from emsum.geometry import build_polytope

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
real = engine._cone_operator


def reported_non_unimodular(*args, **kwargs):
    ops = real(*args, **kwargs)
    ops.unimodular = False
    return ops


engine._cone_operator = reported_non_unimodular
square = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
# the second call must not reuse an operator kept by the first
for _ in range(2):
    try:
        engine.expansion(square, MultiPoly.const(2, 1))
    except AssertionError as exc:
        print(exc)
"""


def test_face_operator_invariant_fires_under_optimize():
    proc = run_optimized(FACE_OPERATOR_INVARIANT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["Delzant transverse cones must be unimodular"] * 2 + [""]


def check_metamorphic_relations(points, phi, t, u, k):
    """The relations that need no oracle, for the full-dimensional hull P of
    the points, integer t, U in GL_m(Z) and k >= 1:
    A_n(P + t; phi(x - t)) = A_n(UP; phi(U^-1 x)) = A_n(P; phi) and
    A_n(kP; phi(x / k)) = k^(dim P - n) A_n(P; phi)."""
    m = len(points[0])
    base = expansion(build_polytope(points), phi).coefficients
    x = [MultiPoly.variable(m, i) for i in range(m)]
    moved = build_polytope([tuple(map(sum, zip(p, t))) for p in points])
    assert expansion(moved, phi.compose([xi - ti for xi, ti in zip(x, t)])).coefficients == base
    image = build_polytope([tuple(sum(a * c for a, c in zip(row, p)) for row in u) for p in points])
    pulled = phi.compose([MultiPoly.linear_form(row) for row in matrix_inverse(u)])
    assert expansion(image, pulled).coefficients == base
    dilated = build_polytope([tuple(k * c for c in p) for p in points])
    scaled = expansion(dilated, phi.compose([xi * F(1, k) for xi in x])).coefficients
    assert scaled == tuple(F(k) ** (m - n) * a for n, a in enumerate(base))


@st.composite
def metamorphic_cases(draw):
    """A 2-3D hull, Delzant or not, a polynomial of degree at most 2, a
    translation, a unimodular map and a dilation factor."""
    m = draw(st.integers(2, 3))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1, max_size=m + 3))
    try:
        build_polytope(points)
    except ValueError:
        assume(False)
    exps = st.tuples(*[st.integers(0, 2)] * m).filter(lambda e: sum(e) <= 2)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    t = draw(st.tuples(*[st.integers(-3, 3)] * m))
    u = unimodular_matrix(random.Random(draw(st.integers(0, 10**6))), m)
    return points, MultiPoly(m, terms), t, u, draw(st.sampled_from([2, 3]))


@settings(max_examples=15, deadline=None)
@given(metamorphic_cases())
def test_metamorphic_relations_on_random_hulls(case):
    check_metamorphic_relations(*case)


def test_metamorphic_relations_on_a_cross_polytope_image():
    # the 4D cross-polytope's vertex cones are not unimodular, so every
    # relation runs through the signed decompositions
    u = [[1, 1, 0, 0], [0, 1, 0, 2], [1, 1, 1, 0], [0, 0, 1, 1]]
    cross = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    image = [tuple(sum(a * x for a, x in zip(row, p)) for row in u) for p in cross]
    phi = MultiPoly.monomial((1, 0, 0, 1)) + 1
    check_metamorphic_relations(image, phi, (1, -2, 0, 3), unimodular_matrix(random.Random(7), 4), 2)


@st.composite
def face_integrals(draw):
    """A face of a random 2-4D hull, a homogeneous symbol of order k and a
    phi of low degree, so that most (beta, alpha) pairs fail beta <= alpha."""
    m = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1, max_size=m + 3))
    try:
        poly = build_polytope(points)
    except ValueError:
        assume(False)
    k = draw(st.integers(0, 3))
    beta = st.lists(st.integers(0, m - 1), min_size=k, max_size=k).map(
        lambda axes: tuple(axes.count(i) for i in range(m))
    )
    alpha = st.tuples(*[st.integers(0, 2)] * m)
    coeff = st.integers(-3, 3).filter(bool)
    symbol = draw(st.dictionaries(beta, coeff, min_size=1, max_size=4))
    phi = draw(st.dictionaries(alpha, coeff, min_size=1, max_size=5))
    face = draw(st.sampled_from(poly.faces))
    return poly, face, k, MultiPoly(m, symbol), MultiPoly(m, phi)


@settings(max_examples=40, deadline=None)
@given(face_integrals())
def test_operator_integral_equals_the_integral_of_the_applied_operator(case):
    poly, face, k, symbol, phi = case
    applied = DiffOp(poly.ambient_dim, k, symbol).apply(phi)
    assert engine._integrate_operator(poly, face, symbol, phi) == (
        integrate_poly_over_face(poly, face, applied)
    )


ORDER_CALLS = {
    "expansion": lambda n: expansion(SIMPLEX2, ONE2, n_max=n),
    "riemann_sum": lambda n: riemann_sum(SIMPLEX2, ONE2, n),
    "a_coefficients": lambda n: coefficients_from_oracle(SIMPLEX2, ONE2, n_max=n),
    "cone_operator": lambda n: subdivide.cone_operator([(1, 0), (0, 1)])(n),
}


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("call", ORDER_CALLS.values(), ids=ORDER_CALLS)
def test_orders_and_dilation_factors_must_be_integers(call, value):
    call(2)
    with pytest.raises(ValueError, match="integer"):
        call(value)


@pytest.mark.parametrize("value", [2.0, True], ids=repr)
@pytest.mark.parametrize("call, message", [
    (lambda n: expansion(SIMPLEX2, ONE2).coefficient(n), "order must be non-negative"),
    (lambda n: closed_form_2d(SQUARE, ONE2, n), "order two and higher"),
], ids=["coefficient", "closed_form_2d"])
def test_read_off_orders_must_be_integers(call, message, value):
    # True would read A_1 and 2.0 would index the coefficients with a float
    call(2)
    with pytest.raises(ValueError, match=message):
        call(value)
