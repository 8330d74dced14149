"""Tests for the exact arithmetic substrate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsum import exactcore
from emsum.conecalc import DiffOp
from emsum.exactcore import (
    CycloElem,
    MultiPoly,
    _series_inverse,
    as_matrix,
    as_vector,
    cyclotomic_polynomial,
    identity_matrix,
    is_spd,
    mat_mul,
    mat_vec,
    matrix_inverse,
    matrix_rank,
    nullspace_basis,
    orth_project,
    primitive_vector,
    rref,
    saturation_basis,
    series_coeffs_todd,
    series_coeffs_twisted_todd,
    smith_normal_form,
    solve_unique,
    transpose,
)
from emsum.engine import expansion
from emsum.geometry import build_polytope
from emsum.oracle import coefficients_from_oracle
from emsum.subdivide import cone_operator, triangulate_cone

from _helpers import fraction_det, fraction_rref

F = Fraction


def frac_vec(v):
    return tuple(Fraction(x) for x in v)


# ---------------------------------------------------------------------------
# linear algebra


def test_solve_and_inverse_roundtrip():
    a = as_matrix([[2, 1], [1, 3]])
    x = solve_unique(a, as_vector([5, 5]))
    assert x == (F(2), F(1))
    inv = matrix_inverse(a)
    assert mat_mul(a, inv) == identity_matrix(2)


def test_nullspace():
    ns = nullspace_basis(as_matrix([[1, 1, 0], [0, 0, 1]]))
    assert ns == [(F(-1), F(1), F(0))]


RATIONAL = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
)


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 6 x 8 (tall, square or wide), built as a
    product of an n x r and an r x m factor so that rank deficiency is
    common, with some rows zeroed and entries as int, Fraction or str."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(RATIONAL) for _ in range(r)] for _ in range(nrows)]
    right = [[draw(RATIONAL) for _ in range(ncols)] for _ in range(r)]
    zero = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    as_str = draw(st.booleans())
    mat = []
    for i, row in enumerate(left):
        entries = [0 if i in zero else sum(a * b[j] for a, b in zip(row, right))
                   for j in range(ncols)]
        mat.append([str(x) if as_str else x for x in entries])
    return mat


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_linear_algebra_matches_fraction_rref_reference(mat):
    # the fraction-free elimination behind rref, rank, solve, inverse and
    # kernel gives exactly what Gauss-Jordan in Fractions gives
    reduced, pivots = fraction_rref(mat)
    rows, got_pivots = rref(mat)
    assert (rows, got_pivots) == (reduced, pivots)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert matrix_rank(mat) == len(pivots)
    ncols = len(mat[0])
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(int(c == f)) for c in range(ncols)]
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        kernel.append(tuple(v))
    assert nullspace_basis(mat) == kernel
    # the last column as right-hand side of the others
    if ncols > 1:
        lhs, rhs = [row[:-1] for row in mat], [row[-1] for row in mat]
        if ncols - 1 in pivots:
            assert solve_unique(lhs, rhs) is None
        elif len(pivots) != ncols - 1:
            with pytest.raises(ValueError):
                solve_unique(lhs, rhs)
        else:
            assert solve_unique(lhs, rhs) == tuple(reduced[r][-1] for r in range(ncols - 1))
    # the leading square block
    n = min(len(mat), ncols)
    block = [row[:n] for row in mat[:n]]
    aug_rows, aug_pivots = fraction_rref([row + [int(i == j) for j in range(n)]
                                          for i, row in enumerate(block)])
    if aug_pivots == tuple(range(n)):
        assert matrix_inverse(block) == tuple(row[n:] for row in aug_rows)
    else:
        with pytest.raises(ValueError, match="singular"):
            matrix_inverse(block)


@st.composite
def integer_square_matrices(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(integer_square_matrices())
@settings(max_examples=200, deadline=None)
def test_last_pivot_of_a_full_rank_elimination_is_the_determinant(mat):
    # is_delzant reads |det| off the fraction-free elimination
    _, pivots, delta = exactcore._eliminate(mat)
    det = fraction_det(mat)
    assert (len(pivots) == len(mat)) == (det != 0)
    if det:
        assert abs(delta) == abs(det)


def test_det_sign_and_rank():
    assert fraction_det(as_matrix([[0, 1], [1, 0]])) == -1
    assert matrix_rank(as_matrix([[1, 2], [2, 4]])) == 1


def test_linear_algebra_is_exact_on_int_input():
    # plain int entries must not fall back to float division
    big = 10 ** 17
    assert matrix_rank([[1, big], [1, big + 1]]) == 2
    assert matrix_rank([[big, big + 1], [big + 1, big + 2]]) == 2
    d = fraction_det([[2, 1], [1, 3]])
    assert d == 5 and type(d) is F
    assert fraction_det([[big, big + 1], [big + 1, big + 2]]) == -1
    x = solve_unique([[2, 1], [1, 3]], [1, 0])
    assert x == (F(3, 5), F(-1, 5)) and all(type(c) is F for c in x)
    inv = matrix_inverse([[big, big + 1], [big + 1, big + 2]])
    assert inv == ((-(big + 2), big + 1), (big + 1, -big))
    assert all(type(c) is F for row in inv for c in row)



def test_is_spd_matches_leading_minors():
    rng = random.Random(7)
    seen = set()
    for trial in range(200):
        k = rng.randint(1, 4)
        a = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]
        if trial % 2:
            sym = [[a[i][j] + a[j][i] for j in range(k)] for i in range(k)]
        else:  # a^T a: semidefinite, definite when a is invertible
            sym = [[sum(a[r][i] * a[r][j] for r in range(k)) for j in range(k)] for i in range(k)]
        expected = all(fraction_det([row[:p] for row in sym[:p]]) > 0 for p in range(1, k + 1))
        assert is_spd(sym) == expected
        seen.add(expected)
    assert seen == {True, False}
    assert is_spd([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)]])
    assert not is_spd([[1, 2], [0, 1]])
    assert not is_spd([[1, 1], [1, 1]])
    assert not is_spd([[1, 0, 0], [0, 1, 0]])

# ---------------------------------------------------------------------------
# Smith normal form and saturated lattice bases


def test_hnf_rank_deficient():
    assert saturation_basis([(2, 0)]) == [(1, 0)]


def test_saturation_basis_rejects_a_transform_that_is_not_unimodular(monkeypatch):
    real = exactcore.smith_normal_form

    def doubled(mat):
        u, d, v = real(mat)
        return ((2 * u[0][0],) + u[0][1:],) + u[1:], d, v

    monkeypatch.setattr(exactcore, "smith_normal_form", doubled)
    with pytest.raises(AssertionError, match="U is unimodular"):
        saturation_basis([(1, 1, 0)])


def test_saturation_basis_rejects_empty():
    with pytest.raises(ValueError, match="empty generating set"):
        saturation_basis([])
    with pytest.raises(ValueError, match="empty generating set"):
        saturation_basis([(0, 0)])


@pytest.mark.parametrize(
    "function, what",
    [
        (build_polytope, "polytope vertices"),
        (triangulate_cone, "generators"),
        (cone_operator, "generators"),
        (saturation_basis, "lattice generators"),
    ],
    ids=["build_polytope", "triangulate_cone", "cone_operator", "saturation_basis"],
)
def test_integer_vector_input_is_checked_by_one_validator(function, what):
    # every list of lattice vectors goes through exactcore._integer_vectors
    with pytest.raises(ValueError, match=f"^{what} must have integer entries$"):
        function([(0, 0), (1, 0), (Fraction(1, 2), 1)])
    with pytest.raises(ValueError, match=f"^{what} must all have the same length$"):
        function([(0, 0), (1, 0), (0, 1, 0)])


def test_smith_transforms_are_unimodular():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = smith_normal_form(mat)
    assert abs(fraction_det(u)) == 1
    assert abs(fraction_det(v)) == 1
    prod = mat_mul(mat_mul(as_matrix(u), as_matrix(mat)), as_matrix(v))
    assert prod == as_matrix(d)
    diag = [d[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for i in range(2):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0


def _generating_sets(bound, m):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound)] * m), min_size=1, max_size=4
    ).filter(lambda gs: any(any(g) for g in gs))


@given(st.one_of(_generating_sets(5, 3), _generating_sets(3, 4)))
@settings(max_examples=60, deadline=None)
def test_saturation_basis_is_a_basis_of_the_saturated_span(gens):
    basis = saturation_basis(gens)
    rank = matrix_rank(as_matrix(gens))
    assert len(basis) == rank
    assert all(type(x) is int for b in basis for x in b)
    # the same rational span, checked both ways
    assert all(matrix_rank(as_matrix(list(gens) + [b])) == rank for b in basis)
    assert all(matrix_rank(as_matrix(basis + [g])) == rank for g in gens)
    # and saturated: the basis columns have all Smith invariants 1
    _, d, _ = smith_normal_form(transpose(basis))
    assert [d[i][i] for i in range(rank)] == [1] * rank


def test_primitive_vector():
    assert primitive_vector((F(-2), F(4))) == (-1, 2)
    assert primitive_vector((F(1, 2), F(1, 2))) == (1, 1)


@pytest.mark.parametrize(
    "vec, expected",
    [
        ([2, F(-4, 3), "6/5", 0], (15, -10, 9, 0)),
        (["-3/4", 9, F(3, 2)], (-1, 12, 2)),
        ([0, "0/7", F(-5)], (0, 0, -1)),
        ([F(10**20, 3), 2 * 10**20], (1, 6)),
    ],
)
def test_primitive_vector_of_mixed_entries_is_python_ints(vec, expected):
    out = primitive_vector(vec)
    assert out == expected and all(type(x) is int for x in out)


def test_primitive_vector_rejects_zero_and_non_rationals():
    for zero in ([0, F(0), "0"], []):
        with pytest.raises(
            ValueError, match="zero vector has no primitive representative"
        ):
            primitive_vector(zero)
    with pytest.raises(TypeError, match="booleans"):
        primitive_vector([True, 1])
    with pytest.raises(TypeError, match="float"):
        primitive_vector([1.5, 1])


# ---------------------------------------------------------------------------
# orthogonal projections


def test_orth_project_diagonal_example():
    proj = orth_project(identity_matrix(2), [as_vector([1, 1])])
    assert proj == as_matrix([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])


def test_orth_project_empty_basis_is_identity():
    assert orth_project(identity_matrix(3), []) == identity_matrix(3)


def test_orth_project_requires_spd():
    with pytest.raises(ValueError, match="positive definite"):
        orth_project(as_matrix([[1, 2], [2, 1]]), [as_vector([1, 0])])


def test_orth_project_requires_independent_basis():
    with pytest.raises(ValueError, match="independent"):
        orth_project(identity_matrix(2), [as_vector([1, 1]), as_vector([2, 2])])


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
             min_size=0, max_size=2),
    st.sampled_from(["id", "skew"]),
)
@settings(max_examples=40, deadline=None)
def test_orth_project_idempotent_and_q_selfadjoint(basis, which):
    basis = [frac_vec(b) for b in basis]
    if matrix_rank(basis) != len(basis):
        return
    qmat = (
        identity_matrix(3)
        if which == "id"
        else as_matrix([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
    )
    proj = orth_project(qmat, basis)
    assert mat_mul(proj, proj) == proj
    # Q-self-adjointness: Q P = P^T Q
    assert mat_mul(qmat, proj) == mat_mul(transpose(proj), qmat)
    # kernel contains the subspace, image is Q-orthogonal to it
    for b in basis:
        assert all(x == 0 for x in mat_vec(proj, b))


# ---------------------------------------------------------------------------
# Todd series


def test_todd_coefficients():
    b = series_coeffs_todd(8)
    assert b[:5] == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]
    assert b[5] == 0 and b[7] == 0
    # classical Bernoulli numbers via B_n = (-1)^{n-1} b_{2n}
    assert -b[4] == F(1, 30)
    assert b[6] == F(1, 42)


def test_twisted_todd_q2():
    b = series_coeffs_twisted_todd(2, CycloElem.omega(2), 4)
    assert b[0].as_rational() == F(1, 2)
    assert b[1].as_rational() == F(1, 4)


def test_twisted_todd_first_coefficient_any_q():
    for q in (2, 3, 4, 6):
        omega = CycloElem.omega(q)
        b = series_coeffs_twisted_todd(q, omega, 3)
        assert b[0] == (CycloElem.one(q) - omega).inverse()


def test_twisted_todd_truncation_stable():
    omega = CycloElem.omega(3)
    short = series_coeffs_twisted_todd(3, omega, 4)
    long = series_coeffs_twisted_todd(3, omega, 8)
    assert short == long[:4]


def test_twisted_todd_rejects_pole():
    with pytest.raises(ValueError, match="omega = 1"):
        series_coeffs_twisted_todd(3, CycloElem.one(3), 4)


def test_twisted_todd_rejects_non_primitive():
    omega4 = CycloElem.omega(4)
    # omega4^2 = -1 has order 2, not 4
    with pytest.raises(ValueError, match="primitive"):
        series_coeffs_twisted_todd(4, omega4 * omega4, 4)


# ---------------------------------------------------------------------------
# cyclotomic field


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert cyclotomic_polynomial(12) == (F(1), F(0), F(-1), F(0), F(1))
    # Phi_q times the lower cyclotomic polynomials Phi_d, d | q, is x^q - 1
    for q in range(1, 13):
        product = MultiPoly.const(1, 1)
        for d in range(1, q + 1):
            if q % d == 0:
                phi = cyclotomic_polynomial(d)
                product = product * MultiPoly(1, {(i,): c for i, c in enumerate(phi)})
        assert product == MultiPoly(1, {(q,): 1, (0,): -1})


@st.composite
def cyclo_units(draw):
    q = draw(st.integers(2, 12))
    deg = len(cyclotomic_polynomial(q)) - 1
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    coeffs = draw(st.lists(entries, min_size=deg, max_size=deg).filter(any))
    return CycloElem(q, coeffs)


@given(cyclo_units(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_cyclo_inverse_and_negative_powers(a, k):
    one = CycloElem.one(a.order)
    assert a * a.inverse() == one
    assert a ** -k == (a ** k).inverse()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 12])
def test_omega_is_primitive_and_inverts(q):
    omega = CycloElem.omega(q)
    assert omega.is_primitive_root()
    assert omega ** q == CycloElem.one(q)
    assert omega * omega.inverse() == CycloElem.one(q)
    x = omega + CycloElem.from_rational(q, F(3, 7))
    assert x * x.inverse() == CycloElem.one(q)
    assert (CycloElem.one(q) / x) * x == CycloElem.one(q)


def test_cyclo_arith_matches_reduction():
    omega = CycloElem.omega(3)
    # 1 + omega + omega^2 = 0 for the primitive cube root
    assert CycloElem.one(3) + omega + omega ** 2 == CycloElem.zero(3)


# ---------------------------------------------------------------------------
# power series


def test_series_inverse_roundtrip():
    # over Q and over Q(omega), q = 5
    rational = [F(1, k + 1) for k in range(6)]
    omega = CycloElem.omega(5)
    for s in (rational, [omega ** k + c for k, c in enumerate(rational)]):
        inv = _series_inverse(s)
        prod = [sum(s[k] * inv[n - k] for k in range(n + 1)) for n in range(6)]
        assert prod[0] == 1
        assert all(c == 0 for c in prod[1:])


# ---------------------------------------------------------------------------
# polynomials


def test_mpoly_basic_arith():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) ** 2
    assert p.coefficient((1, 1)) == 2
    assert p.eval((F(1), F(2))) == 9
    assert p.degree() == 2


@pytest.mark.parametrize("n", range(7))
def test_power_agrees_with_repeated_products(n):
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    omega = CycloElem.omega(5)
    for base, one in (
        (x + 2 * y - F(1, 3), MultiPoly.const(2, 1)),
        (omega + F(3, 7), CycloElem.one(5)),
    ):
        product = one
        for _ in range(n):
            product = product * base
        assert exactcore._power(base, n, one) == product
        assert base ** n == product


@pytest.mark.parametrize("n", [True, 2.0, 1.5, "2", F(2)])
@pytest.mark.parametrize("base", [MultiPoly.variable(1, 0), CycloElem.omega(3)], ids=["mpoly", "cyclo"])
def test_powers_must_be_integers(base, n):
    # bool, float, str and Fraction exponents all meet the one gate in
    # _power, before either __pow__ reads the sign
    with pytest.raises(ValueError, match="exponent must be an integer"):
        base ** n


def test_negative_powers_keep_their_routes():
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        MultiPoly.const(1, 2) ** -1
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        CycloElem.zero(3) ** -2


@pytest.mark.parametrize("exps", [(1.5, 0), (1.0, 0), (True, 0), ("1", 0), (F(1), 0), (-1, 0)])
def test_mpoly_rejects_exponents_that_are_not_nonnegative_ints(exps):
    with pytest.raises(ValueError, match="exponent tuples"):
        MultiPoly(2, {exps: 1})
    with pytest.raises(ValueError, match="exponent tuples"):
        MultiPoly.monomial(exps)


@pytest.mark.parametrize("i", [5, 2, -1, True, 1.0])
def test_mpoly_variable_rejects_bad_indices(i):
    with pytest.raises(ValueError, match="variable index"):
        MultiPoly.variable(2, i)


@pytest.mark.parametrize("nvars", [2.0, -1, True, "2", F(2)])
def test_mpoly_rejects_nvars_that_is_not_a_nonnegative_int(nvars):
    with pytest.raises(ValueError, match="nvars"):
        MultiPoly(nvars, {})


def test_mpoly_eval_keeps_points_exact():
    x = MultiPoly.variable(2, 0)
    with pytest.raises(TypeError):
        x.eval((0.5, 1))
    value = (x ** 2 + 1).eval((1, "1/2"))
    assert value == 2 and type(value) is F
    assert x.eval(("1/3", 0)) == F(1, 3)
    omega = CycloElem.omega(3)
    assert (x ** 3).eval((omega, F(1))) == CycloElem.one(3)


def test_float_coefficients_never_enter_a_polynomial():
    x = MultiPoly.variable(2, 0)
    makers = [
        lambda: MultiPoly(1, {(1,): 0.5}),
        lambda: MultiPoly(2, {(1, 0): 0.1}),
        lambda: MultiPoly.const(2, 0.5),
        lambda: MultiPoly.monomial((1, 0), 0.1),
        lambda: MultiPoly.linear_form([0.1, 0]),
        lambda: x * 0.1,
        lambda: 0.0 * x,
        lambda: x + 0.1,
        lambda: x - 0.1,
        lambda: 0.1 - x,
    ]
    for make in makers:
        with pytest.raises(TypeError):
            make()
    # so a float phi reaches neither the engine nor the oracle
    square = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    for route in (expansion, coefficients_from_oracle):
        with pytest.raises(TypeError):
            route(square, MultiPoly(2, {(1, 0): 0.1}))
    assert MultiPoly(2, {(1, 0): "1/10"}) == F(1, 10) * x


def test_mpoly_compose():
    x = MultiPoly.variable(1, 0)
    p = x ** 2 + 1
    q = p.compose([MultiPoly.linear_form([1, -1])])
    assert q.eval((F(2), F(1))) == 2


def test_mpoly_deriv():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x ** 3 * y
    assert p.deriv((2, 1)) == 6 * x
    assert p.deriv((0, 1)) == x ** 3


def test_apply_diffop():
    # symbol xi_0^2 + 2 acts as d^2/dx0^2 + 2
    op = DiffOp(2, 2, MultiPoly(2, {(2, 0): F(1), (0, 0): F(2)}))
    x = MultiPoly.variable(2, 0)
    phi = x ** 3
    out = op.apply(phi)
    assert out == 6 * x + 2 * x ** 3


def test_apply_diffop_dimension_mismatch():
    op = DiffOp(2, 0, MultiPoly(2, {(0, 0): F(1)}))
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.apply(MultiPoly.variable(3, 0))


EXACT_ENTRY_POINTS = {
    "as_scalar": exactcore.as_scalar,
    "MultiPoly": lambda s: MultiPoly(1, {(0,): s}).coefficient((0,)),
    "MultiPoly.eval": lambda s: MultiPoly.variable(1, 0).eval((s,)),
    "as_vector": lambda s: as_vector([s, 0])[0],
    "inner_product_matrix": lambda s: exactcore.inner_product_matrix([[8, s], [s, 8]], 2)[0][1],
    "CycloElem": lambda s: CycloElem(3, [s, 0]),
    "build_polytope": lambda s: build_polytope([(s, 0), (0, 1), (0, 0)]),
}


@pytest.mark.parametrize("text", ["1e100000", "2E3"])
@pytest.mark.parametrize("make", EXACT_ENTRY_POINTS.values(), ids=EXACT_ENTRY_POINTS)
def test_exponent_strings_are_rejected_where_numbers_enter(make, text):
    # Fraction("1e100000000") would build 10^100000000 before any check
    with pytest.raises(ValueError, match="exponent"):
        make(text)


@pytest.mark.parametrize("text, value", [("3/4", F(3, 4)), ("-0.25", F(-1, 4)), (" 7 ", F(7))])
def test_rational_strings_still_parse_where_numbers_enter(text, value):
    for name in ("as_scalar", "MultiPoly", "MultiPoly.eval", "as_vector", "inner_product_matrix"):
        assert EXACT_ENTRY_POINTS[name](text) == value
    assert EXACT_ENTRY_POINTS["CycloElem"](text) == CycloElem.from_rational(3, value)
    if value.denominator == 1:
        assert (value, 0) in EXACT_ENTRY_POINTS["build_polytope"](text).vertices
    else:
        with pytest.raises(ValueError, match="integer entries"):
            EXACT_ENTRY_POINTS["build_polytope"](text)
