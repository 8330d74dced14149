import hashlib
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import fraction_det, random_spd, unimodular_matrix
from emsum import conecalc
from emsum.combinat import J_mu
from emsum.conecalc import (
    UniCone,
    _schur,
    bv_op_unimodular,
    deco,
    divide_by_linear_form,
    dual_projection,
    ibp_op,
    ibp_symbol,
    ln_op,
    vertex_op,
)
from emsum.exactcore import (
    CycloElem,
    MultiPoly,
    mat_vec,
    matrix_rank,
    orth_project,
    qform,
    series_coeffs_todd,
    series_coeffs_twisted_todd,
    solve_unique,
)

SKEW = UniCone([(1, 0), (1, 1)])
Q3 = ((2, 1, 0), (1, 2, 1), (0, 1, 3))


def lf(coeffs):
    return MultiPoly.linear_form([F(c) for c in coeffs])


def test_cone_validation():
    with pytest.raises(ValueError, match="at least one generator"):
        UniCone([])
    with pytest.raises(ValueError, match="linearly independent"):
        UniCone([(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="linearly independent"):
        UniCone([(0, 0)])
    with pytest.raises(ValueError, match="positive definite"):
        UniCone([(1, 0), (0, 1)], qmat=[[1, 2], [2, 1]])


def test_deco_example():
    d = deco(SKEW, [0])
    assert d.coeff[(0, 1)] == F(1, 2)
    assert d.u[0] == (F(1, 2), F(-1, 2))
    full = deco(SKEW, [0, 1])
    assert full.u[0] == (1, 0) and full.u[1] == (1, 1)
    assert full.coeff == {}


def test_deco_reconstruction_and_orthogonality():
    cones = [
        SKEW,
        UniCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)]),
        UniCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)], qmat=Q3),
        UniCone([(1, 2, 0), (0, 1, 1)], qmat=Q3),
    ]
    for cone in cones:
        labels = list(cone.labels())
        for r in range(1, cone.dim + 1):
            for subset in combinations(labels, r):
                d = deco(cone, subset)
                outside = [v for v in labels if v not in subset]
                for e in subset:
                    rebuilt = d.u[e]
                    for v in outside:
                        rebuilt = tuple(
                            a + d.coeff[(e, v)] * b
                            for a, b in zip(rebuilt, cone.gens[v])
                        )
                    assert rebuilt == cone.gens[e]
                    for v in outside:
                        assert qform(cone.qmat, d.u[e], cone.gens[v]) == 0


def test_ibp_op_whole_frame_is_perpendicular_power():
    for cone in (SKEW, UniCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)], qmat=Q3)):
        d = deco(cone, [0])
        op = ibp_op(cone, [0], [0], {0: 3})
        assert op.symbol == lf(d.u[0]) ** 3
        assert op.order == 3


def test_ibp_op_example_constant():
    op = ibp_op(SKEW, [0], [0, 1], {0: 1})
    assert op.symbol == MultiPoly.const(2, F(1, 2))
    assert op.order == 0


def test_ibp_symbol_example_constant():
    op = ibp_symbol(SKEW, [0], [0, 1], {0: 1})
    assert op.symbol == MultiPoly.const(2, F(1, 2))


def test_symbol_identity_example():
    inner = ibp_op(SKEW, [0], [0], {0: 1}).symbol
    outer = ibp_op(SKEW, [0], [0, 1], {0: 1}).symbol
    assert inner + outer * lf((1, 1)) == lf((1, 0))


def test_divide_by_linear_form():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    prod = (x + y) * (x - y * 2)
    assert divide_by_linear_form(prod, (1, 1)) == x - y * 2
    assert divide_by_linear_form(prod, (1, -2)) == x + y
    assert divide_by_linear_form(MultiPoly.zero(2), (1, 1)).is_zero()
    with pytest.raises(ValueError, match="polynomiality violated"):
        divide_by_linear_form(x, (0, 1))
    with pytest.raises(ValueError, match="zero form"):
        divide_by_linear_form(x, (0, 0))


def test_ibp_argument_validation():
    with pytest.raises(ValueError, match="nonempty"):
        ibp_op(SKEW, [], [0], {})
    with pytest.raises(ValueError, match="contained"):
        ibp_op(SKEW, [0], [1], {0: 1})
    with pytest.raises(ValueError, match="supported"):
        ibp_op(SKEW, [0], [0], {1: 1})
    with pytest.raises(ValueError, match="undefined"):
        ibp_op(SKEW, [0], [0, 1], {0: 0})
    with pytest.raises(ValueError, match="label out of range"):
        ibp_op(SKEW, [0], [0, 5], {0: 1})


@pytest.mark.parametrize("exponent", [1.5, "2", True, -1], ids=["float", "str", "bool", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: ibp_op(SKEW, [0], [0], {0: x}),
        lambda x: ibp_symbol(SKEW, [0], [0], [(0, x)]),
        lambda x: J_mu({0: x}),
    ],
    ids=["ibp_op", "ibp_symbol", "J_mu"],
)
def test_exponents_other_than_non_negative_ints_rejected(call, exponent):
    # an exponent is never coerced: 1.5 is not read as 1, nor "2" as 2
    with pytest.raises(ValueError, match="multi-index entries must be non-negative integers"):
        call(exponent)


@pytest.mark.parametrize("label", [0.7, "1", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: ibp_op(UniCone([(1, 0), (0, 1)]), [x], [0], {0: 1}),
        lambda x: bv_op_unimodular(UniCone([(1, 0), (0, 1)]), [x], 2),
        lambda x: ln_op(UniCone([(1, 0), (0, 1)]), [x], 2),
    ],
    ids=["ibp_op", "bv_op_unimodular", "ln_op"],
)
def test_labels_other_than_ints_rejected(call, label):
    # a label is never coerced: 0.7 is not read as 0, nor "1" or True as 1
    with pytest.raises(ValueError, match="generator labels must be integers"):
        call(label)


@pytest.mark.parametrize("value", [2.0, True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: ln_op(UniCone([(1, 0), (0, 1)]), [0], n),
        lambda n: bv_op_unimodular(UniCone([(1, 0), (0, 1)]), [0], n),
        lambda n: vertex_op(UniCone([(1, 0), (0, 1)]), n),
    ],
    ids=["ln_op", "bv_op_unimodular", "vertex_op"],
)
def test_orders_other_than_ints_rejected(call, value):
    # True would build the order-1 operator and 2.0 would reach range()
    call(2)
    with pytest.raises(ValueError, match="order must be non-negative"):
        call(value)


def _all_ibp_cases(cone, max_alpha):
    labels = list(cone.labels())
    for ri in range(1, cone.dim + 1):
        for inner in combinations(labels, ri):
            rest = [v for v in labels if v not in inner]
            for rj in range(0, len(rest) + 1):
                for extra in combinations(rest, rj):
                    outer = tuple(sorted(inner + extra))
                    for alpha in _alphas(inner, max_alpha):
                        if len(outer) <= sum(alpha.values()) + len(inner):
                            yield inner, outer, alpha


def _alphas(inner, max_total):
    from itertools import product

    for exps in product(range(max_total + 1), repeat=len(inner)):
        if 0 < sum(exps) <= max_total:
            yield {e: v for e, v in zip(inner, exps) if v}


FRAME_CONES = [
    SKEW,
    UniCone([(1, 0), (1, 1)], qmat=[[2, 1], [1, 2]]),
    UniCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)]),
    UniCone([(1, 0, 0), (1, 1, 0), (0, 1, 1)], qmat=Q3),
    UniCone([(1, 2, 0), (0, 1, 1)], qmat=Q3),
    UniCone([(1, 1, 1)]),
]


def test_recursion_matches_symbol_construction():
    for cone in FRAME_CONES:
        for inner, outer, alpha in _all_ibp_cases(cone, 3):
            a = ibp_op(cone, inner, outer, alpha)
            b = ibp_symbol(cone, inner, outer, alpha)
            assert a.symbol == b.symbol, (cone.gens, inner, outer, alpha)


def test_scaled_gram_matrices_share_one_class():
    # the rays (1, 1), (-1, 3) have twice the Gram matrix of (1, 0), (1, 2),
    # so the two cells share one class; the second cell's operators, read
    # from what the first one built, equal the symbol route's, which never
    # reads the integer Gram matrix
    eye = [[1, 0], [0, 1]]
    classes = {}
    first, second = (
        conecalc._Cell(rays, eye, [dict(enumerate(g)) for g in rays], 1, 2, classes)
        for rays in ([(1, 0), (1, 2)], [(1, 1), (-1, 3)])
    )
    assert len(classes) == 1
    cone = UniCone([(1, 1), (-1, 3)])
    cases = [(inner, outer, tuple(sorted(alpha.items())), alpha)
             for inner, outer, alpha in _all_ibp_cases(cone, 3)]
    for inner, outer, key, _ in cases:
        conecalc._ibp_rec(first, inner, outer, key, "min")
    for inner, outer, key, alpha in cases:
        sym = conecalc._to_ambient(second, conecalc._ibp_rec(second, inner, outer, key, "min"))
        assert conecalc._poly(sym, 1, 2) == ibp_symbol(cone, inner, outer, alpha).symbol
    for n in range(2, 6):
        sym = conecalc._to_ambient(second, conecalc._bv_sym(second, (0, 1), n))
        assert conecalc._poly(sym, 1, 2) == vertex_op(cone, n).symbol


def test_branch_rule_independence():
    for cone in FRAME_CONES:
        for inner, outer, alpha in _all_ibp_cases(cone, 3):
            if len(alpha) < 2:
                continue
            a = ibp_op(cone, inner, outer, alpha, pivot_rule="min")
            b = ibp_op(cone, inner, outer, alpha, pivot_rule="max")
            assert a.symbol == b.symbol


def test_symbol_reconstruction_identity():
    # pairing powers decompose through the face operators: for fixed
    # inner set I and alpha, summing symbol * product of pairings over
    # the outer sets recovers the product of generator pairings
    for cone in FRAME_CONES:
        labels = list(cone.labels())
        for ri in range(1, cone.dim + 1):
            for inner in combinations(labels, ri):
                for alpha in _alphas(inner, 3):
                    lhs = MultiPoly.const(cone.ambient_dim, F(1))
                    for e in inner:
                        lhs = lhs * lf(cone.gens[e]) ** alpha.get(e, 0)
                    rhs = MultiPoly.zero(cone.ambient_dim)
                    rest = [v for v in labels if v not in inner]
                    for rj in range(0, len(rest) + 1):
                        for extra in combinations(rest, rj):
                            outer = tuple(sorted(inner + extra))
                            if len(outer) > sum(alpha.values()) + len(inner):
                                continue
                            term = ibp_op(cone, inner, outer, alpha).symbol
                            for e in extra:
                                term = term * lf(cone.gens[e])
                            rhs = rhs + term
                    assert lhs == rhs, (cone.gens, inner, alpha)


def test_order_and_homogeneity():
    for cone in FRAME_CONES:
        for inner, outer, alpha in _all_ibp_cases(cone, 3):
            op = ibp_op(cone, inner, outer, alpha)
            assert op.order == sum(alpha.values()) - len(outer) + len(inner)
            for exps, _ in op.symbol.iter_terms():
                assert sum(exps) == op.order


def test_symbol_invariant_under_dual_projection():
    for cone in FRAME_CONES:
        for inner, outer, alpha in _all_ibp_cases(cone, 2):
            op = ibp_op(cone, inner, outer, alpha)
            phat = dual_projection(cone, outer)
            images = [lf(row) for row in phat]
            assert op.symbol.compose(images) == op.symbol


def test_projected_frame_consistency():
    gens = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    cases = [
        ((0,), {0: 1}),
        ((0,), {0: 2}),
        ((1,), {1: 2}),
        ((0, 1), {0: 1, 1: 1}),
        ((0, 1), {0: 2, 1: 1}),
    ]
    for qmat in (None, Q3):
        cone = UniCone(gens, qmat=qmat)
        proj = orth_project(cone.qmat, [gens[2]])
        quot = UniCone([mat_vec(proj, gens[0]), mat_vec(proj, gens[1])], qmat=qmat)
        for inner, alpha in cases:
            a = ibp_op(cone, inner, (0, 1), alpha)
            b = ibp_op(quot, inner, (0, 1), alpha)
            assert a.symbol == b.symbol


def test_bv_one_dimensional():
    b = series_coeffs_todd(8)
    for cone in (UniCone([(1,)]), UniCone([(1, 1)]), UniCone([(2, 1, 0)], qmat=Q3)):
        u = cone.gens[0]
        for n in range(1, 7):
            op = bv_op_unimodular(cone, [0], n)
            expected = lf(u) ** (n - 1) * (-b[n] / _fact(n))
            assert op.symbol == expected
            assert op.order == n - 1


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_bv_face_cases():
    assert vertex_op(SKEW, 2).order == 0
    face = bv_op_unimodular(SKEW, [], 0)
    assert face.symbol == MultiPoly.const(2, F(1))
    assert bv_op_unimodular(SKEW, [], 3).is_zero
    with pytest.raises(ValueError, match="codimension"):
        bv_op_unimodular(SKEW, [0, 1], 1)
    with pytest.raises(ValueError, match="non-negative"):
        bv_op_unimodular(SKEW, [0], -1)


def test_bv_orthant_values():
    orthant = UniCone([(1, 0), (0, 1)])
    assert vertex_op(orthant, 2).symbol == MultiPoly.const(2, F(1, 4))
    assert vertex_op(orthant, 3).symbol == lf((1, 1)) * F(-1, 24)
    edge = bv_op_unimodular(orthant, [0], 1)
    assert edge.symbol == MultiPoly.const(2, F(1, 2))


def test_bv_skew_vertex_value():
    # two independent hand computations give 3/8 for this cone
    assert vertex_op(SKEW, 2).symbol == MultiPoly.const(2, F(3, 8))


def test_bv_transverse_consistency():
    # the operator at a face equals the vertex operator of the cone
    # projected perpendicular to that face
    gens = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    for qmat in (None, Q3):
        cone = UniCone(gens, qmat=qmat)
        for kept in ((0,), (2,), (0, 2), (1, 2)):
            dropped = [gens[v] for v in range(3) if v not in kept]
            proj = orth_project(cone.qmat, dropped)
            quot = UniCone([mat_vec(proj, gens[v]) for v in kept], qmat=qmat)
            for n in range(len(kept), len(kept) + 3):
                a = bv_op_unimodular(cone, kept, n)
                b = vertex_op(quot, n)
                assert a.symbol == b.symbol


def test_ln_op_values():
    b = series_coeffs_todd(8)
    line = UniCone([(1,)])
    for n in range(1, 7):
        op = ln_op(line, [0], n)
        assert op.symbol == MultiPoly.monomial((n - 1,), b[n] / _fact(n))
    assert ln_op(line, [], 0).symbol == MultiPoly.const(1, F(1))
    assert ln_op(line, [], 2).is_zero
    assert ln_op(line, [0], 0).is_zero
    orthant = UniCone([(1, 0), (0, 1)])
    assert ln_op(orthant, [0, 1], 2).symbol == MultiPoly.const(2, F(1, 4))
    assert ln_op(orthant, [0, 1], 3).symbol == lf((1, 0)) * F(-1, 24) + lf((0, 1)) * F(-1, 24)


def test_diffop_apply():
    orthant = UniCone([(1, 0), (0, 1)])
    op = vertex_op(orthant, 3)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    phi = x * x * y
    assert op.apply(phi) == (x * y * 2 + x * x) * F(-1, 24)


def _random_cell(rng, dim, rational):
    """Generators of a random simplicial cell: the rows of a unimodular
    matrix, each scaled by a random positive rational when `rational`."""
    gens = unimodular_matrix(rng, dim)
    if rational:
        scales = [F(rng.randint(1, 3), rng.randint(1, 5)) for _ in gens]
        gens = [[c * x for x in row] for c, row in zip(scales, gens)]
    return gens


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.booleans(), st.booleans())
def test_random_cones_recursion_matches_symbols(seed, dim, skew_q, rational):
    rng = random.Random(seed)
    gens = _random_cell(rng, dim, rational)
    qmat = random_spd(rng, dim) if skew_q else None
    cone = UniCone(gens, qmat=qmat)
    cases = [c for c in _all_ibp_cases(cone, 2)]
    rng.shuffle(cases)
    for inner, outer, alpha in cases[:8]:
        a = ibp_op(cone, inner, outer, alpha)
        b = ibp_symbol(cone, inner, outer, alpha)
        assert a.symbol == b.symbol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.booleans(), st.booleans())
def test_vertex_op_factors_through_the_gram_matrix(seed, dim, skew_q, rational):
    # the vertex operator of a cell depends on the cell only through its
    # Gram matrix G: it is the operator of the standard basis under G,
    # composed with xi -> (<xi, g_i>)
    rng = random.Random(seed)
    m = dim + rng.randint(0, 1)
    gens = _random_cell(rng, dim, rational)
    gens = [row + [F(rng.randint(-2, 2))] * (m - dim) for row in gens]
    qmat = random_spd(rng, m) if skew_q else None
    cone = UniCone(gens, qmat=qmat)
    gram = [[qform(cone.qmat, g, h) for h in cone.gens] for g in cone.gens]
    frame = UniCone([[int(i == j) for j in range(dim)] for i in range(dim)], qmat=gram)
    pairings = [lf(g) for g in cone.gens]
    for n in range(dim, dim + 3):
        op = vertex_op(cone, n)
        assert op.symbol == vertex_op(frame, n).symbol.compose(pairings)
        assert op.order == n - dim


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_fraction_free_schur_solve_matches_rational_solve(seed, dim):
    # on the standard basis the Gram matrix is Q itself, up to scale
    rng = random.Random(seed)
    scale = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(dim)]
    qmat = [[scale[i] * x * scale[j] for j, x in enumerate(row)]
            for i, row in enumerate(random_spd(rng, dim))]
    cone = UniCone([[int(i == j) for j in range(dim)] for i in range(dim)], qmat=qmat)
    for r in range(1, dim + 1):
        for subset in combinations(range(dim), r):
            comp = [v for v in range(dim) if v not in subset]
            delta, solved = _schur(cone, subset)
            block = [[cone._gram[v][w] for w in comp] for v in comp]
            assert delta == (fraction_det(block) if comp else 1)
            for e in subset:
                x = solve_unique([[qmat[v][w] for w in comp] for v in comp],
                                 [qmat[v][e] for v in comp]) if comp else ()
                assert tuple(F(solved[e][v], delta) for v in comp) == x
                assert all(deco(cone, subset).coeff[(e, v)] == c for v, c in zip(comp, x))


def _tridiagonal(m):
    return [[2 if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)]


def _pinned_cells():
    # per dimension: two integer cells, two with rational generators and
    # two integer cells that do not span the ambient space
    rng = random.Random(2024)
    for d in range(1, 5):
        for _ in range(2):
            yield unimodular_matrix(rng, d)
            yield [
                [F(x, rng.choice((1, 2, 3))) * rng.choice((1, 2)) for x in row]
                for row in unimodular_matrix(rng, d)
            ]
            while True:
                gens = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(d)]
                if matrix_rank([[F(x) for x in g] for g in gens]) == d:
                    break
            yield gens


PINNED_OPERATORS_SHA256 = (
    "e642da74c7e2ecac26b80e3d85cdf19f00b98603e9eef18f1e980b82b2b0fc19"
)


def test_cell_operators_match_pinned_digest():
    rng = random.Random(7)
    lines = []
    for gens in _pinned_cells():
        d, m = len(gens), len(gens[0])
        for qname, qmat in (("I", None), ("tridiagonal", _tridiagonal(m))):
            cone = UniCone(gens, qmat=qmat)
            for n in range(d, d + 3):
                op = vertex_op(cone, n)
                lines.append(f"{gens} {qname} {n} {op.order} {sorted(op.symbol.terms.items())}")
            cases = list(_all_ibp_cases(cone, 2))
            for inner, outer, alpha in rng.sample(cases, min(len(cases), 10)):
                for rule in ("min", "max"):
                    op = ibp_op(cone, inner, outer, alpha, pivot_rule=rule)
                    lines.append(
                        f"{gens} {qname} {inner} {outer} {sorted(alpha.items())} {rule} "
                        f"{op.order} {sorted(op.symbol.terms.items())}"
                    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_OPERATORS_SHA256


PINNED_REFERENCES_SHA256 = (
    "008369da2aae5acd88fec3037f4348166dabc42c09fcfc10b6cd9b0c950b5e96"
)


def test_reference_routes_match_pinned_digest():
    # the kept reference routes: the symbol construction, L_n(C; I), D_n(C; F)
    # at every face but the vertex, the Szasz moments and both Todd series
    rng = random.Random(11)
    lines = []
    for gens in _pinned_cells():
        d, m = len(gens), len(gens[0])
        for qname, qmat in (("I", None), ("tridiagonal", _tridiagonal(m))):
            cone = UniCone(gens, qmat=qmat)
            cases = list(_all_ibp_cases(cone, 2))
            for inner, outer, alpha in rng.sample(cases, min(len(cases), 6)):
                op = ibp_symbol(cone, inner, outer, alpha)
                lines.append(
                    f"{gens} {qname} {inner} {outer} {sorted(alpha.items())} "
                    f"{op.order} {sorted(op.symbol.terms.items())}"
                )
            for r in range(d):
                for labels in combinations(range(d), r):
                    for n in range(r, r + 3):
                        for name, op in (("L", ln_op(cone, labels, n)),
                                         ("D", bv_op_unimodular(cone, labels, n))):
                            lines.append(
                                f"{gens} {qname} {name} {labels} {n} "
                                f"{op.order} {sorted(op.symbol.terms.items())}"
                            )
    for mu in ({0: 1}, {0: 4}, {0: 2, 1: 3}, {1: 5, 2: 0}, {0: 1, 1: 2, 2: 3}):
        for labels in (None, [0, 1, 2]):
            lines.append(f"J {mu} {labels} {sorted(J_mu(mu, labels).terms.items())}")
    lines.append(f"todd {series_coeffs_todd(24)}")
    for q in range(2, 13):
        twisted = series_coeffs_twisted_todd(q, CycloElem.omega(q), 8)
        lines.append(f"twisted {q} {[b.coeffs for b in twisted]}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_REFERENCES_SHA256
