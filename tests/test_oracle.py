"""Tests for the brute-force oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emsum.combinat import c_seq_twisted
from emsum.exactcore import CycloElem, MultiPoly
from emsum.geometry import build_polytope
from emsum.oracle import (
    BudgetExceeded,
    coefficients_from_oracle,
    exp_rational,
    riemann_sum,
    szasz_eval,
    twisted_riemann_1d,
    weighted_ehrhart,
)

from _helpers import box_riemann_sum, run_optimized

F = Fraction

INTERVAL = [(0,), (1,)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
SIMPLEX2 = [(0, 0), (1, 0), (0, 1)]
SKEW_TRIANGLE = [(0, 0), (1, 0), (1, 2)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_riemann_sum_interval():
    p = build_polytope(INTERVAL)
    one = MultiPoly.const(1, F(1))
    for n in (1, 2, 5):
        assert riemann_sum(p, one, n) == F(n + 1, n)


def test_riemann_sum_square_linear():
    p = build_polytope(SQUARE)
    x = MultiPoly.variable(2, 0)
    # (1/4) * sum_{i,j<=2} i/2 = (1/4) * 3 * (0 + 1/2 + 1) = 9/8
    assert riemann_sum(p, x, 2) == F(9, 8)


# coordinate range of the random hull points per ambient dimension, so that
# the box loop stays quick on the 4D boxes of 4*P
COORDS = {1: 3, 2: 3, 3: 2, 4: 1}


@st.composite
def hulls_and_weights(draw):
    m = draw(st.integers(1, 4))
    r = COORDS[m]
    coord = st.integers(-r, r)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=m + 1,
                           max_size=m + 3))
    try:
        poly = build_polytope(points)
    except ValueError:
        assume(False)
    exps = st.tuples(*[st.integers(0, 2)] * m).filter(lambda e: sum(e) <= 3)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeff, max_size=4))
    terms[(0,) * m] = draw(coeff)
    return poly, MultiPoly(m, terms)


@settings(max_examples=40, deadline=None)
@given(hulls_and_weights())
def test_line_sweep_matches_box_loop(case):
    poly, phi = case
    for n in range(1, 5):
        assert riemann_sum(poly, phi, n) == box_riemann_sum(poly, phi, n)


@pytest.mark.parametrize(
    "points",
    [
        # hulls with facet normals whose last entry, and whose second-to-last
        # entry (the one the sweep steps residuals by), are positive, negative
        # and zero; and an interval, where no residual is stepped
        [(0, 0), (2, 0), (2, 1), (0, 1), (1, 2)],
        [(0, 0, 0), (2, 1, 0), (1, 3, 1), (0, 1, 2), (-1, 0, 1), (1, 1, -1),
         (0, 0, 2)],
        [(0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
         (0, 0, 0, 1), (0, 0, 1, 1), (-1, 1, 0, -1)],
        [(-1,), (2,)],
    ],
    ids=["pentagon", "hull-3d", "hull-4d", "interval"],
)
def test_line_sweep_handles_every_sign_of_the_last_normal_entry(points):
    poly = build_polytope(points)
    m = poly.ambient_dim
    signs = [{(a[k] > 0) - (a[k] < 0) for a, _ in poly.facets} for k in range(m)]
    assert signs[-1] == ({-1, 0, 1} if m > 1 else {-1, 1})
    if m > 1:
        assert signs[-2] == {-1, 0, 1}
    mixed = (1,) + (0,) * (m - 2) + (2,) if m > 1 else (3,)
    phi = MultiPoly(m, {(0,) * m: F(-2, 3), mixed: F(5, 4),
                        (0,) * (m - 1) + (1,): F(-7)})
    for n in range(1, 5):
        assert riemann_sum(poly, phi, n) == box_riemann_sum(poly, phi, n)


def test_riemann_sum_budget():
    p = build_polytope([(0,), (100,)])
    one = MultiPoly.const(1, F(1))
    with pytest.raises(ValueError, match="desk-scale exceeded"):
        riemann_sum(p, one, 5, budget=100)


BUDGET_CALLS = {
    "riemann_sum": lambda p, phi, budget: riemann_sum(p, phi, 1, budget=budget),
    "weighted_ehrhart": lambda p, phi, budget: weighted_ehrhart(p, phi, budget=budget),
    "coefficients_from_oracle": lambda p, phi, budget: coefficients_from_oracle(p, phi, budget=budget),
}


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("oracle", BUDGET_CALLS.values(), ids=BUDGET_CALLS)
def test_non_positive_budget_is_invalid_not_exceeded(oracle, budget):
    p = build_polytope(SIMPLEX2)
    with pytest.raises(ValueError, match="budget must be positive") as err:
        oracle(p, MultiPoly.const(2, F(1)), budget)
    assert not isinstance(err.value, BudgetExceeded)


@pytest.mark.parametrize("budget", [2.5, True, 10.0 ** 9], ids=repr)
@pytest.mark.parametrize("oracle", BUDGET_CALLS.values(), ids=BUDGET_CALLS)
def test_budget_must_be_an_integer(oracle, budget):
    # 2.5 and True would read as exceeded budgets, and 10.0 ** 9 would run
    p, phi = build_polytope(SIMPLEX2), MultiPoly.const(2, F(1))
    oracle(p, phi, 10 ** 9)
    with pytest.raises(ValueError, match="budget must be positive") as err:
        oracle(p, phi, budget)
    assert not isinstance(err.value, BudgetExceeded)


INVARIANT_SCRIPT = """
import sys
from fractions import Fraction
from emsum import oracle
from emsum.exactcore import MultiPoly
from emsum.geometry import build_polytope

if not sys.flags.optimize:
    raise SystemExit("expected to run under python -O")
oracle.solve_unique = lambda matrix, rhs: None
try:
    oracle.weighted_ehrhart(build_polytope([(0,), (1,)]),
                            MultiPoly.const(1, Fraction(1)))
except AssertionError as exc:
    print(exc)
"""


def test_vandermonde_invariant_fires_under_optimize():
    proc = run_optimized(INVARIANT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "Vandermonde systems are invertible"


def test_ehrhart_cube():
    p = build_polytope(CUBE)
    ehr = weighted_ehrhart(p, MultiPoly.const(3, F(1)))
    assert ehr.coeffs == (F(1), F(3), F(3), F(1))


def test_ehrhart_square_and_simplex():
    sq = weighted_ehrhart(build_polytope(SQUARE), MultiPoly.const(2, F(1)))
    assert sq.a_coefficients() == [F(1), F(2), F(1)]
    si = weighted_ehrhart(build_polytope(SIMPLEX2), MultiPoly.const(2, F(1)))
    assert si.a_coefficients() == [F(1, 2), F(3, 2), F(1)]


def test_ehrhart_skew_triangle():
    ehr = weighted_ehrhart(build_polytope(SKEW_TRIANGLE), MultiPoly.const(2, F(1)))
    # counts (N+1)^2 lattice points
    assert ehr.coeffs == (F(1), F(2), F(1))


def test_ehrhart_weighted_interval():
    p = build_polytope(INTERVAL)
    x = MultiPoly.variable(1, 0)
    ehr = weighted_ehrhart(p, x)
    # T(N) = sum_{g<=N} g = N(N+1)/2
    assert ehr.coeffs == (F(0), F(1, 2), F(1, 2))
    assert ehr.a_coefficients() == [F(1, 2), F(1, 2), F(0)]
    ehr2 = weighted_ehrhart(p, x * x)
    # T(N) = sum g^2 = N(N+1)(2N+1)/6
    assert ehr2.a_coefficients() == [F(1, 3), F(1, 2), F(1, 6), F(0)]


def test_oracle_coefficients_pad_with_zeros():
    p = build_polytope(INTERVAL)
    a = coefficients_from_oracle(p, MultiPoly.variable(1, 0), n_max=5)
    assert a == [F(1, 2), F(1, 2), F(0), F(0), F(0), F(0)]


def test_ehrhart_leading_coefficient_is_integral():
    from emsum.geometry import integrate_poly_over_face

    p = build_polytope(SIMPLEX2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    for phi in (x, x * y, x * x):
        ehr = weighted_ehrhart(p, phi)
        assert ehr.coeffs[-1] == integrate_poly_over_face(
            p, p.polytope_face, phi
        )


# ---------------------------------------------------------------------------
# rational exponential and Szasz evaluation


def test_exp_rational_accuracy():
    import math

    for s in (F(0), F(1), F(7, 2), F(-3)):
        approx = exp_rational(s)
        assert abs(float(approx) - math.exp(float(s))) < 1e-12
    assert exp_rational(F(0)) == 1


def test_szasz_normalization():
    one2 = MultiPoly.const(2, F(1))
    val = szasz_eval(one2, (F(1, 2), F(3)), 4)
    assert abs(val - 1) < F(1, 10 ** 12)


def test_szasz_linear_is_exact():
    x = MultiPoly.variable(1, 0)
    val = szasz_eval(x, (F(5, 2),), 3)
    assert abs(val - F(5, 2)) < F(1, 10 ** 12)


def test_szasz_quadratic_moment():
    x = MultiPoly.variable(1, 0)
    # E[(gamma/N)^2] for gamma ~ Poisson(Nx): x^2 + x/N
    val = szasz_eval(x * x, (F(2),), 5)
    assert abs(val - (F(4) + F(2, 5))) < F(1, 10 ** 12)


def test_szasz_rejects_negative_point():
    with pytest.raises(ValueError, match="orthant"):
        szasz_eval(MultiPoly.const(1, F(1)), (F(-1),), 2)


@pytest.mark.parametrize("value", [1.0, 1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda n: szasz_eval(MultiPoly.variable(1, 0), (F(1),), n, truncation=20),
    lambda n: twisted_riemann_1d(3, None, MultiPoly.variable(1, 0), n),
], ids=["szasz_eval", "twisted_riemann_1d"])
def test_dilation_factors_must_be_integers(call, value):
    # True would act as N = 1 and 1.5 would fail deep in the arithmetic
    call(2)
    with pytest.raises(ValueError, match="dilation factor must be a positive integer"):
        call(value)


@pytest.mark.parametrize("value", [20.0, True, -1], ids=repr)
def test_szasz_truncation_must_be_a_non_negative_integer(value):
    x = MultiPoly.variable(1, 0)
    szasz_eval(x, (F(1),), 2, truncation=20)
    with pytest.raises(ValueError, match="truncation must be a non-negative integer"):
        szasz_eval(x, (F(1),), 2, truncation=value)


# ---------------------------------------------------------------------------
# twisted half-line sums


@pytest.mark.parametrize("q", [2, 3, 4])
def test_twisted_riemann_matches_expansion(q):
    omega = CycloElem.omega(q)
    x = MultiPoly.variable(1, 0)
    for phi in (MultiPoly.const(1, F(1)), x, x * x, x * x * x - 2 * x):
        deg = phi.degree()
        c = c_seq_twisted(q, omega, deg + 1)
        for n in (1, 2, 3):
            lhs = twisted_riemann_1d(q, omega, phi, n)
            rhs = CycloElem.zero(q)
            deriv = phi
            for k in range(1, deg + 2):
                # c_k^omega phi^{(k-1)}(0) / N^k
                rhs = rhs + c[k - 1] * deriv.eval((F(0),)) * F(1, n ** k)
                deriv = deriv.deriv((1,))
            assert lhs == rhs


def test_twisted_riemann_geometric_anchor():
    # phi = 1: (1/N) sum omega^k = 1/(N(1-omega))
    omega = CycloElem.omega(3)
    val = twisted_riemann_1d(3, omega, MultiPoly.const(1, F(1)), 2)
    expected = (CycloElem.one(3) - omega).inverse() * F(1, 2)
    assert val == expected
