"""Acceptance suite: one test per shipped guarantee, with runtime budgets.

Each test prints one `[PASS] criterion N` line (visible with -s, or in
the -v test listing through its name).  Every comparison is exact
rational equality except criterion 10, whose numeric tolerances are
pinned as module constants below.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from emsum.combinat import (
    J_mu,
    c_seq,
    c_seq_twisted,
    p_poly,
)
from emsum.conecalc import UniCone, ibp_op, ibp_symbol
from emsum.engine import (
    closed_form_2d,
    closed_form_A0_A1,
    closed_form_A2,
    expansion,
)
from emsum.exactcore import (
    CycloElem,
    MultiPoly,
    series_coeffs_todd,
    series_coeffs_twisted_todd,
)
from emsum.geometry import build_polytope, euler_brion_window_check
from emsum.oracle import coefficients_from_oracle, szasz_eval

from _helpers import random_spd, unimodular_matrix

# pinned numeric tolerances (criterion 10; everything else is exact)
SZASZ_MOMENT_TOL = F(1, 10 ** 9)
SZASZ_NORMALIZATION_TOL = F(1, 10 ** 12)
SZASZ_TRUNCATION = 200

INTERVAL = build_polytope([(0,), (1,)])
SQUARE = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX2 = build_polytope([(0, 0), (1, 0), (0, 1)])
TRAPEZOID = build_polytope([(0, 0), (2, 0), (2, 1), (0, 1)])
CUBE = build_polytope(
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
)
SIMPLEX3 = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
PRISM = build_polytope(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
)
TRIANGLE_ND = build_polytope([(0, 0), (1, 0), (1, 2)])
OCTAHEDRON = build_polytope(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
)

# the 4D oracle tier: criteria 5 and 6 one dimension up and on dilated cubes
CUBE4 = list(itertools.product((0, 1), repeat=4))
SIMPLEX4 = [(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
CROSS4 = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
CUBE3_TIMES_3 = list(itertools.product((0, 3), repeat=3))
CUBE3_TIMES_4 = list(itertools.product((0, 4), repeat=3))

# the 5D oracle tier: criteria 5 and 6 two dimensions up
CUBE5 = list(itertools.product((0, 1), repeat=5))
SIMPLEX5 = [(0,) * 5] + [tuple(int(i == j) for j in range(5)) for i in range(5)]

DELZANT_SUITE = [
    (INTERVAL, 3),
    (SQUARE, 3),
    (SIMPLEX2, 3),
    (TRAPEZOID, 3),
    (CUBE, 2),
    (SIMPLEX3, 2),
    (PRISM, 2),
]


def monomials(nvars: int, max_deg: int) -> list:
    out = []
    for exps in itertools.product(range(max_deg + 1), repeat=nvars):
        if sum(exps) <= max_deg:
            out.append(MultiPoly.monomial(exps, F(1)))
    return out


def _report(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\n[PASS] criterion {num}: {label} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} runtime budget exceeded"


def test_criterion_01_half_line_corrections_match_todd():
    started = time.perf_counter()
    cs = c_seq(12)
    bs = series_coeffs_todd(12)
    for n in range(1, 13):
        assert cs[n - 1] == -bs[n] / math.factorial(n)
    _report(1, "c_n = -b_n/n! for n <= 12", started, 1.0)


def test_criterion_02_twisted_corrections_match_twisted_todd():
    started = time.perf_counter()
    for q in (2, 3, 4):
        omega = CycloElem.omega(q)
        cs = c_seq_twisted(q, omega, 8)
        bs = series_coeffs_twisted_todd(q, omega, 8)
        for n in range(1, 9):
            assert bs[n - 1] == (-1) ** (n - 1) * cs[n - 1]
    _report(2, "twisted double sum = twisted Todd series, q in {2,3,4}, "
               "n <= 8", started, 5.0)


def test_criterion_03_kernel_polynomial_recursion_and_divisibility():
    started = time.perf_counter()
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.const(1, F(1))
    for n in range(1, 16):
        for k in range(1, n + 1):
            lhs = p_poly(n + 1, k)
            rhs = (
                (z - one) * p_poly(n, k - 1)
                + k * p_poly(n, k)
                + n * p_poly(n - 1, k - 1)
            )
            assert lhs == rhs
    for n in range(2, 21):
        for k in range(n // 2 + 1, n + 1):
            # (z-1)^{2k-n} must divide p(n,k;z): synthetic division leaves
            # no remainder at any stage
            coeffs = [p_poly(n, k).coefficient((d,))
                      for d in range(p_poly(n, k).degree() + 1)]
            for _ in range(2 * k - n):
                carry = F(0)
                out = []
                for c in reversed(coeffs):
                    carry += c
                    out.append(carry)
                assert out[-1] == 0, "remainder must vanish"
                coeffs = list(reversed(out[:-1]))
    _report(3, "p(n,k;z) recursion (n <= 15) and (z-1)^{2k-n} divisibility "
               "(n <= 20)", started, 5.0)


def test_criterion_04_symbol_system_randomized():
    started = time.perf_counter()
    rng = random.Random(20260816)
    lf = MultiPoly.linear_form
    checked = 0
    for case in range(50):
        dim = 2 + case % 3
        gens = unimodular_matrix(rng, dim)
        for qmat in (None, random_spd(rng, dim)):
            cone = UniCone(gens, qmat=qmat)
            labels = list(cone.labels())
            for _ in range(3):
                ri = rng.randint(1, dim)
                inner = tuple(sorted(rng.sample(labels, ri)))
                total = rng.randint(1, 4)
                alpha = {}
                for _ in range(total):
                    e = rng.choice(inner)
                    alpha[e] = alpha.get(e, 0) + 1
                # reconstruction identity over all admissible outer sets
                lhs = MultiPoly.const(dim, F(1))
                for e, a in alpha.items():
                    lhs = lhs * lf([F(c) for c in cone.gens[e]]) ** a
                rhs = MultiPoly.zero(dim)
                rest = [v for v in labels if v not in inner]
                outers = []
                for rj in range(len(rest) + 1):
                    for extra in combinations(rest, rj):
                        outer = tuple(sorted(inner + extra))
                        if len(outer) > total + len(inner):
                            continue
                        outers.append(outer)
                        term = ibp_op(cone, inner, outer, alpha).symbol
                        for e in extra:
                            term = term * lf([F(c) for c in cone.gens[e]])
                        rhs = rhs + term
                assert lhs == rhs
                # independent construction routes and branch choices agree
                outer = rng.choice(outers)
                direct = ibp_op(cone, inner, outer, alpha)
                assert direct.symbol == ibp_symbol(
                    cone, inner, outer, alpha
                ).symbol
                assert direct.symbol == ibp_op(
                    cone, inner, outer, alpha, pivot_rule="max"
                ).symbol
                checked += 1
    assert checked == 300
    _report(4, "symbol identities on 50 random unimodular cones, dim <= 4, "
               "|alpha| <= 4, two inner products", started, 30.0)


def test_criterion_05_engine_matches_oracle_on_delzant_suite():
    started = time.perf_counter()
    cases = 0
    for poly, max_deg in DELZANT_SUITE:
        for phi in monomials(poly.ambient_dim, max_deg):
            res = expansion(poly, phi)
            assert not res.valuation_used
            oracle = coefficients_from_oracle(poly, phi)
            assert list(res.coefficients) == oracle
            cases += 1
    assert cases == 4 + 3 * 10 + 3 * 10
    _report(5, "expansion() = oracle on 7 Delzant polytopes x all "
               "monomials", started, 120.0)


def _one_and_a_quadratic(m: int) -> tuple:
    """phi = 1 and phi = x_1 x_m."""
    return (MultiPoly.const(m, F(1)),
            MultiPoly.monomial((1,) + (0,) * (m - 2) + (1,)))


@pytest.mark.parametrize(
    "name, points, valuation, budget",
    [
        ("[0,1]^4", CUBE4, False, 20.0),
        ("4-simplex", SIMPLEX4, False, 20.0),
        ("4D cross-polytope", CROSS4, True, 60.0),
        ("3[0,1]^3", CUBE3_TIMES_3, False, 10.0),
        ("4[0,1]^3", CUBE3_TIMES_4, False, 10.0),
        ("[0,1]^5", CUBE5, False, 20.0),
        ("5-simplex", SIMPLEX5, False, 10.0),
    ],
    ids=["cube4", "simplex4", "cross4", "3cube3", "4cube3", "cube5", "simplex5"],
)
def test_oracle_tier_4d_engine_matches_oracle(name, points, valuation, budget):
    started = time.perf_counter()
    poly = build_polytope(points)
    for phi in _one_and_a_quadratic(poly.ambient_dim):
        res = expansion(poly, phi)
        assert res.valuation_used == valuation
        assert list(res.coefficients) == coefficients_from_oracle(poly, phi)
    _report(5, f"{poly.ambient_dim}D tier: expansion() = oracle on {name}, "
               "phi = 1 and x_1 x_m", started, budget)


def test_criterion_06_closed_forms_a0_a1_a2():
    started = time.perf_counter()
    one2 = MultiPoly.const(2, F(1))
    one3 = MultiPoly.const(3, F(1))
    assert closed_form_A2(CUBE, one3) == F(3)
    assert closed_form_A2(SIMPLEX2, one2) == F(1)
    for poly, _deg in DELZANT_SUITE:
        for phi in monomials(poly.ambient_dim, 2):
            res = expansion(poly, phi)
            a0, a1 = closed_form_A0_A1(poly, phi)
            assert (a0, a1) == (res.coefficient(0), res.coefficient(1))
            assert closed_form_A2(poly, phi) == res.coefficient(2)
    _report(6, "A_0/A_1 and A_2 closed forms = expansion(), cube A_2 = 3, "
               "2-simplex A_2 = 1", started, 10.0)


@pytest.mark.parametrize(
    "name, points",
    [("[0,1]^4", CUBE4), ("4-simplex", SIMPLEX4), ("4[0,1]^3", CUBE3_TIMES_4),
     ("[0,1]^5", CUBE5), ("5-simplex", SIMPLEX5)],
    ids=["cube4", "simplex4", "4cube3", "cube5", "simplex5"],
)
def test_oracle_tier_4d_closed_forms_match_oracle(name, points):
    started = time.perf_counter()
    poly = build_polytope(points)
    for phi in _one_and_a_quadratic(poly.ambient_dim):
        a = coefficients_from_oracle(poly, phi)
        assert closed_form_A0_A1(poly, phi) == (a[0], a[1])
        assert closed_form_A2(poly, phi) == a[2]
    _report(6, f"{poly.ambient_dim}D tier: A_0/A_1 and A_2 closed forms = "
               f"oracle on {name}", started, 10.0)


# GL_6(Z) images of [0,1]^6 and the 6-simplex: the oracle's dilates would
# need more than its 10^7 box points, so the closed forms are the reference
SHEAR6 = [
    [1, 1, 0, 0, 0, 0],
    [0, 1, 0, 2, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 1, 0],
    [0, -1, 0, 0, 1, 1],
]
CUBE6 = list(itertools.product((0, 1), repeat=6))
SIMPLEX6 = [(0,) * 6] + [tuple(int(i == j) for j in range(6)) for i in range(6)]


@pytest.mark.parametrize("points", [CUBE6, SIMPLEX6], ids=["cube6", "simplex6"])
def test_six_dimensional_images_closed_forms_match_expansion(points):
    started = time.perf_counter()
    poly = build_polytope(
        [tuple(sum(a * x for a, x in zip(row, p)) for row in SHEAR6) for p in points]
    )
    phi = MultiPoly.monomial((1, 0, 0, 0, 0, 1)) + 1
    res = expansion(poly, phi, n_max=2)
    assert closed_form_A0_A1(poly, phi) == (res.coefficient(0), res.coefficient(1))
    assert closed_form_A2(poly, phi) == res.coefficient(2)
    _report(6, "6D tier: A_0/A_1 and A_2 closed forms = expansion() on a "
               "GL_6(Z) image", started, 10.0)


def test_criterion_07_two_dimensional_closed_form():
    started = time.perf_counter()
    for poly in (SQUARE, SIMPLEX2, TRAPEZOID):
        for phi in monomials(2, 3):
            res = expansion(poly, phi, n_max=5)
            for n in range(2, 6):
                assert closed_form_2d(poly, phi, n) == res.coefficient(n)
    _report(7, "2D closed form = expansion() for n <= 5, deg phi <= 3",
            started, 30.0)


def test_criterion_08_inner_product_independence():
    started = time.perf_counter()
    rng = random.Random(4251)
    q_by_dim = {
        1: ((2,),),
        2: ((2, 1), (1, 2)),
        3: random_spd(rng, 3),
    }
    for poly, max_deg in DELZANT_SUITE:
        qmat = q_by_dim[poly.ambient_dim]
        for phi in monomials(poly.ambient_dim, max_deg):
            base = expansion(poly, phi)
            other = expansion(poly, phi, qmat=qmat)
            assert base.coefficients == other.coefficients
    _report(8, "A_n totals identical for standard and skew inner products",
            started, 120.0)


def test_criterion_09_non_delzant_valuation_path():
    started = time.perf_counter()
    for poly in (TRIANGLE_ND, OCTAHEDRON):
        for phi in monomials(poly.ambient_dim, 2):
            res = expansion(poly, phi)
            assert res.valuation_used
            oracle = coefficients_from_oracle(poly, phi)
            assert list(res.coefficients) == oracle
            alt = expansion(poly, phi, strategy="alternate")
            assert alt.coefficients == res.coefficients
    _report(9, "valuation path = oracle on non-Delzant examples, two "
               "stellar orders", started, 120.0)


def test_criterion_10_szasz_identities_and_window_checks():
    started = time.perf_counter()
    # probability normalization
    for x in ((F(1, 2),), (F(3),), (F(1, 2), F(3)), (F(2), F(5, 2))):
        for n in (1, 4):
            one = MultiPoly.const(len(x), F(1))
            val = szasz_eval(one, x, n, truncation=SZASZ_TRUNCATION)
            assert abs(val - 1) <= SZASZ_NORMALIZATION_TOL
    # J_mu degree bound: deg J_mu <= |mu|/2, exact
    for nvars in (1, 2):
        for exps in itertools.product(range(5), repeat=nvars):
            if not 0 < sum(exps) <= 4:
                continue
            mu = {i: e for i, e in enumerate(exps) if e}
            j = J_mu(mu, labels=range(nvars))
            assert 2 * j.degree() <= sum(exps)
    # moment identity: S_N(phi)(x) = sum_mu phi^(mu)(x)/(mu! N^|mu|) J_mu(Nx)
    points = {1: [(F(1, 2),), (F(3),)], 2: [(F(1, 2), F(3)), (F(2), F(1))]}
    for nvars in (1, 2):
        for phi in monomials(nvars, 4):
            for x in points[nvars]:
                for n in (2, 10):
                    lhs = szasz_eval(phi, x, n, truncation=SZASZ_TRUNCATION)
                    nx = tuple(n * c for c in x)
                    rhs = F(0)
                    for exps in itertools.product(
                        range(phi.degree() + 1), repeat=nvars
                    ):
                        if sum(exps) > phi.degree():
                            continue
                        dphi = phi.deriv(exps)
                        if dphi.is_zero():
                            continue
                        mu = {i: e for i, e in enumerate(exps) if e}
                        weight = F(1)
                        for e in exps:
                            weight /= math.factorial(e)
                        weight /= F(n) ** sum(exps)
                        rhs += weight * dphi.eval(x) * J_mu(
                            mu, labels=range(nvars)
                        ).eval(nx)
                    assert abs(lhs - rhs) <= SZASZ_MOMENT_TOL, (phi, x, n)
    # Euler/Brion inclusion-exclusion on integer and shifted windows
    for poly in (INTERVAL, SQUARE, SIMPLEX2, TRAPEZOID, CUBE, SIMPLEX3,
                 PRISM, TRIANGLE_ND, OCTAHEDRON):
        assert euler_brion_window_check(poly, n_values=(1, 2, 3))
    _report(10, "Szasz moment identities within pinned tolerances; "
                "Euler/Brion window checks exact", started, 60.0)
