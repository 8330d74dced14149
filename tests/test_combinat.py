"""Tests for the combinatorial kernels."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsum.combinat import (
    J_mu,
    _multi_index,
    c_seq,
    c_seq_twisted,
    compositions,
    p_of_n,
    p_poly,
    p_scalar,
    stirling2,
)
from emsum.exactcore import (
    CycloElem,
    MultiPoly,
    cyclotomic_polynomial,
    series_coeffs_todd,
    series_coeffs_twisted_todd,
)

F = Fraction


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling_base_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(5, 5) == 1
    assert stirling2(2, 3) == 0


def test_stirling_small_table():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 2) == 15
    assert stirling2(5, 3) == 25
    assert stirling2(6, 3) == 90


@given(st.integers(0, 10), st.integers(0, 12))
def test_stirling_recurrence(n, k):
    assert stirling2(n + 1, k + 1) == (k + 1) * stirling2(n, k + 1) + stirling2(n, k)


def test_stirling_partition_identity():
    # sum_k S(n,k) * falling factorial = m^n
    for n in range(6):
        for m in range(1, 5):
            total = sum(
                stirling2(n, k) * math.perm(m, k) for k in range(n + 1)
            )
            assert total == m ** n


# ---------------------------------------------------------------------------
# p(n,k;z) polynomials


def test_p_poly_specials():
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.const(1, F(1))
    assert p_poly(0, 0) == one
    for n in range(1, 6):
        assert p_poly(n, 0).is_zero()
        assert p_poly(n, n) == (z - one) ** n
    for n in range(2, 6):
        assert p_poly(n, 1) == z
        assert p_poly(n, n - 1) == math.comb(n, 2) * z * (z - one) ** (n - 2)


def test_p_scalar_matches_poly():
    for n in range(6):
        for k in range(n + 1):
            for zval in (F(0), F(1), F(-2), F(3, 7)):
                assert p_poly(n, k).eval((zval,)) == p_scalar(n, k, zval)


def test_p_poly_recursion():
    # p(n+1,k;z) = (z-1) p(n,k-1;z) + k p(n,k;z) + n p(n-1,k-1;z)
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.const(1, F(1))
    for n in range(1, 12):
        for k in range(1, n + 1):
            lhs = p_poly(n + 1, k)
            rhs = (z - one) * p_poly(n, k - 1) + k * p_poly(n, k) + n * p_poly(
                n - 1, k - 1
            )
            assert lhs == rhs


def _divide_by_z_minus_one(poly: MultiPoly) -> MultiPoly:
    # synthetic division by (z - 1); remainder must vanish
    coeffs = {}
    degree = poly.degree()
    carry = Fraction(0)
    for d in range(degree, -1, -1):
        carry = poly.coefficient((d,)) + carry
        if d > 0:
            coeffs[(d - 1,)] = carry
    assert carry == 0, "polynomial is not divisible by z - 1"
    return MultiPoly(1, coeffs)


def test_p_poly_divisibility():
    # (z-1)^{2k-n} divides p(n,k;z) when [n/2]+1 <= k <= n
    for n in range(2, 16):
        for k in range(n // 2 + 1, n + 1):
            quotient = p_poly(n, k)
            for _ in range(2 * k - n):
                quotient = _divide_by_z_minus_one(quotient)
    # sanity: the exponent is sharp for p(n,n;z) = (z-1)^n
    with pytest.raises(AssertionError):
        _divide_by_z_minus_one(_divide_by_z_minus_one(p_poly(2, 2)))
        _divide_by_z_minus_one(p_poly(2, 1))


def test_generating_identity():
    # e^z sum_k S(n,k) z^k = sum_k k^n z^k / k!, as truncated series
    order = 12
    for n in range(0, 8):
        lhs = [Fraction(0)] * (order + 1)
        for k in range(n + 1):
            s = stirling2(n, k)
            if s:
                for m in range(k, order + 1):
                    lhs[m] += Fraction(s, math.factorial(m - k))
        rhs = [
            Fraction(k ** n, math.factorial(k)) if k > 0 else Fraction(0 ** n)
            for k in range(order + 1)
        ]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# scalar kernels


def test_c_seq_known_values():
    c = c_seq(4)
    assert c[0] == F(1, 2)
    assert c[1] == F(-1, 12)
    assert c[2] == 0


def test_c_seq_equals_minus_todd():
    b = series_coeffs_todd(12)
    c = c_seq(12)
    for n in range(1, 13):
        assert c[n - 1] == -b[n] / math.factorial(n)


def test_p_of_n_values():
    assert p_of_n(1) == F(1, 2)
    assert p_of_n(2) == F(1, 12)
    assert p_of_n(3) == 0
    assert p_of_n(5) == 0
    b = series_coeffs_todd(8)
    for n in range(1, 9):
        assert p_of_n(n) == (-1) ** n * b[n] / math.factorial(n)


def test_c_seq_twisted_values():
    omega = CycloElem.omega(2)
    c = c_seq_twisted(2, omega, 3)
    assert c[0].as_rational() == F(1, 2)
    # b^omega_n = (-1)^{n-1} c^omega_n against the series route
    b = series_coeffs_twisted_todd(2, omega, 3)
    for n in range(1, 4):
        assert b[n - 1] == (-1) ** (n - 1) * c[n - 1]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_twisted_kernel_identity(q):
    omega = CycloElem.omega(q)
    c = c_seq_twisted(q, omega, 6)
    b = series_coeffs_twisted_todd(q, omega, 6)
    for n in range(1, 7):
        assert b[n - 1] == (-1) ** (n - 1) * c[n - 1]


def test_c_seq_twisted_rejects_pole():
    with pytest.raises(ValueError, match="omega = 1"):
        c_seq_twisted(2, CycloElem.one(2), 3)


SERIES_CALLS = {
    "series_coeffs_todd": (series_coeffs_todd, "n_max must be nonnegative"),
    "series_coeffs_twisted_todd": (lambda n: series_coeffs_twisted_todd(3, None, n), "at least 1"),
    "c_seq": (c_seq, "at least 1"),
    "c_seq_twisted": (lambda n: c_seq_twisted(3, None, n), "at least 1"),
}


@pytest.mark.parametrize("value", [1.0, 1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("call, message", SERIES_CALLS.values(), ids=SERIES_CALLS)
def test_series_orders_must_be_integers(call, message, value):
    # True would act as 1 and 1.0 would reach range() as a float
    call(2)
    with pytest.raises(ValueError, match=message):
        call(value)


INDEX_CALLS = {
    "stirling2": (lambda n: stirling2(n, 1), "nonnegative"),
    "p_of_n": (p_of_n, "n >= 1"),
    "p_poly": (lambda n: p_poly(n, 1), "0 <= k <= n"),
    "p_poly_k": (lambda k: p_poly(2, k), "0 <= k <= n"),
    "p_scalar": (lambda n: p_scalar(n, 1, F(1)), "0 <= k <= n"),
}


@pytest.mark.parametrize("value", [1.0, True], ids=repr)
@pytest.mark.parametrize("call, message", INDEX_CALLS.values(), ids=INDEX_CALLS)
def test_indices_must_be_integers(call, message, value):
    # call(1) fills the caches first: an untyped cache would hand True
    # and 1.0 the entry for 1
    call(1)
    with pytest.raises(ValueError, match=message):
        call(value)


CYCLO_CALLS = {
    "CycloElem": (lambda q: CycloElem(q, [1]), "between 1 and"),
    "cyclotomic_polynomial": (cyclotomic_polynomial, "must be positive"),
    "series_coeffs_twisted_todd": (lambda q: series_coeffs_twisted_todd(q, None, 2), "between 2 and"),
    "c_seq_twisted": (lambda q: c_seq_twisted(q, None, 2), "between 2 and"),
}


@pytest.mark.parametrize("value", [3.0, True], ids=repr)
@pytest.mark.parametrize("call, message", CYCLO_CALLS.values(), ids=CYCLO_CALLS)
def test_cyclotomic_orders_must_be_integers(call, message, value):
    # True would build an element of order True, and 3.0 would reach
    # list repetition as a float
    call(3)
    with pytest.raises(ValueError, match=message):
        call(value)


# ---------------------------------------------------------------------------
# multi-indices


def test_multi_index():
    # a mapping and a list of pairs give one sorted tuple of positive entries;
    # a repeated label in the pairs keeps its last exponent, as dict() does
    assert _multi_index({3: 1, 0: 2, 1: 0}) == ((0, 2), (3, 1))
    assert _multi_index([(3, 1), (0, 2), (1, 0)]) == ((0, 2), (3, 1))
    assert _multi_index([(0, 5), (0, 2)]) == ((0, 2),)
    assert _multi_index({}) == ()
    for bad in (-1, 1.5, "2", True, F(2)):
        with pytest.raises(ValueError, match="non-negative integers"):
            _multi_index({0: bad})


@pytest.mark.parametrize("total", range(9))
def test_compositions_match_brute_force(total):
    # the filter of the product is in lexicographic order of the parts,
    # which is the order of the cut points; r = 0 gives the one empty
    # composition of 0, and total = 0 < r gives none
    for r in range(6):
        brute = [
            parts
            for parts in product(range(1, total + 1), repeat=r)
            if sum(parts) == total
        ]
        assert list(compositions(total, r)) == brute, (total, r)


# ---------------------------------------------------------------------------
# Szasz moment polynomials


def test_J_mu_specials():
    assert J_mu({}, labels=[0, 1]) == MultiPoly.const(2, F(1))
    assert J_mu({0: 1}, labels=[0, 1]).is_zero()
    assert J_mu({0: 2}, labels=[0, 1]) == MultiPoly.variable(2, 0)


def test_J_mu_product_structure():
    # J factorizes over the generators
    j = J_mu({0: 2, 1: 2})
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert j == x * y


@given(
    st.dictionaries(st.integers(0, 2), st.integers(0, 5), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_J_mu_degree_bound(mu):
    labels = sorted(set(mu) | {0, 1, 2})
    j = J_mu(mu, labels=labels)
    total = sum(mu.values())
    assert j.is_zero() or j.degree() <= total // 2
