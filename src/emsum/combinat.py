"""Combinatorial kernels: Stirling numbers, the correction polynomials
p(n,k;z), the Euler-Maclaurin coefficient sequences c_n and c_n^omega, and
the Szasz moment polynomials J_mu.

The polynomial family

    p(n,k;z) = sum_{t=0}^{k} C(n,t) (-1)^t S(n-t,k-t) z^{k-t}

(with S the Stirling numbers of the second kind) drives everything here;
p(n,k) abbreviates the evaluation p(n,k;1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .exactcore import (
    CycloElem,
    MultiPoly,
    _check_twist,
    _is_int,
)


def _multi_index(entries) -> tuple:
    """A multi-index, given as a mapping or a list of (label, exponent)
    pairs, as the sorted tuple of its pairs with a positive exponent."""
    entries = dict(entries)
    if not all(_is_int(x) and x >= 0 for x in entries.values()):
        raise ValueError("multi-index entries must be non-negative integers")
    return tuple(sorted((label, x) for label, x in entries.items() if x))


def compositions(total: int, r: int) -> Iterator[tuple]:
    """The compositions of total into r positive parts, as part tuples read
    off their r - 1 cut points in lexicographic order; () alone when
    total == r == 0."""
    if total == r == 0:
        yield ()
    if total < r or not r:
        return
    for cut in combinations(range(1, total), r - 1):
        yield tuple(y - x for x, y in zip((0,) + cut, cut + (total,)))


@lru_cache(maxsize=None, typed=True)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n,k)."""
    if not (_is_int(n) and _is_int(k)) or n < 0 or k < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def p_poly(n: int, k: int) -> MultiPoly:
    """The polynomial p(n,k;z) as a univariate MultiPoly in z."""
    if not (_is_int(n) and _is_int(k)) or not 0 <= k <= n:
        raise ValueError("p(n,k;z) requires 0 <= k <= n")
    terms = {}
    for t in range(k + 1):
        coeff = Fraction(math.comb(n, t) * (-1) ** t * stirling2(n - t, k - t))
        if coeff:
            terms[(k - t,)] = terms.get((k - t,), Fraction(0)) + coeff
    return MultiPoly(1, terms)


def p_scalar(n: int, k: int, z):
    """p(n,k;z) at a rational or cyclotomic z: `p_poly` evaluated there."""
    return p_poly(n, k).eval((z,))


@lru_cache(maxsize=None, typed=True)
def p_of_n(n: int) -> Fraction:
    """The scalar p(n) = sum_{mu=n}^{2n} (-1)^mu ((mu-n)!/mu!) p(mu,mu-n).

    These weights satisfy p(n) = (-1)^n b_n / n! for the Todd coefficients
    b_n, so p(1) = 1/2, p(2) = 1/12, and p(n) = 0 for odd n >= 3.
    """
    if not _is_int(n) or n < 1:
        raise ValueError("p(n) requires n >= 1")
    total = Fraction(0)
    for mu in range(n, 2 * n + 1):
        weight = Fraction(math.factorial(mu - n), math.factorial(mu))
        total += (-1) ** mu * weight * p_scalar(mu, mu - n, Fraction(1))
    return total


def c_seq(n_max: int) -> list:
    """Euler-Maclaurin corrections [c_1, ..., c_{n_max}] for the half line:

        R_N([0,inf); phi) ~ int_0^inf phi + sum_n c_n phi^{(n-1)}(0) / N^n,
        c_n = sum_{alpha=n}^{2n} ((alpha-n)!/alpha!) (-1)^{alpha-n+1}
                  p(alpha, alpha-n) = (-1)^{n+1} p(n).

    Computed from the p(n,k) sum, independently of the Todd series; the
    identity c_n = -b_n/n! is a theorem checked in the tests.
    """
    if not _is_int(n_max) or n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [(-1) ** (n + 1) * p_of_n(n) for n in range(1, n_max + 1)]


def c_seq_twisted(q: int, omega, n_max: int) -> list:
    """Twisted corrections [c^omega_1, ..., c^omega_{n_max}] for the half
    line with character gamma -> omega^gamma:

        c^omega_n = sum_{alpha=0}^{n-1} sum_{k=0}^{alpha}
            ((n-k-1)! / (alpha! (n-alpha-1)!)) p(alpha,alpha-k;omega)
            / (1-omega)^{n-k}.

    Computed by this double sum, independently of the twisted Todd series;
    b^omega_n = (-1)^{n-1} c^omega_n is a theorem checked in the tests.
    """
    omega = _check_twist(q, omega)
    if not _is_int(n_max) or n_max < 1:
        raise ValueError("n_max must be at least 1")
    one = CycloElem.one(q)
    inv = (one - omega).inverse()
    out = []
    for n in range(1, n_max + 1):
        total = CycloElem.zero(q)
        for alpha in range(n):
            for k in range(alpha + 1):
                weight = Fraction(
                    math.factorial(n - k - 1),
                    math.factorial(alpha) * math.factorial(n - alpha - 1),
                )
                total = total + weight * p_scalar(alpha, alpha - k, omega) * inv ** (
                    n - k
                )
        out.append(total)
    return out


def J_mu(mu, labels: Optional[Sequence] = None) -> MultiPoly:
    """Szasz moment polynomial J_mu(x) = sum_{nu <= mu} p_E(mu,nu) x^nu with
    p_E(mu,nu) = prod_e p(mu(e), nu(e)).

    Terms beyond total degree [|mu|/2] vanish automatically because
    p(n,k) = 0 for [n/2]+1 <= k <= n.  Variables follow `labels`
    (default: the support of mu).  mu is a mapping or a list of
    (label, exponent) pairs with non-negative int exponents.
    """
    mu = dict(_multi_index(mu))
    labels = sorted(mu) if labels is None else list(labels)
    if any(e not in labels for e in mu):
        raise ValueError("labels must cover the support of mu")
    nvars = len(labels)
    out = MultiPoly.const(nvars, Fraction(1))
    for i, e in enumerate(labels):
        n = mu.get(e, 0)
        if n == 0:
            continue
        factor = MultiPoly(
            nvars,
            {
                tuple(k if j == i else 0 for j in range(nvars)): p_scalar(
                    n, k, Fraction(1)
                )
                for k in range(n + 1)
            },
        )
        out = out * factor
    if not out.is_zero() and out.degree() > sum(mu.values()) // 2:
        raise AssertionError("J_mu must have degree at most [|mu|/2]")
    return out
