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
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .exactcore import (
    CycloElem,
    MultiPoly,
    _check_twist,
)


class MultiIndex(Mapping):
    """Finitely supported multi-index keyed by generator labels.

    Missing labels read as 0; zero entries are never stored, so equality is
    equality of the supported parts.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping] = None):
        clean = {}
        for label, value in (entries or {}).items():
            value = int(value)
            if value < 0:
                raise ValueError("multi-index entries must be nonnegative")
            if value:
                clean[label] = value
        self._entries = clean

    def __getitem__(self, label) -> int:
        return self._entries.get(label, 0)

    def __iter__(self) -> Iterator:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label) -> bool:
        return label in self._entries

    @property
    def support(self) -> tuple:
        return tuple(sorted(self._entries))

    def total(self) -> int:
        return sum(self._entries.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiIndex):
            return self._entries == other._entries
        if isinstance(other, Mapping):
            return self == MultiIndex(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        return f"MultiIndex({dict(sorted(self._entries.items()))})"


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


def positive_compositions(total: int, labels: Sequence) -> Iterator[MultiIndex]:
    """All multi-indices on `labels` with every entry >= 1 summing to total."""
    labels = list(labels)
    for parts in compositions(total, len(labels)):
        yield MultiIndex(dict(zip(labels, parts)))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n,k)."""
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def p_poly(n: int, k: int) -> MultiPoly:
    """The polynomial p(n,k;z) as a univariate MultiPoly in z."""
    if not 0 <= k <= n:
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


@lru_cache(maxsize=None)
def p_of_n(n: int) -> Fraction:
    """The scalar p(n) = sum_{mu=n}^{2n} (-1)^mu ((mu-n)!/mu!) p(mu,mu-n).

    These weights satisfy p(n) = (-1)^n b_n / n! for the Todd coefficients
    b_n, so p(1) = 1/2, p(2) = 1/12, and p(n) = 0 for odd n >= 3.
    """
    if n < 1:
        raise ValueError("p(n) requires n >= 1")
    total = Fraction(0)
    for mu in range(n, 2 * n + 1):
        weight = Fraction(math.factorial(mu - n), math.factorial(mu))
        total += (-1) ** mu * weight * p_scalar(mu, mu - n, Fraction(1))
    return total


def p_I_of_nu(nu) -> Fraction:
    """The product p_I(nu) = prod_e p(nu(e)) over the support of nu.

    Every entry of nu must be >= 1.
    """
    nu = MultiIndex(nu)
    if not len(nu):
        raise ValueError("p_I requires a nonempty multi-index")
    out = Fraction(1)
    for label in nu:
        out *= p_of_n(nu[label])
    return out


def c_seq(n_max: int) -> list:
    """Euler-Maclaurin corrections [c_1, ..., c_{n_max}] for the half line:

        R_N([0,inf); phi) ~ int_0^inf phi + sum_n c_n phi^{(n-1)}(0) / N^n,
        c_n = sum_{alpha=n}^{2n} ((alpha-n)!/alpha!) (-1)^{alpha-n+1}
                  p(alpha, alpha-n) = (-1)^{n+1} p(n).

    Computed from the p(n,k) sum, independently of the Todd series; the
    identity c_n = -b_n/n! is a theorem checked in the tests.
    """
    if n_max < 1:
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
    if n_max < 1:
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
    (default: the support of mu).
    """
    mu = MultiIndex(mu)
    if labels is None:
        labels = mu.support
    labels = list(labels)
    if any(e not in labels for e in mu.support):
        raise ValueError("labels must cover the support of mu")
    nvars = len(labels)
    out = MultiPoly.const(nvars, Fraction(1))
    for i, e in enumerate(labels):
        n = mu[e]
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
    if not out.is_zero() and out.degree() > mu.total() // 2:
        raise AssertionError("J_mu must have degree at most [|mu|/2]")
    return out
