"""Brute-force oracles: exact Riemann sums by a line sweep over the lattice
points of dilates, weighted Ehrhart interpolation, Szasz function
evaluation, and regularized twisted sums on the half line.

These are deliberately independent of the operator machinery: they only
sum phi over lattice points (line by line, with integer power sums) and
interpolate, so they can serve as ground truth for the expansion engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Optional, Sequence

from .combinat import stirling2
from .exactcore import CycloElem, MultiPoly, _check_twist, _is_int, as_vector, solve_unique
from .geometry import LatticePolytope

F = Fraction

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(ValueError):
    """An enumeration would visit more points than its work budget allows."""


def _power_sum(diffs: list, a: int, b: int) -> int:
    """sum_{t=a}^{b} t^j from diffs = the forward differences of t^j at 0,
    as P(b) - P(a-1) with P(x) = sum_k diffs[k] C(x+1, k+1) (hockey stick).

    C is built in product form, C(y, k+1) = C(y, k) (y-k)/(k+1), so every
    division is exact, for negative y too.
    """
    total = 0
    for x, sign in ((b, 1), (a - 1, -1)):
        binom = sign
        for k, d in enumerate(diffs):
            binom = binom * (x + 1 - k) // (k + 1)
            total += d * binom
    return total


def riemann_sum(
    poly: LatticePolytope,
    phi: MultiPoly,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """The exact Riemann sum R_N(P;phi) = N^{-dim P} sum_{g in NP cap Z^m}
    phi(g/N), summed line by line along the last axis.

    Over each point of the bounding box of N*P projected along that axis,
    the facets cut the line to an integer interval [a, b], and each monomial
    of phi, scaled to integer coefficients, is summed over it in closed
    form.  A facet <alpha, g> >= N c cuts the line over the head h by its
    residual N c - <alpha, h>, taken once per prefix of h and stepped by
    -alpha[-2] from line to line along the innermost head axis, so no line
    takes a dot product.  The sweep is exact: it equals adding phi(g/N)
    point by point.

    Raises BudgetExceeded("desk-scale exceeded") when the bounding box of
    N*P holds more than `budget` points (counted before any work), and a
    plain ValueError when `budget` is not positive.
    """
    if not _is_int(n) or n < 1:
        raise ValueError("the dilation factor must be a positive integer")
    if not _is_int(budget) or budget < 1:
        raise ValueError("budget must be positive")
    if phi.nvars != poly.ambient_dim:
        raise ValueError("dimension mismatch")
    m = poly.ambient_dim
    lo = [n * min(v[i] for v in poly.vertices) for i in range(m)]
    hi = [n * max(v[i] for v in poly.vertices) for i in range(m)]
    if math.prod(b - a + 1 for a, b in zip(lo, hi)) > budget:
        raise BudgetExceeded("desk-scale exceeded")
    # scale * N^deg * phi(g/N) has integer coefficients in g
    deg = phi.degree()
    scale = math.lcm(*(c.denominator for c in phi.terms.values()))
    terms = [(e[:-1], e[-1], int(c * scale) * n ** (deg - sum(e)))
             for e, c in phi.terms.items()]
    diffs = {j: [sum((-1) ** (k - i) * math.comb(k, i) * i ** j
                     for i in range(k + 1)) for k in range(j + 1)]
             for _, j, _ in terms}
    # each facet's residual N c - <alpha, head> on the first line over an
    # outer prefix (map stops at the prefix), less alpha[-2] per step of x
    axes = [range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1])] or [range(1)]
    inner = axes.pop()
    steps = [alpha[-2] if m > 1 else 0 for alpha, _ in poly.facets]
    lasts = [alpha[-1] for alpha, _ in poly.facets]
    total = 0
    for outer in itertools.product(*axes):
        rs = [n * c - sum(map(mul, alpha, outer)) - step * inner.start
              for (alpha, c), step in zip(poly.facets, steps)]
        for x in inner:
            head = outer + (x,) if m > 1 else ()
            a, b = lo[-1], hi[-1]
            for r, last in zip(rs, lasts):
                # last * t >= r
                if last > 0:
                    a = max(a, -(-r // last))
                elif last < 0:
                    b = min(b, r // last)
                elif r > 0:
                    b = a - 1  # the line misses N*P
            rs = list(map(sub, rs, steps))
            if a > b:
                continue
            sums = {j: _power_sum(d, a, b) for j, d in diffs.items()}
            for head_exps, j, coeff in terms:
                total += coeff * math.prod(map(pow, head, head_exps)) * sums[j]
    return F(total, scale * n ** (deg + poly.dim))


@dataclass(frozen=True)
class WeightedEhrhart:
    """The polynomial T(N) = N^{dim P + deg phi} * R_N(P; phi).

    `coeffs` lists t_0..t_D ascending, D = dim + deg; the expansion
    coefficients are read off the top: A_n = t_{D-n}.  The leading
    coefficient equals the integral of phi over P.
    """

    coeffs: tuple
    dim: int
    deg: int

    @property
    def degree_bound(self) -> int:
        return self.dim + self.deg

    def eval(self, n: int) -> Fraction:
        total = F(0)
        power = F(1)
        for c in self.coeffs:
            total += c * power
            power *= n
        return total

    def a_coefficients(self, n_max: Optional[int] = None) -> list:
        d = self.degree_bound
        n_max = d if n_max is None else n_max
        if not _is_int(n_max):
            raise ValueError("n_max must be an integer")
        return [self.coeffs[d - n] if n <= d else F(0) for n in range(n_max + 1)]


def weighted_ehrhart(
    poly: LatticePolytope,
    phi: MultiPoly,
    budget: int = DEFAULT_BUDGET,
) -> WeightedEhrhart:
    """Interpolate T(N) = N^{dim+deg} R_N(P;phi) from N = 1..dim+deg+1 and
    verify the interpolation at two further points.

    For a lattice polytope T is a polynomial of degree at most dim+deg; a
    verification failure raises
    ValueError("not a polynomial — bug or non-lattice input").
    """
    d = poly.dim + phi.degree()
    samples = []
    for n in range(1, d + 2):
        samples.append(riemann_sum(poly, phi, n, budget) * F(n) ** d)
    vmat = tuple(tuple(F(n) ** j for j in range(d + 1)) for n in range(1, d + 2))
    coeffs = solve_unique(vmat, samples)
    if coeffs is None:
        raise AssertionError("Vandermonde systems are invertible")
    result = WeightedEhrhart(coeffs=tuple(coeffs), dim=poly.dim, deg=phi.degree())
    for n in (d + 2, d + 3):
        expected = riemann_sum(poly, phi, n, budget) * F(n) ** d
        if result.eval(n) != expected:
            raise ValueError("not a polynomial — bug or non-lattice input")
    return result


def coefficients_from_oracle(
    poly: LatticePolytope,
    phi: MultiPoly,
    n_max: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """Expansion coefficients [A_0, ..., A_{n_max}] of R_N(P;phi), read off
    the interpolated weighted Ehrhart polynomial (A_n = 0 beyond dim+deg).
    """
    return weighted_ehrhart(poly, phi, budget).a_coefficients(n_max)


# ---------------------------------------------------------------------------
# rational exponentials and Szasz functions


def exp_rational(s: Fraction) -> Fraction:
    """Rational approximation of e^s with relative error below 10^-30.

    For s >= 0 the Taylor partial sum through order K has tail at most
    2 s^{K+1}/(K+1)! once K + 2 >= 2s, which is driven below
    10^-30 e^s (and e^s >= 1); negative s uses the reciprocal, which
    preserves relative error up to a factor absorbed in the margin.
    """
    s = F(s)
    if s < 0:
        return 1 / exp_rational(-s)
    term = F(1)
    total = F(1)
    k = 0
    while True:
        k += 1
        term = term * s / k
        total += term
        if k + 2 >= 2 * s and 2 * term * 10 ** 30 <= total:
            return total


def szasz_eval(
    phi: MultiPoly,
    x: Sequence[Fraction],
    n: int,
    truncation: int = 200,
) -> Fraction:
    """Evaluate the Szasz function of the standard orthant,

        S_N(phi)(x) = sum_{gamma in Z_+^k} (Nx)^gamma/gamma! e^{-sum Nx(e)}
                      phi(gamma/N),

    truncating each coordinate sum at `truncation` and evaluating the
    exponential with exp_rational.  All arithmetic is rational; the result
    carries the truncation and exponential errors only (negligible at the
    default truncation for Nx(e) up to a few dozen).
    """
    x = as_vector(x)
    if phi.nvars != len(x):
        raise ValueError("dimension mismatch")
    if any(c < 0 for c in x):
        raise ValueError("Szasz evaluation requires a point in the orthant")
    if not _is_int(n) or n < 1:
        raise ValueError("the dilation factor must be a positive integer")
    if not _is_int(truncation) or truncation < 0:
        raise ValueError("truncation must be a non-negative integer")
    k = len(x)
    y = [n * c for c in x]

    axis_cache: dict = {}

    def axis_sum(i: int, power: int) -> Fraction:
        # sum_{g=0}^{T} y_i^g g^power / g!
        key = (i, power)
        if key not in axis_cache:
            total = F(0)
            weight = F(1)  # y^g / g!
            for g in range(truncation + 1):
                if g > 0:
                    weight = weight * y[i] / g
                total += weight * g ** power
            axis_cache[key] = total
        return axis_cache[key]

    acc = F(0)
    for exps, coeff in phi.terms.items():
        prod = coeff * F(1, n ** sum(exps))
        for i, e in enumerate(exps):
            prod *= axis_sum(i, e)
        acc += prod
    return acc * exp_rational(-sum(y))


# ---------------------------------------------------------------------------
# twisted sums on the half line


def _abel_power_sum(j: int, omega: CycloElem) -> CycloElem:
    """The Abel-regularized sum sum_{k>=0} k^j omega^k for a root of unity
    omega != 1, via k^j = sum_i S(j,i) k(k-1)...(k-i+1):

        sum_k k^j omega^k = sum_{i=0}^{j} S(j,i) i! omega^i / (1-omega)^{i+1}.
    """
    q = omega.order
    one = CycloElem.one(q)
    inv = (one - omega).inverse()
    total = CycloElem.zero(q)
    for i in range(j + 1):
        s = stirling2(j, i)
        if s:
            total = total + s * math.factorial(i) * omega ** i * inv ** (i + 1)
    return total


def twisted_riemann_1d(q: int, omega, phi: MultiPoly, n: int) -> CycloElem:
    """The Abel-regularized twisted Riemann sum on the half line,

        R^omega_N(phi) = (1/N) sum_{k>=0} omega^k phi(k/N),

    for a univariate polynomial phi and a primitive q-th root of unity
    omega.  The divergent power sums are Abel-regularized, which makes the
    twisted Euler-Maclaurin expansion terminate exactly; the result is an
    exact cyclotomic number.
    """
    omega = _check_twist(q, omega)
    if phi.nvars != 1:
        raise ValueError("twisted sums are one-dimensional")
    if not _is_int(n) or n < 1:
        raise ValueError("the dilation factor must be a positive integer")
    total = CycloElem.zero(q)
    for exps, coeff in phi.terms.items():
        j = exps[0]
        total = total + coeff * F(1, n ** j) * _abel_power_sum(j, omega)
    return total * F(1, n)
