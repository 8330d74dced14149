"""Exact arithmetic substrate: rational linear algebra, the integer Smith
normal form, sparse multivariate polynomials, the inverse of a truncated
power series, and small cyclotomic fields.

Every computation in this package routes through the types defined here and
all of them are exact.  Scalars are `fractions.Fraction`; vectors are tuples
of Fractions; matrices are tuples of row tuples.  The two coefficient rings
that occur are Q (Fraction) and the cyclotomic fields Q(omega) for omega a
primitive q-th root of unity with 2 <= q <= 12 (CycloElem).  No floating
point appears anywhere: `as_scalar` rejects floats, and `MultiPoly` sends
through it every coefficient that is not a Fraction or CycloElem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Scalar = Fraction
ScalarLike = Union[int, Fraction, str]

CYCLO_MAX_ORDER = 12


# ---------------------------------------------------------------------------
# scalar / vector / matrix construction


def _is_int(x) -> bool:
    """The package's one integer test: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_scalar(x: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' or decimal string to an exact rational;
    a string with an exponent raises ValueError (Fraction would build 10^e)."""
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x.lower():
            raise ValueError(f"exponent notation is not a rational: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def as_vector(xs: Iterable[ScalarLike]) -> tuple:
    return tuple(as_scalar(x) for x in xs)


def as_matrix(rows: Iterable[Iterable[ScalarLike]]) -> tuple:
    mat = tuple(as_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows must all have the same length")
    return mat


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, v: Sequence[Fraction]) -> tuple:
    return tuple(c * a for a in v)


def vdot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def identity_matrix(m: int) -> tuple:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(m))
        for i in range(m)
    )


def transpose(mat: Sequence[Sequence[Fraction]]) -> tuple:
    return tuple(zip(*mat)) if mat else ()


def mat_vec(mat: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple:
    return tuple(vdot(row, v) for row in mat)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> tuple:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def qform(q: Sequence[Sequence[Fraction]], u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """The bilinear form u^T Q v."""
    return vdot(u, mat_vec(q, v))


# ---------------------------------------------------------------------------
# rational Gaussian elimination


def _eliminate(mat: Sequence[Sequence[ScalarLike]]) -> tuple:
    """Fraction-free Gauss-Jordan elimination with row pivoting (Bareiss
    exact division), on each row scaled to integers by the lcm of its
    denominators.  Returns (rows, pivot_columns, delta): the reduced row
    echelon form is rows / delta, delta being the last pivot."""
    rows = []
    for r in mat:
        r = [x if type(x) in (int, Fraction) else as_scalar(x) for x in r]
        s = math.lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (s // x.denominator) for x in r])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    delta = 1
    for c in range(ncols):
        if len(pivots) == nrows:
            break
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // delta for x, y in zip(row, prow)]
        delta = p
        pivots.append(c)
    return rows, tuple(pivots), delta


def _unimodular_basis(vecs: Sequence[Sequence[int]]) -> bool:
    """True when the integer vectors `vecs` are k vectors in Z^k with
    |det| = 1: `_eliminate` finds k pivots, the last |delta| being |det|."""
    if len(vecs) != len(vecs[0]):
        return False
    _, pivots, delta = _eliminate(vecs)
    return len(pivots) == len(vecs) and abs(delta) == 1


def rref(mat: Sequence[Sequence[Fraction]]) -> tuple:
    """Exact reduced row echelon form.  Returns (rows, pivot_columns).

    One fraction-free elimination (`_eliminate`) in integers; each entry
    is divided by the last pivot once, at the end."""
    rows, pivots, delta = _eliminate(mat)
    return tuple(tuple(Fraction(x, delta) for x in row) for row in rows), pivots


def matrix_rank(mat: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate(mat)[1])


def solve_unique(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve mat @ x = rhs when the solution exists and is unique.

    Returns the solution vector, or None if the system is inconsistent.
    Raises if the columns are dependent (solution not unique).
    """
    ncols = len(mat[0]) if mat else 0
    aug = tuple(tuple(row) + (b,) for row, b in zip(mat, rhs, strict=True))
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("solve_unique requires independent columns")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols]
    return tuple(x)


def _scaled_inverse(mat: Sequence[Sequence[ScalarLike]]) -> tuple:
    """(A, delta) with mat^-1 = A / delta and A an integer matrix, from one
    fraction-free elimination (`_eliminate`) of [mat | I]."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("inverse requires a square matrix")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, pivots, delta = _eliminate([list(row) + e for row, e in zip(mat, eye)])
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows], delta


def matrix_inverse(mat: Sequence[Sequence[Fraction]]) -> tuple:
    scaled, delta = _scaled_inverse(mat)
    return tuple(tuple(Fraction(x, delta) for x in row) for row in scaled)


def nullspace_basis(mat: Sequence[Sequence[Fraction]]) -> list:
    """Rational basis of the right kernel, in a canonical (rref) form."""
    if not mat:
        return []
    ncols = len(mat[0])
    reduced, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def is_symmetric(mat: Sequence[Sequence[Fraction]]) -> bool:
    n = len(mat)
    return all(len(r) == n for r in mat) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n)
    )


def bareiss(rows: list) -> int:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows, in place:
    the leading block becomes delta * I, delta its determinant, the rest adj * rest;
    0 instead when a leading principal minor is not positive."""
    delta = 1
    for p, prow in enumerate(rows):
        if prow[p] <= 0:
            return 0
        for i, row in enumerate(rows):
            if i != p:
                rows[i] = [(prow[p] * x - row[p] * y) // delta for x, y in zip(row, prow)]
        delta = prow[p]
    return delta


def _integer_rows(mat: Sequence[Sequence[Fraction]]) -> tuple:
    """(s * mat as integer rows, s) for s the lcm of the entries' denominators."""
    s = math.lcm(*(x.denominator for row in mat for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in mat], s


def is_spd(mat: Sequence[Sequence[Fraction]]) -> bool:
    """Symmetric with positive leading minors: the pivots of `bareiss` on an integer multiple."""
    return is_symmetric(mat) and bool(bareiss(_integer_rows(mat)[0]))


def inner_product_matrix(qmat, m: int) -> tuple:
    """The inner product on Q^m: the identity when qmat is None, else qmat
    as a matrix, which must be m x m and symmetric positive definite."""
    if qmat is None:
        return identity_matrix(m)
    qmat = as_matrix(qmat)
    if len(qmat) != m or not is_spd(qmat):
        raise ValueError("inner product matrix must be symmetric positive definite")
    return qmat


def orth_project(qmat: Sequence[Sequence[Fraction]], basis: Sequence[Sequence[Fraction]]) -> tuple:
    """Matrix of the Q-orthogonal projection onto the Q-orthocomplement of
    span(basis), acting on column vectors of the ambient space.

    An empty basis gives the identity.  The dual (covector-side) projection
    is the transpose of the returned matrix.
    """
    qmat = inner_product_matrix(qmat, len(qmat))
    m = len(qmat)
    basis = [as_vector(b) for b in basis]
    if not basis:
        return identity_matrix(m)
    if any(len(b) != m for b in basis):
        raise ValueError("basis vectors must match the inner product dimension")
    if matrix_rank(basis) != len(basis):
        raise ValueError("subspace basis must be linearly independent")
    bmat = transpose(basis)  # m x k, columns are the basis vectors
    gram = tuple(
        tuple(qform(qmat, bi, bj) for bj in basis) for bi in basis
    )
    ginv = matrix_inverse(gram)
    # P = I - B G^{-1} B^T Q
    correction = mat_mul(mat_mul(bmat, ginv), mat_mul(transpose(bmat), qmat))
    proj = tuple(
        tuple(int(i == j) - correction[i][j] for j in range(m))
        for i in range(m)
    )
    if mat_mul(proj, proj) != proj:
        raise AssertionError("projector must be idempotent")
    return proj


# ---------------------------------------------------------------------------
# integer lattices: Smith normal form


def _integer_vectors(vectors: Iterable[Sequence[ScalarLike]], what: str) -> list:
    """The vectors as integer tuples, all of one length; `what` names them
    in the error raised otherwise."""
    vecs = [as_vector(v) for v in vectors]
    if any(x.denominator != 1 for v in vecs for x in v):
        raise ValueError(f"{what} must have integer entries")
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise ValueError(f"{what} must all have the same length")
    return [tuple(map(int, v)) for v in vecs]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with D = U @ mat @ V, U and V unimodular, and the
    diagonal of D nonnegative with d_i | d_{i+1}.
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    k = len(a[0]) if a else 0
    u = [list(r) for r in ((1 if i == j else 0 for j in range(m)) for i in range(m))]
    v = [list(r) for r in ((1 if i == j else 0 for j in range(k)) for i in range(k))]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, k):
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, k)
            if a[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                add_row(t, i, -(a[i][t] // a[t][t]))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, k):
            if a[t][j] != 0:
                add_col(t, j, -(a[t][j] // a[t][t]))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        bad = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, k)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if bad is not None:
            add_row(bad[0], t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    umat = tuple(tuple(x) for x in u)
    dmat = tuple(tuple(x) for x in a)
    vmat = tuple(tuple(x) for x in v)
    return umat, dmat, vmat


def _lattice_frame(gens: Sequence[Sequence[int]]) -> tuple:
    """(basis, rows) from one Smith form U G V = D of an integer m x k G of
    rank r: the first r columns of U^-1 are a basis of span_Q(G) cap Z^m,
    and the last m - r rows of U map Z^m onto Z^(m - r) with that kernel."""
    u, dmat, _ = smith_normal_form(transpose(gens))  # m x k
    r = sum(1 for i in range(min(len(dmat), len(dmat[0]))) if dmat[i][i])
    uinv, delta = _scaled_inverse(u)
    if abs(delta) != 1:
        raise AssertionError("U is unimodular")
    return tuple(tuple(row[j] * delta for row in uinv) for j in range(r)), u[r:]


def saturation_basis(generators: Sequence[Sequence[ScalarLike]]) -> list:
    """A basis of span_Q(generators) cap Z^m, from `_lattice_frame`."""
    gens = _integer_vectors(generators, "lattice generators")
    if not gens or all(all(x == 0 for x in g) for g in gens):
        raise ValueError("empty generating set")
    return list(_lattice_frame(gens)[0])


def primitive_vector(v: Sequence[ScalarLike]) -> tuple:
    """The primitive integer vector on the ray through v (v must be rational
    and nonzero), in integers off the entries' numerators and denominators."""
    vec = [x if type(x) in (int, Fraction) else as_scalar(x) for x in v]
    denom = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _monomial_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _power(base, n: int, one):
    """base ** n by square-and-multiply, in the ring whose unit is `one`
    (MultiPoly and CycloElem share it); n < 0 takes base.inverse()."""
    if not _is_int(n):
        raise ValueError("exponent must be an integer")
    if n < 0:
        base, n = base.inverse(), -n
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class MultiPoly:
    """Sparse multivariate polynomial: {exponent tuple: coefficient}.

    Coefficients are Fractions (or CycloElem for twisted series work);
    any other coefficient goes through `as_scalar`, so a float raises
    TypeError.  The number of variables and the exponents must pass
    `_is_int` and be nonnegative, else ValueError.  Terms with zero
    coefficient are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if not (_is_int(nvars) and nvars >= 0):
            raise ValueError("nvars must be a non-negative integer")
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars or not all(_is_int(e) and e >= 0 for e in exps):
                raise ValueError("exponent tuples must be nonnegative and match nvars")
            if not isinstance(coeff, (Fraction, CycloElem)):
                coeff = as_scalar(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        if not (_is_int(i) and 0 <= i < nvars):
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Sequence[ScalarLike]) -> "MultiPoly":
        coeffs = as_vector(coeffs)
        n = len(coeffs)
        return cls(
            n,
            {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(coeffs)
                if c
            },
        )

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=Fraction(1)) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.const(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other if isinstance(other, MultiPoly) else -as_scalar(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if self.nvars != other.nvars:
            raise ValueError("dimension mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        return _power(self, n, MultiPoly.const(self.nvars, Fraction(1)))

    def inverse(self):
        """Polynomials take no negative powers here, not even units."""
        raise ValueError("negative power of a polynomial")

    def eval(self, point: Sequence) -> object:
        """Evaluate at a point (entries CycloElem, or else `as_scalar`'s)."""
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        point = [x if isinstance(x, (Fraction, CycloElem)) else as_scalar(x) for x in point]
        total = Fraction(0)
        powers = [{0: Fraction(1)} for _ in range(self.nvars)]
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = point[i] ** e
                    term = term * cache[e]
            total = total + term
        return total

    def deriv(self, beta: Sequence[int]) -> "MultiPoly":
        """Mixed partial derivative of multi-order beta: a term c x^e goes to
        c (prod_i e_i! / (e_i - beta_i)!) x^(e - beta), and to 0 unless
        e >= beta, where the falling factorial `math.perm` is 0."""
        if len(beta) != self.nvars:
            raise ValueError("dimension mismatch")
        out = {}
        for exps, coeff in self.terms.items():
            if falling := math.prod(map(math.perm, exps, beta)):
                out[tuple(e - b for e, b in zip(exps, beta))] = coeff * falling
        return MultiPoly(self.nvars, out)

    def compose(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute x_i -> images[i] (all images share one variable count)."""
        if len(images) != self.nvars:
            raise ValueError("dimension mismatch")
        target = images[0].nvars if images else 0
        if any(img.nvars != target for img in images):
            raise ValueError("substitution images must share one variable count")
        power_cache: dict = {}

        def img_power(i: int, e: int) -> "MultiPoly":
            if (i, e) not in power_cache:
                power_cache[(i, e)] = images[i] ** e
            return power_cache[(i, e)]

        out = MultiPoly.zero(target)
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(target, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * img_power(i, e)
            out = out + term
        return out

    def iter_terms(self):
        """Terms in graded lexicographic order (degree, then exponents)."""
        for exps in sorted(self.terms, key=_monomial_key):
            yield exps, self.terms[exps]

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps, coeff in self.iter_terms():
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# truncated power series


def _series_inverse(coeffs: Sequence) -> list:
    """The coefficients of 1 / (sum_n coeffs[n] z^n) up to the same order,
    over Q or a cyclotomic field; the constant term must be nonzero."""
    if not coeffs[0]:
        raise ValueError("series with zero constant term has no inverse")
    inv0 = 1 / coeffs[0]
    out = [inv0]
    for n in range(1, len(coeffs)):
        out.append(-(sum(coeffs[k] * out[n - k] for k in range(1, n + 1)) * inv0))
    return out


def series_coeffs_todd(n_max: int) -> list:
    """Coefficients b_0..b_{n_max} of Todd(-z) = -z/(1 - e^z) = sum b_n z^n / n!.

    b_0 = 1, b_1 = -1/2, b_2 = 1/6, and b_n = 0 for odd n >= 3.
    """
    if not _is_int(n_max) or n_max < 0:
        raise ValueError("n_max must be nonnegative")
    inv = _series_inverse([Fraction(1, math.factorial(j + 1)) for j in range(n_max + 1)])
    return [math.factorial(n) * inv[n] for n in range(n_max + 1)]


def _check_twist(q: int, omega) -> CycloElem:
    if not _is_int(q) or not 2 <= q <= CYCLO_MAX_ORDER:
        raise ValueError(f"cyclotomic order must be between 2 and {CYCLO_MAX_ORDER}")
    if omega is None:
        omega = CycloElem.omega(q)
    if not isinstance(omega, CycloElem) or omega.order != q:
        raise ValueError("omega must be a CycloElem of order q")
    if omega == 1:
        raise ValueError("twisted Todd undefined at omega = 1 (pole)")
    if not omega.is_primitive_root():
        raise ValueError("omega must be a primitive q-th root of unity")
    return omega


def series_coeffs_twisted_todd(q: int, omega, n_max: int) -> list:
    """Coefficients of the twisted Todd series tau_omega(s) = s/(1 - omega e^{-s})
    for omega a primitive q-th root of unity (as CycloElem), q >= 2.

    Returns [b^omega_1, ..., b^omega_{n_max}] where b^omega_n is the
    coefficient of s^n.  In particular b^omega_1 = 1/(1 - omega).
    """
    omega = _check_twist(q, omega)
    if not _is_int(n_max) or n_max < 1:
        raise ValueError("n_max must be at least 1")
    one = CycloElem.one(q)
    # 1 - omega e^{-s} = (1 - omega) + omega * sum_{k>=1} (-1)^{k+1} s^k / k!
    denom = [one - omega]
    for k in range(1, n_max):
        sign = Fraction((-1) ** (k + 1), math.factorial(k))
        denom.append(omega * sign)
    # tau = s * inv, so the coefficient of s^n is inv[n-1]
    inv = _series_inverse(denom)
    return [inv[n - 1] for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# cyclotomic fields Q(omega), omega a primitive q-th root of unity, q <= 12


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    """(quotient, remainder) of num by the monic den, coefficients low to high."""
    rem, quot = list(num), []
    while len(rem) >= len(den):
        f = rem[-1]
        for i, c in enumerate(den, len(rem) - len(den)):
            rem[i] -= f * c
        rem.pop()
        quot.append(f)
    return _poly_trim(quot[::-1]), _poly_trim(rem)


@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(q: int) -> tuple:
    """Coefficients (low to high) of the q-th cyclotomic polynomial."""
    if not _is_int(q) or q < 1:
        raise ValueError("cyclotomic order must be positive")
    if q == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (q + 1)
    num[0], num[q] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, q):
        if q % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise AssertionError(
            "x^q - 1 is divisible by the product of lower cyclotomics"
        )
    return tuple(quot)


class CycloElem:
    """Element of Q(omega) = Q[x] / Phi_q(x), omega a primitive q-th root of
    unity, 2 <= q <= 12.  Stored as the canonical reduced coefficient tuple
    of length deg Phi_q.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, q: int, coeffs: Sequence[ScalarLike]):
        if not _is_int(q) or not 1 <= q <= CYCLO_MAX_ORDER:
            raise ValueError(f"cyclotomic order must be between 1 and {CYCLO_MAX_ORDER}")
        phi = cyclotomic_polynomial(q)
        deg = len(phi) - 1
        poly = [as_scalar(c) for c in coeffs]
        _, rem = _poly_divmod(poly, phi)
        rem = rem + [Fraction(0)] * (deg - len(rem))
        self.order = q
        self.coeffs = tuple(rem)

    @classmethod
    def zero(cls, q: int) -> "CycloElem":
        return cls(q, [])

    @classmethod
    def one(cls, q: int) -> "CycloElem":
        return cls(q, [1])

    @classmethod
    def from_rational(cls, q: int, r: ScalarLike) -> "CycloElem":
        return cls(q, [as_scalar(r)])

    @classmethod
    def omega(cls, q: int) -> "CycloElem":
        """The canonical primitive q-th root of unity, the class of x."""
        return cls(q, [0, 1])

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(self.order, other)
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not self

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.order, _poly_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """The y with self * y = 1, from `solve_unique` on the columns
        self * omega^j, j < deg Phi_q.  Phi_q is irreducible over Q, so
        every nonzero element is a unit and the columns are independent."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        omega = CycloElem.omega(self.order)
        columns = [self]
        while len(columns) < len(self.coeffs):
            columns.append(columns[-1] * omega)
        rows = transpose([c.coeffs for c in columns])
        return CycloElem(self.order, solve_unique(rows, CycloElem.one(self.order).coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "CycloElem":
        return _power(self, n, CycloElem.one(self.order))

    def is_primitive_root(self) -> bool:
        """True when self is a primitive root of unity of exactly its order."""
        if self ** self.order != CycloElem.one(self.order):
            return False
        for d in range(1, self.order):
            if self.order % d == 0 and self ** d == CycloElem.one(self.order):
                return False
        return True

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloElem(q={self.order}, {list(self.coeffs)})"
