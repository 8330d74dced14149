"""Differential operator calculus on simplicial rational cones.

A simplicial cone with labeled generators E carries a family of
integration by parts operators L(E; I, J; alpha): constant coefficient
homogeneous differential operators that arise when derivatives along the
generators are traded for derivatives perpendicular to a face.  They are
defined by a recursion that peels one derivative at a time and,
independently, by an explicit symbol construction that divides a
polynomial by the linear forms attached to the face.  Both routes are
implemented here and tested against each other.

Combining these operators with the one dimensional Euler-Maclaurin
kernel values p(n) yields the Berline-Vergne operators D_n(C; F) of a
unimodular cone C at a face F, the local building blocks of the
asymptotic expansion of lattice Riemann sums.

The generators need not span the ambient space.  All operators act on
ambient functions; their symbols are polynomials in the ambient dual
coordinates that depend only on the pairings with the span of the
generators.

The peeling recursion runs in the cell coordinates y_i = <xi, g_i>, in
integers: fraction-free solves on blocks of one integer Gram matrix per
cone, and symbols held as integer polynomials over one denominator, which
cells with equal Gram matrices share.  One integer composition takes a
symbol to the cone's output forms, its own generators or lifted ones
(`subdivide.cone_operator` sums the composed symbols of its cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import mul
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .combinat import _multi_index, compositions, p_of_n
from .exactcore import (
    MultiPoly,
    _integer_rows,
    _is_int,
    as_scalar,
    as_vector,
    bareiss,
    inner_product_matrix,
    mat_vec,
    matrix_inverse,
    nullspace_basis,
    orth_project,
    qform,
    transpose,
    vscale,
    vsub,
)

Vector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class DiffOp:
    """Constant coefficient differential operator given by its symbol.

    The symbol is a polynomial in the ambient dual coordinates; the
    monomial xi^beta stands for the mixed partial derivative of
    multi-order beta.  Our operators are homogeneous, so every symbol
    term has total degree `order`.
    """

    dim: int
    order: int
    symbol: MultiPoly

    @property
    def is_zero(self) -> bool:
        return self.symbol.is_zero()

    def apply(self, phi: MultiPoly) -> MultiPoly:
        """D phi = sum over the symbol's terms s_b xi^b of s_b d^b phi."""
        if self.dim != phi.nvars or self.symbol.nvars != phi.nvars:
            raise ValueError("dimension mismatch")
        out = MultiPoly.zero(phi.nvars)
        for beta, coeff in self.symbol.terms.items():
            out = out + phi.deriv(beta) * coeff
        return out

    def __repr__(self) -> str:
        return "DiffOp(order={}, symbol={!r})".format(self.order, self.symbol)


@dataclass(frozen=True)
class Deco:
    """Splitting of generators relative to a label subset.

    For each label e in the subset, the generator g_e decomposes as
    u[e] plus the combination sum over outside labels v of
    coeff[(e, v)] * g_v, where u[e] is Q-perpendicular to every
    generator outside the subset.  For the full label set the
    decomposition is trivial: u[e] = g_e.
    """

    u: Mapping[int, Vector]
    coeff: Mapping[Tuple[int, int], Fraction]


class _Cell:
    """The integer set-up of the peeling recursion on a simplicial cone: the
    Gram matrix (h_i^T qi h_j) of its integer rays h_i under an integer
    multiple qi of a definite inner product, the recursion's one input, and
    the output forms of the cell coordinates, y_i = <xi, f_i> / t, with f_i
    sparse integer forms on Q^m (the h_i themselves, or lifted images).
    With a `classes` dict, the cell orders its rays by (G_ii, sorted row i)
    and shares its Schur solves and symbols, which depend on G alone, with
    the earlier cells of that dict whose reordered G is equal.  G is kept
    divided by the gcd of its entries: scaling G by lambda scales each
    Schur determinant and solve of a block by the same power of lambda,
    so the symbols, in lowest terms, do not change."""

    __slots__ = ("dim", "ambient_dim", "_forms", "_den", "_gram", "_schur_cache", "_op_cache")

    def __init__(self, rays, qi, forms, t: int, m: int, classes: dict = None):
        qh = [[sum(map(mul, row, h)) for row in qi] for h in rays]
        gram = [[sum(map(mul, h, x)) for x in qh] for h in rays]
        if classes is None:
            classes, order = {}, range(len(rays))
        else:
            order = sorted(range(len(rays)), key=lambda i: (gram[i][i], sorted(gram[i])))
        g = math.gcd(*chain.from_iterable(gram)) or 1
        gram = tuple(tuple(gram[i][j] // g for j in order) for i in order)
        if gram not in classes:
            # under a definite Q, the rays are independent exactly when G is definite
            if not bareiss([list(row) for row in gram]):
                raise ValueError("cone generators must be linearly independent")
            classes[gram] = ({}, {})
        self.dim, self.ambient_dim, self._den, self._gram = len(rays), m, t, gram
        self._forms = [forms[i] for i in order]
        self._schur_cache, self._op_cache = classes[gram]


class UniCone(_Cell):
    """Simplicial rational cone with labeled generators.

    The generators are linearly independent rational vectors; labels
    are their positions 0..dim-1.  `qmat` is a symmetric positive
    definite inner product on the ambient space (identity when
    omitted).  The generators need not span the ambient space.
    Whether the generators form a lattice basis is the caller's
    concern; this class uses only the linear data.

    The constructor validates Q, writes g_i = h_i / t with integer h_i and
    scales Q to an integer matrix; `_Cell` takes the h_i as both rays and
    output forms, so symbols come out in the ambient dual coordinates.
    """

    __slots__ = ("gens", "qmat", "_sym_cache")

    def __init__(self, gens: Iterable[Sequence], qmat=None):
        glist = [as_vector(g) for g in gens]
        if not glist:
            raise ValueError("cone must have at least one generator")
        m = len(glist[0])
        if any(len(g) != m for g in glist):
            raise ValueError("generators must have equal length")
        q = inner_product_matrix(qmat, m)
        hs, t = _integer_rows(glist)
        super().__init__(hs, _integer_rows(q)[0], [{k: x for k, x in enumerate(h) if x} for h in hs], t, m)
        self.gens, self.qmat, self._sym_cache = tuple(glist), q, {}

    def labels(self) -> range:
        return range(self.dim)

    def __repr__(self) -> str:
        return "UniCone(gens={!r})".format(self.gens)


def _subset(cone: UniCone, labels: Iterable[int], nonempty: bool = False) -> tuple:
    out = set(labels)
    if not all(map(_is_int, out)):
        raise ValueError("generator labels must be integers")
    if any(not 0 <= x < cone.dim for x in out):
        raise ValueError("generator label out of range")
    if nonempty and not out:
        raise ValueError("label subset must be nonempty")
    return tuple(sorted(out))


def _schur(cone: _Cell, subset: tuple) -> tuple:
    """(delta, a) with g_e - sum over v in the complement c of a[e][v] /
    delta * g_v Q-perpendicular to every g_v, v in c, for each e in
    `subset`: one elimination of the integer blocks [G_cc | G_c,subset]."""
    hit = cone._schur_cache.get(subset)
    if hit is not None:
        return hit
    comp = [v for v in range(cone.dim) if v not in subset]
    rows = [[cone._gram[v][w] for w in comp + list(subset)] for v in comp]
    delta = bareiss(rows)
    if not delta:
        raise AssertionError(f"singular complement block: Gram block {comp} of {cone!r}")
    solved = {e: {v: r[j] for v, r in zip(comp, rows)} for j, e in enumerate(subset, len(comp))}
    cone._schur_cache[subset] = (delta, solved)
    return delta, solved


def deco(cone: UniCone, labels: Iterable[int]) -> Deco:
    """Split the generators in `labels` perpendicular to the others."""
    subset = _subset(cone, labels, nonempty=True)
    delta, solved = _schur(cone, subset)
    coeff = {(e, v): Fraction(a, delta) for e in subset for v, a in solved[e].items()}
    u = {e: cone.gens[e] for e in subset}
    for (e, v), c in coeff.items():
        u[e] = vsub(u[e], vscale(c, cone.gens[v]))
    return Deco(u, coeff)


def _as_alpha(alpha, inner: tuple) -> tuple:
    idx = _multi_index(alpha)
    if not {e for e, _ in idx} <= set(inner):
        raise ValueError("alpha must be supported on the inner label set")
    return idx


def _check_ibp_args(cone: UniCone, inner, outer, alpha):
    """(I, J, alpha, order) of L(E; inner, outer; alpha), alpha a `_multi_index` tuple."""
    I = _subset(cone, inner, nonempty=True)
    J = _subset(cone, outer)
    if not set(I) <= set(J):
        raise ValueError("inner label set must be contained in the outer one")
    a = _as_alpha(alpha, I)
    order = sum(x for _, x in a) - len(J) + len(I)
    if order < 0:
        raise ValueError("operator undefined: need |outer| <= |alpha| + |inner|")
    return I, J, a, order


def _ymul(terms: dict, form: Mapping[int, int]) -> dict:
    """Product of an integer polynomial {exponents: int} and a linear form."""
    out: Dict[tuple, int] = {}
    for exps, c in terms.items():
        for i, a in form.items():
            key = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
            out[key] = out.get(key, 0) + c * a
    return out


def _ysum(parts: Sequence[tuple], den: int = 1) -> tuple:
    """(sum over (c, (terms, d)) in parts of c * terms / d) / den, as
    (terms, denominator) in lowest terms; c and den are integers."""
    lcm = math.lcm(*(d for _, (_, d) in parts))
    out: Dict[tuple, int] = {}
    for c, (terms, d) in parts:
        f = c * (lcm // d)
        for exps, x in terms.items():
            out[exps] = out.get(exps, 0) + f * x
    g = math.gcd(lcm * den, *out.values())
    return {k: x // g for k, x in out.items() if x}, lcm * den // g


def _to_ambient(cone: _Cell, sym: tuple) -> tuple:
    """Compose a cell-coordinate symbol (terms, den) with y_i = <xi, f_i> / t
    over the cone's output forms f_i, in integers: (terms, den) in the
    ambient dual coordinates, whose order-k part stands for terms / (den t^k)."""
    terms, den = sym
    parts = []
    for exps, c in terms.items():
        part = {(0,) * cone.ambient_dim: c}
        for i in [i for i, e in enumerate(exps) for _ in range(e)]:
            part = _ymul(part, cone._forms[i])
        parts.append((1, (part, 1)))
    return _ysum(parts, den)


def _poly(sym: tuple, t: int, m: int) -> MultiPoly:
    """The Fraction polynomial of a `_to_ambient` result over forms with denominator t."""
    terms, den = sym
    return MultiPoly(m, {k: Fraction(x, den * t ** sum(k)) for k, x in terms.items()})


def _ibp_rec(cone: _Cell, I: tuple, J: tuple, alpha: tuple, rule: str) -> tuple:
    # the symbol of L(E; I, J; alpha) in cell coordinates, as (terms, den);
    # alpha is its sorted tuple of (label, positive exponent) pairs
    key = (I, J, alpha, rule)
    hit = cone._op_cache.get(key)
    if hit is not None:
        return hit
    if not alpha or I == J and len(J) == cone.dim:
        # no complement: the symbol is y^alpha (validity forces J == I
        # when alpha is empty)
        exps = dict(alpha)
        sym = ({tuple(exps.get(i, 0) for i in range(cone.dim)): 1}, 1)
    else:
        e = alpha[0][0] if rule == "min" else alpha[-1][0]
        beta = tuple((v, x - 1 if v == e else x) for v, x in alpha if (v, x) != (e, 1))
        delta, solved = _schur(cone, I)
        # delta * <xi, u_e> = delta * y_e - sum over v outside I of a_ev * y_v
        parts = []
        if len(J) < len(I) + sum(x for _, x in alpha):
            grad = {e: delta, **{v: -a for v, a in solved[e].items() if a}}
            terms, den = _ibp_rec(cone, I, J, beta, rule)
            parts.append((1, (_ymul(terms, grad), den)))
        for v in J:
            if solved[e].get(v):
                parts.append((solved[e][v], _ibp_rec(cone, tuple(sorted(I + (v,))), J, beta, rule)))
        sym = _ysum(parts, delta)
    cone._op_cache[key] = sym
    return sym


def ibp_op(cone: UniCone, inner, outer, alpha, pivot_rule: str = "min") -> DiffOp:
    """Integration by parts operator L(E; inner, outer; alpha).

    Computed by the peeling recursion: one derivative along a chosen
    generator of the inner set is split off, decomposed perpendicular
    to the inner face, and the remaining lower order operators are
    combined.  The result does not depend on which generator is peeled;
    `pivot_rule` ("min" or "max" label) exists so tests can verify
    that.  The operator is homogeneous of order
    |alpha| - |outer| + |inner| and differentiates only along
    directions perpendicular to the span of the outer complement.
    alpha maps inner labels to int exponents, as a mapping or a list of
    (label, exponent) pairs; any other exponent raises ValueError.
    """
    if pivot_rule not in ("min", "max"):
        raise ValueError("pivot_rule must be 'min' or 'max'")
    I, J, a, order = _check_ibp_args(cone, inner, outer, alpha)
    sym = _to_ambient(cone, _ibp_rec(cone, I, J, a, pivot_rule))
    return DiffOp(cone.ambient_dim, order, _poly(sym, cone._den, cone.ambient_dim))


def divide_by_linear_form(poly: MultiPoly, coeffs: Sequence) -> MultiPoly:
    """Exact quotient of a polynomial by a nonzero linear form.

    One variable is eliminated in favor of a slack variable equal to
    the form itself; the part of the rewritten polynomial that does not
    involve the slack is the restriction to the hyperplane where the
    form vanishes, so divisibility holds exactly when that part is
    zero.  Raises ValueError("polynomiality violated") otherwise.
    """
    a = [as_scalar(c) for c in coeffs]
    if len(a) != poly.nvars:
        raise ValueError("form length must match the number of variables")
    pivot = next((j for j, c in enumerate(a) if c != 0), None)
    if pivot is None:
        raise ValueError("cannot divide by the zero form")
    nv = poly.nvars
    if poly.is_zero():
        return poly
    slack = MultiPoly.variable(nv + 1, nv)
    sub = slack
    for j, c in enumerate(a):
        if j != pivot and c != 0:
            sub = sub - MultiPoly.variable(nv + 1, j) * c
    sub = sub * (Fraction(1) / a[pivot])
    images = [MultiPoly.variable(nv + 1, j) if j != pivot else sub for j in range(nv)]
    rewritten = poly.compose(images)
    quot_terms = {}
    for exps, c in rewritten.iter_terms():
        if exps[nv] == 0:
            raise ValueError("polynomiality violated")
        quot_terms[exps[:nv] + (exps[nv] - 1,)] = c
    quotient = MultiPoly(nv + 1, quot_terms)
    back = [MultiPoly.variable(nv, j) for j in range(nv)] + [MultiPoly.linear_form(a)]
    return quotient.compose(back)


def _symbol_rec(cone: UniCone, I: tuple, J: tuple, alpha: tuple) -> MultiPoly:
    # alpha is the sorted tuple of (label, positive exponent) pairs
    key = (I, J, alpha)
    hit = cone._sym_cache.get(key)
    if hit is not None:
        return hit
    m = cone.ambient_dim
    if J == I:
        dec = deco(cone, I)
        sym = MultiPoly.const(m, Fraction(1))
        for e, x in alpha:
            sym = sym * MultiPoly.linear_form(dec.u[e]) ** x
    else:
        dec = deco(cone, J)
        uvecs = [dec.u[e] for e in J]
        nv = len(J)
        ghat = [[qform(cone.qmat, ue, uf) for uf in uvecs] for ue in uvecs]
        pos = {e: i for i, e in enumerate(J)}

        def pairing(e: int) -> MultiPoly:
            # <xi(t), g_e> on the parametrized dual slice xi = sum t_f Q u_f;
            # the components of g_e outside the span of the u's pair to zero
            return MultiPoly.linear_form([ghat[f][pos[e]] for f in range(nv)])

        qu = [mat_vec(cone.qmat, uf) for uf in uvecs]
        to_t = [MultiPoly.linear_form([qu[f][i] for f in range(nv)]) for i in range(m)]
        num = MultiPoly.const(nv, Fraction(1))
        for e, x in alpha:
            num = num * pairing(e) ** x
        inner = set(I)
        rest = [e for e in J if e not in inner]
        for size in range(len(I), len(J)):
            for picked in combinations(rest, size - len(I)):
                smaller = tuple(sorted(I + picked))
                part = _symbol_rec(cone, I, smaller, alpha).compose(to_t)
                for e in picked:
                    part = part * pairing(e)
                num = num - part
        for e in rest:
            num = divide_by_linear_form(num, [ghat[f][pos[e]] for f in range(nv)])
        ginv = matrix_inverse(ghat)
        back = []
        for i, e in enumerate(J):
            form = MultiPoly.zero(m)
            for f in range(nv):
                if ginv[i][f] != 0:
                    form = form + MultiPoly.linear_form(uvecs[f]) * ginv[i][f]
            back.append(form)
        sym = num.compose(back)
    cone._sym_cache[key] = sym
    return sym


def ibp_symbol(cone: UniCone, inner, outer, alpha) -> DiffOp:
    """Integration by parts operator computed through its symbol.

    For outer = inner the symbol is the product of the pairings with
    the perpendicular parts of the inner generators.  Otherwise the
    defining polynomial identity is restricted to the dual slice
    parametrized by the perpendicular basis of the outer set, the
    already known lower symbols are subtracted, and the remainder is
    divided exactly by the pairings with the extra generators.  This
    route never consults the peeling recursion of `ibp_op`; agreement
    of the two is a correctness check.  alpha is taken as by `ibp_op`.
    """
    I, J, a, order = _check_ibp_args(cone, inner, outer, alpha)
    return DiffOp(cone.ambient_dim, order, _symbol_rec(cone, I, J, a))


def dual_projection(cone: UniCone, outer) -> tuple:
    """Matrix acting on dual coordinates that fixes the symbols of
    operators attached to the outer label set.

    It is the transpose of the Q-orthogonal projection whose kernel is
    spanned by the generators outside the outer set together with the
    Q-orthogonal complement of the span of all generators.
    """
    J = _subset(cone, outer)
    inside = set(J)
    kernel = [cone.gens[v] for v in cone.labels() if v not in inside]
    kernel.extend(nullspace_basis([mat_vec(cone.qmat, g) for g in cone.gens]))
    return transpose(orth_project(cone.qmat, kernel))


def ln_op(cone: UniCone, labels, n: int) -> DiffOp:
    """Euler-Maclaurin face operator with derivatives along generators.

    L_n(C; I) = (-1)^n sum over positive nu on I with |nu| = n of
    p_I(nu) = prod_e p(nu_e) times the mixed derivative of multi-order
    nu - e(I) along the generators; nu runs over the compositions of n
    into |I| parts, the e-th part on the e-th label of I.  L_0(C; {}) = 1;
    the operator is zero when the label set is empty (n >= 1) or larger
    than n.
    """
    if not _is_int(n) or n < 0:
        raise ValueError("order must be non-negative")
    I = _subset(cone, labels)
    m = cone.ambient_dim
    if not I:
        sym = MultiPoly.const(m, Fraction(1)) if n == 0 else MultiPoly.zero(m)
        return DiffOp(m, 0, sym)
    if len(I) > n:
        return DiffOp(m, 0, MultiPoly.zero(m))
    sign = Fraction(-1) ** n
    sym = MultiPoly.zero(m)
    for nu in compositions(n, len(I)):
        c = math.prod(map(p_of_n, nu)) * sign
        if c == 0:
            continue
        term = MultiPoly.const(m, c)
        for e, k in zip(I, nu):
            term = term * MultiPoly.linear_form(cone.gens[e]) ** (k - 1)
        sym = sym + term
    return DiffOp(m, n - len(I), sym)


def bv_op_unimodular(cone: UniCone, face_labels, n: int) -> DiffOp:
    """Berline-Vergne operator D_n(C; F) of a unimodular cone at a face.

    The face is named by the labels of the generators NOT contained in
    it, so the full label set names the vertex and the empty set names
    the cone itself.  Defined for n at least the codimension of the
    face; homogeneous of order n minus that codimension, with
    derivatives perpendicular to the face.  D_0(C; C) = 1 and
    D_n(C; C) = 0 for n >= 1.

    The weights p_I(nu) depend only on the parts of nu, not on the labels
    that carry them: each call lists the compositions of n into r parts
    (`combinat.compositions`), keeps one table of their nonzero weights as
    integers over one denominator, and maps it onto every r-subset of the
    labels.
    """
    if not _is_int(n) or n < 0:
        raise ValueError("order must be non-negative")
    out = _subset(cone, face_labels)
    if n < len(out):
        raise ValueError("operator requires order at least the codimension of the face")
    sym = _poly(_to_ambient(cone, _bv_sym(cone, out, n)), cone._den, cone.ambient_dim)
    # D_n(C; C) is the constant 1 or 0, of order 0
    return DiffOp(cone.ambient_dim, n - len(out) if out else 0, sym)


def _bv_sym(cone: _Cell, out: tuple, n: int) -> tuple:
    """The symbol of D_n(C; F) in cell coordinates, as integer (terms, den), for
    F named by a label tuple `out` and n >= len(out); memoized per Gram class."""
    if not out:
        return ({(0,) * cone.dim: 1} if n == 0 else {}), 1
    hit = cone._op_cache.get((out, n))
    if hit is not None:
        return hit
    ps = [p_of_n(k) for k in range(1, n + 1)]
    d = math.lcm(*(x.denominator for x in ps))
    a = [0] + [x.numerator * (d // x.denominator) for x in ps]
    rmax, sign, parts = min(n, len(out)), (-1) ** (n - len(out)), []
    for r in range(1, rmax + 1):
        weights = ((math.prod(a[k] for k in nu), nu) for nu in compositions(n, r))
        table = [(sign * w * d ** (rmax - r), nu) for w, nu in weights if w]
        for picked in combinations(out, r):
            for w, nu in table:
                alpha = tuple((e, k - 1) for e, k in zip(picked, nu) if k > 1)
                parts.append((w, _ibp_rec(cone, picked, out, alpha, "min")))
    sym = cone._op_cache[out, n] = _ysum(parts, d ** rmax)
    return sym


def vertex_op(cone: UniCone, n: int) -> DiffOp:
    """Berline-Vergne operator of the cone at its vertex."""
    return bv_op_unimodular(cone, cone.labels(), n)
