"""Asymptotic Euler-Maclaurin expansion of Riemann sums over lattice polytopes.

For a lattice polytope P and a polynomial phi the Riemann sum
N^{-m} sum_{x in P cap Z^m/N} phi(x) has a terminating expansion in 1/N
whose coefficient A_n is a sum of integrals over the faces of P of
codimension at most n: each face contributes its transverse cone's
Berline-Vergne operator, lifted back to the ambient space and applied
to phi.  The lift is no separate step: `_cone_operator` composes each
cell's symbol straight to the face's lifted generators through the
transverse cone's basis B (a vertex has B = I); B and G, kept by the
polytope per Q and direction space, go to it as `transverse_cone`
returns them, and it scales them to integers once per cone.  No D_n phi
is built: each integral is read off the operator's symbol, phi's terms
and the face's moment table (`LatticePolytope.face_moment`), which
depends on neither phi, Q nor n, and which one integer recursion up the
face lattice fills, from the facets of each face and their lattice
heights.
The lifted operator of a face of codimension c is homogeneous of order
n - c, so it kills phi once n > c + deg(phi): those entries are 0, and
no operator of such an order is built for them.
Antipodal faces share one operator: -I is in GL_d(Z) and keeps every G,
so cone equivariance gives D_n(-C; G)(xi) = D_n(C; G)(-xi), and a face
whose transverse cone is -C (same direction space, hence same G and B)
for a C built earlier in the call takes C's operator with the sign
(-1)^(n - codim) and builds none.
The totals are independent of the inner product used to realize the
quotient spaces; the per-face pieces are not.

Closed forms, independent references that `expansion` never calls, cover
A_0 and A_1 (any Delzant polytope), A_2 (Delzant; the formula uses the dot
product of the facet normals, and A_2 is the same under every inner
product), and every order in dimension two (Delzant, any inner product).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .conecalc import DiffOp
from .exactcore import (
    MultiPoly,
    _is_int,
    as_vector,
    inner_product_matrix,
    qform,
    series_coeffs_todd,
    vdot,
    vscale,
    vsub,
)
from .geometry import (
    LatticePolytope,
    integrate_poly_over_face,
    is_delzant,
    transverse_cone,
)
from .subdivide import STRATEGIES, _cone_operator


@dataclass(frozen=True)
class ExpansionResult:
    """Coefficients A_0..A_{n_max} with their per-face breakdown.

    per_face maps (n, face_index) to that face's contribution to A_n;
    every A_n equals the sum of its per-face entries.  complete is set
    when n_max reached dim(P) + deg(phi), past which all coefficients
    vanish.  valuation_used records whether any face needed the signed
    subdivision route (a non-unimodular transverse cone).
    """

    coefficients: tuple
    per_face: dict
    qmat: tuple
    n_max: int
    complete: bool
    valuation_used: bool

    def coefficient(self, n: int) -> Fraction:
        if not _is_int(n) or n < 0:
            raise ValueError("order must be non-negative")
        if n <= self.n_max:
            return self.coefficients[n]
        if self.complete:
            return Fraction(0)
        raise ValueError("coefficient beyond computed range")

    def items(self) -> list:
        return list(enumerate(self.coefficients))

    def __repr__(self) -> str:
        coeffs = ", ".join(str(c) for c in self.coefficients)
        return f"ExpansionResult([{coeffs}], complete={self.complete})"


def expansion(
    poly: LatticePolytope,
    phi: MultiPoly,
    qmat=None,
    n_max: Optional[int] = None,
    strategy: str = "default",
) -> ExpansionResult:
    """All expansion coefficients A_n(P; phi) for n <= n_max.

    n_max defaults to dim(P) + deg(phi), which makes the result exact:
    R_N(P; phi) = sum_n A_n N^{-n} for every integer N >= 1.  Each face
    of codimension <= n contributes the integral over the face of its
    lifted transverse-cone operator applied to phi; the polytope itself
    contributes int_P phi to A_0.  A face's entry past order codim +
    deg(phi) is 0, and no operator of that order is built for it.  Each
    face's operator is built once per polytope, Q and strategy, and each
    face moment once per polytope; both live as long as the polytope.  A
    face whose transverse cone is the negative of one built earlier in
    this call takes that operator, with the sign (-1)^order.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy")
    m = poly.ambient_dim
    if phi.nvars != m:
        raise ValueError(
            "polynomial must have one variable per ambient coordinate"
        )
    degree = phi.degree()
    n_max = poly.dim + degree if n_max is None else n_max
    if not _is_int(n_max):
        raise ValueError("n_max must be an integer")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    qused = inner_product_matrix(qmat, m)

    totals = [Fraction(0)] * (n_max + 1)
    per_face = {}
    valuation_used = False
    operators = poly.face_operators.setdefault((qused, strategy), {})
    # per call: Gram classes and the built operators by transverse cone
    classes, built = {}, {}
    for face in poly.faces:
        codim = poly.dim - face.dim
        if codim == 0:
            val = integrate_poly_over_face(poly, face, phi)
            per_face[(0, face.index)] = val
            totals[0] += val
            continue
        if codim > n_max:
            continue
        ops = operators.get(face.index)
        if ops is None:
            # n -> D_n(C_F; Q) lifted through B, memoized per order; the
            # induced Q is definite by construction, so it is not re-checked,
            # and functools.cache copies the `unimodular` attribute
            tcone = transverse_cone(poly, face, qmat if qmat is None else qused)
            space = face.quotient_rows
            twin = built.get((tuple(sorted(vscale(-1, g) for g in tcone.gens)), space))
            if twin is not None:
                ops = functools.cache(_antipode(twin))
            else:
                ops = _cone_operator(list(tcone.gens), tcone.dim, tcone.qmat, tcone.basis,
                                     strategy, classes)
                ops = built[tcone.gens, space] = functools.cache(ops)
            if not ops.unimodular and not valuation_used and is_delzant(poly):
                raise AssertionError("Delzant transverse cones must be unimodular")
            operators[face.index] = ops
        valuation_used = valuation_used or not ops.unimodular
        for n in range(codim, n_max + 1):
            val = (
                _integrate_operator(poly, face, ops(n).symbol, phi)
                if n <= codim + degree else Fraction(0)
            )
            per_face[(n, face.index)] = val
            totals[n] += val
    complete = n_max >= poly.dim + degree
    return ExpansionResult(
        coefficients=tuple(totals),
        per_face=per_face,
        qmat=qused,
        n_max=n_max,
        complete=complete,
        valuation_used=valuation_used,
    )


def _antipode(ops):
    """n -> D_n(-C) from n -> D_n(C): the symbol negated at odd orders."""

    def operator(n: int) -> DiffOp:
        op = ops(n)
        return DiffOp(op.dim, op.order, -op.symbol) if op.order % 2 else op

    operator.unimodular = ops.unimodular
    return operator


def _integrate_operator(poly: LatticePolytope, face, symbol, phi) -> Fraction:
    """int_F D phi for the operator D = sum_b s_b d^b: the sum of
    s_b c_a (a)_b int_F x^(a - b) over phi's terms c_a x^a, off the face's
    moment table, where (a)_b = prod perm(a_i, b_i) is 0 unless a >= b."""
    total = Fraction(0)
    for beta, s in symbol.terms.items():
        for alpha, c in phi.terms.items():
            falling = math.prod(map(math.perm, alpha, beta))
            if falling:
                rest = tuple(a - b for a, b in zip(alpha, beta))
                total += s * c * falling * poly.face_moment(face, rest)
    return total


# ---------------------------------------------------------------------------
# closed-form references


def _check_closed_form(poly: LatticePolytope, phi: MultiPoly) -> None:
    if not is_delzant(poly):
        raise ValueError("closed form requires a Delzant polytope")
    if phi.nvars != poly.ambient_dim:
        raise ValueError(
            "polynomial must have one variable per ambient coordinate"
        )


def closed_form_A0_A1(poly: LatticePolytope, phi: MultiPoly):
    """(A_0, A_1) for Delzant P: the integral over P and half the sum of
    the lattice-normalized facet integrals.  Both values are independent
    of the inner product."""
    _check_closed_form(poly, phi)
    a0 = integrate_poly_over_face(poly, poly.polytope_face, phi)
    a1 = Fraction(0)
    for facet in poly.faces_of_dim(poly.dim - 1):
        a1 += integrate_poly_over_face(poly, facet, phi)
    return a0, Fraction(1, 2) * a1


def closed_form_A2(poly: LatticePolytope, phi: MultiPoly):
    """A_2 for Delzant P: a facet term with the primitive inward normals and
    a codimension-two term from the two-dimensional transverse operators,
    both through the standard dot product of the normals.  A_2 is the same
    under every inner product Q, so the formula takes none."""
    _check_closed_form(poly, phi)
    total = Fraction(0)
    for facet in poly.faces_of_dim(poly.dim - 1):
        alpha = as_vector(poly.facets[facet.facet_ids[0]][0])
        grad = DiffOp(poly.ambient_dim, 1, MultiPoly.linear_form(alpha)).apply(phi)
        val = integrate_poly_over_face(poly, facet, grad)
        total -= Fraction(1, 12) * val / vdot(alpha, alpha)
    for ridge in poly.faces_of_dim(poly.dim - 2):
        if len(ridge.facet_ids) != 2:
            raise AssertionError("Delzant polytopes are simple")
        a1 = as_vector(poly.facets[ridge.facet_ids[0]][0])
        a2 = as_vector(poly.facets[ridge.facet_ids[1]][0])
        cross = vdot(a1, a2)
        weight = (
            Fraction(1, 4)
            - Fraction(1, 12) * (cross / vdot(a1, a1) + cross / vdot(a2, a2))
        )
        total += weight * integrate_poly_over_face(poly, ridge, phi)
    return total


def closed_form_2d(
    poly: LatticePolytope,
    phi: MultiPoly,
    n: int,
    qmat=None,
):
    """A_n (n >= 2) for a two-dimensional Delzant polytope, any rational
    inner product: edge terms -(b_n/n!) grad_{u_f}^{n-1} and the explicit
    two-dimensional vertex operators."""
    if poly.dim != 2:
        raise ValueError("closed form requires a two-dimensional polytope")
    _check_closed_form(poly, phi)
    if not _is_int(n) or n < 2:
        raise ValueError("closed form applies to order two and higher")
    qmat = inner_product_matrix(qmat, 2)
    bern = series_coeffs_todd(n)
    total = Fraction(0)

    # Edge terms.  u_f, the inward edge e2 projected Q-orthogonally off the
    # edge line e1 as u2 is at a vertex, generates the projected lattice.
    if bern[n]:
        for edge in poly.faces_of_dim(1):
            # the tangent directions and the edge's basis vector are all
            # primitive, so the directions along the edge are +-line
            line = edge.lineality_basis[0]
            trans = [d for d in edge.tangent_gens if d not in (line, tuple(-x for x in line))]
            if len(trans) != 1:
                raise AssertionError("an edge of a polygon has one inward edge")
            e1, e2 = as_vector(line), as_vector(trans[0])
            u_f = vsub(e2, vscale(qform(qmat, e1, e2) / qform(qmat, e1, e1), e1))
            coeff = -bern[n] / Fraction(math.factorial(n))
            sym = MultiPoly.linear_form(u_f) ** (n - 1) * coeff
            integrand = DiffOp(2, n - 1, sym).apply(phi)
            total += integrate_poly_over_face(poly, edge, integrand)

    # Vertex terms, evaluated at the vertex itself.
    for vert in poly.faces_of_dim(0):
        if len(vert.tangent_gens) != 2:
            raise AssertionError("a vertex of a polygon has two edges")
        e1, e2 = map(as_vector, vert.tangent_gens)
        c1 = qform(qmat, e1, e2) / qform(qmat, e2, e2)
        c2 = qform(qmat, e1, e2) / qform(qmat, e1, e1)
        u1 = vsub(e1, vscale(c1, e2))
        u2 = vsub(e2, vscale(c2, e1))
        l1, l2, m1, m2 = map(MultiPoly.linear_form, (e1, e2, u1, u2))
        sym = MultiPoly.zero(2)
        for k in range(1, n):
            c = bern[k] * bern[n - k] / Fraction(
                math.factorial(k) * math.factorial(n - k)
            )
            if c:
                sym = sym + l1 ** (k - 1) * l2 ** (n - 1 - k) * c
        if bern[n]:
            bn = bern[n] / Fraction(math.factorial(n))
            for s in range(n - 1):
                sym = sym + m1 ** s * l1 ** (n - 2 - s) * (bn * c1)
                sym = sym + m2 ** s * l2 ** (n - 2 - s) * (bn * c2)
        value = DiffOp(2, n - 2, sym).apply(phi)
        total += value.eval(as_vector(vert.ref_vertex))
    return total

