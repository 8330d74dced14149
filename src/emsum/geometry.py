"""Lattice polytopes: exact hulls, face lattices, transverse cones in
integer quotient coordinates, Delzant tests, and exact integration of
polynomials over faces against their lattice measure, by one integer
recursion up the face lattice that each polytope runs once per moment and
keeps.  `build_polytope` gives every face its whole frame, which depends
on neither Q, phi nor n: its direction space's lattice frame, its tangent
cone's generators and the facets and heights that the recursion reads.

Everything is computed in exact rational arithmetic over Z^m / Q^m.  A
polytope P is the cone over {1} x P, so one set of cone routines serves
hulls and `subdivide.triangulate_cone` alike: `_cone_facets` (an integer
double description) gives the facets and the rays tight on each.
`_extreme_rays` and `_face_lattice` read the vertices and the graded face
lattice off those incidences alone, since every face of a pointed cone is
cut out by the facets holding it, and `_pulling_triangulation` gives the
simplices of a cone's fan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Sequence

from .exactcore import (
    MultiPoly,
    _eliminate,
    _integer_rows,
    _integer_vectors,
    _is_int,
    _lattice_frame,
    _scaled_inverse,
    _unimodular_basis,
    as_matrix,
    as_vector,
    identity_matrix,
    inner_product_matrix,
    matrix_rank,
    primitive_vector,
    saturation_basis,
    solve_unique,
    transpose,
    vdot,
    vsub,
)

F = Fraction


# ---------------------------------------------------------------------------
# polytope data types


@dataclass(frozen=True)
class Face:
    """A face of a lattice polytope, recorded by its vertex indices, with
    all of its data that depends on neither Q, phi nor n: its direction
    space's lattice frame, its tangent cone's generators and the facets
    that `LatticePolytope.face_moment` recurses over."""

    index: int
    dim: int
    vertex_ids: tuple
    ref_vertex: tuple
    lineality_basis: tuple  # saturated basis of the direction space L(f)
    quotient_rows: tuple  # integer rows R onto Z^m / (Z^m cap L(f)); I at a vertex
    facet_ids: tuple  # facets of the polytope containing this face
    tangent_gens: tuple  # sorted primitive edge directions at ref_vertex
    pyramid: tuple  # (face index, lattice height) of the facets missing ref_vertex


@dataclass(frozen=True)
class PointedConeT:
    """A transverse cone, in integer coordinates of its quotient lattice.

    `basis` holds rational vectors B_1..B_d of the Q-orthocomplement of
    L(f) generating the projected lattice; `gens` are the primitive integer
    generator coordinate vectors in that basis; `qmat` is B^T Q B.
    """

    dim: int
    gens: tuple
    basis: tuple
    qmat: tuple


class LatticePolytope:
    """Full-dimensional lattice polytope with its exact face lattice.

    Facets are stored as pairs (alpha, c) of a primitive integer inward
    normal and integer offset, so P = {x : <alpha, x> >= c for all facets}.
    Faces are sorted by (dim, vertex_ids); the polytope itself is the last
    face.  Each face holds its own Q-independent frame; the polytope keeps
    only tables that its callers fill, for as long as it lives.
    `face_operators` keeps the lifted transverse-cone operators that
    `engine.expansion` builds, as {(Q, strategy): {face index: operator}},
    so that each call looks its (Q, strategy) table up once.
    `face_moment` keeps the moments int_F x^e of each face, keyed by (face
    index, e), with the integers that its recursion up the face lattice
    reads them from.  `transverse_cone` keeps, for each Q it has checked
    (None for the identity), (sQ, s) with sQ = s Q in integers and the
    transverse frames {quotient rows: (B, G)}, one per direction space.
    """

    def __init__(self, vertices, facets, faces, affine_data=None):
        self.ambient_dim = len(vertices[0])
        self.dim = self.ambient_dim
        self.vertices = vertices
        self.facets = facets
        self.faces = faces
        self.affine_data = affine_data
        self._scaled: dict = {}
        self._moments: dict = {}
        self._frames: dict = {}
        self.face_operators: dict = {}

    def contains(self, point: Sequence[Fraction], dilation: int = 1) -> bool:
        """Membership of a rational point in dilation * P."""
        if not _is_int(dilation) or dilation < 1:
            raise ValueError("the dilation factor must be a positive integer")
        point = as_vector(point)
        return all(
            vdot(as_vector(alpha), point) >= dilation * c
            for alpha, c in self.facets
        )

    def face_by_vertex_ids(self, vertex_ids: Iterable[int]) -> Face:
        key = tuple(sorted(vertex_ids))
        for f in self.faces:
            if f.vertex_ids == key:
                return f
        raise KeyError(f"no face with vertices {key}")

    def faces_of_dim(self, d: int) -> list:
        return [f for f in self.faces if f.dim == d]

    @property
    def polytope_face(self) -> Face:
        return self.faces[-1]

    def face_moment(self, face: Face, exps: tuple) -> Fraction:
        """The moment int_F x^e (e = exps) against the lattice measure of
        the k-face F, computed once per (face, e) as N_F(e) e! / (|e| + k)!
        from the integer N_F(e) = (|e| + k)! / e! * int_F x^e.

        A vertex v has N_v(e) = (|e|! / e!) v^e.  For k >= 1 and x_0 the
        reference vertex, the pyramid formula (Lasserre, Proc. AMS 126,
        1998) (k + q) int_F f = sum_G h_G int_G f, for f homogeneous of
        degree q about x_0 and h_G the lattice distance from x_0 to the
        facet G in F's lattice, turns x^e expanded about x_0 into
        N_F(e) = sum_G h_G sum_{f <= e} (|e - f|! / (e - f)!) x_0^(e - f) N_G(f),
        a Beta integral collapsing the double binomial sum.  Only facets
        that miss x_0 count (the others have h_G = 0); multinomials,
        integer vertices and integer heights (`Face.pyramid`) keep every
        N_F an integer.
        """
        key = (face.index, exps)
        if key not in self._moments:
            num = self._scaled_moment(face, exps) * math.prod(map(math.factorial, exps))
            self._moments[key] = F(num, math.factorial(sum(exps) + face.dim))
        return self._moments[key]

    def _scaled_moment(self, face: Face, exps: tuple) -> int:
        """N_F(exps) of `face_moment`, by its recursion, once per (face, exps)."""
        key = (face.index, exps)
        if key not in self._scaled:
            x0 = face.ref_vertex
            if face.dim == 0:
                value = _multinomial_power(x0, exps)
            else:
                value = 0
                for f in itertools.product(*(range(x + 1) for x in exps)):
                    s = sum(h * self._scaled_moment(self.faces[g], f) for g, h in face.pyramid)
                    value += s * _multinomial_power(x0, tuple(map(sub, exps, f)))
            self._scaled[key] = value
        return self._scaled[key]

    def __repr__(self) -> str:
        return (
            f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={len(self.facets)}, faces={len(self.faces)})"
        )


def _multinomial_power(x: tuple, d: tuple) -> int:
    """(|d|! / d!) x^d, the coefficient of l^d in <x, l>^|d|."""
    multinomial = math.factorial(sum(d)) // math.prod(map(math.factorial, d))
    return multinomial * math.prod(map(pow, x, d))


# ---------------------------------------------------------------------------
# convex hull and face lattice


def _cone_facets(rays: Sequence[tuple]) -> dict:
    """Facets of the cone generated by integer vectors that span Q^d, by
    double description: {primitive inward normal: frozenset of the ids of
    the rays tight on it}.

    The start rays B are the first d independent ones, the pivot columns
    of one elimination of the ray matrix.  Their facet normals are the
    columns of B^-1 = A / delta from one fraction-free inverse, that is
    the columns of delta A made primitive.  Each further ray r then cuts
    the dual cone {a : <a, g> >= 0 for the rays g so far}: the normals
    negative on r go, and every adjacent pair a, b with <a, r> > 0 >
    <b, r> gives the normal <a, r> b - <b, r> a, tight on r.  a and b are
    adjacent when no third normal is tight on every ray that both are
    tight on.  The normals stay integer vectors.
    """
    _, basis, _ = _eliminate(list(zip(*rays)))
    inverse, delta = _scaled_inverse([rays[i] for i in basis])
    normals = {
        primitive_vector([delta * row[j] for row in inverse]): frozenset(basis) - {i}
        for j, i in enumerate(basis)
    }
    for i, ray in enumerate(rays):
        if i in basis:
            continue
        value = {a: sum(x * y for x, y in zip(a, ray)) for a in normals}
        kept = {
            a: tight | {i} if value[a] == 0 else tight
            for a, tight in normals.items()
            if value[a] >= 0
        }
        positive = [a for a in normals if value[a] > 0]
        negative = [b for b in normals if value[b] < 0]
        for a, b in itertools.product(positive, negative):
            common = normals[a] & normals[b]
            if not any(
                c != a and c != b and common <= tight
                for c, tight in normals.items()
            ):
                normal = [value[a] * y - value[b] * x for x, y in zip(a, b)]
                kept[primitive_vector(normal)] = common | {i}
        normals = kept
    return normals


def _extreme_rays(facets: dict, count: int) -> list:
    """The ids, in increasing order, of the extreme rays of `_cone_facets`'
    output on `count` distinct primitive rays.  Ray i is extreme exactly
    when the facets tight on it meet in {i}: that meet is the least face
    holding i, and a larger face holds a second ray.  A line lies in every
    face, so a cone with a line has none."""
    every = frozenset(range(count))
    return [i for i in range(count)
            if every.intersection(*(t for t in facets.values() if i in t)) == {i}]


def _face_lattice(facets: dict, order: Sequence[int]) -> list:
    """The nonzero faces of a pointed cone as sorted (dim, vertex numbers)
    pairs: the meet-closure of the facets' extreme-ray sets, the cone
    itself last.  Vertex number v is the extreme ray order[v]; `facets` is
    `_cone_facets`' output.  A ray has dim 0, and a larger face one more
    than its largest meet with a facet not holding it, which is a facet of
    that face, since every face is cut out by the facets holding it."""
    number = {i: v for v, i in enumerate(order)}
    facet_sets = {
        frozenset(number[i] for i in tight if i in number)
        for tight in facets.values()
    }
    faces, frontier = set(facet_sets), facet_sets
    while frontier:
        frontier = {a & b for a in frontier for b in facet_sets} - faces - {frozenset()}
        faces |= frontier
    faces.add(frozenset(number.values()))
    dim = {}
    for face in sorted(faces, key=len):
        below = max((face & f for f in facet_sets if not face <= f), key=len)
        dim[face] = dim[below] + 1 if below else 0
    return sorted((d, tuple(sorted(face))) for face, d in dim.items())


def build_polytope(points: Sequence[Sequence[int]], affine_hull: bool = False):
    """Exact convex hull of integer points, with the full face lattice.

    The hull must be full-dimensional in its ambient Z^m; otherwise a
    ValueError("not full-dimensional") is raised, unless affine_hull=True,
    in which case coordinates are rewritten over a saturated lattice basis
    of the affine hull and the (full-dimensional) result records the affine
    embedding as (origin, basis).

    The faces of P are those of the cone over {(1, p)}: its facet (-c,
    alpha) is the facet <alpha, x> >= c of P, its extreme rays are the
    vertices, its rank is one more than the affine rank of the points and
    its face lattice is P's.  Each face F gets its whole frame here.  One
    pass over the edges maps each vertex to {neighbour: primitive edge};
    the edges at F's reference vertex x_0 are F's tangent generators.
    F's own edges there, to neighbours in F, span L(F), since a face's
    tangent cone at a vertex is generated by its edges; the nonzero rows
    of their rref, made primitive, name L(F), and one Smith form per space
    (`_lattice_frame` of its first face's vertex differences) gives its
    lattice frame.  The pyramid facets G of F, which miss x_0, come from
    the pass over P's facets that finds those containing F: G is the meet
    of F with every facet <a, x> >= c of P through G but not F.
    <a, x> - c vanishes on G and takes the values g Z on F's lattice,
    g = gcd{<a, l> : l in L(F)}, so h_G = (<a, x_0> - c) / g is x_0's
    lattice distance to G in F's lattice, whichever such facet gives it.
    """
    pts = sorted(dict.fromkeys(_integer_vectors(points, "polytope vertices")))
    if not pts:
        raise ValueError("empty vertex set")
    m = len(pts[0])
    if not m:
        raise ValueError("polytope vertices need at least one coordinate")
    rays = [(1,) + p for p in pts]
    rank = matrix_rank(rays) - 1
    if rank < m:
        if not affine_hull or rank == 0:
            raise ValueError("not full-dimensional")
        origin = pts[0]
        diffs = [vsub(as_vector(p), as_vector(origin)) for p in pts[1:]]
        basis = saturation_basis([d for d in diffs if any(d)])
        bmat = as_matrix(transpose(basis))
        reduced = []
        for p in pts:
            y = solve_unique(bmat, vsub(as_vector(p), as_vector(origin)))
            if y is None or any(c.denominator != 1 for c in y):
                raise AssertionError("saturated basis must give integer coordinates")
            reduced.append(tuple(int(c) for c in y))
        inner = build_polytope(reduced)
        return LatticePolytope(
            inner.vertices,
            inner.facets,
            inner.faces,
            affine_data=(origin, tuple(basis)),
        )

    cone = _cone_facets(rays)
    extreme = _extreme_rays(cone, len(rays))
    vertices = tuple(pts[i] for i in extreme)
    facets = sorted((normal[1:], -normal[0], tight) for normal, tight in cone.items())
    lattice = _face_lattice(cone, extreme)
    nbrs = [{} for _ in vertices]  # {extreme id of a neighbour: primitive edge}
    for fdim, vids in lattice:
        if fdim == 1:
            a, b = vids
            d = primitive_vector(vsub(vertices[b], vertices[a]))
            nbrs[a][extreme[b]], nbrs[b][extreme[a]] = d, tuple(-x for x in d)
    gens = [tuple(sorted(n.values())) for n in nbrs]
    faces, number = [], {}
    frames = {(): ((), tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))}
    for index, (fdim, vids) in enumerate(lattice):
        ref, ids = vertices[vids[0]], frozenset(extreme[v] for v in vids)
        # F's own edges at x_0 span L(F); the rows of their rref, made primitive, name it
        reduced, _, delta = _eliminate([d for w, d in nbrs[vids[0]].items() if w in ids])
        space = tuple(primitive_vector([delta * x for x in r]) for r in reduced[:fdim])
        if space not in frames:
            frames[space] = _lattice_frame([vsub(vertices[v], ref) for v in vids[1:]])
        lin, rows = frames[space]
        fid, pyramid = [], {}
        for h, (alpha, c, tight) in enumerate(facets):
            if ids <= tight:
                fid.append(h)
            elif extreme[vids[0]] not in tight:
                # F meets the facet in a face that misses x_0, a facet G of F or smaller
                g = number.get(ids & tight)
                if g is not None and lattice[g][0] == fdim - 1 and g not in pyramid:
                    step = math.gcd(*(sum(map(mul, alpha, l)) for l in lin))
                    pyramid[g] = (sum(map(mul, alpha, ref)) - c) // step
        number[ids] = index
        faces.append(Face(index=index, dim=fdim, vertex_ids=vids, ref_vertex=ref,
                          lineality_basis=lin, quotient_rows=rows, facet_ids=tuple(fid),
                          tangent_gens=gens[vids[0]], pyramid=tuple(sorted(pyramid.items()))))

    if sum((-1) ** f.dim for f in faces) != 1:
        raise AssertionError("face lattice must satisfy the Euler relation")

    return LatticePolytope(
        vertices, tuple((alpha, c) for alpha, c, _ in facets), tuple(faces)
    )


# ---------------------------------------------------------------------------
# tangent and transverse cones


def transverse_cone(poly: LatticePolytope, face: Face, qmat=None) -> PointedConeT:
    """The transverse cone of a face: the tangent cone modulo the face
    direction space L(f), in integer coordinates of the quotient lattice
    Z^m / (Z^m cap L(f)).

    The quotient rows R of the face's direction space map Z^m onto Z^d
    with kernel Z^m cap L(f), so the generators are the primitive nonzero
    vectors R g over the tangent generators g.  The basis B is defined by
    R B = I and l^T Q B = 0 for l in the lineality basis: it spans the
    image of Z^m under the Q-orthogonal projection, and G = B^T Q B is the
    induced inner product.  A vertex has R = I, hence B = I and G = Q.
    With sQ = s Q in integers, one fraction-free inverse of [R; l^T sQ]
    gives delta B as its first d columns, and G = (delta B)^T sQ (delta B)
    / (s delta^2); Q itself is never inverted.

    B and G depend on the direction space and Q alone, so the polytope
    keeps them, and every face of a space returns the same two tuples.  Q
    is checked once per polytope: only None or a tuple of tuples of
    Fractions, the form `inner_product_matrix` returns, skips the check
    on a later call.
    """
    m = poly.ambient_dim
    exact = qmat is None or type(qmat) is tuple and all(
        type(row) is tuple and all(type(x) is F for x in row) for row in qmat)
    if (table := poly._frames.get(qmat) if exact else None) is None:
        qmat = None if qmat is None else inner_product_matrix(qmat, m)
        if (table := poly._frames.get(qmat)) is None:
            table = poly._frames[qmat] = (*_integer_rows(qmat or identity_matrix(m)), {})
    if face.dim == poly.dim:
        return PointedConeT(dim=0, gens=(), basis=(), qmat=())
    sq, s, frames = table
    rows = face.quotient_rows
    images = ([sum(map(mul, r, g)) for r in rows] for g in face.tangent_gens)
    coord_gens = sorted({primitive_vector(y) for y in images if any(y)})
    if rows not in frames:
        lq = [[sum(map(mul, q, l)) for q in sq] for l in face.lineality_basis]  # l^T sQ
        inverse, delta = _scaled_inverse(list(rows) + lq)
        cols = list(zip(*inverse))[:len(rows)]  # delta B_j
        qcols = [[sum(map(mul, q, c)) for q in sq] for c in cols]  # sQ delta B_j
        frames[rows] = (
            tuple(tuple(F(x, delta) for x in c) for c in cols),
            tuple(tuple(F(sum(map(mul, c, qc)), s * delta**2) for qc in qcols) for c in cols),
        )
    basis, gram = frames[rows]
    return PointedConeT(dim=len(rows), gens=tuple(coord_gens), basis=basis, qmat=gram)


def is_delzant(poly: LatticePolytope) -> bool:
    """True when every vertex cone is unimodular (smooth/Delzant): its
    edge directions are a basis of Z^m (`_unimodular_basis`)."""
    return all(_unimodular_basis(vertex.tangent_gens) for vertex in poly.faces_of_dim(0))


# ---------------------------------------------------------------------------
# pulling triangulations and exact integration


def _pulling_triangulation(faces: Sequence[tuple], top: tuple, choose=min) -> list:
    """Pulling triangulation of the face `top` of a face lattice given as
    `_face_lattice`'s sorted (dim, vertex numbers) pairs, into simplices
    as sorted tuples of vertex numbers.  Every face pulls from the vertex
    that `choose` picks among its numbers (the lex-min vertex under min,
    numbers being lexicographic), which makes the simplices of different
    faces compatible.
    """
    cache: dict = {}

    def tri(face: tuple) -> list:
        if face in cache:
            return cache[face]
        dim, vids = face
        if len(vids) == dim + 1:
            out = [vids]
        else:
            pull = choose(vids)
            out = [
                tuple(sorted(simplex + (pull,)))
                for g in faces
                if g[0] == dim - 1 and pull not in g[1] and set(g[1]) <= set(vids)
                for simplex in tri(g)
            ]
        cache[face] = out
        return out

    return tri(top)


def integrate_poly_over_face(poly: LatticePolytope, face: Face, phi: MultiPoly) -> Fraction:
    """Integral of phi over a face against the lattice measure of the face.

    The lattice measure is the Lebesgue measure on the face's affine hull
    that gives a fundamental domain of its saturated lattice volume 1 (a
    vertex carries the unit point mass).  The integral is
    sum_a c_a int_F x^a over the terms c_a x^a of phi, each moment read
    from the polytope's table (`LatticePolytope.face_moment`), which the
    pyramid recursion up the face lattice fills in integers.
    """
    if phi.nvars != poly.ambient_dim:
        raise ValueError("dimension mismatch")
    return sum(
        (c * poly.face_moment(face, a) for a, c in phi.terms.items()), F(0)
    )


# ---------------------------------------------------------------------------
# inclusion-exclusion window check


def euler_brion_window_check(
    poly: LatticePolytope,
    n_values: Sequence[int] = (1, 2, 3),
) -> bool:
    """Verify, on a window of sample points, the inclusion-exclusion identity

        [x in N*P] = sum_{faces g} (-1)^{dim g} [x in C^+(N g)],

    where C^+(N g) imposes the inequalities of exactly the facets containing
    g (the polytope face itself imposes none).  Points sampled are the
    integer points of the bounding box of N*P, padded by 1, together with
    their shifts by the rational offset (1/2, 1/3, 1/5, ...).  Each point
    takes one pass over the facets; a face's cone holds it when the face's
    facets are among those it satisfies.
    """
    m = poly.ambient_dim
    offsets = [F(1, p) for p in (2, 3, 5, 7, 11, 13)[:m]]
    for n in n_values:
        if not _is_int(n) or n < 1:
            raise ValueError("the dilation factor must be a positive integer")
        lo = [min(v[i] for v in poly.vertices) * n - 1 for i in range(m)]
        hi = [max(v[i] for v in poly.vertices) * n + 1 for i in range(m)]
        for base in itertools.product(
            *[range(lo[i], hi[i] + 1) for i in range(m)]
        ):
            for point in (base, tuple(b + o for b, o in zip(base, offsets))):
                held = {h for h, (alpha, c) in enumerate(poly.facets)
                        if sum(map(mul, alpha, point)) >= n * c}
                lhs = poly.contains(point, dilation=n)
                rhs = sum((-1) ** f.dim for f in poly.faces if held.issuperset(f.facet_ids))
                if lhs != rhs:
                    return False
    return True
