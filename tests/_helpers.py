"""Shared constructions for the test suite."""

import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from emsum.exactcore import (
    MultiPoly,
    as_vector,
    identity_matrix,
    matrix_inverse,
    matrix_rank,
    nullspace_basis,
    primitive_vector,
    smith_normal_form,
    solve_unique,
    vdot,
    vsub,
)
from emsum.geometry import _cone_facets, _pulling_triangulation, build_polytope
from emsum.subdivide import _ray_list

SRC = Path(__file__).resolve().parent.parent / "src"


def unimodular_matrix(rng: random.Random, dim: int, steps: int = 8) -> list:
    """Integer matrix with determinant +1 or -1 built from row operations."""
    mat = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
    if rng.random() < 0.5:
        i = rng.randrange(dim)
        mat[i] = [-a for a in mat[i]]
    return mat


def random_spd(rng: random.Random, dim: int) -> list:
    """Rational symmetric positive definite matrix of the form A^T A + I."""
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            s = sum(a[k][i] * a[k][j] for k in range(dim))
            if i == j:
                s += 1
            row.append(s)
        out.append(row)
    return out


def box_riemann_sum(poly, phi, n: int) -> Fraction:
    """R_N(P;phi) by testing every integer point of the bounding box of N*P
    against every facet and adding phi(g/N) for the points inside: the
    reference that the line-sweep oracle must match exactly."""
    m = poly.ambient_dim
    lo = [n * min(v[i] for v in poly.vertices) for i in range(m)]
    hi = [n * max(v[i] for v in poly.vertices) for i in range(m)]
    total = Fraction(0)
    for gamma in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if poly.contains(gamma, dilation=n):
            total += phi.eval(tuple(Fraction(g, n) for g in gamma))
    return total / Fraction(n) ** poly.dim


def compose_integral(poly, face, phi) -> Fraction:
    """int_F phi by composing all of phi with the affine map x = base + E z
    of each simplex of the face's pulling triangulation and integrating
    over the standard k-simplex, int z^a = a! / (|a| + k)!, times the
    simplex's lattice volume, the product of the diagonal of the Smith
    normal form of its edge matrix E; a vertex evaluates phi.  The
    reference that integration through the polytope's moment table must
    match exactly."""
    if face.dim == 0:
        return phi.eval(face.ref_vertex)
    lattice = [(f.dim, f.vertex_ids) for f in poly.faces]
    total = Fraction(0)
    for simplex in _pulling_triangulation(lattice, (face.dim, face.vertex_ids)):
        base, *rest = (poly.vertices[i] for i in simplex)
        edges = [tuple(x - b for x, b in zip(v, base)) for v in rest]
        diagonal = smith_normal_form(edges)[1]
        volume = math.prod(diagonal[i][i] for i in range(face.dim))
        images = [
            MultiPoly.linear_form([e[i] for e in edges]) + base[i]
            for i in range(poly.ambient_dim)
        ]
        for exps, coeff in phi.compose(images).terms.items():
            num = volume * math.prod(map(math.factorial, exps))
            total += coeff * Fraction(num, math.factorial(sum(exps) + face.dim))
    return total


def fraction_det(mat) -> Fraction:
    """Determinant by Gaussian elimination in Fractions, the reference for
    checks that need one (`exactcore` has no determinant)."""
    rows = [[Fraction(x) for x in r] for r in mat]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def fraction_rref(mat) -> tuple:
    """Reduced row echelon form by Gauss-Jordan elimination in Fractions,
    dividing each pivot row by its pivot as it goes: the reference that the
    fraction-free `exactcore.rref` must match.  Returns (rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def facet_candidates(points: list, m: int) -> list:
    """All facet hyperplanes of conv(points), as sorted (primitive inward
    normal, integer offset) pairs, by testing every m-subset of the points
    for an affine hyperplane that leaves all of them on one side.  The
    reference that the hull's double description must match exactly."""
    facets = set()
    for subset in itertools.combinations(range(len(points)), m):
        base, *rest = (as_vector(points[i]) for i in subset)
        diffs = [vsub(p, base) for p in rest]
        if diffs and matrix_rank(diffs) != m - 1:
            continue
        kernel = nullspace_basis(diffs) if diffs else list(identity_matrix(m))
        if len(kernel) != 1:
            continue
        normal = primitive_vector(kernel[0])
        c = vdot(as_vector(normal), base)
        values = [vdot(as_vector(normal), as_vector(p)) - c for p in points]
        if all(v >= 0 for v in values):
            facets.add((normal, c))
        elif all(v <= 0 for v in values):
            facets.add((tuple(-x for x in normal), -c))
    return [(normal, int(c)) for normal, c in sorted(facets)]


def section_fan(gens, strategy: str = "default") -> list:
    """`subdivide.triangulate_cone` by slicing: the non-simplicial pointed
    cone is cut by the sum xi of its facet normals (span coordinates as in
    `triangulate_cone`), the section is scaled to an integer polytope and
    built by `build_polytope(..., affine_hull=True)`, its vertices are
    mapped back through `affine_data` to their ambient points, and its
    pulling triangulation, pulling from the lex-first ambient point (the
    lex-last under "alternate"), is mapped to the rays.  The reference that
    the cone's own face lattice must match exactly, whatever basis
    `affine_data` has."""
    rays = _ray_list(gens)
    k = matrix_rank(rays)
    u, _, _ = smith_normal_form(list(zip(*rays)))
    coords = [[sum(a * x for a, x in zip(row, g)) for row in u[:k]] for g in rays]
    facets = _cone_facets(coords)
    xi = [sum(column) for column in zip(*facets)]
    extreme = [
        i for i in range(len(rays))
        if matrix_rank([a for a, tight in facets.items() if i in tight]) == k - 1
    ]
    scaled = [tuple(Fraction(x, vdot(xi, coords[i])) for x in rays[i]) for i in extreme]
    scale = math.lcm(*(c.denominator for p in scaled for c in p))
    section = [tuple(int(c * scale) for c in p) for p in scaled]
    poly = build_polytope(section, affine_hull=True)
    origin, basis = poly.affine_data
    point = [
        tuple(o + sum(c * b[i] for c, b in zip(y, basis)) for i, o in enumerate(origin))
        for y in poly.vertices
    ]
    pick = min if strategy == "default" else max
    faces = [(f.dim, f.vertex_ids) for f in poly.faces]
    simplices = _pulling_triangulation(
        faces, faces[-1], lambda vids: pick(vids, key=point.__getitem__)
    )
    return sorted(
        tuple(sorted(primitive_vector(point[v]) for v in simplex))
        for simplex in simplices
    )


def in_simplicial_cone(point, gens) -> bool:
    """Whether point is a non-negative combination of the linearly
    independent vectors gens, by its exact coordinates over them."""
    if not gens:
        return not any(point)
    columns = [[Fraction(g[i]) for g in gens] for i in range(len(point))]
    coords = solve_unique(columns, [Fraction(x) for x in point])
    return coords is not None and min(coords) >= 0


def assert_cells_hold_the_cone_pointwise(rays, signed, radius):
    """Sum of coeff * [x in cell] = [x in K] over the signed cells, at every
    lattice point x of the window [-radius, radius]^m, for the cone K that
    `rays` generate.  K is tested by Caratheodory, independently of any
    decomposition route: x is in K exactly when it is in the cone of some
    linearly independent rank-many of the rays."""
    d = matrix_rank(rays)
    bases = [s for s in itertools.combinations(rays, d) if matrix_rank(s) == d]
    cones = [cell_coordinates(s) for s in bases]
    faces = [(c.coeff, cell_coordinates(c.gens)) for c in signed]

    def held(coords, x):
        t = coords(x)
        return t is not None and all(ti >= 0 for ti in t)

    for x in itertools.product(range(-radius, radius + 1), repeat=len(rays[0])):
        inside = any(held(coords, x) for coords in cones)
        assert sum(coeff * held(coords, x) for coeff, coords in faces) == inside, x


def cell_coordinates(gens):
    """p -> the integer vector scale * t of the coordinates t of p over the
    linearly independent integer vectors gens, or None when p is off
    their span: scale * t = W p for the integer matrix
    W = scale (G^T G)^-1 G^T, and G t = p exactly when p is in the span
    of the columns G.  The empty set spans the origin alone."""
    if not gens:
        return lambda p: None if any(p) else ()
    gram_inv = matrix_inverse([[vdot(g, h) for h in gens] for g in gens])
    rows = [[vdot(row, [g[i] for g in gens]) for i in range(len(gens[0]))]
            for row in gram_inv]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    rows = [[int(x * scale) for x in row] for row in rows]

    def coords(p):
        t = [sum(map(operator.mul, row, p)) for row in rows]
        image = (sum(ti * g[i] for ti, g in zip(t, gens)) for i in range(len(p)))
        return None if any(y != scale * x for y, x in zip(image, p)) else t

    return coords


def sample_cover_coefficients(cells) -> dict:
    """{face: coefficient} of the inclusion-exclusion over the faces of the
    simplicial cells, r_tau = sum of (-1)^(dim sigma - dim tau) over the
    faces sigma containing tau, checked by covering samples: the relative
    interior point of every face and one interior point of every cell
    must each be covered with total weight 1.  Each sample is tested
    against every cell by its exact coordinates t over the cell's rays,
    from the cell's rational Gram inverse, and lies in the faces tau with
    supp(t) <= tau <= sigma of the cells sigma where t >= 0.  Raises
    ValueError("non-complex input") otherwise.  Quadratic in the fan and
    blind to convexity: the reference for `subdivide`'s wall check."""
    def subsets(cell):
        return (tau for r in range(len(cell) + 1) for tau in itertools.combinations(cell, r))

    maximal = {tuple(sorted(cell)) for cell in cells}
    faces = {tau for sigma in maximal for tau in subsets(sigma)}
    coeff = dict.fromkeys(faces, 0)
    for sigma in faces:
        for tau in subsets(sigma):
            coeff[tau] += (-1) ** (len(sigma) - len(tau))
    samples = [tuple(map(sum, zip(*tau))) for tau in faces if tau]
    samples += [
        tuple(sum((i + 1) * g[k] for i, g in enumerate(sigma)) for k in range(len(sigma[0])))
        for sigma in maximal
    ]
    solvers = {sigma: cell_coordinates(sigma) for sigma in maximal}
    for p in samples:
        covering = set()
        for sigma, coords in solvers.items():
            t = coords(p)
            if t is None or min(t) < 0:
                continue
            support = tuple(g for g, ti in zip(sigma, t) if ti)
            free = tuple(g for g, ti in zip(sigma, t) if not ti)
            covering.update(tuple(sorted(support + extra)) for extra in subsets(free))
        if sum(coeff[tau] for tau in covering) != 1:
            raise ValueError("non-complex input")
    return coeff


def stellar_fan_reference(cells, strategy: str = "default") -> list:
    """`subdivide.unimodularize` on a fan of sorted cells as it was first
    written: each stellar step tests every cell of the fan for the point."""
    from emsum.subdivide import _cell_lattice

    sign = 1 if strategy == "default" else -1
    work = set(cells)
    lattice = {cell: _cell_lattice(cell) for cell in work}
    while True:
        worst = max(sorted(work), key=lambda cell: lattice[cell].index)
        if lattice[worst].index == 1:
            return sorted(work)
        box = lattice[worst].box()
        w = min((max(t), tuple(sign * c for c in p), p) for t, p in box if any(t))[2]
        refined = set()
        for cell in work:
            t = lattice[cell].coords(w)
            if t is None or min(t) < 0:
                refined.add(cell)
                continue
            for i, ti in enumerate(t):
                if ti:
                    piece = tuple(sorted(cell[:i] + cell[i + 1:] + (w,)))
                    lattice[piece] = lattice.get(piece) or _cell_lattice(piece)
                    refined.add(piece)
        work = refined


def built_cell_symbols(monkeypatch) -> list:
    """Record (Gram matrix, order) each time `conecalc._bv_sym` misses its
    memo and builds a cell symbol: the builds are its calls of `_ysum`."""
    from emsum import conecalc

    built = []
    real = conecalc._ysum

    def spy(parts, den=1):
        caller = sys._getframe(1)
        if caller.f_code is conecalc._bv_sym.__code__:
            built.append((caller.f_locals["cone"]._gram, caller.f_locals["n"]))
        return real(parts, den)

    monkeypatch.setattr(conecalc, "_ysum", spy)
    return built


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run `script` under `python -O`, which strips `assert` statements,
    with this checkout's package first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
