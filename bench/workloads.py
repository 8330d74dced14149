"""Workload case streams for the emsum benchmark.

A case is one public call into emsum (``engine.expansion``,
``subdivide.bv_op_pointed`` or ``cli.main(["verify", ...])``) together
with the check of its output against a reference the oracle pinned in
``references.json``.  References for inputs the oracle never saw are
derived by exact identities:

* linearity in phi: A_n(P; sum c_a x^a) = sum c_a A_n(P; x^a);
* Q-independence: the totals A_n do not depend on the inner product;
* dilation: A_n(kP; phi(x/k)) = k^(dim - n) A_n(P; phi);
* lattice-preserving affine maps g(x) = Ax + t with A in GL_m(Z) and t
  integral: A_n(g(P); phi o g^-1) = A_n(P; phi);
* equivariance of the cone operator: for A in GL_m(Z),
  D_n(AC; A^-T Q A^-1)(xi) = D_n(C; Q)(A^T xi).

Every stream is a deterministic function of the seed, so the same seed
gives the same cases whatever the timing.  Inputs are built from the
emsum package passed in, and each call looks its function up at call
time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

WORKLOADS = ("delzant", "valuation", "verify")

# Criterion-5 corpus; each polytope runs with every monomial up to the
# degree its references are pinned for (3 in 1D and 2D, 2 in 3D).
DELZANT_CORPUS = (
    "interval", "square", "simplex2", "trapezoid", "cube", "simplex3", "prism",
)
SKEW_Q = {
    1: ((2,),),
    2: ((2, 1), (1, 2)),
    3: ((2, 1, 0), (1, 2, 1), (0, 1, 2)),
}
CUBE_DILATIONS = (2, 4, 8)

# A run measures whole rounds.  A round of ``delzant`` holds one case of
# every polytope-and-Q group; a round of ``valuation`` or ``verify`` holds
# one case of every kind in its pattern.  The seed changes the inputs
# inside a round but not its kinds, so every run has the same mix of
# cheap and expensive cases whatever its length.
VALUATION_PATTERN = ("octahedron", "cone3", "triangle", "cone7", "cone15")
# Three prisms per verify round hold the median; 2*[0,1]^3, at about five
# prisms' cost, still takes most of the time.
VERIFY_PATTERN = ("cube2", "prism", "square3", "prism", "triangle", "prism")
# The oracle evaluates phi at every lattice point of a box, so its cost
# grows with the number of terms; verify cases use one.
VERIFY_TERMS = 1
VALUATION_DEGREE = 2
CONE_ORDER = 4

# Rounds a traced run covers: a fixed prefix of the stream, so per-layer
# counts repeat exactly for a seed.
TRACE_ROUNDS = {"delzant": 5, "valuation": 2, "verify": 2}


def round_size(workload: str) -> int:
    """Cases in one round of the workload."""
    if workload == "delzant":
        return 2 * len(DELZANT_CORPUS) + len(CUBE_DILATIONS)
    if workload == "valuation":
        return len(VALUATION_PATTERN)
    return len(VERIFY_PATTERN)


def trace_cases(workload: str) -> int:
    return TRACE_ROUNDS[workload] * round_size(workload)


@dataclass
class Case:
    """One benchmark case.

    ``prepare`` builds what the call needs outside the timed region and
    returns the zero-argument call to time; ``check`` says whether the
    call's output equals the reference.
    """

    index: int
    kind: str
    desc: dict
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# references


def exps_key(exps) -> str:
    return ",".join(str(e) for e in exps)


def key_exps(key: str) -> tuple:
    return tuple(int(e) for e in key.split(","))


def monomials(nvars: int, max_deg: int) -> list:
    """Exponent tuples of total degree at most max_deg, in a fixed order."""
    return [
        exps
        for exps in itertools.product(range(max_deg + 1), repeat=nvars)
        if sum(exps) <= max_deg
    ]


def load_references(path) -> dict:
    """Pinned references as exact values.

    Returns {"polytopes": {name: {"vertices", "max_deg", "monomials":
    {exps: [A_0, ...]}}}, "cones": {name: {"gens", "n", "symbol":
    {exps: coeff}}}}.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    polys = {}
    for name, entry in raw["polytopes"].items():
        polys[name] = {
            "vertices": [tuple(v) for v in entry["vertices"]],
            "max_deg": entry["max_deg"],
            "monomials": {
                key_exps(k): [Fraction(a) for a in coeffs]
                for k, coeffs in entry["monomials"].items()
            },
        }
    cones = {}
    for name, entry in raw["cones"].items():
        cones[name] = {
            "gens": [tuple(g) for g in entry["gens"]],
            "n": entry["n"],
            "symbol": {key_exps(k): Fraction(c) for k, c in entry["symbol"].items()},
        }
    return {"polytopes": polys, "cones": cones}


def linear_reference(mono_refs: dict, phi_terms: dict, length: int) -> list:
    """A_0..A_{length-1} of sum c_a x^a from the monomial references."""
    out = [Fraction(0)] * length
    for exps, c in phi_terms.items():
        for n, a in enumerate(mono_refs[exps]):
            if n < length:
                out[n] += c * a
    return out


def dilated_reference(ref: list, k: int, dim: int) -> list:
    """A_n(kP; phi(x/k)) from A_n(P; phi)."""
    return [Fraction(k) ** (dim - n) * a for n, a in enumerate(ref)]


# ---------------------------------------------------------------------------
# exact helpers for the seeded transforms


def unimodular(rng: random.Random, m: int) -> list:
    """A small-entried m x m integer matrix (m >= 2) of determinant +-1.

    Three elementary row operations with factor +-1 and a row
    permutation; larger entries make the exact arithmetic, not the
    geometry, dominate the cost.
    """
    mat = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        f = rng.choice((-1, 1))
        mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
    rng.shuffle(mat)
    return mat


def cone_transform(rng: random.Random, m: int) -> list:
    """A shear adding multiples of the other coordinates to the last one,
    followed by a signed permutation.

    The index-k cones stand on the last coordinate.  General GL_m(Z)
    images change how many stellar steps the refinement takes (2 s to
    9 s for k = 15), which would make a run's cost depend on the seed;
    these images keep it within about 20%.
    """
    mat = [[int(i == j) for j in range(m)] for i in range(m)]
    mat[m - 1] = [rng.randint(-3, 3) for _ in range(m - 1)] + [1]
    perm = list(range(m))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * v for v in mat[p]] for p in perm]


def apply_affine(mat: list, shift: list, point) -> tuple:
    m = len(mat)
    return tuple(
        sum(mat[i][j] * point[j] for j in range(m)) + shift[i] for i in range(m)
    )


def pullback(emsum, phi, mat: list, shift: list):
    """phi o g^-1 for g(x) = mat x + shift, mat unimodular."""
    exactcore = emsum.exactcore
    m = len(mat)
    inv = exactcore.matrix_inverse(exactcore.as_matrix(mat))
    images = []
    for i in range(m):
        terms = {(0,) * m: -sum(inv[i][j] * shift[j] for j in range(m))}
        for j in range(m):
            if inv[i][j]:
                terms[tuple(int(t == j) for t in range(m))] = inv[i][j]
        images.append(exactcore.MultiPoly(m, terms))
    return phi.compose(images)


def random_phi(rng: random.Random, nvars: int, degree: int, count=None) -> dict:
    """Random coefficients on every monomial of degree at most ``degree``,
    or on ``count`` monomials of exactly that degree, which cost about
    the same whichever the seed picks."""
    pool = monomials(nvars, degree)
    if count is not None:
        pool = rng.sample([e for e in pool if sum(e) == degree], count)
    return {exps: Fraction(rng.randint(1, 9)) for exps in pool}


def _mpoly(emsum, nvars: int, terms: dict):
    return emsum.exactcore.MultiPoly(nvars, terms)


def _terms_json(terms: dict) -> list:
    return [
        {"coeff": str(c), "exps": list(exps)} for exps, c in sorted(terms.items())
    ]


def _check_expansion(expected: list) -> Callable[[object], bool]:
    return lambda res: list(res.coefficients) == expected


# ---------------------------------------------------------------------------
# delzant: one polytope object per input, reused across its phi x Q cases


def delzant_cases(emsum, refs: dict, seed: int) -> Iterator[Case]:
    geometry = emsum.geometry
    polys = refs["polytopes"]
    groups = []
    for name in DELZANT_CORPUS:
        entry = polys[name]
        poly = geometry.build_polytope(entry["vertices"])
        dim = len(entry["vertices"][0])
        for qname, qmat in (("I", None), ("Q", SKEW_Q[dim])):
            group = []
            for exps in monomials(dim, entry["max_deg"]):
                phi = _mpoly(emsum, dim, {exps: Fraction(1)})
                # Q-independence: the skew-Q reference is the identity one.
                ref = entry["monomials"][exps]
                group.append((f"{name}/{qname}", poly, phi, qmat, ref,
                              {"polytope": name, "q": qname,
                               "phi": _terms_json({exps: Fraction(1)})}))
            groups.append(group)
    cube = polys["cube"]
    for k in CUBE_DILATIONS:
        verts = [tuple(k * c for c in v) for v in cube["vertices"]]
        poly = geometry.build_polytope(verts)
        group = []
        for exps in monomials(3, cube["max_deg"]):
            terms = {exps: Fraction(1, k ** sum(exps))}
            phi = _mpoly(emsum, 3, terms)
            ref = dilated_reference(cube["monomials"][exps], k, 3)
            group.append((f"cube{k}/I", poly, phi, None, ref,
                          {"polytope": f"{k}*cube", "q": "I",
                           "phi": _terms_json(terms)}))
        groups.append(group)

    # Round r runs the r-th case of every group, in a seeded group order;
    # each group cycles through its cases in a seeded order of its own.
    rng = random.Random(seed)
    for group in groups:
        rng.shuffle(group)
    rng.shuffle(groups)

    def spec(index):
        group = groups[index % len(groups)]
        return group[(index // len(groups)) % len(group)]

    return (_delzant_case(emsum, index, spec(index))
            for index in itertools.count())


def _delzant_case(emsum, index: int, spec: tuple) -> Case:
    kind, poly, phi, qmat, ref, desc = spec

    def prepare():
        return lambda: emsum.engine.expansion(poly, phi, qmat=qmat)

    return Case(index, kind, desc, prepare, _check_expansion(ref))


# ---------------------------------------------------------------------------
# valuation: a fresh lattice-equivalent polytope or cone in every case


def _cone_case(emsum, refs: dict, rng: random.Random, index: int, kind: str):
    exactcore = emsum.exactcore
    entry = refs["cones"][kind]
    m = len(entry["gens"][0])
    mat = cone_transform(rng, m)
    gens = [apply_affine(mat, [0] * m, g) for g in entry["gens"]]
    amat = exactcore.as_matrix(mat)
    inv = exactcore.matrix_inverse(amat)
    qmat = exactcore.mat_mul(exactcore.transpose(inv), inv)
    # p'(xi) = p(A^T xi)
    images = [
        exactcore.MultiPoly.linear_form([amat[j][i] for j in range(m)])
        for i in range(m)
    ]
    expected = _mpoly(emsum, m, entry["symbol"]).compose(images)
    n = entry["n"]

    def prepare():
        return lambda: emsum.subdivide.bv_op_pointed(gens, n, qmat=qmat)

    def check(op):
        return op.order == n - m and op.symbol == expected

    desc = {"cone": kind, "matrix": mat, "gens": [list(g) for g in gens], "n": n,
            "qmat": [[str(x) for x in row] for row in qmat]}
    return Case(index, kind, desc, prepare, check)


def _image_case(emsum, refs: dict, rng: random.Random, index: int,
                kind: str, degree: int, mat: list, shift: list):
    entry = refs["polytopes"][kind]
    m = len(entry["vertices"][0])
    verts = [apply_affine(mat, shift, v) for v in entry["vertices"]]
    terms = random_phi(rng, m, degree)
    phi = pullback(emsum, _mpoly(emsum, m, terms), mat, shift)
    expected = linear_reference(entry["monomials"], terms, m + degree + 1)

    def prepare():
        poly = emsum.geometry.build_polytope(verts)
        return lambda: emsum.engine.expansion(poly, phi)

    desc = {"polytope": kind, "matrix": mat, "shift": shift,
            "vertices": [list(v) for v in verts],
            "phi_before_pullback": _terms_json(terms)}
    return Case(index, kind, desc, prepare, _check_expansion(expected))


def valuation_cases(emsum, refs: dict, seed: int) -> Iterator[Case]:
    rng = random.Random(seed)
    for index in itertools.count():
        kind = VALUATION_PATTERN[index % len(VALUATION_PATTERN)]
        if kind in refs["cones"]:
            yield _cone_case(emsum, refs, rng, index, kind)
            continue
        m = len(refs["polytopes"][kind]["vertices"][0])
        mat = unimodular(rng, m)
        shift = [rng.randint(-2, 2) for _ in range(m)]
        yield _image_case(emsum, refs, rng, index, kind, VALUATION_DEGREE,
                          mat, shift)


# ---------------------------------------------------------------------------
# verify: the CLI's engine-versus-oracle check, in process


def run_cli(cli, argv: list) -> tuple:
    """cli.main(argv) with stdout and stderr captured: (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed arguments
            code = exc.code
    return code, out.getvalue()


def _check_verify(expected: list) -> Callable[[object], bool]:
    want = [str(a) for a in expected]

    def check(result) -> bool:
        code, text = result
        if code != 0:
            return False
        payload = json.loads(text)
        engine = [str(Fraction(a)) for a in payload["engine"]]
        oracle = [str(Fraction(a)) for a in payload["oracle"]]
        return payload["verdict"] == "PASS" and engine == want and oracle == want

    return check


def verify_cases(emsum, refs: dict, seed: int) -> Iterator[Case]:
    rng = random.Random(seed)
    polys = refs["polytopes"]
    for index in itertools.count():
        kind = VERIFY_PATTERN[index % len(VERIFY_PATTERN)]
        entry = polys[kind]
        m = len(entry["vertices"][0])
        degree = entry["max_deg"]
        terms = random_phi(rng, m, degree, VERIFY_TERMS)
        expected = linear_reference(entry["monomials"], terms, m + degree + 1)
        argv = [
            "verify",
            "--vertices", json.dumps([list(v) for v in entry["vertices"]]),
            "--phi", json.dumps(_terms_json(terms)),
            "--format", "json",
        ]

        def prepare(argv=argv):
            return lambda: run_cli(emsum.cli, argv)

        yield Case(index, kind, {"argv": argv}, prepare,
                   _check_verify(expected))


STREAMS = {
    "delzant": delzant_cases,
    "valuation": valuation_cases,
    "verify": verify_cases,
}

# A cheap case per workload for the untimed warm-up in set-up: it takes
# the workload's own route in its highest dimension.
WARMUP_KIND = {"delzant": "simplex3/I", "valuation": "cone3", "verify": "triangle"}


def cases(workload: str, emsum, refs: dict, seed: int) -> Iterator[Case]:
    return STREAMS[workload](emsum, refs, seed)


def warmup_case(workload: str, emsum, refs: dict, seed: int) -> Case:
    return next(
        c for c in cases(workload, emsum, refs, seed)
        if c.kind == WARMUP_KIND[workload]
    )
