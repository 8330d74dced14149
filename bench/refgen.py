"""Pin the benchmark's reference coefficients from the brute-force oracle.

Every pinned A_n comes from ``coefficients_from_oracle``, never from the
engine.  The engine is run too, and the generator refuses to write when
the two disagree on any polytope and monomial.  Index-k cone symbols are
pinned only after the ``default`` and ``alternate`` subdivision
strategies agree.  The dilation identity the benchmark uses for
k*[0,1]^3 is checked here on the dilated square and cube, whose oracle
is affordable.

Run from the repository root (takes a few minutes):

    python3 bench/refgen.py [--output bench/references.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from emsum.engine import expansion  # noqa: E402
from emsum.exactcore import MultiPoly  # noqa: E402
from emsum.geometry import build_polytope  # noqa: E402
from emsum.oracle import coefficients_from_oracle  # noqa: E402
from emsum.subdivide import bv_op_pointed  # noqa: E402

CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

# name: (vertices, maximal monomial degree)
POLYTOPES = {
    "interval": ([(0,), (1,)], 3),
    "square": (SQUARE, 3),
    "simplex2": ([(0, 0), (1, 0), (0, 1)], 3),
    "trapezoid": ([(0, 0), (2, 0), (2, 1), (0, 1)], 3),
    "cube": (CUBE, 2),
    "simplex3": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 2),
    "prism": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1),
               (0, 1, 1)], 2),
    "triangle": ([(0, 0), (1, 0), (1, 2)], 3),
    "octahedron": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)], 2),
    "square3": ([tuple(3 * c for c in v) for v in SQUARE], 3),
    "cube2": ([tuple(2 * c for c in v) for v in CUBE], 2),
}
# dilated name: (base name, k), checked against the dilation identity
DILATIONS = {"square3": ("square", 3), "cube2": ("cube", 2)}
CONE_INDICES = (3, 7, 15)


def pin_polytope(name: str, vertices: list, max_deg: int, problems: list) -> dict:
    poly = build_polytope(vertices)
    dim = len(vertices[0])
    pinned = {}
    for exps in workloads.monomials(dim, max_deg):
        phi = MultiPoly.monomial(exps, Fraction(1))
        oracle = coefficients_from_oracle(poly, phi)
        engine = list(expansion(poly, phi).coefficients)
        if engine != oracle:
            problems.append(f"{name} x^{exps}: engine {engine} != oracle {oracle}")
        pinned[exps] = oracle
        print(f"  {name} x^{exps}: {[str(a) for a in oracle]}", flush=True)
    return pinned


def check_dilation(name: str, pinned: dict, problems: list) -> None:
    """A_n(kP; x^a) = k^|a| * k^(dim-n) * A_n(P; x^a)."""
    base, k = DILATIONS[name]
    dim = len(POLYTOPES[base][0][0])
    for exps, coeffs in pinned[name].items():
        derived = [
            Fraction(k) ** sum(exps) * a
            for a in workloads.dilated_reference(pinned[base][exps], k, dim)
        ]
        if derived != coeffs:
            problems.append(f"dilation identity fails on {name} x^{exps}")


def pin_cone(k: int, problems: list) -> dict:
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, k)]
    n = workloads.CONE_ORDER
    default = bv_op_pointed(gens, n, strategy="default")
    alternate = bv_op_pointed(gens, n, strategy="alternate")
    if default.symbol != alternate.symbol:
        problems.append(f"cone k={k}: default and alternate strategies differ")
    print(f"  cone k={k}: {len(default.symbol.terms)} symbol terms", flush=True)
    return {
        "gens": [list(g) for g in gens],
        "n": n,
        "symbol": {
            workloads.exps_key(e): str(c)
            for e, c in sorted(default.symbol.terms.items())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=os.path.join(HERE, "references.json"),
        help="where to write the references (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    problems: list = []
    pinned = {}
    for name, (vertices, max_deg) in POLYTOPES.items():
        pinned[name] = pin_polytope(name, vertices, max_deg, problems)
    for name in DILATIONS:
        check_dilation(name, pinned, problems)
    cones = {f"cone{k}": pin_cone(k, problems) for k in CONE_INDICES}
    if problems:
        for p in problems:
            print("refusing to write:", p, file=sys.stderr)
        return 1
    data = {
        "polytopes": {
            name: {
                "vertices": [list(v) for v in vertices],
                "max_deg": max_deg,
                "monomials": {
                    workloads.exps_key(e): [str(a) for a in coeffs]
                    for e, coeffs in pinned[name].items()
                },
            }
            for name, (vertices, max_deg) in POLYTOPES.items()
        },
        "cones": cones,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
