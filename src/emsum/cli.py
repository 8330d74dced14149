"""Command-line interface: exact Euler-Maclaurin expansions from the shell.

Inputs are JSON: polytopes as {"vertices": [[int, ...], ...]}, cones as
{"generators": [[int, ...], ...]}, polynomials as term lists
[{"coeff": "p/q", "exps": [a_1, ..., a_m]}, ...].  All rational output is
rendered as "p/q" strings, never floats, in both table and json formats.

Exit codes: 0 success (and verify PASS), 1 verify FAIL, 2 invalid input
(including a non-positive --budget), 3 oracle enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .combinat import todd_coefficients
from .engine import expansion
from .exactcore import MultiPoly, series_coeffs_twisted_todd
from .geometry import LatticePolytope, build_polytope
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    coefficients_from_oracle,
    riemann_sum,
    weighted_ehrhart,
)
from .subdivide import signed_coefficients, triangulate_cone, unimodularize


class InputError(Exception):
    """Invalid user input; reported on stderr with exit code 2."""


@dataclass
class JobSpec:
    """A validated CLI job: what to run and on which exact objects."""

    command: str
    poly: Optional[LatticePolytope] = None
    phi: Optional[MultiPoly] = None
    qmat: Optional[tuple] = None
    gens: Optional[list] = None
    n_max: Optional[int] = None
    n_dil: int = 1
    q_order: int = 2
    per_face: bool = False
    fmt: str = "table"
    strategy: str = "default"
    tolerance: Fraction = Fraction(1, 10 ** 9)
    budget: int = DEFAULT_BUDGET


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc


def _parse_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{what} must be an integer or a \"p/q\" string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"invalid {what}: {value!r}") from exc


def _is_int(value) -> bool:
    # JSON true/false load as bool, which subclasses int.
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_vertices(text: str) -> LatticePolytope:
    data = _parse_json(text, "polytope")
    if isinstance(data, dict):
        if "vertices" not in data:
            raise InputError('polytope JSON needs a "vertices" key')
        data = data["vertices"]
    if not isinstance(data, list) or not data:
        raise InputError("vertices must be a non-empty list of points")
    for p in data:
        if not isinstance(p, list) or not all(_is_int(c) for c in p):
            raise InputError("vertices must be integers")
    return build_polytope(data)


def _parse_generators(text: str) -> list:
    data = _parse_json(text, "cone")
    if isinstance(data, dict):
        if "generators" not in data:
            raise InputError('cone JSON needs a "generators" key')
        data = data["generators"]
    if not isinstance(data, list) or not data:
        raise InputError("generators must be a non-empty list of vectors")
    for g in data:
        if not isinstance(g, list) or not all(_is_int(c) for c in g):
            raise InputError("generators must be integer vectors")
    return data


def _parse_phi(text: Optional[str], nvars: int) -> MultiPoly:
    if text is None:
        return MultiPoly.const(nvars, Fraction(1))
    data = _parse_json(text, "polynomial")
    if not isinstance(data, list):
        raise InputError("polynomial must be a list of terms")
    total = MultiPoly.zero(nvars)
    for term in data:
        if not isinstance(term, dict) or set(term) != {"coeff", "exps"}:
            raise InputError(
                'each polynomial term needs exactly "coeff" and "exps"'
            )
        exps = term["exps"]
        if (
            not isinstance(exps, list)
            or len(exps) != nvars
            or not all(_is_int(e) and e >= 0 for e in exps)
        ):
            raise InputError(
                f"term exponents must be {nvars} non-negative integers"
            )
        coeff = _parse_fraction(term["coeff"], "coefficient")
        total = total + MultiPoly.monomial(tuple(exps), coeff)
    return total


def _parse_qmat(text: Optional[str], dim: int) -> Optional[tuple]:
    if text is None or text == "identity":
        return None
    data = _parse_json(text, "inner product")
    if not isinstance(data, list) or len(data) != dim or not all(
        isinstance(row, list) and len(row) == dim for row in data
    ):
        raise InputError(f"inner product must be a {dim}x{dim} matrix")
    return tuple(
        tuple(_parse_fraction(x, "inner product entry") for x in row)
        for row in data
    )


def _emit(fmt: str, table_lines: list, payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _frac_str(x: Fraction) -> str:
    return str(x)


# ---------------------------------------------------------------------------
# commands


def cmd_expand(spec: JobSpec) -> int:
    res = expansion(
        spec.poly, spec.phi, qmat=spec.qmat, n_max=spec.n_max,
        strategy=spec.strategy,
    )
    lines = [f"n={n}: {_frac_str(a)}" for n, a in res.items()]
    payload = {
        "coefficients": [
            {"n": n, "value": _frac_str(a)} for n, a in res.items()
        ],
        "n_max": res.n_max,
        "complete": res.complete,
        "valuation_used": res.valuation_used,
    }
    if res.valuation_used:
        lines.append("note: valuation path used")
    if spec.per_face:
        faces = {f.index: f for f in spec.poly.faces}
        rows = []
        for (n, fid), val in sorted(res.per_face.items()):
            face = faces[fid]
            rows.append(
                {
                    "n": n,
                    "face": fid,
                    "dim": face.dim,
                    "vertices": [list(spec.poly.vertices[i])
                                 for i in face.vertex_ids],
                    "value": _frac_str(val),
                }
            )
            lines.append(
                f"  n={n} face={fid} dim={face.dim}: {_frac_str(val)}"
            )
        payload["per_face"] = rows
    _emit(spec.fmt, lines, payload)
    return 0


def cmd_verify(spec: JobSpec) -> int:
    res = expansion(
        spec.poly, spec.phi, qmat=spec.qmat, n_max=spec.n_max,
        strategy=spec.strategy,
    )
    oracle = coefficients_from_oracle(
        spec.poly, spec.phi, n_max=res.n_max, budget=spec.budget
    )
    engine = list(res.coefficients)
    ok = engine == oracle
    lines = []
    for n in range(len(engine)):
        mark = "" if engine[n] == oracle[n] else "   <-- MISMATCH"
        lines.append(
            f"n={n}: engine={_frac_str(engine[n])} "
            f"oracle={_frac_str(oracle[n])}{mark}"
        )
    if res.valuation_used:
        lines.append("note: valuation path used")
    lines.append("PASS" if ok else "FAIL")
    payload = {
        "engine": [_frac_str(a) for a in engine],
        "oracle": [_frac_str(a) for a in oracle],
        "valuation_used": res.valuation_used,
        "verdict": "PASS" if ok else "FAIL",
    }
    _emit(spec.fmt, lines, payload)
    return 0 if ok else 1


def cmd_todd(spec: JobSpec) -> int:
    n_max = 6 if spec.n_max is None else spec.n_max
    if n_max < 0:
        raise InputError("nmax must be non-negative")
    bs = todd_coefficients(n_max)
    lines = [f"b_{n} = {_frac_str(b)}" for n, b in enumerate(bs)]
    payload = {"b": [_frac_str(b) for b in bs]}
    _emit(spec.fmt, lines, payload)
    return 0


def cmd_twisted_todd(spec: JobSpec) -> int:
    n_max = 6 if spec.n_max is None else spec.n_max
    if n_max < 1:
        raise InputError("nmax must be at least 1")
    bs = series_coeffs_twisted_todd(spec.q_order, None, n_max)
    lines = [f"q = {spec.q_order} (values as coefficient vectors mod Phi_q)"]
    rows = []
    for n, b in enumerate(bs, start=1):
        vec = [_frac_str(c) for c in b.coeffs]
        lines.append(f"b^omega_{n} = [{', '.join(vec)}]")
        rows.append({"n": n, "value": vec})
    payload = {"q": spec.q_order, "coefficients": rows}
    _emit(spec.fmt, lines, payload)
    return 0


def cmd_ehrhart(spec: JobSpec) -> int:
    ehr = weighted_ehrhart(spec.poly, spec.phi, budget=spec.budget)
    desc = list(reversed(ehr.coeffs))
    lines = [
        "T(N) = N^{dim+deg} R_N, coefficients from the leading power down:",
        "[" + ", ".join(_frac_str(c) for c in desc) + "]",
    ]
    payload = {
        "degree": ehr.degree_bound,
        "coefficients_descending": [_frac_str(c) for c in desc],
        "a_coefficients": [_frac_str(a) for a in ehr.a_coefficients()],
    }
    _emit(spec.fmt, lines, payload)
    return 0


def cmd_riemann_sum(spec: JobSpec) -> int:
    val = riemann_sum(spec.poly, spec.phi, spec.n_dil, budget=spec.budget)
    _emit(
        spec.fmt,
        [f"R_{spec.n_dil} = {_frac_str(val)}"],
        {"N": spec.n_dil, "value": _frac_str(val)},
    )
    return 0


def cmd_subdivide_cone(spec: JobSpec) -> int:
    fan = unimodularize(
        triangulate_cone(spec.gens, strategy=spec.strategy),
        strategy=spec.strategy,
    )
    signed = signed_coefficients(fan)
    lines = [f"unimodular cells: {len(fan)}"]
    for cell in fan:
        lines.append("cell: " + ", ".join(str(g) for g in cell))
    lines.append("signed faces:")
    for sc in signed:
        gens = ", ".join(str(g) for g in sc.gens) if sc.gens else "origin"
        lines.append(f"  r={sc.coeff:+d} dim={sc.dim}: {gens}")
    payload = {
        "cells": [[list(g) for g in cell] for cell in fan],
        "signed": [
            {
                "gens": [list(g) for g in sc.gens],
                "coeff": sc.coeff,
                "dim": sc.dim,
            }
            for sc in signed
        ],
    }
    _emit(spec.fmt, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emsum",
        description=(
            "Exact Euler-Maclaurin expansion coefficients of Riemann sums "
            "over lattice polytopes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, polytope=False, phi=False):
        p.add_argument("--format", choices=("table", "json"),
                       default="table", dest="fmt")
        p.add_argument(
            "--tolerance", default="1/1000000000",
            help="tolerance for numeric comparisons (reserved; all shipped "
                 "commands are exact)",
        )
        if polytope:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--vertices", help="polytope JSON or vertex list")
            src.add_argument("--polytope-file",
                             help="path to a polytope JSON file")
        if phi:
            p.add_argument(
                "--phi",
                help='polynomial term list JSON (default: constant 1)',
            )

    p = sub.add_parser("expand", help="expansion coefficients A_n")
    add_common(p, polytope=True, phi=True)
    p.add_argument("--Q", dest="qmat", help='"identity" or a matrix JSON')
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--per-face", action="store_true", dest="per_face")
    p.add_argument("--strategy", choices=("default", "alternate"),
                   default="default")

    p = sub.add_parser("verify", help="engine vs brute-force oracle")
    add_common(p, polytope=True, phi=True)
    p.add_argument("--Q", dest="qmat", help='"identity" or a matrix JSON')
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--strategy", choices=("default", "alternate"),
                   default="default")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("todd", help="Bernoulli numbers of the Todd series")
    add_common(p)
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("twisted-todd",
                       help="twisted Todd coefficients in Q(omega)")
    add_common(p)
    p.add_argument("--q", type=int, default=2, dest="q_order",
                   help="order of the root of unity (2..12)")
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("ehrhart", help="weighted Ehrhart polynomial")
    add_common(p, polytope=True, phi=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("riemann-sum", help="exact Riemann sum at one N")
    add_common(p, polytope=True, phi=True)
    p.add_argument("--N", type=int, default=1, dest="n_dil")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("subdivide-cone",
                       help="unimodular cells and signed faces of a cone")
    add_common(p)
    p.add_argument("--generators", required=True, help="cone JSON")
    p.add_argument("--strategy", choices=("default", "alternate"),
                   default="default")
    return parser


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    spec = JobSpec(command=args.command, fmt=args.fmt)
    spec.tolerance = _parse_fraction(args.tolerance, "tolerance")
    if spec.tolerance <= 0:
        raise InputError("tolerance must be positive")
    if hasattr(args, "vertices"):
        text = args.vertices
        if text is None:
            try:
                with open(args.polytope_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read polytope file: {exc}") from exc
        spec.poly = _parse_vertices(text)
        spec.phi = _parse_phi(getattr(args, "phi", None),
                              spec.poly.ambient_dim)
    if getattr(args, "qmat", None) is not None:
        spec.qmat = _parse_qmat(args.qmat, spec.poly.ambient_dim)
    if hasattr(args, "generators"):
        spec.gens = _parse_generators(args.generators)
    if hasattr(args, "n_max") or hasattr(args, "nmax"):
        spec.n_max = getattr(args, "nmax", None)
    for field in ("n_dil", "q_order", "per_face", "strategy", "budget"):
        if hasattr(args, field):
            setattr(spec, field, getattr(args, field))
    if spec.n_max is not None and spec.n_max < 0:
        raise InputError("nmax must be non-negative")
    if spec.budget < 1:
        raise InputError("budget must be positive")
    return spec


_DISPATCH = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "todd": cmd_todd,
    "twisted-todd": cmd_twisted_todd,
    "ehrhart": cmd_ehrhart,
    "riemann-sum": cmd_riemann_sum,
    "subdivide-cone": cmd_subdivide_cone,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return _DISPATCH[args.command](spec)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
