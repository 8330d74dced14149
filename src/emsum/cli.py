"""Command-line interface: exact Euler-Maclaurin expansions from the shell.

Inputs are JSON: polytopes as {"vertices": [[int, ...], ...]}, cones as
{"generators": [[int, ...], ...]}, polynomials as term lists
[{"coeff": "p/q", "exps": [a_1, ..., a_m]}, ...]; a coefficient string with
an exponent is invalid.  All rational output is rendered in full as "p/q"
strings, never floats, in both table and json formats.

Each subcommand is an argparse subparser with one `cmd_*` function that
reads the parsed namespace.  Every option is declared once in `_OPTIONS`;
`_COMMANDS` lists each subcommand's options in order.  `_load` validates
the options and replaces the JSON inputs in the namespace by exact
objects before the command runs.

Exit codes: 0 success (and verify PASS), 1 verify FAIL, 2 invalid input
(any ValueError, including a non-positive --budget), 3 oracle enumeration
budget exceeded, 4 internal error (any other exception, on one line).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .engine import expansion
from .exactcore import MultiPoly, _is_int, as_scalar, series_coeffs_todd, series_coeffs_twisted_todd
from .geometry import build_polytope
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    coefficients_from_oracle,
    riemann_sum,
    weighted_ehrhart,
)
from .subdivide import STRATEGIES, cone_operator


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def _parse_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"{what} must be an integer or a \"p/q\" string")
    try:
        return as_scalar(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"invalid {what}: {value!r}") from exc


def _parse_rows(text: str, what: str, key: str, rows: str, entries: str) -> list:
    """A non-empty JSON list of integer rows, bare or under `key` in a dict."""
    data = _parse_json(text, what)
    if isinstance(data, dict):
        if key not in data:
            raise ValueError(f'{what} JSON needs a "{key}" key')
        data = data[key]
    if not isinstance(data, list) or not data:
        raise ValueError(f"{key} must be a non-empty list of {rows}")
    for row in data:
        if not isinstance(row, list) or not all(_is_int(c) for c in row):
            raise ValueError(f"{key} must be {entries}")
    return data


def _parse_phi(text: Optional[str], nvars: int) -> MultiPoly:
    if text is None:
        return MultiPoly.const(nvars, Fraction(1))
    data = _parse_json(text, "polynomial")
    if not isinstance(data, list):
        raise ValueError("polynomial must be a list of terms")
    total = MultiPoly.zero(nvars)
    for term in data:
        if not isinstance(term, dict) or set(term) != {"coeff", "exps"}:
            raise ValueError(
                'each polynomial term needs exactly "coeff" and "exps"'
            )
        exps = term["exps"]
        if (
            not isinstance(exps, list)
            or len(exps) != nvars
            or not all(_is_int(e) and e >= 0 for e in exps)
        ):
            raise ValueError(
                f"term exponents must be {nvars} non-negative integers"
            )
        coeff = _parse_fraction(term["coeff"], "coefficient")
        total = total + MultiPoly.monomial(tuple(exps), coeff)
    return total


def _parse_qmat(text: str, dim: int) -> Optional[tuple]:
    if text == "identity":
        return None
    data = _parse_json(text, "inner product")
    if not isinstance(data, list) or len(data) != dim or not all(
        isinstance(row, list) and len(row) == dim for row in data
    ):
        raise ValueError(f"inner product must be a {dim}x{dim} matrix")
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


# ---------------------------------------------------------------------------
# commands


def cmd_expand(args: argparse.Namespace) -> int:
    res = expansion(
        args.poly, args.phi, qmat=args.qmat, n_max=args.nmax,
        strategy=args.strategy,
    )
    lines = [f"n={n}: {a}" for n, a in res.items()]
    payload = {
        "coefficients": [{"n": n, "value": str(a)} for n, a in res.items()],
        "n_max": res.n_max,
        "complete": res.complete,
        "valuation_used": res.valuation_used,
    }
    if res.valuation_used:
        lines.append("note: valuation path used")
    if args.per_face:
        faces = {f.index: f for f in args.poly.faces}
        rows = []
        for (n, fid), val in sorted(res.per_face.items()):
            face = faces[fid]
            rows.append(
                {
                    "n": n,
                    "face": fid,
                    "dim": face.dim,
                    "vertices": [list(args.poly.vertices[i])
                                 for i in face.vertex_ids],
                    "value": str(val),
                }
            )
            lines.append(f"  n={n} face={fid} dim={face.dim}: {val}")
        payload["per_face"] = rows
    _emit(args.fmt, lines, payload)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    res = expansion(
        args.poly, args.phi, qmat=args.qmat, n_max=args.nmax,
        strategy=args.strategy,
    )
    oracle = coefficients_from_oracle(
        args.poly, args.phi, n_max=res.n_max, budget=args.budget
    )
    engine = list(res.coefficients)
    ok = engine == oracle
    lines = []
    for n in range(len(engine)):
        mark = "" if engine[n] == oracle[n] else "   <-- MISMATCH"
        lines.append(f"n={n}: engine={engine[n]} oracle={oracle[n]}{mark}")
    if res.valuation_used:
        lines.append("note: valuation path used")
    lines.append("PASS" if ok else "FAIL")
    payload = {
        "engine": [str(a) for a in engine],
        "oracle": [str(a) for a in oracle],
        "valuation_used": res.valuation_used,
        "verdict": "PASS" if ok else "FAIL",
    }
    _emit(args.fmt, lines, payload)
    return 0 if ok else 1


def cmd_todd(args: argparse.Namespace) -> int:
    bs = series_coeffs_todd(6 if args.nmax is None else args.nmax)
    lines = [f"b_{n} = {b}" for n, b in enumerate(bs)]
    _emit(args.fmt, lines, {"b": [str(b) for b in bs]})
    return 0


def cmd_twisted_todd(args: argparse.Namespace) -> int:
    n_max = 6 if args.nmax is None else args.nmax
    if n_max < 1:
        raise ValueError("nmax must be at least 1")
    bs = series_coeffs_twisted_todd(args.q_order, None, n_max)
    lines = [f"q = {args.q_order} (values as coefficient vectors mod Phi_q)"]
    rows = []
    for n, b in enumerate(bs, start=1):
        vec = [str(c) for c in b.coeffs]
        lines.append(f"b^omega_{n} = [{', '.join(vec)}]")
        rows.append({"n": n, "value": vec})
    payload = {"q": args.q_order, "coefficients": rows}
    _emit(args.fmt, lines, payload)
    return 0


def cmd_ehrhart(args: argparse.Namespace) -> int:
    ehr = weighted_ehrhart(args.poly, args.phi, budget=args.budget)
    desc = [str(c) for c in reversed(ehr.coeffs)]
    lines = [
        "T(N) = N^{dim+deg} R_N, coefficients from the leading power down:",
        "[" + ", ".join(desc) + "]",
    ]
    payload = {
        "degree": ehr.degree_bound,
        "coefficients_descending": desc,
        "a_coefficients": [str(a) for a in ehr.a_coefficients()],
    }
    _emit(args.fmt, lines, payload)
    return 0


def cmd_riemann_sum(args: argparse.Namespace) -> int:
    val = riemann_sum(args.poly, args.phi, args.n_dil, budget=args.budget)
    _emit(
        args.fmt,
        [f"R_{args.n_dil} = {val}"],
        {"N": args.n_dil, "value": str(val)},
    )
    return 0


def cmd_subdivide_cone(args: argparse.Namespace) -> int:
    signed = cone_operator(args.generators, strategy=args.strategy).cells
    lines = [f"signed cells: {len(signed)}"]
    lines += [f"  r={sc.coeff:+d} dim={sc.dim}: " + ", ".join(map(str, sc.gens)) for sc in signed]
    payload = {"signed": [{"gens": [list(g) for g in sc.gens], "coeff": sc.coeff, "dim": sc.dim}
                          for sc in signed]}
    _emit(args.fmt, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# Every option, once: flag -> add_argument keywords.  "polytope" stands for
# the required choice between --vertices and --polytope-file.
_OPTIONS = {
    "--format": dict(choices=("table", "json"), default="table", dest="fmt"),
    "--vertices": dict(help="polytope JSON or vertex list"),
    "--polytope-file": dict(help="path to a polytope JSON file"),
    "--phi": dict(help='polynomial term list JSON (default: constant 1)'),
    "--Q": dict(dest="qmat", help='"identity" or a matrix JSON'),
    "--nmax": dict(type=int, default=None),
    "--per-face": dict(action="store_true", dest="per_face"),
    "--strategy": dict(choices=STRATEGIES, default="default"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--q": dict(type=int, default=2, dest="q_order",
                help="order of the root of unity (2..12)"),
    "--N": dict(type=int, default=1, dest="n_dil"),
    "--generators": dict(required=True, help="cone JSON"),
}

_POLYTOPE = ("polytope", "--phi")
# subcommand -> (command, help, options after --format)
_COMMANDS = {
    "expand": (cmd_expand, "expansion coefficients A_n",
               _POLYTOPE + ("--Q", "--nmax", "--per-face", "--strategy")),
    "verify": (cmd_verify, "engine vs brute-force oracle",
               _POLYTOPE + ("--Q", "--nmax", "--strategy", "--budget")),
    "todd": (cmd_todd, "Bernoulli numbers of the Todd series", ("--nmax",)),
    "twisted-todd": (cmd_twisted_todd,
                     "twisted Todd coefficients in Q(omega)",
                     ("--q", "--nmax")),
    "ehrhart": (cmd_ehrhart, "weighted Ehrhart polynomial",
                _POLYTOPE + ("--budget",)),
    "riemann-sum": (cmd_riemann_sum, "exact Riemann sum at one N",
                    _POLYTOPE + ("--N", "--budget")),
    "subdivide-cone": (cmd_subdivide_cone,
                       "unimodular cells and signed faces of a cone",
                       ("--generators", "--strategy")),
}


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """Every subcommand, but only the one argv names gets its options."""
    named = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="emsum",
        description=(
            "Exact Euler-Maclaurin expansion coefficients of Riemann sums "
            "over lattice polytopes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if name != named:
            continue
        for flag in ("--format",) + options:
            if flag == "polytope":
                group = p.add_mutually_exclusive_group(required=True)
                for source in ("--vertices", "--polytope-file"):
                    group.add_argument(source, **_OPTIONS[source])
            else:
                p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _load(args: argparse.Namespace) -> None:
    """Validate the options and parse the JSON inputs into `args`.

    The checks run in one fixed order (polytope, phi, Q, generators,
    nmax, budget), so input with several errors reports the first of them
    whatever the subcommand.
    """
    if "vertices" in args:
        text = args.vertices
        if text is None:
            try:
                with open(args.polytope_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(f"cannot read polytope file: {exc}") from exc
        args.poly = build_polytope(_parse_rows(text, "polytope", "vertices", "points", "integers"))
        args.phi = _parse_phi(args.phi, args.poly.ambient_dim)
    if getattr(args, "qmat", None) is not None:
        args.qmat = _parse_qmat(args.qmat, args.poly.ambient_dim)
    if "generators" in args:
        args.generators = _parse_rows(args.generators, "cone", "generators", "vectors",
                                      "integer vectors")
    if getattr(args, "nmax", None) is not None and args.nmax < 0:
        raise ValueError("nmax must be non-negative")
    if getattr(args, "budget", DEFAULT_BUDGET) < 1:
        raise ValueError("budget must be positive")


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        _load(args)
        # exact results may outgrow the int-to-str digit limit that bounds the inputs
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return args.run(args)
        finally:
            sys.set_int_max_str_digits(limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2
    except Exception as exc:  # a crash must not read as verify's FAIL
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
