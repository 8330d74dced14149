"""End-to-end tests of the command-line interface."""

import hashlib
import json
import sys
import time
from fractions import Fraction as F

import pytest

from emsum import cli, subdivide
from emsum.subdivide import STRATEGIES

from _helpers import assert_cells_hold_the_cone_pointwise

SQUARE = '{"vertices": [[0,0],[1,0],[0,1],[1,1]]}'
OCTAHEDRON = '[[1,0,0],[-1,0,0],[0,1,0],[0,-1,0],[0,0,1],[0,0,-1]]'


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_square_table(capsys):
    code, out, err = run(capsys, ["expand", "--vertices", SQUARE])
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["n=0: 1", "n=1: 2", "n=2: 1"]


def test_expand_per_face_vertex_rows(capsys):
    code, out, _ = run(
        capsys, ["expand", "--vertices", SQUARE, "--per-face"]
    )
    assert code == 0
    corner_rows = [
        line for line in out.splitlines()
        if line.startswith("  n=2") and "dim=0" in line
    ]
    assert len(corner_rows) == 4
    assert all(line.endswith("1/4") for line in corner_rows)


def test_expand_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        ["expand", "--vertices", SQUARE, "--format", "json", "--per-face"],
    )
    assert code == 0
    data = json.loads(out)
    values = [F(entry["value"]) for entry in data["coefficients"]]
    assert values == [F(1), F(2), F(1)]
    assert data["complete"] is True
    assert data["valuation_used"] is False
    by_n = {}
    for row in data["per_face"]:
        by_n[row["n"]] = by_n.get(row["n"], F(0)) + F(row["value"])
    assert by_n == {0: F(1), 1: F(2), 2: F(1)}


def test_expand_rejects_non_integer_vertices(capsys):
    code, _, err = run(
        capsys, ["expand", "--vertices", "[[0, 0.5], [1, 0], [0, 1]]"]
    )
    assert code == 2
    assert "vertices must be integers" in err


@pytest.mark.parametrize("command", ["expand", "verify", "riemann-sum"])
def test_vertices_without_coordinates_are_invalid_input(capsys, command):
    code, out, err = run(capsys, [command, "--vertices", "[[]]"])
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: polytope vertices need at least one coordinate"
    )


def test_expand_with_inner_product_and_nmax(capsys):
    code, out, _ = run(
        capsys,
        [
            "expand", "--vertices", SQUARE,
            "--Q", "[[2, 1], [1, 2]]", "--nmax", "1",
        ],
    )
    assert code == 0
    assert out.splitlines() == ["n=0: 1", "n=1: 2"]


def test_expand_polynomial_terms(capsys):
    phi = '[{"coeff": "1", "exps": [1, 1]}]'
    code, out, _ = run(
        capsys, ["expand", "--vertices", SQUARE, "--phi", phi]
    )
    assert code == 0
    assert out.splitlines()[0] == "n=0: 1/4"


def test_expand_rejects_malformed_phi(capsys):
    code, _, err = run(
        capsys,
        ["expand", "--vertices", SQUARE, "--phi", '[{"coeff": "1"}]'],
    )
    assert code == 2
    assert "coeff" in err


def test_expand_rejects_boolean_exponents(capsys):
    code, out, err = run(
        capsys,
        [
            "expand", "--vertices", SQUARE,
            "--phi", '[{"coeff": 1, "exps": [true, false]}]',
        ],
    )
    assert code == 2
    assert out == ""
    assert "exponents" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--vertices", SQUARE])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_octahedron_valuation_note(capsys):
    code, out, _ = run(capsys, ["verify", "--vertices", OCTAHEDRON])
    assert code == 0
    lines = out.splitlines()
    assert "note: valuation path used" in lines
    assert lines[-1] == "PASS"


def test_verify_fail_on_perturbed_oracle(capsys, monkeypatch):
    real = cli.coefficients_from_oracle

    def perturbed(poly, phi, n_max=None, budget=None):
        out = real(poly, phi, n_max=n_max)
        out[-1] += 1
        return out

    monkeypatch.setattr(cli, "coefficients_from_oracle", perturbed)
    code, out, _ = run(capsys, ["verify", "--vertices", SQUARE])
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"
    assert any("MISMATCH" in line for line in out.splitlines())


def test_verify_budget_exceeded(capsys):
    code, _, err = run(
        capsys, ["verify", "--vertices", SQUARE, "--budget", "3"]
    )
    assert code == 3
    assert "desk-scale exceeded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ehrhart", "--vertices", SQUARE, "--budget", "3"],
        ["riemann-sum", "--vertices", SQUARE, "--N", "2", "--budget", "3"],
    ],
)
def test_oracle_commands_over_budget_exit_3(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "desk-scale exceeded" in err


@pytest.mark.parametrize("command", ["verify", "ehrhart", "riemann-sum"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_is_invalid_input(capsys, command, budget):
    code, out, err = run(
        capsys, [command, "--vertices", SQUARE, "--budget", budget]
    )
    assert code == 2
    assert out == ""
    assert "budget" in err
    assert "desk-scale exceeded" not in err


def test_expand_rejects_ragged_vertices(capsys):
    code, out, err = run(capsys, ["expand", "--vertices", "[[0,0],[1]]"])
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: polytope vertices must all have the same length"
    )


def test_todd_table_and_json(capsys):
    code, out, _ = run(capsys, ["todd", "--nmax", "4"])
    assert code == 0
    assert out.splitlines() == [
        "b_0 = 1", "b_1 = -1/2", "b_2 = 1/6", "b_3 = 0", "b_4 = -1/30",
    ]
    code, out, _ = run(capsys, ["todd", "--nmax", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["b"] == ["1", "-1/2", "1/6", "0", "-1/30"]


def test_twisted_todd_values(capsys):
    code, out, _ = run(
        capsys, ["twisted-todd", "--q", "3", "--nmax", "2", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 3
    # b^omega_1 = 1/(1 - omega) = 2/3 + omega/3 in Q(omega)
    assert data["coefficients"][0] == {"n": 1, "value": ["2/3", "1/3"]}


def test_twisted_todd_rejects_bad_order(capsys):
    code, _, err = run(capsys, ["twisted-todd", "--q", "1"])
    assert code == 2
    assert "cyclotomic order" in err


def test_ehrhart_cube(capsys):
    cube = json.dumps(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    code, out, _ = run(
        capsys, ["ehrhart", "--vertices", cube, "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["coefficients_descending"] == ["1", "3", "3", "1"]


def test_ehrhart_interval_weighted(capsys):
    phi = '[{"coeff": "1", "exps": [1]}]'
    code, out, _ = run(
        capsys,
        ["ehrhart", "--vertices", "[[0],[1]]", "--phi", phi,
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["a_coefficients"] == ["1/2", "1/2", "0"]


def test_riemann_sum_examples(capsys):
    code, out, _ = run(
        capsys, ["riemann-sum", "--vertices", SQUARE, "--N", "2"]
    )
    assert code == 0
    assert out.strip() == "R_2 = 9/4"
    phi = '[{"coeff": "1", "exps": [1]}]'
    code, out, _ = run(
        capsys,
        ["riemann-sum", "--vertices", "[[0],[1]]", "--phi", phi, "--N", "2"],
    )
    assert code == 0
    assert out.strip() == "R_2 = 3/4"


def _signed_payload(cells):
    return {"signed": [{"gens": [list(g) for g in sc.gens], "coeff": sc.coeff, "dim": sc.dim}
                       for sc in cells]}


def test_subdivide_cone_table(capsys):
    code, out, _ = run(
        capsys,
        ["subdivide-cone", "--generators",
         '{"generators": [[1,0],[1,2]]}'],
    )
    assert code == 0
    assert out.splitlines() == [
        "signed cells: 3",
        "  r=+1 dim=2: (1, 0), (1, 1)",
        "  r=+1 dim=2: (1, 1), (1, 2)",
        "  r=-1 dim=1: (1, 1)",
    ]


def test_subdivide_cone_json(capsys):
    # both strategies split the index-2 cone at (1, 1)
    for strategy in STRATEGIES:
        code, out, _ = run(
            capsys,
            ["subdivide-cone", "--generators", "[[1,0],[1,2]]",
             "--strategy", strategy, "--format", "json"],
        )
        assert code == 0
        assert json.loads(out) == {"signed": [
            {"gens": [[1, 0], [1, 1]], "coeff": 1, "dim": 2},
            {"gens": [[1, 1], [1, 2]], "coeff": 1, "dim": 2},
            {"gens": [[1, 1]], "coeff": -1, "dim": 1},
        ]}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_subdivide_cone_takes_one_smith_form_per_cell(capsys, monkeypatch, strategy):
    # the command prints the signed cells that `cone_operator` sums; under
    # alternate they are the nonzero signed faces of `unimodularize`
    # followed by `signed_coefficients`, a route the command does not take,
    # and each of their cells takes a Smith form; under default only the
    # one triangulation cell, of index 7, takes one, and no leaf
    gens = [[1, 0, 0], [1, 7, 0], [0, 0, 1], [1, 2, 5]]
    if strategy == "alternate":
        fan = subdivide.unimodularize(subdivide.triangulate_cone(gens, strategy), strategy)
        expected = [sc for sc in subdivide.signed_coefficients(fan) if sc.coeff]
    else:
        expected = subdivide.cone_operator(gens, strategy=strategy).cells
    seen = []
    real = subdivide._cell_lattice
    monkeypatch.setattr(
        subdivide, "_cell_lattice", lambda cell: seen.append(cell) or real(cell)
    )
    code, out, _ = run(
        capsys,
        ["subdivide-cone", "--generators", json.dumps(gens),
         "--strategy", strategy, "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == _signed_payload(expected)
    assert len(seen) == len(set(seen))
    full = {sc.gens for sc in expected if sc.dim == 3}
    if strategy == "alternate":
        assert full <= set(seen)
    else:
        assert seen == [((0, 0, 1), (1, 0, 0), (1, 7, 0))] and not full & set(seen)


@pytest.mark.parametrize("strategy, count", [("default", 5), ("alternate", 85)])
def test_subdivide_cone_prints_the_cells_that_the_operator_sums(capsys, strategy, count):
    # cone(e1, e2, e1 + e2 + 15 e3): the default route's signed short-vector
    # steps give 5 cells, the 29-cell stellar fan 85 nonzero signed faces
    gens = [[1, 0, 0], [0, 1, 0], [1, 1, 15]]
    cells = subdivide.cone_operator(gens, strategy=strategy).cells
    assert len(cells) == count
    code, out, _ = run(
        capsys,
        ["subdivide-cone", "--generators", json.dumps(gens),
         "--strategy", strategy, "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == _signed_payload(cells)
    assert_cells_hold_the_cone_pointwise(gens, cells, 2)


def test_subdivide_cone_rejects_non_pointed(capsys):
    code, _, err = run(
        capsys, ["subdivide-cone", "--generators", "[[1,0],[-1,0]]"]
    )
    assert code == 2
    assert "not pointed" in err


def test_polytope_file_input(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE, encoding="utf-8")
    code, out, _ = run(capsys, ["expand", "--polytope-file", str(path)])
    assert code == 0
    assert out.splitlines() == ["n=0: 1", "n=1: 2", "n=2: 1"]


DEEP = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize("option, what", [
    ("--vertices", "polytope"), ("--polytope-file", "polytope"), ("--phi", "polynomial"),
    ("--Q", "inner product"), ("--generators", "cone"),
])
def test_deeply_nested_json_is_invalid_input(capsys, tmp_path, option, what):
    # json.loads raises RecursionError here, which must exit 2, not 1 (FAIL)
    argv = {
        "--vertices": ["expand", "--vertices", DEEP],
        "--polytope-file": ["expand", "--polytope-file", str(tmp_path / "deep.json")],
        "--phi": ["expand", "--vertices", SQUARE, "--phi", DEEP],
        "--Q": ["expand", "--vertices", SQUARE, "--Q", DEEP],
        "--generators": ["subdivide-cone", "--generators", DEEP],
    }[option]
    (tmp_path / "deep.json").write_text(DEEP, encoding="utf-8")
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed {what} JSON: ") and err.count("\n") == 1
    assert "Traceback" not in err


ROW_ERRORS = {
    "polytope-without-key": (["expand", "--vertices", '{"points": []}'],
                             'polytope JSON needs a "vertices" key'),
    "no-vertices": (["expand", "--vertices", "[]"], "vertices must be a non-empty list of points"),
    "vertex-not-a-list": (["expand", "--vertices", "[1]"], "vertices must be integers"),
    "fractional-vertex": (["expand", "--vertices", "[[0.5]]"], "vertices must be integers"),
    "cone-without-key": (["subdivide-cone", "--generators", '{"rays": []}'],
                         'cone JSON needs a "generators" key'),
    "no-generators": (["subdivide-cone", "--generators", '{"generators": 3}'],
                      "generators must be a non-empty list of vectors"),
    "generator-not-a-list": (["subdivide-cone", "--generators", '["a"]'],
                             "generators must be integer vectors"),
    "boolean-generator": (["subdivide-cone", "--generators", "[[true, 1]]"],
                          "generators must be integer vectors"),
}


@pytest.mark.parametrize("argv, message", ROW_ERRORS.values(), ids=ROW_ERRORS.keys())
def test_vertex_and_generator_lists_report_their_own_nouns(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_results_past_the_int_to_str_digit_limit_are_printed(capsys, fmt):
    # the input's 1,501 digits are under the limit; A_0 = 10^4500 / 3 is not
    limit = sys.get_int_max_str_digits()
    argv = ["expand", "--vertices", "[[0], [1" + "0" * 1500 + "]]",
            "--phi", '[{"coeff": "1", "exps": [2]}]', "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        a0 = json.loads(out)["coefficients"][0]["value"]
    else:
        a0 = out.splitlines()[0].removeprefix("n=0: ")
    assert a0 == "1" + "0" * 4500 + "/3"


@pytest.mark.parametrize("extra, what", [
    (["--phi", '[{"coeff": "1e100000000", "exps": [0, 0]}]'], "coefficient"),
    (["--Q", '[["1e100000000", 0], [0, 1]]'], "inner product entry"),
], ids=["phi", "Q"])
def test_exponent_notation_is_invalid_input(capsys, extra, what):
    # Fraction("1e100000000") would build 10^100000000 before any check
    start = time.perf_counter()
    code, out, err = run(capsys, ["expand", "--vertices", SQUARE] + extra)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: invalid {what}: '1e100000000'\n")


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError()], ids=["RuntimeError", "MemoryError"])
def test_a_crash_is_an_internal_error_not_a_fail(capsys, monkeypatch, exc):
    # exit 1 means verify FAIL, so an unexpected exception exits 4
    def crash(*args, **kwargs):
        raise exc

    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "expansion", crash)
    code, out, err = run(capsys, ["verify", "--vertices", SQUARE])
    assert (code, out) == (4, "")
    assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"
    assert sys.get_int_max_str_digits() == limit


def test_deterministic_json_output(capsys):
    argv = ["expand", "--vertices", SQUARE, "--format", "json", "--per-face"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


HELP_OPTIONS = {
    "expand": ["--format", "--vertices", "--polytope-file", "--phi", "--Q",
               "--nmax", "--per-face", "--strategy"],
    "verify": ["--format", "--vertices", "--polytope-file", "--phi", "--Q",
               "--nmax", "--strategy", "--budget"],
    "todd": ["--format", "--nmax"],
    "twisted-todd": ["--format", "--q", "--nmax"],
    "ehrhart": ["--format", "--vertices", "--polytope-file", "--phi",
                "--budget"],
    "riemann-sum": ["--format", "--vertices", "--polytope-file", "--phi",
                    "--N", "--budget"],
    "subdivide-cone": ["--format", "--generators", "--strategy"],
}


def help_text(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_options_in_order(capsys, command):
    listed = [
        line.split()[0].rstrip(",")
        for line in help_text(capsys, command).split("options:")[1].splitlines()
        if line.startswith("  -")
    ]
    assert listed == ["-h"] + HELP_OPTIONS[command]


@pytest.mark.parametrize("command", ["expand", "verify", "subdivide-cone"])
def test_strategy_choices_are_the_subdivision_strategies(capsys, command):
    choices = "{" + ",".join(STRATEGIES) + "}"
    assert f"--strategy {choices}" in help_text(capsys, command)


def test_todd_rejects_negative_nmax(capsys):
    code, out, err = run(capsys, ["todd", "--nmax", "-2"])
    assert code == 2
    assert out == ""
    assert err.strip() == "error: nmax must be non-negative"


def test_ragged_vertices_reported_before_budget(capsys):
    code, _, err = run(
        capsys, ["verify", "--vertices", "[[0,0],[1]]", "--budget", "0"]
    )
    assert code == 2
    assert err.strip() == (
        "error: polytope vertices must all have the same length"
    )


def test_subdivide_cone_rejects_ragged_generators(capsys):
    code, out, err = run(
        capsys, ["subdivide-cone", "--generators", "[[1,0],[0,1,2]]"]
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: generators must all have the same length"


# help, usage errors and a few runs whose output and exit codes must stay
# byte-identical however the parser is built
PARSER_ARGV = (
    [["-h"], ["--help"], ["-h", "verify"], [], ["frobnicate"], ["--format", "json", "todd"]]
    + [[command, "-h"] for command in HELP_OPTIONS]
    + [
        ["verify"],
        ["subdivide-cone"],
        ["verify", "--vertices", SQUARE, "--bogus"],
        ["expand", "--vertices", SQUARE, "--format", "xml"],
        ["todd", "--format", "xml"],
        ["expand", "--vertices", SQUARE, "--polytope-file", "square.json"],
        ["riemann-sum", "--vertices", SQUARE, "--N", "two"],
        ["verify", "--vertices", SQUARE, "--strategy", "best"],
        ["expand", "--vert", SQUARE, "--form", "json"],
        ["twisted-todd", "--q", "3", "--format", "json"],
        ["verify", "--vertices", SQUARE],
    ]
)
PARSER_DIGEST = "8411772373cc32f68016e916d3577615ef6cfcf532ed4863db924e456e8dedd5"


def test_parser_output_and_exit_codes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in PARSER_ARGV:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(repr((argv, code, captured.out, captured.err)).encode())
    assert digest.hexdigest() == PARSER_DIGEST
