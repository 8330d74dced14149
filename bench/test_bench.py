"""Self-tests of the benchmark (run: python3 -m pytest bench -q)."""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Bindings that `from ... import` creates in the calling modules; a tracer
# that wrapped only the defining module would miss every call through them.
CALLER_BINDINGS = {
    "conecalc.vertex_op": {"engine.vertex_op", "subdivide.vertex_op"},
    "geometry.integrate_poly_over_face": {"engine.integrate_poly_over_face"},
    "geometry.build_polytope": {"geometry.build_polytope",
                                "cli.build_polytope"},
    "subdivide.bv_op_pointed": {"engine.bv_op_pointed"},
    "conecalc.UniCone": {"subdivide.UniCone", "engine.UniCone"},
    "engine.expansion": {"cli.expansion"},
    "oracle.weighted_ehrhart": {"cli.weighted_ehrhart"},
    "conecalc.DiffOp.apply": {"conecalc.DiffOp.apply"},
}


@pytest.fixture
def emsum():
    return run.import_emsum()


@pytest.fixture
def refs():
    return workloads.load_references(run.REFERENCES)


def _descs(workload, emsum, refs, seed, n):
    stream = workloads.cases(workload, emsum, refs, seed)
    return [(c.kind, json.dumps(c.desc, sort_keys=True))
            for c in (next(stream) for _ in range(n))]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_cases(workload, emsum, refs):
    assert (_descs(workload, emsum, refs, 7, 12)
            == _descs(workload, emsum, refs, 7, 12))


def test_other_seed_changes_valuation_transforms(emsum, refs):
    def transforms(seed):
        stream = workloads.cases("valuation", emsum, refs, seed)
        return [c.desc.get("matrix", c.desc.get("gens"))
                for c in (next(stream) for _ in range(8))]

    assert transforms(1) != transforms(2)


def _emsum_bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "emsum" or name.startswith("emsum.")
        for attr, value in vars(mod).items()
    }


def test_tracer_rebinds_callers_and_restores_everything(emsum):
    before = _emsum_bindings()
    apply_before = emsum.conecalc.DiffOp.apply
    tracer = tracing.Tracer()
    with tracer:
        assert emsum.engine.vertex_op.__wrapped__ is before[
            ("emsum.conecalc", "vertex_op")]
    for label, sites in CALLER_BINDINGS.items():
        assert sites <= set(tracer.bindings[label]), label
    after = _emsum_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert emsum.conecalc.DiffOp.apply is apply_before


def test_tracer_reports_a_removed_binding_as_absent(emsum, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + ("engine.no_such_function",
                                           "conecalc.DiffOp.no_such_method"))
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.bindings["engine.no_such_function"] == []
    assert tracer.bindings["conecalc.DiffOp.no_such_method"] == []
    assert tracer.bindings["engine.expansion"]


def test_self_times_sum_to_the_root_span(emsum):
    exactcore, geometry = emsum.exactcore, emsum.geometry
    square = geometry.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    phi = exactcore.MultiPoly.monomial((1, 1))
    tracer = tracing.Tracer()
    with tracer, tracer.case(0):
        emsum.engine.expansion(square, phi)
    own = tracer.self_times()
    root = tracer.spans[0]
    assert root[0] == tracing.CASE
    duration = root[2] - root[1]
    assert len(tracer.spans) > 10
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(duration, rel=1e-9)
    # what no traced function covers is the tracer's own bookkeeping
    assert own[0] <= 0.1 * duration


def test_corrupted_reference_fails_the_case_and_the_run(tmp_path, monkeypatch,
                                                        capsys):
    with open(run.REFERENCES, encoding="utf-8") as fh:
        data = json.load(fh)
    for coeffs in data["polytopes"]["triangle"]["monomials"].values():
        coeffs[0] = str(Fraction(coeffs[0]) + 1)
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setattr(run, "REFERENCES", str(bad))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(workloads, "VERIFY_PATTERN", ("triangle", "square3"))
    code = run.main(["--workload", "verify", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    # the 5 warm-ups and every timed triangle fail; the squares still pass
    assert result["failed"] > run.SETUP_REPEATS
    assert result["attempted"] > result["failed"]


def test_timed_run_measures_whole_rounds_rescaled_to_reference_speed(
        monkeypatch):
    # A host that runs the probe twice as fast as the reference host: every
    # timing is rescaled to twice its raw value.
    monkeypatch.setattr(run, "probe", lambda: run.REF_PROBE_S / 2)
    monkeypatch.setattr(workloads, "VERIFY_PATTERN", ("triangle", "square3"))
    tally, metrics, details = run.timed_run("verify", 1, 1)
    assert tally.failed == 0
    assert details["case_s.samples"] == 2 * details["rounds"]
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["setup_s"] == pytest.approx(2 * details["raw.setup_s"])
    assert value["cases_per_s"] == pytest.approx(details["raw.cases_per_s"] / 2)
    assert value["case_s.p50"] == pytest.approx(2 * details["raw.case_s.p50"])
    assert details["case_s.tail"] == pytest.approx(2 * details["raw.case_s.tail"])


def _traced_metrics(monkeypatch, tmp_path, capsys):
    # Two cheap cases; the triangle takes the valuation route, so every
    # layer runs.
    monkeypatch.setattr(workloads, "VERIFY_PATTERN", ("triangle", "square3"))
    monkeypatch.setattr(workloads, "TRACE_ROUNDS", {"verify": 1})
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "verify", "--seed", "5", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return result["metrics"]


def test_traced_counts_repeat_and_match_benchmark_json(monkeypatch, tmp_path,
                                                       capsys):
    first = _traced_metrics(monkeypatch, tmp_path, capsys)
    second = _traced_metrics(monkeypatch, tmp_path, capsys)
    timed = ("self_s", "self_share", "overhead_frac")
    counts = {k: v for k, v in first.items() if not k.endswith(timed)}
    assert counts == {k: second[k] for k in counts}
    # verify runs every layer
    for layer in tracing.LAYERS:
        assert first[f"{layer}.self_share"]["value"] > 0, layer

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in first.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        run.END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
