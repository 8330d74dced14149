"""Outside-in tracer for the emsum benchmark.

The tracer records a span around every call into a fixed set of emsum's
public functions, from outside the package: it rebinds each function's
name in every emsum module that holds it.  ``from .geometry import
build_polytope`` binds the name per module, so wrapping only the
defining module would miss the calls made through ``engine``,
``subdivide`` or ``cli``.  Leaving the tracer restores every binding.

A span is [label, start, end, parent span, case id].  Spans are kept in
memory and summarised (or written) when the run ends.  Calls made while
no case is open pass straight through.  ``exactcore`` and ``combinat``
are called once per arithmetic operation, which is too fine to wrap;
their time shows in the self time of their callers.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "emsum"
CASE = "case"

# "<module>.<name>" or "<module>.<class>.<method>" under the package.
TARGETS = (
    "engine.expansion",
    "geometry.transverse_cone",
    "geometry.integrate_poly_over_face",
    "geometry.build_polytope",
    "geometry.is_delzant",
    "conecalc.vertex_op",
    "conecalc.UniCone",
    "conecalc.DiffOp.apply",
    "subdivide.bv_op_pointed",
    "subdivide.triangulate_cone",
    "subdivide.unimodularize",
    "subdivide.signed_coefficients",
    "oracle.riemann_sum",
    "oracle.weighted_ehrhart",
    "cli.main",
)
LAYERS = ("engine", "geometry", "conecalc", "subdivide", "oracle", "cli")
# Calls that request the operator of one cone at one order.
OPERATORS = ("conecalc.vertex_op", "subdivide.bv_op_pointed")
# Calls whose arguments or results the summary inspects.
OBSERVED = OPERATORS + (
    "conecalc.UniCone",
    "geometry.build_polytope",
    "subdivide.unimodularize",
    "subdivide.signed_coefficients",
    "oracle.riemann_sum",
)


class Tracer:
    """Spans around emsum's public functions, installed while entered.

    ``with tracer:`` rebinds the targets, ``with tracer.case(i):`` opens
    the root span of case i; leaving restores what was entered.
    """

    def __init__(self):
        self.spans: list = []
        self.records: list = []  # (span index, bound arguments, result)
        self.bindings: dict = {}  # label -> rebound sites; [] when absent
        self._stack: list = []
        self._case = None
        self._saved: list = []
        self._originals: dict = {}

    # -- installing -------------------------------------------------------

    def __enter__(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for label in TARGETS:
            self.bindings[label] = self._install(label, modules)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _install(self, label: str, modules: dict) -> list:
        modname, _, attr = label.partition(".")
        mod = modules.get(f"{PACKAGE}.{modname}")
        if "." in attr:
            clsname, method = attr.split(".")
            cls = getattr(mod, clsname, None)
            original = vars(cls).get(method) if isinstance(cls, type) else None
            if original is None:
                return []
            self._originals[label] = original
            self._rebind(cls, method, self._wrap(label, original))
            return [label]
        original = getattr(mod, attr, None)
        if original is None:
            return []
        self._originals[label] = original
        wrapper = self._wrap(label, original)
        sites = []
        for name, module in modules.items():
            for aname, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, aname, wrapper)
                    sites.append(f"{name.partition('.')[2] or name}.{aname}")
        return sorted(sites)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, label: str, fn):
        spans, stack, records = self.spans, self._stack, self.records
        observed = label in OBSERVED
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1], tracer._case]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if observed:
                records.append((idx, args, kwargs, result))
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__wrapped__ = fn
        return traced

    # -- recording --------------------------------------------------------

    @contextmanager
    def case(self, case_id):
        """Open the root span of one case."""
        idx = len(self.spans)
        span = [CASE, 0.0, 0.0, None, case_id]
        self.spans.append(span)
        self._stack.append(idx)
        self._case = case_id
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._case = None

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": label, "start": start, "end": end,
                                     "parent": parent, "case": case}))
                fh.write("\n")

    # -- summarising ------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def _bound(self, label: str, args: tuple, kwargs: dict):
        sig = inspect.signature(self._originals[label])
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _observations(self) -> dict:
        """Per observed span: the key of its input and a size of its output."""
        out = {}
        for idx, args, kwargs, result in self.records:
            label = self.spans[idx][0]
            a = self._bound(label, args, kwargs)
            if label == "conecalc.vertex_op":
                cone = a["cone"]
                out[idx] = (label, (cone.gens, cone.qmat, a["n"]))
            elif label == "subdivide.bv_op_pointed":
                out[idx] = (label, (_freeze(a["gens"]), _freeze(a["qmat"]),
                                    a["n"], a["strategy"]))
            elif label == "conecalc.UniCone":
                out[idx] = (label, (_freeze(a["gens"]), _freeze(a["qmat"])))
            elif label == "geometry.build_polytope":
                points = tuple(sorted(_freeze(a["points"])))
                out[idx] = (label, (points, a["affine_hull"]))
            elif label == "subdivide.unimodularize":
                out[idx] = (label, len(result))
            elif label == "subdivide.signed_coefficients":
                nonzero = sum(1 for cell in result if cell.coeff != 0)
                out[idx] = (label, (nonzero, len(result)))
            elif label == "oracle.riemann_sum":
                verts, n = a["poly"].vertices, a["n"]
                box = 1
                for i in range(len(verts[0])):
                    coords = [v[i] for v in verts]
                    box *= n * (max(coords) - min(coords)) + 1
                out[idx] = (label, box)
        return out

    def summary(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        root_s = 0.0
        for (label, start, end, _, _), t in zip(self.spans, own):
            if label == CASE:
                root_s += end - start
                continue
            calls[label] += 1
            self_s[label] += t
        metrics = {}
        for label in TARGETS:
            metrics[f"{label}.calls"] = (calls[label], "count")
            metrics[f"{label}.self_s"] = (self_s[label], "s")
        for layer in LAYERS:
            total = sum(s for lab, s in self_s.items()
                        if lab.partition(".")[0] == layer)
            metrics[f"{layer}.self_share"] = (
                total / root_s if root_s else 0.0, "ratio")

        obs = self._observations()
        by_label = defaultdict(list)
        for idx in sorted(obs):
            label, value = obs[idx]
            by_label[label].append((self.spans[idx][4], value))

        def distinct_ratio(label, key=lambda v: v):
            items = by_label[label]
            distinct = len({(case, key(v)) for case, v in items})
            return (distinct / len(items) if items else 0.0, "ratio")

        metrics["subdivide.bv_op_pointed.distinct_ratio"] = distinct_ratio(
            "subdivide.bv_op_pointed", key=lambda v: (v[0], v[1], v[3]))
        metrics["conecalc.UniCone.distinct_ratio"] = distinct_ratio(
            "conecalc.UniCone")
        metrics["geometry.build_polytope.distinct_ratio"] = distinct_ratio(
            "geometry.build_polytope")
        metrics["subdivide.unimodularize.cells"] = (
            sum(v for _, v in by_label["subdivide.unimodularize"]), "count")
        signed = by_label["subdivide.signed_coefficients"]
        total = sum(v[1] for _, v in signed)
        metrics["subdivide.signed_coefficients.nonzero_ratio"] = (
            sum(v[0] for _, v in signed) / total if total else 0.0, "ratio")
        metrics["oracle.riemann_sum.box_points"] = (
            sum(v for _, v in by_label["oracle.riemann_sum"]), "count")

        requests = [
            (self.spans[idx][4], obs[idx])
            for idx in sorted(obs)
            if obs[idx][0] in OPERATORS and not self._inside_operator(idx)
        ]
        builds = [(case, ("build", v)) for case, v in
                  by_label["geometry.build_polytope"]]
        for name, items in (("op_request", requests),
                            ("build_polytope", builds)):
            in_case, in_run = _repeat_shares(items)
            metrics[f"repeat.{name}.case_share"] = (in_case, "ratio")
            metrics[f"repeat.{name}.run_share"] = (in_run, "ratio")
        return metrics

    def _inside_operator(self, idx: int) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] in OPERATORS:
                return True
            parent = self.spans[parent][3]
        return False


def _freeze(value):
    """Nested sequences as nested tuples, so they can be compared and hashed."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _repeat_shares(items: list) -> tuple:
    """Shares of inputs already seen earlier in the same case, and in the run."""
    seen_case, seen_run = set(), set()
    repeat_case = repeat_run = 0
    for case, key in items:
        repeat_case += (case, key) in seen_case
        repeat_run += key in seen_run
        seen_case.add((case, key))
        seen_run.add(key)
    n = len(items)
    return (repeat_case / n if n else 0.0, repeat_run / n if n else 0.0)
