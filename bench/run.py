"""Run one emsum benchmark workload and print its metrics.

    python3 bench/run.py --workload delzant --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``delzant``, ``valuation``, ``verify``.  The
run is single-threaded and closed-loop: one caller issues the next case
when the previous one returns.  Every case's output is checked against
the pinned references; a wrong output or an exception counts the case
as failed and the run goes on.

With ``--trace 0`` the run sets up several times (each time a fresh
import of emsum, the workload's inputs, the references and one untimed
warm-up case), then runs whole rounds of the workload's cases until
``--seconds`` seconds have passed and reports the end-to-end metrics.
The host's speed drifts by tens of percent within minutes, so every
quarter of a second the run times ``probe()``, a fixed piece of
pure-Python arithmetic outside emsum, and rescales each case's times
to the reference host speed ``REF_PROBE_S`` by the probes on either
side of it (set-ups by the probe just before them).  The raw timings
are printed and kept as ``raw.*``.
With ``--trace 1`` it runs a fixed prefix of the workload's cases once
untraced and once under the outside-in tracer, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with the environment stamp (and, traced, the spans) goes to
``bench/out/``.  The exit code is 0 only when every case was correct.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# probe() on an idle host of the kind the benchmark was written on
# (2-vCPU x86-64 VM, Python 3.11.7): timings are rescaled to this speed.
REF_PROBE_S = 0.0037
# Seconds between probes in a timed run; each takes about 3 * REF_PROBE_S.
PROBE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s.p50": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the result file, but not bounded.  The tail is the
# 11th slowest case, and a 30-second run holds only 10 to 20 of the
# slowest kind of valuation or verify case, so the tail jumps between
# kinds with the host's speed (see README.md).
DETAIL_UNITS = {"case_s.tail": "s",
                "raw.setup_s": "s", "raw.cases_per_s": "1/s",
                "raw.case_s.p50": "s", "raw.case_s.tail": "s",
                "probe_s.median": "s", "timed_wall_s": "s",
                "untraced_s": "s", "traced_s": "s"}


def import_emsum():
    """A fresh import of emsum from this checkout's src/, with cold caches."""
    for name in [n for n in sys.modules
                 if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    emsum = importlib.import_module(tracing.PACKAGE)
    importlib.import_module(tracing.PACKAGE + ".cli")  # not imported by the package
    if not os.path.abspath(emsum.__file__).startswith(SRC + os.sep):
        raise ImportError(f"emsum was imported from {emsum.__file__}, not {SRC}")
    return emsum


def run_case(case, tracer=None) -> tuple:
    """(correct, seconds in the public call, error text or None)."""
    try:
        call = case.prepare()
    except Exception as exc:  # a bad input is a failed case, not a crash
        return False, 0.0, f"prepare: {type(exc).__name__}: {exc}"
    start = perf_counter()
    try:
        if tracer is None:
            out = call()
        else:
            with tracer, tracer.case(case.index):
                out = call()
    except Exception as exc:
        return False, perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        ok = bool(case.check(out))
    except Exception as exc:
        return False, elapsed, f"check: {type(exc).__name__}: {exc}"
    return ok, elapsed, None if ok else "output differs from the reference"


class Tally:
    """Attempted and failed cases, with the first few failures kept."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def add(self, case, ok: bool, error) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append({"case": case.index, "kind": case.kind,
                                  "error": error, "input": case.desc})


def setup(workload: str, seed: int, tally: Tally) -> tuple:
    """Import, build inputs, load references, run the warm-up case."""
    emsum = import_emsum()
    refs = workloads.load_references(REFERENCES)
    stream = workloads.cases(workload, emsum, refs, seed)
    warm = workloads.warmup_case(workload, emsum, refs, seed)
    ok, _, error = run_case(warm)
    tally.add(warm, ok, error)
    return emsum, stream


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  Where that percentile would fall
    below the median (fewer than 21 samples), the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def probe() -> float:
    """The host's current speed: the best of three timings of a fixed
    piece of pure-Python exact arithmetic, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc, seen = Fraction(0), {}
        for k in range(1, 600):
            acc += Fraction(k, k + 1) * Fraction(3, 2 * k + 1)
            seen[(k % 17, k % 5)] = acc.denominator % 1009
        best = min(best, perf_counter() - start)
    return best


def timed_run(workload: str, seed: int, seconds: int) -> tuple:
    tally = Tally()
    setups, setup_scale = [], []
    for _ in range(SETUP_REPEATS):
        setup_scale.append(REF_PROBE_S / probe())
        start = perf_counter()
        _, stream = setup(workload, seed, tally)
        setups.append(perf_counter() - start)
    size = workloads.round_size(workload)
    times, walls, oks = [], [], []
    probes, marks, rounds = [], [], 0
    last_probe = float("-inf")
    start = perf_counter()
    deadline = start + seconds
    # Whole rounds only, so that every run measures the same mix of kinds.
    while not rounds or perf_counter() < deadline:
        for case in itertools.islice(stream, size):
            if perf_counter() - last_probe > PROBE_EVERY_S:
                probes.append(probe())
                last_probe = perf_counter()
            marks.append(len(probes) - 1)
            begin = perf_counter()
            ok, elapsed, error = run_case(case)
            walls.append(perf_counter() - begin)
            tally.add(case, ok, error)
            times.append(elapsed)
            oks.append(ok)
        rounds += 1
    probes.append(probe())
    wall = perf_counter() - start
    # Each case's times, rescaled to the reference host speed by the
    # probes on either side of it.
    scale = [2 * REF_PROBE_S / (probes[m] + probes[m + 1]) for m in marks]
    scaled = [t * f for t, f in zip(times, scale)]
    tail_s, tail_pct, beyond = tail(scaled)
    metrics = {
        "setup_s": statistics.median(s * f for s, f in zip(setups, setup_scale)),
        "cases_per_s": sum(oks) / sum(w * f for w, f in zip(walls, scale)),
        "case_s.p50": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "failed_frac": tally.failed / tally.attempted,
        "case_s.tail": tail_s,
        "case_s.tail.percentile": tail_pct,
        "case_s.tail.beyond": beyond,
        "case_s.samples": len(times),
        "rounds": rounds,
        "probe_s.median": statistics.median(probes),
        "raw.setup_s": statistics.median(setups),
        "raw.cases_per_s": sum(oks) / sum(walls),
        "raw.case_s.p50": statistics.median(times),
        "raw.case_s.tail": tail(times)[0],
        "timed_wall_s": wall,
        "setup_s.samples": setups,
        "case_s.raw_samples": times,
        "probe_s.samples": probes,
        "probe.marks": marks,
    }
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def traced_run(workload: str, seed: int) -> tuple:
    tally = Tally()
    _, stream = setup(workload, seed, tally)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for i, case in enumerate(itertools.islice(stream, workloads.trace_cases(workload))):
        # Alternate which run goes first, so that neither is always the
        # one that warms the caches.
        verdicts = []
        for use in ((None, tracer) if i % 2 == 0 else (tracer, None)):
            ok, elapsed, error = run_case(case, use)
            verdicts.append((ok, error))
            if use is None:
                untraced += elapsed
            else:
                traced += elapsed
        bad = [v for v in verdicts if not v[0]]
        tally.add(case, not bad, bad[0][1] if bad else None)
    metrics = tracer.summary()
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    details = {
        "bindings": tracer.bindings,
        "absent": sorted(k for k, v in tracer.bindings.items() if not v),
        "untraced_s": untraced,
        "traced_s": traced,
        "cases": workloads.trace_cases(workload),
    }
    return tally, metrics, details, tracer


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one emsum benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = stamp(args)
    if args.trace:
        tally, metrics, details, tracer = traced_run(args.workload, args.seed)
    else:
        tally, metrics, details = timed_run(args.workload, args.seed, args.seconds)
        tracer = None

    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_spans(base + "-spans.jsonl")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "details": details,
                   "failures": tally.failures}, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    for name, value in details.items():
        if isinstance(value, (int, float)):
            unit = DETAIL_UNITS.get(name, "")
            print(f"{args.workload} {name}: {value:.6g} {unit}".rstrip())
    absent = details.get("absent")
    if absent:
        print(f"{args.workload} absent bindings: {', '.join(absent)}")
    for failure in tally.failures[:5]:
        print(f"FAILED case {failure['case']} ({failure['kind']}): {failure['error']}")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
