"""Timed passes, correctness checks and the result record of one run.

An untraced run (--trace 0) times ``cli.run_scene`` over the workload's scene
list, repeating whole passes while another one fits in the time budget, and
reports the end-to-end metrics.  A traced run (--trace 1) alternates an
untraced pass with a pass through ``tracing.traced_scene`` and reports the
per-layer metrics; one last pass under tracemalloc gives the engine's peak
memory, so tracemalloc's slowdown enters no timing.  Timings are taken from
the fastest pass (see run_untraced).

Every run checks correctness: the golden corpus, ShockGraph.validate() on
every output graph (an invalid graph counts as a failed scene), byte-
identical output across passes and across the P1/P4 encodings of one mask,
and, in traced runs, byte-identical output from the traced copy of the
pipeline.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from shockgraph import cli
from shockgraph.corpus import verify_corpus
from shockgraph.errors import ShockGraphError
from shockgraph.export import parse_sgtext

import workloads
from tracing import LAYERS, Tracer, engine_peak_mb, traced_scene

SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import shockgraph.cli; "
                 "print(time.perf_counter() - t)")
# The layer spans must add up to the traced scene wall within this share.
SPAN_COVERAGE = 0.05
COUNTERS = ("contours.elements", "engine.events", "engine.realized",
            "engine.raw_links", "engine.sweep_truncations",
            "engine.candidates", "engine.valid", "graph.links",
            "graph.dissolved_flow_through", "graph.isolated_dropped",
            "regularize.pruned_links", "regularize.links")


def measure_setup(src: str) -> float:
    """Median time to import shockgraph.cli in a fresh interpreter."""
    vals = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, src],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        vals.append(float(out.stdout.split()[-1]))
    return statistics.median(vals)


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Checks:
    """Collects failed correctness checks; any one fails the run."""

    def __init__(self):
        self.failures = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class PassResult:
    """One pass over the workload's scenes."""
    wall: float = 0.0
    scene_walls: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)    # stem -> reason
    outputs: dict = field(default_factory=dict)   # file name -> sha256


def _accept(res: PassResult, stem: str, graph, outputs: dict,
            checks: Checks | None) -> None:
    """Validate a scene's output graph, outside any timed region, and keep
    the sha256 of each file it wrote.  Given checks, also require that the
    sgtext parses back to the graph's size."""
    try:
        graph.validate()
    except ShockGraphError as exc:
        res.failed[stem] = f"validate: {exc}"
        return
    if checks is not None:
        try:
            doc = parse_sgtext(outputs[stem + ".sg"].decode("utf-8"))
            size = (len(doc.nodes), len(doc.links))
        except ShockGraphError as exc:
            size = str(exc)
        checks.require(size == (len(graph.nodes), len(graph.links)),
                       f"{stem}.sg does not parse back to its graph: {size}")
    res.outputs.update((name, hashlib.sha256(data).hexdigest())
                       for name, data in outputs.items())


def check_encodings(checks: Checks, wl, res: PassResult) -> None:
    """The P1 and P4 files of one mask end the same way, with the same
    bytes."""
    for group in wl.same_output:
        checks.require(len({stem in res.failed for stem in group}) == 1,
                       f"{group}: encodings disagree on failure")
        for fmt in wl.config.formats:
            digests = {res.outputs.get(stem + cli._SUFFIX[fmt])
                       for stem in group}
            checks.require(len(digests) == 1,
                           f"{group}: {fmt} output differs by encoding")


def check_same(checks: Checks, ref: PassResult, other: PassResult,
               what: str) -> None:
    """Same failed scenes and byte-identical files as the reference pass."""
    checks.require(sorted(other.failed) == sorted(ref.failed),
                   f"{what}: failed scenes {sorted(other.failed)} vs "
                   f"{sorted(ref.failed)}")
    checks.require(other.outputs == ref.outputs, f"{what}: outputs differ")


def sgtext_digests(name: str, outputs: dict) -> dict:
    """sha256 of every sgtext file, and one over the whole workload."""
    per = {f: outputs[f] for f in sorted(outputs) if f.endswith(".sg")}
    whole = "".join(f"{f} {d}\n" for f, d in per.items())
    return {**per, name: hashlib.sha256(whole.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class GraphCapture:
    """While active, keeps the graph that ``cli.prune`` returns, so the graph
    of each run_scene call can be validated after the timed call."""

    def __enter__(self):
        self.graph = None
        self._real = real = cli.prune

        def prune(*args, **kw):
            self.graph = real(*args, **kw)
            return self.graph
        cli.prune = prune
        return self

    def __exit__(self, *exc):
        cli.prune = self._real


def _read_outputs(config, stem: str) -> dict:
    out = {}
    for fmt in config.formats:
        name = stem + cli._SUFFIX[fmt]
        with open(os.path.join(config.output_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def untraced_pass(wl, checks: Checks | None = None) -> PassResult:
    """Times each run_scene call; the pass wall is the sum of the calls, so
    validation between calls is not timed."""
    res = PassResult()
    with GraphCapture() as cap:
        for path in wl.scenes:
            stem = _stem(path)
            cap.graph = None
            t0 = time.perf_counter()
            try:
                cli.run_scene(wl.config, path)
            except Exception as exc:  # noqa: BLE001 - a failed scene counts
                res.failed[stem] = f"{type(exc).__name__}: {exc}"
            res.scene_walls.append(time.perf_counter() - t0)
            if stem not in res.failed:
                _accept(res, stem, cap.graph, _read_outputs(wl.config, stem),
                        checks)
    res.wall = sum(res.scene_walls)
    return res


@dataclass
class TracedPass:
    result: PassResult
    layers: dict          # layer -> seconds, summed over scenes
    counters: dict        # counter -> value, summed over scenes
    unaccounted: float    # scene spans minus their layer spans, seconds


def traced_pass(wl, tracer: Tracer, out_dir: str) -> TracedPass:
    res = PassResult()
    first_span = len(tracer.spans)
    counters = {}
    for path in wl.scenes:
        st = traced_scene(wl.config, path, tracer, out_dir)
        for k, v in st.counters.items():
            counters[k] = counters.get(k, 0) + v
        if st.error is not None:
            res.failed[_stem(path)] = f"{type(st.error).__name__}: {st.error}"
        else:
            _accept(res, _stem(path), st.graph, st.outputs, None)
    layers = dict.fromkeys(LAYERS, 0.0)
    for sp in tracer.spans[first_span:]:
        if sp.name == "scene":
            res.scene_walls.append(sp.seconds)
        else:
            layers[sp.name] += sp.seconds
    res.wall = sum(res.scene_walls)
    return TracedPass(res, layers, counters, res.wall - sum(layers.values()))


def _another_fits(started: float, pass_walls: list, seconds: float) -> bool:
    """Start another pass only if one more median pass fits the budget."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_walls) <= seconds


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict         # name -> (value, unit)
    attempted: int
    failed: int
    outputs: dict         # first pass: file name -> bytes
    report: dict          # extra fields for the summary line


def run_untraced(wl, seconds: float, checks: Checks, src: str) -> RunResult:
    """End-to-end metrics.  Other tenants of a shared machine slow whole
    passes down by up to half, so timings take each scene's fastest pass:
    wall_s is the fastest pass and scene_s_p50 the median over scenes of
    each scene's fastest run_scene call.  Medians here would move with how
    many passes happened to land in a slow spell."""
    setup_s = measure_setup(src)
    passes = []
    started = time.perf_counter()
    while not passes or _another_fits(started, [p.wall for p in passes],
                                      seconds):
        passes.append(untraced_pass(wl, None if passes else checks))
        check_same(checks, passes[0], passes[-1], "pass")
    check_encodings(checks, wl, passes[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(wl.scenes) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (min(p.wall for p in passes), "s"),
        "scene_s_p50": (statistics.median(
            min(walls) for walls in zip(*(p.scene_walls for p in passes))),
            "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }
    report = {"passes": len(passes),
              "failed_scenes": ",".join(sorted(passes[0].failed)) or "-"}
    return RunResult(metrics, attempted, failed, passes[0].outputs, report)


def run_traced(wl, seconds: float, checks: Checks,
               spans_path: str) -> RunResult:
    tracer = Tracer()
    trace_dir = wl.config.output_dir + "-traced"
    pairs = []  # (untraced PassResult, TracedPass)
    started = time.perf_counter()
    while not pairs or _another_fits(
            started, [p.wall + t.result.wall for p, t in pairs], seconds):
        plain = untraced_pass(wl, None if pairs else checks)
        traced = traced_pass(wl, tracer, trace_dir)
        pairs.append((plain, traced))
        check_same(checks, pairs[0][0], plain, "pass")
        check_same(checks, plain, traced.result, "traced copy")
        scene_total = sum(traced.result.scene_walls)
        checks.require(
            abs(traced.unaccounted) <= SPAN_COVERAGE * scene_total,
            f"layer spans miss {traced.unaccounted:.4f} s of "
            f"{scene_total:.4f} s traced scene wall")
    check_encodings(checks, wl, pairs[0][0])
    peaks = [engine_peak_mb(wl.config, p) for p in wl.scenes]
    tracer.write_jsonl(spans_path)

    # Layer times come from the fastest traced pass, so they add up to it,
    # as wall_s is the fastest untraced pass.
    fastest = min((t for _, t in pairs), key=lambda t: t.result.wall)
    metrics = {f"{name}_s": (fastest.layers[name], "s") for name in LAYERS}
    counters = pairs[0][1].counters
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    cands, valid = counters.get("engine.candidates", 0), \
        counters.get("engine.valid", 0)
    metrics["engine.candidate_yield"] = (valid / cands if cands else 0.0,
                                         "ratio")
    metrics["engine.peak_mb"] = (
        max((p for p in peaks if p is not None), default=0.0), "MB")
    metrics["export.bytes"] = (counters.get("export.bytes", 0), "bytes")
    metrics["trace.overhead_s"] = (
        fastest.result.wall - min(p.wall for p, _ in pairs), "s")
    metrics["trace.unaccounted_s"] = (fastest.unaccounted, "s")
    attempted = 2 * len(wl.scenes) * len(pairs)
    failed = sum(len(p.failed) + len(t.result.failed) for p, t in pairs)
    report = {"pairs": len(pairs),
              "candidate_yield_base": f"{valid}/{cands}",
              "spans": os.path.relpath(spans_path)}
    return RunResult(metrics, attempted, failed, pairs[0][0].outputs, report)


def run(workload: str, seed: int, seconds: float, trace: int,
        src: str, work: str) -> int:
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(work, f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = os.path.join(run_dir, "in")
    os.makedirs(in_dir)
    wl = workloads.WORKLOADS[workload](seed, in_dir,
                                      os.path.join(run_dir, "out"))
    checks = Checks()
    for res in verify_corpus():
        checks.require(res.ok, f"corpus {res.scene_file}: {res.diffs}")
    # One untimed pass over the tiny input reaches every layer and format,
    # so first-call costs land before the first timed pass.
    warm_dir = os.path.join(run_dir, "warmup")
    os.makedirs(os.path.join(warm_dir, "in"))
    untraced_pass(workloads.tiny(seed, os.path.join(warm_dir, "in"),
                                 os.path.join(warm_dir, "out")))
    if trace:
        rr = run_traced(wl, seconds, checks,
                        os.path.join(run_dir, "spans.jsonl"))
    else:
        rr = run_untraced(wl, seconds, checks, src)

    print(f"workload={wl.name} seed={seed} trace={trace} "
          f"scenes={len(wl.scenes)} "
          + " ".join(f"{k}={v}" for k, v in rr.report.items()))
    for name, (value, unit) in rr.metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    # ok_share's complement; it reads 0 on workloads where nothing fails,
    # so the result record carries it as ok_share, attempted and failed
    print(f"  fail_share = {rr.failed / rr.attempted:.6g} share "
          f"({rr.failed} of {rr.attempted} scene runs)")
    for name, digest in sgtext_digests(wl.name, rr.outputs).items():
        print(f"sgtext_sha256 {name} {digest}")
    for what in checks.failures:
        print(f"check failed: {what}", file=sys.stderr)
    # Keep the inputs and spans; the outputs are summarised by the digests.
    for sub in ("out", "out-traced", "warmup"):
        shutil.rmtree(os.path.join(run_dir, sub), ignore_errors=True)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": rr.attempted,
        "failed": rr.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in rr.metrics.items()},
    }))
    return 1 if checks.failures else 0
