"""Traced copy of ``cli.run_scene``.

``traced_scene`` calls the same public functions as ``cli.run_scene``, in
the same order, and records each call as a span.  Spans are timed from
outside the program: nothing under ``src/`` knows it is being traced.  The
caller checks that the traced copy writes the same bytes as the real entry
point, so the two cannot drift apart unnoticed.
"""
from __future__ import annotations

import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from shockgraph import cli, engine
from shockgraph.contours import check_no_crossings, decompose, simplify_polyline
from shockgraph.export import format_sgtext, to_document, to_graphml, to_svg
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box, prune

# Layer spans, one per public call made by run_scene, named after the module
# that owns the call.  Their durations are the per-layer time metrics.
LAYERS = (
    "cli.load", "contours.simplify", "regularize.augment",
    "contours.decompose", "contours.crossings", "engine.run", "graph.build",
    "regularize.prune", "export.to_document", "export.format_sgtext",
    "export.graphml", "export.svg", "cli.write",
)


@dataclass
class Span:
    id: int
    name: str
    scene: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Keeps spans in memory; ``write_jsonl`` saves them when the run ends."""
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, scene: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, scene, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "scene": sp.scene,
                    "parent": sp.parent, "start": sp.start, "end": sp.end,
                }) + "\n")


@dataclass
class SceneTrace:
    """What one traced scene produced: counters, the output graph and the
    written bytes, or the exception that stopped it."""
    counters: dict = field(default_factory=dict)
    graph: object = None
    outputs: dict = field(default_factory=dict)   # file name -> bytes
    error: BaseException | None = None


def _count_raw(counters: dict, elements, raw) -> None:
    s = raw.stats
    counters.update({
        "contours.elements": len(elements),
        "engine.events": s["events"],
        "engine.realized": s["realized"],
        "engine.raw_links": s["links"],
        "engine.sweep_truncations": s.get("sweep_truncations", 0),
        "engine.candidates": s["candidates"],
        "engine.valid": s["candidates"] - s["discarded"],
    })


def traced_scene(config: cli.RunConfig, path: str, tracer: Tracer,
                 out_dir: str) -> SceneTrace:
    """Mirror of cli.run_scene with every layer call in its own span.

    A stage the configuration skips (simplification at epsilon 0, an output
    format not asked for) still gets its span, which then times only the
    skip, so every layer reports on every workload.
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    res = SceneTrace()
    c = res.counters

    def span(name):
        return tracer.span(name, stem)

    with span("scene"):
        try:
            with span("cli.load"):
                width, height, frags = cli.load_scene(path)
            with span("contours.simplify"):
                if config.polyline_epsilon > 0:
                    frags = [simplify_polyline(f, config.polyline_epsilon)
                             for f in frags]
            with span("regularize.augment"):
                frags, rect, box_fid = augment_with_box(
                    frags, width, height, config.bbox_scale)
            with span("contours.decompose"):
                elements = decompose(frags)
            with span("contours.crossings"):
                check_no_crossings(elements)
            with span("engine.run"):
                raw = engine.run(elements, rect,
                                 event_budget=config.event_budget)
            _count_raw(c, elements, raw)
            with span("graph.build"):
                graph = build_graph(raw, elements, scene=(width, height))
            c["graph.links"] = len(graph.links)
            c["graph.dissolved_flow_through"] = \
                graph.stats["dissolved_flow_through"]
            c["graph.isolated_dropped"] = graph.stats["isolated_dropped"]
            with span("regularize.prune"):
                graph = prune(graph, elements, lam=config.lam,
                              drop_box_links=config.drop_box_links,
                              box_fragment_id=box_fid)
            res.graph = graph
            c["regularize.pruned_links"] = graph.stats["pruned_links"]
            c["regularize.links"] = len(graph.links)

            os.makedirs(out_dir, exist_ok=True)
            args = (graph, width, height, config.lam, config.bbox_scale)
            texts = {}
            with span("export.to_document"):
                doc = (to_document(*args)
                       if "sgtext" in config.formats else None)
            with span("export.format_sgtext"):
                if doc is not None:
                    texts["sgtext"] = format_sgtext(doc)
            with span("export.graphml"):
                if "graphml" in config.formats:
                    texts["graphml"] = to_graphml(*args)
            with span("export.svg"):
                if "svg" in config.formats:
                    texts["svg"] = to_svg(graph, elements, rect,
                                          box_fragment_id=box_fid)
            with span("cli.write"):
                for fmt in config.formats:
                    name = stem + cli._SUFFIX[fmt]
                    cli._atomic_write(os.path.join(out_dir, name),
                                      texts[fmt])
                    res.outputs[name] = texts[fmt].encode("utf-8")
            c["export.bytes"] = sum(len(b) for b in res.outputs.values())
        except Exception as exc:  # noqa: BLE001 - a failed scene is a result
            res.error = exc
    return res


def engine_peak_mb(config: cli.RunConfig, path: str) -> float | None:
    """tracemalloc peak of one engine.run call on the scene, in MiB, or None
    when the scene fails before the engine.  tracemalloc slows the engine
    several times over, so this runs apart from every timed pass."""
    try:
        width, height, frags = cli.load_scene(path)
        if config.polyline_epsilon > 0:
            frags = [simplify_polyline(f, config.polyline_epsilon)
                     for f in frags]
        frags, rect, _ = augment_with_box(frags, width, height,
                                          config.bbox_scale)
        elements = decompose(frags)
        check_no_crossings(elements)
    except Exception:  # noqa: BLE001 - such a scene has no engine peak
        return None
    tracemalloc.start()
    try:
        engine.run(elements, rect, event_budget=config.event_budget)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
