"""Batch command-line front end: ingestion -> propagation -> regularization
-> export.

Usage:

    shockgraph scene.txt [more scenes or directories] -o out/

Scene inputs are contour text files or binary masks in portable bitmap form
(P1/P4); directories are expanded to every *.scene / *.txt / *.pbm file they
contain.  One machine-parseable report record is printed per scene:

    scene=<name> status=ok elements=34 candidates=514 realized=61
    discarded=102 nodes=40 links=52 wall=0.412

Exit status is 0 iff every scene succeeded.  A usage error (an invalid
setting, or no input file) exits 1 before any scene runs.  Otherwise the
first failure class determines it: 2 parse/input error, 3 write error, 4
propagation budget exceeded, 5 internal structural error.
SHOCKGRAPH_EVENT_BUDGET, a positive integer, caps the propagation events of
each scene.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .contours import (decompose, parse_scene_text, simplify_polyline,
                       trace_binary_mask)
from .errors import (DegenerateInputError, InvalidInputError,
                     NonterminationError, ShockGraphError, WriteError)
from .export import (format_graphml, format_sgtext, read_text, to_document,
                     to_svg)
from .graph import build_graph
from .regularize import augment_with_box, prune

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_WRITE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

FORMATS = ("sgtext", "graphml", "svg")
_SUFFIX = {"sgtext": ".sg", "graphml": ".graphml", "svg": ".svg"}


@dataclass
class RunConfig:
    inputs: list
    output_dir: str = "."
    lam: float = 1.0
    bbox_scale: float = 2.0
    polyline_epsilon: float = 0.8
    formats: tuple = ("sgtext",)
    drop_box_links: bool = False
    jobs: int = 1
    event_budget: int | None = None

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.lam >= 0:
            raise InvalidInputError("lambda must be >= 0")
        if not 1 < self.bbox_scale < math.inf:
            raise InvalidInputError("bbox scale must be finite and > 1")
        if not self.polyline_epsilon >= 0:
            raise InvalidInputError("epsilon must be >= 0")
        if self.event_budget is not None and not self.event_budget >= 1:
            raise InvalidInputError("event budget must be >= 1")
        if not self.formats:
            raise InvalidInputError("no output format given")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise InvalidInputError(f"unknown output format(s): {bad}")


# ---------------------------------------------------------------------------
# Scene loading
# ---------------------------------------------------------------------------

def _parse_pbm(data: bytes):
    """P1 (ascii) / P4 (packed) portable bitmap -> boolean mask array."""
    toks = []
    i = 0
    # tokenize the header, honouring '#' comments
    while len(toks) < 3 and i < len(data):
        if data[i:i + 1].isspace():
            i += 1
        elif data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            toks.append(data[i:j])
            i = j
    if len(toks) < 3 or toks[0] not in (b"P1", b"P4"):
        raise InvalidInputError("not a P1/P4 portable bitmap")
    try:
        w, h = int(toks[1]), int(toks[2])
    except ValueError as exc:
        raise InvalidInputError(f"bad bitmap dimensions: {exc}") from exc
    if w <= 0 or h <= 0:
        raise InvalidInputError("bitmap dimensions must be positive")
    if toks[0] == b"P1":
        vals = [b - ord("0") for tok in data[i:].split()
                for b in tok if b in (ord("0"), ord("1"))]
        if len(vals) < w * h:
            raise InvalidInputError("truncated P1 bitmap")
        mask = np.array(vals[:w * h], dtype=bool).reshape(h, w)
    else:
        i += 1  # single whitespace byte after the header
        rowbytes = (w + 7) // 8
        raw = data[i:i + rowbytes * h]
        if len(raw) < rowbytes * h:
            raise InvalidInputError("truncated P4 bitmap")
        rows = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(h, rowbytes), axis=1)
        mask = rows[:, :w].astype(bool)
    return mask


def load_scene(path: str):
    """(width, height, fragments) from a contour text file or a P1/P4 mask."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if head in (b"P1", b"P4"):
        with open(path, "rb") as fh:
            mask = _parse_pbm(fh.read())
        frags = trace_binary_mask(mask)
        h, w = mask.shape
        return float(w), float(h), frags
    return parse_scene_text(read_text(path))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def boxed_elements(frags, width, height, config: RunConfig):
    """(elements, clip rect, box fragment id): frags simplified at
    config.polyline_epsilon (none at 0), boxed and decomposed."""
    if config.polyline_epsilon > 0:
        frags = [simplify_polyline(f, config.polyline_epsilon) for f in frags]
    frags, rect, box_fid = augment_with_box(frags, width, height,
                                            config.bbox_scale)
    return decompose(frags), rect, box_fid


def build(frags, width, height, config: RunConfig):
    """(unpruned graph, elements, clip rect, box fragment id) of a scene."""
    elements, rect, box_fid = boxed_elements(frags, width, height, config)
    raw = engine.run(elements, rect, event_budget=config.event_budget)
    return (build_graph(raw, elements, scene=(width, height)), elements,
            rect, box_fid)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory, which
    is created if missing; any OS failure is a WriteError."""
    d = os.path.dirname(path) or "."
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise WriteError(f"cannot write {path}: {exc}") from exc


def run_scene(config: RunConfig, scene_path: str) -> dict:
    """Process one scene end to end; returns the report record."""
    t0 = time.perf_counter()
    width, height, frags = load_scene(scene_path)
    graph, elements, rect, box_fid = build(frags, width, height, config)
    graph = prune(graph, elements, lam=config.lam,
                  drop_box_links=config.drop_box_links,
                  box_fragment_id=box_fid)

    stem = os.path.splitext(os.path.basename(scene_path))[0]
    # sgtext and GraphML write the same document
    doc = None
    if {"sgtext", "graphml"}.intersection(config.formats):
        doc = to_document(graph, width, height, config.lam, config.bbox_scale)
    for fmt in config.formats:
        out = os.path.join(config.output_dir, stem + _SUFFIX[fmt])
        if fmt == "sgtext":
            text = format_sgtext(doc)
        elif fmt == "graphml":
            text = format_graphml(doc)
        else:
            text = to_svg(graph, elements, rect, box_fragment_id=box_fid)
        _atomic_write(out, text)

    return {
        "scene": scene_path,
        "status": "ok",
        "elements": graph.stats["elements"],
        "candidates": graph.stats["candidates"],
        "realized": graph.stats["realized"],
        "discarded": graph.stats["discarded"],
        "nodes": len(graph.nodes),
        "links": len(graph.links),
        "wall": round(time.perf_counter() - t0, 3),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _expand_inputs(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p)
                if f.endswith((".scene", ".txt", ".pbm"))))
        else:
            out.append(p)
    return out


def _classify(exc: Exception) -> int:
    if isinstance(exc, NonterminationError):
        return EXIT_BUDGET
    if isinstance(exc, WriteError):
        return EXIT_WRITE
    if isinstance(exc, (InvalidInputError, DegenerateInputError, ValueError)):
        return EXIT_PARSE
    if isinstance(exc, ShockGraphError):
        return EXIT_INTERNAL
    raise exc


def _format_report(rec: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in rec.items())


def _run_one(args):
    config, path = args
    try:
        return run_scene(config, path), EXIT_OK
    except Exception as exc:  # noqa: BLE001 - classified below
        code = _classify(exc)
        return {"scene": path, "status": "error", "code": code,
                "message": str(exc)}, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="shockgraph",
        description="Compute regularized shock graphs of contour scenes.")
    ap.add_argument("inputs", nargs="*",
                    help="scene files (contour text or P1/P4 bitmap) "
                         "or directories of them")
    ap.add_argument("-o", "--output-dir", default=".")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0,
                    help="saliency pruning threshold (default 1.0)")
    ap.add_argument("--bbox-scale", type=float, default=2.0,
                    help="bounding-box scale factor (default 2.0)")
    ap.add_argument("--epsilon", type=float, default=0.8,
                    help="polyline simplification tolerance (default 0.8)")
    ap.add_argument("--format", default="sgtext",
                    help="comma-separated subset of sgtext,graphml,svg")
    ap.add_argument("--drop-box-links", action="store_true",
                    help="drop shock links generated by the bounding box")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker pool width for batch runs")
    ns = ap.parse_args(argv)

    budget = os.environ.get("SHOCKGRAPH_EVENT_BUDGET")
    try:
        config = RunConfig(
            inputs=_expand_inputs(ns.inputs),
            output_dir=ns.output_dir,
            lam=ns.lam,
            bbox_scale=ns.bbox_scale,
            polyline_epsilon=ns.epsilon,
            formats=tuple(f.strip() for f in ns.format.split(",") if f.strip()),
            drop_box_links=ns.drop_box_links,
            jobs=max(1, ns.jobs),
            event_budget=int(budget) if budget else None,
        )
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not config.inputs:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE

    jobs = [(config, p) for p in config.inputs]
    if config.jobs > 1 and len(jobs) > 1:
        # imported here: multiprocessing is slow to import, and a serial
        # run does not need it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.jobs) as ex:
            results = list(ex.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]

    first_failure = EXIT_OK
    n_ok = 0
    for rec, code in results:
        print(_format_report(rec))
        if code == EXIT_OK:
            n_ok += 1
        elif first_failure == EXIT_OK:
            first_failure = code
    if len(results) > 1:
        print(f"summary scenes={len(results)} ok={n_ok} "
              f"failed={len(results) - n_ok}")
    return first_failure


if __name__ == "__main__":
    sys.exit(main())
