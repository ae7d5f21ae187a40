"""Serialization of shock graphs: canonical text (sgtext), GraphML, SVG.

sgtext is the library's native format and is byte-stable: identical scenes
produce identical bytes, and parse/serialize round-trips are exact (floats
are written with shortest round-trip precision).  Schema, one record per
line:

    shockgraph v1 <width> <height> <lambda> <bbox_scale>
    n <id> <label> <x> <y> <r> <f0> ... <f57>
    e <id> <from> <to> <label> <s> <kappa> <area> <sB+> <kB+> <sB-> <kB->
    g <x> <y>                      (16 geometry samples after each e line)

GraphML output is a directed graph carrying the same vectors as string
attributes.  SVG renders contours in red (#FF0000), shock links in green
(#00FF00) and the bounding box in magenta (#FF00FF).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contours import SEGMENT, BoundaryElement
from .errors import InvalidInputError
from .features import FEATURE_LENGTH, graph_features
from .graph import LINK_LABEL_CODES, LINK_SAMPLES, ShockGraph

COLOR_CONTOUR = "#FF0000"
COLOR_SHOCK = "#00FF00"
COLOR_BOX = "#FF00FF"


def _escape(text: str) -> str:
    """text with &, > and < replaced by XML entities, in that order (as
    xml.sax.saxutils.escape does; that module imports urllib and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


# ---------------------------------------------------------------------------
# sgtext
# ---------------------------------------------------------------------------

@dataclass
class SgNode:
    id: int
    label: str
    x: float
    y: float
    r: float
    features: np.ndarray  # FEATURE_LENGTH entries


@dataclass
class SgLink:
    id: int
    from_node: int
    to_node: int
    label: str
    metrics: np.ndarray   # s, kappa, area, sB+, kB+, sB-, kB-
    geometry: np.ndarray  # (LINK_SAMPLES, 2)


@dataclass
class SgDocument:
    """Parsed sgtext file: plain numbers, no analytic geometry."""
    width: float
    height: float
    lam: float
    bbox_scale: float
    nodes: list = field(default_factory=list)
    links: list = field(default_factory=list)


def to_document(graph: ShockGraph, width: float, height: float,
                lam: float, bbox_scale: float) -> SgDocument:
    doc = SgDocument(width, height, lam, bbox_scale)
    nf, ef = graph_features(graph)
    for nd in graph.nodes:
        doc.nodes.append(SgNode(nd.id, nd.label, nd.location[0],
                                nd.location[1], nd.radius, nf[nd.id]))
    metrics = np.delete(ef, 3, axis=1)  # label kept as string
    points = graph.link_arrays.points(LINK_SAMPLES)
    for ln in graph.links:
        doc.links.append(SgLink(ln.id, ln.from_node, ln.to_node, ln.label,
                                metrics[ln.id], points[ln.id]))
    return doc


def _join(values: np.ndarray) -> str:
    """values written with _fmt, space-separated."""
    return " ".join(map(repr, values.tolist()))


def format_sgtext(doc: SgDocument) -> str:
    out = ["shockgraph v1 %s %s %s %s" % (_fmt(doc.width), _fmt(doc.height),
                                          _fmt(doc.lam), _fmt(doc.bbox_scale))]
    for n in doc.nodes:
        out.append("n %d %s %s %s %s %s" % (
            n.id, n.label, _fmt(n.x), _fmt(n.y), _fmt(n.r),
            _join(n.features)))
    for e in doc.links:
        out.append("e %d %d %d %s %s" % (
            e.id, e.from_node, e.to_node, e.label, _join(e.metrics)))
        out.extend("g %r %r" % (x, y) for x, y in e.geometry.tolist())
    return "\n".join(out) + "\n"


def to_sgtext(graph: ShockGraph, width: float, height: float,
              lam: float, bbox_scale: float) -> str:
    return format_sgtext(to_document(graph, width, height, lam, bbox_scale))


def parse_sgtext(text: str) -> SgDocument:
    """Parse sgtext; any malformed input raises InvalidInputError."""
    try:
        return _parse_sgtext(text)
    except ValueError as exc:  # a field that is not a number
        raise InvalidInputError(f"malformed sgtext field: {exc}") from None


def _parse_sgtext(text: str) -> SgDocument:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("shockgraph v1 "):
        raise InvalidInputError("not an sgtext file (missing header)")
    hdr = lines[0].split()
    if len(hdr) != 6:
        raise InvalidInputError(f"malformed sgtext header: {lines[0]!r}")
    doc = SgDocument(*(float(v) for v in hdr[2:]))
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "n":
            if len(parts) != 6 + FEATURE_LENGTH:
                raise InvalidInputError(f"malformed node line: {lines[i]!r}")
            doc.nodes.append(SgNode(
                int(parts[1]), parts[2], float(parts[3]), float(parts[4]),
                float(parts[5]),
                np.array([float(v) for v in parts[6:]])))
            i += 1
        elif parts[0] == "e":
            if len(parts) != 12 or i + LINK_SAMPLES >= len(lines):
                raise InvalidInputError(f"malformed link line: {lines[i]!r}")
            geom = np.empty((LINK_SAMPLES, 2))
            for j in range(LINK_SAMPLES):
                gp = lines[i + 1 + j].split()
                if gp[0] != "g" or len(gp) != 3:
                    raise InvalidInputError(
                        f"malformed geometry line: {lines[i + 1 + j]!r}")
                geom[j] = (float(gp[1]), float(gp[2]))
            doc.links.append(SgLink(
                int(parts[1]), int(parts[2]), int(parts[3]), parts[4],
                np.array([float(v) for v in parts[5:]]), geom))
            i += 1 + LINK_SAMPLES
        else:
            raise InvalidInputError(f"unknown sgtext record: {lines[i]!r}")
    return doc


# ---------------------------------------------------------------------------
# GraphML
# ---------------------------------------------------------------------------

def format_graphml(doc: SgDocument) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="features" for="node" attr.name="features"'
        ' attr.type="string"/>',
        '  <key id="elabel" for="edge" attr.name="label" attr.type="string"/>',
        '  <key id="efeatures" for="edge" attr.name="features"'
        ' attr.type="string"/>',
        '  <graph id="shockgraph" edgedefault="directed">',
    ]
    for n in doc.nodes:
        out.append('    <node id="n%d">' % n.id)
        out.append('      <data key="label">%s</data>' % _escape(n.label))
        out.append('      <data key="features">%s</data>'
                   % _join(n.features))
        out.append('    </node>')
    for e in doc.links:
        out.append('    <edge id="e%d" source="n%d" target="n%d">'
                   % (e.id, e.from_node, e.to_node))
        out.append('      <data key="elabel">%s</data>' % _escape(e.label))
        vals = np.concatenate([e.metrics[:3],
                               [float(LINK_LABEL_CODES[e.label])],
                               e.metrics[3:]])
        out.append('      <data key="efeatures">%s</data>' % _join(vals))
        out.append('    </edge>')
    out += ['  </graph>', '</graphml>']
    return "\n".join(out) + "\n"


def to_graphml(graph: ShockGraph, width: float, height: float,
               lam: float, bbox_scale: float) -> str:
    return format_graphml(to_document(graph, width, height, lam, bbox_scale))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _polyline(points, color, width) -> str:
    pts = " ".join("%.6f,%.6f" % (x, y) for x, y in points)
    return ('<polyline fill="none" stroke="%s" stroke-width="%s" '
            'points="%s"/>' % (color, width, pts))


def to_svg(graph: ShockGraph, elements: list[BoundaryElement],
           box, box_fragment_id: int | None = None) -> str:
    """Render a scene: boundary segments red (bounding-box segments
    magenta), point elements as small dots, and shock links green."""
    pad = 0.02 * max(box.xmax - box.xmin, box.ymax - box.ymin)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="%.6f %.6f %.6f %.6f">'
        % (box.xmin - pad, box.ymin - pad,
           box.xmax - box.xmin + 2 * pad, box.ymax - box.ymin + 2 * pad),
    ]
    for e in elements:
        color = (COLOR_BOX if box_fragment_id is not None
                 and e.fragment_id == box_fragment_id else COLOR_CONTOUR)
        if e.kind == SEGMENT:
            out.append(_polyline(e.geometry, color, "0.15"))
        else:
            x, y = e.geometry
            out.append('<circle cx="%.6f" cy="%.6f" r="0.08" fill="%s"/>'
                       % (x, y, color))
    for points in graph.link_arrays.points(LINK_SAMPLES):
        out.append(_polyline(points.tolist(), COLOR_SHOCK, "0.12"))
    out.append('</svg>')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
