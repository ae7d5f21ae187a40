"""Attributed, directed shock graph built from the raw propagation output.

The engine emits one raw link per bisector branch portion, which splits what
is conceptually a single shock curve at every generator transition (each
polyline vertex flips the local bisector between line and parabola pieces).
Here flow-through raw nodes -- exactly one incoming and one outgoing link --
are dissolved and their links chained into composite links, so the node set
contains only sources, sinks and true junctions and the graph topology does
not depend on how densely a contour was sampled. assemble() is the one place
that does this, for the raw graph (build_graph) and after pruning (prune).

Nodes carry topology only: location, radius, label and their incident link
ends. The per-link node descriptor (the direction a link leaves in, the
object angle phi between it and the contact rays, and the plus-side contact
point) is computed by features.node_features from each link end (see
ShockLink.end). Link attributes (arc length, curvature samples, swept area,
per-side boundary summaries) are computed analytically from the underlying
bisectors. Link arc length and label are set at assembly; the other link
attributes are computed on first read (see ShockLink).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bisectors import Bisector
from .contours import BoundaryElement
from .errors import StructuralError
from .geometry import EPS_REL

# Node labels
SOURCE = "Source"
SINK = "Sink"
JUNCTION = "Junction"

# Link labels (by generator kinds: 0, 1 or 2 point generators)
REGULAR = "Regular"
SEMIDEGENERATE = "SemiDegenerate"
DEGENERATE = "Degenerate"

NODE_LABEL_CODES = {SOURCE: 0, SINK: 1, JUNCTION: 2}
LINK_LABEL_CODES = {REGULAR: 0, SEMIDEGENERATE: 1, DEGENERATE: 2}

# uniform arc-length samples per link: curvature samples and exported geometry
LINK_SAMPLES = 16


@dataclass
class Piece:
    """One bisector portion traversed from parameter t0 to t1 (flow =
    increasing time), in the bisector's parameter t. s0 is the arc length
    at t0 and length the portion's arc length; both are fixed at
    construction."""
    bisector: Bisector
    t0: float
    t1: float
    s0: float = field(init=False)
    length: float = field(init=False)

    def __post_init__(self):
        s_of_t = self.bisector.s_of_t
        self.s0 = float(s_of_t(self.t0))
        self.length = abs(float(s_of_t(self.t1)) - self.s0)

    @property
    def direction(self) -> float:
        return 1.0 if self.t1 >= self.t0 else -1.0

    def params(self, n: int) -> np.ndarray:
        """n parameters uniformly spaced in arc length over the piece."""
        return self.bisector.t_of_s(
            self.s0 + self.direction * np.linspace(0.0, self.length, n))

    def side_generators(self) -> tuple[int, int]:
        """(plus, minus) generator ids relative to the flow direction."""
        b = self.bisector
        if self.direction > 0:
            return b.gen_plus, b.gen_minus
        return b.gen_minus, b.gen_plus

    def contacts(self, t):
        """(bp_plus, bp_minus) at a scalar or array t (see
        Bisector.contacts), sides relative to the flow direction."""
        cp, cm = self.bisector.contacts(t)
        return (cp, cm) if self.direction > 0 else (cm, cp)


class LinkEnd(NamedTuple):
    """One end of a link as its node sees it: the end piece, its parameter t
    at the node, and step, the sign of the change in t that moves into the
    link, away from the node."""
    piece: Piece
    t: float
    step: float

    def tangent(self) -> np.ndarray:
        """Unit tangent pointing away from the node."""
        return self.step * np.asarray(self.piece.bisector.tangent(self.t),
                                      dtype=float)

    def dradius(self) -> float:
        """dr per unit arc length moving away from the node.

        Evaluated a hair inside the link, an offset in t: r has a corner
        (|t|) at branch apexes, where the one-sided derivative into the link
        is the right limit, not the two-sided 0."""
        eps = 1e-9 + 1e-7 * self.piece.length
        return self.step * float(
            self.piece.bisector.dradius(self.t + self.step * eps))

    def contacts(self) -> tuple:
        """(bp_plus, bp_minus) at the node, sides relative to the flow."""
        return self.piece.contacts(self.t)


@dataclass
class BoundaryRef:
    """Per-side contact summary: which generators, contact-locus arc length,
    and mean boundary curvature (identically 0 for point/segment scenes)."""
    generators: tuple
    arc_length: float
    curvature: float = 0.0


@dataclass
class ShockLink:
    """A composite shock curve between two graph nodes.

    length and label are set when the link is assembled (validation,
    pruning and classification read them). The geometric attributes --
    curvature samples and their mean, swept area and the per-side boundary
    refs -- are computed from the pieces on first read and cached, so links
    that pruning replaces never pay for them. pieces is never mutated after
    construction.
    """
    id: int
    from_node: int
    to_node: int
    pieces: list            # list[Piece], in flow order
    label: str = ""
    length: float = 0.0

    # -- derived attributes, computed on first read and cached --------------

    @cached_property
    def curvature_samples(self) -> np.ndarray:
        """Signed curvature at the LINK_SAMPLES uniform arc-length samples,
        oriented along the flow direction."""
        if self.length <= 0.0:
            return np.zeros(LINK_SAMPLES)
        return self._sampled(LINK_SAMPLES, lambda p, ts:
                             p.direction * p.bisector.curvature(ts))

    @cached_property
    def curvature(self) -> float:
        """Mean of the curvature samples."""
        return float(np.mean(self.curvature_samples))

    @cached_property
    def area(self) -> float:
        return link_area(self)

    @cached_property
    def _boundary_pair(self) -> tuple:
        refs = _boundary_refs(self)
        if self.length <= 0.0:
            for ref in refs:
                ref.arc_length = 0.0
        return refs

    @property
    def boundary_plus(self) -> BoundaryRef:
        return self._boundary_pair[0]

    @property
    def boundary_minus(self) -> BoundaryRef:
        return self._boundary_pair[1]

    # -- geometry sampling --------------------------------------------------

    @cached_property
    def _cum_lengths(self) -> np.ndarray:
        return np.concatenate(
            [[0.0], np.cumsum([p.length for p in self.pieces])])

    def piece_params(self, us: np.ndarray):
        """(piece index array, t array) at arc lengths us from the start."""
        cum = self._cum_lengths
        idx = np.clip(np.searchsorted(cum, us, side="right") - 1,
                      0, len(self.pieces) - 1)
        ts = np.empty(len(us))
        for i in np.unique(idx):
            p = self.pieces[i]
            m = idx == i
            ts[m] = p.bisector.t_of_s(p.s0 + p.direction * (us[m] - cum[i]))
        return idx, ts

    @cached_property
    def _grid(self) -> tuple:
        """piece_params at the LINK_SAMPLES uniform arc-length samples,
        shared by the curvature samples and the exported geometry."""
        return self.piece_params(np.linspace(0.0, self.length, LINK_SAMPLES))

    def _sampled(self, n: int, fn, shape=()) -> np.ndarray:
        """fn(piece, t array) at n points uniformly spaced in arc length
        over the link, as an (n, *shape) array."""
        idx, ts = (self._grid if n == LINK_SAMPLES else
                   self.piece_params(np.linspace(0.0, self.length, n)))
        out = np.empty((n,) + shape)
        for i in np.unique(idx):
            m = idx == i
            out[m] = fn(self.pieces[i], ts[m])
        return out

    def sample_points(self, n: int) -> np.ndarray:
        """(n, 2) points uniformly spaced in arc length over the link."""
        return self._sampled(n, lambda p, ts: p.bisector.point(ts), (2,))

    def sample_radii(self, n: int) -> np.ndarray:
        return self._sampled(n, lambda p, ts: p.bisector.radius(ts))

    def sample_contacts(self, n: int):
        """(bp_plus, bp_minus) arrays of shape (n, 2), flow-oriented sides."""
        out = self._sampled(
            n, lambda p, ts: np.stack(p.contacts(ts), axis=1), (2, 2))
        return out[:, 0], out[:, 1]

    @property
    def radius_from(self) -> float:
        p = self.pieces[0]
        return float(p.bisector.radius(p.t0))

    @property
    def radius_to(self) -> float:
        p = self.pieces[-1]
        return float(p.bisector.radius(p.t1))

    def end(self, outgoing: bool) -> LinkEnd:
        """The link's end at its from node if outgoing (the link leaves the
        node), else at its to node."""
        if outgoing:
            p = self.pieces[0]
            return LinkEnd(p, p.t0, p.direction)
        p = self.pieces[-1]
        return LinkEnd(p, p.t1, -p.direction)


@dataclass
class ShockNode:
    id: int
    location: tuple
    radius: float
    label: str = ""
    # incident link ids in link-id order (a self-loop appears twice);
    # features.node_features orders them by the direction they leave in
    link_ids: list = field(default_factory=list)
    outgoing: list = field(default_factory=list)      # parallel: True if link leaves

    @property
    def degree(self) -> int:
        return len(self.link_ids)


@dataclass
class ShockGraph:
    nodes: list            # list[ShockNode], ids are list positions
    links: list            # list[ShockLink], ids are list positions
    scene: tuple = None    # (width, height) of the image
    stats: dict = field(default_factory=dict)
    elements: list = field(default_factory=list)  # ids are list positions

    def validate(self) -> None:
        """Raise StructuralError on any violated graph invariant.

        Node/link radius continuity is checked at EPS_REL of the node span,
        the scatter of one junction across the links that meet there.
        """
        span = 1.0
        if self.nodes:
            xy = np.array([nd.location for nd in self.nodes], dtype=float)
            span = max(1.0, float((xy.max(axis=0) - xy.min(axis=0)).max()))
        tol = EPS_REL * span
        for ln in self.links:
            if not (0 <= ln.from_node < len(self.nodes)
                    and 0 <= ln.to_node < len(self.nodes)):
                raise StructuralError(f"link {ln.id}: dangling node reference")
            if ln.radius_to < ln.radius_from - tol:
                raise StructuralError(f"link {ln.id}: time decreases along flow")
        for nd in self.nodes:
            if nd.degree == 0:
                # pruning may collapse a whole component onto its latest
                # node, which survives as a labeled, link-less sink
                if not nd.label:
                    raise StructuralError(f"node {nd.id}: isolated")
                continue
            if nd.label == JUNCTION and nd.degree < 3:
                # a self-loop contributes both ends to its anchor node
                loops = sum(1 for lid in nd.link_ids
                            if self.links[lid].from_node == self.links[lid].to_node)
                if nd.degree + loops < 3:
                    raise StructuralError(
                        f"node {nd.id}: junction with degree {nd.degree}")
            for lid, out in zip(nd.link_ids, nd.outgoing):
                ln = self.links[lid]
                r = ln.radius_from if out else ln.radius_to
                if abs(r - nd.radius) > tol:
                    raise StructuralError(
                        f"node {nd.id}/link {lid}: radius mismatch "
                        f"{r} vs {nd.radius}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_node(node: ShockNode) -> str:
    """Source iff every incident link leaves, Sink iff every one arrives,
    Junction otherwise. Isolated nodes are a structural error."""
    if node.degree == 0:
        raise StructuralError(f"node {node.id}: isolated (no incident links)")
    if all(node.outgoing):
        return SOURCE
    if not any(node.outgoing):
        return SINK
    return JUNCTION


def classify_link(link: ShockLink, is_point: dict) -> str:
    """Label by the generator kinds of the link's dominant (longest) piece:
    two segment generators -> Regular, exactly one point -> SemiDegenerate,
    two points -> Degenerate.

    Composite links may chain pieces with different generator kinds (a corner
    parabola flowing into a segment-pair line); the dominant piece decides,
    so vanishing transition slivers cannot flip the label.
    """
    piece = max(link.pieces, key=lambda p: p.length)
    gp, gm = piece.side_generators()
    n_pts = int(bool(is_point.get(gp))) + int(bool(is_point.get(gm)))
    return (REGULAR, SEMIDEGENERATE, DEGENERATE)[n_pts]


# ---------------------------------------------------------------------------
# Link attribute computation
# ---------------------------------------------------------------------------

def _piece_side_area(piece: Piece, side: int) -> float:
    """Area between the piece and one flow-relative side's contact locus,
    closed by the end rays (Bisector.side_area)."""
    if piece.length <= 0.0:
        return 0.0
    return piece.bisector.side_area(
        piece.t0, piece.t1, side if piece.direction > 0 else 1 - side)


def link_area(link: ShockLink) -> float:
    """Area of the region bounded by the link, its two contact loci, and the
    end rays (the region swept by the wavefront while tracing the link)."""
    return sum(_piece_side_area(p, side)
               for p in link.pieces for side in (0, 1))


def _boundary_refs(link: ShockLink) -> tuple[BoundaryRef, BoundaryRef]:
    """Per-side generator ids and contact-locus arc length. Contact loci of
    point and segment generators are constant or straight per piece, so the
    end-to-end chord per piece is exact."""
    refs = []
    for side in (0, 1):
        gens = []
        arclen = 0.0
        for p in link.pieces:
            gid = p.side_generators()[side]
            if gid not in gens:
                gens.append(gid)
            c0 = p.contacts(p.t0)[side]
            c1 = p.contacts(p.t1)[side]
            arclen += math.hypot(c1[0] - c0[0], c1[1] - c0[1])
        refs.append(BoundaryRef(tuple(gens), arclen, 0.0))
    return refs[0], refs[1]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble(links, node_src, elements: list[BoundaryElement], stats: dict,
             keep_isolated=(), scene: tuple = None) -> ShockGraph:
    """Shock graph over the given links, with flow-through nodes dissolved.

    links are (id, from node, to node, pieces) tuples with unique ids; node
    ids index node_src, whose entries give .location and .radius. Links are
    chained across nodes with exactly one incoming and one outgoing link,
    walking in link-id order from every link that leaves another kind of
    node; what is left sits on pure flow-through cycles (closed shock loops
    with no junction), each anchored at the tail of its lowest-id link. The
    surviving nodes keep their order and are renumbered densely;
    keep_isolated nodes survive without links, as sinks; every other node
    is labeled by classify_node. stats becomes the graph's stats dict, and
    the graph keeps elements for the node descriptor.
    """
    n_in: dict[int, list] = {}
    n_out: dict[int, list] = {}
    for ln in links:
        n_out.setdefault(ln[1], []).append(ln)
        n_in.setdefault(ln[2], []).append(ln)

    def flow_through(nid):
        return len(n_in.get(nid, ())) == 1 and len(n_out.get(nid, ())) == 1

    visited = set()
    chains = []

    def walk(ln):
        run = [ln]
        visited.add(ln[0])
        while flow_through(ln[2]):
            nxt = n_out[ln[2]][0]
            if nxt[0] in visited:
                break  # cycle closed
            run.append(nxt)
            visited.add(nxt[0])
            ln = nxt
        chains.append(run)

    ordered = sorted(links, key=lambda ln: ln[0])
    for ln in ordered:
        if ln[0] not in visited and not flow_through(ln[1]):
            walk(ln)
    for ln in ordered:
        if ln[0] not in visited:
            walk(ln)

    used = sorted({run[0][1] for run in chains} | {run[-1][2] for run in chains}
                  | set(keep_isolated))
    node_index = {nid: i for i, nid in enumerate(used)}
    nodes = [ShockNode(i, node_src[nid].location, node_src[nid].radius)
             for nid, i in node_index.items()]
    for nid in keep_isolated:
        # a pruned-away component collapses onto its latest node, which
        # survives as the sink the whole component flowed into
        nodes[node_index[nid]].label = SINK

    is_point = {e.id: e.is_point for e in elements}
    out = []
    for run in chains:
        pieces = [p for ln in run for p in ln[3]]
        link = ShockLink(len(out), node_index[run[0][1]],
                         node_index[run[-1][2]], pieces,
                         length=sum(p.length for p in pieces))
        link.label = classify_link(link, is_point)
        out.append(link)
        nodes[link.from_node].link_ids.append(link.id)
        nodes[link.from_node].outgoing.append(True)
        nodes[link.to_node].link_ids.append(link.id)
        nodes[link.to_node].outgoing.append(False)

    for nd in nodes:
        if nd.link_ids or not nd.label:  # collapse sinks keep their label
            nd.label = classify_node(nd)
    return ShockGraph(nodes, out, scene=scene, stats=stats,
                      elements=elements)


# ---------------------------------------------------------------------------
# Raw graph -> shock graph
# ---------------------------------------------------------------------------

def build_graph(raw, elements: list[BoundaryElement],
                scene: tuple = None) -> ShockGraph:
    """Build the attributed shock graph from the engine's raw output.

    This is assemble(): raw nodes with exactly one incoming and one
    outgoing link are generator transitions, not graph features, and their
    links are chained into composite links. Isolated raw nodes (candidates
    whose every outflow died instantly) are dropped and counted in
    stats["isolated_dropped"]; stats["dissolved_flow_through"] counts the
    raw links that did not survive as links of their own.
    """
    links = [(rl.id, rl.node_from, rl.node_to,
              [Piece(rl.bisector, rl.t_from, rl.t_to)]) for rl in raw.links]
    graph = assemble(links, raw.nodes, elements, dict(raw.stats), scene=scene)
    # not len(graph.nodes): assemble dissolves flow-through nodes too
    linked = {ln[1] for ln in links} | {ln[2] for ln in links}
    graph.stats["isolated_dropped"] = len(raw.nodes) - len(linked)
    graph.stats["dissolved_flow_through"] = len(raw.links) - len(graph.links)
    return graph


def contact_samples(graph: ShockGraph, per_link: int = 24) -> np.ndarray:
    """Union of contact-point samples over all links: the reconstruction of
    the boundary encoded by the shock graph. Returns an (m, 2) array."""
    pts = []
    for ln in graph.links:
        n = max(2, per_link)
        bp, bm = ln.sample_contacts(n)
        pts.append(bp)
        pts.append(bm)
    if not pts:
        return np.empty((0, 2))
    return np.vstack(pts)
