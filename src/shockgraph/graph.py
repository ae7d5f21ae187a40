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
ends.  Link arc length and label are set at assembly.  Every other link
attribute -- samples, curvature, swept area, per-side boundary lengths, and
the node descriptor at each link end (the direction the link leaves in, the
object angle phi between it and the contact rays, and the plus-side contact
point) -- is computed analytically from the underlying bisectors, for all
links of a graph at once, by LinkArrays (ShockGraph.link_arrays).
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

    def dradius(self) -> float:
        """dr per unit arc length moving away from the node.

        Evaluated a hair inside the link, an offset in t: r has a corner
        (|t|) at branch apexes, where the one-sided derivative into the link
        is the right limit, not the two-sided 0 (LinkArrays.ends takes the
        same offset)."""
        return self.step * float(
            self.piece.bisector.dradius(self.t + self.step * _end_eps(
                self.piece.length)))


def _end_eps(length):
    """The offset in t from a link end to where its dr/ds is taken."""
    return 1e-9 + 1e-7 * length


@dataclass
class ShockLink:
    """A composite shock curve between two graph nodes.

    length and label are set when the link is assembled (validation,
    pruning and classification read them).  The geometric attributes --
    samples, curvature, swept area, boundary lengths, the node descriptor
    at each end -- are computed for all links of a graph at once
    (ShockGraph.link_arrays); the per-link accessors below evaluate the
    same arrays for one link.  pieces is never mutated after construction.
    """
    id: int
    from_node: int
    to_node: int
    pieces: list            # list[Piece], in flow order
    label: str = ""
    length: float = 0.0

    def generators(self, side: int) -> tuple:
        """Generator ids of one flow-relative side (0 plus, 1 minus), in
        flow order, each once."""
        return tuple(dict.fromkeys(p.side_generators()[side]
                                   for p in self.pieces))

    def piece_params(self, us: np.ndarray):
        """(piece index array, t array) at arc lengths us from the start."""
        return LinkArrays([self]).params(np.asarray(us, dtype=float)[None])

    def sample_points(self, n: int) -> np.ndarray:
        """(n, 2) points uniformly spaced in arc length over the link."""
        return LinkArrays([self]).points(n)[0]

    def sample_radii(self, n: int) -> np.ndarray:
        return LinkArrays([self]).radii(n)[0]

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


class LinkArrays:
    """The attributes of many links, each computed for all of them at once.

    The links' pieces are laid out flat, in link order and in flow order
    within a link, and every quantity is one call of a bisector array form
    per kind (Bisector.columns).  Each value has the bits that evaluating
    its link alone gives: the array forms write the scalar formulas
    elementwise, t_of_s iterates each piece's samples as one group, a
    link's sums over its pieces run left to right in Python, and the
    angles and chord lengths are math.atan2, math.acos and math.hypot,
    whose last bits their numpy twins do not share.
    """

    def __init__(self, links):
        self.links = links
        pieces, rows, starts, gen_plus = [], [], [], []
        self.first = [0]          # piece range of link j: first[j]:first[j+1]
        kinds: dict = {}
        for ln in links:
            acc = 0.0             # arc length at the piece's start
            for p in ln.pieces:
                kinds.setdefault(type(p.bisector), []).append(len(rows))
                pieces.append(p)
                rows.append((p.t0, p.t1, p.s0, p.length, p.direction))
                gen_plus.append(p.side_generators()[0])
                starts.append(acc)
                acc += p.length
            self.first.append(len(rows))
        self.t0, self.t1, self.s0, self.plen, self.direction = \
            np.array(rows, dtype=float).reshape(-1, 5).T
        self.start = np.array(starts)
        self.gen_plus = np.array(gen_plus, dtype=np.intp)
        self.length = np.array([ln.length for ln in links], dtype=float)
        self._kind = np.zeros(len(rows), dtype=np.intp)
        self._row = np.zeros(len(rows), dtype=np.intp)
        self._kinds = []
        for k, (cls, idx) in enumerate(kinds.items()):
            self._kind[idx] = k
            self._row[idx] = np.arange(len(idx))
            self._kinds.append(
                (cls, cls.columns([pieces[i].bisector for i in idx])))

    # -- evaluation ---------------------------------------------------------

    def _eval(self, form: str, piece, *ts, **kw) -> np.ndarray:
        """The array form named form of each entry's bisector, at the
        entry's values of ts (arrays parallel to piece)."""
        out = None
        kind = self._kind[piece]
        for k, (cls, cols) in enumerate(self._kinds):
            m = kind == k
            if not m.any():
                continue
            rows = self._row[piece[m]]
            val = getattr(cls, form)({name: col[rows] for name, col
                                      in cols.items()},
                                     *(t[m] for t in ts), **kw)
            if out is None:
                out = np.empty((len(piece),) + val.shape[1:])
            out[m] = val
        return np.empty(0) if out is None else out

    def _contacts(self, piece, t) -> tuple:
        """(bp_plus, bp_minus) (m, 2) arrays, sides relative to the flow."""
        c0, c1 = (self._eval("contact_points", piece, t, side=s)
                  .reshape(-1, 2) for s in (0, 1))
        fwd = (self.direction[piece] > 0)[:, None]
        return np.where(fwd, c0, c1), np.where(fwd, c1, c0)

    def _per_link(self, values: list, width: int = 1) -> list:
        """Each link's sum of values, width entries per piece, left to
        right."""
        f = self.first
        return [sum(values[width * f[j]:width * f[j + 1]])
                for j in range(len(self.links))]

    # -- samples ------------------------------------------------------------

    def params(self, us: np.ndarray) -> tuple:
        """(piece, t) flat arrays, link-major, at the arc lengths us, an
        (links, n) array measured from each link's start.  A sample lies on
        the last piece that starts at or before it."""
        u = us.ravel()
        npc = len(self.start)
        # the pieces of a link and its samples, merged by arc length with
        # pieces first on ties: a sample's piece is the last piece before it
        ids = np.arange(len(self.links))
        link = np.concatenate([np.repeat(ids, np.diff(self.first)),
                               np.repeat(ids, us.shape[1])])
        is_u = np.concatenate([np.zeros(npc, dtype=bool),
                               np.ones(len(u), dtype=bool)])
        order = np.lexsort((is_u, np.concatenate([self.start, u]), link))
        seen = np.cumsum(~is_u[order])
        sample = is_u[order]
        piece = np.empty(len(u), dtype=np.intp)
        piece[order[sample] - npc] = seen[sample] - 1
        s = self.s0[piece] + self.direction[piece] * (u - self.start[piece])
        return piece, self._eval("params_at", piece, s, piece)

    def samples(self, n: int) -> tuple:
        """params at n samples per link uniformly spaced in arc length,
        np.linspace(0, length, n) on every link."""
        if n == LINK_SAMPLES:
            return self._grid
        return self.params(_linspace(self.length, n))

    @cached_property
    def _grid(self) -> tuple:
        return self.params(_linspace(self.length, LINK_SAMPLES))

    def points(self, n: int = LINK_SAMPLES) -> np.ndarray:
        """(links, n, 2) points at the samples."""
        piece, ts = self.samples(n)
        return self._eval("points", piece, ts).reshape(-1, n, 2)

    def radii(self, n: int) -> np.ndarray:
        """(links, n) radii at the samples."""
        piece, ts = self.samples(n)
        return self._eval("radii", piece, ts).reshape(-1, n)

    def contacts(self, n: int) -> np.ndarray:
        """(links, 2, n, 2) plus- and minus-side contact points at the
        samples."""
        piece, ts = self.samples(n)
        plus, minus = self._contacts(piece, ts)
        return np.stack([plus.reshape(-1, n, 2), minus.reshape(-1, n, 2)],
                        axis=1)

    # -- edge attributes ----------------------------------------------------

    @cached_property
    def curvature_samples(self) -> np.ndarray:
        """(links, LINK_SAMPLES) signed curvature at the samples, oriented
        along the flow (a straight piece run in -t gives -0.0); 0 on a
        zero-length link."""
        piece, ts = self._grid
        kappa = (self.direction[piece] * self._eval("curvatures", piece, ts)
                 ).reshape(-1, LINK_SAMPLES)
        kappa[self.length <= 0.0] = 0.0
        return kappa

    @cached_property
    def curvature(self) -> np.ndarray:
        """Mean of each link's curvature samples."""
        return np.mean(self.curvature_samples, axis=1)

    @cached_property
    def area(self) -> list:
        """Area of the region bounded by each link, its two contact loci and
        the end rays (the region the wavefront sweeps while tracing it):
        over its pieces, the area between the piece and each side's contact
        locus (Bisector.side_areas), 0 for a zero-length piece."""
        piece = np.arange(len(self.start))
        a0, a1 = (self._eval("side_areas", piece, self.t0, self.t1, side=s)
                  for s in (0, 1))
        fwd = self.direction > 0
        sides = np.stack([np.where(fwd, a0, a1), np.where(fwd, a1, a0)],
                         axis=1)
        sides[self.plen <= 0.0] = 0.0
        return self._per_link(sides.ravel().tolist(), width=2)

    @cached_property
    def boundary_length(self) -> np.ndarray:
        """(links, 2) contact-locus arc length on each flow-relative side.
        Contact loci of point and segment generators are constant or
        straight per piece, so the end-to-end chord per piece is exact;
        0 on a zero-length link."""
        piece = np.arange(len(self.start))
        out = np.zeros((len(self.links), 2))
        for side, (c0, c1) in enumerate(zip(self._contacts(piece, self.t0),
                                            self._contacts(piece, self.t1))):
            d = c1 - c0
            out[:, side] = self._per_link(list(map(
                math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))
        out[self.length <= 0.0] = 0.0
        return out

    # -- node descriptor ----------------------------------------------------

    @cached_property
    def ends(self) -> tuple:
        """The node descriptor of each link end: (theta, phi, bx, by, gen),
        (links, 2) arrays with column 0 at the from node and 1 at the to
        node.  theta is the direction the link leaves the node in, phi the
        object angle between it and the contact rays, (bx, by) the
        plus-side contact point and gen its generator."""
        first = np.array(self.first[:-1], dtype=np.intp)
        last = np.array(self.first[1:], dtype=np.intp) - 1
        piece = np.stack([first, last], axis=1).ravel()
        t = np.stack([self.t0[first], self.t1[last]], axis=1).ravel()
        step = np.stack([self.direction[first], -self.direction[last]],
                        axis=1).ravel()
        away = step[:, None] * self._eval("tangents", piece, t).reshape(-1, 2)
        theta = list(map(math.atan2, away[:, 1].tolist(),
                         away[:, 0].tolist()))
        # contact rays make angle phi with the away-tangent:
        # dot(away, ray) = -dr/ds measured away from the node
        dr = step * self._eval("dradii", piece,
                               t + step * _end_eps(self.plen[piece]))
        phi = [math.acos(min(1.0, max(-1.0, -v))) for v in dr.tolist()]
        bp = self._contacts(piece, t)[0]
        return tuple(np.asarray(v, dtype=float).reshape(-1, 2) for v in
                     (theta, phi, bp[:, 0], bp[:, 1])) + (
                         self.gen_plus[piece].reshape(-1, 2),)


def _linspace(lengths: np.ndarray, n: int) -> np.ndarray:
    """np.linspace(0.0, length, n) for each length, one row each."""
    y = np.arange(n, dtype=float)
    if n < 2:
        return np.zeros((len(lengths), n))
    step = lengths / (n - 1)
    us = y * step[:, None]
    tiny = step == 0.0  # numpy's path for a zero or denormal step
    us[tiny] = (y / (n - 1)) * lengths[tiny, None]
    us[:, -1] = lengths
    return us


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

    @cached_property
    def link_arrays(self) -> LinkArrays:
        """The attributes of every link, computed together on first read."""
        return LinkArrays(self.links)

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


def link_area(link: ShockLink) -> float:
    """Area swept by one link (LinkArrays.area)."""
    return LinkArrays([link]).area[0]


def contact_samples(graph: ShockGraph, per_link: int = 24) -> np.ndarray:
    """Union of contact-point samples over all links: the reconstruction of
    the boundary encoded by the shock graph. Returns an (m, 2) array, each
    link's plus side, then its minus side."""
    n = max(2, per_link)
    return graph.link_arrays.contacts(n).reshape(-1, 2)
