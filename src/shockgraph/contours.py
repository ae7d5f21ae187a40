"""Contour ingestion: scene parsing, polyline simplification, mask tracing and
decomposition of polylines into point/segment boundary elements."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .geometry import EPS_GEOM, segments_interiors_intersect

POINT = "point"
SEGMENT = "segment"


@dataclass
class ContourFragment:
    id: int
    vertices: np.ndarray  # (n, 2) float array
    closed: bool = False

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise InvalidInputError(f"fragment {self.id}: needs >= 2 vertices")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError(f"fragment {self.id}: non-finite coordinates")
        if self.closed and v.shape[0] >= 2 and np.allclose(v[0], v[-1], atol=EPS_GEOM):
            v = v[:-1]  # closure is implicit
        if self.closed and v.shape[0] < 3:
            # two vertices would close into one edge traversed twice
            raise InvalidInputError(
                f"fragment {self.id}: a closed fragment needs >= 3 vertices")
        steps = np.diff(np.vstack([v, v[:1]]) if self.closed else v, axis=0)
        if np.any(np.hypot(steps[:, 0], steps[:, 1]) <= EPS_GEOM):
            raise InvalidInputError(f"fragment {self.id}: consecutive duplicate vertices")
        self.vertices = v

    def edge_pairs(self):
        """Yield (a, b) vertex pairs for every polyline edge."""
        v = self.vertices
        n = v.shape[0]
        for i in range(n - 1):
            yield v[i], v[i + 1]
        if self.closed:
            yield v[n - 1], v[0]


@dataclass
class BoundaryElement:
    """A wavefront emitter: a vertex point or an open polyline edge."""
    id: int
    kind: str  # POINT or SEGMENT
    geometry: tuple  # (x, y) for points, ((ax, ay), (bx, by)) for segments
    fragment_id: int
    adjacency: set = field(default_factory=set)

    @property
    def is_point(self):
        return self.kind == POINT

    def __repr__(self):
        return f"BoundaryElement({self.id}, {self.kind}, frag={self.fragment_id})"


def _max_deviation(points, i0, i1):
    """Farthest vertex (strictly between i0 and i1) from chord i0-i1.

    Ties break to the lowest index. Returns (index, distance)."""
    a = points[i0]
    b = points[i1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    L = math.hypot(dx, dy)
    best_i, best_d = -1, -1.0
    for i in range(i0 + 1, i1):
        px, py = points[i][0] - a[0], points[i][1] - a[1]
        if L <= EPS_GEOM:
            d = math.hypot(px, py)
        else:
            d = abs(px * dy - py * dx) / L
        if d > best_d + 1e-15:
            best_i, best_d = i, d
    return best_i, best_d


def _dp_indices(points, i0, i1, epsilon, keep):
    if i1 <= i0 + 1:
        return
    i, d = _max_deviation(points, i0, i1)
    if d > epsilon:
        keep.add(i)
        _dp_indices(points, i0, i, epsilon, keep)
        _dp_indices(points, i, i1, epsilon, keep)


def simplify_polyline(fragment: ContourFragment, epsilon: float) -> ContourFragment:
    """Max-deviation (Douglas-Peucker) simplification.

    Endpoints are always preserved; closed fragments keep vertex 0 and the
    vertex farthest from it as anchors, and at least one more vertex.
    epsilon=0 returns the input unchanged.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    v = fragment.vertices
    n = v.shape[0]
    span = np.hypot(*(v - v[0]).T).max()
    if span <= EPS_GEOM:
        raise DegenerateInputError(f"fragment {fragment.id}: all vertices coincide")
    if epsilon == 0 or n <= 2:
        return ContourFragment(fragment.id, v.copy(), fragment.closed)

    pts = [tuple(p) for p in v]
    keep = set()
    if fragment.closed:
        anchor2 = int(np.argmax(np.hypot(*(v - v[0]).T)))
        keep.update((0, anchor2))
        # run on the two arcs, wrapping through the implicit closing edge
        ring = pts + pts[:1]
        _dp_indices(ring, 0, anchor2, epsilon, keep)
        _dp_indices(ring, anchor2, n, epsilon, keep)
        keep.discard(n)
        if len(keep) == 2:
            # a closed fragment needs a third vertex: the one farthest from
            # the anchors' chord, the lowest index on a tie
            rest = [i for i in range(1, n) if i != anchor2]
            chord = [pts[0]] + [pts[i] for i in rest] + [pts[anchor2]]
            keep.add(rest[_max_deviation(chord, 0, len(chord) - 1)[0] - 1])
    else:
        keep.update((0, n - 1))
        _dp_indices(pts, 0, n - 1, epsilon, keep)
    return ContourFragment(fragment.id, v[sorted(keep)], fragment.closed)


def resample_polyline(fragment: ContourFragment, spacing: float) -> ContourFragment:
    """Resample a fragment at uniform arc-length spacing along its polyline.

    The number of output vertices is the total length divided by spacing,
    rounded to the nearest integer (minimum 3 for closed fragments, 2 for
    open ones); open fragments keep both endpoints exactly.
    """
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    v = fragment.vertices
    if fragment.closed:
        v = np.vstack([v, v[:1]])
    seg = np.hypot(*np.diff(v, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= EPS_GEOM:
        raise DegenerateInputError(f"fragment {fragment.id}: zero length")
    if fragment.closed:
        n = max(3, int(round(total / spacing)))
        t = total * np.arange(n) / n
    else:
        n = max(2, int(round(total / spacing)) + 1)
        t = total * np.arange(n) / (n - 1)
    out = np.column_stack([np.interp(t, cum, v[:, 0]),
                           np.interp(t, cum, v[:, 1])])
    return ContourFragment(fragment.id, out, fragment.closed)


def trace_binary_mask(mask) -> list[ContourFragment]:
    """Trace foreground/background boundaries of a boolean grid.

    Coordinates are pixel corners with x = column, y = row. Outer boundaries
    carry positive shoelace area, holes negative. All-true or all-false masks
    give an empty list.
    """
    m = np.asarray(mask, dtype=bool)
    if m.size == 0:
        raise InvalidInputError("empty mask")
    if not m.any() or m.all():
        return []
    H, W = m.shape
    padded = np.zeros((H + 2, W + 2), dtype=bool)
    padded[1:-1, 1:-1] = m

    # Directed boundary edges keeping foreground on the left
    # (in x=col, y=row coordinates with the shoelace sign convention below).
    edges = {}  # from-vertex -> list of to-vertex
    fg = np.argwhere(m)
    for r, c in fg:
        if not padded[r, c + 1]:        # neighbor (r-1, c): side y=r
            edges.setdefault((c, r), []).append((c + 1, r))
        if not padded[r + 2, c + 1]:    # neighbor (r+1, c): side y=r+1
            edges.setdefault((c + 1, r + 1), []).append((c, r + 1))
        if not padded[r + 1, c]:        # neighbor (r, c-1): side x=c
            edges.setdefault((c, r + 1), []).append((c, r))
        if not padded[r + 1, c + 2]:    # neighbor (r, c+1): side x=c+1
            edges.setdefault((c + 1, r), []).append((c + 1, r + 1))

    for v in edges.values():
        v.sort()

    fragments = []
    fid = 0
    while edges:
        start = min(edges)
        cur = start
        prev_dir = None
        loop = []
        while True:
            outs = edges[cur]
            if len(outs) == 1 or prev_dir is None:
                nxt = outs[0]
            else:
                # checkerboard corner: prefer the left turn relative to the
                # incoming direction so loops stay simple
                def turn(candidate):
                    d = (candidate[0] - cur[0], candidate[1] - cur[1])
                    return prev_dir[0] * d[1] - prev_dir[1] * d[0]
                nxt = max(outs, key=lambda cnd: (turn(cnd), cnd))
            outs.remove(nxt)
            if not outs:
                del edges[cur]
            loop.append(cur)
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            cur = nxt
            if cur == start:
                break
        # drop collinear run midpoints
        verts = []
        k = len(loop)
        for i in range(k):
            a, b, c = loop[i - 1], loop[i], loop[(i + 1) % k]
            if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
                verts.append(b)
        fragments.append(ContourFragment(fid, np.array(verts, dtype=float), closed=True))
        fid += 1
    return fragments


def decompose(fragments: list[ContourFragment]) -> list[BoundaryElement]:
    """Split simplified polylines into open segment sources plus vertex point
    sources, with symmetric adjacency between co-terminal elements."""
    elements: list[BoundaryElement] = []
    vertex_ids: dict[tuple, int] = {}

    def vertex_id(p, frag_id):
        try:
            kx = round(float(p[0]) / EPS_GEOM)
            ky = round(float(p[1]) / EPS_GEOM)
        except OverflowError:
            raise InvalidInputError(
                f"fragment {frag_id}: vertex ({p[0]}, {p[1]}) is too large "
                f"for a grid key at {EPS_GEOM} px") from None
        if (kx, ky) in vertex_ids:
            return vertex_ids[(kx, ky)]
        # a vertex within EPS_GEOM across a cell boundary is the same one;
        # two point elements that close have no bisector
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                eid = vertex_ids.get((kx + dx, ky + dy))
                if eid is not None and \
                        math.dist(elements[eid].geometry, p) <= EPS_GEOM:
                    return eid
        eid = len(elements)
        elements.append(BoundaryElement(eid, POINT, (float(p[0]), float(p[1])), frag_id))
        vertex_ids[(kx, ky)] = eid
        return eid

    seg_records = []
    for frag in fragments:
        for a, b in frag.edge_pairs():
            if math.hypot(b[0] - a[0], b[1] - a[1]) <= EPS_GEOM:
                raise InvalidInputError(f"fragment {frag.id}: zero-length edge")
            ia = vertex_id(a, frag.id)
            ib = vertex_id(b, frag.id)
            eid = len(elements)
            seg = BoundaryElement(
                eid, SEGMENT,
                ((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))),
                frag.id)
            elements.append(seg)
            seg_records.append((eid, ia, ib))

    endpoint_segs: dict[int, list[int]] = {}
    for eid, ia, ib in seg_records:
        elements[eid].adjacency.update((ia, ib))
        elements[ia].adjacency.add(eid)
        elements[ib].adjacency.add(eid)
        for vid in (ia, ib):
            endpoint_segs.setdefault(vid, []).append(eid)
    # segments sharing a vertex are directly adjacent
    for vid, segs in endpoint_segs.items():
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                elements[segs[i]].adjacency.add(segs[j])
                elements[segs[j]].adjacency.add(segs[i])
    return elements


def check_no_crossings(elements: list[BoundaryElement]) -> None:
    """Reject scenes whose segment interiors cross or overlap on one line
    (segments_interiors_intersect).

    Only segments whose bounding boxes overlap can meet, so only those
    pairs are tested, in the order of an all-pairs scan (the first such
    pair is the one reported)."""
    segs = [e for e in elements if e.kind == SEGMENT]
    if len(segs) < 2:
        return
    ends = np.array([s.geometry for s in segs], dtype=float)  # (n, 2, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    block = 256
    for r0 in range(0, len(segs), block):
        rl, rh = lo[r0:r0 + block, None], hi[r0:r0 + block, None]
        overlap = ((lo[None, :, 0] <= rh[..., 0]) & (rl[..., 0] <= hi[None, :, 0])
                   & (lo[None, :, 1] <= rh[..., 1]) & (rl[..., 1] <= hi[None, :, 1]))
        for i, j in zip(*np.nonzero(overlap)):
            i += r0
            if j > i and segments_interiors_intersect(*segs[i].geometry,
                                                      *segs[j].geometry):
                raise InvalidInputError(
                    f"segments {segs[i].id} and {segs[j].id} cross or overlap")


# ---------------------------------------------------------------------------
# Scene file format: `scene <w> <h>` then `fragment <id> <open|closed>` blocks
# of `v <x> <y>` lines.
# ---------------------------------------------------------------------------

def parse_scene_text(text: str):
    """Parse the contour scene format. Returns (width, height, fragments)."""
    width = height = None
    fragments = []
    cur = None  # (id, closed, [verts])

    def flush():
        nonlocal cur
        if cur is not None:
            fid, closed, verts = cur
            fragments.append(ContourFragment(fid, np.array(verts, dtype=float), closed))
            cur = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "scene":
                width, height = float(parts[1]), float(parts[2])
            elif parts[0] == "fragment":
                flush()
                closed = parts[2] == "closed"
                if parts[2] not in ("open", "closed"):
                    raise ValueError(f"bad fragment mode {parts[2]!r}")
                cur = (int(parts[1]), closed, [])
            elif parts[0] == "v":
                cur[2].append((float(parts[1]), float(parts[2])))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError, TypeError) as exc:
            raise InvalidInputError(f"scene parse error at line {lineno}: {exc}") from exc
    flush()
    if width is None:
        raise InvalidInputError("scene file missing 'scene <width> <height>' header")
    return width, height, fragments


def format_scene_text(width, height, fragments) -> str:
    lines = [f"scene {width:g} {height:g}"]
    for f in fragments:
        lines.append(f"fragment {f.id} {'closed' if f.closed else 'open'}")
        for x, y in f.vertices:
            lines.append(f"v {float(x)!r} {float(y)!r}")
    return "\n".join(lines) + "\n"
