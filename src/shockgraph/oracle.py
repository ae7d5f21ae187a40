"""Brute-force grid oracle used only by the test suite.

Computes an exact Euclidean distance field over cell centers by direct scan
against every boundary element and extracts the discrete shock set as the
cells where the nearest wave source changes between grid neighbors, giving a
completely independent (and much slower) detector to compare the analytic
propagation against.

Two rules keep the detector aligned with what a shock actually is (a
collision of distinct waves, not a feature of one wavefront):

* a segment competes only through interior feet; where the foot clamps to an
  endpoint, the segment's wave is the endpoint vertex's wave, and the vertex
  point element represents it;
* a nearest-source change between a vertex and one of its own segments is a
  wavefront handover at the shared corner, never a collision, and changes
  with coincident feet (both on the shared corner) are likewise one wave.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import POINT, BoundaryElement
from .errors import ResolutionError
from .geometry import Rect

MAX_CELLS = 10 ** 7


@dataclass
class GridField:
    h: float
    origin: tuple           # center of cell (0, 0)
    shape: tuple            # (ny, nx)
    nearest_id: np.ndarray
    nearest_foot: np.ndarray
    handover: np.ndarray    # (n, n) vertex-own-segment adjacency

    def cell_centers(self) -> np.ndarray:
        ny, nx = self.shape
        xs = self.origin[0] + self.h * np.arange(nx)
        ys = self.origin[1] + self.h * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


def _element_distances(elements: list[BoundaryElement], pts: np.ndarray):
    """Exact Euclidean distances (len(pts), len(elements)) plus foot points
    (len(pts), len(elements), 2); segment entries with a clamped foot carry
    +inf (the endpoint vertex element owns that wave).  Elements in list
    order (element ids are list positions)."""
    dist = np.empty((len(pts), len(elements)))
    feet = np.empty((len(pts), len(elements), 2))
    for j, e in enumerate(elements):
        if e.kind == POINT:
            px, py = e.geometry
            dist[:, j] = np.hypot(pts[:, 0] - px, pts[:, 1] - py)
            feet[:, j] = (px, py)
        else:
            (ax, ay), (bx, by) = e.geometry
            dx, dy = bx - ax, by - ay
            L2 = dx * dx + dy * dy
            t = ((pts[:, 0] - ax) * dx + (pts[:, 1] - ay) * dy) / L2
            feet[:, j, 0] = ax + np.clip(t, 0.0, 1.0) * dx
            feet[:, j, 1] = ay + np.clip(t, 0.0, 1.0) * dy
            d = np.hypot(pts[:, 0] - feet[:, j, 0],
                         pts[:, 1] - feet[:, j, 1])
            dist[:, j] = np.where((t > 0.0) & (t < 1.0), d, np.inf)
    return dist, feet


def compute_field(elements: list[BoundaryElement], box: Rect,
                  h: float) -> GridField:
    if h <= 0:
        raise ValueError("grid resolution must be > 0")
    nx = int(np.floor((box.xmax - box.xmin) / h)) + 1
    ny = int(np.floor((box.ymax - box.ymin) / h)) + 1
    if nx * ny > MAX_CELLS:
        raise ResolutionError(
            f"{nx} x {ny} cells exceed the {MAX_CELLS} cell limit")
    origin = (box.xmin + 0.5 * (box.xmax - box.xmin - (nx - 1) * h),
              box.ymin + 0.5 * (box.ymax - box.ymin - (ny - 1) * h))

    n = len(elements)
    handover = np.eye(n, dtype=bool)
    for e in elements:
        for other in e.adjacency:
            if e.kind == POINT or elements[other].kind == POINT:
                handover[e.id, other] = handover[other, e.id] = True

    nearest_i = np.empty(nx * ny, dtype=int)
    nearest_f = np.empty((nx * ny, 2))
    field = GridField(h, origin, (ny, nx), nearest_i, nearest_f, handover)
    centers = field.cell_centers()
    for lo in range(0, len(centers), 16384):
        pts = centers[lo:lo + 16384]
        d, feet = _element_distances(elements, pts)
        rows = np.arange(len(pts))
        ni = d.argmin(axis=1)
        nearest_i[lo:lo + len(pts)] = ni
        nearest_f[lo:lo + len(pts)] = feet[rows, ni]
    return field


def extract_shock_cells(field: GridField, tol: float) -> np.ndarray:
    """Cell centers straddling a shock: the nearest wave source differs from
    a grid neighbor's, the pair is not a corner handover, and the two feet
    are separated by more than tol (coincident feet mean one wave)."""
    ny, nx = field.shape
    ids = field.nearest_id.reshape(ny, nx)
    feet = field.nearest_foot.reshape(ny, nx, 2)
    mask = np.zeros((ny, nx), dtype=bool)
    for axis, off in ((0, 1), (1, 1)):
        a = (slice(None, -off), slice(None)) if axis == 0 \
            else (slice(None), slice(None, -off))
        b = (slice(off, None), slice(None)) if axis == 0 \
            else (slice(None), slice(off, None))
        differ = ids[a] != ids[b]
        sep = np.hypot(feet[a][..., 0] - feet[b][..., 0],
                       feet[a][..., 1] - feet[b][..., 1]) > tol
        genuine = differ & sep & ~field.handover[ids[a], ids[b]]
        mask[a] |= genuine
        mask[b] |= genuine
    return field.cell_centers()[mask.ravel()]


def graph_shock_points(graph, step: float,
                       elements: list[BoundaryElement] | None = None
                       ) -> np.ndarray:
    """Rasterization of the analytic shock set at arc-length step.

    With elements given, the exclusion rules of the grid detector are
    mirrored: pieces generated by a vertex with one of its own segments, or
    by adjacent segments with coincident contacts (a wavefront handover at
    the shared corner), are skipped, since both detectors treat those as a
    single wave."""
    adj = {e.id: e.adjacency for e in elements} if elements else {}
    chunks = []
    for ln in graph.links:
        for p in ln.pieces:
            if p.length <= 0.0:
                continue
            if elements is not None:
                a, b = p.bisector.pair
                if b in adj[a]:
                    if elements[a].kind == POINT or elements[b].kind == POINT:
                        continue
                    cp, cm = p.contacts(0.5 * (p.t0 + p.t1))
                    if np.hypot(cp[0] - cm[0], cp[1] - cm[1]) <= 1e-9:
                        continue
            n = max(2, int(np.ceil(p.length / step)) + 1)
            ts = p.params(n)
            pts = np.asarray(p.bisector.point(ts), dtype=float)
            if elements is not None:
                # the grid detector resolves a shock only where its two
                # contact points are farther apart than a cell (the foot
                # separation it thresholds); drop samples below that, e.g.
                # along the bisector of a sub-cell-width wedge or the corner
                # bisector of two nearly collinear segments
                cp, cm = p.contacts(ts)
                sep = np.hypot(cp[..., 0] - cm[..., 0],
                               cp[..., 1] - cm[..., 1])
                pts = pts[sep > 2.0 * step]
            if len(pts):
                chunks.append(pts)
    if not chunks:
        return np.empty((0, 2))
    return np.vstack(chunks)
