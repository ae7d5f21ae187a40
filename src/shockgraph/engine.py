"""Event-driven shock propagation over two time-ordered heaps: active shocks
and shock sources.

One table, ElementSet's grid of cell balls, says which elements can matter
where; it is sound by construction, so nothing downstream checks or repairs
it.  Candidate shock sources are formed only for the element pairs that
share a ball, in slices of about TABLE_BUDGET pairs, and validated exactly
against their cell's ball (ElementSet.valid_sources).  The valid candidates
fill the source heap, which also takes back the bisector pieces whose
radius minimum comes later than their candidate's time (see Engine.run);
active shocks always take priority over sources.  Each active
shock is advanced to its first termination: the earliest parameter where a
third element's wavefront arrives simultaneously (a junction), the edge of
an interval of its branch already claimed, or the bisector domain end,
clipped to the box.  Outflows start only from a junction end.

Termination search is closed form: along every bisector kind the squared
deficit dist(p, e)^2 - r^2 to a third element e is a quadratic in the
bisector's natural parameter t (arc length for the straight kinds, the
directrix coordinate xi for parabolas), so each element's first simultaneous
arrival is a quadratic root.  The engine never looks at a bisector's kind:
the quadratics are Bisector.crossing_params, and the parameter nearest a
junction is Bisector.param_near, both in bisectors.py with every other
per-kind formula.  A branch of generators g1, g2 solves these quadratics
against the elements that share a ball with both
(ElementSet.crossing_rows), which hold every element that can end a link of
the branch, touch its start or meet its end.  The roots are solved once per
bisector branch and cached, trimmed to the hull of the branch's piece
domains, outside which propagation reads none.  The engine works in t
throughout, and raw links record t.

A validity sweep of exact distances at interior samples of every traced
link is the numerical backstop: it truncates a link at a missed crossing by
bisection (stats["sweep_truncations"]).

Engine._node_at makes every raw node, and realizes each junction once (see
there).  A link whose end joins its own start node is slack: propagate
claims its interval and searches its end for outflows, but records no link.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bisectors import Bisector, make_bisectors
from .contours import POINT, SEGMENT, BoundaryElement, check_no_crossings
from .errors import InvalidInputError, NonterminationError
from .geometry import EPS_GEOM, EPS_MERGE, EPS_REL, Rect

_INF = math.inf


# ---------------------------------------------------------------------------
# Vectorized distances over the element set
# ---------------------------------------------------------------------------

def _ranges(starts, sizes):
    """The indices starts[i] .. starts[i] + sizes[i] - 1, concatenated over
    i."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) \
        + np.repeat(starts + sizes - ends, sizes)


def _blocks(sizes, budget, most=None):
    """Consecutive item ranges (lo, hi) that tile 0 .. len(sizes) in order:
    each takes as many items as keep the sum of their sizes within budget,
    at most most items, and always at least one."""
    before = np.append(0, np.cumsum(sizes))
    lo = 0
    while lo < len(sizes):
        hi = int(np.searchsorted(before, before[lo] + budget, "right")) - 1
        if most is not None:
            hi = min(hi, lo + most)
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _kth_distance(dist, eid, run, count, k):
    """Per run 0 .. count - 1 of the samples (dist, eid), grouped by run in
    ascending order: the distance to the k-th distinct element, each element
    at its nearest sample; +inf in a run of fewer than k elements."""
    out = np.full(count, _INF)
    if not len(dist):
        return out
    step = run[1:] != run[:-1]
    first = np.flatnonzero(np.r_[True, step])
    pos = np.cumsum(np.r_[False, step])
    for _ in range(k - 1):
        low = np.minimum.reduceat(dist, first)
        # drop one element at each run's minimum (any one, where several tie)
        drop = np.maximum.reduceat(np.where(dist == low[pos], eid, -1), first)
        dist = np.where(eid == drop[pos], _INF, dist)
    out[run[first]] = np.minimum.reduceat(dist, first)
    return out


def _index(v, lo, side, count):
    """The grid column or row of coordinate v, clamped into the grid: one
    scalar value of ElementSet._axis, by the same operations."""
    return int(min(max((v - lo) / side, 0.0), count - 1))


class ElementSet:
    """Array view of the boundary elements with open-segment distances, and
    the table that says which elements can matter where.

    Open-segment distance is +inf when the perpendicular foot is not strictly
    interior; the segment's endpoint PointSources own those regions, so the
    minimum over all elements still equals the true distance to the boundary.

    One sample array serves every proximity query.  It holds every point
    element, and every segment at a spacing of at most step = side /
    SAMPLES_PER_SIDE, ends included, so an element within r of q has a
    sample within r + step/2 of q.  side is the cell side below, so the
    sample count does not depend on the coordinate unit.  The samples are
    sorted by cell, and cells are numbered column by column, so the cells
    from row y0 of column x0 to row y1 of column x1 are one slice of the
    array, and a rectangle of cells is one slice per column.  A sample's cell
    comes from the rounded formula that gives a query's cells (_axis), and
    that formula does not decrease with the coordinate, so the cells of a
    query's bounding square hold every sample inside the square.
    - A point query (_ball_elements) takes the one slice from the cell of
      its square's lower corner to the cell of its upper corner, and keeps
      the samples within radius + step/2: a superset of the elements within
      radius of q, which exact distances trim.
    - A cell's bound (_ranked) searches square blocks of cells about the
      cell, one ring wider at a time.  Every sample outside a block lies
      farther from the centre than the block's half width, so a distance
      found within that is exact: the distance to the sample of the k-th
      distinct element nearest the centre.
    - A ball (_balls) reads the cells of its square and keeps the elements
      with a sample within its radius + step/2 and a closed distance within
      its radius: exactly the elements within its radius.

    The table.  A grid of square cells, about one per element, covers the
    box of the element ends and the clip box.  For a cell c with half-diagonal
    h, D3(c) is the distance from its centre to a sample of the third
    distinct element nearest the centre, plus h: an upper bound on the
    distance from any point of c to three distinct elements.  ball(c) holds
    the elements within D3(c) + m + h of the centre, with the margin
    m = 1e-5 (1 + D3(c)).  One more row, the exterior, holds the elements
    within D1(c) + m' + h of the centre of some rim cell c, where D1 is the
    same bound for the nearest element and m' = 1e-5 (1 + D1(c)).  Two
    elements share a ball when one row holds both; that relation, M, gives
    the candidate pairs and the crossing rows.  The balls and M are held once
    each, in CSR form: both grow with the element count times the ball size,
    which the scene's density sets.  Each transient array of the build holds
    at most TABLE_BUDGET entries, or one row's.

    Why the table is sound.  Every segment endpoint is a point element.  Let
    q in cell c lie at distance r from two generators, with no other element
    at open distance below r - d.  A third element within D3(c) of q is, or
    has, an element at open distance at most D3(c) from q: a point, a
    segment whose nearest point to q is interior, or the point element at
    that segment's nearest endpoint, which is no generator as it lies closer
    than r.  So r <= D3(c) + d, and every element within r + e of q lies in
    ball(c) whenever d + e < m.
    - A valid candidate source is such a q, with r its time and d the 1e-9
      of its validity test.  So a candidate whose time exceeds D3(c) + m is
      invalid, its generators share ball(c), and every element that could
      invalidate it is in ball(c): the exact test against ball(c) decides as
      the test against every element does.
    - A point of a traced branch where a third element's wavefront arrives
      is such a q, with that element at r as well.  So is the branch's
      start, whose touching elements lie within r + 2e-6 (1 + r), and its
      end, whose elements lie within r + 1e-6 (1 + r); m exceeds both.
      Shock points lie in the clip box, hence in the grid, so each of these
      elements shares a ball with both generators: crossing_rows holds it.
    - A valid candidate outside the grid has an empty disc that touches a
      generator at a point x inside the grid.  The segment from x to the
      candidate crosses the grid's rim at some b, and the disc about b
      through x lies in the first disc, so the generator is within
      D1(c) + d of b for the rim cell c of b.  Both generators are in the
      exterior row, so the pair is in M, and the candidate is tested against
      every element.
    """

    # samples per cell side on every segment (see _build_table)
    SAMPLES_PER_SIDE = 4
    # entries per transient array, which bounds the memory of every streamed
    # pass (see _blocks): the table build's gathers and marks; the candidate
    # pass's slices of this many element pairs, at about 240 bytes a pair
    # (about 30 MB) however many pairs the scene has; and its validation
    # gathers of 1/32 as many (candidate, element) pairs, at about 140 bytes
    # a pair (under 1 MB), as a few thousand element pairs already gather
    # hundreds of thousands
    TABLE_BUDGET = 1 << 17

    def __init__(self, elements: list[BoundaryElement], box: Rect):
        self.n = len(elements)
        # one (kind, ax, ay, dx, dy, L) row of Python floats per element id,
        # for the scalar queries (cheaper than numpy scalar indexing): a
        # point is (0, x, y, 0, 0, 0), a segment (1, its start, its unit
        # direction, its length)
        self._rows = [None] * self.n
        for e in elements:
            if e.kind == POINT:
                x, y = map(float, e.geometry)
                self._rows[e.id] = (0, x, y, 0.0, 0.0, 0.0)
            else:
                (ax, ay), (bx, by) = np.asarray(e.geometry, float).tolist()
                L = math.hypot(bx - ax, by - ay)
                self._rows[e.id] = (1, ax, ay, (bx - ax) / L, (by - ay) / L, L)
        # the same rows as one (5, n) array and a kind vector, so a set of
        # elements gathers in one call
        self._kind = np.array([r[0] for r in self._rows], dtype=np.int8)
        self._cols = np.array([r[1:] for r in self._rows]).T.copy()
        self._build_table(box)

    def _samples(self, step):
        """Sample points (m, 2) and their element ids (m,): every point
        element, and every segment at spacing at most step, ends included."""
        pid = np.nonzero(self._kind == 0)[0]
        sid = np.nonzero(self._kind == 1)[0]
        ax, ay, dx, dy, L = self._cols[:, sid]
        m = np.maximum(2, np.ceil(L / step).astype(int) + 1)
        last = np.cumsum(m) - 1
        # t = L k / (m - 1) for k = 0 .. m - 1, with the end exactly L
        k = _ranges(np.zeros_like(m), m)
        t = k * np.repeat(L / (m - 1), m)
        t[last] = L
        seg = np.repeat(np.arange(len(sid)), m)
        xy = np.column_stack([ax[seg] + t * dx[seg], ay[seg] + t * dy[seg]])
        return (np.vstack([self._cols[:2, pid].T, xy]),
                np.concatenate([pid, sid[seg]]))

    def _build_table(self, box):
        """The sample array, the grid, its bounds and balls, and M (see the
        class docstring).  Cells are numbered ix * ny + iy; number nx * ny
        is the exterior, whose bound is +inf and whose validation ball is
        every element."""
        # the element ends, as _samples computes them: its extreme samples
        ends = np.hstack([self._cols[:2],
                          self._cols[:2] + self._cols[4] * self._cols[2:4]])
        lo = np.minimum(ends.min(axis=1), (box.xmin, box.ymin))
        hi = np.maximum(ends.max(axis=1), (box.xmax, box.ymax))
        w, h = (hi - lo).tolist()
        # a zero-area box (collinear ends) falls back to its length
        side = max(math.sqrt(w * h / self.n), max(w, h) / self.n)
        if not 0.0 < side < _INF:
            side = 1.0
        # cell counts that no rounding of w / side tips past an integer, so
        # the grid scales with the scene; side grows to cover the box
        nx, ny = int(w / side * (1 - 1e-9)) + 1, int(h / side * (1 - 1e-9)) + 1
        side = max(side, w / nx, h / ny)
        self._step = side / self.SAMPLES_PER_SIDE
        self._cell_lo, self._cell_side = tuple(lo.tolist()), side
        self._cell_shape = (nx, ny)
        # farther than this outside its cell no rounded cell index puts a
        # sample (see _ranked)
        self._slack = 1e-9 * side + 4.0 * float(np.spacing(np.abs(
            np.concatenate([lo, hi])).max()))
        xy, eid = self._samples(self._step)
        cell = self._axis(xy[:, 0], 0) * ny + self._axis(xy[:, 1], 1)
        order = np.argsort(cell, kind="stable")
        self._sx, self._sy = xy[order, 0], xy[order, 1]
        self._sample_eid = eid[order]
        self._start = np.searchsorted(cell[order], np.arange(nx * ny + 1))
        ix, iy = np.divmod(np.arange(nx * ny), ny)
        centres = np.column_stack([lo[0] + (ix + 0.5) * side,
                                   lo[1] + (iy + 0.5) * side])
        half = side * math.sqrt(0.5)
        d3 = self._reach(centres)
        bound = d3 + half
        limit = bound + 1e-5 * (1.0 + bound)
        rim = (ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1)
        near = self._ranked(centres[rim], 1) + half
        # one pass for the cells' balls and the rim's nearest-element balls
        ptr, ids = self._balls(
            np.vstack([centres, centres[rim]]),
            np.concatenate([limit, near + 1e-5 * (1.0 + near)]) + half)
        outer = np.unique(ids[ptr[nx * ny]:])
        ptr, ids = ptr[:nx * ny + 1], ids[:ptr[nx * ny]]
        self._cell_limit = np.append(limit, _INF)
        self._ball_ptr = np.append(ptr, ptr[-1] + self.n)
        self._ball_ids = np.concatenate([ids, np.arange(self.n)])
        self._share_ptr, self._share_ids = self._share(
            np.append(ptr, ptr[-1] + len(outer)), np.concatenate([ids, outer]))

    def _axis(self, v, axis):
        """The grid column (axis 0) or row (axis 1) of the coordinates v,
        clamped into the grid."""
        count = self._cell_shape[axis]
        return np.clip((v - self._cell_lo[axis]) / self._cell_side,
                       0, count - 1).astype(int)

    def _gather(self, x0, x1, y0, y1):
        """The samples in the rectangles of cells x0..x1 by y0..y1 (bounds
        included, one rectangle per entry), whole rectangles at a time, at
        most TABLE_BUDGET samples or one rectangle.  Yields (lo, hi, rect,
        idx): the sample indices idx of rectangles lo .. hi - 1, grouped by
        rectangle in order, and the rectangle of each."""
        ny = self._cell_shape[1]
        ncol = x1 - x0 + 1
        rect = np.repeat(np.arange(len(x0)), ncol)
        # one run of the sample array per column of each rectangle
        col = _ranges(x0, ncol)
        first = self._start[col * ny + y0[rect]]
        size = self._start[col * ny + y1[rect] + 1] - first
        runs = np.append(0, np.cumsum(ncol))
        for lo, hi in _blocks(np.diff(np.append(0, np.cumsum(size))[runs]),
                              self.TABLE_BUDGET):
            a, b = runs[lo], runs[hi]
            yield lo, hi, np.repeat(rect[a:b], size[a:b]), \
                _ranges(first[a:b], size[a:b])

    def _reach(self, centres):
        """D3 at the cell centres, without the half-diagonal: the distance
        to a sample of the third distinct element (+inf with fewer than
        three elements)."""
        return self._ranked(centres, 3)

    def _ranked(self, centres, k):
        """Per cell centre, the distance to a sample of the k-th distinct
        element nearest it (+inf with fewer than k elements), by a ring
        search.  The block of ring R, the cells within R columns and R rows
        of the centre's cell, holds every sample within (R + 1/2) side of
        the centre, less _slack for the rounding of the cell index.  So a
        distance within that is final; the other centres search the next
        ring, until the block is the grid."""
        (nx, ny), side = self._cell_shape, self._cell_side
        ix, iy = np.divmod(self._cells(centres), ny)
        out = np.full(len(centres), _INF)
        rest, ring = np.arange(len(centres)), 0
        while len(rest):
            d = np.empty(len(rest))
            for lo, hi, rect, idx in self._gather(
                    np.maximum(ix[rest] - ring, 0),
                    np.minimum(ix[rest] + ring, nx - 1),
                    np.maximum(iy[rest] - ring, 0),
                    np.minimum(iy[rest] + ring, ny - 1)):
                dx = self._sx[idx] - centres[rest[rect], 0]
                dy = self._sy[idx] - centres[rest[rect], 1]
                d[lo:hi] = _kth_distance(np.sqrt(dx * dx + dy * dy),
                                         self._sample_eid[idx], rect - lo,
                                         hi - lo, k)
            done = (d <= (ring + 0.5) * side - self._slack) \
                | (ring >= max(nx, ny) - 1)
            out[rest[done]] = d[done]
            rest, ring = rest[~done], ring + 1
        return out

    def _balls(self, centres, radius):
        """CSR (ptr, ids) over centres: the elements within radius of each
        centre (closed distance), ascending; every element where radius is
        +inf.  The samples within radius + step/2 give a superset, which
        exact distances trim."""
        n = self.n
        fin = np.isfinite(radius)
        keys = [(np.nonzero(~fin)[0][:, None] * n + np.arange(n)).ravel()]
        rows = np.nonzero(fin)[0]
        x, y = centres[rows, 0], centres[rows, 1]
        reach = radius[rows] + 0.5 * self._step
        for _, _, rect, idx in self._gather(
                self._axis(x - reach, 0), self._axis(x + reach, 0),
                self._axis(y - reach, 1), self._axis(y + reach, 1)):
            dx, dy = self._sx[idx] - x[rect], self._sy[idx] - y[rect]
            near = dx * dx + dy * dy <= reach[rect] * reach[rect]
            key = np.unique(rows[rect[near]] * n + self._sample_eid[idx[near]])
            c, e = np.divmod(key, n)
            keys.append(key[self._closed_dist(centres[c, 0], centres[c, 1], e)
                            <= radius[c]])
        keys = np.sort(np.concatenate(keys))
        return (np.searchsorted(keys // n, np.arange(len(centres) + 1)),
                keys % n)

    def _share(self, ptr, ids):
        """M in CSR form (ptr, ids ascending per element): the elements that
        share a row of the CSR (ptr, ids) with each element.  A block of
        elements marks the members of each of their rows in a (block, n)
        array, which nonzero reads back in order; a block gathers at most
        TABLE_BUDGET members and marks as many entries, or is one
        element."""
        n, budget = self.n, self.TABLE_BUDGET
        size = np.diff(ptr)
        order = np.argsort(ids, kind="stable")
        # the rows that hold each element, element by element
        rows = np.repeat(np.arange(len(size)), size)[order]
        eptr = np.searchsorted(ids[order], np.arange(n + 1))
        # the members each element's rows gather
        gathered = np.diff(np.append(0, np.cumsum(size[rows]))[eptr])
        share, count = [], []
        for lo, hi in _blocks(gathered, budget, max(1, budget // n)):
            r = rows[eptr[lo]:eptr[hi]]
            owner = np.repeat(np.arange(hi - lo) * n, np.diff(eptr[lo:hi + 1]))
            mark = np.zeros((hi - lo) * n, dtype=bool)
            member = ids[_ranges(ptr[r], size[r])]
            mark[np.repeat(owner, size[r]) + member] = True
            pos = np.flatnonzero(mark)
            share.append(pos % n)
            count.append(np.bincount(pos // n, minlength=hi - lo))
        return (np.append(0, np.cumsum(np.concatenate(count))),
                np.concatenate(share))

    def _cells(self, locs):
        """The cell of each of locs (K, 2): the exterior outside the grid,
        and where a location is not finite."""
        nx, ny = self._cell_shape
        q = np.floor((locs - self._cell_lo) / self._cell_side)
        with np.errstate(invalid="ignore"):
            inside = ((q >= 0) & (q < (nx, ny))).all(axis=1)
        q = np.where(inside[:, None], q, 0).astype(int)
        return np.where(inside, q[:, 0] * ny + q[:, 1], nx * ny)

    def pairs(self):
        """The element pairs (i, j), i < j, that share a ball, as two
        arrays ordered by i, then j."""
        ptr, ids = self._share_ptr, self._share_ids
        i = np.repeat(np.arange(self.n), np.diff(ptr))
        upper = ids > i
        return i[upper], ids[upper]

    def valid_sources(self, locs, times, g1, g2):
        """Boolean mask over candidate sources (locs (K, 2), formation
        times, generator ids g1/g2): True where no element but the
        generators lies at open distance below the time, less 1e-9.  A
        candidate whose time exceeds its cell's bound plus margin is invalid
        untested; the others are tested exactly against their cell's ball
        (see the class docstring).  A gather holds at most TABLE_BUDGET // 32
        (candidate, element) pairs, or one candidate's ball."""
        cell = self._cells(locs)
        live = np.nonzero(~(times > self._cell_limit[cell]))[0]
        start = self._ball_ptr[cell[live]]
        size = self._ball_ptr[cell[live] + 1] - start
        ok = np.zeros(len(times), dtype=bool)
        for lo, hi in _blocks(size, self.TABLE_BUDGET // 32):
            sz = size[lo:hi]
            c = np.repeat(live[lo:hi], sz)
            e = self._ball_ids[_ranges(start[lo:hi], sz)]
            d = self._open_dist(locs[c, 0], locs[c, 1], e)
            d[(e == g1[c]) | (e == g2[c])] = _INF
            ok[live[lo:hi]] = np.minimum.reduceat(d, np.cumsum(sz) - sz) \
                >= times[live[lo:hi]] - 1e-9
        return ok

    def crossing_rows(self, g1: int, g2: int):
        """The elements a branch of generators g1, g2 solves crossings
        against, as (point ids, their (5, k) columns, segment ids, their
        columns), ids ascending: the elements that share a ball with g1 and
        with g2."""
        ptr, share = self._share_ptr, self._share_ids
        a = share[ptr[g1]:ptr[g1 + 1]]
        b = share[ptr[g2]:ptr[g2 + 1]]
        # both rows are sorted: keep the ids of b that a holds too
        ids = b[a[np.searchsorted(a, b).clip(max=len(a) - 1)] == b]
        seg = self._kind[ids] == 1
        pid, sid = ids[~seg], ids[seg]
        return pid, self._cols[:, pid], sid, self._cols[:, sid]

    def open_dist_one(self, eid: int, q) -> float:
        """Exact open distance from q to element eid."""
        kind, ax, ay, dx, dy, L = self._rows[eid]
        rx, ry = q[0] - ax, q[1] - ay
        if not kind:
            return math.hypot(rx, ry)
        t = rx * dx + ry * dy
        if t <= 0.0 or t >= L:
            return _INF
        return abs(rx * dy - ry * dx)

    def _closed_dist_one(self, eid: int, q) -> float:
        """Exact distance from q to element eid, segments clamped to their
        endpoints."""
        kind, ax, ay, dx, dy, L = self._rows[eid]
        rx, ry = q[0] - ax, q[1] - ay
        if kind:
            t = min(max(rx * dx + ry * dy, 0.0), L)
            rx, ry = rx - t * dx, ry - t * dy
        return math.hypot(rx, ry)

    def _ball_elements(self, q, radius, exclude_ids):
        """Distinct element ids outside exclude_ids with a sample within
        radius + step/2 of q: a superset of the elements within radius of
        q.  The cells of the disc's bounding square lie in the one slice
        from the cell of its lower corner to the cell of its upper corner
        (see the class docstring)."""
        reach = radius + 0.5 * self._step + 1e-9
        x, y = float(q[0]), float(q[1])
        (lx, ly), side, (nx, ny) = (self._cell_lo, self._cell_side,
                                    self._cell_shape)
        a = self._start[_index(x - reach, lx, side, nx) * ny
                        + _index(y - reach, ly, side, ny)]
        b = self._start[_index(x + reach, lx, side, nx) * ny
                        + _index(y + reach, ly, side, ny) + 1]
        dx, dy = self._sx[a:b] - x, self._sy[a:b] - y
        near = self._sample_eid[a:b][dx * dx + dy * dy <= reach * reach]
        return set(near.tolist()).difference(exclude_ids)

    def _closed_dist(self, x, y, ids):
        """Closed distances from the points (x, y) to the elements ids,
        elementwise under numpy broadcasting (a point element has L = 0)."""
        ax, ay, dx, dy, L = self._cols[:, ids]
        rx, ry = x - ax, y - ay
        t = np.clip(rx * dx + ry * dy, 0.0, L)
        return np.hypot(rx - t * dx, ry - t * dy)

    def _open_dist(self, x, y, ids):
        """Open distances from the points (x, y) to the elements ids,
        elementwise under numpy broadcasting."""
        ax, ay, dx, dy, L = self._cols[:, ids]
        rx, ry = x - ax, y - ay
        t = rx * dx + ry * dy
        return np.where(self._kind[ids] == 1,
                        np.where((t > 0.0) & (t < L),
                                 np.abs(rx * dy - ry * dx), _INF),
                        np.hypot(rx, ry))

    def open_distances(self, pts, ids):
        """(K, m) matrix of open distances from points pts (K, 2) to the
        elements ids (m,)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._open_dist(pts[:, None, 0], pts[:, None, 1],
                               np.asarray(ids, dtype=int))

    def any_closer(self, q, thresh, exclude_ids) -> bool:
        """True iff some element outside exclude_ids has open distance < thresh."""
        q = (float(q[0]), float(q[1]))
        return any(self.open_dist_one(eid, q) < thresh
                   for eid in self._ball_elements(q, thresh, exclude_ids))

    def min_third_along(self, pts, radii, exclude_ids):
        """(K,) minimum open distance from each of pts (K, 2) over elements
        outside exclude_ids, exact wherever it is below that point's radius
        in radii; elsewhere it may be larger (+inf when no element is near).
        """
        mid = 0.5 * (pts[0] + pts[-1])
        reach = float(np.hypot(pts[:, 0] - mid[0], pts[:, 1] - mid[1]).max()) \
            + float(radii.max())
        near = self._ball_elements(mid, reach, exclude_ids)
        if not near:
            return np.full(len(pts), _INF)
        return self.open_distances(pts, sorted(near)).min(axis=1)

    def closed_near(self, q, radius, exclude_ids):
        """Element ids whose CLOSED distance (segments clamped to their
        endpoints) from q is <= radius."""
        q = (float(q[0]), float(q[1]))
        return sorted(e for e in self._ball_elements(q, radius, exclude_ids)
                      if self._closed_dist_one(e, q) <= radius)

    def near_elements(self, q, radius, exclude_ids):
        """Element ids whose open distance from q is <= radius."""
        q = (float(q[0]), float(q[1]))
        return sorted(e for e in self._ball_elements(q, radius, exclude_ids)
                      if self.open_dist_one(e, q) <= radius)


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------

# A source is a tuple (time, rank, gen_lo, gen_hi, k).  A fresh candidate has
# rank _FRESH and k its bisector branch; a re-timed bisector piece has as
# rank its push sequence number and k its index in the pair's bisector list.
# Tuple order pops sources by time, then re-timed pieces in push order before
# fresh candidates, and fresh candidates by (gen_lo, gen_hi, branch).
_FRESH = _INF


def _candidate_part(t, x, y, a, b, br):
    """One family's candidates as flat arrays (time, x, y, gen_lo, gen_hi,
    branch); branch -1 marks candidates whose bisector branch is resolved
    when they are visited."""
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    return (np.asarray(t, dtype=float).ravel(),
            np.asarray(x, dtype=float).ravel(),
            np.asarray(y, dtype=float).ravel(),
            lo.astype(int), hi.astype(int),
            np.broadcast_to(np.asarray(br, dtype=int), lo.shape).ravel())


def _point_point_candidates(P, ids, iu, ju):
    """Perpendicular-bisector midpoints of point pairs (iu, ju)."""
    mids = 0.5 * (P[iu] + P[ju])
    return _candidate_part(0.5 * np.hypot(*(P[iu] - P[ju]).T), mids[:, 0],
                           mids[:, 1], ids[iu], ids[ju], -1)


def _point_segment_candidates(P, pids, A, Du, L, sids, pr, sc, adj):
    """Endpoint perpendiculars (time 0) and parabola minima of the point,
    segment pairs (pr, sc); adj marks the pairs whose point ends its
    segment."""
    rel = P[pr] - A[sc]
    tq = rel[:, 0] * Du[sc, 0] + rel[:, 1] * Du[sc, 1]
    h = np.abs(rel[:, 0] * Du[sc, 1] - rel[:, 1] * Du[sc, 0])
    if adj.any():
        yield _candidate_part(np.zeros(adj.sum()), P[pr[adj], 0],
                              P[pr[adj], 1], pids[pr[adj]], sids[sc[adj]], 0)
    free = (~adj) & (h > 1e-9)  # collinear pairs are mediated by endpoints
    if free.any():
        pr, sc, tq, hh = pr[free], sc[free], tq[free], h[free]
        xi_lo, xi_hi = -tq, L[sc] - tq
        xi = np.where((xi_lo < 0.0) & (xi_hi > 0.0), 0.0,
                      np.where(xi_lo >= 0.0, xi_lo, xi_hi))
        rr = (xi * xi + hh * hh) / (2.0 * hh)
        foot0 = A[sc] + tq[:, None] * Du[sc]
        nvec = (P[pr] - foot0) / hh[:, None]
        loc = foot0 + xi[:, None] * Du[sc] + rr[:, None] * nvec
        yield _candidate_part(rr, loc[:, 0], loc[:, 1], pids[pr], sids[sc], 0)


def _segment_segment_candidates(segs, A, Du, L, sids, iu, ju):
    """Both angle-bisector branches of segment pairs (iu, ju),
    feet-windowed."""
    a1, d1, l1 = A[iu], Du[iu], L[iu]
    a2, d2, l2 = A[ju], Du[ju], L[ju]
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    par = np.abs(denom) < 1e-7
    # parallel pairs are few; their midline candidates go through the
    # object constructor (ids ascend, so the records keep their order)
    for i, j in zip(iu[par], ju[par]):
        for rec in make_bisectors(segs[i], segs[j]):
            s_star = rec.argmin_radius()
            loc = rec.point(s_star)
            yield _candidate_part(float(rec.radius(s_star)), loc[0], loc[1],
                                  np.array([rec.pair[0]]),
                                  np.array([rec.pair[1]]), rec.branch)
    np_mask = ~par
    if not np_mask.any():
        return
    a1, d1, l1 = a1[np_mask], d1[np_mask], l1[np_mask]
    a2, d2, l2 = a2[np_mask], d2[np_mask], l2[np_mask]
    den = denom[np_mask]
    i1, i2 = sids[iu[np_mask]], sids[ju[np_mask]]
    r12 = a2 - a1
    tt = (r12[:, 0] * d2[:, 1] - r12[:, 1] * d2[:, 0]) / den
    O = a1 + tt[:, None] * d1
    flip = (d1[:, 0] * d2[:, 0] + d1[:, 1] * d2[:, 1]) < 0
    d2c = np.where(flip[:, None], -d2, d2)
    for br, w_raw in ((0, d1 + d2c), (1, d1 - d2c)):
        nw = np.hypot(w_raw[:, 0], w_raw[:, 1])
        okw = nw > EPS_GEOM
        w = np.where(okw[:, None], w_raw / np.where(okw, nw, 1.0)[:, None], 0.0)
        neg = (w[:, 0] < 0) | ((w[:, 0] == 0) & (w[:, 1] < 0))
        w = np.where(neg[:, None], -w, w)
        slope = np.abs(w[:, 0] * d1[:, 1] - w[:, 1] * d1[:, 0])
        okw &= slope > 1e-12
        dom_lo = np.full(len(w), -_INF)
        dom_hi = np.full(len(w), _INF)
        for (ai, di, li) in ((a1, d1, l1), (a2, d2, l2)):
            t0 = (O[:, 0] - ai[:, 0]) * di[:, 0] + (O[:, 1] - ai[:, 1]) * di[:, 1]
            gg = w[:, 0] * di[:, 0] + w[:, 1] * di[:, 1]
            tiny = np.abs(gg) < 1e-14
            ggs = np.where(tiny, 1.0, gg)
            b1 = (0.0 - t0) / ggs
            b2 = (li - t0) / ggs
            blo = np.minimum(b1, b2)
            bhi = np.maximum(b1, b2)
            inside = (t0 > 0.0) & (t0 < li)
            blo = np.where(tiny, np.where(inside, -_INF, _INF), blo)
            bhi = np.where(tiny, np.where(inside, _INF, -_INF), bhi)
            dom_lo = np.maximum(dom_lo, blo)
            dom_hi = np.minimum(dom_hi, bhi)
        okw &= dom_hi - dom_lo > EPS_GEOM
        if not okw.any():
            continue
        s_star = np.clip(0.0, dom_lo[okw], dom_hi[okw])
        loc = O[okw] + s_star[:, None] * w[okw]
        yield _candidate_part(slope[okw] * np.abs(s_star), loc[:, 0],
                              loc[:, 1], i1[okw], i2[okw], br)


def _candidate_slices(elements: list[BoundaryElement], pairs):
    """Candidates of the element pairs (i, j) of ElementSet.pairs, a slice
    at a time: a slice holds whole runs of one i, at most
    ElementSet.TABLE_BUDGET pairs or one run.  Each slice is yielded as the
    concatenated arrays of _candidate_part."""
    points = [e for e in elements if e.kind == POINT]
    segs = [e for e in elements if e.kind == SEGMENT]
    P = np.array([p.geometry for p in points], dtype=float).reshape(-1, 2)
    pids = np.array([p.id for p in points], dtype=int)
    A = np.array([s.geometry[0] for s in segs], dtype=float).reshape(-1, 2)
    B = np.array([s.geometry[1] for s in segs], dtype=float).reshape(-1, 2)
    sids = np.array([s.id for s in segs], dtype=int)
    # these arrays are not ElementSet's columns: np.hypot here and
    # math.hypot there round some lengths differently in the last bit (3 of
    # the 216 segments of the 100-fragment 160x160 scene), so sharing them
    # would move candidate times and could change the output
    D = B - A
    L = np.hypot(D[:, 0], D[:, 1])
    Du = D / L[:, None]
    # each element's row in P or in the segment arrays, and the point
    # elements at each segment's ends (-1 where there is none)
    row = np.empty(len(elements), dtype=int)
    row[pids], row[sids] = np.arange(len(pids)), np.arange(len(sids))
    is_seg = np.zeros(len(elements), dtype=bool)
    is_seg[sids] = True
    ends = np.full((len(segs), 2), -1)
    for c, s in enumerate(segs):
        own = sorted(e for e in s.adjacency if not is_seg[e])
        ends[c, :len(own)] = own
    i, j = pairs
    # the pairs of element e are run[e] .. run[e + 1] - 1
    run = np.searchsorted(i, np.arange(len(elements) + 1))
    for lo, hi in _blocks(np.diff(run), ElementSet.TABLE_BUDGET):
        a, b = i[run[lo]:run[hi]], j[run[lo]:run[hi]]
        sa, sb = is_seg[a], is_seg[b]
        pp, ss, mixed = ~(sa | sb), sa & sb, sa != sb
        pt, sg = np.where(sa, b, a)[mixed], row[np.where(sa, a, b)[mixed]]
        parts = [_point_point_candidates(P, pids, row[a[pp]], row[b[pp]])]
        parts += _point_segment_candidates(
            P, pids, A, Du, L, sids, row[pt], sg,
            (ends[sg, 0] == pt) | (ends[sg, 1] == pt))
        parts += _segment_segment_candidates(segs, A, Du, L, sids,
                                             row[a[ss]], row[b[ss]])
        yield tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# Raw graph produced by the engine
# ---------------------------------------------------------------------------

@dataclass
class RawNode:
    id: int
    location: tuple
    radius: float
    gen_ids: set
    discovered: set = field(default_factory=set)  # gens already searched for outflows


@dataclass
class RawLink:
    """One traversed bisector portion between two raw nodes, in the
    bisector's parameter t."""
    id: int
    bisector: Bisector
    t_from: float    # traversal start (early time)
    t_to: float      # traversal end (late time)
    node_from: int
    node_to: int


@dataclass
class RawGraph:
    nodes: list
    links: list
    stats: dict


@dataclass
class ActiveShock:
    bisector: Bisector
    start_param: float  # natural parameter t of the bisector
    direction: float
    parent_node: int


_SWEEP_FRAC = np.linspace(0.0, 1.0, 34)[1:-1]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class Engine:
    def __init__(self, elements: list[BoundaryElement], box: Rect,
                 event_budget: int | None = None):
        if not elements:
            raise InvalidInputError("no boundary elements")
        check_no_crossings(elements)
        self.elements = elements
        self.eset = ElementSet(elements, box)
        self.box = box
        n = len(elements)
        if event_budget is None:
            event_budget = max(10 * n * n, 10000)
        elif event_budget < 1:
            raise InvalidInputError(
                f"event budget {event_budget} is below 1")
        self.event_budget = event_budget
        self.events = 0
        self.nodes: list[RawNode] = []
        self.links: list[RawLink] = []
        # _node_at keeps node ids by grid cell of side _merge_tol
        self._merge_tol = EPS_REL * max(box.xmax - box.xmin,
                                        box.ymax - box.ymin, 1.0)
        self._node_cells: dict[tuple, list] = {}
        self._bisector_cache: dict[tuple, list] = {}
        self._root_cache: dict[tuple, tuple] = {}
        self._claimed: dict[tuple, list] = {}
        self._spawned: set = set()
        self._active: list = []
        self._sources: list = []
        self._seq = itertools.count()
        self.stats = {"elements": n, "candidates": 0, "discarded": 0,
                      "realized": 0, "events": 0, "sweep_truncations": 0,
                      "crossing_rows": 0}

    # -- nodes -------------------------------------------------------------
    def _node_at(self, loc, radius, gen_ids: set) -> int:
        """The node at loc: an existing node within EPS_MERGE of loc, or
        within _merge_tol when one generator set contains the other (it
        takes on gen_ids), else a new node.  Every node is made here, so
        each junction is realized once: one junction reached as a crossing
        root on one shock and as another's domain end scatters up to
        _merge_tol (near a foot-window edge the crossing deficit vanishes to
        second order), while distinct junctions that close have generator
        sets that are not nested."""
        tol = self._merge_tol
        cx, cy = math.floor(loc[0] / tol), math.floor(loc[1] / tol)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for nid in self._node_cells.get((cx + dx, cy + dy), ()):
                    node = self.nodes[nid]
                    d = math.hypot(node.location[0] - loc[0],
                                   node.location[1] - loc[1])
                    if d <= EPS_MERGE or (d <= tol and (
                            node.gen_ids <= gen_ids or gen_ids <= node.gen_ids)):
                        node.gen_ids.update(gen_ids)
                        return nid
        nid = len(self.nodes)
        self.nodes.append(RawNode(nid, (float(loc[0]), float(loc[1])),
                                  float(radius), set(gen_ids)))
        self._node_cells.setdefault((cx, cy), []).append(nid)
        return nid

    # -- claimed intervals -------------------------------------------------
    def _claim(self, key, lo, hi):
        self._claimed.setdefault(key, []).append((min(lo, hi), max(lo, hi)))

    def _claimed_at(self, key, s, tol=1e-9):
        for lo, hi in self._claimed.get(key, ()):
            if lo - tol <= s <= hi + tol:
                return True
        return False

    def _next_claim_boundary(self, key, s, direction):
        """Start of the nearest claimed interval strictly ahead of s."""
        best = math.inf * direction
        found = None
        for lo, hi in self._claimed.get(key, ()):
            edge = lo if direction > 0 else hi
            if (edge - s) * direction > 1e-9:
                if found is None or (edge - best) * direction < 0:
                    best = edge
                    found = edge
        return found

    def _bisectors(self, lo: int, hi: int) -> list:
        """Cached make_bisectors for an element pair (records are shared:
        claims are keyed globally by branch, so reuse across nodes is safe)."""
        recs = self._bisector_cache.get((lo, hi))
        if recs is None:
            recs = make_bisectors(self.elements[lo], self.elements[hi], self.box)
            self._bisector_cache[(lo, hi)] = recs
        return recs

    # -- shock spawning ----------------------------------------------------
    def _spawn(self, rec: Bisector, s0, direction, node_id, t0):
        key = (node_id, rec.branch_key, direction, round(s0, 9))
        if key in self._spawned:
            return
        self._spawned.add(key)
        s_end_dom = rec.t_hi if direction > 0 else rec.t_lo
        if (s_end_dom - s0) * direction <= 1e-9:
            return
        # strict test: a spawn exactly at the edge of a claimed interval,
        # pointing out of it, is a legitimate continuation
        if self._claimed_at(rec.branch_key, s0 + direction * 1e-9, tol=0.0):
            return
        heapq.heappush(self._active,
                       (t0, next(self._seq),
                        ActiveShock(rec, s0, direction, node_id)))

    def _discover_outflows(self, node_id, gens, fresh, loc, radius):
        """Spawn outflows of node node_id from loc, where the front has the
        given radius, along every bisector through loc of a pair of gens
        with a generator in fresh."""
        scale = 1.0 + radius
        pairs = [(a, b) for a, b in itertools.combinations(sorted(gens), 2)
                 if a in fresh or b in fresh]
        for a, b in pairs:
            for rec in self._bisectors(a, b):
                s_n = min(max(rec.param_near(loc), rec.t_lo), rec.t_hi)
                p = rec.point(s_n)
                if math.hypot(p[0] - loc[0], p[1] - loc[1]) > 1e-6 * scale:
                    continue
                for direction in (1.0, -1.0):
                    probe = s_n + direction * 1e-7 * scale
                    if not (rec.t_lo - 1e-12 <= probe <= rec.t_hi + 1e-12):
                        continue
                    if rec.radius(probe) < radius - 1e-9 * scale:
                        continue  # time must not decrease along an outflow
                    if float(rec.dradius(probe)) * direction < -1e-12:
                        # near-flat channels: the finite-radius check above
                        # cannot see a shallow downhill slope at probe
                        # distance, but the analytic slope can; downhill
                        # territory belongs to the source at the local
                        # radius minimum, not to this junction
                        continue
                    self._spawn(rec, s_n, direction, node_id, radius)

    # -- analytic crossings --------------------------------------------------
    def _crossings(self, rec: Bisector):
        """Crossings of rec that propagation can read, sorted by parameter,
        as (params, ids) arrays.  The root set depends only on the branch's
        geometry, so it is solved once per branch and cached for
        re-propagation.  propagate reads only roots inside the domain of the
        piece it traces, so the cache keeps the finite roots inside the hull
        of the domains of all pieces of the branch (box-clipped pieces of one
        parabola share the entry).

        Only the rows of ElementSet.crossing_rows are solved.  They hold
        every element whose roots propagate reads first, and dropping the
        other elements only removes later roots, so each link ends where a
        solve against every element ends it."""
        key = rec.branch_key
        cached = self._root_cache.get(key)
        if cached is None:
            pieces = [b for b in self._bisectors(*rec.pair)
                      if b.branch_key == key]
            lo = min(b.t_lo for b in pieces)
            hi = max(b.t_hi for b in pieces)
            rows = self.eset.crossing_rows(*rec.pair)
            self.stats["crossing_rows"] += len(rows[0]) + len(rows[2])
            params, ids = rec.crossing_params(rows)
            keep = (params >= lo) & (params <= hi)  # absent (NaN) roots fail
            params, ids = params[keep], ids[keep].astype(np.int32)
            order = np.argsort(params, kind="stable")
            cached = (params[order], ids[order])
            self._root_cache[key] = cached
        return cached

    def propagate(self, shock: ActiveShock):
        """Advance one active shock to its termination, recording its link
        and starting the outflows of a junction end, or drop a dead
        shock."""
        rec = shock.bisector
        s0 = shock.start_param
        direction = shock.direction
        r0 = float(rec.radius(s0))
        scale = 1.0 + r0
        gens = rec.pair
        s_dom = rec.t_hi if direction > 0 else rec.t_lo

        delta = 3e-7 * scale
        s_probe = s0 + direction * delta
        if (s_dom - s_probe) * direction <= 0:
            return
        # a wave already ahead of the front at the probe kills this direction
        qp = rec.point(s_probe)
        rp = float(rec.radius(s_probe))
        if self.eset.any_closer(qp, rp - 1e-9 * scale, gens):
            return

        # claimed-interval cap
        s_lim = s_dom
        at_claim = False
        claim_edge = self._next_claim_boundary(rec.branch_key, s0, direction)
        if claim_edge is not None and (s_lim - claim_edge) * direction > 0:
            s_lim, at_claim = claim_edge, True

        span_full = abs(s_lim - s0)
        q0 = rec.point(s0)
        touch = self.eset.closed_near(q0, r0 + 2e-6 * scale, gens)
        # Crossings with the parent junction's own generators right at the
        # start are numerical scatter of that junction's root (the deficit
        # vanishes to second order there), not new events; honoring them
        # leaves micro-links whose claims block the real continuation.
        parent_gens = self.nodes[shock.parent_node].gen_ids
        if len(parent_gens) <= 2:
            parent_gens = ()
        near_tol = 1e-5 * scale

        # analytic third-wave crossings strictly between the probe and the
        # cap that count as events, in travel order
        params, ids = self._crossings(rec)
        if direction > 0:
            ahead = range(params.searchsorted(s_probe, "right"),
                          params.searchsorted(s_lim, "left"))
        else:
            ahead = range(params.searchsorted(s_probe, "left") - 1,
                          params.searchsorted(s_lim, "right") - 1, -1)

        def counts(k):
            eid = ids[k]
            return (eid != gens[0] and eid != gens[1]
                    and not (eid in parent_gens
                             and abs(params[k] - s0) <= near_tol))

        s_first = next((params[k] for k in ahead if counts(k)), None)
        # contact transition at the start: an element already touching the
        # front here (closed distance covers foot-window entries, whose open
        # distance is still infinite) may overtake this direction, which the
        # near probe is too close to resolve; test the touching set farther
        # out.  An overtake whose analytic crossing lies ahead inside the
        # tested span is legitimate -- the link simply ends there; only an
        # overtake with no resolvable crossing kills the direction.
        if touch:
            s_far = s0 + direction * min(1e-3 * scale, 0.45 * span_full)
            q_far = rec.point(s_far)
            r_far = float(rec.radius(s_far))
            hit = None
            for eid in touch:
                if self.eset.open_dist_one(int(eid), q_far) - r_far \
                        < -1e-11 * scale:
                    if hit is None:
                        hit = set()
                        for k in ahead:
                            if (s_far - params[k]) * direction < 0:
                                break
                            if counts(k):
                                hit.add(int(ids[k]))
                    if eid not in hit:
                        return
        crossed = s_first is not None and (s_lim - s_first) * direction > 0
        s_end = s_first if crossed else s_lim
        if abs(s_end - s0) <= 1e-6 * scale:
            return

        if at_claim and not crossed:
            crossing = []
        else:
            crossing = self.eset.near_elements(
                rec.point(s_end), float(rec.radius(s_end)) + 1e-6 * scale, gens)
        # a crossing and a claimed edge end at a junction; at the domain end
        # the feet ran out, and the generator endpoint's wave takes over
        # there when it touches the end
        junction = crossed or at_claim or bool(crossing)

        # validity sweep: exact deficit at interior samples; a violation means
        # a crossing was missed, so truncate there by bisection
        ts = s0 + _SWEEP_FRAC * (s_end - s0)
        pts = rec.point(ts)
        rs = np.asarray(rec.radius(ts), dtype=float)
        md = self.eset.min_third_along(pts, rs, gens) - rs
        if md.min() < -1e-9 * scale:
            self.stats["sweep_truncations"] += 1
            bad = int(np.argmax(md < -1e-9 * scale))
            lo = s0 if bad == 0 else float(ts[bad - 1])
            hi = float(ts[bad])
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                rm = np.array([float(rec.radius(mid))])
                # only the sign is read, and min_third_along is exact below rm
                dv = self.eset.min_third_along(rec.point(mid)[None], rm,
                                               gens)[0] - rm[0]
                if dv >= 0.0:
                    lo = mid
                else:
                    hi = mid
            s_end, junction = lo, True
            if abs(s_end - s0) <= 1e-6 * scale:
                return
            crossing = self.eset.near_elements(
                rec.point(s_end), float(rec.radius(s_end)) + 1e-6 * scale, gens)

        end_loc = rec.point(s_end)
        end_r = float(rec.radius(s_end))
        end_gens = set(gens) | set(crossing)
        node_to = self._node_at(end_loc, end_r, end_gens)
        self._claim(rec.branch_key, s0, s_end)
        if node_to == shock.parent_node:
            # slack: the end is the start junction again (see _node_at); no
            # link, but the end's pairs are searched from where they meet
            if junction:
                self._discover_outflows(node_to, end_gens, end_gens, end_loc,
                                        end_r)
            return
        lid = len(self.links)
        self.links.append(RawLink(lid, rec, float(s0), float(s_end),
                                  shock.parent_node, node_to))
        if junction:
            node = self.nodes[node_to]
            fresh = node.gen_ids - node.discovered
            node.discovered.update(node.gen_ids)
            self._discover_outflows(node_to, node.gen_ids, fresh,
                                    node.location, node.radius)

    def _valid_candidates(self) -> list[tuple]:
        """Form the candidates of the element pairs that share a ball and
        keep the valid ones (ElementSet.valid_sources), a slice of about
        TABLE_BUDGET pairs at a time, so the pass never holds all pairs.
        Returns them as fresh sources (see _FRESH), sorted."""
        out = []
        for t, x, y, g1, g2, br in _candidate_slices(self.elements,
                                                     self.eset.pairs()):
            self.stats["candidates"] += len(t)
            ok = self.eset.valid_sources(np.column_stack([x, y]), t, g1, g2)
            out += zip(t[ok].tolist(), itertools.repeat(_FRESH),
                       g1[ok].tolist(), g2[ok].tolist(), br[ok].tolist())
        self.stats["discarded"] = self.stats["candidates"] - len(out)
        out.sort()
        return out

    # -- main loop ---------------------------------------------------------
    def run(self) -> RawGraph:
        """Propagate until no event is left.  Each event advances the
        earliest active shock or, when none is active, visits the first
        source (see _FRESH for the order).  The valid candidates are sorted,
        so they already form the source heap."""
        self._sources = self._valid_candidates()
        while True:
            self.events += 1
            if self.events > self.event_budget:
                raise NonterminationError(
                    "event budget exceeded",
                    diagnostics={"events": self.events,
                                 "nodes": len(self.nodes),
                                 "links": len(self.links),
                                 "pending_candidates": len(self._sources)})
            if self._active:
                _, _, shock = heapq.heappop(self._active)
                self.propagate(shock)
            elif self._sources:
                self._visit_candidate(heapq.heappop(self._sources))
            else:
                break

        self.stats["events"] = self.events
        self.stats["nodes"] = len(self.nodes)
        self.stats["links"] = len(self.links)
        return RawGraph(self.nodes, self.links, dict(self.stats))

    def _visit_candidate(self, source):
        """Realize a source: a fresh candidate tries every bisector piece of
        its pair, a re-timed piece only itself.  A piece whose radius
        minimum comes later than the source's time goes back on the source
        heap at that time."""
        time, rank, lo, hi, k = source
        recs = self._bisectors(lo, hi)
        for idx in range(len(recs)) if rank == _FRESH else (k,):
            rec = recs[idx]
            s_star = rec.argmin_radius()
            t_star = float(rec.radius(s_star))
            if t_star > time + 1e-9:
                heapq.heappush(self._sources,
                               (t_star, next(self._seq), lo, hi, idx))
                continue
            if self._claimed_at(rec.branch_key, s_star):
                continue
            loc = rec.point(s_star)
            if self.eset.any_closer(loc, t_star - 1e-9, rec.pair):
                continue  # clip moved the minimum onto blocked ground
            node_id = self._node_at(loc, t_star, set(rec.pair))
            self.stats["realized"] += 1
            for direction in (1.0, -1.0):
                self._spawn(rec, s_star, direction, node_id, t_star)


def run(elements: list[BoundaryElement], box: Rect,
        event_budget: int | None = None) -> RawGraph:
    """Run the full propagation and return the raw node/link structure."""
    return Engine(elements, box, event_budget=event_budget).run()
