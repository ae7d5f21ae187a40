"""Small planar geometry helpers shared by every layer.

Points are plain (x, y) float tuples or length-2 numpy arrays; all distances
are in pixels.
"""
from __future__ import annotations

import math

import numpy as np

# Coincidence tolerance for input geometry (pixels).
EPS_GEOM = 1e-9
# Node merge tolerance in the propagation engine (pixels), whatever the
# generator sets.
EPS_MERGE = 1e-6
# Share of the scene size: the scatter of one junction across the shocks
# that reach it (Engine._node_at, ShockGraph.validate).
EPS_REL = 1e-6
# Supporting lines closer than this angle (radians) are treated as parallel.
PARALLEL_EPS = 1e-7
# Largest coordinate magnitude of the bounding box (pixels).  Link areas
# take cubes of bisector parameters, and a parameter inside a box of this
# size is at most its diagonal, 2 sqrt(2) COORD_LIMIT; the cube of that,
# about 2.3e301, stays below the largest double (1.8e308).
COORD_LIMIT = 1e100


def perp(v):
    """Rotate v by +90 degrees."""
    return np.array([-v[1], v[0]])


def cross(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def segments_interiors_intersect(a1, b1, a2, b2, eps: float = EPS_GEOM) -> bool:
    """True when the open interiors of segments a1b1 and a2b2 share a point:
    they cross, or they lie on one line and overlap by more than eps.
    Segments that only share an endpoint do not."""
    d1 = (b1[0] - a1[0], b1[1] - a1[1])
    d2 = (b2[0] - a2[0], b2[1] - a2[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    rx, ry = a2[0] - a1[0], a2[1] - a1[1]
    if abs(denom) < eps:
        # parallel: an overlap needs a2 and b2 on a1b1's line
        L1 = math.hypot(d1[0], d1[1])
        sx, sy = b2[0] - a1[0], b2[1] - a1[1]
        if (L1 <= eps or abs(d1[0] * ry - d1[1] * rx) > eps * L1
                or abs(d1[0] * sy - d1[1] * sx) > eps * L1):
            return False
        ta = (rx * d1[0] + ry * d1[1]) / L1
        tb = (sx * d1[0] + sy * d1[1]) / L1
        return min(max(ta, tb), L1) - max(min(ta, tb), 0.0) > eps
    t = (rx * d2[1] - ry * d2[0]) / denom
    u = (rx * d1[1] - ry * d1[0]) / denom
    return eps < t < 1.0 - eps and eps < u < 1.0 - eps


class Rect:
    """Axis-aligned rectangle used for clipping shock propagation."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin, ymin, xmax, ymax):
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("empty rectangle")
        self.xmin, self.ymin = float(xmin), float(ymin)
        self.xmax, self.ymax = float(xmax), float(ymax)

    def contains(self, q, slack: float = 0.0) -> bool:
        return (self.xmin - slack <= q[0] <= self.xmax + slack
                and self.ymin - slack <= q[1] <= self.ymax + slack)

    def corners(self):
        return [(self.xmin, self.ymin), (self.xmax, self.ymin),
                (self.xmax, self.ymax), (self.xmin, self.ymax)]

    def __repr__(self):
        return f"Rect({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
