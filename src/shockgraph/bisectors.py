"""Analytic bisectors of point/segment source pairs, with every per-kind
closed form behind the Bisector interface.  The class is the kind:
PointPointBisector (two points), LinearRadiusLine (two crossing segments,
and a segment with its own endpoint), MidlineBisector (two parallel
segments) and ParabolaBisector (a point and a segment).

Every bisector is evaluated in one parameter t, its natural parameter, in
which point and radius are closed form: t is arc length for the straight
kinds and the directrix coordinate xi for parabolas, whose arc length s(xi)
has no closed-form inverse. The domain is [t_lo, t_hi]. The radius function
r(t) is the common distance to the two generators, dradius(t) its derivative
per unit arc length, and contacts(t) returns the tangency points on each
generator, ordered (left-of-+t, right-of-+t): each side is stored as its
generator's data (a point, or a segment's start and unit direction), and a
segment side touches at the foot of point(t). Arc length is an output only:
s_of_t converts to it, and t_of_s back where samples must be uniform in arc
length.

The propagation engine asks each bisector two more things in closed form:
crossing_params, the parameters where a third element's wavefront arrives
with the bisector's own (the squared deficit dist(p, e)^2 - r^2 is a
quadratic in t for every kind), and param_near, the parameter of the point
nearest a location.

The graph evaluates the bisectors of all its links at once, through each
kind's array forms (see Bisector.columns): points, tangents, radii, their
arc-length derivatives, curvatures, contacts, the area swept on one side,
and t_of_s.  They write the scalar formulas elementwise, so they give the
same bits.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from .contours import POINT, SEGMENT, BoundaryElement
from .errors import DegenerateInputError, InvalidInputError
from .geometry import EPS_GEOM, PARALLEL_EPS, Rect, cross, dot, perp

_UNBOUNDED = 1e18


def _lex_positive(v):
    """Flip v so its first nonzero coordinate is positive (determinism)."""
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return -v
    return v


def _quad_roots(A, B, C):
    """Real roots of A t^2 + B t + C = 0, vectorized; NaN where absent.

    Returns an (m, 2) array. Linear rows (A ~ 0) put their root in column 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = B * B - 4.0 * A * C
        rt = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        # numerically stable split: bq carries the large root's numerator
        bq = -0.5 * (B + np.copysign(rt, B))
        lin = np.abs(A) < 1e-14
        r1 = np.where(lin, -C / B, bq / A)
        r2 = np.where(lin, np.nan, C / bq)
        # non-finite roots (0/0, x/0) are "absent"; callers filter on isfinite
        out = np.empty(r1.shape + (2,))
        out[..., 0] = np.where(np.isfinite(r1), r1, np.nan)
        out[..., 1] = np.where(np.isfinite(r2), r2, np.nan)
    return out


class Bisector:
    """Base class; subclasses provide the analytic parametrization."""

    gen_plus: int   # element id whose contact lies left of the +t tangent
    gen_minus: int  # element id whose contact lies right of the +t tangent
    branch: int = 0
    t_lo: float = -_UNBOUNDED
    t_hi: float = _UNBOUNDED
    # per side (plus, minus), its generator: (segment start, unit direction)
    # arrays, or (point, None) with the point an (x, y) tuple of floats
    sides: tuple

    def point(self, t):
        raise NotImplementedError

    def radius(self, t):
        raise NotImplementedError

    def dradius(self, t):
        """dr/ds (per unit arc length) at parameter t."""
        raise NotImplementedError

    def contacts(self, t):
        """(bp_plus, bp_minus) tangency points at parameter t: two (x, y)
        tuples for a float t, two (..., 2) arrays for an array."""
        t = float(t) if isinstance(t, float) else np.asarray(t, dtype=float)
        plus, minus = self.sides
        return self._contact(t, *plus), self._contact(t, *minus)

    def _contact(self, t, p, d):
        """One side's contact: a point side touches at the point itself, a
        segment side at its foot."""
        if d is not None:
            return self._foot(t, p, d)
        if isinstance(t, float):
            return p
        return np.broadcast_to(p, t.shape + (2,))

    def _foot(self, t, a, d):
        """Projection of point(t) onto the line a + u d."""
        q = self.point(t)
        if isinstance(t, float):
            u = (q[0] - a[0]) * d[0] + (q[1] - a[1]) * d[1]
            return (float(a[0] + u * d[0]), float(a[1] + u * d[1]))
        u = (q[..., 0] - a[0]) * d[0] + (q[..., 1] - a[1]) * d[1]
        return np.stack([a[0] + u * d[0], a[1] + u * d[1]], axis=-1)

    def crossing_params(self, rows):
        """Every (parameter, element id) wavefront crossing with the
        elements of rows, in the layout of ElementSet.crossing_rows: (point
        ids, their (5, k) columns, segment ids, their columns), a column
        being (ax, ay, dx, dy, L).  Returns (params, ids) arrays, open
        segment foot windows enforced, absent roots NaN; every quadratic of
        the bisector goes through one _quad_roots call."""
        raise NotImplementedError

    def param_near(self, loc) -> float:
        """Parameter of the point nearest loc (closed form per kind)."""
        raise NotImplementedError

    def argmin_radius(self):
        """Parameter of the radius minimum over [t_lo, t_hi]."""
        return min(max(0.0, self.t_lo), self.t_hi)

    def s_of_t(self, t):
        """Arc length at parameter t."""
        return t

    def t_of_s(self, s):
        """Parameter at arc length s."""
        return s

    def rect_intervals(self, rect: Rect):
        """Parameter intervals of the bisector inside rect."""
        raise NotImplementedError

    @property
    def pair(self):
        a, b = self.gen_plus, self.gen_minus
        return (a, b) if a < b else (b, a)

    @property
    def branch_key(self):
        return (*self.pair, self.branch)

    def with_domain(self, t_lo, t_hi):
        b = copy.copy(self)
        b.t_lo, b.t_hi = float(t_lo), float(t_hi)
        return b

    def __repr__(self):
        return (f"{type(self).__name__}(gen+={self.gen_plus}, gen-={self.gen_minus}, "
                f"dom=[{self.t_lo:.6g}, {self.t_hi:.6g}])")

    # -- array forms --------------------------------------------------------
    # columns(bisectors) lays out the parameters of bisectors of one kind as
    # arrays, one row per bisector.  The static methods below read them as
    # c[name], gathered to one row per entry of their parameter array t,
    # and return one row per entry: points(c, t) and tangents(c, t) as
    # (m, 2) arrays; radii, dradii (per unit arc length) and curvatures as
    # (m,) arrays; contact_points(c, t, side) for side 0 (plus) or 1
    # (minus); side_areas(c, t0, t1, side), the area between the curve from
    # t0 to t1 and one side's contact locus, closed by the end rays; and
    # params_at(c, s, group), t_of_s over groups of entries that each
    # stop together, as one t_of_s call does.

    @classmethod
    def columns(cls, bisectors) -> dict:
        raise NotImplementedError


class _LineLike(Bisector):
    """Straight bisector: p(t) = origin + t * direction, t = arc length.
    Each kind sets radius_sq = (alpha, gamma), with r(t)^2 = alpha t^2 +
    gamma."""

    radius_sq: tuple

    def __init__(self, origin, direction):
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)

    def point(self, t):
        if isinstance(t, (float, int)):
            o, d = self.origin, self.direction
            return np.array([o[0] + t * d[0], o[1] + t * d[1]])
        t = np.asarray(t, dtype=float)
        return self.origin + np.multiply.outer(t, self.direction)

    def param_near(self, loc) -> float:
        o, w = self.origin, self.direction
        return (loc[0] - o[0]) * w[0] + (loc[1] - o[1]) * w[1]

    # -- array forms (see Bisector.columns) ---------------------------------
    _radius_params: tuple = ()  # the kind's radius parameters, by name

    @classmethod
    def columns(cls, bisectors) -> dict:
        o = np.array([b.origin for b in bisectors]).reshape(-1, 2)
        w = np.array([b.direction for b in bisectors]).reshape(-1, 2)
        cols = {"ox": o[:, 0], "oy": o[:, 1], "wx": w[:, 0], "wy": w[:, 1]}
        for k in (0, 1):
            rows = np.array([_side_row(*b.sides[k])
                             for b in bisectors]).reshape(-1, 5)
            cols.update(zip((f"pt{k}", f"ax{k}", f"ay{k}", f"dx{k}", f"dy{k}"),
                            rows.T))
        for name in cls._radius_params:
            cols[name] = np.array([getattr(b, name) for b in bisectors],
                                  dtype=float)
        return cols

    @staticmethod
    def points(c, t):
        return np.stack([c["ox"] + t * c["wx"], c["oy"] + t * c["wy"]],
                        axis=-1)

    @staticmethod
    def tangents(c, t):
        return np.stack([c["wx"], c["wy"]], axis=-1)

    @staticmethod
    def curvatures(c, t):
        return np.zeros_like(t)

    @classmethod
    def contact_points(cls, c, t, side):
        """A point side touches at its point, a segment side at the foot of
        points(t) (Bisector._foot)."""
        ax, ay, dx, dy = (c[f"{k}{side}"] for k in ("ax", "ay", "dx", "dy"))
        q = cls.points(c, t)
        u = (q[:, 0] - ax) * dx + (q[:, 1] - ay) * dy
        point = c[f"pt{side}"] > 0.0
        return np.stack([np.where(point, ax, ax + u * dx),
                         np.where(point, ay, ay + u * dy)], axis=-1)

    @classmethod
    def side_areas(cls, c, t0, t1, side):
        """The curve and a straight (or constant) contact locus bound the
        quadrilateral p0 p1 c1 c0: half the cross product of its
        diagonals."""
        p0, p1 = cls.points(c, t0), cls.points(c, t1)
        c0 = cls.contact_points(c, t0, side)
        c1 = cls.contact_points(c, t1, side)
        return 0.5 * np.abs((c1[:, 0] - p0[:, 0]) * (c0[:, 1] - p1[:, 1])
                            - (c1[:, 1] - p0[:, 1]) * (c0[:, 0] - p1[:, 0]))

    @staticmethod
    def params_at(c, s, group):
        return s

    def crossing_params(self, rows):
        pid, pcol, sid, scol = rows
        px, py = pcol[0], pcol[1]
        ax, ay, dx, dy, L = scol
        npt = len(pid)
        o, w = self.origin, self.direction
        alpha, gamma = self.radius_sq
        relx, rely = px - o[0], py - o[1]
        c0 = dx * (o[1] - ay) - dy * (o[0] - ax)
        c1 = dx * w[1] - dy * w[0]
        roots = _quad_roots(
            np.concatenate([np.full(npt, 1.0 - alpha), c1 * c1 - alpha]),
            np.concatenate([-2.0 * (relx * w[0] + rely * w[1]),
                            2.0 * c0 * c1]),
            np.concatenate([relx ** 2 + rely ** 2 - gamma,
                            c0 * c0 - gamma]))
        params = [roots[:npt, 0], roots[:npt, 1]]
        ids = [pid, pid]
        t0 = (o[0] - ax) * dx + (o[1] - ay) * dy
        tg = w[0] * dx + w[1] * dy
        for col in (0, 1):
            rr = roots[npt:, col]
            foot = t0 + rr * tg
            params.append(np.where((foot > 1e-12) & (foot < L - 1e-12),
                                   rr, np.nan))
            ids.append(sid)
        # foot-window entry/exit: the open distance jumps there, so it
        # counts as a crossing whenever the perpendicular distance is
        # already within the front radius
        tgs = np.where(np.abs(tg) < 1e-14, np.nan, tg)
        for lim in (0.0, L):
            rr = (lim - t0) / tgs
            dperp = np.abs(c0 + c1 * rr)
            rad = np.sqrt(np.maximum(alpha * rr * rr + gamma, 0.0))
            params.append(np.where(dperp <= rad + 1e-9, rr, np.nan))
            ids.append(sid)
        return np.concatenate(params), np.concatenate(ids)

    def rect_intervals(self, rect: Rect):
        """Liang-Barsky: the t-interval of the line inside rect, if any."""
        o, d = self.origin, self.direction
        lo, hi = -_UNBOUNDED, _UNBOUNDED
        for oc, dc, mn, mx in ((o[0], d[0], rect.xmin, rect.xmax),
                               (o[1], d[1], rect.ymin, rect.ymax)):
            if abs(dc) < 1e-300:
                if not (mn <= oc <= mx):
                    return []
                continue
            t0, t1 = (mn - oc) / dc, (mx - oc) / dc
            if t0 > t1:
                t0, t1 = t1, t0
            lo, hi = max(lo, t0), min(hi, t1)
        return [(lo, hi)] if lo < hi else []


def _point_side(p):
    """A point generator's side: its (x, y) as Python floats."""
    return (float(p[0]), float(p[1])), None


def _side_row(p, d):
    """One side as a row of Bisector.columns: (1 if a point side, x, y,
    dx, dy), its point or segment start and its unit direction (0 for a
    point)."""
    if d is None:
        return 1.0, p[0], p[1], 0.0, 0.0
    return 0.0, p[0], p[1], d[0], d[1]


class PointPointBisector(_LineLike):
    """Perpendicular bisector line of two points; r(t) = hypot(half, t)."""

    def __init__(self, a, b, id_a=-1, id_b=-2):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = b - a
        L = math.hypot(d[0], d[1])
        if L <= EPS_GEOM:
            raise DegenerateInputError("coincident point pair")
        super().__init__((a + b) / 2.0, perp(d) / L)
        self.half = L / 2.0
        self.radius_sq = (1.0, self.half * self.half)
        # a lies left of the +t tangent (perp rotates +90deg)
        self.sides = (_point_side(a), _point_side(b))
        self.gen_plus, self.gen_minus = id_a, id_b

    _radius_params = ("half",)

    def radius(self, t):
        return np.hypot(self.half, t)

    def dradius(self, t):
        return np.asarray(t) / np.hypot(self.half, t)

    @staticmethod
    def radii(c, t):
        return np.hypot(c["half"], t)

    @staticmethod
    def dradii(c, t):
        return t / np.hypot(c["half"], t)


class LinearRadiusLine(_LineLike):
    """Line bisector with r(t) = slope * |t - t_apex| (segment pairs and
    endpoint perpendiculars)."""

    def __init__(self, origin, direction, slope, sides, gen_plus, gen_minus):
        super().__init__(origin, direction)
        self.slope = float(slope)
        self.radius_sq = (self.slope * self.slope, 0.0)
        self.sides = sides
        self.gen_plus, self.gen_minus = gen_plus, gen_minus

    _radius_params = ("slope",)

    def radius(self, t):
        return self.slope * np.abs(np.asarray(t, dtype=float))

    def dradius(self, t):
        return self.slope * np.sign(np.asarray(t, dtype=float))

    @staticmethod
    def radii(c, t):
        return c["slope"] * np.abs(t)

    @staticmethod
    def dradii(c, t):
        return c["slope"] * np.sign(t)


class MidlineBisector(_LineLike):
    """Parallel-segment bisector: constant radius."""

    def __init__(self, origin, direction, r0, sides, gen_plus, gen_minus):
        super().__init__(origin, direction)
        self.r0 = float(r0)
        self.radius_sq = (0.0, self.r0 * self.r0)
        self.sides = sides
        self.gen_plus, self.gen_minus = gen_plus, gen_minus

    def radius(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.r0) \
            if np.ndim(t) else self.r0

    def dradius(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

    def argmin_radius(self):
        return 0.5 * (self.t_lo + self.t_hi)

    _radius_params = ("r0",)

    @staticmethod
    def radii(c, t):
        return c["r0"]

    @staticmethod
    def dradii(c, t):
        return np.zeros_like(t)


class ParabolaBisector(Bisector):
    """Bisector of a point (focus) and a segment's supporting line (directrix),
    parametrized by the directrix coordinate t = xi, with xi = 0 at the
    vertex: the point is F + xi e1 + eta(xi) n with eta = (xi^2 + h^2) / (2h),
    which is also the radius. Arc length s(xi) is closed form (s_of_t);
    its inverse t_of_s is Newton's method."""

    def __init__(self, focus, seg_a, seg_d, id_point, id_seg):
        focus = np.asarray(focus, dtype=float)
        a = np.asarray(seg_a, dtype=float)
        d = np.asarray(seg_d, dtype=float)
        tF = dot(focus - a, d)
        foot = a + tF * d
        offs = focus - foot
        h = math.hypot(offs[0], offs[1])
        if h <= EPS_GEOM:
            raise InvalidInputError("focus lies on the supporting line")
        self.F = foot          # directrix foot of the focus
        self.e1 = d            # along the directrix
        self.n = offs / h      # toward the focus
        self.h = h
        self.tF = tF           # segment parameter of F
        self.sides = (_point_side(focus), (a, d))
        self.gen_plus, self.gen_minus = id_point, id_seg  # focus is left of +t

    # -- arc length <-> directrix coordinate -------------------------------
    def s_of_t(self, xi):
        return _arc_of_z(np.asarray(xi, dtype=float) / self.h, self.h)

    def t_of_s(self, s):
        """Inverse of s_of_t (_xi_of_s), elementwise over an array of any
        shape."""
        s = np.asarray(s, dtype=float)
        return _xi_of_s(s.ravel(), np.full(s.size, self.h),
                        np.zeros(s.size, dtype=np.intp)).reshape(s.shape)

    # -- geometry in xi ----------------------------------------------------
    def _eta(self, xi):
        return (xi * xi + self.h * self.h) / (2.0 * self.h)

    def point(self, xi):
        if isinstance(xi, float):
            eta = (xi * xi + self.h * self.h) / (2.0 * self.h)
            F, e1, nv = self.F, self.e1, self.n
            return np.array([F[0] + xi * e1[0] + eta * nv[0],
                             F[1] + xi * e1[1] + eta * nv[1]])
        xi = np.asarray(xi, dtype=float)
        return (self.F
                + np.multiply.outer(xi, self.e1)
                + np.multiply.outer(self._eta(xi), self.n))

    def radius(self, xi):
        return self._eta(np.asarray(xi, dtype=float))

    def dradius(self, xi):
        z = np.asarray(xi, dtype=float) / self.h
        return z / np.sqrt(1.0 + z * z)

    def _foot(self, xi, a, d):
        """The directrix foot F + xi e1, exact: projecting point(xi) would
        move its last bits."""
        if isinstance(xi, float):
            foot = self.F + xi * self.e1
            return (float(foot[0]), float(foot[1]))
        return self.F + np.multiply.outer(xi, self.e1)

    def param_near(self, loc) -> float:
        """The xi of loc's foot on the directrix."""
        return (loc[0] - self.F[0]) * self.e1[0] \
            + (loc[1] - self.F[1]) * self.e1[1]

    # -- array forms (see Bisector.columns) ---------------------------------
    @classmethod
    def columns(cls, bisectors) -> dict:
        vecs = np.array([(*b.F, *b.e1, *b.n, *b.sides[0][0], b.h)
                         for b in bisectors]).reshape(-1, 9)
        return dict(zip(("Fx", "Fy", "e1x", "e1y", "nx", "ny", "fx", "fy",
                         "h"), vecs.T))

    @staticmethod
    def points(c, xi):
        h = c["h"]
        eta = (xi * xi + h * h) / (2.0 * h)
        return np.stack([c["Fx"] + xi * c["e1x"] + eta * c["nx"],
                         c["Fy"] + xi * c["e1y"] + eta * c["ny"]], axis=-1)

    @staticmethod
    def tangents(c, xi):
        z = xi / c["h"]
        w = np.sqrt(1.0 + z * z)
        return np.stack([(1.0 / w) * c["e1x"] + (z / w) * c["nx"],
                         (1.0 / w) * c["e1y"] + (z / w) * c["ny"]], axis=-1)

    @staticmethod
    def radii(c, xi):
        h = c["h"]
        return (xi * xi + h * h) / (2.0 * h)

    @staticmethod
    def dradii(c, xi):
        z = xi / c["h"]
        return z / np.sqrt(1.0 + z * z)

    @staticmethod
    def curvatures(c, xi):
        z = xi / c["h"]
        return 1.0 / (c["h"] * np.power(1.0 + z * z, 1.5))

    @staticmethod
    def contact_points(c, xi, side):
        """The focus (plus), or the directrix foot F + xi e1 (_foot)."""
        if side == 0:
            return np.stack(np.broadcast_arrays(c["fx"], c["fy"]), axis=-1)
        return np.stack([c["Fx"] + xi * c["e1x"], c["Fy"] + xi * c["e1y"]],
                        axis=-1)

    @staticmethod
    def side_areas(c, t0, t1, side):
        """The directrix side's area is the integral of eta over xi; the
        focus side (plus) is a sector of half of it, since the cross product
        (p - focus) x dp/dxi reduces to eta.  The cubes are Python's float
        power: numpy's differs from it in the last bit."""
        h = c["h"]
        cube = [[v ** 3 for v in t.tolist()] for t in (t0, t1)]
        integral = np.abs((np.array(cube[1]) - np.array(cube[0])) / (6.0 * h)
                          + 0.5 * h * (t1 - t0))
        return 0.5 * integral if side == 0 else integral

    @staticmethod
    def params_at(c, s, group):
        return _xi_of_s(s, c["h"], group)

    def crossing_params(self, rows):
        pid, pcol, sid, scol = rows
        px, py = pcol[0], pcol[1]
        ax, ay, dx, dy, L = scol
        npt, nsg = len(pid), len(sid)
        F, e1, nv, h = self.F, self.e1, self.n, self.h
        relx, rely = px - F[0], py - F[1]
        u1 = relx * e1[0] + rely * e1[1]
        u2 = relx * nv[0] + rely * nv[1]
        rfx, rfy = F[0] - ax, F[1] - ay
        cr0 = dx * rfy - dy * rfx
        cre = dx * e1[1] - dy * e1[0]
        crn = dx * nv[1] - dy * nv[0]
        t0 = rfx * dx + rfy * dy
        te = e1[0] * dx + e1[1] * dy
        tn = nv[0] * dx + nv[1] * dy
        # segment rows twice: the two signed-distance branches of the
        # crossing, then the two foot-window edges
        sig = np.concatenate([crn - 1.0, crn + 1.0])
        t0_2, te_2, tn_2, cr0_2, cre_2, crn_2, L2, ids2 = (
            np.concatenate([v, v])
            for v in (t0, te, tn, cr0, cre, crn, L, sid))
        roots = _quad_roots(
            np.concatenate([1.0 - u2 / h, sig / (2.0 * h), tn_2 / (2.0 * h)]),
            np.concatenate([-2.0 * u1, cre_2, te_2]),
            np.concatenate([u1 * u1 + u2 * u2 - u2 * h,
                            cr0_2 + sig * h / 2.0,
                            t0_2 + tn_2 * h / 2.0
                            - np.concatenate([np.zeros(nsg), L])]))
        crossing, window = roots[npt:npt + 2 * nsg], roots[npt + 2 * nsg:]
        params = [roots[:npt, 0], roots[:npt, 1]]
        ids = [pid, pid]
        for col in (0, 1):
            xi = crossing[:, col]
            eta = (xi * xi + h * h) / (2.0 * h)
            foot = t0_2 + xi * te_2 + eta * tn_2
            params.append(np.where((foot > 1e-12) & (foot < L2 - 1e-12),
                                   xi, np.nan))
            ids.append(ids2)
        # foot-window entry/exit crossings (see _LineLike.crossing_params)
        for col in (0, 1):
            xi = window[:, col]
            eta = (xi * xi + h * h) / (2.0 * h)
            dperp = np.abs(cr0_2 + cre_2 * xi + crn_2 * eta)
            params.append(np.where(dperp <= eta + 1e-9, xi, np.nan))
            ids.append(ids2)
        return np.concatenate(params), np.concatenate(ids)

    def rect_intervals(self, rect: Rect):
        """xi-intervals of the parabola inside rect."""
        lo, hi = -_UNBOUNDED, _UNBOUNDED
        crossings = []
        h = self.h
        for axis, mn, mx in ((0, rect.xmin, rect.xmax), (1, rect.ymin, rect.ymax)):
            A = self.n[axis] / (2.0 * h)
            B = self.e1[axis]
            C0 = self.F[axis] + self.n[axis] * h / 2.0
            for bound in (mn, mx):
                C = C0 - bound
                if abs(A) < 1e-14:
                    if abs(B) > 1e-14:
                        crossings.append(-C / B)
                    continue
                disc = B * B - 4.0 * A * C
                if disc >= 0.0:
                    rt = math.sqrt(disc)
                    crossings.append((-B - rt) / (2.0 * A))
                    crossings.append((-B + rt) / (2.0 * A))
        knots = sorted(set(crossings))
        edges = [lo] + [k for k in knots] + [hi]
        inside = []
        for i in range(len(edges) - 1):
            a, b = edges[i], edges[i + 1]
            if b - a <= 0:
                continue
            mid = a + 0.5 * (b - a) if abs(a) < _UNBOUNDED / 2 or abs(b) < _UNBOUNDED / 2 \
                else 0.0
            if abs(a) >= _UNBOUNDED / 2 and abs(b) < _UNBOUNDED / 2:
                mid = b - 1.0
            elif abs(b) >= _UNBOUNDED / 2 and abs(a) < _UNBOUNDED / 2:
                mid = a + 1.0
            q = self.F + mid * self.e1 + self._eta(mid) * self.n
            if rect.contains(q, slack=1e-9):
                inside.append((a, b))
        return inside


def _arc_of_z(z, h):
    """Parabola arc length from the vertex at z = xi / h."""
    return 0.5 * h * (z * np.sqrt(1.0 + z * z) + np.arcsinh(z))


def _xi_of_s(s, h, group):
    """xi at arc lengths s of parabolas with focal distances h, by Newton's
    method on z = xi / h, over 1-d arrays.  The entries of one group (one
    t_of_s call) take the same steps: the group iterates until each of its
    entries has converged, so an entry's bits do not depend on the other
    groups."""
    # initial guess: linear for small |s|, sqrt growth for large
    z = np.where(np.abs(s) < h, s / h,
                 np.sign(s) * np.sqrt(np.maximum(2.0 * np.abs(s) / h, 0.0)))
    live = np.arange(len(s))
    for _ in range(60 if len(s) else 0):
        zl, hl = z[live], h[live]
        step = (_arc_of_z(zl, hl) - s[live]) / (hl * np.sqrt(1.0 + zl * zl))
        zl = zl - step
        z[live] = zl
        done = ~np.isfinite(step) | (np.abs(step) < 1e-15 * (1.0 + np.abs(zl)))
        open_group = np.zeros(int(group.max()) + 1, dtype=bool)
        open_group[group[live[~done]]] = True
        live = live[open_group[group[live]]]
        if not len(live):
            break
    return z * h


# ---------------------------------------------------------------------------
# Constructors for each pair kind
# ---------------------------------------------------------------------------

def _seg_frame(seg: BoundaryElement):
    (ax, ay), (bx, by) = seg.geometry
    a = np.array([ax, ay])
    d = np.array([bx - ax, by - ay])
    L = math.hypot(d[0], d[1])
    return a, d / L, L


def _segment_pair_branches(u: BoundaryElement, v: BoundaryElement):
    """Both angle-bisector branches (or the midline), feet-clipped.

    Returns a list of bisectors whose domains are restricted to parameters
    where both perpendicular feet are strictly interior.
    """
    a1, d1, L1 = _seg_frame(u)
    a2, d2, L2 = _seg_frame(v)
    sin_ang = abs(cross(d1, d2))
    out = []
    if sin_ang < PARALLEL_EPS:
        # parallel supporting lines -> midline (empty when collinear)
        off = a2 - a1
        gap = cross(d1, off)  # signed distance of line2 from line1
        if abs(gap) <= EPS_GEOM:
            return []
        origin = a1 + 0.5 * gap * perp(d1)
        direction = _lex_positive(d1.copy())
        # overlap of the two segments projected on the midline
        t1a = dot(a1 - origin, direction)
        t1b = t1a + L1 * dot(d1, direction)
        t2a = dot(a2 - origin, direction)
        t2b = t2a + L2 * dot(d2, direction)
        lo = max(min(t1a, t1b), min(t2a, t2b))
        hi = min(max(t1a, t1b), max(t2a, t2b))
        if hi - lo <= EPS_GEOM:
            return []
        side1 = cross(direction, a1 + dot(origin - a1, d1) * d1 - origin)
        gp, gm = (u.id, v.id) if side1 > 0 else (v.id, u.id)
        sides = ((a1, d1), (a2, d2)) if gp == u.id else ((a2, d2), (a1, d1))
        bis = MidlineBisector(origin, direction, abs(gap) / 2.0, sides, gp, gm)
        bis.t_lo, bis.t_hi = lo, hi
        out.append(bis)
        return out

    # supporting lines intersect at O
    denom = cross(d1, d2)
    t = cross(a2 - a1, d2) / denom
    O = a1 + t * d1
    d2c = d2 if dot(d1, d2) >= 0 else -d2
    for branch, w_raw in enumerate((d1 + d2c, d1 - d2c)):
        nw = math.hypot(w_raw[0], w_raw[1])
        if nw < EPS_GEOM:
            continue
        w = _lex_positive(w_raw / nw)
        slope = abs(cross(w, d1))  # = |sin(angle between branch and lines)|
        if slope < 1e-12:
            continue
        # feet-interior windows: t_i(s) = t0_i + s * g_i in (0, L_i)
        dom_lo, dom_hi = -_UNBOUNDED, _UNBOUNDED
        empty = False
        for (ai, di, Li) in ((a1, d1, L1), (a2, d2, L2)):
            t0 = dot(O - ai, di)
            g = dot(w, di)
            if abs(g) < 1e-14:
                if not (0.0 < t0 < Li):
                    empty = True
                    break
                continue
            s0, s1 = (0.0 - t0) / g, (Li - t0) / g
            if s0 > s1:
                s0, s1 = s1, s0
            dom_lo, dom_hi = max(dom_lo, s0), min(dom_hi, s1)
        if empty or dom_hi - dom_lo <= EPS_GEOM:
            continue
        ref = dom_lo + 0.5 * (dom_hi - dom_lo)
        pref = O + ref * w
        foot1 = a1 + dot(pref - a1, d1) * d1
        side1 = cross(w, foot1 - pref)
        gp, gm = (u.id, v.id) if side1 > 0 else (v.id, u.id)
        sides = ((a1, d1), (a2, d2)) if gp == u.id else ((a2, d2), (a1, d1))
        bis = LinearRadiusLine(O, w, slope, sides, gp, gm)
        bis.branch = branch
        bis.t_lo, bis.t_hi = dom_lo, dom_hi
        out.append(bis)
    return out


def bisector_point_segment(p: BoundaryElement, seg: BoundaryElement):
    px, py = p.geometry
    a, d, L = _seg_frame(seg)
    tq = dot(np.array([px, py]) - a, d)
    offs = np.array([px, py]) - (a + tq * d)
    h = math.hypot(offs[0], offs[1])
    if h <= EPS_GEOM:
        if EPS_GEOM < tq < L - EPS_GEOM:
            raise InvalidInputError("point lies on the segment interior (contour self-contact)")
        raise InvalidInputError("point collinear with the supporting line")
    bis = ParabolaBisector((px, py), a, d, p.id, seg.id)
    bis.t_lo, bis.t_hi = -bis.tF, L - bis.tF
    return bis


def bisector_endpoint_own_segment(p: BoundaryElement, seg: BoundaryElement):
    """The perpendicular to seg through its endpoint p.  Adjacency says p
    ends seg, as it does in the candidate pass: an exact test of the
    geometry rounds at about |p| 1e-16."""
    if seg.id not in p.adjacency:
        raise InvalidInputError("point is not an endpoint of the segment")
    a, d, L = _seg_frame(seg)
    origin = np.asarray(p.geometry, dtype=float)
    direction = _lex_positive(perp(d).copy())
    # side of the segment body relative to the +t tangent
    mid = a + 0.5 * L * d
    side = cross(direction, mid - origin)
    gp, gm = (seg.id, p.id) if side > 0 else (p.id, seg.id)
    touch = _point_side(p.geometry)
    return LinearRadiusLine(origin, direction, 1.0, (touch, touch), gp, gm)


# ---------------------------------------------------------------------------
# Factory used by the propagation engine
# ---------------------------------------------------------------------------

def make_bisectors(e1: BoundaryElement, e2: BoundaryElement, clip: Rect | None = None):
    """All bisector records for an element pair, feet- and box-clipped.

    Returns a (possibly empty) list; multiple records appear for the two
    angle-bisector branches or when the box cuts a parabola into pieces.
    Pairs whose geometry is inadmissible (collinear point/segment contact,
    crossing segments) yield an empty list here; ingestion rejects true
    contour crossings separately.
    """
    if e1.id > e2.id:
        e1, e2 = e2, e1
    records: list[Bisector] = []
    if e1.kind == POINT and e2.kind == POINT:
        bis = PointPointBisector(e1.geometry, e2.geometry, e1.id, e2.id)
        records.append(bis)
    elif e1.kind == SEGMENT and e2.kind == SEGMENT:
        records.extend(_segment_pair_branches(e1, e2))
    else:
        p, seg = (e1, e2) if e1.kind == POINT else (e2, e1)
        if seg.id in p.adjacency:
            records.append(bisector_endpoint_own_segment(p, seg))
        else:
            try:
                records.append(bisector_point_segment(p, seg))
            except InvalidInputError:
                return []

    if clip is None:
        return records

    clipped: list[Bisector] = []
    for bis in records:
        for (lo, hi) in bis.rect_intervals(clip):
            a, b = max(lo, bis.t_lo), min(hi, bis.t_hi)
            if b - a > EPS_GEOM:
                clipped.append(bis.with_domain(a, b))
    return clipped
