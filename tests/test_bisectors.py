import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shockgraph.bisectors import (LinearRadiusLine, MidlineBisector,
                                  ParabolaBisector, PointPointBisector,
                                  bisector_endpoint_own_segment,
                                  bisector_point_segment, make_bisectors)
from shockgraph.contours import POINT, SEGMENT, BoundaryElement
from shockgraph.errors import DegenerateInputError, InvalidInputError
from shockgraph.geometry import Rect, cross


def seg(eid, a, b, adjacency=()):
    e = BoundaryElement(eid, SEGMENT, (tuple(a), tuple(b)), eid)
    e.adjacency = set(adjacency)
    return e


def pt(eid, p, adjacency=()):
    e = BoundaryElement(eid, POINT, tuple(p), eid)
    e.adjacency = set(adjacency)
    return e


class TestPointPoint:
    def test_midpoint_and_radius(self):
        bis = PointPointBisector((0, 0), (4, 0))
        assert np.allclose(bis.point(0.0), (2, 0))
        assert bis.radius(0.0) == 2.0
        assert np.isclose(bis.radius(3.0), math.hypot(2.0, 3.0))

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInputError):
            PointPointBisector((1, 1), (1, 1))

    def test_generator_sides(self):
        bis = PointPointBisector((0, 0), (4, 0), 7, 9)
        s = 1.0
        p = bis.point(s)
        t = np.asarray(bis.point(s + 1e-6)) - p
        # gen_plus lies left of the +s tangent
        v = np.array([0, 0]) - p
        a_side = t[0] * v[1] - t[1] * v[0]
        assert (a_side > 0) == (bis.gen_plus == 7)


class TestParabola:
    def test_kind_and_vertex(self):
        bis = bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)))
        assert isinstance(bis, ParabolaBisector)
        assert np.allclose(bis.point(0.0), (0, 1))
        assert np.isclose(bis.radius(0.0), 1.0)

    def test_arc_length_inverse(self):
        bis = bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)))
        for s in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert np.isclose(bis.s_of_t(bis.t_of_s(s)), s, atol=1e-12)

    def test_vector_scalar_agree(self):
        bis = bisector_point_segment(pt(0, (1, 3)), seg(1, (-5, 0), (6, 1)))
        ss = np.linspace(bis.t_lo, bis.t_hi, 17)
        vec = bis.point(ss)
        for s, q in zip(ss, vec):
            assert np.allclose(bis.point(float(s)), q, atol=1e-12)
        assert np.allclose([bis.radius(float(s)) for s in ss],
                           bis.radius(ss), atol=1e-12)

    def test_point_on_line_rejected(self):
        with pytest.raises(InvalidInputError):
            bisector_point_segment(pt(0, (0, 0)), seg(1, (-5, 0), (5, 0)))

    def test_contacts(self):
        bis = bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)))
        focus, foot = bis.contacts(1.0)
        assert np.allclose(focus, (0, 2))
        assert np.allclose(foot, (1, 0))


class TestEndpointOwnSegment:
    def test_perpendicular_through_endpoint(self):
        p = pt(0, (0, 0), adjacency=[1])
        s = seg(1, (0, 0), (3, 0), adjacency=[0])
        bis = bisector_endpoint_own_segment(p, s)
        assert isinstance(bis, LinearRadiusLine)
        assert np.allclose(bis.point(0.0), (0, 0))
        # the line is perpendicular to the segment
        assert abs(np.dot(bis.direction, (1, 0))) <= 1e-12
        assert np.isclose(bis.radius(2.5), 2.5)

    def test_non_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            bisector_endpoint_own_segment(pt(0, (1, 1)), seg(1, (0, 0), (3, 0)))


class TestSegmentSegment:
    def test_parallel_gives_midline(self):
        recs = make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 2), (4, 2)))
        mid = next(b for b in recs if isinstance(b, MidlineBisector))
        assert np.isclose(mid.radius(0.5 * (mid.t_lo + mid.t_hi)), 1.0)

    def test_angled_gives_line(self):
        recs = make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 3), (4, 4)))
        assert recs and all(isinstance(b, LinearRadiusLine) for b in recs)


class TestClipping:
    def test_line_clip(self):
        recs = make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)),
                              clip=Rect(0, 0, 8, 8))
        assert len(recs) == 1
        bis = recs[0]
        for s in (bis.t_lo + 1e-9, bis.t_hi - 1e-9):
            x, y = bis.point(s)
            assert -1e-6 <= x <= 8 + 1e-6 and -1e-6 <= y <= 8 + 1e-6

    def test_parabola_clip_respects_feet(self):
        recs = make_bisectors(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)),
                              clip=Rect(-100, -100, 100, 100))
        assert len(recs) == 1
        bis = recs[0]
        assert bis.t_lo >= -5 - 1e-9
        assert bis.t_hi <= 5 + 1e-9

    def test_disjoint_clip_empty(self):
        recs = make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)),
                              clip=Rect(100, 100, 101, 101))
        assert recs == []


class TestContacts:
    def test_matches_scalar_for_all_kinds(self):
        cases = [
            make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)))[0],
            make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 2), (4, 2)))[0],
            make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 3), (4, 4)))[0],
            bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0))),
        ]
        for bis in cases:
            lo = max(bis.t_lo, -5.0)
            hi = min(bis.t_hi, 5.0)
            ss = np.linspace(lo + 1e-6, hi - 1e-6, 9)
            cp, cm = bis.contacts(ss)
            for k, s in enumerate(ss):
                scp, scm = bis.contacts(float(s))
                assert np.allclose(cp[k], scp, atol=1e-9)
                assert np.allclose(cm[k], scm, atol=1e-9)


# ---------------------------------------------------------------------------
# Properties in the parameter t over drawn generator pairs
# ---------------------------------------------------------------------------

coords = st.tuples(st.floats(-20, 20), st.floats(-20, 20))


def _closed_dist(e, q):
    q = np.asarray(q, dtype=float)
    if e.kind == POINT:
        return math.hypot(q[0] - e.geometry[0], q[1] - e.geometry[1])
    a, b = (np.asarray(v, dtype=float) for v in e.geometry)
    d = b - a
    u = min(1.0, max(0.0, np.dot(q - a, d) / np.dot(d, d)))
    return float(np.hypot(*(q - a - u * d)))


def _well_conditioned(e1, e2):
    """Segments at least 1 long, a point at least 0.5 from a segment's
    supporting line, and segment pairs parallel or at least 0.1 apart in
    sine: the regime where the closed forms hold to 1e-9."""
    dirs = []
    for e in (e1, e2):
        if e.kind == SEGMENT:
            a, b = (np.asarray(v, dtype=float) for v in e.geometry)
            L = math.hypot(*(b - a))
            if L < 1.0:
                return False
            dirs.append((a, (b - a) / L))
    if len(dirs) == 2:
        sin = abs(cross(dirs[0][1], dirs[1][1]))
        return sin == 0.0 or sin >= 0.1
    if len(dirs) == 1 and e1.kind == POINT:
        a, d = dirs[0]
        return abs(cross(d, np.asarray(e1.geometry) - a)) >= 0.5
    return e1.kind == POINT and _closed_dist(e1, e2.geometry) >= 0.5


@st.composite
def generator_pairs(draw, kinds):
    def element(eid, kind):
        if kind == POINT:
            return pt(eid, draw(coords))
        return seg(eid, draw(coords), draw(coords))
    return element(0, kinds[0]), element(1, kinds[1])


@pytest.mark.parametrize("kinds", [(POINT, POINT), (POINT, SEGMENT),
                                   (SEGMENT, SEGMENT)],
                         ids=["point-point", "point-segment",
                              "segment-segment"])
@given(data=st.data())
def test_parameter_properties(kinds, data):
    e1, e2 = data.draw(generator_pairs(kinds))
    assume(_well_conditioned(e1, e2))
    recs = make_bisectors(e1, e2)
    assume(recs)
    bis = data.draw(st.sampled_from(recs))
    # a window of the domain at most 200 long (the line kinds are unbounded)
    lo = max(bis.t_lo, min(bis.t_hi, 0.0) - 100.0)
    hi = min(bis.t_hi, lo + 200.0)
    t = lo + (hi - lo) * data.draw(st.floats(0.0, 1.0))
    s = float(bis.s_of_t(t))
    assert math.isclose(float(bis.t_of_s(s)), t, abs_tol=1e-9 * (1 + abs(t)))
    r = float(bis.radius(t))
    q = bis.point(t)
    for e in (e1, e2):
        assert math.isclose(_closed_dist(e, q), r, rel_tol=1e-9, abs_tol=1e-9)
    # the contacts of a scalar t are row 0 of those of [t]; each lies on its
    # generator, at distance r from the point
    contacts = bis.contacts(float(t))
    rows = bis.contacts(np.array([t]))
    for c, row, gid in zip(contacts, rows, (bis.gen_plus, bis.gen_minus)):
        assert c == tuple(row[0].tolist())
        assert _closed_dist((e1, e2)[gid], c) <= 1e-9 * (1 + r)
        assert abs(math.hypot(c[0] - q[0], c[1] - q[1]) - r) <= 1e-9 * (1 + r)
    # every root of crossing_params with a drawn third point inside the
    # domain is a point where that point's wavefront arrives too
    p3 = np.array(data.draw(coords), dtype=float)
    params, ids = bis.crossing_params(
        (np.array([2]), np.concatenate([p3, np.zeros(3)])[:, None],
         np.empty(0, dtype=int), np.empty((5, 0))))
    assert ids.tolist() == [2] * len(params)
    for root in params[np.isfinite(params)]:
        if bis.t_lo <= root <= bis.t_hi and abs(root) < 1e6:
            pr, rr = bis.point(float(root)), float(bis.radius(float(root)))
            dist = math.hypot(pr[0] - p3[0], pr[1] - p3[1])
            assert abs(dist - rr) <= 1e-6 * (1 + rr)
    # dr/ds by a central difference in arc length; r is |t|-shaped at the
    # apex of a linear-radius line, so stay off the corner there
    h = 1e-5 * (1.0 + abs(s))
    if isinstance(bis, LinearRadiusLine):
        assume(abs(t) > 2 * h)
    fd = (float(bis.radius(bis.t_of_s(s + h)))
          - float(bis.radius(bis.t_of_s(s - h)))) / (2 * h)
    assert math.isclose(float(bis.dradius(t)), fd, abs_tol=1e-6)
