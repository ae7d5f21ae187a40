import math

import numpy as np
import pytest

from shockgraph.bisectors import (KIND_LINE, KIND_MIDLINE, KIND_PARABOLA,
                                  KIND_PERPENDICULAR,
                                  bisector_endpoint_own_segment,
                                  bisector_point_point, bisector_point_segment,
                                  make_bisectors)
from shockgraph.contours import POINT, SEGMENT, BoundaryElement
from shockgraph.errors import DegenerateInputError, InvalidInputError
from shockgraph.geometry import Rect


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
        bis = bisector_point_point((0, 0), (4, 0))
        assert np.allclose(bis.point(0.0), (2, 0))
        assert bis.radius(0.0) == 2.0
        assert np.isclose(bis.radius(3.0), math.hypot(2.0, 3.0))

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInputError):
            bisector_point_point((1, 1), (1, 1))

    def test_generator_sides(self):
        bis = bisector_point_point((0, 0), (4, 0), 7, 9)
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
        assert bis.kind == KIND_PARABOLA
        assert np.allclose(bis.point(0.0), (0, 1))
        assert np.isclose(bis.radius(0.0), 1.0)

    def test_arc_length_inverse(self):
        bis = bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)))
        for s in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert np.isclose(bis.s_of_xi(bis.xi_of_s(s)), s, atol=1e-12)

    def test_vector_scalar_agree(self):
        bis = bisector_point_segment(pt(0, (1, 3)), seg(1, (-5, 0), (6, 1)))
        ss = np.linspace(bis.s_lo, bis.s_hi, 17)
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
        focus, foot = bis.contacts(bis.s_of_xi(1.0))
        assert np.allclose(focus, (0, 2))
        assert np.allclose(foot, (1, 0))


class TestEndpointOwnSegment:
    def test_perpendicular_through_endpoint(self):
        p = pt(0, (0, 0), adjacency=[1])
        s = seg(1, (0, 0), (3, 0), adjacency=[0])
        bis = bisector_endpoint_own_segment(p, s)
        assert bis.kind == KIND_PERPENDICULAR
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
        kinds = {b.kind for b in recs}
        assert KIND_MIDLINE in kinds
        mid = next(b for b in recs if b.kind == KIND_MIDLINE)
        assert np.isclose(mid.radius(0.5 * (mid.s_lo + mid.s_hi)), 1.0)

    def test_angled_gives_line(self):
        recs = make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 3), (4, 4)))
        assert recs and all(b.kind == KIND_LINE for b in recs)

    def test_crossing_rejected(self):
        from shockgraph.bisectors import bisector_segment_segment
        with pytest.raises(InvalidInputError):
            bisector_segment_segment(seg(0, (0, 0), (4, 4)),
                                     seg(1, (0, 4), (4, 0)))


class TestClipping:
    def test_line_clip(self):
        recs = make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)),
                              clip=Rect(0, 0, 8, 8))
        assert len(recs) == 1
        bis = recs[0]
        for s in (bis.s_lo + 1e-9, bis.s_hi - 1e-9):
            x, y = bis.point(s)
            assert -1e-6 <= x <= 8 + 1e-6 and -1e-6 <= y <= 8 + 1e-6

    def test_parabola_clip_respects_feet(self):
        recs = make_bisectors(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0)),
                              clip=Rect(-100, -100, 100, 100))
        assert len(recs) == 1
        bis = recs[0]
        assert bis.xi_of_s(bis.s_lo) >= -5 - 1e-9
        assert bis.xi_of_s(bis.s_hi) <= 5 + 1e-9

    def test_disjoint_clip_empty(self):
        recs = make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)),
                              clip=Rect(100, 100, 101, 101))
        assert recs == []


class TestContactsArray:
    def test_matches_scalar_for_all_kinds(self):
        cases = [
            make_bisectors(pt(0, (2, 2)), pt(1, (6, 2)))[0],
            make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 2), (4, 2)))[0],
            make_bisectors(seg(0, (0, 0), (4, 0)), seg(1, (0, 3), (4, 4)))[0],
            bisector_point_segment(pt(0, (0, 2)), seg(1, (-5, 0), (5, 0))),
        ]
        for bis in cases:
            lo = max(bis.s_lo, -5.0)
            hi = min(bis.s_hi, 5.0)
            ss = np.linspace(lo + 1e-6, hi - 1e-6, 9)
            cp, cm = bis.contacts_array(ss)
            for k, s in enumerate(ss):
                scp, scm = bis.contacts(float(s))
                assert np.allclose(cp[k], scp, atol=1e-9)
                assert np.allclose(cm[k], scm, atol=1e-9)
