import numpy as np
import pytest

from shockgraph.contours import (POINT, SEGMENT, ContourFragment,
                                 check_no_crossings, decompose,
                                 format_scene_text, parse_scene_text,
                                 resample_polyline, simplify_polyline,
                                 trace_binary_mask)
from shockgraph.errors import InvalidInputError


def square(frag_id=0):
    return ContourFragment(frag_id,
                           np.array([[0., 0.], [2., 0.], [2., 2.], [0., 2.]]),
                           closed=True)


class TestFragmentValidation:
    def test_too_few_vertices(self):
        with pytest.raises(InvalidInputError):
            ContourFragment(0, np.array([[0.0, 0.0]]))

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            ContourFragment(0, np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_duplicate_vertices(self):
        with pytest.raises(InvalidInputError):
            ContourFragment(0, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_closed_needs_three_vertices(self):
        """Also when the third is the explicit closure, which is dropped."""
        for v in ([[0., 0.], [1., 0.]], [[0., 0.], [1., 0.], [0., 0.]]):
            with pytest.raises(InvalidInputError):
                ContourFragment(0, np.array(v), closed=True)

    def test_explicit_closure_dropped(self):
        f = ContourFragment(0, np.array([[0., 0.], [1., 0.], [1., 1.],
                                         [0., 0.]]), closed=True)
        assert f.vertices.shape == (3, 2)


class TestSimplify:
    def test_epsilon_zero_is_identity(self):
        f = ContourFragment(0, np.array([[0., 0.], [1., 0.01], [2., 0.]]))
        out = simplify_polyline(f, 0.0)
        assert np.array_equal(out.vertices, f.vertices)

    def test_removes_near_collinear_vertices(self):
        f = ContourFragment(0, np.array([[0., 0.], [1., 0.01], [2., 0.]]))
        out = simplify_polyline(f, 0.1)
        assert out.vertices.shape == (2, 2)
        assert np.array_equal(out.vertices, f.vertices[[0, 2]])

    def test_keeps_significant_vertices(self):
        f = ContourFragment(0, np.array([[0., 0.], [1., 1.], [2., 0.]]))
        out = simplify_polyline(f, 0.1)
        assert out.vertices.shape == (3, 2)

    def test_closed_keeps_square_corners(self):
        out = simplify_polyline(square(), 0.5)
        assert out.vertices.shape == (4, 2)

    def test_closed_keeps_a_third_vertex(self):
        """A unit square at epsilon 0.8 keeps its anchors, corners 0 and 2
        (both other corners lie 0.71 from their chord), and corner 1, the
        lower index of the tie."""
        f = ContourFragment(0, np.array([[0., 0.], [1., 0.], [1., 1.],
                                         [0., 1.]]), closed=True)
        out = simplify_polyline(f, 0.8)
        assert np.array_equal(out.vertices, f.vertices[[0, 1, 2]])

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            simplify_polyline(square(), -1.0)


class TestResample:
    def test_open_spacing_and_endpoints(self):
        f = ContourFragment(0, np.array([[0., 0.], [10., 0.]]))
        out = resample_polyline(f, 1.0)
        assert out.vertices.shape == (11, 2)
        assert np.allclose(out.vertices[0], (0, 0))
        assert np.allclose(out.vertices[-1], (10, 0))
        steps = np.diff(out.vertices, axis=0)
        assert np.allclose(np.hypot(*steps.T), 1.0)

    def test_closed_count(self):
        out = resample_polyline(square(), 0.5)
        assert out.vertices.shape[0] == 16  # perimeter 8 / 0.5

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            resample_polyline(square(), 0.0)


class TestDecompose:
    def test_square_counts(self):
        elements = decompose([square()])
        segs = [e for e in elements if e.kind == SEGMENT]
        pts = [e for e in elements if e.kind == POINT]
        assert len(segs) == 4 and len(pts) == 4

    def test_open_polyline_counts(self):
        f = ContourFragment(0, np.array([[0., 0.], [1., 1.], [2., 0.]]))
        elements = decompose([f])
        assert sum(e.kind == SEGMENT for e in elements) == 2
        assert sum(e.kind == POINT for e in elements) == 3

    def test_adjacency_symmetric(self):
        elements = decompose([square()])
        for e in elements:
            for other in e.adjacency:
                assert e.id in elements[other].adjacency

    def test_segment_endpoint_adjacency(self):
        elements = decompose([square()])
        for e in elements:
            if e.kind == SEGMENT:
                neighbors = {elements[i].kind for i in e.adjacency}
                assert POINT in neighbors

    def test_ids_are_positions(self):
        elements = decompose([square()])
        assert [e.id for e in elements] == list(range(len(elements)))


class TestCrossings:
    def test_crossing_rejected(self):
        f1 = ContourFragment(0, np.array([[0., 0.], [2., 2.]]))
        f2 = ContourFragment(1, np.array([[0., 2.], [2., 0.]]))
        with pytest.raises(InvalidInputError):
            check_no_crossings(decompose([f1, f2]))

    def test_disjoint_accepted(self):
        f1 = ContourFragment(0, np.array([[0., 0.], [1., 0.]]))
        f2 = ContourFragment(1, np.array([[0., 2.], [1., 2.]]))
        check_no_crossings(decompose([f1, f2]))

    @pytest.mark.parametrize("a, b, overlaps", [
        ((0.5, 0.0), (3.0, 0.0), True),    # partial overlap, same line
        ((3.0, 0.0), (1.5, 0.0), True),    # reversed, inside
        ((2.0, 0.0), (3.0, 0.0), False),   # shares an endpoint only
        ((2.5, 0.0), (3.0, 0.0), False),   # same line, apart
        ((0.5, 1e-6), (1.5, 1e-6), False),  # parallel, off the line
    ])
    def test_collinear_overlap(self, a, b, overlaps):
        f1 = ContourFragment(0, np.array([[0., 0.], [2., 0.]]))
        f2 = ContourFragment(1, np.array([a, b]))
        if overlaps:
            with pytest.raises(InvalidInputError, match="overlap"):
                check_no_crossings(decompose([f1, f2]))
        else:
            check_no_crossings(decompose([f1, f2]))


class TestMaskTracing:
    def test_block_traces_to_rectangle(self):
        mask = np.zeros((8, 10), dtype=bool)
        mask[2:6, 3:8] = True
        frags = trace_binary_mask(mask)
        assert len(frags) == 1
        assert frags[0].closed
        assert frags[0].vertices.shape == (4, 2)
        xs = sorted(set(frags[0].vertices[:, 0]))
        ys = sorted(set(frags[0].vertices[:, 1]))
        assert xs == [3.0, 8.0] and ys == [2.0, 6.0]

    def test_hole_produces_second_fragment(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:9, 1:9] = True
        mask[4:6, 4:6] = False
        frags = trace_binary_mask(mask)
        assert len(frags) == 2

    def test_checkerboard_corner_traces_two_loops(self):
        """Two pixels that touch at a corner trace to two closed loops
        through the shared corner, which decompose makes one point."""
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        frags = trace_binary_mask(mask)
        assert [f.vertices.shape for f in frags] == [(4, 2), (4, 2)]
        assert all(f.closed for f in frags)
        corners = [{tuple(v) for v in f.vertices.tolist()} for f in frags]
        assert corners[0] & corners[1] == {(2.0, 2.0)}
        elements = decompose(frags)
        assert sum(e.kind == POINT for e in elements) == 7
        assert sum(e.kind == SEGMENT for e in elements) == 8

    def test_uniform_masks_empty(self):
        assert trace_binary_mask(np.zeros((4, 4), dtype=bool)) == []
        assert trace_binary_mask(np.ones((4, 4), dtype=bool)) == []


class TestSceneText:
    def test_round_trip(self):
        f = ContourFragment(0, np.array([[0.25, 0.5], [1.75, 0.5]]))
        text = format_scene_text(10, 20, [f, square(1)])
        w, h, frags = parse_scene_text(text)
        assert (w, h) == (10, 20)
        assert len(frags) == 2
        assert np.array_equal(frags[0].vertices, f.vertices)
        assert frags[1].closed

    def test_missing_header(self):
        with pytest.raises(InvalidInputError):
            parse_scene_text("fragment 0 open\nv 0 0\nv 1 1\n")

    def test_bad_directive(self):
        with pytest.raises(InvalidInputError):
            parse_scene_text("scene 10 10\nbogus\n")
