import copy
import math

import numpy as np
import pytest

from shockgraph.bisectors import ParabolaBisector
from shockgraph.errors import StructuralError
from shockgraph.graph import (DEGENERATE, JUNCTION, REGULAR, SEMIDEGENERATE,
                              SINK, SOURCE, LinkArrays, Piece, ShockNode,
                              classify_node, contact_samples, link_area)
from shockgraph.scenes import random_scene, rectangle_fragment

from conftest import build_scene


class TestStructure:
    def test_validate_passes(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        graph.validate()

    def test_ids_are_positions(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        assert [n.id for n in graph.nodes] == list(range(len(graph.nodes)))
        assert [ln.id for ln in graph.links] == list(range(len(graph.links)))

    def test_incident_lists_consistent(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        for nd in graph.nodes:
            for lid, out in zip(nd.link_ids, nd.outgoing):
                ln = graph.links[lid]
                assert (ln.from_node if out else ln.to_node) == nd.id


@pytest.fixture(scope="module")
def pruned_random6():
    frags, img = random_scene(6, 0)
    graph, _, _, _ = build_scene(frags, img.xmax - img.xmin,
                                 img.ymax - img.ymin, lam=1.0)
    return graph


def _reverse_rising_link(graph):
    ln = max(graph.links, key=lambda ln: ln.radius_to - ln.radius_from)
    ln.pieces = [Piece(p.bisector, p.t1, p.t0) for p in reversed(ln.pieces)]


def _junction(graph):
    """A degree-3 junction that no self-loop touches."""
    return next(nd for nd in graph.nodes
                if nd.label == JUNCTION and nd.degree == 3
                and all(graph.links[lid].from_node != graph.links[lid].to_node
                        for lid in nd.link_ids))


def _cut_junction(graph):
    nd = _junction(graph)
    del nd.link_ids[-1], nd.outgoing[-1]


def _empty_junction(graph):
    nd = _junction(graph)
    nd.link_ids, nd.outgoing, nd.label = [], [], ""


def _past_the_nodes(graph):
    graph.links[0].to_node = len(graph.nodes)


def _bump_radius(graph):
    _junction(graph).radius += 1.0


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_past_the_nodes, "dangling node reference", id="dangling"),
    pytest.param(_reverse_rising_link, "time decreases along flow",
                 id="time-decreases"),
    pytest.param(_cut_junction, "junction with degree 2", id="junction-2"),
    pytest.param(_bump_radius, "radius mismatch", id="radius-mismatch"),
    pytest.param(_empty_junction, "isolated", id="isolated")])
def test_validate_rejects_each_invariant(pruned_random6, corrupt, message):
    """validate passes on the pruned graph and raises on a copy broken in
    one invariant."""
    pruned_random6.validate()
    graph = copy.deepcopy(pruned_random6)
    corrupt(graph)
    with pytest.raises(StructuralError, match=message):
        graph.validate()


class TestLabels:
    def test_node_labels(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        labels = {nd.label for nd in graph.nodes}
        assert labels <= {SOURCE, SINK, JUNCTION}
        # the two interior axis endpoints are degree-3 junction sources
        for nd in graph.nodes:
            assert nd.label == classify_node(nd)

    def test_link_labels(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        assert {ln.label for ln in graph.links} <= {
            REGULAR, SEMIDEGENERATE, DEGENERATE}
        # the central axis segment of a rectangle runs between two edges
        central = min(graph.links,
                      key=lambda ln: np.hypot(*ln.sample_points(3)[1]))
        assert central.label == REGULAR

    def test_isolated_node_rejected(self):
        with pytest.raises(StructuralError):
            classify_node(ShockNode(0, (0.0, 0.0), 1.0))


class TestGeometry:
    def test_radii_match_endpoints(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        for ln in graph.links:
            assert np.isclose(ln.radius_from,
                              graph.nodes[ln.from_node].radius, atol=1e-6)
            assert np.isclose(ln.radius_to,
                              graph.nodes[ln.to_node].radius, atol=1e-6)

    def test_monotone_radius_along_link(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        for ln in graph.links:
            rr = ln.sample_radii(64)
            d = np.diff(rr)
            assert (d >= -1e-9).all() or (d <= 1e-9).all()

    def test_samples_uniform_in_arc_length(self, rectangle_scene):
        # a parabola's parameter is not arc length, so these links show
        # whether sampling maps arc length back to the parameter
        graph, _, _, _ = rectangle_scene
        links = [ln for ln in graph.links
                 if any(isinstance(p.bisector, ParabolaBisector)
                        for p in ln.pieces)]
        assert links
        for ln in links:
            chords = np.hypot(*np.diff(ln.sample_points(65), axis=0).T)
            assert np.isclose(chords.sum(), ln.length, rtol=1e-4, atol=0.0)
            assert chords.max() <= 1.01 * chords.min()

    def test_sample_points_endpoints(self, rectangle_scene):
        graph, _, _, _ = rectangle_scene
        for ln in graph.links:
            pts = ln.sample_points(9)
            assert np.allclose(pts[0], graph.nodes[ln.from_node].location,
                               atol=1e-6)
            assert np.allclose(pts[-1], graph.nodes[ln.to_node].location,
                               atol=1e-6)


class TestAreas:
    def test_rectangle_interior_area_partition(self):
        # interior links of the 4 x 2 rectangle sweep the full interior
        graph, elements, _, box_fid = build_scene([rectangle_fragment()],
                                                  100, 100)
        box_ids = {e.id for e in elements if e.fragment_id == box_fid}
        interior = 0.0
        for ln in graph.links:
            mid = ln.sample_points(3)[1]
            if -2 < mid[0] < 2 and -1 < mid[1] < 1:
                interior += link_area(ln)
        assert np.isclose(interior, 8.0, atol=1e-6)

    def test_areas_nonnegative(self, rectangle_scene):
        # the areas of all links, computed together, equal each link's own
        graph, _, _, _ = rectangle_scene
        for ln in graph.links:
            assert graph.link_arrays.area[ln.id] >= -1e-12
            assert graph.link_arrays.area[ln.id] == link_area(ln)


class TestContactSamples:
    def test_contacts_lie_on_generators(self):
        frags, img = random_scene(6, 9)
        graph, elements, _, _ = build_scene(
            frags, img.xmax - img.xmin, img.ymax - img.ymin)
        pts = contact_samples(graph, per_link=8)
        assert pts.ndim == 2 and pts.shape[1] == 2
        assert np.isfinite(pts).all()


def _scalar_reference(link, n):
    """One link's sample points and radii at n samples uniform in arc
    length, each side's contact-chord length and each end's phi, by a loop
    over its pieces through the scalar bisector forms."""
    cum = np.concatenate([[0.0], np.cumsum([p.length for p in link.pieces])])
    us = np.linspace(0.0, link.length, n)
    idx = np.clip(np.searchsorted(cum, us, side="right") - 1,
                  0, len(link.pieces) - 1)
    pts, radii = np.empty((n, 2)), np.empty(n)
    for i in np.unique(idx):
        p, m = link.pieces[i], idx == i
        ts = p.bisector.t_of_s(p.s0 + p.direction * (us[m] - cum[i]))
        pts[m], radii[m] = p.bisector.point(ts), p.bisector.radius(ts)
    chords = [0.0, 0.0]
    for p in link.pieces:
        for side in (0, 1):
            c0, c1 = p.contacts(p.t0)[side], p.contacts(p.t1)[side]
            chords[side] += math.hypot(c1[0] - c0[0], c1[1] - c0[1])
    phi = [math.acos(min(1.0, max(-1.0, -link.end(out).dradius())))
           for out in (True, False)]
    return pts, radii, np.array(chords), np.array(phi)


@pytest.mark.parametrize("seed", [5, 9])
def test_link_arrays_match_one_link_and_the_scalar_forms(seed):
    """Every attribute of a link has the same bits whether its link arrays
    hold the whole graph or that link alone, and the ones with scalar
    forms match a per-piece loop over them."""
    graph, _, _, _ = build_scene(random_scene(12, seed)[0], 100, 100,
                                 lam=0.0)
    whole = LinkArrays(graph.links)

    def bits(arrays, j):
        ends = np.stack(arrays.ends[:4])[:, j]
        return [a.tobytes() for a in (
            arrays.points(16)[j], arrays.radii(16)[j],
            arrays.boundary_length[j], arrays.ends[1][j],
            arrays.points(5)[j], arrays.contacts(4)[j],
            arrays.curvature_samples[j], arrays.curvature[j],
            np.float64(arrays.area[j]), ends, arrays.ends[4][j])]

    for ln in graph.links:
        assert ln.length > 0.0
        got = bits(whole, ln.id)
        assert got == bits(LinkArrays([ln]), 0), ln.id
        assert got[:4] == [a.tobytes() for a in _scalar_reference(ln, 16)]
    # a straight piece run in -t has curvature -0.0 along the flow
    piece, _ = whole.samples(16)
    straight = np.array([not isinstance(p.bisector, ParabolaBisector)
                         for ln in graph.links for p in ln.pieces])[piece]
    backward = whole.direction[piece][straight] < 0
    kappa = whole.curvature_samples.ravel()[straight]
    assert backward.any() and not backward.all()
    assert (kappa == 0.0).all()
    assert np.array_equal(np.signbit(kappa), backward)
