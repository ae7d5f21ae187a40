import numpy as np
import pytest

from shockgraph import features
from shockgraph.errors import FeatureOverflowError
from shockgraph.features import (FEATURE_LENGTH, PREFIX_LENGTH, edge_features,
                                 graph_features, node_features)
from shockgraph.graph import NODE_LABEL_CODES, ShockNode
from shockgraph.scenes import random_scene, square_fragment

from conftest import build_scene


@pytest.fixture(scope="module")
def scene():
    frags, img = random_scene(12, 5)
    return build_scene(frags, img.xmax - img.xmin, img.ymax - img.ymin,
                       lam=1.0)


class TestNodeVectors:
    def test_length_and_padding(self, scene):
        graph, _, _, _ = scene
        nf, _ = graph_features(graph)
        for nd in graph.nodes:
            assert np.all(nf[nd.id, PREFIX_LENGTH[max(nd.degree, 2)]:] == 0.0)

    def test_prefix_lengths(self):
        assert PREFIX_LENGTH == {2: 28, 3: 43, 4: 56}

    def test_header_entries(self, scene):
        graph, _, _, _ = scene
        nf, _ = graph_features(graph)
        for nd in graph.nodes:
            v = nf[nd.id]
            assert np.allclose(v[:2], nd.location)
            assert v[2] == nd.radius
            assert v[3] == NODE_LABEL_CODES[nd.label]

    def test_overflow_above_degree_four(self):
        nd = ShockNode(0, (0.0, 0.0), 1.0, label="Junction",
                       link_ids=[0, 1, 2, 3, 4],
                       outgoing=[True] * 5)
        with pytest.raises(FeatureOverflowError):
            node_features(nd, None, None)


class TestEdgeVectors:
    def test_eight_entries(self, scene):
        graph, _, _, _ = scene
        for ln in graph.links:
            ev = edge_features(ln)
            assert ev.shape == (8,)
            assert np.isfinite(ev).all()

    def test_length_entry_positive(self, scene):
        graph, _, _, _ = scene
        for ln in graph.links:
            assert edge_features(ln)[0] > 0.0


class TestGraphFeatures:
    def test_matrix_shapes(self, scene):
        graph, _, _, _ = scene
        nf, ef = graph_features(graph)
        assert nf.shape == (len(graph.nodes), FEATURE_LENGTH)
        assert ef.shape == (len(graph.links), 8)

    def test_edge_vectors_built_once(self, scene, monkeypatch):
        """graph_features builds each link's edge vector once."""
        graph, _, _, _ = scene
        built = []

        def counted(link):
            built.append(link.id)
            return edge_features(link)

        monkeypatch.setattr(features, "edge_features", counted)
        graph_features(graph)
        assert sorted(built) == list(range(len(graph.links)))


class TestNodeDescriptor:
    """theta, phi and the plus-side contact point of every incident link,
    read back from the populated slots of the node vector."""

    @pytest.fixture(scope="class", params=[5, 9, "square"])
    def graphs(self, request):
        """The scene raw and at lambda 0 and 1: random_scene(12, seed), or
        a square, whose centre is a degree-4 junction."""
        if request.param == "square":
            frags, size = [square_fragment()], 10.0
        else:
            frags, size = random_scene(12, request.param)[0], 100.0
        return [build_scene(frags, size, size, lam=lam)[0]
                for lam in (None, 0.0, 1.0)]

    @staticmethod
    def check_node(nd, v):
        d, p = nd.degree, max(nd.degree, 2)
        thetas = v[4:4 + d]
        phis = v[4 + p:4 + p + d]
        assert np.all(np.diff(thetas) >= 0.0)
        assert np.all((phis >= 0.0) & (phis <= np.pi))
        # (x, y, tangent) triples of the contact points whose x and y both
        # fit in the node block (degree 2 truncates the second)
        block = PREFIX_LENGTH[p] - 8 * p
        for j in range(4 + 2 * p, block - 1, 3)[:d]:
            dist = np.hypot(v[j] - nd.location[0], v[j + 1] - nd.location[1])
            assert abs(dist - nd.radius) <= 1e-9 * max(1.0, nd.radius)

    def test_theta_phi_contact(self, graphs):
        degrees = set()
        for graph in graphs:
            nf, _ = graph_features(graph)
            for nd in graph.nodes:
                if nd.degree:
                    degrees.add(nd.degree)
                    self.check_node(nd, nf[nd.id])
        assert {1, 3} <= degrees
