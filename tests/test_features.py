import dataclasses

import numpy as np
import pytest

from shockgraph import graph as graph_module
from shockgraph.errors import FeatureOverflowError
from shockgraph.export import to_document
from shockgraph.features import FEATURE_LENGTH, PREFIX_LENGTH, graph_features
from shockgraph.graph import NODE_LABEL_CODES
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

    def test_overflow_above_degree_four(self, scene, monkeypatch):
        """A node above degree 4 raises before any link is evaluated."""
        graph, _, _, _ = scene
        nodes = [dataclasses.replace(nd, link_ids=list(nd.link_ids),
                                     outgoing=list(nd.outgoing))
                 for nd in graph.nodes]
        nd = next(nd for nd in nodes if nd.degree == 3)
        nd.link_ids += nd.link_ids[:2]
        nd.outgoing += nd.outgoing[:2]
        evaluated = []
        monkeypatch.setattr(graph_module, "LinkArrays", evaluated.append)
        with pytest.raises(FeatureOverflowError,
                           match=f"node {nd.id}: degree 5"):
            graph_features(dataclasses.replace(graph, nodes=nodes))
        assert evaluated == []


class TestEdgeVectors:
    def test_eight_entries(self, scene):
        graph, _, _, _ = scene
        _, ef = graph_features(graph)
        assert ef.shape == (len(graph.links), 8)
        assert np.isfinite(ef).all()

    def test_length_entry_positive(self, scene):
        graph, _, _, _ = scene
        _, ef = graph_features(graph)
        assert (ef[:, 0] > 0.0).all()


class TestGraphFeatures:
    def test_matrix_shapes(self, scene):
        graph, _, _, _ = scene
        nf, ef = graph_features(graph)
        assert nf.shape == (len(graph.nodes), FEATURE_LENGTH)
        assert ef.shape == (len(graph.links), 8)

    def test_links_evaluated_once(self, scene, monkeypatch):
        """graph_features, and to_document after it, evaluate each link of
        the graph once."""
        graph, _, _, _ = scene
        graph = dataclasses.replace(graph)  # no link arrays computed yet
        evaluated = []
        arrays = graph_module.LinkArrays

        def counted(links):
            evaluated.extend(ln.id for ln in links)
            return arrays(links)

        monkeypatch.setattr(graph_module, "LinkArrays", counted)
        graph_features(graph)
        to_document(graph, 100.0, 100.0, 1.0, 2.0)
        assert sorted(evaluated) == list(range(len(graph.links)))


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
