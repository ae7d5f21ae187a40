import numpy as np
import pytest

from shockgraph.contours import ContourFragment
from shockgraph.errors import InvalidInputError
from shockgraph.regularize import augment_with_box, prune
from shockgraph.scenes import rectangle_fragment, regular_polygon_fragment

from conftest import build_scene


class TestBox:
    def test_geometry(self):
        frags, rect, fid = augment_with_box([rectangle_fragment()], 10, 8,
                                            scale=2.0)
        assert (rect.xmin, rect.ymin, rect.xmax, rect.ymax) == (-5, -4, 15, 12)
        box = frags[-1]
        assert box.id == fid and box.closed
        assert box.vertices.shape == (4, 2)

    def test_scale_must_exceed_one(self):
        with pytest.raises(InvalidInputError):
            augment_with_box([rectangle_fragment()], 10, 10, scale=1.0)

    def test_fragment_outside_box_rejected(self):
        f = ContourFragment(0, np.array([[-100., 0.], [0., 0.]]))
        with pytest.raises(InvalidInputError):
            augment_with_box([f], 10, 10)


class TestPrune:
    def test_negative_lambda_rejected(self, rectangle_scene):
        graph, elements, _, box_fid = rectangle_scene
        with pytest.raises(ValueError):
            prune(graph, elements, lam=-1.0, box_fragment_id=box_fid)

    def test_lambda_zero_keeps_core(self):
        graph, elements, _, box_fid = build_scene([rectangle_fragment()],
                                                  100, 100)
        pruned = prune(graph, elements, lam=0.0, box_fragment_id=box_fid)
        assert 0 < len(pruned.links) <= len(graph.links)
        pruned.validate()

    def test_drop_box_links_removes_box_shocks(self):
        graph, elements, _, box_fid = build_scene([rectangle_fragment()],
                                                  100, 100)
        pruned = prune(graph, elements, lam=0.0, drop_box_links=True,
                       box_fragment_id=box_fid)
        box_ids = {e.id for e in elements if e.fragment_id == box_fid}
        for ln in pruned.links:
            gens = (set(ln.boundary_plus.generators)
                    | set(ln.boundary_minus.generators))
            assert not gens <= box_ids

    def test_polygon_collapses_to_center(self):
        graph, elements, _, box_fid = build_scene(
            [regular_polygon_fragment(64)], 100, 100, lam=1.0)
        central = [nd for nd in graph.nodes
                   if np.hypot(*nd.location) <= 0.05]
        assert central
        assert all(abs(nd.radius - 1.0) <= 0.05 for nd in central)

    def test_idempotent(self):
        graph, elements, _, box_fid = build_scene([rectangle_fragment()],
                                                  100, 100)
        once = prune(graph, elements, lam=1.0, box_fragment_id=box_fid)
        twice = prune(once, elements, lam=1.0, box_fragment_id=box_fid)
        assert len(once.links) == len(twice.links)
        assert len(once.nodes) == len(twice.nodes)
