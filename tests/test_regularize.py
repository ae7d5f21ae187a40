import hashlib

import numpy as np
import pytest

from shockgraph.contours import ContourFragment
from shockgraph.errors import InvalidInputError
from shockgraph.regularize import augment_with_box, prune
from shockgraph.scenes import (random_scene, rectangle_fragment,
                               regular_polygon_fragment)

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
            gens = set(ln.generators(0)) | set(ln.generators(1))
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


def _prune_dump(graph) -> str:
    """sha256 of a pruned graph's structure: node labels, locations and
    radii, link ends, piece parameters, and the stats dict."""
    h = hashlib.sha256()
    for nd in graph.nodes:
        h.update(repr((nd.label, float(nd.location[0]),
                       float(nd.location[1]), float(nd.radius))).encode())
    for ln in graph.links:
        h.update(repr((ln.from_node, ln.to_node,
                       [(float(p.t0), float(p.t1)) for p in ln.pieces])
                      ).encode())
    h.update(repr(sorted(graph.stats.items())).encode())
    return h.hexdigest()


# (lambda, drop_box_links) -> _prune_dump; the scenes have leaf branches of
# several links, isolated collapse sinks and box-side links.
_PRUNE_DIGESTS = {
    6: {
        (0.0, False): "34c9cb0bec86769bff5d67ab92dd06da"
                      "90011a4c91893af6573291472f81e257",
        (0.0, True): "79a69b5e5b7d0e0ded461bd5fb9215b8"
                     "8f71ccaec76d0383e40397805c1fb20a",
        (1.0, False): "e74ff66ec48a115d112ac28e3ff3d870"
                      "4aa0540109678ed9c6b58ccb0438c04a",
        (1.0, True): "0c46cd4d7887244e1a8f89c82b089dd0"
                     "9485905340f7f49368554565664957d9",
        (2.0, False): "004648ab17e1d6bdd78941163e540340"
                      "7f8acbf20e771d965021455bcc158588",
        (2.0, True): "5e72851ea2eabe9d6c9fcb0ff4f15ec9"
                     "2e14e27d7d0f4aa132c91104171c7ff6",
    },
    12: {
        (0.0, False): "652bc8c366fd275ae50b0636d5a0f251"
                      "22c273ce483e0dcb11073997268a8186",
        (0.0, True): "1e66f878252eaef9bf3b9205bacaf53a"
                     "8a4695a79002b0a380f58a6e2de8012f",
        (1.0, False): "e40038b1d2b3586509aae18e2378ed23"
                      "2a28d980839d60e509c0b0537a27dd0d",
        (1.0, True): "b16794826c871d6f78515fb48d273787"
                     "90e9546cb49431b6b238428ecd06efb7",
        (2.0, False): "50fedb292c104ef0cfbe02202707ef48"
                      "5c7881ea5f6480c1ffb0d61f32904192",
        (2.0, True): "10ae69520f6cb2d7179352822ddd244b"
                     "0389b85f9b01eb460404e5e1440b0929",
    },
}


@pytest.mark.parametrize("n_fragments,seed", [(6, 0), (12, 9)])
def test_prune_output_is_pinned(n_fragments, seed):
    graph, elements, _, box_fid = build_scene(
        random_scene(n_fragments, seed)[0], 100, 100)
    got = {(lam, drop): _prune_dump(prune(graph, elements, lam=lam,
                                          drop_box_links=drop,
                                          box_fragment_id=box_fid))
           for lam in (0.0, 1.0, 2.0) for drop in (False, True)}
    assert got == _PRUNE_DIGESTS[n_fragments]
