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
        (0.0, False): "7779d1affcb37ccd252227edb922c1a7"
                      "f95aa70c331b3deeeda58bc654ee9045",
        (0.0, True): "207f9ce10aa695d13aa77df35f1269c4"
                     "89903f83aec7fbd70e823bf85ba25388",
        (1.0, False): "a6dd0cba5328887a7a673ab648d7aa4c"
                      "a324c588fe006ca433eb90223a07732b",
        (1.0, True): "aa51b31d0aa47072e648503669116b07"
                     "963f01ff6c650354be2686d7bade946b",
        (2.0, False): "ade3381f11005c3f397f317af3afd6f0"
                      "6b6a70dca3df35a6f2efeb8e3f4775a3",
        (2.0, True): "1679a3e2006bf7fa694cb662893b090f"
                     "ddd473ae0e9319eca36f0bc317935d20",
    },
    12: {
        (0.0, False): "4b42e935854cf1b3d9ccd34405d90baf"
                      "de664e3d8fe13d686d76cec4a14d54f4",
        (0.0, True): "bec90b4d00a05983414395457a601192"
                     "7e44b24fec7e32c30257324ecf434dc7",
        (1.0, False): "9e49586f4b5e04b284715085fda9e7b4"
                      "1eb1b7bb671de39027ae5dadd3c19fd4",
        (1.0, True): "584c84ac0062ad5b0603f4322f1479a7"
                     "3addea7ee411ea00941c784017ec2e07",
        (2.0, False): "bc86448feeb07a4a560ff6bf52a09ff4"
                      "853b6deb250d13a01e4d4038a4e40c28",
        (2.0, True): "6ce5612f4c94d686cbfe13dcb2cc0b7d"
                     "ba87c1136285c3e1b4eaa95c192ae0c2",
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
