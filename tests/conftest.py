import pytest
from hypothesis import settings

from shockgraph import engine
from shockgraph.contours import decompose
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box, prune
from shockgraph.scenes import rectangle_fragment

# Property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def build_scene(fragments, width, height, lam=None):
    """Full pipeline on a list of fragments inside a width x height image.

    Returns (graph, elements, box rect, box fragment id); prunes at lam when
    one is given.
    """
    frags, rect, box_fid = augment_with_box(list(fragments), width, height)
    elements = decompose(frags)
    graph = build_graph(engine.run(elements, rect), elements,
                        scene=(width, height))
    if lam is not None:
        graph = prune(graph, elements, lam=lam, box_fragment_id=box_fid)
    return graph, elements, rect, box_fid


@pytest.fixture(scope="session")
def rectangle_scene():
    return build_scene([rectangle_fragment()], 100, 100)
