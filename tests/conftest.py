import pytest
from hypothesis import settings

from shockgraph import cli
from shockgraph.regularize import prune
from shockgraph.scenes import rectangle_fragment

# Property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# the pipeline's settings in the tests: unsimplified, boxed at scale 2
UNSIMPLIFIED = cli.RunConfig(inputs=[], polyline_epsilon=0.0)


def build_scene(fragments, width, height, lam=None):
    """cli.build of fragments in a width x height image, unsimplified;
    prunes at lam when one is given."""
    graph, elements, rect, box_fid = cli.build(fragments, width, height,
                                               UNSIMPLIFIED)
    if lam is not None:
        graph = prune(graph, elements, lam=lam, box_fragment_id=box_fid)
    return graph, elements, rect, box_fid


@pytest.fixture(scope="session")
def rectangle_scene():
    return build_scene([rectangle_fragment()], 100, 100)
