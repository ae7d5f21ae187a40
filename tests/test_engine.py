import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from shockgraph import engine
from shockgraph.contours import (POINT, SEGMENT, BoundaryElement,
                                 check_no_crossings, decompose,
                                 parse_scene_text)
from shockgraph.errors import NonterminationError
from shockgraph.geometry import Rect
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box
from shockgraph.scenes import LCG, rectangle_fragment, random_scene


def _rectangle_setup():
    frags, rect, _ = augment_with_box([rectangle_fragment()], 100, 100)
    elements = decompose(frags)
    check_no_crossings(elements)
    return elements, rect


class TestEnumeration:
    def test_candidate_count_and_stats(self):
        elements, rect = _rectangle_setup()
        raw = engine.run(elements, rect)
        assert raw.stats["candidates"] > 0
        assert raw.stats["realized"] >= 1
        assert raw.stats["discarded"] >= 0
        assert raw.stats["events"] > 0
        assert raw.stats["sweep_truncations"] == 0
        assert raw.stats["nodes"] == len(raw.nodes)
        assert raw.stats["links"] == len(raw.links)

    def test_rectangle_axis_sources(self):
        # the interior medial axis starts at the two deepest points (+-1, 0)
        elements, rect = _rectangle_setup()
        raw = engine.run(elements, rect)
        locs = np.array([n.location for n in raw.nodes])
        for want in ((1.0, 0.0), (-1.0, 0.0)):
            d = np.hypot(locs[:, 0] - want[0], locs[:, 1] - want[1])
            assert d.min() <= 1e-6


class TestLinks:
    def test_links_reference_existing_nodes(self):
        elements, rect = _rectangle_setup()
        raw = engine.run(elements, rect)
        for ln in raw.links:
            assert 0 <= ln.node_from < len(raw.nodes)
            assert 0 <= ln.node_to < len(raw.nodes)

    def test_link_endpoints_on_bisector(self):
        elements, rect = _rectangle_setup()
        raw = engine.run(elements, rect)
        for ln in raw.links:
            p0 = np.asarray(ln.bisector.point(ln.t_from))
            p1 = np.asarray(ln.bisector.point(ln.t_to))
            n0 = np.asarray(raw.nodes[ln.node_from].location)
            n1 = np.asarray(raw.nodes[ln.node_to].location)
            assert np.hypot(*(p0 - n0)) <= 1e-6
            assert np.hypot(*(p1 - n1)) <= 1e-6


class TestBudget:
    def test_tiny_budget_raises(self):
        elements, rect = _rectangle_setup()
        with pytest.raises(NonterminationError):
            engine.run(elements, rect, event_budget=3)

    def test_diagnostics_attached(self):
        elements, rect = _rectangle_setup()
        try:
            engine.run(elements, rect, event_budget=3)
        except NonterminationError as exc:
            assert exc.diagnostics


class TestDeterminism:
    def test_repeat_runs_identical(self):
        frags, img = random_scene(8, 3)
        frags, rect, _ = augment_with_box(frags, img[0], img[1]) \
            if isinstance(img, tuple) else augment_with_box(
                frags, img.xmax - img.xmin, img.ymax - img.ymin)
        elements = decompose(frags)
        check_no_crossings(elements)
        a = engine.run(elements, rect)
        b = engine.run(elements, rect)
        assert a.stats == b.stats
        for na, nb in zip(a.nodes, b.nodes):
            assert na.location == nb.location


class TestBarePoints:
    """Point sources with no bounding box: the kd-tree holds fewer samples
    than the candidate prefilter's 8-neighbour query."""

    @staticmethod
    def _run(points):
        elements = [BoundaryElement(i, POINT, p, i)
                    for i, p in enumerate(points)]
        raw = engine.run(elements, Rect(-10, -10, 10, 10))
        return raw, build_graph(raw, elements)

    def test_two_points(self):
        raw, graph = self._run([(-1.0, 0.0), (1.0, 0.0)])
        assert (len(raw.nodes), len(raw.links)) == (3, 2)
        assert (len(graph.nodes), len(graph.links)) == (3, 2)

    def test_three_points_meet_at_circumcentre(self):
        raw, graph = self._run([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)])
        assert (len(raw.nodes), len(raw.links)) == (7, 6)
        assert (len(graph.nodes), len(graph.links)) == (7, 6)
        centre = [nd for nd in graph.nodes
                  if math.hypot(nd.location[0] - 2.0,
                                nd.location[1] - 5.0 / 6.0) <= 1e-9]
        assert len(centre) == 1
        assert centre[0].label == "Sink" and centre[0].degree == 3
        assert abs(centre[0].radius - 13.0 / 6.0) <= 1e-9


def _scan_distances(elements, q):
    """Open and closed distance from q to every element by a direct scan:
    the open distance of a segment is +inf unless the perpendicular foot is
    strictly interior; the closed distance clamps the foot to the ends."""
    n = len(elements)
    open_d, closed_d = np.empty(n), np.empty(n)
    for e in elements:
        if e.kind == POINT:
            d = math.hypot(q[0] - e.geometry[0], q[1] - e.geometry[1])
            open_d[e.id] = closed_d[e.id] = d
            continue
        a, b = np.asarray(e.geometry, dtype=float)
        ab, aq = b - a, np.asarray(q) - a
        t = float(aq @ ab) / float(ab @ ab)
        foot = a + min(max(t, 0.0), 1.0) * ab
        closed_d[e.id] = math.hypot(q[0] - foot[0], q[1] - foot[1])
        open_d[e.id] = closed_d[e.id] if 0.0 < t < 1.0 else math.inf
    return open_d, closed_d


def _corpus_elements():
    text = resources.files("shockgraph.corpus").joinpath(
        "rectangle.scene").read_text()
    width, height, frags = parse_scene_text(text)
    frags, rect, _ = augment_with_box(frags, width, height)
    return decompose(frags), rect


def _hundred_elements():
    frags, _ = random_scene(100, 101, width=160.0, height=160.0)
    frags, rect, _ = augment_with_box(frags, 160, 160)
    return decompose(frags), rect


@pytest.mark.parametrize("scene, n_elements", [
    pytest.param(_corpus_elements, 16, id="corpus-rectangle"),
    pytest.param(_hundred_elements, 485, id="hundred")])
def test_proximity_queries_match_full_scan(scene, n_elements):
    """The kd-tree queries of ElementSet return what a scan of every
    element returns, at random query points, radii and excluded pairs."""
    elements, rect = scene()
    assert len(elements) == n_elements
    eset = engine.ElementSet(elements)
    rng = LCG(7)
    span = max(rect.xmax - rect.xmin, rect.ymax - rect.ymin)
    found = 0
    for _ in range(300):
        q = (rng.uniform(rect.xmin, rect.xmax), rng.uniform(rect.ymin, rect.ymax))
        excl = (rng.randint(0, n_elements - 1), rng.randint(0, n_elements - 1))
        open_d, closed_d = _scan_distances(elements, q)
        open_d[list(excl)] = closed_d[list(excl)] = math.inf
        assert eset.min_third(q, excl) == pytest.approx(open_d.min(),
                                                        rel=1e-12, abs=1e-12)
        # a random radius, and radii that just reach the nearest element,
        # whose closest point usually lies between two kd-tree samples
        for radius in (rng.uniform(0.0, 0.15 * span), open_d.min() + 1e-9,
                       closed_d.min() + 1e-9):
            near = [int(i) for i in np.nonzero(open_d <= radius)[0]]
            assert eset.near_elements(q, radius, excl) == near
            assert eset.closed_near(q, radius, excl) == \
                [int(i) for i in np.nonzero(closed_d <= radius)[0]]
            assert eset.any_closer(q, radius, excl) == \
                bool((open_d < radius).any())
            found += len(near)
    assert found > 100  # the radii reach elements, not only empty discs


def _bare_points(points):
    return ([BoundaryElement(i, POINT, p, i) for i, p in enumerate(points)],
            Rect(-10, -10, 10, 10))


def _candidate_pass(elements, rect, budget, monkeypatch):
    monkeypatch.setattr(engine, "_PAIR_BUDGET", budget)
    eng = engine.Engine(elements, rect)
    valid = eng._valid_candidates()
    return valid, eng.stats["candidates"], eng.stats["discarded"]


@pytest.mark.parametrize("scene", [
    pytest.param(_corpus_elements, id="corpus-rectangle"),
    pytest.param(_hundred_elements, id="hundred"),
    pytest.param(lambda: _bare_points([(-1.0, 0.0), (1.0, 0.0)]),
                 id="two-points"),
    pytest.param(lambda: _bare_points([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]),
                 id="three-points")])
def test_streamed_candidates_match_one_block(scene, monkeypatch):
    """The candidate pass gives the same sorted valid list and the same
    candidates/discarded totals whatever its block size: one block of all
    rows, the default budget, 7-row blocks (a ragged last block) and 1-row
    blocks."""
    elements, rect = scene()
    n = len(elements)
    whole = _candidate_pass(elements, rect, n * n, monkeypatch)
    assert whole[0] and whole[1] == len(whole[0]) + whole[2]
    for budget in (engine._PAIR_BUDGET, 7 * n, 1):
        assert _candidate_pass(elements, rect, budget, monkeypatch) == whole


def test_root_cache_keeps_the_branch_hull():
    """A clip box that cuts out a parabola's vertex splits its branch into
    two pieces with one cache entry.  Whichever piece asks first, the cached
    roots are the untrimmed finite roots inside the hull of both pieces'
    domains, in the same order."""
    others = [(7.0, 3.0), (-8.0, 4.0), (1.0, 9.0), (3.0, 4.5), (-3.0, 5.0),
              (-6.0, 1.0), (1.5, 0.8)]
    elements = [BoundaryElement(0, POINT, (0.0, 2.0), 0),
                BoundaryElement(1, SEGMENT, ((-5.0, 0.0), (5.0, 0.0)), 1)]
    elements += [BoundaryElement(i, POINT, p, i)
                 for i, p in enumerate(others, start=2)]
    clip = Rect(-10.0, 2.0, 10.0, 10.0)  # the vertex (0, 1) lies below it
    for first in (0, 1):
        eng = engine.Engine(elements, clip)
        pieces = eng._bisectors(0, 1)
        assert len(pieces) == 2
        assert pieces[0].branch_key == pieces[1].branch_key
        lo, hi = pieces[0].t_lo, pieces[1].t_hi
        assert pieces[0].t_hi < pieces[1].t_lo
        params, ids = eng._crossing_params(pieces[first])
        finite = np.isfinite(params)
        order = np.argsort(params[finite], kind="stable")
        full, full_ids = params[finite][order], ids[finite][order]
        hull = (full >= lo) & (full <= hi)
        # roots beyond the hull, in both pieces, and in the gap between
        assert not hull.all()
        for a, b in ((lo, pieces[0].t_hi), (pieces[0].t_hi, pieces[1].t_lo),
                     (pieces[1].t_lo, hi)):
            assert ((full > a) & (full < b)).any()
        got, got_ids = eng._crossings(pieces[first])
        assert got.tolist() == full[hull].tolist()
        assert got_ids.tolist() == full_ids[hull].tolist()
        assert eng._crossings(pieces[1 - first]) is \
            eng._root_cache[pieces[0].branch_key]


def test_candidate_pass_memory_slope():
    """The candidate pass's traced peak memory grows slower than the
    element-pair count: log-log slope <= 1.5 against the element count, on
    random scenes at the density of the 100-fragment 160x160 scene (all
    pairs in memory at once would give a slope near 2)."""
    counts, peaks = [], []
    for n_frag in (100, 200, 400):
        size = 160.0 * math.sqrt(n_frag / 100)
        frags, _ = random_scene(n_frag, 101, width=size, height=size)
        frags, rect, _ = augment_with_box(frags, size, size)
        elements = decompose(frags)
        eng = engine.Engine(elements, rect)
        tracemalloc.start()
        try:
            eng._valid_candidates()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append(len(elements))
    assert counts == [485, 929, 1895]
    slope = float(np.polyfit(np.log(counts), np.log(peaks), 1)[0])
    assert slope <= 1.5, f"candidate-pass peak memory slope {slope:.2f}"
