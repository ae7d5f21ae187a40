import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from scipy.spatial import cKDTree

from shockgraph import engine
from shockgraph.contours import (POINT, SEGMENT, BoundaryElement,
                                 ContourFragment, check_no_crossings,
                                 decompose, parse_scene_text,
                                 simplify_polyline, trace_binary_mask)
from shockgraph.errors import NonterminationError
from shockgraph.geometry import EPS_REL, Rect
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box
from shockgraph.scenes import (LCG, random_scene, rectangle_fragment,
                               regular_polygon_fragment)

from perfbench.workloads import MASK_SHAPES


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


def _corpus_scene(name):
    text = resources.files("shockgraph.corpus").joinpath(
        name + ".scene").read_text()
    width, height, frags = parse_scene_text(text)
    return _boxed(frags, width, height)


def _boxed(frags, width, height):
    frags, rect, _ = augment_with_box(list(frags), width, height)
    return decompose(frags), rect


def _mask_scene(mask, epsilon=0.8):
    """A traced binary mask as the CLI builds it by default: contours
    simplified at epsilon (none at 0), boxed at scale 2."""
    h, w = mask.shape
    frags = trace_binary_mask(mask)
    if epsilon > 0:
        frags = [simplify_polyline(f, epsilon) for f in frags]
    return _boxed(frags, float(w), float(h))


def _masks_workload_mask(name, seed=1):
    """The named mask of the masks benchmark workload at seed."""
    rng = LCG(seed)
    return dict((n, build(rng)) for n, build in MASK_SHAPES)[name]


def _corpus_elements():
    return _corpus_scene("rectangle")


def _hundred_elements():
    return _boxed(random_scene(100, 101, width=160.0, height=160.0)[0],
                  160, 160)


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
        got = eset.open_distances(q, np.arange(n_elements))
        assert got.shape == (1, n_elements)
        assert np.isinf(got[0]).tolist() == np.isinf(open_d).tolist()
        finite = np.isfinite(open_d)
        assert got[0][finite] == pytest.approx(open_d[finite], rel=1e-12,
                                               abs=1e-12)
        open_d[list(excl)] = closed_d[list(excl)] = math.inf
        assert eset.min_third_along(
            np.array([q]), np.array([open_d.min() + 1e-9]), excl)[0] == \
            pytest.approx(open_d.min(), rel=1e-12, abs=1e-12)
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
        params, ids = eng._crossing_params(
            pieces[first], eng.eset.crossing_rows(*pieces[first].pair))
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


def _moved_random6(seed, scale, shift):
    """random_scene(6, seed) boxed in a 100x100 image, then scaled about the
    origin by scale and shifted by shift in x and y, box included."""
    frags, rect, _ = augment_with_box(random_scene(6, seed)[0], 100, 100)
    frags = [ContourFragment(f.id, scale * f.vertices + shift, f.closed)
             for f in frags]
    return decompose(frags), Rect(*(scale * v + shift for v in (
        rect.xmin, rect.ymin, rect.xmax, rect.ymax)))


@pytest.mark.parametrize("scene", [
    pytest.param(_hundred_elements, id="hundred")]
    + [pytest.param(lambda n=n: _mask_scene(_masks_workload_mask(n)),
                    id=f"mask-{n}") for n in ("disc", "ring")]
    + [pytest.param(lambda: _boxed([regular_polygon_fragment(64)], 10, 10),
                    id="64-gon")]
    + [pytest.param(lambda s=s, m=m: _moved_random6(s, *m),
                    id=f"random6-{s}-{name}")
       for s in range(5)
       for name, m in (("shift1e5", (1.0, 1e5)), ("scale1e-3", (1e-3, 0.0)),
                       ("scale1e3", (1e3, 0.0)))]
    + [pytest.param(lambda: _bare_points([(-1.0, 0.0), (1.0, 0.0)]),
                    id="two-points"),
       pytest.param(lambda: _bare_points([(0.0, 0.0), (4.0, 0.0),
                                          (2.0, 3.0)]),
                    id="three-points"),
       pytest.param(lambda: _bare_points([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0),
                                          (4.0, 0.0), (7.0, 0.0)]),
                    id="collinear-points")])
def test_cell_bound_drops_only_what_maybe_valid_drops(scene, monkeypatch):
    """Every candidate the cell bound drops, maybe_valid drops too, and the
    candidate pass keeps the valid list it gives without the bound:
    on offset, tiny and huge coordinates, on sets with fewer than three
    elements near a cell, and on a sample box of zero area."""
    elements, rect = scene()
    eng = engine.Engine(elements, rect)
    rows = max(1, engine._PAIR_BUDGET // len(elements))
    for t, x, y, g1, g2, _ in engine._candidate_blocks(elements, rows):
        locs = np.column_stack([x, y])
        dropped = eng.eset.cell_bound(locs) < t - 2e-9
        assert not (dropped & eng.eset.maybe_valid(locs, t, g1, g2)).any()
    with_bound = eng._valid_candidates()
    monkeypatch.setattr(engine.ElementSet, "cell_bound",
                        lambda self, locs: np.full(len(locs), math.inf))
    assert engine.Engine(elements, rect)._valid_candidates() == with_bound


def test_cell_bound_spares_most_sample_queries(monkeypatch):
    """On the 100-fragment 160x160 scene fewer than half of the candidates
    reach maybe_valid's kd-tree queries (22,400 of 96,169 when the bound
    was written): the rest are dropped by their cell's bound."""
    rows_queried = []
    maybe_valid = engine.ElementSet.maybe_valid

    def counted(self, locs, *args):
        rows_queried.append(len(locs))
        return maybe_valid(self, locs, *args)

    monkeypatch.setattr(engine.ElementSet, "maybe_valid", counted)
    eng = engine.Engine(*_hundred_elements())
    eng._valid_candidates()
    assert eng.stats["candidates"] == 96169
    assert sum(rows_queried) < eng.stats["candidates"] / 2


def _raw_dump(raw):
    """Every node and link field of a raw graph, and its stats but the
    crossing_rows and full_solves counters, as plain values."""
    nodes = [(n.id, n.location, n.radius, sorted(n.gen_ids),
              sorted(n.discovered)) for n in raw.nodes]
    links = [(ln.id, type(ln.bisector).__name__, ln.bisector.pair,
              ln.bisector.branch_key, ln.t_from, ln.t_to, ln.node_from,
              ln.node_to, ln.end_kind) for ln in raw.links]
    stats = {k: v for k, v in raw.stats.items()
             if k not in ("crossing_rows", "full_solves")}
    return nodes, links, stats


_FILTER_SCENES = (
    [pytest.param(lambda n=n: _corpus_scene(n), id=f"corpus-{n}")
     for n in ("pair", "rectangle", "square", "triple")]
    + [pytest.param(lambda s=s: _boxed(random_scene(6, s)[0], 100, 100),
                    id=f"random6-{s}") for s in range(20)]
    + [pytest.param(lambda k=k: _boxed([regular_polygon_fragment(k)], 10, 10),
                    id=f"{k}-gon") for k in (3, 5, 6, 8, 64)]
    + [pytest.param(lambda: _boxed(random_scene(15, 9)[0], 100, 100),
                    id="determinism"),
       pytest.param(lambda: _bare_points([(-1.0, 0.0), (1.0, 0.0)]),
                    id="two-points"),
       pytest.param(lambda: _bare_points([(0.0, 0.0), (4.0, 0.0),
                                          (2.0, 3.0)]),
                    id="three-points")]
    + [pytest.param(lambda n=n: _mask_scene(_masks_workload_mask(n)),
                    id=f"mask-{n}") for n, _ in MASK_SHAPES])


@pytest.mark.parametrize("scene", _FILTER_SCENES)
def test_neighbour_filter_matches_all_elements(scene, monkeypatch):
    """Solving each branch's crossings only against its generators'
    neighbours gives the raw graph that solving against every element
    gives, field for field, with no sweep truncation.  The table is forced
    on at every scene size; two bare points cannot be triangulated, so that
    scene takes the all-elements path either way."""
    elements, rect = scene()
    runs = {}
    for cutoff in (0, math.inf):
        monkeypatch.setattr(engine, "_NEIGHBOUR_MIN_ELEMENTS", cutoff)
        eng = engine.Engine(elements, rect)
        runs[cutoff] = (eng.run(), eng.eset._nbr is not None)
    (filtered, table), (whole, no_table) = runs[0], runs[math.inf]
    assert table == (len(elements) > 2) and not no_table
    assert _raw_dump(filtered) == _raw_dump(whole)
    assert filtered.stats["sweep_truncations"] == 0
    assert 0 < filtered.stats["crossing_rows"] <= whole.stats["crossing_rows"]


def test_touching_elements_outside_the_neighbour_rows(monkeypatch):
    """In the unsimplified trace of the ellipse mask, pixel-grid samples on
    one empty circle leave some elements touching a propagation start out
    of the neighbour rows of its generators.  Those branches are solved
    again against every element (stats["full_solves"]), and the raw graph
    equals the one solved against every element."""
    elements, rect = _mask_scene(_masks_workload_mask("ellipse"), 0.0)
    runs = {}
    for cutoff in (0, math.inf):
        monkeypatch.setattr(engine, "_NEIGHBOUR_MIN_ELEMENTS", cutoff)
        runs[cutoff] = engine.run(elements, rect)
    assert runs[0].stats["full_solves"] > 0
    assert runs[math.inf].stats["full_solves"] == 0
    assert _raw_dump(runs[0]) == _raw_dump(runs[math.inf])
    assert runs[0].stats["sweep_truncations"] == 0


@pytest.mark.parametrize("seed", [15, 23])
def test_missed_crossings_resolve_the_branch(seed, monkeypatch):
    """In these unsimplified union3 traces the neighbour rows miss a
    crossing: past the last sweep sample (seed 15), and by a rounding step
    at a co-circular junction (seed 23).  propagate solves those branches
    again against every element (stats["full_solves"]), and the raw graph
    equals the one solved against every element."""
    elements, rect = _mask_scene(_masks_workload_mask("union3", seed), 0.0)
    runs = {}
    for cutoff in (0, math.inf):
        monkeypatch.setattr(engine, "_NEIGHBOUR_MIN_ELEMENTS", cutoff)
        runs[cutoff] = engine.run(elements, rect)
    assert _raw_dump(runs[0]) == _raw_dump(runs[math.inf])
    assert runs[0].stats["full_solves"] > 0
    assert runs[math.inf].stats["full_solves"] == 0
    assert runs[0].stats["sweep_truncations"] == 0


@pytest.mark.parametrize("scene", [
    pytest.param(_hundred_elements, id="hundred"),
    pytest.param(lambda: _mask_scene(_masks_workload_mask("ring")),
                 id="mask-ring"),
    pytest.param(lambda: _boxed([regular_polygon_fragment(64)], 10, 10),
                 id="64-gon"),
    pytest.param(lambda: _boxed(random_scene(6, 18)[0], 100, 100),
                 id="random6-18")])
def test_each_junction_is_one_raw_node(scene):
    """The engine realizes each junction as one raw node: no two raw nodes
    lie within the scene-relative merge tolerance with nested generator
    sets.  stats["isolated_dropped"] counts the raw nodes with no links;
    random_scene(6, 18) has two flow-through raw nodes, which build_graph
    dissolves and does not count there."""
    elements, rect = scene()
    raw = engine.run(elements, rect)
    tol = EPS_REL * max(rect.xmax - rect.xmin, rect.ymax - rect.ymin, 1.0)
    xy = np.array([nd.location for nd in raw.nodes])
    for i, j in sorted(cKDTree(xy).query_pairs(tol)):
        gi, gj = raw.nodes[i].gen_ids, raw.nodes[j].gen_ids
        assert not (gi <= gj or gj <= gi), \
            f"raw nodes {i} and {j} are one junction"
    linked = {ln.node_from for ln in raw.links} \
        | {ln.node_to for ln in raw.links}
    graph = build_graph(raw, elements)
    assert graph.stats["isolated_dropped"] == len(raw.nodes) - len(linked)


def _cluster_above_a_long_segment():
    """random_scene(6, 1) scaled by 0.01 about the origin and shifted 150 px
    right and so far down that its lowest vertex lies 0.05 px above an open
    fragment from (10, 100) to (290, 100), in a 300x200 image boxed at
    scale 2."""
    frags, _ = random_scene(6, 1)
    frags = [ContourFragment(f.id, 0.01 * f.vertices, f.closed)
             for f in frags]
    low = min(f.vertices[:, 1].min() for f in frags)
    frags = [ContourFragment(f.id, f.vertices + (150.0, 100.05 - low),
                             f.closed) for f in frags]
    frags.append(ContourFragment(6, np.array([[10.0, 100.0],
                                              [290.0, 100.0]])))
    return _boxed(frags, 300, 200)


def test_valid_source_outside_the_neighbour_table(monkeypatch):
    """Candidates come from every element pair, not only from neighbour-table
    pairs: here cluster point 3 and the long segment 28 share no face of the
    table's triangulation, yet they pair in a valid source, and raw links
    105 and 106 grow from it."""
    elements, rect = _cluster_above_a_long_segment()
    assert len(elements) == 37
    assert elements[3].kind == POINT and elements[3].fragment_id == 1
    assert elements[28].kind == SEGMENT and elements[28].fragment_id == 6
    raw = engine.run(elements, rect)
    assert (len(raw.nodes), len(raw.links)) == (90, 119)
    assert [ln.id for ln in raw.links if ln.bisector.pair == (3, 28)] \
        == [105, 106]
    monkeypatch.setattr(engine, "_NEIGHBOUR_MIN_ELEMENTS", 0)
    eng = engine.Engine(elements, rect)
    assert (3, 28) in {src[2:4] for src in eng._valid_candidates()}
    assert 28 not in eng.eset._nbr[3]


@pytest.mark.parametrize("scene, stats", [
    pytest.param(_hundred_elements, {
        "elements": 485, "candidates": 96169, "discarded": 95117,
        "realized": 793, "events": 4592, "sweep_truncations": 0,
        "crossing_rows": 30024, "full_solves": 0, "nodes": 1264,
        "links": 1740}, id="hundred"),
    pytest.param(lambda: _boxed(random_scene(200, 7, width=160.0,
                                             height=160.0)[0], 160, 160), {
        "elements": 958, "candidates": 378160, "discarded": 376079,
        "realized": 1565, "events": 9233, "sweep_truncations": 0,
        "crossing_rows": 58295, "full_solves": 0, "nodes": 2619,
        "links": 3568}, id="random200-7")])
def test_engine_counters_are_pinned(scene, stats):
    """Every counter of raw.stats on two unsimplified 160x160 random scenes,
    which the pinned sgtext digests do not cover."""
    elements, rect = scene()
    assert engine.run(elements, rect).stats == stats


def test_sweep_bisection_truncates_missed_crossings(monkeypatch):
    """With element 10's crossing roots dropped, the validity sweep finds
    two links that run past a crossing and truncates them by bisection: the
    raw graph keeps every link, each end within 1e-5 of the intact run's,
    and the graph built from it is valid."""
    elements, rect = _boxed(random_scene(6, 3)[0], 100, 100)
    intact = engine.run(elements, rect)
    solve = engine.Engine._crossing_params

    def drop_element_10(self, rec, *rows):
        params, ids = solve(self, rec, *rows)
        return np.where(ids == 10, np.nan, params), ids

    monkeypatch.setattr(engine.Engine, "_crossing_params", drop_element_10)
    raw = engine.run(elements, rect)
    assert intact.stats["sweep_truncations"] == 0
    assert raw.stats["sweep_truncations"] == 2
    assert len(raw.links) == len(intact.links)
    for got, want in zip(raw.links, intact.links):
        for g_node, w_node in ((got.node_from, want.node_from),
                               (got.node_to, want.node_to)):
            g, w = raw.nodes[g_node].location, intact.nodes[w_node].location
            assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 1e-5
    build_graph(raw, elements).validate()


def test_large_mask_takes_the_filtered_path(monkeypatch):
    """A traced ring mask at twice the benchmark's size is large enough to
    build the neighbour table at the default cut-off, and gives the raw
    graph that solving against every element gives."""
    ring = dict(MASK_SHAPES)["ring"]
    elements, rect = _mask_scene(ring(LCG(1), 128, 56.0, 40.0))
    assert len(elements) == 312 >= engine._NEIGHBOUR_MIN_ELEMENTS
    eng = engine.Engine(elements, rect)
    assert eng.eset._nbr is not None
    filtered = eng.run()
    monkeypatch.setattr(engine, "_NEIGHBOUR_MIN_ELEMENTS", math.inf)
    whole = engine.run(elements, rect)
    assert _raw_dump(filtered) == _raw_dump(whole)
    assert filtered.stats["sweep_truncations"] == 0


def test_neighbour_table_reaches_coplanar_samples():
    """Qhull leaves samples that nearly coincide with another sample out of
    the triangulation.  In this scene point element 405 lies 2.2e-16 from a
    segment's end sample, so only the coplanar remap gives it neighbours;
    every element must have at least one."""
    elements, _ = _boxed(random_scene(200, 7, width=160.0,
                                      height=160.0)[0], 160, 160)
    nbr = engine.ElementSet(elements)._nbr
    assert len(nbr) == len(elements) == 958
    assert nbr[405]
    assert all(nbr)
    # the table is symmetric and holds no self-pairs
    assert all(a in nbr[b] and a != b
               for a in range(len(nbr)) for b in nbr[a])


def test_root_cache_slope():
    """The crossing roots the engine caches grow about linearly with the
    element count at a fixed scene density: log-log slope <= 1.3 on random
    scenes at the density of the 100-fragment 160x160 scene (solving every
    branch against every element gives a slope near 2)."""
    counts, roots = [], []
    for n_frag in (100, 200, 400):
        size = 160.0 * math.sqrt(n_frag / 100)
        elements, rect = _boxed(random_scene(n_frag, 101, width=size,
                                             height=size)[0], size, size)
        eng = engine.Engine(elements, rect)
        eng.run()
        counts.append(len(elements))
        roots.append(sum(len(p) for p, _ in eng._root_cache.values()))
    assert counts == [485, 929, 1895]
    slope = float(np.polyfit(np.log(counts), np.log(roots), 1)[0])
    assert slope <= 1.3, f"cached crossing roots slope {slope:.2f}: {roots}"
