import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from scipy.spatial import cKDTree

from shockgraph import cli, engine
from shockgraph.contours import (POINT, SEGMENT, BoundaryElement,
                                 ContourFragment, decompose, parse_scene_text,
                                 trace_binary_mask)
from shockgraph.errors import InvalidInputError, NonterminationError
from shockgraph.geometry import EPS_REL, Rect
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box
from shockgraph.scenes import (LCG, random_scene, rectangle_fragment,
                               regular_polygon_fragment)

from perfbench.workloads import MASK_SHAPES

from conftest import UNSIMPLIFIED


def _rectangle_setup():
    return _boxed([rectangle_fragment()], 100, 100)


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

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_raises(self, budget):
        elements, rect = _rectangle_setup()
        with pytest.raises(InvalidInputError):
            engine.run(elements, rect, event_budget=budget)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        frags, img = random_scene(8, 3)
        elements, rect = _boxed(frags, img.xmax - img.xmin,
                                img.ymax - img.ymin)
        a = engine.run(elements, rect)
        b = engine.run(elements, rect)
        assert a.stats == b.stats
        for na, nb in zip(a.nodes, b.nodes):
            assert na.location == nb.location


class TestBarePoints:
    """Point sources with no bounding box: with fewer than three elements
    every cell's bound is +inf, and every ball holds every element."""

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
    return cli.boxed_elements(frags, width, height, UNSIMPLIFIED)[:2]


def _mask_scene(mask, epsilon=0.8):
    """A traced binary mask as the CLI builds it by default: contours
    simplified at epsilon (none at 0), boxed at scale 2."""
    h, w = mask.shape
    config = cli.RunConfig(inputs=[], polyline_epsilon=epsilon)
    return cli.boxed_elements(trace_binary_mask(mask), float(w), float(h),
                              config)[:2]


def _masks_workload_mask(name, seed=1):
    """The named mask of the masks benchmark workload at seed."""
    rng = LCG(seed)
    return dict((n, build(rng)) for n, build in MASK_SHAPES)[name]


def _corpus_elements():
    return _corpus_scene("rectangle")


def _hundred_elements():
    return _boxed(random_scene(100, 101, width=160.0, height=160.0)[0],
                  160, 160)


def _hundred_moved(scale, shift):
    return _moved(random_scene(100, 101, width=160.0, height=160.0)[0],
                  160, 160, scale, shift)


@pytest.mark.parametrize("scene, n_elements", [
    pytest.param(_corpus_elements, 16, id="corpus-rectangle"),
    pytest.param(_hundred_elements, 485, id="hundred"),
    pytest.param(lambda: _hundred_moved(1e3, 0.0), 485, id="hundred-scale1e3"),
    pytest.param(lambda: _hundred_moved(1.0, 1e5), 485,
                 id="hundred-shift1e5")])
def test_proximity_queries_match_full_scan(scene, n_elements):
    """The point queries of ElementSet return what a scan of every
    element returns, at random query points, radii and excluded pairs.  The
    samples are spaced from the cell side, so this holds however the scene
    is scaled or shifted."""
    elements, rect = scene()
    assert len(elements) == n_elements
    eset = engine.ElementSet(elements, rect)
    rng = LCG(7)
    span = max(rect.xmax - rect.xmin, rect.ymax - rect.ymin)
    # the two distance formulas agree to a few ulps of the coordinates
    tol = max(1e-12, 4 * float(np.spacing(max(
        abs(rect.xmin), abs(rect.ymin), abs(rect.xmax), abs(rect.ymax)))))
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
                                               abs=tol)
        open_d[list(excl)] = closed_d[list(excl)] = math.inf
        assert eset.min_third_along(
            np.array([q]), np.array([open_d.min() + 1e-9]), excl)[0] == \
            pytest.approx(open_d.min(), rel=1e-12, abs=tol)
        # a random radius, and radii that just reach the nearest element,
        # whose closest point usually lies between two samples
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
    monkeypatch.setattr(engine.ElementSet, "TABLE_BUDGET", budget)
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
    candidates/discarded totals whatever the engine's budget, which also
    sizes the table build under it: one slice of all pairs, the default
    budget, slices of about 7 element rows (a ragged last slice), and a
    budget of 1, which takes at most one element row per slice and one
    candidate per validation gather."""
    elements, rect = scene()
    n = len(elements)
    whole = _candidate_pass(elements, rect, n * n, monkeypatch)
    assert whole[0] and whole[1] == len(whole[0]) + whole[2]
    for budget in (engine.ElementSet.TABLE_BUDGET, 7 * n, 1):
        assert _candidate_pass(elements, rect, budget, monkeypatch) == whole


@pytest.mark.parametrize("sizes, budget, most, blocks", [
    pytest.param([], 5, None, [], id="empty"),
    pytest.param([0, 0, 3, 0, 2, 0], 5, None, [(0, 6)], id="zeros-join"),
    pytest.param([2, 9, 1, 1], 4, None, [(0, 1), (1, 2), (2, 4)],
                 id="oversized-alone"),
    pytest.param([1, 1, 1, 1, 1], 10, 2, [(0, 2), (2, 4), (4, 5)],
                 id="most-caps"),
    pytest.param([1, 3, 1, 0, 2], 1, None,
                 [(0, 1), (1, 2), (2, 4), (4, 5)], id="budget-1")])
def test_blocks_tile_the_items(sizes, budget, most, blocks):
    """_blocks yields consecutive ranges that tile the items in order, each
    of at least one item, at most most items, and sizes summing within
    budget unless it is one item (zero sizes join a block)."""
    got = list(engine._blocks(np.array(sizes, dtype=int), budget, most))
    assert got == blocks
    ends = [0] + [hi for _, hi in got]
    assert [lo for lo, _ in got] == ends[:-1] and ends[-1] == len(sizes)
    for lo, hi in got:
        assert hi > lo and (most is None or hi - lo <= most)
        assert sum(sizes[lo:hi]) <= budget or hi == lo + 1


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
        params, ids = pieces[first].crossing_params(
            eng.eset.crossing_rows(*pieces[first].pair))
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
        elements, rect = _boxed(frags, size, size)
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


def _moved(frags, width, height, scale, shift):
    """frags boxed in a width x height image, then scaled about the origin
    by scale and shifted by shift in x and y, box included."""
    frags, rect, _ = augment_with_box(list(frags), width, height)
    frags = [ContourFragment(f.id, scale * f.vertices + shift, f.closed)
             for f in frags]
    return decompose(frags), Rect(*(scale * v + shift for v in (
        rect.xmin, rect.ymin, rect.xmax, rect.ymax)))


def _moved_random6(seed, scale, shift):
    """random_scene(6, seed) in a 100x100 image, moved as _moved moves it."""
    return _moved(random_scene(6, seed)[0], 100, 100, scale, shift)


def _clustered_elements():
    """random_scene(50, 5) packed into the 60x60 corner of a 400x400 image:
    many samples share each cell of the scene's corner."""
    return _boxed(random_scene(50, 5, width=60.0, height=60.0)[0], 400, 400)


_GRID_SCENES = [
    pytest.param(_hundred_elements, id="hundred"),
    pytest.param(lambda: _mask_scene(_masks_workload_mask("blob")),
                 id="mask-blob"),
    pytest.param(_clustered_elements, id="clustered")]


@pytest.mark.parametrize("scene", _GRID_SCENES)
def test_point_queries_match_a_kd_tree(scene):
    """_ball_elements returns the elements of the samples that a kd-tree
    over the same samples finds within radius + step/2 + 1e-9 of q, less
    the excluded ids, at seeded points anywhere in the box and near
    samples, with radii from none to a third of the box."""
    elements, rect = scene()
    eset = engine.ElementSet(elements, rect)
    tree = cKDTree(np.column_stack([eset._sx, eset._sy]))
    rng = LCG(11)
    side, m = eset._cell_side, len(eset._sample_eid)
    span = max(rect.xmax - rect.xmin, rect.ymax - rect.ymin)
    found = 0
    for i in range(2000):
        if i % 2:
            s = rng.randint(0, m - 1)
            q = (float(eset._sx[s]) + rng.uniform(-side, side),
                 float(eset._sy[s]) + rng.uniform(-side, side))
        else:
            q = (rng.uniform(rect.xmin, rect.xmax),
                 rng.uniform(rect.ymin, rect.ymax))
        radius = rng.uniform(0.0, span / 3) if i % 5 == 0 \
            else rng.uniform(0.0, 2 * side)
        excl = (rng.randint(0, eset.n - 1),)
        hits = tree.query_ball_point(q, radius + 0.5 * eset._step + 1e-9)
        want = set(eset._sample_eid[hits].tolist()).difference(excl)
        assert eset._ball_elements(q, radius, excl) == want, (i, q, radius)
        found += len(want)
    assert found > 10000  # the queries reach many elements


def _scan_ranks(eset, centres):
    """The nearest and the third-nearest distinct element of each centre
    by a scan of every sample, distances as sqrt(dx * dx + dy * dy), each
    element at its nearest sample (+inf where there are too few)."""
    dx = eset._sx[None, :] - centres[:, :1]
    dy = eset._sy[None, :] - centres[:, 1:]
    order = np.argsort(eset._sample_eid, kind="stable")
    eid = eset._sample_eid[order]
    first = np.flatnonzero(np.r_[True, eid[1:] != eid[:-1]])
    per = np.sort(np.minimum.reduceat(
        np.sqrt(dx * dx + dy * dy)[:, order], first, axis=1), axis=1)
    third = per[:, 2] if per.shape[1] >= 3 else np.full(len(centres), math.inf)
    return per[:, 0], third


@pytest.mark.parametrize("scene", _GRID_SCENES + [
    pytest.param(lambda: _moved_random6(1, 1.0, 1e5), id="random6-shift1e5"),
    pytest.param(lambda: _bare_points([(-1.0, 0.0), (1.0, 0.0)]),
                 id="two-points"),
    pytest.param(lambda: _bare_points([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]),
                 id="three-points")])
def test_ring_search_matches_a_scan_of_every_sample(scene):
    """D3 at every cell centre and the nearest-sample distance at every rim
    cell centre, as the ring search finds them, equal a scan of every
    sample exactly."""
    eset = engine.ElementSet(*scene())
    (nx, ny), side, (lx, ly) = eset._cell_shape, eset._cell_side, \
        eset._cell_lo
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    centres = np.column_stack([lx + (ix + 0.5) * side,
                               ly + (iy + 0.5) * side])
    nearest, third = _scan_ranks(eset, centres)
    assert eset._reach(centres).tolist() == third.tolist()
    rim = (ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1)
    assert eset._ranked(centres[rim], 1).tolist() == nearest[rim].tolist()


@pytest.mark.parametrize("scene, budget", [
    pytest.param(lambda: _boxed(random_scene(20, 2)[0], 100, 100), 1,
                 id="random20-budget1"),
    pytest.param(_clustered_elements, 997, id="clustered-budget997")])
def test_table_does_not_depend_on_the_build_budget(scene, budget,
                                                   monkeypatch):
    """The bounds, balls and M are the same whether the table build takes
    its transient arrays whole or in chunks of a small budget."""
    elements, rect = scene()
    whole = engine.ElementSet(elements, rect)
    monkeypatch.setattr(engine.ElementSet, "TABLE_BUDGET", budget)
    chunked = engine.ElementSet(elements, rect)
    for name in ("_cell_limit", "_ball_ptr", "_ball_ids", "_share_ptr",
                 "_share_ids"):
        assert getattr(chunked, name).tolist() == \
            getattr(whole, name).tolist(), name


def _raw_dump(raw):
    """Every node and link field of a raw graph, and its stats but the
    counters of the proximity table (candidates, discarded, crossing_rows),
    as plain values."""
    nodes = [(n.id, n.location, n.radius, sorted(n.gen_ids),
              sorted(n.discovered)) for n in raw.nodes]
    links = [(ln.id, type(ln.bisector).__name__, ln.bisector.pair,
              ln.bisector.branch_key, ln.t_from, ln.t_to, ln.node_from,
              ln.node_to) for ln in raw.links]
    stats = {k: v for k, v in raw.stats.items()
             if k not in ("candidates", "discarded", "crossing_rows")}
    return nodes, links, stats


def _reference_engine(elements, rect, monkeypatch):
    """An Engine built with every cell's bound at +inf.  Every ball then
    holds every element: every element pair is a candidate pair, every
    candidate is validated against every element, and every branch solves
    its crossings against every element.  This is the brute-force
    reference."""
    def no_bound(self, centres):
        return np.full(len(centres), math.inf)

    with monkeypatch.context() as m:
        m.setattr(engine.ElementSet, "_reach", no_bound)
        eng = engine.Engine(elements, rect)
    n = len(elements)
    assert len(eng.eset.pairs()[0]) == n * (n - 1) // 2
    return eng


def _assert_matches_reference(elements, rect, monkeypatch):
    """The raw graph equals the reference's field for field, solving no
    more crossing rows."""
    raw = engine.run(elements, rect)
    ref = _reference_engine(elements, rect, monkeypatch).run()
    assert _raw_dump(raw) == _raw_dump(ref)
    assert 0 < raw.stats["crossing_rows"] <= ref.stats["crossing_rows"]
    return raw


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
                       ("scale1e3", (1e3, 0.0)), ("scale1e10", (1e10, 0.0)))]
    + [pytest.param(lambda: _bare_points([(-1.0, 0.0), (1.0, 0.0)]),
                    id="two-points"),
       pytest.param(lambda: _bare_points([(0.0, 0.0), (4.0, 0.0),
                                          (2.0, 3.0)]),
                    id="three-points"),
       pytest.param(lambda: _bare_points([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0),
                                          (4.0, 0.0), (7.0, 0.0)]),
                    id="collinear-points")])
def test_cell_bound_drops_only_what_maybe_valid_drops(scene, monkeypatch):
    """The cell bound and the ball validation drop only invalid candidates:
    the candidate pass keeps the valid list of the reference, which
    validates every element pair against every element.  This holds on
    offset, tiny and huge coordinates, on sets with fewer than three
    elements, and on a sample box of zero area.  On the scenes under 100
    elements the raw graph equals the reference's as well."""
    elements, rect = scene()
    eng = engine.Engine(elements, rect)
    ref = _reference_engine(elements, rect, monkeypatch)
    assert eng._valid_candidates() == ref._valid_candidates()
    if len(elements) < 100:
        assert _raw_dump(eng.run()) == _raw_dump(ref.run())


def _table_pairs(eset):
    i, j = eset.pairs()
    return set(zip(i.tolist(), j.tolist()))


@pytest.mark.parametrize("seed", range(5))
def test_table_does_not_depend_on_the_coordinate_unit(seed):
    """Scaling a scene by 1e-3 or 1e3, or shifting it by 1e5, keeps the
    ElementSet's sample count and its pairs: the samples are spaced from
    the cell side, which moves with the scene, not at a fixed pixel step."""
    still = engine.ElementSet(*_moved_random6(seed, 1.0, 0.0))
    for move in ((1e-3, 0.0), (1e3, 0.0), (1.0, 1e5)):
        moved = engine.ElementSet(*_moved_random6(seed, *move))
        assert len(moved._sample_eid) == len(still._sample_eid), move
        assert _table_pairs(moved) == _table_pairs(still), move


_SOUNDNESS_SCENES = (
    [pytest.param(_hundred_elements, id="hundred")]
    + [pytest.param(lambda n=n, e=e: _mask_scene(_masks_workload_mask(n), e),
                    id=f"mask-{n}-eps{e}")
       for n, _ in MASK_SHAPES for e in (0.8, 0.0)])


@pytest.mark.parametrize("scene", _SOUNDNESS_SCENES)
def test_every_valid_pair_shares_a_ball(scene, monkeypatch):
    """Every valid candidate of the reference pass, which tries every
    element pair, is a pair of elements that share a ball."""
    elements, rect = scene()
    pairs = _table_pairs(engine.ElementSet(elements, rect))
    ref = _reference_engine(elements, rect, monkeypatch)
    valid = {src[2:4] for src in ref._valid_candidates()}
    assert valid and valid <= pairs


@pytest.mark.parametrize("scene", _SOUNDNESS_SCENES)
def test_link_end_generators_are_in_the_rows(scene):
    """Every generator of both end nodes of every raw link is in the
    crossing rows of the link's branch."""
    elements, rect = scene()
    eng = engine.Engine(elements, rect)
    raw = eng.run()
    for ln in raw.links:
        pid, _, sid, _ = eng.eset.crossing_rows(*ln.bisector.pair)
        rows = set(pid.tolist()) | set(sid.tolist())
        for nid in (ln.node_from, ln.node_to):
            assert raw.nodes[nid].gen_ids <= rows, (ln.id, nid)


def test_pair_table_holds_under_a_third_of_the_pairs():
    """On the 100-fragment 160x160 scene fewer than a third of the 117,370
    element pairs share a ball (33,864 when the table was written), and
    only those pairs form candidates."""
    eng = engine.Engine(*_hundred_elements())
    n_pairs = len(eng.eset.pairs()[0])
    assert n_pairs < 117370 / 3
    eng._valid_candidates()
    assert eng.stats["candidates"] < 2 * n_pairs


_REFERENCE_SCENES = (
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


@pytest.mark.parametrize("scene", _REFERENCE_SCENES)
def test_neighbour_filter_matches_all_elements(scene, monkeypatch):
    """Candidates from the pairs that share a ball, validated against a
    ball, and crossings solved against the elements that share a ball with
    both generators give the raw graph of the reference, which uses every
    element for each, field for field."""
    elements, rect = scene()
    raw = _assert_matches_reference(elements, rect, monkeypatch)
    assert raw.stats["sweep_truncations"] == 0


def test_touching_elements_outside_the_neighbour_rows(monkeypatch):
    """In the unsimplified trace of the ellipse mask, pixel-grid samples on
    one empty circle give propagation starts that further elements touch.
    The elements that share a ball with both generators hold them: each
    link starts as in the reference."""
    elements, rect = _mask_scene(_masks_workload_mask("ellipse"), 0.0)
    raw = _assert_matches_reference(elements, rect, monkeypatch)
    assert raw.stats["sweep_truncations"] == 0


@pytest.mark.parametrize("seed", [15, 23])
def test_missed_crossings_resolve_the_branch(seed, monkeypatch):
    """In these unsimplified union3 traces a crossing lies past the last
    sweep sample (seed 15), or one rounding step ahead at a co-circular
    junction (seed 23).  The crossing rows hold its element, so each branch
    ends where the reference ends it."""
    elements, rect = _mask_scene(_masks_workload_mask("union3", seed), 0.0)
    raw = _assert_matches_reference(elements, rect, monkeypatch)
    assert raw.stats["sweep_truncations"] == 0


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


def test_valid_source_of_a_cluster_and_a_long_segment(monkeypatch):
    """Cluster point 3 and the long segment 28 below the cluster pair in a
    valid source, and raw links 105 and 106 grow from it.  They share a
    ball, and the raw graph equals the reference's."""
    elements, rect = _cluster_above_a_long_segment()
    assert len(elements) == 37
    assert elements[3].kind == POINT and elements[3].fragment_id == 1
    assert elements[28].kind == SEGMENT and elements[28].fragment_id == 6
    raw = _assert_matches_reference(elements, rect, monkeypatch)
    assert (len(raw.nodes), len(raw.links)) == (90, 119)
    assert [ln.id for ln in raw.links if ln.bisector.pair == (3, 28)] \
        == [105, 106]
    eng = engine.Engine(elements, rect)
    assert (3, 28) in {src[2:4] for src in eng._valid_candidates()}
    assert (3, 28) in _table_pairs(eng.eset)


@pytest.mark.parametrize("scene, stats", [
    pytest.param(_hundred_elements, {
        "elements": 485, "candidates": 27979, "discarded": 26927,
        "realized": 793, "events": 4592, "sweep_truncations": 0,
        "crossing_rows": 185256, "nodes": 1264, "links": 1740},
        id="hundred"),
    pytest.param(lambda: _boxed(random_scene(200, 7, width=160.0,
                                             height=160.0)[0], 160, 160), {
        "elements": 958, "candidates": 60334, "discarded": 58253,
        "realized": 1565, "events": 9233, "sweep_truncations": 0,
        "crossing_rows": 392382, "nodes": 2619, "links": 3568},
        id="random200-7")])
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
    solve = engine.Engine._crossings

    def drop_element_10(self, rec):
        params, ids = solve(self, rec)
        return params[ids != 10], ids[ids != 10]

    monkeypatch.setattr(engine.Engine, "_crossings", drop_element_10)
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


def test_large_mask_matches_the_reference(monkeypatch):
    """A traced ring mask at twice the benchmark's size, 312 elements,
    gives the reference's raw graph."""
    ring = dict(MASK_SHAPES)["ring"]
    elements, rect = _mask_scene(ring(LCG(1), 128, 56.0, 40.0))
    assert len(elements) == 312
    raw = _assert_matches_reference(elements, rect, monkeypatch)
    assert raw.stats["sweep_truncations"] == 0


def test_balls_hold_adjacent_elements():
    """Adjacent elements have coinciding samples (a vertex and its
    segments' end samples).  In random_scene(200, 7) every element shares a
    ball with itself and with each element adjacent to it, and the relation
    is symmetric."""
    elements, rect = _boxed(random_scene(200, 7, width=160.0,
                                         height=160.0)[0], 160, 160)
    eset = engine.ElementSet(elements, rect)
    assert eset.n == len(elements) == 958
    ptr, ids = eset._share_ptr, eset._share_ids
    rows = [set(ids[ptr[a]:ptr[a + 1]].tolist()) for a in range(eset.n)]
    for e in elements:
        assert {e.id} | e.adjacency <= rows[e.id]
    assert all(a in rows[b] for a in range(eset.n) for b in rows[a])


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
