"""End-to-end acceptance gate.

Each test pins one advertised guarantee of the library at its stated
tolerance: bisector equidistance, the parabola property, analytic goldens,
equivalence with the brute-force grid oracle, the shock validity invariant,
regularization behavior, polyline invariance, the feature-vector contract,
complexity scaling, and byte-level determinism.
"""
import math
import time

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from shockgraph import cli, engine, oracle
from shockgraph.bisectors import (PointPointBisector,
                                  bisector_endpoint_own_segment,
                                  bisector_point_segment, make_bisectors)
from shockgraph.contours import (POINT, SEGMENT, BoundaryElement,
                                 resample_polyline)
from shockgraph.corpus import verify_corpus
from shockgraph.export import format_sgtext, parse_sgtext, to_sgtext
from shockgraph.features import FEATURE_LENGTH, PREFIX_LENGTH, graph_features
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box, prune
from shockgraph.scenes import (LCG, equilateral_point_elements,
                               random_element_scene, random_scene,
                               rectangle_fragment, regular_polygon_fragment,
                               smooth_curve_fragment, square_fragment)

from conftest import UNSIMPLIFIED, build_scene

N_PAIRS = 1000
N_SAMPLES = 1000
GRID_H = 0.5


def _segment_closed_dist(a, b, pts):
    """Exact distance from pts (n, 2) to the closed segment ab."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    t = np.clip(((pts - a) @ d) / (d @ d), 0.0, 1.0)
    feet = a + np.multiply.outer(t, d)
    return np.hypot(pts[:, 0] - feet[:, 0], pts[:, 1] - feet[:, 1])


def _random_segment(rng, cx, cy, rad):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = rng.uniform(0.3, 1.0) * rad
    ox, oy = half * math.cos(phi), half * math.sin(phi)
    return (cx - ox, cy - oy), (cx + ox, cy + oy)


def _seg_elem(eid, a, b):
    return BoundaryElement(eid, SEGMENT, (tuple(a), tuple(b)), eid)


# ---------------------------------------------------------------------------
# Bisector equidistance and the parabola property
# ---------------------------------------------------------------------------

def _check_pair(d_plus, d_minus, radii):
    assert np.abs(d_plus - d_minus).max() <= 1e-9
    assert np.abs(radii - d_plus).max() <= 1e-9
    assert np.abs(radii - d_minus).max() <= 1e-9


def test_bisector_equidistance_point_point():
    rng = LCG(11)
    t0 = time.perf_counter()
    for _ in range(N_PAIRS):
        a = (rng.uniform(0, 100), rng.uniform(0, 100))
        b = (rng.uniform(0, 100), rng.uniform(0, 100))
        if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-3:
            b = (a[0] + 1.0, a[1])
        bis = PointPointBisector(a, b)
        ss = np.array([rng.uniform(-50, 50) for _ in range(N_SAMPLES)])
        pts = bis.point(ss)
        _check_pair(np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1]),
                    np.hypot(pts[:, 0] - b[0], pts[:, 1] - b[1]),
                    np.asarray(bis.radius(ss)))
    assert time.perf_counter() - t0 < 5.0


def test_bisector_equidistance_segment_segment():
    rng = LCG(12)
    t0 = time.perf_counter()
    done = 0
    while done < N_PAIRS:
        # segments inside disjoint discs never touch or cross
        c1 = (rng.uniform(10, 40), rng.uniform(10, 90))
        c2 = (rng.uniform(60, 90), rng.uniform(10, 90))
        s1 = _random_segment(rng, *c1, 8.0)
        s2 = _random_segment(rng, *c2, 8.0)
        recs = make_bisectors(_seg_elem(0, *s1), _seg_elem(1, *s2))
        if not recs:
            continue
        bis = recs[0]
        lo = max(bis.t_lo, -200.0)
        hi = min(bis.t_hi, 200.0)
        if hi - lo <= 1e-9:
            continue
        ss = lo + (hi - lo) * np.array(
            [rng.uniform() for _ in range(N_SAMPLES)])
        pts = bis.point(ss)
        _check_pair(_segment_closed_dist(*s1, pts),
                    _segment_closed_dist(*s2, pts),
                    np.asarray(bis.radius(ss)))
        done += 1
    assert time.perf_counter() - t0 < 5.0


def test_bisector_equidistance_point_segment():
    rng = LCG(13)
    t0 = time.perf_counter()
    done = 0
    while done < N_PAIRS:
        a, b = _random_segment(rng, rng.uniform(20, 80),
                               rng.uniform(20, 80), 10.0)
        p = (rng.uniform(0, 100), rng.uniform(0, 100))
        pe = BoundaryElement(0, POINT, p, 0)
        try:
            bis = bisector_point_segment(pe, _seg_elem(1, a, b))
        except Exception:
            continue
        lo, hi = bis.t_lo, bis.t_hi
        if hi - lo <= 1e-9:
            continue
        ss = lo + (hi - lo) * np.array(
            [rng.uniform() for _ in range(N_SAMPLES)])
        pts = bis.point(ss)
        _check_pair(np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]),
                    _segment_closed_dist(a, b, pts),
                    np.asarray(bis.radius(ss)))
        done += 1
    assert time.perf_counter() - t0 < 5.0


def test_bisector_equidistance_endpoint_own_segment():
    rng = LCG(14)
    t0 = time.perf_counter()
    for _ in range(N_PAIRS):
        a, b = _random_segment(rng, rng.uniform(20, 80),
                               rng.uniform(20, 80), 10.0)
        pe = BoundaryElement(0, POINT, tuple(a), 0, adjacency={1})
        se = _seg_elem(1, a, b)
        se.adjacency = {0}
        bis = bisector_endpoint_own_segment(pe, se)
        ss = np.array([rng.uniform(-50, 50) for _ in range(N_SAMPLES)])
        pts = bis.point(ss)
        _check_pair(np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1]),
                    _segment_closed_dist(a, b, pts),
                    np.asarray(bis.radius(ss)))
    assert time.perf_counter() - t0 < 5.0


def test_parabola_focus_directrix_property():
    rng = LCG(15)
    for _ in range(N_PAIRS):
        a, b = _random_segment(rng, rng.uniform(20, 80),
                               rng.uniform(20, 80), 10.0)
        p = (rng.uniform(0, 100), rng.uniform(0, 100))
        pe = BoundaryElement(0, POINT, p, 0)
        try:
            bis = bisector_point_segment(pe, _seg_elem(1, a, b))
        except Exception:
            continue
        ss = bis.t_lo + (bis.t_hi - bis.t_lo) * np.array(
            [rng.uniform() for _ in range(N_SAMPLES)])
        pts = bis.point(ss)
        d_focus = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
        # signed distance to the supporting (directrix) line
        av = np.asarray(a, dtype=float)
        dv = np.asarray(b, dtype=float) - av
        dv /= np.hypot(dv[0], dv[1])
        d_line = np.abs((pts[:, 0] - av[0]) * (-dv[1])
                        + (pts[:, 1] - av[1]) * dv[0])
        assert np.abs(d_focus - d_line).max() <= 1e-9


# ---------------------------------------------------------------------------
# Analytic goldens
# ---------------------------------------------------------------------------

def test_golden_rectangle_junctions():
    graph, _, _, _ = build_scene([rectangle_fragment()], 100, 100)
    hits = []
    for want in ((1.0, 0.0), (-1.0, 0.0)):
        best = min(graph.nodes,
                   key=lambda n: np.hypot(n.location[0] - want[0],
                                          n.location[1] - want[1]))
        assert np.hypot(best.location[0] - want[0],
                        best.location[1] - want[1]) <= 1e-6
        assert abs(best.radius - 1.0) <= 1e-6
        hits.append(best.id)
    assert hits[0] != hits[1]


def test_golden_square_center():
    graph, _, _, _ = build_scene([square_fragment()], 100, 100)
    best = min(graph.nodes,
               key=lambda n: np.hypot(n.location[0], n.location[1]))
    assert np.hypot(*best.location) <= 1e-6
    assert abs(best.radius - 1.0) <= 1e-6


def test_golden_equilateral_point_triple():
    elements = equilateral_point_elements(side=2.0)
    rect = augment_with_box([], 100, 100)[1]
    graph = build_graph(engine.run(elements, rect), elements)
    best = min(graph.nodes,
               key=lambda n: np.hypot(n.location[0], n.location[1]))
    assert np.hypot(*best.location) <= 1e-9
    assert abs(best.radius - 2.0 / math.sqrt(3.0)) <= 1e-9


def test_golden_corpus_verifies():
    """Every scene of the golden corpus, built and pruned, meets the
    expectations of its manifest entry."""
    results = verify_corpus()
    assert results
    diffs = {r.scene_file: r.diffs for r in results if not r.ok}
    assert not diffs, diffs


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

def test_oracle_equivalence_20_scenes():
    t0 = time.perf_counter()
    for seed in range(20):
        n_frag = 10 + (seed * 30) // 19  # 10..40
        frags, _ = random_scene(n_frag, seed)
        # unregularized
        graph, elements, rect, _ = build_scene(frags, 100, 100)
        field = oracle.compute_field(elements, rect, GRID_H)
        cells = oracle.extract_shock_cells(field, GRID_H)
        detectable = oracle.graph_shock_points(graph, GRID_H, elements)
        full = oracle.graph_shock_points(graph, GRID_H)
        assert len(cells) and len(detectable)
        fwd = cKDTree(cells).query(detectable)[0].max()
        rev = cKDTree(full).query(cells)[0].max()
        assert max(fwd, rev) <= 2 * GRID_H, \
            f"seed {seed}: Hausdorff {max(fwd, rev):.3f} > {2 * GRID_H}"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# Validity invariant
# ---------------------------------------------------------------------------

def _element_closed_distances(elements, pts):
    out = np.empty((len(pts), len(elements)))
    for j, e in enumerate(elements):
        if e.kind == POINT:
            out[:, j] = np.hypot(pts[:, 0] - e.geometry[0],
                                 pts[:, 1] - e.geometry[1])
        else:
            out[:, j] = _segment_closed_dist(*e.geometry, pts)
    return out


def test_validity_invariant():
    scenes = [([rectangle_fragment()], 100, 100),
              ([square_fragment()], 100, 100)]
    for seed in (3, 7, 11):
        scenes.append((random_scene(12, seed)[0], 100, 100))
    for frags, w, h in scenes:
        graph, elements, _, _ = build_scene(frags, w, h, lam=1.0)
        for link in graph.links:
            us = np.linspace(0.0, link.length, 200)
            idx, ss = link.piece_params(us)
            pts = link.sample_points(200)
            radii = link.sample_radii(200)
            dists = _element_closed_distances(elements, pts)
            for i in np.unique(idx):
                m = idx == i
                for gid in link.pieces[i].side_generators():
                    dists[m, gid] = np.inf
            violations = (dists.min(axis=1) < radii - 1e-6).sum()
            assert violations == 0, \
                f"link {link.id}: {violations} validity violations"


# ---------------------------------------------------------------------------
# Regularization behavior
# ---------------------------------------------------------------------------

def _pruned_link_keys(graph):
    def key(ln):
        p0 = ln.pieces[0]
        return (round(p0.bisector.point(p0.t0)[0], 6),
                round(p0.bisector.point(p0.t0)[1], 6),
                round(ln.length, 6))
    return sorted(key(ln) for ln in graph.links)


def test_regularization_64gon_collapses_to_center():
    graph, elements, _, box_fid = build_scene(
        [regular_polygon_fragment(64)], 10, 10)
    pruned = prune(graph, elements, lam=1.0, box_fragment_id=box_fid)
    central = [nd for nd in pruned.nodes
               if np.hypot(*nd.location) <= 0.05]
    assert central, "no pruned node within 0.05 of the center"
    assert any(abs(nd.radius - 1.0) <= 0.05 for nd in central)


def test_regularization_monotone_and_idempotent():
    graph, elements, _, box_fid = build_scene(
        [regular_polygon_fragment(64)], 10, 10)
    lams = (0.0, 0.25, 0.5, 1.0, 2.0)
    kept = []
    for lam in lams:
        pruned = prune(graph, elements, lam=lam, box_fragment_id=box_fid)
        keys = set(_pruned_link_keys(pruned))
        kept.append(keys)
        again = prune(pruned, elements, lam=lam, box_fragment_id=box_fid)
        assert set(_pruned_link_keys(again)) == keys  # idempotent
    for a, b in zip(kept, kept[1:]):
        assert b <= a  # larger lambda prunes at least as much


# ---------------------------------------------------------------------------
# Polyline invariance
# ---------------------------------------------------------------------------

def test_polyline_invariance():
    base = smooth_curve_fragment()
    base.vertices = base.vertices + np.array([50.0, 50.0])
    epsilons = (0.2, 0.4, 0.8)
    graphs = []
    for eps in epsilons:
        frag = resample_polyline(base, eps)
        graph, _, _, _ = build_scene([frag], 100, 100, lam=1.0)
        graphs.append(graph)
    for (ea, ga), (eb, gb) in zip(zip(epsilons, graphs),
                                  list(zip(epsilons, graphs))[1:]):
        assert len(ga.nodes) == len(gb.nodes)
        assert len(ga.links) == len(gb.links)
        pa = np.array([n.location for n in ga.nodes])
        pb = np.array([n.location for n in gb.nodes])
        cost = np.hypot(pa[:, None, 0] - pb[None, :, 0],
                        pa[:, None, 1] - pb[None, :, 1])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 2 * max(ea, eb)


# ---------------------------------------------------------------------------
# Feature-vector contract
# ---------------------------------------------------------------------------

def test_feature_contract(tmp_path):
    frags, _ = random_scene(12, 5)
    graph, elements, rect, box_fid = build_scene(frags, 100, 100, lam=1.0)
    nf, ef = graph_features(graph)
    assert nf.shape == (len(graph.nodes), FEATURE_LENGTH)
    assert ef.shape == (len(graph.links), 8)
    saw_deg2 = False
    for nd in graph.nodes:
        prefix = PREFIX_LENGTH[max(nd.degree, 2)]
        assert np.all(nf[nd.id, prefix:] == 0.0)
        if nd.degree == 2:
            saw_deg2 = True
            assert prefix == 28
    assert saw_deg2

    text = to_sgtext(graph, 100, 100, 1.0, 2.0)
    assert format_sgtext(parse_sgtext(text)) == text  # bit-exact round-trip
    path = tmp_path / "scene.sg"
    path.write_text(text)
    assert format_sgtext(parse_sgtext(path.read_text())) == text


# ---------------------------------------------------------------------------
# Complexity scaling
# ---------------------------------------------------------------------------

def test_complexity_scaling_slope():
    """Log-log slopes of the engine's cost against the element count.

    Candidate shock sources are formed only for the element pairs that share
    a ball of the engine's cell table, and a ball's size depends on the
    scene's density, not on its element count.  So stats["candidates"],
    which is deterministic, must grow clearly slower than the number of
    element pairs: its fitted slope is at most 1.5 (it was 1.38 when this
    bound was set; forming a candidate for every pair gives about 2).

    Wall time gets only the upper bound: engine.run must grow no faster than
    quadratically (slope <= 2.6).  It has no lower bound, because nothing
    promises a minimum cost and a faster engine is not a defect: at these
    sizes the per-event propagation, which grows near-linearly in the
    realized shock count, outweighs the candidate pass, and the wall-time
    slope sits near 1.  Each size is timed as the fastest of 3
    runs, so that one run slowed by other load on the host does not bend
    the fit.

    Both slopes are fitted against len(elements), the count the engine
    actually works on, not against the requested scene size.
    """
    sizes = (50, 100, 200, 400, 800)
    counts, walls, candidates = [], [], []
    for n in sizes:
        frags, img = random_element_scene(n, seed=n)
        elements, rect, _ = cli.boxed_elements(
            frags, img.xmax - img.xmin, img.ymax - img.ymin, UNSIMPLIFIED)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            raw = engine.run(elements, rect)
            best = min(best, time.perf_counter() - t0)
        counts.append(len(elements))
        walls.append(best)
        candidates.append(raw.stats["candidates"])
    log_n = np.log(counts)
    wall_slope = float(np.polyfit(log_n, np.log(walls), 1)[0])
    cand_slope = float(np.polyfit(log_n, np.log(candidates), 1)[0])
    assert wall_slope <= 2.6, f"wall-time log-log slope {wall_slope:.3f}"
    assert cand_slope <= 1.5, \
        f"candidate-count log-log slope {cand_slope:.3f}"


def test_hundred_fragment_scene_runtime():
    """Decomposition, propagation, build_graph and prune of the 485-element,
    100-fragment scene within 2.0 s, timed as the fastest of 3 calls: other
    load on a shared host slows single runs, so the fastest call measures
    the program."""
    frags, _ = random_scene(100, 101, width=160.0, height=160.0)
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        build_scene(frags, 160, 160, lam=1.0)
        walls.append(time.perf_counter() - t0)
    wall = min(walls)
    assert wall < 2.0, f"100-fragment scene took {wall:.2f}s"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_determinism_byte_identical_sgtext():
    frags, _ = random_scene(15, 9)
    outs = []
    for _ in range(2):
        graph, elements, _, box_fid = build_scene(frags, 100, 100, lam=1.0)
        outs.append(to_sgtext(graph, 100, 100, 1.0, 2.0))
    assert outs[0] == outs[1]
    # re-assembling an assembled graph is a byte-level fixed point
    again = prune(graph, elements, lam=1.0, box_fragment_id=box_fid)
    assert to_sgtext(again, 100, 100, 1.0, 2.0) == outs[0]
