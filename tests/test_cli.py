import hashlib
import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from shockgraph import cli, engine
from shockgraph.contours import (POINT, SEGMENT, ContourFragment, decompose,
                                 format_scene_text, simplify_polyline)
from shockgraph.errors import DegenerateInputError
from shockgraph.export import to_graphml, to_sgtext
from shockgraph.geometry import COORD_LIMIT
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box, prune
from shockgraph.scenes import LCG, random_scene, square_fragment

from perfbench.workloads import MASK_SHAPES, encode_p1

RECTANGLE = str(resources.files("shockgraph.corpus") / "rectangle.scene")


def _graph_at_defaults(path, lam=1.0, bbox_scale=2.0, epsilon=0.8,
                       drop_box_links=False):
    """(graph, width, height) of the pipeline at the CLI defaults, or at the
    settings given (epsilon > 0), through library calls."""
    width, height, frags = cli.load_scene(path)
    frags = [simplify_polyline(f, epsilon) for f in frags]
    frags, rect, box_fid = augment_with_box(frags, width, height, bbox_scale)
    elements = decompose(frags)
    graph = build_graph(engine.run(elements, rect), elements,
                        scene=(width, height))
    graph = prune(graph, elements, lam=lam, drop_box_links=drop_box_links,
                  box_fragment_id=box_fid)
    return graph, width, height


def test_corpus_rectangle_writes_pipeline_sgtext(tmp_path):
    """The CLI writes the sgtext and GraphML of the library pipeline (it
    formats both from one document)."""
    assert cli.main([RECTANGLE, "-o", str(tmp_path),
                     "--format", "sgtext,graphml"]) == cli.EXIT_OK
    graph, width, height = _graph_at_defaults(RECTANGLE)
    for suffix, to_text in ((".sg", to_sgtext), (".graphml", to_graphml)):
        written = (tmp_path / ("rectangle" + suffix)).read_text(
            encoding="utf-8")
        assert written == to_text(graph, width, height, 1.0, 2.0)


def test_non_default_settings_reach_the_pipeline(tmp_path):
    """--lambda, --bbox-scale, --epsilon and --drop-box-links away from
    their defaults (each one alone changes this mask's sgtext) give the
    sgtext of the library pipeline at the same settings."""
    rng = LCG(1)
    mask = dict((n, build(rng)) for n, build in MASK_SHAPES)["pentagon"]
    scene = tmp_path / "pentagon.pbm"
    scene.write_bytes(encode_p1(mask))
    out = tmp_path / "out"
    assert cli.main([str(scene), "-o", str(out), "--lambda", "0.5",
                     "--bbox-scale", "3", "--epsilon", "0.3",
                     "--drop-box-links"]) == cli.EXIT_OK
    graph, width, height = _graph_at_defaults(
        str(scene), lam=0.5, bbox_scale=3.0, epsilon=0.3, drop_box_links=True)
    assert (out / "pentagon.sg").read_text(encoding="utf-8") == \
        to_sgtext(graph, width, height, 0.5, 3.0)


def test_garbage_scene_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("this is not a scene\n")
    assert cli.main([str(bad), "-o", str(tmp_path)]) == cli.EXIT_PARSE


def test_crossing_scene_is_a_parse_error(tmp_path, capsys):
    crossing = tmp_path / "crossing.scene"
    crossing.write_text("scene 60 60\n"
                        "fragment 0 open\nv 10 10\nv 50 50\n"
                        "fragment 1 open\nv 10 50\nv 50 10\n")
    assert cli.main([str(crossing), "-o", str(tmp_path)]) == cli.EXIT_PARSE
    report = capsys.readouterr().out
    assert "status=error" in report
    assert re.search(r"segments \d+ and \d+ cross", report)


@pytest.mark.parametrize("fragments", [
    "fragment 0 closed\nv 5 5\nv 10 5\nv 15 5\n",
    "fragment 0 open\nv 5 5\nv 15 5\nfragment 1 open\nv 8 5\nv 12 5\n",
], ids=["closed-collinear", "two-open"])
def test_collinear_overlap_is_a_parse_error(tmp_path, capsys, fragments):
    """Segments on one line whose interiors overlap are rejected: the
    engine would build a graph that breaks V - E = 1 + S - P."""
    scene = tmp_path / "overlap.scene"
    scene.write_text("scene 20 20\n" + fragments)
    assert cli.main([str(scene), "-o", str(tmp_path)]) == cli.EXIT_PARSE
    assert re.search(r"segments \d+ and \d+ cross or overlap",
                     capsys.readouterr().out)


def test_collinear_polyline_is_valid(tmp_path, capsys):
    """Consecutive collinear segments share only their endpoint."""
    scene = tmp_path / "line.scene"
    scene.write_text("scene 20 20\nfragment 0 open\nv 5 5\nv 10 5\nv 15 5\n")
    assert cli.main([str(scene), "-o", str(tmp_path), "--epsilon", "0"]) \
        == cli.EXIT_OK


def test_vertices_across_a_key_cell_boundary_are_one_element(tmp_path,
                                                             capsys):
    """Two fragment ends 2e-10 px apart, on either side of a boundary of
    decompose's EPS_GEOM key cells, become one point element; as two, they
    would be a coincident point pair, which has no bisector."""
    scene = tmp_path / "straddle.scene"
    scene.write_text(format_scene_text(20.0, 20.0, [
        ContourFragment(0, np.array([[5.0, 5.0], [10.0 + 4e-10, 10.0]])),
        ContourFragment(1, np.array([[10.0 + 6e-10, 10.0], [15.0, 5.0]]))]))
    assert cli.main([str(scene), "-o", str(tmp_path)]) == cli.EXIT_OK
    assert "elements=13" in capsys.readouterr().out


def test_huge_scene_is_a_parse_error(tmp_path, capsys):
    """A scene so large that a box corner over EPS_GEOM would overflow
    decompose's vertex key is a parse error, and nothing is written: its
    box is beyond the coordinate limit."""
    scene = tmp_path / "huge.scene"
    scene.write_text("scene 1e300 1e300\n"
                     "fragment 0 closed\nv 10 10\nv 20 10\nv 15 18\n")
    out = tmp_path / "out"
    assert cli.main([str(scene), "-o", str(out)]) == cli.EXIT_PARSE
    report = capsys.readouterr().out
    assert "status=error" in report and "too large" in report
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("size", ["1e120", "1e200"])
def test_box_beyond_the_coordinate_limit_is_a_parse_error(tmp_path, capsys,
                                                          size):
    """A bounding box with a coordinate beyond COORD_LIMIT is a parse
    error, and nothing is written.  Without the limit a 1e120 scene
    overflowed a link area (an OverflowError and exit 1), and a 1e200 scene
    failed only on an oversized numpy request."""
    scene = tmp_path / "huge.scene"
    scene.write_text(f"scene {size} {size}\n"
                     "fragment 0 closed\nv 10 10\nv 20 10\nv 15 18\n")
    out = tmp_path / "out"
    assert cli.main([str(scene), "-o", str(out)]) == cli.EXIT_PARSE
    report = capsys.readouterr().out
    assert "status=error" in report
    assert f"is too large: the limit is {COORD_LIMIT:g}" in report
    assert not out.exists() or not list(out.iterdir())


def test_degenerate_input_is_a_parse_error():
    assert cli._classify(DegenerateInputError("coincident point pair")) \
        == cli.EXIT_PARSE


def test_missing_file_is_a_parse_error(tmp_path):
    """Also under a directory named 'cannot write': the exit status follows
    the error's type, not its message."""
    for missing in (tmp_path / "missing.scene",
                    tmp_path / "cannot write" / "missing.scene"):
        assert cli.main([str(missing), "-o", str(tmp_path)]) \
            == cli.EXIT_PARSE, missing


def test_unknown_format_is_a_usage_error(tmp_path):
    for fmt in ("pdf", "", ","):
        assert cli.main([RECTANGLE, "-o", str(tmp_path), "--format", fmt]) \
            == cli.EXIT_USAGE, fmt
    assert not list(tmp_path.iterdir())


def test_negative_lambda_is_a_usage_error(tmp_path):
    """Negative and NaN settings, and an infinite box scale, are usage
    errors before any scene runs."""
    for flag, value in (("--lambda", "-1"), ("--lambda", "nan"),
                        ("--epsilon", "-1"), ("--epsilon", "nan"),
                        ("--bbox-scale", "nan"), ("--bbox-scale", "inf"),
                        ("--bbox-scale", "1")):
        assert cli.main([RECTANGLE, "-o", str(tmp_path), flag, value]) \
            == cli.EXIT_USAGE, (flag, value)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_event_budget_below_one_is_a_usage_error(tmp_path, monkeypatch,
                                                 budget):
    """SHOCKGRAPH_EVENT_BUDGET below 1 is a usage error before any scene
    runs, like the other bad settings; 0 is not the default budget."""
    monkeypatch.setenv("SHOCKGRAPH_EVENT_BUDGET", budget)
    assert cli.main([RECTANGLE, "-o", str(tmp_path)]) == cli.EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_exceeded_event_budget_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHOCKGRAPH_EVENT_BUDGET", "5")
    assert cli.main([RECTANGLE, "-o", str(tmp_path)]) == cli.EXIT_BUDGET
    assert "status=error code=4 message=event budget exceeded" in \
        capsys.readouterr().out


def test_two_vertex_closed_fragment_is_a_parse_error(tmp_path, capsys):
    """Closed, two vertices are one edge traversed twice, which bounds no
    area; before its rejection the scene failed on a node of degree 5."""
    scene = tmp_path / "sliver.scene"
    scene.write_text("scene 20 20\nfragment 0 closed\nv 5 5\nv 15 12\n")
    assert cli.main([str(scene), "-o", str(tmp_path)]) == cli.EXIT_PARSE
    assert "closed fragment needs >= 3 vertices" in capsys.readouterr().out


def _pixel_mask(shape, pixels):
    mask = np.zeros(shape, dtype=bool)
    for r, c in pixels:
        mask[r, c] = True
    return mask


@pytest.mark.parametrize("mask, epsilon, euler", [
    pytest.param(_pixel_mask((5, 5), [(2, 2)]), 0.8, 1, id="lone-pixel"),
    pytest.param(_pixel_mask((4, 4), [(1, 1), (2, 2)]), 0.0, 2,
                 id="checkerboard-corner-unsimplified"),
    pytest.param(_pixel_mask((4, 4), [(1, 1), (2, 2)]), 0.8, 2,
                 id="checkerboard-corner")])
def test_pixel_masks_keep_their_topology(tmp_path, capsys, mask, epsilon,
                                         euler):
    """Pixels as a P1 mask through the CLI exit 0, no segment element is
    emitted twice, and the pruned graph validates with the Euler
    characteristic of the domain, V - E = 1 + S - P with S segment and P
    point elements, box included.  Before, each pixel at epsilon 0.8 became
    a closed 2-vertex fragment, its edge two segment elements, and V - E
    read -4."""
    scene = tmp_path / "pixels.pbm"
    scene.write_bytes(encode_p1(mask))
    assert cli.main([str(scene), "-o", str(tmp_path / "out"),
                     "--epsilon", str(epsilon)]) == cli.EXIT_OK
    capsys.readouterr()
    width, height, frags = cli.load_scene(str(scene))
    config = cli.RunConfig(inputs=[], polyline_epsilon=epsilon)
    graph, elements, _, box_fid = cli.build(frags, width, height, config)
    graph = prune(graph, elements, lam=config.lam, box_fragment_id=box_fid)
    graph.validate()
    ends = [frozenset(e.geometry) for e in elements if e.kind == SEGMENT]
    assert len(set(ends)) == len(ends)
    points = sum(e.kind == POINT for e in elements)
    assert len(graph.nodes) - len(graph.links) == 1 + len(ends) - points \
        == euler


def test_uncreatable_output_dir_is_a_write_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")  # a directory below a regular file
    assert cli.main([RECTANGLE, "-o", out]) == cli.EXIT_WRITE
    report = capsys.readouterr().out
    assert "status=error" in report and "cannot write" in report


def test_batch_with_one_bad_scene(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text("this is not a scene\n")
    code = cli.main([RECTANGLE, str(bad), "-o", str(tmp_path / "out")])
    assert code == cli.EXIT_PARSE
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "summary scenes=2 ok=1 failed=1"


@pytest.mark.parametrize("n_frag, seed, digest", [
    pytest.param(100, 101, "e047aefab0336c16b2e513e3bb3c03c15d9dea0cbc5d0d858a"
                 "374e5c3f2180d8", id="hundred"),
    pytest.param(200, 7, "ea1d74c42abe7749577cc840bc9f0b3f7fc97025a1ca6fc1b81"
                 "dd59a40bc632f", id="random200-7")])
def test_random_scene_sgtext_is_pinned(tmp_path, n_frag, seed, digest):
    """The sgtext at lambda 1 of two unsimplified 160x160 random scenes,
    written by the CLI, has a pinned sha256.  The first is the 100-fragment
    benchmark scene at the benchmark's settings.  In the second, a shock
    ends back on its own start junction, within the scatter of that
    junction's realization: the engine records no link for it but searches
    its end for outflows, without which the continuation of branch
    (190, 869, 0) is lost."""
    frags, _ = random_scene(n_frag, seed, width=160.0, height=160.0)
    scene = tmp_path / "scene.scene"
    scene.write_text(format_scene_text(160.0, 160.0, frags))
    cli.run_scene(cli.RunConfig(inputs=[], output_dir=str(tmp_path),
                                polyline_epsilon=0.0), str(scene))
    data = (tmp_path / "scene.sg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("disc", None), ("ring", None),
    ("ellipse", "3cecc4a1c595e69c9c5f9cff30a7097b01a4e54c"
     "bb228128416622e385ee7372"),
    ("pentagon", "58d23c4ee96ead31bbddfdb874afbd06a1d22129"
     "f6400b4d25ef40fe87d4326c"),
    ("hexagon", "d55ec2c767c9dd936ab5b8006b953faa60e3a49a"
     "7ec3e40e87321fd57a3475d9"),
    ("octagon", None),
    ("union3", "f24cc1ccca2a66f4ba9af8664519e4c5f87b46fe"
     "100e6375ef7d28a4b8c78c2b"),
    ("union4", "5034474d4695a479e8277146f995a30389a87173"
     "9fca13939ee782c48d951082"),
    ("union5", "760aa4a3183f1ba75c073cc504b6ccfbeb5f0ed6"
     "a7f5b314185288e760c08277"),
    ("union6", "555ca439c9747fb1aa83597faba461e6fc958003"
     "6357d61b9a801defc2056680"),
    ("blob", None)])
def test_traced_mask_sgtext_is_pinned(tmp_path, capsys, name, digest):
    """Each mask of the masks benchmark workload at seed 1, written as P1
    and run by the CLI at its defaults, gives sgtext with a pinned sha256.
    The disc, ring, octagon and blob keep a junction of degree above 4 after
    pruning, which the node descriptor cannot hold: they exit 5 and write
    nothing."""
    rng = LCG(1)
    mask = dict((n, build(rng)) for n, build in MASK_SHAPES)[name]
    scene = tmp_path / f"{name}.pbm"
    scene.write_bytes(encode_p1(mask))
    out = tmp_path / "out"
    code = cli.main([str(scene), "-o", str(out)])
    capsys.readouterr()
    if digest is None:
        assert code == cli.EXIT_INTERNAL
        assert not out.exists() or not list(out.iterdir())
        return
    assert code == cli.EXIT_OK
    data = (out / f"{name}.sg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def _scene_file(tmp_path, name):
    """One pinned export scene written to tmp_path, with the CLI arguments
    that run it: the 100-fragment benchmark scene, two seed-1 masks at the
    CLI defaults, and a square and random_scene(12, 5) at lambda 0, where
    the square keeps its degree-4 centre and the random scene its degree-1
    leaves."""
    if name in ("pentagon", "union3"):
        rng = LCG(1)
        mask = dict((n, build(rng)) for n, build in MASK_SHAPES)[name]
        scene = tmp_path / f"{name}.pbm"
        scene.write_bytes(encode_p1(mask))
        return scene, []
    frags, size, args = {
        "hundred": (random_scene(100, 101, width=160.0, height=160.0)[0],
                    160.0, ["--epsilon", "0"]),
        "square": ([square_fragment()], 10.0,
                   ["--lambda", "0", "--epsilon", "0"]),
        "random12-5": (random_scene(12, 5)[0], 100.0,
                       ["--lambda", "0", "--epsilon", "0"])}[name]
    scene = tmp_path / f"{name}.scene"
    scene.write_text(format_scene_text(size, size, frags))
    return scene, args


@pytest.mark.parametrize("name, digests", [
    ("hundred", {
        ".graphml": "7cdf38b86df1cdee77ec18dd4dddc1ac"
                    "8360ca08c9f483ba5c446d46f057c2a0",
        ".svg": "8b19d1f7111bb26134289c726aa6934d"
                "9522d4850eae40ef2a34a6195f6b39f6"}),
    ("pentagon", {
        ".graphml": "19ef54bd0bca75a5810f04e880b20a93"
                    "8f428bd021f25216e68d63d0f7770d57",
        ".svg": "c4f2fd8ee0da62e32a284b012fb4a14b"
                "88eac469ba984cc1c34fa5368e85ecdf"}),
    ("union3", {
        ".graphml": "3b80a180d7226bbcf96b3bb356b3688e"
                    "fea4910180357dddf5c258fbad495ec5",
        ".svg": "05a301204ce18555ad58dab94a0e1f20"
                "06bb56f68a4bc5ddbfce71c346e3f693"}),
    ("square", {
        ".sg": "a7930e4b3a0eb0f18ba5095a58925f27"
               "c4c59e1ff2038276712d9f31f6c4b36f",
        ".graphml": "88aa00a3d8cb7bf881c6abb9e1f83068"
                    "3af359391ba20be2423a0f650881536a",
        ".svg": "962a9481bb7232edea557d50be070820"
                "279d9b06e3ef29748a9f7fbaf0eb2e8f"}),
    ("random12-5", {
        ".sg": "8d777bb1cd7cd0dbf8b88829729a5bf2"
               "b9fc628e8eb366dc9ea51f270e70f589",
        ".graphml": "11b6f4486c6ee8f34c603423e5e12f03"
                    "38ba7461993ff56c88fa3cadf5ce50c4",
        ".svg": "6cea6198b7ef09ee9ea89ce7b1480d37"
                "ee79832d6fe4097303429eb34b80fe8b"})])
def test_export_bytes_are_pinned(tmp_path, capsys, name, digests):
    """All three formats written by the CLI for five scenes have pinned
    sha256s: the GraphML and SVG of scenes whose sgtext the tests above
    pin, and every format of two scenes at lambda 0, whose graphs keep
    the degree-4 nodes and degree-1 leaves that pruning removes."""
    scene, args = _scene_file(tmp_path, name)
    out = tmp_path / "out"
    assert cli.main([str(scene), "-o", str(out), *args,
                     "--format", "sgtext,graphml,svg"]) == cli.EXIT_OK
    capsys.readouterr()
    for suffix, digest in digests.items():
        data = (out / (scene.stem + suffix)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


def test_jobs_pool_writes_what_a_serial_run_writes(tmp_path, capsys):
    """--jobs 2 over two corpus scenes, in all three formats, writes the
    same files, byte for byte, and the same report as --jobs 1."""
    scenes = [str(resources.files("shockgraph.corpus") / f"{name}.scene")
              for name in ("pair", "rectangle")]
    written, reports = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(scenes + ["-o", str(out), "--jobs", jobs,
                                  "--format", "sgtext,graphml,svg"]) \
            == cli.EXIT_OK
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
        reports.append(re.sub(r"wall=\S+", "", capsys.readouterr().out))
    assert len(written[0]) == 6
    assert written[1] == written[0]
    assert reports[1] == reports[0]


def test_a_serial_run_loads_no_scipy(tmp_path):
    """A fresh interpreter that imports shockgraph.cli and runs one scene
    serially never loads scipy, multiprocessing or xml.sax: the runtime
    needs numpy only, and the pool and the XML escape cost nothing when
    unused."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; import shockgraph.cli as c; "
            "assert c.main([sys.argv[1], '-o', sys.argv[2], "
            "'--format', 'sgtext,graphml,svg']) == 0; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing') or m.startswith('xml.sax'))))")
    proc = subprocess.run(
        [sys.executable, "-c", code, RECTANGLE, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
    assert (tmp_path / "rectangle.svg").exists()
