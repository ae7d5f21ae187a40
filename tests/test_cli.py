import re
from importlib import resources

from shockgraph import cli, engine
from shockgraph.contours import (check_no_crossings, decompose,
                                 simplify_polyline)
from shockgraph.export import to_graphml, to_sgtext
from shockgraph.graph import build_graph
from shockgraph.regularize import augment_with_box, prune

RECTANGLE = str(resources.files("shockgraph.corpus") / "rectangle.scene")


def _graph_at_defaults(path):
    """(graph, width, height) of the pipeline at the CLI defaults, through
    library calls."""
    width, height, frags = cli.load_scene(path)
    frags = [simplify_polyline(f, 0.8) for f in frags]
    frags, rect, box_fid = augment_with_box(frags, width, height, 2.0)
    elements = decompose(frags)
    check_no_crossings(elements)
    graph = build_graph(engine.run(elements, rect), elements,
                        scene=(width, height))
    graph = prune(graph, elements, lam=1.0, box_fragment_id=box_fid)
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


def test_missing_file_is_a_parse_error(tmp_path):
    missing = str(tmp_path / "missing.scene")
    assert cli.main([missing, "-o", str(tmp_path)]) == cli.EXIT_PARSE


def test_unknown_format_is_a_usage_error(tmp_path):
    assert cli.main([RECTANGLE, "-o", str(tmp_path), "--format", "pdf"]) \
        == cli.EXIT_USAGE


def test_negative_lambda_is_a_usage_error(tmp_path):
    assert cli.main([RECTANGLE, "-o", str(tmp_path), "--lambda", "-1"]) \
        == cli.EXIT_USAGE


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
