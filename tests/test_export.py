import xml.etree.ElementTree as ET

import pytest

from shockgraph.errors import InvalidInputError
from shockgraph.export import (format_sgtext, parse_sgtext, read_text,
                               to_graphml, to_sgtext, to_svg)
from shockgraph.scenes import random_scene

from conftest import build_scene


@pytest.fixture(scope="module")
def scene():
    frags, img = random_scene(10, 7)
    return build_scene(frags, img.xmax - img.xmin, img.ymax - img.ymin,
                       lam=1.0)


class TestSgText:
    def test_round_trip_bit_exact(self, scene):
        graph, _, rect, _ = scene
        text = to_sgtext(graph, 100, 100, 1.0, 2.0)
        doc = parse_sgtext(text)
        assert format_sgtext(doc) == text

    def test_header_and_counts(self, scene):
        graph, _, _, _ = scene
        doc = parse_sgtext(to_sgtext(graph, 100, 100, 1.0, 2.0))
        assert (doc.width, doc.height) == (100, 100)
        assert doc.lam == 1.0 and doc.bbox_scale == 2.0
        assert len(doc.nodes) == len(graph.nodes)
        assert len(doc.links) == len(graph.links)

    def test_parse_rejects_garbage(self, scene):
        graph, _, _, _ = scene
        text = to_sgtext(graph, 100, 100, 1.0, 2.0)
        lines = text.splitlines()
        link = next(i for i, ln in enumerate(lines) if ln.startswith("e "))
        node = next(i for i, ln in enumerate(lines) if ln.startswith("n "))

        def field(i, k, value):
            parts = lines[i].split()
            parts[k] = value
            return "\n".join(lines[:i] + [" ".join(parts)] + lines[i + 1:])

        for bad in ("not a shockgraph file\n",
                    "\n".join(lines[:link + 5]) + "\n",  # a link cut short
                    field(0, 2, "wide"),  # header
                    field(node, 1, "one"), field(node, 3, "x"),  # node
                    field(link, 2, "a"), field(link, 6, "s"),  # link
                    field(link + 1, 1, "g")):  # geometry
            with pytest.raises(InvalidInputError):
                parse_sgtext(bad)

    @pytest.mark.parametrize("record, edit, message", [
        pytest.param("shockgraph", lambda ln: ln.rsplit(" ", 1)[0],
                     "malformed sgtext header", id="header-of-5-fields"),
        pytest.param("n ", lambda ln: ln + " 0", "malformed node line",
                     id="node-line-too-long"),
        pytest.param("g ", lambda ln: "g 1", "malformed geometry line",
                     id="geometry-line-of-2-fields"),
        pytest.param("e ", lambda ln: "x" + ln[1:], "unknown sgtext record",
                     id="unknown-record-letter")])
    def test_parse_rejects_malformed_records(self, scene, record, edit,
                                             message):
        graph, _, _, _ = scene
        lines = to_sgtext(graph, 100, 100, 1.0, 2.0).splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(record))
        lines[k] = edit(lines[k])
        with pytest.raises(InvalidInputError, match=message):
            parse_sgtext("\n".join(lines) + "\n")

    def test_deterministic(self, scene):
        graph, _, _, _ = scene
        a = to_sgtext(graph, 100, 100, 1.0, 2.0)
        b = to_sgtext(graph, 100, 100, 1.0, 2.0)
        assert a == b

    def test_file_round_trip(self, scene, tmp_path):
        graph, _, _, _ = scene
        text = to_sgtext(graph, 100, 100, 1.0, 2.0)
        p = tmp_path / "scene.sg"
        p.write_text(text, encoding="utf-8")
        assert read_text(p) == text


class TestGraphML:
    def test_parses_as_xml(self, scene):
        graph, _, _, _ = scene
        root = ET.fromstring(to_graphml(graph, 100, 100, 1.0, 2.0))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        g = root.find(f"{ns}graph")
        assert g is not None
        assert len(g.findall(f"{ns}node")) == len(graph.nodes)
        assert len(g.findall(f"{ns}edge")) == len(graph.links)


class TestSvg:
    def test_colors_present(self, scene):
        graph, elements, rect, box_fid = scene
        svg = to_svg(graph, elements, rect, box_fragment_id=box_fid)
        assert "#FF0000" in svg    # contours
        assert "#00FF00" in svg    # shock links
        assert "#FF00FF" in svg    # bounding box
        ET.fromstring(svg)
