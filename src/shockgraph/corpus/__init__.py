"""Golden-scene corpus: analytic shapes with frozen expected summaries.

Scene files and the expectation manifest live next to this module;
``verify_corpus()`` runs the full pipeline on every scene and checks the
manifest expectations, reporting each mismatch as an expected-vs-actual
diff line.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .. import cli
from ..contours import parse_scene_text
from ..errors import InvalidInputError
from ..regularize import prune

_CONFIG = cli.RunConfig(inputs=[], polyline_epsilon=0.0)


@dataclass
class GoldenScene:
    scene_file: str
    lam: float = 1.0
    expectations: list = field(default_factory=list)  # (kind, args, tag)


@dataclass
class CorpusResult:
    scene_file: str
    ok: bool
    diffs: list  # human-readable expected-vs-actual lines


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def load_manifest() -> list[GoldenScene]:
    scenes = []
    for lineno, raw in enumerate(_read("manifest.txt").splitlines(), 1):
        line = raw.split("#", 1)[0] if raw.lstrip().startswith("#") else raw
        line = line.strip()
        if not line:
            continue
        parts = line.split("[", 1)[0].split()
        tag = "[" + line.split("[", 1)[1] if "[" in line else ""
        try:
            if parts[0] == "scene":
                scenes.append(GoldenScene(parts[1]))
            elif parts[0] == "lambda":
                scenes[-1].lam = float(parts[1])
            elif parts[0] == "expect":
                scenes[-1].expectations.append((parts[1], parts[2:], tag))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise InvalidInputError(
                f"manifest parse error at line {lineno}: {exc}") from exc
    return scenes


def _fragment_subgraph(graph, box_ids):
    """Links not generated by the bounding box on either side, as an
    undirected adjacency, plus per-node (degree, inflow) counts."""
    links = [ln for ln in graph.links
             if not box_ids.intersection(ln.generators(0) + ln.generators(1))]
    deg: dict[int, int] = {}
    inflow: dict[int, int] = {}
    adj: dict[int, set] = {}
    for ln in links:
        for nid in (ln.from_node, ln.to_node):
            deg[nid] = deg.get(nid, 0) + 1
            adj.setdefault(nid, set())
        adj[ln.from_node].add(ln.to_node)
        adj[ln.to_node].add(ln.from_node)
        inflow[ln.to_node] = inflow.get(ln.to_node, 0) + 1
    seen: set = set()
    comps = 0
    for nid in adj:
        if nid in seen:
            continue
        comps += 1
        stack = [nid]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj[cur] - seen)
    return links, deg, inflow, comps


def _check(kind, args, graph, deg, inflow, comps) -> str | None:
    """None when the expectation holds, else an expected-vs-actual diff."""
    if kind == "nodes":
        want, got = int(args[0]), len(graph.nodes)
    elif kind == "links":
        want, got = int(args[0]), len(graph.links)
    elif kind == "node":
        x, y, r, tol = (float(args[0]), float(args[1]),
                        float(args[3]), float(args[5]))
        for nd in graph.nodes:
            if (np.hypot(nd.location[0] - x, nd.location[1] - y) <= tol
                    and abs(nd.radius - r) <= tol):
                return None
        return (f"node ({x}, {y}) r {r}: no node within {tol}; nearest "
                + repr(min(((nd.location, nd.radius) for nd in graph.nodes),
                           key=lambda lr: np.hypot(lr[0][0] - x,
                                                   lr[0][1] - y))))
    elif kind == "subgraph":
        sub, n = args[0], int(args[1])
        got = comps if sub == "components" else \
            sum(1 for d in deg.values() if d >= 3)
        want = n
        kind = f"subgraph {sub}"
    elif kind == "junction":
        x, y, r, k, tol = (float(args[0]), float(args[1]), float(args[3]),
                           int(args[5]), float(args[7]))
        for nid, d in deg.items():
            nd = graph.nodes[nid]
            if d >= 3 and np.hypot(nd.location[0] - x,
                                   nd.location[1] - y) <= tol:
                if abs(nd.radius - r) > tol:
                    return f"junction ({x}, {y}): radius {nd.radius} != {r}"
                if inflow.get(nid, 0) != k:
                    return (f"junction ({x}, {y}): "
                            f"{inflow.get(nid, 0)} inflows != {k}")
                return None
        return f"junction ({x}, {y}): no degree>=3 subgraph node within {tol}"
    else:
        return f"unknown expectation kind {kind!r}"
    return None if got == want else f"{kind}: expected {want}, got {got}"


def verify_corpus() -> list[CorpusResult]:
    """Run the pipeline on every golden scene and check its expectations."""
    results = []
    for golden in load_manifest():
        width, height, frags = parse_scene_text(_read(golden.scene_file))
        graph, elements, _, box_fid = cli.build(frags, width, height, _CONFIG)
        graph = prune(graph, elements, lam=golden.lam, box_fragment_id=box_fid)
        box_ids = {e.id for e in elements if e.fragment_id == box_fid}
        _, deg, inflow, comps = _fragment_subgraph(graph, box_ids)
        diffs = []
        for kind, args, _tag in golden.expectations:
            diff = _check(kind, args, graph, deg, inflow, comps)
            if diff:
                diffs.append(diff)
        results.append(CorpusResult(golden.scene_file, not diffs, diffs))
    return results
