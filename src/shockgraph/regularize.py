"""Bounding-box augmentation and saliency-based pruning.

A polyline approximation of a smooth contour introduces one shock branch per
vertex; these branches are artifacts of the sampling, not of the shape. Each
leaf-side link is scored by the amount of boundary deformation needed to
erase it: for a branch rooted at a convex corner the score is the distance
from the corner vertex to the inscribed arc of radius r_tip (the branch
disappears once the corner is rounded that much); for other leaves it is the
radius gained from tip to interior end. Pruning runs in rounds: each round
removes the leaf links scoring at most lambda and re-assembles the rest
(graph.assemble), which dissolves the flow-through nodes the removal
exposed, so the next round scores whole branches again. At the fixed point
the graph is the shock graph of the underlying smooth contour.
"""
from __future__ import annotations

import numpy as np

from .contours import ContourFragment
from .errors import InvalidInputError
from .geometry import COORD_LIMIT, Rect
from .graph import ShockGraph, ShockLink, ShockNode, assemble

_CORNER_RADIUS_EPS = 1e-7   # leaf radii below this count as boundary-rooted
_PRUNE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Bounding box
# ---------------------------------------------------------------------------

def augment_with_box(fragments: list[ContourFragment],
                     width: float, height: float, scale: float = 2.0):
    """Append a closed rectangular fragment of dimensions scale*(width,
    height) centered on the image. Returns (fragments + [box], box_rect,
    box_fragment_id); box_rect is also the propagation clip window, so every
    shock path terminates on it.  A box with a coordinate beyond
    COORD_LIMIT is an input error."""
    if not scale > 1.0:
        raise InvalidInputError("bounding-box scale must exceed 1")
    cx, cy = 0.5 * width, 0.5 * height
    hw, hh = 0.5 * scale * width, 0.5 * scale * height
    rect = Rect(cx - hw, cy - hh, cx + hw, cy + hh)
    big = max(abs(v) for v in (rect.xmin, rect.ymin, rect.xmax, rect.ymax))
    if not big <= COORD_LIMIT:
        raise InvalidInputError(
            f"bounding box coordinate {big:g} is too large: the limit is "
            f"{COORD_LIMIT:g}")
    for f in fragments:
        v = f.vertices
        if (v[:, 0].min() <= rect.xmin or v[:, 0].max() >= rect.xmax
                or v[:, 1].min() <= rect.ymin or v[:, 1].max() >= rect.ymax):
            raise InvalidInputError(
                f"fragment {f.id} is not strictly inside the bounding box")
    fid = max((f.id for f in fragments), default=-1) + 1
    box = ContourFragment(fid, np.array(rect.corners(), dtype=float),
                          closed=True)
    return fragments + [box], rect, fid


# ---------------------------------------------------------------------------
# Saliency
# ---------------------------------------------------------------------------

def _is_leaf_node(node: ShockNode) -> bool:
    """A branch tip: a degree-1 node, or a source rooted on the boundary
    (radius ~ 0, i.e. a polyline vertex). Positive-radius degree >= 2
    sources are local radius minima in the middle of a shock curve, not
    tips: the curve continues through them."""
    if not node.link_ids:
        return False
    if len(node.link_ids) == 1:
        return True
    return all(node.outgoing) and node.radius <= _CORNER_RADIUS_EPS


def _deformation(link: ShockLink, out: bool, r_leaf: float,
                 r_far: float) -> float:
    """Boundary deformation that erases a link from its leaf end, its from
    node if out, else its to node; r_leaf and r_far are the radii of the
    leaf and far end nodes.

    In an assembled graph a link runs from node to real node (junction,
    multi-way source/sink, or head-on degree-2 meeting), so a whole branch
    is scored at once; scoring raw links would nibble a long real branch
    away in increments that each clear the threshold even when the branch
    as a whole does not."""
    if r_leaf <= _CORNER_RADIUS_EPS * max(1.0, r_far):
        # Rooted on the boundary at a convex corner: r grows as sin(psi)
        # per unit arc length along the bisector, psi the half corner angle.
        # The rounding argument only holds while the corner's own two edges
        # generate the shock, i.e. up to the first generator transition
        # (end of the first bisector piece); beyond it the branch is part
        # of the underlying axis and costs its full radius gain.
        end = link.end(out)
        p = end.piece
        r_corner = min(float(p.bisector.radius(p.t1 if out else p.t0)), r_far)
        sin_psi = min(1.0, max(0.0, end.dradius()))
        return (r_corner * (1.0 - sin_psi) / max(sin_psi, 1e-9)
                + max(0.0, r_far - r_corner))
    return max(0.0, r_far - r_leaf)


def _leaf_links(graph: ShockGraph, lam: float) -> dict:
    """Every link at a leaf whose deformation is at most lam, mapped to its
    far end node. Leaves are visited by node id, then in incident order,
    and the first visit of a link decides its far end."""
    doomed = {}
    for nd in graph.nodes:
        if not _is_leaf_node(nd):
            continue
        for lid, out in zip(nd.link_ids, nd.outgoing):
            ln = graph.links[lid]
            far = ln.to_node if out else ln.from_node
            if lid not in doomed and _deformation(
                    ln, out, nd.radius,
                    graph.nodes[far].radius) <= lam + _PRUNE_SLACK:
                doomed[lid] = far
    return doomed


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _is_box_side(link: ShockLink, box_elem_ids: set) -> bool:
    """True when either contact side of the link is generated entirely by
    bounding-box elements."""
    return any(all(g in box_elem_ids for g in link.generators(side))
               for side in (0, 1))


def _without(graph: ShockGraph, doomed: dict, elements) -> ShockGraph:
    """graph re-assembled without the doomed links, given as link id -> far
    end node (or None) in removal order.

    A node the removal leaves link-less survives as an isolated collapse
    sink only if it is the far end of the last removed link that touched
    it; isolated sinks of graph survive as they are."""
    order = {lid: i for i, lid in enumerate(doomed)}
    sinks = set()
    for nd in graph.nodes:
        if all(lid in order for lid in nd.link_ids) and (
                not nd.link_ids
                or doomed[max(nd.link_ids, key=order.get)] == nd.id):
            sinks.add(nd.id)
    return assemble([(ln.id, ln.from_node, ln.to_node, ln.pieces)
                     for ln in graph.links if ln.id not in order],
                    graph.nodes, elements, graph.stats,
                    keep_isolated=sinks, scene=graph.scene)


def prune(graph: ShockGraph, elements, lam: float = 1.0,
          drop_box_links: bool = False,
          box_fragment_id: int | None = None) -> ShockGraph:
    """Remove leaf links with deformation <= lam, round by round, until a
    fixed point; returns a new graph.

    Each round scores every leaf link of the current graph, removes those
    at most lam in one batch, and re-assembles the rest, so a node that
    the batch leaves flow-through is dissolved and its two links are one
    composite link, a whole branch, when the next round scores them.
    Scoring the whole batch before removing any of it keeps a link from
    being priced through a node that only became flow-through within the
    round, with another leaf's corner formula.

    With drop_box_links, links whose contact on either side is generated
    purely by the bounding box (including box-box corner shocks) are removed
    first, as a round of their own; by default they are retained.
    stats["pruned_links"] counts the links of graph that the leaf rounds
    removed.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    box = {}
    if drop_box_links:
        if box_fragment_id is None:
            raise ValueError("drop_box_links requires box_fragment_id")
        box_ids = {e.id for e in elements
                   if e.fragment_id == box_fragment_id}
        box = {ln.id: None for ln in graph.links
               if _is_box_side(ln, box_ids)}
    # the box links, when there are any, are the first round's removal set
    out = _without(graph, box or _leaf_links(graph, lam), elements)
    while doomed := _leaf_links(out, lam):
        out = _without(out, doomed, elements)
    # links are removed whole, so a link of graph survives iff its first
    # piece does
    kept = {id(p) for ln in out.links for p in ln.pieces}
    survivors = sum(id(ln.pieces[0]) in kept for ln in graph.links)
    out.stats = {**graph.stats,
                 "pruned_links": len(graph.links) - len(box) - survivors,
                 "dropped_box_links": len(box), "lambda": lam}
    return out
