"""Bounding-box augmentation and saliency-based pruning.

A polyline approximation of a smooth contour introduces one shock branch per
vertex; these branches are artifacts of the sampling, not of the shape. Each
leaf-side link is scored by the amount of boundary deformation needed to
erase it: for a branch rooted at a convex corner the score is the distance
from the corner vertex to the inscribed arc of radius r_tip (the branch
disappears once the corner is rounded that much); for other leaves it is the
radius gained from tip to interior end. Links scoring at most lambda are
removed iteratively and the surviving degree-2 flow-through nodes are
dissolved, recovering the shock graph of the underlying smooth contour.
"""
from __future__ import annotations

import numpy as np

from .contours import ContourFragment
from .errors import InvalidInputError
from .geometry import Rect
from .graph import ShockGraph, ShockLink, assemble

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
    shock path terminates on it."""
    if not scale > 1.0:
        raise InvalidInputError("bounding-box scale must exceed 1")
    cx, cy = 0.5 * width, 0.5 * height
    hw, hh = 0.5 * scale * width, 0.5 * scale * height
    rect = Rect(cx - hw, cy - hh, cx + hw, cy + hh)
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

def _is_leaf_node(nid: int, incident: dict, radii: dict) -> bool:
    """A branch tip: a degree-1 node, or a source rooted on the boundary
    (radius ~ 0, i.e. a polyline vertex). Positive-radius degree >= 2
    sources are local radius minima in the middle of a shock curve, not
    tips: the curve continues through them."""
    inc = incident[nid]
    if not inc:
        return False
    if len(inc) == 1:
        return True
    return all(out for _, out in inc) and radii[nid] <= _CORNER_RADIUS_EPS


def _leaf_chain(leaf_nid: int, first_lid: int, alive: dict, incident: dict):
    """Maximal run of links from a leaf through 1-in/1-out nodes.

    Branches are scored and removed as whole chains up to the first real
    node (junction, multi-way source/sink, or head-on degree-2 meeting);
    per-link scoring would nibble a long real branch away in increments
    that each clear the threshold even when the branch as a whole does not.

    Returns (link ids, far node id)."""
    run = []
    cur_l, cur_n = first_lid, leaf_nid
    seen = set()
    while True:
        run.append(cur_l)
        seen.add(cur_l)
        ln = alive[cur_l]
        nxt = ln.to_node if ln.from_node == cur_n else ln.from_node
        inc = incident[nxt]
        if len(inc) != 2 or sum(1 for _, out in inc if out) != 1:
            break
        other = [lid for lid, _ in inc if lid != cur_l]
        if not other or other[0] in seen:
            break
        cur_l, cur_n = other[0], nxt
    return run, nxt


def _chain_deformation(leaf_nid: int, first_lid: int, alive: dict,
                       incident: dict, radii: dict):
    """(deformation, chain link ids, far node id) for one leaf branch."""
    run, far = _leaf_chain(leaf_nid, first_lid, alive, incident)
    r_leaf, r_far = radii[leaf_nid], radii[far]
    if r_leaf <= _CORNER_RADIUS_EPS * max(1.0, r_far):
        # Rooted on the boundary at a convex corner: r grows as sin(psi)
        # per unit arc length along the bisector, psi the half corner angle.
        # The rounding argument only holds while the corner's own two edges
        # generate the shock, i.e. up to the first generator transition
        # (end of the first bisector piece); beyond it the branch is part
        # of the underlying axis and costs its full radius gain.
        ln = alive[first_lid]
        out = ln.from_node == leaf_nid
        end = ln.end(out)
        p = end.piece
        r_corner = min(float(p.bisector.radius(p.t1 if out else p.t0)), r_far)
        sin_psi = min(1.0, max(0.0, end.dradius()))
        d = (r_corner * (1.0 - sin_psi) / max(sin_psi, 1e-9)
             + max(0.0, r_far - r_corner))
    else:
        d = max(0.0, r_far - r_leaf)
    return d, run, far


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _is_box_side(link: ShockLink, box_elem_ids: set) -> bool:
    """True when either contact side of the link is generated entirely by
    bounding-box elements."""
    for ref in (link.boundary_plus, link.boundary_minus):
        if ref.generators and all(g in box_elem_ids for g in ref.generators):
            return True
    return False


def prune(graph: ShockGraph, elements, lam: float = 1.0,
          drop_box_links: bool = False,
          box_fragment_id: int | None = None) -> ShockGraph:
    """Iteratively remove leaf-side links with deformation <= lam until a
    fixed point, then dissolve the exposed flow-through nodes.

    With drop_box_links, links whose contact on either side is generated
    purely by the bounding box (including box-box corner shocks) are removed
    first; by default they are retained.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    alive = {ln.id: ln for ln in graph.links}
    incident = {nd.id: [] for nd in graph.nodes}
    for ln in graph.links:
        incident[ln.from_node].append((ln.id, True))
        incident[ln.to_node].append((ln.id, False))

    # isolated collapse sinks from an earlier prune pass survive verbatim
    collapse_sinks: set = {nd.id for nd in graph.nodes if not nd.link_ids}

    def remove(lid, keep_node=None):
        """Remove a link; a node left link-less survives as an isolated
        collapse sink only if it is keep_node (the link's interior end)."""
        ln = alive.pop(lid)
        for nid in (ln.from_node, ln.to_node):
            incident[nid] = [e for e in incident[nid] if e[0] != lid]
            if not incident[nid] and nid == keep_node:
                collapse_sinks.add(nid)

    dropped_box = 0
    if drop_box_links:
        if box_fragment_id is None:
            raise ValueError("drop_box_links requires box_fragment_id")
        box_ids = {e.id for e in elements
                   if e.fragment_id == box_fragment_id}
        for lid in sorted(alive):
            if _is_box_side(alive[lid], box_ids):
                remove(lid)
                dropped_box += 1

    radii = {nd.id: nd.radius for nd in graph.nodes}
    pruned = 0
    changed = True
    while changed:
        changed = False
        # Score every leaf chain against the state at the start of the
        # round, then remove in a batch.  Applying removals immediately
        # would let a later chain walk through a node that only became
        # flow-through within this round and price real axis segments
        # with another leaf's corner formula.
        batch = []
        for nid in sorted(incident):
            if not _is_leaf_node(nid, incident, radii):
                continue
            for lid, _ in incident[nid]:
                d, run, far = _chain_deformation(nid, lid, alive,
                                                 incident, radii)
                if d <= lam + _PRUNE_SLACK:
                    batch.append((run, far))
        for run, far in batch:
            for rid in run:
                if rid in alive:
                    remove(rid, keep_node=far)
                    pruned += 1
                    changed = True
    stats = {**graph.stats, "pruned_links": pruned,
             "dropped_box_links": dropped_box, "lambda": lam}
    return assemble([(ln.id, ln.from_node, ln.to_node, ln.pieces)
                     for ln in alive.values()], graph.nodes, elements, stats,
                    keep_isolated=collapse_sinks, scene=graph.scene)
