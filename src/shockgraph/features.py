"""Fixed-length feature vectors for shock graph nodes and links.

Each node is summarized by a 58-entry vector whose populated prefix depends
on the node degree (28 / 43 / 56 for degrees 2 / 3 / 4); the remainder is
exactly zero.  The prefix is a node block followed by one 8-value block per
incident link:

    node block  [x, y, r, label] ++ [theta_i] ++ [phi_i] ++ [bp_i: x, y, theta]
    edge block  [s, kappa, area, label, s_B+, k_B+, s_B-, k_B-]

theta_i is the direction in which link i leaves the node, phi_i the object
angle between that direction and the contact rays, and bp_i the plus-side
contact point with its boundary tangent angle (graph.LinkArrays.ends).  A
node visits its link ends in increasing theta, ties broken by link id.  The
degree-2 node block is truncated to 12 entries so the degree-2 prefix is
exactly 28; degree-1 leaves are padded as degree 2 with an all-zero second
block.  k_B+ and k_B-, the mean boundary curvature on each side, are
identically 0 for point/segment scenes.

graph_features builds both matrices of a graph from its link arrays: each
link's edge row once, and each node's vector from the rows of its incident
links.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FeatureOverflowError
from .graph import LINK_LABEL_CODES, NODE_LABEL_CODES, ShockGraph

FEATURE_LENGTH = 58

# node-block entry counts per padded degree (4 + 5*d, degree 2 clamped)
_NODE_BLOCK = {2: 12, 3: 19, 4: 24}
PREFIX_LENGTH = {d: _NODE_BLOCK[d] + 8 * d for d in _NODE_BLOCK}  # 28/43/56


def _boundary_tangent(elements: list, gid: int) -> float:
    """Boundary tangent angle at a contact: segment direction for segment
    generators, 0 for point generators (no defined tangent) and for ids
    not in elements."""
    if not 0 <= gid < len(elements) or elements[gid].is_point:
        return 0.0
    (ax, ay), (bx, by) = elements[gid].geometry
    return math.atan2(by - ay, bx - ax)


def graph_features(graph: ShockGraph):
    """(node feature matrix, edge feature matrix) for a whole graph (see
    module docstring).

    Raises FeatureOverflowError, before any attribute is computed, on a
    node above degree 4: the fixed layout has no slot for a fifth incident
    link.
    """
    for nd in graph.nodes:
        if nd.degree > 4:
            raise FeatureOverflowError(
                f"node {nd.id}: degree {nd.degree} exceeds the feature "
                f"layout maximum 4")
    arrays = graph.link_arrays
    ef = np.zeros((len(graph.links), 8))
    ef[:, 0] = [ln.length for ln in graph.links]
    ef[:, 1] = arrays.curvature
    ef[:, 2] = arrays.area
    ef[:, 3] = [LINK_LABEL_CODES[ln.label] for ln in graph.links]
    ef[:, [4, 6]] = arrays.boundary_length

    nf = np.zeros((len(graph.nodes), FEATURE_LENGTH))
    nf[:, :4] = np.array([(*nd.location, nd.radius,
                           NODE_LABEL_CODES[nd.label])
                          for nd in graph.nodes]).reshape(-1, 4)
    # every link end, node-major: node, link, end column (0 from, 1 to)
    ends = [(nd.id, lid, 0 if out else 1) for nd in graph.nodes
            for lid, out in zip(nd.link_ids, nd.outgoing)]
    if not ends:
        return nf, ef
    node, link, col = np.array(ends, dtype=np.intp).T
    theta, phi, bx, by, gen = (v[link, col] for v in arrays.ends)
    order = np.lexsort((link, theta, node))
    node, link, theta, phi, bx, by, gen = (
        v[order] for v in (node, link, theta, phi, bx, by, gen))
    starts = np.searchsorted(node, node)       # first end of each end's node
    i = np.arange(len(node)) - starts          # rank at its node
    degree = np.array([nd.degree for nd in graph.nodes])[node]
    pad = np.maximum(degree, 2)
    block = np.array([_NODE_BLOCK.get(d, 0) for d in range(5)])[pad]
    tangents = {g: _boundary_tangent(graph.elements, g)
                for g in set(gen.tolist())}
    vals = np.stack([theta, phi, bx, by,
                     [tangents[g] for g in gen.tolist()]], axis=1)
    bp = 4 + 2 * pad + 3 * i
    cols = np.stack([4 + i, 4 + pad + i, bp, bp + 1, bp + 2], axis=1)
    keep = cols < block[:, None]
    nf[np.broadcast_to(node[:, None], cols.shape)[keep], cols[keep]] = \
        vals[keep]
    nf[node[:, None], (block + 8 * i)[:, None] + np.arange(8)] = ef[link]
    return nf, ef
