"""Fixed-length feature vectors for shock graph nodes and links.

Each node is summarized by a 58-entry vector whose populated prefix depends
on the node degree (28 / 43 / 56 for degrees 2 / 3 / 4); the remainder is
exactly zero.  The prefix is a node block followed by one 8-value block per
incident link:

    node block  [x, y, r, label] ++ [theta_i] ++ [phi_i] ++ [bp_i: x, y, theta]
    edge block  [s, kappa, area, label, s_B+, k_B+, s_B-, k_B-]

theta_i is the direction in which link i leaves the node, phi_i the object
angle between that direction and the contact rays, and bp_i the plus-side
contact point with its boundary tangent angle.  node_features computes them
here, from each incident link end (ShockLink.end), and visits the ends in
increasing theta, ties broken by link id.  The degree-2 node block is truncated
to 12 entries so the degree-2 prefix is exactly 28; degree-1 leaves are
padded as degree 2 with an all-zero second block.

graph_features builds both matrices of a graph: each link's edge vector
once, and each node's vector from the rows of its incident links.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FeatureOverflowError
from .graph import (LINK_LABEL_CODES, NODE_LABEL_CODES, ShockGraph, ShockLink,
                    ShockNode)

FEATURE_LENGTH = 58

# node-block entry counts per padded degree (4 + 5*d, degree 2 clamped)
_NODE_BLOCK = {2: 12, 3: 19, 4: 24}
PREFIX_LENGTH = {d: _NODE_BLOCK[d] + 8 * d for d in _NODE_BLOCK}  # 28/43/56


def edge_features(link: ShockLink) -> np.ndarray:
    """8-entry edge block of a link (see module docstring)."""
    return np.array([
        link.length,
        link.curvature,
        link.area,
        float(LINK_LABEL_CODES[link.label]),
        link.boundary_plus.arc_length,
        link.boundary_plus.curvature,
        link.boundary_minus.arc_length,
        link.boundary_minus.curvature,
    ])


def _boundary_tangent(elements: list, gid: int) -> float:
    """Boundary tangent angle at a contact: segment direction for segment
    generators, 0 for point generators (no defined tangent) and for ids
    not in elements."""
    if not 0 <= gid < len(elements) or elements[gid].is_point:
        return 0.0
    (ax, ay), (bx, by) = elements[gid].geometry
    return math.atan2(by - ay, bx - ax)


def node_features(node: ShockNode, graph: ShockGraph,
                  ef: np.ndarray) -> np.ndarray:
    """58-entry feature vector of a node in its graph (see module docstring).
    ef is the graph's edge feature matrix, one row per link id, as
    graph_features builds it.

    Raises FeatureOverflowError above degree 4: the fixed layout has no slot
    for a fifth incident link.
    """
    d = node.degree
    if d > 4:
        raise FeatureOverflowError(
            f"node {node.id}: degree {d} exceeds the feature layout maximum 4")
    if d == 0:
        vec = np.zeros(FEATURE_LENGTH)
        vec[0], vec[1] = node.location
        vec[2] = node.radius
        vec[3] = float(NODE_LABEL_CODES[node.label])
        return vec
    padded = max(d, 2)  # degree-1 leaves carry one all-zero block

    thetas = np.zeros(padded)
    phis = np.zeros(padded)
    bps = np.zeros((padded, 3))
    edges = np.zeros((padded, 8))
    ends = []
    for lid, out in zip(node.link_ids, node.outgoing):
        end = graph.links[lid].end(out)
        away = end.tangent()
        ends.append((math.atan2(away[1], away[0]), lid, end))
    ends.sort(key=lambda e: e[:2])
    for i, (theta, lid, end) in enumerate(ends):
        thetas[i] = theta
        # contact rays make angle phi with the away-tangent:
        # dot(away, ray) = -dr/ds measured away from the node
        phis[i] = math.acos(min(1.0, max(-1.0, -end.dradius())))
        bx, by = end.contacts()[0]
        gen_plus = end.piece.side_generators()[0]
        bps[i] = (bx, by, _boundary_tangent(graph.elements, gen_plus))
        edges[i] = ef[lid]

    block = np.concatenate([
        [node.location[0], node.location[1], node.radius,
         float(NODE_LABEL_CODES[node.label])],
        thetas, phis, bps.ravel(),
    ])[:_NODE_BLOCK[padded]]
    vec = np.zeros(FEATURE_LENGTH)
    prefix = np.concatenate([block, edges.ravel()])
    vec[:len(prefix)] = prefix
    return vec


def graph_features(graph: ShockGraph):
    """(node feature matrix, edge feature matrix) for a whole graph.  Each
    link's edge vector is built once, and the node vectors read its row."""
    ef = np.zeros((len(graph.links), 8))
    for ln in graph.links:
        ef[ln.id] = edge_features(ln)
    nf = np.zeros((len(graph.nodes), FEATURE_LENGTH))
    for nd in graph.nodes:
        nf[nd.id] = node_features(nd, graph, ef)
    return nf, ef
