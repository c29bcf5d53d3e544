"""Clique trees and subtree intersection models.

A chordal graph is the intersection graph of subtrees of a host tree.  This
module builds such models two ways: generically (maximal cliques from a
perfect elimination ordering, host = maximum-weight spanning tree of the
clique graph) and explicitly for the pasted families, where the host is a
path with a pendant leaf per heavy edge and each pasted vertex reuses the
leaf where the two ends of its heavy edge meet.  Leaf/branch counts of the
explicit hosts are what the tree-structure results are about.
"""

from __future__ import annotations

from collections import namedtuple

from .chordal import is_chordal
from .core import GraphError, LabeledGraph, _mask_of, bits_of, reach
from .families import HkSpec, build_hk, build_jk, pasted_vertices


class HostTree:
    """Tree on node ids 0..n-1 with printable node labels."""

    __slots__ = ("n_nodes", "edges", "labels", "_adj")

    def __init__(self, n_nodes, edges, labels=None):
        self.n_nodes = n_nodes
        self.edges = tuple((min(a, b), max(a, b)) for a, b in edges)
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(n_nodes))
        if len(self.labels) != n_nodes:
            raise GraphError("label count does not match node count")
        adj = [0] * n_nodes  # neighbor bitmasks
        for a, b in self.edges:
            if not (0 <= a < n_nodes and 0 <= b < n_nodes) or a == b:
                raise GraphError(f"bad tree edge ({a},{b})")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self._adj = tuple(adj)
        if len(self.edges) != n_nodes - 1 or not self.subset_connected(range(n_nodes)):
            raise GraphError("host is not a tree")

    def degree(self, node):
        return self._adj[node].bit_count()

    def node(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"no tree node labeled {label!r}")

    def subset_connected(self, nodes) -> bool:
        mask = _mask_of(nodes)
        return mask != 0 and reach(self._adj, mask & -mask, mask) == mask


def tree_stats(tree: HostTree) -> tuple[int, int, int]:
    """(leaves, branch vertices, max degree); a single node counts as one leaf."""
    if tree.n_nodes == 1:
        return (1, 0, 0)
    degs = [tree.degree(v) for v in range(tree.n_nodes)]
    return (sum(1 for d in degs if d == 1),
            sum(1 for d in degs if d >= 3),
            max(degs))


class SubtreeModel(namedtuple("SubtreeModel", "host assign")):
    """One subtree of the host per graph vertex, as `assign`: vertex -> frozenset
    of host nodes; adjacency = subtree intersection."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "host_edges": [[a, b] for a, b in self.host.edges],
            "host_labels": list(self.host.labels),
            "assign": {str(v): sorted(nodes) for v, nodes in self.assign.items()},
        }


def verify_model(model: SubtreeModel, g: LabeledGraph):
    """(ok, first discrepancy).  Checks subtree-ness, then that each vertex's
    adjacency mask is the OR of its host nodes' member masks (least pair first)."""
    if sorted(model.assign) != list(range(g.n)):
        return False, "assignment does not cover the vertex set"
    members = [0] * model.host.n_nodes  # graph vertices on each host node
    for v in range(g.n):
        nodes = model.assign[v]
        if not nodes:
            return False, f"vertex {v} has an empty node set"
        if any(not 0 <= x < model.host.n_nodes for x in nodes):
            return False, f"vertex {v} uses a node outside the host"
        if not model.host.subset_connected(nodes):
            return False, f"vertex {v}: assigned nodes are not a subtree"
        for x in nodes:
            members[x] |= 1 << v
    for u, adj in enumerate(g.adjacency_masks()):
        meets = 0
        for x in model.assign[u]:
            meets |= members[x]
        # both relations are symmetric, so the first u that differs at all
        # differs first at its lowest bit v, and v > u
        diff = (meets & ~(1 << u)) ^ adj
        if diff:
            v = (diff & -diff).bit_length() - 1
            kind = "are adjacent but miss" if adj >> v & 1 else "intersect but are non-adjacent"
            return False, f"vertices {u},{v} {kind}"
    return True, None


# -- generic clique trees ---------------------------------------------------------

def maximal_cliques_chordal(g: LabeledGraph) -> list[tuple[int, ...]]:
    """Maximal cliques of a chordal graph via its elimination ordering."""
    return [c for c, _ in _maximal_cliques(g)]


def _maximal_cliques(g: LabeledGraph) -> list[tuple[tuple[int, ...], int]]:
    """(members, mask) of each maximal clique, in order of members.

    With L(v) the neighbours of v after it in a perfect elimination
    ordering, each maximal clique is some C_v = {v} + L(v), and C_v is not
    maximal iff C_v = L(u) for some u (Fulkerson and Gross, 1965)."""
    res = is_chordal(g)
    if not res:
        raise GraphError("clique trees exist only for chordal graphs")
    masks = g.adjacency_masks()
    after = (1 << g.n) - 1
    later = []
    for v in res.peo:
        after ^= 1 << v
        later.append(masks[v] & after)
    covered = set(later)
    return sorted((tuple(bits_of(c)), c) for c in (1 << v | lv for v, lv in zip(res.peo, later))
                  if c not in covered)


def clique_tree(g: LabeledGraph) -> SubtreeModel:
    """Host = maximum-weight spanning tree of the clique graph (weights =
    intersection sizes, ties by clique order); assign(v) = cliques holding v."""
    if not g.n:
        raise GraphError("clique trees need a graph with at least one vertex")
    if not g.is_connected():
        raise GraphError("clique trees are built for connected graphs")
    found = _maximal_cliques(g)
    q = len(found)
    holding = [0] * g.n  # the cliques holding each vertex, as a mask of indices
    for i, (members, _) in enumerate(found):
        for v in members:
            holding[v] |= 1 << i
    weighted = []  # only cliques that meet get an edge of the clique graph
    for i, (members, a) in enumerate(found):
        meets = 0
        for v in members:
            meets |= holding[v]
        for j in bits_of(meets >> i + 1 << i + 1):
            weighted.append((-(a & found[j][1]).bit_count(), i, j))
    weighted.sort()

    parent = list(range(q))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = []
    for _, i, j in weighted:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    if len(edges) != q - 1:
        raise GraphError("clique graph is disconnected")

    labels = ["{" + ",".join(map(str, c)) + "}" for c, _ in found]
    host = HostTree(q, edges, labels)
    assign = {v: frozenset(bits_of(h)) for v, h in enumerate(holding)}
    return SubtreeModel(host, assign)


# -- explicit models for the pasted families --------------------------------------

def _family_host(k: int, with_center_leaf: bool):
    """Path p1..p_{2k} with a pendant leaf q_i per node (p_{k+1} only for jk)."""
    labels = [f"p{i}" for i in range(1, 2 * k + 1)]
    edges = [(i, i + 1) for i in range(2 * k - 1)]
    q_node = {}
    for i in range(1, 2 * k + 1):
        if i == k + 1 and not with_center_leaf:
            continue
        q_node[i] = len(labels)
        edges.append((i - 1, len(labels)))
        labels.append(f"q{i}")
    return HostTree(len(labels), edges, labels), q_node


def _family_assignments(g: LabeledGraph, k: int, host: HostTree, q_node,
                        center_leaf: int | None):
    p = [host.node(f"p{i}") for i in range(1, 2 * k + 1)]
    all_p = frozenset(p)
    assign: dict[int, frozenset[int]] = {}

    assign[g.vertex("u1")] = frozenset({p[0], q_node[1]})
    for i in range(2, k + 1):
        assign[g.vertex(f"u{i}")] = frozenset({p[i - 2], p[i - 1], q_node[i]})
    zset = {p[k - 1], p[k]}
    vkset = {p[k], p[k + 1]}
    if center_leaf is not None:
        zset.add(center_leaf)
        vkset.add(center_leaf)
    assign[g.vertex("z")] = frozenset(zset)
    assign[g.vertex(f"v{k}")] = frozenset(vkset)
    for i in range(2, k):
        assign[g.vertex(f"v{i}")] = frozenset(
            {p[2 * k - i], p[2 * k + 1 - i], q_node[2 * k + 1 - i]})
    assign[g.vertex("v1")] = frozenset({p[2 * k - 1], q_node[2 * k]})
    for i in range(1, k):
        extra = {q_node[i], q_node[2 * k + 1 - i]}
        if center_leaf is not None:
            extra.add(center_leaf)
        assign[g.vertex(f"x{i}")] = all_p | extra
    extra = {q_node[k]}
    if center_leaf is not None:
        extra.add(center_leaf)
    assign[g.vertex(f"x{k}")] = all_p | extra

    # pasted vertices reuse the leaf where their heavy edge's two ends meet;
    # a size-r paste contributes r-2 copies of that one-node subtree
    for h in range(2 * k - 1):
        i = h + 1 if h < k else h - k + 1  # x-index of the heavy edge
        leaf = q_node[i] if h < k else q_node[2 * k + 1 - i]
        for w in pasted_vertices(g, h):
            assign[w] = frozenset({leaf})
    return assign


def explicit_model_hk(spec: HkSpec, g: LabeledGraph | None = None) -> SubtreeModel:
    """The explicit subtree model of g = build_hk(spec): 2k-1 leaves, 2k-3 branches."""
    g = build_hk(spec) if g is None else g
    host, q_node = _family_host(spec.k, with_center_leaf=False)
    assign = _family_assignments(g, spec.k, host, q_node, None)
    return SubtreeModel(host, assign)


def explicit_model_jk(k: int, clique_sizes, x_order: int,
                      g: LabeledGraph | None = None) -> SubtreeModel:
    """The explicit subtree model of g = build_jk: center leaf carries the big clique."""
    g = build_jk(k, clique_sizes, x_order) if g is None else g
    host, q_node = _family_host(k, with_center_leaf=True)
    center = q_node[k + 1]
    assign = _family_assignments(g, k, host, q_node, center)
    for w in g.vertices_with_prefix("X"):
        assign[w] = frozenset({center})
    return SubtreeModel(host, assign)
