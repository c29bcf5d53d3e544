"""Core graph types and construction primitives.

Graphs are simple, undirected, on dense integer vertex ids 0..n-1.  Every
vertex carries a role string ("" for untagged) so that generated families can
be addressed by their construction names ("x1", "u2", "z", ...).  A graph may
distinguish a set of heavy edges.  Adjacency is stored once, as one bitmask
per vertex (bit u of vertex v's mask is set iff uv is an edge), and every
query reads it.  Instances are immutable; all operations return new graphs.
"""

from __future__ import annotations

import itertools


class GraphError(ValueError):
    """Structurally invalid graph data or a misused operation."""


class SizeCapError(GraphError):
    """An exact search was asked to exceed its size cap."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class LabeledGraph:
    """Immutable simple graph with role-tagged vertices and heavy edges."""

    __slots__ = ("n", "roles", "heavy_edges", "_masks")

    def __init__(self, n, edges=(), roles=None, heavy_edges=()):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)

        if roles is None:
            roles = ("",) * n
        else:
            roles = tuple(roles)
            if len(roles) != n:
                raise GraphError("roles length does not match vertex count")
        seen = set()
        for r in roles:
            if r:
                if r in seen:
                    raise GraphError(f"duplicate role tag {r!r}")
                seen.add(r)
        self.roles = roles

        heavy = []
        for u, v in heavy_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"heavy edge ({u},{v}) out of range for n={n}")
            e = _norm_edge(u, v)
            if not self.has_edge(*e):
                raise GraphError(f"heavy edge {e} is not an edge of the graph")
            if e in heavy:
                raise GraphError(f"repeated heavy edge {e}")
            heavy.append(e)
        self.heavy_edges = tuple(heavy)

    # -- basic queries ----------------------------------------------------

    def neighbors(self, v: int) -> list[int]:
        """The neighbours of v, ascending."""
        return bits_of(self._masks[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        return self._masks[u] & (1 << v) != 0

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v, ascending."""
        return [(u, v) for u, m in enumerate(self._masks)
                for v in bits_of(m >> u + 1 << u + 1)]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks: bit u of entry v is set iff uv is an edge."""
        return self._masks

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n == 0 or reach(self._masks, 1, full) == full

    # -- roles ------------------------------------------------------------

    def vertex(self, role: str) -> int:
        """Id of the vertex tagged `role`; raises if absent."""
        try:
            return self.roles.index(role)
        except ValueError:
            raise GraphError(f"no vertex with role {role!r}") from None

    def vertices_with_prefix(self, prefix: str) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r.startswith(prefix)]

    # -- derived graphs ---------------------------------------------------

    def with_added_edges(self, new_edges) -> "LabeledGraph":
        return LabeledGraph(self.n, self.edges() + list(new_edges),
                            self.roles, self.heavy_edges)

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={self.edge_count})"


def bits_of(mask: int) -> list[int]:
    """The set bits of mask (vertex ids), lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _mask_of(vertices) -> int:
    """The bitmask of the vertex ids in `vertices`."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _closed_masks(masks: list[int]) -> list[int]:
    """Each vertex's closed neighbourhood: its row of masks plus itself."""
    return [m | 1 << v for v, m in enumerate(masks)]


def _row_groups(rows) -> dict[int, int]:
    """Each distinct entry of rows, in order of first appearance, mapped to
    the mask of the positions holding it."""
    groups: dict[int, int] = {}
    for v, row in enumerate(rows):
        groups[row] = groups.get(row, 0) | 1 << v
    return groups


def _step(adj_masks, mask: int) -> int:
    """Union of the neighbourhoods (out-arcs) of the vertices in mask."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= adj_masks[bit.bit_length() - 1]
    return out


def reach(adj_masks, start_mask: int, within_mask: int) -> int:
    """The vertices of within_mask reachable from start_mask (a subset of it)
    along edges that stay inside within_mask, as a bitmask."""
    seen = frontier = start_mask
    while frontier:
        frontier = _step(adj_masks, frontier) & within_mask & ~seen
        seen |= frontier
    return seen


def shortest_path(adj_masks, s: int, t: int, within_mask: int) -> list[int] | None:
    """A shortest s-t path whose vertices after s lie in within_mask, or None.

    Breadth-first by layers; walking back from t, each vertex's predecessor
    is the lowest-id vertex of the previous layer with an arc to it.  Arcs
    are read from adj_masks, so directed graphs work as well.
    """
    layers = [1 << s]
    seen = layers[0]
    while not seen >> t & 1:
        frontier = _step(adj_masks, layers[-1]) & within_mask & ~seen
        if not frontier:
            return None
        layers.append(frontier)
        seen |= frontier
    path = [t]
    for layer in reversed(layers[:-1]):
        while not adj_masks[(layer & -layer).bit_length() - 1] >> path[-1] & 1:
            layer &= layer - 1
        path.append((layer & -layer).bit_length() - 1)
    return path[::-1]


# -- small builders --------------------------------------------------------

def complete_graph(n: int, roles=None) -> LabeledGraph:
    edges = list(itertools.combinations(range(n), 2))
    return LabeledGraph(n, edges, roles)


def empty_graph(n: int, roles=None) -> LabeledGraph:
    return LabeledGraph(n, (), roles)


def path_graph(n: int, roles=None) -> LabeledGraph:
    return LabeledGraph(n, [(i, i + 1) for i in range(n - 1)], roles)


def disjoint_union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    off = g.n
    edges = g.edges() + [(u + off, v + off) for u, v in h.edges()]
    roles = list(g.roles) + list(h.roles)
    heavy = list(g.heavy_edges) + [(u + off, v + off) for u, v in h.heavy_edges]
    return LabeledGraph(g.n + h.n, edges, roles, heavy)


def join(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Disjoint union plus every edge between the two sides."""
    base = disjoint_union(g, h)
    cross = [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return LabeledGraph(base.n, base.edges() + cross, base.roles, base.heavy_edges)


# -- construction primitives ------------------------------------------------

def paste_clique(g: LabeledGraph, e, r: int, edge_index=None) -> LabeledGraph:
    """Glue a complete graph of order r onto the edge e.

    Adds r-2 fresh vertices adjacent to both ends of e and to each other.
    New vertices are tagged "paste<idx>.<copy>"; idx defaults to the heavy-edge
    index of e when e is heavy, otherwise to the endpoint pair.
    """
    e = _norm_edge(*e)
    if edge_index is not None:
        tag = f"paste{edge_index}"
    elif e in g.heavy_edges:
        tag = f"paste{g.heavy_edges.index(e)}"
    else:
        tag = f"paste({e[0]},{e[1]})"
    return paste_cliques(g, [(e, r, tag)])


def paste_cliques(g: LabeledGraph, pastes) -> LabeledGraph:
    """paste_clique for each (edge of g, order r, tag) of pastes in turn, with
    the fresh vertices tagged "<tag>.<copy>" and the result built once."""
    edges = g.edges()
    roles = list(g.roles)
    n = g.n
    for e, r, tag in pastes:
        if r < 2:
            raise GraphError(f"pasted clique order must be at least 2, got {r}")
        a, b = _norm_edge(*e)
        if not g.has_edge(a, b):
            raise GraphError(f"cannot paste onto non-edge {(a, b)}")
        fresh = range(n, n + r - 2)
        edges += [(end, w) for w in fresh for end in (a, b)]
        edges += itertools.combinations(fresh, 2)
        roles += [f"{tag}.{c}" for c in range(r - 2)]
        n += r - 2
    return LabeledGraph(n, edges, roles, g.heavy_edges)


# -- cycles ------------------------------------------------------------------

class Cycle:
    """Ordered vertex cycle certificate: distinct vertices, length >= 3."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise GraphError("cycle repeats a vertex")
        self.vertices = vs

    def validate(self, g: LabeledGraph) -> "Cycle":
        """Check ids and consecutive (and wrap-around) adjacency in g; returns self."""
        vs = self.vertices
        if min(vs) < 0 or max(vs) >= g.n:
            raise GraphError(f"cycle {list(vs)} leaves the vertex range 0..{g.n - 1}")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not g.has_edge(a, b):
                raise GraphError(f"cycle edge ({a},{b}) is not an edge")
        return self

    def edge_set(self) -> set[tuple[int, int]]:
        vs = self.vertices
        return {_norm_edge(a, b) for a, b in zip(vs, vs[1:] + vs[:1])}

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self):
        return f"Cycle({list(self.vertices)})"


def cycle_from_edge_set(g: LabeledGraph, edges) -> Cycle:
    """Order a degree-2 edge set into a single cycle and validate it against g."""
    nbr: dict[int, list[int]] = {}
    for u, v in edges:
        if not g.has_edge(u, v):
            raise GraphError(f"({u},{v}) is not an edge of the graph")
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    for v, ns in nbr.items():
        if len(ns) != 2:
            raise GraphError(f"vertex {v} has degree {len(ns)} in the edge set")
    start = min(nbr)
    order = [start, nbr[start][0]]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != len(nbr):
        raise GraphError("edge set is not a single cycle")
    return Cycle(order).validate(g)
