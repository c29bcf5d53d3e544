"""Generators for the counterexample families and their witness cycles.

The base family joins a clique onto a path:

    gk(k) = K_k v P_{2k+1},   clique vertices x1..xk,
                              path (in order) u1..uk, z, vk..v1.

Heavy edges are x_i u_i (1 <= i <= k) and x_i v_i (1 <= i <= k-1), kept in
that fixed order so clique sizes can be assigned per edge unambiguously.
Derived families paste cliques onto the heavy edges (hk), add a shortcut edge
(h_plus), blow path vertices up into cliques with attached independent sets
(s), subdivide the central edge (gkm/hkm), paste a large clique over the
center (jk), or grow one pasted clique for density (dn).
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    Cycle,
    GraphError,
    LabeledGraph,
    complete_graph,
    cycle_from_edge_set,
    disjoint_union,
    empty_graph,
    join,
    paste_cliques,
)


def heavy_edge_names(k: int) -> list[tuple[str, str]]:
    """Role-name pairs of the heavy edges, in the fixed order."""
    return ([(f"x{i}", f"u{i}") for i in range(1, k + 1)]
            + [(f"x{i}", f"v{i}") for i in range(1, k)])


def default_clique_sizes(k: int) -> tuple[int, ...]:
    """The default pasted clique orders: a triangle on each of the 2k-1 heavy edges."""
    return (3,) * (2 * k - 1)


def jk_x_order(k: int, x_order: int | None = None) -> int:
    """jk's center clique order: x_order, or by default the least allowed, k+3."""
    return k + 3 if x_order is None else x_order


def build_gk(k: int) -> LabeledGraph:
    """The base graph on 3k+1 vertices: K_k joined to the odd path."""
    if k < 1:
        raise GraphError(f"gk needs k >= 1, got {k}")
    roles = ([f"x{i}" for i in range(1, k + 1)] + [f"u{i}" for i in range(1, k + 1)]
             + ["z"] + [f"v{i}" for i in range(k, 0, -1)])
    n = 3 * k + 1
    edges = [(a, b) for a in range(k) for b in range(a + 1, n)]  # K_k and the join
    edges += [(p, p + 1) for p in range(k, n - 1)]  # the path u1..uk z vk..v1
    heavy = [(roles.index(a), roles.index(b)) for a, b in heavy_edge_names(k)]
    return LabeledGraph(n, edges, roles, heavy)


class HkSpec(namedtuple("HkSpec", "k clique_sizes")):
    """Clique sizes to paste onto the heavy edges of gk(k), in the fixed order."""

    __slots__ = ()

    def __new__(cls, k: int, clique_sizes):
        if k < 3:
            raise GraphError(f"hk needs k >= 3, got {k}")
        sizes = tuple(clique_sizes)
        if len(sizes) != 2 * k - 1:
            raise GraphError(
                f"expected {2 * k - 1} clique sizes, got {len(sizes)}")
        if any(s < 3 for s in sizes):
            raise GraphError("every pasted clique must have order >= 3")
        return super().__new__(cls, k, sizes)


def build_hk(spec: HkSpec) -> LabeledGraph:
    """Paste one clique per heavy edge of the base graph."""
    return _paste_on_heavy_edges(build_gk(spec.k), spec.clique_sizes)


def build_h_plus(spec: HkSpec) -> LabeledGraph:
    """hk plus the shortcut edge u1 u3 (shortens induced paths)."""
    g = build_hk(spec)
    return g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])


def pasted_vertices(g: LabeledGraph, edge_index: int) -> list[int]:
    """Vertices of the clique pasted onto heavy edge `edge_index`, by copy order."""
    pref = f"paste{edge_index}."
    vs = g.vertices_with_prefix(pref)
    return sorted(vs, key=lambda v: int(g.roles[v][len(pref):]))


# -- blow-up family -----------------------------------------------------------

def build_s(k: int) -> LabeledGraph:
    """Blow-up with an independent set attached to every heavy clique.

    Each heavy edge x_i u_i of gk(k-1) becomes the clique F_i + {x_i} of order
    k, and an independent set T_i of order k-1 is made complete to it (same on
    the v-side with F'_i and T'_i).  The result has minimum degree k.  The T
    blocks are numbered last; contracting each F_i and F'_i of the rest to a
    point recovers gk(k-1).
    """
    if k < 3:
        raise GraphError(f"blow-up needs k >= 3, got {k}")
    q = k - 1  # order of each blown-up clique

    roles = [f"x{i}" for i in range(1, k)]
    f_block = {}
    fp_block = {}
    for i in range(1, k):
        f_block[i] = list(range(len(roles), len(roles) + q))
        roles += [f"F{i}.{j}" for j in range(1, q + 1)]
    for i in range(1, k - 1):
        fp_block[i] = list(range(len(roles), len(roles) + q))
        roles += [f"F'{i}.{j}" for j in range(1, q + 1)]
    z = len(roles)
    roles.append("z")
    vk = len(roles)
    roles.append(f"v{k}")

    xs = list(range(k - 1))
    # T_i (T'_i) is an independent set complete to F_i + {x_i} (F'_i + {x_i})
    edges = []
    for tag, blocks in (("T", f_block), ("T'", fp_block)):
        for i, block in blocks.items():
            t_block = range(len(roles), len(roles) + q)
            roles += [f"{tag}{i}.{j}" for j in range(1, q + 1)]
            edges += [(t, a) for t in t_block for a in block + [xs[i - 1]]]

    edges += [(a, b) for ai, a in enumerate(xs) for b in xs[ai + 1:]]
    for block in list(f_block.values()) + list(fp_block.values()):
        edges += [(a, b) for ai, a in enumerate(block) for b in block[ai + 1:]]
    # chain F_1 .. F_{k-1} - z - vk - F'_{k-2} .. F'_1 (last member to first member)
    for i in range(1, k - 1):
        edges.append((f_block[i][-1], f_block[i + 1][0]))
    edges.append((f_block[k - 1][-1], z))
    edges.append((z, vk))
    edges.append((vk, fp_block[k - 2][0]))
    for i in range(k - 2, 1, -1):
        edges.append((fp_block[i][-1], fp_block[i - 1][0]))
    # the x's are complete to the whole chain
    core = [v for block in f_block.values() for v in block]
    core += [v for block in fp_block.values() for v in block]
    core += [z, vk]
    edges += [(x, v) for x in xs for v in core]
    return LabeledGraph(len(roles), edges, roles)


# -- subdivided family ---------------------------------------------------------

def build_gkm(k: int, m: int) -> LabeledGraph:
    """Replace the edge vk z with the path vk, v_{k+1}, ..., v_{k+m}, z.

    The new vertices are made complete to the x's; heavy edges are unchanged.
    """
    if k < 3:
        raise GraphError(f"gkm needs k >= 3, got {k}")
    if m < 1:
        raise GraphError(f"gkm needs m >= 1, got {m}")
    g = build_gk(k)
    z, vk = g.vertex("z"), g.vertex(f"v{k}")
    edges = [e for e in g.edges() if e != (min(z, vk), max(z, vk))]
    fresh = list(range(g.n, g.n + m))  # v_{k+1} .. v_{k+m}
    chain = [vk] + fresh + [z]
    edges += list(zip(chain, chain[1:]))
    xs = [g.vertex(f"x{i}") for i in range(1, k + 1)]
    edges += [(w, x) for w in fresh for x in xs]
    roles = list(g.roles) + [f"v{k + j}" for j in range(1, m + 1)]
    return LabeledGraph(g.n + m, edges, roles, g.heavy_edges)


def build_hkm(k: int, m: int, clique_sizes) -> LabeledGraph:
    """Paste one clique per heavy edge of gkm(k, m)."""
    return _paste_on_heavy_edges(build_gkm(k, m), HkSpec(k, clique_sizes).clique_sizes)


def _paste_on_heavy_edges(g: LabeledGraph, sizes) -> LabeledGraph:
    """g with a clique of order sizes[i] pasted onto heavy edge i, tagged paste<i>."""
    return paste_cliques(g, [(e, r, f"paste{i}")
                             for i, (e, r) in enumerate(zip(g.heavy_edges, sizes))])


# -- center-clique family -------------------------------------------------------

def build_jk(k: int, clique_sizes, x_order: int) -> LabeledGraph:
    """hk plus a clique of order x_order pasted onto {x1..xk, z, vk}."""
    if k < 3:
        raise GraphError(f"jk needs k >= 3, got {k}")
    if x_order < jk_x_order(k):
        raise GraphError(f"x_order must be at least k+3 = {jk_x_order(k)}, got {x_order}")
    g = build_hk(HkSpec(k, tuple(clique_sizes)))
    anchor = [g.vertex(f"x{i}") for i in range(1, k + 1)]
    anchor += [g.vertex("z"), g.vertex(f"v{k}")]
    extra = list(range(g.n, g.n + x_order - (k + 2)))
    edges = g.edges()
    edges += [(w, a) for w in extra for a in anchor]
    edges += [(a, b) for ai, a in enumerate(extra) for b in extra[ai + 1:]]
    roles = list(g.roles) + [f"X{c}" for c in range(1, len(extra) + 1)]
    return LabeledGraph(g.n + len(extra), edges, roles, g.heavy_edges)


# -- dense family and the dense-graph exceptions --------------------------------

def build_dn(n: int) -> LabeledGraph:
    """The n-vertex member of hk(3) with sizes (3,3,3,3,n-12): C(n-12,2)+37 edges."""
    if n < 15:
        raise GraphError(f"dn needs n >= 15, got {n}")
    return build_hk(HkSpec(3, (3, 3, 3, 3, n - 12)))


def build_hendry_exception(which: int, n: int) -> LabeledGraph:
    """The three dense graphs that are Hamiltonian-adjacent yet fail to extend.

    which=1: K_1 v (K_1 u K_{n-2});  which=2: K_2 v complement(K_3) (n = 5);
    which=3: complement(K_2) v (K_1 u K_{n-3}).
    """
    if n < 5:
        raise GraphError(f"exceptional graphs need n >= 5, got {n}")
    if which == 1:
        return join(complete_graph(1), disjoint_union(complete_graph(1), complete_graph(n - 2)))
    if which == 2:
        if n != 5:
            raise GraphError("exception 2 exists only on 5 vertices")
        return join(complete_graph(2), empty_graph(3))
    if which == 3:
        return join(empty_graph(2), disjoint_union(complete_graph(1), complete_graph(n - 3)))
    raise GraphError(f"unknown exception index {which}")


# -- witness cycles --------------------------------------------------------------

def witness_heavy_ham_cycle(k: int) -> Cycle:
    """A Hamiltonian cycle of gk(k) through every heavy edge.

    The filler edges alternate along the path, with parity deciding whether
    x_k picks up u_1 (k even) or v_1 (k odd).
    """
    if k < 1:
        raise GraphError(f"needs k >= 1, got {k}")
    g = build_gk(k)
    u = {i: g.vertex(f"u{i}") for i in range(1, k + 1)}
    v = {i: g.vertex(f"v{i}") for i in range(1, k + 1)}
    z = g.vertex("z")
    xk = g.vertex(f"x{k}")

    edges = list(g.heavy_edges)
    edges += [(u[k], z), (z, v[k])]
    if k >= 2:
        edges.append((v[k], v[k - 1]))
    if k % 2 == 0:
        edges.append((u[1], xk))
        edges += [(u[i], u[i + 1]) for i in range(2, k - 1, 2)]
        edges += [(v[i], v[i - 1]) for i in range(k - 2, 1, -2)]
    else:
        edges += [(u[i], u[i + 1]) for i in range(1, k - 1, 2)]
        edges += [(v[i], v[i - 1]) for i in range(k - 2, 1, -2)]
        edges.append((v[1], xk))
    return cycle_from_edge_set(g, edges)


def witness_long_heavy_cycle(k: int) -> Cycle:
    """A heavy cycle of gk(k) spanning everything except vk and z."""
    if k < 2:
        raise GraphError(f"needs k >= 2, got {k}")
    g = build_gk(k)
    u = {i: g.vertex(f"u{i}") for i in range(1, k + 1)}
    v = {i: g.vertex(f"v{i}") for i in range(1, k + 1)}
    xk = g.vertex(f"x{k}")

    edges = list(g.heavy_edges)
    if k % 2 == 0:
        edges += [(u[i], u[i + 1]) for i in range(1, k, 2)]
        edges += [(v[i], v[i - 1]) for i in range(k - 1, 1, -2)]
        edges.append((v[1], xk))
    else:
        edges.append((u[1], xk))
        edges += [(u[i], u[i + 1]) for i in range(2, k, 2)]
        edges += [(v[i], v[i - 1]) for i in range(k - 1, 1, -2)]
    return cycle_from_edge_set(g, edges)


def lift_cycle(cycle: Cycle, h: LabeledGraph) -> Cycle:
    """Replace each heavy edge of a heavy cycle by a path through its pasted clique.

    `cycle` must contain every heavy edge of h (as consecutive pairs); the
    lifted cycle picks up every pasted vertex, growing by size-2 per edge.
    """
    heavy_index = {e: i for i, e in enumerate(h.heavy_edges)}
    vs = list(cycle.vertices)
    pairs = list(zip(vs, vs[1:] + vs[:1]))
    present = {(min(a, b), max(a, b)) for a, b in pairs}
    missing = [e for e in h.heavy_edges if e not in present]
    if missing:
        raise GraphError(f"cycle is missing heavy edges {missing}")

    out = []
    for a, b in pairs:
        out.append(a)
        idx = heavy_index.get((min(a, b), max(a, b)))
        if idx is not None:
            out.extend(pasted_vertices(h, idx))
    return Cycle(out).validate(h)


def gk_reference_elimination_order(k: int) -> list[int]:
    """The u's, then the v's, then the x's, then z, as vertex ids of gk(k)."""
    g = build_gk(k)
    names = ([f"u{i}" for i in range(1, k + 1)]
             + [f"v{i}" for i in range(1, k + 1)]
             + [f"x{i}" for i in range(1, k + 1)] + ["z"])
    return [g.vertex(nm) for nm in names]
