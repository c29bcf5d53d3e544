"""Chordality and strong-chordality recognition with certificates.

Chordality goes through maximum cardinality search: if the graph is chordal,
the reverse of the MCS visit order is a perfect elimination ordering.  When
the PEO check fails, a chordless cycle is found as the first vertex v, in id
order, with non-adjacent neighbours a, b joined by a shortest path that
avoids the rest of N[v].  Strong chordality uses simple-vertex
elimination (a vertex is simple when the closed neighborhoods of its closed
neighborhood form an inclusion chain); greedy deletion is complete because
the property is hereditary and never lacks a simple vertex.  A definitional
cross-check enumerates even cycles and looks for odd chords.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GraphError, LabeledGraph, SizeCapError, shortest_path

DEFINITIONAL_CAP = 14


def mcs_order(g: LabeledGraph) -> list[int]:
    """Maximum cardinality search visit order (ties broken by lowest id)."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not visited[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        order.append(best)
        for u in g.neighbors(best):
            if not visited[u]:
                weight[u] += 1
    return order


def peo_violation(g: LabeledGraph, order) -> tuple[int, int, int] | None:
    """First (v, a, b) where a, b are later neighbors of v and a !~ b."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise GraphError("order is not a permutation of the vertex set")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = sorted((u for u in g.neighbors(v) if pos[u] > pos[v]),
                       key=lambda u: pos[u])
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                if not g.has_edge(a, b):
                    return (v, a, b)
    return None


def is_peo(g: LabeledGraph, order) -> bool:
    return peo_violation(g, order) is None


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    peo: tuple[int, ...] | None
    hole: tuple[int, ...] | None  # induced cycle of length >= 4 when not chordal

    def __bool__(self):
        return self.chordal


def is_chordal(g: LabeledGraph) -> ChordalityResult:
    """MCS-based chordality with a certificate either way."""
    candidate = list(reversed(mcs_order(g)))
    if peo_violation(g, candidate) is None:
        return ChordalityResult(True, tuple(candidate), None)
    hole = _find_hole(g)
    if hole is None:  # cannot happen: a failed PEO means some hole exists
        raise GraphError("PEO check failed but no chordless cycle found")
    return ChordalityResult(False, None, hole)


def _find_hole(g: LabeledGraph) -> tuple[int, ...] | None:
    """Some induced cycle of length >= 4, via shortest detours around N[v]."""
    masks = g.adjacency_masks()
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if g.has_edge(a, b):
                    continue
                allowed = ~(masks[v] | 1 << v) | 1 << a | 1 << b
                path = shortest_path(masks, a, b, allowed)
                if path is not None:
                    return tuple([v] + path)
    return None


# -- simple vertices and strong chordality ------------------------------------

def _closed_masks(masks: list[int]) -> list[int]:
    return [m | (1 << v) for v, m in enumerate(masks)]


def is_simple_vertex(g: LabeledGraph, v: int) -> bool:
    """Closed neighborhoods of N[v] form a chain under inclusion."""
    return _simple_in_alive(_closed_masks(g.adjacency_masks()), (1 << g.n) - 1, v)


def _simple_in_alive(closed, alive_mask, v) -> bool:
    members = closed[v] & alive_mask
    seen = []
    while members:
        bit = members & -members
        members ^= bit
        a = bit.bit_length() - 1
        ca = closed[a] & alive_mask
        for cb in seen:
            merged = ca | cb
            if merged != ca and merged != cb:
                return False
        seen.append(ca)
    return True


def find_simple_elimination_order(g: LabeledGraph) -> list[int] | None:
    """Greedy simple-vertex deletion, lowest id first; None when stuck."""
    closed = _closed_masks(g.adjacency_masks())
    alive = (1 << g.n) - 1
    order = []
    for _ in range(g.n):
        pick = -1
        rest = alive
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if _simple_in_alive(closed, alive, v):
                pick = v
                break
        if pick < 0:
            return None
        order.append(pick)
        alive ^= 1 << pick
    return order


def is_simple_elimination_order(g: LabeledGraph, order) -> bool:
    """Each vertex must be simple in the subgraph induced by itself and its successors."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise GraphError("order is not a permutation of the vertex set")
    closed = _closed_masks(g.adjacency_masks())
    alive = (1 << g.n) - 1
    for v in order:
        if not _simple_in_alive(closed, alive, v):
            return False
        alive ^= 1 << v
    return True


def is_strongly_chordal(g: LabeledGraph) -> bool:
    """Chordal and admits a simple elimination ordering."""
    if not is_chordal(g):
        return False
    return find_simple_elimination_order(g) is not None


def is_strongly_chordal_definitional(g: LabeledGraph, cap: int = DEFINITIONAL_CAP) -> bool:
    """Chordal, and every even cycle of length >= 6 has an odd chord.

    Enumerates every cycle, so it is capped (default 14 vertices).
    """
    if g.n > cap:
        raise SizeCapError(f"definitional check capped at {cap} vertices")
    if not is_chordal(g):
        return False
    masks = g.adjacency_masks()

    # canonical enumeration: cycles start at their minimum vertex, and the
    # second vertex is smaller than the last to kill the reversed copy
    for s in range(g.n):
        higher = ~((1 << (s + 1)) - 1)
        path = [s]
        on_path = 1 << s

        def extend(v, on_path):
            nonlocal path
            for u in _bits(masks[v] & higher & ~on_path):
                path.append(u)
                if len(path) >= 3 and masks[u] & (1 << s) and path[1] < path[-1]:
                    if _is_bad_even_cycle(masks, path):
                        path.pop()
                        return False
                if not extend(u, on_path | (1 << u)):
                    path.pop()
                    return False
                path.pop()
            return True

        if not extend(s, on_path):
            return False
    return True


def _is_bad_even_cycle(masks, cyc) -> bool:
    ln = len(cyc)
    if ln < 6 or ln % 2:
        return False
    for i in range(ln):
        for j in range(i + 2, ln):
            if i == 0 and j == ln - 1:
                continue
            if masks[cyc[i]] & (1 << cyc[j]) and (j - i) % 2 == 1:
                return False  # odd chord present
    return True


def _bits(mask):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


# -- bulls ---------------------------------------------------------------------

@dataclass(frozen=True)
class BullResult:
    bull_free: bool
    witness: tuple[int, ...] | None  # 5 vertices inducing a bull

    def __bool__(self):
        return self.bull_free


def is_bull_free(g: LabeledGraph) -> BullResult:
    """No 5 vertices induce a triangle with two pendant horns.

    On 5 vertices, 5 edges with degree multiset {1,1,2,3,3} are exactly a bull,
    so the subset scan only needs degrees.
    """
    from itertools import combinations

    for sub in combinations(range(g.n), 5):
        degs = []
        edges = 0
        for v in sub:
            d = sum(1 for u in sub if u != v and g.has_edge(u, v))
            degs.append(d)
            edges += d
        if edges == 10 and sorted(degs) == [1, 1, 2, 3, 3]:
            return BullResult(False, sub)
    return BullResult(True, None)
