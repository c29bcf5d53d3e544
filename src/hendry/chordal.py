"""Chordality and strong-chordality recognition with certificates.

Chordality goes through maximum cardinality search: if the graph is chordal,
the reverse of the MCS visit order is a perfect elimination ordering.  When
the PEO check fails, a chordless cycle is found as the first vertex v, in id
order, with non-adjacent neighbours a, b joined by a shortest path that
avoids the rest of N[v].  Strong chordality uses simple-vertex
elimination (a vertex is simple when the closed neighborhoods of its closed
neighborhood form an inclusion chain); greedy deletion is complete because
the property is hereditary and never lacks a simple vertex.

Bull detection is one sweep over the edges of the graph for a triangle with
two horns; the witness is the first bull the sweep meets, not the
lexicographically-first one.
"""

from __future__ import annotations

from collections import namedtuple

from .core import GraphError, LabeledGraph, bits_of, shortest_path


def mcs_order(g: LabeledGraph) -> list[int]:
    """Maximum cardinality search visit order (ties broken by lowest id)."""
    n = g.n
    masks = g.adjacency_masks()
    bucket = [0] * (n + 1)  # bucket[w]: the unvisited vertices of weight w
    bucket[0] = left = (1 << n) - 1
    top = 0  # the highest non-empty bucket
    order = []
    for _ in range(n):
        bit = bucket[top] & -bucket[top]
        v = bit.bit_length() - 1
        order.append(v)
        bucket[top] ^= bit
        left ^= bit
        # v's unvisited neighbours move up one bucket, top down so none moves twice
        gain = masks[v] & left
        w = top
        while gain:
            moved = bucket[w] & gain
            bucket[w] ^= moved
            bucket[w + 1] |= moved
            gain ^= moved
            w -= 1
        if bucket[top + 1]:
            top += 1
        while top and not bucket[top]:
            top -= 1
    return order


def peo_violation(g: LabeledGraph, order) -> tuple[int, int, int] | None:
    """First (v, a, b) where a, b are later neighbors of v and a !~ b."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise GraphError("order is not a permutation of the vertex set")
    masks = g.adjacency_masks()
    after = (1 << g.n) - 1  # the vertices after v in the order
    for v in order:
        after ^= 1 << v
        later = clique = masks[v] & after
        for a in bits_of(later):
            clique &= masks[a] | 1 << a
        if clique != later:  # v is the first vertex whose later neighbours are no clique
            pos = [0] * g.n
            for i, u in enumerate(order):
                pos[u] = i
            for a in sorted(bits_of(later), key=pos.__getitem__):
                later ^= 1 << a
                if later & ~masks[a]:  # a later neighbour of v, after a, not adjacent to a
                    return (v, a, min(bits_of(later & ~masks[a]), key=pos.__getitem__))
    return None


class ChordalityResult(namedtuple("ChordalityResult", "chordal peo hole")):
    """(chordal, peo, hole); a PEO if chordal, else a hole: an induced cycle of length >= 4."""

    __slots__ = ()

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
        for a in bits_of(masks[v]):
            for b in bits_of(masks[v] & ~masks[a] & ~((2 << a) - 1)):  # b > a, b !~ a
                allowed = ~(masks[v] | 1 << v) | 1 << a | 1 << b
                path = shortest_path(masks, a, b, allowed)
                if path is not None:
                    return tuple([v] + path)
    return None


# -- simple vertices and strong chordality ------------------------------------

def _closed_masks(masks: list[int]) -> list[int]:
    return [m | (1 << v) for v, m in enumerate(masks)]


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
    """Admits a simple elimination ordering (so chordal too: a simple vertex is
    simplicial, since its neighbours' closed neighbourhoods form a chain)."""
    return find_simple_elimination_order(g) is not None


# -- bulls ---------------------------------------------------------------------

class BullResult(namedtuple("BullResult", "bull_free witness")):
    """(bull_free, witness); witness is the 5 vertices of a bull as a sorted tuple, or None."""

    __slots__ = ()

    def __bool__(self):
        return self.bull_free


def is_bull_free(g: LabeledGraph) -> BullResult:
    """No 5 vertices induce a triangle x, y, z with horns d ~ x and e ~ y,
    where d !~ y, z, e and e !~ x, z; otherwise the witness is the first bull
    of one sweep, as a sorted 5-tuple.

    The sweep takes the edges xy with x < y in id order, then the pairs
    d in N(x) - N[y], e in N(y) - N[x] with d !~ e, d and e ascending, and
    stops at the first such pair with a common neighbour z of x and y off
    N(d) and N(e), taking the lowest such tip z.
    """
    masks = g.adjacency_masks()
    for x, mx in enumerate(masks):
        for y in bits_of(mx >> x + 1 << x + 1):
            my = masks[y]
            es = my & ~(mx | 1 << x)
            if es:
                common = mx & my
                for d in bits_of(mx & ~(my | 1 << y)):
                    for e in bits_of(es & ~masks[d]):
                        tips = common & ~(masks[d] | masks[e])
                        if tips:
                            z = (tips & -tips).bit_length() - 1
                            return BullResult(False, tuple(sorted((x, y, z, d, e))))
    return BullResult(True, None)
