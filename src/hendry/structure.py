"""Vertex connectivity and induced-path statistics.

Connectivity is exact: the least max flow over non-adjacent pairs in the
split digraph (each vertex an in->out arc of capacity one, edges
uncapacitated), kept on the vertex graph and augmented along shortest paths
of a breadth-first search alternating between in-side and out-side masks;
the cut is read off the last, failed search.  Sources v_0..v_kappa suffice
(Even, 1975): one of them lies off a minimum cut C and is paired with a
vertex of another component of G - C.  No flow runs that cannot beat the
best so far (common neighbours, or a best already at a floor read off the
maximum cardinality search order, which is kappa on chordal graphs), so the
certificate is the full pair scan's.  Induced paths use backtracking over
(last vertex, still-eligible set) states with memoization, trying one vertex
of each twin class.
"""

from __future__ import annotations

from collections import namedtuple

from .chordal import mcs_order
from .core import GraphError, LabeledGraph, SizeCapError, bits_of

INDUCED_PATH_CAP = 25


class ConnectivityCert(namedtuple("ConnectivityCert", "kappa cut complete")):
    """(kappa, cut, complete); cut is a minimum separating set, None for complete graphs."""

    __slots__ = ()


def vertex_connectivity(g: LabeledGraph) -> ConnectivityCert:
    """Exact vertex connectivity with a minimum separating set.

    Pairs are scanned as in the plain pair scan (sources in order, Even's
    bound, each pair's flow capped at the best so far), but no flow runs
    whose value is already known not to beat the best:

    - Common neighbours.  The c paths s-w-t through common neighbours w are
      vertex-disjoint: a pair with c >= best is skipped, and otherwise its
      flow starts from them.
    - The floor.  lambda_i counts the earlier neighbours of v_i in the MCS
      order, step i >= 2 is a drop when lambda_i <= lambda_(i-1), and F is
      the least lambda over the drops.  Once best = F no flow runs: F <=
      kappa.  Let X be a minimum separator and b the first vertex visited
      outside both X and the component of G - X entered first; b's earlier
      neighbours lie in X, so lambda_b <= kappa.  MCS gives lambda_i <=
      lambda_(i-1) + 1, so with no drop up to b the vertices up to b would
      be a clique holding b and a vertex of another component; the last
      drop at or before b has lambda <= lambda_b.  On chordal graphs the
      drop sets are the clique-tree separators (Blair and Peyton): F = kappa.

    Each remaining pair runs `_pair_flow`, whose flow is maximum whenever it
    is below the best, with the cut that every maximum flow shares: the
    certificate is the plain pair scan's.
    """
    n = g.n
    if n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if all(g.degree(v) == n - 1 for v in range(n)):
        return ConnectivityCert(n - 1, None, True)
    if not g.is_connected():
        return ConnectivityCert(0, (), False)

    masks = g.adjacency_masks()
    best, best_cut, floor = n, 0, None
    for s in range(n):
        if s > best or best == floor:  # Even's bound, or the best is kappa
            break
        for t in range(s + 1, n):
            if masks[s] >> t & 1:
                continue
            common = masks[s] & masks[t]
            if common.bit_count() < best:
                if best < n and floor is None:
                    floor = _separator_floor(g)
                if best == floor:
                    break
                flow, cut = _pair_flow(masks, s, t, common, best)
                if flow < best:
                    best, best_cut = flow, cut
    return ConnectivityCert(best, tuple(bits_of(best_cut)), False)


def _separator_floor(g: LabeledGraph) -> int:
    """F of `vertex_connectivity`: the least lambda over the MCS drops."""
    masks, floor, last, seen = g.adjacency_masks(), g.n, -1, 0
    for v in mcs_order(g):
        lam = (masks[v] & seen).bit_count()
        if lam <= last:
            floor = min(floor, lam)
        last, seen = lam, seen | 1 << v
    return floor


def _pair_flow(masks, s: int, t: int, common: int, cap: int) -> tuple[int, int]:
    """Max flow between non-adjacent s and t, stopped at `cap`, started from
    the paths s-w-t through the common neighbours w in `common`.

    Returns (flow, cut): below cap the flow is maximum and cut is the
    minimum s-t separator as a mask; at cap, cut is 0.  This is max flow on
    the split digraph (in(v) -> out(v) of capacity one, out(u) -> in(v) for
    each edge uv), kept on the vertex graph: `used` holds the vertices
    carrying flow and prev[v] the vertex whose flow enters v.  The residual
    arcs are out(u) -> in(v) for each edge, out(v) -> in(v) for v in used,
    in(v) -> out(v) for v not in used and in(v) -> out(prev[v]) for v in used.
    """
    flow, used = common.bit_count(), common
    prev = [s] * len(masks)  # entries outside `used` are stale
    while flow < cap:
        # breadth-first layers, alternately of out-sides and in-sides
        outs, ins = [1 << s], []
        seen_out, seen_in = 1 << s, 0
        while True:
            front = outs[-1]
            nxt = front & used
            while front:
                bit = front & -front
                front ^= bit
                nxt |= masks[bit.bit_length() - 1]
            front = nxt & ~seen_in
            seen_in |= front
            ins.append(front)
            if front >> t & 1:
                break
            nxt = front & ~used
            for w in bits_of(front & used):
                nxt |= 1 << prev[w]
            nxt &= ~seen_out
            if not nxt:
                # no augmenting path: the separator is the vertices whose
                # in-side is reachable but not their out-side (s and t are
                # not: out(s) is the source and in(t) is never reached)
                return flow, seen_in & ~seen_out
            seen_out |= nxt
            outs.append(nxt)
        # walk back from in(t), pushing one unit along each arc; layers are
        # disjoint, so an update never touches a vertex still to be read
        v = t
        for j in range(len(ins) - 1, -1, -1):
            # in(v) was reached from out(u), u in outs[j]: along an edge, or
            # back along v's own arc, which then stops carrying flow
            src = outs[j] & (masks[v] | used & 1 << v)
            u = (src & -src).bit_length() - 1
            if u == v:
                used ^= 1 << v
            elif v != t:
                prev[v] = u
            if j:
                # out(u) was reached from in(v), v in ins[j-1]: along u's
                # free arc, or back along the edge carrying u's flow
                if (ins[j - 1] & ~used) >> u & 1:
                    used |= 1 << u
                    v = u
                else:
                    v = next(y for y in bits_of(ins[j - 1] & used) if prev[y] == u)
        flow += 1
    return flow, 0


# -- induced paths --------------------------------------------------------------

def longest_induced_path(g: LabeledGraph):
    """(vertex count, witness path) of a maximum induced path, taking the
    lowest vertex at each step among those that reach the maximum.

    A memoised search over (last vertex, still-eligible set) states; the
    witness is read back from the memo.  Among a state's candidates, and
    among the start vertices, only the lowest vertex of each twin class
    (equal open or equal closed neighbourhoods) is tried: swapping two twins
    is an automorphism fixing every other vertex, so both give the same
    length, and the lower one wins the tie.
    """
    if g.n > INDUCED_PATH_CAP:
        raise SizeCapError(f"induced-path search capped at {INDUCED_PATH_CAP} vertices")
    if g.n == 0:
        return 0, ()
    masks = g.adjacency_masks()
    lower = [0] * g.n  # the twins of v below v
    seen: dict[int, int] = {}  # an open or closed neighbourhood -> its vertices so far
    for v, m in enumerate(masks):
        for key in (m, m | 1 << v):
            lower[v] |= seen.get(key, 0)
            seen[key] = seen.get(key, 0) | 1 << v
    memo: list[dict[int, int]] = [{} for _ in range(g.n)]

    def best_from(last: int, eligible: int) -> int:
        """How many vertices of `eligible` an induced path ending at last can add."""
        best = memo[last].get(eligible)
        if best is None:
            cand, rest = masks[last] & eligible, eligible & ~masks[last]
            best, left = 0, cand
            while left:
                bit = left & -left
                left ^= bit
                w = bit.bit_length() - 1
                if not lower[w] & cand:
                    ln = best_from(w, rest) + 1
                    if ln > best:
                        best = ln
            memo[last][eligible] = best
        return best

    full = (1 << g.n) - 1
    length = 1 + max(best_from(s, full ^ 1 << s) for s in range(g.n) if not lower[s])
    path, cand, rest = [], full, full  # the start is any vertex
    for need in range(length - 1, -1, -1):
        w = next(w for w in bits_of(cand) if not lower[w] & cand
                 and best_from(w, rest & ~(1 << w)) == need)
        path.append(w)
        cand, rest = masks[w] & rest, rest & ~(masks[w] | 1 << w)
    return length, tuple(path)


def is_pt_free(g: LabeledGraph, t: int) -> bool:
    """No induced path on t vertices."""
    if t < 1:
        raise GraphError("path order must be positive")
    length, _ = longest_induced_path(g)
    return length < t


def induces_path(g: LabeledGraph, vertices) -> bool:
    """Do these vertices, in this order, induce a path in g?"""
    vs = list(vertices)
    if vs and (min(vs) < 0 or max(vs) >= g.n):
        raise GraphError(f"path {vs} leaves the vertex range 0..{g.n - 1}")
    if len(set(vs)) != len(vs):
        return False
    for i, a in enumerate(vs):
        for j in range(i + 1, len(vs)):
            if g.has_edge(a, vs[j]) != (j == i + 1):
                return False
    return True
