"""Vertex connectivity and induced-path statistics.

Connectivity is exact: the least max flow over non-adjacent pairs in the
split digraph (each vertex an in->out arc of capacity one, edges
uncapacitated), kept on the vertex graph and augmented along shortest paths
of a breadth-first search alternating between in-side and out-side masks;
the cut is read off the last, failed search.  Sources v_0..v_kappa suffice
(Even, 1975): one of them lies off a minimum cut C and is paired with a
vertex of another component of G - C.  No flow runs that cannot beat the
best so far (twin swaps, common neighbours, or a best already at a floor
read off the maximum cardinality search order, which is kappa on chordal
graphs), so the certificate is the full pair scan's.  Induced paths use
backtracking over (last vertex, still-eligible set) states with memoization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import mcs_order
from .core import GraphError, LabeledGraph, SizeCapError, bits_of

INDUCED_PATH_CAP = 25


@dataclass(frozen=True)
class ConnectivityCert:
    kappa: int
    cut: tuple[int, ...] | None  # None for complete graphs
    complete: bool


def vertex_connectivity(g: LabeledGraph) -> ConnectivityCert:
    """Exact vertex connectivity with a minimum separating set.

    Pairs are scanned as in the plain pair scan (sources in order, Even's
    bound, each pair's flow capped at the best so far), but no flow runs
    whose value is already known not to beat the best:

    - Twins.  twin[v] is the lowest u with N(u)-v = N(v)-u.  Swapping two
      twins is an automorphism fixing every other vertex, so a source with
      a lower twin u repeats u's pairs, and a pair (s, t) whose t has a lower
      twin t' other than s repeats (s, t') or (t', s).  After that earlier
      pair the best is at most its flow, so the skipped pair could not have
      improved it.
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
    # false twins share N(v), true twins share N(v)+v; the two keys cannot
    # collide, and no vertex has both kinds of twin
    lowest: dict[int, int] = {}
    twin = [min(lowest.setdefault(m, v), lowest.setdefault(m | 1 << v, v))
            for v, m in enumerate(masks)]

    best, best_cut, floor = n, 0, None
    for s in range(n):
        if s > best or best == floor:  # Even's bound, or the best is kappa
            break
        if twin[s] != s:
            continue
        for t in range(s + 1, n):
            if masks[s] >> t & 1 or twin[t] not in (s, t):
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
    """(vertex count, witness path) of a maximum induced path."""
    if g.n > INDUCED_PATH_CAP:
        raise SizeCapError(f"induced-path search capped at {INDUCED_PATH_CAP} vertices")
    if g.n == 0:
        return 0, ()
    masks = g.adjacency_masks()
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def best_from(last: int, eligible: int) -> tuple[int, int]:
        """(additional length, best next vertex+1 or 0) from this state."""
        key = (last, eligible)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = (0, 0)
        cand = masks[last] & eligible
        while cand:
            bit = cand & -cand
            cand ^= bit
            w = bit.bit_length() - 1
            sub = eligible & ~bit & ~masks[last]
            ln, _ = best_from(w, sub)
            if ln + 1 > res[0]:
                res = (ln + 1, w + 1)
        memo[key] = res
        return res

    full = (1 << g.n) - 1
    best_len, best_start = 0, 0
    for s in range(g.n):
        ln, _ = best_from(s, full & ~(1 << s))
        if ln + 1 > best_len:
            best_len, best_start = ln + 1, s

    path = [best_start]
    eligible = full & ~(1 << best_start)
    last = best_start
    while True:
        _, nxt = best_from(last, eligible)
        if not nxt:
            break
        w = nxt - 1
        path.append(w)
        eligible = eligible & ~(1 << w) & ~masks[last]
        last = w
    return best_len, tuple(path)


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
