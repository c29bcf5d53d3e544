"""Vertex connectivity and induced-path statistics.

Connectivity is exact: the least max flow over non-adjacent pairs on the
split digraph (each vertex an in->out arc of capacity one, edges
uncapacitated), held as bitmasks and augmented along core.shortest_path,
with the cut read off core.reach on the residual.  Only sources
v_0..v_kappa are needed (Even, 1975): one of those kappa+1 vertices lies
outside a minimum cut C, and it is paired with a vertex of another
component of G - C.  Later pairs cannot lower the bound, so the certificate
is the one the full pair scan finds.  Flows whose value cannot beat the best
so far are not run: a pair repeated by swapping two twins (same
neighbourhood apart from each other), or one with at least `best` common
neighbours.  The other flows start from their common-neighbour paths.  The
best changes at the same pairs as in the full scan, so the certificate is
unchanged.  Induced paths use backtracking over (last vertex,
still-eligible set) states with memoization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GraphError, LabeledGraph, SizeCapError, bits_of, reach, shortest_path

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

    Pairs that do run reach a maximum flow whenever it is below the best,
    and the cut is read from the residual-reachable side, which every
    maximum flow shares, so the certificate is the plain pair scan's.
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

    # Split digraph as 2n out-arc masks: in(v) = 2v -> out(v) = 2v+1, and
    # out(u) -> in(v) for each edge uv.  Vertex arcs have capacity 1, so the
    # residual is again a digraph; edge arcs are uncapacitated, so a forward
    # edge arc never leaves it and every minimum cut is on vertex arcs.
    base = []
    for v in range(n):
        base += [1 << (2 * v + 1), sum(1 << (2 * u) for u in g.neighbors(v))]
    full = (1 << (2 * n)) - 1

    def augment(res, path):
        """Push one unit of flow along path in the residual res."""
        for a, b in zip(path, path[1:]):
            if not a & 1 or b == a - 1:  # not a forward edge arc
                res[a] &= ~(1 << b)
            res[b] |= 1 << a

    best, best_cut = n, None
    for s in range(n):
        if s > best:  # Even's bound: sources 0..best cover a vertex off some minimum cut
            break
        if twin[s] != s:
            continue
        for t in range(s + 1, n):
            if masks[s] >> t & 1 or twin[t] not in (s, t):
                continue
            common = masks[s] & masks[t]
            flow = common.bit_count()
            if flow >= best:
                continue
            res = list(base)
            for w in bits_of(common):
                augment(res, (2 * s + 1, 2 * w, 2 * w + 1, 2 * t))
            while flow < best:  # a pair that reaches best cannot improve it
                path = shortest_path(res, 2 * s + 1, 2 * t, full)
                if path is None:
                    break
                augment(res, path)
                flow += 1
            if flow < best:
                # the residual-reachable side is the same for every maximum
                # flow, so the cut does not depend on the paths found
                seen = reach(res, 1 << (2 * s + 1), full)
                best, best_cut = flow, [v for v in range(n) if v not in (s, t)
                                        and seen >> (2 * v) & 1
                                        and not seen >> (2 * v + 1) & 1]
    return ConnectivityCert(best, tuple(best_cut), False)


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
