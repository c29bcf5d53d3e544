"""Exact cyclability engine: which vertex subsets carry a spanning cycle.

Two exact mechanisms back every predicate here:

* a subset dynamic program over Hamiltonian paths anchored at the minimum
  vertex of each subset (the cyclable table), bit-sliced into one 2^n-bit
  integer per path endpoint and bounded by a hard size cap; its subset masks
  are derived by shifts where they are used, and its fill updates a vertex
  only from the neighbours whose rows grew; and
* a backtracking search for cycles spanning a fixed vertex set, with forced
  edges (heavy edges, or edges implied by degree-2 vertices) propagated up
  front, plus degree, connectivity and twin-symmetry pruning.  The search is
  exhaustive, so a miss is a proof of nonexistence.

Before an existence search, the set is kernelized: segments that every
spanning cycle must cross in one piece are contracted to forced pairs, and a
kernel cycle is lifted back and validated on the full graph.  The paste rule
turns a clique P whose closed neighbourhoods are all P+{a,b} into a forced
edge ab (so hk reduces to gk with its heavy edges forced).  The chain rule
takes two tight twin classes (T on A, T' on A', |A| = |T|+1, |A'| = |T'|+1)
whose sets share exactly one vertex x: x must end both alternating paths, so
A+T+A'+T' is one segment, contracted to its two end sets A-x and A'-x joined
by a forced edge (in s(k) this is each F_i+x_i+T_i+F'_i+T'_i).  A lone tight
class is left to the search: both of its ends come from one set, and that
choice is coupled across segments.  Counting (heavy_cycles_on) runs on the
set itself, since contraction changes cycle counts.

Cycle extendibility is decided on vertex subsets: a cycle with vertex set S
exists iff S is cyclable, and extending by s vertices is a superset question.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .core import Cycle, GraphError, LabeledGraph, SizeCapError, bits_of, reach

DEFAULT_SUBSET_CAP = 24
HARD_SUBSET_CAP = 26
BACKTRACK_CAP = 40
HEAVY_SET_CAP = 20


def subset_cap() -> int:
    """Current cap for full subset tables (HENDRY_SUBSET_CAP, bounded at 26)."""
    raw = os.environ.get("HENDRY_SUBSET_CAP")
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        val = int(raw)
    except ValueError:
        raise GraphError(f"HENDRY_SUBSET_CAP must be an integer, got {raw!r}")
    return max(3, min(val, HARD_SUBSET_CAP))


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# -- subset dynamic program ---------------------------------------------------

def _containing_masks(n: int):
    """(v, the subsets that contain v) for v = n - 1 down to 0, where bit S of
    a 2^n-bit int stands for vertex mask S; each is one shift from the last."""
    has = (1 << (1 << n)) - 1
    for v in reversed(range(n)):
        has ^= has >> (1 << v)
        yield v, has


def _drop_one(x: int, n: int) -> int:
    """Subsets T such that T plus one vertex outside T is in x."""
    out = 0
    for v, has in _containing_masks(n):
        out |= (x & has) >> (1 << v)
    return out


class CyclableTable:
    """Per-subset Hamiltonicity oracle for one graph, stored bit-sliced.

    `rows` holds one 2^n-bit little-endian bitset per vertex e, `stride`
    bytes apart: bit S of row e is set iff G[S] has a Hamiltonian path from
    min(S) to e.  Bit S of `cyc` is set iff S is cyclable: |S| >= 3 and one
    of those endpoints sees min(S) back.  The table holds (n+1)*2^n bits and
    every query reads single bits.
    """

    def __init__(self, g: LabeledGraph, rows: bytes, cyc: bytes):
        self.graph = g
        self.n = g.n
        self.stride = len(cyc)
        self.rows = rows
        self.cyc = cyc
        self._adj = g.adjacency_masks()

    def _as_mask(self, subset) -> int:
        return subset if isinstance(subset, int) else _mask_of(subset)

    def cyclable(self, subset) -> bool:
        mask = self._as_mask(subset)
        return bool(self.cyc[mask >> 3] >> (mask & 7) & 1)

    def iter_cyclable(self):
        """Cyclable subsets as masks, in increasing numeric (subset-index) order."""
        for i, byte in enumerate(self.cyc):
            while byte:
                low = byte & -byte
                byte ^= low
                yield (i << 3) | (low.bit_length() - 1)

    def extension_candidates(self, subset) -> list[int]:
        mask = self._as_mask(subset)
        if not self.cyclable(mask):
            raise GraphError("subset is not cyclable")
        return [v for v in range(self.n)
                if not (mask >> v) & 1 and self.cyclable(mask | (1 << v))]

    def _path_end(self, mask: int, allowed: int) -> int:
        """Lowest vertex of `allowed` at which an anchored path spanning `mask` ends."""
        for e in bits_of(mask & allowed):
            if self.rows[e * self.stride + (mask >> 3)] >> (mask & 7) & 1:
                return e

    def cycle_for(self, subset) -> Cycle | None:
        """An explicit spanning cycle of the subset, rebuilt from the table."""
        mask = self._as_mask(subset)
        if not self.cyclable(mask):
            return None
        anchor = (mask & -mask).bit_length() - 1
        cur = self._path_end(mask, self._adj[anchor])
        seq = [cur]
        while cur != anchor:
            mask ^= 1 << cur
            cur = self._path_end(mask, self._adj[cur])
            seq.append(cur)
        return Cycle(reversed(seq)).validate(self.graph)


def build_cyclable_table(g: LabeledGraph, cap: int | None = None) -> CyclableTable:
    """Run the anchored Hamiltonian-path DP (Held-Karp) over every subset of V(g).

    ends[e] gets bit S when G[S] has a Hamiltonian path from min(S) to e,
    which (unless S = {e}) extends a path to a neighbour f spanning S - {e}:
    OR_f ends[f] shifted left by 2^e adds e to every subset, and masking to
    the subsets that contain e and have a smaller minimum drops the carries.
    The update is a union of one term per neighbour and only grows rows, so
    the least fixed point does not depend on the order of updates: sweeps of
    alternating direction update a vertex only after a neighbour's row grew,
    from those neighbours alone, until no row grows.
    """
    cap = subset_cap() if cap is None else cap
    n = g.n
    if n > cap:
        raise SizeCapError(
            f"subset table needs 2^{n} entries; cap is {cap} vertices")
    stale = list(g.adjacency_masks())  # stale[e]: neighbours grown since e's update
    nbrs = [bits_of(m) for m in stale]
    below, low = [0] * n, 1  # subsets containing e whose minimum is below e; with none below e
    for e, has in _containing_masks(n):
        mins = low << (1 << e)  # subsets whose minimum is e
        below[e] = has ^ mins
        low |= mins
    ends, order = [1 << (1 << e) for e in range(n)], list(range(n))
    has = mins = low = 0  # free the masks before the fill
    while any(stale):
        for e in order:
            if stale[e]:
                reach = 0
                for f in bits_of(stale[e]):
                    reach |= ends[f]
                stale[e] = 0
                grown = ends[e] | (reach << (1 << e)) & below[e]
                if grown != ends[e]:
                    ends[e] = grown
                    for u in nbrs[e]:
                        stale[u] |= 1 << e
        order.reverse()
    # S is cyclable when a path spanning S ends at a neighbour of a = min(S)
    cyc = grown = 0  # grown: free the fill's last candidate row
    for a, has in _containing_masks(n):
        reach = 0
        for f in nbrs[a]:
            reach |= ends[f]
        cyc |= reach & (has ^ below.pop())  # the subsets whose minimum is a
    size = max(1, (1 << n) >> 3)
    cyc_bytes = bytearray(cyc.to_bytes(size, "little"))
    for a, b in g.edges():  # an edge is a two-vertex path, not a cycle
        pair = (1 << a) | (1 << b)
        cyc_bytes[pair >> 3] &= ~(1 << (pair & 7))
    del cyc  # free it, and each int as it is copied, to bound peak memory
    rows = [ends.pop(0).to_bytes(size, "little") for _ in range(n)]
    return CyclableTable(g, b"".join(rows), bytes(cyc_bytes))


# -- backtracking search ------------------------------------------------------

def _propagate_forced(allowed: list[int], forced: list[int], m: int) -> bool:
    """Close forced edges under degree-2 reasoning; False when infeasible."""
    changed = True
    while changed:
        changed = False
        for v in range(m):
            av = allowed[v]
            rest = av
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                if forced[u].bit_count() >= 2 and not (forced[u] >> v) & 1:
                    av &= ~bit
            if av != allowed[v]:
                allowed[v] = av
                changed = True
            if forced[v] & ~av or forced[v].bit_count() > 2:
                return False
            if av.bit_count() < 2:
                return False
            if av.bit_count() == 2 and forced[v] != av:
                extra = av & ~forced[v]
                forced[v] = av
                while extra:
                    bit = extra & -extra
                    extra ^= bit
                    u = bit.bit_length() - 1
                    if not (forced[u] >> v) & 1:
                        forced[u] |= 1 << v
                changed = True
    return True


def _forced_cycle_check(forced: list[int], m: int):
    """(verdict, cycle): verdict False kills the search; cycle is a full tour."""
    seen = [False] * m
    for s in range(m):
        if seen[s] or not forced[s]:
            continue
        if forced[s].bit_count() == 2:
            # walk the forced chain both ways; detect closure
            seq = [s]
            seen[s] = True
            prev, cur = s, (forced[s] & -forced[s]).bit_length() - 1
            closed = False
            while True:
                if cur == s:
                    closed = True
                    break
                seq.append(cur)
                seen[cur] = True
                nxt_mask = forced[cur] & ~(1 << prev)
                if not nxt_mask or forced[cur].bit_count() < 2:
                    break
                prev, cur = cur, (nxt_mask & -nxt_mask).bit_length() - 1
            if closed:
                if len(seq) == m:
                    return True, seq
                return False, None
    return True, None


def _twin_classes(allowed: list[int], forced: list[int], m: int) -> tuple[list[int], list[int]]:
    """Interchangeable-vertex classes: equal closed or equal open neighborhoods
    and equal forced edges (so no forced edge joins two members)."""
    class_of = [-1] * m
    masks: list[int] = []
    groups: dict[tuple, list[int]] = {}
    for v in range(m):
        groups.setdefault(("c", allowed[v] | (1 << v), forced[v]), []).append(v)
    for key, vs in sorted(groups.items()):
        if len(vs) > 1:
            idx = len(masks)
            masks.append(_mask_of(vs))
            for v in vs:
                class_of[v] = idx
    groups = {}
    for v in range(m):
        if class_of[v] < 0:
            groups.setdefault(("o", allowed[v], forced[v]), []).append(v)
    for key, vs in sorted(groups.items()):
        vs = [v for v in vs if class_of[v] < 0]
        if len(vs) > 1:
            idx = len(masks)
            masks.append(_mask_of(vs))
            for v in vs:
                class_of[v] = idx
    return class_of, masks


def _spanning_cycle_search(adj_masks: list[int], forced_pairs, count_all: bool):
    """Count (or find) cycles through every vertex and all forced pairs.

    Returns (count, tour) where tour is a local-id sequence or None.  In
    existence mode (count_all=False) the count is capped at 1 and twin
    symmetry prunes the search.
    """
    m = len(adj_masks)
    if m < 3:
        return 0, None
    allowed = list(adj_masks)
    forced = [0] * m
    for a, b in forced_pairs:
        forced[a] |= 1 << b
        forced[b] |= 1 << a
    for v in range(m):
        if forced[v] & ~allowed[v]:
            return 0, None
    if not _propagate_forced(allowed, forced, m):
        return 0, None
    ok, tour = _forced_cycle_check(forced, m)
    if not ok:
        return 0, None
    if tour is not None:
        return 1, tour

    if count_all:
        class_of, class_masks = [-1] * m, []
    else:
        class_of, class_masks = _twin_classes(allowed, forced, m)

    # independent classes with a shared neighborhood bound the search: every
    # unvisited member still needs two edges into that neighborhood
    indep_classes = []
    seen_nbhd: dict[int, int] = {}
    for v in range(m):
        seen_nbhd[allowed[v]] = seen_nbhd.get(allowed[v], 0) | (1 << v)
    for nmask, amask in sorted(seen_nbhd.items()):
        if amask.bit_count() >= 2:
            indep_classes.append((amask, nmask))

    full = (1 << m) - 1
    start = 0
    if not count_all:
        start = min(range(m), key=lambda v: (allowed[v].bit_count(), v))
    start_bit = 1 << start

    found = [0, None]
    path = [start]

    def dfs(v, visited):
        if visited == full:
            if (allowed[v] >> start) & 1:
                fs = forced[start] & ~((1 << path[1]) | (1 << v))
                if fs:
                    return False
                if count_all:
                    if path[1] < path[-1]:
                        found[0] += 1
                        if found[1] is None:
                            found[1] = list(path)
                    return False
                found[0] = 1
                found[1] = list(path)
                return True
            return False

        fu = forced[v] & ~visited
        if v == start and fu.bit_count() == 1:
            # a single forced edge at the start may serve as the closing edge
            # instead of the first step; the closure check enforces its use
            cand = allowed[v] & ~visited
        else:
            cand = fu if fu else allowed[v] & ~visited

        rest = full & ~visited
        for amask, nmask in indep_classes:
            u_cnt = (amask & rest).bit_count()
            if not u_cnt:
                continue
            cap = 2 * (nmask & rest).bit_count()
            if v == start:
                cap += 2 * ((nmask >> v) & 1)  # next edge and closure edge
            else:
                cap += ((nmask >> v) & 1) + ((nmask >> start) & 1)
            if 2 * u_cnt > cap:
                return False

        # every unvisited vertex still needs two usable connections
        rr = rest
        while rr:
            bit = rr & -rr
            rr ^= bit
            u = bit.bit_length() - 1
            au = allowed[u]
            avail = (au & rest & ~bit).bit_count() + ((au >> v) & 1)
            if v != start:
                avail += (au >> start) & 1
            if avail < 2:
                return False

        # the unexplored region plus both chain ends must be one piece
        region = rest | (1 << v) | start_bit
        if reach(allowed, 1 << v, region) != region:
            return False

        order = sorted(bits_of(cand),
                       key=lambda w: ((allowed[w] & ~visited).bit_count(), w))
        for w in order:
            cls = class_of[w]
            if cls >= 0:
                unvisited_cls = class_masks[cls] & ~visited
                if (unvisited_cls & -unvisited_cls).bit_length() - 1 != w:
                    continue
            wbit = 1 << w
            new_visited = visited | wbit
            viol = forced[w] & visited & ~(1 << v)
            if viol and not (viol == start_bit and new_visited == full):
                continue
            if (forced[w] & ~new_visited).bit_count() >= 2:
                continue
            path.append(w)
            stop = dfs(w, new_visited)
            path.pop()
            if stop:
                return True
        return False

    dfs(start, start_bit)
    return found[0], found[1]


# -- kernel: segments that every spanning cycle crosses in one piece -----------

@dataclass
class _Kernel:
    """A local graph with its forced segments contracted.

    The graph has a spanning cycle iff the kernel (`adj`) has one through
    every `forced` pair, and lift() maps a kernel tour back to a local tour.
    Kernel vertices below `plain` are the local vertices left standing; after
    them each segment adds its two end sets, joined by a forced edge.
    """

    adj: list[int]
    forced: list[tuple[int, int]]
    members: list[int]  # the local vertices behind each kernel vertex, as masks
    plain: int
    local_adj: list[int]  # pasted sets removed, their ab edges added
    pastes: dict[tuple[int, int], list[int]]  # (a, b) -> the set crossed between them
    segments: list[tuple[int, int, int, int, int]]  # (A-x, T, x, T', A'-x) as masks

    def _segment(self, c: int, d: int) -> int:
        """Index of the segment whose forced edge is cd, or -1."""
        i, j = c - self.plain, d - self.plain
        return i >> 1 if i >= 0 and j >= 0 and i >> 1 == j >> 1 else -1

    def lift(self, tour: list[int]) -> list[int]:
        members, adj = self.members, self.local_adj
        steps = list(zip(tour, tour[1:] + tour[:1]))
        end = [(mem & -mem).bit_length() - 1 for mem in members]
        for c, d in steps:  # an end set has one kernel edge besides its forced one
            if self._segment(c, d) < 0:
                for v in bits_of(members[c]):
                    nb = adj[v] & members[d]
                    if nb:
                        end[c], end[d] = v, (nb & -nb).bit_length() - 1
                        break
        out = []
        for c, d in steps:
            out.append(end[c])
            seg = self._segment(c, d)
            if seg < 0:
                u, v = sorted((end[c], end[d]))
                out += self.pastes.get((u, v), ())
                continue
            # alternate the A's (first end, the rest, x, the rest, last end)
            # with the T's: e t a .. t x t' a' .. t' e'
            e1, t1, x, t2, e2 = self.segments[seg]
            first, last = (end[c], end[d]) if c < d else (end[d], end[c])
            a_seq = ([first] + bits_of(e1 & ~(1 << first)) + bits_of(x)
                     + bits_of(e2 & ~(1 << last)))
            inner = [v for pair in zip(a_seq, bits_of(t1) + bits_of(t2))
                     for v in pair][1:]
            out += inner if c < d else inner[::-1]
        return out


def _kernelize(adj: list[int]) -> _Kernel:
    """Contract what every spanning cycle of the local graph crosses in one piece.

    Two sound rules, each skipped unless its preconditions hold:

    * paste: vertices P whose closed neighbourhoods all equal P+{a,b} are
      crossed as a..P..b unless the graph is P+{a,b}, so P becomes a forced ab;
    * chained tight classes: a class T of >= 2 vertices with open
      neighbourhood A and |A| = |T|+1 leaves A two cycle edge-ends, so A+T is
      one alternating path a t .. t a' unless the graph is A+T.  When a second
      such class (T', A') has A and A' sharing exactly x, and neither T meets
      the other A, x ends both paths: W = A+T+A'+T' is one segment from A-x to
      A'-x, and becomes those two end sets joined by a forced edge.  A lone
      class stays, since its two ends come from one set.
    """
    m = len(adj)
    full = (1 << m) - 1
    closed: dict[int, int] = {}
    for v in range(m):
        nb = adj[v] | (1 << v)
        closed[nb] = closed.get(nb, 0) | (1 << v)
    pastes: dict[tuple[int, int], list[int]] = {}
    removed = ends = 0
    for nb, p in sorted(closed.items()):
        ab = nb & ~p
        if ab.bit_count() != 2 or nb == full or p & ends or ab & removed:
            continue
        a, b = bits_of(ab)
        if (a, b) not in pastes:
            pastes[a, b] = bits_of(p)
            removed |= p
            ends |= ab
    alive = full & ~removed
    if removed:
        adj = [adj[v] & ~removed if alive >> v & 1 else 0 for v in range(m)]
        for a, b in pastes:
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    opened: dict[int, int] = {}
    for v in bits_of(alive):
        opened[adj[v]] = opened.get(adj[v], 0) | (1 << v)
    tight = [(t, a) for a, t in sorted(opened.items())
             if t.bit_count() >= 2 and a.bit_count() == t.bit_count() + 1]
    segments = []
    used = ends  # the ends of a forced pair stay outside every segment
    for i, (t1, a1) in enumerate(tight):
        for t2, a2 in tight[i + 1:]:
            x = a1 & a2
            w = a1 | t1 | a2 | t2
            if x.bit_count() != 1 or t1 & a2 or t2 & a1 or w & used or w == alive:
                continue
            used |= w
            segments.append((a1 & ~x, t1, x, t2, a2 & ~x))
    if not pastes and not segments:  # no rule fired: the kernel is the graph
        return _Kernel(adj, [], [1 << v for v in range(m)], m, adj, {}, [])

    members = [1 << v for v in bits_of((alive & ~used) | ends)]
    plain = len(members)
    inner = 0
    for e1, t1, x, t2, e2 in segments:
        members += [e1, e2]
        inner |= t1 | x | t2
    rep = [0] * m  # the kernel vertex of each local vertex outside the inners
    for i, mem in enumerate(members):
        for v in bits_of(mem):
            rep[v] = i
    kadj = []
    for i, mem in enumerate(members):
        touch = 0
        for v in bits_of(mem):
            touch |= adj[v]
        nb = 0
        for u in bits_of(touch & ~inner):
            nb |= 1 << rep[u]
        kadj.append(nb & ~(1 << i))
    forced = [(rep[a], rep[b]) for a, b in pastes]
    for j in range(len(segments)):
        p = plain + 2 * j
        forced.append((p, p + 1))
        kadj[p] |= 1 << (p + 1)
        kadj[p + 1] |= 1 << p
    return _Kernel(kadj, forced, members, plain, adj, pastes, segments)


def _local_adjacency(g: LabeledGraph, subset, cap: int) -> tuple[list[int], list[int]]:
    """(sorted subset, adjacency of G[subset] as masks over positions in it)."""
    vs = sorted(set(subset))
    if any(not 0 <= v < g.n for v in vs):
        raise GraphError("subset contains invalid vertex ids")
    if len(vs) > cap:
        raise SizeCapError(
            f"spanning-cycle search capped at {cap} vertices, got {len(vs)}")
    pos = {v: i for i, v in enumerate(vs)}
    sub_mask = _mask_of(vs)
    adj = g.adjacency_masks()
    local_adj = []
    for v in vs:
        mask = 0
        av = adj[v] & sub_mask
        while av:
            bit = av & -av
            av ^= bit
            mask |= 1 << pos[bit.bit_length() - 1]
        local_adj.append(mask)
    return vs, local_adj


# -- public operations ---------------------------------------------------------

def find_spanning_cycle(g: LabeledGraph, subset=None, cap: int = BACKTRACK_CAP) -> Cycle | None:
    """An explicit spanning cycle of the induced subgraph on `subset` (default
    all of V), or None when there is none.

    Exhaustive backtracking on the kernel of the set (contracted pastes and
    chained tight classes, then twin symmetry), so the blow-ups answer in
    milliseconds.  The cap bounds the set before kernelization.
    """
    vs, adj = _local_adjacency(g, range(g.n) if subset is None else subset, cap)
    if any(nb.bit_count() < 2 for nb in adj):
        return None  # also every set of fewer than three vertices
    kernel = _kernelize(adj)
    _, tour = _spanning_cycle_search(kernel.adj, kernel.forced, count_all=False)
    return Cycle(vs[i] for i in kernel.lift(tour)).validate(g) if tour else None


def is_cyclable(g: LabeledGraph, subset=None) -> bool:
    """Does the induced subgraph on `subset` (default all of V) have a spanning cycle?"""
    return find_spanning_cycle(g, subset) is not None


def heavy_cycles_on(g: LabeledGraph, subset, cap: int = HEAVY_SET_CAP):
    """(count, first witness) of cycles with vertex set exactly `subset`
    containing every heavy edge.

    A heavy edge with an endpoint outside the subset makes the count 0 by
    definition rather than raising.
    """
    if not g.heavy_edges:
        raise GraphError("graph has no heavy edges")
    sub = set(subset)
    for a, b in g.heavy_edges:
        if a not in sub or b not in sub:
            return 0, None
    vs, adj = _local_adjacency(g, sub, cap)
    pos = {v: i for i, v in enumerate(vs)}
    count, tour = _spanning_cycle_search(
        adj, [(pos[a], pos[b]) for a, b in g.heavy_edges], count_all=True)
    return count, Cycle(vs[i] for i in tour).validate(g) if tour else None


def extension_candidates(g: LabeledGraph, subset, table: CyclableTable | None = None) -> list[int]:
    """Vertices whose addition keeps the subset cyclable."""
    if table is not None:
        return table.extension_candidates(subset)
    sub = set(subset)
    if not is_cyclable(g, sub):
        raise GraphError("subset is not cyclable")
    return [v for v in range(g.n)
            if v not in sub and is_cyclable(g, sub | {v})]


@dataclass(frozen=True)
class ExtensionVerdict:
    extendible: bool
    witness: frozenset[int] | None

    def __bool__(self):
        return self.extendible


def is_cycle_extendible(g: LabeledGraph, table: CyclableTable | None = None,
                        cap: int | None = None) -> ExtensionVerdict:
    """Every cyclable proper subset must extend by exactly one vertex."""
    return is_s_cycle_extendible(g, (1,), table, cap)


def vertex_on_triangle(g: LabeledGraph, v: int) -> bool:
    masks = g.adjacency_masks()
    for u in g.neighbors(v):
        if masks[v] & masks[u]:
            return True
    return False


def is_fully_cycle_extendible(g: LabeledGraph, table: CyclableTable | None = None,
                              cap: int | None = None) -> bool:
    """Cycle extendible, and every vertex lies on a triangle."""
    if not all(vertex_on_triangle(g, v) for v in range(g.n)):
        return False
    return is_cycle_extendible(g, table, cap).extendible


def is_s_cycle_extendible(g: LabeledGraph, s_set, table: CyclableTable | None = None,
                          cap: int | None = None) -> ExtensionVerdict:
    """Every cyclable subset that could grow by some s in s_set must do so.

    The chosen reading: a subset with room for no jump in the set is exempt.
    Decided for all subsets at once: with D(X) the subsets one vertex short
    of a member of X, the failures are cyc & D^(min s)(all) & ~OR_s D^s(cyc);
    jumps past n are clamped, so any jumps cost at most 2n drop steps.
    The witness is the numerically smallest failure.  With s_set = {1} this
    coincides with plain cycle extendibility.
    """
    jumps = sorted(set(s_set))
    if not jumps:
        raise GraphError("the extension set must be nonempty")
    if any(s < 1 for s in jumps):
        raise GraphError("extension lengths must be positive")
    if table is None:
        table = build_cyclable_table(g, cap)
    n = table.n
    room = (1 << (1 << n) - 1) - 1  # one drop from every subset: all but V, mask 2^n - 1
    for _ in range(min(jumps[0], n + 1) - 1):
        room = _drop_one(room, n)
    cyc = int.from_bytes(table.cyc, "little")
    grown, reach = 0, cyc
    for s in range(1, min(jumps[-1], n) + 1):
        reach = _drop_one(reach, n)
        if s in jumps:
            grown |= reach
    bad = cyc & room & ~grown
    if not bad:
        return ExtensionVerdict(True, None)
    return ExtensionVerdict(False, frozenset(bits_of((bad & -bad).bit_length() - 1)))
