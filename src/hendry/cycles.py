"""Exact cyclability engine: which vertex subsets carry a spanning cycle.

Two exact mechanisms back every predicate here, one per kind of question:

* whole-graph extendibility scans read a dynamic program over anchored
  Hamiltonian paths (the cyclable table) on the twin quotient: twins can be
  swapped by an automorphism, so a set's cyclability depends only on how
  many vertices it takes from each twin class, and the table has one cell per
  such count vector (2^n cells when there are no twins), bounded by a cap on
  the cell count.  Its fill is bit-sliced, one integer per class, one block
  of cells at a time: the digits of the top classes number the blocks, so a
  top class's row is an OR of rows of an earlier block, with no shift, and
  the lower classes sweep within the block, each updated only from the
  neighbours whose rows grew.  The table keeps one integer of cyclable bits,
  which the scans read as it is; and
* a question about one set (is it cyclable, which cycle spans it) goes to a
  backtracking search for cycles spanning that set, with forced edges (from
  the kernel, or implied by degree-2 vertices) propagated up front and a cut
  vertex ending it at once, then pruned by a degree bound on open twins
  (vertices with one neighbourhood), the connectivity of the unexplored
  region and twin symmetry.  The search is exhaustive, so a miss is a proof
  of nonexistence.

Before an existence search, the set is kernelized: segments that every
spanning cycle must cross in one piece are contracted to forced pairs, the
search cap bounds this kernel, and a kernel cycle is lifted back and
validated on the full graph.  The paste rule turns a clique P whose closed
neighbourhoods are all P+{a,b} into a forced edge ab (so hk reduces to gk
with its heavy edges forced).  The chain rule takes two tight twin classes (T
on A, T' on A', |A| = |T|+1, |A'| = |T'|+1) whose sets share exactly one
vertex x: x must end both alternating paths, so A+T+A'+T' is one segment,
contracted to its two end sets A-x and A'-x joined by a forced edge (in s(k)
this is each F_i+x_i+T_i+F'_i+T'_i).  A lone tight class is left to the
search: both of its ends come from one set, and that choice is coupled across
segments.  A heavy-cycle question is the same search on the set with a
triangle pasted on each heavy edge, which the paste rule contracts straight
back into forced pairs.

Cycle extendibility is decided on vertex subsets: a cycle with vertex set S
exists iff S is cyclable, and extending by s vertices is a superset question,
asked of count vectors.  Plain extendibility (the jump set {1}) builds its
table on a paste kernel instead of the graph: the same paste rule, restricted
to pastes with a ~ b and at least two members, keeps only the highest member
of each P, and the kernel's smallest failing set lifts back (all of P for
each kept member) to the graph's.  So hk(3; s^5) and dn(n) need the table of
a 15-vertex graph for every s and n.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .core import (Cycle, GraphError, LabeledGraph, SizeCapError, _closed_masks, _mask_of,
                   _row_groups, _step, bits_of, reach)

DEFAULT_SUBSET_CAP = 24
HARD_SUBSET_CAP = 26
BACKTRACK_CAP = 40


def subset_cap() -> int:
    """Current cap for cyclable tables, as log2 of their cell count
    (HENDRY_SUBSET_CAP, bounded at 26)."""
    raw = os.environ.get("HENDRY_SUBSET_CAP")
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        val = int(raw)
    except ValueError:
        raise GraphError(f"HENDRY_SUBSET_CAP must be an integer, got {raw!r}")
    return max(3, min(val, HARD_SUBSET_CAP))


# -- twin-quotient table --------------------------------------------------------

class CyclableTable:
    """Hamiltonicity bits for one graph, one cell per twin-class count vector.

    Twins (equal closed or equal open neighbourhoods) can be swapped by an
    automorphism that fixes every other vertex, so whether a set S is
    cyclable depends only on how many vertices S takes from each twin class.
    `classes` holds the classes as member masks, numbered by their lowest
    member; class i counts in digit i of a mixed-radix cell number, with
    stride `strides[i]` = prod_{j<i} (|C_j|+1), where |C_i| is `sizes[i]`, and
    vertex v is in class `class_of[v]`.  The representative set of a cell
    takes the c_i lowest members of each class; its anchor is its lowest
    vertex.  With every class a single vertex, cell c is vertex mask c.

    Bit c of the `cells`-bit int `cyc` is set iff the representative set of
    c is cyclable.  Whole-graph scans read that int; a question about a
    single set (which cycle spans it) goes to find_spanning_cycle.
    """

    def __init__(self, n: int, classes: list[int]):
        self.n, self.classes = n, classes
        self.sizes = [m.bit_count() for m in classes]
        self.strides, self.cells, self.class_of = [], 1, [0] * n
        for i, (m, c) in enumerate(zip(classes, self.sizes)):
            self.strides.append(self.cells)
            self.cells *= c + 1
            for v in bits_of(m):
                self.class_of[v] = i
        self.cyc = 0

    def representative(self, cell: int) -> list[int]:
        """The representative set of `cell`, sorted: the numerically smallest set in it."""
        out = []
        for m, w, c in zip(self.classes, self.strides, self.sizes):
            out += bits_of(m)[:cell // w % (c + 1)]
        return sorted(out)


def _twin_quotient(g: LabeledGraph) -> CyclableTable:
    """g's empty table: its twin classes (true twins first, then false twins
    among the rest, singletons included), numbered by lowest member."""
    class_of, masks = _twin_classes(g.adjacency_masks(), [0] * g.n, g.n)
    masks += [1 << v for v in range(g.n) if class_of[v] < 0]
    return CyclableTable(g.n, sorted(masks, key=lambda m: m & -m))


def _repeat(x: int, step: int, count: int) -> int:
    """x | x << step | ... | x << (count - 1) * step: count >= 1 copies of x,
    `step` bits apart, built by doubling (x itself when count is 1)."""
    out, q = x, 1  # out holds q copies
    for bit in bin(count)[3:]:
        out, q = out | out << q * step, 2 * q
        if bit == "1":
            out, q = out << step | x, q + 1
    return out


def _digit_masks(classes: list[int], strides: list[int]):
    """(i, z, one, top, low) for each class i from the top down, over the
    cells of the layout `classes` and `strides` spans: z holds the cells whose
    digits 0..i are all 0, one and top are z with digit i at 1 and at its
    largest value, and low holds the cells whose digits below i are all 0 (z
    with every value of digit i), each derived by shifts."""
    z = 1
    for i in reversed(range(len(classes))):
        size, w = classes[i].bit_count(), strides[i]
        one = z << w
        low = z | (_repeat(one, w, size) if size > 1 else one)
        yield i, z, one, one if size == 1 else z << size * w, low
        z = low


def _drops(x: int, steps: int, table: CyclableTable) -> list[int]:
    """[x, D(x), ..., D^steps(x)], where D(x) holds the cells one vertex
    short of a cell of x.

    Dropping t vertices takes some a_i of them from each class i, so the
    classes are visited once, top down, and each class's mask is derived
    once for every step: D^t gains the class-i drops of D^(t-1), which
    already holds its own class-i drops.
    """
    chain = [x] + [0] * steps
    for i, z, _, top, _ in _digit_masks(table.classes, table.strides):
        w, keep = table.strides[i], top - z  # keep: digit i below its top
        for t in range(1, len(chain)):
            chain[t] |= (chain[t - 1] >> w) & keep
    return chain


def _crowded(table: CyclableTable, s: int) -> int:
    """The cells fewer than s vertices short of V's, the ones no jump of s or
    more fits.

    One pass over the classes, bottom up: short[k] holds the cells of the
    classes seen so far that miss at most k of their members, and a class of
    c members adds digit c - j to the cells of short[k - j], j of them missing.
    """
    short = [1] * s
    for c, w in zip(table.sizes, table.strides):
        for k in reversed(range(s)):  # short[k - j] is still the old row
            row = short[k] << c * w
            for j in range(1, min(k, c) + 1):
                row |= short[k - j] << (c - j) * w
            short[k] = row
    return short[-1]


def _sweep(rows: list[int], stale: list[set[int]], strides: list[int], grow: list[int],
           notify: list[list[int]]) -> None:
    """Grow rows[e], for each e < len(grow), to the least fixed point of
    rows[e] |= (OR of e's neighbours' rows) << strides[e] & grow[e]; later
    rows are read and not updated.  stale[e] holds the neighbours grown since
    e's last update, and notify[e] the classes whose stale entry a growth of
    row e marks.

    The update is a union of one term per neighbour and only grows rows, so
    the fixed point does not depend on the order of updates: sweeps of
    alternating direction update a class only after a neighbour's row grew,
    from those neighbours alone, until no row grows.
    """
    order = list(range(len(grow)))
    while any(stale):
        for e in order:
            grew = stale[e]
            if grew:
                reach = 0
                for f in grew:
                    reach |= rows[f]
                grew.clear()
                row = rows[e] | (reach << strides[e]) & grow[e]
                if row != rows[e]:
                    rows[e] = row
                    for u in notify[e]:
                        stale[u].add(e)
        order.reverse()


def _close(rows: list[int], nbrs: list[list[int]], anchored: list[int]) -> int:
    """The cyclable bits of one block: anchored[a] holds the cells whose
    anchor is in class a, and such a cell is cyclable when a path spanning
    its set ends at a neighbour of the anchor, in the row of a neighbour
    class of a."""
    cyc = 0
    for a, cells in enumerate(anchored):
        reach = 0
        for f in nbrs[a]:
            reach |= rows[f]
        cyc |= reach & cells
    return cyc


def _split(table: CyclableTable) -> int:
    """How many top classes the fill takes as block digits: those whose
    stride exceeds 2^14 cells, so that a block holds more than 2^14 cells,
    and at least the top class."""
    return max(1, sum(s > 1 << 14 for s in table.strides))


def build_cyclable_table(g: LabeledGraph) -> CyclableTable:
    """Run the anchored Hamiltonian-path DP (Held-Karp) over every count
    vector of g's twin classes, and keep the cyclable bits.

    Row e of the DP gets bit c when the representative set of c has a
    Hamiltonian path from its anchor to a member v of class e other than the
    anchor, or is the anchor alone.  Unless the set is the anchor alone, the
    path extends one to a neighbour of v spanning the set minus v, whose cell
    is c minus one class-e vertex.  Class f is a neighbour of class e when
    their members are adjacent; a class of true twins is its own neighbour.
    So row e grows by the OR of its neighbours' rows shifted left by
    stride[e], masked to the cells where class e is nonempty and not the
    anchor alone: the least fixed point of that update (_sweep).

    The fill runs on ints of width w = stride[l], block by block.  The top
    classes l.. are the block digits: block b holds the cells b*w + c', cell
    b*w + c' at bit c', and class e >= l adds unit_e = stride[e] / w to the
    block number.  The masks of the lower classes depend only on the digits
    below l, so one width-w mask serves every block.  Their width drops the
    bits a shift by stride[e] carries past w; w is a multiple of the period
    stride[e] * (|C_e| + 1), so such a carry wraps digit e to 0, which the
    mask leaves out in a full-width fill too.  Blocks are filled in
    increasing order, so block b - unit_e is done before block b:

    * Block 0 holds the table of g minus the top classes: the lower rows
      sweep from the anchors alone.
    * In block b > 0, a top class e with a nonzero digit takes as row e the
      OR of block b - unit_e's rows over e's neighbours, with no shift: the
      block number carries e's digit.  Where e is the anchor's class (the
      lowest nonzero top digit) and its digit is 1, the only class-e member
      at cell 0 is the anchor, so row e holds cell 0 only as the anchor
      alone, in block unit_e.  The lower rows are the least fixed point of
      the same update within the block, seeded from the top rows.

    A set is cyclable when a path spanning it ends at a neighbour of its
    anchor (_close); in blocks b > 0, cell 0 holds top-class members alone,
    anchored in the lowest nonzero top class.  Each block passes on, for
    each top class e whose digit can still grow, the OR over e's neighbours
    that block b + unit_e reads, and drops its rows: no full-width row is
    built.  The cyclable bits of the blocks are joined as bytes, in groups
    of the fewest blocks that fill whole bytes, so no int grows block by
    block.

    The top classes (_split) are those whose stride exceeds 2^14 cells, and
    at least the top class, so a block holds more than 2^14 cells; without
    twins, n - 15 classes from n = 16 on (2^15 cells a block).  A top class
    trades its shifted updates for one OR a block, and the lower sweep gets
    shorter, while each block adds a loop in Python over the lower classes.
    Timed over forced splits, fills were fastest with blocks of 2^15 to 2^16
    cells, and blocks of 2^13 cells or fewer were slower on every layout.
    """
    table, cap = _twin_quotient(g), subset_cap()
    classes, strides, cells = table.classes, table.strides, table.cells
    if cells > 1 << cap:
        raise SizeCapError(
            f"cyclable table needs {cells} cells (2^{math.log2(cells):.2f}); "
            f"cap is 2^{cap} cells")
    if not classes:
        return table
    adj, class_of = g.adjacency_masks(), table.class_of
    nbrs = [sorted({class_of[v] for v in bits_of(adj[(c & -c).bit_length() - 1])})
            for c in classes]  # nbrs[e]: e's neighbour classes
    low = len(classes) - _split(table)  # the lowest top class
    w, tops = strides[low], range(low, len(classes))
    unit, size = [strides[e] // w for e in tops], table.sizes[low:]
    notify = [[f for f in nb if f < low] for nb in nbrs]  # each class's lower neighbours
    # grow[e]: the cells where a class-e vertex can come last, all but those
    # with digit e = 0 (one - z) and those with digit e = 1 over lower zeros;
    # anchored[a]: the cells whose lowest nonzero digit is a
    full, grow, anchored = (1 << w) - 1, [0] * low, [0] * low
    for i, z, one, _, lows in _digit_masks(classes[:low], strides[:low]):
        grow[i], anchored[i] = full ^ (one - z) ^ one, lows ^ z
    full = 0  # free the mask before the fill
    # ahead[b, e]: the OR over e's neighbours of the rows of block b - unit_e
    blocks, r = cells // w, 8 // math.gcd(w, 8)  # r blocks fill whole bytes
    ahead, group, buf = {}, 0, bytearray()
    for b in range(blocks):
        if b:
            rows, stale, a = [0] * len(classes), [set() for _ in range(low)], None
            for e, u, c in zip(tops, unit, size):
                d = b // u % (c + 1)
                if d:
                    row = ahead.pop((b, e))
                    if a is None:  # e holds the anchor
                        a = e
                        if d == 1:  # and the anchor is e's one member at cell 0
                            row = row & ~1 | (b == u)
                    rows[e] = row
                    for f in notify[e]:
                        stale[f].add(e)
        else:
            rows = [1 << s for s in strides[:low]] + [0] * len(tops)
            stale = [set(nb) for nb in notify[:low]]
        _sweep(rows, stale, strides, grow, notify)
        block = _close(rows, nbrs, anchored)
        if b:
            block |= any(rows[f] & 1 for f in nbrs[a])
        for e, u, c in zip(tops, unit, size):
            if b // u % (c + 1) < c:
                reach = 0
                for f in nbrs[e]:
                    reach |= rows[f]
                ahead[b + u, e] = reach
        group |= block << b % r * w
        if b % r == r - 1 or b == blocks - 1:
            buf += group.to_bytes(r * w // 8, "little")
            group = 0
    rows = grow = anchored = block = reach = None  # free the fill's ints
    # a two-vertex path is not a cycle, nor is the one-vertex path of a class
    # of true twins, yet the blocks set their bits: clear them before the
    # bytes become one int
    small = [step + strides[f] for a, step in enumerate(strides) for f in nbrs[a] if f >= a]
    small += [step for a, step in enumerate(strides) if a in nbrs[a]]
    for c in small:
        buf[c >> 3] &= ~(1 << (c & 7))
    table.cyc = int.from_bytes(buf, "little")
    return table


# -- backtracking search ------------------------------------------------------

def _propagate_forced(allowed: list[int], forced: list[int], m: int) -> bool:
    """Close forced edges under degree-2 reasoning; False when infeasible.

    `sat` holds the vertices with two forced edges; as `forced` is symmetric,
    v keeps exactly the saturated neighbours it is forced to, in one AND.
    """
    sat = _mask_of(v for v in range(m) if forced[v].bit_count() >= 2)
    changed = True
    while changed:
        changed = False
        for v in range(m):
            fv = forced[v]
            av = allowed[v] & ~(sat & ~fv)
            if av != allowed[v]:
                allowed[v] = av
                changed = True
            if fv & ~av or fv.bit_count() > 2 or av.bit_count() < 2:
                return False
            if av.bit_count() == 2 and fv != av:
                forced[v] = av
                sat |= 1 << v
                for u in bits_of(av & ~fv):
                    forced[u] |= 1 << v
                    if forced[u].bit_count() >= 2:
                        sat |= 1 << u
                changed = True
    return True


def _twin_classes(allowed: list[int], forced: list[int], m: int) -> tuple[list[int], list[int]]:
    """Interchangeable-vertex classes: equal closed or equal open neighborhoods
    and equal forced edges (so no forced edge joins two members).  Classes of
    equal closed rows are taken first, then those of equal open rows among
    the rest; class_of is -1 for a vertex in no class of two or more."""
    class_of, masks, taken = [-1] * m, [], 0
    for closed in (1, 0):  # equal closed neighbourhoods first, then equal open ones
        # one int per vertex, its row above its forced edges
        keys = [(a | closed << v) << m | forced[v] for v, a in enumerate(allowed)]
        for vs in _row_groups(keys).values():
            vs &= ~taken
            if vs & vs - 1:
                for v in bits_of(vs):
                    class_of[v] = len(masks)
                masks.append(vs)
                taken |= vs
    return class_of, masks


def _spanning_cycle_search(adj_masks: list[int], forced_pairs) -> list[int] | None:
    """A cycle through every vertex and all forced pairs, as a local-id tour,
    or None when there is none.  The graph is the kernel of a set of at least
    3 vertices with minimum degree 2 (find_spanning_cycle), and such a kernel
    has at least 3 vertices.

    Forced edges are propagated first, and a cut vertex ends the search.
    The DFS starts at a vertex of least degree and takes forced edges when it
    has them; it prunes when open twins (vertices with one `allowed` row,
    whatever their forced edges) need more edges than their shared
    neighbourhood has left, when the unexplored region is not connected to
    both ends of the path, and by twin symmetry (only the lowest unvisited
    twin is tried; twins there also have equal forced edges).  Forced edges
    closing a cycle short of all vertices need no test of their own:
    propagation leaves no arc into such a cycle, so a start outside it fails
    the region check and a start on it fails after one forced lap.

    After propagation a vertex with two forced edges lies in no `allowed` row
    but its forced partners', so a step never enters a vertex with two forced
    edges still to take, and the path leaves every vertex but the start along
    its unused forced edge: the only visited forced partner a new vertex can
    have, besides the one it is entered from, is the start.
    """
    m = len(adj_masks)
    allowed = list(adj_masks)
    forced = [0] * m
    for a, b in forced_pairs:
        forced[a] |= 1 << b
        forced[b] |= 1 << a
    if not _propagate_forced(allowed, forced, m):
        return None
    # a cut vertex leaves no tour: each tour edge survives propagation both
    # ways, so without v one neighbour of v still reaches all the others
    full = (1 << m) - 1
    for v in range(m):
        if allowed[v] & ~reach(allowed, allowed[v] & -allowed[v], full & ~(1 << v)):
            return None

    class_of, class_masks = _twin_classes(allowed, forced, m)
    # vertices with one `allowed` row are independent and bound the search,
    # whatever their forced edges: every unvisited one still needs two edges
    # into the shared row
    indep_classes = [(c, nmask) for nmask, c in _row_groups(allowed).items() if c & c - 1]

    start = min(range(m), key=lambda v: (allowed[v].bit_count(), v))
    start_bit = 1 << start

    path = [start]

    def dfs(v, visited):
        if visited == full:  # close at start, using every forced edge there
            return bool((allowed[v] >> start) & 1
                        and not forced[start] & ~((1 << path[1]) | (1 << v)))

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
            new_visited = visited | 1 << w
            if forced[w] & start_bit & ~(1 << v) and new_visited != full:
                continue  # the start's forced partner comes last
            path.append(w)
            if dfs(w, new_visited):
                return True
            path.pop()
        return False

    return path if dfs(start, start_bit) else None


# -- kernel: segments that every spanning cycle crosses in one piece -----------

class _Kernel(namedtuple("_Kernel", "adj forced members plain local_adj pastes segments")):
    """A local graph with its forced segments contracted.

    The graph has a spanning cycle iff the kernel (`adj`) has one through
    every `forced` pair, and lift() maps a kernel tour back to a local tour.
    Kernel vertices below `plain` are the local vertices left standing; after
    them each segment adds its two end sets, joined by a forced edge.
    `members` holds the local vertices behind each kernel vertex, `local_adj`
    the local graph with pasted sets removed and their ab edges added,
    `pastes` maps (a, b) to the set crossed between them, and `segments`
    holds (A-x, T, x, T', A'-x); every set is a mask.
    """

    __slots__ = ()

    def _segment(self, c: int, d: int) -> int:
        """Index of the segment whose forced edge is cd, or -1."""
        i, j = c - self.plain, d - self.plain
        return i >> 1 if i >= 0 and j >= 0 and i >> 1 == j >> 1 else -1

    def lift(self, tour: list[int]) -> list[int]:
        if not (self.pastes or self.segments):  # no rule fired: the tour is local
            return tour
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
                out += bits_of(self.pastes.get((u, v), 0))
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


def _pastes(adj) -> tuple[dict[tuple[int, int], int], int, int]:
    """The pasted sets of a local graph, as {(a, b): P} with a < b: the
    vertices P whose closed neighbourhoods all equal P+{a,b}, where P+{a,b}
    is not the whole graph; then the masks of their members and of their ends.

    Sets are taken in order of their closed neighbourhood, and one is skipped
    when it holds an end of a set already taken, when one of its ends lies in
    such a set, or when ab already has a set: the sets are disjoint, no end
    is in any set, and each pair ab has one set.  a and b need not be adjacent.
    """
    full = (1 << len(adj)) - 1
    closed = _row_groups(_closed_masks(adj))
    pastes: dict[tuple[int, int], int] = {}
    removed = ends = 0
    for nb, p in sorted(closed.items()):
        ab = nb & ~p
        if ab.bit_count() != 2 or nb == full or p & ends or ab & removed:
            continue
        a, b = bits_of(ab)
        if (a, b) not in pastes:
            pastes[a, b] = p
            removed |= p
            ends |= ab
    return pastes, removed, ends


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
    pastes, removed, ends = _pastes(adj)
    alive = full & ~removed
    if removed:
        adj = [adj[v] & ~removed if alive >> v & 1 else 0 for v in range(m)]
        for a, b in pastes:
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    # a pasted vertex's row is 0 and joins no tight class
    tight = [(t, a) for a, t in sorted(_row_groups(adj).items())
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

    plain_mask = (alive & ~used) | ends  # the plain kernel vertices, in order
    members = [1 << v for v in bits_of(plain_mask)]
    plain = len(members)
    for e1, _, _, _, e2 in segments:
        members += [e1, e2]
    runs = _runs(plain_mask)
    kadj = []
    for i, mem in enumerate(members):
        touch = _step(adj, mem)
        nb = _compress(touch, runs)
        for j in range(plain, len(members)):  # the end sets the row touches
            if touch & members[j]:
                nb |= 1 << j
        kadj.append(nb & ~(1 << i))
    # a paste's ends are plain: each is numbered by the plain vertices below it
    forced = [((plain_mask & (1 << a) - 1).bit_count(), (plain_mask & (1 << b) - 1).bit_count())
              for a, b in pastes]
    for j in range(len(segments)):
        p = plain + 2 * j
        forced.append((p, p + 1))
        kadj[p] |= 1 << (p + 1)
        kadj[p + 1] |= 1 << p
    return _Kernel(kadj, forced, members, plain, adj, pastes, segments)


def _members(g: LabeledGraph, subset) -> list[int]:
    """The sorted ids of `subset`, checked against g."""
    vs = sorted(set(subset))
    if any(not 0 <= v < g.n for v in vs):
        raise GraphError("subset contains invalid vertex ids")
    return vs


def _runs(keep: int) -> list[tuple[int, int, int]]:
    """The runs of consecutive set bits of `keep`, lowest first, as (lo,
    width mask, offset): the run starts at bit lo, and offset counts the
    bits of `keep` below it."""
    runs, offset = [], 0
    while keep:
        low = keep & -keep
        run = keep & ~(keep + low)  # the carry clears the run that starts at low
        lo = low.bit_length() - 1
        runs.append((lo, run >> lo, offset))
        offset += run.bit_count()
        keep ^= run
    return runs


def _compress(mask: int, runs: list[tuple[int, int, int]]) -> int:
    """The bits of `mask` at the kept positions of `runs`, renumbered 0, 1, ..."""
    out = 0
    for lo, width, offset in runs:
        out |= (mask >> lo & width) << offset
    return out


def _local_adjacency(g: LabeledGraph, vs: list[int]) -> list[int]:
    """Adjacency of G[vs] as masks over positions in the sorted list vs,
    moved down one run of consecutive ids at a time."""
    adj, runs = g.adjacency_masks(), _runs(_mask_of(vs))
    return [_compress(adj[v], runs) for v in vs]


# -- public operations ---------------------------------------------------------

def find_spanning_cycle(g: LabeledGraph, subset=None, cap: int = BACKTRACK_CAP) -> Cycle | None:
    """An explicit spanning cycle of the induced subgraph on `subset` (default
    all of V), or None when there is none.

    Exhaustive backtracking on the kernel of the set (contracted pastes and
    chained tight classes, then twin symmetry), so the blow-ups answer in
    milliseconds.  The cap bounds the kernel, the graph the search runs on:
    s(k) contracts to 4k-3 vertices, while gk(k) does not shrink.
    """
    vs = _members(g, range(g.n) if subset is None else subset)
    if len(vs) < 3:
        return None
    adj = _local_adjacency(g, vs)
    if any(nb.bit_count() < 2 for nb in adj):
        return None
    kernel = _kernelize(adj)
    if len(kernel.adj) > cap:
        raise SizeCapError(
            f"spanning-cycle search capped at {cap} kernel vertices, got {len(kernel.adj)}")
    tour = _spanning_cycle_search(kernel.adj, kernel.forced)
    return Cycle(vs[i] for i in kernel.lift(tour)).validate(g) if tour else None


def find_heavy_cycle(g: LabeledGraph, subset) -> Cycle | None:
    """A cycle with vertex set exactly `subset` through every heavy edge, or None.

    G[S] has one iff |S| >= 3 and G[S] with a triangle pasted on each heavy
    edge ab (a new vertex w adjacent to a and b alone) is Hamiltonian: a
    spanning cycle crosses each w as a-w-b, and dropping the w's leaves the
    heavy cycle.  The kernel's paste rule contracts each w back into a forced
    pair ab, so the search's cap counts no w.  A heavy edge with an endpoint
    outside the subset answers None without a search.
    """
    if not g.heavy_edges:
        raise GraphError("graph has no heavy edges")
    vs = _members(g, subset)
    if len(vs) < 3 or not all(a in vs and b in vs for a, b in g.heavy_edges):
        return None
    n, ws = g.n, list(range(g.n, g.n + len(g.heavy_edges)))
    pasted = LabeledGraph(n + len(ws), g.edges() + [
        (u, w) for w, e in zip(ws, g.heavy_edges) for u in e])
    tour = find_spanning_cycle(pasted, vs + ws)
    return Cycle(v for v in tour if v < n).validate(g) if tour else None


class ExtensionVerdict(namedtuple("ExtensionVerdict", "extendible witness")):
    """(extendible, witness); witness is a cyclable set that does not extend, or None."""

    __slots__ = ()

    def __bool__(self):
        return self.extendible


def is_cycle_extendible(g: LabeledGraph) -> ExtensionVerdict:
    """Every cyclable proper subset must extend by exactly one vertex."""
    return is_s_cycle_extendible(g, (1,))


def is_fully_cycle_extendible(g: LabeledGraph) -> bool:
    """Cycle extendible, and every vertex lies on a triangle."""
    masks = g.adjacency_masks()
    on_triangle = (any(m & masks[u] for u in bits_of(m)) for m in masks)
    return all(on_triangle) and is_cycle_extendible(g).extendible


def _paste_kernel(g: LabeledGraph) -> tuple[LabeledGraph, list[int] | None]:
    """The graph on which g's plain cycle extendibility is decided, and the
    vertices of g behind each of its vertices, as masks (None when nothing
    is dropped and the kernel is g itself).

    Of each paste P on ab (see _pastes) with a ~ b and |P| >= 2 only the
    highest member p is kept; the kernel is the graph induced on the kept
    vertices, where p has degree 2.  The image of a set S replaces each
    nonempty S∩P by p, and the lift of a kernel set puts all of P back for
    each p it holds.  A set fails when it is cyclable, not all of V, and no
    one-vertex extension is cyclable; the failing sets of g are exactly the
    lifts of the kernel's, and the smallest lifts to the smallest:

    * a cyclable S that holds some but not all of P extends by one twin (a
      missing member goes next to a member on the cycle, as all of P share
      one closed neighbourhood), so every failing set holds each paste whole
      or not at all;
    * if S meets P and is not inside P+{a,b}, every spanning cycle of S
      crosses S∩P as one block from a to b: members see only P, a and b, so
      a block of members on the cycle lies between a and b (between one of
      them and itself only if the cycle is that block plus it), and two
      blocks would take both cycle edges at a and at b, closing the cycle
      inside P+{a,b}.  A block and p (whose neighbours are a and b) are
      interchangeable, so S is cyclable exactly when its image is;
    * a subset of the clique P+{a,b} (a clique because a ~ b) of 3 or more
      vertices that is not the whole clique extends inside it, and its image
      has at most 2 vertices, so neither fails.  The whole clique and its
      image, the triangle p a b, are both cyclable, and their one-vertex
      extensions fall under the previous point;
    * p is the highest member of P, so the lift keeps the numeric order of
      sets: two lifts differ first, from the top, at the highest vertex of
      the lift of the kernel sets' symmetric difference, which is a kept
      vertex of that difference.

    The witness is therefore the one g's own table gives.  Jumps longer than
    one are not covered (a longer jump can take part of a paste), so other
    jump sets keep g's table.
    """
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    tops, dropped = {}, 0
    for (a, b), p in _pastes(adj)[0].items():
        top = 1 << p.bit_length() - 1
        if p != top and adj[a] >> b & 1:
            tops[top] = p
            dropped |= p ^ top
    if not dropped:
        return g, None
    pos = {v: i for i, v in enumerate(bits_of(full & ~dropped))}
    kernel = LabeledGraph(len(pos), [(pos[u], pos[v]) for u, v in g.edges()
                                     if u in pos and v in pos])
    return kernel, [tops.get(1 << v, 1 << v) for v in pos]


def is_s_cycle_extendible(g: LabeledGraph, s_set) -> ExtensionVerdict:
    """Every cyclable subset that could grow by some s in s_set must do so.

    The chosen reading: a subset with room for no jump in the set is exempt.
    Decided for all subsets at once: with D(X) the subsets one vertex short
    of a member of X, the failures are the cyclable sets missing at least
    min s vertices outside OR_s D^s(cyc); jumps past n - 3 extend no cyclable
    set and are dropped.  One pass over the classes computes every drop step
    of that chain, holding one int per step (at most n - 2), and one more
    builds the exempt cells, those fewer than min s vertices short of V.
    Failing is invariant under twin swaps, so the witness, the numerically
    smallest failure, is the smallest representative set of a failing cell.
    With s_set = {1} this coincides with plain cycle extendibility, and the
    table is built on the paste kernel, with the same verdict and witness
    (_paste_kernel).
    """
    jumps = sorted(set(s_set))
    if not jumps:
        raise GraphError("the extension set must be nonempty")
    if any(s < 1 for s in jumps):
        raise GraphError("extension lengths must be positive")
    kernel, members = _paste_kernel(g) if jumps == [1] else (g, None)
    table = build_cyclable_table(kernel)
    most = table.n - 3  # a cyclable set has 3 vertices or more: no longer jump applies
    if jumps[0] > most:
        return ExtensionVerdict(True, None)
    reaches, passed = _drops(table.cyc, min(jumps[-1], most), table), 0
    for s in jumps:
        if s < len(reaches):
            passed |= reaches[s]
    reaches = None  # free the chain before the exempt cells are built
    bad = table.cyc & ~(passed | _crowded(table, jumps[0]))
    if not bad:
        return ExtensionVerdict(True, None)
    witness = table.representative(_smallest_cell(table, bad))
    if members:
        witness = [v for i in witness for v in bits_of(members[i])]
    return ExtensionVerdict(False, frozenset(witness))


def _smallest_cell(table: CyclableTable, cand: int) -> int:
    """The cell of `cand` whose representative set is numerically smallest.

    Deciding vertices from the highest down, vertex v (rank t in class i) is
    left out whenever some candidate cell takes at most t class members.  The
    cells whose digits 0..i are all 0 are the multiples of stride[i] times
    (|C_i| + 1); that mask is built when the walk first reaches class i, so a
    one-cell candidate builds none.
    """
    classes, strides, zeros = table.classes, table.strides, {}
    for v in reversed(range(table.n)):
        if cand.bit_count() < 2:
            break
        i = table.class_of[v]
        if i not in zeros:
            period = strides[i] * (table.sizes[i] + 1)
            zeros[i] = _repeat(1, period, table.cells // period)
        z, t = zeros[i], (classes[i] & (1 << v) - 1).bit_count()
        cand = cand & (z << (t + 1) * strides[i]) - z or cand
    return cand.bit_length() - 1
