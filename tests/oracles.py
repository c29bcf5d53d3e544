"""Brute-force oracles the exact engines are checked against, and graph
helpers only the tests use (small builders, the default hk spec, induced
subgraphs, contraction, isomorphism, labelled equality, blow-up blocks, one
set's cell of a filled cyclable table).  The family builders, the model
check, maximum cardinality search, the maximal-clique filter, the
induced-path search and the spanning-cycle search's front end (subset
adjacency, kernel rows, forced-edge propagation) also have slow twins here,
composed from public primitives or scanning vertices, pairs, candidates or
single bits, as the fast paths did before they replaced them; the builder
twins paste through `paste_clique`, which shares the one-pass loop.  The
S-extendibility scan keeps its earlier form here too: the room for the
smallest jump as a drop chain, and a witness walk that derives every class's
digit mask first; these share the drop step `_drops`, which is checked on its
own against decoded count vectors.

Each oracle is deliberately naive (permutations, subset scans, cut
enumeration) so it shares no code path with the implementation it verifies.
"""

from __future__ import annotations

import itertools

from hendry import (
    BullResult,
    ConnectivityCert,
    ExtensionVerdict,
    GraphError,
    HkSpec,
    HostTree,
    LabeledGraph,
    SizeCapError,
    SubtreeModel,
    build_cyclable_table,
    complete_graph,
    disjoint_union,
    find_spanning_cycle,
    heavy_edge_names,
    is_chordal,
    join,
    paste_clique,
    path_graph,
)
from hendry.core import reach, shortest_path
from hendry.cycles import (_Kernel, _digit_masks, _drops, _paste_kernel, _smallest_cell,
                           _twin_quotient)
from hendry.families import default_clique_sizes

DEFINITIONAL_CAP = 14


def uniform_spec(k: int) -> HkSpec:
    """hk(k)'s spec with the default clique sizes."""
    return HkSpec(k, default_clique_sizes(k))


def gnp(n: int, p: float, rng) -> LabeledGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return LabeledGraph(n, edges)


def permutation_cyclable_sets(g: LabeledGraph) -> set[int]:
    """All cyclable subset masks, found by permuting every subset."""
    masks = g.adjacency_masks()
    out = set()
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if len(vs) < 3:
            continue
        first = vs[0]
        fb = 1 << first
        for perm in itertools.permutations(vs[1:]):
            if perm[0] > perm[-1]:
                continue
            prev, ok = first, True
            for v in perm:
                if not (masks[prev] >> v) & 1:
                    ok = False
                    break
                prev = v
            if ok and masks[prev] & fb:
                out.add(mask)
                break
    return out


def anchored_path_ends(g: LabeledGraph) -> list[int]:
    """The anchored Hamiltonian-path DP filled one subset at a time.

    Word S has bit e set iff G[S] has a Hamiltonian path from min(S) to e.
    This is the per-mask pull loop the bit-sliced table replaced.
    """
    adj = g.adjacency_masks()
    ends = [0] * (1 << g.n)
    for v in range(g.n):
        ends[1 << v] = 1 << v
    for mask in range(3, 1 << g.n):
        rest = mask & (mask - 1)  # every member but the anchor min(S)
        while rest:
            eb = rest & -rest
            rest ^= eb
            if ends[mask ^ eb] & adj[eb.bit_length() - 1]:
                ends[mask] |= eb
    return ends


def containing(n: int, v: int) -> int:
    """The subsets that contain v, as an int whose bit S stands for mask S,
    decoded from a repeated byte pattern (exact below max(2^n, 8); past 2^n,
    for n < 3, it meets no real subset)."""
    size = max(1, (1 << n) >> 3)
    if v < 3:
        return int.from_bytes(bytes((0xAA, 0xCC, 0xF0)[v:v + 1]) * size, "little")
    half = 1 << (v - 3)
    return int.from_bytes((bytes(half) + b"\xff" * half) * (size // (2 * half)), "little")


def drop_one_by_list(x: int, has: list[int]) -> int:
    """Subsets T such that T plus one vertex outside T is in x, with has[v]
    the subsets containing v."""
    out = 0
    for v, hv in enumerate(has):
        out |= (x & hv) >> (1 << v)
    return out


def representative_masks(classes: list[int]) -> list[int]:
    """The vertex mask of every cell's representative set, in cell order.

    Cells are the count vectors over `classes` (member masks) in mixed radix,
    class 0 the lowest digit; a representative takes the lowest members of
    each class."""
    members = [[v for v in range(m.bit_length()) if m >> v & 1] for m in reversed(classes)]
    out = []
    for counts in itertools.product(*(range(len(ms) + 1) for ms in members)):
        mask = 0
        for ms, c in zip(members, counts):
            for v in ms[:c]:
                mask |= 1 << v
        out.append(mask)
    return out


def table_cyclable(table, subset) -> bool:
    """Is `subset` (a vertex mask or ids) cyclable, read from its cell of a
    filled CyclableTable?  GraphError for ids outside 0..n-1."""
    if not isinstance(subset, int):
        mask = 0
        for v in subset:  # a negative id maps to n, which is out of range too
            mask |= 1 << (v if v >= 0 else table.n)
        subset = mask
    if not 0 <= subset < 1 << table.n:
        raise GraphError("subset contains invalid vertex ids")
    cell = sum((subset & m).bit_count() * w for m, w in zip(table.classes, table.strides))
    return bool(table.cyc >> cell & 1)


def drop_one_by_cells(x: int, sizes: list[int]) -> int:
    """Cells T such that T plus one vertex of some class is a cell of x, with
    each cell decoded into its count vector (class i has sizes[i] members)."""
    vectors = list(itertools.product(*(range(s + 1) for s in reversed(sizes))))
    index = {vec: i for i, vec in enumerate(vectors)}
    out = 0
    for i, vec in enumerate(vectors):
        for d, s in enumerate(reversed(sizes)):
            up = vec[:d] + (vec[d] + 1,) + vec[d + 1:]
            if vec[d] < s and x >> index[up] & 1:
                out |= 1 << i
                break
    return out


def table_by_sweeps(g: LabeledGraph) -> tuple[list[int], int]:
    """(ends, cyc) of the per-vertex bit-sliced anchored-path table, one
    2^n-bit int per vertex (bit S for vertex mask S), filled by in-place
    sweeps over every vertex in order until a sweep changes nothing.  On a
    graph without twins it equals the twin-quotient table."""
    n = g.n
    nbrs = [[f for f in range(n) if g.has_edge(e, f)] for e in range(n)]
    below = []
    lower = 0
    for e in range(n):
        has = containing(n, e)
        below.append(has & lower)
        lower |= has
    ends = [1 << (1 << e) for e in range(n)]
    changed = True
    while changed:
        changed = False
        for e in range(n):
            reach = 0
            for f in nbrs[e]:
                reach |= ends[f]
            grown = ends[e] | (reach << (1 << e)) & below[e]
            changed |= grown != ends[e]
            ends[e] = grown
    cyc = 0
    for a in range(n):
        reach = 0
        for f in nbrs[a]:
            reach |= ends[f]
        cyc |= reach & (containing(n, a) ^ below[a])
    for a, b in g.edges():
        cyc &= ~(1 << ((1 << a) | (1 << b)))
    return ends, cyc


def table_by_one_stage_fill(g: LabeledGraph) -> tuple[list[int], int]:
    """(ends, cyc) of g's twin-quotient table filled in one stage: one
    full-width row per class beside one full-width grow mask per class.

    ends[e] has bit c when the representative set of c has a Hamiltonian
    path from its anchor to a member of class e other than the anchor, or is
    the anchor alone.  Each row grows by its neighbours' rows shifted left by
    its stride and masked to the cells where class e is nonempty and not the
    anchor alone, in sweeps of alternating direction until no row grows.  A
    cell is cyclable when a path spanning it ends at a neighbour of its
    anchor, two-vertex paths and the one-vertex path of a class of true twins
    aside."""
    table = _twin_quotient(g)
    classes, strides, cells = table.classes, table.strides, table.cells
    adj, class_of = g.adjacency_masks(), {}
    for f, m in enumerate(classes):
        for v in _bits(m):
            class_of[v] = f
    nbrs = [sorted({class_of[v] for v in _bits(adj[(c & -c).bit_length() - 1])}) for c in classes]
    full = (1 << cells) - 1
    grow = [full ^ (one - z) ^ one for _, z, one, _, _ in _digit_masks(classes, strides)][::-1]
    ends, order = [1 << w for w in strides], list(range(len(classes)))
    changed = True
    while changed:
        changed = False
        for e in order:
            reach = 0
            for f in nbrs[e]:
                reach |= ends[f]
            grown = ends[e] | (reach << strides[e]) & grow[e]
            changed |= grown != ends[e]
            ends[e] = grown
        order.reverse()
    cyc = 0
    for a, z, _, _, low in _digit_masks(classes, strides):
        reach = 0
        for f in nbrs[a]:
            reach |= ends[f]
        cyc |= reach & (low ^ z)
    for a, w in enumerate(strides):
        for f in nbrs[a]:
            if f >= a:
                cyc &= ~(1 << w + strides[f])
        if a in nbrs[a]:
            cyc &= ~(1 << w)
    return ends, cyc


def relabeled(g: LabeledGraph, rng) -> LabeledGraph:
    """g with its vertex ids shuffled, so that twin classes stop being runs of ids."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return LabeledGraph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def twin_blowups(max_base: int = 5):
    """Hypothesis strategy: relabeled twin blow-ups of G(2..max_base, p)."""
    from hypothesis import strategies as st
    return st.builds(lambda rng, n, p: relabeled(twin_blowup(rng, n, p), rng),
                     st.randoms(use_true_random=False), st.integers(2, max_base),
                     st.sampled_from((0.3, 0.5, 0.8)))


def small_graphs(max_n: int = 10):
    """Hypothesis strategy: labeled graphs on 1..max_n vertices."""
    from hypothesis import strategies as st

    def build(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
            lambda keep: LabeledGraph(n, [e for e, k in zip(pairs, keep) if k]))
    return st.integers(1, max_n).flatmap(build)


def permutation_hamiltonian(g: LabeledGraph) -> bool:
    """Spanning-cycle existence by trying every vertex permutation."""
    if g.n < 3:
        return False
    masks = g.adjacency_masks()
    for perm in itertools.permutations(range(1, g.n)):
        if perm[0] > perm[-1]:
            continue
        prev, ok = 0, True
        for v in perm:
            if not (masks[prev] >> v) & 1:
                ok = False
                break
            prev = v
        if ok and masks[prev] & 1:
            return True
    return False


def brute_force_chordal(g: LabeledGraph) -> bool:
    """No vertex subset induces a cycle of length >= 4."""
    masks = g.adjacency_masks()
    for mask in range(1 << g.n):
        if mask.bit_count() < 4:
            continue
        ok = True
        start = -1
        mm = mask
        while mm:
            b = mm & -mm
            mm ^= b
            v = b.bit_length() - 1
            if start < 0:
                start = v
            if (masks[v] & mask).bit_count() != 2:
                ok = False
                break
        if not ok:
            continue
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            ff = frontier
            while ff:
                b = ff & -ff
                ff ^= b
                nxt |= masks[b.bit_length() - 1]
            nxt &= mask & ~seen
            seen |= nxt
            frontier = nxt
        if seen == mask:
            return False
    return True


def _connected_after_removal(g: LabeledGraph, removed: set[int]) -> bool:
    left = [v for v in range(g.n) if v not in removed]
    if len(left) <= 1:
        return True
    seen = {left[0]}
    stack = [left[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(left)


def brute_force_kappa(g: LabeledGraph) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete graphs."""
    n = g.n
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            if not _connected_after_removal(g, set(cut)):
                return size
    return n - 1


def connectivity_by_pair_scan(g: LabeledGraph) -> ConnectivityCert:
    """Exact vertex connectivity with a minimum separating set.

    The unpruned pair scan: every non-adjacent pair from sources 0..best,
    each flow started from zero and run on the explicit split digraph by
    `split_digraph_flow`.  `structure.vertex_connectivity` runs its flows on
    the vertex graph instead, so this checks its max flow as well as its
    twin and common-neighbour pruning."""
    n = g.n
    if n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if all(g.degree(v) == n - 1 for v in range(n)):
        return ConnectivityCert(n - 1, None, True)
    if not g.is_connected():
        return ConnectivityCert(0, (), False)
    best, best_cut = n, 0
    for s in range(n):
        if s > best:  # Even's bound: sources 0..best cover a vertex off some minimum cut
            break
        for t in range(s + 1, n):
            if not g.has_edge(s, t):
                flow, cut = split_digraph_flow(g, s, t, best)
                if flow < best:
                    best, best_cut = flow, cut
    return ConnectivityCert(best, tuple(_bits(best_cut)), False)


def split_digraph_flow(g: LabeledGraph, s: int, t: int, cap: int) -> tuple[int, int]:
    """(flow, cut) of a max flow from non-adjacent s to t stopped at cap, on
    the split digraph held as 2n out-arc masks: in(v) = 2v -> out(v) = 2v+1,
    and out(u) -> in(v) for each edge uv.  Augmenting paths come from
    core.shortest_path.  Below cap, cut is the mask of vertices whose in-side
    core.reach finds on the residual but not their out-side; at cap it is 0.

    Vertex arcs have capacity 1, so the residual is again a digraph; edge arcs
    are uncapacitated, so a forward edge arc never leaves it and every
    minimum cut is on vertex arcs."""
    n = g.n
    res = []
    for v in range(n):
        res += [1 << (2 * v + 1), sum(1 << (2 * u) for u in g.neighbors(v))]
    full = (1 << (2 * n)) - 1
    flow = 0
    while flow < cap:
        path = shortest_path(res, 2 * s + 1, 2 * t, full)
        if path is None:
            # the residual-reachable side is the same for every maximum
            # flow, so the cut does not depend on the paths found
            seen = reach(res, 1 << (2 * s + 1), full)
            return flow, sum(1 << v for v in range(n) if v not in (s, t)
                             and seen >> (2 * v) & 1 and not seen >> (2 * v + 1) & 1)
        for a, b in zip(path, path[1:]):
            if not a & 1 or b == a - 1:  # not a forward edge arc
                res[a] &= ~(1 << b)
            res[b] |= 1 << a
        flow += 1
    return flow, 0


def twin_blowup(rng, n_base: int, p: float = 0.5, sizes=None) -> LabeledGraph:
    """G(n_base, p) with each vertex v replaced by a clique or an independent
    set of sizes[v] vertices (1-3 at random when sizes is None), in runs of
    ids; blocks of adjacent base vertices are joined completely.  Rich in
    true and false twins."""
    base = gnp(n_base, p, rng)
    blocks, n = [], 0
    for v in range(n_base):
        size = rng.randint(1, 3) if sizes is None else sizes[v]
        blocks.append(range(n, n + size))
        n += size
    edges = []
    for v, block in enumerate(blocks):
        if rng.random() < 0.5:
            edges += [(a, b) for a in block for b in block if a < b]
        for u in base.neighbors(v):
            if u < v:
                edges += [(a, b) for a in blocks[u] for b in block]
    return LabeledGraph(n, edges)


def brute_force_longest_induced_path(g: LabeledGraph) -> int:
    """Max subset size inducing a path, by scanning all subsets."""
    best = 0
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        degs = [sum(1 for u in vs if u != v and g.has_edge(u, v)) for v in vs]
        edges = sum(degs) // 2
        if edges != size - 1:
            continue
        if size == 1 or (sorted(degs)[:2] == [1, 1] and all(d <= 2 for d in degs)):
            # tree with max degree 2 and exactly two leaves = path; edge count
            # already forces a tree once connected
            seen = {vs[0]}
            stack = [vs[0]]
            while stack:
                v = stack.pop()
                for u in g.neighbors(v):
                    if u in vs and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == size:
                best = size
    return best


def longest_induced_path_by_memo(g: LabeledGraph) -> tuple[int, tuple[int, ...]]:
    """(vertex count, witness path) of a maximum induced path, trying every
    candidate of every state: a memo of (length, next vertex) per (last
    vertex, eligible set) state, taking the lowest vertex at each tie."""
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


def permutation_count_heavy_cycles(g: LabeledGraph, subset, heavy) -> int:
    """Count cycles with vertex set exactly `subset` through all `heavy` edges,
    one permutation at a time."""
    vs = sorted(subset)
    if len(vs) < 3:
        return 0
    need = {tuple(sorted(e)) for e in heavy}
    count = 0
    first = vs[0]
    for perm in itertools.permutations(vs[1:]):
        if perm[0] > perm[-1]:
            continue
        seq = (first,) + perm
        ok = True
        edges = set()
        for a, b in zip(seq, seq[1:] + seq[:1]):
            if not g.has_edge(a, b):
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok and need <= edges:
            count += 1
    return count


def brute_force_s_extendible(g: LabeledGraph, s_set):
    """Direct reading of S-extendibility over the permutation-found cyclable
    sets; returns (verdict, first failing mask)."""
    n = g.n
    cyc = permutation_cyclable_sets(g)
    for mask in sorted(cyc):
        size = mask.bit_count()
        if not any(size + s <= n for s in s_set):
            continue
        outside = [v for v in range(n) if not (mask >> v) & 1]
        ok = False
        for s in sorted(s_set):
            if size + s > n:
                continue
            for combo in itertools.combinations(outside, s):
                add = 0
                for v in combo:
                    add |= 1 << v
                if (mask | add) in cyc:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False, mask
    return True, None


def cycle_extendible_by_full_table(g: LabeledGraph) -> ExtensionVerdict:
    """Plain cycle extendibility scanned on g's own table, pastes and all:
    the failures are the cyclable cells other than V's that are not one
    vertex short of a cyclable cell, and the witness is the smallest
    representative set of one."""
    table = build_cyclable_table(g)
    if table.n < 4:  # every cyclable set is all of V
        return ExtensionVerdict(True, None)
    _, grown = _drops(table.cyc, 1, table)
    bad = table.cyc & ((1 << table.cells - 1) - 1) & ~grown
    if not bad:
        return ExtensionVerdict(True, None)
    return ExtensionVerdict(False, frozenset(table.representative(_smallest_cell(table, bad))))


def room_by_drops(table, s: int) -> int:
    """The cells with room for a jump of s: those s - 1 drop steps below some
    cell other than V's."""
    return _drops((1 << table.cells - 1) - 1, s - 1, table)[-1]


def smallest_cell_eager(table, cand: int) -> int:
    """The smallest-representative cell of `cand`, walking vertices from the
    highest down with every class's digit mask derived up front."""
    rank = {}
    for i, m in enumerate(table.classes):
        for t, v in enumerate(_bits(m)):
            rank[v] = i, t
    zeros = {i: z for i, z, *_ in _digit_masks(table.classes, table.strides)}  # digits 0..i all 0
    for v in reversed(range(table.n)):
        if not cand & (cand - 1):
            break
        i, t = rank[v]
        z = zeros[i]
        cand = cand & (z << (t + 1) * table.strides[i]) - z or cand
    return cand.bit_length() - 1


def s_extendible_by_drop_chains(g: LabeledGraph, s_set) -> ExtensionVerdict:
    """S-extendibility with the exempt cells found by drop steps: the room
    for the smallest jump is a second drop chain, from every cell but V's,
    and the witness comes from the eager walk."""
    jumps = sorted(set(s_set))
    kernel, members = _paste_kernel(g) if jumps == [1] else (g, None)
    table = build_cyclable_table(kernel)
    most = table.n - 3
    if jumps[0] > most:
        return ExtensionVerdict(True, None)
    room = room_by_drops(table, jumps[0])
    reaches = _drops(table.cyc, min(jumps[-1], most), table)
    grown = 0
    for s in jumps:
        if s < len(reaches):
            grown |= reaches[s]
    bad = table.cyc & room & ~grown
    if not bad:
        return ExtensionVerdict(True, None)
    witness = table.representative(smallest_cell_eager(table, bad))
    if members:
        witness = [v for i in witness for v in _bits(members[i])]
    return ExtensionVerdict(False, frozenset(witness))


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


def peo_violation_by_pairs(g: LabeledGraph, order) -> tuple[int, int, int] | None:
    """First (v, a, b) where a, b are later neighbours of v and a !~ b, by
    testing every pair of later neighbours with has_edge."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = sorted((u for u in g.neighbors(v) if pos[u] > pos[v]), key=pos.get)
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                if not g.has_edge(a, b):
                    return (v, a, b)
    return None


def mcs_order_by_scan(g: LabeledGraph) -> list[int]:
    """Maximum cardinality search with a weight list: each step scans every
    vertex for the unvisited one of highest weight, lowest id first."""
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


def is_peo(g: LabeledGraph, order) -> bool:
    """Is `order`, a permutation of V, a perfect elimination ordering?"""
    if sorted(order) != list(range(g.n)):
        raise GraphError("order is not a permutation of the vertex set")
    return peo_violation_by_pairs(g, order) is None


def is_simple_vertex(g: LabeledGraph, v: int) -> bool:
    """The closed neighbourhoods of the vertices of N[v] form an inclusion chain."""
    closed = [set(g.neighbors(u)) | {u} for u in [v] + g.neighbors(v)]
    return all(a <= b or b <= a for a, b in itertools.combinations(closed, 2))


def is_cyclable(g: LabeledGraph, subset=None) -> bool:
    """Does the induced subgraph on `subset` (default all of V) have a spanning cycle?"""
    return find_spanning_cycle(g, subset) is not None


def bull_by_subsets(g: LabeledGraph) -> BullResult:
    """The first 5-subset, in lexicographic order, that induces a bull.

    On 5 vertices, 5 edges with degree multiset {1,1,2,3,3} are exactly a bull,
    so the subset scan only needs degrees.
    """
    for sub in itertools.combinations(range(g.n), 5):
        degs = []
        edges = 0
        for v in sub:
            d = sum(1 for u in sub if u != v and g.has_edge(u, v))
            degs.append(d)
            edges += d
        if edges == 10 and sorted(degs) == [1, 1, 2, 3, 3]:
            return BullResult(False, sub)
    return BullResult(True, None)


def three_sun() -> LabeledGraph:
    """Hub triangle with a pendant triangle of simplicial vertices: the
    smallest chordal graph that is not strongly chordal."""
    return LabeledGraph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])


def random_chordal(n: int, rng) -> LabeledGraph:
    """Connected chordal graph: each new vertex attaches to a clique."""
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        clique = {u}
        candidates = set(adj[u])
        while candidates and rng.random() < 0.6:
            w = rng.choice(sorted(candidates))
            clique.add(w)
            candidates &= adj[w]
        for w in clique:
            edges.append((v, w))
            adj[v].add(w)
            adj[w].add(v)
    return LabeledGraph(n, edges)


def spider_model(rng, max_n: int = 13) -> tuple[SubtreeModel, LabeledGraph]:
    """A subtree model on a spider, and the graph it models.

    The host is a centre node 0 with 1-4 legs of 1-4 nodes each, so it has
    at most one branch vertex (with two legs or fewer it is a path).  Each of
    the 3..max_n graph vertices takes, with even odds, a sub-path of one leg
    or the centre plus a prefix (maybe empty) of every leg: between them
    these are all the subtrees of a spider.
    """
    legs, length = rng.randint(1, 4), rng.randint(1, 4)
    node = [[1 + i * length + j for j in range(length)] for i in range(legs)]
    host = HostTree(1 + legs * length, [(leg[j - 1] if j else 0, leg[j])
                                        for leg in node for j in range(length)])
    n, assign = rng.randint(3, max_n), {}
    for v in range(n):
        if rng.random() < 0.5:
            a, b = sorted(rng.randrange(length) for _ in range(2))
            assign[v] = frozenset(rng.choice(node)[a:b + 1])
        else:
            assign[v] = frozenset([0, *(x for leg in node for x in leg[:rng.randint(0, length)])])
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if assign[u] & assign[v]]
    return SubtreeModel(host, assign), LabeledGraph(n, edges)


def pasted_graph(rng, n_base: int, max_n: int = 12) -> LabeledGraph:
    """G(n_base, 1/2) plus cliques of 1-3 new vertices, each made complete to a
    random pair of earlier vertices (joined or not) until max_n vertices."""
    g = gnp(n_base, 0.5, rng)
    n, edges = g.n, g.edges()
    while n < max_n:
        a, b = rng.sample(range(n), 2)
        new = range(n, min(max_n, n + rng.randint(1, 3)))
        edges += [(p, q) for p in new for q in new if p < q]
        edges += [(p, e) for p in new for e in (a, b)]
        if rng.random() < 0.5:
            edges.append((a, b))
        n = new.stop
    return LabeledGraph(n, edges)


def chained_classes_graph(rng, n_base: int) -> LabeledGraph:
    """G(n_base, 0.4) plus independent classes of |E| new vertices complete to
    E+{x}, for a vertex x and two disjoint pairs E of other base vertices:
    usually two classes sharing only x (a chain), sometimes one class,
    sometimes two whose sets share a second vertex, sometimes with a stray
    edge that breaks a class."""
    g = gnp(n_base, 0.4, rng)
    n, edges = g.n, g.edges()
    x, *rest = rng.sample(range(n_base), 5)
    sets = [rest[:2], rest[2:]]
    if rng.random() < 0.2:
        sets.pop()
    elif rng.random() < 0.2:
        sets[1].append(rest[0])
    for ends in sets:
        edges += [(t, a) for t in range(n, n + len(ends)) for a in ends + [x]]
        n += len(ends)
    if rng.random() < 0.2:
        edges.append((rng.randrange(n_base, n), rng.randrange(n_base)))
    return LabeledGraph(n, edges)


# -- test-only graph helpers -----------------------------------------------------

def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise GraphError("cycle graphs need at least 3 vertices")
    return LabeledGraph(n, [(i, (i + 1) % n) for i in range(n)])


def induced(g: LabeledGraph, vertices) -> tuple[LabeledGraph, list[int]]:
    """Induced subgraph plus the list mapping new ids to old ids."""
    old = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(old)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    roles = [g.roles[v] for v in old]
    heavy = [(pos[u], pos[v]) for u, v in g.heavy_edges if u in pos and v in pos]
    return LabeledGraph(len(old), edges, roles, heavy), old


def min_degree(g: LabeledGraph) -> int:
    return min(map(g.degree, range(g.n)), default=0)


def hk_order(spec: HkSpec) -> int:
    """The vertex count of hk(spec): gk(k) has 3k+1, each clique adds s-2."""
    return 3 * spec.k + 1 + sum(s - 2 for s in spec.clique_sizes)


def same_adjacency(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Labelled equality on adjacency alone (roles and heavy edges ignored)."""
    return g.n == h.n and all(g.neighbors(v) == h.neighbors(v) for v in range(g.n))


def contract_parts(g: LabeledGraph, parts, require_connected: bool = True) -> LabeledGraph:
    """Quotient simple graph: one vertex per part, adjacent iff a cross edge exists.

    Parts must partition V(g).  By default each part must induce a connected
    subgraph; pass require_connected=False to allow quotients over independent
    parts (needed when collapsing the blow-up attachment sets).
    """
    parts = [tuple(p) for p in parts]
    owner = {}
    for i, p in enumerate(parts):
        if not p:
            raise GraphError("empty part in contraction")
        for v in p:
            if v in owner:
                raise GraphError(f"vertex {v} appears in two parts")
            owner[v] = i
    if len(owner) != g.n or any(v not in owner for v in range(g.n)):
        raise GraphError("parts do not partition the vertex set")

    if require_connected:
        for p in parts:
            mask = sum(1 << v for v in p)
            if reach(g.adjacency_masks(), mask & -mask, mask) != mask:
                raise GraphError(f"part {p} does not induce a connected subgraph")

    qedges = set()
    for u, v in g.edges():
        pu, pv = owner[u], owner[v]
        if pu != pv:
            qedges.add((min(pu, pv), max(pu, pv)))
    return LabeledGraph(len(parts), sorted(qedges))


def is_isomorphic(g: LabeledGraph, h: LabeledGraph, cap: int = 10) -> bool:
    """Backtracking isomorphism test, intended for contraction cross-checks."""
    if g.n > cap or h.n > cap:
        raise SizeCapError(f"isomorphism check capped at {cap} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False

    # match rarest-degree vertices first
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(i):
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def blowup_parts(g: LabeledGraph, k: int, include_attachments: bool = True) -> dict[str, list[int]]:
    """Named blocks of a blow-up graph (F_i, F'_i and, if present, T_i, T'_i)."""
    parts = {}
    for i in range(1, k):
        parts[f"F{i}"] = g.vertices_with_prefix(f"F{i}.")
    for i in range(1, k - 1):
        parts[f"F'{i}"] = g.vertices_with_prefix(f"F'{i}.")
    if include_attachments:
        for i in range(1, k):
            parts[f"T{i}"] = g.vertices_with_prefix(f"T{i}.")
        for i in range(1, k - 1):
            parts[f"T'{i}"] = g.vertices_with_prefix(f"T'{i}.")
    return {name: vs for name, vs in parts.items() if vs}


# -- slow twins of the family builders and the model check ------------------------

def same_labelled_graph(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Equal vertex count, edges, roles and heavy edges (in order)."""
    return (g.n, g.edges(), g.roles, g.heavy_edges) == (h.n, h.edges(), h.roles, h.heavy_edges)


def gk_by_join(k: int) -> LabeledGraph:
    """gk(k) as K_k joined to the path u1..uk z vk..v1, heavy edges by role."""
    kk = complete_graph(k, [f"x{i}" for i in range(1, k + 1)])
    path_roles = ([f"u{i}" for i in range(1, k + 1)] + ["z"]
                  + [f"v{i}" for i in range(k, 0, -1)])
    g = join(kk, path_graph(2 * k + 1, path_roles))
    heavy = [(g.vertex(a), g.vertex(b)) for a, b in heavy_edge_names(k)]
    return LabeledGraph(g.n, g.edges(), g.roles, heavy)


def paste_one_by_one(g: LabeledGraph, sizes) -> LabeledGraph:
    """One paste_clique call per heavy edge i, of order sizes[i], in order."""
    for i, size in enumerate(sizes):
        g = paste_clique(g, g.heavy_edges[i], size, edge_index=i)
    return g


def hk_by_pasting(spec: HkSpec) -> LabeledGraph:
    return paste_one_by_one(gk_by_join(spec.k), spec.clique_sizes)


def h_plus_by_pasting(spec: HkSpec) -> LabeledGraph:
    g = hk_by_pasting(spec)
    return g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])


def jk_by_pasting(k: int, clique_sizes, x_order: int) -> LabeledGraph:
    """hk plus the clique X1.. of order x_order-(k+2), joined to x1..xk, z, vk."""
    g = hk_by_pasting(HkSpec(k, tuple(clique_sizes)))
    extra = x_order - (k + 2)
    anchor = [g.vertex(r) for r in [f"x{i}" for i in range(1, k + 1)] + ["z", f"v{k}"]]
    g2 = disjoint_union(g, complete_graph(extra, [f"X{c}" for c in range(1, extra + 1)]))
    return g2.with_added_edges([(w, a) for w in range(g.n, g2.n) for a in anchor])


def verify_model_by_pairs(model: SubtreeModel, g: LabeledGraph):
    """verify_model with adjacency compared pair by pair, u < v in order:
    the two node sets meet iff uv is an edge."""
    if sorted(model.assign) != list(range(g.n)):
        return False, "assignment does not cover the vertex set"
    for v in range(g.n):
        nodes = model.assign[v]
        if not nodes:
            return False, f"vertex {v} has an empty node set"
        if any(not 0 <= x < model.host.n_nodes for x in nodes):
            return False, f"vertex {v} uses a node outside the host"
        if not model.host.subset_connected(nodes):
            return False, f"vertex {v}: assigned nodes are not a subtree"
    for u in range(g.n):
        for v in range(u + 1, g.n):
            meets = bool(model.assign[u] & model.assign[v])
            if meets != g.has_edge(u, v):
                kind = "intersect but are non-adjacent" if meets else "are adjacent but miss"
                return False, f"vertices {u},{v} {kind}"
    return True, None


def maximal_cliques_by_containment(g: LabeledGraph) -> list[tuple[int, ...]]:
    """maximal_cliques_chordal by testing each candidate {v} + L(v) of a
    perfect elimination ordering against every other for strict containment."""
    res = is_chordal(g)
    if not res:
        raise GraphError("clique trees exist only for chordal graphs")
    masks = g.adjacency_masks()
    later = (1 << g.n) - 1
    cands = set()
    for v in res.peo:
        later ^= 1 << v
        cands.add(1 << v | masks[v] & later)
    return sorted(tuple(_bits(c)) for c in cands
                  if not any(c & d == c != d for d in cands))


# -- the spanning-cycle search's front end, one bit at a time --------------------

def local_adjacency_by_positions(g: LabeledGraph, vs: list[int]) -> list[int]:
    """cycles._local_adjacency by moving each neighbour bit through a table
    of positions in the sorted list vs."""
    pos = [0] * g.n
    for i, v in enumerate(vs):
        pos[v] = i
    sub_mask = sum(1 << v for v in vs)
    adj = g.adjacency_masks()
    local_adj = []
    for v in vs:
        mask = 0
        for u in _bits(adj[v] & sub_mask):
            mask |= 1 << pos[u]
        local_adj.append(mask)
    return local_adj


def kernelize_by_vertex(adj: list[int]) -> _Kernel:
    """cycles._kernelize with each kernel row built vertex by vertex: every
    local vertex outside a segment's inner part maps to its kernel vertex
    through a table, and a row collects the kernel vertices of its members'
    neighbours one bit at a time."""
    m = len(adj)
    full = (1 << m) - 1
    closed: dict[int, int] = {}
    for v in range(m):
        nb = adj[v] | (1 << v)
        closed[nb] = closed.get(nb, 0) | (1 << v)
    pastes: dict[tuple[int, int], int] = {}
    removed = ends = 0
    for nb, p in sorted(closed.items()):
        ab = nb & ~p
        if ab.bit_count() != 2 or nb == full or p & ends or ab & removed:
            continue
        a, b = _bits(ab)
        if (a, b) not in pastes:
            pastes[a, b] = p
            removed |= p
            ends |= ab
    alive = full & ~removed
    if removed:
        adj = [adj[v] & ~removed if alive >> v & 1 else 0 for v in range(m)]
        for a, b in pastes:
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    opened: dict[int, int] = {}
    for v in _bits(alive):
        opened[adj[v]] = opened.get(adj[v], 0) | (1 << v)
    tight = [(t, a) for a, t in sorted(opened.items())
             if t.bit_count() >= 2 and a.bit_count() == t.bit_count() + 1]
    segments = []
    used = ends
    for i, (t1, a1) in enumerate(tight):
        for t2, a2 in tight[i + 1:]:
            x = a1 & a2
            w = a1 | t1 | a2 | t2
            if x.bit_count() != 1 or t1 & a2 or t2 & a1 or w & used or w == alive:
                continue
            used |= w
            segments.append((a1 & ~x, t1, x, t2, a2 & ~x))
    if not pastes and not segments:
        return _Kernel(adj, [], [1 << v for v in range(m)], m, adj, {}, [])

    members = [1 << v for v in _bits((alive & ~used) | ends)]
    plain = len(members)
    inner = 0
    for e1, t1, x, t2, e2 in segments:
        members += [e1, e2]
        inner |= t1 | x | t2
    rep = [0] * m
    for i, mem in enumerate(members):
        for v in _bits(mem):
            rep[v] = i
    kadj = []
    for i, mem in enumerate(members):
        touch = 0
        for v in _bits(mem):
            touch |= adj[v]
        nb = 0
        for u in _bits(touch & ~inner):
            nb |= 1 << rep[u]
        kadj.append(nb & ~(1 << i))
    forced = [(rep[a], rep[b]) for a, b in pastes]
    for j in range(len(segments)):
        p = plain + 2 * j
        forced.append((p, p + 1))
        kadj[p] |= 1 << (p + 1)
        kadj[p + 1] |= 1 << p
    return _Kernel(kadj, forced, members, plain, adj, pastes, segments)


def propagate_forced_by_neighbours(allowed: list[int], forced: list[int], m: int) -> bool:
    """cycles._propagate_forced by visiting each allowed neighbour u of v and
    dropping it when u has two forced edges, none of them to v."""
    changed = True
    while changed:
        changed = False
        for v in range(m):
            av = allowed[v]
            for u in _bits(av):
                if forced[u].bit_count() >= 2 and not (forced[u] >> v) & 1:
                    av &= ~(1 << u)
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
                for u in _bits(extra):
                    if not (forced[u] >> v) & 1:
                        forced[u] |= 1 << v
                changed = True
    return True
