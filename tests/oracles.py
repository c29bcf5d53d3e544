"""Brute-force oracles the exact engines are checked against, and graph
helpers only the tests use (contraction, isomorphism, labelled equality,
blow-up blocks).

Each oracle is deliberately naive (permutations, subset scans, cut
enumeration) so it shares no code path with the implementation it verifies.
"""

from __future__ import annotations

import itertools

from hendry import BullResult, ConnectivityCert, GraphError, LabeledGraph, SizeCapError, is_chordal
from hendry.core import reach, shortest_path

DEFINITIONAL_CAP = 14


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


def table_by_sweeps(g: LabeledGraph) -> tuple[bytes, bytes]:
    """(rows, cyc) of the bit-sliced anchored-path table, filled by in-place
    sweeps over every vertex in order until a sweep changes nothing."""
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
    size = max(1, (1 << n) >> 3)
    cyc_bytes = bytearray(cyc.to_bytes(size, "little"))
    for a, b in g.edges():
        pair = (1 << a) | (1 << b)
        cyc_bytes[pair >> 3] &= ~(1 << (pair & 7))
    return b"".join(row.to_bytes(size, "little") for row in ends), bytes(cyc_bytes)


def cyclable_from_ends(g: LabeledGraph, ends: list[int], mask: int) -> bool:
    """S is cyclable iff |S| >= 3 and some path end sees min(S) back."""
    anchor = (mask & -mask).bit_length() - 1
    return mask.bit_count() >= 3 and bool(ends[mask] & g.adjacency_masks()[anchor])


def cycle_from_ends(g: LabeledGraph, ends: list[int], mask: int) -> list[int]:
    """Walk back from the lowest path end that closes the cycle, always
    stepping to the lowest predecessor."""
    adj = g.adjacency_masks()
    anchor = (mask & -mask).bit_length() - 1
    end = ends[mask] & adj[anchor]
    cur = (end & -end).bit_length() - 1
    seq = [cur]
    while cur != anchor:
        mask ^= 1 << cur
        preds = ends[mask] & adj[cur]
        cur = (preds & -preds).bit_length() - 1
        seq.append(cur)
    return seq[::-1]


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
    each flow started from zero.  It shares the flow and cut code with
    `structure.vertex_connectivity`, so it checks the twin and
    common-neighbour pruning, not the max flow itself."""
    n = g.n
    if n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if all(g.degree(v) == n - 1 for v in range(n)):
        return ConnectivityCert(n - 1, None, True)
    if not g.is_connected():
        return ConnectivityCert(0, (), False)

    # Split digraph as 2n out-arc masks: in(v) = 2v -> out(v) = 2v+1, and
    # out(u) -> in(v) for each edge uv.  Vertex arcs have capacity 1, so the
    # residual is again a digraph; edge arcs are uncapacitated, so a forward
    # edge arc never leaves it and every minimum cut is on vertex arcs.
    base = []
    for v in range(n):
        base += [1 << (2 * v + 1), sum(1 << (2 * u) for u in g.neighbors(v))]
    full = (1 << (2 * n)) - 1
    best, best_cut = n, None
    for s in range(n):
        if s > best:  # Even's bound: sources 0..best cover a vertex off some minimum cut
            break
        for t in range(s + 1, n):
            if g.has_edge(s, t):
                continue
            res = list(base)
            flow = 0
            while flow < best:  # a pair that reaches best cannot improve it
                path = shortest_path(res, 2 * s + 1, 2 * t, full)
                if path is None:
                    break
                for a, b in zip(path, path[1:]):
                    if not a & 1 or b == a - 1:  # not a forward edge arc
                        res[a] &= ~(1 << b)
                    res[b] |= 1 << a
                flow += 1
            if flow < best:
                # the residual-reachable side is the same for every maximum
                # flow, so the cut does not depend on the paths found
                seen = reach(res, 1 << (2 * s + 1), full)
                best, best_cut = flow, [v for v in range(n) if v not in (s, t)
                                        and seen >> (2 * v) & 1
                                        and not seen >> (2 * v + 1) & 1]
    return ConnectivityCert(best, tuple(best_cut), False)


def twin_blowup(rng, n_base: int, p: float = 0.5) -> LabeledGraph:
    """G(n_base, p) with each vertex replaced by a clique or an independent
    set of 1-3 vertices; blocks of adjacent base vertices are joined
    completely.  Rich in true and false twins."""
    base = gnp(n_base, p, rng)
    blocks, n = [], 0
    for _ in range(n_base):
        size = rng.randint(1, 3)
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
