"""Correctness checks applied to every job's output, outside the timed region.

Each check returns a list of problems; an empty list means the output is
right.  The checks re-derive what they can without the engine under test
(cycle edges, cut separation, induced paths, elimination orders, bulls,
graph6 bytes).  Witnesses of the subset table are cross-checked with the
backtracking search, the package's other exact engine.
"""

from __future__ import annotations

from itertools import combinations

from hendry import cycles
from hendry.core import Cycle, GraphError


def graph6(n: int, edges) -> str:
    """graph6 string of a graph on n <= 62 vertices, written by the benchmark
    itself so that inputs and the check of `generate` do not use the codec
    under test."""
    if not 0 <= n <= 62:
        raise ValueError("the benchmark writes graph6 only for n <= 62")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [n] + [int("".join(map(str, bits[i:i + 6])), 2)
                    for i in range(0, len(bits), 6)]
    return "".join(chr(63 + v) for v in groups)


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def connected_after_removal(g, removed=()) -> bool:
    """Is g minus `removed` connected (and nonempty)?"""
    masks = g.adjacency_masks()
    alive = ((1 << g.n) - 1) & ~_mask(removed)
    if not alive:
        return False
    seen = alive & -alive
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= masks[bit.bit_length() - 1]
        nxt &= alive & ~seen
        seen |= nxt
        frontier = nxt
    return seen == alive


def cycle_problems(g, vertices, want=None) -> list[str]:
    """Re-validate a returned cycle against its graph (and its vertex set)."""
    try:
        Cycle(vertices).validate(g)
    except GraphError as exc:
        return [f"invalid cycle: {exc}"]
    if want is not None and set(vertices) != set(want):
        return ["cycle spans the wrong vertex set"]
    return []


def cut_problems(g, kappa, cut, want_kappa=None) -> list[str]:
    """A minimum cut must have kappa vertices and disconnect the graph; a
    complete graph has no cut and connectivity n - 1."""
    out = []
    if want_kappa is not None and kappa != want_kappa:
        out.append(f"connectivity {kappa}, expected {want_kappa}")
    if cut is None:
        complete = all(len(g.neighbors(v)) == g.n - 1 for v in range(g.n))
        if not complete or kappa != g.n - 1:
            out.append("no cut reported for a graph that is not complete")
    elif len(set(cut)) != kappa or len(cut) != kappa:
        out.append(f"cut {cut} does not have {kappa} vertices")
    elif connected_after_removal(g, cut):
        out.append(f"removing cut {cut} leaves the graph connected")
    return out


def induced_path_problems(g, path, length, want_length=None) -> list[str]:
    out = []
    if want_length is not None and length != want_length:
        out.append(f"longest induced path {length}, expected {want_length}")
    if len(path) != length or len(set(path)) != len(path):
        out.append("path witness does not match its length")
    for i, a in enumerate(path):
        for j in range(i + 1, len(path)):
            if g.has_edge(a, path[j]) != (j == i + 1):
                return out + ["path witness is not an induced path"]
    return out


def _is_permutation(g, order) -> bool:
    return sorted(order) == list(range(g.n))


def peo_problems(g, order) -> list[str]:
    """Every vertex's later neighbours must form a clique."""
    if order is None or not _is_permutation(g, order):
        return ["elimination order is not a permutation"]
    masks = g.adjacency_masks()
    later = (1 << g.n) - 1
    for v in order:
        later &= ~(1 << v)
        nb = masks[v] & later
        rest = nb
        while rest:
            bit = rest & -rest
            rest ^= bit
            if (nb & ~bit) & ~masks[bit.bit_length() - 1]:
                return [f"vertex {v}: later neighbours are not a clique"]
    return []


def simple_order_problems(g, order) -> list[str]:
    """Each vertex must be simple among itself and its successors: the closed
    neighbourhoods of its closed neighbourhood form an inclusion chain."""
    if order is None or not _is_permutation(g, order):
        return ["simple elimination order is not a permutation"]
    closed = [m | (1 << v) for v, m in enumerate(g.adjacency_masks())]
    alive = (1 << g.n) - 1
    for v in order:
        members = [u for u in range(g.n) if (closed[v] & alive) >> u & 1]
        sets = sorted((closed[u] & alive for u in members), key=int.bit_count)
        if any(a & ~b for a, b in zip(sets, sets[1:])):
            return [f"vertex {v} is not simple where the order removes it"]
        alive &= ~(1 << v)
    return []


def bull_problems(g, five) -> list[str]:
    """Five vertices inducing a triangle with two pendant horns."""
    if five is None or len(set(five)) != 5:
        return ["bull witness is not 5 distinct vertices"]
    degs = sorted(sum(g.has_edge(a, b) for b in five if b != a) for a in five)
    if degs != [1, 1, 2, 3, 3]:
        return [f"{list(five)} does not induce a bull"]
    return []


def extension_problems(g, witness, jumps=(1,)) -> list[str]:
    """Cross-check a non-extendible witness with the backtracking search: it
    must be cyclable and no superset larger by a jump in `jumps` may be."""
    witness = set(witness)
    found = cycles.find_spanning_cycle(g, witness, cap=g.n)
    if found is None:
        return ["witness is not cyclable"]
    out = cycle_problems(g, found.vertices, witness)
    outside = sorted(set(range(g.n)) - witness)
    for s in jumps:
        for extra in combinations(outside, s):
            if cycles.find_spanning_cycle(g, witness | set(extra), cap=g.n) is not None:
                out.append(f"witness extends by {list(extra)}")
    return out


def roles_except(g, dropped) -> frozenset[int]:
    """The vertex set of g minus the vertices with the given role names."""
    return frozenset(range(g.n)) - {g.vertex(r) for r in dropped}
