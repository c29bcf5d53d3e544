import itertools
import random
import signal
import time
import tracemalloc

import pytest

from hendry import (
    GraphError,
    HkSpec,
    LabeledGraph,
    SizeCapError,
    build_cyclable_table,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    complete_graph,
    cycles,
    find_heavy_cycle,
    find_spanning_cycle,
    is_cycle_extendible,
    is_fully_cycle_extendible,
    is_s_cycle_extendible,
    lift_cycle,
    path_graph,
    subset_cap,
    tree_stats,
    verify_model,
    witness_long_heavy_cycle,
)
from hendry.core import bits_of
from oracles import (
    _connected_after_removal,
    anchored_path_ends,
    brute_force_s_extendible,
    chained_classes_graph,
    containing,
    cycle_extendible_by_full_table,
    cycle_graph,
    drop_one_by_cells,
    drop_one_by_list,
    gnp,
    induced,
    is_cyclable,
    kernelize_by_vertex,
    local_adjacency_by_positions,
    pasted_graph,
    permutation_count_heavy_cycles,
    permutation_cyclable_sets,
    permutation_hamiltonian,
    propagate_forced_by_neighbours,
    random_chordal,
    relabeled,
    representative_masks,
    room_by_drops,
    s_extendible_by_drop_chains,
    spider_model,
    table_by_one_stage_fill,
    table_by_sweeps,
    table_cyclable,
    twin_blowup,
    uniform_spec,
)


def test_table_complete_graph():
    t = build_cyclable_table(complete_graph(4))
    for mask in range(16):
        assert table_cyclable(t, mask) == (mask.bit_count() >= 3)


def test_table_path_has_no_cycles():
    t = build_cyclable_table(path_graph(4))
    assert not any(table_cyclable(t, m) for m in range(16))


def test_table_matches_permutation_oracle():
    rng = random.Random(2)
    for _ in range(150):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        t = build_cyclable_table(g)
        oracle = permutation_cyclable_sets(g)
        assert {m for m in range(1 << g.n) if table_cyclable(t, m)} == oracle


def assert_twin_classes(g, t):
    """t.classes partition V(g) into twin classes, numbered by lowest member."""
    adj = g.adjacency_masks()
    assert sum(t.classes) == (1 << g.n) - 1 and sum(m.bit_count() for m in t.classes) == g.n
    lows = [m & -m for m in t.classes]
    assert lows == sorted(lows)
    for m in t.classes:
        vs = bits_of(m)
        closed = {adj[v] | 1 << v for v in vs}
        opened = {adj[v] for v in vs}
        assert len(closed) == 1 or len(opened) == 1, vs


def assert_cells_match(g, t, path_ends):
    """Every cyclable bit of t, and every row bit of the one-stage reference
    fill, against the per-mask DP read at the cell's representative set:
    path_ends(mask) has bit v iff G[mask] has a Hamiltonian path from
    min(mask) to v (the anchor alone for |mask| = 1)."""
    assert_twin_classes(g, t)
    adj = g.adjacency_masks()
    class_of = {v: e for e, m in enumerate(t.classes) for v in bits_of(m)}
    rows = [bytearray(t.cells // 8 + 1) for _ in t.classes]
    cyc = bytearray(t.cells // 8 + 1)
    reps = representative_masks(t.classes)
    assert len(reps) == t.cells
    for cell, rep in enumerate(reps):
        word = path_ends(rep)
        for v in bits_of(word):
            rows[class_of[v]][cell >> 3] |= 1 << (cell & 7)
        if rep.bit_count() >= 3 and word & adj[(rep & -rep).bit_length() - 1]:
            cyc[cell >> 3] |= 1 << (cell & 7)
    assert t.cyc == int.from_bytes(cyc, "little")
    assert table_by_one_stage_fill(g) == ([int.from_bytes(r, "little") for r in rows], t.cyc)


def assert_table_matches_path_dp(g):
    """Every cell of the table against the per-mask DP oracle."""
    assert_cells_match(g, build_cyclable_table(g), anchored_path_ends(g).__getitem__)


def test_table_matches_path_dp_oracle():
    rng = random.Random(5)
    for i in range(240):
        n = 1 + i % 10
        assert_table_matches_path_dp(gnp(n, rng.choice((0.3, 0.5, 0.7)), rng))
    assert_table_matches_path_dp(build_gk(3))
    assert_table_matches_path_dp(build_s(3))


def test_quotient_matches_per_mask_dp_on_twin_rich_graphs():
    """Cell by cell against the per-mask DP, on graphs with many twins, with
    their ids shuffled so that classes are not runs of ids."""
    rng = random.Random(29)
    graphs = [twin_blowup(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.8))) for _ in range(60)]
    graphs += [pasted_graph(rng, rng.randint(3, 6), rng.randint(8, 12)) for _ in range(20)]
    graphs += [chained_classes_graph(rng, rng.randint(5, 6)) for _ in range(20)]
    graphs = [h for g in graphs if g.n <= 13 for h in (g, relabeled(g, rng))]
    shrunk = 0
    for g in graphs:
        t = build_cyclable_table(g)
        shrunk += t.cells < 1 << g.n
        assert_cells_match(g, t, anchored_path_ends(g).__getitem__)
    assert shrunk > len(graphs) // 2


def _census_family_members(max_n: int):
    """The graphs of the census families (gk, hk, hplus, dn, s, gkm) with at
    most max_n vertices."""
    out = [build_gk(k) for k in range(3, 8)]
    for sizes in itertools.product((3, 4), repeat=5):
        out += [build_hk(HkSpec(3, sizes)), build_h_plus(HkSpec(3, sizes))]
    out += [build_dn(n) for n in range(15, max_n + 1)]
    out += [build_s(3)] + [build_gkm(k, m) for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))]
    return [g for g in out if g.n <= max_n]


def _sweep_path_ends(rows, n):
    """path_ends for assert_cells_match, read from the sweep fill's 2^n-bit rows."""
    rows = [r.to_bytes((1 << n) // 8 + 1, "little") for r in rows]

    def path_ends(mask):
        return sum(1 << v for v in bits_of(mask) if rows[v][mask >> 3] >> (mask & 7) & 1)
    return path_ends


def test_table_matches_sweep_fill():
    """The table's cyclable bits are those of the sweep fill's fixed point, on
    the census members and on twin-free and twin-rich random graphs: bit for
    bit without twins (cell c is vertex mask c), else cell by cell up to 2^15
    cells."""
    rng = random.Random(23)
    graphs = [gnp(11 + i % 6, rng.choice((0.3, 0.5, 0.7)), rng) for i in range(30)]
    graphs += [twin_blowup(rng, rng.randint(5, 8), rng.choice((0.3, 0.5, 0.8))) for _ in range(12)]
    graphs += _census_family_members(20)
    graphs += [complete_graph(n) for n in (0, 1, 2)] + [path_graph(2), LabeledGraph(2)]
    twins = 0
    for g in graphs:
        t = build_cyclable_table(g)
        ends, cyc = table_by_sweeps(g)
        if t.cells == 1 << g.n:
            assert t.cyc == cyc, g.n
        elif t.cells <= 1 << 15:
            twins += 1
            assert_cells_match(g, t, _sweep_path_ends(ends, g.n))
    assert twins >= 20, twins


def test_block_fill_matches_one_stage_fill(monkeypatch):
    """The cyclable bits against the one-stage fill, cell by cell.

    Under the split's own rule: on twin-rich graphs whose top class has 2 or
    3 members (more than one block), on mixed-radix layouts where the block
    width w is not a power of two times some lower class's period (a carry
    past w lands mid-period), and on hkm(3, 4).  Then on tables the rule
    cuts below two or more top classes (checked through _split): twin-free
    graphs on 17-20 vertices, hkm(3, 4..6) with its labels reversed so that
    the degree-2 pastes sit at the bottom, and twin-rich layouts whose top
    classes include two with several members, hk(3; 5,5,5,5,4) among them.
    Last, every split is forced on a quarter of the small graphs, down to
    blocks of one cell."""
    rng = random.Random(41)
    graphs = [twin_blowup(rng, rng.randint(3, 7), rng.choice((0.3, 0.5, 0.8))) for _ in range(80)]
    graphs = [h for g in graphs if g.n <= 16 for h in (g, relabeled(g, rng))]
    layouts = [(2, 2, 1, 1, 1), (2, 2, 1, 1, 1, 2), (3, 2, 1, 1, 2), (2, 1, 2, 1, 3), (1, 2, 2, 2)]
    for sizes in layouts:
        for _ in range(8):
            graphs.append(twin_blowup(rng, len(sizes), rng.choice((0.3, 0.5, 0.8)), sizes))
    top_twins = odd_periods = 0
    for g in graphs + [build_hkm(3, 4, (3,) * 5)]:
        t = build_cyclable_table(g)
        assert t.cyc == table_by_one_stage_fill(g)[1], g.edges()
        top_twins += t.classes and t.classes[-1].bit_count() in (2, 3)
        periods = [w * (m.bit_count() + 1) for m, w in zip(t.classes[:-1], t.strides)]
        odd_periods += any((t.strides[-1] // p) & (t.strides[-1] // p - 1) for p in periods)
    assert top_twins >= 100 and odd_periods >= 80, (top_twins, odd_periods)

    big = [gnp(n, 0.5, rng) for n in range(17, 21)]
    big += [LabeledGraph(g.n, [(g.n - 1 - a, g.n - 1 - b) for a, b in g.edges()])
            for g in (build_hkm(3, m, (3,) * 5) for m in range(4, 7))]
    big += [twin_blowup(rng, 17, p, (1,) * 15 + (2, 3)) for p in (0.3, 0.5, 0.8)]
    big.append(build_hk(HkSpec(3, (5, 5, 5, 5, 4))))
    twin_free = multi = 0
    for g in big:
        t = build_cyclable_table(g)
        k = cycles._split(t)
        assert k >= 2, (g.n, k)
        assert t.cyc == table_by_one_stage_fill(g)[1], g.edges()
        twin_free += t.cells == 1 << g.n
        multi += sum(m.bit_count() > 1 for m in t.classes[-k:]) >= 2
    assert twin_free >= 7 and multi >= 4, (twin_free, multi)

    for g in graphs[::4]:
        want, classes = table_by_one_stage_fill(g)[1], len(cycles._twin_quotient(g).classes)
        for k in range(2, classes + 1):
            monkeypatch.setattr(cycles, "_split", lambda t, k=k: k)
            assert build_cyclable_table(g).cyc == want, (k, g.edges())


def _cell_masks(sizes):
    """(z, one, top, low) of every class from the top down, built cell by cell."""
    vectors = list(itertools.product(*(range(s + 1) for s in reversed(sizes))))
    out = []
    for i in reversed(range(len(sizes))):
        d = len(sizes) - 1 - i  # class i's place in each vector
        def mask(pred):
            return sum(1 << c for c, vec in enumerate(vectors) if pred(vec))
        out.append((mask(lambda v: not any(v[d:])),
                    mask(lambda v: v[d] == 1 and not any(v[d + 1:])),
                    mask(lambda v: v[d] == sizes[i] and not any(v[d + 1:])),
                    mask(lambda v: not any(v[d + 1:]))))
    return out


def _layout(sizes):
    """An empty table whose classes are runs of consecutive ids of the given sizes."""
    classes, v = [], 0
    for size in sizes:
        classes.append(((1 << size) - 1) << v)
        v += size
    return cycles.CyclableTable(v, classes)


def test_derived_masks_match_byte_patterns():
    # without twins, z of vertex i is the subsets that miss 0..i, from the
    # byte patterns; with classes, every mask is checked cell by cell
    for n in range(13):
        full, union, z = (1 << (1 << n)) - 1, 0, []
        for i in range(n):
            union |= containing(n, i)
            z.append(full & ~union)
        t = _layout([1] * n)
        got = [(i, z_i) for i, z_i, _, _, _ in cycles._digit_masks(t.classes, t.strides)]
        assert got == [(i, z[i]) for i in reversed(range(n))]
    rng = random.Random(3)
    for sizes in [[rng.randint(1, 4) for _ in range(rng.randint(1, 6))] for _ in range(40)]:
        t = _layout(sizes)
        got = [masks[1:] for masks in cycles._digit_masks(t.classes, t.strides)]
        assert got == _cell_masks(sizes), sizes
    for n in range(13):
        # K_n is one class of true twins: a path from the anchor ends at
        # another member, or is the anchor alone; n + 1 cells
        g = complete_graph(n)
        t = build_cyclable_table(g)
        assert t.cells == n + 1 and len(t.classes) == min(n, 1)
        assert_cells_match(g, t, anchored_path_ends(g).__getitem__)
        assert t.cyc == sum(1 << c for c in range(3, n + 1))


def test_streamed_drop_matches_mask_list():
    # without twins, against the drop by the list of "contains v" masks; with
    # classes, against the drop by decoded count vectors
    rng = random.Random(17)
    for n in range(13):
        has = [containing(n, v) for v in range(n)]
        xs = [sum(1 << s for s in range(1 << n) if rng.random() < density)
              for density in (0.05, 0.5, 0.95, 1.0)]
        for x in xs:
            assert cycles._drops(x, 1, _layout([1] * n))[1] == drop_one_by_list(x, has)
    for sizes in [[rng.randint(1, 4) for _ in range(rng.randint(1, 5))] for _ in range(30)]:
        t = _layout(sizes)
        xs = [sum(1 << c for c in range(t.cells) if rng.random() < density)
              for density in (0.05, 0.5, 1.0)]
        steps = [rng.randint(0, 4) for _ in xs]
        for x, m in zip(xs, steps):
            want = [x]
            for _ in range(m):
                want.append(drop_one_by_cells(want[-1], sizes))
            assert cycles._drops(x, m, t) == want, sizes


def test_crowded_cells_are_the_rooms_complement():
    # the cells fewer than s vertices short of V, built in one pass, are
    # exactly those the drop chain from every cell but V's leaves out
    rng = random.Random(29)
    layouts = [[1] * n for n in range(4, 11)] + [[4] * 3, [1, 2, 3, 4]]
    layouts += [[rng.randint(1, 4) for _ in range(rng.randint(2, 6))] for _ in range(40)]
    checked = 0
    for sizes in layouts:
        t = _layout(sizes)
        for s in range(1, t.n - 2):
            room = room_by_drops(t, s)
            assert cycles._crowded(t, s) == ((1 << t.cells) - 1) ^ room, (sizes, s)
            checked += 1
    assert checked > 150, checked


def test_smallest_cell_builds_no_mask_for_one_cell():
    """hkm(3, 4)'s {2, 3}-scan leaves one failing cell; picking it must not
    allocate a single 2^n-bit int, where a digit mask for every class took
    one each."""
    g = build_hkm(3, 4, (3,) * 5)
    t = build_cyclable_table(g)
    reaches = cycles._drops(t.cyc, 3, t)
    bad = t.cyc & room_by_drops(t, 2) & ~(reaches[2] | reaches[3])
    assert bad.bit_count() == 1
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cell = cycles._smallest_cell(t, bad)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert 1 << cell == bad
    assert peak < (1 << g.n) // 8, peak


def test_extendibility_peak_memory_holds_no_mask_list():
    """A table build and a scan each stay within their own count of ints a
    table wide (units of one bit per cell).

    The fill holds the cyclable bytes and the int made from them, the ORs
    that blocks pass on (under one unit: top class e has at most unit_e of
    them pending), and per block three ints per class (its grow and anchor
    masks and its row) and a few temporaries, each 1/blocks of a unit.  The
    scan holds the table's bits, one int per drop step and seven more: the
    masks of one class and the temporaries of one step.  No full-width row
    is built, and no list of n subset masks sits beside the table.  hkm(3,
    4) is split below four top classes and pastes only triangles, so its
    {1}-scan runs on its own table, as its {2, 3}-scan does; hplus(3;
    3,3,3,4,5) has twins and is split below its top class alone."""
    cases = [(build_h_plus(HkSpec(3, (3, 3, 3, 4, 5))), (1,)),
             (build_hkm(3, 4, (3,) * 5), (1,)),
             (build_hkm(3, 4, (3,) * 5), (2, 3))]
    started = not tracemalloc.is_tracing()
    tracemalloc.start()

    def peak(run):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - base
    try:
        for g, s_set in cases:
            t, fill = peak(lambda: build_cyclable_table(g))
            blocks, unit = t.cells // t.strides[-cycles._split(t)], t.cells // 8
            assert fill <= (3 + (3 * len(t.classes) + 6) / blocks) * unit, (g.n, fill / unit)
            t, unit = None, (1 << g.n) // 8
            verdict, scan = peak(lambda: is_s_cycle_extendible(g, s_set))
            assert not verdict.extendible
            assert scan <= (max(s_set) + 8) * unit, (g.n, scan / unit)
    finally:
        if started:
            tracemalloc.stop()


def test_s_extendibility_large_jumps_match_brute_force():
    # jumps past n extend nothing; they must neither change the verdict nor
    # cost more than n drop steps
    rng = random.Random(17)
    for _ in range(60):
        g = gnp(rng.randint(3, 8), 0.55, rng)
        for s_set in ({1, g.n}, {g.n + 5}, {1, 10**9}):
            want_ok, want_wit = brute_force_s_extendible(g, s_set)
            got = is_s_cycle_extendible(g, s_set)
            assert got.extendible == want_ok
            if not want_ok:
                assert sum(1 << v for v in got.witness) == want_wit


def test_backtracker_matches_table():
    rng = random.Random(4)
    for _ in range(40):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        t = build_cyclable_table(g)
        for mask in range(1 << g.n):
            vs = [v for v in range(g.n) if (mask >> v) & 1]
            assert is_cyclable(g, vs) == table_cyclable(t, mask)


def test_gk_targeted_sets():
    # the 8- and 9-vertex deletions of the base graph, against permutations
    g = build_gk(3)
    t = build_cyclable_table(g)
    allv = set(range(g.n))
    z, v3 = g.vertex("z"), g.vertex("v3")
    for drop in ({z, v3}, {z}, {v3}):
        sub, _ = induced(g, sorted(allv - drop))
        assert table_cyclable(t, allv - drop) == permutation_hamiltonian(sub)
        assert is_cyclable(g, allv - drop) == permutation_hamiltonian(sub)
    assert table_cyclable(t, allv - {z, v3})


def test_hamiltonian_cycle_certificates():
    h = build_hk(uniform_spec(3))
    c = find_spanning_cycle(h)
    assert c is not None and c.vertex_set == frozenset(range(h.n))
    s = build_s(3)
    c = find_spanning_cycle(s)
    assert c is not None and len(c) == 16
    assert find_spanning_cycle(path_graph(5)) is None
    # every edge of C_n is forced: the search follows them to the tour
    for n in range(3, 15):
        cn = cycle_graph(n)
        c = find_spanning_cycle(cn)
        assert c is not None and c.validate(cn).vertex_set == frozenset(range(n))


def test_subdivided_and_center_pasted_families_hamiltonian():
    assert is_cyclable(build_hkm(3, 3, (3,) * 5))
    assert is_cyclable(build_jk(3, (3,) * 5, 6))


def test_search_cycles_for_cyclable_sets():
    # the first 200 cyclable sets of the table each get a validated spanning cycle
    g = build_hk(uniform_spec(3))
    t = build_cyclable_table(g)
    reps = representative_masks(t.classes)
    masks = [reps[cell] for cell in bits_of(t.cyc)[:200]]
    assert len(masks) == 200
    for mask in masks:
        vs = frozenset(bits_of(mask))
        c = find_spanning_cycle(g, vs)
        assert c is not None and c.vertex_set == vs


def test_table_queries_reject_out_of_range_ids():
    t4, t2 = build_cyclable_table(complete_graph(4)), build_cyclable_table(complete_graph(2))
    for t, bad in ((t4, {0, 1, 9}), (t4, {0, 1, -1}), (t4, 0b10111), (t4, -1),
                   (t2, {0, 1, 2}), (t2, 0b111)):
        with pytest.raises(GraphError):
            table_cyclable(t, bad)
    assert table_cyclable(t4, {0, 1, 3}) and table_cyclable(t4, 0b1111)
    assert not table_cyclable(t2, {0, 1})


def _no_vertex_extends(g, subset):
    return all(find_spanning_cycle(g, set(subset) | {v}) is None
               for v in range(g.n) if v not in subset)


def test_hk_witness_has_no_extension():
    h = build_hk(uniform_spec(3))
    t = build_cyclable_table(h)
    frozen = frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}
    assert table_cyclable(t, frozen)
    assert _no_vertex_extends(h, frozen)


def test_jk_lifted_long_cycle_has_no_extension():
    j = build_jk(3, (3,) * 5, 6)
    lifted = lift_cycle(witness_long_heavy_cycle(3), j)
    assert find_spanning_cycle(j, lifted.vertex_set) is not None
    assert _no_vertex_extends(j, lifted.vertex_set)


def test_targeted_extension_emptiness_k3_to_5():
    # the frozen two-short set never extends, checked without a full table
    for k in (3, 4, 5):
        h = build_hk(uniform_spec(k))
        frozen = set(range(h.n)) - {h.vertex("z"), h.vertex(f"v{k}")}
        assert find_spanning_cycle(h, frozen) is not None
        for v in (h.vertex("z"), h.vertex(f"v{k}")):
            assert find_spanning_cycle(h, frozen | {v}) is None


def test_is_cycle_extendible_examples():
    assert is_cycle_extendible(complete_graph(6)).extendible
    h = build_hk(uniform_spec(3))
    verdict = is_cycle_extendible(h)
    assert not verdict.extendible
    assert verdict.witness == frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}


def test_hamiltonian_spider_intersection_graphs_are_cycle_extendible():
    """A published theorem as the table scan's oracle: Hamiltonian
    intersection graphs of subtrees of a spider (a tree with at most one
    branch vertex) are cycle extendible (Abueida, Busch and Sritharan,
    "Hamiltonian spider intersection graphs are cycle extendable", SIAM J.
    Discrete Math., 2013).  500 seeded models, each checked by verify_model;
    about 280 of their graphs (n <= 13) are Hamiltonian, on path hosts and
    on spiders with a branch vertex alike, and each must extend."""
    rng = random.Random(2013)
    hamiltonian = [0, 0]  # by the host's branch vertices
    for _ in range(500):
        model, g = spider_model(rng)
        assert verify_model(model, g) == (True, None)
        branch = tree_stats(model.host)[1]
        assert branch <= 1
        if find_spanning_cycle(g) is not None:
            hamiltonian[branch] += 1
            verdict = is_cycle_extendible(g)
            assert verdict.extendible, (model.host.edges, model.assign, verdict.witness)
    assert min(hamiltonian) >= 100, hamiltonian


def test_every_n_from_15_is_decided_on_the_paste_kernel():
    """The paper's "every n >= 15" statements at scale: hk(3; s^5) for
    s = 3..9 (up to 45 vertices; from s = 8 on, the graph's own table is
    past the cap) and dn(n) for n = 15..60 each fail to extend at exactly
    V - {z, v3}, all within 1 s (about 0.07 s on a 2-core VM with Python
    3.11)."""
    graphs = [build_hk(HkSpec(3, (s,) * 5)) for s in range(3, 10)]
    graphs += [build_dn(n) for n in range(15, 61)]
    t0 = time.perf_counter()
    verdicts = [is_cycle_extendible(g) for g in graphs]
    assert time.perf_counter() - t0 < 1.0
    for g, verdict in zip(graphs, verdicts):
        assert verdict.witness == frozenset(range(g.n)) - {g.vertex("z"), g.vertex("v3")}, g.n


def test_witnesses_revalidate():
    h = build_hk(uniform_spec(3))
    verdict = is_cycle_extendible(h)
    assert is_cyclable(h, verdict.witness)
    assert all(not is_cyclable(h, set(verdict.witness) | {v})
               for v in range(h.n) if v not in verdict.witness)


def test_fully_cycle_extendible():
    assert is_fully_cycle_extendible(complete_graph(4))
    assert is_fully_cycle_extendible(cycle_graph(3))
    assert not is_fully_cycle_extendible(build_hendry_exception(2, 5))
    # a vertex off every triangle fails the triangle condition alone
    assert not is_fully_cycle_extendible(build_hendry_exception(1, 7))


def test_s_extendibility_singleton_matches_plain():
    rng = random.Random(9)
    for _ in range(80):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        assert is_s_cycle_extendible(g, {1}).extendible == \
            is_cycle_extendible(g).extendible


def test_s_extendibility_examples():
    assert is_s_cycle_extendible(complete_graph(6), {1, 2}).extendible
    h = build_hkm(3, 3, (3,) * 5)
    verdict = is_s_cycle_extendible(h, {1, 2})
    assert not verdict.extendible
    omitted = set(range(h.n)) - verdict.witness
    assert omitted == {h.vertex("z"), h.vertex("v3"), h.vertex("v4"),
                       h.vertex("v5"), h.vertex("v6")}
    assert is_cyclable(h, verdict.witness)


def test_hk_two_jump_extendibility():
    # the frozen set repairs only by adding both z and vk at once
    h = build_hk(uniform_spec(3))
    t = build_cyclable_table(h)
    frozen = frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}
    assert table_cyclable(t, frozen | {h.vertex("z"), h.vertex("v3")})
    verdict = is_s_cycle_extendible(h, {2})
    assert verdict.extendible


def test_s_extendibility_matches_brute_force():
    rng = random.Random(77)
    for _ in range(120):
        g = gnp(rng.randint(3, 8), 0.5, rng)
        s_set = set(rng.sample([1, 2, 3], rng.randint(1, 2)))
        want_ok, want_wit = brute_force_s_extendible(g, s_set)
        got = is_s_cycle_extendible(g, s_set)
        assert got.extendible == want_ok
        if not want_ok:
            got_mask = sum(1 << v for v in got.witness)
            assert got_mask == want_wit  # same lex-first witness


def test_s_extendibility_witnesses_on_twin_rich_graphs():
    """Verdicts and the numerically smallest witness against brute force, on
    twin blow-ups and pasted graphs whose ids are shuffled, so that the
    smallest representative is not always the lowest failing cell."""
    rng = random.Random(78)
    failed = 0
    for i in range(90):
        g = twin_blowup(rng, rng.randint(2, 5), rng.choice((0.4, 0.6, 0.8))) if i % 3 else \
            pasted_graph(rng, 4, 8)
        if g.n > 8:
            continue
        g = relabeled(g, rng)
        for s_set in ({1}, {1, 2}, {2, 3}, {1, 3}):
            want_ok, want_wit = brute_force_s_extendible(g, s_set)
            got = is_s_cycle_extendible(g, s_set)
            assert got.extendible == want_ok
            if not want_ok:
                failed += 1
                assert sum(1 << v for v in got.witness) == want_wit
    assert failed >= 50, failed


def test_s_extendibility_matches_the_drop_chain_scan():
    """Verdict and exact witness against the scan that finds the room for the
    smallest jump by drop steps and walks from every class's digit mask, on
    twin-free and twin-rich graphs (ids shuffled) and family members."""
    rng = random.Random(2910)
    graphs = [gnp(rng.randint(4, 11), rng.choice((0.5, 0.7)), rng) for _ in range(40)]
    graphs += [random_chordal(rng.randint(5, 12), rng) for _ in range(20)]
    graphs += [relabeled(twin_blowup(rng, rng.randint(3, 5), rng.choice((0.5, 0.8))), rng)
               for _ in range(30)]
    graphs += [relabeled(pasted_graph(rng, rng.randint(3, 5), 11), rng) for _ in range(20)]
    graphs += [build_hk(uniform_spec(3)), build_h_plus(HkSpec(3, (3, 3, 3, 4, 5))),
               *(build_hkm(3, m, (3,) * 5) for m in (2, 3, 4))]
    failed = 0
    for g in graphs:
        for s_set in ({1}, {2}, {3}, {1, 2}, {2, 3}, {2, 4}, {3, 5}):
            got, want = is_s_cycle_extendible(g, s_set), s_extendible_by_drop_chains(g, s_set)
            assert (got.extendible, got.witness) == (want.extendible, want.witness), (g.edges(), s_set)
            failed += not got.extendible
    assert failed >= 150, failed


def test_jk_full_table_has_unique_frozen_set():
    j = build_jk(3, (3,) * 5, 6)
    verdict = is_cycle_extendible(j)
    lifted = lift_cycle(witness_long_heavy_cycle(3), j)
    assert not verdict.extendible
    assert verdict.witness == lifted.vertex_set


def _multi_pasted(rng, n_base: int, pastes: int) -> LabeledGraph:
    """G(n_base, 1/2) with `pastes` cliques of 1-3 new vertices, each complete
    to a pair a, b of base vertices, joined or not; a later clique reuses an
    earlier pair half the time, so one pair can carry two pastes."""
    g = gnp(n_base, 0.5, rng)
    n, edges, pairs = g.n, g.edges(), []
    for _ in range(pastes):
        a, b = rng.choice(pairs) if pairs and rng.random() < 0.5 else rng.sample(range(n_base), 2)
        pairs.append((a, b))
        new = range(n, n + rng.randint(1, 3))
        edges += [(p, q) for p in new for q in new if p < q]
        edges += [(p, e) for p in new for e in (a, b)]
        if rng.random() < 0.7:
            edges.append((a, b))
        n = new.stop
    return LabeledGraph(n, sorted(set(edges)))


def _low_paste(rng, n_base: int) -> LabeledGraph:
    """G(n_base, 1/2) on ids r.., with a clique P = {0..r-1} (r = 2 or 3)
    complete to the two lowest base vertices a = r and b = r+1, mostly left
    non-adjacent: P+{a,b} is then the lowest set that P can make cyclable."""
    r = rng.randint(2, 3)
    g = gnp(n_base, 0.5, rng)
    edges = [(u + r, v + r) for u, v in g.edges() if (u, v) != (0, 1) or rng.random() < 0.3]
    edges += [(p, q) for p in range(r) for q in range(p + 1, r + 2)]
    return LabeledGraph(n_base + r, edges)


def test_paste_kernel_scan_matches_the_full_table():
    """is_cycle_extendible decides on the paste kernel; its verdict and exact
    witness must be those of g's own table, and of brute force for n <= 8,
    before and after the ids are shuffled (so that the kept member, the
    highest of its paste, is not always the end of a run)."""
    rng = random.Random(2025)
    sizes = rng.sample([s for s in itertools.product((3, 4, 5), repeat=5) if sum(s) <= 21], 20)
    graphs = [build(HkSpec(3, s)) for s in sizes for build in (build_hk, build_h_plus)]
    graphs += [build_dn(n) for n in range(15, 25)]
    graphs += [build_jk(3, (3,) * 5, 6), build_jk(3, (4, 3, 3, 4, 3), 7)]
    graphs += [build_hkm(3, m, (4,) * 5) for m in (1, 2)]
    graphs += [build_hendry_exception(which, n) for which in (1, 3) for n in (5, 6, 8, 10)]
    graphs += [build_hendry_exception(2, 5)]
    graphs += [_multi_pasted(rng, rng.randint(3, 7), rng.randint(1, 3)) for _ in range(150)]
    graphs += [pasted_graph(rng, rng.randint(3, 6), 10) for _ in range(60)]
    graphs += [_low_paste(rng, rng.randint(3, 7)) for _ in range(80)]
    graphs += [random_chordal(rng.randint(4, 14), rng) for _ in range(60)]
    graphs += [relabeled(g, rng) for g in graphs]
    reduced = failed = brute = 0
    for g in graphs:
        got, want = is_cycle_extendible(g), cycle_extendible_by_full_table(g)
        assert (got.extendible, got.witness) == (want.extendible, want.witness), g.edges()
        if g.n <= 8:
            ok, mask = brute_force_s_extendible(g, {1})
            assert got.extendible == ok and (ok or sum(1 << v for v in got.witness) == mask)
            brute += 1
        reduced += cycles._paste_kernel(g)[1] is not None
        failed += not got.extendible
    assert reduced > 300 and failed > 500 and brute > 150, (reduced, failed, brute)


def test_s_extendibility_errors():
    with pytest.raises(GraphError):
        is_s_cycle_extendible(complete_graph(4), set())
    with pytest.raises(GraphError):
        is_s_cycle_extendible(complete_graph(4), {0, 1})


def test_cyclable_sets_are_two_connected():
    # spot check: a subset with a spanning cycle can never have a cut vertex
    from hendry import vertex_connectivity
    rng = random.Random(55)
    for _ in range(30):
        g = gnp(rng.randint(4, 7), 0.5, rng)
        t = build_cyclable_table(g)
        reps = representative_masks(t.classes)
        for cell in bits_of(t.cyc):
            vs = bits_of(reps[cell])
            sub, _ = induced(g, vs)
            assert len(vs) >= 3
            assert vertex_connectivity(sub).kappa >= 2


def test_complete_bipartite_balanced_is_hamiltonian():
    # twin-heavy graphs with tight attachment capacity: the balanced ones are
    # Hamiltonian, the unbalanced ones are not
    def kab(a, b):
        return LabeledGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    assert is_cyclable(kab(3, 3))
    assert is_cyclable(kab(4, 4))
    assert not is_cyclable(kab(2, 3))
    assert not is_cyclable(kab(3, 5))
    assert find_spanning_cycle(kab(3, 3)) is not None


def test_backtracker_on_twin_rich_graphs():
    # bipartite-ish graphs exercise the shared-neighborhood capacity prune
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(4, 9)
        a = rng.randint(1, n - 1)
        edges = [(i, j) for i in range(a) for j in range(a, n)
                 if rng.random() < 0.8]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.12:
                    edges.append((i, j))
        g = LabeledGraph(n, edges)
        assert is_cyclable(g) == permutation_hamiltonian(g)
    # two cycles with chords sharing one vertex, a cut vertex the search must
    # catch; half of them get an edge across that may make them Hamiltonian
    for _ in range(100):
        a = rng.randint(3, 5)
        n = a + rng.randint(2, 8 - a)
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, a - 1), (a - 1, n - 1)]
        edges += [(i, j) for i in range(a) for j in range(i + 2, a) if rng.random() < 0.5]
        edges += [(i, j) for i in range(a - 1, n) for j in range(i + 2, n)
                  if rng.random() < 0.5]
        if rng.random() < 0.5:
            edges.append((rng.randrange(a - 1), rng.randrange(a, n)))
        g = LabeledGraph(n, edges)
        assert is_cyclable(g) == permutation_hamiltonian(g)


def test_monotone_under_edge_addition():
    rng = random.Random(13)
    for _ in range(40):
        g = gnp(rng.randint(3, 7), 0.4, rng)
        non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if not g.has_edge(i, j)]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        g2 = g.with_added_edges([extra])
        t1, t2 = build_cyclable_table(g), build_cyclable_table(g2)
        for mask in range(1 << g.n):
            if table_cyclable(t1, mask):
                assert table_cyclable(t2, mask)


def test_heavy_cycles_examples():
    g = build_gk(3)
    allv = set(range(g.n))
    wit = find_heavy_cycle(g, allv)
    assert wit is not None and wit.vertex_set == allv
    assert all(e in wit.edge_set() for e in g.heavy_edges)
    assert find_heavy_cycle(g, allv - {g.vertex("z")}) is None
    assert find_heavy_cycle(g, allv - {g.vertex("v3")}) is None
    gp = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
    assert find_heavy_cycle(gp, allv - {gp.vertex("z")}) is None
    assert find_heavy_cycle(gp, allv - {gp.vertex("v3")}) is None


def test_heavy_counts_match_permutation_oracle():
    # a heavy cycle exists iff the permutation oracle counts at least one
    rng = random.Random(31)
    for _ in range(250):
        n = rng.randint(3, 8)
        g0 = gnp(n, 0.6, rng)
        if g0.edge_count < 2:
            continue
        edges = g0.edges()
        heavy = rng.sample(edges, min(len(edges), rng.randint(1, 3)))
        g = LabeledGraph(n, edges, heavy_edges=heavy)
        subset = {v for v in range(n) if rng.random() < 0.85}
        if all(a in subset and b in subset for a, b in heavy):
            want = permutation_count_heavy_cycles(g, subset, heavy)
        else:
            want = 0
        wit = find_heavy_cycle(g, subset)
        assert (wit is not None) == (want > 0)
        if wit is not None:
            assert wit.vertex_set == subset
            assert all(tuple(sorted(e)) in wit.edge_set() for e in heavy)


def test_heavy_cycles_endpoint_outside_subset():
    g = build_gk(3)
    assert find_heavy_cycle(g, set(range(g.n)) - {g.vertex("x1")}) is None


def test_heavy_cycles_requires_heavy_edges():
    with pytest.raises(GraphError):
        find_heavy_cycle(complete_graph(4), {0, 1, 2, 3})


def test_heavy_cycles_reject_out_of_range_ids():
    g = build_gk(3)
    for bad in ({0, 1, 999}, {-5, 0}):
        with pytest.raises(GraphError):
            find_heavy_cycle(g, bad)
    # the cap still applies only once every heavy edge is inside the set
    g14 = build_gk(14)
    assert find_heavy_cycle(g14, set(range(g14.n)) - {g14.vertex("x1")}) is None


def test_heavy_count_exact_small():
    # triangle with one heavy edge: the one cycle through it
    g = LabeledGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)],
                     heavy_edges=[(0, 2)])
    wit = find_heavy_cycle(g, {0, 1, 2})
    assert wit is not None and wit.vertex_set == {0, 1, 2}
    assert find_heavy_cycle(g, {0, 1, 2, 3}) is None  # no 4-cycle through the chord 0-2
    # heavy edges forming a whole 5-cycle of K5 leave exactly that cycle
    ring = [(i, (i + 1) % 5) for i in range(5)]
    g = LabeledGraph(5, complete_graph(5).edges(), heavy_edges=ring)
    wit = find_heavy_cycle(g, range(5))
    assert wit is not None and wit.edge_set() == {tuple(sorted(e)) for e in ring}


def test_size_caps():
    big = complete_graph(41)
    with pytest.raises(SizeCapError, match="2199023255552 cells"):  # P_41 has no twins
        build_cyclable_table(path_graph(41))
    with pytest.raises(SizeCapError):
        is_cyclable(big)
    with pytest.raises(SizeCapError):
        find_heavy_cycle(build_gk(14), range(43))


def test_search_cap_bounds_the_kernel():
    # s(5) has 62 vertices and a 17-vertex kernel, so the default cap admits
    # it; gk(14) has no twins and no rule fires, so its kernel keeps 43
    s5 = build_s(5)
    c = find_spanning_cycle(s5)
    assert c is not None and c.validate(s5).vertex_set == frozenset(range(s5.n))
    with pytest.raises(SizeCapError, match="capped at 40 kernel vertices, got 43"):
        find_spanning_cycle(build_gk(14))


def test_subset_cap_env(monkeypatch):
    monkeypatch.setenv("HENDRY_SUBSET_CAP", "10")
    assert subset_cap() == 10
    with pytest.raises(SizeCapError):
        build_cyclable_table(path_graph(11))  # 2^11 cells
    assert build_cyclable_table(path_graph(10)).cells == 1 << 10
    assert build_cyclable_table(complete_graph(60)).cells == 61  # one class
    monkeypatch.setenv("HENDRY_SUBSET_CAP", "99")
    assert subset_cap() == 26
    monkeypatch.setenv("HENDRY_SUBSET_CAP", "zzz")
    with pytest.raises(GraphError):
        subset_cap()


def test_blowup_case_split():
    # the two-short set always works; one-short repairs exist only at the
    # z side of the smallest blow-up (its contraction lands in the k=2 base,
    # where the heavy 6-cycle avoiding z exists)
    s3 = build_s(3)
    allv = set(range(s3.n))
    z, vk = s3.vertex("z"), s3.vertex("v3")
    assert is_cyclable(s3, allv - {z, vk})
    assert is_cyclable(s3, allv - {z})
    assert not is_cyclable(s3, allv - {vk})
    assert is_cycle_extendible(s3).extendible

    s4 = build_s(4)
    allv = set(range(s4.n))
    z, vk = s4.vertex("z"), s4.vertex("v4")
    assert find_spanning_cycle(s4, allv - {z, vk}) is not None
    assert find_spanning_cycle(s4, allv - {z}) is None
    assert find_spanning_cycle(s4, allv - {vk}) is None


# -- kernel: forced segments contracted before the search ----------------------

@pytest.fixture
def reductions(monkeypatch):
    """How many searches each kernel rule shrank."""
    fired = {"paste": 0, "segment": 0}
    kernelize = cycles._kernelize

    def counted(adj):
        kernel = kernelize(adj)
        fired["paste"] += bool(kernel.pastes)
        fired["segment"] += bool(kernel.segments)
        return kernel
    monkeypatch.setattr(cycles, "_kernelize", counted)
    return fired


def assert_search_matches_table(g):
    """find_spanning_cycle against the subset table on every subset of V(g)."""
    t = build_cyclable_table(g)
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        c = find_spanning_cycle(g, vs)
        assert (c is not None) == table_cyclable(t, mask), vs
        if c is not None:
            assert c.validate(g).vertex_set == frozenset(vs)


def test_kernel_matches_table_on_every_s3_subset(reductions):
    assert_search_matches_table(build_s(3))
    assert reductions["segment"] > 0


def test_kernel_matches_table_on_pasted_graphs(reductions):
    rng = random.Random(61)
    for _ in range(8):
        assert_search_matches_table(pasted_graph(rng, rng.randint(4, 6)))
    assert reductions["paste"] > 0


def test_kernel_matches_table_on_chained_tight_classes(reductions):
    rng = random.Random(62)
    for _ in range(30):
        assert_search_matches_table(chained_classes_graph(rng, rng.randint(6, 7)))
    assert reductions["segment"] > 0


def _roles(g, names):
    return [g.vertex(nm) for nm in names.split()]


def test_kernel_regressions():
    s3 = build_s(3)
    t = build_cyclable_table(s3)
    # lone tight classes: contracting each to one vertex whose ends are drawn
    # from one set would claim a cycle here
    lone = _roles(s3, "x1 x2 F1.1 F2.1 F2.2 F'1.1 F'1.2 T2.1 T2.2 T'1.1 T'1.2")
    assert not table_cyclable(t, lone)
    assert find_spanning_cycle(s3, lone) is None
    # the only tight class is {z, F2.1} on {x1, x2, F2.2}: a lone class
    small = _roles(s3, "x1 x2 F2.1 F2.2 z T1.1")
    assert (find_spanning_cycle(s3, small) is not None) == table_cyclable(t, small)

    # the whole set is one segment: no rule may contract it
    k32 = LabeledGraph(5, [(a, b) for a in range(3) for b in (3, 4)])
    assert find_spanning_cycle(k32) is None
    # {2, 3} sees all of V; {0} and {1} are each pasted on {2, 3}, and
    # contracting both would leave two vertices
    k4_minus = LabeledGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_spanning_cycle(k4_minus) is not None
    # degree-2 vertices 0 and 1 force the triangle 0-1-2, closed short of the
    # K5 on 3..7 that 2 also sees
    tri = LabeledGraph(8, [(0, 1), (1, 2), (0, 2)] + [(2, a) for a in (3, 4, 5)]
                       + [(a, b) for a in range(3, 8) for b in range(a + 1, 8)])
    assert find_spanning_cycle(tri) is None
    # two tight classes on {0,1,x} and {2,3,x} (x = 4) chain into all of V
    chain = LabeledGraph(9, [(t, a) for t in (5, 6) for a in (0, 1, 4)]
                         + [(t, a) for t in (7, 8) for a in (2, 3, 4)] + [(0, 2)])
    c = find_spanning_cycle(chain)
    assert c is not None and c.vertex_set == frozenset(range(9))


def test_kernel_contracts_pasted_blowups_fast():
    # every size vector reduces to gk(4): both one-short sets answer at once
    h = build_hk(HkSpec(4, (5,) * 7))
    allv = set(range(h.n))
    for v in (h.vertex("z"), h.vertex("v4")):
        t0 = time.perf_counter()
        assert find_spanning_cycle(h, allv - {v}) is None
        assert time.perf_counter() - t0 < 0.1


def test_kernel_without_rules_is_the_graph():
    # gk(5) has no pasted clique and no chained tight classes: the kernel is
    # the local adjacency itself, with one vertex per member and no pair forced
    adj = list(build_gk(5).adjacency_masks())
    kernel = cycles._kernelize(adj)
    assert kernel.adj is adj and kernel.forced == []
    assert kernel.members == [1 << v for v in range(len(adj))]
    tour = cycles._spanning_cycle_search(kernel.adj, kernel.forced)
    assert tour is not None and kernel.lift(tour) == tour


# a random chordal graph (bench/workloads.random_chordal, seed 5, #176) whose
# spanning-cycle search ran for over 20 s before the search tested for a cut
# vertex; vertex 6 is one
CUT_AT_6 = {
    0: (2, 3, 16, 20, 21), 1: (2, 3, 6, 7, 8, 11, 13, 14, 16, 18, 20, 21, 23),
    2: (3, 7, 8, 11, 13, 14, 16, 18, 20, 21, 23), 3: (11, 16, 18, 20, 21, 23),
    4: (6, 12, 13), 5: (6, 10, 15, 19, 22), 6: (7, 8, 9, 12, 13, 14, 15, 17, 19, 22),
    7: (8, 11, 13, 14, 16, 21, 23), 8: (11, 13, 14, 16, 21, 23), 9: (12, 13, 14, 17),
    10: (15, 22), 11: (13, 14, 16, 18, 20, 21, 23), 12: (13, 14, 17),
    13: (14, 16, 17, 21, 23), 14: (16, 17, 21, 23), 15: (19, 22), 16: (18, 20, 21, 23),
    18: (20, 21, 23), 19: (22,), 20: (21, 23), 21: (23,),
}


def test_a_cut_vertex_ends_the_search_at_once():
    g = LabeledGraph(24, [(u, v) for u, vs in CUT_AT_6.items() for v in vs])
    assert not _connected_after_removal(g, {6})
    assert min(g.degree(v) for v in range(g.n)) >= 3

    def too_slow(signum, frame):  # without the test the search runs for minutes
        raise TimeoutError("spanning-cycle search still running after 1 s")

    old_handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        t0 = time.perf_counter()
        assert find_spanning_cycle(g) is None
        assert time.perf_counter() - t0 < 0.1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


def test_open_twin_bound_ignores_forced_edges(monkeypatch):
    """The degree bound groups vertices by their `allowed` row alone.  In the
    12-vertex kernel of s(4) minus v4, vertices 8 and 11 share a row but are
    forced to 9 and 10: they are no symmetric pair, yet still bound the
    search.  One core.reach per vertex for the cut-vertex test, then one per
    DFS node for the region check: 34 nodes, where grouping by forced edges
    too took 42."""
    calls = []
    real = cycles.reach

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(cycles, "reach", counted)
    g = build_s(4)
    assert find_spanning_cycle(g, set(range(g.n)) - {g.vertex("v4")}) is None
    assert len(calls) == 12 + 34


# -- the search's front end against its bit-by-bit oracles ----------------------

def test_local_adjacency_matches_a_position_table():
    rng = random.Random(71)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 70)
        g = gnp(n, rng.choice((0.1, 0.3, 0.6)), rng)
        cases += [(g, list(range(n))), (g, [rng.randrange(n)]), (g, [n - 1]),
                  (g, list(range(rng.randrange(2), n, 2))),
                  (g, sorted(rng.sample(range(n), rng.randint(0, n))))]
    for g, vs in cases:
        assert cycles._local_adjacency(g, vs) == local_adjacency_by_positions(g, vs), vs
    assert max(g.n for g, _ in cases) > 64


def test_kernel_matches_vertex_by_vertex_rows():
    rng = random.Random(73)
    graphs = _census_family_members(24) + [build_s(k) for k in range(3, 7)] + [build_dn(60)]
    graphs += [random_chordal(rng.randint(6, 40), rng) for _ in range(150)]
    fired = {"paste": 0, "segment": 0, "searched": 0}
    for g in graphs:
        sets = [list(range(g.n))] + [sorted(rng.sample(range(g.n), rng.randint(3, g.n)))
                                     for _ in range(3)]
        if "T1.1" in g.roles:  # s(k): its segments survive the loss of a vertex or two
            sets += [sorted(set(range(g.n)) - set(rng.sample(range(g.n), rng.randint(1, 2))))
                     for _ in range(10)]
        for vs in sets:
            adj = cycles._local_adjacency(g, vs)
            got, want = cycles._kernelize(list(adj)), kernelize_by_vertex(list(adj))
            assert got == want, vs
            fired["paste"] += bool(got.pastes)
            fired["segment"] += bool(got.segments)
            if min(nb.bit_count() for nb in adj) >= 2:  # a set the search is run on
                assert len(got.adj) >= 3, vs
                fired["searched"] += 1
    assert fired["paste"] > 100 and fired["segment"] > 30 and fired["searched"] > 100, fired


def _forced_instances(rng):
    """(allowed, forced pairs): sparse graphs with pairs drawn mostly from
    their edges, and the kernels of blow-up subsets."""
    out = []
    for _ in range(1500):
        n = rng.randint(3, 40)
        g = gnp(n, rng.choice((2.5, 3.5, 5.0)) / n, rng)
        edges = g.edges()
        pairs = rng.sample(edges, min(len(edges), rng.randint(0, 4)))
        if rng.random() < 0.2:
            pairs.append(tuple(rng.sample(range(n), 2)))
        out.append((list(g.adjacency_masks()), pairs))
    for k in (3, 4, 5):
        s = build_s(k)
        for _ in range(40):
            vs = sorted(rng.sample(range(s.n), rng.randint(s.n - 6, s.n)))
            kernel = cycles._kernelize(cycles._local_adjacency(s, vs))
            out.append((kernel.adj, kernel.forced))
    return out


def test_propagation_matches_the_neighbour_scan():
    rng = random.Random(74)
    outcomes = {True: 0, False: 0}
    dropped = 0
    for allowed, pairs in _forced_instances(rng):
        m = len(allowed)
        forced = [0] * m
        for a, b in pairs:
            forced[a] |= 1 << b
            forced[b] |= 1 << a
        got_a, got_f, want_a, want_f = list(allowed), list(forced), list(allowed), list(forced)
        ok = cycles._propagate_forced(got_a, got_f, m)
        assert ok == propagate_forced_by_neighbours(want_a, want_f, m)
        outcomes[ok] += 1
        if ok:
            assert (got_a, got_f) == (want_a, want_f)
            dropped += got_a != allowed
            # the search's invariant: a saturated vertex is only in its forced partners' rows
            sat = sum(1 << v for v in range(m) if got_f[v].bit_count() == 2)
            assert not any(got_a[v] & sat & ~got_f[v] for v in range(m))
    assert min(outcomes.values()) > 100 and dropped > 50, (outcomes, dropped)
