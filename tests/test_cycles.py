import itertools
import random
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
    cycle_graph,
    cycles,
    extension_candidates,
    find_spanning_cycle,
    heavy_cycles_on,
    is_cyclable,
    is_cycle_extendible,
    is_fully_cycle_extendible,
    is_s_cycle_extendible,
    lift_cycle,
    path_graph,
    subset_cap,
    witness_long_heavy_cycle,
)
from oracles import (
    anchored_path_ends,
    brute_force_s_extendible,
    chained_classes_graph,
    containing,
    cycle_from_ends,
    cyclable_from_ends,
    drop_one_by_list,
    gnp,
    pasted_graph,
    permutation_count_heavy_cycles,
    permutation_cyclable_sets,
    permutation_hamiltonian,
    table_by_sweeps,
)


def test_table_complete_graph():
    t = build_cyclable_table(complete_graph(4))
    for mask in range(16):
        assert t.cyclable(mask) == (mask.bit_count() >= 3)


def test_table_path_has_no_cycles():
    t = build_cyclable_table(path_graph(4))
    assert not any(t.cyclable(m) for m in range(16))


def test_table_matches_permutation_oracle():
    rng = random.Random(2)
    for _ in range(150):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        t = build_cyclable_table(g)
        oracle = permutation_cyclable_sets(g)
        assert {m for m in range(1 << g.n) if t.cyclable(m)} == oracle


def _bitset(masks, n) -> bytes:
    out = bytearray(max(1, (1 << n) >> 3))
    for mask in masks:
        out[mask >> 3] |= 1 << (mask & 7)
    return bytes(out)


def assert_table_matches_path_dp(g, check_cycles=True):
    """Every row bit and cyclable bit, and every rebuilt cycle, against the
    per-mask DP oracle."""
    t = build_cyclable_table(g)
    ends = anchored_path_ends(g)
    for e in range(g.n):
        want = _bitset((m for m, word in enumerate(ends) if word >> e & 1), g.n)
        assert t.rows[e * t.stride:(e + 1) * t.stride] == want, f"row {e}"
    cyclable = [m for m in range(1 << g.n) if cyclable_from_ends(g, ends, m)]
    assert t.cyc == _bitset(cyclable, g.n)
    assert list(t.iter_cyclable()) == cyclable
    if check_cycles:
        for mask in cyclable:
            assert list(t.cycle_for(mask)) == cycle_from_ends(g, ends, mask)


def test_table_matches_path_dp_oracle():
    rng = random.Random(5)
    for i in range(240):
        n = 1 + i % 10
        assert_table_matches_path_dp(gnp(n, rng.choice((0.3, 0.5, 0.7)), rng))
    assert_table_matches_path_dp(build_gk(3))
    assert_table_matches_path_dp(build_s(3), check_cycles=False)


def test_derived_masks_match_byte_patterns():
    for n in range(13):
        full = (1 << (1 << n)) - 1
        assert list(cycles._containing_masks(n)) == [
            (v, containing(n, v) & full) for v in reversed(range(n))]
        # on K_n the row of e is every subset with e and a smaller minimum, plus {e}
        t = build_cyclable_table(complete_graph(n))
        lower = 0
        for e in range(n):
            below = containing(n, e) & lower & full
            lower |= containing(n, e)
            row = (below | 1 << (1 << e)).to_bytes(t.stride, "little")
            assert t.rows[e * t.stride:(e + 1) * t.stride] == row


def test_streamed_drop_matches_mask_list():
    rng = random.Random(17)
    for n in range(13):
        has = [containing(n, v) for v in range(n)]
        for density in (0.05, 0.5, 0.95, 1.0):
            x = sum(1 << s for s in range(1 << n) if rng.random() < density)
            assert cycles._drop_one(x, n) == drop_one_by_list(x, has)


def _census_family_members(max_n: int):
    """The graphs of the census families (gk, hk, hplus, dn, s, gkm) with at
    most max_n vertices."""
    out = [build_gk(k) for k in range(3, 8)]
    for sizes in itertools.product((3, 4), repeat=5):
        out += [build_hk(HkSpec(3, sizes)), build_h_plus(HkSpec(3, sizes))]
    out += [build_dn(n) for n in range(15, max_n + 1)]
    out += [build_s(3)] + [build_gkm(k, m) for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))]
    return [g for g in out if g.n <= max_n]


def test_table_matches_sweep_fill():
    """The pending-neighbour fill reaches the sweep fill's fixed point, byte for byte."""
    rng = random.Random(23)
    graphs = [gnp(11 + i % 6, rng.choice((0.3, 0.5, 0.7)), rng) for i in range(30)]
    graphs += _census_family_members(20)
    graphs += [complete_graph(n) for n in (0, 1, 2)] + [path_graph(2), LabeledGraph(2)]
    for g in graphs:
        t = build_cyclable_table(g)
        assert (t.rows, t.cyc) == table_by_sweeps(g), g.n


def test_extendibility_peak_memory_holds_no_mask_list():
    """A table build plus scan peaks below (2n + 9) 2^n-bit ints: n rows and n
    fill masks, the cyclable bits and a few temporaries, but no list of n
    subset masks beside the table."""
    cases = [(build_h_plus(HkSpec(3, (3, 3, 3, 4, 5))), (1,)),
             (build_hkm(3, 4, (3,) * 5), (2, 3))]
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for g, s_set in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verdict = is_s_cycle_extendible(g, s_set)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert not verdict.extendible
            unit = (1 << g.n) // 8
            assert peak <= (2 * g.n + 9) * unit, (g.n, peak / unit)
    finally:
        if started:
            tracemalloc.stop()


def test_s_extendibility_large_jumps_match_brute_force():
    # jumps past n extend nothing; they must neither change the verdict nor
    # cost more than n drop steps
    rng = random.Random(17)
    for _ in range(60):
        g = gnp(rng.randint(3, 8), 0.55, rng)
        t = build_cyclable_table(g)
        for s_set in ({1, g.n}, {g.n + 5}, {1, 10**9}):
            want_ok, want_wit = brute_force_s_extendible(g, s_set)
            got = is_s_cycle_extendible(g, s_set, t)
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
            assert is_cyclable(g, vs) == t.cyclable(mask)


def test_gk_targeted_sets():
    # the 8- and 9-vertex deletions of the base graph, against permutations
    g = build_gk(3)
    t = build_cyclable_table(g)
    allv = set(range(g.n))
    z, v3 = g.vertex("z"), g.vertex("v3")
    for drop in ({z, v3}, {z}, {v3}):
        sub, _ = g.induced(sorted(allv - drop))
        assert t.cyclable(allv - drop) == permutation_hamiltonian(sub)
        assert is_cyclable(g, allv - drop) == permutation_hamiltonian(sub)
    assert t.cyclable(allv - {z, v3})


def test_hamiltonian_cycle_certificates():
    h = build_hk(HkSpec.uniform(3))
    c = find_spanning_cycle(h)
    assert c is not None and c.vertex_set == frozenset(range(h.n))
    s = build_s(3)
    c = find_spanning_cycle(s)
    assert c is not None and len(c) == 16
    assert find_spanning_cycle(path_graph(5)) is None


def test_subdivided_and_center_pasted_families_hamiltonian():
    assert is_cyclable(build_hkm(3, 3, (3,) * 5))
    assert is_cyclable(build_jk(3, (3,) * 5, 6))


def test_table_cycle_reconstruction():
    g = build_hk(HkSpec.uniform(3))
    t = build_cyclable_table(g)
    for mask in list(t.iter_cyclable())[:200]:
        c = t.cycle_for(mask)
        assert c is not None
        assert c.vertex_set == frozenset(v for v in range(g.n) if (mask >> v) & 1)


def test_extension_candidates_k5():
    k5 = complete_graph(5)
    cands = extension_candidates(k5, {0, 1, 2})
    assert cands == [3, 4]
    with pytest.raises(GraphError):
        extension_candidates(path_graph(4), {0, 1, 2})


def test_hk_witness_has_no_extension():
    h = build_hk(HkSpec.uniform(3))
    t = build_cyclable_table(h)
    frozen = frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}
    assert t.cyclable(frozen)
    assert t.extension_candidates(frozen) == []
    assert extension_candidates(h, frozen) == []


def test_jk_lifted_long_cycle_has_no_extension():
    j = build_jk(3, (3,) * 5, 6)
    lifted = lift_cycle(witness_long_heavy_cycle(3), j)
    assert extension_candidates(j, lifted.vertex_set) == []


def test_targeted_extension_emptiness_k3_to_5():
    # the frozen two-short set never extends, checked without a full table
    for k in (3, 4, 5):
        h = build_hk(HkSpec.uniform(k))
        frozen = set(range(h.n)) - {h.vertex("z"), h.vertex(f"v{k}")}
        assert find_spanning_cycle(h, frozen) is not None
        for v in (h.vertex("z"), h.vertex(f"v{k}")):
            assert find_spanning_cycle(h, frozen | {v}) is None


def test_is_cycle_extendible_examples():
    assert is_cycle_extendible(complete_graph(6)).extendible
    h = build_hk(HkSpec.uniform(3))
    verdict = is_cycle_extendible(h)
    assert not verdict.extendible
    assert verdict.witness == frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}


def test_witnesses_revalidate():
    h = build_hk(HkSpec.uniform(3))
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
        t = build_cyclable_table(g)
        assert is_s_cycle_extendible(g, {1}, t).extendible == \
            is_cycle_extendible(g, t).extendible


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
    h = build_hk(HkSpec.uniform(3))
    t = build_cyclable_table(h)
    frozen = frozenset(range(h.n)) - {h.vertex("z"), h.vertex("v3")}
    assert t.cyclable(frozen | {h.vertex("z"), h.vertex("v3")})
    verdict = is_s_cycle_extendible(h, {2}, t)
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


def test_jk_full_table_has_unique_frozen_set():
    j = build_jk(3, (3,) * 5, 6)
    verdict = is_cycle_extendible(j)
    lifted = lift_cycle(witness_long_heavy_cycle(3), j)
    assert not verdict.extendible
    assert verdict.witness == lifted.vertex_set


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
        for mask in t.iter_cyclable():
            vs = [v for v in range(g.n) if (mask >> v) & 1]
            sub, _ = g.induced(vs)
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
            if t1.cyclable(mask):
                assert t2.cyclable(mask)


def test_heavy_cycles_examples():
    g = build_gk(3)
    allv = set(range(g.n))
    count, wit = heavy_cycles_on(g, allv)
    assert count >= 1
    assert wit is not None and all(e in wit.edge_set() for e in g.heavy_edges)
    assert heavy_cycles_on(g, allv - {g.vertex("z")})[0] == 0
    assert heavy_cycles_on(g, allv - {g.vertex("v3")})[0] == 0
    gp = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
    assert heavy_cycles_on(gp, allv - {gp.vertex("z")})[0] == 0
    assert heavy_cycles_on(gp, allv - {gp.vertex("v3")})[0] == 0


def test_heavy_counts_match_permutation_oracle():
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
        got, wit = heavy_cycles_on(g, subset)
        assert got == want
        if wit is not None:
            assert all(tuple(sorted(e)) in wit.edge_set() for e in heavy)


def test_heavy_cycles_endpoint_outside_subset():
    g = build_gk(3)
    count, wit = heavy_cycles_on(g, set(range(g.n)) - {g.vertex("x1")})
    assert (count, wit) == (0, None)


def test_heavy_cycles_requires_heavy_edges():
    with pytest.raises(GraphError):
        heavy_cycles_on(complete_graph(4), {0, 1, 2, 3})


def test_heavy_count_exact_small():
    # triangle with one heavy edge: exactly one cycle uses it
    g = LabeledGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)],
                     heavy_edges=[(0, 2)])
    count, _ = heavy_cycles_on(g, {0, 1, 2})
    assert count == 1
    count, _ = heavy_cycles_on(g, {0, 1, 2, 3})
    assert count == 0  # no 4-cycle through the chord 0-2


def test_size_caps():
    big = complete_graph(41)
    with pytest.raises(SizeCapError):
        build_cyclable_table(big)
    with pytest.raises(SizeCapError):
        is_cyclable(big)
    with pytest.raises(SizeCapError):
        heavy_cycles_on(build_gk(8), range(25))


def test_subset_cap_env(monkeypatch):
    monkeypatch.setenv("HENDRY_SUBSET_CAP", "10")
    assert subset_cap() == 10
    with pytest.raises(SizeCapError):
        build_cyclable_table(complete_graph(11))
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
        assert (c is not None) == t.cyclable(mask), vs
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
    assert not t.cyclable(lone)
    assert find_spanning_cycle(s3, lone) is None
    # the only tight class is {z, F2.1} on {x1, x2, F2.2}: a lone class
    small = _roles(s3, "x1 x2 F2.1 F2.2 z T1.1")
    assert (find_spanning_cycle(s3, small) is not None) == t.cyclable(small)

    # the whole set is one segment: no rule may contract it
    k32 = LabeledGraph(5, [(a, b) for a in range(3) for b in (3, 4)])
    assert find_spanning_cycle(k32) is None
    # {2, 3} sees all of V; {0} and {1} are each pasted on {2, 3}, and
    # contracting both would leave two vertices
    k4_minus = LabeledGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_spanning_cycle(k4_minus) is not None
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
    _, tour = cycles._spanning_cycle_search(kernel.adj, kernel.forced, count_all=False)
    assert tour is not None and kernel.lift(tour) == tour
