import random
import time

import pytest

import oracles
from hendry import (
    ConnectivityCert,
    GraphError,
    HkSpec,
    LabeledGraph,
    SizeCapError,
    build_dn,
    build_gk,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    complete_graph,
    induces_path,
    is_chordal,
    is_pt_free,
    longest_induced_path,
    path_graph,
    structure,
    vertex_connectivity,
)
from oracles import (
    brute_force_kappa,
    brute_force_longest_induced_path,
    connectivity_by_pair_scan,
    cycle_graph,
    gnp,
    longest_induced_path_by_memo,
    min_degree,
    random_chordal,
    small_graphs,
    split_digraph_flow,
    twin_blowup,
    uniform_spec,
)
from test_chordal import census_family_members


def separates(g, cut) -> bool:
    """Does deleting `cut` leave g disconnected?"""
    removed = set(cut)
    rest = [v for v in range(g.n) if v not in removed]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) < len(rest)


def test_kappa_complete():
    cert = vertex_connectivity(complete_graph(5))
    assert cert.kappa == 4 and cert.complete


def test_kappa_apex_cut():
    g = build_hendry_exception(1, 8)
    cert = vertex_connectivity(g)
    assert cert.kappa == 1
    assert len(cert.cut) == 1
    assert separates(g, cert.cut)


def test_kappa_blowups_exact():
    for k in (3, 4, 5):
        g = build_s(k)
        cert = vertex_connectivity(g)
        assert cert.kappa == k
        assert len(cert.cut) == k
        assert separates(g, cert.cut)


def test_kappa_hk_is_two():
    assert vertex_connectivity(build_hk(uniform_spec(3))).kappa == 2


def test_kappa_disconnected():
    from hendry import LabeledGraph
    g = LabeledGraph(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(g).kappa == 0


def test_kappa_agrees_with_brute_force():
    rng = random.Random(8)
    for _ in range(150):
        g = gnp(rng.randint(2, 8), 0.5, rng)
        cert = vertex_connectivity(g)
        assert cert.kappa == brute_force_kappa(g)
        assert cert.kappa <= min_degree(g)


def test_kappa_cut_revalidates():
    rng = random.Random(12)
    for _ in range(80):
        g = gnp(rng.randint(3, 12), 0.5, rng)
        cert = vertex_connectivity(g)
        if cert.complete or cert.kappa == 0:
            continue
        assert len(cert.cut) == cert.kappa
        assert separates(g, cert.cut)


def test_longest_induced_path_examples():
    assert longest_induced_path(path_graph(7))[0] == 7
    assert longest_induced_path(cycle_graph(5))[0] == 4
    g = build_gk(3)
    gp = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
    length, path = longest_induced_path(gp)
    assert length == 6
    assert induces_path(gp, path)
    named = [g.vertex(nm) for nm in ("u1", "u3", "z", "v3", "v2", "v1")]
    assert induces_path(gp, named)
    for bad in ([0, -1], [gp.n, 0], [0, gp.n]):
        with pytest.raises(GraphError):
            induces_path(gp, bad)


def test_longest_induced_path_agrees_with_brute_force():
    rng = random.Random(21)
    for _ in range(200):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        length, path = longest_induced_path(g)
        assert length == brute_force_longest_induced_path(g)
        if length:
            assert induces_path(g, path)


def with_planted_twins(g, rng, count):
    """g with `count` new vertices, each, when added, a true or false twin of a
    vertex already there."""
    edges, n = g.edges(), g.n
    for _ in range(count):
        v = rng.randrange(n)
        nbrs = [b for a, b in edges if a == v] + [a for a, b in edges if b == v]
        edges += [(u, n) for u in nbrs] + ([(v, n)] if rng.random() < 0.5 else [])
        n += 1
    return LabeledGraph(n, edges)


def test_longest_induced_path_matches_memo_oracle():
    """Twin skipping and the int memo keep the oracle's length and witness."""
    rng = random.Random(22)
    graphs = [g for g in census_family_members() if g.n <= 25]
    graphs += [random_chordal(rng.randint(2, 25), rng) for _ in range(300)]
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = gnp(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng)
        graphs.append(with_planted_twins(g, rng, rng.randint(1, 12 - n)))
    for g in graphs:
        assert longest_induced_path(g) == longest_induced_path_by_memo(g), g.edges()


def test_pt_free():
    assert is_pt_free(cycle_graph(5), 5)
    assert not is_pt_free(path_graph(5), 5)
    hp = build_h_plus(uniform_spec(3))
    assert is_pt_free(hp, 9)
    # the plain pasted graph keeps a long induced path through the u-side
    h = build_hk(uniform_spec(3))
    length, _ = longest_induced_path(h)
    assert is_pt_free(h, 9) == (length < 9)
    with pytest.raises(GraphError):
        is_pt_free(path_graph(3), 0)


def test_size_caps():
    with pytest.raises(SizeCapError):
        longest_induced_path(complete_graph(26))
    with pytest.raises(GraphError):
        vertex_connectivity(complete_graph(1))


# -- connectivity: common-neighbour pruning against the pair scan --------------

def test_connectivity_matches_pair_scan():
    rng = random.Random(91)
    graphs = [gnp(rng.randint(2, 14), rng.choice((0.3, 0.5, 0.7, 0.85)), rng)
              for _ in range(2000)]
    graphs += [twin_blowup(rng, rng.randint(2, 7), rng.choice((0.4, 0.6, 0.8)))
               for _ in range(1500)]
    graphs += [random_chordal(rng.randint(2, 20), rng) for _ in range(200)]
    graphs += list(census_family_members()) + [build_s(5), build_s(6), build_dn(60)]
    positive = 0
    for g in graphs:
        cert = vertex_connectivity(g)
        assert cert == connectivity_by_pair_scan(g)
        if not cert.complete and cert.kappa > 0:
            assert structure._separator_floor(g) <= cert.kappa
            positive += 1
    assert positive >= 1500, positive


def test_pair_flow_matches_the_split_digraph_on_every_pair():
    # sparse graphs have long augmenting paths that back flow out of a
    # vertex, which the capped flows of vertex_connectivity seldom reach;
    # about one in 25 of these graphs has a pair whose flow does
    rng = random.Random(96)
    for _ in range(50):
        n = rng.randint(20, 40)
        g = gnp(n, 3.5 / n, rng)
        masks = g.adjacency_masks()
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if not masks[s] >> t & 1:
                    got = structure._pair_flow(masks, s, t, masks[s] & masks[t], g.n)
                    assert got == split_digraph_flow(g, s, t, g.n), (s, t)


def test_connectivity_on_twin_blowups_agrees_with_brute_force():
    rng = random.Random(92)
    checked = 0
    while checked < 300:
        g = twin_blowup(rng, rng.randint(2, 4), rng.choice((0.4, 0.6, 0.8)))
        if g.n > 9:
            continue
        assert vertex_connectivity(g).kappa == brute_force_kappa(g)
        checked += 1


def scanned_pairs(monkeypatch):
    """The (source, sink) vertex pairs whose flows the pair scan runs: its
    searches go from out(s) = 2s+1 to in(t) = 2t on the split digraph."""
    pairs = set()
    real = oracles.shortest_path

    def spy(res, start, target, within):
        pairs.add((start // 2, target // 2))
        return real(res, start, target, within)

    monkeypatch.setattr(oracles, "shortest_path", spy)
    return pairs


def flow_pairs(monkeypatch):
    """The (source, sink) pairs whose flows vertex_connectivity runs."""
    pairs = set()
    real = structure._pair_flow

    def spy(masks, s, t, common, cap):
        pairs.add((s, t))
        return real(masks, s, t, common, cap)

    monkeypatch.setattr(structure, "_pair_flow", spy)
    return pairs


def test_connectivity_skips_a_pair_by_common_neighbours(monkeypatch):
    # (0, 1) sets best = 2; (0, 2) has common neighbours {3, 4}, so it is
    # skipped although its flow is 3; (0, 7) then sets the cut {6}
    g = LabeledGraph(8, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4),
                         (2, 6), (5, 6), (6, 7)])
    scanned = scanned_pairs(monkeypatch)
    ran = flow_pairs(monkeypatch)
    cert = vertex_connectivity(g)
    assert cert == connectivity_by_pair_scan(g) == ConnectivityCert(1, (6,), False)
    assert (0, 2) in scanned and (0, 7) in ran
    assert (0, 2) not in ran


# -- connectivity: the MCS separator floor -------------------------------------

def test_separator_floor_is_at_most_kappa_on_connected_graphs():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(small_graphs(9).filter(LabeledGraph.is_connected))
    def check(g):
        hypothesis.assume(len(g.edges()) < g.n * (g.n - 1) // 2)
        assert 1 <= structure._separator_floor(g) <= brute_force_kappa(g)

    check()


def chordal_corpus():
    rng = random.Random(94)
    yield from (random_chordal(rng.randint(2, 40), rng) for _ in range(400))
    yield from (build_s(k) for k in range(3, 9))
    yield from (build_dn(n) for n in range(15, 61))
    yield from census_family_members()
    yield from (build_hkm(k, m, (3,) * (2 * k - 1)) for k in (3, 4) for m in (1, 2, 3))
    yield from (build_jk(k, (3,) * (2 * k - 1), x) for k in (3, 4) for x in (k + 3, k + 5))


def test_separator_floor_is_kappa_and_certificate_is_the_pair_scans_on_chordal_graphs():
    # Blair and Peyton: the drops' earlier-neighbour sets are the minimal
    # separators, so the scan stops at its first flow that reaches kappa
    tight = 0
    for g in chordal_corpus():
        assert is_chordal(g)
        cert = connectivity_by_pair_scan(g)
        assert vertex_connectivity(g) == cert
        if not cert.complete:
            assert structure._separator_floor(g) == cert.kappa
            tight += 1
    assert tight >= 500, tight


def test_connectivity_runs_one_flow_on_the_paper_families(monkeypatch):
    graphs = [build_s(k) for k in range(3, 9)] + [build_gk(k) for k in range(3, 8)]
    for g in graphs + [build_hk(uniform_spec(3))]:
        ran = flow_pairs(monkeypatch)
        vertex_connectivity(g)
        assert len(ran) == 1, ran
    # twin-rich members, up to dn(60)'s 48-vertex pasted clique: the floor,
    # not twin skipping, ends the scan at its first flow
    for g in (build_hk(HkSpec(3, (9,) * 5)), build_dn(60), build_h_plus(HkSpec(3, (3, 3, 3, 4, 5))),
              build_jk(3, (3,) * 5, 8), build_hkm(3, 3, (3,) * 5)):
        ran = flow_pairs(monkeypatch)
        assert vertex_connectivity(g) == ConnectivityCert(2, (1, 4), False)
        assert len(ran) == 1, ran


def test_connectivity_runs_every_pruned_pair_below_a_weak_floor(monkeypatch):
    # on the 6-cycle the MCS order 0 1 2 3 4 5 drops at 2 with one earlier
    # neighbour, so F = 1 < kappa = 2 and the floor never ends the scan: the
    # flows are the common-neighbour-pruned scan's
    g = cycle_graph(6)
    assert structure._separator_floor(g) == 1
    ran = flow_pairs(monkeypatch)
    assert vertex_connectivity(g) == connectivity_by_pair_scan(g) == ConnectivityCert(2, (1, 5), False)
    assert ran == {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)}


def test_connectivity_budget_s5():
    g = build_s(5)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert vertex_connectivity(g).kappa == 5
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.015, times
