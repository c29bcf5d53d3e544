import random
from itertools import product

import networkx as nx
import pytest

from hendry import (
    GraphError,
    HkSpec,
    HostTree,
    SubtreeModel,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hk,
    build_jk,
    build_s,
    clique_tree,
    complete_graph,
    maximal_cliques_chordal,
    explicit_model_hk,
    explicit_model_jk,
    path_graph,
    tree_stats,
    verify_model,
)
from hendry import treemodel
from oracles import (
    cycle_graph,
    maximal_cliques_by_containment,
    random_chordal,
    uniform_spec,
    verify_model_by_pairs,
)
from test_chordal import census_family_members


def test_host_tree_validation():
    HostTree(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        HostTree(3, [(0, 1)])
    with pytest.raises(GraphError):
        HostTree(3, [(0, 1), (1, 2), (2, 0)])


def test_tree_stats():
    path = HostTree(5, [(i, i + 1) for i in range(4)])
    assert tree_stats(path) == (2, 0, 2)
    star = HostTree(5, [(0, i) for i in range(1, 5)])
    assert tree_stats(star) == (4, 1, 4)
    assert tree_stats(HostTree(1, [])) == (1, 0, 0)


def test_maximal_cliques():
    assert maximal_cliques_chordal(complete_graph(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques_chordal(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(GraphError):
        maximal_cliques_chordal(cycle_graph(4))


def test_maximal_cliques_match_containment_and_networkx():
    rng = random.Random(53)
    graphs = list(census_family_members())
    graphs += [random_chordal(rng.randint(1, 40), rng) for _ in range(150)]
    for g in graphs:
        cliques = maximal_cliques_chordal(g)
        assert cliques == maximal_cliques_by_containment(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        assert cliques == sorted(tuple(sorted(c)) for c in nx.find_cliques(nxg))


def test_clique_tree_examples():
    model = clique_tree(complete_graph(5))
    assert model.host.n_nodes == 1
    assert all(model.assign[v] == frozenset({0}) for v in range(5))
    model = clique_tree(path_graph(4))
    assert model.host.n_nodes == 3
    assert tree_stats(model.host) == (2, 0, 2)


def test_clique_tree_verifies_on_families():
    graphs = [build_gk(3), build_hk(uniform_spec(3)),
              build_hk(HkSpec(3, (4, 3, 3, 3, 5))), build_s(3),
              build_jk(3, (3,) * 5, 6)]
    for g in graphs:
        ok, why = verify_model(clique_tree(g), g)
        assert ok, why


def test_clique_tree_verifies_on_random_chordal():
    rng = random.Random(6)
    for _ in range(200):
        g = random_chordal(rng.randint(1, 12), rng)
        ok, why = verify_model(clique_tree(g), g)
        assert ok, why


def test_verify_model_catches_perturbations():
    g = build_gk(3)
    model = clique_tree(g)
    # break subtree-ness: give a vertex two far-apart nodes
    if model.host.n_nodes >= 3:
        leaves = [v for v in range(model.host.n_nodes)
                  if model.host.degree(v) == 1]
        bad = dict(model.assign)
        bad[0] = frozenset(leaves[:2])
        ok, why = verify_model(SubtreeModel(model.host, bad), g)
        assert not ok and "subtree" in why
    # break coverage
    partial = dict(model.assign)
    del partial[0]
    ok, why = verify_model(SubtreeModel(model.host, partial), g)
    assert not ok


def _census_models():
    """(graph, model) for the clique tree of every census family member
    (gk, hk, hplus, dn, s, gkm) and the explicit model of each hk and dn."""
    out = []
    graphs = [build_gk(k) for k in range(3, 8)]
    for sizes in product((3, 4), repeat=5):
        spec = HkSpec(3, sizes)
        g = build_hk(spec)
        out.append((g, explicit_model_hk(spec, g)))
        graphs += [g, build_h_plus(spec)]
    for n in range(15, 41):
        g = build_dn(n)
        out.append((g, explicit_model_hk(HkSpec(3, (3, 3, 3, 3, n - 12)), g)))
        graphs.append(g)
    graphs.append(build_s(3))
    graphs += [build_gkm(k, m) for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))]
    return out + [(g, clique_tree(g)) for g in graphs]


def _perturbed(model, rng):
    """Three seeded changes of one model: a node dropped from one vertex (which
    may split its subtree), a node next to another vertex's subtree added to
    it, two subtrees swapped."""
    host, assign = model.host, model.assign
    nbrs = {x: set() for x in range(host.n_nodes)}
    for a, b in host.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    v = rng.choice(sorted(assign))
    dropped = dict(assign)
    dropped[v] = assign[v] - {rng.choice(sorted(assign[v]))}
    v = rng.choice(sorted(assign))
    added = dict(assign)
    rim = sorted(set().union(*(nbrs[x] for x in assign[v])) - assign[v])
    if rim:
        added[v] = assign[v] | {rng.choice(rim)}
    u, v = rng.sample(sorted(assign), 2)
    swapped = dict(assign)
    swapped[u], swapped[v] = assign[v], assign[u]
    return [SubtreeModel(host, a) for a in (dropped, added, swapped)]


def test_verify_model_matches_the_pairwise_scan():
    # the mask check must give the pairwise scan's verdict and first
    # discrepancy, word for word
    rng = random.Random(17)
    kinds = set()
    for g, model in _census_models():
        assert verify_model(model, g) == verify_model_by_pairs(model, g) == (True, None)
        for bad in _perturbed(model, rng):
            got = verify_model(bad, g)
            assert got == verify_model_by_pairs(bad, g)
            kinds.add(got[1].split()[-1] if got[1] else None)
    for _ in range(100):
        g = random_chordal(rng.randint(2, 14), rng)
        for bad in _perturbed(clique_tree(g), rng):
            assert verify_model(bad, g) == verify_model_by_pairs(bad, g)
    # both adjacency discrepancies and the subtree check were reached
    assert {"non-adjacent", "miss", "subtree", None} <= kinds


def test_verify_model_catches_wrong_adjacency():
    g = path_graph(3)
    host = HostTree(2, [(0, 1)])
    assign = {0: frozenset({0}), 1: frozenset({0, 1}), 2: frozenset({0})}
    ok, why = verify_model(SubtreeModel(host, assign), g)
    assert not ok and "0,2" in why


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_explicit_model_hk(k):
    spec = uniform_spec(k)
    model = explicit_model_hk(spec)
    ok, why = verify_model(model, build_hk(spec))
    assert ok, why
    assert tree_stats(model.host) == (2 * k - 1, 2 * k - 3, 3)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_explicit_model_jk(k):
    sizes = (3,) * (2 * k - 1)
    model = explicit_model_jk(k, sizes, k + 3)
    ok, why = verify_model(model, build_jk(k, sizes, k + 3))
    assert ok, why
    assert tree_stats(model.host) == (2 * k, 2 * k - 2, 3)


def test_explicit_models_with_varied_sizes():
    rng = random.Random(31)
    for k in (3, 4):
        for _ in range(3):
            sizes = tuple(rng.choice((3, 4, 5)) for _ in range(2 * k - 1))
            spec = HkSpec(k, sizes)
            model = explicit_model_hk(spec)
            ok, why = verify_model(model, build_hk(spec))
            assert ok, why
            # leaf count is unchanged by paste sizes
            assert tree_stats(model.host) == (2 * k - 1, 2 * k - 3, 3)
            jmodel = explicit_model_jk(k, sizes, k + 4)
            ok, why = verify_model(jmodel, build_jk(k, sizes, k + 4))
            assert ok, why
            assert tree_stats(jmodel.host) == (2 * k, 2 * k - 2, 3)


def test_explicit_models_reuse_the_given_graph(monkeypatch):
    spec = HkSpec(3, (3, 4, 3, 5, 4))
    h, j = build_hk(spec), build_jk(3, spec.clique_sizes, 7)
    want = [explicit_model_hk(spec).to_dict(),
            explicit_model_jk(3, spec.clique_sizes, 7).to_dict()]
    monkeypatch.setattr(treemodel, "build_hk", None)  # a rebuild would now raise
    monkeypatch.setattr(treemodel, "build_jk", None)
    assert [explicit_model_hk(spec, h).to_dict(),
            explicit_model_jk(3, spec.clique_sizes, 7, j).to_dict()] == want


def test_jk_center_assignments():
    model = explicit_model_jk(3, (3,) * 5, 6)
    g = build_jk(3, (3,) * 5, 6)
    host = model.host
    z_nodes = {host.labels[i] for i in model.assign[g.vertex("z")]}
    assert z_nodes == {"p3", "p4", "q4"}
    vk_nodes = {host.labels[i] for i in model.assign[g.vertex("v3")]}
    assert vk_nodes == {"p4", "p5", "q4"}
    for w in g.vertices_with_prefix("X"):
        assert {host.labels[i] for i in model.assign[w]} == {"q4"}


def test_model_serialization():
    model = explicit_model_hk(uniform_spec(3))
    d = model.to_dict()
    assert set(d) == {"host_edges", "host_labels", "assign"}
    assert len(d["assign"]) == 15
