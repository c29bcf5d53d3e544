import random

import pytest

from hendry import (
    GraphError,
    HkSpec,
    HostTree,
    SubtreeModel,
    build_gk,
    build_hk,
    build_jk,
    build_s,
    clique_tree,
    complete_graph,
    cycle_graph,
    maximal_cliques_chordal,
    explicit_model_hk,
    explicit_model_jk,
    path_graph,
    tree_stats,
    verify_model,
)
from hendry import treemodel
from oracles import random_chordal


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


def test_clique_tree_examples():
    model = clique_tree(complete_graph(5))
    assert model.host.n_nodes == 1
    assert all(model.assign[v] == frozenset({0}) for v in range(5))
    model = clique_tree(path_graph(4))
    assert model.host.n_nodes == 3
    assert tree_stats(model.host) == (2, 0, 2)


def test_clique_tree_verifies_on_families():
    graphs = [build_gk(3), build_hk(HkSpec.uniform(3)),
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


def test_verify_model_catches_wrong_adjacency():
    g = path_graph(3)
    host = HostTree(2, [(0, 1)])
    assign = {0: frozenset({0}), 1: frozenset({0, 1}), 2: frozenset({0})}
    ok, why = verify_model(SubtreeModel(host, assign), g)
    assert not ok and "0,2" in why


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_explicit_model_hk(k):
    spec = HkSpec.uniform(k)
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
    model = explicit_model_hk(HkSpec.uniform(3))
    d = model.to_dict()
    assert set(d) == {"host_edges", "host_labels", "assign"}
    assert len(d["assign"]) == 15
