import random

import pytest

from hendry import (
    GraphError,
    HkSpec,
    SizeCapError,
    build_gk,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_s,
    complete_graph,
    cycle_graph,
    induces_path,
    is_pt_free,
    longest_induced_path,
    path_graph,
    vertex_connectivity,
)
from oracles import brute_force_kappa, brute_force_longest_induced_path, gnp


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
    assert vertex_connectivity(build_hk(HkSpec.uniform(3))).kappa == 2


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
        assert cert.kappa <= g.min_degree()


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


def test_longest_induced_path_agrees_with_brute_force():
    rng = random.Random(21)
    for _ in range(200):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        length, path = longest_induced_path(g)
        assert length == brute_force_longest_induced_path(g)
        if length:
            assert induces_path(g, path)


def test_pt_free():
    assert is_pt_free(cycle_graph(5), 5)
    assert not is_pt_free(path_graph(5), 5)
    hp = build_h_plus(HkSpec.uniform(3))
    assert is_pt_free(hp, 9)
    # the plain pasted graph keeps a long induced path through the u-side
    h = build_hk(HkSpec.uniform(3))
    length, _ = longest_induced_path(h)
    assert is_pt_free(h, 9) == (length < 9)
    with pytest.raises(GraphError):
        is_pt_free(path_graph(3), 0)


def test_size_caps():
    with pytest.raises(SizeCapError):
        longest_induced_path(complete_graph(26))
    with pytest.raises(GraphError):
        vertex_connectivity(complete_graph(1))
