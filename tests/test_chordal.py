import random

import pytest

from hendry import (
    GraphError,
    HkSpec,
    build_gk,
    build_gkm,
    build_hk,
    build_jk,
    build_s,
    complete_graph,
    cycle_graph,
    find_simple_elimination_order,
    gk_reference_elimination_order,
    is_bull_free,
    is_chordal,
    is_peo,
    is_simple_elimination_order,
    is_simple_vertex,
    is_strongly_chordal,
    is_strongly_chordal_definitional,
    mcs_order,
    path_graph,
    peo_violation,
)
from hendry.core import LabeledGraph, SizeCapError
from oracles import brute_force_chordal, gnp, three_sun


def test_mcs_on_complete_and_c4():
    kn = complete_graph(5)
    assert is_peo(kn, list(reversed(mcs_order(kn))))
    c4 = cycle_graph(4)
    assert not is_peo(c4, list(reversed(mcs_order(c4))))


def test_mcs_gk_reversal_is_peo():
    g = build_gk(3)
    assert is_peo(g, list(reversed(mcs_order(g))))


def test_peo_examples():
    p3 = path_graph(3)
    assert is_peo(p3, [0, 1, 2])
    c4 = cycle_graph(4)
    for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
        assert not is_peo(c4, perm)
    v = peo_violation(c4, [0, 1, 2, 3])
    assert v is not None and not c4.has_edge(v[1], v[2])
    with pytest.raises(GraphError):
        is_peo(p3, [0, 1])


def assert_induced_cycle(g, hole):
    hole = list(hole)
    assert len(hole) >= 4 and len(set(hole)) == len(hole)
    for i, a in enumerate(hole):
        for j in range(i + 1, len(hole)):
            expected = (j == i + 1) or (i == 0 and j == len(hole) - 1)
            assert g.has_edge(a, hole[j]) == expected


def test_is_chordal_certificates():
    res = is_chordal(cycle_graph(5))
    assert not res
    assert len(res.hole) == 5
    assert_induced_cycle(cycle_graph(5), res.hole)
    res = is_chordal(build_hk(HkSpec.uniform(3)))
    assert res and is_peo(build_hk(HkSpec.uniform(3)), list(res.peo))
    assert is_chordal(build_s(3))


def test_chordal_agrees_with_brute_force_smoke():
    rng = random.Random(3)
    for _ in range(500):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        res = is_chordal(g)
        assert bool(res) == brute_force_chordal(g)
        if res.hole is not None:
            assert_induced_cycle(g, res.hole)


def test_simple_vertex_examples():
    kn = complete_graph(4)
    assert all(is_simple_vertex(kn, v) for v in range(4))
    p3 = path_graph(3)
    assert not is_simple_vertex(p3, 1)
    assert is_simple_vertex(p3, 0)
    g = build_gk(3)
    assert is_simple_vertex(g, g.vertex("u1"))


def test_reference_elimination_order():
    for k in range(1, 7):
        g = build_gk(k)
        assert is_simple_elimination_order(g, gk_reference_elimination_order(k))


def test_simple_elimination_greedy():
    assert find_simple_elimination_order(cycle_graph(6)) is None
    order = find_simple_elimination_order(build_gk(3))
    assert order is not None
    assert is_simple_elimination_order(build_gk(3), order)


def test_hk_elimination_pasted_first_order_is_valid():
    # deleting the pasted interiors in any order and then following the base
    # graph's reference order is a simple elimination ordering
    h = build_hk(HkSpec.uniform(3))
    pasted = h.vertices_with_prefix("paste")
    order = pasted + gk_reference_elimination_order(3)
    assert is_simple_elimination_order(h, order)
    greedy = find_simple_elimination_order(h)
    assert greedy is not None and is_simple_elimination_order(h, greedy)


def test_strongly_chordal_families():
    for k in range(1, 7):
        assert is_strongly_chordal(build_gk(k))
    assert is_strongly_chordal(build_jk(3, (3,) * 5, 6))
    assert is_strongly_chordal(build_gkm(3, 2))
    assert is_strongly_chordal(build_hk(HkSpec.uniform(3)))


def test_three_sun_separates():
    sun = three_sun()
    assert is_chordal(sun)
    assert not is_strongly_chordal(sun)
    assert not is_strongly_chordal_definitional(sun)


def test_definitional_agreement_smoke():
    rng = random.Random(17)
    for _ in range(300):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        assert is_strongly_chordal(g) == is_strongly_chordal_definitional(g)


def test_definitional_cap():
    with pytest.raises(SizeCapError):
        is_strongly_chordal_definitional(build_hk(HkSpec.uniform(3)))


def test_greedy_orders_always_validate():
    rng = random.Random(23)
    for _ in range(200):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        order = find_simple_elimination_order(g)
        if order is not None:
            assert is_simple_elimination_order(g, order)


def test_bull_free_examples():
    assert is_bull_free(complete_graph(5))
    assert is_bull_free(path_graph(5))
    res = is_bull_free(build_hk(HkSpec.uniform(3)))
    assert not res
    w = res.witness
    h = build_hk(HkSpec.uniform(3))
    degs = sorted(sum(1 for u in w if u != v and h.has_edge(u, v)) for v in w)
    assert degs == [1, 1, 2, 3, 3]


def test_bull_in_bigger_pastes():
    res = is_bull_free(build_hk(HkSpec(3, (4, 3, 3, 3, 3))))
    assert not res
