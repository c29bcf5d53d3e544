import random
import time

import pytest

from hendry import (
    BullResult,
    GraphError,
    HkSpec,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hk,
    build_jk,
    build_s,
    complete_graph,
    find_simple_elimination_order,
    gk_reference_elimination_order,
    is_bull_free,
    is_chordal,
    is_simple_elimination_order,
    is_strongly_chordal,
    mcs_order,
    path_graph,
    peo_violation,
)
from hendry.core import LabeledGraph, SizeCapError
from oracles import (
    brute_force_chordal,
    bull_by_subsets,
    cycle_graph,
    gnp,
    induced,
    is_peo,
    is_simple_vertex,
    is_strongly_chordal_definitional,
    mcs_order_by_scan,
    peo_violation_by_pairs,
    random_chordal,
    three_sun,
    uniform_spec,
)


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


def test_peo_violation_matches_pairwise_scan():
    rng = random.Random(29)
    for _ in range(1000):
        g = gnp(rng.randint(1, 12), rng.random(), rng)
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        for order in (shuffled, list(reversed(mcs_order(g)))):
            assert peo_violation(g, order) == peo_violation_by_pairs(g, order)


def test_mcs_and_peo_check_match_their_scans_past_one_machine_word():
    rng = random.Random(31)
    graphs = [gnp(rng.randint(0, 70), rng.choice((0.05, 0.2, 0.5, 0.9)), rng)
              for _ in range(150)]
    graphs += [random_chordal(rng.randint(1, 70), rng) for _ in range(150)]
    graphs += list(census_family_members())
    wide = 0
    for g in graphs:
        order = mcs_order(g)
        assert order == mcs_order_by_scan(g)
        peo = order[::-1]
        assert peo_violation(g, peo) == peo_violation_by_pairs(g, peo)
        wide += g.n > 64
    assert wide >= 20, wide


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
    res = is_chordal(build_hk(uniform_spec(3)))
    assert res and is_peo(build_hk(uniform_spec(3)), list(res.peo))
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


def test_greedy_simple_order_is_simple_by_definition():
    for g in (build_gk(3), build_gk(4), build_hk(uniform_spec(3)), complete_graph(5)):
        order = find_simple_elimination_order(g)
        assert order is not None
        for i, v in enumerate(order):
            sub, old = induced(g, order[i:])
            assert is_simple_vertex(sub, old.index(v))


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
    h = build_hk(uniform_spec(3))
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
    assert is_strongly_chordal(build_hk(uniform_spec(3)))


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
        is_strongly_chordal_definitional(build_hk(uniform_spec(3)))


def test_greedy_orders_always_validate():
    rng = random.Random(23)
    for _ in range(200):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        order = find_simple_elimination_order(g)
        if order is not None:
            assert is_simple_elimination_order(g, order)
            assert peo_violation(g, order) is None


def assert_bull(g, witness):
    """witness is a sorted tuple of 5 distinct vertices inducing a bull."""
    assert len(witness) == 5 and list(witness) == sorted(set(witness)), witness
    degs = sorted(sum(1 for u in witness if u != v and g.has_edge(u, v)) for v in witness)
    assert degs == [1, 1, 2, 3, 3], witness


def test_bull_free_examples():
    assert is_bull_free(complete_graph(5))
    assert is_bull_free(path_graph(5))
    h = build_hk(uniform_spec(3))
    res = is_bull_free(h)
    assert not res
    assert_bull(h, res.witness)


def test_bull_in_bigger_pastes():
    g = build_hk(HkSpec(3, (4, 3, 3, 3, 3)))
    res = is_bull_free(g)
    assert not res
    assert_bull(g, res.witness)


def test_bull_verdicts_on_the_paper_families():
    free = [build_gk(k) for k in range(3, 13)]
    free += [build_gkm(k, m) for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))]
    for g in free:
        assert is_bull_free(g) == BullResult(True, None)
    for g in (build_hk(uniform_spec(3)), build_h_plus(uniform_spec(3)),
              build_dn(20), build_s(3)):
        res = is_bull_free(g)
        assert not res
        assert_bull(g, res.witness)


def test_bull_witness_is_the_sweeps_first():
    """The witness is the first bull of the edge sweep, sorted: on s(3) that
    differs from the lexicographically-first bull."""
    s3 = build_s(3)
    assert is_bull_free(s3) == BullResult(False, (0, 1, 6, 10, 12))
    assert bull_by_subsets(s3).witness != (0, 1, 6, 10, 12)
    assert is_bull_free(build_hk(uniform_spec(3))) == BullResult(False, (0, 1, 2, 10, 11))


# -- bulls: the triangle sweep against the 5-subset scan -----------------------

def census_family_members():
    yield from (build_gk(k) for k in range(3, 8))
    for build in (build_hk, build_h_plus):
        for i in range(32):
            yield build(HkSpec(3, tuple(3 + (i >> j & 1) for j in range(5))))
    yield from (build_dn(n) for n in range(15, 41))
    yield from (build_gkm(k, m) for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)))
    yield from (build_s(k) for k in (3, 4))


def test_bull_search_matches_subset_scan():
    rng = random.Random(41)
    graphs = list(census_family_members())
    graphs += [random_chordal(rng.randint(5, 20), rng) for _ in range(30)]
    graphs += [gnp(rng.randint(5, 13), rng.choice((0.2, 0.35, 0.5, 0.7)), rng)
               for _ in range(1200)]
    outcomes = [0, 0]
    for g in graphs:
        res = is_bull_free(g)
        assert res.bull_free == bull_by_subsets(g).bull_free
        if res.bull_free:
            assert res.witness is None
        else:
            assert_bull(g, res.witness)
        outcomes[res.bull_free] += 1
    assert min(outcomes) >= 300, outcomes


BULL = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]  # triangle 0 1 2, horns 3 ~ 0, 4 ~ 1


def relabel(edges, perm):
    return [(perm[a], perm[b]) for a, b in edges]


def test_bull_named_cases():
    assert is_bull_free(LabeledGraph(5, BULL)) == BullResult(False, (0, 1, 2, 3, 4))
    for g in (complete_graph(5), path_graph(5)):
        assert is_bull_free(g) == BullResult(True, None)
    # K5 on 0..4 beside a bull on 5..9: the sweep runs past every edge of the K5
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    last = LabeledGraph(10, k5 + relabel(BULL, range(5, 10)))
    assert is_bull_free(last) == BullResult(False, (5, 6, 7, 8, 9))
    # vertex 0 takes each role in turn: horned, tip, horn
    for role, perm in (("horned", (0, 1, 2, 3, 4)), ("tip", (1, 2, 0, 3, 4)),
                       ("horn", (1, 2, 3, 0, 4))):
        g = LabeledGraph(5, relabel(BULL, perm))
        assert is_bull_free(g) == bull_by_subsets(g) == BullResult(False, (0, 1, 2, 3, 4)), role


def test_bull_search_budget():
    for g in (build_gk(7), build_gk(12), build_dn(40)):
        t0 = time.perf_counter()
        is_bull_free(g)
        assert time.perf_counter() - t0 < 0.05
