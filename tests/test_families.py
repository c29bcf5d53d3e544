from itertools import product

import pytest

from hendry import (
    GraphError,
    HkSpec,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    lift_cycle,
    pasted_vertices,
    witness_heavy_ham_cycle,
    witness_long_heavy_cycle,
)
from oracles import (
    blowup_parts,
    contract_parts,
    gk_by_join,
    h_plus_by_pasting,
    hk_by_pasting,
    hk_order,
    induced,
    is_isomorphic,
    jk_by_pasting,
    min_degree,
    paste_one_by_one,
    same_adjacency,
    same_labelled_graph,
    uniform_spec,
)


def test_gk_counts():
    g = build_gk(3)
    assert (g.n, g.edge_count, len(g.heavy_edges)) == (10, 30, 5)
    g1 = build_gk(1)
    assert g1.n == 4
    assert [g1.roles[u] for u, v in g1.heavy_edges] == ["x1"]
    assert g1.heavy_edges == ((g1.vertex("x1"), g1.vertex("u1")),)
    with pytest.raises(GraphError):
        build_gk(0)


def test_gk_structure():
    # the clique is complete to the path; path edges are consecutive
    for k in (1, 2, 3, 5):
        g = build_gk(k)
        assert g.edge_count == k * (k - 1) // 2 + 2 * k + k * (2 * k + 1)
        xs = [g.vertex(f"x{i}") for i in range(1, k + 1)]
        path = ([g.vertex(f"u{i}") for i in range(1, k + 1)] + [g.vertex("z")]
                + [g.vertex(f"v{i}") for i in range(k, 0, -1)])
        for x in xs:
            assert all(g.has_edge(x, p) for p in path)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        for i, (a, b) in enumerate(zip(path, path[2:])):
            assert not g.has_edge(a, b)


def test_heavy_edge_order_fixed():
    g = build_gk(3)
    names = [(g.roles[u], g.roles[v]) for u, v in
             [tuple(sorted(e, key=lambda w: g.roles[w])) for e in g.heavy_edges]]
    assert names == [("u1", "x1"), ("u2", "x2"), ("u3", "x3"),
                     ("v1", "x1"), ("v2", "x2")]


def test_hk_counts():
    h = build_hk(uniform_spec(3))
    assert (h.n, h.edge_count) == (15, 40)
    h2 = build_hk(HkSpec(3, (3, 3, 3, 3, 4)))
    assert h2.n == 16
    for spec in (uniform_spec(3), HkSpec(3, (3, 3, 3, 3, 4)), HkSpec(4, (3, 4, 5, 6, 3, 4, 7))):
        assert build_hk(spec).n == hk_order(spec)


def test_hk_spec_errors():
    with pytest.raises(GraphError):
        HkSpec(2, (3, 3, 3))
    with pytest.raises(GraphError):
        HkSpec(3, (3, 3, 3, 3))
    with pytest.raises(GraphError):
        HkSpec(3, (3, 3, 3, 3, 2))
    with pytest.raises(GraphError):  # checked by keyword too
        HkSpec(k=3, clique_sizes=[3, 3, 3, 3])


def test_hk_spec_is_a_hashable_value():
    spec = HkSpec(3, [3, 4, 5, 3, 3])
    assert spec.clique_sizes == (3, 4, 5, 3, 3) and type(spec.clique_sizes) is tuple
    assert spec == HkSpec(k=3, clique_sizes=(3, 4, 5, 3, 3))
    assert {spec: "hk"}[HkSpec(3, (3, 4, 5, 3, 3))] == "hk"


def test_h_plus():
    hp = build_h_plus(uniform_spec(3))
    assert (hp.n, hp.edge_count) == (15, 41)
    assert hp.has_edge(hp.vertex("u1"), hp.vertex("u3"))


def test_s_counts():
    s = build_s(3)
    assert s.n == 16
    assert min_degree(s) == 3
    s4 = build_s(4)
    assert s4.n == 2 * 3 * 5 + 5
    assert min_degree(s4) == 4
    with pytest.raises(GraphError):
        build_s(2)


def test_s_attachment_degrees():
    # attachment vertices see exactly their heavy clique of order k
    for k in (3, 4):
        s = build_s(k)
        for t in s.vertices_with_prefix("T"):
            assert s.degree(t) == k


def test_gkm():
    g = build_gkm(3, 3)
    assert g.n == 13
    assert len(g.heavy_edges) == 5
    g1 = build_gkm(3, 1)
    base = build_gk(3)
    assert g1.n == base.n + 1
    assert not g1.has_edge(g1.vertex("v3"), g1.vertex("z"))
    assert g1.has_edge(g1.vertex("v4"), g1.vertex("z"))
    with pytest.raises(GraphError):
        build_gkm(3, 0)


def test_hkm():
    h = build_hkm(3, 3, (3,) * 5)
    assert h.n == 18
    with pytest.raises(GraphError):
        build_hkm(3, 3, (3,) * 4)


def test_jk():
    j = build_jk(3, (3,) * 5, 6)
    assert j.n == 16
    extras = j.vertices_with_prefix("X")
    assert len(extras) == 1
    anchor = [j.vertex(f"x{i}") for i in (1, 2, 3)] + [j.vertex("z"), j.vertex("v3")]
    assert all(j.has_edge(extras[0], a) for a in anchor)
    with pytest.raises(GraphError):
        build_jk(3, (3,) * 5, 5)


def test_dn():
    assert build_dn(15).edge_count == 40
    assert build_dn(20).edge_count == 65
    with pytest.raises(GraphError):
        build_dn(14)


def test_dn_15_is_uniform_hk():
    assert same_adjacency(build_dn(15), build_hk(uniform_spec(3)))


def test_hendry_exceptions():
    e2 = build_hendry_exception(2, 5)
    assert (e2.n, e2.edge_count) == (5, 7)
    e1 = build_hendry_exception(1, 6)
    deg1 = [v for v in range(e1.n) if e1.degree(v) == 1]
    assert len(deg1) == 1  # the K_1 component hangs off the apex alone
    with pytest.raises(GraphError):
        build_hendry_exception(2, 6)
    with pytest.raises(GraphError):
        build_hendry_exception(4, 6)
    with pytest.raises(GraphError):
        build_hendry_exception(1, 4)


def test_witness_cycles_validate():
    for k in range(1, 9):
        g = build_gk(k)
        c = witness_heavy_ham_cycle(k).validate(g)
        assert c.vertex_set == frozenset(range(g.n))
        assert all(e in c.edge_set() for e in g.heavy_edges)
    for k in range(2, 9):
        g = build_gk(k)
        c = witness_long_heavy_cycle(k).validate(g)
        assert c.vertex_set == frozenset(range(g.n)) - {g.vertex("z"), g.vertex(f"v{k}")}
        assert all(e in c.edge_set() for e in g.heavy_edges)
    with pytest.raises(GraphError):
        witness_heavy_ham_cycle(0)
    with pytest.raises(GraphError):
        witness_long_heavy_cycle(1)


def test_lift_cycle():
    h = build_hk(uniform_spec(3))
    lifted = lift_cycle(witness_heavy_ham_cycle(3), h)
    assert len(lifted) == 15
    assert lifted.vertex_set == frozenset(range(h.n))
    long = lift_cycle(witness_long_heavy_cycle(3), h)
    assert len(long) == 13
    assert frozenset(range(h.n)) - long.vertex_set == \
        {h.vertex("z"), h.vertex("v3")}


def test_lift_one_vertex_per_triangle():
    h = build_hk(uniform_spec(3))
    base = witness_heavy_ham_cycle(3)
    lifted = lift_cycle(base, h)
    assert len(lifted) - len(base) == 5


def test_lift_requires_all_heavy_edges():
    h = build_hk(uniform_spec(3))
    from hendry import Cycle
    triangle = Cycle([h.vertex("x1"), h.vertex("u1"), h.vertex("x2")]).validate(h)
    with pytest.raises(GraphError):
        lift_cycle(triangle, h)


def test_pasted_vertices_order():
    h = build_hk(HkSpec(3, (5, 3, 3, 3, 3)))
    ps = pasted_vertices(h, 0)
    assert len(ps) == 3
    assert ps == sorted(ps)


def _expected_hk_all3(kp):
    return paste_one_by_one(build_gk(kp), (3,) * (2 * kp - 1))


def _size_vectors(k):
    """The census clique sizes at k = 3, a uniform and a mixed vector beyond."""
    if k == 3:
        return list(product((3, 4), repeat=5))
    mixed = tuple(3 + i % 3 for i in range(2 * k - 1))
    return [(3,) * (2 * k - 1), mixed]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_builders_equal_their_primitive_compositions(k):
    # each builder makes its graph in one pass; the slow twins compose the
    # public primitives (join, repeated paste_clique, with_added_edges)
    for kk in ([1, 2, 3, 6, 7] if k == 3 else [k]):
        assert same_labelled_graph(build_gk(kk), gk_by_join(kk))
    for sizes in _size_vectors(k):
        spec = HkSpec(k, sizes)
        assert same_labelled_graph(build_hk(spec), hk_by_pasting(spec))
        assert same_labelled_graph(build_h_plus(spec), h_plus_by_pasting(spec))
        for m in (1, 2, 3):
            assert same_labelled_graph(build_hkm(k, m, sizes),
                                       paste_one_by_one(build_gkm(k, m), sizes))
        for x_order in (k + 3, k + 5):
            assert same_labelled_graph(build_jk(k, sizes, x_order),
                                       jk_by_pasting(k, sizes, x_order))
    if k == 3:
        # paste i's fresh vertices are paste<i>.0, paste<i>.1, ... in order
        assert build_hk(HkSpec(3, (4, 3, 3, 3, 5))).roles[10:] == (
            "paste0.0", "paste0.1", "paste1.0", "paste2.0", "paste3.0",
            "paste4.0", "paste4.1", "paste4.2")
        for n in range(15, 41):
            assert same_labelled_graph(build_dn(n),
                                       hk_by_pasting(HkSpec(3, (3, 3, 3, 3, n - 12))))


def _blowup_to_base_parts(g, k, with_attachments):
    parts = [[g.vertex(f"x{i}")] for i in range(1, k)]
    parts += [g.vertices_with_prefix(f"F{i}.") for i in range(1, k)]
    parts += [[g.vertex("z")], [g.vertex(f"v{k}")]]
    parts += [g.vertices_with_prefix(f"F'{i}.") for i in range(k - 2, 0, -1)]
    if with_attachments:
        parts += [g.vertices_with_prefix(f"T{i}.") for i in range(1, k)]
        parts += [g.vertices_with_prefix(f"T'{i}.") for i in range(1, k - 1)]
    return parts


def test_contract_r_recovers_base():
    # R, the blow-up core, is s(3) without its T blocks (numbered last)
    s = build_s(3)
    r, _ = induced(s, (v for v in range(s.n) if not s.roles[v].startswith("T")))
    q = contract_parts(r, _blowup_to_base_parts(r, 3, False))
    assert is_isomorphic(q, build_gk(2))


def test_contract_s_recovers_pasted_base():
    # k=3: brute-force isomorphism on the 10-vertex quotient
    s = build_s(3)
    q = contract_parts(s, _blowup_to_base_parts(s, 3, True),
                       require_connected=False)
    assert is_isomorphic(q, _expected_hk_all3(2))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_contract_s_labeled_equality(k):
    # the part order is chosen to match the pasted base's vertex numbering,
    # so the quotient agrees edge-for-edge, no isomorphism search needed
    s = build_s(k)
    q = contract_parts(s, _blowup_to_base_parts(s, k, True),
                       require_connected=False)
    assert same_adjacency(q, _expected_hk_all3(k - 1))


def test_blowup_parts_helper():
    s = build_s(3)
    parts = blowup_parts(s, 3)
    assert set(parts) == {"F1", "F2", "F'1", "T1", "T2", "T'1"}
    assert all(len(vs) == 2 for vs in parts.values())
