import os
import random
import subprocess
import sys
import types
from pathlib import Path

import networkx as nx
import pytest

import hendry
from hendry import (
    BullResult,
    ChordalityResult,
    ConnectivityCert,
    Cycle,
    ExtensionVerdict,
    GraphError,
    HkSpec,
    HostTree,
    LabeledGraph,
    SubtreeModel,
    complete_graph,
    cycle_from_edge_set,
    disjoint_union,
    empty_graph,
    join,
    paste_clique,
    path_graph,
)
from hendry.core import shortest_path
from hendry.cycles import _Kernel
from oracles import contract_parts, cycle_graph, gnp, induced, is_isomorphic, same_adjacency


PUBLIC_NAMES = {
    "BullResult", "ChordalityResult", "ConnectivityCert", "CyclableTable", "Cycle",
    "ExtensionVerdict", "GraphError", "HkSpec", "HostTree", "LabeledGraph", "SizeCapError",
    "SubtreeModel", "build_cyclable_table", "build_dn", "build_gk", "build_gkm",
    "build_h_plus", "build_hendry_exception", "build_hk", "build_hkm", "build_jk", "build_s",
    "clique_tree", "complete_graph", "cycle_from_edge_set", "decode_graph6",
    "disjoint_union", "empty_graph", "encode_graph6", "explicit_model_hk",
    "explicit_model_jk", "find_heavy_cycle", "find_simple_elimination_order",
    "find_spanning_cycle", "gk_reference_elimination_order", "heavy_edge_names",
    "induces_path", "is_bull_free", "is_chordal", "is_cycle_extendible",
    "is_fully_cycle_extendible", "is_pt_free", "is_s_cycle_extendible",
    "is_simple_elimination_order", "is_strongly_chordal", "join", "lift_cycle",
    "load_graph", "longest_induced_path", "maximal_cliques_chordal", "mcs_order",
    "paste_clique", "pasted_vertices", "path_graph", "peo_violation", "save_graph",
    "sidecar_dict", "subset_cap", "tree_stats", "verify_model", "vertex_connectivity",
    "witness_heavy_ham_cycle", "witness_long_heavy_cycle",
}


def test_public_names():
    # helpers only the tests call live in tests/oracles.py, not in the package
    exported = {name for name, value in vars(hendry).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_importing_the_cli_generates_no_code():
    """The package defines no dataclasses: each one generates and execs code
    as its module loads, and the first pulls in dataclasses, inspect, ast, dis
    and tokenize, in every CLI process.  A fresh interpreter imports
    hendry.cli; modules it had loaded before (at site start-up) do not count."""
    probe = ("import sys; before = set(sys.modules); import hendry.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(hendry.__file__).parent.parent)}
    added = set(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                               text=True, check=True, timeout=60).stdout.split())
    assert "hendry.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


# each immutable value type with the fields of one value; the last two hold a
# dict or lists, so they are immutable but not hashable
VALUES = [
    (ChordalityResult, (False, None, (0, 1, 2, 3))),
    (BullResult, (False, (0, 1, 2, 3, 4))),
    (ExtensionVerdict, (False, frozenset({0, 1, 2}))),
    (ConnectivityCert, (2, (3, 5), False)),
    (HkSpec, (3, (3, 4, 5, 3, 3))),
    (SubtreeModel, (HostTree(2, [(0, 1)]), {0: frozenset({0, 1})})),
    (_Kernel, ([6, 5, 3], [], [1, 2, 4], 3, [6, 5, 3], {}, [])),
]


@pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_types_are_immutable_tuples(cls, fields):
    value = cls(*fields)
    assert value == cls(*fields) == fields and tuple(value) == fields
    assert value == cls(**dict(zip(value._fields, fields)))
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):  # no instance dict either
        value.note = None
    if cls not in (SubtreeModel, _Kernel):
        assert hash(value) == hash(cls(*fields))


@pytest.mark.parametrize("cls", [ChordalityResult, BullResult, ExtensionVerdict],
                         ids=lambda cls: cls.__name__)
def test_result_truth_is_the_verdict(cls):
    rest = (None,) * (len(cls._fields) - 1)
    assert bool(cls(True, *rest)) is True and bool(cls(False, *rest)) is False


def test_basic_validation():
    with pytest.raises(GraphError):
        LabeledGraph(3, [(0, 0)])
    with pytest.raises(GraphError):
        LabeledGraph(3, [(0, 5)])
    with pytest.raises(GraphError):
        LabeledGraph(3, [(0, 1)], roles=["a", "a", ""])
    with pytest.raises(GraphError):
        LabeledGraph(3, [(0, 1)], heavy_edges=[(0, 2)])


def test_adjacency_is_symmetric_and_irreflexive():
    g = LabeledGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    for v in range(g.n):
        assert v not in g.neighbors(v)
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


def test_join_smallest():
    k2 = join(complete_graph(1), complete_graph(1))
    assert k2.n == 2 and k2.edge_count == 1


def test_join_edge_count():
    # |E| = |E(G)| + |E(H)| + |V(G)||V(H)|: 3 + 6 + 21
    g = join(complete_graph(3), path_graph(7))
    assert g.n == 10
    assert g.edge_count == 30


def test_join_third_dense_exception_shape():
    g = join(empty_graph(2), disjoint_union(complete_graph(1), complete_graph(2)))
    assert g.n == 5
    assert g.edge_count == 0 + 1 + 2 * 3


def test_paste_clique_r2_noop():
    k2 = complete_graph(2)
    g = paste_clique(k2, (0, 1), 2)
    assert same_adjacency(g, k2)


def test_paste_clique_r3_triangle():
    g = paste_clique(complete_graph(2), (0, 1), 3)
    assert same_adjacency(g, complete_graph(3))


def test_paste_clique_counts():
    # r=4 adds 2 vertices and C(4,2)-1 = 5 edges
    from hendry import build_gk
    g = build_gk(3)
    h = paste_clique(g, g.heavy_edges[0], 4)
    assert h.n == g.n + 2
    assert h.edge_count == g.edge_count + 5
    assert all(r.startswith("paste0.") for r in h.roles[g.n:])


def test_paste_clique_errors():
    g = path_graph(3)
    with pytest.raises(GraphError):
        paste_clique(g, (0, 2), 3)
    with pytest.raises(GraphError):
        paste_clique(g, (0, 1), 1)


def test_ids_outside_the_vertex_range_are_graph_errors():
    # index -1 used to read vertex 3's row, and a negative shift raised ValueError
    g = complete_graph(4)
    for u, v in ((-1, 0), (0, -1), (4, 0), (0, 4)):
        with pytest.raises(GraphError, match="out of range"):
            g.has_edge(u, v)
    assert g.has_edge(0, 3) and not path_graph(4).has_edge(0, 3)
    # the paste used to pass its edge check and fail later on "edge (-1,4)"
    with pytest.raises(GraphError, match=r"\(-1,0\) out of range"):
        paste_clique(g, (-1, 0), 3)
    with pytest.raises(GraphError, match="out of range"):
        cycle_from_edge_set(g, [(0, 1), (1, 4), (4, 0)])
    with pytest.raises(GraphError, match="out of range"):
        cycle_from_edge_set(g, [(0, 1), (1, -1), (-1, 0)])


def test_contract_identity():
    g = cycle_graph(5)
    q = contract_parts(g, [[v] for v in range(5)])
    assert same_adjacency(q, g)


def test_contract_rejects_bad_partitions():
    g = path_graph(4)
    with pytest.raises(GraphError):
        contract_parts(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(GraphError):
        contract_parts(g, [[0, 1], [2]])
    with pytest.raises(GraphError):
        contract_parts(g, [[0, 3], [1, 2]])  # disconnected part
    q = contract_parts(g, [[0, 3], [1, 2]], require_connected=False)
    assert q.n == 2


def test_paste_then_contract_recovers_vertex_count():
    g = cycle_graph(5)
    h = paste_clique(g, (0, 1), 5)
    pasted = list(range(5, h.n))
    parts = [[0] + pasted] + [[v] for v in range(1, 5)]
    q = contract_parts(h, parts)
    assert q.n == g.n


def test_cycle_validation():
    g = cycle_graph(4)
    Cycle([0, 1, 2, 3]).validate(g)
    with pytest.raises(GraphError):
        Cycle([0, 2, 1, 3]).validate(g)
    with pytest.raises(GraphError):
        Cycle([0, 1])
    with pytest.raises(GraphError):
        Cycle([0, 1, 1])
    # ids outside 0..n-1 are graph errors, not index or shift errors
    with pytest.raises(GraphError):
        Cycle([7, 0, 1]).validate(g)
    with pytest.raises(GraphError):
        Cycle([0, 1, -1]).validate(g)


def test_cycle_from_edge_set():
    g = cycle_graph(5)
    c = cycle_from_edge_set(g, g.edges())
    assert c.vertex_set == frozenset(range(5))
    with pytest.raises(GraphError):
        cycle_from_edge_set(g, g.edges()[:-1])


def test_cycle_from_two_components_rejected():
    g = LabeledGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(GraphError):
        cycle_from_edge_set(g, g.edges())


def test_roles_lookup():
    g = LabeledGraph(3, [(0, 1), (1, 2)], roles=["a", "b", ""])
    assert g.vertex("a") == 0
    with pytest.raises(GraphError):
        g.vertex("missing")


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, old = induced(g, [0, 1, 2])
    assert old == [0, 1, 2]
    assert sub.edge_count == 2


def test_isomorphism_small():
    assert is_isomorphic(cycle_graph(5), cycle_graph(5))
    assert not is_isomorphic(cycle_graph(5), path_graph(5))
    g = LabeledGraph(4, [(0, 1), (1, 2), (2, 3)])
    h = LabeledGraph(4, [(3, 2), (2, 0), (0, 1)])
    assert is_isomorphic(g, h)


def test_random_construction_invariants():
    # sizes past 64 put the adjacency masks beyond one machine word
    rng = random.Random(42)
    for _ in range(80):
        n = rng.randint(2, 70)
        p = rng.choice((0.05, 0.4, 0.9))
        want = sorted((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
        shuffled = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in want]
        rng.shuffle(shuffled)
        g = LabeledGraph(n, shuffled + shuffled[:3])  # repeats are one edge
        ref = nx.Graph(want)
        ref.add_nodes_from(range(n))
        assert g.edges() == want
        assert g.edge_count == len(want) == ref.number_of_edges()
        for v in range(n):
            assert g.neighbors(v) == sorted(ref[v])
            assert g.degree(v) == ref.degree(v)
            for u in range(n):
                assert g.has_edge(u, v) is ref.has_edge(u, v)


def test_shortest_path_examples():
    masks = cycle_graph(6).adjacency_masks()
    full = (1 << 6) - 1
    # both ways round are shortest; the lower-id predecessor wins
    assert shortest_path(masks, 0, 3, full) == [0, 1, 2, 3]
    assert shortest_path(masks, 0, 3, full & ~(1 << 2)) == [0, 5, 4, 3]
    assert shortest_path(masks, 0, 3, full & ~(1 << 2) & ~(1 << 4)) is None
    assert shortest_path(masks, 0, 3, full & ~(1 << 3)) is None
    # arcs are read one way only
    assert shortest_path([0b10, 0b100, 0], 0, 2, 0b111) == [0, 1, 2]
    assert shortest_path([0b10, 0b100, 0], 2, 0, 0b111) is None


def test_shortest_path_is_shortest_inside_within():
    rng = random.Random(5)
    for _ in range(300):
        g = gnp(rng.randint(2, 10), 0.3, rng)
        s, t = rng.sample(range(g.n), 2)
        within = rng.getrandbits(g.n) | 1 << s
        path = shortest_path(g.adjacency_masks(), s, t, within)
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        h = h.subgraph(v for v in range(g.n) if within >> v & 1)
        if t not in h or not nx.has_path(h, s, t):
            assert path is None
            continue
        assert path[0] == s and path[-1] == t
        assert all(within >> v & 1 for v in path)
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        assert len(path) - 1 == nx.shortest_path_length(h, s, t)
