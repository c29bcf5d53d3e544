import json
import random

import networkx as nx
import pytest

from hendry import (
    GraphError,
    LabeledGraph,
    build_gk,
    complete_graph,
    decode_graph6,
    encode_graph6,
    load_graph,
    save_graph,
    sidecar_dict,
)
from hendry import graph6
from oracles import gnp, same_adjacency


def test_golden_values():
    # computed from the 6-bit upper-triangle layout, confirmed against networkx below
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(complete_graph(1)) == "@"
    assert encode_graph6(LabeledGraph(0)) == "?"
    assert decode_graph6("?").n == 0
    assert decode_graph6("Bw").edge_count == 3


def test_header_roundtrip():
    g = build_gk(2)
    s = graph6.HEADER + encode_graph6(g)
    assert s.startswith(">>graph6<<")
    assert same_adjacency(decode_graph6(s), g)


def test_against_independent_encoder():
    # 200 small random graphs, then every n = 0..70 (the one- and four-byte
    # size headers, and adjacency masks wider than 64 bits) with its empty and
    # complete graphs; networkx's strings are decoded here too
    rng = random.Random(5)
    graphs = [gnp(rng.randint(1, 15), 0.5, rng) for _ in range(200)]
    for n in range(71):
        graphs += [LabeledGraph(n), complete_graph(n), gnp(n, rng.random(), rng)]
    for g in graphs:
        ours = encode_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).strip().decode()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges())
        ours_back = decode_graph6(theirs)
        assert ours_back.n == g.n and ours_back.edges() == g.edges()


def test_roundtrip_identity_random():
    rng = random.Random(11)
    for _ in range(1000):
        g = gnp(rng.randint(0, 20), rng.random(), rng)
        assert same_adjacency(decode_graph6(encode_graph6(g)), g)


def test_roundtrip_gk():
    g = build_gk(3)
    assert same_adjacency(decode_graph6(encode_graph6(g)), g)


def test_multibyte_size():
    g = LabeledGraph(63)  # needs the 3-byte length form
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s).n == 63


def test_decode_errors():
    with pytest.raises(GraphError):
        decode_graph6("")
    with pytest.raises(GraphError):
        decode_graph6("~?")  # truncated multi-byte length
    with pytest.raises(GraphError):
        decode_graph6("Bww")  # trailing garbage
    with pytest.raises(GraphError):
        decode_graph6("B")  # missing edge bits
    with pytest.raises(GraphError):
        decode_graph6("Bw\x19")
    with pytest.raises(GraphError):
        decode_graph6(b"\xff\xfe")  # not ASCII
    # K3 needs 3 bits; set a padding bit below them
    for bad in ("B" + chr(63 + 0b111001), "B" + chr(63 + 0b111100)):
        with pytest.raises(GraphError, match="padding"):
            decode_graph6(bad)


def test_sidecar_roundtrip(tmp_path):
    g = build_gk(3)
    base = str(tmp_path / "gk3")
    g6_path, side_path = save_graph(g, base)
    loaded = load_graph(g6_path)
    assert same_adjacency(loaded, g)
    assert loaded.roles == g.roles
    assert loaded.heavy_edges == g.heavy_edges


def test_sidecar_schema():
    g = build_gk(2)
    d = sidecar_dict(g)
    assert set(d) == {"n", "roles", "heavy_edges"}
    assert d["n"] == 7
    assert all(isinstance(r, str) for r in d["roles"])
    assert all(len(e) == 2 for e in d["heavy_edges"])


def test_sidecar_mismatch(tmp_path):
    g6_path, _ = save_graph(complete_graph(3), str(tmp_path / "k3"))
    side_path = tmp_path / "gk2.json"
    side_path.write_text(json.dumps(sidecar_dict(build_gk(2))))
    with pytest.raises(GraphError):
        load_graph(g6_path, str(side_path))


def test_load_graph_builds_the_labelled_graph_once(tmp_path, monkeypatch):
    g = build_gk(3)
    g6_path, _ = save_graph(g, str(tmp_path / "gk3"))
    built = []

    class Counted(LabeledGraph):
        __slots__ = ()

        def __init__(self, n, *args):
            built.append(n)
            super().__init__(n, *args)

    monkeypatch.setattr(graph6, "LabeledGraph", Counted)
    loaded = load_graph(g6_path)
    assert built == [g.n]
    assert same_adjacency(loaded, g) and loaded.roles == g.roles
    assert loaded.heavy_edges == g.heavy_edges
