import json
import os
import random
import stat

import networkx as nx
import pytest

from hendry import (
    GraphError,
    LabeledGraph,
    build_dn,
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
    # K3 in the 4- and 8-byte size forms, which the encoder only writes past
    # 62 and 258047 vertices
    for header in ("~??B", "~~?????B"):
        assert decode_graph6(header + "w").edges() == [(0, 1), (0, 2), (1, 2)]


def test_decode_errors():
    with pytest.raises(GraphError):
        decode_graph6("")
    for text in ("~", "~?", "~??", "~~", "~~?????"):  # each long size form cut short
        with pytest.raises(GraphError, match="malformed graph6 length header"):
            decode_graph6(text)
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


def test_save_graph_overwrites_a_longer_pair_of_files(tmp_path):
    # dn(30)'s files are longer than gk(2)'s: a rewrite that kept their tails
    # would leave trailing garbage in the .g6 file and broken JSON beside it
    base = str(tmp_path / "g")
    save_graph(build_dn(30), base)
    small = build_gk(2)
    g6_path, side_path = save_graph(small, base)
    assert (g6_path, side_path) == (base + ".g6", base + ".json")
    with open(g6_path, "rb") as f:
        assert f.read() == (encode_graph6(small) + "\n").encode()
    with open(side_path, "rb") as f:
        assert f.read() == (json.dumps(sidecar_dict(small)) + "\n").encode()
    loaded = load_graph(g6_path)
    assert same_adjacency(loaded, small)
    assert (loaded.roles, loaded.heavy_edges) == (small.roles, small.heavy_edges)


def test_save_graph_creates_files_with_the_mode_open_gives(tmp_path):
    # under umask 0 any mode other than open()'s 0o666 shows
    old_umask = os.umask(0)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        g6_path, side_path = save_graph(build_gk(2), str(tmp_path / "g"))
    finally:
        os.umask(old_umask)
    want = stat.S_IMODE(os.stat(tmp_path / "reference").st_mode)
    assert want == 0o666
    assert stat.S_IMODE(os.stat(g6_path).st_mode) == want
    assert stat.S_IMODE(os.stat(side_path).st_mode) == want


def test_load_graph_without_a_sidecar_is_unlabelled(tmp_path):
    g = build_gk(2)
    g6_path, side_path = save_graph(g, str(tmp_path / "g"))
    os.remove(side_path)
    loaded = load_graph(g6_path)
    assert same_adjacency(loaded, g)
    assert (loaded.roles, loaded.heavy_edges) == (("",) * g.n, ())
    with pytest.raises(FileNotFoundError):  # a named sidecar must exist
        load_graph(g6_path, side_path)
