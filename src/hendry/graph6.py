"""graph6 encoding and decoding, plus the JSON sidecar for labels.

graph6 packs the upper triangle of the adjacency matrix column-major into
6-bit groups offset by 63, preceded by the size (one byte for n <= 62, the
standard multi-byte forms beyond).  Roles and heavy edges have no graph6 slot,
so they travel in a sidecar: {"n": int, "roles": [str], "heavy_edges": [[u,v]]}.
"""

from __future__ import annotations

import json
import os

from .core import GraphError, LabeledGraph

HEADER = ">>graph6<<"


def _size_groups(n: int) -> list[int]:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    raise GraphError("vertex count too large for graph6")


def encode_graph6(g: LabeledGraph, header: bool = False) -> str:
    """Encode adjacency as a graph6 string (roles are not encoded)."""
    groups = _size_groups(g.n)
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                groups.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        groups.append(acc << (6 - nbits))
    s = "".join(chr(63 + v) for v in groups)
    return HEADER + s if header else s


def decode_graph6(data) -> LabeledGraph:
    """Decode a graph6 string (optionally with header) into an unlabeled graph."""
    return LabeledGraph(*_decode(data))


def _decode(data) -> tuple[int, list[tuple[int, int]]]:
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError:
            raise GraphError("graph6 data is not ASCII text") from None
    s = data.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    vals = []
    for ch in s:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise GraphError(f"invalid graph6 byte {ch!r}")
        vals.append(o - 63)
    if not vals:
        raise GraphError("empty graph6 string")

    if vals[0] != 63:
        n = vals[0]
        pos = 1
    elif len(vals) >= 2 and vals[1] != 63:
        if len(vals) < 4:
            raise GraphError("malformed graph6 length header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
    else:
        if len(vals) < 8:
            raise GraphError("malformed graph6 length header")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = vals[pos:]
    if len(body) < need:
        raise GraphError("graph6 string truncated")
    if len(body) > need:
        raise GraphError("trailing garbage after graph6 data")

    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            group = body[idx // 6]
            bit = (group >> (5 - idx % 6)) & 1
            if bit:
                edges.append((i, j))
            idx += 1
    if need:
        pad = body[-1] & ((1 << (6 * need - nbits)) - 1) if 6 * need != nbits else 0
        if pad:
            raise GraphError("non-canonical padding bits set")
    return n, edges


# -- sidecar -----------------------------------------------------------------

def sidecar_dict(g: LabeledGraph) -> dict:
    return {
        "n": g.n,
        "roles": list(g.roles),
        "heavy_edges": [[u, v] for u, v in g.heavy_edges],
    }


def apply_sidecar(g: LabeledGraph, side: dict) -> LabeledGraph:
    return LabeledGraph(g.n, g.edges(), *_sidecar_labels(g.n, side))


def _sidecar_labels(n: int, side: dict) -> tuple[list[str] | None, list[list[int]]]:
    if not isinstance(side, dict):
        raise GraphError("sidecar must be a JSON object")
    if side.get("n") != n:
        raise GraphError("sidecar vertex count does not match graph6 data")
    roles = side.get("roles")
    if roles is not None and (not isinstance(roles, list)
                              or not all(isinstance(r, str) for r in roles)):
        raise GraphError("sidecar roles must be a list of strings")
    heavy = side.get("heavy_edges", [])
    if not isinstance(heavy, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
            for e in heavy):
        raise GraphError("sidecar heavy_edges must be a list of [int, int] pairs")
    return roles, heavy


def save_graph(g: LabeledGraph, base_path: str) -> tuple[str, str]:
    """Write <base>.g6 and <base>.json; returns the two paths."""
    g6_path = base_path + ".g6"
    side_path = base_path + ".json"
    with open(g6_path, "w") as f:
        f.write(encode_graph6(g) + "\n")
    with open(side_path, "w") as f:
        json.dump(sidecar_dict(g), f, indent=2)
        f.write("\n")
    return g6_path, side_path


def load_graph(g6_path: str, sidecar_path: str | None = None) -> LabeledGraph:
    """Read a graph6 file, attaching the sidecar when present."""
    with open(g6_path, "rb") as f:
        n, edges = _decode(f.read())
    if sidecar_path is None:
        base = g6_path[:-3] if g6_path.endswith(".g6") else g6_path
        candidate = base + ".json"
        sidecar_path = candidate if os.path.exists(candidate) else None
    if sidecar_path is None:
        return LabeledGraph(n, edges)
    with open(sidecar_path) as f:
        try:
            side = json.load(f)
        except ValueError as exc:
            raise GraphError(f"sidecar {sidecar_path} is not valid JSON: {exc}")
    return LabeledGraph(n, edges, *_sidecar_labels(n, side))
