"""graph6 encoding and decoding, plus the JSON sidecar for labels.

graph6 packs the upper triangle of the adjacency matrix column-major into
6-bit groups offset by 63, preceded by the size (one byte for n <= 62, the
standard multi-byte forms beyond).  Column j holds the pairs (0, j) .. (j-1, j),
so the encoder reads it off vertex j's adjacency mask and the decoder cuts one
bit string into columns.  Roles and heavy edges have no graph6 slot, so they
travel in a one-line JSON sidecar:
{"n": int, "roles": [str], "heavy_edges": [[u,v]]}.

save_graph overwrites both files in place: it writes the new bytes over the
old ones and then cuts each file to their length, rather than truncating it to
zero first.  Neither file is fsync'ed.
"""

from __future__ import annotations

import json
import os

from .core import GraphError, LabeledGraph

HEADER = ">>graph6<<"
# a 6-bit group as a string of six bits, and as its graph6 character
_GROUP_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}
_CHAR_BITS = {chr(63 + v): format(v, "06b") for v in range(64)}


def _size_groups(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    raise GraphError("vertex count too large for graph6")


def encode_graph6(g: LabeledGraph) -> str:
    """Encode adjacency as a graph6 string (roles are not encoded).

    Column j is the low j bits of vertex j's adjacency mask, vertex 0 first."""
    bits = "".join([format(m & ((1 << j) - 1), f"0{j}b")[::-1]
                    for j, m in enumerate(g.adjacency_masks()) if j])
    bits += "0" * (-len(bits) % 6)
    return "".join([chr(63 + v) for v in _size_groups(g.n)]
                   + [_GROUP_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)])


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
    if not s:
        raise GraphError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise GraphError(f"invalid graph6 byte {ch!r}")
    vals = [ord(ch) - 63 for ch in s[:8]]
    # the size takes 1, 4 or 8 bytes, each longer form behind one more 63
    pos = 1 if vals[0] != 63 else 4 if vals[1:2] != [63] else 8
    if len(vals) < pos:
        raise GraphError("malformed graph6 length header")
    n = 0
    for v in vals[pos // 4:pos]:
        n = (n << 6) | v

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos < need:
        raise GraphError("graph6 string truncated")
    if len(s) - pos > need:
        raise GraphError("trailing garbage after graph6 data")
    bits = "".join(map(_CHAR_BITS.__getitem__, s[pos:]))
    if "1" in bits[nbits:]:
        raise GraphError("non-canonical padding bits set")

    edges = [(i, j) for j in range(1, n)
             for i, bit in enumerate(bits[j * (j - 1) // 2:j * (j + 1) // 2]) if bit == "1"]
    return n, edges


# -- sidecar -----------------------------------------------------------------

def sidecar_dict(g: LabeledGraph) -> dict:
    return {
        "n": g.n,
        "roles": list(g.roles),
        "heavy_edges": [[u, v] for u, v in g.heavy_edges],
    }


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


def _overwrite(path: str, text: str) -> None:
    """Write text over path's old bytes, then cut the file to its length.

    A new file gets mode 0o666 & ~umask, as open(path, "w") gives."""
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = len(data)
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def save_graph(g: LabeledGraph, base_path: str) -> tuple[str, str]:
    """Write <base>.g6 and <base>.json; returns the two paths.

    Each file is overwritten in place, never truncated to zero first: on ext4
    (auto_da_alloc) truncating a non-empty file to zero makes the kernel start
    writeback when it is closed, and the next rewrite waits on that I/O.  That
    implicit writeback is all this gives up.  Durability is not promised:
    hendry has never fsync'ed these files, and they can be regenerated from
    the command that wrote them.  An unwritable path raises OSError; the .g6
    file is written first, so a bad .g6 path writes no sidecar.
    """
    g6_path = base_path + ".g6"
    side_path = base_path + ".json"
    _overwrite(g6_path, encode_graph6(g) + "\n")
    _overwrite(side_path, json.dumps(sidecar_dict(g)) + "\n")
    return g6_path, side_path


def load_graph(g6_path: str, sidecar_path: str | None = None) -> LabeledGraph:
    """Read a graph6 file, attaching the sidecar when present.

    Without an explicit sidecar path, <base>.json is opened if it exists; an
    explicit path that does not exist is an error."""
    with open(g6_path, "rb") as f:
        n, edges = _decode(f.read())
    explicit = sidecar_path is not None
    if not explicit:
        sidecar_path = (g6_path[:-3] if g6_path.endswith(".g6") else g6_path) + ".json"
    try:
        with open(sidecar_path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        if explicit:
            raise
        return LabeledGraph(n, edges)
    try:
        side = json.loads(raw)
    except ValueError as exc:
        raise GraphError(f"sidecar {sidecar_path} is not valid JSON: {exc}")
    return LabeledGraph(n, edges, *_sidecar_labels(n, side))
