"""CLI reports pinned byte for byte, `elapsed_ms` aside.

Each case runs `hendry.cli.main` in one working directory, in order (the
README's `check` and `model --input` commands read the files written by the
`generate` commands before them), and compares the exit code and the JSON
report, with every `elapsed_ms` removed, to `golden_cli.json`.  The cases are
the README commands, every `lemma:` mode with its default parameters, the
claims whose default table inputs sit past the old 24-vertex cap, and
`certify --mode extendibility` on the census family members with at most 16
vertices.

Regenerate the golden file (only for a change that is meant to alter a
report) with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from itertools import product
from pathlib import Path

from hendry.cli import main
from hendry.claims import CLAIMS

GOLDEN = Path(__file__).parent / "golden_cli.json"

README = [
    "generate --family hk --k 3 --sizes 3,3,3,3,3 --out h3",
    "check h3.g6 --chordal --strongly-chordal --hamiltonian --connectivity",
    "check h3.g6 --induced-path --pt-free 9 --bull-free",
    "certify --family hk --k 3 --mode extendibility",
    "certify --family hkm --k 3 --m 3 --mode s-extendibility --set 1,2",
    "certify --mode lemma:2.6 --k 4",
    "model --family jk --k 3 --x-order 6 --verify",
    "generate --family dn --n 15 --out some_chordal",
    "model --input some_chordal.g6 --verify",
]


def _census_family_args(max_n: int = 16) -> list[str]:
    """The census family members (gk, hk, hplus, dn, s, gkm) with at most
    max_n vertices, as family arguments."""
    out = [f"--family gk --k {k}" for k in range(3, 8) if 3 * k + 1 <= max_n]
    for fam, sizes in product(("hk", "hplus"), product((3, 4), repeat=5)):
        if 10 + sum(s - 2 for s in sizes) <= max_n:
            out.append(f"--family {fam} --k 3 --sizes {','.join(map(str, sizes))}")
    out += [f"--family dn --n {n}" for n in range(15, max_n + 1)]
    out.append("--family s --k 3")
    out += [f"--family gkm --k {k} --m {m}" for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
            if 3 * k + 1 + m <= max_n]
    return out


def cases() -> list[str]:
    out = list(README)
    out += [f"certify --mode lemma:{cid}" for cid in CLAIMS]
    out += ["certify --mode lemma:2.8 --sizes 5,5,5,5,5",
            "certify --mode lemma:3.1 --sizes 5,5,5,5,5"]
    out += [f"certify {fam} --mode extendibility" for fam in _census_family_args()]
    out += ["certify --family s --k 3 --mode s-extendibility --set 1,2,3",
            "certify --family gk --k 4 --mode s-extendibility --set 1,2"]
    return out


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def run_cases() -> list[dict]:
    """[{"argv", "exit", "report"}] for every case, run in a fresh directory."""
    out = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for line in cases():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = main(line.split())
                out.append({"argv": line, "exit": code,
                            "report": _strip_elapsed(json.loads(buf.getvalue()))})
        finally:
            os.chdir(here)
    return out


def test_cli_reports_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = run_cases()
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_cases(), indent=1, sort_keys=True) + "\n")
