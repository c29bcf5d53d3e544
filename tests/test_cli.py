import json
import re
import time
from pathlib import Path

import jsonschema
import pytest

from hendry import (
    Cycle, GraphError, HkSpec, build_dn, build_gk, build_gkm, build_h_plus, build_hendry_exception,
    build_hk, build_hkm, build_jk, build_s, chordal, cli, cycles, encode_graph6, load_graph,
    save_graph, structure,
)
from hendry.claims import CLAIMS, CheckResult, ClaimRun, run_claim
from hendry.cli import main
from oracles import cycle_graph, uniform_spec

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout):
    rep = json.loads(stdout)
    if rep.get("command") in ("check", "certify", "model"):
        jsonschema.validate(rep, SCHEMA)
    return rep


def test_generate_hk(tmp_path, capsys):
    out = str(tmp_path / "h")
    code, stdout, _ = run_cli(capsys, "generate", "--family", "hk", "--k", "3",
                              "--sizes", "3,3,3,3,3", "--out", out)
    assert code == 0
    info = json.loads(stdout)
    assert (info["n"], info["edges"], info["heavy_edges"]) == (15, 40, 5)
    assert (tmp_path / "h.g6").exists() and (tmp_path / "h.json").exists()
    side = json.loads((tmp_path / "h.json").read_text())
    assert side["n"] == 15 and len(side["heavy_edges"]) == 5


def test_each_command_writes_one_line_of_json(tmp_path, capsys):
    base = str(tmp_path / "h")
    runs = [("generate", "--family", "hk", "--k", "3", "--sizes", "3,4,3,4,3", "--out", base),
            ("check", base + ".g6", "--chordal", "--hamiltonian", "--connectivity"),
            ("model", "--input", base + ".g6", "--verify"),
            ("certify", "--input", base + ".g6", "--mode", "extendibility")]
    for argv in runs:
        code, stdout, _ = run_cli(capsys, *argv)
        assert code in (0, 1), argv
        assert stdout.endswith("\n") and stdout.count("\n") == 1, argv
        assert report_of(stdout)["command"] == argv[0]
    # the one-line sidecar carries the labels back
    g = build_hk(HkSpec(3, (3, 4, 3, 4, 3)))
    loaded = load_graph(base + ".g6")
    assert (loaded.n, loaded.edges()) == (g.n, g.edges())
    assert (loaded.roles, loaded.heavy_edges) == (g.roles, g.heavy_edges)
    assert (tmp_path / "h.json").read_text().count("\n") == 1


# every --family value: its flags, the report's input text and the same graph built directly
FAMILY_CASES = [
    ("gk", "--k 3", "gk(k=3)", lambda: build_gk(3)),
    ("hk", "--k 3 --sizes 3,4,3,4,3", "hk(k=3, sizes=(3, 4, 3, 4, 3))",
     lambda: build_hk(HkSpec(3, (3, 4, 3, 4, 3)))),
    ("hplus", "--k 3", "hplus(k=3, sizes=(3, 3, 3, 3, 3))",
     lambda: build_h_plus(uniform_spec(3))),
    ("s", "--k 3", "s(k=3)", lambda: build_s(3)),
    ("gkm", "--k 3 --m 2", "gkm(k=3, m=2)", lambda: build_gkm(3, 2)),
    ("hkm", "--k 3 --m 1 --sizes 3,5,3,3,3", "hkm(k=3, m=1, sizes=(3, 5, 3, 3, 3))",
     lambda: build_hkm(3, 1, (3, 5, 3, 3, 3))),
    ("jk", "--k 3", "jk(k=3, sizes=(3, 3, 3, 3, 3), x_order=6)",
     lambda: build_jk(3, (3, 3, 3, 3, 3), 6)),
    ("dn", "--n 16", "dn(n=16)", lambda: build_dn(16)),
    ("hendry-exception", "--which 3 --n 7", "hendry-exception(which=3, n=7)",
     lambda: build_hendry_exception(3, 7)),
]


@pytest.mark.parametrize("family, flags, desc, build", FAMILY_CASES)
def test_generate_every_family(tmp_path, capsys, family, flags, desc, build):
    code, stdout, _ = run_cli(capsys, "generate", "--family", family, *flags.split(),
                              "--out", str(tmp_path / "cli"))
    assert code == 0
    g = build()
    info = json.loads(stdout)
    assert (info["input"], info["n"], info["edges"], info["heavy_edges"]) == \
        (desc, g.n, g.edge_count, len(g.heavy_edges))
    save_graph(g, str(tmp_path / "direct"))
    for ext in (".g6", ".json"):
        assert (tmp_path / f"cli{ext}").read_bytes() == (tmp_path / f"direct{ext}").read_bytes()


def test_families_build_through_the_cli_names(tmp_path, capsys, monkeypatch):
    # a wrapper put on a builder's name in cli (as the benchmark's tracer
    # does) sees every family build
    called = []
    for name in [n for n in vars(cli) if n.startswith("build_") and n != "build_parser"]:
        monkeypatch.setattr(cli, name, lambda *a, _real=getattr(cli, name), _name=name:
                            called.append(_name) or _real(*a))
    for family, flags, _, _ in FAMILY_CASES:
        code, _, _ = run_cli(capsys, "generate", "--family", family, *flags.split(),
                             "--out", str(tmp_path / family))
        assert code == 0, family
    assert called == ["build_gk", "build_hk", "build_h_plus", "build_s", "build_gkm",
                      "build_hkm", "build_jk", "build_dn", "build_hendry_exception"]


@pytest.mark.parametrize("family, flags, missing", [
    ("gk", "", "--k"), ("hk", "", "--k"), ("hplus", "--sizes 3,3,3,3,3", "--k"),
    ("s", "", "--k"), ("gkm", "--k 3", "--m"), ("gkm", "--m 1", "--k"),
    ("hkm", "--k 3", "--m"), ("jk", "--x-order 6", "--k"), ("dn", "--k 3", "--n"),
    ("hendry-exception", "--n 6", "--which"), ("hendry-exception", "--which 1", "--n")])
def test_family_missing_flag_is_named(tmp_path, capsys, family, flags, missing):
    code, stdout, err = run_cli(capsys, "generate", "--family", family, *flags.split(),
                                "--out", str(tmp_path / "g"))
    assert code == 2
    assert stdout == "" and err == f"error: family {family} needs {missing}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, desc", [
    (("--family", "hk", "--k", "4", "--sizes", "3,3,3,4,3,3,3"), "hk(k=4)"),
    (("--family", "jk", "--k", "4", "--x-order", "8"), "jk(k=4)")])
def test_model_family_description_names_k(capsys, argv, desc):
    code, stdout, _ = run_cli(capsys, "model", *argv, "--verify")
    assert code == 0
    rep = report_of(stdout)
    assert rep["input"] == desc
    assert list(rep) == ["command", "input", "version", "parameters", "model", "results"]


def test_generate_dn(tmp_path, capsys):
    out = str(tmp_path / "d")
    code, stdout, _ = run_cli(capsys, "generate", "--family", "dn", "--n", "20",
                              "--out", out)
    assert code == 0
    assert json.loads(stdout)["edges"] == 65


def test_generate_bad_params_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "gk", "--k", "0",
                           "--out", str(tmp_path / "g"))
    assert code == 2
    assert "error" in err


def test_generate_to_an_unwritable_g6_path_exit_2(tmp_path, capsys):
    # a directory stands in for an unwritable file: root can write a
    # read-only file, but nobody can open a directory for writing
    (tmp_path / "g.g6").mkdir()
    code, stdout, err = run_cli(capsys, "generate", "--family", "gk", "--k", "3",
                                "--out", str(tmp_path / "g"))
    assert code == 2
    assert stdout == "" and err.startswith("error:")
    assert not (tmp_path / "g.json").exists()


def test_check_hk_properties(tmp_path, capsys):
    out = str(tmp_path / "h")
    run_cli(capsys, "generate", "--family", "hk", "--k", "3", "--out", out)
    code, stdout, _ = run_cli(capsys, "check", out + ".g6", "--chordal",
                              "--strongly-chordal", "--hamiltonian")
    assert code == 0
    rep = report_of(stdout)
    names = [r["name"] for r in rep["results"]]
    assert names == sorted(names)
    assert all(r["verdict"] is True for r in rep["results"])


def test_check_c6_chordal_fails(tmp_path, capsys):
    p = tmp_path / "c6.g6"
    p.write_text(encode_graph6(cycle_graph(6)) + "\n")
    code, stdout, _ = run_cli(capsys, "check", str(p), "--chordal")
    assert code == 1
    rep = report_of(stdout)
    (res,) = rep["results"]
    assert res["verdict"] is False
    assert len(res["witness"]) >= 4  # the chordless cycle certificate


def test_check_cap_exceeded_exit_3(tmp_path, capsys):
    from hendry import complete_graph
    p = tmp_path / "k41.g6"
    p.write_text(encode_graph6(complete_graph(41)) + "\n")
    code, stdout, err = run_cli(capsys, "check", str(p), "--hamiltonian")
    assert code == 3
    rep = report_of(stdout)
    (res,) = rep["results"]
    assert res["verdict"] is None
    assert "cap exceeded" in res["detail"]


def test_check_hamiltonian_past_table_cap(capsys):
    # the search cap (40), not the table cap (24), bounds --hamiltonian
    code, stdout, _ = run_cli(capsys, "check", "--family", "dn", "--n", "26",
                              "--hamiltonian")
    assert code == 0
    (res,) = report_of(stdout)["results"]
    assert res["verdict"] is True
    g = build_dn(26)
    assert Cycle(res["witness"]).validate(g).vertex_set == frozenset(range(g.n))


def test_malformed_sidecar_is_usage_error(tmp_path, capsys):
    g6 = tmp_path / "c4.g6"
    g6.write_text(encode_graph6(cycle_graph(4)) + "\n")
    side = tmp_path / "c4.json"
    for raw in ('{not json', '[1, 2]',
                '{"n": 4, "heavy_edges": [[0]]}',
                '{"n": 4, "heavy_edges": [["0", "1"]]}',
                '{"n": 4, "roles": "abcd"}',
                '{"n": 4, "roles": [1, 2, 3, 4]}',
                '{"n": 4, "heavy_edges": [[7, 8]]}',
                '{"n": 4, "heavy_edges": [[-1, 0]]}',
                '{"n": 4, "heavy_edges": [[0, 1], [1, 0]]}'):
        side.write_text(raw)
        code, stdout, err = run_cli(capsys, "check", str(g6), "--sidecar", str(side),
                                    "--chordal")
        assert code == 2, raw
        assert stdout == "" and err.startswith("error:"), raw


def test_check_structure_fields(tmp_path, capsys):
    out = str(tmp_path / "s")
    run_cli(capsys, "generate", "--family", "s", "--k", "3", "--out", out)
    code, stdout, _ = run_cli(capsys, "check", out + ".g6", "--connectivity",
                              "--induced-path", "--bull-free", "--pt-free", "9")
    rep = report_of(stdout)
    by_name = {r["name"]: r for r in rep["results"]}
    assert by_name["connectivity"]["witness"]["kappa"] == 3
    assert by_name["induced-path"]["witness"]["length"] >= 3


def test_certify_extendibility(capsys):
    code, stdout, _ = run_cli(capsys, "certify", "--family", "hk", "--k", "3",
                              "--sizes", "3,3,3,3,3", "--mode", "extendibility")
    assert code == 1
    rep = report_of(stdout)
    (res,) = rep["results"]
    assert res["verdict"] is False
    assert len(res["witness"]) == 13  # V minus {z, v3}


def test_certify_lemma_26(capsys):
    code, stdout, _ = run_cli(capsys, "certify", "--mode", "lemma:2.6", "--k", "3")
    assert code == 0
    rep = report_of(stdout)
    assert len(rep["results"]) == 4
    assert all(r["verdict"] for r in rep["results"])


@pytest.mark.parametrize("k, want_code, want", [(7, 0, True), (13, 0, True), (14, 3, None)])
def test_certify_lemma_26_up_to_the_search_cap(capsys, k, want_code, want):
    # gk(k) does not shrink, so the kernels of V - z and V - vk keep their 3k
    # vertices: k = 13 fits the 40-vertex search cap, and past it each check
    # is still reported, with a null verdict
    code, stdout, err = run_cli(capsys, "certify", "--mode", "lemma:2.6", "--k", str(k))
    assert code == want_code
    results = report_of(stdout)["results"]
    assert [r["verdict"] for r in results] == [want] * 4
    if want is None:
        for r in results:
            assert r["detail"] == ("cap exceeded: spanning-cycle search capped at 40 "
                                   "kernel vertices, got 42")
            assert f"{r['name']}: {r['detail']}\n" in err


def test_certify_lemma_36(capsys):
    code, stdout, _ = run_cli(capsys, "certify", "--mode", "lemma:3.6", "--k", "3")
    assert code == 0


def test_certify_s_extendibility(capsys):
    code, stdout, _ = run_cli(capsys, "certify", "--family", "hkm", "--k", "3",
                              "--m", "3", "--mode", "s-extendibility",
                              "--set", "1,2")
    assert code == 1
    rep = report_of(stdout)
    (res,) = rep["results"]
    assert res["verdict"] is False


def test_lemma_3_3_at_k5_is_exact_on_its_kernel(capsys):
    # s(5) has 62 vertices, past the 40-vertex search cap, but the cap bounds
    # the kernel, and the chain rule contracts s(5) to 17 vertices
    code, stdout, _ = run_cli(capsys, "certify", "--mode", "lemma:3.3", "--k", "5")
    assert code == 0
    by_name = {r["name"]: r for r in report_of(stdout)["results"]}
    assert {name: r["verdict"] for name, r in by_name.items()} == {
        "s(5): V minus z,v5 cyclable": True,
        "s(5): V minus z not cyclable": True,
        "s(5): V minus v5 not cyclable": True}
    s5 = build_s(5)
    cyc = Cycle(by_name["s(5): V minus z,v5 cyclable"]["witness"]).validate(s5)
    assert cyc.vertex_set == set(range(s5.n)) - {s5.vertex("z"), s5.vertex("v5")}


@pytest.mark.parametrize("k", range(3, 10))
def test_blowup_lemmas_are_exact_up_to_k9(k):
    # s(k) contracts to a kernel of 4k - 3 vertices, so every check answers;
    # at k = 3 the smallest blow-up has a spanning cycle on V - z
    assert all(r.verdict for r in run_claim("3.2", {"k": k}).results)
    verdicts = {r.name: r.verdict for r in run_claim("3.3", {"k": k}).results}
    refuted = {"s(3): V minus z not cyclable"} if k == 3 else set()
    assert {name for name, v in verdicts.items() if v is not True} == refuted
    assert all(v is False for name, v in verdicts.items() if name in refuted)


def test_claim_2_8_is_exact_up_to_k13():
    # hk(k) contracts to gk(k) with its heavy edges forced: V - {z, vk} plus
    # one vertex has 3k vertices, within the 40-vertex search cap up to k = 13;
    # all eleven runs take about 0.02 s on a 2-core VM with Python 3.11
    t0 = time.perf_counter()
    runs = [run_claim("2.8", {"k": k}) for k in range(3, 14)]
    assert time.perf_counter() - t0 < 2.0
    for k, run in zip(range(3, 14), runs):
        assert [r.verdict for r in run.results] == [True, True], k


@pytest.mark.parametrize("claim, k, sizes", [
    ("2.8", 3, "3,3,3,3,3"), ("2.8", 3, "9,9,9,9,9"), ("2.8", 4, None), ("2.8", 5, None),
    ("3.1", 3, "5,5,5,5,5")])
def test_claims_prove_non_extendibility_on_the_frozen_set(capsys, monkeypatch, claim, k, sizes):
    # one check: V - {z, vk} is cyclable and neither one-vertex extension is,
    # with V - {z, vk} as witness; no table is built, so the table cap
    # (lowered to 2^3 cells) changes nothing
    argv = ["certify", "--mode", f"lemma:{claim}"]
    argv += ["--k", str(k)] if claim == "2.8" else []
    argv += ["--sizes", sizes] if sizes else []
    spec = HkSpec(k, tuple(map(int, sizes.split(",")))) if sizes else uniform_spec(k)
    g = (build_h_plus if claim == "3.1" else build_hk)(spec)
    name = "h_plus not cycle extendible" if claim == "3.1" else "not cycle extendible"
    for cap in (None, "3"):
        if cap is None:
            monkeypatch.delenv("HENDRY_SUBSET_CAP", raising=False)
        else:
            monkeypatch.setenv("HENDRY_SUBSET_CAP", cap)
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        by_name = {r["name"]: r for r in report_of(stdout)["results"]}
        assert by_name[name]["verdict"] is True
        assert by_name[name]["witness"] == sorted(
            set(range(g.n)) - {g.vertex("z"), g.vertex(f"v{k}")})
        assert all(r["verdict"] for r in by_name.values())


def _claim_3_4_witness(g, k, m):
    """V minus z, vk and the subdivision v(k+1)..v(k+m): claim 3.4's W."""
    dropped = {g.vertex(role) for role in ["z"] + [f"v{i}" for i in range(k, k + m + 1)]}
    return sorted(set(range(g.n)) - dropped)


@pytest.mark.parametrize("k, m, top", [(3, 3, 2), (4, 6, 5), (6, 8, 7)])
def test_claim_3_4_proves_non_extendibility_past_the_table_cap(capsys, monkeypatch, k, m, top):
    # S = {1..top}: W is cyclable and no W + A is, for A a j-subset of the
    # m + 2 vertices W misses and j in S.  The searches run on kernels of at
    # most 3k+1+m vertices and no table is built, so hkm(4, 6) (2^26 cells)
    # and hkm(6, 8) answer, and lowering the table cap to 2^3 cells changes
    # nothing, the default run (k = 3, m = 3, S = {1,2}) included
    argv = ["certify", "--mode", "lemma:3.4"]
    s_set = ",".join(map(str, range(1, top + 1)))
    if (k, m, top) != (3, 3, 2):
        argv += ["--k", str(k), "--m", str(m), "--set", s_set]
    g = build_hkm(k, m, (3,) * (2 * k - 1))
    for cap in (None, "3"):
        if cap is None:
            monkeypatch.delenv("HENDRY_SUBSET_CAP", raising=False)
        else:
            monkeypatch.setenv("HENDRY_SUBSET_CAP", cap)
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        proof, cyclable = report_of(stdout)["results"]
        assert proof["name"] == f"hkm(k={k},m={m}) not {{{s_set}}}-cycle extendible"
        assert proof["verdict"] is True
        assert proof["witness"] == _claim_3_4_witness(g, k, m)
        assert (cyclable["name"], cyclable["verdict"]) == ("witness is cyclable", True)
        assert Cycle(cyclable["witness"]).validate(g).vertex_set == set(proof["witness"])


def test_claim_3_4_agrees_with_the_table_scan():
    # the claim against the S-extendibility scan of hkm(3, m)'s own table:
    # the same verdict and, at all-3 sizes, the same witness W.  S = {1, m+5}
    # has a jump past the m + 2 vertices W misses.  With S = {m+3} W has no
    # room for a jump (it is exempt), and with S = {2, m+2} W grows into V:
    # the table finds both extendible, and the proof fails without a
    # "witness is cyclable" check.  With a clique of order 4 the table's
    # smallest failing set can differ from W; the verdicts agree and the
    # claim reports W.  A scan of hkm(3, m) with these sets takes 0.04-0.08 s
    # at m = 6, 7 and 0.2-0.4 s at m = 8, 9, most of it in the drop chain of
    # the largest jump, so m = 6..9 get two sets each
    for sizes, ms in (((3,) * 5, range(1, 10)), ((3, 3, 4, 3, 3), range(1, 4))):
        for m in ms:
            h = build_hkm(3, m, sizes)
            for s_set in [(1, m + 5), (m + 3,)] + ([(1, 2), (m,), (2, m + 2)] if m < 6 else []):
                proof, *rest = run_claim("3.4", {"m": m, "sizes": sizes, "s_set": s_set}).results
                scan = cycles.is_s_cycle_extendible(h, s_set)
                assert proof.verdict is not scan.extendible, (sizes, m, s_set)
                assert [r.name for r in rest] == (["witness is cyclable"] if proof.verdict else [])
                assert proof.witness == _claim_3_4_witness(h, 3, m)
                if sizes == (3,) * 5 and not scan.extendible:
                    assert proof.witness == sorted(scan.witness), (m, s_set)


def test_claim_3_4_caps_its_search_count_before_searching(capsys, monkeypatch):
    # the proof runs 1 + sum over j in S of C(m+2, j) searches: m = 12 with
    # S = {1..11} runs its 16278, while m = 20 with S = {1..19} (4194050)
    # hits the cap before the first, so its check alone has a null verdict
    calls = []

    def stub(g, subset=None):  # W is cyclable, no W + A is
        calls.append(subset)
        return "a cycle on W" if len(calls) == 1 else None
    monkeypatch.setattr(cycles, "find_spanning_cycle", stub)
    proof, _ = run_claim("3.4", {"m": 12, "s_set": range(1, 12)}).results
    assert proof.verdict is True and len(calls) == 16278
    calls.clear()
    code, stdout, err = run_cli(capsys, "certify", "--mode", "lemma:3.4", "--k", "3", "--m", "20",
                                "--set", ",".join(map(str, range(1, 20))))
    assert code == 3 and calls == [] and "4194050 spanning-cycle searches" in err
    (proof,) = report_of(stdout)["results"]
    assert (proof["verdict"], proof["witness"]) == (None, None)


@pytest.mark.parametrize("params", [{"s_set": ()}, {"s_set": (), "m": 3}, {"s_set": (0,)}])
def test_claim_3_4_rejects_an_empty_or_nonpositive_jump_set(params):
    with pytest.raises(GraphError):
        run_claim("3.4", params)


def test_no_claim_but_4_1_builds_a_table(monkeypatch):
    def refuse(g):
        raise AssertionError(f"a table was built on {g.n} vertices")
    monkeypatch.setattr(cycles, "build_cyclable_table", refuse)
    for claim_id in CLAIMS:
        if claim_id != "4.1":
            run_claim(claim_id)


def test_claim_time_goes_to_the_check_that_does_the_work(capsys, monkeypatch):
    # claim 3.4's proof runs 16 searches: W, then W plus each 1- and 2-subset
    # of the 5 vertices it misses.  Each sleeps 10 ms here, so the proof's
    # time holds all 16, while "witness is cyclable" records the cycle of the
    # first search and takes less than one sleep: it does not search again
    real, calls = cycles.find_spanning_cycle, []

    def slow(*args, **kwargs):
        calls.append(args)
        time.sleep(0.01)
        return real(*args, **kwargs)
    monkeypatch.setattr(cycles, "find_spanning_cycle", slow)
    code, stdout, _ = run_cli(capsys, "certify", "--mode", "lemma:3.4")
    assert code == 0 and len(calls) == 16
    by_name = {r["name"]: r for r in report_of(stdout)["results"]}
    assert by_name["hkm(k=3,m=3) not {1,2}-cycle extendible"]["elapsed_ms"] >= 160
    assert by_name["witness is cyclable"]["elapsed_ms"] < 10


def test_check_records_keep_their_defaults_and_own_lists():
    r = CheckResult("x", True)
    assert (r.witness, r.detail, r.elapsed_ms) == (None, "", 0.0)
    a, b = ClaimRun(), ClaimRun()
    a.check("x", lambda: True)
    assert len(a.results) == 1 and b.results == []


def test_an_unwrapped_result_type_is_a_bare_verdict():
    """The result types are tuples, but check() unpacks only a plain tuple:
    one returned unwrapped records its bool() and no witness, so its fields
    are never read as (verdict, witness, detail)."""
    c4 = cycle_graph(4)
    run = ClaimRun()
    assert run.check("chordal", lambda: chordal.is_chordal(c4)) is False
    run.check("bull-free", lambda: chordal.is_bull_free(c4))
    run.check("extendible", lambda: cycles.ExtensionVerdict(False, frozenset({0, 1, 2})))
    run.check("plain", lambda: (False, [0, 1], "why"))
    assert [(r.verdict, r.witness, r.detail) for r in run.results] == [
        (False, None, ""), (True, None, ""), (False, None, ""), (False, [0, 1], "why")]


def test_certify_unknown_lemma(capsys):
    code, _, err = run_cli(capsys, "certify", "--mode", "lemma:9.9")
    assert code == 2


def test_model_hk(capsys):
    code, stdout, _ = run_cli(capsys, "model", "--family", "hk", "--k", "3",
                              "--verify")
    assert code == 0
    rep = report_of(stdout)
    assert rep["model"]["stats"] == {"leaves": 5, "branch_vertices": 3,
                                     "max_degree": 3}
    assert rep["results"][0]["verdict"] is True


def test_model_jk(capsys):
    code, stdout, _ = run_cli(capsys, "model", "--family", "jk", "--k", "3",
                              "--x-order", "6", "--verify")
    assert code == 0
    rep = report_of(stdout)
    assert rep["model"]["stats"]["leaves"] == 6
    assert rep["model"]["stats"]["branch_vertices"] == 4


def test_model_non_chordal_input(tmp_path, capsys):
    p = tmp_path / "c4.g6"
    p.write_text(encode_graph6(cycle_graph(4)) + "\n")
    code, _, err = run_cli(capsys, "model", "--input", str(p))
    assert code == 2
    assert "chordal" in err


def test_model_empty_input(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("?\n")  # graph6 for the graph on no vertices
    code, _, err = run_cli(capsys, "model", "--input", str(p))
    assert code == 2
    assert "at least one vertex" in err
    assert "disconnected" not in err


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "certify", "--mode", "lemma:2.4", "--k", "4")
    _, out2, _ = run_cli(capsys, "certify", "--mode", "lemma:2.4", "--k", "4")
    r1, r2 = json.loads(out1), json.loads(out2)
    for r in (r1, r2):
        for res in r["results"]:
            res.pop("elapsed_ms")
    assert r1 == r2


def _without_times(stdout):
    rep = json.loads(stdout)
    for res in rep.get("results", []):
        res.pop("elapsed_ms")
    return rep


def test_one_parser_serves_successive_commands(capsys, monkeypatch):
    runs = [("check", "--family", "gk", "--k", "3", "--chordal", "--hamiltonian"),
            ("certify", "--mode", "lemma:2.6"),
            ("check", "--pt-free", "0"),
            ("model", "--family", "hk", "--k", "3", "--verify"),
            ("check", "--family", "s", "--k", "3", "--connectivity")]
    shared = [run_cli(capsys, *argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    for (code1, out1, err1), (code2, out2, err2) in zip(shared, fresh):
        assert (code1, err1) == (code2, err2)
        assert (_without_times(out1) if out1 else out1) == \
            (_without_times(out2) if out2 else out2)


def test_check_computes_each_engine_result_once(capsys, monkeypatch):
    calls = {}
    for module, name in ((chordal, "is_chordal"), (structure, "longest_induced_path")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    code, stdout, _ = run_cli(capsys, "check", "--family", "hk", "--k", "3", "--chordal",
                              "--strongly-chordal", "--induced-path", "--pt-free", "9")
    assert code == 1
    assert calls == {"is_chordal": 1, "longest_induced_path": 1}
    by_name = {r["name"]: r for r in report_of(stdout)["results"]}
    assert by_name["strongly-chordal"]["verdict"] is True
    assert by_name["p9-free"]["verdict"] is False
    assert by_name["p9-free"]["witness"] == by_name["induced-path"]["witness"]["path"]


def test_usage_errors(capsys):
    assert run_cli(capsys, "check")[0] == 2  # no input, no checks
    assert run_cli(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("argv, err", [
    (("check", "--family", "hk", "--k", "3", "--sizes", "3,x", "--chordal"),
     "error: could not parse clique sizes '3,x'"),
    (("check", "--family", "gk", "--k", "3"), "error: no checks requested"),
    (("certify", "--family", "hk", "--k", "3", "--mode", "s-extendibility"),
     "error: s-extendibility needs --set, e.g. --set 1,2"),
    (("certify", "--family", "gk", "--k", "3", "--mode", "bogus"),
     "error: unknown certify mode 'bogus'"),
    (("model",), "error: model needs --family hk|jk or an input graph")])
def test_usage_errors_name_their_cause(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err + "\n")


def test_bad_jump_set_is_usage_error(capsys):
    for raw in ("a,b", "1,", "0,1", "-2"):
        code, stdout, err = run_cli(capsys, "certify", "--family", "hk", "--k", "3",
                                    "--mode", "s-extendibility", "--set", raw)
        assert code == 2, raw
        assert stdout == "" and "--set" in err


def test_nonpositive_pt_free_is_usage_error(capsys):
    for raw in ("0", "-1"):
        code, stdout, err = run_cli(capsys, "check", "--family", "gk", "--k", "3",
                                    "--pt-free", raw)
        assert code == 2, raw
        assert stdout == "" and "--pt-free" in err


def test_non_ascii_graph6_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff\xfe")
    code, stdout, err = run_cli(capsys, "check", str(bad), "--chordal")
    assert code == 2
    assert stdout == "" and err.startswith("error:")


def test_model_family_without_k_is_usage_error(capsys):
    for fam in ("hk", "jk"):
        code, stdout, err = run_cli(capsys, "model", "--family", fam)
        assert code == 2, fam
        assert stdout == "" and "--k" in err


def test_explicit_zero_parameters_are_not_replaced(capsys):
    for mode, flag in (("lemma:3.4", "--m"), ("lemma:3.6", "--x-order")):
        code, stdout, err = run_cli(capsys, "certify", "--mode", mode, "--k", "3",
                                    flag, "0")
        assert code == 2, flag
        assert stdout == "" and err.startswith("error:")


# every usage-error path, abbreviations, "--", and help before and after a command
PARSE_ARGVS = [
    ["check", "--family", "gk", "--k", "3", "--chordal", "--hamiltonian"],
    ["check", "g.g6", "--sidecar", "g.json", "--strong", "--pt-free", "5"],
    ["check", "--family=s", "--k=4", "--conn", "--induced"],
    ["check", "--", "g.g6"],
    ["check", "-h"],
    ["check", "--family", "gk", "--k", "3", "--chordal", "--bogus"],
    ["check", "--family", "gk", "--k", "3", "--chordal", "--bogus", "extra"],
    ["check", "a.g6", "b.g6"],
    ["check", "--k", "x"],
    ["check", "--k", "-1", "--family", "gk"],
    ["check", "--pt-free", "0"],
    ["check", "--which", "4"],
    ["check", "--version"],
    ["check", "--family"],
    ["generate", "--family", "dn", "--n", "20", "--out", "x"],
    ["generate", "--help"],
    ["generate", "--k", "3"],
    ["generate", "--family", "nope"],
    ["certify", "--mode", "lemma:2.3"],
    ["certify", "--mode", "s-extendibility", "--family", "hk", "--k", "3", "--set", "1,2"],
    ["certify", "--mode", "s-extendibility", "--set", "0"],
    ["certify"],
    ["model", "--family", "jk", "--k", "3", "--verify"],
    ["model", "--input", "g.g6", "--bogus"],
    [],
    ["-h"],
    ["--version"],
    ["--ver"],
    ["nonsense"],
    ["che"],
    ["--", "check"],
    ["-x", "check"],
]


def _parsed(capsys, parse, argv):
    """(exit code or None, stdout, stderr, vars of the namespace or None)."""
    try:
        code, ns = None, vars(parse(list(argv)))
    except SystemExit as exc:
        code, ns = exc.code, None
    out = capsys.readouterr()
    return code, out.out, out.err, ns


def test_command_parse_matches_the_top_level_parser(capsys):
    codes = []
    for argv in PARSE_ARGVS:
        got = _parsed(capsys, cli._parse, argv)
        assert got == _parsed(capsys, cli.build_parser().parse_args, argv), argv
        codes.append(got[0])
    assert codes.count(None) >= 8 and codes.count(0) >= 5 and codes.count(2) >= 15


def test_jk_below_k3_is_blamed_on_jk(capsys):
    for argv in (("check", "--family", "jk", "--k", "2", "--chordal"),
                 ("model", "--family", "jk", "--k", "2"),
                 ("generate", "--family", "jk", "--k", "1")):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert stdout == "" and "jk needs k >= 3" in err and "hk" not in err


# a valid value for each family or claim flag
FLAG_VALUES = {"--k": "3", "--m": "1", "--sizes": "3,3,3,3,3", "--x-order": "6", "--n": "16",
               "--which": "1", "--set": "1,2"}
FAMILY_FLAGS = ("--k", "--m", "--sizes", "--x-order", "--n", "--which")


@pytest.mark.parametrize("family, flags, flag", [
    (family, flags, flag) for family, flags, _, _ in FAMILY_CASES
    for flag in FAMILY_FLAGS if flag[2:].replace("-", "_") not in cli._FAMILIES[family][1]])
def test_family_unread_flag_is_refused(tmp_path, capsys, family, flags, flag):
    argv = ("--family", family, *flags.split(), flag, FLAG_VALUES[flag])
    code, stdout, err = run_cli(capsys, "generate", *argv, "--out", str(tmp_path / "g"))
    assert code == 2
    assert stdout == "" and err == f"error: family {family} does not take {flag}\n"
    assert not list(tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, "check", *argv, "--chordal")
    assert (code, stdout, err) == (2, "", f"error: family {family} does not take {flag}\n")


# the params key of each claim flag
CLAIM_FLAG_KEYS = {"--k": "k", "--m": "m", "--sizes": "sizes", "--x-order": "x_order",
                   "--n": "n", "--set": "s_set"}


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_claim_unread_flag_is_refused(tmp_path, capsys, claim_id):
    reads = CLAIMS[claim_id][1]
    refused = [(flag, FLAG_VALUES[flag]) for flag, key in CLAIM_FLAG_KEYS.items()
               if key not in reads]
    refused += [("--which", "1"), ("--family", "gk"), ("--input", str(tmp_path / "g.g6")),
                ("--sidecar", str(tmp_path / "g.json"))]
    for flag, value in refused:
        code, stdout, err = run_cli(capsys, "certify", "--mode", f"lemma:{claim_id}",
                                    flag, value)
        assert (code, stdout, err) == (2, "", f"error: claim {claim_id} does not take {flag}\n")


def test_claim_flags_match_the_claim_table():
    doc = (Path(__file__).parent.parent / "docs" / "claims.md").read_text()
    rows = {}
    for line in doc.splitlines():
        cols = line.split("|")
        if len(cols) == 5 and cols[1].strip()[:1].isdigit():
            rows[cols[1].strip()] = {CLAIM_FLAG_KEYS[f] for f in re.findall(r"`(--[a-z-]+)`",
                                                                              cols[3])}
    assert rows == {cid: set(reads) for cid, (_, reads) in CLAIMS.items()}


def test_an_input_file_excludes_a_family(tmp_path, capsys):
    base = str(tmp_path / "g")
    assert run_cli(capsys, "generate", "--family", "hk", "--k", "3", "--out", base)[0] == 0
    g6 = base + ".g6"
    for argv in (("check", g6, "--family", "hk", "--k", "3", "--chordal"),
                 ("certify", "--input", g6, "--family", "hk", "--mode", "extendibility"),
                 ("model", "--input", g6, "--family", "hk", "--k", "3"),
                 ("model", "--input", g6, "--family", "gk")):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout, err) == (2, "", "error: an input file does not take --family\n")
    code, stdout, err = run_cli(capsys, "check", g6, "--k", "3", "--chordal")
    assert (code, stdout, err) == (2, "", "error: an input file does not take --k\n")


@pytest.mark.parametrize("argv, err", [
    (("check", "--family", "gk", "--k", "3", "--sidecar", "g.json", "--chordal"),
     "error: family gk does not take --sidecar\n"),
    (("model", "--family", "hk", "--k", "3", "--sidecar", "g.json"),
     "error: family hk does not take --sidecar\n"),
    (("certify", "--family", "gk", "--k", "3", "--sidecar", "g.json", "--mode", "extendibility"),
     "error: family gk does not take --sidecar\n"),
    (("check", "--sidecar", "g.json", "--chordal"), "error: provide an input file or a --family\n"),
    (("certify", "--family", "gk", "--k", "3", "--mode", "extendibility", "--set", "1"),
     "error: mode extendibility does not take --set\n")])
def test_sidecar_without_input_and_set_without_s_mode_are_refused(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)
