"""The benchmark's workloads: their jobs, generated inputs and known answers.

table   full subset tables near the top of today's fast range, each followed
        by the scan its claim needs.  The DP fill dominates; no other workload
        builds a table this large.
blowup  targeted spanning-cycle searches and max-flow connectivity on the
        blow-ups s(4) and s(5), past the table cap, with no table at all.
census  many small inputs driven through `hendry.cli.main` in-process, the
        way a user scripts the CLI: generate, check, model --verify, certify.
        The only workload where chordal, graph6, treemodel, families and the
        CLI's JSON path do real work.

table and blowup also run one small `roundtrip` job per pass (the census
pipeline on gk(3), well under 1% of a pass), so that the traced run measures
every layer on every workload.

Every job is a closure over inputs prepared up front; its output is checked
against the answer keyed by its construction name after timing.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import hendry.cli
from hendry import cycles, families, structure
from hendry.core import LabeledGraph

import gate

WORKLOADS = ("table", "blowup", "census")

# The census random inputs: one seeded chordal graph per size.  Sizes are
# fixed so that a seed changes the graphs' structure, not how much table
# work they need.
RANDOM_SIZES = (12, 13, 14, 15, 16, 12, 13, 14, 15, 16)
EXTENDIBILITY_MAX_N = 16   # certify --mode extendibility on census inputs
HAMILTONIAN_MAX_N = 24     # the CLI caps Hamiltonicity at the table cap
STRUCTURE_MAX_N = 25       # induced-path cap; connectivity kept alongside


@dataclass
class Job:
    """One timed call into the package; `check` lists what is wrong with
    its output (an empty list means correct)."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliRun:
    """Run `hendry.cli.main` in-process, capturing its report."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hendry.cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _results(run: CliRun) -> dict[str, dict]:
    return {r["name"]: r for r in json.loads(run.stdout)["results"]}


def _cli_job(key, argv, check_report) -> Job:
    """A CLI job whose report is checked by `check_report(code, results)`."""
    def check(run: CliRun) -> list[str]:
        try:
            results = _results(run)
        except (ValueError, KeyError) as exc:
            return [f"no JSON report (exit {run.code}): {exc}; {run.stderr.strip()}"]
        return check_report(run.code, results)
    return Job(key, lambda: call_cli(argv), check)


def _exit_problems(code, results) -> list[str]:
    want = 1 if any(r["verdict"] is False for r in results.values()) else 0
    if any(r["verdict"] is None for r in results.values()):
        want = 3
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _bundle(key: str, jobs: list[Job]) -> Job:
    """Several jobs timed as one."""
    def check(outs):
        return [p for j, o in zip(jobs, outs) for p in j.check(o)]
    return Job(key, lambda: [j.run() for j in jobs], check)


# -- table ----------------------------------------------------------------------

def _extendibility_job(key, g, scan, frozen_roles, jumps) -> Job:
    """A full table plus scan; the witness must be V minus `frozen_roles`."""
    want = gate.roles_except(g, frozen_roles)

    def check(verdict) -> list[str]:
        if verdict.extendible or verdict.witness is None:
            return ["reported extendible; the construction is not"]
        if verdict.witness != want:
            return [f"witness {sorted(verdict.witness)}, expected V minus {sorted(frozen_roles)}"]
        return gate.extension_problems(g, verdict.witness, jumps)
    return Job(key, lambda: scan(g), check)


def table_jobs(workdir: Path) -> list[Job]:
    hk = families.build_hk(families.HkSpec(3, (4, 4, 4, 4, 4)))
    hkm = families.build_hkm(3, 4, (3,) * 5)
    hplus = families.build_h_plus(families.HkSpec(3, (3, 3, 3, 4, 5)))
    # Claims 2.8 and 3.1: the frozen set is V minus {z, v3}.  For hkm the
    # witness also omits z and v3, besides the subdivision vertices.
    return [
        _extendibility_job("hk(3;4,4,4,4,4) extendibility", hk,
                           lambda g: cycles.is_cycle_extendible(g), ("z", "v3"), (1,)),
        _extendibility_job("hkm(3,4) S={2,3} extendibility", hkm,
                           lambda g: cycles.is_s_cycle_extendible(g, (2, 3)),
                           ("z", "v3", "v4", "v5", "v6", "v7"), (2, 3)),
        _extendibility_job("hplus(3;3,3,3,4,5) extendibility", hplus,
                           lambda g: cycles.is_cycle_extendible(g), ("z", "v3"), (1,)),
        roundtrip_job(workdir),
    ]


# -- blowup ---------------------------------------------------------------------

def _search_job(key, g, dropped, found, cap=None) -> Job:
    subset = gate.roles_except(g, dropped)
    kwargs = {} if cap is None else {"cap": cap}

    def check(cyc) -> list[str]:
        if not found:
            return [] if cyc is None else ["found a cycle the claim excludes"]
        if cyc is None:
            return ["no spanning cycle found; one exists"]
        return gate.cycle_problems(g, cyc.vertices, subset)
    return Job(key, lambda: cycles.find_spanning_cycle(g, subset, **kwargs), check)


def _connectivity_job(key, g, kappa) -> Job:
    return Job(key, lambda: structure.vertex_connectivity(g),
               lambda cert: gate.cut_problems(g, cert.kappa, cert.cut, kappa))


def blowup_jobs(workdir: Path) -> list[Job]:
    s4, s5 = families.build_s(4), families.build_s(5)
    # Claims 3.2 and 3.3 at k = 4, and the connectivity of s(5).  The empty
    # answers are proofs by exhaustive search.  s(5) Hamiltonicity and
    # s(5) minus z do not finish today and are left out.
    return [
        _search_job("s(4) V", s4, (), True),
        _search_job("s(4) V-{z,v4}", s4, ("z", "v4"), True),
        _search_job("s(4) V-{z}", s4, ("z",), False),
        _search_job("s(4) V-{v4}", s4, ("v4",), False),
        _search_job("s(5) V-{z,v5} cap=62", s5, ("z", "v5"), True, cap=62),
        _connectivity_job("kappa s(4)", s4, 4),
        _connectivity_job("kappa s(5)", s5, 5),
        roundtrip_job(workdir),
    ]


# -- census ---------------------------------------------------------------------

@dataclass
class Member:
    """A census input: a graph plus the answers known for it.

    `answers` maps a check name to its expected verdict, plus "kappa",
    "path" (longest induced path) and "frozen" (role names missing from the
    non-extendible witness; None when the graph is cycle extendible).
    """

    key: str
    graph: LabeledGraph
    family_args: tuple[str, ...] = ()   # empty for random inputs
    answers: dict = field(default_factory=dict)


def _pasted_answers(path_len: int) -> dict:
    # Claims 2.8/2.9 (strongly chordal, Hamiltonian, frozen V - {z, v3}) and
    # 3.5 (connectivity 2); the README's bull note; claim 3.1 for hplus.
    return {"chordal": True, "strongly-chordal": True, "bull-free": False,
            "hamiltonian": True, "kappa": 2, "path": path_len,
            "frozen": ("z", "v3")}


def gk_member(k: int) -> Member:
    return Member(f"gk({k})", families.build_gk(k), ("--family", "gk", "--k", str(k)),
                  {"chordal": True, "strongly-chordal": True, "bull-free": True,
                   "hamiltonian": True, "kappa": k + 1, "path": 2 * k + 1,
                   "frozen": None})


def census_members() -> list[Member]:
    """Family members with canonical labels and their known answers.

    gk and gkm answers (bull-free, connectivity k+1, the spine as longest
    induced path, cycle extendible) follow from the construction and were
    confirmed by the engines when the benchmark was written; s(3) being
    cycle extendible is the README's first known finding.
    """
    out = [gk_member(k) for k in range(3, 8)]
    for fam, build, path_len in (("hk", families.build_hk, 9),
                                   ("hplus", families.build_h_plus, 8)):
        for sizes in product((3, 4), repeat=5):
            text = ",".join(map(str, sizes))
            out.append(Member(f"{fam}(3;{text})", build(families.HkSpec(3, sizes)),
                              ("--family", fam, "--k", "3", "--sizes", text),
                              _pasted_answers(path_len)))
    for n in range(15, 41):
        out.append(Member(f"dn({n})", families.build_dn(n), ("--family", "dn", "--n", str(n)),
                          _pasted_answers(9)))
    out.append(Member("s(3)", families.build_s(3), ("--family", "s", "--k", "3"),
                      {"chordal": True, "strongly-chordal": False, "bull-free": False,
                       "hamiltonian": True, "kappa": 3, "path": 8, "frozen": None}))
    for k, m in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        out.append(Member(f"gkm({k},{m})", families.build_gkm(k, m),
                          ("--family", "gkm", "--k", str(k), "--m", str(m)),
                          {"chordal": True, "strongly-chordal": True, "bull-free": True,
                           "hamiltonian": True, "kappa": k + 1, "path": 2 * k + 1 + m,
                           "frozen": None}))
    return out


def random_chordal(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a connected subtree-intersection graph on n vertices.

    Each vertex is a random subtree (1 to 4 nodes) of a random host tree on
    n/2 nodes; intersection graphs of subtrees are exactly the chordal graphs.
    """
    nodes = n // 2
    while True:
        nbrs = [[] for _ in range(nodes)]
        for v in range(1, nodes):
            p = rng.randrange(v)
            nbrs[v].append(p)
            nbrs[p].append(v)
        subtrees = []
        for _ in range(n):
            sub = {rng.randrange(nodes)}
            for _ in range(rng.randint(0, 3)):
                frontier = sorted({w for x in sub for w in nbrs[x]} - sub)
                if frontier:
                    sub.add(rng.choice(frontier))
            subtrees.append(sub)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if subtrees[u] & subtrees[v]]
        if gate.connected_after_removal(LabeledGraph(n, edges)):
            return edges


def random_members(seed: int) -> list[Member]:
    rng = random.Random(seed)
    return [Member(f"random(n={n},#{i})", LabeledGraph(n, random_chordal(rng, n)),
                   answers={"chordal": True})
            for i, n in enumerate(RANDOM_SIZES)]


def check_flags(n: int) -> list[str]:
    flags = ["--chordal", "--strongly-chordal", "--bull-free"]
    if n <= HAMILTONIAN_MAX_N:
        flags.append("--hamiltonian")
    if n <= STRUCTURE_MAX_N:
        flags += ["--induced-path", "--connectivity"]
    return flags


def _check_report_problems(m: Member, n_flags: int, code, res) -> list[str]:
    g, ans = m.graph, m.answers
    out = _exit_problems(code, res)
    if len(res) != n_flags:
        out.append(f"{len(res)} results for {n_flags} requested checks")
    for name, r in res.items():
        if name in ans and r["verdict"] != ans[name]:
            out.append(f"{name}: verdict {r['verdict']}, expected {ans[name]}")
    if "chordal" in res:
        out += gate.peo_problems(g, res["chordal"]["witness"])
    sc = res.get("strongly-chordal")
    if sc and sc["verdict"]:
        out += gate.simple_order_problems(g, sc["witness"])
    bull = res.get("bull-free")
    if bull and bull["verdict"] is False:
        out += gate.bull_problems(g, bull["witness"])
    ham = res.get("hamiltonian")
    if ham and ham["verdict"]:
        out += gate.cycle_problems(g, ham["witness"], range(g.n))
    conn = res.get("connectivity")
    if conn:
        w = conn["witness"]
        out += gate.cut_problems(g, w["kappa"], w["cut"], ans.get("kappa"))
    path = res.get("induced-path")
    if path:
        w = path["witness"]
        out += gate.induced_path_problems(g, w["path"], w["length"], ans.get("path"))
    return out


def _extendibility_report_problems(m: Member, code, res) -> list[str]:
    g = m.graph
    out = _exit_problems(code, res)
    r = res.get("cycle-extendible")
    if r is None:
        return out + ["no cycle-extendible result"]
    if "frozen" in m.answers:
        frozen = m.answers["frozen"]
        if r["verdict"] != (frozen is None):
            return out + [f"extendible {r['verdict']}, expected {frozen is None}"]
        if frozen is not None and set(r["witness"]) != gate.roles_except(g, frozen):
            return out + [f"witness is not V minus {list(frozen)}"]
    if r["verdict"] is False:
        out += gate.extension_problems(g, r["witness"])
    return out


def _generate_problems(m: Member, base: Path, code, report) -> list[str]:
    g = m.graph
    out = [] if code == 0 else [f"exit code {code}"]
    if (report.get("n"), report.get("edges")) != (g.n, g.edge_count):
        out.append("generate reports the wrong size")
    if base.with_suffix(".g6").read_text().strip() != gate.graph6(g.n, g.edges()):
        out.append("graph6 file differs from the construction")
    side = json.loads(base.with_suffix(".json").read_text())
    if side.get("roles") != list(g.roles) or \
            [tuple(e) for e in side.get("heavy_edges", ())] != list(g.heavy_edges):
        out.append("sidecar labels differ from the construction")
    return out


def pipeline(m: Member, workdir: Path) -> list[Job]:
    """generate (family inputs) -> check -> model --verify -> certify (n <= 16)."""
    g = m.graph
    slug = "".join(c if c.isalnum() else "_" for c in m.key)
    base = workdir / slug
    g6 = str(base) + ".g6"
    jobs = []
    if m.family_args:
        argv = ["generate", *m.family_args, "--out", str(base)]

        def gen_check(run: CliRun) -> list[str]:
            try:
                report = json.loads(run.stdout)
            except ValueError:
                return [f"no JSON report (exit {run.code})"]
            return _generate_problems(m, base, run.code, report)
        jobs.append(Job(f"generate {m.key}", lambda: call_cli(argv), gen_check))
    else:
        base.with_suffix(".g6").write_text(gate.graph6(g.n, g.edges()) + "\n")
    flags = check_flags(g.n)
    jobs.append(_cli_job(f"check {m.key}", ["check", g6, *flags],
                         lambda code, res: _check_report_problems(m, len(flags), code, res)))
    if m.family_args[:2] == ("--family", "hk"):
        model_argv = ["model", *m.family_args, "--verify"]
    else:
        model_argv = ["model", "--input", g6, "--verify"]
    jobs.append(_cli_job(f"model {m.key}", model_argv,
                         lambda code, res: _exit_problems(code, res) + (
                             [] if res.get("model-verifies", {}).get("verdict") else
                             ["model does not verify"])))
    if g.n <= EXTENDIBILITY_MAX_N:
        jobs.append(_cli_job(f"certify {m.key}",
                             ["certify", "--input", g6, "--mode", "extendibility"],
                             lambda code, res: _extendibility_report_problems(m, code, res)))
    return jobs


# Claim runs: (argv tail, expected exit code, results expected to be False).
# lemma:3.3 at k = 3 is refuted by the engines (README known finding 1).
LEMMAS = (
    (["lemma:2.3", "--k", "3"], 0, ()),
    (["lemma:2.4", "--k", "4"], 0, ()),
    (["lemma:2.5", "--k", "4"], 0, ()),
    (["lemma:2.6", "--k", "3"], 0, ()),
    (["lemma:2.8", "--k", "3"], 0, ()),
    (["lemma:2.9", "--k", "3"], 0, ()),
    (["lemma:3.1"], 0, ()),
    (["lemma:3.2", "--k", "3"], 0, ()),
    (["lemma:3.3", "--k", "3"], 1, ("s(3): V minus z not cyclable",)),
    (["lemma:3.4", "--k", "3", "--m", "3", "--set", "1,2"], 0, ()),
    (["lemma:3.5", "--k", "3"], 0, ()),
    (["lemma:3.6", "--k", "3"], 0, ()),
    (["lemma:4.1", "--n", "15"], 0, ()),
)


def _lemma_job(tail, want_code, want_false) -> Job:
    witness_checks = {}
    if tail[0] == "lemma:3.4":
        # README known finding 2: the witness also omits z and v3.
        hkm = families.build_hkm(3, 3, (3,) * 5)
        want = gate.roles_except(hkm, ("z", "v3", "v4", "v5", "v6"))
        witness_checks["hkm(k=3,m=3) not {1,2}-cycle extendible"] = want
    if tail[0] in ("lemma:2.8", "lemma:2.9"):
        hk = families.build_hk(families.HkSpec(3, (3,) * 5))
        witness_checks["not cycle extendible"] = gate.roles_except(hk, ("z", "v3"))

    def check(code, res) -> list[str]:
        out = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
        for name, r in res.items():
            if r["verdict"] is not (name not in want_false):
                out.append(f"{name}: verdict {r['verdict']}")
        for name, want in witness_checks.items():
            if name not in res or set(res[name]["witness"]) != want:
                out.append(f"{name}: wrong witness")
        missing = set(want_false) - set(res)
        return out + [f"missing result {n}" for n in sorted(missing)]
    return _cli_job(" ".join(tail), ["certify", "--mode", *tail], check)


def _s_extendibility_job(m: Member, s_set: str) -> Job:
    """A full, non-early-exit S-extendibility scan on a cycle-extendible graph."""
    def check(code, res) -> list[str]:
        r = res.get(f"s-cycle-extendible [{s_set.replace(',', ', ')}]")
        if r is None or r["verdict"] is not True or code != 0:
            return [f"expected S-extendible with exit 0, got exit {code}"]
        return []
    return _cli_job(f"s-extendibility {m.key} S={{{s_set}}}",
                    ["certify", *m.family_args, "--mode", "s-extendibility", "--set", s_set],
                    check)


def census_jobs(seed: int, workdir: Path) -> list[Job]:
    """Pipelines and claim runs, in an order drawn from the seed."""
    members = census_members()
    by_key = {m.key: m for m in members}
    units = [pipeline(m, workdir) for m in members + random_members(seed)]
    units += [[_lemma_job(*lemma)] for lemma in LEMMAS]
    units += [[_s_extendibility_job(by_key["s(3)"], "1,2,3")],
              [_s_extendibility_job(by_key["gk(4)"], "1,2")]]
    random.Random(seed).shuffle(units)
    return [job for unit in units for job in unit]


def roundtrip_job(workdir: Path) -> Job:
    """The census pipeline on gk(3) plus one claim run, timed as one job."""
    return _bundle("roundtrip gk(3)", pipeline(gk_member(3), workdir) + [_lemma_job(*LEMMAS[0])])


def prepare(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The jobs of one pass over `workload`, with their inputs written."""
    if workload == "table":
        return table_jobs(workdir)
    if workload == "blowup":
        return blowup_jobs(workdir)
    if workload == "census":
        return census_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
