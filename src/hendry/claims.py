"""Registry of named structural claims about the generated families.

Each claim id maps to a scripted exact verification (build the family, run
the relevant recognizers/searches, return per-check verdicts with witnesses).
The ids follow the numbering used in the bundled claim table (docs/claims.md)
so a run can be replayed by name from the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import chordal, cycles, structure, treemodel
from .core import GraphError, LabeledGraph, SizeCapError
from .families import (
    HkSpec,
    build_dn,
    build_gk,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    gk_reference_elimination_order,
    lift_cycle,
    witness_heavy_ham_cycle,
    witness_long_heavy_cycle,
)


@dataclass
class CheckResult:
    name: str
    verdict: bool | None
    witness: object = None
    detail: str = ""
    elapsed_ms: float = 0.0


@dataclass
class ClaimRun:
    results: list[CheckResult] = field(default_factory=list)

    def check(self, name, fn):
        """Run fn and record its (verdict, witness[, detail]) or bare verdict.

        A size cap hit inside fn fails only this check: its verdict is None.
        """
        t0 = time.perf_counter()
        try:
            out = fn()
        except SizeCapError as exc:
            out = (None, None, f"cap exceeded: {exc}")
        if isinstance(out, tuple):
            verdict, witness = out[0], out[1]
            detail = out[2] if len(out) > 2 else ""
        else:
            verdict, witness, detail = out, None, ""
        self.results.append(CheckResult(
            name, verdict, witness, detail,
            (time.perf_counter() - t0) * 1000.0))
        return verdict

    @property
    def ok(self):
        return all(r.verdict for r in self.results)


def _sizes(params, k):
    sizes = params.get("sizes")
    if sizes is None:
        return (3,) * (2 * k - 1)
    return tuple(sizes)


def _lifted_ham(k, h):
    """(spans h, cycle) for the heavy Hamiltonian witness of gk(k) lifted into h."""
    ham = lift_cycle(witness_heavy_ham_cycle(k), h).validate(h)
    return ham.vertex_set == frozenset(range(h.n)), list(ham)


def _kappa_is(g, k):
    cert = structure.vertex_connectivity(g)
    return cert.kappa == k, cert.cut


def model_check(model, g):
    """verify_model as a check: (ok, no witness, the first discrepancy or "")."""
    ok, why = treemodel.verify_model(model, g)
    return ok, None, why or ""


def claim_2_3(params) -> ClaimRun:
    """Base graphs are strongly chordal; the standard ordering eliminates them."""
    run = ClaimRun()
    for k in params.get("k_range", [params.get("k", 3)]):
        g = build_gk(k)
        run.check(f"gk({k}) strongly chordal",
                  lambda g=g: chordal.is_strongly_chordal(g))
        order = gk_reference_elimination_order(k)
        run.check(f"gk({k}) standard order is a simple elimination order",
                  lambda g=g, o=order: chordal.is_simple_elimination_order(g, o))
    return run


def claim_2_4(params) -> ClaimRun:
    """The heavy Hamiltonian witness is a Hamiltonian cycle through every heavy edge."""
    run = ClaimRun()
    for k in params.get("k_range", [params.get("k", 3)]):
        g = build_gk(k)
        cyc = witness_heavy_ham_cycle(k).validate(g)
        run.check(f"gk({k}) heavy Hamiltonian witness",
                  lambda g=g, c=cyc: (
                      c.vertex_set == frozenset(range(g.n))
                      and all(e in c.edge_set() for e in g.heavy_edges),
                      list(c)))
    return run


def claim_2_5(params) -> ClaimRun:
    """The long heavy witness spans everything except vk and z."""
    run = ClaimRun()
    for k in params.get("k_range", [params.get("k", 3)]):
        g = build_gk(k)
        cyc = witness_long_heavy_cycle(k).validate(g)
        want = frozenset(range(g.n)) - {g.vertex("z"), g.vertex(f"v{k}")}
        run.check(f"gk({k}) long heavy witness",
                  lambda g=g, c=cyc, w=want: (
                      c.vertex_set == w
                      and all(e in c.edge_set() for e in g.heavy_edges),
                      list(c)))
    return run


def claim_2_6(params) -> ClaimRun:
    """No heavy cycle of the base graph misses exactly z or exactly vk."""
    run = ClaimRun()
    k = params.get("k", 3)
    for extra_edge in (False, True) if params.get("with_shortcut", True) else (False,):
        g = build_gk(k)
        tag = f"gk({k})"
        if extra_edge:
            g = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
            tag = f"gk({k})+u1u3"
        for drop in ("z", f"v{k}"):
            s = set(range(g.n)) - {g.vertex(drop)}
            run.check(f"{tag}: heavy cycles avoiding only {drop}",
                      lambda g=g, s=s: (cycles.heavy_cycles_on(g, s)[0] == 0, None))
    return run


def claim_2_8(params) -> ClaimRun:
    """Pasted graphs are Hamiltonian yet have a frozen two-short cycle."""
    return _claim_2_8(params)[0]


def _claim_2_8(params) -> tuple[ClaimRun, LabeledGraph]:
    run = ClaimRun()
    k = params.get("k", 3)
    spec = HkSpec(k, _sizes(params, k))
    h = build_hk(spec)
    run.check(f"hk{spec.clique_sizes} Hamiltonian", lambda: _lifted_ham(k, h))
    expect = frozenset(range(h.n)) - {h.vertex("z"), h.vertex(f"v{k}")}
    if h.n <= cycles.subset_cap():
        verdict = None

        def scan():
            nonlocal verdict
            verdict = cycles.is_cycle_extendible(h)
            return not verdict.extendible, sorted(verdict.witness or ())
        run.check("not cycle extendible", scan)
        run.check("witness misses exactly z and vk",
                  lambda: (verdict.witness == expect, sorted(expect)))
    else:
        run.check("frozen set is cyclable",
                  lambda: (cycles.find_spanning_cycle(h, expect) is not None,
                           sorted(expect)))
        for v in (h.vertex("z"), h.vertex(f"v{k}")):
            run.check(f"frozen set + vertex {v} is not cyclable",
                      lambda v=v: (cycles.find_spanning_cycle(h, expect | {v}) is None, None))
    return run, h


def claim_2_9(params) -> ClaimRun:
    """The pasted counterexamples are strongly chordal on every size n >= 15."""
    run, h = _claim_2_8(params)
    run.check("strongly chordal", lambda: chordal.is_strongly_chordal(h))
    run.check("chordal", lambda: bool(chordal.is_chordal(h)))
    return run


def claim_3_1(params) -> ClaimRun:
    """Adding u1u3 caps induced paths at 8 without repairing extendibility."""
    run = ClaimRun()
    g = build_gk(3)
    g_plus = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])

    def longest():
        length, path = structure.longest_induced_path(g_plus)
        return length == 6, list(path)
    run.check("longest induced path of gk(3)+u1u3 has 6 vertices", longest)
    named = [g.vertex(nm) for nm in ("u1", "u3", "z", "v3", "v2", "v1")]
    run.check("u1 u3 z v3 v2 v1 is an induced path",
              lambda: (structure.induces_path(g_plus, named), named))
    spec = HkSpec(3, _sizes(params, 3))
    hp = build_h_plus(spec)
    run.check("h_plus is induced-P9-free",
              lambda: (structure.is_pt_free(hp, 9), None))
    run.check("h_plus strongly chordal", lambda: chordal.is_strongly_chordal(hp))
    run.check("h_plus Hamiltonian", lambda: _lifted_ham(3, hp))
    if hp.n <= cycles.subset_cap():
        expect = frozenset(range(hp.n)) - {hp.vertex("z"), hp.vertex("v3")}

        def scan():
            verdict = cycles.is_cycle_extendible(hp)
            return (not verdict.extendible and verdict.witness == expect,
                    sorted(verdict.witness or ()))
        run.check("h_plus not cycle extendible", scan)
    return run


def claim_3_2(params) -> ClaimRun:
    """Blow-ups are chordal, Hamiltonian, and have connectivity exactly k."""
    run = ClaimRun()
    k = params.get("k", 3)
    s = build_s(k)
    run.check(f"s({k}) chordal", lambda: bool(chordal.is_chordal(s)))
    run.check(f"s({k}) Hamiltonian",
              lambda: (cycles.find_spanning_cycle(s) is not None, None))
    run.check(f"s({k}) connectivity is exactly {k}", lambda: _kappa_is(s, k))
    return run


def claim_3_3(params) -> ClaimRun:
    """Blow-ups carry the frozen two-short cycle but no one-short repair."""
    run = ClaimRun()
    k = params.get("k", 3)
    s = build_s(k)
    z, vk = s.vertex("z"), s.vertex(f"v{k}")
    both = set(range(s.n)) - {z, vk}
    run.check(f"s({k}): V minus z,v{k} cyclable",
              lambda: (cycles.find_spanning_cycle(s, both) is not None,
                       sorted(both)))
    for drop, v in (("z", z), (f"v{k}", vk)):
        sub = set(range(s.n)) - {v}
        run.check(f"s({k}): V minus {drop} not cyclable",
                  lambda sub=sub: (cycles.find_spanning_cycle(s, sub) is None, None))
    return run


def claim_3_4(params) -> ClaimRun:
    """Subdivided pastes defeat extension by any length in the given set."""
    run = ClaimRun()
    k = params.get("k", 3)
    s_set = sorted(set(params.get("s_set", (1, 2))))
    m = max(s_set) + 1 if params.get("m") is None else params["m"]
    h = build_hkm(k, m, _sizes(params, k))
    verdict = None

    def scan():
        nonlocal verdict
        verdict = cycles.is_s_cycle_extendible(h, s_set)
        return not verdict.extendible, sorted(verdict.witness or ())
    run.check(f"hkm(k={k},m={m}) not {{{','.join(map(str, s_set))}}}-cycle extendible", scan)
    if verdict is not None and verdict.witness is not None:
        run.check("witness is cyclable",
                  lambda: (cycles.is_cyclable(h, verdict.witness), None))
    return run


def claim_3_5(params) -> ClaimRun:
    """Counterexamples exist at every connectivity: 2 via pastes, k >= 3 via blow-ups."""
    run = ClaimRun()
    h = build_hk(HkSpec(3, (3,) * 5))
    run.check("hk(3, all 3) has connectivity exactly 2", lambda: _kappa_is(h, 2))
    for k in params.get("k_range", [params.get("k", 3)]):
        run.check(f"s({k}) has connectivity exactly {k}",
                  lambda s=build_s(k), k=k: _kappa_is(s, k))
    return run


def claim_3_6(params) -> ClaimRun:
    """The explicit subtree models verify, with the stated leaf/branch counts."""
    run = ClaimRun()
    k = params.get("k", 3)
    spec = HkSpec(k, _sizes(params, k))
    h = build_hk(spec)
    model = treemodel.explicit_model_hk(spec, h)
    run.check(f"hk model verifies (k={k})", lambda: model_check(model, h))
    leaves, branch, maxdeg = treemodel.tree_stats(model.host)
    run.check(f"hk host: {2 * k - 1} leaves, {2 * k - 3} branch vertices, degree <= 3",
              lambda: ((leaves, branch, maxdeg) == (2 * k - 1, 2 * k - 3, 3), (leaves, branch, maxdeg)))
    x_order = k + 3 if params.get("x_order") is None else params["x_order"]
    j = build_jk(k, spec.clique_sizes, x_order)
    jmodel = treemodel.explicit_model_jk(k, spec.clique_sizes, x_order, j)
    run.check(f"jk model verifies (k={k})", lambda: model_check(jmodel, j))
    l2, b2, d2 = treemodel.tree_stats(jmodel.host)
    run.check(f"jk host: {2 * k} leaves, {2 * k - 2} branch vertices, degree <= 3",
              lambda: ((l2, b2, d2) == (2 * k, 2 * k - 2, 3), (l2, b2, d2)))
    return run


def claim_4_1(params) -> ClaimRun:
    """Edge counts of the dense family; the three dense exceptions do not extend."""
    run = ClaimRun()
    for n in params.get("n_range", [params.get("n", 15)]):
        d = build_dn(n)
        want = (n - 12) * (n - 13) // 2 + 37
        run.check(f"dn({n}) has {want} edges",
                  lambda d=d, w=want: (d.edge_count == w, d.edge_count))
    for which, n in ((1, 8), (2, 5), (3, 8)):
        g = build_hendry_exception(which, n)
        run.check(f"exception {which} fails full cycle extendibility",
                  lambda g=g: (not cycles.is_fully_cycle_extendible(g), None))
    return run


CLAIMS = {
    "2.3": claim_2_3,
    "2.4": claim_2_4,
    "2.5": claim_2_5,
    "2.6": claim_2_6,
    "2.8": claim_2_8,
    "2.9": claim_2_9,
    "3.1": claim_3_1,
    "3.2": claim_3_2,
    "3.3": claim_3_3,
    "3.4": claim_3_4,
    "3.5": claim_3_5,
    "3.6": claim_3_6,
    "4.1": claim_4_1,
}


def run_claim(claim_id: str, params: dict | None = None) -> ClaimRun:
    if claim_id not in CLAIMS:
        raise GraphError(f"unknown claim id {claim_id!r}; known: {sorted(CLAIMS)}")
    return CLAIMS[claim_id](params or {})
