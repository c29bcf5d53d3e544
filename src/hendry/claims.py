"""Registry of named structural claims about the generated families.

Each claim id maps to a scripted exact verification: the claim builds the
family, runs the relevant recognizers/searches and adds its checks (verdicts
with witnesses) to the run that `run_claim` hands it.  The ids follow the
claim table (docs/claims.md), so a run can be replayed by name from the CLI.
Non-extendibility (claims 2.8, 2.9, 3.1, 3.4) is proved as the paper argues
it, by kernel searches: W is cyclable and W + A is not, for each jump A out of
W.  Only claim 4.1's small exceptions build a table; the table cap spares
the rest, and a proof's search count has a cap of its own.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import comb

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
    default_clique_sizes,
    gk_reference_elimination_order,
    jk_x_order,
    lift_cycle,
    witness_heavy_ham_cycle,
    witness_long_heavy_cycle,
)

# the most spanning-cycle searches one non-extendibility proof may run
_PROOF_SEARCH_CAP = 1 << 16


class CheckResult:
    """One check: verdict (None when a size cap stopped it), witness, detail, time."""

    __slots__ = ("name", "verdict", "witness", "detail", "elapsed_ms")

    def __init__(self, name: str, verdict: bool | None, witness: object = None,
                 detail: str = "", elapsed_ms: float = 0.0):
        self.name, self.verdict, self.witness = name, verdict, witness
        self.detail, self.elapsed_ms = detail, elapsed_ms


class ClaimRun:
    """The checks of one run, in the order they ran."""

    __slots__ = ("results",)

    def __init__(self):
        self.results: list[CheckResult] = []

    def check(self, name, fn):
        """Run fn and record its (verdict, witness[, detail]) or bare verdict.

        A size cap hit inside fn fails only this check: its verdict is None.
        A result type (ChordalityResult, ...) is a tuple too, but unwrapped
        it is a bare verdict: its bool() is recorded, with no witness.
        """
        t0 = time.perf_counter()
        try:
            out = fn()
        except SizeCapError as exc:
            out = (None, None, f"cap exceeded: {exc}")
        if type(out) is tuple:
            verdict, witness = out[0], out[1]
            detail = out[2] if len(out) > 2 else ""
        else:
            verdict, witness, detail = bool(out), None, ""
        self.results.append(CheckResult(
            name, verdict, witness, detail,
            (time.perf_counter() - t0) * 1000.0))
        return verdict


def _sizes(params, k):
    sizes = params.get("sizes")
    return default_clique_sizes(k) if sizes is None else tuple(sizes)


def _lifted_ham(k, h):
    """(spans h, cycle) for the heavy Hamiltonian witness of gk(k) lifted into h."""
    ham = lift_cycle(witness_heavy_ham_cycle(k), h).validate(h)
    return ham.vertex_set == frozenset(range(h.n)), list(ham)


def _kappa_is(g, k):
    cert = structure.vertex_connectivity(g)
    return cert.kappa == k, cert.cut


def spanning_check(g, subset=None):
    """find_spanning_cycle as a check: (is subset cyclable, the validated
    spanning cycle or None); subset defaults to all of V."""
    cyc = cycles.find_spanning_cycle(g, subset)
    return cyc is not None, cyc


def model_check(model, g):
    """verify_model as a check: (ok, no witness, the first discrepancy or "")."""
    ok, why = treemodel.verify_model(model, g)
    return ok, None, why or ""


def claim_2_3(run, params):
    """Base graphs are strongly chordal; the standard ordering eliminates them."""
    k = params.get("k", 3)
    g = build_gk(k)
    run.check(f"gk({k}) strongly chordal", lambda: chordal.is_strongly_chordal(g))
    order = gk_reference_elimination_order(k)
    run.check(f"gk({k}) standard order is a simple elimination order",
              lambda: chordal.is_simple_elimination_order(g, order))


def _gk_witness(run, params, name, witness, missing):
    """gk(k)'s witness(k) spans V minus the roles missing(k) and takes every heavy edge."""
    k = params.get("k", 3)
    g = build_gk(k)
    cyc = witness(k).validate(g)
    want = frozenset(range(g.n)) - {g.vertex(role) for role in missing(k)}
    run.check(f"gk({k}) {name} witness",
              lambda: (cyc.vertex_set == want
                       and all(e in cyc.edge_set() for e in g.heavy_edges),
                       list(cyc)))


def claim_2_4(run, params):
    """The heavy Hamiltonian witness is a Hamiltonian cycle through every heavy edge."""
    _gk_witness(run, params, "heavy Hamiltonian", witness_heavy_ham_cycle, lambda k: ())


def claim_2_5(run, params):
    """The long heavy witness spans everything except vk and z."""
    _gk_witness(run, params, "long heavy", witness_long_heavy_cycle, lambda k: ("z", f"v{k}"))


def claim_2_6(run, params):
    """No heavy cycle of the base graph misses exactly z or exactly vk."""
    k = params.get("k", 3)
    for extra_edge in (False, True):
        g = build_gk(k)
        tag = f"gk({k})"
        if extra_edge:
            g = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
            tag = f"gk({k})+u1u3"
        for drop in ("z", f"v{k}"):
            s = set(range(g.n)) - {g.vertex(drop)}
            run.check(f"{tag}: heavy cycles avoiding only {drop}",
                      lambda g=g, s=s: (cycles.find_heavy_cycle(g, s) is None, None))


def claim_2_8(run, params) -> LabeledGraph:
    """Pasted graphs are Hamiltonian yet have a frozen two-short cycle; returns the graph."""
    k = params.get("k", 3)
    spec = HkSpec(k, _sizes(params, k))
    h = build_hk(spec)
    run.check(f"hk{spec.clique_sizes} Hamiltonian", lambda: _lifted_ham(k, h))
    _not_extendible(run, h, "not cycle extendible", ("z", f"v{k}"), (1,))
    return h


def _not_extendible(run, g, name, dropped, jumps):
    """g is not S-cycle extendible for S = jumps, by the paper's argument:
    W = V minus the `dropped` roles is cyclable, has room for min(S) more
    vertices, and no W + A is, for A a j-subset of the dropped vertices and j
    in S.  The witness is W; returns W's validated cycle, or None on failure.
    A proof of more than _PROOF_SEARCH_CAP searches hits the cap before the
    first one."""
    drop = sorted(g.vertex(role) for role in dropped)
    frozen = set(range(g.n)) - set(drop)
    found = None

    def proof():
        nonlocal found
        searches = 1 + sum(comb(len(drop), j) for j in jumps)
        if searches > _PROOF_SEARCH_CAP:
            raise SizeCapError(f"the proof needs {searches} spanning-cycle searches; "
                               f"cap is {_PROOF_SEARCH_CAP}")
        found = cycles.find_spanning_cycle(g, frozen)
        return (found is not None and len(drop) >= min(jumps)
                and all(cycles.find_spanning_cycle(g, frozen.union(a)) is None
                        for j in jumps for a in combinations(drop, j)),
                sorted(frozen))
    return found if run.check(name, proof) else None


def claim_2_9(run, params):
    """The pasted counterexamples are strongly chordal on every size n >= 15."""
    h = claim_2_8(run, params)
    run.check("strongly chordal", lambda: chordal.is_strongly_chordal(h))
    run.check("chordal", lambda: bool(chordal.is_chordal(h)))


def claim_3_1(run, params):
    """Adding u1u3 caps induced paths at 8 without repairing extendibility."""
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
    _not_extendible(run, hp, "h_plus not cycle extendible", ("z", "v3"), (1,))


def claim_3_2(run, params):
    """Blow-ups are chordal, Hamiltonian, and have connectivity exactly k."""
    k = params.get("k", 3)
    s = build_s(k)
    run.check(f"s({k}) chordal", lambda: bool(chordal.is_chordal(s)))
    run.check(f"s({k}) Hamiltonian", lambda: spanning_check(s))
    run.check(f"s({k}) connectivity is exactly {k}", lambda: _kappa_is(s, k))


def claim_3_3(run, params):
    """Blow-ups carry the frozen two-short cycle but no one-short repair."""
    k = params.get("k", 3)
    s = build_s(k)
    z, vk = s.vertex("z"), s.vertex(f"v{k}")
    both = set(range(s.n)) - {z, vk}
    run.check(f"s({k}): V minus z,v{k} cyclable", lambda: spanning_check(s, both))
    for drop, v in (("z", z), (f"v{k}", vk)):
        sub = set(range(s.n)) - {v}
        run.check(f"s({k}): V minus {drop} not cyclable",
                  lambda sub=sub: (cycles.find_spanning_cycle(s, sub) is None, None))


def claim_3_4(run, params):
    """Subdivided pastes defeat extension by any length in the given set."""
    k = params.get("k", 3)
    s_set = sorted(set(params.get("s_set", (1, 2))))
    if not s_set or s_set[0] < 1:
        raise GraphError("the extension set must be nonempty, with positive lengths")
    m = max(s_set) + 1 if params.get("m") is None else params["m"]
    h = build_hkm(k, m, _sizes(params, k))
    name = f"hkm(k={k},m={m}) not {{{','.join(map(str, s_set))}}}-cycle extendible"
    cyc = _not_extendible(run, h, name, ["z"] + [f"v{i}" for i in range(k, k + m + 1)], s_set)
    if cyc is not None:
        run.check("witness is cyclable", lambda: (True, cyc))


def claim_3_5(run, params):
    """Counterexamples exist at every connectivity: 2 via pastes, k >= 3 via blow-ups."""
    h = build_hk(HkSpec(3, (3,) * 5))
    run.check("hk(3, all 3) has connectivity exactly 2", lambda: _kappa_is(h, 2))
    k = params.get("k", 3)
    s = build_s(k)
    run.check(f"s({k}) has connectivity exactly {k}", lambda: _kappa_is(s, k))


def claim_3_6(run, params):
    """The explicit subtree models verify, with the stated leaf/branch counts."""
    k = params.get("k", 3)
    spec = HkSpec(k, _sizes(params, k))
    h = build_hk(spec)
    model = treemodel.explicit_model_hk(spec, h)
    run.check(f"hk model verifies (k={k})", lambda: model_check(model, h))
    leaves, branch, maxdeg = treemodel.tree_stats(model.host)
    run.check(f"hk host: {2 * k - 1} leaves, {2 * k - 3} branch vertices, degree <= 3",
              lambda: ((leaves, branch, maxdeg) == (2 * k - 1, 2 * k - 3, 3), (leaves, branch, maxdeg)))
    x_order = jk_x_order(k, params.get("x_order"))
    j = build_jk(k, spec.clique_sizes, x_order)
    jmodel = treemodel.explicit_model_jk(k, spec.clique_sizes, x_order, j)
    run.check(f"jk model verifies (k={k})", lambda: model_check(jmodel, j))
    l2, b2, d2 = treemodel.tree_stats(jmodel.host)
    run.check(f"jk host: {2 * k} leaves, {2 * k - 2} branch vertices, degree <= 3",
              lambda: ((l2, b2, d2) == (2 * k, 2 * k - 2, 3), (l2, b2, d2)))


def claim_4_1(run, params):
    """Edge counts of the dense family; the three dense exceptions do not extend."""
    n = params.get("n", 15)
    d = build_dn(n)
    want = (n - 12) * (n - 13) // 2 + 37
    run.check(f"dn({n}) has {want} edges", lambda: (d.edge_count == want, d.edge_count))
    for which, n in ((1, 8), (2, 5), (3, 8)):
        g = build_hendry_exception(which, n)
        run.check(f"exception {which} fails full cycle extendibility",
                  lambda g=g: (not cycles.is_fully_cycle_extendible(g), None))


# each claim id: the claim, and the parameters it reads (params keys, given
# on the command line as the flags docs/claims.md lists for it)
CLAIMS = {
    "2.3": (claim_2_3, ("k",)),
    "2.4": (claim_2_4, ("k",)),
    "2.5": (claim_2_5, ("k",)),
    "2.6": (claim_2_6, ("k",)),
    "2.8": (claim_2_8, ("k", "sizes")),
    "2.9": (claim_2_9, ("k", "sizes")),
    "3.1": (claim_3_1, ("sizes",)),
    "3.2": (claim_3_2, ("k",)),
    "3.3": (claim_3_3, ("k",)),
    "3.4": (claim_3_4, ("k", "m", "sizes", "s_set")),
    "3.5": (claim_3_5, ("k",)),
    "3.6": (claim_3_6, ("k", "sizes", "x_order")),
    "4.1": (claim_4_1, ("n",)),
}


def run_claim(claim_id: str, params: dict | None = None) -> ClaimRun:
    """A new run, with the checks of claim `claim_id` on `params` added to it."""
    if claim_id not in CLAIMS:
        raise GraphError(f"unknown claim id {claim_id!r}; known: {sorted(CLAIMS)}")
    run = ClaimRun()
    CLAIMS[claim_id][0](run, params or {})
    return run
