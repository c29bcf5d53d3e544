"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Two literal sub-assertions are machine-refuted by the exact engines and kept
in their own clearly named tests (they fail with an explanation; see the
"Known findings" section of the README): the smallest blow-up DOES have a
spanning cycle avoiding z, and the subdivided-paste witness must also omit
z and v3.  Everything else passes at the stated budgets.
"""

import random
import time

import pytest

from hendry import (
    HkSpec,
    build_cyclable_table,
    build_dn,
    build_gk,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
    find_heavy_cycle,
    find_simple_elimination_order,
    find_spanning_cycle,
    gk_reference_elimination_order,
    induces_path,
    is_chordal,
    is_cycle_extendible,
    is_fully_cycle_extendible,
    is_s_cycle_extendible,
    is_simple_elimination_order,
    is_strongly_chordal,
    lift_cycle,
    longest_induced_path,
    is_pt_free,
    explicit_model_hk,
    explicit_model_jk,
    tree_stats,
    vertex_connectivity,
    verify_model,
    witness_heavy_ham_cycle,
    witness_long_heavy_cycle,
)
from oracles import (
    brute_force_chordal,
    brute_force_kappa,
    gnp,
    is_cyclable,
    is_strongly_chordal_definitional,
    permutation_cyclable_sets,
    table_cyclable,
    three_sun,
    uniform_spec,
)


def _report(name, ok, elapsed, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {note}" if note else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s){suffix}")


def test_criterion_1_strongly_chordal_base():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 7):
        g = build_gk(k)
        ok &= is_strongly_chordal(g)
        ok &= is_simple_elimination_order(g, gk_reference_elimination_order(k))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (strong chordality of the base family)", ok, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_witness_cycles():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 9):
        g = build_gk(k)
        c = witness_heavy_ham_cycle(k).validate(g)
        ok &= c.vertex_set == frozenset(range(g.n))
        ok &= all(e in c.edge_set() for e in g.heavy_edges)
    for k in range(2, 9):
        g = build_gk(k)
        c = witness_long_heavy_cycle(k).validate(g)
        ok &= c.vertex_set == frozenset(range(g.n)) - {g.vertex("z"), g.vertex(f"v{k}")}
        ok &= all(e in c.edge_set() for e in g.heavy_edges)
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (heavy witness cycles)", ok, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_no_one_short_heavy_cycle():
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 7):
        for shortcut in (False, True):
            g = build_gk(k)
            if shortcut:
                g = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
            allv = set(range(g.n))
            ok &= find_heavy_cycle(g, allv - {g.vertex("z")}) is None
            ok &= find_heavy_cycle(g, allv - {g.vertex(f"v{k}")}) is None
    elapsed = time.perf_counter() - t0
    _report("criterion 3 (no heavy cycle one vertex short)", ok, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_4_pasted_counterexamples():
    # n = 15 gets the full subset table; 16..20 get the targeted witness checks
    ok = True
    t0 = time.perf_counter()
    h15 = build_hk(uniform_spec(3))
    expect = frozenset(range(h15.n)) - {h15.vertex("z"), h15.vertex("v3")}
    table = build_cyclable_table(h15)
    verdict = is_cycle_extendible(h15)
    full_elapsed = time.perf_counter() - t0
    ok &= bool(is_chordal(h15)) and is_strongly_chordal(h15)
    ok &= table_cyclable(table, range(h15.n))
    ok &= (not verdict.extendible) and verdict.witness == expect

    targeted_at_20 = None
    for n in range(16, 21):
        sizes = (3, 3, 3, 3, 3 + (n - 15))
        h = build_hk(HkSpec(3, sizes))
        assert h.n == n
        t1 = time.perf_counter()
        ok &= bool(is_chordal(h)) and is_strongly_chordal(h)
        ham = lift_cycle(witness_heavy_ham_cycle(3), h)
        ok &= ham.vertex_set == frozenset(range(n))
        frozen = set(range(n)) - {h.vertex("z"), h.vertex("v3")}
        ok &= find_spanning_cycle(h, frozen) is not None
        ok &= find_spanning_cycle(h, frozen | {h.vertex("z")}) is None
        ok &= find_spanning_cycle(h, frozen | {h.vertex("v3")}) is None
        if n == 20:
            targeted_at_20 = time.perf_counter() - t1
    elapsed = time.perf_counter() - t0
    _report("criterion 4 (counterexamples on 15..20 vertices)", ok, elapsed,
            f"full table {full_elapsed:.2f}s, targeted n=20 {targeted_at_20:.2f}s")
    assert ok
    assert full_elapsed < 5.0
    assert targeted_at_20 < 1.0


def test_criterion_5_induced_path_bound():
    t0 = time.perf_counter()
    g = build_gk(3)
    gp = g.with_added_edges([(g.vertex("u1"), g.vertex("u3"))])
    length, path = longest_induced_path(gp)
    ok = length == 6 and induces_path(gp, path)
    named = [g.vertex(nm) for nm in ("u1", "u3", "z", "v3", "v2", "v1")]
    ok &= induces_path(gp, named)

    hp = build_h_plus(uniform_spec(3))
    ok &= is_pt_free(hp, 9)
    ok &= bool(is_chordal(hp)) and is_strongly_chordal(hp)
    table = build_cyclable_table(hp)
    ok &= table_cyclable(table, range(hp.n))
    verdict = is_cycle_extendible(hp)
    expect = frozenset(range(hp.n)) - {hp.vertex("z"), hp.vertex("v3")}
    ok &= (not verdict.extendible) and verdict.witness == expect
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (induced paths capped at 8)", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_6_blowups():
    # the parts of the criterion the engines confirm, at both sizes
    t0 = time.perf_counter()
    ok = True
    s3 = build_s(3)
    allv = set(range(s3.n))
    z, vk = s3.vertex("z"), s3.vertex("v3")
    ok &= bool(is_chordal(s3))
    table = build_cyclable_table(s3)
    ok &= table_cyclable(table, allv)
    ok &= vertex_connectivity(s3).kappa == 3
    ok &= table_cyclable(table, allv - {z, vk})
    ok &= not table_cyclable(table, allv - {vk})
    k3_elapsed = time.perf_counter() - t0

    s4 = build_s(4)
    allv4 = set(range(s4.n))
    z4, vk4 = s4.vertex("z"), s4.vertex("v4")
    ok &= bool(is_chordal(s4))
    ok &= find_spanning_cycle(s4, allv4) is not None
    ok &= vertex_connectivity(s4).kappa == 4
    ok &= find_spanning_cycle(s4, allv4 - {z4, vk4}) is not None
    ok &= find_spanning_cycle(s4, allv4 - {z4}) is None
    ok &= find_spanning_cycle(s4, allv4 - {vk4}) is None
    elapsed = time.perf_counter() - t0
    _report("criterion 6 (blow-ups, confirmed checks)", ok, elapsed,
            f"k=3 full run {k3_elapsed:.2f}s")
    assert ok
    assert k3_elapsed < 60.0


def test_criterion_6_k3_z_deletion_as_stated():
    # stated: cyclable(V minus z) = false for build_s(3).  The engine refutes
    # it: the quotient of the smallest blow-up is the k=2 base graph, whose
    # heavy 6-cycle avoids z, and it lifts.  See README "Known findings".
    t0 = time.perf_counter()
    s3 = build_s(3)
    cyc = is_cyclable(s3, set(range(s3.n)) - {s3.vertex("z")})
    _report("criterion 6 (k=3: V minus z not cyclable, as stated)", not cyc,
            time.perf_counter() - t0,
            "refuted: the set has a spanning cycle; the smallest blow-up is cycle extendible")
    assert not cyc, ("build_s(3) has a spanning cycle on V minus z; "
                     "the k=3 instance of the one-short exclusion is false "
                     "(see README known findings)")


def test_criterion_7_s_extendibility():
    ok = True
    t0 = time.perf_counter()
    per_set = {}
    for s_set in ({1}, {1, 2}, {2, 3}):
        m = max(s_set) + 1
        h = build_hkm(3, m, (3,) * 5)
        t1 = time.perf_counter()
        verdict = is_s_cycle_extendible(h, s_set)
        per_set[tuple(sorted(s_set))] = time.perf_counter() - t1
        ok &= not verdict.extendible
        ok &= verdict.witness is not None and is_cyclable(h, verdict.witness)
        omitted = set(range(h.n)) - verdict.witness
        tail = {h.vertex(f"v{3 + j}") for j in range(1, m + 1)}
        ok &= tail <= omitted  # the subdivision tail is never reachable
    elapsed = time.perf_counter() - t0
    _report("criterion 7 (not S-cycle extendible)", ok, elapsed,
            " ".join(f"S={list(k)}:{v:.2f}s" for k, v in per_set.items()))
    assert ok
    assert all(v < 60.0 for v in per_set.values())


def test_criterion_7_witness_identity_as_stated():
    # stated witness: V minus exactly {v4..v_{3+m}}.  The engine refutes it:
    # that set is not cyclable (the pasted interiors saturate x1 and x2, z is
    # forced onto u3 and x3, and v3 is left with one usable neighbor), so the
    # true witness also omits z and v3.  See README "Known findings".
    t0 = time.perf_counter()
    h = build_hkm(3, 3, (3,) * 5)
    stated = set(range(h.n)) - {h.vertex("v4"), h.vertex("v5"), h.vertex("v6")}
    stated_cyclable = is_cyclable(h, stated)
    verdict = is_s_cycle_extendible(h, {1, 2})
    match = verdict.witness == frozenset(stated)
    _report("criterion 7 (witness omits exactly v4..v6, as stated)", match,
            time.perf_counter() - t0,
            f"refuted: stated set cyclable={stated_cyclable}; "
            f"engine witness also omits z and v3")
    assert match, ("the stated witness V minus {v4..v6} is not cyclable, so "
                   "it cannot witness non-extendibility; the engine's witness "
                   "also omits z and v3 (see README known findings)")


def test_criterion_8_tree_models():
    t0 = time.perf_counter()
    ok = True
    for k in range(3, 7):
        spec = uniform_spec(k)
        model = explicit_model_hk(spec)
        good, _ = verify_model(model, build_hk(spec))
        ok &= good and tree_stats(model.host) == (2 * k - 1, 2 * k - 3, 3)
        jmodel = explicit_model_jk(k, spec.clique_sizes, k + 3)
        good, _ = verify_model(jmodel, build_jk(k, spec.clique_sizes, k + 3))
        ok &= good and tree_stats(jmodel.host) == (2 * k, 2 * k - 2, 3)
    elapsed = time.perf_counter() - t0
    _report("criterion 8 (subtree models and host stats)", ok, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_9_density_and_exceptions():
    t0 = time.perf_counter()
    ok = True
    for n in range(15, 26):
        want = (n - 12) * (n - 13) // 2 + 37
        ok &= build_dn(n).edge_count == want
    for which, n in ((1, 8), (2, 5), (3, 8)):
        ok &= not is_fully_cycle_extendible(build_hendry_exception(which, n))
    elapsed = time.perf_counter() - t0
    _report("criterion 9 (dense family and exceptions)", ok, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_10_oracle_suites():
    t0 = time.perf_counter()

    # (a) cyclable DP vs permutation enumeration, all subsets
    rng = random.Random(101)
    t_a = time.perf_counter()
    for _ in range(500):
        g = gnp(rng.randint(1, 8), 0.5, rng)
        table = build_cyclable_table(g)
        oracle = permutation_cyclable_sets(g)
        got = {m for m in range(1 << g.n) if table_cyclable(table, m)}
        assert got == oracle
    t_a = time.perf_counter() - t_a

    # (b) chordality vs induced-cycle scan
    rng = random.Random(102)
    t_b = time.perf_counter()
    for _ in range(10_000):
        g = gnp(rng.randint(1, 10), 0.5, rng)
        assert bool(is_chordal(g)) == brute_force_chordal(g)
    t_b = time.perf_counter() - t_b

    # (c) elimination-based vs definitional strong chordality, plus the sun
    rng = random.Random(103)
    t_c = time.perf_counter()
    for _ in range(2_000):
        g = gnp(rng.randint(1, 10), 0.5, rng)
        assert is_strongly_chordal(g) == is_strongly_chordal_definitional(g)
    sun = three_sun()
    assert is_chordal(sun) and not is_strongly_chordal(sun)
    assert find_simple_elimination_order(sun) is None
    t_c = time.perf_counter() - t_c

    # (d) connectivity vs cut enumeration
    rng = random.Random(104)
    t_d = time.perf_counter()
    for _ in range(500):
        g = gnp(rng.randint(2, 9), 0.5, rng)
        assert vertex_connectivity(g).kappa == brute_force_kappa(g)
    t_d = time.perf_counter() - t_d

    elapsed = time.perf_counter() - t0
    _report("criterion 10 (oracle suites)", True, elapsed,
            f"a={t_a:.1f}s b={t_b:.1f}s c={t_c:.1f}s d={t_d:.1f}s")
    assert elapsed < 600.0
