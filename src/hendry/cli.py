"""Command-line front end: generate / check / certify / model.

Reports are JSON on stdout (results sorted by check name); diagnostics go to
stderr.  Exit codes: 0 all requested properties hold, 1 some property failed
(the report carries a witness), 2 usage error, 3 a size cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, chordal, cycles, structure, treemodel
from .claims import CheckResult, ClaimRun, model_check, run_claim
from .core import Cycle, GraphError, LabeledGraph, SizeCapError
from .families import (
    HkSpec,
    build_dn,
    build_gk,
    build_gkm,
    build_h_plus,
    build_hendry_exception,
    build_hk,
    build_hkm,
    build_jk,
    build_s,
)
from .graph6 import load_graph, save_graph

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Cycle):
        return list(obj.vertices)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    return repr(obj)


def _parse_sizes(raw, k):
    if raw is None:
        return (3,) * (2 * k - 1)
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise GraphError(f"could not parse clique sizes {raw!r}")


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1, so a bad value is a usage error."""
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return int(raw)


def _need(args, flag):
    val = getattr(args, flag.lstrip("-").replace("-", "_"))
    if val is None:
        raise GraphError(f"family {args.family} needs {flag}")
    return val


def _build_family(args) -> tuple[LabeledGraph, str]:
    fam = args.family
    if fam == "gk":
        k = _need(args, "--k")
        return build_gk(k), f"gk(k={k})"
    if fam == "hk":
        spec = HkSpec(_need(args, "--k"), _parse_sizes(args.sizes, args.k))
        return build_hk(spec), f"hk(k={spec.k}, sizes={spec.clique_sizes})"
    if fam == "hplus":
        spec = HkSpec(_need(args, "--k"), _parse_sizes(args.sizes, args.k))
        return build_h_plus(spec), f"hplus(k={spec.k}, sizes={spec.clique_sizes})"
    if fam == "s":
        k = _need(args, "--k")
        return build_s(k), f"s(k={k})"
    if fam == "gkm":
        k, m = _need(args, "--k"), _need(args, "--m")
        return build_gkm(k, m), f"gkm(k={k}, m={m})"
    if fam == "hkm":
        k, m = _need(args, "--k"), _need(args, "--m")
        sizes = _parse_sizes(args.sizes, k)
        return build_hkm(k, m, sizes), f"hkm(k={k}, m={m}, sizes={sizes})"
    if fam == "jk":
        k = _need(args, "--k")
        sizes = _parse_sizes(args.sizes, k)
        x_order = args.x_order if args.x_order is not None else k + 3
        return build_jk(k, sizes, x_order), f"jk(k={k}, sizes={sizes}, x_order={x_order})"
    if fam == "dn":
        n = _need(args, "--n")
        return build_dn(n), f"dn(n={n})"
    if fam == "hendry-exception":
        which, n = _need(args, "--which"), _need(args, "--n")
        return build_hendry_exception(which, n), \
            f"hendry-exception(which={which}, n={n})"
    raise GraphError(f"unknown family {fam!r}")


def _load_input(args) -> tuple[LabeledGraph, str]:
    if getattr(args, "input", None):
        return load_graph(args.input, getattr(args, "sidecar", None)), args.input
    if getattr(args, "family", None):
        return _build_family(args)
    raise GraphError("provide an input file or a --family")


def _emit(report: dict, results: list[CheckResult]) -> int:
    for r in results:
        if r.verdict is None:
            print(f"{r.name}: {r.detail}", file=sys.stderr)
    results = sorted(results, key=lambda r: r.name)
    report["results"] = [
        {"name": r.name, "verdict": r.verdict, "witness": jsonable(r.witness),
         "detail": r.detail, "elapsed_ms": round(r.elapsed_ms, 3)}
        for r in results
    ]
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if any(r.verdict is None for r in results):
        return EXIT_CAP
    if any(r.verdict is False for r in results):
        return EXIT_PROPERTY_FAIL
    return EXIT_OK


# -- subcommands ---------------------------------------------------------------

def cmd_generate(args) -> int:
    g, desc = _build_family(args)
    out = args.out or args.family.replace("-", "_")
    g6_path, side_path = save_graph(g, out)
    info = {"command": "generate", "input": desc, "version": __version__,
            "n": g.n, "edges": g.edge_count, "heavy_edges": len(g.heavy_edges),
            "files": [g6_path, side_path]}
    sys.stdout.write(json.dumps(info, indent=2) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    g, desc = _load_input(args)
    run = ClaimRun()
    done = {}

    def once(engine):
        """engine(g), computed by the first check that asks for it."""
        if engine not in done:
            done[engine] = engine(g)
        return done[engine]

    if args.chordal:
        def chordal_fn():
            res = once(chordal.is_chordal)
            wit = list(res.peo) if res else list(res.hole)
            return res.chordal, wit, "peo" if res else "chordless cycle"
        run.check("chordal", chordal_fn)
    if args.strongly_chordal:
        def strong_fn():
            order = chordal.find_simple_elimination_order(g)
            ok = bool(once(chordal.is_chordal)) and order is not None
            return ok, order, "simple elimination order" if ok else ""
        run.check("strongly-chordal", strong_fn)
    if args.hamiltonian:
        def ham_fn():
            cyc = cycles.find_spanning_cycle(g)
            return cyc is not None, cyc, ""
        run.check("hamiltonian", ham_fn)
    if args.connectivity:
        def conn_fn():
            cert = structure.vertex_connectivity(g)
            return True, {"kappa": cert.kappa, "cut": cert.cut}, "informational"
        run.check("connectivity", conn_fn)
    if args.induced_path:
        def path_fn():
            length, path = once(structure.longest_induced_path)
            return True, {"length": length, "path": list(path)}, "informational"
        run.check("induced-path", path_fn)
    if args.pt_free is not None:
        def pt_fn():
            length, path = once(structure.longest_induced_path)
            ok = length < args.pt_free
            return ok, None if ok else list(path), f"longest induced path: {length}"
        run.check(f"p{args.pt_free}-free", pt_fn)
    if args.bull_free:
        def bull_fn():
            res = chordal.is_bull_free(g)
            return res.bull_free, res.witness, ""
        run.check("bull-free", bull_fn)

    if not run.results:
        print("no checks requested", file=sys.stderr)
        return EXIT_USAGE
    report = {"command": "check", "input": desc, "version": __version__,
              "parameters": {"n": g.n, "edges": g.edge_count}}
    return _emit(report, run.results)


def cmd_certify(args) -> int:
    mode = args.mode
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.m is not None:
        params["m"] = args.m
    if args.sizes is not None:
        params["sizes"] = _parse_sizes(args.sizes, args.k or 3)
    if args.x_order is not None:
        params["x_order"] = args.x_order
    if args.n is not None:
        params["n"] = args.n
    if args.set is not None:
        params["s_set"] = args.set

    if mode in ("extendibility", "s-extendibility"):
        if mode == "s-extendibility" and args.set is None:
            raise GraphError("s-extendibility needs --set, e.g. --set 1,2")
        name, jumps = ("cycle-extendible", (1,)) if mode == "extendibility" else \
            (f"s-cycle-extendible {sorted(args.set)}", args.set)
        g, desc = _load_input(args)

        def ext_fn():
            verdict = cycles.is_s_cycle_extendible(g, jumps)
            return verdict.extendible, verdict.witness, ""
        run = ClaimRun()
        run.check(name, ext_fn)
        report = {"command": "certify", "input": desc, "version": __version__,
                  "parameters": jsonable(params)}
        return _emit(report, run.results)
    if mode.startswith("lemma:"):
        claim_id = mode[len("lemma:"):]
        run = run_claim(claim_id, params)
        report = {"command": "certify", "input": f"lemma:{claim_id}",
                  "version": __version__, "parameters": jsonable(params)}
        return _emit(report, run.results)
    raise GraphError(f"unknown certify mode {mode!r}")


def cmd_model(args) -> int:
    run = ClaimRun()
    if args.family == "hk":
        k = _need(args, "--k")
        spec = HkSpec(k, _parse_sizes(args.sizes, k))
        g, desc = build_hk(spec), f"hk(k={k})"
        model = treemodel.explicit_model_hk(spec, g)
    elif args.family == "jk":
        k = _need(args, "--k")
        sizes = _parse_sizes(args.sizes, k)
        x_order = args.x_order if args.x_order is not None else k + 3
        g, desc = build_jk(k, sizes, x_order), f"jk(k={k})"
        model = treemodel.explicit_model_jk(k, sizes, x_order, g)
    elif args.input:
        g, desc = _load_input(args)
        model = treemodel.clique_tree(g)
    else:
        raise GraphError("model needs --family hk|jk or an input graph")

    leaves, branch, maxdeg = treemodel.tree_stats(model.host)
    payload = model.to_dict()
    payload["stats"] = {"leaves": leaves, "branch_vertices": branch,
                        "max_degree": maxdeg}
    if args.verify:
        run.check("model-verifies", lambda: model_check(model, g))
    report = {"command": "model", "input": desc, "version": __version__,
              "parameters": {"n": g.n}, "model": jsonable(payload)}
    return _emit(report, run.results)


# -- argument parsing -----------------------------------------------------------

def _add_family_args(p, require=False):
    p.add_argument("--family", required=require,
                   choices=["gk", "hk", "hplus", "s", "gkm", "hkm", "jk", "dn",
                            "hendry-exception"])
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sizes", help="comma-separated clique sizes, one per heavy edge")
    p.add_argument("--x-order", dest="x_order", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--which", type=int, choices=[1, 2, 3])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="hendry",
        description="Generate and certify Hamiltonian chordal graphs that do not extend cycles.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a family member as graph6 + JSON sidecar")
    _add_family_args(gen, require=True)
    gen.add_argument("--out", help="output base path (writes <out>.g6 and <out>.json)")

    chk = sub.add_parser("check", help="run recognizers against a graph")
    chk.add_argument("input", nargs="?", help="graph6 file")
    chk.add_argument("--sidecar", help="roles/heavy-edges JSON")
    _add_family_args(chk)
    chk.add_argument("--chordal", action="store_true")
    chk.add_argument("--strongly-chordal", dest="strongly_chordal", action="store_true")
    chk.add_argument("--hamiltonian", action="store_true")
    chk.add_argument("--connectivity", action="store_true")
    chk.add_argument("--induced-path", dest="induced_path", action="store_true")
    chk.add_argument("--pt-free", dest="pt_free", type=_positive_int, metavar="T")
    chk.add_argument("--bull-free", dest="bull_free", action="store_true")

    cert = sub.add_parser("certify", help="run extendibility engines or a named claim")
    cert.add_argument("--input", help="graph6 file")
    cert.add_argument("--sidecar")
    _add_family_args(cert)
    cert.add_argument("--mode", required=True,
                      help="extendibility | s-extendibility | lemma:<id>")
    cert.add_argument("--set", type=lambda raw: tuple(map(_positive_int, raw.split(","))),
                      help="extension lengths for s-extendibility, e.g. 1,2")

    mod = sub.add_parser("model", help="emit a subtree intersection model")
    mod.add_argument("--input", help="graph6 file (clique tree mode)")
    mod.add_argument("--sidecar")
    _add_family_args(mod)
    mod.add_argument("--verify", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "certify":
            return cmd_certify(args)
        if args.command == "model":
            return cmd_model(args)
        return EXIT_USAGE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
