"""Command-line front end: generate / check / certify / model.

Each report is one JSON object on one line of stdout (results sorted by check
name); diagnostics go to stderr.  Exit codes: 0 all requested properties hold,
1 some property failed (the report carries a witness), 2 usage error, 3 a size
cap was exceeded.

Each command's flags are declared once, in _COMMANDS.  A command's argv is
read straight against that table; argparse, built from the same table and
imported only then, gets the whole argv at the first token the table cannot
read exactly as argparse would, so it runs only to print help, the version or
a usage error.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import __version__, chordal, cycles, structure, treemodel
from .claims import CLAIMS, CheckResult, ClaimRun, model_check, run_claim, spanning_check
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
    default_clique_sizes,
    jk_x_order,
)
from .graph6 import load_graph, save_graph

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _json_default(obj):
    """json.dumps hook: a cycle as its vertex list, a set sorted, anything else by repr."""
    if isinstance(obj, Cycle):
        return list(obj.vertices)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return repr(obj)


def _parse_sizes(raw, k):
    if raw is None:
        return default_clique_sizes(k)
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise GraphError(f"could not parse clique sizes {raw!r}")


# each --family value: its builder, called by name so that a wrapper put on
# the name applies, and its parameters in the order its description prints them
_FAMILIES = {
    "gk": (lambda k: build_gk(k), ("k",)),
    "hk": (lambda k, sizes: build_hk(HkSpec(k, sizes)), ("k", "sizes")),
    "hplus": (lambda k, sizes: build_h_plus(HkSpec(k, sizes)), ("k", "sizes")),
    "s": (lambda k: build_s(k), ("k",)),
    "gkm": (lambda k, m: build_gkm(k, m), ("k", "m")),
    "hkm": (lambda k, m, sizes: build_hkm(k, m, sizes), ("k", "m", "sizes")),
    "jk": (lambda k, sizes, x_order: build_jk(k, sizes, x_order), ("k", "sizes", "x_order")),
    "dn": (lambda n: build_dn(n), ("n",)),
    "hendry-exception": (lambda which, n: build_hendry_exception(which, n), ("which", "n")),
}


def _refuse_unread(args, owner: str, reads) -> None:
    """A usage error naming the first of certify's flags but --mode (each
    names a graph or sets a parameter) that args sets and `owner`, which
    reads the attributes `reads`, does not read."""
    for option, flag in _COMMANDS["certify"][1].items():
        if flag.dest not in reads and option != "--mode" and \
                getattr(args, flag.dest, None) is not None:
            raise GraphError(f"{owner} does not take {option}")


def _family_params(args) -> dict:
    """args.family's parameters from args: sizes and x_order default from k,
    any other missing one is an error, and then so is a flag the family does
    not take (--set is certify's to judge, by its mode)."""
    params = {}
    for p in _FAMILIES[args.family][1]:
        val = getattr(args, p)
        if p == "sizes":
            val = _parse_sizes(val, params["k"])
        elif p == "x_order":
            val = jk_x_order(params["k"], val)
        elif val is None:
            raise GraphError(f"family {args.family} needs --{p}")
        params[p] = val
    _refuse_unread(args, f"family {args.family}", ("family", "s_set", *params))
    return params


def _build_family(args) -> tuple[LabeledGraph, str]:
    params = _family_params(args)
    desc = ", ".join(f"{p}={v}" for p, v in params.items())
    return _FAMILIES[args.family][0](**params), f"{args.family}({desc})"


def _load_input(args) -> tuple[LabeledGraph, str]:
    """The input file's graph, or else the --family member; an input file
    takes no --family or family flags."""
    if args.input is not None:
        _refuse_unread(args, "an input file", ("input", "sidecar", "s_set"))
        return load_graph(args.input, args.sidecar), args.input
    if args.family is not None:
        return _build_family(args)
    raise GraphError("provide an input file or a --family")


def _emit(command: str, desc: str, parameters: dict, results: list[CheckResult],
          **extra) -> int:
    """Write the report (extra, e.g. a model, between parameters and results)
    and return its exit code."""
    for r in results:
        if r.verdict is None:
            print(f"{r.name}: {r.detail}", file=sys.stderr)
    results = sorted(results, key=lambda r: r.name)
    report = {"command": command, "input": desc, "version": __version__,
              "parameters": parameters, **extra, "results": [
                  {"name": r.name, "verdict": r.verdict, "witness": r.witness,
                   "detail": r.detail, "elapsed_ms": round(r.elapsed_ms, 3)}
                  for r in results]}
    sys.stdout.write(json.dumps(report, default=_json_default) + "\n")
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
    sys.stdout.write(json.dumps(info) + "\n")
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
            return order is not None, order, "" if order is None else "simple elimination order"
        run.check("strongly-chordal", strong_fn)
    if args.hamiltonian:
        run.check("hamiltonian", lambda: spanning_check(g))
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
        print("error: no checks requested", file=sys.stderr)
        return EXIT_USAGE
    return _emit("check", desc, {"n": g.n, "edges": g.edge_count}, run.results)


def cmd_certify(args) -> int:
    mode = args.mode
    params = {p: _parse_sizes(val, args.k) if p == "sizes" else val
              for p in (*(f.dest for f in _PARAMETERS.values()), _SET.dest)
              if (val := getattr(args, p)) is not None}

    if mode in ("extendibility", "s-extendibility"):
        if mode == "extendibility" and args.s_set is not None:
            raise GraphError("mode extendibility does not take --set")
        if mode == "s-extendibility" and args.s_set is None:
            raise GraphError("s-extendibility needs --set, e.g. --set 1,2")
        name, jumps = ("cycle-extendible", (1,)) if mode == "extendibility" else \
            (f"s-cycle-extendible {sorted(args.s_set)}", args.s_set)
        g, desc = _load_input(args)

        def ext_fn():
            verdict = cycles.is_s_cycle_extendible(g, jumps)
            return verdict.extendible, verdict.witness, ""
        run = ClaimRun()
        run.check(name, ext_fn)
        return _emit("certify", desc, params, run.results)
    if mode.startswith("lemma:"):
        claim_id = mode[len("lemma:"):]
        if claim_id in CLAIMS:
            _refuse_unread(args, f"claim {claim_id}", CLAIMS[claim_id][1])
        return _emit("certify", mode, params, run_claim(claim_id, params).results)
    raise GraphError(f"unknown certify mode {mode!r}")


def cmd_model(args) -> int:
    run = ClaimRun()
    if args.input is not None:
        g, desc = _load_input(args)
        model = treemodel.clique_tree(g)
    elif args.family in ("hk", "jk"):
        params = _family_params(args)
        g, desc = _FAMILIES[args.family][0](**params), f"{args.family}(k={params['k']})"
        model = (treemodel.explicit_model_hk(HkSpec(*params.values()), g)
                 if args.family == "hk" else treemodel.explicit_model_jk(*params.values(), g))
    else:
        raise GraphError("model needs --family hk|jk or an input graph")

    leaves, branch, maxdeg = treemodel.tree_stats(model.host)
    payload = model.to_dict()
    payload["stats"] = {"leaves": leaves, "branch_vertices": branch,
                        "max_degree": maxdeg}
    if args.verify:
        run.check("model-verifies", lambda: model_check(model, g))
    return _emit("model", desc, {"n": g.n}, run.results, model=payload)


# -- argument parsing -----------------------------------------------------------

def _positive_int(raw: str) -> int:
    """An integer >= 1; anything else is a usage error."""
    if not raw.isdecimal() or int(raw) < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return int(raw)


def _jump_set(raw: str) -> tuple[int, ...]:
    """--set's value: comma-separated positive integers."""
    return tuple(map(_positive_int, raw.split(",")))


# One flag of a command: the attribute it sets, how its value is read (None
# for a switch, which sets True), the values it may take (None: any its
# reader returns), whether it is required, and its help metavar and text.
_Flag = namedtuple("_Flag", "dest read choices required metavar help",
                   defaults=(str, None, False, None, None))

_FAMILY = _Flag("family", choices=tuple(_FAMILIES))
# the flags that set a family's or a claim's parameter, in report order
_PARAMETERS = {
    "--k": _Flag("k", int),
    "--m": _Flag("m", int),
    "--sizes": _Flag("sizes", help="comma-separated clique sizes, one per heavy edge"),
    "--x-order": _Flag("x_order", int),
    "--n": _Flag("n", int),
    "--which": _Flag("which", int, (1, 2, 3)),
}
_SET = _Flag("s_set", _jump_set, metavar="SET",
             help="extension lengths for s-extendibility, e.g. 1,2")

# each command: its help line and its flags by option string, in help order;
# a name without a leading "-" is a positional that may be left out
_COMMANDS = {
    "generate": ("write a family member as graph6 + JSON sidecar", {
        "--family": _FAMILY._replace(required=True), **_PARAMETERS,
        "--out": _Flag("out", help="output base path (writes <out>.g6 and <out>.json)")}),
    "check": ("run recognizers against a graph", {
        "input": _Flag("input", help="graph6 file"),
        "--sidecar": _Flag("sidecar", help="roles/heavy-edges JSON"),
        "--family": _FAMILY, **_PARAMETERS,
        "--chordal": _Flag("chordal", None),
        "--strongly-chordal": _Flag("strongly_chordal", None),
        "--hamiltonian": _Flag("hamiltonian", None),
        "--connectivity": _Flag("connectivity", None),
        "--induced-path": _Flag("induced_path", None),
        "--pt-free": _Flag("pt_free", _positive_int, metavar="T"),
        "--bull-free": _Flag("bull_free", None)}),
    "certify": ("run extendibility engines or a named claim", {
        "--input": _Flag("input", help="graph6 file"),
        "--sidecar": _Flag("sidecar"),
        "--family": _FAMILY, **_PARAMETERS,
        "--mode": _Flag("mode", required=True,
                        help="extendibility | s-extendibility | lemma:<id>"),
        "--set": _SET}),
    "model": ("emit a subtree intersection model", {
        "--input": _Flag("input", help="graph6 file (clique tree mode)"),
        "--sidecar": _Flag("sidecar"),
        "--family": _FAMILY, **_PARAMETERS,
        "--verify": _Flag("verify", None)}),
}


@functools.cache
def build_parser():
    """The argparse.ArgumentParser of _COMMANDS, built once per process
    (parsing leaves it unchanged)."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="hendry",
        description="Generate and certify Hamiltonian chordal graphs that do not extend cycles.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for option, f in flags.items():
            if option[0] != "-":
                p.add_argument(option, nargs="?", help=f.help)
            elif f.read is None:
                p.add_argument(option, dest=f.dest, action="store_true", help=f.help)
            else:
                p.add_argument(option, dest=f.dest, type=f.read, choices=f.choices,
                               required=f.required, metavar=f.metavar, help=f.help)
    return ap


def _read(command: str, tokens: list[str]) -> dict | None:
    """The attributes that command's tokens set, read as argparse reads them,
    or None from the first token it might read otherwise or refuse: an option
    string not command's own (an abbreviation, --x=y, --, -h), a value that
    starts with "-" (which argparse may read as a negative number or an
    option), is missing, or is refused by its reader or choices, a positional
    past the command's, or, at the end, a required flag not given."""
    flags = _COMMANDS[command][1]
    args = {"command": command, **{f.dest: None if f.read else False for f in flags.values()}}
    free, tokens = [f.dest for option, f in flags.items() if option[0] != "-"], iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            if not free:
                return None
            args[free.pop(0)] = token
            continue
        flag = flags.get(token)
        if flag is None:
            return None
        if flag.read is None:
            args[flag.dest] = True
            continue
        raw = next(tokens, None)
        if raw is None or raw[:1] == "-":
            return None
        try:
            value = flag.read(raw)
        except Exception:  # argparse reads it again and reports or raises it
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        args[flag.dest] = value
    if any(f.required and args[f.dest] is None for f in flags.values()):
        return None
    return args


def _parse(argv: list[str]):
    """argv parsed as build_parser().parse_args parses it: a known command's
    argv is read by _read, and what _read cannot read (and anything but a
    known command) goes to argparse, which prints help, the version or a
    usage error and exits."""
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return build_parser().parse_args(argv) if args is None else SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
