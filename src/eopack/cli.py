"""Command-line front door for invariants, products, witnesses and checks.

Exit codes: 0 success (all checks passed), 1 check failures, check errors,
an invalid witness or an unverified table row, 2 usage errors (including a
malformed EOPACK_MAX_* value, a negative --max-items, --max-n or --budget, a
nan --budget and an unreadable or unwritable file), 3 solver capacity
exceeded.  The default solver caps can be overridden with the
EOPACK_MAX_ITEMS and EOPACK_MAX_VERTICES environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import constructions, harness, invariants, products
from .graph import Graph, GraphError, hypercube, iter_graph6, parse_graph6, write_graph6

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_INVARIANTS = {
    "nu-i": invariants.nu_i,
    "rho-eo": invariants.rho_eo,
    "alpha": invariants.alpha,
    "beta": invariants.beta,
    "rho-o": invariants.rho_o,
    "rho-2": lambda g, max_items=None: invariants.distance_packing(g, 2, max_items),
    "rho-3": lambda g, max_items=None: invariants.distance_packing(g, 3, max_items),
    "gamma": invariants.gamma,
}

_EDGE_INVARIANTS = {"nu-i", "rho-eo"}


def _format_witness(g: Graph, w, edge_valued: bool) -> str:
    if edge_valued:
        return " ".join(f"{u}-{v}" for u, v in (g.edges[i] for i in w))
    return " ".join(map(str, w))


def _require_nonnegative(flag: str, value) -> None:
    # "not >= 0" also refuses nan, which compares false with every number
    if value is not None and not value >= 0:
        kind = "number" if isinstance(value, float) else "integer"
        raise GraphError(f"{flag} must be a nonnegative {kind}, got {value}")


def _cmd_compute(args) -> int:
    if (args.g6 is None) == (args.file is None):
        raise GraphError("compute needs exactly one of --g6 or --file")
    _require_nonnegative("--max-items", args.max_items)
    if args.g6 is not None:
        graphs = [parse_graph6(args.g6)]
    else:
        try:
            with open(args.file, newline="") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{args.file} is not a graph6 text file: {exc}") from None
        try:
            graphs = list(iter_graph6(text))
        except GraphError as exc:
            raise GraphError(f"{args.file}: {exc}") from None
    fn = _INVARIANTS[args.invariant]
    for g in graphs:
        res = fn(g, max_items=args.max_items)
        print(res.value)
        if args.witness:
            edge_valued = args.invariant in _EDGE_INVARIANTS
            print("witness:", _format_witness(g, res.witness, edge_valued))
    return EXIT_OK


def _needs(args, flag: str, who: str):
    """The value of --flag, which ``who`` cannot do without."""
    value = getattr(args, flag)
    if value is None:
        raise GraphError(f"{who} needs --{flag}")
    return value


# --kind -> the product graph of the factors --g and --h
_PRODUCTS = {
    **{
        kind: lambda g, h, args, kind=kind: products.product(kind, g, h).graph
        for kind in products.PRODUCT_KINDS
    },
    "rooted": lambda g, h, args: products.rooted_product(
        g, h, _needs(args, "root", "rooted product")
    ).graph,
    "corona": lambda g, h, args: products.corona(g, h).graph,
    "join": lambda g, h, args: products.join(g, h),
}


def _cmd_product(args) -> int:
    g = parse_graph6(args.g)
    h = parse_graph6(args.h)
    print(write_graph6(_PRODUCTS[args.kind](g, h, args)))
    return EXIT_OK


# --name -> (construction on the factors --g and --h, witness kind, the flag
# that gives its one further argument)
_FACTOR_WITNESSES = {
    "lex-im": (constructions.lex_im_witness, "induced_matching", None),
    "lex-eop": (constructions.lex_eop_witness, "eop", "variant"),
    "direct-im": (constructions.direct_im_witness, "induced_matching", None),
    "direct-eop": (constructions.direct_eop_witness, "eop", None),
    "box-eop": (constructions.box_eop_witness, "eop", "product_kind"),
    "rooted-im": (constructions.rooted_im_witness, "induced_matching", "root"),
}


def _witness_instance(args) -> tuple:
    """(host graph, witness, witness kind, k) of the named construction."""
    name = args.name
    if name in _FACTOR_WITNESSES:
        build, kind, flag = _FACTOR_WITNESSES[name]
        if args.g is None or args.h is None:
            raise GraphError(f"{name} needs --g and --h")
        g, h = parse_graph6(args.g), parse_graph6(args.h)
        p, w = build(g, h, *([] if flag is None else [_needs(args, flag, name)]))
        return p.graph, w, kind, None
    if name in ("hamming-code", "hypercube-eop"):
        k = _needs(args, "k", name)
        if name == "hypercube-eop":
            host, w = constructions.hypercube_eop_witness(k)
            return host, w, "eop", None
        code = constructions.hamming_perfect_code(k)
        return hypercube(2 ** k - 1), code, "perfect_code", None
    base = parse_graph6(_needs(args, "g6", name))
    if name == "bipartite-eop":
        return base, constructions.bipartite_eop_witness(base), "eop", None
    p, w = constructions.prism_3packing_witness(base)
    return p.graph, w, "k_packing", 3


def _cmd_witness(args) -> int:
    host, w, kind, k = _witness_instance(args)
    ok = invariants.verify_witness(host, w, kind, k)
    print("graph:", write_graph6(host))
    print("size:", len(w))
    print("witness:", _format_witness(host, w, kind in invariants.EDGE_KINDS))
    print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_FAILURES


def _cmd_check(args) -> int:
    _require_nonnegative("--max-n", args.max_n)
    _require_nonnegative("--budget", args.budget)
    if not harness.list_checks(args.suite):
        raise GraphError(f"--suite {args.suite!r} selects no check")
    # the report file is opened first, so a bad path fails before the suite runs
    with open(args.json, "w") if args.json else contextlib.nullcontext() as fh:
        reports, summary = harness.run_suite(
            args.suite, budget=args.budget, seed=args.seed, max_n=args.max_n
        )
        for r in reports:
            line = f"{r.id} {r.status} instances={r.instances_run} failures={len(r.failures)}"
            print(f"{line} ({r.error})" if r.error else line)
        print(
            "summary: total={total} pass={pass} fail={fail} skipped={skipped} "
            "error={error}".format(**summary)
        )
        if fh is not None:
            json.dump(harness.suite_json(reports, summary), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if summary["fail"] == summary["error"] == 0 else EXIT_FAILURES


def _cmd_table(args) -> int:
    if args.name != "hypercubes":
        raise GraphError(f"unknown table {args.name!r}")
    _require_nonnegative("--max-n", args.max_n)
    rows = constructions.hypercube_table(args.max_n)
    print("n rho_2 rho_3 rho_eo")
    for row in rows:
        r2 = "?" if row.rho_2 is None else row.rho_2
        eop = f"{'=' if row.rho_eo_exact else '>='}{row.rho_eo}"
        print(f"{row.n} {r2} {row.rho_3} {eop}")
    return EXIT_OK if all(row.verified for row in rows) else EXIT_FAILURES


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, on first use: parse_args returns a fresh
    # Namespace each call, and help and error text are formatted when printed
    parser = argparse.ArgumentParser(
        prog="eopack",
        description="Exact induced matching / edge open packing toolkit.",
        epilog=(
            f"Solver caps default to {invariants.DEFAULT_MAX_ITEMS} conflict items "
            f"and {invariants.DEFAULT_MAX_VERTICES} vertices; "
            "override with EOPACK_MAX_ITEMS / EOPACK_MAX_VERTICES or "
            "--max-items."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute an invariant of a graph6 graph")
    p.add_argument("--invariant", required=True, choices=sorted(_INVARIANTS))
    p.add_argument("--g6", default=None, help="graph6 string")
    p.add_argument("--file", default=None, help="newline-separated graph6 file")
    p.add_argument("--witness", action="store_true", help="also print a witness")
    p.add_argument("--max-items", type=int, default=None, help="solver cap override")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("product", help="build a product graph, print its graph6")
    p.add_argument("--kind", required=True, choices=list(_PRODUCTS))
    p.add_argument("--g", required=True, help="first factor, graph6")
    p.add_argument("--h", required=True, help="second factor, graph6")
    p.add_argument("--root", type=int, default=None, help="root vertex (rooted)")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("witness", help="build and verify a witness construction")
    p.add_argument(
        "--name",
        required=True,
        choices=[
            *_FACTOR_WITNESSES,
            "bipartite-eop",
            "prism-3packing",
            "hamming-code",
            "hypercube-eop",
        ],
    )
    p.add_argument("--k", type=int, default=None, help="hypercube parameter")
    p.add_argument("--g6", default=None, help="host graph, graph6")
    p.add_argument("--g", default=None, help="first factor, graph6")
    p.add_argument("--h", default=None, help="second factor, graph6")
    p.add_argument("--root", type=int, default=None)
    p.add_argument(
        "--variant", default="star_based", choices=["star_based", "fiber_based"]
    )
    p.add_argument(
        "--product-kind", default="cartesian", choices=["cartesian", "strong"]
    )
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("check", help="run the statement-check suite")
    p.add_argument("--suite", default="", help="substring filter on check id/corpus")
    p.add_argument("--max-n", type=int, default=None, help="shrink corpus sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=None, help="per-check seconds")
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("table", help="print the hypercube packing table")
    p.add_argument("--name", required=True)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(fn=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        invariants.env_caps()
        return args.fn(args)
    except invariants.CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (GraphError, invariants.CapSettingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
