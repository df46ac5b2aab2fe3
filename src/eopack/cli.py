"""Command-line front door for invariants, products, witnesses and checks.

Exit codes: 0 success (all checks passed), 1 check failures, check errors,
an invalid witness or an unverified table row, 2 usage errors (including a
malformed EOPACK_MAX_* value, a negative --max-items and an unreadable or
unwritable file), 3 solver capacity exceeded.  The default solver caps can be
overridden with the EOPACK_MAX_ITEMS and EOPACK_MAX_VERTICES environment
variables.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _format_witness(g: Graph, res, edge_valued: bool) -> str:
    if edge_valued:
        return " ".join(f"{u}-{v}" for u, v in (g.edges[i] for i in res.witness))
    return " ".join(str(v) for v in res.witness)


def _cmd_compute(args) -> int:
    if (args.g6 is None) == (args.file is None):
        raise GraphError("compute needs exactly one of --g6 or --file")
    if args.max_items is not None and args.max_items < 0:
        raise GraphError(f"--max-items must be a nonnegative integer, got {args.max_items}")
    if args.g6 is not None:
        graphs = [parse_graph6(args.g6)]
    else:
        with open(args.file) as fh:
            graphs = list(iter_graph6(fh.read()))
    fn = _INVARIANTS[args.invariant]
    for g in graphs:
        res = fn(g, max_items=args.max_items)
        print(res.value)
        if args.witness:
            print(
                "witness:", _format_witness(g, res, args.invariant in _EDGE_INVARIANTS)
            )
    return EXIT_OK


def _cmd_product(args) -> int:
    g = parse_graph6(args.g)
    h = parse_graph6(args.h)
    if args.kind == "join":
        out = products.join(g, h)
    elif args.kind == "rooted":
        if args.root is None:
            raise GraphError("rooted product needs --root")
        out = products.rooted_product(g, h, args.root).graph
    elif args.kind == "corona":
        out = products.corona(g, h).graph
    else:
        out = products.product(args.kind, g, h).graph
    print(write_graph6(out))
    return EXIT_OK


def _cmd_witness(args) -> int:
    name = args.name
    if name == "hamming-code":
        if args.k is None:
            raise GraphError("hamming-code needs --k")
        code = constructions.hamming_perfect_code(args.k)
        host = hypercube(2 ** args.k - 1)
        ok = invariants.verify_witness(host, code, "perfect_code")
        print("graph:", write_graph6(host))
        print("size:", len(code))
        print("witness:", " ".join(map(str, code)))
        print("VALID" if ok else "INVALID")
        return EXIT_OK if ok else EXIT_FAILURES

    if name == "hypercube-eop":
        if args.k is None:
            raise GraphError("hypercube-eop needs --k")
        host, w = constructions.hypercube_eop_witness(args.k)
        ok = invariants.verify_witness(host, w, "eop")
        kind = "eop"
    elif name == "bipartite-eop":
        if args.g6 is None:
            raise GraphError("bipartite-eop needs --g6")
        host = parse_graph6(args.g6)
        w = constructions.bipartite_eop_witness(host)
        ok = invariants.verify_witness(host, w, "eop")
        kind = "eop"
    elif name == "prism-3packing":
        if args.g6 is None:
            raise GraphError("prism-3packing needs --g6")
        base = parse_graph6(args.g6)
        p, w = constructions.prism_3packing_witness(base)
        host = p.graph
        ok = invariants.verify_witness(host, w, "k_packing", k=3)
        kind = "vertices"
    else:
        if args.g is None or args.h is None:
            raise GraphError(f"{name} needs --g and --h")
        g = parse_graph6(args.g)
        h = parse_graph6(args.h)
        if name == "lex-im":
            p, w = constructions.lex_im_witness(g, h)
            kind = "induced_matching"
        elif name == "lex-eop":
            p, w = constructions.lex_eop_witness(g, h, args.variant)
            kind = "eop"
        elif name == "direct-im":
            p, w = constructions.direct_im_witness(g, h)
            kind = "induced_matching"
        elif name == "direct-eop":
            p, w = constructions.direct_eop_witness(g, h)
            kind = "eop"
        elif name == "box-eop":
            p, w = constructions.box_eop_witness(g, h, args.product_kind)
            kind = "eop"
        elif name == "rooted-im":
            if args.root is None:
                raise GraphError("rooted-im needs --root")
            p, w = constructions.rooted_im_witness(g, h, args.root)
            kind = "induced_matching"
        else:  # pragma: no cover - argparse restricts choices
            raise GraphError(f"unknown witness {name!r}")
        host = p.graph
        ok = invariants.verify_witness(host, w, kind)

    print("graph:", write_graph6(host))
    print("size:", len(w))
    if kind == "vertices":
        print("witness:", " ".join(map(str, w)))
    else:
        print("witness:", " ".join(f"{u}-{v}" for u, v in (host.edges[i] for i in w)))
    print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_FAILURES


def _cmd_check(args) -> int:
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
    rows = constructions.hypercube_table(args.max_n)
    print("n rho_2 rho_3 rho_eo")
    for row in rows:
        r2 = "?" if row.rho_2 is None else row.rho_2
        eop = f"{'=' if row.rho_eo_exact else '>='}{row.rho_eo}"
        print(f"{row.n} {r2} {row.rho_3} {eop}")
    return EXIT_OK if all(row.verified for row in rows) else EXIT_FAILURES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eopack",
        description="Exact induced matching / edge open packing toolkit.",
        epilog=(
            "Solver caps default to 250 conflict items and 64 vertices; "
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
    p.add_argument(
        "--kind",
        required=True,
        choices=["cartesian", "direct", "strong", "lex", "rooted", "corona", "join"],
    )
    p.add_argument("--g", required=True, help="first factor, graph6")
    p.add_argument("--h", required=True, help="second factor, graph6")
    p.add_argument("--root", type=int, default=None, help="root vertex (rooted)")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("witness", help="build and verify a witness construction")
    p.add_argument(
        "--name",
        required=True,
        choices=[
            "lex-im",
            "lex-eop",
            "direct-im",
            "direct-eop",
            "box-eop",
            "rooted-im",
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
