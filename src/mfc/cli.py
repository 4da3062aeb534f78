"""Command line interface.

Exit codes: 0 pass, 1 disagreement, 2 usage error, 3 cap-skip without
allow-skip.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import export_complex
from .diagram import (DiagramError, basic_degrees, classify, diagram_name,
                      diagram_symbol, group_order, parse_symbol)
from .group import CapExceeded
from .homology import reduced_betti
from .verify import (_CHECKS, DEFAULT_CAP, GroupContext, SuiteError,
                     _parse_entry, run_suite)


class UsageError(ValueError):
    """A command line argument outside its range, or an unwritable path."""


def _print_report(rep: dict, as_json: bool):
    if as_json:
        print(json.dumps(rep, indent=1, sort_keys=True))
    else:
        print("%s %s: predicted=%s computed=%s -> %s"
              % (rep["theorem"], rep["symbol"], rep["predicted"],
                 rep["computed"], rep["status"]))


def _monomial_params(text: str) -> tuple[int, int]:
    """The m,n of a 'verify monomial' argument such as 3,2."""
    try:
        m, n = (int(x) for x in text.split(","))
    except ValueError:
        raise DiagramError("monomial expects m,n like 3,2, got %r"
                           % text) from None
    return m, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mfc",
        description="Milnor fiber complexes of Coxeter and Shephard groups: "
                    "build, inspect walls, verify the classification theorems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a diagram symbol")
    p.add_argument("symbol")

    p = sub.add_parser("build", help="build the Milnor fiber complex")
    p.add_argument("symbol")
    p.add_argument("--export", metavar="PATH",
                   help="write the complex in MFC-COMPLEX format")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("walls", help="walls by reflection class")
    p.add_argument("symbol")
    p.add_argument("--class", dest="klass", type=int, default=None,
                   help="only this reflection class index")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("verify", help="run one theorem check")
    p.add_argument("theorem", choices=list(_CHECKS))
    p.add_argument("symbol",
                   help="diagram symbol; for 'monomial' use m,n like 3,2")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("suite", help="run a suite file (or 'default')")
    p.add_argument("file")
    p.add_argument("--deep", action="store_true",
                   help="include the G32 entries")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", metavar="DIR", default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (report no longer "
                        "byte-reproducible)")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (DiagramError, SuiteError, UsageError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if getattr(args, "cap", 1) < 1:
        raise UsageError("cap must be at least 1, got %d" % args.cap)

    if args.command == "classify":
        d = parse_symbol(args.symbol)
        degs = basic_degrees(d)
        print("symbol:   %s" % diagram_symbol(d))
        print("name:     %s" % diagram_name(d))
        print("rank:     %d" % d.rank)
        print("degrees:  %s" % (list(degs),))
        print("order:    %d" % group_order(d))
        for gid in classify(d):
            print("component: %s degrees=%s" % (gid.name, list(gid.degrees)))
        return 0

    if args.command in ("build", "walls"):
        # a large rank exits before any vertex is built
        ctx = GroupContext(_parse_entry(args.symbol, args.cap), args.cap)

    if args.command == "build":
        cx = ctx.complex
        print("group order: %d" % ctx.table.order)
        print("f-vector:    %s" % (list(cx.f_vector()),))
        b = reduced_betti(cx)
        print("reduced Betti: %s (torsion-free: %s)"
              % ({k: v for k, v in sorted(b.betti.items())}, b.torsion_free))
        if args.export:
            try:
                export_complex(cx, args.export)
            except OSError as e:
                raise UsageError("cannot export: %s" % e) from None
            print("exported to %s" % args.export)
        return 0

    if args.command == "walls":
        refl = ctx.reflections
        n_refl = len(refl.reps)
        if args.klass is not None and not 0 <= args.klass < n_refl:
            raise UsageError("--class must be at least 0 and below %d, the "
                             "number of reflection classes, got %d"
                             % (n_refl, args.klass))
        for idx, (rep, size) in enumerate(zip(refl.reps, refl.sizes)):
            if args.klass is not None and idx != args.klass:
                continue
            w = ctx.fixed_of(rep)
            v = ctx.verdict_of(rep)
            cert = ctx.certificate_of(rep)
            print("class %d: rep=%d size=%d order=%d" %
                  (idx, rep, size,
                   ctx.table.element_order(rep)))
            print("  wall f-vector: %s" % (list(w.f_vector()),))
            print("  recognized as: %s" %
                  (diagram_name(v.diagram) if v.recognized else
                   "not a Milnor fiber complex (%s)" % v.reason))
            print("  Milnor wall: %s" %
                  ("no" if cert is None else "yes, %s via F missing %s%s" %
                   (diagram_name(cert.diagram), list(cert.missing_types),
                    " (proper)" if cert.proper else "")))
        return 0

    if args.command == "verify":
        if args.theorem == "monomial":
            entry = {"monomial": list(_monomial_params(args.symbol))}
        else:
            entry = {"symbol": args.symbol}
        entry["checks"] = [args.theorem]
        code, bundle = run_suite({"mfc_suite": 1, "allow_skip": False,
                                  "entries": [entry]}, cap=args.cap)
        _print_report(bundle["entries"][0], args.json)
        return code

    if args.command == "suite":
        code, bundle = run_suite(args.file, deep=args.deep, cap=args.cap,
                                 jobs=args.jobs, out_dir=args.out,
                                 timings=args.timings)
        s = bundle["summary"]
        print("suite: %d agree, %d disagree, %d skipped"
              % (s["agree"], s["disagree"], s["skipped"]))
        for r in bundle["entries"]:
            if r["status"] != "agree":
                print("  %s %s: %s" % (r["theorem"], r["symbol"], r["status"]))
        return code

    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
