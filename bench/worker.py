"""One pass of a benchmark workload, in a fresh process.

Imports mfc from ``src``, builds the workload's entries from the seed
(together: the set-up), then runs every entry through
``mfc.verify.run_entry`` and gates each check on its expected status.
Times are read from a ``refclock.RefClock``, raw and normalized to the
reference speed.  Prints one JSON object on stdout.  ``run.py`` starts
this script; it is not meant to be run by hand, but can be:

    python3 bench/worker.py --workload orlik-rank45 --seed 1 --trace 0 \
        --launched "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_LISTED_FAILURES = 20


def _gate(entries, outcomes, expected_status):
    """(attempted, failures): every requested check counts once; it fails
    when its entry raised, its report is missing, or its status differs
    from the expected one (so a skip fails too)."""
    attempted = 0
    failures = []
    for entry, (reports, error) in zip(entries, outcomes):
        label = entry.get("symbol") or "G(%d,1,%d)" % tuple(entry["monomial"])
        for i, check in enumerate(entry["checks"]):
            attempted += 1
            if error is not None:
                failures.append("%s/%s raised %s" % (label, check, error))
                continue
            rep = reports[i] if i < len(reports) else None
            if rep is None or rep.theorem != check:
                failures.append("%s/%s: no report" % (label, check))
                continue
            want = expected_status(rep.symbol, check)
            if rep.status != want:
                failures.append("%s/%s: %s, expected %s"
                                % (rep.symbol, check, rep.status, want))
    return attempted, failures


def _digest(outcomes) -> str:
    """sha256 of the reports (no timings) in a fixed order, so that it
    depends on the entries run but not on their order."""
    rows = [r.to_jsonable() for reports, _err in outcomes for r in reports]
    rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    blob = json.dumps(rows, indent=1, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once mfc is imported and the inputs exist")
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from refclock import RefClock
    started = time.monotonic()
    clock = RefClock()
    clock.start()
    sys.path.insert(0, str(ROOT / "src"))
    import mfc.verify as verify
    from workloads import expected_status, make_entries
    entries = make_entries(args.workload, args.seed)
    # the interpreter's start-up, before the clock ran, at the current speed
    before_s = started - args.launched
    raw, norm = clock.read()
    setup = {"raw_setup_s": before_s + raw,
             "setup_s": clock.normalize(before_s) + norm}
    if args.setup_only:
        clock.stop()
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        # the tracer times spans in raw seconds, without reference timings
        clock.stop()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outcomes = []
    entry_s = []
    first = clock.read()
    for entry in entries:
        t0 = clock.read()
        try:
            outcome = (verify.run_entry(entry, verify.DEFAULT_CAP), None)
        except Exception as exc:  # a raising check is a failed check
            outcome = ([], "%s: %s" % (type(exc).__name__, exc))
        entry_s.append(clock.read()[1] - t0[1])
        outcomes.append(outcome)
    last = clock.read()
    clock.stop()

    attempted, failures = _gate(entries, outcomes, expected_status)
    out = {**setup,
           "entries": len(entries),
           "raw_wall_s": last[0] - first[0],
           "wall_s": last[1] - first[1],
           "entry_s": entry_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": attempted,
           "failed": len(failures),
           "failures": failures[:MAX_LISTED_FAILURES],
           "digest": _digest(outcomes)}
    if tracer is not None:
        out["layers"] = tracer.aggregate()
        out["spans"] = len(tracer.spans)
        out["trace_errors"] = (
            ["unwrapped binding " + b for b in tracer.unwrapped_bindings()]
            + tracer.nesting_errors()[:MAX_LISTED_FAILURES])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
