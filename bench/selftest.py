"""Self-test of the benchmark's tracer, verdict gate and metric list.

    python3 bench/selftest.py

Exits 1 and names the problem when, after the tracer is installed, any
mfc namespace still holds an unwrapped layer function; when that check
would miss a binding left behind; when spans do not nest (a child outside
its parent, self time above total time); when the verdict gate lets a
wrong status, a skip or an exception pass; when the reference clock
counts its own timings as work or leaves its timer running; or when
BENCHMARK.json names other metrics or workloads than run.py reports.
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_MODULES, Tracer  # noqa: E402
from worker import _gate  # noqa: E402
from workloads import WORKLOADS, expected_status  # noqa: E402

# small entries that reach every layer: explicit Orlik homology (verify
# binding of reduced_betti), recognition (walls binding), isomorphism,
# joins and the monomial model
ENTRIES = [{"symbol": "H3", "checks": ["orlik", "A"]},
           {"symbol": "G(3,1,2)", "checks": ["counts", "orlik", "A", "B"]},
           {"symbol": "2[3]2 + 3", "checks": ["join"]},
           {"monomial": [2, 2], "checks": ["monomial"]}]


class _Report:
    def __init__(self, symbol, theorem, status):
        self.symbol, self.theorem, self.status = symbol, theorem, status


def check_bindings(problems: list[str]) -> Tracer:
    import mfc
    for m in LAYER_MODULES + ("cli",):
        importlib.import_module("mfc." + m)
    tracer = Tracer()
    tracer.install()
    for left in tracer.unwrapped_bindings():
        problems.append("unwrapped binding " + left)
    # the bindings made by `from .x import f`, named in the tracer's docstring
    for ns, attr in (("walls", "reduced_betti"), ("verify", "reduced_betti"),
                     ("complexes", "parabolic_cosets"), ("cli", "reduced_betti")):
        if not hasattr(getattr(getattr(mfc, ns), attr), "__wrapped__"):
            problems.append("mfc.%s.%s not wrapped" % (ns, attr))
    # the coverage check itself must notice a binding left unwrapped
    wrapped = mfc.walls.reduced_betti
    mfc.walls.reduced_betti = wrapped.__wrapped__
    try:
        if "mfc.walls.reduced_betti" not in tracer.unwrapped_bindings():
            problems.append("unwrapped_bindings missed mfc.walls.reduced_betti")
    finally:
        mfc.walls.reduced_betti = wrapped
    return tracer


def check_spans(tracer: Tracer, problems: list[str]) -> None:
    import mfc.verify as verify
    for entry in ENTRIES:
        for rep in verify.run_entry(entry, verify.DEFAULT_CAP):
            if rep.status != expected_status(rep.symbol, rep.theorem):
                problems.append("%s/%s: %s" % (rep.symbol, rep.theorem, rep.status))
    problems.extend(tracer.nesting_errors())
    for name, st in tracer.aggregate().items():
        if st["self_s"] > st["total_s"] + 1e-9:
            problems.append("%s: self_s %.6f > total_s %.6f"
                            % (name, st["self_s"], st["total_s"]))
    callers: dict[str, set] = {}
    for name, parent, *_rest in tracer.spans:
        if parent >= 0:
            callers.setdefault(name, set()).add(tracer.spans[parent][0])
    for callee, caller in (("homology.reduced_betti", "verify.verify_orlik"),
                           ("homology.reduced_betti", "walls.recognize_milnor_fiber"),
                           ("group.parabolic_cosets", "complexes.milnor_fiber_complex"),
                           ("isomorphism.find_isomorphism", "verify.verify_join")):
        if caller not in callers.get(callee, ()):
            problems.append("no %s span under %s" % (callee, caller))


def check_gate(problems: list[str]) -> None:
    entries = [{"symbol": "G26", "checks": ["A", "B"]},
               {"symbol": "B3", "checks": ["A", "B"]},
               {"symbol": "D4", "checks": ["counts"]},
               {"symbol": "H3", "checks": ["A", "B"]}]
    outcomes = [([_Report("G26", "A", "agree"), _Report("G26", "B", "disagree")], None),
                ([_Report("B3", "A", "agree"), _Report("B3", "B", "disagree")], None),
                ([_Report("D4", "counts", "skipped")], None),
                ([], "RuntimeError: boom")]
    attempted, failures = _gate(entries, outcomes, expected_status)
    if attempted != 7 or len(failures) != 4:
        problems.append("gate: %d attempted, failures %r" % (attempted, failures))


def check_refclock(problems: list[str]) -> None:
    # with a reference that sleeps a known 5 ms, the work time must leave
    # out about 5 ms per tick, and normalized time must be raw time scaled
    # by REF_S / 5 ms
    ref_s = 0.005
    real = refclock.reference
    refclock.reference = lambda: time.sleep(ref_s)
    clock = refclock.RefClock()
    try:
        clock.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        raw, norm = clock.read()
        elapsed = time.perf_counter() - t0
    finally:
        clock.stop()
        refclock.reference = real
    left_out = ref_s * elapsed / refclock.PERIOD_S
    if not 0.5 * left_out < elapsed - raw < 1.5 * left_out:
        problems.append("refclock: %.3f s of work in %.3f s, %.3f s expected"
                        % (raw, elapsed, elapsed - left_out))
    if abs(norm / raw * ref_s / refclock.REF_S - 1) > 0.2:
        problems.append("refclock: %.3f s normalized from %.3f s" % (norm, raw))
    if (signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0)
            or signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL):
        problems.append("refclock: timer or handler left after stop()")


def check_manifest(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [("end_to_end", run.END_TO_END),
             ("per_layer", run.per_layer_metrics())]
    for key, reported in pairs:
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(reported):
            problems.append("BENCHMARK.json %s differs from run.py" % key)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")


def main() -> int:
    problems: list[str] = []
    tracer = check_bindings(problems)
    check_spans(tracer, problems)
    check_gate(problems)
    check_refclock(problems)
    check_manifest(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest %s: %d spans" % ("failed" if problems else "ok",
                                     len(tracer.spans)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
