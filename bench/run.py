"""mfc benchmark: time, memory and verdicts of four verification workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep-rank2 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each pass runs one workload in a fresh Python process with MFC_CACHE_DIR
unset, so every cache starts cold, as it does for a user of ``mfc suite``.
Passes repeat while the next is likely to end within ``--seconds``
(at least one).  With ``--trace 0`` the last line of stdout is a JSON
object of the end-to-end metrics (medians over the passes), with times
in seconds at the reference speed of ``refclock.py``; with ``--trace 1``
it holds the per-layer metrics of traced passes, in raw seconds, each
traced pass paired with an untraced one to give the tracing overhead.
See README.md in this directory for why each workload exists and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5        # set-up-only processes per run, for the setup_s median
RUN_LIMIT_S = 170       # a run ends within 180 s
HASH_SEED = "0"         # PYTHONHASHSEED of every pass: counts repeat exactly
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")   # the last line

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("entry_s_max", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "fraction")]

# per-layer metrics of the traced run: span name -> stats reported
LAYERS = {
    "verify.GroupContext": ("calls", "total_s"),
    "group.todd_coxeter": ("calls", "self_s", "cosets"),
    "group.enumerate_group": ("calls", "self_s"),
    "group.parabolic_cosets": ("calls", "self_s"),
    "group.conjugacy_classes": ("self_s",),
    "group.reflection_classes": ("self_s",),
    "complexes.milnor_fiber_complex": ("calls", "self_s", "simplices"),
    "complexes.join": ("self_s",),
    "complexes.monomial_flag_complex": ("self_s",),
    "walls.ParabolicData": ("calls", "self_s"),
    "walls.chamber_count_check": ("calls", "self_s"),
    "walls.fixed_subcomplex": ("calls", "self_s"),
    "homology.rank_and_factors": ("calls", "self_s", "cols", "nnz",
                                  "max_cols"),
    "homology.reduced_betti": ("calls", "self_s"),
    "walls.recognize_milnor_fiber": ("calls", "self_s", "recognized",
                                     "recognized_frac"),
    "walls.milnor_wall_search": ("calls", "self_s", "certified",
                                 "certified_frac"),
    "isomorphism.find_isomorphism": ("calls", "self_s", "found"),
    "diagram.enumerate_admissible": ("calls", "self_s"),
}
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
                 ("trace.overhead_s", "s"), ("trace.spans", "count")]


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_frac"):
        return "fraction"
    return "count"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("%s.%s" % (span, stat), _unit(stat))
           for span, stats in LAYERS.items() for stat in stats]
    return out + TRACE_METRICS


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
            "pythonhashseed": HASH_SEED}


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        self.env.pop("MFC_CACHE_DIR", None)
        self.env.pop("PYTHONPATH", None)

    def launch(self, *extra: str) -> dict:
        t_launch = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--launched", repr(t_launch), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True,
                              timeout=max(1.0, self.deadline - t_launch))
        if proc.returncode != 0:
            raise RuntimeError("worker exited with %d:\n%s"
                               % (proc.returncode, proc.stderr[-4000:]))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["elapsed_s"] = time.monotonic() - t_launch
        return out

    def repeat(self, seconds: int, *pass_args: tuple[str, ...]) -> list[list[dict]]:
        """Rounds of passes (one per entry of pass_args): at least one, and
        another while it is likely to end within ``seconds`` of the first
        and well within the run's time limit."""
        rounds: list[list[dict]] = []
        t0 = time.monotonic()
        while True:
            rounds.append([self.launch(*a) for a in pass_args])
            last = sum(p["elapsed_s"] for p in rounds[-1])
            now = time.monotonic()
            if now - t0 + last > seconds or now + 1.5 * last > self.deadline:
                return rounds


def _verdicts(passes: list[dict]) -> tuple[int, int, list[str], bool]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    same_reports = len({p["digest"] for p in passes}) == 1
    if not same_reports:
        failures.append("report digests differ between passes")
    return attempted, failed, failures, same_reports


def measure(workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics: medians over untraced passes."""
    runner = Runner(workload, seed)
    probes = [runner.launch("--setup-only") for _ in range(SETUP_PROBES)]
    passes = [r[0] for r in runner.repeat(seconds, ("--trace", "0"))]
    attempted, failed, failures, same = _verdicts(passes)
    values = {key: statistics.median(p[key] for p in passes)
              for key in ("wall_s", "peak_rss_mb")}
    # the slowest entry by its median over the passes, so that one noisy
    # time of a short entry does not set the maximum
    values["entry_s_max"] = max(map(statistics.median,
                                    zip(*(p["entry_s"] for p in passes))))
    values["setup_s"] = statistics.median(p["setup_s"] for p in probes + passes)
    values["ok_frac"] = (attempted - failed) / attempted
    return {"correct": failed == 0 and same, "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u in END_TO_END},
            "info": {"passes": len(passes), "entries": passes[0]["entries"],
                     "digest": passes[0]["digest"], "failures": failures,
                     "raw_setup_s": statistics.median(
                         p["raw_setup_s"] for p in probes + passes),
                     "raw_wall_s": statistics.median(
                         p["raw_wall_s"] for p in passes)}}


def trace(workload: str, seed: int, seconds: int) -> dict:
    """Per-layer metrics: medians of span times over traced passes, work
    counts that must repeat exactly, and the tracing overhead against the
    untraced pass of each round."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = str(out_dir / ("spans-%s.jsonl" % workload))
    runner = Runner(workload, seed)
    rounds = runner.repeat(seconds, ("--trace", "0"),
                           ("--trace", "1", "--spans", spans))
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    attempted, failed, failures, same = _verdicts(plain + traced)
    for p in traced:
        failures.extend(p["trace_errors"])

    values: dict[str, float] = {}
    counts_repeat = True
    for span, stats in LAYERS.items():
        rows = [p["layers"].get(span, {}) for p in traced]
        for stat in stats:
            name = "%s.%s" % (span, stat)
            if stat.endswith("_s"):
                values[name] = statistics.median(r.get(stat, 0.0) for r in rows)
            elif stat.endswith("_frac"):
                calls = rows[0].get("calls", 0)
                useful = rows[0].get(stat[:-len("_frac")], 0)
                values[name] = useful / calls if calls else 0.0
            else:
                seen = {r.get(stat, 0) for r in rows}
                counts_repeat &= len(seen) == 1
                values[name] = rows[0].get(stat, 0)
    if not counts_repeat:
        failures.append("work counts differ between traced passes")
    # raw seconds, like the spans: traced passes run without the reference
    values["trace.wall_s"] = statistics.median(p["raw_wall_s"] for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p["raw_wall_s"]
                                                        for p in plain)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    values["trace.spans"] = traced[0]["spans"]
    ok = (failed == 0 and same and counts_repeat
          and not any(p["trace_errors"] for p in traced))
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u}
                        for n, u in per_layer_metrics()},
            "info": {"passes": len(traced), "entries": traced[0]["entries"],
                     "digest": traced[0]["digest"], "failures": failures,
                     "spans_file": os.path.relpath(spans, ROOT)}}


def _print_summary(workload: str, seed: int, result: dict) -> None:
    info = result["info"]
    print("workload %s seed %d: %d entries, %d passes, %d checks, %d failed "
          "(failed_frac %.6f)" % (workload, seed, info["entries"], info["passes"],
                                  result["attempted"], result["failed"],
                                  result["failed"] / result["attempted"]))
    print("report_digest %s" % info["digest"])
    for f in info["failures"][:20]:
        print("FAILED %s" % f)
    if "raw_wall_s" in info:
        print("raw seconds, not normalized: setup_s %.6f, wall_s %.6f"
              % (info["raw_setup_s"], info["raw_wall_s"]))
    for name, m in result["metrics"].items():
        print("  %-44s %14.6f %s" % (name, m["value"], m["unit"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mfc" / "__init__.py").is_file():
        print("bench/run.py: no mfc sources under %s; run it from a checkout "
              "of the repository" % (ROOT / "src"), file=sys.stderr)
        return 2

    print("machine %s" % json.dumps(machine(), sort_keys=True))
    run = trace if args.trace else measure
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for w in names:
        results[w] = run(w, args.seed, args.seconds)
        _print_summary(w, args.seed, results[w])
    lines = {w: {k: r[k] for k in RESULT_KEYS} for w, r in results.items()}
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
