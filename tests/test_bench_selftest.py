"""The benchmark's tracer still fits the package: bench/selftest.py's
binding, span, gate and manifest checks, run in a fresh process (the
tracer rewrites the package's namespaces).  The reference-clock check is
left out: it measures time."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [%r, %r]
import selftest
problems = []
tracer = selftest.check_bindings(problems)
selftest.check_spans(tracer, problems)
selftest.check_gate(problems)
selftest.check_manifest(problems)
print("\\n".join(problems))
sys.exit(1 if problems else 0)
""" % (str(ROOT / "bench"), str(ROOT / "src"))


def test_bench_selftest():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
