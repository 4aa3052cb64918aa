"""Driving everything from the command line and reading the artifacts.

The `bls` entry point wraps the library for scripted experiments:
sampling modes write JSON-lines (config first, one record per sample),
diagnostic modes write CSV or JSON reports.  Identical config + seed
reproduces an artifact byte for byte, so artifacts are safe to diff.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

workdir = Path(tempfile.mkdtemp(prefix="bls-demo-"))


def run(*args):
    cmd = [sys.executable, "-m", "blsampler.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ bls {' '.join(args)}")
    print(f"  -> exit {proc.returncode}: {proc.stdout.strip() or proc.stderr.strip()}")
    return proc


print("== sampling run ==")
out = workdir / "exact.jsonl"
run(
    "--mode", "sample-exact",
    "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
    "--depth", "3", "--squeezing", "0.5",
    "--samples", "5", "--seed", "21", "--out", str(out),
)
lines = out.read_text().splitlines()
print("first line (config):", lines[0][:120], "...")
print("a sample record    :", lines[1])

print()
print("== reruns are byte-identical ==")
again = workdir / "exact-again.jsonl"
run(
    "--mode", "sample-exact",
    "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
    "--depth", "3", "--squeezing", "0.5",
    "--samples", "5", "--seed", "21", "--out", str(again),
)
print("identical bytes (two plain reruns):", out.read_bytes() == again.read_bytes())

print()
print("== a diagnostic report ==")
bounds = workdir / "bounds.json"
run(
    "--mode", "diagnose-bounds",
    "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
    "--depth", "2", "--squeezing", "0.4", "--samples", "1",
    "--seed", "3", "--out", str(bounds),
)
payload = json.loads(bounds.read_text())
report = payload["reports"][0]
print(f"table TVD {report['tvd_table']:.2e} <= bound {report['tvd_bound']:.3f}")

print()
print("== errors are machine-readable, exit codes tell the class ==")
run("--mode", "sample-exact", "--dim", "1")  # missing almost everything
run("--mode", "kernels-selftest")

print()
print("artifacts left in", workdir)
