#!/usr/bin/env python3
"""Cold-start cost of each CLI command, one fresh interpreter per run.

For each of the eight commands, at a small fixed argv (and delta-eigs once
more at K = 3, N = 512), starts RUNS fresh
interpreters. Each one times ``from hankelscope import cli`` (import) and one
``cli.main(argv)`` call (run), and reports whether ``scipy`` was loaded by
then and its peak resident set size (``ru_maxrss``, in MB of 2^20 bytes, as
perfbench reports ``peak_rss_mb``) after the run; this script also times the
whole process from the outside. Prints the medians, one line per argv,
labelled with the command and its N:

    python3 scripts/cold_start.py

Imports the package from the ``src/`` next to this script. BLAS/LAPACK are
pinned to one thread, as in ``scripts/output_identity.py``. Standard library
only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 7
SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = (
    ["pq", "--p", "1,2"],
    ["qp", "--q", "1,2"],
    ["positivity", "--p", "1.7,0,1"],
    ["spectrum-hankel", "--p", "1", "--L", "8", "--N", "64"],
    ["spectrum-a", "--q", "1", "--L", "8", "--N", "64"],
    ["equiv-check", "--p", "1,0.5", "--L", "12", "--N", "64"],
    ["carleman", "--L", "8", "--N", "64"],
    ["delta-eigs", "--h", "0,1", "--t0", "1", "--N", "32", "--n-max", "4"],
    # K = 3 at the largest benchmark size: a fresh process builds its LGL
    # rule and every derivative power from scratch
    ["delta-eigs", "--h", "0.1,0.2,-0.5,1", "--t0", "1.5", "--N", "512", "--n-max", "64"],
)
CHILD = """
import contextlib, io, json, resource, sys, time
start = time.perf_counter()
from hankelscope import cli
import_s = time.perf_counter() - start
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
run_s = time.perf_counter() - start
# ru_maxrss is in KiB on Linux, in bytes on macOS
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"import_s": import_s, "run_s": run_s, "code": code,
                  "scipy": "scipy" in sys.modules,
                  "peak_rss_mb": rss / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)}))
"""


def cold_run(argv: list[str], env: dict) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    print(f"{'command':<22} {'import_s':>9} {'run_s':>9} {'process_s':>10} "
          f"{'peak_rss_mb':>12}  scipy   (medians of {RUNS} fresh interpreters)")
    for argv in COMMANDS:
        runs = [cold_run(argv, env) for _ in range(RUNS)]
        if any(r["code"] != 0 for r in runs):
            print(f"{argv[0]}: exit codes {[r['code'] for r in runs]}", file=sys.stderr)
            return 1
        med = {key: statistics.median(r[key] for r in runs)
               for key in ("import_s", "run_s", "process_s", "peak_rss_mb")}
        scipy = {r["scipy"] for r in runs}
        label = argv[0] + (f" N={argv[argv.index('--N') + 1]}" if "--N" in argv else "")
        print(f"{label:<22} {med['import_s']:9.3f} {med['run_s']:9.4f} "
              f"{med['process_s']:10.3f} {med['peak_rss_mb']:12.2f}  {'yes' if scipy == {True} else 'no' if scipy == {False} else 'mixed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
