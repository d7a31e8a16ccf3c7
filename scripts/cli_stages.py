#!/usr/bin/env python3
"""Per-stage timing of the CLI: for each command, the median microseconds
of argument parsing (``parse_args``), of the command handler, and of
serialization (``_serialize``, the step ``run`` writes out), taken
in-process over the fixed argv list of ``scripts/output_identity.py``
(``cli_cases()``, which holds a mixed first-order kernel at N = 512 among
others), REPEATS timed calls per case. ``delta-eigs`` gets one row per
kernel order K, since order 0 is a closed form, order 1 a secular solve and
K >= 2 a collocation solve:

    python3 scripts/cli_stages.py

One untimed pass over every case runs first, so caches the package fills
on first use (the map's binomial table per degree, the Lobatto rule per N) are
warm; a one-shot process pays that cost once more. A handler that raises
(exit 2 or 3) is timed up to the raise and has no serialization sample.

BLAS/LAPACK are pinned to one thread. Standard library only (plus the
package under test, imported from the ``src/`` next to this script).
"""

from __future__ import annotations

import collections
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_identity import cli_cases  # noqa: E402
from hankelscope.cli import _HANDLERS, _serialize, parse_args  # noqa: E402
from hankelscope.errors import HankelscopeError  # noqa: E402

STAGES = ("parse_args", "handler", "_serialize")
REPEATS = 21


def time_case(argv: list[str]) -> dict[str, int]:
    """Nanoseconds per stage of one in-process run of argv."""
    t0 = time.perf_counter_ns()
    args = parse_args(argv)
    t1 = time.perf_counter_ns()
    try:
        result = _HANDLERS[args.command](args)
    except HankelscopeError:
        return {"parse_args": t1 - t0, "handler": time.perf_counter_ns() - t1}
    t2 = time.perf_counter_ns()
    _serialize(args.command, result)
    t3 = time.perf_counter_ns()
    return {"parse_args": t1 - t0, "handler": t2 - t1, "_serialize": t3 - t2}


def row(argv: list[str]) -> str:
    """The table row of a case: its command, and for delta-eigs its order."""
    if argv[0] == "delta-eigs":
        return f"delta-eigs K={argv[argv.index('--h') + 1].count(',')}"
    return argv[0]


def main() -> None:
    cases = cli_cases()
    for argv in cases:
        time_case(argv)
    counts = collections.Counter(row(argv) for argv in cases)
    samples: dict[str, dict[str, list[int]]] = {}
    for _ in range(REPEATS):
        for argv in cases:
            per_command = samples.setdefault(row(argv), {stage: [] for stage in STAGES})
            for stage, ns in time_case(argv).items():
                per_command[stage].append(ns)
    print(f"median us per stage, {REPEATS} timed calls per case, one BLAS thread")
    print(f"| command | cases | {' | '.join(STAGES)} |")
    print("|---|---|" + "---|" * len(STAGES))
    for command, per_stage in samples.items():
        cells = [f"{statistics.median(v) / 1e3:.1f}" if v else "-" for v in per_stage.values()]
        print(f"| `{command}` | {counts[command]} | {' | '.join(cells)} |")


if __name__ == "__main__":
    main()
