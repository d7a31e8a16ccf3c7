#!/usr/bin/env python3
"""Tier-1 gate: run the full test suite and accept exactly the documented
red acceptance criteria.

Runs the tier-1 command from ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

from the repository root with a JUnit XML report in a temporary directory,
and exits 0 only when every collected test passes except acceptance
criteria 3, 5 and 7, which must still fail (they are finite-section limits,
see README.md). Otherwise it prints what changed and exits 1; exit 2 means
pytest produced no report. Nothing is deselected or skipped.

    python3 scripts/tier1_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED_RED = frozenset(
    f"tests.test_acceptance::test_criterion_{name}" for name in (
        "3_carleman_reference_run",
        "5_positivity_boundary",
        "7_weyl_asymptotics",
    ))


def run_suite(report: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--junitxml={report}"]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def outcomes(report: Path) -> dict[str, str]:
    """Test id ("<classname>::<name>") -> passed | failed | error | skipped."""
    result = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        status = "passed"
        for tag in ("failure", "error", "skipped"):
            if case.find(tag) is not None:
                status = {"failure": "failed"}.get(tag, tag)
                break
        result[test_id] = status
    return result


def verdict(result: dict[str, str]) -> list[str]:
    """Every departure from 'all pass except the documented red criteria'."""
    problems = [f"{test_id}: {status}" for test_id, status in sorted(result.items())
                if status != "passed" and test_id not in DOCUMENTED_RED]
    for test_id in sorted(DOCUMENTED_RED):
        status = result.get(test_id, "not collected")
        if status != "failed":
            problems.append(f"{test_id}: {status}, expected to fail (documented)")
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = run_suite(report)
        if not report.exists():
            print(f"tier-1 gate: pytest wrote no report (exit code {code})")
            return 2
        result = outcomes(report)
    problems = verdict(result)
    passed = sum(status == "passed" for status in result.values())
    if problems:
        print(f"tier-1 gate: FAIL ({passed} passed of {len(result)})")
        for line in problems:
            print(f"  {line}")
        return 1
    print(f"tier-1 gate: OK ({passed} passed, {len(DOCUMENTED_RED)} documented "
          f"failures: acceptance criteria 3, 5, 7)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
