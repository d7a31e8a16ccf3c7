"""Tests of the benchmark itself: the checker accepts the program's outputs,
rejects doctored ones, and the tracer survives a renamed function.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refmath  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hankelscope import cli  # noqa: E402
import run as run_module  # noqa: E402
from run import run_job  # noqa: E402


def _jobs(workload, keep=lambda job: True):
    rng = np.random.default_rng(99)
    make_round = {"symbol": workloads._symbol_round, "logkernel": workloads._logkernel_round,
                  "delta": workloads._delta_round}[workload]
    shared = {}
    jobs = [job for r in range(2) for job in make_round(rng, r, shared) if keep(job)]
    workloads.resolve_references(jobs)
    return jobs


def _outcome(job):
    _, rc, out = run_job(cli, job.argv)
    return rc, out, checks.check(job, rc, out)


def _unexplained(job, fails):
    return [f for f in fails if f[0] not in job.known_defects]


@pytest.mark.parametrize("workload,keep", [
    ("symbol", lambda job: True),
    ("logkernel", lambda job: job.ref["N"] == 512),
    ("delta", lambda job: job.ref["N"] <= 192),
])
def test_checker_accepts_program_outputs(workload, keep):
    for job in _jobs(workload, keep):
        rc, _, fails = _outcome(job)
        assert _unexplained(job, fails) == [], (job.argv, fails)


def test_known_defects_are_detected_not_assumed():
    for job in _jobs("delta", lambda job: job.ref["N"] <= 128 and job.known_defects):
        _, _, fails = _outcome(job)
        assert {check_id for check_id, _ in fails} == set(job.known_defects), job.argv


def test_trust_edge_answer_rejected():
    job = workloads.Job("delta-eigs", ["delta-eigs", "--h", "0,1", "--N", "64", "--n-max", "16"],
                        {"K": 1, "h": np.array([0.0, 1.0]), "t0": 1.0, "N": 64, "n_max": 16,
                         "fmt": "csv", "route": "closed-form",
                         "exact": refmath.delta_prime_exact(1.0, 1.0, 16)})
    rc, out, fails = _outcome(job)
    assert rc == 0
    assert [check_id for check_id, _ in fails] == ["closed-form"]
    # the spurious mode -14.098 * 2 pi sits between the exact -13.25 and -14.25
    lam = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert any(abs(v + 14.098 * 2 * np.pi) < 0.01 for v in lam)


def _doctor(job, edit):
    rc, out, _ = _outcome(job)
    assert rc == 0
    doc = json.loads(out)
    edit(doc)
    return checks.check(job, 0, json.dumps(doc))


def test_perturbed_eigenvalue_rejected():
    job = next(j for j in _jobs("logkernel") if j.command == "spectrum-hankel" and j.ref["N"] == 512)

    def bump(doc):
        doc["eigenvalues"][-1] *= 1.0 + 1e-6
    assert "trace" in {check_id for check_id, _ in _doctor(job, bump)}

    job = next(j for j in _jobs("delta") if j.ref["route"] == "two-point" and j.ref["fmt"] == "json")

    def nudge(doc):
        doc["eigenvalues"][0] *= 1.0 + 1e-9
    assert [c for c, _ in _doctor(job, nudge)][0] == "two-point"


def test_flipped_positivity_verdict_rejected():
    for job in _jobs("symbol", lambda job: job.command == "positivity"):
        def flip(doc):
            doc["positivity"]["verdict"] = not doc["positivity"]["verdict"]
        assert "verdict" in {check_id for check_id, _ in _doctor(job, flip)}


def test_coefficient_map_bound_states_conditioning():
    # the inverse bound is the pinned 1e-10 at low degree and grows with the
    # map's conditioning, by orders of magnitude at degree 12
    small = refmath.q_to_p(np.full(3, 0.5))[1].max()
    large = refmath.q_to_p(np.full(13, 0.5))[1].max()
    assert small == pytest.approx(1e-10) and large > 1e3 * small
    job = next(j for j in _jobs("symbol") if j.command == "qp" and len(j.ref["out"]) == 13)
    rc, out, fails = _outcome(job)
    assert fails == []
    doc = json.loads(out)
    doc["p_coeffs"][0] += 3.0 * job.ref["bound"][0]
    assert [c for c, _ in checks.check(job, 0, json.dumps(doc))] == ["p_coeffs"]


def test_reference_jet_matches_closed_forms():
    import mpmath as mp
    a = refmath._jet(2)
    with mp.workdps(refmath.DPS):
        assert abs(a[1] + mp.euler) < 1e-35       # w'(0) = psi(1) = -gamma
        assert abs(2 * a[2] - (mp.euler ** 2 - mp.pi ** 2 / 6)) < 1e-35


def test_job_list_is_a_function_of_the_seed():
    first = [j.argv for j in workloads.make_jobs("symbol", 5, 1.0)]
    assert first == [j.argv for j in workloads.make_jobs("symbol", 5, 1.0)]
    assert first != [j.argv for j in workloads.make_jobs("symbol", 6, 1.0)]


def test_tracer_reports_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (("hankelscope.cli", "no_such_step"),))
    tracer = tracing.Tracer()
    assert tracer.missing == ["hankelscope.cli.no_such_step"]
    with tracer:
        _, rc, _ = run_job(cli, ["pq", "--p", "1,2,3"])
    assert rc == 0
    layers = tracer.layer_metrics()
    assert layers["special_functions.build_gamma_jet.calls"] == 1
    assert layers["cli.main.self_s"] <= layers["cli.main.busy_s"]
    assert cli.main.__module__ == "hankelscope.cli" and not hasattr(cli.main, "__wrapped__")


def test_unreadable_result_does_not_fail_the_job(monkeypatch):
    def broken(tracer, args, kwargs, result):
        raise AttributeError("no such field")
    monkeypatch.setitem(tracing._OBSERVERS, "coeff_map.build_map_matrix", broken)
    tracer = tracing.Tracer()
    with tracer:
        _, rc, _ = run_job(cli, ["pq", "--p", "1,2"])
    assert rc == 0
    assert tracer.counters == {"coeff_map.build_map_matrix.observe_errors": 1}


def test_crash_is_a_failed_job():
    broken = type("Broken", (), {"main": staticmethod(lambda argv: 1 / 0)})
    rc = run_job(broken, ["pq", "--p", "1"])[1]
    assert rc == "ZeroDivisionError: division by zero"
    job = _jobs("symbol")[0]
    assert [c for c, _ in run_module._check_all([(job, rc, "")], checks, workloads)[0][1]] == ["crash"]
