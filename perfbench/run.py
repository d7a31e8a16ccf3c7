"""hankelscope benchmark: seeded job mixes, each output checked against an
independent reference.

    python3 perfbench/run.py --workload symbol --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs one job at a time (a closed loop). Each job is one
`hankelscope.cli.main(argv)` call in this process with stdout captured, so
the ~0.5 s package import is paid once and counted in setup_s. The last line
of stdout is the result as JSON. With --trace 0 it holds the end-to-end
metrics; with --trace 1 each job runs once untraced and once traced, and it
holds the per-layer metrics and the tracing overhead. Metric names and units
come from BENCHMARK.json beside this directory.

Run it from the root of a source checkout: hankelscope is imported from
src/, and the run stops with exit code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# fresh processes whose import and warm-up are timed besides this one's
SETUP_PROBES = 2
# One BLAS thread: on a shared 2-core machine, two threads make the
# mid-size non-symmetric eig of the delta workload twice as slow and several
# times as noisy, and gain about 30% on the largest symmetric solves.
BLAS_THREADS = 1


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("symbol", "logkernel", "delta", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def run_job(cli, argv):
    """One in-process CLI call: (seconds, exit code or crash text, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception:  # a crashing job is a failed job; the run goes on
        rc = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return time.perf_counter() - start, rc, out.getvalue()


def measure_setup(workload: str):
    """Import hankelscope, then run the workload's warm-up jobs (the first
    LAPACK calls start the BLAS threads). Returns (cli, import_s, warmup_s)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from hankelscope import cli
    import_s = time.perf_counter() - start
    from workloads import WARMUP
    start = time.perf_counter()
    for argv in WARMUP[workload]:
        _, rc, _ = run_job(cli, argv)
        if rc != 0:
            sys.exit(f"warm-up job {' '.join(argv)} failed: {rc}")
    return cli, import_s, time.perf_counter() - start


def _setup_probe(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(args, threads: int) -> dict:
    import mpmath
    import numpy
    import scipy
    import hankelscope
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "hankelscope": str(Path(hankelscope.__file__).resolve().relative_to(ROOT))}


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, as an order
    statistic: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def _report_failures(failures) -> bool:
    """Print each failure reason once with a count; True when every failed
    check is one a documented defect explains."""
    groups: dict[tuple, list] = {}
    for job, fails in failures:
        for check_id, message in fails:
            reason = job.known_defects.get(check_id)
            groups.setdefault((reason is not None, reason or check_id), []).append(
                (job, message))
    for (known, reason), items in sorted(groups.items()):
        job, message = items[0]
        label = "documented defect" if known else "UNEXPECTED"
        print(f"failed [{label}] {reason}: {len(items)} checks, e.g. "
              f"`hankelscope {' '.join(job.argv)}`: {message}")
    return all(known for known, _ in groups)


def _execute(cli, jobs, tracer=None):
    """Run every job; with a tracer, run it untraced and traced in turn,
    alternating which goes first. Returns the per-job times of each kind and
    every (job, exit code, stdout) for checking after the loop."""
    plain, traced, outputs = [], [], []
    for index, job in enumerate(jobs):
        passes = [False] if tracer is None else ([False, True] if index % 2 else [True, False])
        for with_trace in passes:
            if with_trace:
                tracer.job = index
                with tracer:
                    dt, rc, out = run_job(cli, job.argv)
                traced.append(dt)
                tracer.count("cli.out_bytes", len(out.encode()))
                if rc == 0 and job.command == "carleman":
                    tracer.count("discretization.eig_used", 2)
                elif rc == 0 and job.command.startswith("spectrum-"):
                    tracer.count("discretization.eig_used", job.ref["N"])
            else:
                dt, rc, out = run_job(cli, job.argv)
                plain.append(dt)
            outputs.append((job, rc, out))
    return plain, traced, outputs


def _check_all(outputs, checks, workloads):
    workloads.resolve_references([job for job, _, _ in outputs])
    failures = []
    for job, rc, out in outputs:
        fails = [("crash", rc)] if isinstance(rc, str) else checks.check(job, rc, out)
        if fails:
            failures.append((job, fails))
    return failures


def _median_pass_rate(jobs, times, failures) -> float:
    """Verified jobs per second of job time in each round, the median over
    rounds, so that one slow stretch on a shared machine moves it less."""
    failed = {id(job) for job, _ in failures}
    done, busy = {}, {}
    for job, dt in zip(jobs, times):
        done[job.round] = done.get(job.round, 0) + (id(job) not in failed)
        busy[job.round] = busy.get(job.round, 0.0) + dt
    return statistics.median(done[r] / busy[r] for r in busy)


def _end_to_end(jobs, plain, failures, samples, peak_rss_mb):
    tail, pct = _tail(plain)
    passed = len(plain) - len(failures)
    values = {
        "jobs_per_s": _median_pass_rate(jobs, plain, failures),
        "job_s.p50": statistics.median(plain),
        "job_s.tail": tail,
        "verified_ratio": passed / len(plain),
        "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in samples),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"jobs_per_s": f"verified jobs per second of job time, median over "
                           f"{jobs[-1].round + 1} rounds of the job mix",
             "job_s.tail": f"p{pct:.2f} of {len(plain)} jobs, 10 beyond",
             "verified_ratio": f"{passed} of {len(plain)} jobs pass their check",
             "setup_s": f"median of {len(samples)} fresh set-ups"}
    return values, notes


def _per_layer(tracer, plain, traced, samples):
    c = tracer.counters
    values = tracer.layer_metrics()
    bases = {
        "polynomials.sturm_ratio": ("Sturm verdicts / oracle calls",
                                    c.get("polynomials.sturm_verdicts", 0.0),
                                    values["polynomials.is_nonnegative_on_reals.calls"]),
        "discretization.eig_used_ratio": ("eigenvalues emitted or used / computed",
                                          c.get("discretization.eig_used", 0.0),
                                          c.get("discretization.eig_computed", 0.0)),
        "delta_spectra.trusted_ratio": ("sum of 2 n_max / sum of (N - K)",
                                        c.get("delta_spectra.trusted", 0.0),
                                        c.get("delta_spectra.computed", 0.0)),
        "trace.overhead_ratio": ("(traced - untraced) / untraced job seconds",
                                 sum(traced) - sum(plain), sum(plain)),
    }
    notes = {}
    for name, (what, num, den) in bases.items():
        values[name] = num / den if den else 0.0
        notes[name] = f"{what} = {num:.6g} / {den:.6g}"
    values.update({
        "discretization.matrix_bytes": c.get("discretization.matrix_bytes", 0.0),
        "cli.out_bytes": c.get("cli.out_bytes", 0.0),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.warmup_s": statistics.median(s["warmup_s"] for s in samples),
        "trace.missing_wraps": float(len(tracer.missing)),
    })
    return values, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    threads = _pin_blas_threads()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hankelscope" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a hankelscope checkout; {SRC / 'hankelscope'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    cli, import_s, warmup_s = measure_setup(args.workload)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
        return 0
    samples = [{"import_s": import_s, "warmup_s": warmup_s}]
    samples += [_setup_probe(args.workload) for _ in range(SETUP_PROBES)]

    import checks
    import tracing
    import workloads
    spec = json.loads(spec_path.read_text())
    env = _environment(args, threads)
    if not env["hankelscope"].startswith("src/"):
        print(f"error: hankelscope imported from {env['hankelscope']}", file=sys.stderr)
        return 2
    print("env", json.dumps(env))
    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, outputs = _execute(cli, jobs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _check_all(outputs, checks, workloads)
    attempted = len(outputs)
    print(f"jobs: {len(jobs)} in {jobs[-1].round + 1} rounds, {attempted} runs, "
          f"{len(failures)} failed a check")
    correct = _report_failures(failures)

    if tracer is None:
        values, notes = _end_to_end(jobs, plain, failures, samples, peak_rss_mb)
        listed = spec["end_to_end"]
    else:
        values, notes = _per_layer(tracer, plain, traced, samples)
        for name in tracer.missing:
            print(f"trace: {name} no longer exists; its spans read 0")
        for name, count in tracer.counters.items():
            if name.endswith(".observe_errors"):
                print(f"trace: {count:.0f} results of {name.rsplit('.', 1)[0]} were unreadable; "
                      f"its counters are incomplete")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        listed = spec["per_layer"]

    metrics = {}
    for item in listed:
        value = float(values[item["name"]])
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        note = notes.get(item["name"])
        print(f"metric {item['name']} = {value:.6g} {item['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results, status = {}, 0
    for workload in ("symbol", "logkernel", "delta"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("metric ", "failed ")):
                print(f"{workload:9s} {line}")
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
