"""Benchmark of monofem, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload desk-solve --seed 0 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all

One workload runs per process, one job at a time, with one BLAS thread.
The process repeats the workload's job while the next one is expected to
end within `--seconds` (default: `run_seconds` of BENCHMARK.json; at least
MIN_JOBS jobs), checks every job with the correctness gate and reports
medians.  Set-up (fresh `monofem` import plus meshes) is timed for
SETUP_SECONDS before the first job and for SETUP_SHARE of each job's wall
time after it, so that the `setup_s` median samples the whole run; each job
runs on the newest set-up.  `--trace 1` spends half of the time untraced
and half with spans recorded, and reports the per-layer metrics of the
median traced job instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The environment record
goes to standard error and, with the samples and spans, to
`.perfbench-out/<workload>/run-seed<seed>-trace<0|1>.json`.
`--workload all` runs every workload in its own child process, one after
the other, and prints a table of the end-to-end metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_SECONDS = 1.0
SETUP_SHARE = 0.1
MIN_JOBS = 2
EXIT_USAGE = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(name, wl, seed, workloads):
    import numpy
    import scipy
    return {
        "workload": name,
        "seed": seed,
        "excitation_center": [1.0, workloads.excitation_center(seed)],
        "sizes": wl.sizes(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class SetUps:
    """Timed fresh set-ups.  `ctx` is the newest one's context, which the
    next job runs on, so a job's modules are the ones in sys.modules."""

    def __init__(self, set_up):
        self._set_up = set_up
        self.times = []
        self.ctx = None

    def run(self, seconds):
        """Set up once, then again while less than `seconds` have passed."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.ctx = self._set_up()
            self.times.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= seconds:
                return


@dataclass
class Sample:
    """What the metrics need of one completed job; its outputs are dropped
    once checked, so the process's peak memory does not grow with the
    number of jobs."""

    wall_s: float
    dof_steps: int
    figures: dict
    spans: list


def measure(run_job, check, seconds, tracer=None, after=None):
    """Run jobs while the next one, with its check and `after(wall_s)`, is
    expected to end within `seconds` (at least MIN_JOBS); returns
    (samples, attempts, failures)."""
    from perfbench.tracer import job_figures

    samples, failures, attempts, rounds = [], [], 0, []
    start = time.perf_counter()
    while attempts < MIN_JOBS or (
            rounds and time.perf_counter() - start
            + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        attempts += 1
        if tracer is not None:
            tracer.active = True
        try:
            result = run_job()
        except Exception:
            traceback.print_exc()
            failures.append("job raised")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        spans = tracer.take() if tracer is not None else None
        checkpoint = result.files.get("checkpoint")
        size = os.path.getsize(checkpoint) if checkpoint else 0
        try:
            problems = check(result)
        except Exception:
            traceback.print_exc()
            problems = ["gate raised"]
        if problems:
            failures.append("; ".join(problems))
        samples.append(Sample(result.wall_s, result.dof_steps,
                              job_figures(result, size), spans))
        del result
        if after is not None:
            after(samples[-1].wall_s)
        rounds.append(time.perf_counter() - round_start)
    return samples, attempts, failures


class NoResult(RuntimeError):
    """No job of the run completed, so there is nothing to report."""


def run_workload(name, seed, seconds, trace):
    from perfbench import gate, tracer as tracing, workloads

    wl = workloads.WORKLOADS[name]
    out_dir = OUT / name
    job_dir = out_dir / "job"
    job_dir.mkdir(parents=True, exist_ok=True)
    env = environment(name, wl, seed, workloads)
    print(json.dumps({"environment": env}), file=sys.stderr)
    recorded = gate.load_recorded()[name] if seed == 0 else None

    t0 = time.perf_counter()
    workloads.setup(wl, seed, str(job_dir))          # cold: scipy import
    cold_setup_s = time.perf_counter() - t0
    setups = SetUps(lambda: workloads.setup(wl, seed, str(job_dir)))
    setups.run(SETUP_SECONDS)

    budget = seconds / 2 if trace else seconds
    done, attempts, failures = measure(
        lambda: workloads.run_job(wl, setups.ctx),
        lambda result: gate.check_job(wl, setups.ctx, result, recorded),
        budget, after=lambda wall_s: setups.run(SETUP_SHARE * wall_s))
    if not done:
        raise NoResult(failures)
    wall_s = statistics.median(s.wall_s for s in done)
    record = {"environment": env, "cold_setup_s": cold_setup_s,
              "setup_s": setups.times, "wall_s": [s.wall_s for s in done]}

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setups.times), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "dof_steps_per_s": (statistics.median(
                s.dof_steps / s.wall_s for s in done), "1/s"),
        }
    else:
        tracer = tracing.Tracer()
        tracer.active = True
        traced_ctx = workloads.setup(wl, seed, str(job_dir),
                                     on_import=tracer.install)
        tracer.active = False
        setup_spans = tracer.take()
        traced, more, traced_failures = measure(
            lambda: workloads.run_job(wl, traced_ctx),
            lambda result: gate.check_job(wl, traced_ctx, result, recorded),
            budget, tracer)
        tracer.uninstall()
        attempts += more
        failures += traced_failures
        if not traced:
            raise NoResult(failures)
        median = sorted(traced, key=lambda s: s.wall_s)[len(traced) // 2]
        metrics = tracing.per_layer(median.spans, median.figures,
                                    setup_spans, wall_s)
        record.update(traced_wall_s=[s.wall_s for s in traced],
                      setup_spans=setup_spans,
                      spans=[s.spans for s in traced])

    record.update(metrics=metrics, attempted=attempts, failures=failures)
    with open(out_dir / f"run-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    for problem in failures:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempts,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(args, names):
    """Every workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise NoResult(f"{name} exited with {proc.returncode}")
        out = json.loads(lines[-1])
        total["correct"] &= out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        for metric, entry in out["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed/attempted",
                     f"{out['failed']}/{out['attempted']}", ""))
    for name, metric, value, unit in rows:
        value = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:18s} {metric:30s} {value:>14} {unit}")
    return total


def main(argv=None):
    # one BLAS thread, set before anything in this process imports numpy
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "monofem" / "__init__.py").is_file():
        print(f"perfbench: no monofem sources under {src}", file=sys.stderr)
        return EXIT_USAGE
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        if args.workload == "all":
            out = run_all(args, sorted(WORKLOADS))
        else:
            out = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except NoResult as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
