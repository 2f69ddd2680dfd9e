"""randopt benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a randopt checkout, one workload at a time:

    for w in gallery local-2d global-grid wide-atoms; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

A closed loop with one client: one process, one thread, and each job
(``document.load_problem``, then ``cli.run``, which writes the report)
starts only after the previous report is written and checked.  Passes over
the workload's job list repeat until ``--seconds`` have gone by, and at
least MIN_PASSES times.  Every report is checked against a reference built
from how its document was generated (check.py) and against its own bytes
in the first pass.

``--trace 0`` prints the end-to-end metrics.  The pass time that
BENCHMARK.json bounds is ``pass_adj_s``: the median pass corrected for
the host's speed, as measured by a fixed reference loop timed between
jobs (see run_untraced).  ``pass_s`` and the per-command times are
printed in seconds as measured.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (tracer.py), the tracing overhead, and a coverage check of the trace
against cProfile.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the metrics that
BENCHMARK.json lists for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.metadata
import json
import os
import platform
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

import workloads
from check import check_report
from tracer import Tracer, moves

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3  # the first pass is the byte reference for the others
SETUP_SAMPLES = 7  # fresh interpreters timed per run, after one warm-up
COVERAGE_JOB = -2  # span tag of the job rerun under cProfile in trace mode
REF_SHARE = 0.1  # share of an untraced run spent in the reference loop
REF_NOMINAL_S = 0.04  # reference loop time that pass_adj_s and setup_s are scaled to
# Set-up time follows the reference loop's time to this power: the slope of
# log set-up time on log loop time over 80 runs on a shared 2-vCPU Xeon.
SETUP_SPEED_EXPONENT = 0.57
# What every CLI call pays before its first job: interpreter start, the
# package and CLI imports, and the bundled schema read by load_problem.
SETUP_CODE = (
    "import randopt, randopt.cli; "
    "randopt.load_problem('gallery/cubic_inflection.json')"
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_adj_s", "s"),
    ("solve_rop_s", "s"),
    ("solve_rlop_s", "s"),
    ("check_measurable_s", "s"),
    ("stationary_s", "s"),
    ("necessary_s", "s"),
    ("oracle_s", "s"),
    ("job_failure_ratio", "failed/attempted"),
    ("peak_rss_mb", "MB"),
)


def command_metric(command: str) -> str:
    return command.replace("-", "_") + "_s"


# --- measurement ----------------------------------------------------------------


def setup_sample() -> float:
    """Wall time of one fresh interpreter running SETUP_CODE."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


# A fixed expression tree walked as exprlang.evaluate walks its trees.
REF_TREE = (
    "+",
    ("*", ("+", ("x", 0), ("c", -1.0)), ("+", ("x", 0), ("c", -1.0))),
    ("*", ("x", 1), ("+", ("x", 1), ("c", 2.0))),
)
REF_ROWS = np.linspace(0.0, 1.0, 2000)


def _ref_eval(node, env):
    op = node[0]
    if op == "x":
        return env[node[1]]
    if op == "c":
        return node[1]
    a, b = _ref_eval(node[1], env), _ref_eval(node[2], env)
    return a + b if op == "+" else a * b


def reference_loop() -> float:
    """Wall time of a fixed amount of tree walking and small numpy sums.

    The loop uses no randopt code, so it measures only the host's speed,
    which drifts by up to 1.7x within seconds on a shared machine.  See
    pass_adj_s in run_untraced.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += _ref_eval(REF_TREE, (i * 1e-3, 0.5))
    for _ in range(1000):
        acc += float((REF_ROWS * REF_ROWS - REF_ROWS).sum())
    return perf_counter() - t0


class Runner:
    """Runs passes over one job list and keeps the outcome of every job."""

    def __init__(self, jobs: list, workdir: str):
        from randopt import cli, document

        self.cli, self.document = cli, document
        self.jobs = jobs
        self.workdir = workdir
        for i, job in enumerate(jobs):
            job.path = os.path.join(workdir, f"job{i}.json")
            with open(job.path, "w", encoding="utf-8") as fh:
                json.dump(job.doc, fh)
        self.first_bytes: dict[int, bytes] = {}
        self.verdicts: dict[int, str | None] = {}
        self.attempted = 0
        self.job_times: list[float] = []
        self.failures: list[tuple[str, str, bool]] = []  # (job, reason, wrong output)
        self.ref_times: list[float] = []
        self.ref_owed = 0.0

    def run_job(self, i: int) -> float:
        job = self.jobs[i]
        out = os.path.join(self.workdir, f"job{i}.report.json")
        if os.path.exists(out):
            os.unlink(out)
        self.attempted += 1
        t0 = perf_counter()
        try:
            doc = self.document.load_problem(job.path)
            code = self.cli.run(job.command, doc, out)
        except Exception as e:  # a crash is a failed job, never the end of the run
            code = e
        elapsed = perf_counter() - t0
        self.job_times.append(elapsed)
        if isinstance(code, Exception):
            # only the error-path jobs, which crash at seed on purpose, leave
            # the output correct; anywhere else a crash is a wrong output
            wrong = job.expect["kind"] != "documented"
            self.failures.append((job.name, f"exception escaped: {type(code).__name__}: {code}", wrong))
        else:
            self._check(i, out, code)
        return elapsed

    def _check(self, i: int, out: str, code: int) -> None:
        job = self.jobs[i]
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            self.failures.append((job.name, "no report written", True))
            return
        if i in self.first_bytes:
            # later passes must repeat the first pass's report, checked once
            if data != self.first_bytes[i]:
                reason = "report bytes differ from the first pass"
            else:
                reason = self.verdicts[i]
        else:
            self.first_bytes[i] = data
            try:
                report = json.loads(data)
            except ValueError:
                report = None
            if isinstance(report, dict):
                reason = check_report(report, code, job.expect)
            else:
                reason = "report is not a JSON object"
            self.verdicts[i] = reason
        if reason:
            self.failures.append((job.name, reason, True))

    def run_pass(self, tracer=None, first_job: int = 0, reference: bool = False) -> dict[str, float]:
        """Wall time of each job, summed per command and over the pass.

        With ``reference``, the reference loop runs between jobs for
        REF_SHARE of the time, so that its samples spread evenly over the run,
        and ``ref_s`` is its median time during the pass (or its last time,
        if a short pass took no sample).
        """
        times = {"pass_s": 0.0}
        first_ref = len(self.ref_times)
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = first_job + i
            dt = self.run_job(i)
            times["pass_s"] += dt
            key = command_metric(job.command)
            times[key] = times.get(key, 0.0) + dt
            if reference:
                self.ref_owed += REF_SHARE * dt
                while self.ref_owed > 0.0:
                    self.ref_times.append(reference_loop())
                    self.ref_owed -= self.ref_times[-1]
        if reference:
            times["ref_s"] = statistics.median(self.ref_times[first_ref:] or self.ref_times[-1:])
        return times


def tail_percentile(samples: list[float]):
    """Highest of a few percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return {"p": p, "value": float(np.percentile(samples, p))}
    return None


def summary(samples: list[float]) -> dict:
    return {"n": len(samples), "median": statistics.median(samples), "tail": tail_percentile(samples)}


def median_times(passes: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


# --- run record -------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def run_record(args, passes: int, timings: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_revision": git_revision(),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
        },
        "passes": passes,
        "timings": timings,
    }


# --- modes --------------------------------------------------------------------------


def run_untraced(args, runner: Runner) -> tuple[dict, dict]:
    setup_sample()  # the first start also writes the bytecode cache
    setup, passes = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() < start + args.seconds:
        # set-up samples are spread evenly over the run, so that they see
        # the same changes in machine speed as the passes
        due = start + len(setup) * args.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and perf_counter() >= due:
            setup.append(setup_sample())
        passes.append(runner.run_pass(reference=True))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    metrics = median_times(passes)
    # The host's speed drifts, and a pass follows the drift of the reference
    # loop to the power of its workload's SPEED_EXPONENT; dividing that out
    # pass by pass gives the pass time at the speed where the loop takes
    # REF_NOMINAL_S.  Set-up time, sampled across the run, is corrected by
    # the whole run's loop time.  The record keeps both as measured.
    k = workloads.SPEED_EXPONENT[args.workload]
    metrics["pass_adj_s"] = statistics.median(
        p["pass_s"] * (REF_NOMINAL_S / p["ref_s"]) ** k for p in passes
    )
    speed = REF_NOMINAL_S / statistics.median(runner.ref_times)
    metrics["setup_s"] = statistics.median(setup) * speed ** SETUP_SPEED_EXPONENT
    metrics["job_failure_ratio"] = len(runner.failures) / runner.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timings = {"setup_s": summary(setup)}
    for key in passes[0]:
        timings[key] = summary([p[key] for p in passes])
    timings["job_s"] = summary(runner.job_times)
    timings["reference_loop_s"] = summary(runner.ref_times)
    return metrics, run_record(args, len(passes), timings)


def coverage_check(runner: Runner, tracer: Tracer, i: int) -> str | None:
    """Count exprlang.evaluate on job i with cProfile and with the tracer."""
    from randopt import exprlang

    code = exprlang.evaluate.__code__
    tracer.job = COVERAGE_JOB
    profiler = cProfile.Profile()
    with tracer:
        profiler.enable()
        runner.run_job(i)
        profiler.disable()
    by_profile = sum(
        stat[1]
        for (filename, line, func), stat in pstats.Stats(profiler).stats.items()
        if filename == code.co_filename and line == code.co_firstlineno and func == code.co_name
    )
    by_trace = tracer.layer_metrics(range(COVERAGE_JOB, COVERAGE_JOB + 1))["exprlang.evaluate.calls"]
    if by_profile != by_trace:
        return f"job {runner.jobs[i].name}: exprlang.evaluate traced {by_trace} times, cProfile counted {by_profile}"
    return None


def run_traced(args, runner: Runner) -> tuple[dict, dict, list[str]]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    tracer = Tracer()
    plain, traced, layer = [], [], []
    end = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < end:
        plain.append(runner.run_pass())
        first = len(traced) * len(runner.jobs)
        with tracer:
            traced.append(runner.run_pass(tracer, first))
        layer.append(tracer.layer_metrics(range(first, first + len(runner.jobs))))

    # times vary from pass to pass and take the median; counts and ratios
    # repeat exactly and come from the last pass
    metrics = dict(layer[-1])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(m[key] for m in layer)
    notes = []
    plain_pass = statistics.median(p["pass_s"] for p in plain)
    traced_pass = statistics.median(p["pass_s"] for p in traced)
    notes.append(
        f"tracing overhead: {traced_pass - plain_pass:+.4f} s per pass "
        f"(traced {traced_pass:.4f} s, untraced {plain_pass:.4f} s)"
    )
    # coverage on the passing job with the fewest nonzero exprlang.evaluate calls
    failing = {name for name, _, _ in runner.failures}
    per_job = [
        (tracer.layer_metrics(range(j, j + 1))["exprlang.evaluate.calls"], j)
        for j, job in enumerate(runner.jobs)
        if job.name not in failing
    ]
    nonzero = [pair for pair in per_job if pair[0]]
    calls, job_id = min(nonzero) if nonzero else (0, 0)
    problem = coverage_check(runner, tracer, job_id)
    if problem:
        runner.failures.append(("coverage", problem, True))
    notes.append(f"coverage: {problem or f'exprlang.evaluate calls match cProfile ({calls}) on {runner.jobs[job_id].name}'}")
    timings = {
        "pass_s_untraced": summary([p["pass_s"] for p in plain]),
        "pass_s_traced": summary([p["pass_s"] for p in traced]),
    }
    return metrics, run_record(args, len(traced), timings), notes


# --- output ----------------------------------------------------------------------------


def fmt(v) -> str:
    return f"{v}" if isinstance(v, int) else f"{v:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "randopt", "cli.py")):
        print(f"perfbench: no randopt sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.environ.pop("RANDOPT_THREADS", None)  # the program runs with its defaults

    jobs = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(jobs, workdir)
        if args.trace:
            metrics, record, notes = run_traced(args, runner)
            wanted = spec["per_layer"]
        else:
            metrics, record = run_untraced(args, runner)
            notes = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['passes']} passes of {len(jobs)} jobs, closed loop, one client")
    if args.trace:
        for key in sorted(metrics):
            print(f"  {key:46s} {fmt(metrics[key]):>12s}  moves {moves(key)}")
    else:
        for name, unit in END_TO_END:
            if name == "job_failure_ratio":
                shown = f"{failed}/{runner.attempted} = {metrics[name]:.4g}"
            elif name in metrics:
                shown = f"{metrics[name]:.6g}"
            else:
                shown = "-"  # no job of this workload runs the command
            print(f"  {name:20s} {shown:>16s} {unit}")
    for note in notes:
        print(f"  {note}")
    for job, reason in dict.fromkeys((job, reason) for job, reason, _ in runner.failures):
        print(f"  failed: {job}: {reason}")
    print("record " + json.dumps(record))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured on this workload: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not any(wrong for _, _, wrong in runner.failures),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
