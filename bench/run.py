"""congrex benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src``.  Workloads, their jobs and the oracle live in workloads.py and
oracle.py.  Every run starts fresh worker processes (worker.py) with memory
and CPU limits, one BLAS thread and a fixed PYTHONHASHSEED, and checks every
job's output.  A traceback, a wrong output, an unexpected exit code or a
killed worker fails jobs; it never stops the benchmark.

``--trace 0`` measures end to end: the worker repeats the job list (fresh
relabelings each pass) while another pass fits in ``--seconds``, and a
thread of it times a fixed unit of pure-Python work every 50 ms
(reference.py).  ``wall_over_ref`` is the median over passes of the pass's
job time in reference units (each job's time over the mean unit time of the
samples taken while it ran), ``setup_s`` the median set-up time of eight
worker starts, half before and half after the timed worker.  The raw wall
and CPU seconds and the reference units of every pass go to the record.
Every worker runs on one CPU, the last one this process may use.

``--trace 1`` gives per-layer metrics: one untraced and one traced pass of
pass 0 in two workers; the traced one wraps the public calls of each layer
(tracing.py), and ``trace.overhead_s`` is the difference of their job times.
The untraced pass gives the raw times ``cli.pass_wall_s`` and
``cli.pass_cpu_s`` and the median job time ``cli.job_p50_s``.  They are
reported here and not end to end because on a shared 2-core host they
spread between runs by more than the largest bound an end-to-end metric may
have.

The last line of stdout is the JSON result.  Everything else (failures, the
dominant layer, where the record went) goes to stderr, and a record with the
sha256 of every pass-0 job's exit code and stdout plus the environment goes
to ``.bench_out/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, dominant_layer  # noqa: E402

END_TO_END = {
    "wall_over_ref": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_PROBES = 8
MEMORY_LIMIT = 3 << 30  # bytes of address space per worker
RUN_LIMIT = 170.0  # seconds; the whole run must end within 180
MAX_PASSES = 64
WORKER_CPU = max(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONGREX_BUDGET"}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _limits(cpu_seconds: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 5))
        os.sched_setaffinity(0, {WORKER_CPU})

    return apply


class Worker:
    """One worker process: the time until it was ready, its exit status and
    its resource usage."""

    def __init__(self, args, deadline: float, log_path: str):
        self.setup_s = None
        self.status = None
        self.maxrss_kb = 0
        self.killed = False
        cpu = max(1, int(deadline - time.monotonic()))
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py")] + args,
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=worker_env(),
                preexec_fn=_limits(cpu),
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if ready and self.proc.stdout.readline().strip() == b"ready":
                self.setup_s = time.perf_counter() - start
            self._wait(deadline)
        finally:
            if self.status is None:
                self._kill()
            self.proc.stdout.close()

    def _wait(self, deadline: float) -> None:
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
                return
            if time.monotonic() >= deadline:
                self._kill()
                return
            time.sleep(0.02)

    def _kill(self) -> None:
        self.killed = True
        self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self._reaped(status, usage)

    def _reaped(self, status, usage) -> None:
        self.status = status
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss

    @property
    def ok(self) -> bool:
        return not self.killed and self.status is not None and os.waitstatus_to_exitcode(self.status) == 0

    def describe(self) -> str:
        code = os.waitstatus_to_exitcode(self.status)
        if self.killed:
            return "killed at the run deadline"
        if code < 0:
            return f"killed by {signal.Signals(-code).name}"
        return f"exit code {code}"


def read_log(path: str):
    """pass index -> {"jobs": n, "results": {job index: record}, "samples":
    [(end, seconds), ...]} (samples only if the pass ended and was sampled)."""
    passes = {}
    if not os.path.exists(path):
        return passes
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:  # the line a killed worker was writing
                break
            if "pass_start" in rec:
                passes[rec["pass_start"]] = {"jobs": rec["jobs"], "results": {}}
            elif "pass_end" in rec:
                passes[rec["pass_end"]]["samples"] = rec["samples"]
            else:
                passes[rec["pass"]]["results"][rec["job"]] = rec
    return passes


def job_digest(rec) -> str:
    h = hashlib.sha256(f"{rec['exit']}\n".encode())
    h.update(rec["stdout"].encode())
    return h.hexdigest()


def evaluate(workload: str, seed: int, passes, failures: list):
    """(attempted, failed, complete passes) with every output checked."""
    attempted = failed = 0
    complete = []
    for p, info in sorted(passes.items()):
        jobs = workloads.jobs_for(workload, seed, p)
        attempted += info["jobs"]
        for i, job in enumerate(jobs):
            rec = info["results"].get(i)
            if rec is None:
                problem = "not reached: the worker stopped"
            elif rec["error"]:
                problem = "traceback: " + rec["error"].strip().splitlines()[-1]
            else:
                problem = oracle.check(job, rec["exit"], rec["stdout"])
            if problem:
                failed += 1
                failures.append({"pass": p, "job": i, "args": job.args, "problem": problem})
        if len(info["results"]) == info["jobs"]:
            complete.append(info)
    return attempted, failed, complete


def environment() -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def pass_totals(info):
    """Wall and CPU seconds of one pass's jobs."""
    recs = list(info["results"].values())
    return sum(r["s"] for r in recs), sum(r["cpu_s"] for r in recs)


def pass_units(info) -> float:
    """The pass's job time in reference units: each job's wall time times
    the mean speed (1 / unit seconds) of the samples that ended while it ran,
    or of the sample that ended nearest to its middle if none did."""
    samples = info["samples"]
    ends = [end for end, _ in samples]
    units = 0.0
    for r in info["results"].values():
        lo = bisect.bisect_left(ends, r["t0"])
        hi = bisect.bisect_right(ends, r["t0"] + r["s"])
        if lo == hi:
            middle = r["t0"] + r["s"] / 2
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(ends)),
                     key=lambda i: abs(ends[i] - middle))
            hi = lo + 1
        units += r["s"] * statistics.fmean(1 / sec for _, sec in samples[lo:hi])
    return units


def identity(workload: str, seed: int, first_pass) -> dict:
    """sha256 of exit code and stdout of every pass-0 job, and their digest."""
    jobs = [
        {"args": job.args, "exit": rec["exit"], "sha256": job_digest(rec)}
        for i, job in enumerate(workloads.jobs_for(workload, seed))
        if (rec := first_pass["results"].get(i)) is not None
    ]
    digest = hashlib.sha256("".join(j["sha256"] for j in jobs).encode()).hexdigest()
    return {"digest": digest, "jobs": jobs}


def job_p50(complete) -> float:
    """Median job time over the complete passes."""
    return statistics.median(
        [r["s"] for p in complete for r in p["results"].values()] or [0.0]
    )


def sampled_units(complete) -> list:
    """pass_units of every complete pass that has its samples."""
    return [pass_units(p) for p in complete if p.get("samples")]


def end_to_end(worker, complete, setups) -> dict:
    """The median over the timed worker's complete passes of the pass's job
    time in reference units (pass_units), the worker's peak RSS, and the
    median set-up time.

    The host's speed changes by up to half, within seconds and over whole
    runs, as other tenants come and go; the raw pass time of a seed spread
    by 0.2 to 0.4 of its median between seeds.  The reference unit runs on
    the jobs' CPU while they run, so it is slowed along with them and the
    ratio keeps only the program's own cost."""
    values = {
        "wall_over_ref": statistics.median(sampled_units(complete) or [0.0]),
        "peak_rss_mb": worker.maxrss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(workload: str, trace_path: str, complete, record: dict) -> dict:
    """The traced worker's metrics, the tracing overhead, and whether the
    layer with the most self time is the one predicted for the workload."""
    values = {}
    if os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            values = json.load(fh)["metrics"]
        base, traced = complete["untraced"], complete["traced"]
        values["cli.job_p50_s"] = job_p50(base)
        if base:
            values["cli.pass_wall_s"], values["cli.pass_cpu_s"] = pass_totals(base[0])
        if base and traced:
            values["trace.overhead_s"] = pass_totals(traced[0])[0] - pass_totals(base[0])[0]
        measured = dominant_layer(values)
        predicted = workloads.PREDICTED_DOMINANT[workload]
        record["dominant_layer"] = {"measured": measured, "predicted": list(predicted),
                                    "confirmed": measured in predicted}
        print(f"dominant layer: {measured} (predicted {' or '.join(predicted)})"
              + ("" if measured in predicted else " - MISMATCH"), file=sys.stderr)
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT

    if not os.path.isfile(os.path.join(SRC, "congrex", "cli.py")):
        print(f"congrex sources not found under {SRC}", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    def start(name, *extra):
        os.makedirs(os.path.join(out, name))
        return Worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--out", os.path.join(out, name), *extra],
            deadline, os.path.join(out, name, "stderr.txt"),
        )

    setups = []

    def probe(count):
        for _ in range(count):
            worker = Worker(["--probe"], deadline,
                            os.path.join(out, f"probe{len(setups)}.txt"))
            if not worker.ok:
                print(f"worker did not start: {worker.describe()}; see {out}", file=sys.stderr)
                return False
            setups.append(worker.setup_s)
        return True

    if args.trace:
        workers = {
            "untraced": start("untraced", "--passes", "1"),
            "traced": start("traced", "--passes", "1", "--trace", "1"),
        }
    else:
        # half the probes before the timed worker and half after it, so the
        # median set-up time is not taken in one moment of the host's load
        if not probe(SETUP_PROBES // 2):
            return 2
        workers = {"timed": start("timed", "--passes", str(MAX_PASSES),
                                  "--seconds", str(args.seconds), "--sample")}
        if not probe(SETUP_PROBES - SETUP_PROBES // 2):
            return 2

    failures = []
    attempted = failed = 0
    complete = {}
    passes = {}
    for name, worker in workers.items():
        if worker.setup_s is None:
            print(f"{name} worker did not start: {worker.describe()}", file=sys.stderr)
            return 2
        setups.append(worker.setup_s)
        passes[name] = read_log(os.path.join(out, name, "jobs.jsonl")) or {
            0: {"jobs": len(workloads.jobs_for(args.workload, args.seed)), "results": {}}
        }
        a, f, complete[name] = evaluate(args.workload, args.seed, passes[name], failures)
        attempted += a
        failed += f
        if not worker.ok:
            failures.append({"worker": name, "problem": worker.describe()})

    first = "untraced" if args.trace else "timed"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "failures": failures,
              "jobs_per_pass": passes[first][0]["jobs"], "passes": len(complete[first]),
              "identity": identity(args.workload, args.seed, passes[first][0])}
    if args.trace:
        metrics = per_layer(args.workload, os.path.join(out, "traced", "trace.json"),
                            complete, record)
    else:
        metrics = end_to_end(workers["timed"], complete["timed"], setups)
        record["job_p50_s"] = job_p50(complete["timed"])
        # wall and CPU seconds and reference units of every complete pass
        record["pass_seconds"] = [pass_totals(p) for p in complete["timed"]]
        record["pass_units"] = sampled_units(complete["timed"])
        record["setup_seconds"] = setups
    record["metrics"] = metrics
    with open(os.path.join(out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if failures:
        for f in failures[:20]:
            print(f"FAILED {f}", file=sys.stderr)
    else:
        # the inputs and raw outputs are only kept to debug a failure
        for name in workers:
            shutil.rmtree(os.path.join(out, name, "inputs"))
            os.remove(os.path.join(out, name, "jobs.jsonl"))
    print(f"record: {os.path.relpath(os.path.join(out, 'record.json'), ROOT)}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
