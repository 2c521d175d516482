"""Benchmark worker: runs one workload's jobs in-process through
``congrex.cli.main(argv)`` with stdout captured.

It is started by run.py in a fresh process with PYTHONPATH pointing at the
package sources.  It prints ``ready`` once ``congrex.cli`` is imported, then
appends one JSON line per event to ``<out>/jobs.jsonl``, flushed at once, so
that the jobs a killed worker finished are still on record:

    {"pass_start": p, "jobs": n}
    {"pass": p, "job": i, "exit": code, "t0": start, "s": wall, "cpu_s": cpu,
     "stdout": text, "error": traceback or null}
    {"pass_end": p, "samples": [[end, seconds], ...]}

With ``--sample`` a reference.Sampler thread times a fixed unit of work
every 50 ms while the jobs run; ``pass_end`` holds the pass's samples.
``t0`` and the sample ends are ``time.perf_counter`` readings of the worker.

Passes repeat the job list on fresh relabelings (pass index p) while the
next pass is expected to end within ``--seconds``; ``--passes`` caps them.
With ``--trace 1`` the tracer's wrappers are installed around the passes
and the spans and per-layer metrics go to ``<out>/trace.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback

import reference
import workloads


def run_job(main, argv):
    """(exit code or None, stdout, traceback or None, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a dead worker
        code = None
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), error, wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="import, report ready, exit")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sample", action="store_true",
                        help="time reference units while the jobs run")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import congrex.cli as cli

    print("ready", flush=True)
    if args.probe:
        return 0
    # nothing else may reach the pipe that run.py reads "ready" from
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    log_path = os.path.join(args.out, "jobs.jsonl")
    started = time.perf_counter()
    last_pass = 0.0
    with open(log_path, "w", encoding="utf-8") as log:

        def record(obj):
            log.write(json.dumps(obj) + "\n")
            log.flush()

        for p in range(args.passes):
            if p and time.perf_counter() - started + last_pass > args.seconds:
                break
            pass_start = time.perf_counter()
            jobs = workloads.jobs_for(args.workload, args.seed, p)
            directory = os.path.join(args.out, "inputs", f"p{p}")
            workloads.write_inputs(jobs, directory)
            record({"pass_start": p, "jobs": len(jobs)})
            if tracer:
                tracer.install()
            sampler = reference.Sampler() if args.sample else contextlib.nullcontext()
            try:
                with sampler:
                    for i, job in enumerate(jobs):
                        gc.collect()
                        if tracer:
                            tracer.job = i
                        start = time.perf_counter()
                        code, stdout, error, wall, cpu = run_job(cli.main, job.argv(directory))
                        record({"pass": p, "job": i, "exit": code, "t0": start, "s": wall,
                                "cpu_s": cpu, "stdout": stdout, "error": error})
            finally:
                if tracer:
                    tracer.uninstall()
            if args.sample:
                record({"pass_end": p, "samples": sampler.samples})
            last_pass = time.perf_counter() - pass_start

    if tracer:
        from tracing import spans_json

        with open(os.path.join(args.out, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": tracer.summary(), **spans_json(tracer.spans, tracer.leaves)},
                      fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
