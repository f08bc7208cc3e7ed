"""One pass of a workload in a fresh, single-threaded process.

Started by run.py.  After set-up (imports, fixtures, the ordered job
list and, when traced, the wrappers) it prints ``ready`` and waits for
one line on stdin: ``go`` runs the job list, ``exit`` stops, which is
how run.py samples set-up time.  The pass result goes to --result as
JSON.

Every time is calibrated by the machine's speed around and during the
job (see calibrate.py).

Every job starts cold: the package's ``lru_cache`` memos are cleared and
garbage is collected before it, outside its timer, so its time does not
depend on its place in the seeded order.  This is also what a user who
runs each computation as its own command gets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import import_module
from pathlib import Path
from time import perf_counter

import calibrate
import jobs as joblist
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
SMALL_JOB_S = 0.15
MAX_REPEATS = 25


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _memo_clearers() -> list:
    seen, out = set(), []
    for name, module in list(sys.modules.items()):
        if not name.startswith("operadkit"):
            continue
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and id(obj) not in seen:
                seen.add(id(obj))
                out.append(clear)
    return out


class CommandRunner:
    """Runs one operadkit command in a fresh process inside the pass
    directory, traced or not."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.dump = workdir / "command-trace.json"
        self.traced = traced
        self.env = dict(os.environ, OPERADKIT_CACHE_DIR=str(workdir / "cache"))

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.traced:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(self.dump), *argv]
        else:
            cmd = [sys.executable, "-m", "operadkit.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, text=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=120)
        return proc.returncode, proc.stdout


def _time_job(job, clearers, repeat: bool, metered: bool):
    """Run a job cold; returns (result, error, seconds, cpu seconds,
    machine-speed samples).  With repeat, a job shorter than SMALL_JOB_S
    runs again, cold each time, until that much time is spent, and the
    median repeat counts.  Metered, the reference loop is sampled while
    the job runs and its cost taken out of the job's times."""
    seconds, cpus, speeds = [], [], []
    while True:
        for clear in clearers:
            clear()
        gc.collect()
        meter = calibrate.Meter(enabled=metered)
        cpu0 = _cpu()
        start = perf_counter()
        try:
            with meter:
                result = job.run()
        except Exception:  # a job that raises counts as failed; the pass goes on
            return (None, traceback.format_exc(limit=8), perf_counter() - start,
                    _cpu() - cpu0, speeds)
        seconds.append(perf_counter() - start - meter.cost)
        cpus.append(_cpu() - cpu0 - meter.cost)
        speeds += meter.speeds
        if not repeat or sum(seconds) >= SMALL_JOB_S or len(seconds) >= MAX_REPEATS:
            return result, None, statistics.median(seconds), statistics.fmean(cpus), speeds


def run_pass(job_list, tracer, runner, break_oracle: str | None,
             end_to_end: bool) -> dict:
    """Run the jobs in order; times are calibrated by the machine speed
    measured before and after each job and, for end-to-end passes, during
    it (see calibrate.py).  The passes of a traced run are not sampled
    during jobs, and no job is repeated, so that spans and counts cover
    exactly one run of each job."""
    clearers = _memo_clearers()
    records = []
    raw_cpu = cpu = 0.0
    usage_errors = 0
    speed = calibrate.speed()
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.begin_job(index, job.name)
        # a command is not repeated: its second run would hit the cache
        result, error, elapsed, job_cpu, during = _time_job(
            job, clearers, end_to_end and runner is None, metered=end_to_end)
        before, speed = speed, calibrate.speed()
        scale = statistics.fmean([before, *during, speed])
        raw_cpu += job_cpu
        cpu += job_cpu * scale
        if tracer is not None:
            tracer.end_job()
            if runner is not None and runner.traced and runner.dump.exists():
                tracer.absorb(json.loads(runner.dump.read_text()), index, job.name)
                runner.dump.unlink()
        ok = False
        if error is None:
            try:
                ok = bool(job.check(result))
            except Exception:
                error = traceback.format_exc(limit=8)
        if job.name == break_oracle:
            ok = not ok
        if runner is not None and error is None and result[0] == 2:
            usage_errors += 1
        records.append({"name": job.name, "seconds": elapsed * scale,
                        "raw_seconds": elapsed, "ok": ok, "error": error})
    return {"jobs": records, "cpu_s": cpu, "raw_cpu_s": raw_cpu,
            "peak_rss_mb": _peak_rss_mb(), "usage_errors": usage_errors}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--order-seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=("full", "smoke"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--break-oracle", default=None,
                    help="name of a job whose oracle verdict is inverted (self-test)")
    ap.add_argument("--end-to-end", action="store_true",
                    help=f"repeat jobs shorter than {SMALL_JOB_S} s and sample "
                         "the machine's speed during jobs")
    ap.add_argument("--warmup", action="store_true",
                    help="import every operadkit module, then wait as usual")
    args = ap.parse_args()

    if args.workload == "cli-session":
        # one CPU for the worker and its commands, so that the reference
        # loop, run by the worker, measures the CPU the commands run on;
        # library jobs stay unpinned, so a change that uses several cores
        # can show
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    runner = None
    if args.warmup or args.workload != "cli-session":
        # library functions import modules lazily; that belongs in set-up
        for name in MODULES:
            import_module(f"operadkit.{name}")
    if tracer is not None and args.workload != "cli-session":
        tracer.install()  # before the jobs bind library functions by name
    if args.workload == "cli-session":
        joblist.write_cli_fixtures(workdir)
        runner = CommandRunner(workdir, traced=tracer is not None)
    job_list = joblist.order(
        joblist.build(args.workload, args.scale, cli_runner=runner), args.order_seed)

    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = run_pass(job_list, tracer, runner, args.break_oracle, args.end_to_end)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["determinism"] = tracer.determinism()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
