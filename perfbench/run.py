"""operadkit benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an operadkit source checkout; it imports the
package from ``src/``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

A run first starts one discarded warm-up worker (so byte-code compilation
lands in no measurement) and a few set-up-only workers.  Untraced
(``--trace 0``), it then runs passes over the workload's seeded job
list, each in a fresh worker process, until the next pass would end
after ``--seconds``; every pass runs at least once.  It reports the
end-to-end metrics as medians over passes, in calibrated seconds (see
calibrate.py).  Traced (``--trace 1``), it
runs one untraced pass and two traced passes in two different orders,
reports the per-layer metrics and the tracing overhead, and fails the
run if the exact counts of the two traced passes differ.

Everything a run writes stays under ``.perfbench/`` in the checkout:
the pass directories (removed at the end), the span files of traced
passes and one result file per run with provenance.  See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cobar-homology", "strata-census", "algebra-checks", "cli-session")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 150.0  # no new pass starts after this; a run must end within 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "slowest_job_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
}

# metric -> (unit, key in the tracer summary)
PER_LAYER = {
    "qlinalg.rank.calls": ("count", "qlinalg.rank.calls"),
    "qlinalg.rank.self_s": ("s", "qlinalg.rank.self_s"),
    "qlinalg.rank.rows_in": ("count", "qlinalg.rank.rows_in"),
    "qlinalg.rank.nnz_in": ("count", "qlinalg.rank.nnz_in"),
    "qlinalg.rank.max_nnz_in": ("count", "qlinalg.rank.max_nnz_in"),
    "qlinalg.rank.rank_out": ("count", "qlinalg.rank.rank_out"),
    "qlinalg.rref.calls": ("count", "qlinalg.rref.calls"),
    "qlinalg.rref.self_s": ("s", "qlinalg.rref.self_s"),
    "qlinalg.solve_in_span.calls": ("count", "qlinalg.solve_in_span.calls"),
    "qlinalg.span_rank.calls": ("count", "qlinalg.span_rank.calls"),
    "qlinalg.matmul.calls": ("count", "qlinalg.matmul.calls"),
    "qlinalg.matmul.self_s": ("s", "qlinalg.matmul.self_s"),
    "qlinalg.chain_check.self_s": ("s", "qlinalg.chain_check.self_s"),
    "treegraph.enumerate_trees.calls": ("count", "treegraph.enumerate_trees.calls"),
    "treegraph.enumerate_trees.self_s": ("s", "treegraph.enumerate_trees.self_s"),
    "treegraph.enumerate_trees.trees_out": ("count", "treegraph.enumerate_trees.trees_out"),
    "treegraph.Tree.constructed": ("count", "treegraph.Tree.constructed"),
    "treegraph.enumerate_stable_graphs.self_s": ("s", "treegraph.enumerate_stable_graphs.self_s"),
    "treegraph.automorphism_group.calls": ("count", "treegraph.automorphism_group.calls"),
    "treegraph.automorphism_group.self_s": ("s", "treegraph.automorphism_group.self_s"),
    "cobar.basis_s": ("s", "cobar.basis.self_s"),
    "cobar.basis_dim": ("count", "cobar.basis_dim"),
    "cobar.boundary_from.calls": ("count", "cobar.boundary_from.calls"),
    "cobar.boundary_from.self_s": ("s", "cobar.boundary_from.self_s"),
    "cobar.boundary_from.entries_out": ("count", "cobar.boundary_from.entries_out"),
    "cobar.chain_complex.self_s": ("s", "cobar.chain_complex.self_s"),
    "cobar.CobarOperad.build_s": ("s", "cobar.CobarOperad.build.self_s"),
    "operads.check_axioms.self_s": ("s", "operads.check_axioms.self_s"),
    "operads.check_axioms.instances": ("count", "operads.check_axioms.instances"),
    "operads.free_algebra_dims.self_s": ("s", "operads.free_algebra_dims.self_s"),
    "operads.compose_basis.calls": ("count", "operads.compose_basis.calls"),
    "hoalg.check_ainf.self_s": ("s", "hoalg.check_ainf.self_s"),
    "hoalg.check_cinf.self_s": ("s", "hoalg.check_cinf.self_s"),
    "hoalg.shuffle_defects.self_s": ("s", "hoalg.shuffle_defects.self_s"),
    "filtration.er_term.calls": ("count", "filtration.er_term.calls"),
    "filtration.er_term.self_s": ("s", "filtration.er_term.self_s"),
    "filtration.er_closure_certificate.self_s": ("s", "filtration.er_closure_certificate.self_s"),
    "filtration.suboperad_dk.self_s": ("s", "filtration.suboperad_dk.self_s"),
    "filtration.check_filtered_algebra.self_s": ("s", "filtration.check_filtered_algebra.self_s"),
    "filtration.induce_cinf.self_s": ("s", "filtration.induce_cinf.self_s"),
    "strata.e1_table.calls": ("count", "strata.e1_table.calls"),
    "strata.e1_table.self_s": ("s", "strata.e1_table.self_s"),
    "strata.predict_compactified_betti.calls": ("count", "strata.predict_compactified_betti.calls"),
    "strata.predict_compactified_betti.distinct_args": (
        "count", "strata.predict_compactified_betti.distinct_args"),
    "strata.dual_e1_table.self_s": ("s", "strata.dual_e1_table.self_s"),
    "strata.verify_vanishing.self_s": ("s", "strata.verify_vanishing.self_s"),
    "strata.middle_row.self_s": ("s", "strata.middle_row.self_s"),
    "cli.import_s": ("s", "cli.import.self_s"),
    "cli.dispatch_s": ("s", "cli.main.self_s"),
    "cli.cache_hits": ("count", "cli.cache_hits"),
    "cli.cache_misses": ("count", "cli.cache_misses"),
    "cli.cache_hit_ratio": ("ratio", None),
    "cli.usage_errors": ("count", None),
    "trace.wall_s": ("s", None),
    "trace.untraced_wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
    "trace.unattributed_s": ("s", None),
}


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker process, from spawn until it reports ready."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = perf_counter() - start
        if line.strip() != "ready":
            self.kill()
            raise BenchError(f"worker failed to set up: {' '.join(argv)}")

    def _left(self) -> float:
        return max(self.deadline - perf_counter(), 1.0)

    def finish(self, go: bool) -> None:
        self.proc.stdin.write("go\n" if go else "exit\n")
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker timed out") from None
        self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "operadkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.start = perf_counter()
        self.deadline = self.start + 175.0
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OPERADKIT_CACHE_DIR=str(workdir / "cache"))
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.passes = 0

    def spawn(self, argv: list[str]) -> Worker:
        """Start a worker and record its calibrated set-up time."""
        before = calibrate.speed()
        w = Worker(["--workload", self.args.workload, "--scale", self.args.scale,
                    *argv], self.env, self.deadline)
        self.raw_setups.append(w.setup_s)
        self.setups.append(w.setup_s * (before + calibrate.speed()) / 2)
        return w

    def sample_setups(self) -> None:
        warmup_dir = self.workdir / "warmup"
        warmup_dir.mkdir()
        self.spawn(["--order-seed", "0", "--warmup", "--workdir", str(warmup_dir),
                    "--result", str(warmup_dir / "unused")]).finish(go=False)
        del self.setups[:], self.raw_setups[:]  # the warm-up compiles byte code
        for _ in range(SETUP_SAMPLES):
            self.spawn(["--order-seed", str(self.args.seed), "--workdir",
                        str(warmup_dir), "--result", str(warmup_dir / "unused")]
                       ).finish(go=False)

    def one_pass(self, order_seed: int, traced: bool, spans: Path | None = None,
                 end_to_end: bool = False) -> dict:
        self.passes += 1
        pass_dir = self.workdir / f"pass{self.passes}"
        pass_dir.mkdir()
        argv = ["--order-seed", str(order_seed), "--trace", str(int(traced)),
                "--workdir", str(pass_dir), "--result", str(pass_dir / "result.json")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        if end_to_end:
            argv.append("--end-to-end")
        if self.args.break_oracle:
            argv += ["--break-oracle", self.args.break_oracle]
        self.spawn(argv).finish(go=True)
        data = json.loads((pass_dir / "result.json").read_text())
        shutil.rmtree(pass_dir)
        return data

    def untraced_passes(self) -> list[dict]:
        passes = []
        begin = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(self.one_pass(self.args.seed, traced=False, end_to_end=True))
            now = perf_counter()
            if (now - begin) + (now - t0) > self.args.seconds \
                    or now - self.start > RUN_LIMIT_S:
                return passes


def _wall(p: dict, key: str = "seconds") -> float:
    return sum(j[key] for j in p["jobs"])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.  Unlike a
    single order statistic it does not jump when the middle of a small,
    uneven sample falls in a gap between job sizes."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = []
    steps = 64  # midpoint rule over ((i - 1)/n, i/n]
    for i in range(n):
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            logs.append((i, a * math.log(t) + b * math.log1p(-t)))
    top = max(lw for _, lw in logs)
    weights = [0.0] * n
    for i, lw in logs:
        weights[i] += math.exp(lw - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list[dict], setups: list[float], raw: str = "") -> dict:
    """The end-to-end metrics, from calibrated times or, with raw="raw_",
    from raw ones."""
    key = raw + "seconds"
    latencies = [j[key] for p in passes for j in p["jobs"]]
    values = {
        "wall_s": statistics.median(_wall(p, key) for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p[raw + "cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "slowest_job_s": statistics.median(max(j[key] for j in p["jobs"])
                                           for p in passes),
        "cmd_p50_s": quantile(latencies, 0.5),
        "cmd_p90_s": quantile(latencies, 0.9),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(base: dict, traced: list[dict]) -> dict:
    summaries = [p["trace"] for p in traced]
    # span times are raw; each pass's calibration applies to all of them
    scales = [_wall(p) / _wall(p, "raw_seconds") for p in traced]

    def med(key, unit="count"):
        return statistics.median(s.get(key, 0) * (f if unit == "s" else 1)
                                 for s, f in zip(summaries, scales))

    traced_wall = statistics.median(_wall(p) for p in traced)
    untraced_wall = _wall(base)
    hits, misses = med("cli.cache_hits"), med("cli.cache_misses")
    derived = {
        "cli.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.usage_errors": statistics.median(p["usage_errors"] for p in traced),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_s": traced_wall - med("trace.root_s", "s"),
    }
    out = {}
    for name, (unit, key) in PER_LAYER.items():
        value = derived[name] if key is None else med(key, unit)
        if unit == "count":
            value = int(value)  # equal in both traced passes, or the run fails
        out[name] = {"value": value, "unit": unit}
    return out


def measure(args, workdir: Path, state: Path) -> tuple[dict, dict]:
    run = Run(args, workdir)
    run.sample_setups()
    record: dict = {"provenance": provenance(args.seed), "workload": args.workload,
                    "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        trace_dir = state / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        base = run.one_pass(args.seed, traced=False)
        traced = [run.one_pass(order, traced=True,
                               spans=trace_dir / f"{args.workload}-seed{args.seed}-order{order}.jsonl")
                  for order in (args.seed, args.seed + 1)]
        passes = [base, *traced]
        deterministic = traced[0]["determinism"] == traced[1]["determinism"]
        metrics = per_layer(base, traced)
        record["determinism"] = traced[0]["determinism"]
        record["trace_summary"] = [p["trace"] for p in traced]
    else:
        passes = run.untraced_passes()
        deterministic = True
        metrics = end_to_end(passes, run.setups)
        record["raw_metrics"] = end_to_end(passes, run.raw_setups, raw="raw_")
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [j for p in passes for j in p["jobs"] if not j["ok"]]
    result = {"correct": not failures and deterministic, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record.update({"deterministic": deterministic, "setup_samples": run.setups,
                   "raw_setup_samples": run.raw_setups,
                   "passes": [{k: v for k, v in p.items()
                               if k not in ("trace", "determinism")} for p in passes],
                   "failures": failures, "result": result})
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes, for the benchmark's own tests")
    ap.add_argument("--break-oracle", default=None, metavar="JOB",
                    help="invert the oracle verdict of one job (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "operadkit" / "__init__.py").is_file():
        print(f"no operadkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "tmp"))
    try:
        result, record = measure(args, workdir, state)
    except BenchError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = state / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print("provenance: " + json.dumps(record["provenance"]))
    for job in record["failures"]:
        print(f"FAILED {job['name']}" + (f"\n{job['error']}" if job["error"] else ""))
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
