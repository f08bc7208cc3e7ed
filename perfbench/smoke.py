"""The benchmark's own tests, at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of an operadkit checkout; exits 0 when every check
passes.  It checks that

1. every run prints a result line whose metrics are exactly the ones
   BENCHMARK.json names, each with its unit, traced and untraced;
2. a deliberately wrong oracle is counted as a failure;
3. the same seed gives the same job order and command sequence;
4. a different seed gives the same job multiset in another order;
5. without the package sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
         "--seconds", "1", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)
    return proc.returncode, proc.stdout


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def check_metrics() -> list[str]:
    problems = []
    for workload in jobs.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench("--workload", workload, "--trace", str(trace),
                              "--scale", "smoke")
            if code != 0:
                problems.append(f"{workload} trace {trace}: exit {code}")
                continue
            result = last_json(out)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a value is not a number")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: not correct: {out[-2000:]}")
    return problems


def check_wrong_oracle() -> list[str]:
    problems = []
    for workload, job in (("algebra-checks", "check_ainf polynomial 3"),
                          ("cli-session", "betti-predict --n 4")):
        code, out = bench("--workload", workload, "--trace", "0", "--scale", "smoke",
                          "--break-oracle", job)
        result = last_json(out) if code == 0 else {}
        if result.get("correct") is not False or not result.get("failed"):
            problems.append(f"{workload}: a wrong oracle for {job!r} was not "
                            f"counted as a failure ({result})")
    return problems


def _names(workload: str, seed: int) -> list[str]:
    runner = (lambda argv: (0, "")) if workload == "cli-session" else None
    return [j.name for j in jobs.order(jobs.build(workload, "smoke", runner), seed)]


def check_order() -> list[str]:
    problems = []
    argv = {name: cmd for name, cmd, _ in jobs.cli_commands("smoke")}
    for workload in jobs.WORKLOADS:
        first, again, other = _names(workload, 1), _names(workload, 1), _names(workload, 2)
        if first != again:
            problems.append(f"{workload}: the same seed gave another order")
        if sorted(first) != sorted(other):
            problems.append(f"{workload}: another seed gave another job multiset")
        if first == other:
            problems.append(f"{workload}: seeds 1 and 2 gave the same order")
    first = [argv[n] for n in _names("cli-session", 3)]
    if first != [argv[n] for n in _names("cli-session", 3)]:
        problems.append("cli-session: the same seed gave another command sequence")
    return problems


def check_no_sources() -> list[str]:
    (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench" / "tmp"))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = bench("--workload", "cobar-homology", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or out.strip():
        return [f"without sources: exit {code}, output {out[-200:]!r}"]
    return []


def main() -> int:
    failed = False
    for check in (check_order, check_wrong_oracle, check_no_sources, check_metrics):
        problems = check()
        print(f"{check.__name__}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print("  " + p)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
