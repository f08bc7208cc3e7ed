"""Frontier benchmark: cobar homology and stable-graph censuses past
perfbench's desk scale.

Runs the Lie-dual cobar complex at arity 7 and the associative-dual at
arity 6, and the full stable-graph censuses of (g, n) = (1, 5) and
(2, 2), each cold in a fresh process, and prints what each took.
``--large`` adds the Lie-dual complex at arity 8 and the associative
dual at arity 7, which take about half a minute each and peak at about
1.6 and 1.7 GB, and the full census of (1, 6), 19,340 graphs.
Given ``--label``, it also appends one entry to ``BENCH_frontier.json``
at the repository root; without one it writes nothing, so checking the
pinned values leaves the checkout clean.  A cobar job runs
``CobarComplex.homology()``, the path ``cobar_homology`` takes, and
records the seconds of each stage it runs: the basis, boundary assembly
(``CobarComplex._boundary``, which builds only the rows homology reads;
of it, the cocomposition tables, ``Cooperad.cocompose``, are also
reported on their own), the d.d = 0 check (the skeleton rows
and their products by ``SparseMatrix.matmul``) and rank (``rank``,
under clearing); homology builds, checks and ranks one boundary after
another, so the stages interleave and each is a sum.  It also records
the shape, nnz and rank of each boundary matrix as it is ranked and the
Betti numbers homology returns, all of the complex it ranks: the dual,
graded by edge count.  A census job records its seconds (enumeration,
automorphism groups), the graph count per edge count and the number of
graphs per automorphism-group order.  Ranks, Betti numbers and census
counts are checked against pinned values, so a wrong answer exits 1
instead of being recorded as fast.

    python3 scripts/bench_frontier.py            # check and print only
    python3 scripts/bench_frontier.py --large    # with liec 8 and asc 7
    python3 scripts/bench_frontier.py --label "after: <what changed>"
    python3 scripts/bench_frontier.py --src ../old/src --label before

``--src`` points at the ``src`` directory of the tree to measure
(default: this checkout's), so a before/after pair uses one copy of
this script; on a tree without ``_boundary`` the boundaries stage times
``boundary_matrix``, and on one whose homology does not stream, the
same timers see every boundary built, then every adjacent pair
multiplied in full, then every rank.  Times are raw ``time.perf_counter`` seconds on whatever
machine runs it; the entry records Python version and CPU count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_frontier.json"

# (cooperad, arity) -> rank of d from edge degree e to e + 1, e = 0, 1, ...
# and the Betti numbers by edge degree (the Koszul answer: one class at
# the top degree, of dimension 1 for Lie and n! for the associative dual)
PINNED = {
    ("liec", 7): ([720, 6588, 19844, 24256, 10394],
                  {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1}),
    ("asc", 6): ([720, 9360, 30960, 29520],
                 {0: 0, 1: 0, 2: 0, 3: 0, 4: 720}),
    ("liec", 8): ([5040, 59184, 244476, 460844, 405406, 135134],
                  {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1}),
    ("asc", 7): ([5040, 95760, 509040, 1002960, 660240],
                 {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 5040}),
}

# (g, n) -> graphs per edge count and graphs per |Aut| of the full census
PINNED_GRAPHS = {
    (1, 5): ({0: 1, 1: 27, 2: 171, 3: 470, 4: 610, 5: 297},
             {1: 684, 2: 892}),
    (2, 2): ({0: 1, 1: 4, 2: 13, 3: 24, 4: 23, 5: 10},
             {1: 10, 2: 36, 4: 22, 6: 3, 8: 4}),
    (1, 6): ({0: 1, 1: 58, 2: 634, 3: 2802, 4: 6200, 5: 6780, 6: 2865},
             {1: 8804, 2: 10536}),
}
LARGE = {("liec", 8), ("asc", 7), (1, 6)}  # run only with --large


def run_job(src: str, name: str, n: int) -> dict:
    """One cold cobar homology computation, ``CobarComplex.homology()``
    timed by stage as it runs them: each stage's functions are wrapped
    with a timer, so the path measured is the one ``cobar_homology``
    takes on the tree ``src`` holds."""
    sys.path.insert(0, src)
    from operadkit import cobar, qlinalg

    stages = dict.fromkeys(("boundaries_s", "tables_s", "dd_s", "rank_s"),
                           0.0)
    matrices = []

    def timed(owner, attr, stage, after=None):
        fn = getattr(owner, attr)

        def run(*args):
            t = time.perf_counter()
            out = fn(*args)
            stages[stage] += time.perf_counter() - t
            if after is not None:
                after(args[0], out)
            return out
        setattr(owner, attr, run)

    def ranked(m, r):  # recorded outside the timer
        matrices.append({"edges": f"{len(matrices)}->{len(matrices) + 1}",
                         "rows": m.rows, "cols": m.cols, "nnz": m.nnz(),
                         "rank": r})

    # the builder homology calls: every row whole before this tree's
    # _boundary, which builds only the rows read
    builder = ("_boundary" if hasattr(cobar.CobarComplex, "_boundary")
               else "boundary_matrix")
    timed(cobar.CobarComplex, builder, "boundaries_s")
    timed(cobar.Cooperad, "cocompose", "tables_s")  # within boundaries
    # the d.d = 0 check: the products, and the skeleton rows multiplied
    # (a tree from before streaming multiplies whole boundaries)
    timed(qlinalg.SparseMatrix, "matmul", "dd_s")
    if hasattr(cobar.CobarComplex, "_skeleton_rows"):
        timed(cobar.CobarComplex, "_skeleton_rows", "dd_s")
    timed(qlinalg, "rank", "rank_s", ranked)

    t0 = time.perf_counter()
    coop = {"liec": cobar.liec_cooperad, "asc": cobar.asc_cooperad}[name](n)
    cx = cobar.CobarComplex(coop, n)
    t1 = time.perf_counter()
    betti = cx.homology()  # raises ComplexError unless d.d = 0
    t2 = time.perf_counter()
    stages = {"basis_s": t1 - t0, **stages, "total_s": t2 - t0}
    return {
        "cooperad": name, "arity": n,
        "stages": {k: round(v, 3) for k, v in stages.items()},
        "matrices": matrices,
        "betti": betti,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def run_census(src: str, g: int, n: int) -> dict:
    """One cold census of every stable graph of (g, n), timed by stage."""
    sys.path.insert(0, src)
    from operadkit.treegraph import automorphism_group, enumerate_stable_graphs

    t0 = time.perf_counter()
    graphs = enumerate_stable_graphs(g, n, 3 * g - 3 + n)
    t1 = time.perf_counter()
    orders = [len(automorphism_group(G)) for G in graphs]
    t2 = time.perf_counter()
    edges: dict[int, int] = {}
    auts: dict[int, int] = {}
    for G, k in zip(graphs, orders):
        edges[len(G.edges)] = edges.get(len(G.edges), 0) + 1
        auts[k] = auts.get(k, 0) + 1
    return {
        "census": "stable graphs", "g": g, "n": n,
        "stages": {"enumerate_s": round(t1 - t0, 3),
                   "automorphisms_s": round(t2 - t1, 3),
                   "total_s": round(t2 - t0, 3)},
        "edges": dict(sorted(edges.items())),
        "aut_orders": dict(sorted(auts.items())),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def _git(src: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _commit(src: Path) -> str:
    try:
        head = _git(src, "rev-parse", "HEAD")
        dirty = _git(src, "status", "--porcelain", ".")
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"
    return head + (" with uncommitted changes to src" if dirty else "")


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "operadkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="src directory of the tree to measure")
    ap.add_argument("--label",
                    help="record an entry saying what it measures, e.g. "
                         "'before' or 'after'; without it nothing is written")
    ap.add_argument("--large", action="store_true",
                    help="also run liec 8 and asc 7 (minutes and GBs each) "
                         "and the (1, 6) census")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    ctx = multiprocessing.get_context("spawn")
    jobs, ok = [], True

    def cold(fn, *args):  # a fresh process: every job runs cold
        with ctx.Pool(1) as pool:
            return pool.apply(fn, (str(src), *args))

    for name, n in PINNED:
        if (name, n) in LARGE and not args.large:
            continue
        job = cold(run_job, name, n)
        want_ranks, want_betti = PINNED[(name, n)]
        got = [m["rank"] for m in job["matrices"]]
        job["oracle_ok"] = got == want_ranks and job["betti"] == want_betti
        ok &= job["oracle_ok"]
        jobs.append(job)
        s = job["stages"]
        print(f"{name} {n}: basis {s['basis_s']} s, boundaries "
              f"{s['boundaries_s']} s (tables {s['tables_s']} s), d.d "
              f"{s['dd_s']} s, rank "
              f"{s['rank_s']} s, total {s['total_s']} s, "
              f"peak RSS {job['peak_rss_mb']} MB, "
              f"ranks {got} {'ok' if job['oracle_ok'] else 'WRONG'}")
    for (g, n), (want_edges, want_auts) in PINNED_GRAPHS.items():
        if (g, n) in LARGE and not args.large:
            continue
        job = cold(run_census, g, n)
        job["oracle_ok"] = (job["edges"] == want_edges
                            and job["aut_orders"] == want_auts)
        ok &= job["oracle_ok"]
        jobs.append(job)
        s = job["stages"]
        print(f"graphs ({g}, {n}): enumerate {s['enumerate_s']} s, "
              f"automorphisms {s['automorphisms_s']} s, "
              f"peak RSS {job['peak_rss_mb']} MB, "
              f"{sum(job['edges'].values())} graphs "
              f"{'ok' if job['oracle_ok'] else 'WRONG'}")
    if args.label is None:
        return 0 if ok else 1
    entry = {
        "label": args.label,
        "commit": _commit(src),
        "src_sha256": _source_digest(src),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": jobs,
    }
    doc = (json.loads(OUT.read_text()) if OUT.exists()
           else {"about": "scripts/bench_frontier.py; times in raw seconds",
                 "entries": []})
    doc["entries"].append(entry)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
