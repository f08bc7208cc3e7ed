"""Spans and counts around operadkit's layers, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper, both in
its defining module and in every operadkit module that imported it by
name (``cobar`` holds its own ``enumerate_trees`` and ``span_rank``).
Methods are patched on their class.  No file of the package changes.

A span is ``[name, start, end, parent, job]``; spans stay in memory and
are written out when the pass ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.  Hot constructors
and per-element methods get counts, not spans.  Hot helpers such as
``perm_compose`` or ``koszul_sign`` are not wrapped at all: their time
stays in the self time of the layer that calls them.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from importlib import import_module
from time import perf_counter

MODULES = ("qlinalg", "treegraph", "operads", "cobar", "hoalg", "strata",
           "filtration", "cli")

# (module, attribute or Class.method, span name)
SPANS = (
    ("qlinalg", "rank", "qlinalg.rank"),
    ("qlinalg", "rref", "qlinalg.rref"),
    ("qlinalg", "nullspace", "qlinalg.nullspace"),
    ("qlinalg", "solve_in_span", "qlinalg.solve_in_span"),
    ("qlinalg", "span_rank", "qlinalg.span_rank"),
    ("qlinalg", "SparseMatrix.matmul", "qlinalg.matmul"),
    ("qlinalg", "ChainComplex.__init__", "qlinalg.chain_check"),
    ("qlinalg", "ChainComplex.homology", "qlinalg.homology"),
    ("treegraph", "enumerate_trees", "treegraph.enumerate_trees"),
    ("treegraph", "enumerate_trees_all", "treegraph.enumerate_trees_all"),
    ("treegraph", "enumerate_stable_graphs", "treegraph.enumerate_stable_graphs"),
    ("treegraph", "automorphism_group", "treegraph.automorphism_group"),
    ("operads", "check_axioms", "operads.check_axioms"),
    ("operads", "free_algebra_dims", "operads.free_algebra_dims"),
    ("operads", "TableOperad.from_operad", "operads.TableOperad.from_operad"),
    ("cobar", "CobarComplex.__init__", "cobar.basis"),
    ("cobar", "CobarComplex.boundary_from", "cobar.boundary_from"),
    ("cobar", "CobarComplex.chain_complex", "cobar.chain_complex"),
    ("cobar", "CobarOperad.__init__", "cobar.CobarOperad.build"),
    ("cobar", "cobar_homology", "cobar.cobar_homology"),
    ("hoalg", "check_ainf", "hoalg.check_ainf"),
    ("hoalg", "check_cinf", "hoalg.check_cinf"),
    ("hoalg", "shuffle_defects", "hoalg.shuffle_defects"),
    ("filtration", "er_term", "filtration.er_term"),
    ("filtration", "er_closure_certificate", "filtration.er_closure_certificate"),
    ("filtration", "suboperad_dk", "filtration.suboperad_dk"),
    ("filtration", "check_filtered_algebra", "filtration.check_filtered_algebra"),
    ("filtration", "induce_cinf", "filtration.induce_cinf"),
    ("strata", "e1_table", "strata.e1_table"),
    ("strata", "predict_compactified_betti", "strata.predict_compactified_betti"),
    ("strata", "dual_e1_table", "strata.dual_e1_table"),
    ("strata", "verify_vanishing", "strata.verify_vanishing"),
    ("strata", "middle_row", "strata.middle_row"),
)

# Counts that must repeat exactly across runs and seeds.
DETERMINISTIC = ("qlinalg.rank.calls", "qlinalg.rank.rows_in",
                 "qlinalg.rank.nnz_in", "qlinalg.rank.rank_out",
                 "cobar.basis_dim", "treegraph.Tree.constructed",
                 "strata.predict_compactified_betti.calls")


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.job_counts: dict[str, dict] = {}
        self.rank_matrices: dict[str, list] = {}
        self.basis_dims: dict[str, list] = {}
        self.predict_args: set = set()
        self._job_name = None
        self._job_start: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def begin_job(self, index: int, name: str) -> None:
        self.job, self._job_name = index, name
        self._job_start = Counter(self.counts)

    def end_job(self) -> None:
        delta = Counter(self.counts)
        delta.subtract(self._job_start)
        self.job_counts[self._job_name] = {k: delta[k] for k in DETERMINISTIC}
        self.job = -1

    # -- hooks that turn results into counts ---------------------------------

    def _after_rank(self, args, result):
        m = args[0]
        nnz = m.nnz()
        c = self.counts
        c["qlinalg.rank.calls"] += 1
        c["qlinalg.rank.rows_in"] += m.rows
        c["qlinalg.rank.nnz_in"] += nnz
        c["qlinalg.rank.rank_out"] += result
        c["qlinalg.rank.max_nnz_in"] = max(c["qlinalg.rank.max_nnz_in"], nnz)
        self._job_list(self.rank_matrices).append((m.rows, m.cols, nnz, result))

    def _after_basis(self, args, result):
        dims = tuple(args[0].dims().values())
        self.counts["cobar.basis_dim"] += sum(dims)
        self._job_list(self.basis_dims).append((args[0].n, dims))

    def _job_list(self, table):
        return table.setdefault(self._job_name, [])

    def _after_predict(self, args, result):
        self.counts["strata.predict_compactified_betti.calls"] += 1
        self.predict_args.add(repr(args))

    def _adder(self, key, measure):
        counts = self.counts

        def after(args, result):
            counts[key] += measure(result)
        return after

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: import_module(f"operadkit.{name}") for name in MODULES}
        hooks = {
            "qlinalg.rank": self._after_rank,
            "cobar.basis": self._after_basis,
            "strata.predict_compactified_betti": self._after_predict,
            "treegraph.enumerate_trees": self._adder(
                "treegraph.enumerate_trees.trees_out", len),
            "cobar.boundary_from": self._adder("cobar.boundary_from.entries_out", len),
            "operads.check_axioms": self._adder(
                "operads.check_axioms.instances", lambda r: r.checked),
        }
        for module, path, name in SPANS:
            owner, attr = _resolve(mods[module], path)
            orig = getattr(owner, attr)
            self._replace(owner, attr, orig, self._span(name, orig, hooks.get(name)))
        tree = mods["treegraph"].Tree
        tree.__init__ = self._counted("treegraph.Tree.constructed", tree.__init__)
        for module in ("operads", "cobar", "filtration"):
            for obj in vars(mods[module]).values():
                if isinstance(obj, type) and "compose_basis" in vars(obj):
                    obj.compose_basis = self._counted(
                        "operads.compose_basis.calls", obj.compose_basis)

        cli = mods["cli"]
        lookup = cli._cache_lookup

        def cache_lookup(*args, **kwargs):
            path, text = lookup(*args, **kwargs)
            self.counts["cli.cache_hits" if text is not None else "cli.cache_misses"] += 1
            return path, text
        cli._cache_lookup = cache_lookup

    @staticmethod
    def _replace(owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if name.startswith("operadkit") and getattr(module, attr, None) is orig:
                setattr(module, attr, new)

    def wrap_cli(self, group):
        """Span the click group (parsing and dispatch) and each command
        body under it."""
        for command in group.commands.values():
            command.callback = self._span("cli.command", command.callback)
        return self._span("cli.main", group.main)

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "job_counts": self.job_counts,
                "rank_matrices": self.rank_matrices,
                "basis_dims": self.basis_dims,
                "predict_args": sorted(self.predict_args)}

    def absorb(self, dump: dict, job: int, name: str) -> None:
        """Merge the dump of a traced command process as one job."""
        base = len(self.spans)
        for sname, start, end, parent, _ in dump["spans"]:
            self.spans.append([sname, start, end,
                               parent + base if parent >= 0 else -1, job])
        for key, value in dump["counts"].items():
            if key == "qlinalg.rank.max_nnz_in":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.job_counts[name] = {k: dump["counts"].get(k, 0) for k in DETERMINISTIC}
        for table, key in ((self.rank_matrices, "rank_matrices"),
                           (self.basis_dims, "basis_dims")):
            table[name] = [tuple(x) for rows in dump[key].values() for x in rows]
        self.predict_args.update(dump["predict_args"])

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, plus the counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {"trace.root_s": 0.0}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent < 0:
                out["trace.root_s"] += end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + end - start
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + end - start - child[i]
        out.update(self.counts)
        out["strata.predict_compactified_betti.distinct_args"] = len(self.predict_args)
        out["trace.spans"] = len(spans)
        return out

    def determinism(self) -> list:
        """The exact per-job counts, as a sorted multiset so that passes in
        different orders compare equal.  Repeats of one command ("argv #k")
        count as the same job: which repeat misses the cache depends on
        the order."""
        records = []
        for name, counts in self.job_counts.items():
            records.append([name.split(" #")[0], [counts[k] for k in DETERMINISTIC],
                            [list(x) for x in self.rank_matrices.get(name, [])],
                            [[n, list(d)] for n, d in self.basis_dims.get(name, [])]])
        return sorted(records)
