"""Command-line front end.

Every computation in the library is reachable here; outputs are JSON
(canonical machine format), aligned text, or CSV for the page tables.
Expensive homology runs are cached content-addressed under the cache
directory (override with OPERADKIT_CACHE_DIR, disable with --no-cache);
the key holds a digest of the package's source, so an answer cached by
other code is a miss, and a cache that cannot be written gives a warning.
Exit codes: 0 on success, 1 when a verification fails, 2 on bad input.

The commands are one table, ``main.commands``.  A run builds the parser
of the one command it invokes, whose ``Command.parse`` refuses every bad
number, broken rule and unreadable file before any library import, so
command bodies only call and print.  Bad input leaves by one door:
``Main.main`` reports every ``operadkit.InputError`` (the base of each
library module's error class and of ``UsageError``) as ``Error:
<message>`` and exits 2.  Modules only some commands need (``hashlib``
for the cache key, the library itself) are imported where used, as
start-up is most of a short command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from . import InputError, __version__

CACHE_ENV = "OPERADKIT_CACHE_DIR"


class UsageError(InputError):
    """Bad command-line input: reported as ``Error: <message>``, exit 2."""


@lru_cache(maxsize=None)
def _source_fingerprint() -> str:
    """sha256 of the package's *.py files, names and bytes in name order."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_lookup(op: str, params: dict) -> tuple[Path, str | None]:
    import hashlib
    key = json.dumps({"op": op, "params": params, "version": __version__,
                      "source": _source_fingerprint()}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()
    root = os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "operadkit"
    path = Path(root) / f"{digest}.json"
    try:
        return path, path.read_text()
    except (OSError, UnicodeDecodeError):  # missing or unreadable: a miss
        return path, None


def _cache_store(path: Path, text: str) -> None:
    """Write through a temp file of this process's own, so a concurrent
    writer never moves a partly written entry into place."""
    import tempfile
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def _cached_betti(text: str | None, name: str, arity: int) -> dict | None:
    """The cached cobar-homology payload for (name, arity), or None when
    the entry is missing or is not a well-formed answer to it."""
    if text is None:
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not (isinstance(payload, dict)
            and set(payload) == {"cooperad", "arity", "betti", "total"}
            and isinstance(payload["betti"], dict)):
        return None
    betti = payload["betti"]
    counts = [*betti.values(), payload["arity"], payload["total"]]
    ok = (payload["cooperad"] == name and payload["arity"] == arity
          # one Betti number per edge count 0..arity-2
          and set(betti) == {str(e) for e in range(arity - 1)}
          and all(type(x) is int and x >= 0 for x in counts)
          and payload["total"] == sum(betti.values()))
    return payload if ok else None


def _operad_by_name(name: str, max_arity: int):
    if name == "cobar-liec":
        from .cobar import liec_cooperad, cobar_operad
        return cobar_operad(liec_cooperad(max_arity), max_arity)
    from .operads import comm_operad, assoc_operad, lie_operad
    table = {"comm": comm_operad, "assoc": assoc_operad, "lie": lie_operad}
    return table[name](max_arity)


def _cooperad_by_name(name: str, max_arity: int):
    from .cobar import liec_cooperad, asc_cooperad, commc_cooperad
    table = {"liec": liec_cooperad, "asc": asc_cooperad,
             "commc": commc_cooperad}
    return table[name](max_arity)


def trees(n, edges, count, fmt):
    """Enumerate leaf-labeled rooted trees."""
    from .treegraph import enumerate_trees, enumerate_trees_all, encode_tree
    if edges is None:
        groups = enumerate_trees_all(n)
        items = [t for e in sorted(groups) for t in groups[e]]
    else:
        items = enumerate_trees(n, edges)
    if count:
        print(len(items))
        return
    if fmt == "json":
        print(json.dumps(
            {"n": n, "edges": edges, "count": len(items),
             "trees": [encode_tree(t) for t in items]}, indent=1))
    else:
        sys.stdout.write("".join(encode_tree(t) + "\n" for t in items))


def graphs(g, n, max_edges, count, fmt):
    """Enumerate stable graphs of genus g with n legs."""
    from .treegraph import (enumerate_stable_graphs, automorphism_group,
                            encode_graph)
    if max_edges is None:
        max_edges = 3 * g - 3 + n
    items = enumerate_stable_graphs(g, n, max_edges)
    if count:
        print(len(items))
        return
    rows = [(encode_graph(G), len(G.edges), len(automorphism_group(G)))
            for G in items]
    if fmt == "json":
        print(json.dumps(
            {"g": g, "n": n, "count": len(rows),
             "graphs": [{"graph": enc, "edges": e, "aut_order": a}
                        for enc, e, a in rows]}, indent=1))
    else:
        for enc, e, a in rows:
            print(f"{enc}  edges={e} aut={a}")


def axioms(name, max_arity):
    """Verify the operad axioms; exit 1 on any violation."""
    from .operads import check_axioms
    O = _operad_by_name(name, max_arity)
    report = check_axioms(O, max_arity)
    print(f"checked {report.checked} instances up to arity {max_arity}")
    if report.ok:
        print("all axioms hold")
        return
    for v in report.violations[:10]:
        print(v)
    print(f"{len(report.violations)} violations")
    sys.exit(1)


def free_dims(name, d, max_arity):
    """Multilinear-part dimensions of the free algebra on d generators."""
    from .operads import free_algebra_dims
    O = _operad_by_name(name, max_arity)
    dims = free_algebra_dims(O, d, max_arity)
    print(",".join(str(x) for x in dims))


def cobar(name, arity, fmt):
    """Dimensions of the cobar complex by internal edge count."""
    from .cobar import cobar_dims
    dims = cobar_dims(_cooperad_by_name(name, arity), arity)
    if fmt == "json":
        print(json.dumps({"cooperad": name, "arity": arity,
                          "dims": {str(e): d for e, d in dims.items()}},
                         indent=1))
    else:
        for e in sorted(dims):
            print(f"e={e}: {dims[e]}")


def cobar_homology_cmd(name, arity, no_cache, fmt):
    """Betti numbers of the cobar complex (cached)."""
    params = {"cooperad": name, "arity": arity}
    path, cached = (None, None)
    if not no_cache:
        path, cached = _cache_lookup("cobar-homology", params)
    payload = _cached_betti(cached, name, arity)
    if payload is None:
        from .cobar import cobar_homology
        betti = cobar_homology(_cooperad_by_name(name, arity), arity)
        payload = {"cooperad": name, "arity": arity,
                   "betti": {str(e): b for e, b in betti.items()},
                   "total": sum(betti.values())}
        if path is not None:
            try:
                _cache_store(path, json.dumps(payload, sort_keys=True))
            except OSError as ex:  # the answer stands; only caching failed
                print(f"warning: result not cached: {ex}", file=sys.stderr)
    if fmt == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for e in sorted(payload["betti"], key=int):
            print(f"e={e}: {payload['betti'][e]}")
        print(f"total: {payload['total']}")


def e1(g, n, betti_csv, aut_mode, fmt):
    """First-page dimension table of the stratification sequence."""
    from .strata import BettiTable, e1_table
    betti = (BettiTable() if betti_csv is None
             else BettiTable.from_csv(betti_csv))
    sys.stdout.write(e1_table(g, n, betti, aut_mode=aut_mode).render(fmt))


def betti_predict(n, fmt):
    """Predicted even Betti numbers of the genus-0 compactification."""
    from .strata import predict_compactified_betti, StrataError
    try:
        pred = predict_compactified_betti(n)
    except StrataError as ex:
        print(ex, file=sys.stderr)
        sys.exit(1)
    if fmt == "json":
        print(json.dumps({"n": n, "even_betti": list(pred)}))
    else:
        print(",".join(str(h) for h in pred))


def middle_row_cmd(arity, fmt):
    """Compare the q=0 strata row with the cobar dimensions.

    Exit 1 on mismatch."""
    from .strata import middle_row
    rep = middle_row(arity)
    if fmt == "json":
        print(json.dumps({
            "arity": arity,
            "e1_row": {str(p): d for p, d in sorted(rep.e1_dims.items())},
            "cobar": {str(p): d for p, d in sorted(rep.cobar_dims.items())},
            "equal": rep.equal}, indent=1))
    else:
        ps = sorted(set(rep.e1_dims) | set(rep.cobar_dims), reverse=True)
        print("p:     " + " ".join(f"{p:>6}" for p in ps))
        print("e1:    " + " ".join(f"{rep.e1_dims.get(p, 0):>6}" for p in ps))
        print("cobar: " + " ".join(f"{rep.cobar_dims.get(p, 0):>6}" for p in ps))
        print("equal" if rep.equal else "MISMATCH")
    if not rep.equal:
        sys.exit(1)


def dual_e1(g, n, fmt):
    """Dual (logarithmic) first page of the stratification sequence.

    Exit 1 if the column Euler check against the open Betti numbers
    fails."""
    from .strata import dual_e1_table, dual_euler_check
    table = dual_e1_table(g, n)
    sys.stdout.write(table.render(fmt))
    if not dual_euler_check(table, n):
        print("Euler-characteristic consistency FAILED", file=sys.stderr)
        sys.exit(1)


def check_ainf_cmd(family_json, max_arity):
    """Check the homotopy-associativity relations of a map family."""
    from .hoalg import check_ainf, map_family_from_json
    residuals = check_ainf(map_family_from_json(family_json), max_arity)
    if not residuals:
        print("all relations hold")
        return
    for r in residuals[:10]:
        print(r)
    print(f"{len(residuals)} failing instances")
    sys.exit(1)


def check_cinf_cmd(family_json, max_arity):
    """Check homotopy associativity plus shuffle vanishing."""
    from .hoalg import check_cinf, map_family_from_json
    report = check_cinf(map_family_from_json(family_json), max_arity)
    if report.ok:
        print("all relations and shuffle vanishing hold")
        return
    print(f"{len(report.ainf_residuals)} relation failures, "
          f"{len(report.shuffle_violations)} shuffle violations")
    sys.exit(1)


def _filtered_fixture(fixture, fixture_json, max_arity):
    """The filtered operad to page; one read from a file may hold no
    arity above max_arity and must pass ``FilteredOperad.validate``."""
    from .filtration import (filtered_operad_from_json, degree_filtration,
                             moduli_chain_standin)
    if fixture_json is not None:
        F = filtered_operad_from_json(fixture_json)
        top = max(F.arities(), default=0)
        if top > max_arity:
            raise UsageError(f"the document has an arity-{top} component, "
                             f"above --max-arity {max_arity}")
        F.validate()
        return F
    if fixture == "end":
        from .operads import GradedSpace, EndOperad
        from .qlinalg import SparseMatrix
        V = GradedSpace(("e0", "e1"), (0, 1))
        q = SparseMatrix.from_dict(2, 2, {(0, 1): 1})
        return degree_filtration(EndOperad(V, max_arity, q=q))
    return moduli_chain_standin(max_arity)


def er(r, fixture, fixture_json, max_arity, fmt):
    """Dimensions of a spectral-sequence page per arity and bigrade."""
    from .filtration import er_term
    F = _filtered_fixture(fixture, fixture_json, max_arity)
    term = er_term(F, r)
    data = {n: {f"{p},{q}": d for (p, q), d in sorted(term.dims(n).items())}
            for n in F.arities()}
    if fmt == "json":
        print(json.dumps({"r": r, "dims": data}, indent=1))
    else:
        for n, dims in data.items():
            print(f"arity {n}: " + (", ".join(
                f"E[{pq}]={d}" for pq, d in dims.items()) or "0"))


def dk(r, k, fixture, fixture_json, max_arity, fmt):
    """Bigraded suboperad slice of a page, with closure certificate."""
    from .filtration import er_term, suboperad_dk
    F = _filtered_fixture(fixture, fixture_json, max_arity)
    slices = suboperad_dk(er_term(F, r), k)
    data = {n: {f"{p},{q}": d for (p, q), d in sorted(sel.items())}
            for n, sel in slices.slices.items()}
    if fmt == "json":
        print(json.dumps({"r": r, "k": k, "slices": data,
                          "certificate": slices.certificate}, indent=1))
    else:
        for n, sel in data.items():
            print(f"arity {n}: " + (", ".join(
                f"D[{pq}]={d}" for pq, d in sel.items()) or "0"))
        print("closure certificate: "
                   + ("ok" if slices.certificate else "FAILED"))
    if not slices.certificate:
        for kind, n, m, i, pq, pq2 in slices.witnesses[:10]:
            print(f"{kind} of bigrade {pq} o_{i} {pq2} at arities "
                  f"({n},{m}) leaves its target span", file=sys.stderr)
        print(f"{len(slices.witnesses)} closure failures", file=sys.stderr)
        sys.exit(1)


def pipeline_cinf(max_arity, dim):
    """End-to-end C-infinity pipeline on the moduli stand-in.

    Stand-in operad, commutative toy algebra, induced operations,
    homotopy checks.  Exit 1 if any verification fails."""
    from .hoalg import truncated_polynomial_family
    from .filtration import (moduli_chain_standin, commutative_toy_algebra,
                             induce_cinf)
    F = moduli_chain_standin(max_arity)
    poly = truncated_polynomial_family(dim)
    A = commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
    # the stand-in's levels are its degrees, so the filtration predicate
    # holds and induce_cinf does not raise on it
    result = induce_cinf(F, A, max_arity)
    report = result.report
    print(f"filtration predicate: {'ok' if report.filtration_ok else 'FAILED'}")
    print(f"operad morphism:      {'ok' if report.morphism_ok else 'FAILED'}")
    print(f"induced operations at arities: {sorted(result.family.maps)}")
    cinf = result.cinf_report
    print(f"relation residuals:   {len(cinf.ainf_residuals)}")
    print(f"shuffle violations:   {len(cinf.shuffle_violations)}")
    if not result.ok:
        sys.exit(1)
    print("pipeline verified")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _input_text(path: str) -> str:
    """The ``type`` of every input-file argument: the file's UTF-8 text.
    A path that cannot be read so is a usage error naming the argument."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        message = f"Path {path!r} does not exist."
    except OSError as ex:
        message = f"cannot read {path!r}: {ex.strerror or ex}"
    except UnicodeDecodeError:
        message = f"{path!r} is not UTF-8 text"
    raise argparse.ArgumentTypeError(message)


# a test on the parsed values, and the usage error raised when it fails
Rule = namedtuple("Rule", "message test")


class Command:
    """One subcommand: its callback, the callback's docstring, and table
    entries.  An option is a flag (or a positional's name) with the
    keywords of ``ArgumentParser.add_argument``; ``dest`` names the
    callback's parameter where the flag does not.  An integer option's
    ``bounds`` is (lo, hi), hi None for no cap, or a function of the
    values parsed so far that returns one; a ``Rule`` follows the options
    it reads.  Everything is exact arithmetic, so ranges are the runtime
    guard: ``parse`` checks bounds and rules in table order after argparse
    and before any library import, so that a usage error costs no
    import.  An optional option left unset is not checked."""

    def __init__(self, callback, *entries):
        self.callback = callback
        self.doc = callback.__doc__
        self.entries = entries

    def parse(self, prog: str, args: list[str]) -> dict:
        """The callback's keyword arguments for args; --help prints this
        command's help and exits 0."""
        known = {"--help", *(e[0] for e in self.entries
                             if not isinstance(e, Rule))}
        for arg in args:  # an unknown option is named before a missing one
            if arg == "--":
                break
            flag = arg.partition("=")[0]
            if flag.startswith("--") and flag not in known:
                raise UsageError(f"No such option '{flag}'.")
        parser = _Parser(prog=prog, description=self.doc, add_help=False,
                         allow_abbrev=False)
        parser.add_argument("--help", action="help",
                            help="show this message and exit")
        checks = []  # bounds and rules, in table order
        for entry in self.entries:
            if isinstance(entry, Rule):
                checks.append(entry)
                continue
            flag, kwargs = entry
            kwargs = dict(kwargs)
            bounds = kwargs.pop("bounds", None)
            if kwargs.get("default") is not None:
                kwargs["help"] = (kwargs.get("help", "")
                                  + " (default: %(default)s)")
            dest = parser.add_argument(flag, **kwargs).dest
            if bounds is not None:
                checks.append((flag, dest, bounds))
        values = vars(parser.parse_args(args))
        for check in checks:
            if isinstance(check, Rule):
                if not check.test(values):
                    raise UsageError(check.message)
                continue
            flag, dest, bounds = check
            value = values[dest]
            if value is None:
                continue
            lo, hi = bounds(values) if callable(bounds) else bounds
            if value < lo or hi is not None and value > hi:
                span = (f"at least {lo}" if hi is None
                        else f"between {lo} and {hi}")
                raise UsageError(f"{flag} must be {span} (got {value})")
        return values


class Main:
    """The ``operadkit`` entry point.  ``commands`` maps each command name
    to its Command; ``main`` runs one command line."""

    summary = "Exact-arithmetic operad, cobar and moduli-strata computations."

    def __init__(self, commands: dict[str, Command]):
        self.commands = commands

    def __call__(self, args: list[str] | None = None) -> int:
        """Run one command line and return its exit code."""
        try:
            self.main(args)
        except SystemExit as ex:
            return ex.code

    def main(self, args: list[str] | None = None,
             prog_name: str | None = None):
        """Run one command line (default ``sys.argv[1:]``) and exit with
        its code: bad input (an ``InputError``) prints ``Error: <message>``
        on stderr and exits 2, and a reader that closes the pipe early
        exits 1."""
        args = sys.argv[1:] if args is None else list(args)
        try:
            try:
                self._run(args, prog_name or "operadkit")
            finally:
                sys.stdout.flush()
        except InputError as ex:
            print(f"Error: {ex}", file=sys.stderr)
            sys.exit(2)
        except BrokenPipeError:
            # send what is still buffered nowhere, so exiting cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        sys.exit(0)

    def _run(self, args: list[str], prog: str) -> None:
        if not args:
            raise UsageError(f"missing command (see '{prog} --help')")
        name, rest = args[0], args[1:]
        if name == "--version":
            print(f"{prog}, version {__version__}")
        elif name == "--help":
            width = max(map(len, self.commands))
            print(f"usage: {prog} [--version] [--help] COMMAND [ARGS]...\n\n"
                  f"{self.summary}\n\ncommands:")
            for key, command in self.commands.items():
                print(f"  {key:<{width}}  {command.doc.splitlines()[0]}")
            print(f"\nRun '{prog} COMMAND --help' for a command's options.")
        elif name.startswith("-"):
            raise UsageError(f"No such option '{name}'.")
        elif name not in self.commands:
            raise UsageError(f"No such command '{name}'.")
        else:
            command = self.commands[name]
            command.callback(**command.parse(f"{prog} {name}", rest))


def _int(flag, default=None, **kwargs):
    return flag, {"type": int, "default": default, **kwargs}


def _choice(flag, choices, **kwargs):
    return flag, {"choices": choices, **kwargs}


FORMAT = _choice("--format", ("json", "text"), dest="fmt", default="text")
TABLE_FORMAT = _choice("--format", ("json", "csv", "text"), dest="fmt",
                       default="text")
FAMILY_FILE = ("family_json", {"metavar": "FAMILY_FILE", "type": _input_text})
FIXTURE_FILE = ("--file", {"dest": "fixture_json", "type": _input_text,
                           "help": "filtered operad JSON"})
# arities with no operation walk nothing, so there is no cap above
RELATION_ARITY = _int("--max-arity", bounds=(2, None))
COOPERAD = _choice("--cooperad", ("liec", "asc", "commc"), dest="name",
                   required=True)

main = Main({
    "trees": Command(
        trees,
        _int("--n", required=True, bounds=(2, 8), help="number of leaves"),
        _int("--edges", bounds=lambda v: (0, v["n"] - 2),
             help="internal edge count"),
        ("--count", {"action": "store_true", "help": "print the count only"}),
        FORMAT),
    "graphs": Command(
        graphs,
        _int("--g", required=True, bounds=(0, 2)),
        _int("--n", required=True, bounds=(0, 6)),
        Rule("graph censuses are desk scale: need 3g - 3 + n <= 3",
             lambda v: 3 * v["g"] - 3 + v["n"] <= 3),
        # an unstable (g, n) is left to the library's error
        _int("--max-edges",
             bounds=lambda v: (0, max(0, 3 * v["g"] - 3 + v["n"]))),
        ("--count", {"action": "store_true"}),
        FORMAT),
    "axioms": Command(
        axioms,
        _choice("--operad", ("comm", "assoc", "lie", "cobar-liec"),
                dest="name", required=True),
        _int("--max-arity", 4,
             bounds=lambda v: (1, 4 if v["name"] == "cobar-liec" else 6))),
    "free-dims": Command(
        free_dims,
        _choice("--operad", ("comm", "assoc", "lie"), dest="name",
                required=True),
        _int("--d", required=True, bounds=(0, 6), help="generator dimension"),
        _int("--max-arity", 6, bounds=(1, 8))),
    "cobar": Command(
        cobar,
        COOPERAD,
        _int("--arity", required=True,
             bounds=lambda v: (2, 5 if v["name"] == "asc" else 7)),
        FORMAT),
    "cobar-homology": Command(
        cobar_homology_cmd,
        COOPERAD,
        _int("--arity", required=True,
             bounds=lambda v: (2, 5 if v["name"] == "asc" else 6)),
        ("--no-cache", {"action": "store_true"}),
        FORMAT),
    "e1": Command(
        e1,
        _int("--g", 0, bounds=(0, 2)),
        _int("--n", required=True, bounds=(1, 12)),
        Rule("need 3g - 3 + n <= 5 at genus >= 1",
             lambda v: v["g"] == 0 or 3 * v["g"] - 3 + v["n"] <= 5),
        ("--betti", {"dest": "betti_csv", "type": _input_text,
                     "help": "CSV of open Betti numbers (g,n,k,dim)"}),
        _choice("--aut-mode", ("degree0", "ignore"), default="degree0"),
        TABLE_FORMAT),
    "betti-predict": Command(
        betti_predict,
        _int("--n", required=True, bounds=(3, 12)),
        FORMAT),
    "middle-row": Command(
        middle_row_cmd,
        _int("--arity", required=True, bounds=(2, 7)),
        FORMAT),
    "dual-e1": Command(
        dual_e1,
        _int("--g", 0, bounds=(0, 0)),
        _int("--n", required=True, bounds=(3, 12)),
        TABLE_FORMAT),
    "check-ainf": Command(check_ainf_cmd, FAMILY_FILE, RELATION_ARITY),
    "check-cinf": Command(check_cinf_cmd, FAMILY_FILE, RELATION_ARITY),
    "er": Command(
        er,
        _int("--r", required=True, bounds=(0, 20), help="page index"),
        _choice("--fixture", ("end", "standin"), default="end"),
        FIXTURE_FILE,
        _int("--max-arity", 3, bounds=(1, 4)),
        FORMAT),
    "dk": Command(
        dk,
        _int("--r", required=True, bounds=(0, 20)),
        _int("--k", required=True, bounds=(-20, 20)),
        _choice("--fixture", ("end", "standin"), default="standin"),
        FIXTURE_FILE,
        _int("--max-arity", 3, bounds=(1, 4)),
        FORMAT),
    "pipeline-cinf": Command(
        pipeline_cinf,
        _int("--dim", 3, bounds=(1, 4),
             help="dimension of the truncated polynomial algebra"),
        _int("--max-arity", 4, bounds=(2, 6))),
})


if __name__ == "__main__":
    sys.exit(main())
