"""Command-line front end.

Every computation in the library is reachable here; outputs are JSON
(canonical machine format), aligned text, or CSV for the page tables.
Expensive homology runs are cached content-addressed under the cache
directory (override with OPERADKIT_CACHE_DIR, disable with --no-cache);
the key holds a digest of the package's source, so an answer cached by
other code is a miss, and a cache that cannot be written gives a warning.
Exit codes: 0 on success, 1 when a verification fails, 2 on bad input.

The commands are one table, ``main.commands``, which holds each
command's options, ranges and help text.  A run builds the parser of
the one command it invokes, whose ``Command.parse`` refuses every bad
number, broken rule and unreadable file before any library import, so
command bodies only call and print.  Bad input leaves by one door:
``Main.main`` reports every ``operadkit.InputError`` (the base of each
library module's error class and of ``UsageError``) as ``Error:
<message>`` and exits 2.  Start-up is most of a short command, so this
module keeps the table, the cache and the ``cobar-homology`` body, and
each other body is in a ``cli_*`` module imported on dispatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from functools import lru_cache
from importlib import import_module
from pathlib import Path

from . import InputError, __version__

CACHE_ENV = "OPERADKIT_CACHE_DIR"


class UsageError(InputError):
    """Bad command-line input: reported as ``Error: <message>``, exit 2."""


def _sha256(data: bytes = b""):
    """SHA-256 of data by CPython's built-in ``_sha2`` or ``_sha256``, or by
    ``hashlib`` (which maps OpenSSL's libcrypto) only where neither exists."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return import_module(name).sha256(data)
        except ImportError:
            pass


@lru_cache(maxsize=None)
def _source_fingerprint() -> str:
    """sha256 of the package's *.py files, names and bytes in name order."""
    h = _sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_lookup(op: str, params: dict) -> tuple[Path, str | None]:
    import json
    key = json.dumps({"op": op, "params": params, "version": __version__,
                      "source": _source_fingerprint()}, sort_keys=True)
    digest = _sha256(key.encode()).hexdigest()
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
    import json
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


def cobar_homology_cmd(name, arity, no_cache, fmt):
    import json
    params = {"cooperad": name, "arity": arity}
    path, cached = (None, None)
    if not no_cache:
        path, cached = _cache_lookup("cobar-homology", params)
    payload = _cached_betti(cached, name, arity)
    if payload is None:
        from .cobar import cobar_homology
        from .cli_operads import cooperad_by_name
        betti = cobar_homology(cooperad_by_name(name, arity), arity)
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


def _later(module: str, name: str):
    """The callback that imports ``operadkit.<module>`` and runs ``name``."""
    def callback(**params):
        return getattr(import_module(f"operadkit.{module}"), name)(**params)
    callback.__module__, callback.__name__ = f"operadkit.{module}", name
    return callback


class Command:
    """One subcommand: its callback, its help text and table entries.
    An option is a flag (or a positional's name) with the keywords of
    ``ArgumentParser.add_argument``; ``dest`` names the callback's
    parameter where the flag does not.  An integer option's ``bounds`` is
    (lo, hi), hi None for no cap, or a function of the values parsed so
    far that returns one; a ``Rule`` follows the options it reads.
    Everything is exact arithmetic, so ranges are the runtime guard:
    ``parse`` checks bounds and rules in table order after argparse and
    before any library import, so that a usage error costs no import.
    An optional option left unset is not checked."""

    def __init__(self, callback, doc, *entries):
        self.callback = callback
        self.doc = doc
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
# relations are checked through 2 top - 1 at most (top the highest
# arity of an operation), the last that can fail, so there is no cap
RELATION_ARITY = _int("--max-arity", bounds=(2, None))
COOPERAD = _choice("--cooperad", ("liec", "asc", "commc"), dest="name",
                   required=True)

main = Main({
    "trees": Command(
        _later("cli_trees", "trees"),
        "Enumerate leaf-labeled rooted trees.",
        _int("--n", required=True, bounds=(2, 8), help="number of leaves"),
        _int("--edges", bounds=lambda v: (0, v["n"] - 2),
             help="internal edge count"),
        ("--count", {"action": "store_true", "help": "print the count only"}),
        FORMAT),
    "graphs": Command(
        _later("cli_trees", "graphs"),
        "Enumerate stable graphs of genus g with n legs.",
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
        _later("cli_operads", "axioms"),
        "Verify the operad axioms; exit 1 on any violation.",
        _choice("--operad", ("comm", "assoc", "lie", "cobar-liec"),
                dest="name", required=True),
        _int("--max-arity", 4,
             bounds=lambda v: (1, 4 if v["name"] == "cobar-liec" else 6))),
    "free-dims": Command(
        _later("cli_operads", "free_dims"),
        "Multilinear-part dimensions of the free algebra on d generators.",
        _choice("--operad", ("comm", "assoc", "lie"), dest="name",
                required=True),
        _int("--d", required=True, bounds=(0, 6), help="generator dimension"),
        _int("--max-arity", 6, bounds=(1, 8))),
    "cobar": Command(
        _later("cli_operads", "cobar"),
        "Dimensions of the cobar complex by internal edge count.",
        COOPERAD,
        _int("--arity", required=True,
             bounds=lambda v: (2, 5 if v["name"] == "asc" else 7)),
        FORMAT),
    "cobar-homology": Command(
        cobar_homology_cmd,
        "Betti numbers of the cobar complex (cached).",
        COOPERAD,
        _int("--arity", required=True,
             bounds=lambda v: (2, 5 if v["name"] == "asc" else 6)),
        ("--no-cache", {"action": "store_true"}),
        FORMAT),
    "e1": Command(
        _later("cli_strata", "e1"),
        "First-page dimension table of the stratification sequence.",
        _int("--g", 0, bounds=(0, 2)),
        # the floor is the least stable n, 2g - 2 + n > 0
        _int("--n", required=True,
             bounds=lambda v: (max(0, 3 - 2 * v["g"]), 12)),
        Rule("need 3g - 3 + n <= 5 at genus >= 1",
             lambda v: v["g"] == 0 or 3 * v["g"] - 3 + v["n"] <= 5),
        ("--betti", {"dest": "betti_csv", "type": _input_text,
                     "help": "CSV of open Betti numbers (g,n,k,dim)"}),
        _choice("--aut-mode", ("degree0", "ignore"), default="degree0"),
        TABLE_FORMAT),
    "betti-predict": Command(
        _later("cli_strata", "betti_predict"),
        "Predicted even Betti numbers of the genus-0 compactification.",
        _int("--n", required=True, bounds=(3, 12)),
        FORMAT),
    "middle-row": Command(
        _later("cli_strata", "middle_row_cmd"),
        "Compare the q=0 strata row with the cobar dimensions.\n\n"
        "Exit 1 on mismatch.",
        _int("--arity", required=True, bounds=(2, 7)),
        FORMAT),
    "dual-e1": Command(
        _later("cli_strata", "dual_e1"),
        "Dual (logarithmic) first page of the stratification sequence.\n\n"
        "Exit 1 if the column Euler check against the open Betti numbers "
        "fails.",
        _int("--g", 0, bounds=(0, 0)),
        _int("--n", required=True, bounds=(3, 12)),
        TABLE_FORMAT),
    "check-ainf": Command(
        _later("cli_algebra", "check_ainf_cmd"),
        "Check the homotopy-associativity relations of a map family.",
        FAMILY_FILE, RELATION_ARITY),
    "check-cinf": Command(
        _later("cli_algebra", "check_cinf_cmd"),
        "Check homotopy associativity plus shuffle vanishing.",
        FAMILY_FILE, RELATION_ARITY),
    "er": Command(
        _later("cli_algebra", "er"),
        "Dimensions of a spectral-sequence page per arity and bigrade.",
        _int("--r", required=True, bounds=(0, 20), help="page index"),
        _choice("--fixture", ("end", "standin"), default="end"),
        FIXTURE_FILE,
        _int("--max-arity", 3, bounds=(1, 4)),
        FORMAT),
    "dk": Command(
        _later("cli_algebra", "dk"),
        "Bigraded suboperad slice of a page, with closure certificate.",
        _int("--r", required=True, bounds=(0, 20)),
        _int("--k", required=True, bounds=(-20, 20)),
        _choice("--fixture", ("end", "standin"), default="standin"),
        FIXTURE_FILE,
        _int("--max-arity", 3, bounds=(1, 4)),
        FORMAT),
    "pipeline-cinf": Command(
        _later("cli_algebra", "pipeline_cinf"),
        "End-to-end C-infinity pipeline on the moduli stand-in.\n\n"
        "Stand-in operad, commutative toy algebra, induced operations, "
        "homotopy checks.  Exit 1 if any verification fails.",
        _int("--dim", 3, bounds=(1, 4),
             help="dimension of the truncated polynomial algebra"),
        _int("--max-arity", 4, bounds=(2, 6))),
})


if __name__ == "__main__":
    sys.exit(main())
