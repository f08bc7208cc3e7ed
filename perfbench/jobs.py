"""The job lists of the four workloads and the oracle check of each job.

A job is a name, a ``run`` callable that does the work and returns plain
data, and a ``check`` that compares that data with a value from
``oracles`` (never with another operadkit result).  The multiset of
jobs of a workload is fixed; the seed only fixes their order.

``scale="smoke"`` gives the same workloads at tiny sizes, for the
benchmark's own tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles

WORKLOADS = ("cobar-homology", "strata-census", "algebra-checks", "cli-session")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def order(jobs: list[Job], seed: int) -> list[Job]:
    """The seeded job order: a fixed multiset, shuffled by the seed."""
    jobs = sorted(jobs, key=lambda j: j.name)
    random.Random(seed).shuffle(jobs)
    return jobs


def _raises(fn, exc_type) -> str:
    """Run fn, reporting whether it raised the expected exception."""
    try:
        fn()
    except exc_type:
        return "raised"
    return "returned"


# ---------------------------------------------------------------------------
# cobar-homology: acceptance criteria 2 and 3


def cobar_jobs(scale: str) -> list[Job]:
    from math import factorial

    from operadkit.cobar import (CobarComplex, asc_cooperad, cobar_homology,
                                 liec_cooperad)
    from operadkit.qlinalg import ComplexError

    liec_top, asc_top = (6, 5) if scale == "full" else (4, 3)
    jobs = []
    for n in range(2, liec_top + 1):
        jobs.append(Job(
            f"cobar_homology liec {n}",
            lambda n=n: cobar_homology(liec_cooperad(n), n),
            lambda h, n=n: sum(h.values()) == 1 and h.get(n - 2) == 1))
    for n in range(2, asc_top + 1):
        total = factorial(n)
        jobs.append(Job(
            f"cobar_homology asc {n}",
            lambda n=n: cobar_homology(asc_cooperad(n), n),
            lambda h, n=n, t=total: sum(h.values()) == t and h.get(n - 2) == t))
    jobs.append(Job(
        "unsigned liec 4 raises ComplexError",
        lambda: _raises(lambda: CobarComplex(
            liec_cooperad(4), 4, sign_mode="unsigned").chain_complex(),
            ComplexError),
        lambda r: r == "raised"))
    return jobs


# ---------------------------------------------------------------------------
# strata-census: criteria 4 to 7


def _row_sums(entries: dict, n: int) -> tuple[int, ...]:
    """Even Betti numbers by alternating row sums of a first page."""
    return tuple((-1) ** q * sum((-1) ** p * d for (p, qq), d in entries.items()
                                 if qq == q)
                 for q in range(n - 2))


def _e1_ok(entries: dict, n: int) -> bool:
    top = n - 3
    bounded = all(-p <= q <= p <= top for (p, q), d in entries.items() if d)
    return bounded and _row_sums(entries, n) == oracles.COMPACT_BETTI[n]


def _dual_columns_ok(entries: dict, n: int) -> bool:
    """sum_p (-1)^p dim(p, q) is (-1)^(q/2) b_(q/2) of the open space for
    even q and 0 for odd q."""
    ob = oracles.open_betti(n)
    qs = {q for (_, q) in entries} | {2 * k for k in range(len(ob))}
    for q in qs:
        chi = sum((-1) ** p * d for (p, qq), d in entries.items() if qq == q)
        k, odd = divmod(q, 2)
        expected = 0 if odd else (-1) ** k * (ob[k] if k < len(ob) else 0)
        if chi != expected:
            return False
    return True


def strata_jobs(scale: str) -> list[Job]:
    from operadkit import strata
    from operadkit.treegraph import (automorphism_group,
                                     enumerate_stable_graphs, enumerate_trees)

    full = scale == "full"
    betti_top, page_top, arity_top, tree_top = (8, 7, 6, 6) if full else (5, 5, 4, 4)
    jobs = []
    for n in range(3, betti_top + 1):
        def check(r, n=n):
            row, keel = r
            ok = row == oracles.COMPACT_BETTI[n] and row == row[::-1]
            if n >= 5:
                ok &= row[1] == keel == oracles.keel_h2(n)
            return ok
        jobs.append(Job(
            f"predict_compactified_betti {n}",
            lambda n=n: (strata.predict_compactified_betti(n),
                         strata.keel_h2_rank(n)),
            check))
    for n in range(3, page_top + 1):
        def e1(n=n):
            table = strata.e1_table(0, n)
            return dict(table.entries), strata.verify_vanishing(0, n, table)
        jobs.append(Job(f"e1_table+verify_vanishing {n}", e1,
                        lambda r, n=n: r[1] and _e1_ok(r[0], n)))

        def dual(n=n):
            table = strata.dual_e1_table(0, n)
            return dict(table.entries), strata.dual_euler_check(table, n)
        jobs.append(Job(f"dual_e1_table+dual_euler_check {n}", dual,
                        lambda r, n=n: r[1] and _dual_columns_ok(r[0], n)))
    for a in range(2, arity_top + 1):
        def middle(a=a):
            rep = strata.middle_row(a)
            return rep.e1_dims, rep.cobar_dims, rep.equal

        def check(r, a=a):
            want = {a - 2 - e: d for e, d in oracles.liec_cobar_dims(a).items()}
            ok = r[2] and r[0] == want and r[1] == want
            return ok and (a != 4 or r[0] == oracles.MIDDLE_ROW_4)
        jobs.append(Job(f"middle_row {a}", middle, check))
    for n in range(2, tree_top + 1):
        jobs.append(Job(
            f"enumerate_trees {n}",
            lambda n=n: {e: len(enumerate_trees(n, e)) for e in range(n - 1)},
            lambda r, n=n: r == oracles.tree_counts(n)))
    for (g, n), (by_edges, auts) in oracles.GRAPH_CENSUS.items():
        if not full and 3 * g - 3 + n > 2:
            continue

        def census(g=g, n=n):
            edges: dict[int, int] = {}
            orders: dict[int, int] = {}
            for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
                edges[len(G.edges)] = edges.get(len(G.edges), 0) + 1
                a = len(automorphism_group(G))
                orders[a] = orders.get(a, 0) + 1
            return edges, orders
        jobs.append(Job(f"stable_graph_census {g} {n}", census,
                        lambda r, want=(by_edges, auts): r == want))
    return jobs


# ---------------------------------------------------------------------------
# algebra-checks: criteria 1, 8, 9 and 10


def _faulty_family():
    """The truncated polynomial product with one sign flipped: fails the
    arity-3 homotopy-associativity relation."""
    from operadkit.hoalg import MapFamily, truncated_polynomial_family
    poly = truncated_polynomial_family(3)
    bad = dict(poly.maps[2])
    bad[(1, (0, 1))] = -bad[(1, (0, 1))]
    return MapFamily(poly.space, poly.q, {2: bad})


def _left_projection_family():
    """m(a, b) = a on two degree-0 generators: associative, not
    commutative, so it fails the (1,1)-shuffle."""
    from fractions import Fraction

    from operadkit.hoalg import MapFamily
    from operadkit.operads import GradedSpace
    from operadkit.qlinalg import SparseMatrix
    space = GradedSpace(("u", "v"), (0, 0))
    return MapFamily(space, SparseMatrix.zero(2, 2),
                     {2: {(a, (a, b)): Fraction(1)
                          for a in range(2) for b in range(2)}})


def algebra_jobs(scale: str) -> list[Job]:
    from fractions import Fraction

    from operadkit import filtration as fl
    from operadkit import hoalg
    from operadkit.cobar import cobar_operad, liec_cooperad
    from operadkit.operads import (EndOperad, GradedSpace, TableOperad,
                                   assoc_operad, check_axioms, comm_operad,
                                   free_algebra_dims, lie_operad)
    from operadkit.qlinalg import SparseMatrix

    full = scale == "full"
    axiom_top, cobar_top = (6, 4) if full else (4, 3)
    jobs = []
    factories = {"comm": comm_operad, "assoc": assoc_operad, "lie": lie_operad}
    for name, factory in factories.items():
        jobs.append(Job(
            f"check_axioms {name} {axiom_top}",
            lambda f=factory: check_axioms(f(axiom_top), axiom_top).ok,
            lambda ok: ok is True))

        def faulty(f=factory):
            table = TableOperad.from_operad(f(3), 3)
            return check_axioms(table.with_corrupted_composition(2, 1, 2, 0, 0), 3).ok
        jobs.append(Job(f"check_axioms {name} fault-injected", faulty,
                        lambda ok: ok is False))
    jobs.append(Job(
        f"check_axioms cobar-liec {cobar_top}",
        lambda: check_axioms(cobar_operad(liec_cooperad(cobar_top), cobar_top),
                             cobar_top).ok,
        lambda ok: ok is True))

    tops = {"lie": 8, "assoc": 5, "comm": 6} if full else {"lie": 5, "assoc": 4, "comm": 4}
    closed = {"lie": oracles.witt, "assoc": oracles.free_assoc,
              "comm": oracles.free_comm}
    for name, top in tops.items():
        for d in (1, 2, 3):
            jobs.append(Job(
                f"free_algebra_dims {name} d={d}",
                lambda f=factories[name], d=d, top=top: free_algebra_dims(f(top), d, top),
                lambda dims, c=closed[name], d=d, top=top:
                    dims == [c(d, n) for n in range(1, top + 1)]))

    ho_arity = 5 if full else 4
    for dim in (3, 4):
        jobs.append(Job(
            f"check_ainf polynomial {dim}",
            lambda dim=dim: hoalg.check_ainf(
                hoalg.truncated_polynomial_family(dim), ho_arity),
            lambda res: res == []))
        jobs.append(Job(
            f"check_cinf polynomial {dim}",
            lambda dim=dim: hoalg.check_cinf(
                hoalg.truncated_polynomial_family(dim), ho_arity).ok,
            lambda ok: ok is True))
    jobs.append(Job(
        "check_ainf non-associative fault",
        lambda: [r.n for r in hoalg.check_ainf(_faulty_family(), 3)],
        lambda ns: bool(ns) and all(n == 3 for n in ns)))

    def noncommutative():
        rep = hoalg.check_cinf(_left_projection_family(), 2)
        return (len(rep.ainf_residuals),
                {(p, q) for (_, p, q, _, _) in rep.shuffle_violations})
    jobs.append(Job("check_cinf noncommutative shuffle failure", noncommutative,
                    lambda r: r[0] == 0 and (1, 1) in r[1]))

    def end_pages():
        V = GradedSpace(("e0", "e1", "e2"), (0, 1, 0))
        q = SparseMatrix.from_dict(3, 3, {(0, 1): Fraction(1)})
        F = fl.degree_filtration(EndOperad(V, 3, q=q))
        one, two = fl.er_term(F, 1), fl.er_term(F, 2)
        return ([one.total_dim(n) for n in (1, 2, 3)],
                [two.dims(n) for n in (1, 2, 3)],
                fl.er_closure_certificate(one, 3)[0])

    # V has homology spanned by e2 alone, so E_1 is all of End(V), of
    # dimension 3^(n+1), and E_2 = End(H V) is one class in degree 0.
    jobs.append(Job("er_term end fixture", end_pages,
                    lambda r: r[0] == [9, 27, 81]
                    and r[1] == [{(0, 0): 1}] * 3 and r[2] is True))

    standins = (4, 5) if full else (3,)
    for m in standins:
        def pages(m=m):
            one = fl.er_term(fl.moduli_chain_standin(m), 1)
            slices = fl.suboperad_dk(one, 0)
            return ({n: sum(sel.values()) for n, sel in slices.slices.items()},
                    slices.certificate)

        # the k = 0 slice is the whole Lie-dual cobar complex per arity
        want = {1: 1, **{n: sum(oracles.liec_cobar_dims(n).values())
                         for n in range(2, m + 1)}}
        jobs.append(Job(f"er_term+suboperad_dk standin {m}", pages,
                        lambda r, want=want: r == (want, True)))

        def pipeline(m=m):
            F = fl.moduli_chain_standin(m)
            poly = hoalg.truncated_polynomial_family(3)
            A = fl.commutative_toy_algebra(F, poly.space, poly.q, poly.maps[2])
            return fl.induce_cinf(F, A, m).ok
        jobs.append(Job(f"induce_cinf standin {m}", pipeline,
                        lambda ok: ok is True))
    cert_arity = standins[0]
    jobs.append(Job(
        f"er_closure_certificate standin {cert_arity}",
        lambda: fl.er_closure_certificate(
            fl.er_term(fl.moduli_chain_standin(cert_arity), 1), cert_arity)[0],
        lambda ok: ok is True))
    return jobs


# ---------------------------------------------------------------------------
# cli-session: short commands, each in a fresh process


def _mapfamily_json(names, degrees, m2: dict) -> str:
    """A map-family document (format operadkit-mapfamily, version 1)."""
    return json.dumps({
        "format": "operadkit-mapfamily", "version": 1,
        "names": list(names), "degrees": list(degrees), "q": [],
        "maps": {"2": [[out, list(ins), str(c)]
                       for (out, ins), c in sorted(m2.items())]}})


def _polynomial_m2(dim: int) -> dict:
    return {(a + b, (a, b)): 1 for a in range(dim) for b in range(dim)
            if a + b < dim}


def write_cli_fixtures(directory) -> None:
    """Write the input files the commands read into their working
    directory."""
    nonassoc = _polynomial_m2(3)
    nonassoc[(1, (0, 1))] = -1
    docs = {
        "poly3": _mapfamily_json(("x0", "x1", "x2"), (0, 0, 0), _polynomial_m2(3)),
        "poly4": _mapfamily_json(("x0", "x1", "x2", "x3"), (0,) * 4,
                                 _polynomial_m2(4)),
        "nonassoc": _mapfamily_json(("x0", "x1", "x2"), (0, 0, 0), nonassoc),
        "noncomm": _mapfamily_json(("u", "v"), (0, 0),
                                   {(a, (a, b)): 1 for a in range(2)
                                    for b in range(2)}),
        "garbage": "{not json",
    }
    for name, text in docs.items():
        (directory / f"{name}.json").write_text(text)


def _lines_kv(out: str) -> dict[int, int]:
    """Parse "e=E: D" lines."""
    pairs = (line[2:].split(":") for line in out.splitlines() if line.startswith("e="))
    return {int(k): int(v) for k, v in pairs}


def _json(out: str):
    return json.loads(out)


def _cmd(argv: str, check: Callable[[int, str], bool], times: int = 1):
    return [(f"{argv} #{i}" if times > 1 else argv, argv.split(), check)
            for i in range(times)]


def cli_commands(scale: str) -> list[tuple[str, list[str], Callable]]:
    """(name, argv, check(exit_code, stdout)) for every command; input
    files are named relative to the directory of write_cli_fixtures."""
    from math import factorial

    full = scale == "full"
    reps = 2 if full else 1
    ok = lambda code, out: code == 0  # noqa: E731
    usage = lambda code, out: code == 2  # noqa: E731
    cmds = []
    for n in ((3, 4, 5, 6) if full else (3, 4)):
        total = sum(oracles.tree_counts(n).values())
        cmds += _cmd(f"trees --n {n} --count",
                     lambda c, o, t=total: c == 0 and o.strip() == str(t))
    for n, e in ((4, 1), (5, 2), (6, 3), (6, 1)) if full else ((4, 1),):
        want = oracles.tree_counts(n)[e]
        cmds += _cmd(f"trees --n {n} --edges {e} --count",
                     lambda c, o, w=want: c == 0 and o.strip() == str(w))
    dims = {"liec": oracles.liec_cobar_dims, "asc": oracles.asc_cobar_dims,
            "commc": oracles.tree_counts}
    cobar_cases = ((("liec", 3), ("liec", 4), ("liec", 5), ("asc", 3), ("asc", 4),
                    ("commc", 4), ("commc", 5)) if full else (("liec", 3), ("asc", 3)))
    for name, n in cobar_cases:
        cmds += _cmd(f"cobar --cooperad {name} --arity {n}",
                     lambda c, o, w=dims[name](n): c == 0 and _lines_kv(o) == w)
    # repeated homology queries share a fresh cache: the first of each
    # key misses, the rest hit
    homology = ((("liec", 3), ("liec", 4), ("liec", 5), ("asc", 3), ("asc", 4))
                if full else (("liec", 3), ("asc", 3)))
    for name, n in homology:
        total = 1 if name == "liec" else factorial(n)

        def hom(c, o, n=n, t=total):
            if c != 0:
                return False
            doc = _json(o)
            return doc["total"] == t and doc["betti"][str(n - 2)] == t
        cmds += _cmd(f"cobar-homology --cooperad {name} --arity {n} --format json",
                     hom, 3)
    for n in ((4, 5, 6) if full else (4,)):
        cmds += _cmd(f"e1 --n {n} --format json",
                     lambda c, o, n=n: c == 0 and _e1_ok(
                         {(p, q): d for p, q, d in _json(o)["entries"]}, n), reps)
        cmds += _cmd(f"dual-e1 --n {n} --format json",
                     lambda c, o, n=n: c == 0 and _dual_columns_ok(
                         {(p, q): d for p, q, d in _json(o)["entries"]}, n), reps)
    for n in ((3, 4, 5, 6, 7) if full else (4, 5)):
        row = ",".join(map(str, oracles.COMPACT_BETTI[n]))
        cmds += _cmd(f"betti-predict --n {n}",
                     lambda c, o, r=row: c == 0 and o.strip() == r, reps)
    for a in ((2, 3, 4, 5) if full else (3, 4)):
        def middle(c, o, a=a):
            if c != 0:
                return False
            doc = _json(o)
            want = {str(a - 2 - e): d for e, d in oracles.liec_cobar_dims(a).items()}
            return doc["equal"] is True and doc["e1_row"] == want == doc["cobar"]
        cmds += _cmd(f"middle-row --arity {a} --format json", middle, reps)
    for name, top in (("comm", 4), ("assoc", 4), ("lie", 4), ("cobar-liec", 3)):
        cmds += _cmd(f"axioms --operad {name} --max-arity {top}",
                     lambda c, o: c == 0 and "all axioms hold" in o, reps)
    for name, d, top, fn in (("lie", 2, 6, oracles.witt), ("lie", 3, 6, oracles.witt),
                             ("assoc", 2, 5, oracles.free_assoc),
                             ("comm", 3, 6, oracles.free_comm)):
        want = ",".join(str(fn(d, n)) for n in range(1, top + 1))
        cmds += _cmd(f"free-dims --operad {name} --d {d} --max-arity {top}",
                     lambda c, o, w=want: c == 0 and o.strip() == w)
    for (g, n), (by_edges, auts) in oracles.GRAPH_CENSUS.items():
        if (g, n) in ((0, 5), (1, 1), (1, 2), (1, 3), (2, 0)):
            cmds += _cmd(f"graphs --g {g} --n {n} --count",
                         lambda c, o, t=sum(by_edges.values()): c == 0 and o.strip() == str(t))
    for g, n in ((1, 1), (1, 2)):
        def graph_list(c, o, want=oracles.GRAPH_CENSUS[(g, n)]):
            edges: dict[int, int] = {}
            orders: dict[int, int] = {}
            for line in o.splitlines():
                fields = dict(f.split("=") for f in line.split()[-2:])
                e, a = int(fields["edges"]), int(fields["aut"])
                edges[e] = edges.get(e, 0) + 1
                orders[a] = orders.get(a, 0) + 1
            return c == 0 and (edges, orders) == want
        cmds += _cmd(f"graphs --g {g} --n {n}", graph_list, reps)
    for fam in ("poly3", "poly4"):
        cmds += _cmd(f"check-ainf {fam}.json --max-arity 4",
                     lambda c, o: c == 0 and "all relations hold" in o, reps)
    cmds += _cmd("check-cinf poly3.json --max-arity 4",
                 lambda c, o: c == 0 and "shuffle vanishing hold" in o, reps)
    # verification failures exit 1
    cmds += _cmd("check-ainf nonassoc.json --max-arity 3",
                 lambda c, o: c == 1 and "failing instances" in o, reps)
    cmds += _cmd("check-cinf noncomm.json --max-arity 2",
                 lambda c, o: c == 1 and o.startswith("0 relation failures"), reps)

    def er1(c, o):
        dims = _json(o)["dims"]
        return c == 0 and {n: sum(v.values()) for n, v in dims.items()} == \
            {"1": 4, "2": 8, "3": 16}
    cmds += _cmd("er --r 1 --fixture end --max-arity 3 --format json", er1)
    cmds += _cmd("er --r 2 --fixture end --max-arity 3 --format json",
                 lambda c, o: c == 0 and not any(_json(o)["dims"].values()))

    def dk(c, o):
        doc = _json(o)
        sums = {int(n): sum(v.values()) for n, v in doc["slices"].items()}
        return c == 0 and doc["certificate"] is True and sums == {1: 1, 2: 1, 3: 5, 4: 41}
    cmds += _cmd("dk --r 1 --k 0 --fixture standin --max-arity 4 --format json", dk)
    cmds += _cmd("pipeline-cinf --max-arity 3 --dim 3",
                 lambda c, o: c == 0 and "pipeline verified" in o, reps)
    # bad input exits 2 before any work
    bad = ["trees --n 9 --count", "cobar --cooperad asc --arity 6",
           "cobar-homology --cooperad liec --arity 7", "axioms --operad lie --max-arity 7",
           "graphs --g 2 --n 1", "e1 --g 1 --n 6", "free-dims --operad comm --d 7",
           "betti-predict --n 2", "middle-row --arity 8", "check-ainf garbage.json",
           "trees --bogus", "frobnicate"]
    for argv in bad if full else bad[:3]:
        cmds += _cmd(argv, usage)
    return cmds


def build(workload: str, scale: str = "full", cli_runner=None) -> list[Job]:
    """The unordered job list of a workload.  cli-session needs a runner
    that executes one argv and returns (exit code, stdout)."""
    if workload == "cobar-homology":
        return cobar_jobs(scale)
    if workload == "strata-census":
        return strata_jobs(scale)
    if workload == "algebra-checks":
        return algebra_jobs(scale)
    if workload == "cli-session":
        return [Job(name, lambda argv=argv: cli_runner(argv),
                    lambda r, chk=chk: chk(*r))
                for name, argv, chk in cli_commands(scale)]
    raise ValueError(f"unknown workload {workload!r}")
