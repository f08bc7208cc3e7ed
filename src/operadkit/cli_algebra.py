"""Bodies of check-ainf, check-cinf, er, dk and pipeline-cinf."""

import sys


def check_ainf_cmd(family_json, max_arity):
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
    from .hoalg import check_cinf, map_family_from_json
    report = check_cinf(map_family_from_json(family_json), max_arity)
    if report.ok:
        print("all relations and shuffle vanishing hold")
        return
    from .qlinalg import format_vector
    for r in report.ainf_residuals[:10]:
        print(r, file=sys.stderr)
    for n, p, q, ins, defect in report.shuffle_violations[:10]:
        print(f"arity {n} ({p}, {q})-shuffle sum fails on {ins}: defect "
              f"{format_vector(defect)}", file=sys.stderr)
    print(f"{len(report.ainf_residuals)} relation failures, "
          f"{len(report.shuffle_violations)} shuffle violations")
    sys.exit(1)


def _filtered_fixture(fixture, fixture_json, max_arity):
    """The filtered operad to page; one read from a file may hold no
    arity above max_arity and must pass ``FilteredOperad.validate``."""
    from .filtration import (FiltrationError, filtered_operad_from_json,
                             degree_filtration, moduli_chain_standin)
    if fixture_json is not None:
        F = filtered_operad_from_json(fixture_json)
        top = max(F.arities(), default=0)
        if top > max_arity:
            raise FiltrationError(f"the document has an arity-{top} component, "
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
    from .filtration import er_term
    F = _filtered_fixture(fixture, fixture_json, max_arity)
    term = er_term(F, r)
    data = {n: {f"{p},{q}": d for (p, q), d in sorted(term.dims(n).items())}
            for n in F.arities()}
    if fmt == "json":
        import json
        print(json.dumps({"r": r, "dims": data}, indent=1))
    else:
        for n, dims in data.items():
            print(f"arity {n}: " + (", ".join(
                f"E[{pq}]={d}" for pq, d in dims.items()) or "0"))


def dk(r, k, fixture, fixture_json, max_arity, fmt):
    from .filtration import er_term, suboperad_dk
    F = _filtered_fixture(fixture, fixture_json, max_arity)
    slices = suboperad_dk(er_term(F, r), k)
    data = {n: {f"{p},{q}": d for (p, q), d in sorted(sel.items())}
            for n, sel in slices.slices.items()}
    if fmt == "json":
        import json
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
