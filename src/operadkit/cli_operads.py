"""Bodies of ``axioms``, ``free-dims`` and ``cobar``, loaded by ``cli``."""

import sys


def _operad_by_name(name: str, max_arity: int):
    if name == "cobar-liec":
        from .cobar import liec_cooperad, cobar_operad
        return cobar_operad(liec_cooperad(max_arity), max_arity)
    from .operads import comm_operad, assoc_operad, lie_operad
    table = {"comm": comm_operad, "assoc": assoc_operad, "lie": lie_operad}
    return table[name](max_arity)


def cooperad_by_name(name: str, max_arity: int):
    from .cobar import liec_cooperad, asc_cooperad, commc_cooperad
    table = {"liec": liec_cooperad, "asc": asc_cooperad,
             "commc": commc_cooperad}
    return table[name](max_arity)


def axioms(name, max_arity):
    from .axioms import check_axioms
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
    from .operads import free_algebra_dims
    O = _operad_by_name(name, max_arity)
    dims = free_algebra_dims(O, d, max_arity)
    print(",".join(str(x) for x in dims))


def cobar(name, arity, fmt):
    from .cobar import cobar_dims
    dims = cobar_dims(cooperad_by_name(name, arity), arity)
    if fmt == "json":
        import json
        print(json.dumps({"cooperad": name, "arity": arity,
                          "dims": {str(e): d for e, d in dims.items()}},
                         indent=1))
    else:
        for e in sorted(dims):
            print(f"e={e}: {dims[e]}")
