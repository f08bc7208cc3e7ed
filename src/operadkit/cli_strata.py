"""Bodies of ``e1``, ``betti-predict``, ``middle-row`` and ``dual-e1``."""

import sys

from .strata import (BettiTable, StrataError, dual_e1_table,
                     dual_euler_check, e1_table, middle_row,
                     predict_compactified_betti)


def e1(g, n, betti_csv, aut_mode, fmt):
    betti = (BettiTable() if betti_csv is None
             else BettiTable.from_csv(betti_csv))
    sys.stdout.write(e1_table(g, n, betti, aut_mode=aut_mode).render(fmt))


def betti_predict(n, fmt):
    try:
        pred = predict_compactified_betti(n)
    except StrataError as ex:
        print(ex, file=sys.stderr)
        sys.exit(1)
    if fmt == "json":
        import json
        print(json.dumps({"n": n, "even_betti": list(pred)}))
    else:
        print(",".join(str(h) for h in pred))


def middle_row_cmd(arity, fmt):
    rep = middle_row(arity)
    if fmt == "json":
        import json
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
    table = dual_e1_table(g, n)
    sys.stdout.write(table.render(fmt))
    if not dual_euler_check(table, n):
        print("Euler-characteristic consistency FAILED", file=sys.stderr)
        sys.exit(1)
