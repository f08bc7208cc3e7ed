"""Bodies of the ``trees`` and ``graphs`` commands, loaded by ``cli``."""

import sys


def trees(n, edges, count, fmt):
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
        import json
        print(json.dumps(
            {"n": n, "edges": edges, "count": len(items),
             "trees": [encode_tree(t) for t in items]}, indent=1))
    else:
        sys.stdout.write("".join(encode_tree(t) + "\n" for t in items))


def graphs(g, n, max_edges, count, fmt):
    from .stablegraphs import (enumerate_stable_graphs, automorphism_group,
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
        import json
        print(json.dumps(
            {"g": g, "n": n, "count": len(rows),
             "graphs": [{"graph": enc, "edges": e, "aut_order": a}
                        for enc, e, a in rows]}, indent=1))
    else:
        for enc, e, a in rows:
            print(f"{enc}  edges={e} aut={a}")
