"""Structure guards.

Modules of the package use each other's public names: an underscore
name is private to the module that defines it, and a module that needs
another module's helper should get it made public there.

The package keeps only what runs: every public module-level function,
class and namedtuple record is named by the package, the benchmark or
the scripts outside its own definition.  Oracles the tests alone use
live in ``tests/reference.py``.  The exceptions are the API the
README's "File formats" section offers, the decoders of what ``trees``
and ``graphs`` print, and ``qlinalg.solve_in_span``, which the
benchmark's tracer wraps by name.

Sparse vectors are accumulated in one place, ``qlinalg.addmul``; a
hand-rolled "add, then drop the zero" loop elsewhere shows up as a
``del acc[key]`` statement.

``Tree._from_canonical`` wraps a shape without validating it, which is
sound only for shapes the tree generator built; only ``treegraph`` may
use it, so input from outside always goes through ``Tree(...)``.  The
same holds, in ``stablegraphs``, for ``StableGraph._canonical`` and the
graphs uncontraction builds.  ``automorphism_group`` takes its vertex
permutations from the canonical search and permutes only the edges
within endpoint groups.

``qlinalg.rank`` is the one rank engine: every other rank or kernel
dimension in ``qlinalg`` is computed by calling it.  It is the standard
reduction, so no package module imports ``heapq``.  All row reduction
is one elimination step: ``qlinalg._reduced`` is the only function that
calls ``gcd``, ``rank``, ``rref`` and ``span_basis`` reach it through
``_reduce``, and ``in_span`` calls it; ``filtration`` imports no
``rref`` and defines no echelon, pivot or reduction helper of its own.

``cobar.Cooperad`` owns its cocomposition and action: only its own
methods read the operad it is the dual of, so the cobar complex cannot
grow a second cocomposition beside ``Cooperad.cocompose``.

End_V has one convention: ``operads.end_compose`` and
``operads.end_differential`` hold the sliding sign and the Hom
differential, so ``hoalg`` and ``filtration`` write no ``% 2`` sign of
their own, no second composition or differential routine is defined
beside them, and ``endtable.EndOperad`` goes through both.

Each arity's decorated basis has one owner, its ``cobar.CobarComplex``:
only that class builds its index, one entry per tree keyed by the flat
(skeleton id, *labels), no index by (shape, decoration) or by bare
shape is kept beside it, and ``CobarOperad`` reads basis elements and
positions from the complexes it keeps, holding no basis of its own.

Vertex correspondence lives in ``treegraph``: ``graft`` and
``relabel_tree`` report where each vertex went by preorder index, so
``cobar`` never names a vertex by its leaf set (no ``frozenset``, no
``.vertices()``).

Operad structure constants are ``int`` when integral: no
``compose_basis`` or ``act_basis`` in ``operads`` or ``cobar`` wraps a
coefficient in ``Fraction``.

Bad input leaves by one door: every module's error class derives from
``operadkit.InputError`` (``qlinalg.ComplexError`` alone does not, as
d·d != 0 is a failed verification), and ``Main.main`` maps it to exit 2.
So no command catches a library error to re-raise it as a usage error;
the one handler left is ``betti_predict``'s, which exits 1 on a negative
predicted Betti number.  Input files are opened by ``_input_text``
alone, and every range and rule lives in the command table, so
``Command.parse`` alone decides whether a command line is acceptable:
no command body (in ``cli`` or a ``cli_*`` module) raises, and of the
helpers they call only ``_filtered_fixture`` raises, a
``FiltrationError``, as its check (no component above ``--max-arity``)
depends on the file's content.

Genus-0 strata are counted, not enumerated: Betti predictions, first
pages, vanishing checks and dual pages read ``genus0_valence_census``,
which builds no tree, so they never load ``treegraph``.  Cobar
dimensions are counted too: ``middle_row`` builds no ``CobarComplex``.

Each command loads only what it runs: a usage error loads ``cli``
alone, ``trees`` no operad, matrix or stable-graph code, ``cobar`` none
of ``endtable``, and none of them ``json``; ``check-ainf`` reads its
file through ``operads.read_document`` and loads no ``endtable``.

Result records are ``collections.namedtuple``s: no module imports
``dataclasses``, ``typing`` or ``functools.cached_property``, so loading
the whole package under ``python -S`` leaves ``dataclasses`` and
``inspect`` (which ``dataclasses`` pulls in) unloaded, and each command
process starts without them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import operadkit
from operadkit.cli import main
from operadkit.treegraph import StableGraph, Tree


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


# public for users, not for the package: the README's file-format API
# and the decoders of the `trees` and `graphs` encodings; the
# benchmark's tracer wraps solve_in_span by its name as a string
UNCALLED_BY_DESIGN = {
    "operad_to_json", "operad_from_json", "filtered_operad_to_json",
    "map_family_to_json", "decode_tree", "decode_graph", "solve_in_span"}


def _bound_name(node: ast.stmt) -> str | None:
    """The name a module-level function, class or namedtuple record
    statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "namedtuple"):
        return node.targets[0].id
    return None


def test_every_public_name_has_a_caller():
    package = Path(operadkit.__file__).parent
    root = package.parents[1]
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = _bound_name(node)
            if name and not name.startswith("_"):
                defined[name] = path
    assert {"ErPiece", "MiddleRowReport", "Rule"} <= set(defined)
    named = set()
    for folder in ("src", "perfbench", "scripts"):
        assert (root / folder).is_dir(), folder
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            inside = {id(node): _bound_name(top) for top in tree.body
                      if _bound_name(top) for node in ast.walk(top)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "_later"):
                    name = node.args[1].value  # a command body, by name
                else:
                    continue
                if not (path == defined.get(name)
                        and inside.get(id(node)) == name):
                    named.add(name)
    uncalled = sorted(f"{path.stem}.{name}" for name, path in defined.items()
                      if name not in named | UNCALLED_BY_DESIGN)
    assert uncalled == []


def test_no_module_imports_a_private_name_from_another():
    # the tests' reference computations count too: a reference that
    # shares the library's private machinery checks nothing
    offenders = []
    for path in [*sorted(Path(operadkit.__file__).parent.glob("*.py")),
                 Path(__file__).parent / "reference.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = (node.module or "").split(".")[0]
            if node.level == 0 and package != "operadkit":
                continue
            for alias in node.names:
                if _private(alias.name):
                    offenders.append(f"{path.name}:{node.lineno} imports "
                                     f"{node.module}.{alias.name}")
    assert offenders == []


def test_one_sparse_accumulator():
    package = Path(operadkit.__file__).parent
    deletes = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Delete):
                deletes += [(path.name, node.lineno) for t in node.targets
                            if isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Name)]
    assert len(deletes) == 1, deletes
    name, line = deletes[0]
    qlinalg = ast.parse((package / "qlinalg.py").read_text())
    addmul = next(node for node in qlinalg.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "addmul")
    assert name == "qlinalg.py" and addmul.lineno < line <= addmul.end_lineno


def _users(name: str) -> list[str]:
    """Where the package names ``name``, as file:line."""
    users = []
    for path in sorted(Path(operadkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if name in (getattr(node, "attr", None), getattr(node, "id", None),
                        getattr(node, "value", None)):
                users.append(f"{path.name}:{node.lineno}")
    return users


def test_unchecked_tree_constructor_stays_in_treegraph():
    assert callable(Tree._from_canonical)
    users = _users("_from_canonical")
    assert users and all(u.startswith("treegraph.py:") for u in users), users


def test_unchecked_graph_constructor_stays_in_treegraph():
    # the stable-graph code of treegraph lives in stablegraphs
    assert callable(StableGraph._canonical)
    users = _users("_canonical")
    assert users and all(u.startswith("stablegraphs.py:") for u in users), users


def test_automorphisms_permute_edge_groups_only():
    # vertex permutations come from the canonical search, so
    # automorphism_group permutes nothing but the endpoint groups
    tree = ast.parse(
        (Path(operadkit.__file__).parent / "stablegraphs.py").read_text())
    autos = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "automorphism_group")
    uses = [node for node in ast.walk(autos)
            if isinstance(node, ast.Attribute)
            and node.attr == "permutations"]
    edge_groups = [call for call in ast.walk(autos)
                   if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == "map"
                   and call.args[0] in uses
                   and ast.unparse(call.args[1]) == "targets"]
    assert uses and len(edge_groups) == len(uses), ast.unparse(autos)


def test_one_rank_engine():
    source = (Path(operadkit.__file__).parent / "qlinalg.py").read_text()
    funcs = {node.name: node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)}
    assert sorted(name for name in funcs if "rank" in name) == [
        "rank", "ranks", "span_rank"]

    def calls(name):
        return {node.func.id for node in ast.walk(funcs[name])
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    for name in ("span_rank", "ranks"):
        assert "rank" in calls(name), name
    # homology reads the cleared ranks and eliminates nothing itself
    called = {ast.unparse(node.func) for node in ast.walk(funcs["homology"])
              if isinstance(node, ast.Call)}
    assert "self.ranks" in called and "rank" not in called
    # one elimination step, which every reduction goes through
    assert [name for name in funcs if "gcd" in calls(name)] == ["_reduced"]
    for name in ("rank", "rref", "span_basis"):
        assert "_reduce" in calls(name), name
    for name in ("_reduce", "in_span"):
        assert "_reduced" in calls(name), name
    # the closure certificate reduces through qlinalg, not by itself
    tree = ast.parse(
        (Path(operadkit.__file__).parent / "filtration.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "rref" not in imported
    assert {"span_basis", "in_span"} <= imported
    helpers = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(word in node.name
                       for word in ("echelon", "pivot", "reduc", "in_span"))]
    assert helpers == []
    # rank is the standard reduction: no module keeps a pivot heap
    heap_importers = []
    for path in sorted(Path(operadkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "heapq" in (name.split(".")[0] for name in names):
                heap_importers.append(f"{path.name}:{node.lineno}")
    assert heap_importers == []


def test_only_the_cooperad_reads_its_operad():
    tree = ast.parse((Path(operadkit.__file__).parent / "cobar.py").read_text())
    cooperad = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == "Cooperad")
    inside = {id(node) for node in ast.walk(cooperad)}
    readers = [node for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "operad"]
    assert any(id(node) in inside for node in readers)
    assert [node.lineno for node in readers if id(node) not in inside] == []


def test_cobar_matches_no_leaf_sets():
    tree = ast.parse((Path(operadkit.__file__).parent / "cobar.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    offenders = [f"cobar.py:{node.lineno}" for node in calls
                 if (isinstance(node.func, ast.Name)
                     and node.func.id == "frozenset")
                 or (isinstance(node.func, ast.Attribute)
                     and node.func.attr == "vertices")]
    assert calls and offenders == [], offenders


def test_the_complex_owns_the_decorated_basis():
    from operadkit.cobar import cobar_operad, liec_cooperad
    from operadkit.treegraph import enumerate_trees_all
    tree = ast.parse((Path(operadkit.__file__).parent / "cobar.py").read_text())
    owner = {id(node): cls.name for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
    # the decorated-tree index is keyed by a tree's flat (skeleton id,
    # *labels), and only the complex stores into one
    indexes = [owner.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Subscript)
               and isinstance(node.ctx, ast.Store)
               and isinstance(node.slice, ast.Tuple)
               and any(isinstance(k, ast.Starred) for k in node.slice.elts)]
    assert indexes == ["CobarComplex"]
    # no index keyed by (tree shape, decoration) is kept beside it
    package = Path(operadkit.__file__).parent
    def key(node):  # of a dict comprehension or a subscript
        return node.key if isinstance(node, ast.DictComp) else getattr(
            node, "slice", None)

    per_element = [f"{path.name}:{node.lineno}"
                   for path in sorted(package.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(key(node), ast.Tuple)
                   and any(isinstance(k, ast.Attribute) and k.attr == "shape"
                           for k in key(node).elts)]
    assert per_element == []
    # nor one keyed by a tree's bare shape: a place is computed from the
    # tree's flat key and the decoration's digits, not looked up
    def shape_key(node):
        if isinstance(node, ast.Subscript):
            return node.slice
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"):
            return node.args[0]

    by_shape = [f"{path.name}:{node.lineno}"
                for path in sorted(package.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(shape_key(node), ast.Attribute)
                and shape_key(node).attr == "shape"]
    assert by_shape == []
    # the operad keeps its complexes, and no basis or index beside them
    B = cobar_operad(liec_cooperad(3), 3)
    assert set(vars(B)) == {"cooperad", "complexes", "components",
                            "unit_vector", "differentials"}
    # the layout is the complex's own: it shows no offsets or index, and
    # its index holds one entry per tree, not per decorated tree
    assert not {"offsets", "index"} & set(vars(B.complexes[3]))
    assert [len(keys) for keys in B.complexes[3]._index] == [
        len(ts) for ts in enumerate_trees_all(3).values()]
    # outside its methods, no package code reads a complex's layout (the
    # word operads' self._index is their own)
    private = ("_offsets", "_index", "_ids", "_layout")
    readers = []
    for path in sorted(package.glob("*.py")):
        module = ast.parse(path.read_text())
        owner = {id(node): cls.name for cls in module.body
                 if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and node.attr in private:
                own = (isinstance(node.value, ast.Name)
                       and node.value.id == "self")
                if not own or (path.name == "cobar.py"
                               and owner.get(id(node)) != "CobarComplex"):
                    readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
    # CobarOperad and induce_cinf do no position arithmetic and scan no
    # basis for a position: each position comes from position(), and the
    # operad's differentials from differential()
    cobar_operad_cls = next(node for node in tree.body
                            if isinstance(node, ast.ClassDef)
                            and node.name == "CobarOperad")
    filtration = ast.parse((package / "filtration.py").read_text())
    induce = next(node for node in filtration.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "induce_cinf")
    layout = ("offsets", "index", *private)
    for scope in (cobar_operad_cls, filtration):
        assert [node.lineno for node in ast.walk(scope)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in layout] == []

    def calls(scope, name):
        return [node for node in ast.walk(scope)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == name]

    methods = {node.name: node for node in cobar_operad_cls.body
               if isinstance(node, ast.FunctionDef)}
    assert calls(methods["compose_basis"], "position")
    assert calls(methods["act_basis"], "position")
    assert calls(methods["__init__"], "differential")
    assert calls(induce, "position")
    assert [node.lineno for node in ast.walk(induce)
            if isinstance(node, ast.Attribute) and node.attr == "basis"] == []


def test_structure_constants_are_not_wrapped_in_fraction():
    package = Path(operadkit.__file__).parent
    bodies, offenders = [], []
    for name in ("operads.py", "cobar.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("compose_basis", "act_basis")):
                bodies.append(f"{name}:{node.lineno}")
                offenders += [f"{name}:{sub.lineno}" for sub in ast.walk(node)
                              if isinstance(sub, ast.Call)
                              and isinstance(sub.func, ast.Name)
                              and sub.func.id == "Fraction"]
    assert bodies and offenders == [], offenders


def test_end_v_signs_live_in_operads():
    package = Path(operadkit.__file__).parent
    parities = []
    for name in ("hoalg.py", "filtration.py"):
        parities += [f"{name}:{node.lineno}"
                     for node in ast.walk(ast.parse((package / name).read_text()))
                     if isinstance(node, ast.BinOp)
                     and isinstance(node.op, ast.Mod)
                     and isinstance(node.right, ast.Constant)
                     and node.right.value == 2]
    assert parities == []
    defined = {node.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert {"end_compose", "end_differential"} <= defined
    assert defined.isdisjoint(
        {"_end_compose", "_inner_composite", "_hom_differential"})
    # EndOperad composes and differentiates through the same two routines
    tree = ast.parse((package / "endtable.py").read_text())
    end = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "EndOperad")
    called = {node.func.id for node in ast.walk(end)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"end_compose", "end_differential"} <= called


def _probe(code: str, *flags: str) -> str:
    """What a fresh interpreter, given flags and the package's source on
    its path, prints when it runs code."""
    env = dict(os.environ)
    src = str(Path(operadkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip()


def test_genus_zero_strata_load_no_tree_code():
    assert _probe(
        "import sys\n"
        "from operadkit.strata import (dual_e1_table, e1_table,\n"
        "    predict_compactified_betti, verify_vanishing)\n"
        "predict_compactified_betti(8)\n"
        "assert verify_vanishing(0, 8, e1_table(0, 8))\n"
        "dual_e1_table(0, 8)\n"
        "print('operadkit.treegraph' in sys.modules)\n") == "False"


def test_each_command_loads_only_what_it_runs(tmp_path):
    def loaded(argv: str) -> set[str]:
        out = _probe(
            "import sys\n"
            "from operadkit.cli import main\n"
            f"main({argv.split()!r})\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m == 'json' or m.startswith('operadkit')))\n")
        return set(out.splitlines()[-1].split())

    # a usage error is refused before any body or library module loads
    assert loaded("trees --n 9 --count") == {"operadkit", "operadkit.cli"}
    # trees load no operad, matrix or stable-graph code
    trees = loaded("trees --n 4 --count")
    assert {"operadkit.cli_trees", "operadkit.treegraph"} <= trees
    assert trees.isdisjoint({"operadkit.operads", "operadkit.qlinalg",
                             "operadkit.stablegraphs", "json"})
    # cobar dimensions compile no End_V, table or JSON-document code
    cobar = loaded("cobar --cooperad asc --arity 3")
    assert {"operadkit.cobar", "operadkit.operads"} <= cobar
    assert cobar.isdisjoint({"operadkit.endtable", "json"})
    # a map family is read by the one reader in operads, not endtable's
    family = tmp_path / "circle.json"
    family.write_text(
        '{"format": "operadkit-mapfamily", "version": 1, "names": ["1", "x"],'
        ' "degrees": [0, -1], "q": [], "maps": {"2": [[0, [0, 0], 1],'
        ' [1, [0, 1], 1], [1, [1, 0], 1]]}}')
    ainf = loaded(f"check-ainf {family}")
    assert {"operadkit.hoalg", "operadkit.operads", "json"} <= ainf
    assert "operadkit.endtable" not in ainf


def test_no_module_imports_dataclasses_or_typing():
    offenders = []
    for path in sorted(Path(operadkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
                names += [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}"
                          for name in names if name in
                          ("dataclasses", "typing", "cached_property")]
    assert offenders == []


def test_package_loads_no_dataclasses():
    modules = sorted(path.stem for path in
                     Path(operadkit.__file__).parent.glob("[!_]*.py"))
    assert {"cli", "filtration", "strata"} <= set(modules)
    assert _probe(
        "import sys\n"
        f"import operadkit, {', '.join(f'operadkit.{m}' for m in modules)}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n",
        "-S") == "[]"


def test_middle_row_builds_no_decorated_basis(monkeypatch):
    from operadkit import cobar
    from operadkit.strata import middle_row

    def refuse(*args, **kwargs):
        raise AssertionError("middle_row built a CobarComplex")

    monkeypatch.setattr(cobar.CobarComplex, "__init__", refuse)
    report = middle_row(6)
    assert report.equal and sum(report.cobar_dims.values()) == 6889


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """id(node) -> the name of the innermost function holding it."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                owner[id(node)] = func.name  # inner functions come later
    return owner


def test_bad_input_leaves_by_one_door():
    package = Path(operadkit.__file__).parent
    errors = {node.name for path in package.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and node.name.endswith("Error")}
    # the command line: cli.py and the cli_* modules holding its bodies
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("cli*.py"))}
    assert {"cli", "cli_algebra", "cli_strata"} <= set(trees)
    owner = {}
    for tree in trees.values():
        owner.update(_enclosing_functions(tree))
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    handlers = []
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = {sub.id for sub in ast.walk(node.type)
                      if isinstance(sub, ast.Name)}
            for name in sorted(caught & (errors | {"ValueError"})):
                handlers.append((owner.get(id(node)), name,
                                 ast.unparse(node.body[-1])))
    assert sorted(handlers) == [("betti_predict", "StrataError", "sys.exit(1)"),
                                ("main", "InputError", "sys.exit(2)")]

    def callers(match):
        return sorted({owner.get(id(node)) for node in nodes
                       if isinstance(node, ast.Call) and match(node.func)})
    assert callers(lambda f: isinstance(f, ast.Attribute)
                   and f.attr == "read_text") == ["_cache_lookup"]
    assert callers(lambda f: isinstance(f, ast.Name)
                   and f.id == "open") == ["_input_text"]
    assert callers(lambda f: isinstance(f, ast.Name)
                   and f.id == "UsageError") == ["_run", "error", "parse"]
    assert callers(lambda f: isinstance(f, ast.Name)
                   and f.id == "FiltrationError") == ["_filtered_fixture"]
    functions = {(stem, node.name): node for stem, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "_require_desk_scale" not in {name for _, name in functions}
    bodies = [functions[c.callback.__module__.rpartition(".")[2],
                        c.callback.__name__] for c in main.commands.values()]
    assert len(bodies) == len(main.commands) == 15
    assert [body.name for body in bodies
            if any(isinstance(node, ast.Raise) for node in ast.walk(body))
            ] == []


def test_input_errors_share_one_base():
    from operadkit import InputError
    package = Path(operadkit.__file__).parent
    classes = {}
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"operadkit.{path.stem}")
        classes.update({f"{path.stem}.{name}": obj
                        for name, obj in vars(module).items()
                        if name.endswith("Error") and isinstance(obj, type)
                        and obj.__module__ == module.__name__})
    assert "cli.UsageError" in classes and "hoalg.HoalgError" in classes
    outside = sorted(name for name, cls in classes.items()
                     if not issubclass(cls, InputError))
    assert outside == ["qlinalg.ComplexError"]
