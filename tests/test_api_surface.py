"""The public surface of the package: no helper that only its test uses.

A public top-level function of src/frescos is either library API,
exported through frescos.__all__, or called from somewhere in src/.
A function that neither exports nor calls belongs in the tests that
use it, and an export that nothing in src/ refers to is on the
explicit list of library API.  A private top-level function or class
that nothing in src/ refers to is dead code, and so is a public method
that src/ never reads and the benchmark's tracer does not wrap.  The
layers import downwards only: the engine core (series, algebra, linalg,
fresco, alpha) knows nothing of xi, the oracle, the parser or the
command line.  README's library example runs as written.
"""

import ast
import os

import pytest

import frescos

SRC = os.path.dirname(os.path.abspath(frescos.__file__))
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_oracle_imports_no_engine_code():
    # the oracle checks the engine, so besides the shared elimination
    # kernel and the errors it imports only the types it returns
    allowed = {"linalg": None, "errors": None,
               "algebra": {"AbElement"}, "series": {"SeriesB"}}
    tree = dict(_trees())["oracle.py"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "frescos" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] != "frescos"
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in allowed, node.module
            names = {a.name for a in node.names}
            want = allowed[node.module]
            assert want is None or names <= want, (node.module, names)


@pytest.mark.parametrize("module", ["oracle", "xi"])
def test_one_level_solve_serves_the_oracle_and_xi(module):
    # both annihilators solve level by level and move to normal order
    # through linalg; neither keeps a copy of its own
    tree = dict(_trees())[module + ".py"]
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "linalg" for a in node.names}
    assert {"solve_levels", "normal_order"} <= imported
    assert {"solve_levels", "normal_order"} <= set(_called_names(tree))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not {n for n in defined
                if "solve_levels" in n or "normal_order" in n}
    # the normal-order binomials belong to linalg alone
    assert "comb" not in {a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          for a in node.names}


def test_alpha_reduces_without_the_module_model():
    # the reduction step reads its units off the chain relation; the
    # model, its elements and regeneration serve verify alone
    tree = dict(_trees())["alpha.py"]
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    names = set(_referenced_names(tree))
    for name in ("AdaptedModel", "regenerate_presentation"):
        assert name not in imported | names, name


def _imported_modules(tree):
    """The frescos modules a module imports from, by short name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "frescos" and len(parts) > 1:
                yield parts[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "frescos" and len(parts) > 1:
                    yield parts[1]


@pytest.mark.parametrize("module", ["series", "algebra", "linalg",
                                    "fresco", "alpha", "xi"])
def test_layers_import_only_downwards(module):
    # the engine core knows nothing of expansions, the oracle, parsing
    # or the command line; xi builds on the engine core without alpha
    forbidden = {"oracle", "dsl", "cli"} | \
        ({"alpha"} if module == "xi" else {"xi"})
    tree = dict(_trees())[module + ".py"]
    assert set(_imported_modules(tree)) & forbidden == set()


def test_every_public_function_is_exported_or_called():
    trees = dict(_trees())
    called = {n for tree in trees.values() for n in _called_names(tree)}
    exported = set(frescos.__all__)
    orphans = [
        "%s:%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in called | exported
    ]
    assert orphans == []


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_helper_is_referenced():
    # a module-level dunder function, such as the package's __getattr__,
    # is called by the interpreter, so it counts as referenced
    trees = dict(_trees())
    used = {n for tree in trees.values() for n in _referenced_names(tree)}
    orphans = [
        "%s:%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
        and not (isinstance(node, ast.FunctionDef)
                 and node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert orphans == []


# exports that nothing in src/ refers to: the library form of the
# paper's claims, the rank-2 classification among them, and the parsers
LIBRARY = {
    "__version__",
    "bernstein",
    "classify_rank2",
    "dual_twist_rank2",
    "parse_fresco",
    "parse_series",
    "parse_xi",
    "rank3_alpha_formula",
    "sub_quotient",
    "submodule_analysis",
    "to_json",
    "twist",
}


def test_every_unreferenced_export_is_library_api():
    used = {n for name, tree in _trees() if name != "__init__.py"
            for n in _referenced_names(tree)}
    assert LIBRARY <= set(frescos.__all__)
    assert set(frescos.__all__) - used - LIBRARY == set()


def _traced_methods():
    """perfbench/tracer.py's METHODS, as (class name, method) pairs."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), "tracer.py")
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["METHODS"])
    return {(cls, meth) for classes in table.values()
            for cls, methods in classes.items() for meth in methods}


def test_every_public_method_is_read_in_src_or_traced():
    # a method that only tests call belongs in those tests; the tracer
    # wraps the methods its METHODS names, and its xi hook reads rows
    trees = dict(_trees())
    used = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    allowed = _traced_methods() | {("XiSpan", "rows")}
    orphans = [
        "%s:%s.%s" % (name, cls.name, node.name)
        for name, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
        and (cls.name, node.name) not in allowed
    ]
    assert orphans == []


def test_readme_library_example_runs():
    # each line 'expr  # value' of the example must show value, so a
    # README that names a function src/ no longer has fails here
    with open(README) as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    scope = {}
    shown = 0
    for stmt in ast.parse(block).body:
        want = lines[stmt.end_lineno - 1].partition("  # ")[2]
        if isinstance(stmt, ast.Expr) and want:
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                       scope)
            assert repr(got) == want, ast.unparse(stmt)
            shown += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert shown >= 5
