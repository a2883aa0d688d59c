"""The public surface of the package: no helper that only its test uses.

A public top-level function of src/frescos is either library API,
exported through frescos.__all__, or called from somewhere in src/.
A function that neither exports nor calls belongs in the tests that
use it.  A private top-level function or class that nothing in src/
refers to is dead code.
"""

import ast
import os

import frescos

SRC = os.path.dirname(os.path.abspath(frescos.__file__))


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
    trees = dict(_trees())
    used = {n for tree in trees.values() for n in _referenced_names(tree)}
    orphans = [
        "%s:%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert orphans == []
