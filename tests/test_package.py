"""Checks on the package as it ships: its sources and the README's library
example."""

import ast
import glob
import os

from multired.multifraction import format_multifraction

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _package_trees():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "multired", "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_assert_in_package():
    # python -O strips asserts, so a check the package relies on is a raise
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_functions_read_sides_as_module_names():
    # a function reads the sides as monoid's LEFT and RIGHT: Side.LEFT,
    # read off the Enum class, costs about 20 times a module name, on
    # paths that run once per move tried
    def side_member(node):
        if not (isinstance(node, ast.Attribute) and node.attr in ("LEFT", "RIGHT")):
            return False
        owner = node.value
        return (isinstance(owner, ast.Name) and owner.id == "Side") or (
            isinstance(owner, ast.Attribute) and owner.attr == "Side"
        )

    found = set()
    for name, tree in _package_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = fn.body
            elif isinstance(fn, ast.Lambda):
                body = [fn.body]
            else:
                continue
            found |= {
                f"{name}:{node.lineno}"
                for stmt in body
                for node in ast.walk(stmt)
                if side_member(node)
            }
    assert found == set()


def test_readme_library_block():
    # the README's Python example runs, and each value its comments name is
    # the value of its line
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            source = ast.get_source_segment(block, stmt)
            values[source] = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    ctx = namespace["ctx"]
    by_call = {source.split("(", 1)[0]: value for source, value in values.items()}
    assert format_multifraction(ctx, by_call["red.apply_left"]) == "ac/ca/ba"
    sinks = sorted(format_multifraction(ctx, x) for x in by_call["red.reduct_graph"])
    assert sinks == ["ac/ca/ba", "bc/cb/ab"]
    assert by_call["harness.word_problem"]["multifraction"] == "a/b"
