"""Checks on the package as it ships: its sources and the README's library
example."""

import ast
import glob
import os

from multired.multifraction import format_multifraction

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_no_assert_in_package():
    # python -O strips asserts, so a check the package relies on is a raise
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "multired", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


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
