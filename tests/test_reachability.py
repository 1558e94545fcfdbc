"""Every module-level definition in the package is reached by the program.

A `def` or `class` at module level of `src/cutstack/<module>.py` (the
package `__init__` aside) counts as reached when its name is referenced
from another package module, from its own module outside its own body,
or from a benchmark script `perfbench/*.py` (that directory only, not its
subdirectories).  A reference is an AST `Name`, an `Attribute` or a name
imported by `from ... import`.  A decorated definition counts as reached,
since its decorator registers it.  The package `__init__` does not count:
an export alone is not a use.

The scan matches by bare name, so it cannot see a module function that
shares its name with an attribute used elsewhere: a module-level
`difference` function would look reached through the `IntervalUnion`
method of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cutstack"


def _references(tree, skip=None):
    """Names referenced in `tree`, not descending into the node `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreached_definitions():
    """(module, name) of each module-level definition nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    external = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        external |= _references(ast.parse(path.read_text()))
    by_module = {name: _references(tree) for name, tree in trees.items()}
    unreached = []
    for module, tree in trees.items():
        elsewhere = set(external)
        for other, names in by_module.items():
            if other != module:
                elsewhere |= names
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.decorator_list or node.name in elsewhere:
                continue
            if node.name not in _references(tree, skip=node):
                unreached.append((module, node.name))
    return unreached


def test_every_package_definition_is_reached():
    assert unreached_definitions() == []
