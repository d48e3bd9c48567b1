"""Every function, class and method defined in the package is used by it.

A definition in ``src/biharmfem/*.py`` (``__init__.py`` and dunder names
exempt) must be named somewhere in ``src/``, or be an entry point that the
benchmark's span recorder hooks: a ``TARGETS`` path of ``perfbench/spans.py``,
which is read here as text.  Code that only the tests call belongs in the
tests.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/biharmfem").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, name) of every definition in a module."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                found.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def names_used(tree):
    """Every name the module reads, as a variable, an attribute or an
    import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def hooked_definitions():
    """(module, qualified name) of the definition each trace target
    resolves to."""
    tree = ast.parse((ROOT / "perfbench/spans.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    hooked = set()
    for path, _, _ in targets:
        module_name, _, attr_path = path.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        hooked.add((obj.__module__, obj.__qualname__))
    return hooked


def test_scanner_finds_unnamed_definitions():
    source = ("class A:\n    def used(self): pass\n    def unused(self): pass\n"
              "    def __repr__(self): pass\n"
              "def outer():\n    def inner(): pass\n    return A().used()\n")
    tree = ast.parse(source)
    unnamed = [q for q, name in definitions(tree)
               if name not in names_used(tree) and not name.startswith("__")]
    assert unnamed == ["A.unused", "outer", "outer.inner"]


def test_every_definition_is_used_or_hooked():
    trees = {p: ast.parse(p.read_text()) for p in SOURCES}
    used = set().union(*map(names_used, trees.values()))
    hooked = hooked_definitions()
    dead = [f"{p.name}:{qualname}"
            for p, tree in trees.items() if p.name != "__init__.py"
            for qualname, name in definitions(tree)
            if not name.startswith("__") and name not in used
            and (f"biharmfem.{p.stem}", qualname) not in hooked]
    assert dead == []
