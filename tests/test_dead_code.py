"""Every module-level function and class of the package is read somewhere in
the package outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cohomatlas").glob("*.py"))


def unread_definitions(sources: dict) -> list:
    """The "module.name" of each module-level function or class that no
    module reads by name (a load of the name, or an attribute of that name),
    apart from the reads inside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}
    inside = set()  # (node id, name of the module-level definition holding it)
    reads = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = defined.get(node.name, []) + [module]
                inside.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((id(node), node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((id(node), node.attr))
    read = {name for node_id, name in reads if (node_id, name) not in inside}
    return sorted(f"{module}.{name}" for name, modules in defined.items() if name not in read
                  for module in modules)


def test_every_definition_in_the_package_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_definitions(sources) == []


def test_the_scan_finds_an_unread_definition():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef dead():\n    return dead()\n\n\n"
             "class Dead:\n    pass\n",
        "b": "from .a import used\n\nX = used()\n",
    }
    assert unread_definitions(sources) == ["a.Dead", "a.dead"]
