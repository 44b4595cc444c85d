"""Every module-level function and class of the package, and every method
and property of those classes, is read somewhere in the package outside its
own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cohomatlas").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unread_definitions(sources: dict) -> list:
    """The "module.name" of each module-level function or class that no
    module reads by name (a load of the name, or an attribute of that name),
    and the "module.Class.name" of each non-dunder method or property of a
    module-level class that no module reads as an attribute of that name,
    apart from the reads inside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {}  # name -> the "module" or "module.Class" prefixes defining it
    methods = set()  # (prefix, name) of the methods and properties
    inside = set()  # (node id, name of the definition holding it)
    reads = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            defined.setdefault(node.name, []).append(module)
            inside.update((id(sub), node.name) for sub in ast.walk(node))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS[:2]) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        prefix = f"{module}.{node.name}"
                        defined.setdefault(member.name, []).append(prefix)
                        methods.add((prefix, member.name))
                        inside.update((id(sub), member.name) for sub in ast.walk(member))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((id(node), node.id, False))
            elif isinstance(node, ast.Attribute):
                reads.append((id(node), node.attr, True))
    read = {name for node_id, name, _ in reads if (node_id, name) not in inside}
    read_as_attribute = {name for node_id, name, attr in reads
                         if attr and (node_id, name) not in inside}
    return sorted(f"{prefix}.{name}" for name, prefixes in defined.items()
                  for prefix in prefixes
                  if name not in (read_as_attribute if (prefix, name) in methods else read))


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


def test_the_scan_finds_an_unread_method():
    # a method read only inside itself, or only as a bare name, is unread;
    # dunders are exempt, and a property counts as read by attribute
    sources = {
        "a": "class Used:\n"
             "    def __init__(self):\n        self.x = self.size\n\n"
             "    @property\n    def size(self):\n        return 1\n\n"
             "    def dead(self):\n        return self.dead()\n\n"
             "    def shadowed(self):\n        return 1\n\n"
             "    def called(self):\n        return 2\n",
        "b": "from .a import Used\n\nshadowed = 1\nX = Used().called() + shadowed\n",
    }
    assert unread_definitions(sources) == ["a.Used.dead", "a.Used.shadowed"]
