"""Every top-level function and class of a pathforge module is named outside
its own definition; one that nothing names is dead code.

- A private one must be named somewhere in `src/`, `tests/` or `perfbench/`.
- A public one must be named in `src/` or `perfbench/`: a public helper that
  only tests call is dead API. `__init__.py` names each export of
  `pathforge.__all__` as a string, so an export counts as named.

Names are matched as identifiers, attributes, imported names and string
constants (the benchmark tracer and `monkeypatch.setattr` name attributes
by string), whichever module they belong to."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathforge"


def names_read(tree: ast.AST) -> Counter:
    """How often each identifier or string occurs in the tree as a name, an
    attribute, an imported name or a string constant."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced_definitions(
    modules: dict[str, str], others: list[str], private: bool = True
) -> list[str]:
    """`module: name` for each private (or, with ``private`` false, public)
    top-level function or class in ``modules`` (file name -> source) that
    neither those sources nor ``others`` name outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        reads.update(names_read(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name.startswith("_") != private:
                continue
            if reads[node.name] == names_read(node)[node.name]:
                found.append(f"{module}: {node.name}")
    return sorted(found)


def sources(folder: Path) -> list[str]:
    return [path.read_text() for path in sorted(folder.glob("*.py"))]


def test_every_private_definition_in_pathforge_is_referenced():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = sources(ROOT / "tests") + sources(ROOT / "perfbench")
    assert unreferenced_definitions(modules, others) == []


def test_every_public_definition_in_pathforge_is_used_outside_tests():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(modules, sources(ROOT / "perfbench"), private=False) == []


def test_unreferenced_private_definitions_found():
    source = (
        "def _dead(n):\n    return _dead(n - 1)\n\n"
        "def _used():\n    pass\n\n"
        "class _Named:\n    pass\n\n"
        "def __getattr__(name):\n    pass\n\n"
        "_used()\n"
    )
    others = ["setattr(module, '_Named', None)\n"]
    assert unreferenced_definitions({"m.py": source}, others) == ["m.py: _dead"]
    assert unreferenced_definitions({"m.py": source}, []) == ["m.py: _Named", "m.py: _dead"]


def test_unreferenced_public_definitions_found():
    source = (
        "__all__ = ['exported']\n\n"
        "def exported():\n    pass\n\n"
        "def helper(n):\n    return helper(n - 1)\n\n"
        "def used():\n    pass\n\n"
        "class Shape:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "used()\n"
    )
    others = ["from m import Shape\n"]
    found = unreferenced_definitions({"m.py": source}, others, private=False)
    assert found == ["m.py: helper"]
    found = unreferenced_definitions({"m.py": source}, [], private=False)
    assert found == ["m.py: Shape", "m.py: helper"]
