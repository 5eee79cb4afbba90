"""Every private top-level function and class of a pathforge module is named
somewhere in `src/`, `tests/` or `perfbench/` outside its own definition;
one that nothing names is dead code. Names are matched as identifiers,
attributes, imported names and string constants (the benchmark tracer and
`monkeypatch.setattr` name attributes by string), whichever module they
belong to."""

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


def unreferenced_private_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """`module: name` for each private top-level function or class in
    ``modules`` (file name -> source) that neither those sources nor
    ``others`` name outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        reads.update(names_read(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                if reads[node.name] == names_read(node)[node.name]:
                    found.append(f"{module}: {node.name}")
    return sorted(found)


def test_every_private_definition_in_pathforge_is_referenced():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    folders = (ROOT / "tests", ROOT / "perfbench")
    others = [path.read_text() for folder in folders for path in folder.glob("*.py")]
    assert unreferenced_private_definitions(modules, others) == []


def test_unreferenced_private_definitions_found():
    source = (
        "def _dead(n):\n    return _dead(n - 1)\n\n"
        "def _used():\n    pass\n\n"
        "class _Named:\n    pass\n\n"
        "def __getattr__(name):\n    pass\n\n"
        "_used()\n"
    )
    others = ["setattr(module, '_Named', None)\n"]
    assert unreferenced_private_definitions({"m.py": source}, others) == ["m.py: _dead"]
    assert unreferenced_private_definitions({"m.py": source}, []) == ["m.py: _Named", "m.py: _dead"]
