"""Every name a pathforge module imports is used in it, exported through
`__all__`, or wrapped by the benchmark tracer under that module's name."""

import ast
from pathlib import Path

from test_benchmark_hooks import _tracer_targets

SRC = Path(__file__).resolve().parent.parent / "src" / "pathforge"


def unused_imports(source: str, exempt: frozenset[str] = frozenset()) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exempt
    )


def test_no_unused_imports_in_pathforge():
    traced = {(module, attribute) for module, attribute, _ in _tracer_targets()}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = "pathforge" if path.stem == "__init__" else f"pathforge.{path.stem}"
        exempt = frozenset(attribute for name, attribute in traced if name == module)
        unused = unused_imports(path.read_text(), exempt)
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_imports_found():
    source = "from .ast import Label, walk\nimport os.path\n__all__ = ['Label']\n"
    assert unused_imports(source) == ["line 1: walk", "line 2: os"]
    assert unused_imports(source, frozenset({"walk", "os"})) == []
