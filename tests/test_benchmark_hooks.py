"""The benchmark imports pathforge names, and its tracer wraps pathforge
functions by module attribute name; a rename or deletion of one of them must
fail here, not crash a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_pathforge_attribute_exists():
    targets = [t for t in _tracer_targets() if t[0].startswith("pathforge.")]
    assert targets
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in targets
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _pathforge_references(path):
    """Dotted pathforge names the file imports or reads, found without
    running it: `from pathforge.x import y` gives pathforge.x.y, and an
    attribute chain such as `pathforge.x.y` gives itself."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "pathforge":
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names = (alias.name for alias in node.names)
            yield from (name for name in names if name.split(".")[0] == "pathforge")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.split(".")[0] == "pathforge":
                yield dotted


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for index, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:index]))
        except ImportError:
            return False
    return True


def test_every_pathforge_name_the_benchmark_uses_exists():
    references = {
        (path.name, dotted)
        for path in sorted(PERFBENCH.glob("*.py"))
        for dotted in _pathforge_references(path)
    }
    assert len({name for _, name in references}) >= 10, references
    assert [ref for ref in sorted(references) if not _resolves(ref[1])] == []
