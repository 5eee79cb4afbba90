"""The benchmark's tracer wraps pathforge functions by module attribute
name; a rename or deletion of one of them must fail here, not crash a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
