"""Every function the benchmark's span tracer wraps still exists.

``perfbench/tracer.py`` looks its targets up by name and reports a missing
one as absent, so a rename under ``src/`` would only show as a layer that
reads 0 in traced runs.  Here each target is resolved the way the tracer
resolves it, from the module's own namespace, and must be callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("key, module_name, path",
                         [t[:3] for t in TARGETS],
                         ids=[f"{t[1]}:{t[2]}" for t in TARGETS])
def test_target_resolves_to_callable(key, module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    assert callable(vars(owner).get(attr)), f"{key}: {module_name}.{path} is gone"
