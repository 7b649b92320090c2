"""Every benchmark workload passes its own output check at the default seed.

``perfbench/workloads.py`` checks each operation's output against
``perfbench/reference.json`` and counts a mismatch as a failed operation, so
a change that broke, say, path-set row iteration or the path-dump format
would only show up as failed benchmark operations.  Here each workload runs
once at the default seed and full size, loaded from the file as it stands,
and its check must report no problems.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    wl = WORKLOADS.WORKLOADS[name]
    state = wl.setup(WORKLOADS.DEFAULT_SEED, tmp_path, "full")
    out = wl.run(state)
    assert wl.check(state, out, REFERENCE[name]) == []
