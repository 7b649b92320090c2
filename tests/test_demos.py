"""The fast demos run end to end as scripts.

Each demo runs in a fresh working directory, since ``02`` writes
``two_ray.csv`` (and ``two_ray.png`` when matplotlib is installed) there.
``04`` is left out: it takes minutes, and criterion 7 of the acceptance
suite runs the same trace -> synthesize -> analyze chain.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_free_space_and_friis", "02_two_ray_ground",
                                  "03_canyon_images", "05_antenna_patterns"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
