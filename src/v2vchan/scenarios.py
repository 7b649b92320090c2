"""Built-in scenes: the bundled four-way intersection plus oracle setups.

The intersection approximates the measured urban crossroads: perpendicular
street canyons 17 m (east-west) and 14 m (north-south) wide, four building
blocks extruded to 15 m, asphalt ground, and optional roadside clutter
(parked cars as metal boxes, lamp posts as thin metal prisms).  Two vehicles
approach the corner at 10 m/s, one from the west and one from the south, so
the line of sight clears exactly once, at about t = 4 s into the 6 s run.

The clutter dimensions are assumptions, not survey data: cars are
4.5 x 1.8 x 1.5 m, posts 0.2 m wide and 8 m tall.

The bundled files ``data/intersection_plain.json``, ``data/intersection.json``
and ``data/{tx,rx}_trajectory.csv`` are the scenario's only definition: the
library functions below load them, as the CLI does.  Change the scenario by
editing those files and check the scenes with ``v2vchan scene-validate``.
The constants below describe those files; the tests check them against
the files.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .scene import (DEFAULT_MATERIALS, Material, Scene, Surface, Trajectory, load_scene,
                    load_trajectory)

EW_STREET_WIDTH = 17.0
NS_STREET_WIDTH = 14.0
GROUND_EXTENT = 60.0
ANTENNA_HEIGHT = 1.73


def data_path(name: str) -> Path:
    """Path of a bundled data file (scene JSON or trajectory CSV)."""
    return Path(importlib.resources.files("v2vchan").joinpath("data", name))


def ground_surface(extent: float = GROUND_EXTENT,
                   material: Material | None = None) -> Surface:
    m = material or DEFAULT_MATERIALS["asphalt"]
    e = extent
    return Surface([(-e, -e, 0), (e, -e, 0), (e, e, 0), (-e, e, 0)], m, tag="ground")


def intersection_scene(plain: bool = True) -> Scene:
    """Four corner blocks around perpendicular street canyons.

    ``plain=True`` keeps only buildings and ground (the configuration used
    for gain analysis); ``plain=False`` adds parked cars and lamp posts.
    """
    return load_scene(data_path("intersection_plain.json" if plain else "intersection.json"))


def intersection_trajectories() -> tuple[Trajectory, Trajectory]:
    """TX eastbound on the EW street, RX northbound on the NS street, 6 s at 0.5 s."""
    return (load_trajectory(data_path("tx_trajectory.csv")),
            load_trajectory(data_path("rx_trajectory.csv")))


def canyon_scene(width: float, length: float = 1000.0, height: float = 1000.0,
                 material: Material | None = None) -> Scene:
    """Two parallel vertical walls at y = 0 and y = width, facing each other.

    Oversized walls keep every low-order image-method reflection point
    interior, which the image-lattice oracle assumes.
    """
    m = material or DEFAULT_MATERIALS["metal"]
    half = length / 2.0
    wall_a = Surface([(-half, 0, 0), (-half, 0, height), (half, 0, height), (half, 0, 0)],
                     m, tag="canyon:south")
    wall_b = Surface([(-half, width, 0), (half, width, 0), (half, width, height),
                      (-half, width, height)], m, tag="canyon:north")
    return Scene([wall_a, wall_b])


def single_wall_scene(material: Material | None = None, extent: float = 1000.0,
                      height: float = 1000.0) -> Scene:
    """One large wall in the plane y = 0 with its normal along +y."""
    m = material or DEFAULT_MATERIALS["metal"]
    wall = Surface([(-extent, 0, -height), (-extent, 0, height), (extent, 0, height),
                    (extent, 0, -height)], m, tag="wall")
    return Scene([wall])


def pec_ground_scene(extent: float = 500.0) -> Scene:
    """Infinite-ish PEC ground plane at z = 0 for the two-ray oracle."""
    return Scene([ground_surface(extent, DEFAULT_MATERIALS["metal"])])


def free_space_scene() -> Scene:
    """No surfaces at all: pure free-space propagation."""
    return Scene([])
