"""Built-in scenes: the synthetic four-way intersection plus oracle setups.

The intersection approximates the measured urban crossroads: perpendicular
street canyons 17 m (east-west) and 14 m (north-south) wide, four building
blocks extruded to 15 m, asphalt ground, and optional roadside clutter
(parked cars as metal boxes, lamp posts as thin metal prisms).  Two vehicles
approach the corner at 10 m/s, one from the west and one from the south, so
the line of sight clears exactly once, at about t = 4 s into the 6 s run.

The clutter dimensions are assumptions, not survey data: cars are
4.5 x 1.8 x 1.5 m, posts 0.2 m wide and 8 m tall.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .scene import (DEFAULT_MATERIALS, Material, Scene, Surface, Trajectory,
                    extrude_footprint, straight_trajectory)

EW_STREET_WIDTH = 17.0
NS_STREET_WIDTH = 14.0
BUILDING_HEIGHT = 15.0
BLOCK_SIZE = 45.0
GROUND_EXTENT = 60.0
APPROACH_SPEED = 10.0
RUN_DURATION = 6.0
ANTENNA_HEIGHT = 1.73


def data_path(name: str) -> Path:
    """Path of a bundled data file (scene JSON or trajectory CSV)."""
    return Path(importlib.resources.files("v2vchan").joinpath("data", name))


def ground_surface(extent: float = GROUND_EXTENT,
                   material: Material | None = None) -> Surface:
    m = material or DEFAULT_MATERIALS["asphalt"]
    e = extent
    return Surface([(-e, -e, 0), (e, -e, 0), (e, e, 0), (-e, e, 0)], m, tag="ground")


def _box_surfaces(center, size, height_range, material, tag) -> list[Surface]:
    """Axis-aligned box (walls + top) used for parked cars."""
    cx, cy = center
    hx, hy = size[0] / 2.0, size[1] / 2.0
    z0, z1 = height_range
    fp = [(cx - hx, cy - hy), (cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy)]
    out = []
    for i in range(4):
        p0, p1 = fp[i], fp[(i + 1) % 4]
        out.append(Surface([(p0[0], p0[1], z0), (p1[0], p1[1], z0),
                            (p1[0], p1[1], z1), (p0[0], p0[1], z1)], material,
                           tag=f"{tag}:wall{i}"))
    out.append(Surface([(p[0], p[1], z1) for p in fp], material, tag=f"{tag}:top"))
    return out


def parked_car(center, along_x: bool = True,
               material: Material | None = None, tag: str = "car") -> list[Surface]:
    m = material or DEFAULT_MATERIALS["metal"]
    size = (4.5, 1.8) if along_x else (1.8, 4.5)
    return _box_surfaces(center, size, (0.0, 1.5), m, tag)


def lamp_post(center, material: Material | None = None, tag: str = "post") -> list[Surface]:
    m = material or DEFAULT_MATERIALS["metal"]
    return _box_surfaces(center, (0.2, 0.2), (0.0, 8.0), m, tag)


def intersection_scene(plain: bool = True) -> Scene:
    """Four corner blocks around perpendicular street canyons.

    ``plain=True`` keeps only buildings and ground (the configuration used
    for gain analysis); ``plain=False`` adds parked cars and lamp posts.
    """
    concrete = DEFAULT_MATERIALS["concrete"]
    ey = EW_STREET_WIDTH / 2.0    # building face offset north/south of x axis
    ex = NS_STREET_WIDTH / 2.0    # building face offset east/west of y axis
    b = BLOCK_SIZE
    surfaces: list[Surface] = []
    corners = {
        "ne": [(ex, ey), (ex + b, ey), (ex + b, ey + b), (ex, ey + b)],
        "nw": [(-ex - b, ey), (-ex, ey), (-ex, ey + b), (-ex - b, ey + b)],
        "sw": [(-ex - b, -ey - b), (-ex, -ey - b), (-ex, -ey), (-ex - b, -ey)],
        "se": [(ex, -ey - b), (ex + b, -ey - b), (ex + b, -ey), (ex, -ey)],
    }
    for name, fp in corners.items():
        surfaces.extend(extrude_footprint(fp, BUILDING_HEIGHT, concrete, tag=f"block_{name}"))
    if not plain:
        surfaces.extend(parked_car((-20.0, 6.0), along_x=True, tag="car_w"))
        surfaces.extend(parked_car((5.25, -20.0), along_x=False, tag="car_s"))
        surfaces.extend(lamp_post((-ex - 0.6, ey + 0.6), tag="post_nw"))
        surfaces.extend(lamp_post((ex + 0.6, -ey - 0.6), tag="post_se"))
    ground = ground_surface()
    surfaces.append(ground)
    return Scene(surfaces, ground=len(surfaces) - 1)


def intersection_trajectories(duration: float = RUN_DURATION,
                              dt: float = 0.5) -> tuple[Trajectory, Trajectory]:
    """TX eastbound on the EW street, RX northbound on the NS street."""
    tx = straight_trajectory((-55.0, -4.25, ANTENNA_HEIGHT), heading_deg=0.0,
                             speed=APPROACH_SPEED, duration=duration, dt=dt,
                             antenna_height=ANTENNA_HEIGHT)
    rx = straight_trajectory((3.5, -55.0, ANTENNA_HEIGHT), heading_deg=90.0,
                             speed=APPROACH_SPEED, duration=duration, dt=dt,
                             antenna_height=ANTENNA_HEIGHT)
    return tx, rx


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
    m = DEFAULT_MATERIALS["metal"]
    g = Surface([(-extent, -extent, 0), (extent, -extent, 0), (extent, extent, 0),
                 (-extent, extent, 0)], m, tag="ground")
    return Scene([g], ground=0)


def free_space_scene() -> Scene:
    """No surfaces at all: pure free-space propagation."""
    return Scene([])
