import struct

import numpy as np
import pytest

from v2vchan.channel import _HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION
from v2vchan.scene import (DEFAULT_MATERIALS, INTERSECT_TOL, Material, Scene, Surface,
                           extrude_footprint)
from v2vchan.scenarios import ground_surface


@pytest.fixture
def concrete():
    return Material("concrete", 5.0, 0.01, False, 0.4)


@pytest.fixture
def pec():
    return Material("metal", 1.0, 0.0, True, 0.1)


def big_wall(y: float, material: Material, normal_sign: int = 1,
             extent: float = 1000.0, tag: str = "wall") -> Surface:
    """Large vertical wall in the plane y=const; normal along +/-y."""
    e = extent
    if normal_sign > 0:
        verts = [(-e, y, -e), (-e, y, e), (e, y, e), (e, y, -e)]
    else:
        verts = [(-e, y, -e), (e, y, -e), (e, y, e), (-e, y, e)]
    return Surface(verts, material, tag=tag)


@pytest.fixture
def single_wall_scene(pec):
    return Scene([big_wall(0.0, pec)])


def reference_contains(surface: Surface, points, strict: bool = True) -> np.ndarray:
    """Point-in-polygon oracle: the crossing-number loop over one surface's
    edges that ``Surface.contains`` ran before the scene-wide kernel.

    Points are projected into the surface's in-plane frame with one matrix
    product per axis; a point within ``INTERSECT_TOL`` of an edge is
    rejected with ``strict`` and accepted without.
    """
    e_u, e_v = surface._frame
    rel = np.atleast_2d(np.asarray(points, dtype=float)) - surface.vertices[0]
    x, y = rel @ e_u, rel @ e_v
    poly = surface._poly2d
    inside = np.zeros(len(rel), dtype=bool)
    on_edge = np.zeros(len(rel), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        # distance of each point to the (finite) edge
        ex, ey = x2 - x1, y2 - y1
        el2 = ex * ex + ey * ey
        tseg = np.clip(((x - x1) * ex + (y - y1) * ey) / el2, 0.0, 1.0)
        dx, dy = x - (x1 + tseg * ex), y - (y1 + tseg * ey)
        on_edge |= dx * dx + dy * dy < INTERSECT_TOL * INTERSECT_TOL
        crosses = ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * ex / np.where(ey == 0, np.inf, ey))
        inside ^= crosses
    if strict:
        return inside & ~on_edge
    return inside | on_edge


def l_roof_scene() -> Scene:
    """An L-shaped block (six walls and a concave six-vertex roof), a
    triangular sign and the ground: polygons of 3, 4 and 6 vertices, so the
    point-in-polygon table pads the shorter ones with NaN edges."""
    concrete, metal = DEFAULT_MATERIALS["concrete"], DEFAULT_MATERIALS["metal"]
    block = extrude_footprint([(0, 0), (20, 0), (20, 8), (8, 8), (8, 20), (0, 20)], 6.0,
                              concrete, tag="L")
    sign = Surface([(12, -4, 0.5), (18, -4, 0.5), (15, -4, 4.5)], metal, tag="sign")
    return Scene(block + [sign, ground_surface(60.0)])


#: Tensor file header fields in file order, with the values of a valid
#: 4 x 1 x 1 x 8 delay-domain tensor.
TENSOR_HEADER = {"magic": TENSOR_MAGIC, "version": TENSOR_VERSION, "domain": 0,
                 "m_rx": 1, "m_tx": 1, "n_time": 4, "n_bins": 8, "t0": 0.0,
                 "dt": 307.2e-6, "bin0": 0.0, "dbin": 1 / 240e6, "carrier": 5.9e9}


@pytest.fixture(scope="session")
def write_tensor():
    """Writer of tensor files with chosen header fields.  The payload defaults
    to as many complex64 ones as the header's dimensions ask for."""
    def write(path, payload=None, **header):
        fields = {**TENSOR_HEADER, **header}
        if payload is None:
            n = fields["n_time"] * fields["m_rx"] * fields["m_tx"] * fields["n_bins"]
            payload = np.ones(n, dtype=np.complex64).tobytes()
        path.write_bytes(struct.pack(_HEADER_FMT, *fields.values()) + payload)
        return path
    return write
