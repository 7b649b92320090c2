import struct

import numpy as np
import pytest

from v2vchan.channel import _HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION
from v2vchan.scene import Material, Scene, Surface


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
