"""Image-method multipath in a street canyon.

Lists every specular path the image method finds between two vehicles in a
14 m canyon, next to the analytic image-lattice lengths, and shows how the
path count grows with the reflection order cap.
"""

import math

import numpy as np

from v2vchan.raytracer import image_method_specular
from v2vchan.scenarios import canyon_scene

WIDTH = 14.0
scene = canyon_scene(WIDTH)
tx = np.array([0.0, 4.0, 1.73])
rx = np.array([60.0, 8.5, 1.73])

print(f"canyon width {WIDTH} m, tx {tx}, rx {rx}\n")
for order in (1, 2, 3, 4):
    paths = image_method_specular(scene, tx, rx, order)
    print(f"max order {order}: {len(paths)} specular paths")
    gain_db = 10.0 * np.log10(paths.gain_linear())
    for sids, order_, length, delay, g in zip(paths.surfaces, paths.order, paths.length,
                                              paths.delay, gain_db):
        walls = "-".join(scene.surfaces[s].tag.split(':')[1] for s in sids[:order_])
        print(f"  order {order_}  via {walls:<24} length {length:9.3f} m  "
              f"delay {delay * 1e9:8.2f} ns  gain {g:7.2f} dB")
    print()

# analytic cross-check for the first-order pair
planar = math.hypot(rx[0] - tx[0], rx[2] - tx[2])
l_south = math.hypot(planar, tx[1] + rx[1])
l_north = math.hypot(planar, 2 * WIDTH - tx[1] - rx[1])
print(f"analytic order-1 lengths: south {l_south:.3f} m, north {l_north:.3f} m")
