"""Level-wise, pruned image tree against the recursive reference enumerator.

The reference is the depth-first search that ``image_method_specular`` used
before it built the image tree as arrays: every surface sequence without an
immediate repeat is expanded (no visibility pruning), and each one's
reflection points are back-substituted one sequence and one point-in-polygon
test at a time.  Both sides hand their (sequence, points) candidates to the
same ``_specular_paths`` stage (occlusion batch, polarimetric chain and the
(order, length) sort), so what is compared is the enumeration: the path
lists must agree in order, surface sequence and value.
"""

import numpy as np
import pytest

from v2vchan.raytracer import (MAX_SPECULAR_ORDER, TracerConfig, _endpoints, _specular_paths,
                               image_method_specular, trace_los, trace_snapshot)
from v2vchan.scene import DEFAULT_MATERIALS, Scene, extrude_footprint
from v2vchan.scenarios import (ANTENNA_HEIGHT, EW_STREET_WIDTH, NS_STREET_WIDTH,
                               ground_surface, intersection_scene,
                               intersection_trajectories)

F = 5.9e9
REL = 1e-12
LOS_FLIP_T = 4.0528  # the bundled trajectories' NLOS -> LOS flip, to 0.1 ms


def _mirror(p, normal, offset):
    return p - 2.0 * (p @ normal - offset) * normal


def _solve_reflection_points(scene, tx, rx, seq, images, normals, offsets):
    """Back-substitute reflection points for one surface sequence, or None."""
    pts = [rx]
    cur = rx
    for j in range(len(seq), 0, -1):
        sid = seq[j - 1]
        n, off = normals[sid], offsets[sid]
        img_j = images[j]  # tx mirrored through the first j surfaces
        denom = float(n @ (cur - img_j))
        if abs(denom) < 1e-12:
            return None
        t = (off - float(n @ img_j)) / denom
        if not 1e-12 < t < 1.0 - 1e-12:
            return None
        q = img_j + t * (cur - img_j)
        if not scene.surfaces[sid].contains(q[None, :], strict=True)[0]:
            return None
        pts.append(q)
        cur = q
    pts.append(tx)
    pts.reverse()  # [tx, q_1, ..., q_k, rx]
    for j, sid in enumerate(seq):
        n = normals[sid]
        q = pts[j + 1]
        if (pts[j] - q) @ n <= 1e-12 or (pts[j + 2] - q) @ n <= 1e-12:
            return None
    return pts


def reference_specular(scene, tx, rx, max_order, frequency=F):
    tx, rx = _endpoints(tx, rx)
    n_surf = len(scene.surfaces)
    normals = [s.normal for s in scene.surfaces]
    offsets = [s.plane_offset for s in scene.surfaces]
    candidates = []

    def expand(seq, images):
        order = len(seq)
        if order >= 1:
            pts = _solve_reflection_points(scene, tx, rx, seq, images, normals, offsets)
            if pts is not None:
                candidates.append((seq, pts))
        if order == max_order:
            return
        for sid in range(n_surf):
            if seq and sid == seq[-1]:
                continue
            img = _mirror(images[-1], normals[sid], offsets[sid])
            expand(seq + (sid,), images + [img])

    expand((), [tx])
    return _specular_paths(scene, candidates, frequency)


def _key(p) -> tuple:
    return (p.kind, tuple(sid for sid, _ in p.interactions), p.tile)


def _assert_same(got, want):
    assert [_key(p) for p in got] == [_key(p) for p in want]
    for g, w in zip(got, want):
        assert g.length == pytest.approx(w.length, rel=REL, abs=0)
        assert np.allclose(g.amplitude, w.amplitude, rtol=REL, atol=0)
        for (_, qg), (_, qw) in zip(g.interactions, w.interactions):
            assert np.allclose(qg, qw, rtol=0, atol=1e-12)


def _intersection_placements():
    """Six placements across the LOS flip, then seeded random street positions."""
    tx_traj, rx_traj = intersection_trajectories()
    out = [(tx_traj.at(t)[0], rx_traj.at(t)[0])
           for t in LOS_FLIP_T + np.array([-0.5, -0.05, -0.005, 0.005, 0.05, 0.5])]
    rng = np.random.default_rng(2024)
    ey, ex = EW_STREET_WIDTH / 2.0, NS_STREET_WIDTH / 2.0
    for _ in range(4):
        tx = (rng.uniform(-55.0, -ex), rng.uniform(-ey + 1, ey - 1), rng.uniform(1.0, 3.0))
        rx = (rng.uniform(-ex + 1, ex - 1), rng.uniform(-55.0, 55.0), rng.uniform(1.0, 3.0))
        out.append((np.array(tx), np.array(rx)))
    return out


PLACEMENTS = _intersection_placements()


@pytest.fixture(scope="module")
def intersection():
    return intersection_scene(plain=True)


@pytest.fixture(scope="module")
def order3_reference(intersection):
    return [reference_specular(intersection, tx, rx, 3) for tx, rx in PLACEMENTS]


@pytest.mark.parametrize("case", range(len(PLACEMENTS)))
def test_intersection_orders_1_to_3(intersection, order3_reference, case):
    tx, rx = PLACEMENTS[case]
    want3 = order3_reference[case]
    for order in (1, 2, 3):
        # the reference's candidates of order <= k do not depend on max_order
        want = [p for p in want3 if p.order <= order]
        _assert_same(image_method_specular(intersection, tx, rx, order, F), want)


def test_placements_straddle_the_los_flip(intersection, order3_reference):
    los = [trace_los(intersection, tx, rx, F) is not None for tx, rx in PLACEMENTS[:6]]
    assert los == [False] * 3 + [True] * 3
    assert sum(p.order == 3 for paths in order3_reference for p in paths) >= len(PLACEMENTS)


def test_order_4_courtyard_block_over_ground():
    # a U-shaped block has two parallel facing walls, so fourth-order chains
    # between them and the ground exist
    concrete = DEFAULT_MATERIALS["concrete"]
    block = extrude_footprint([(0, 0), (40, 0), (40, 30), (30, 30), (30, 10), (10, 10),
                               (10, 30), (0, 30)], 12.0, concrete, tag="U")
    scene = Scene(block + [ground_surface(80.0)], ground=len(block))
    rng = np.random.default_rng(7)
    for _ in range(3):
        tx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), ANTENNA_HEIGHT])
        rx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), rng.uniform(1.0, 3.0)])
        want = reference_specular(scene, tx, rx, 4)
        assert any(p.order == 4 for p in want)
        _assert_same(image_method_specular(scene, tx, rx, 4, F), want)


def test_empty_scene_returns_no_paths():
    got = image_method_specular(Scene([]), (0, 0, 1), (10, 0, 1), 4, F)
    shapes = {"kind": (0,), "surfaces": (0, MAX_SPECULAR_ORDER),
              "points": (0, MAX_SPECULAR_ORDER, 3), "tile": (0,), "length": (0,),
              "amplitude": (0, 2, 2), "departure": (0, 3), "arrival": (0, 3)}
    assert {name: getattr(got, name).shape for name in shapes} == shapes
    assert got.amplitude.dtype == complex and got.surfaces.dtype.kind == "i"
    assert len(reference_specular(Scene([]), (0, 0, 1), (10, 0, 1), 4)) == 0
    los = trace_snapshot(Scene([]), (0, 0, 1), (10, 0, 1), TracerConfig(frequency=F))
    assert [(p.kind, p.order, p.interactions, p.tile) for p in los] == [("los", 0, (), None)]
    assert los.surfaces.tolist() == [[-1] * MAX_SPECULAR_ORDER] and los.tile.tolist() == [-1]
