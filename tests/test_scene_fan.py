"""The fan occlusion test against the exact Moller-Trumbore batch.

``occlusion_test_fan`` must decide every segment as ``occlusion_test_batch``
does, on the bundled scenes and on hand-built edge cases: segments through
a shared triangle edge or a vertex, an apex in a wall's plane, grazing
segments, segments ending on a surface and a sliver triangle whose
determinant sits at the 1e-14 threshold.  The segments it sends back to
the exact test are counted through the module's ``occlusion_test_batch``.

``occlusion_test_blocks`` must never call a block of tiles hidden when one
of its tiles is unblocked, nor clear when one is blocked.
"""

import numpy as np
import pytest

import v2vchan.scene as scene_mod
from v2vchan.scenarios import intersection_scene, intersection_trajectories
from v2vchan.scene import (Material, Scene, Surface, extrude_footprint, occlusion_test_batch,
                           occlusion_test_blocks, occlusion_test_fan)

MAT = Material("m", 4.0, 0.01, False, 0.5)


def exact(scene, apex, points, toward_apex):
    """``occlusion_test_batch`` on the fan's segments, in small batches."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    apexes = np.broadcast_to(np.asarray(apex, dtype=float), points.shape)
    out = np.zeros(len(points), dtype=bool)
    for a in range(0, len(points), 2048):
        p, o = points[a:a + 2048], apexes[a:a + 2048]
        out[a:a + 2048] = (occlusion_test_batch(scene, p, o) if toward_apex
                           else occlusion_test_batch(scene, o, p))
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """Count of segments the fan test sends back to the exact test."""
    count = [0]

    def counting(scene, starts, ends):
        count[0] += len(np.atleast_2d(starts))
        return occlusion_test_batch(scene, starts, ends)

    monkeypatch.setattr(scene_mod, "occlusion_test_batch", counting)
    return count


def check_fan(scene, apex, points):
    """Both orientations decide as the exact test; returns the decisions."""
    got = []
    for toward in (False, True):
        fan = (occlusion_test_fan(scene, points, apex) if toward
               else occlusion_test_fan(scene, apex, points))
        assert np.array_equal(fan, exact(scene, apex, points, toward)), toward
        got.append(fan)
    return got


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "full"])
def test_bundled_scenes_every_tile(plain, fallbacks):
    scene = intersection_scene(plain)
    _, centers, _, _ = scene.tiles(1.0)
    tx, rx = intersection_trajectories()
    n = 0
    for t in np.linspace(0.0, tx.t[-1], 7)[:6] + 0.37:
        for traj in (tx, rx):
            check_fan(scene, traj.at(t)[0], centers)
            n += 2 * len(centers)
    assert fallbacks[0] < 0.01 * n, f"{fallbacks[0]} of {n} segments fell back"


def rect(x0, x1, y, z0, z1):
    """Rectangle in the plane y = const (two triangles, one diagonal)."""
    return Surface([(x0, y, z0), (x1, y, z0), (x1, y, z1), (x0, y, z1)], MAT)


def test_points_on_shared_edge_and_vertices():
    wall = rect(0.0, 4.0, 0.0, 0.0, 2.0)
    scene = Scene([wall, rect(-10.0, 10.0, 3.0, -5.0, 5.0)])
    diag = np.linspace(0.0, 1.0, 41)[:, None] * np.array([4.0, 0.0, 2.0])
    corners = wall.vertices
    mid_edges = (corners + np.roll(corners, -1, axis=0)) / 2
    on_wall = np.concatenate((diag, corners, mid_edges))
    # ending on the near wall: never blocked by it; beyond it: blocked unless
    # the line only touches the far wall's plane outside it
    beyond = 2 * on_wall - np.array([2.0, -1.5, 1.0])
    front = np.array([2.0, -1.5, 1.0])
    to_wall, _ = check_fan(scene, front, on_wall)
    assert not to_wall.any()
    through, _ = check_fan(scene, front, beyond)
    assert through[1:-1].any()
    # from behind the far wall every segment to the near wall crosses it
    behind, _ = check_fan(scene, np.array([2.0, 6.0, 1.0]), on_wall)
    assert behind.all()


def test_apex_in_a_walls_plane():
    scene = Scene([rect(0.0, 4.0, 0.0, 0.0, 2.0), rect(-3.0, 3.0, 2.0, 0.0, 3.0)])
    rng = np.random.default_rng(1)
    apexes = [np.array([-1.0, 0.0, 1.0]), np.array([6.0, 0.0, 0.5]),
              np.array([2.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0])]
    pts = np.concatenate((rng.uniform(-6, 6, (200, 3)),
                          np.column_stack((rng.uniform(-6, 6, 50), np.zeros(50),
                                           rng.uniform(-1, 3, 50)))))
    for apex in apexes:
        check_fan(scene, apex, pts)


def test_grazing_segments():
    scene = Scene([rect(0.0, 4.0, 0.0, 0.0, 2.0)])
    apex = np.array([-2.0, 0.0, 1.0])
    offsets = np.array([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6])
    pts = np.array([[6.0, dy, z] for dy in offsets for z in (0.0, 1.0, 2.0, 2.0 + 1e-12)])
    check_fan(scene, apex, pts)
    tilted = apex + np.array([8.0, 0.0, 0.0]) + np.outer(offsets, [0.0, 1.0, 0.1])
    check_fan(scene, apex + np.array([0.0, 1e-13, 0.0]), tilted)


def test_segments_ending_on_surfaces():
    scene = intersection_scene(True)
    _, centers, _, _ = scene.tiles(0.5)
    rng = np.random.default_rng(2)
    pts = centers[rng.choice(len(centers), 3000, replace=False)]
    for apex in ([3.5, -20.0, 1.73], [-30.0, -4.25, 1.73], [0.0, 0.0, 40.0]):
        check_fan(scene, np.array(apex), pts)


@pytest.mark.parametrize("scale", [0.7e-7, 1e-7, 1.3e-7, 1e-6])
def test_sliver_triangle_at_the_determinant_threshold(scale):
    # |e1 x e2| = scale**2, so a unit segment's determinant is about 1e-14
    tri = Surface([(0.0, 0.0, 0.0), (scale, 0.0, 0.0), (0.0, scale, 0.0)], MAT)
    scene = Scene([tri])
    apex = np.array([scale / 4, scale / 4, -0.5])
    rng = np.random.default_rng(3)
    dirs = np.column_stack((rng.uniform(-0.3, 0.3, (300, 2)) * scale, np.ones(300)))
    pts = apex + dirs
    pts[::3] += np.array([0.0, 0.0, 0.2])
    hits, _ = check_fan(scene, apex, pts)
    if scale == 1e-6:
        assert hits.any()


def test_degenerate_inputs():
    scene = Scene([rect(0.0, 4.0, 0.0, 0.0, 2.0)])
    apex = np.array([1.0, -1.0, 1.0])
    pts = np.array([apex, [np.nan, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, np.inf, 1.0]])
    with np.errstate(invalid="ignore"):
        blocked, _ = check_fan(scene, apex, pts)
    assert blocked.tolist() == [False, False, True, False]
    assert occlusion_test_fan(scene, apex, np.zeros((0, 3))).shape == (0,)
    assert not occlusion_test_fan(Scene([]), apex, pts).any()
    assert occlusion_test_fan(scene, apex, [1.0, 1.0, 1.0]).tolist() == [True]
    with pytest.raises(ValueError, match="single point"):
        occlusion_test_fan(scene, pts, pts)


def test_random_scenes_points_on_vertices_edges_and_planes():
    """Boxes on a unit grid, random and sliver triangles and tilted quads;
    points and apexes on vertices, edges and triangle planes."""
    rng = np.random.default_rng(4)
    for _ in range(25):
        surfaces = []
        for _ in range(3):
            x0, y0 = rng.integers(-10, 10, 2).astype(float)
            surfaces += extrude_footprint([(x0, y0), (x0 + 3, y0), (x0 + 3, y0 + 2), (x0, y0 + 2)],
                                          float(rng.integers(1, 6)), MAT)
        v = rng.normal(0, 5, (3, 3))
        surfaces.append(Surface(v, MAT))
        surfaces.append(Surface([v[0], v[1], v[0] + 0.5 * (v[1] - v[0]) + 1e-7 * v[2]], MAT))
        c, e1 = rng.normal(0, 5, 3), rng.normal(0, 3, 3)
        e2 = np.cross(e1, rng.normal(0, 1, 3))
        surfaces.append(Surface([c, c + e1, c + e1 + e2, c + e2], MAT))
        scene = Scene(surfaces)
        verts = scene._tri.reshape(-1, 3)
        lam = rng.random((100, 1))
        i, j = rng.integers(len(verts), size=(2, 100))
        on_edges = verts[i] * lam + verts[j] * (1 - lam)
        k = rng.integers(len(scene._tri), size=100)
        in_planes = np.einsum("nk,nkd->nd", rng.dirichlet([1, 1, 1], 100), scene._tri[k])
        pts = np.concatenate((verts, on_edges, in_planes, rng.normal(0, 8, (100, 3)),
                              np.round(rng.normal(0, 8, (100, 3)))))
        t0 = scene._tri[k[0]]
        for apex in (rng.normal(0, 8, 3), verts[i[0]], on_edges[0], in_planes[0],
                     t0[0] + 3.0 * (t0[1] - t0[0]) - 2.0 * (t0[2] - t0[0])):
            check_fan(scene, apex, pts)


def check_blocks(scene, apex, tile_size, oracle=exact):
    """``occlusion_test_blocks`` at every block of the tile table, in both
    orientations, against ``oracle`` on every tile; returns the number of
    blocks with rows found hidden and clear."""
    _, centers, _, _ = scene.tiles(tile_size)
    block, center, radius, _, _, corners, count = scene.tile_blocks(tile_size)
    reach = radius * (1.0 + 1e-9) + 1e-9
    dist = np.linalg.norm(center - apex, axis=1)
    rows = count > 0
    found = np.zeros(2, dtype=int)
    for toward in (False, True):
        hidden, clear = occlusion_test_blocks(scene, apex, corners, dist - reach, dist + reach,
                                              toward)
        assert not (hidden & clear).any()
        blocked = oracle(scene, apex, centers, toward)
        assert blocked[hidden[block]].all(), (apex, toward)
        assert not blocked[clear[block]].any(), (apex, toward)
        found += np.count_nonzero(hidden & rows), np.count_nonzero(clear & rows)
    return found


def fan(scene, apex, points, toward_apex):
    """The fan test, which the tests above hold equal to the exact one."""
    return (occlusion_test_fan(scene, points, apex) if toward_apex
            else occlusion_test_fan(scene, apex, points))


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "full"])
def test_blocks_on_bundled_scenes(plain):
    """Drive positions, and apexes in two walls' plane (y = -8.5) and the
    ground's and 1e-12 m either side, grazing the ground from far away,
    0.2 m from a wall (within a block radius) and inside a block."""
    scene = intersection_scene(plain)
    tx, rx = intersection_trajectories()
    apexes = [traj.at(t)[0] for t in (0.5, 3.0, 4.5) for traj in (tx, rx)]
    for d in (0.0, 1e-12, -1e-12):
        apexes += [np.array([-30.0, -8.5 + d, 1.73]), np.array([-3.0, 20.0, d])]
    apexes += [np.array([-58.0, -4.0, 0.01]), np.array([20.3, -8.3, 2.1]),
               np.array([20.3, -8.5 + 5e-10, 2.1]), np.array([30.0, 30.0, 5.0])]
    found = sum(check_blocks(scene, apex, 1.0, fan) for apex in apexes)
    assert found.min() > 100


def test_blocks_in_shadows_and_planes():
    """Blocks on a wall behind a panel whose shadow edges cross them, with a
    coplanar poster, a sticker 1 nm in front of the wall and the ground,
    from apexes that see it square on, in its plane and 1e-12 m either
    side, and grazing; exact oracle."""
    wall = rect(-15.0, 15.0, 0.0, 0.0, 10.0)
    panel = rect(-9.0, 2.5, 5.0, 2.25, 6.25)
    poster = rect(-5.0, 5.0, 0.0, 2.0, 4.0)
    sticker = rect(6.0, 9.0, 1e-9, 1.0, 5.0)
    ground = Surface([(-40, -40, 0), (40, -40, 0), (40, 40, 0), (-40, 40, 0)], MAT)
    scene = Scene([wall, panel, poster, sticker, ground])
    found = np.zeros(2, dtype=int)
    for apex in ([0.5, 10.0, 5.0], [0.5, -10.0, 5.0], [-20.0, 0.0, 5.0], [-20.0, 1e-12, 5.0],
                 [-20.0, -1e-12, 5.0], [38.0, 0.3, 0.5], [0.0, 12.0, 1e-12]):
        found += check_blocks(scene, np.array(apex), 1.0)
    assert found.min() > 10
