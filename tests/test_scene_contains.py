"""The scene-wide point-in-polygon kernel against the per-edge loop.

``Scene.contains`` decides every (point, surface id) pair in one pass over
a padded edge table.  Its decisions, and those of ``Surface.contains`` (the
one-surface case), must equal ``conftest.reference_contains`` under both
boundary rules on the bundled scenes and on a scene whose polygons have 3,
4 and 6 vertices: every tile-grid candidate centre, every vertex and edge
midpoint, and points on edges and 1e-9 m and 2e-9 m off them.
"""

import math

import numpy as np
import pytest

from conftest import l_roof_scene, reference_contains
from v2vchan.scenarios import intersection_scene
from v2vchan.scene import DEFAULT_MATERIALS, INTERSECT_TOL, Scene, Surface

SCENES = {"plain": lambda: intersection_scene(plain=True),
          "furnished": lambda: intersection_scene(plain=False),
          "l_roof": l_roof_scene}
TILE_SIZES = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module", params=list(SCENES))
def scene(request):
    return SCENES[request.param]()


def grid_candidates(surface, tile_size):
    """Every grid-cell centre of the surface's tiling, inside or outside."""
    poly = surface._poly2d
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    nu = max(1, int(math.ceil((hi[0] - lo[0]) / tile_size)))
    nv = max(1, int(math.ceil((hi[1] - lo[1]) / tile_size)))
    u = lo[0] + (np.arange(nu) + 0.5) * (hi[0] - lo[0]) / nu
    v = lo[1] + (np.arange(nv) + 0.5) * (hi[1] - lo[1]) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    e_u, e_v = surface._frame
    return surface.vertices[0] + np.outer(uu.ravel(), e_u) + np.outer(vv.ravel(), e_v)


def edge_points(surface, offsets):
    """Points along every edge, moved in the plane perpendicular to the
    edge by each of ``offsets`` (metres, both signs)."""
    v = surface.vertices
    a, b = v, np.roll(v, -1, axis=0)
    side = np.cross(surface.normal, b - a)
    side /= np.linalg.norm(side, axis=1)[:, None]
    along = a[:, None] + np.array([0.0, 0.1, 0.37, 0.5, 0.9])[None, :, None] * (b - a)[:, None]
    out = [along + d * side[:, None] for d in offsets]
    return np.concatenate(out).reshape(-1, 3)


def vertices_and_midpoints(surface):
    v = surface.vertices
    return np.concatenate((v, 0.5 * (v + np.roll(v, -1, axis=0))))


def check(scene, point_sets):
    """Kernel, one-surface case and oracle agree on per-surface point
    sets under both rules; returns the oracle's decisions."""
    sids = np.concatenate([np.full(len(p), i) for i, p in enumerate(point_sets)]).astype(int)
    pts = np.concatenate([np.zeros((0, 3)), *point_sets])
    decided = {}
    for strict in (True, False):
        want = np.concatenate([np.zeros(0, dtype=bool)] + [
            reference_contains(s, p, strict) for s, p in zip(scene.surfaces, point_sets)])
        got = scene.contains(sids, pts, strict=strict)
        assert got.dtype == bool and np.array_equal(got, want), strict
        one = np.concatenate([np.zeros(0, dtype=bool)] + [
            s.contains(p, strict=strict) for s, p in zip(scene.surfaces, point_sets)])
        assert np.array_equal(one, want), strict
        decided[strict] = want
    return decided


@pytest.mark.parametrize("tile_size", TILE_SIZES)
def test_every_grid_candidate(scene, tile_size):
    decided = check(scene, [grid_candidates(s, tile_size) for s in scene.surfaces])
    assert decided[True].any()


def test_l_roof_grid_has_outside_candidates():
    scene = l_roof_scene()
    roof = scene.surfaces[6]
    inside = reference_contains(roof, grid_candidates(roof, 1.0), strict=False)
    assert 0 < inside.sum() < len(inside)    # the notch is outside


@pytest.mark.parametrize("tile_size", TILE_SIZES)
def test_tile_table_follows_the_oracle(scene, tile_size):
    parts = [(np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0, dtype=int))]
    for sid, s in enumerate(scene.surfaces):
        cand = grid_candidates(s, tile_size)
        ids = np.flatnonzero(reference_contains(s, cand, strict=False))
        parts.append((np.full(len(ids), sid), cand[ids], ids))
    want = [np.concatenate(col) for col in zip(*parts)]
    sids, centers, _, ids = scene.tiles(tile_size)
    assert np.array_equal(sids, want[0]) and np.array_equal(ids, want[2])
    assert np.array_equal(centers, want[1])


def test_vertices_and_edge_midpoints(scene):
    decided = check(scene, [vertices_and_midpoints(s) for s in scene.surfaces])
    assert not decided[True].any() and decided[False].all()


def test_points_on_and_near_edges(scene):
    on = check(scene, [edge_points(s, (0.0,)) for s in scene.surfaces])
    assert not on[True].any() and on[False].all()
    offsets = (INTERSECT_TOL, -INTERSECT_TOL, 2 * INTERSECT_TOL, -2 * INTERSECT_TOL)
    near = check(scene, [edge_points(s, offsets) for s in scene.surfaces])
    assert near[True].any() and not near[False].all()


def test_tilted_polygon():
    # a frame off the coordinate axes rounds the projection differently in
    # the kernel's row sums and the oracle's matrix products, so points
    # exactly INTERSECT_TOL from an edge are left out; 2e-9 m is far clear
    rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    pentagon = np.array([(0, 0, 0), (6, 0, 0), (7, 4, 0), (3, 7, 0), (-1, 4, 0)], dtype=float)
    surface = Surface(pentagon @ rot.T + (3.0, -2.0, 1.5), DEFAULT_MATERIALS["glass"])
    scene = Scene([surface])
    rng = np.random.default_rng(6)
    plane = surface.vertices[0] + rng.uniform(-2, 9, (4000, 2)) @ np.array(surface._frame)
    offsets = (0.0, 2 * INTERSECT_TOL, -2 * INTERSECT_TOL)
    for pts in (plane, vertices_and_midpoints(surface), edge_points(surface, offsets)):
        check(scene, [pts])


def test_empty_point_array(scene):
    for strict in (True, False):
        got = scene.contains(np.zeros(0, dtype=int), np.zeros((0, 3)), strict=strict)
        assert got.shape == (0,) and got.dtype == bool
        assert scene.surfaces[0].contains(np.zeros((0, 3)), strict=strict).shape == (0,)


def test_scene_without_surfaces():
    got = Scene([]).contains(np.zeros(0, dtype=int), np.zeros((0, 3)))
    assert got.shape == (0,) and got.dtype == bool


def test_rejects_bad_arguments():
    scene = l_roof_scene()
    with pytest.raises(ValueError, match="surface ids"):
        scene.contains([0, 1], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="surface ids"):
        scene.contains([0], np.zeros((1, 2)))
    for sid in (-1, len(scene.surfaces)):
        with pytest.raises(IndexError, match="surface id"):
            scene.contains([0, sid], np.zeros((2, 3)))
