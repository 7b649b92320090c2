import ast
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from v2vchan.scene import (DEFAULT_MATERIALS, GeometryError, MAX_TILE_CELLS, Material,
                           MaterialReferenceError, PLANARITY_TOL, Scene, SceneFormatError,
                           Surface, TILE_BLOCK, Trajectory, _cross, _ear_clip,
                           extrude_footprint, load_scene, load_trajectory,
                           occlusion_test, occlusion_test_batch,
                           save_trajectory, straight_trajectory)
from v2vchan import scenarios
from v2vchan.scenarios import (ANTENNA_HEIGHT, EW_STREET_WIDTH, GROUND_EXTENT, NS_STREET_WIDTH,
                               data_path, intersection_scene, intersection_trajectories)

from conftest import big_wall, l_roof_scene


def _vectors(rng, shape):
    """Random 3-vectors with exact zeros, negative zeros, unit axes and
    non-finite entries mixed in."""
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, np.nan])
    pick = rng.random(shape) < 0.2
    v[pick] = rng.choice(special, int(pick.sum()))
    return v


#: Every operand shape pair ``_cross`` is called with: a surface frame, the
#: triangle normals and fan constants, the polarimetric chain, vh_basis's
#: vertical axis against (N, 3) directions, the (S, 1, 3) x (1, T, 3)
#: occlusion pairs, and empty batches.
CROSS_SHAPES = [((3,), (3,)), ((42, 3), (42, 3)), ((1, 3), (1, 3)), ((3,), (57, 3)),
                ((64, 1, 3), (1, 42, 3)), ((0, 3), (0, 3)), ((3,), (0, 3)),
                ((0, 1, 3), (1, 42, 3))]


@pytest.mark.parametrize("shape_a, shape_b", CROSS_SHAPES)
def test_cross_is_bit_identical_to_numpy(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) * 100 + sum(shape_b))
    a, b = _vectors(rng, shape_a), _vectors(rng, shape_b)
    with np.errstate(invalid="ignore"):
        got, want = _cross(a, b), np.cross(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMaterial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Material("bad", relative_permittivity=0.5)
        with pytest.raises(ValueError):
            Material("bad", conductivity=-1.0)
        with pytest.raises(ValueError):
            Material("bad", scattering_coefficient=1.5)

    @pytest.mark.parametrize("field", ["relative_permittivity", "conductivity"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Material("bad", **{field: value})

    def test_defaults_present(self):
        assert DEFAULT_MATERIALS["metal"].is_pec
        assert DEFAULT_MATERIALS["concrete"].relative_permittivity == 5.0


class TestSurface:
    def test_normal_unit_and_area(self, concrete):
        s = Surface([(0, 0, 0), (2, 0, 0), (2, 3, 0), (0, 3, 0)], concrete)
        assert np.allclose(np.linalg.norm(s.normal), 1.0)
        assert np.allclose(s.normal, [0, 0, 1])
        assert np.isclose(s.area, 6.0)

    def test_rejects_degenerate(self, concrete):
        with pytest.raises(GeometryError):
            Surface([(0, 0, 0), (1, 0, 0)], concrete)
        with pytest.raises(GeometryError):
            Surface([(0, 0, 0), (1, 0, 0), (2, 0, 0)], concrete)  # collinear

    def test_rejects_nan_vertex(self, concrete):
        with pytest.raises(GeometryError, match="finite"):
            Surface([(0, 0, 0), (1, 0, 0), (1, np.nan, 0), (0, 1, 0)], concrete)

    def test_rejects_overflowing_area(self, concrete):
        # finite vertices whose cross products overflow give an inf or NaN
        # normal, rejected without a RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="overflowing"):
                Surface([(0, 0, 0), (1e308, 0, 0), (1e308, 1e308, 0), (0, 1e308, 0)], concrete)

    def test_rejects_nonplanar(self, concrete):
        with pytest.raises(GeometryError):
            Surface([(0, 0, 0), (1, 0, 0), (1, 1, 0.1), (0, 1, 0)], concrete)

    def test_contains_strict_interior(self, concrete):
        s = Surface([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], concrete)
        pts = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.0], [1.5, 0.5, 0.0]])
        assert list(s.contains(pts, strict=True)) == [True, False, False]
        assert list(s.contains(pts, strict=False)) == [True, True, False]

    def test_nonconvex_polygon(self, concrete):
        # an L-shape: the notch corner must be outside
        s = Surface([(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)],
                    concrete)
        pts = np.array([[0.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.5, 0.5, 0.0]])
        assert list(s.contains(pts)) == [True, False, True]


class TestExtrudeFootprint:
    def test_unit_square(self, concrete):
        out = extrude_footprint([(0, 0), (1, 0), (1, 1), (0, 1)], 15.0, concrete)
        assert len(out) == 5  # 4 walls + roof
        roof = out[-1]
        assert np.allclose(roof.normal, [0, 0, 1])
        assert all(np.isclose(w.area, 15.0) for w in out[:-1])

    def test_triangle(self, concrete):
        out = extrude_footprint([(0, 0), (1, 0), (0, 1)], 15.0, concrete)
        assert len(out) == 4

    def test_orientation_insensitive(self, concrete):
        cw = extrude_footprint([(0, 1), (1, 1), (1, 0), (0, 0)], 2.0, concrete)
        ccw = extrude_footprint([(0, 0), (1, 0), (1, 1), (0, 1)], 2.0, concrete)
        n_cw = sorted(tuple(np.round(s.normal, 9)) for s in cw)
        n_ccw = sorted(tuple(np.round(s.normal, 9)) for s in ccw)
        assert n_cw == n_ccw

    def test_l_shape_outward_normals(self, concrete):
        # derived oracle: every wall normal must point away from an interior
        # point sampled just inside the wall's midpoint
        fp = [(0, 0), (6, 0), (6, 2), (2, 2), (2, 6), (0, 6)]
        out = extrude_footprint(fp, 15.0, concrete)
        walls = out[:-1]
        assert len(walls) == 6
        for i, w in enumerate(walls):
            mid = w.vertices[:2].mean(axis=0)
            inward = mid[:2] - 0.05 * w.normal[:2]
            assert _point_in_poly2d(inward, fp), f"wall {i} normal not outward"
            outward = mid[:2] + 0.05 * w.normal[:2]
            assert not _point_in_poly2d(outward, fp)

    def test_walls_watertight(self, concrete):
        fp = [(0, 0), (4, 0), (4, 3), (1, 3), (1, 5), (0, 5)]
        out = extrude_footprint(fp, 7.0, concrete)
        walls = out[:-1]
        for i in range(len(walls)):
            a = walls[i].vertices
            b = walls[(i + 1) % len(walls)].vertices
            # edge (p1, bottom)-(p1, top) of wall i equals edge of wall i+1
            assert np.allclose(a[1], b[0], atol=1e-9)
            assert np.allclose(a[2], b[3], atol=1e-9)

    def test_errors(self, concrete):
        with pytest.raises(GeometryError):
            extrude_footprint([(0, 0), (1, 1), (1, 0), (0, 1)], 5.0, concrete)  # bowtie
        with pytest.raises(ValueError):
            extrude_footprint([(0, 0), (1, 0), (1, 1)], 0.0, concrete)
        with pytest.raises(GeometryError):
            extrude_footprint([(0, 0), (1, 0)], 5.0, concrete)


def _point_in_poly2d(p, poly):
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


class TestOcclusion:
    def test_empty_space(self, single_wall_scene):
        assert not occlusion_test(single_wall_scene, (0, 1, 0), (10, 1, 0))

    def test_crossing_wall(self, single_wall_scene):
        assert occlusion_test(single_wall_scene, (0, -1, 0), (0, 1, 0))

    def test_endpoint_tolerance(self, single_wall_scene):
        # segment ending exactly on the wall does not count as blocked
        assert not occlusion_test(single_wall_scene, (0, 1, 0), (0, 0, 0))
        assert not occlusion_test(single_wall_scene, (0, 0, 0), (0, 1, 0))

    def test_symmetry_randomized(self, single_wall_scene):
        rng = np.random.default_rng(42)
        starts = rng.uniform(-5, 5, size=(300, 3))
        ends = rng.uniform(-5, 5, size=(300, 3))
        fwd = occlusion_test_batch(single_wall_scene, starts, ends)
        rev = occlusion_test_batch(single_wall_scene, ends, starts)
        assert np.array_equal(fwd, rev)

    def test_large_batch_heap_is_bounded_and_chunk_free(self):
        """33 300 segments against the 42 triangles of the plain intersection
        stay within a few (segment, triangle) blocks of heap, and the result
        does not depend on how the batch is split."""
        import tracemalloc

        from v2vchan.scenarios import intersection_scene

        scene = intersection_scene(plain=True)
        _, centers, _, _ = scene.tiles(1.0)
        starts = np.ascontiguousarray(np.broadcast_to([-30.0, 0.0, 1.7], centers.shape))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = occlusion_test_batch(scene, starts, centers)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(centers) == 33300 and len(scene._tri) == 42
        assert peak < 16e6, peak
        pieces = [occlusion_test_batch(scene, starts[i:i + 700], centers[i:i + 700])
                  for i in range(0, len(centers), 700)]
        assert np.array_equal(got, np.concatenate(pieces))
        assert 0 < got.sum() < len(got)

    def test_matches_bruteforce_triangle_oracle(self, concrete, pec):
        scene = Scene([
            big_wall(0.0, pec),
            Surface([(0, 5, 0), (4, 5, 0), (4, 5, 4), (0, 5, 4)], concrete, tag="w2"),
            Surface([(0, 0, 7), (6, 0, 7), (6, 6, 7), (0, 6, 7)], concrete, tag="roof"),
        ])
        rng = np.random.default_rng(7)
        starts = rng.uniform([-8, -8, -2], [8, 8, 9], size=(400, 3))
        ends = rng.uniform([-8, -8, -2], [8, 8, 9], size=(400, 3))
        got = occlusion_test_batch(scene, starts, ends)
        exp = np.array([
            _segment_hits_any_triangle(scene, s, e) for s, e in zip(starts, ends)
        ])
        assert np.array_equal(got, exp)


def _segment_hits_any_triangle(scene, s, e):
    """Independent scalar Moller-Trumbore over every triangle."""
    d = e - s
    seg_len = np.linalg.norm(d)
    if seg_len == 0:
        return False
    for tri in scene._tri:
        v0, v1, v2 = tri
        e1, e2 = v1 - v0, v2 - v0
        h = np.cross(d, e2)
        det = e1 @ h
        if abs(det) <= 1e-14:
            continue
        inv = 1.0 / det
        sv = s - v0
        u = (sv @ h) * inv
        if u < -1e-12:
            continue
        q = np.cross(sv, e1)
        v = (d @ q) * inv
        if v < -1e-12 or u + v > 1 + 1e-12:
            continue
        t = (e2 @ q) * inv
        tol = 1e-9 / seg_len
        if tol < t < 1 - tol:
            return True
    return False


class TestSceneContainer:
    def test_bounding_box_contains_surfaces(self, concrete):
        s = Scene([Surface([(0, 0, 0), (5, 0, 0), (5, 5, 0), (0, 5, 0)], concrete)])
        lo, hi = s.bounding_box
        for surf in s.surfaces:
            assert (surf.vertices >= lo).all() and (surf.vertices <= hi).all()

    def test_ground_reference(self, concrete):
        g = Surface([(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)], concrete, tag="ground")
        s = Scene([g])
        assert s.surfaces[0] is g and not hasattr(s, "ground")

    def test_plane_columns_by_surface_id(self, concrete):
        floor = Surface([(0, 0, 0), (4, 0, 0), (4, 3, 0), (0, 3, 0)], concrete)
        wall = Surface([(0, 5, 0), (0, 5, 2), (2, 5, 2), (2, 5, 0)], concrete)
        s = Scene([floor, wall])
        assert np.array_equal(s.normals, [floor.normal, wall.normal])
        assert s.offsets.tolist() == [floor.plane_offset, wall.plane_offset]
        assert not (s.normals.flags.writeable or s.offsets.flags.writeable)
        empty = Scene([])
        assert empty.normals.shape == (0, 3) and empty.offsets.shape == (0,)

    def test_tiles_cover_area(self, concrete):
        s = Scene([Surface([(0, 0, 0), (10, 0, 0), (10, 15, 0), (0, 15, 0)], concrete)])
        sids, centers, areas, ids = s.tiles(1.0)
        assert np.isclose(areas.sum(), 150.0)
        assert len(np.unique(ids)) == len(ids)

    def test_tiles_table_in_surface_order(self, concrete):
        floor = Surface([(0, 0, 0), (4, 0, 0), (4, 3, 0), (0, 3, 0)], concrete)
        wall = Surface([(0, 5, 0), (0, 5, 2), (2, 5, 2), (2, 5, 0)], concrete)
        s = Scene([floor, wall])
        sids, centers, areas, ids = s.tiles(1.0)
        assert sids.tolist() == [0] * 12 + [1] * 4
        assert ids.tolist() == list(range(12)) + list(range(4))
        assert np.allclose(areas, 1.0)
        assert np.allclose(centers[12:, 1], 5.0) and np.allclose(centers[:12, 2], 0.0)
        assert s.tiles(1.0)[1] is centers           # built once per tile size
        assert not centers.flags.writeable

    @pytest.mark.parametrize("plain", [True, False])
    @pytest.mark.parametrize("size", [1.0, 0.7, 2.5])
    def test_tile_blocks_bound_their_tiles(self, plain, size):
        scene = intersection_scene(plain=plain)
        sids, centers, areas, ids = scene.tiles(size)
        block, center, radius, area, surface, corners, count = scene.tile_blocks(size)
        assert block.shape == sids.shape and center.shape == (len(radius), 3)
        assert surface.shape == count.shape == radius.shape
        assert corners.shape == (len(radius), 4, 3)
        dist = np.linalg.norm(centers - center[block], axis=1)
        assert np.all(dist <= radius[block] + 1e-12)
        assert np.all(areas <= area[block])
        # a block is one surface's TILE_BLOCK x TILE_BLOCK cells at most
        assert np.array_equal(surface[block], sids)
        assert np.array_equal(count, np.bincount(block, minlength=len(count)))
        assert count.max() <= TILE_BLOCK ** 2
        # the corners span the rectangle: its center is their mean, its half
        # diagonal half of the distance between opposite corners
        assert np.allclose(corners.mean(axis=1), center, rtol=0, atol=1e-9)
        assert np.allclose(np.linalg.norm(corners[:, 3] - corners[:, 0], axis=1) / 2, radius,
                           rtol=0, atol=1e-9)
        # every tile center is a convex combination of its block's corners:
        # (s, t) in [0, 1]^2 along the rectangle's two sides
        c0, c1, c2 = (corners[block, k] for k in range(3))
        for side in (c1 - c0, c2 - c0):
            span = np.einsum("ij,ij->i", side, side)
            st = np.einsum("ij,ij->i", centers - c0, side) / np.where(span > 0, span, 1.0)
            assert np.all((st >= -1e-9) & (st <= 1 + 1e-9))
        off_plane = np.einsum("ij,ij->i", centers, scene.normals[sids]) - scene.offsets[sids]
        assert np.abs(off_plane).max() < 1e-11
        assert scene.tile_blocks(size)[0] is block
        assert not any(col.flags.writeable for col in scene.tile_blocks(size))

    def test_tile_cells_count_the_grid(self, concrete):
        floor = Surface([(0, 0, 0), (10, 0, 0), (10, 15, 0), (0, 15, 0)], concrete)
        wall = Surface([(0, 5, 0), (0, 5, 2), (2, 5, 2), (2, 5, 0)], concrete)
        s = Scene([floor, wall])
        assert s.tile_cells(1.0) == 150 + 4
        assert s.tile_cells(0.7) == 15 * 22 + 3 * 3
        # the cap lies between 2500 x 3750 + 500 x 500 cells and 1.01e7
        assert s.tile_cells(4e-3) == 2500 * 3750 + 500 * 500
        with pytest.raises(ValueError, match="1.01e\\+07 grid cells"):
            s.tile_cells(3.9e-3)
        assert not s._tile_cache               # counted, not built
        assert s.tile_cells(1.0) == len(s.tiles(1.0)[0])
        # a concave roof lays cells outside its polygon, which hold no tile
        roof = l_roof_scene()
        assert roof.tile_cells(1.0) > len(roof.tiles(1.0)[0])

    @pytest.mark.parametrize("size", [1e-9, 1e-300])
    def test_tile_size_too_small_is_refused_before_allocating(self, single_wall_scene, size):
        """A 2 km wall at 1 nm tiles is 4e24 grid cells: refused from the
        count, with no table built and no large allocation."""
        tracemalloc.start()
        try:
            for refuse in (single_wall_scene.tile_cells, single_wall_scene.tiles):
                with pytest.raises(ValueError, match=f"grid cells on the scene, more than "
                                                     f"{MAX_TILE_CELLS}"):
                    refuse(size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not single_wall_scene._tile_cache

    @pytest.mark.parametrize("size", [0.0, -1.0, math.inf, math.nan])
    def test_tiles_reject_bad_size(self, single_wall_scene, size):
        # 0 overflowed, -1 and inf gave one tile per surface, NaN failed in int()
        with pytest.raises(ValueError, match="tile_size must be finite and > 0"):
            single_wall_scene.tiles(size)


SCENE_DOC = {
    "materials": [
        {"name": "brick", "relative_permittivity": 4.5, "conductivity": 0.02,
         "scattering_coefficient": 0.3, "is_pec": False},
    ],
    "footprints": [
        {"tag": "b1", "polygon": [[0, 0], [10, 0], [10, 10], [0, 10]],
         "height": 15.0, "material": "brick"},
    ],
    "obstacles": [
        {"tag": "sign", "material": "metal",
         "surfaces": [[[20, 0, 0], [21, 0, 0], [21, 0, 2], [20, 0, 2]]]},
    ],
    "ground": {"extent": [-50, -50, 50, 50], "material": "asphalt"},
}


class TestSceneIO:
    def test_minimal_wall_plus_ground(self, tmp_path):
        doc = {
            "obstacles": [{"tag": "w", "material": "concrete",
                           "surfaces": [[[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]]]}],
            "ground": {"extent": [-5, -5, 5, 5]},
        }
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        scene = load_scene(p)
        assert len(scene.surfaces) == 2
        assert scene.surfaces[-1].tag == "ground"

    def test_degenerate_polygon_rejected(self, tmp_path):
        doc = {
            "obstacles": [{"tag": "bad", "material": "concrete",
                           "surfaces": [[[0, 0, 0], [1, 0, 0]]]}],
            "ground": {"extent": [-5, -5, 5, 5]},
        }
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(GeometryError, match="bad"):
            load_scene(p)

    def test_bundled_intersection_heights(self):
        scene = load_scene(data_path("intersection_plain.json"))
        block_tags = {s.tag.split(":")[0] for s in scene.surfaces if s.tag.startswith("block")}
        assert len(block_tags) == 4
        for s in scene.surfaces:
            if s.tag.startswith("block"):
                assert np.isclose(s.vertices[:, 2].max(), 15.0)

    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "furnished"])
    def test_bundled_intersection_matches_constants(self, plain):
        """The scenario constants describe the bundled files, which alone
        define the intersection."""
        surfaces = {s.tag: s.vertices for s in intersection_scene(plain).surfaces}
        assert (surfaces["block_ne:wall0"][:, 1] == EW_STREET_WIDTH / 2).all()
        assert (surfaces["block_ne:wall3"][:, 0] == NS_STREET_WIDTH / 2).all()
        ground = surfaces["ground"]
        assert (ground[:, 2] == 0).all()
        assert ground[:, :2].min(axis=0).tolist() == [-GROUND_EXTENT] * 2
        assert ground[:, :2].max(axis=0).tolist() == [GROUND_EXTENT] * 2
        for tr in intersection_trajectories():
            assert (tr.position[:, 2] == ANTENNA_HEIGHT).all()
            assert tr.antenna_height == ANTENNA_HEIGHT

    def test_unknown_material(self, tmp_path):
        doc = {"footprints": [{"polygon": [[0, 0], [1, 0], [1, 1]], "height": 2.0,
                               "material": "vibranium"}],
               "ground": {"extent": [-5, -5, 5, 5]}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(MaterialReferenceError, match="vibranium"):
            load_scene(p)

    @pytest.mark.parametrize("doc", [
        {"obstacles": [{"material": "metal", "surfaces": [[[0, 0, 0], [1, 0, "x"], [1, 0, 1]]]}],
         "ground": {"extent": [-50, -50, 50, 50]}},
        {"ground": {"extent": [-50, "south", 50, 50]}},
        {"ground": {"vertices": [[0, 0, 0], [1, 0, 0], None]}},
        # a bool or a string where a number belongs is not read as one
        *({"footprints": [{"polygon": [[0, 0], [10, 0], [10, 10]], "height": h,
                           "material": "concrete"}], "ground": {"extent": [-50, -50, 50, 50]}}
          for h in ("15", True)),
        *({"ground": {"extent": [-60, -60, x, 60]}} for x in ("60", True)),
        {"footprints": [{"polygon": [[0, 0], [10, True], [10, 10]], "height": 5.0,
                         "material": "concrete"}], "ground": {"extent": [-50, -50, 50, 50]}},
        {"obstacles": [{"material": "metal", "surfaces": [[[0, 0, 0], [1, 0, 0], [1, 0, "1.5"]]]}],
         "ground": {"extent": [-50, -50, 50, 50]}},
    ])
    def test_non_numeric_geometry(self, tmp_path, doc):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError):
            load_scene(p)

    @pytest.mark.parametrize("doc", [
        {"materials": None},
        {"materials": [{"name": ["brick"]}]},
        {"materials": [{"name": "brick", "conductivity": 10 ** 400}]},
        {"materials": [{"name": "brick", "is_pec": "false"}]},   # a truthy string
        {"footprints": [["not", "an", "object"]]},
        {"footprints": [{"tag": 7, "polygon": [[0, 0], [1, 0], [1, 1]], "height": 2.0,
                         "material": "concrete"}]},
        {"obstacles": [{"material": "metal", "surfaces": 5}]},
        {"ground": [-50, -50, 50, 50]},
        {"ground": {"extent": [-50, -50, 50]}},
        {"ground": {"extent": [-50, -50, 50, 10 ** 400]}},
        {"materials": [{"name": "brick", "relative_permittivity": True}]},
        {"materials": [{"name": "brick", "conductivity": "0.5"}]},
        {"materials": [{"name": "brick", "scattering_coefficient": False}]},
        # an unknown key, in place of the right one or next to it, at each level
        {"obstacle": [{"material": "metal", "surfaces": [[[0, 0, 0], [1, 0, 0], [1, 0, 1]]]}]},
        {"materials": [{"name": "brick", "conductivty": 0.5}]},
        {"footprints": [{"polygon": [[0, 0], [10, 0], [10, 10]], "height": 5.0, "hieght": 5.0,
                         "material": "concrete"}]},
        {"obstacles": [{"material": "metal", "surfaces": [[[0, 0, 0], [1, 0, 0], [1, 0, 1]]],
                        "surface": []}]},
        {"ground": {"extent": [-50, -50, 50, 50], "extents": [-50, -50, 50, 50]}},
        {"ground": {"extent": [-50, -50, 50, 50],
                    "vertices": [[-5, -5, 0], [5, -5, 0], [5, 5, 0], [-5, 5, 0]]}},
    ])
    def test_wrong_json_type(self, tmp_path, doc):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"ground": {"extent": [-50, -50, 50, 50]}, **doc}))
        with pytest.raises(SceneFormatError):
            load_scene(p)

    def test_parse_error_has_line(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(SceneFormatError, match=r":2:"):
            load_scene(p)

    def test_missing_field_named(self, tmp_path):
        doc = {"footprints": [{"polygon": [[0, 0], [1, 0], [1, 1]], "material": "concrete"}],
               "ground": {"extent": [-1, -1, 1, 1]}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="height"):
            load_scene(p)

    def test_explicit_surfaces_load_exactly(self, tmp_path):
        # no footprints: every surface is given vertex by vertex, the ground too
        brick = SCENE_DOC["materials"][0]
        panel = [[[20, 0, 0], [21, 0, 0], [21, 0, 2], [20, 0, 2]],
                 [[21, 0, 0], [21, 1, 0], [21, 1, 2], [21, 0, 2]],
                 [[0.1, 0.2, 0.0], [1.0 / 3.0, 0.2, 0.0], [0.1, 0.2, math.pi]]]
        sign = [[[30, 5, 0], [31, 5, 0], [31, 5, 1e-3]]]
        ground = [[-50, -50, 0], [50, -50, 0], [50, 50, 0], [-50, 50, 0]]
        doc = {"materials": [brick],
               "obstacles": [{"tag": "panel", "material": "brick", "surfaces": panel},
                             {"tag": "sign", "material": "metal", "surfaces": sign}],
               "ground": {"vertices": ground, "material": "asphalt"}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(doc))
        scene = load_scene(p)
        want = [(v, f"panel:{j}", "brick") for j, v in enumerate(panel)] + [
            (sign[0], "sign", "metal"), (ground, "ground", "asphalt")]
        assert len(scene.surfaces) == len(want)
        assert scene.surfaces[-1].tag == "ground"
        for s, (verts, tag, mat) in zip(scene.surfaces, want):
            assert np.array_equal(s.vertices, np.array(verts, dtype=float))
            assert s.tag == tag
            assert s.material == (Material(**brick) if mat == "brick"
                                  else DEFAULT_MATERIALS[mat])


def test_one_json_reader():
    """JSON files are parsed only by ``scene._read_json``: no other module of
    the package calls ``json.loads`` or ``json.load``."""
    sites = []
    for path in sorted((Path(__file__).parents[1] / "src" / "v2vchan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                sites.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                sites.append(path.name)
    assert sites == ["scene.py"]


class TestTrajectory:
    def test_uniform_spacing_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((3, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("t", [[], [[0.0, 0.5]], [0.0, math.inf], [0.5, 0.0]],
                             ids=["empty", "2-d", "inf", "decreasing"])
    def test_bad_times_rejected(self, t):
        n = np.asarray(t).size
        with pytest.raises(ValueError, match="trajectory times"):
            Trajectory(t, np.zeros((n, 3)), np.zeros((n, 3)))

    def test_antenna_height_positive(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.zeros((1, 3)), np.zeros((1, 3)),
                       antenna_height=0.0)

    # NaN used to pass the ``<= 0`` check
    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_antenna_height_finite(self, h):
        with pytest.raises(ValueError, match=f"antenna_height must be finite and > 0, not {h}"):
            Trajectory(np.array([0.0]), np.zeros((1, 3)), np.zeros((1, 3)), h)
        with pytest.raises(SceneFormatError, match="antenna_height"):
            load_trajectory(data_path("tx_trajectory.csv"), antenna_height=h)

    @pytest.mark.parametrize("field", ["t", "position", "velocity"])
    def test_rejects_non_finite(self, field):
        args = {"t": np.array([0.0, 0.5, 1.0]), "position": np.zeros((3, 3)),
                "velocity": np.zeros((3, 3))}
        args[field][-1] = np.inf if field == "velocity" else np.nan
        with pytest.raises(ValueError, match="finite"):
            Trajectory(**args)

    def test_interpolation(self):
        tr = straight_trajectory((0, 0, 1.5), 0.0, 10.0, 1.0, 0.5)
        pos, vel = tr.at(0.25)
        assert np.allclose(pos, [2.5, 0, 1.5])
        assert np.allclose(vel, [10, 0, 0])
        assert np.isclose(tr.heading(0.25), 0.0)

    @staticmethod
    def _turn_and_park() -> Trajectory:
        """East, a turn north, parked for four samples (the fifth moves only
        vertically), then west."""
        vel = np.array([[10, 0, 0], [10, 0, 0], [7, 7, 0], [0, 10, 0], [0, 0, 0], [0, 0, 0],
                        [0, 0, 0], [0, 0, 0], [-1e-13, 0, 1], [-5, 1e-9, 0], [-10, -3, 0],
                        [-10, 0, 0]], dtype=float)
        return Trajectory(np.arange(12) * 0.5, np.cumsum(vel * 0.5, axis=0), vel)

    @staticmethod
    def reference_heading(tr: Trajectory, t: float) -> float:
        """``Trajectory.heading`` of one time, as a scalar lerp."""
        i = min(int(np.searchsorted(tr.t, t, side="right")) - 1, len(tr.t) - 2)
        i = max(i, 0)
        u = min(max((t - tr.t[i]) / (tr.t[i + 1] - tr.t[i]), 0.0), 1.0)
        vel = (1 - u) * tr.velocity[i] + u * tr.velocity[i + 1]
        if np.hypot(vel[0], vel[1]) < 1e-12:
            return 0.0
        return math.atan2(vel[1], vel[0])

    def test_heading_of_times_equals_one_call_per_time(self):
        tr = self._turn_and_park()
        times = np.concatenate((np.linspace(0.0, 5.5, 397), tr.t, [-1e-13, 5.5 + 1e-13]))
        got = tr.heading(times)
        one_by_one = [tr.heading(t) for t in times]
        assert all(type(h) is float for h in one_by_one)
        assert got.shape == times.shape and got.dtype == float
        assert np.array_equal(got.view(np.uint64), np.array(one_by_one).view(np.uint64))
        want = np.array([self.reference_heading(tr, t) for t in times])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        parked = (times >= 2.0) & (times <= 4.0)
        assert np.all(got[parked] == 0.0) and np.all(got[times <= 0.5] == 0.0)
        assert np.all(got[(times > 1.0) & (times < 2.0)] > 0.0)
        grid = times[:410].reshape(41, 10)
        assert np.array_equal(tr.heading(grid), got[:410].reshape(41, 10))

    # a NaN time is outside every span; it used to give a 0.0 heading
    @pytest.mark.parametrize("t", [-0.01, 5.51, [0.0, 2.0, 5.6], [-1.0, 1.0], math.nan,
                                   [[0.25], [math.nan]]])
    def test_heading_outside_span_raises(self, t):
        with pytest.raises(ValueError, match="outside trajectory span"):
            self._turn_and_park().heading(t)

    def test_heading_of_one_sample_trajectory(self):
        tr = Trajectory(np.array([1.0]), np.zeros((1, 3)), np.array([[0.0, -2.0, 0.0]]))
        assert tr.heading(1.0) == -math.pi / 2
        assert tr.heading(np.array([1.0, 1.0])).tolist() == [-math.pi / 2] * 2

    @staticmethod
    def reference_at(tr: Trajectory, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``Trajectory.at`` of one time, as a scalar lerp."""
        if len(tr.t) == 1:
            return tr.position[0].copy(), tr.velocity[0].copy()
        i = min(int(np.searchsorted(tr.t, t, side="right")) - 1, len(tr.t) - 2)
        i = max(i, 0)
        u = min(max((t - tr.t[i]) / (tr.t[i + 1] - tr.t[i]), 0.0), 1.0)
        return ((1 - u) * tr.position[i] + u * tr.position[i + 1],
                (1 - u) * tr.velocity[i] + u * tr.velocity[i + 1])

    def test_at_of_times_equals_scalar_lerp(self):
        rng = np.random.default_rng(22)
        trajectories = [self._turn_and_park(),
                        straight_trajectory((-55.0, -4.25, 1.73), 37.0, 13.9, 6.0, 0.01),
                        Trajectory(3.0 + 0.25 * np.arange(40), rng.normal(0.0, 50.0, (40, 3)),
                                   rng.normal(0.0, 5.0, (40, 3)))]
        for tr in trajectories:
            lo, hi = tr.t[0], tr.t[-1]
            times = np.concatenate((np.linspace(lo, hi, 301), tr.t, rng.uniform(lo, hi, 200),
                                    [lo - 1e-13, lo + 1e-13, hi - 1e-13, hi + 1e-13]))
            pos, vel = tr.at(times)
            assert pos.shape == vel.shape == (len(times), 3)
            for k, t in enumerate(times.tolist()):
                for got, one, want in zip((pos[k], vel[k]), tr.at(t), self.reference_at(tr, t)):
                    assert one.shape == (3,)
                    assert got.tobytes() == one.tobytes() == want.tobytes(), t
            grid_pos, grid_vel = tr.at(times[:300].reshape(30, 10))
            assert np.array_equal(grid_pos, pos[:300].reshape(30, 10, 3))
            assert np.array_equal(grid_vel, vel[:300].reshape(30, 10, 3))

    def test_at_of_one_sample_trajectory(self):
        tr = Trajectory(np.array([1.0]), np.array([[4.0, 5.0, 1.5]]), np.array([[0.0, -2.0, 0.0]]))
        pos, vel = tr.at(1.0)
        assert pos.tolist() == [4.0, 5.0, 1.5] and vel.tolist() == [0.0, -2.0, 0.0]
        pos, vel = tr.at(np.array([1.0, 1.0 + 1e-13]))
        assert pos.tolist() == [[4.0, 5.0, 1.5]] * 2 and vel.tolist() == [[0.0, -2.0, 0.0]] * 2
        pos[0] = 0.0
        assert tr.position[0].tolist() == [4.0, 5.0, 1.5]
        with pytest.raises(ValueError, match=r"time 1.5 outside trajectory span \[1.0, 1.0\]"):
            tr.at([1.0, 1.5])

    # a NaN time is outside every span; it used to give NaN positions
    @pytest.mark.parametrize("t", [-0.01, 5.51, [0.0, 2.0, 5.6, 7.0], [-1.0, 1.0], math.nan,
                                   [0.0, math.nan, 7.0], [[0.25], [math.nan]]])
    def test_at_outside_span_raises(self, t):
        first = next(x for x in np.ravel(t) if not 0.0 <= x <= 5.5)
        with pytest.raises(ValueError, match=rf"time {first} outside trajectory span"):
            self._turn_and_park().at(t)

    def test_csv_round_trip(self, tmp_path):
        tr = straight_trajectory((1, 2, 1.73), 90.0, 10.0, 2.0, 0.5)
        p = tmp_path / "t.csv"
        save_trajectory(tr, p)
        back = load_trajectory(p, antenna_height=tr.antenna_height)
        assert np.array_equal(back.t, tr.t)
        assert np.array_equal(back.position, tr.position)
        assert np.array_equal(back.velocity, tr.velocity)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(SceneFormatError):
            load_trajectory(p)

    @pytest.mark.parametrize("rows", [
        ["0,0,0,1.5,1,0,0", "0.1,0.1,0,1.5,1,0"],          # a short row
        ["nan,0,0,1.5,1,0,0", "0.1,0.1,0,1.5,1,0,0"],      # non-finite time
        ["0,0,0,1.5,1,0,0", "0,0.1,0,1.5,1,0,0"],          # time not increasing
        ["0,0,0,-1.5,1,0,0"],                              # antenna below ground
    ])
    def test_bad_samples_are_format_errors(self, tmp_path, rows):
        p = tmp_path / "t.csv"
        p.write_text("\n".join(["t,x,y,z,vx,vy,vz", *rows]) + "\n")
        with pytest.raises(SceneFormatError):
            load_trajectory(p)



# --- construction: the batched pass against the per-surface constructor ---

def reference_surface(vertices, material, tag=""):
    """The per-surface constructor that ``Surface`` ran before construction
    was batched, kept as the oracle of every attribute it derives."""
    s = Surface.__new__(Surface)
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
        raise GeometryError(f"surface {tag!r}: need >= 3 vertices of dimension 3")
    if not np.isfinite(v).all():
        raise GeometryError(f"surface {tag!r}: vertices must be finite")
    nxt = np.roll(v, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.array([np.sum((v[:, 1] - nxt[:, 1]) * (v[:, 2] + nxt[:, 2])),
                      np.sum((v[:, 2] - nxt[:, 2]) * (v[:, 0] + nxt[:, 0])),
                      np.sum((v[:, 0] - nxt[:, 0]) * (v[:, 1] + nxt[:, 1]))])
    area2 = np.linalg.norm(n)
    if not 0.0 < area2 < math.inf:
        raise GeometryError(f"surface {tag!r}: zero or overflowing polygon area")
    normal = n / area2
    offset = float(normal @ v[0])
    dev = np.abs(v @ normal - offset)
    if dev.max() > PLANARITY_TOL:
        raise GeometryError(f"surface {tag!r}: vertices deviate from plane by {dev.max():.2e} m")
    s.vertices, s.material, s.tag = v, material, tag
    s.normal, s.plane_offset, s.area = normal, offset, 0.5 * area2
    e_u = v[1] - v[0]
    e_u = e_u - (e_u @ normal) * normal
    e_u /= np.linalg.norm(e_u)
    e_v = _cross(normal, e_u)
    s._frame = (e_u, e_v)
    s._poly2d = np.column_stack(((v - v[0]) @ e_u, (v - v[0]) @ e_v))
    s._tri_idx = _ear_clip(s._poly2d)
    return s


def reference_extrusion(footprint, height, material, tag):
    """``extrude_footprint``'s walls and roof as it built them one at a time."""
    fp = np.asarray(footprint, dtype=float)
    if np.sum(fp[:, 0] * np.roll(fp[:, 1], -1) - np.roll(fp[:, 0], -1) * fp[:, 1]) < 0:
        fp = fp[::-1]
    n = len(fp)
    walls = [reference_surface([(p0[0], p0[1], 0.0), (p1[0], p1[1], 0.0), (p1[0], p1[1], height),
                                (p0[0], p0[1], height)], material, f"{tag}:wall{i}")
             for i, (p0, p1) in enumerate(zip(fp, np.roll(fp, -1, axis=0)))]
    return walls + [reference_surface(np.column_stack((fp, np.full(n, height))), material,
                                      f"{tag}:roof")]


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_surface(got, want):
    assert type(got.area) is type(want.area) and type(got.plane_offset) is float
    for name in ("vertices", "normal", "plane_offset", "area"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), (want.tag, name)
    assert all(_same_bytes(g, w) for g, w in zip(got._frame, want._frame)), want.tag
    assert len(got._frame) == 2 and _same_bytes(got._poly2d, want._poly2d), want.tag
    assert got._tri_idx == want._tri_idx, want.tag
    assert (got.material, got.tag) == (want.material, want.tag)


def assert_same_scene(got: Scene, tile_sizes=(1.0, 0.7)):
    """Every surface of ``got`` and every array its scene derives equal, byte
    for byte, those of the scene of reference surfaces on the same vertices."""
    want = Scene([reference_surface(s.vertices, s.material, s.tag) for s in got.surfaces])
    for g, w in zip(got.surfaces, want.surfaces, strict=True):
        assert_same_surface(g, w)
    for name in ("normals", "offsets", "_tri", "_tri_normal", "_tri_area2", "_tri_edge",
                 "bounding_box"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), name
    assert all(_same_bytes(g, w) for g, w in zip(got._edges, want._edges, strict=True))
    for size in tile_sizes:
        for g, w in ((got.tiles(size), want.tiles(size)),
                     (got.tile_blocks(size), want.tile_blocks(size))):
            assert all(_same_bytes(a, b) for a, b in zip(g, w, strict=True)), size


def _random_polygons(seed, count):
    """Seeded star-shaped polygons of 3-8 vertices, tilted by a random rotation
    and moved by up to 1e3 m, with vertices counter-clockwise or clockwise."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radius = rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-1.0, 2.5)
        flat = np.column_stack((radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)))
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        poly = flat @ rotation.T + rng.uniform(-1e3, 1e3, 3)
        out.append(poly if rng.random() < 0.5 else poly[::-1])
    return out


def _scene_file(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def _outcome(build):
    """What ``build()`` gives: the surface, or the GeometryError it raises."""
    try:
        return build()
    except GeometryError as e:
        return e


def _tagged(error, tag) -> str:
    """The message of ``reference_surface``'s ``error`` as the batched pass
    reports it: every fault, an ear-clipping one too, names its surface."""
    prefix = f"surface {tag!r}: "
    return str(error) if str(error).startswith(prefix) else prefix + str(error)


@pytest.mark.filterwarnings("error")
class TestConstruction:
    @pytest.mark.parametrize("name", ["intersection.json", "intersection_plain.json"])
    def test_bundled_scenes(self, name):
        assert_same_scene(load_scene(data_path(name)))

    # the bundled intersection is test_bundled_scenes' files; the oracle
    # scenes span kilometres, so they are tiled 25 times coarser
    @pytest.mark.parametrize("build, scale", [
        (l_roof_scene, 1.0), (lambda: scenarios.canyon_scene(14.0), 25.0),
        (scenarios.single_wall_scene, 25.0), (scenarios.pec_ground_scene, 25.0)],
        ids=["l_roof", "canyon", "single_wall", "pec_ground"])
    def test_scenario_scenes(self, build, scale):
        assert_same_scene(build(), tile_sizes=(scale, 0.7 * scale))

    def test_random_tilted_polygons(self, concrete, tmp_path):
        polygons = _random_polygons(21, 400)
        accepted = []
        for i, poly in enumerate(polygons):
            got = _outcome(lambda: Surface(poly, concrete, tag=f"p{i}"))
            want = _outcome(lambda: reference_surface(poly, concrete, tag=f"p{i}"))
            if isinstance(want, GeometryError):
                assert isinstance(got, GeometryError) and str(got) == _tagged(want, f"p{i}")
            else:
                assert_same_surface(got, want)
                accepted.append(poly)
        assert len(accepted) > 0.9 * len(polygons)
        # every accepted polygon again in one file, so in one batched pass
        doc = {"obstacles": [{"tag": f"p{i}", "material": "concrete", "surfaces": [p.tolist()]}
                             for i, p in enumerate(accepted)],
               "ground": {"extent": [-2e3, -2e3, 2e3, 2e3]}}
        scene = load_scene(_scene_file(tmp_path, doc))
        assert len(scene.surfaces) == len(accepted) + 1
        assert_same_scene(scene, tile_sizes=(50.0,))

    def test_concave_footprint(self, concrete):
        # a U-shaped block, given clockwise
        fp = [(0, 0), (0, 30), (10, 30), (10, 10), (30, 10), (30, 30), (40, 30), (40, 0)]
        got = extrude_footprint(fp, 12.5, concrete, tag="u")
        want = reference_extrusion(fp, 12.5, concrete, "u")
        assert len(got) == len(want) == 9
        for g, w in zip(got, want):
            assert_same_surface(g, w)
        assert_same_scene(Scene(got))

    def test_triangles_quads_and_pentagons_in_one_file(self, tmp_path):
        doc = {"footprints": [{"tag": "tri", "polygon": [[0, 0], [8, 0], [3, 6]],
                               "height": 4.0, "material": "concrete"},
                              {"tag": "penta", "polygon": [[20, 0], [26, 1], [27, 7], [22, 9],
                                                           [18, 5]],
                               "height": 9.5, "material": "glass"}],
               "obstacles": [{"tag": "sign", "material": "metal",
                              "surfaces": [[[30, 5, 0], [31, 5, 0], [31, 5, 1e-3]],
                                           [[30, 6, 0], [32, 6, 0], [32.5, 6, 1], [31, 6, 2],
                                            [29.5, 6, 1]],
                                           [[33, 0, 0], [33, 2, 0], [33, 2, 2], [33, 0, 2]]]}],
               "ground": {"extent": [-40, -40, 40, 40]}}
        scene = load_scene(_scene_file(tmp_path, doc))
        counts = sorted({len(s.vertices) for s in scene.surfaces})
        assert counts == [3, 4, 5]
        assert_same_scene(scene)
        for s, w in zip(scene.surfaces[:9],
                        reference_extrusion([[0, 0], [8, 0], [3, 6]], 4.0,
                                            DEFAULT_MATERIALS["concrete"], "tri")
                        + reference_extrusion(doc["footprints"][1]["polygon"], 9.5,
                                              DEFAULT_MATERIALS["glass"], "penta")):
            assert_same_surface(s, w)

    #: One faulty surface each, with the fault today's constructor reports.
    FAULTS = {
        "too_few_vertices": [[0, 0, 0], [1, 0, 0]],
        "non_finite": [[0, 0, 0], [1, 0, 0], [1, math.nan, 0], [0, 1, 0]],
        "zero_area": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        "overflowing_area": [[0, 0, 0], [1e308, 0, 0], [1e308, 1e308, 0], [0, 1e308, 0]],
        "non_planar": [[0, 0, 0], [1, 0, 0], [1, 1, 0.1], [0, 1, 0]],
        "ear_clip": [[1, 0, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0]],   # first vertex repeated
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_keeps_type_and_message(self, fault, concrete, tmp_path):
        poly = self.FAULTS[fault]
        with pytest.raises(GeometryError) as want:
            reference_surface(poly, concrete, tag="bad")
        with pytest.raises(GeometryError) as got:
            Surface(poly, concrete, tag="bad")
        assert str(got.value) == _tagged(want.value, "bad")
        # among good surfaces of every kind, before and after it
        doc = {"footprints": [{"tag": "b", "polygon": [[0, 0], [5, 0], [5, 5]], "height": 3.0,
                               "material": "concrete"}],
               "obstacles": [{"tag": "ok", "material": "concrete",
                              "surfaces": [[[9, 0, 0], [9, 1, 0], [9, 1, 1], [9, 0, 1]]]},
                             {"tag": "bad", "material": "concrete", "surfaces": [poly]}],
               "ground": {"extent": [-50, -50, 50, 50]}}
        with pytest.raises(GeometryError) as loaded:
            load_scene(_scene_file(tmp_path, doc))
        assert str(loaded.value) == _tagged(want.value, "bad")

    def test_first_two_vertices_coinciding_is_rejected(self, concrete, tmp_path):
        poly = [[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]]
        with pytest.raises(GeometryError, match="'corner': first two vertices coincide"):
            Surface(poly, concrete, tag="corner")
        doc = {"obstacles": [{"tag": "corner", "material": "concrete", "surfaces": [poly]}],
               "ground": {"extent": [-5, -5, 5, 5]}}
        with pytest.raises(GeometryError, match="'corner': first two vertices coincide"):
            load_scene(_scene_file(tmp_path, doc))

    @pytest.mark.parametrize("extent", [[10, -10, -10, 10], [-10, 10, 10, -10],
                                        [-10, -10, -10, 10], [-10, -10, 10, math.nan]])
    def test_reversed_or_empty_ground_extent_is_rejected(self, extent, tmp_path):
        path = _scene_file(tmp_path, {"ground": {"extent": extent}})
        with pytest.raises(SceneFormatError, match=r"xmin < xmax and ymin < ymax"):
            load_scene(path)

    def test_first_fault_in_file_order_is_reported(self, concrete, tmp_path):
        bad = {name: {"tag": name, "material": "concrete", "surfaces": [poly]}
               for name, poly in self.FAULTS.items()}
        for first, second in (("non_planar", "zero_area"), ("zero_area", "non_planar"),
                              ("ear_clip", "non_finite"), ("non_finite", "ear_clip")):
            doc = {"obstacles": [bad[first], bad[second]], "ground": {"extent": [-5, -5, 5, 5]}}
            with pytest.raises(GeometryError) as want:
                reference_surface(self.FAULTS[first], concrete, tag=first)
            with pytest.raises(GeometryError) as got:
                load_scene(_scene_file(tmp_path, doc))
            assert str(got.value) == _tagged(want.value, first)
