import json
import math

import numpy as np
import pytest

from v2vchan.scene import (DEFAULT_MATERIALS, GeometryError, Material,
                           MaterialReferenceError, Scene, SceneFormatError,
                           Surface, Trajectory, extrude_footprint,
                           latlon_to_enu, load_scene, load_trajectory,
                           occlusion_test, occlusion_test_batch, save_scene,
                           save_trajectory, straight_trajectory)

from conftest import big_wall


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
        # finite vertices whose cross products overflow give an inf or NaN normal
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
        s = Scene([g], ground=0)
        assert s.ground_plane is g

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
        assert scene.ground_plane.tag == "ground"

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
        from v2vchan.scenarios import data_path
        scene = load_scene(data_path("intersection_plain.json"))
        block_tags = {s.tag.split(":")[0] for s in scene.surfaces if s.tag.startswith("block")}
        assert len(block_tags) == 4
        for s in scene.surfaces:
            if s.tag.startswith("block"):
                assert np.isclose(s.vertices[:, 2].max(), 15.0)

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

    def test_round_trip_identity(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(SCENE_DOC))
        scene = load_scene(p)
        q = tmp_path / "saved.json"
        save_scene(scene, q)
        again = load_scene(q)
        assert len(again.surfaces) == len(scene.surfaces)
        assert again.ground == scene.ground
        for a, b in zip(scene.surfaces, again.surfaces):
            assert np.array_equal(a.vertices, b.vertices)
            assert a.material == b.material
            assert a.tag == b.tag


class TestTrajectory:
    def test_uniform_spacing_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_antenna_height_positive(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.zeros((1, 3)), np.zeros((1, 3)),
                       antenna_height=0.0)

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


def test_latlon_helper_roundtrip_scale():
    # one degree of latitude is about 111.2 km
    x, y = latlon_to_enu(55.0 + 1.0, 13.0, 55.0, 13.0)
    assert x == 0.0
    assert 110e3 < y < 112e3
