import cmath
import math

import numpy as np
import pytest

from v2vchan.raytracer import (KINDS, SPEED_OF_LIGHT, ComplexityError, TracerConfig,
                               fresnel_coefficients, image_method_specular, lambertian_diffuse,
                               trace_los, trace_snapshot)
from v2vchan.scene import Material, Scene, Surface, load_scene, load_trajectory
from v2vchan.scenarios import (canyon_scene, data_path, free_space_scene, intersection_scene,
                               pec_ground_scene, single_wall_scene)

from conftest import big_wall

F = 5.9e9
LAM = SPEED_OF_LIGHT / F


def _key(p) -> tuple:
    """A path row's identity across snapshots."""
    return (p.kind, tuple(sid for sid, _ in p.interactions), p.tile)


class TestTraceLos:
    def test_exact_microsecond_delay(self):
        p = trace_los(free_space_scene(), (0, 0, 0), (299.792458, 0, 0), F)
        assert p.delay[0] == pytest.approx(1e-6, rel=1e-15)

    def test_blocked_by_wall(self, single_wall_scene):
        assert trace_los(single_wall_scene, (0, -1, 0), (0, 1, 0), F) is None

    def test_friis_oracle_100m(self):
        # independent Friis free-space oracle: 20 log10(4 pi d / lambda)
        p = trace_los(free_space_scene(), (0, 0, 0), (100.0, 0, 0), F)
        loss_db = 20 * math.log10(4 * math.pi * 100.0 / LAM)
        gain_db = 10 * math.log10(p.gain_linear()[0])
        assert gain_db == pytest.approx(-loss_db, abs=0.01)
        assert gain_db == pytest.approx(-87.86, abs=0.01)

    def test_identity_polarimetric_structure(self):
        a = trace_los(free_space_scene(), (0, 0, 0), (50.0, 0, 0), F).amplitude[0]
        assert np.allclose(a, a[0, 0] * np.eye(2))
        assert a[0, 0].imag == 0

    def test_coincident_endpoints_error(self):
        with pytest.raises(ValueError):
            trace_los(free_space_scene(), (1, 2, 3), (1, 2, 3), F)

    @pytest.mark.parametrize("tx, rx", [((np.nan, 0, 1.5), (50, 0, 1.5)),
                                        ((0, 0, 1.5), (50, np.inf, 1.5))])
    def test_non_finite_endpoint_rejected(self, tx, rx):
        with pytest.raises(ValueError, match="finite"):
            trace_los(free_space_scene(), tx, rx, F)
        with pytest.raises(ValueError, match="finite"):
            trace_snapshot(pec_ground_scene(), tx, rx, TracerConfig(frequency=F))


class TestFresnel:
    def test_pec_all_angles(self, pec):
        for ang in (0.0, 0.3, 1.0, 1.5):
            g_perp, g_par = fresnel_coefficients(pec, ang, F)
            assert g_perp == -1.0
            assert g_par == 1.0

    def test_grazing_limit_concrete(self, concrete):
        # |Gamma_perp| -> 1 at grazing; at 89.9 deg the exact value is
        # 1 - 2 cos(89.9deg)/sqrt(eps-1) = 0.99826
        g_perp, _ = fresnel_coefficients(concrete, math.radians(89.9), F)
        assert abs(g_perp) == pytest.approx(1.0, abs=2e-3)
        g_perp, _ = fresnel_coefficients(concrete, math.radians(89.95), F)
        assert abs(g_perp) == pytest.approx(1.0, abs=1e-3)

    def test_independent_complex_oracle(self, concrete):
        # direct evaluation of the Fresnel formulas, written separately
        eps0 = 8.8541878128e-12
        theta = math.radians(45.0)
        eps = 5.0 - 1j * 0.01 / (2 * math.pi * F * eps0)
        root = cmath.sqrt(eps - cmath.sin(theta) ** 2)
        exp_perp = (cmath.cos(theta) - root) / (cmath.cos(theta) + root)
        exp_par = (eps * cmath.cos(theta) - root) / (eps * cmath.cos(theta) + root)
        g_perp, g_par = fresnel_coefficients(concrete, theta, F)
        assert abs(g_perp - exp_perp) < 1e-12
        assert abs(g_par - exp_par) < 1e-12

    def test_normal_incidence_magnitudes_equal(self, concrete):
        g_perp, g_par = fresnel_coefficients(concrete, 0.0, F)
        assert abs(abs(g_perp) - abs(g_par)) < 1e-12

    def test_conductivity_monotone_toward_pec(self, concrete):
        mags = []
        for sigma in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
            m = Material("x", 5.0, sigma, False, 0.0)
            mags.append(abs(fresnel_coefficients(m, math.radians(40.0), F)[0]))
        assert all(b > a for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1.0

    def test_invalid_inputs(self, concrete):
        with pytest.raises(ValueError):
            fresnel_coefficients(concrete, -0.1, F)
        with pytest.raises(ValueError):
            fresnel_coefficients(concrete, 0.5, 0.0)


class TestImageMethod:
    def test_single_wall_mirror_geometry(self, single_wall_scene):
        paths = image_method_specular(single_wall_scene, (0, 1, 0), (10, 1, 0), 1, F)
        p, = paths
        assert p.length == pytest.approx(math.sqrt(104), rel=1e-12)
        assert np.allclose(p.interactions[0][1], [5, 0, 0], atol=1e-9)

    def test_reflection_law(self, single_wall_scene):
        paths = image_method_specular(single_wall_scene, (-3, 2, 1), (9, 5, 2), 1, F)
        (sid, q), = next(iter(paths)).interactions
        n = single_wall_scene.surfaces[sid].normal
        d_in = (q - np.array([-3, 2, 1.0]))
        d_out = (np.array([9, 5, 2.0]) - q)
        d_in /= np.linalg.norm(d_in)
        d_out /= np.linalg.norm(d_out)
        assert abs(d_in @ n) == pytest.approx(abs(d_out @ n), abs=1e-12)

    def test_pec_reflection_magnitude_one(self, single_wall_scene):
        paths = image_method_specular(single_wall_scene, (0, 1, 0), (10, 1, 0), 1, F)
        p = next(iter(paths))
        spreading = LAM / (4 * math.pi * p.length)
        s = np.linalg.svd(p.amplitude, compute_uv=False)
        assert s[0] == pytest.approx(spreading, rel=1e-12)

    def test_canyon_matches_image_lattice_oracle(self):
        # brute-force image enumeration for two parallel walls at y=0, y=W
        W = 20.0
        scene = canyon_scene(W)
        tx = np.array([0.0, 6.0, 5.0])
        rx = np.array([37.0, 13.0, 4.0])
        paths = image_method_specular(scene, tx, rx, 2, F)
        planar = math.hypot(rx[0] - tx[0], rx[2] - tx[2])
        yt, yr = tx[1], rx[1]
        expected = sorted([
            math.hypot(planar, yt + yr),              # (A)
            math.hypot(planar, 2 * W - yt - yr),      # (B)
            math.hypot(planar, 2 * W + yt - yr),      # (A,B)
            math.hypot(planar, 2 * W - yt + yr),      # (B,A)
        ])
        got = sorted(p.length for p in paths)
        assert len(got) == 4
        assert np.allclose(got, expected, atol=1e-9)

    def test_canyon_image_lattice_orders_3_and_4(self):
        # two walls alternate, so each order has one chain starting on either
        # wall; the image of the k-th bounce sits at the lattice offset dy
        W = 20.0
        scene = canyon_scene(W)
        tx = np.array([0.0, 6.0, 5.0])
        rx = np.array([37.0, 13.0, 4.0])
        paths = image_method_specular(scene, tx, rx, 4, F)
        planar = math.hypot(rx[0] - tx[0], rx[2] - tx[2])
        yt, yr = tx[1], rx[1]
        dys = {3: [yr + 2 * W + yt, 4 * W - yt - yr],
               4: [4 * W + yt - yr, 4 * W - yt + yr]}
        for order, dy in dys.items():
            got = sorted(p.length for p in paths if p.order == order)
            assert len(got) == 2
            assert np.allclose(got, sorted(math.hypot(planar, d) for d in dy),
                               rtol=0, atol=1e-9)

    def test_blocked_reflection_removed(self, pec, concrete):
        # reflection point is (5, 0, 0); the reflected leg crosses y=2 at
        # x = 7.5, so a blocker there must remove the path
        scene = Scene([
            big_wall(0.0, pec),
            Surface([(6.5, 2, -50), (8.5, 2, -50), (8.5, 2, 50), (6.5, 2, 50)],
                    concrete, tag="blk"),
        ])
        paths = image_method_specular(scene, (0, 4, 0), (10, 4, 0), 1, F)
        assert ("specular", (0,), None) not in [_key(p) for p in paths]

    def test_order_validation(self, single_wall_scene):
        with pytest.raises(ValueError):
            image_method_specular(single_wall_scene, (0, 1, 0), (1, 1, 0), 0, F)
        with pytest.raises(ComplexityError):
            image_method_specular(single_wall_scene, (0, 1, 0), (1, 1, 0), 5, F)

    def test_back_side_gives_no_reflection(self, single_wall_scene):
        paths = image_method_specular(single_wall_scene, (0, -1, 0), (10, -1, 0), 1, F)
        assert len(paths) == 0


class TestLambertianDiffuse:
    def _wall_scene(self, s_coeff=0.4):
        m = Material("m", 5.0, 0.01, False, s_coeff)
        wall = Surface([(-5, 0, 0), (-5, 0, 15), (5, 0, 15), (5, 0, 0)], m, tag="w")
        return Scene([wall])

    def test_grazing_scatter_is_zero(self):
        scene = self._wall_scene()
        # rx in the wall plane: cos(theta_s) = 0, tile rejected
        paths = lambertian_diffuse(scene, (0, 10, 2), (8, 0, 2), 1.0, F)
        assert len(paths) == 0

    def test_hidden_tile_has_no_path(self, concrete):
        m = Material("m", 5.0, 0.01, False, 0.4)
        wall = Surface([(-5, 0, 0), (-5, 0, 15), (5, 0, 15), (5, 0, 0)], m, tag="w")
        blocker = Surface([(-6, 5, -1), (6, 5, -1), (6, 5, 16), (-6, 5, 16)],
                          concrete, tag="blk")
        scene = Scene([wall, blocker])
        paths = lambertian_diffuse(scene, (0, 10, 2), (3, 10, 2), 1.0, F)
        assert all(p.interactions[0][0] != 0 for p in paths)

    def test_amplitude_formula_single_tile(self):
        scene = self._wall_scene(s_coeff=0.5)
        tx = np.array([0.0, 20.0, 7.5])
        rx = np.array([2.0, 15.0, 7.5])
        paths = lambertian_diffuse(scene, tx, rx, 1.0, F)
        p = min(paths, key=lambda q: q.length)
        c = p.interactions[0][1]
        r1 = np.linalg.norm(c - tx)
        r2 = np.linalg.norm(rx - c)
        n = scene.surfaces[0].normal
        cos_i = (tx - c) @ n / r1
        cos_s = (rx - c) @ n / r2
        expected = 0.5 * math.sqrt(cos_i * cos_s / math.pi) * 1.0 / (r1 * r2) * LAM / (4 * math.pi)
        assert p.amplitude[0, 0] == pytest.approx(expected, rel=1e-12)
        assert p.amplitude[0, 1] == 0

    def test_tile_refinement_convergence(self):
        scene = self._wall_scene()
        tx = np.array([-10.0, 20.0, 2.0])
        rx = np.array([10.0, 20.0, 2.0])
        totals = [lambertian_diffuse(scene, tx, rx, ts, F).gain_linear().sum()
                  for ts in (1.0, 0.5)]
        assert abs(totals[1] - totals[0]) / totals[0] < 0.01

    def test_cull_matches_exhaustive(self):
        scene = self._wall_scene()
        tx = np.array([-10.0, 20.0, 2.0])
        rx = np.array([10.0, 18.0, 3.0])
        full = lambertian_diffuse(scene, tx, rx, 1.0, F)
        strongest = full.gain_linear().max()
        floor = strongest * 10 ** (-20 / 10)
        expected = sorted(full.tile[full.gain_linear() >= floor].tolist())
        culled = lambertian_diffuse(scene, tx, rx, 1.0, F, cull_db=-20.0)
        culled = culled.tile[culled.gain_linear() >= floor]
        assert sorted(culled.tolist()) == expected

    def test_cull_floor_applied_by_lambertian_diffuse(self):
        # no filter in the caller: at -3 dB the tiles tested before the
        # strongest one is confirmed must still meet the floor
        scene = self._wall_scene()
        tx = np.array([-10.0, 20.0, 2.0])
        rx = np.array([10.0, 18.0, 3.0])
        full = lambertian_diffuse(scene, tx, rx, 1.0, F)
        floor = full.gain_linear().max() * 10 ** (-3 / 10)
        expected = sorted(full.tile[full.gain_linear() >= floor].tolist())
        culled = lambertian_diffuse(scene, tx, rx, 1.0, F, cull_db=-3.0)
        assert sorted(culled.tile.tolist()) == expected

    def test_tile_size_validation(self):
        with pytest.raises(ValueError):
            lambertian_diffuse(self._wall_scene(), (0, 5, 1), (1, 5, 1), 0.0, F)


class TestTraceSnapshot:
    def test_empty_scene_single_los(self):
        cfg = TracerConfig(frequency=F)
        paths = trace_snapshot(free_space_scene(), (0, 0, 1), (50, 0, 1), cfg)
        assert [p.kind for p in paths] == ["los"]

    def test_nlos_corner_has_specular(self, pec):
        # corner blocker kills LOS (crossing at x=5) but the far wall's
        # reflected leg crosses y=2 at x=8.6, clear of it (visibility oracle
        # by construction)
        blocker = Surface([(2, 2, -20), (6, 2, -20), (6, 2, 20), (2, 2, 20)],
                          pec, tag="corner")
        mirror = big_wall(-5.0, pec, normal_sign=1, tag="mirror")
        scene = Scene([blocker, mirror])
        cfg = TracerConfig(frequency=F, max_order=1, enable_diffuse=False)
        tx = (0.0, 0.0, 0.0)
        rx = (10.0, 4.0, 0.0)
        paths = trace_snapshot(scene, tx, rx, cfg)
        kinds = [p.kind for p in paths]
        assert "los" not in kinds
        assert kinds.count("specular") >= 1
        assert _key(next(iter(paths))) == ("specular", (1,), None)

    def test_diffuse_superset(self):
        m = Material("m", 5.0, 0.01, False, 0.4)
        wall = Surface([(-5, 0, 0), (-5, 0, 15), (5, 0, 15), (5, 0, 0)], m, tag="w")
        scene = Scene([wall])
        base = TracerConfig(frequency=F, enable_diffuse=False, cull_db=-120.0)
        with_diff = TracerConfig(frequency=F, enable_diffuse=True, cull_db=-120.0)
        tx, rx = (0, 10, 2), (3, 12, 2)
        p0 = trace_snapshot(scene, tx, rx, base)
        p1 = trace_snapshot(scene, tx, rx, with_diff)
        assert len(p1) > len(p0)

    def test_deterministic_ordering(self):
        scene = pec_ground_scene()
        cfg = TracerConfig(frequency=F)
        a = trace_snapshot(scene, (0, 0, 1.5), (60, 0, 1.5), cfg)
        b = trace_snapshot(scene, (0, 0, 1.5), (60, 0, 1.5), cfg)
        assert [_key(p) for p in a] == [_key(p) for p in b]
        kinds = [p.kind for p in a]
        assert kinds == sorted(kinds, key=["los", "specular", "diffuse"].index)


@pytest.mark.parametrize("scene_file", ["intersection_plain.json", "intersection.json"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_bundled_drive_emits_each_match_key_once(scene_file, order):
    # the premise of the key join that pairs paths across snapshots
    scene = load_scene(data_path(scene_file))
    tx = load_trajectory(data_path("tx_trajectory.csv"))
    rx = load_trajectory(data_path("rx_trajectory.csv"))
    cfg = TracerConfig(max_order=order)
    for t in np.linspace(tx.t[0], tx.t[-1], 7):
        keys = [_key(p) for p in trace_snapshot(scene, tx.at(t)[0], rx.at(t)[0], cfg)]
        assert keys and len(set(keys)) == len(keys)


class TestTracerConfig:
    @pytest.mark.parametrize("field", ["frequency", "tile_size", "cull_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"finite: {field}"):
            TracerConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0)])
    def test_max_order_must_be_an_integer(self, value):
        # a float order used to fail later, inside tracing, with Python's
        # TypeError, and True used to trace as order 1
        with pytest.raises(ValueError, match="max_order must be an integer"):
            TracerConfig(max_order=value)

    def test_numpy_integer_order_accepted(self):
        assert TracerConfig(max_order=np.int64(3)).max_order == 3

    @pytest.mark.parametrize("field, value", [
        ("max_order", "2"), ("tile_size", None), ("frequency", True), ("cull_db", "-40"),
        ("enable_diffuse", "yes"), ("enable_diffuse", None)])
    def test_rejects_values_that_are_not_real_numbers(self, field, value):
        # these used to raise math.isfinite's TypeError, naming no field
        with pytest.raises(ValueError, match=f"finite: {field}$"):
            TracerConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_a_value_of_enable_diffuse(self, value):
        assert TracerConfig(enable_diffuse=value).enable_diffuse is value

    @pytest.mark.parametrize("frequency", [0.0, -1.0])
    def test_frequency_must_be_positive(self, frequency):
        with pytest.raises(ValueError, match="frequency must be > 0"):
            TracerConfig(frequency=frequency)

    @pytest.mark.parametrize("cull_db", [5e-324, 1e-9, 10.0, 40.0])
    def test_positive_cull_rejected(self, cull_db):
        with pytest.raises(ValueError, match="'cull_db' must be <= 0"):
            TracerConfig(cull_db=cull_db)

    def test_positive_cull_would_drop_every_diffuse_path(self):
        # why a floor above the strongest path is rejected: the snapshot
        # keeps its LOS and specular paths and silently loses every diffuse one
        scene = intersection_scene(plain=True)
        tx, rx = (-20.0, -4.25, 1.73), (3.5, -20.0, 1.73)
        paths = trace_snapshot(scene, tx, rx, TracerConfig(cull_db=-40.0))
        assert np.sum(paths.kind == KINDS.index("diffuse")) == 566
        known_best = float(trace_snapshot(scene, tx, rx, TracerConfig(enable_diffuse=False))
                           .gain_linear().max())
        assert len(lambertian_diffuse(scene, tx, rx, 1.0, cull_db=10.0,
                                      known_best_gain=known_best)) == 0
        assert TracerConfig(cull_db=0.0).cull_db == TracerConfig(cull_db=-0.0).cull_db == 0.0


class TestPathInvariants:
    def test_delay_length_consistency(self):
        scene = pec_ground_scene()
        cfg = TracerConfig(frequency=F)
        for p in trace_snapshot(scene, (0, 0, 1.5), (80, 0, 1.5), cfg):
            assert p.delay == pytest.approx(p.length / SPEED_OF_LIGHT, rel=1e-15)

    def test_no_path_beats_free_space_of_own_length(self):
        scene = pec_ground_scene()
        cfg = TracerConfig(frequency=F)
        paths = trace_snapshot(scene, (0, 0, 1.5), (30, 0, 1.5), cfg)
        for p, gain in zip(paths, paths.gain_linear()):
            fs = (LAM / (4 * math.pi * p.length)) ** 2
            assert gain <= fs * (1 + 1e-9)

    def test_reciprocity_randomized(self):
        rng = np.random.default_rng(11)
        scene = canyon_scene(14.0)
        cfg = TracerConfig(frequency=F, max_order=2, enable_diffuse=False)
        for _ in range(40):
            tx = rng.uniform([-40, 1, 1], [40, 13, 10])
            rx = rng.uniform([-40, 1, 1], [40, 13, 10])
            if np.linalg.norm(rx - tx) < 0.5:
                continue
            pa = trace_snapshot(scene, tx, rx, cfg)
            pb = trace_snapshot(scene, rx, tx, cfg)
            assert len(pa) == len(pb)
            la = sorted(p.length for p in pa)
            lb = sorted(p.length for p in pb)
            assert np.allclose(la, lb, rtol=1e-9)
            ga = sorted(np.linalg.norm(p.amplitude) for p in pa)
            gb = sorted(np.linalg.norm(p.amplitude) for p in pb)
            assert np.allclose(ga, gb, rtol=1e-9)
