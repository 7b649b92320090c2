import math

import numpy as np
import pytest

from v2vchan.antenna import (AntennaPattern, ArrayLayout, angles_to_direction,
                             default_sharkfin_array, direction_to_angles,
                             isotropic_array, isotropic_pattern, pattern_gain,
                             vh_basis)


class TestBasis:
    def test_right_handed_horizontal(self):
        e_v, e_h = vh_basis([1.0, 0.0, 0.0])
        assert np.allclose(e_h[0], [0, 1, 0])
        assert np.allclose(e_v[0], [0, 0, 1])

    def test_degenerate_vertical(self):
        e_v, e_h = vh_basis([0.0, 0.0, 1.0])
        assert np.isclose(np.linalg.norm(e_h[0]), 1.0)
        assert abs(e_h[0] @ np.array([0, 0, 1.0])) < 1e-12

    def test_orthonormal_random(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((200, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        e_v, e_h = vh_basis(d)
        assert np.allclose(np.einsum("ij,ij->i", e_v, e_h), 0, atol=1e-12)
        assert np.allclose(np.einsum("ij,ij->i", e_v, d), 0, atol=1e-12)
        assert np.allclose(np.linalg.norm(e_v, axis=1), 1)


class TestPatternGain:
    def test_isotropic_identity(self):
        p = isotropic_pattern()
        g = pattern_gain(p, [0.3, -0.4, math.sqrt(1 - 0.25)])
        assert g[0] == pytest.approx(1.0)
        assert g[1] == 0.0

    def test_exact_at_grid_node(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((36, 19, 2)) + 1j * rng.standard_normal((36, 19, 2))
        p = AntennaPattern(grid)
        # node az=30deg (index 3), el=+10deg (index 10)
        d = angles_to_direction(30.0, 10.0)
        assert np.allclose(pattern_gain(p, d), grid[3, 10])

    def test_linear_midpoint(self):
        grid = np.zeros((4, 3, 2), dtype=complex)
        grid[0, :, 0] = 1.0
        grid[1, :, 0] = 3.0
        grid[2, :, 0] = 5.0
        grid[3, :, 0] = 7.0
        p = AntennaPattern(grid)  # az step 90deg
        d = angles_to_direction(45.0, 0.0)
        assert pattern_gain(p, d)[0] == pytest.approx(2.0)

    def test_azimuth_wrap_continuity(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((90, 10, 2)).astype(complex)
        p = AntennaPattern(grid)
        eps = 1e-6
        a = p.sample(360.0 - eps, 5.0)
        b = p.sample(eps, 5.0)
        assert np.allclose(a, b, atol=1e-4)

    def test_rotation_frame_consistency(self):
        # rolling the grid by k azimuth steps == querying at a rotated azimuth
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((36, 19, 2)).astype(complex)
        p = AntennaPattern(grid)
        k = 5
        rotated = AntennaPattern(np.roll(grid, k, axis=0))
        az, el = 123.4, -37.0
        assert np.allclose(rotated.sample(az, el),
                           p.sample(az - k * p.az_step, el))

    def test_rejects_nonunit_direction(self):
        with pytest.raises(ValueError):
            pattern_gain(isotropic_pattern(), [1.0, 1.0, 0.0])

    def test_rejects_nonfinite(self):
        grid = np.ones((4, 3, 2), dtype=complex)
        grid[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            AntennaPattern(grid)


class TestSharkfin:
    def test_boresights_90_apart(self):
        arr = default_sharkfin_array()
        bs = sorted(e.boresight_az_deg for e in arr.elements)
        assert bs == [0.0, 90.0, 180.0, 270.0]

    def test_front_to_back_ratio(self):
        arr = default_sharkfin_array()
        front_el = arr.elements[2]  # element 3: front
        fwd = abs(front_el.pattern.sample(0.0, 0.0)[0])
        back = abs(front_el.pattern.sample(180.0, 0.0)[0])
        assert 20 * math.log10(fwd / back) >= 6.0

    def test_every_azimuth_within_45deg_of_a_boresight(self):
        arr = default_sharkfin_array()
        bores = np.array([e.boresight_az_deg for e in arr.elements])
        for az in range(0, 360, 5):
            diff = np.abs((bores - az + 180) % 360 - 180)
            assert diff.min() <= 45.0

    def test_element_count_and_offsets(self):
        arr = default_sharkfin_array()
        assert arr.size == 4
        assert all(np.linalg.norm(e.offset) <= 1.0 for e in arr.elements)

    def test_element_gains_heading_rotation(self):
        # rotating the vehicle and the query direction together is a no-op
        arr = default_sharkfin_array()
        rng = np.random.default_rng(5)
        d = rng.standard_normal((20, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        delta = math.radians(90.0)
        c, s = math.cos(delta), math.sin(delta)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        d_rot = d @ rot.T
        assert np.allclose(arr.element_gains(d_rot, delta),
                           arr.element_gains(d, 0.0), atol=1e-9)


class TestArrayLayout:
    def test_requires_elements(self):
        with pytest.raises(ValueError):
            ArrayLayout([])

    def test_offset_limit(self):
        from v2vchan.antenna import ArrayElement
        with pytest.raises(ValueError):
            ArrayLayout([ArrayElement(np.array([2.0, 0, 0]), isotropic_pattern())])

    def test_world_offsets_rotation(self):
        arr = isotropic_array(2, element_spacing=0.1)
        w = arr.world_offsets(math.pi / 2)
        assert np.allclose(w[0], [0, -0.05, 0], atol=1e-12)
        assert np.allclose(w[1], [0, 0.05, 0], atol=1e-12)
