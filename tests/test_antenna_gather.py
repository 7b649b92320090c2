"""The stacked antenna gather against the per-element complex interpolation.

``reference_sample`` and ``reference_element_gains`` are the per-pattern,
per-element loop that ``ArrayLayout.element_gains`` replaces: complex grid
lookups and complex-by-real weights, one element at a time.  The gather
must reproduce them bit for bit (uint64 views), across the azimuth wrap,
at the poles and for several headings.

``all_plane_bilinear`` is the gather kernel as it was before it skipped the
planes that are +0.0 everywhere: it gathers and weights all four planes
(re V, im V, re H, im H) of every pattern.  The live-plane kernel must
reproduce it bit for bit, zero signs included, for patterns with every
combination of live planes.
"""

import math

import numpy as np
import pytest

from v2vchan.antenna import (AntennaPattern, ArrayElement, ArrayLayout, _wrap360,
                             angles_to_direction, cardioid_pattern,
                             default_sharkfin_array, direction_to_angles,
                             isotropic_pattern)


def reference_sample(p: AntennaPattern, az_deg, el_deg) -> np.ndarray:
    az = np.asarray(az_deg, dtype=float) % 360.0
    el = np.clip(np.asarray(el_deg, dtype=float), -90.0, 90.0)
    fa = az / p.az_step
    fe = (el + 90.0) / p.el_step
    ia = np.floor(fa).astype(int) % p.n_az
    ie = np.minimum(np.floor(fe).astype(int), p.n_el - 2)
    wa = (fa - np.floor(fa))[..., None]
    we = (fe - ie)[..., None]
    ia1 = (ia + 1) % p.n_az
    g00 = p.grid[ia, ie]
    g10 = p.grid[ia1, ie]
    g01 = p.grid[ia, ie + 1]
    g11 = p.grid[ia1, ie + 1]
    return (g00 * (1 - wa) * (1 - we) + g10 * wa * (1 - we)
            + g01 * (1 - wa) * we + g11 * wa * we)


def reference_element_gains(layout: ArrayLayout, directions, heading_rad) -> np.ndarray:
    az, el = direction_to_angles(directions)
    out = np.empty((layout.size, len(az), 2), dtype=complex)
    for i, e in enumerate(layout.elements):
        az_local = (az - math.degrees(heading_rad) - e.boresight_az_deg) % 360.0
        out[i] = reference_sample(e.pattern, az_local, el)
    return out


def all_plane_bilinear(planes: np.ndarray, cols, az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """The gather kernel over a (4, K) table of all planes (re V, im V,
    re H, im H) of the patterns; (M, N, 2) complex."""
    base, n_az, n_el, az_step, el_step = cols
    fa = az / az_step
    fe = (np.clip(el, -90.0, 90.0) + 90.0) / el_step
    floor_a = np.floor(fa)
    ia = floor_a.astype(int) % n_az
    ie = np.minimum(np.floor(fe).astype(int), n_el - 2)
    wa = fa - floor_a
    we = fe - ie
    i00 = base + ia * n_el + ie
    i10 = base + (ia + 1) % n_az * n_el + ie
    ua, ue = 1 - wa, 1 - we
    acc = np.take(planes, i00, axis=1, mode="clip")
    acc *= ua
    acc *= ue
    term = np.empty_like(acc)
    for idx, w_a, w_e in ((i10, wa, ue), (i00 + 1, ua, we), (i10 + 1, wa, we)):
        np.take(planes, idx, axis=1, out=term, mode="clip")
        term *= w_a
        term *= w_e
        acc += term
    out = np.empty((*az.shape, 2), dtype=complex)
    out.view(float).reshape(*az.shape, 4)[...] = np.moveaxis(acc, 0, -1)
    return out


def _all_planes(p: AntennaPattern) -> np.ndarray:
    return np.moveaxis(p.grid.view(float).reshape(-1, 4), 1, 0)


def all_plane_sample(p: AntennaPattern, az_deg, el_deg) -> np.ndarray:
    az, el = np.broadcast_arrays(np.asarray(az_deg, dtype=float),
                                 np.asarray(el_deg, dtype=float))
    cols = tuple(np.array([[x]]) for x in (0, p.n_az, p.n_el, p.az_step, p.el_step))
    return all_plane_bilinear(_all_planes(p), cols, az.reshape(1, -1) % 360.0,
                              el.reshape(-1)).reshape(*az.shape, 2)


def all_plane_element_gains(layout: ArrayLayout, directions, heading_rad) -> np.ndarray:
    """``element_gains`` over a table of every distinct pattern's four planes."""
    distinct = list({id(e.pattern): e.pattern for e in layout.elements}.values())
    starts = dict(zip(map(id, distinct), np.cumsum([0] + [p.n_az * p.n_el for p in distinct])))
    rows = [(starts[id(e.pattern)], e.pattern.n_az, e.pattern.n_el, e.pattern.az_step,
             e.pattern.el_step) for e in layout.elements]
    cols = tuple(np.array(col)[:, None] for col in zip(*rows))
    az, el = direction_to_angles(directions)
    bore = np.array([[e.boresight_az_deg] for e in layout.elements])
    az_local = (az - math.degrees(heading_rad)) - bore
    az_local %= 360.0
    az_local[az_local == 360.0] = 0.0
    return all_plane_bilinear(np.concatenate([_all_planes(p) for p in distinct], axis=1),
                              cols, az_local, el)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _directions() -> np.ndarray:
    """Random directions plus azimuths next to 0/360 deg and both poles."""
    rng = np.random.default_rng(8)
    d = rng.standard_normal((600, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    tiny = [0.0, 1e-13, -1e-13, 1e-9, -1e-9, 359.9999999, 2.0, 30.0, 180.0]
    az = np.repeat(tiny, 5)
    el = np.tile([-90.0, 90.0, 0.0, 89.999, -45.0], len(tiny))
    edge = angles_to_direction(az, el)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-17, 0.0, 1.0],
                      [1.0, -1e-17, 0.0], [1.0, 1e-17, 0.0]])
    return np.concatenate((d, edge, poles))


def _mixed_layout() -> ArrayLayout:
    iso, card = isotropic_pattern(step_deg=30.0), cardioid_pattern(20.0, 3.0, step_deg=2.0)
    return ArrayLayout([ArrayElement([0.0, 0.0, 0.0], iso, 0.0),
                        ArrayElement([0.05, 0.0, 0.0], card, 90.0),
                        ArrayElement([0.1, 0.0, 0.0], iso, 270.0),
                        ArrayElement([0.15, 0.0, 0.0], card, 45.5)])


@pytest.mark.parametrize("make", [default_sharkfin_array, _mixed_layout],
                         ids=["sharkfin", "mixed"])
@pytest.mark.parametrize("heading", [0.0, math.pi / 2, -2.5, 1e-15, 2 * math.pi, 7.0])
def test_element_gains_bit_identical(make, heading):
    layout, d = make(), _directions()
    got = layout.element_gains(d, heading)
    want = reference_element_gains(layout, d, heading)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_azimuth_that_reduces_to_360():
    """A local azimuth of -1e-15 reduces to exactly 360.0, which must land
    on azimuth 0 as a second reduction puts it.  On a 161-node grid,
    360 / (360 / 161) is not 161, so 360.0 taken as it is would not."""
    pattern = cardioid_pattern(0.0, 5.0, step_deg=360.0 / 161)
    assert pattern.n_az == 161 and 360.0 / pattern.az_step != 161
    layout = ArrayLayout([ArrayElement(e.offset, pattern, e.boresight_az_deg)
                          for e in default_sharkfin_array().elements])
    front = next(e for e in layout.elements if e.boresight_az_deg == 0.0)
    d = angles_to_direction(np.zeros(5), [-90.0, -30.0, 0.0, 45.0, 90.0])
    az, el = direction_to_angles(d)
    assert np.all(az == 0.0)
    local = []
    for heading in (math.radians(1e-15), 0.0, -2 * math.pi):
        local.append((0.0 - math.degrees(heading)) - front.boresight_az_deg)
        got = layout.element_gains(d, heading)
        assert np.array_equal(_bits(got), _bits(reference_element_gains(layout, d, heading)))
    assert local == [-1e-15, 0.0, 360.0] and -1e-15 % 360.0 == 360.0
    for a in local:
        got = pattern.sample(np.full(len(el), a), el)
        assert np.array_equal(_bits(got), _bits(reference_sample(pattern, a, el)))


def test_random_complex_pattern_matches():
    """A grid with negative and complex values; off-node queries, where no
    weight is zero, agree bit for bit."""
    rng = np.random.default_rng(3)
    p = AntennaPattern(rng.standard_normal((36, 19, 2)) + 1j * rng.standard_normal((36, 19, 2)))
    az = rng.uniform(-720.0, 720.0, 500)
    el = rng.uniform(-89.0, 89.0, 500)
    assert np.array_equal(_bits(p.sample(az, el)), _bits(reference_sample(p, az, el)))


def test_sample_keeps_query_shape():
    p = cardioid_pattern(step_deg=10.0)
    assert p.sample(10.0, 5.0).shape == (2,)
    az = np.linspace(0, 350, 12).reshape(3, 4)
    got = p.sample(az, 5.0)
    assert got.shape == (3, 4, 2)
    assert np.array_equal(_bits(got), _bits(reference_sample(p, az, 5.0)))


def test_sharkfin_shares_one_pattern():
    layout = default_sharkfin_array()
    assert len({id(e.pattern) for e in layout.elements}) == 1
    assert layout._planes is layout.elements[0].pattern.planes


def test_grids_and_tables_are_read_only():
    grid = np.ones((4, 3, 2), dtype=complex)
    p = AntennaPattern(grid)
    grid[0, 0, 0] = 5.0                      # the caller's array stays the caller's
    assert p.grid[0, 0, 0] == 1.0
    for a in (p.grid, p.planes, _mixed_layout()._planes):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 2.0


class TestNonFiniteQueries:
    @pytest.mark.parametrize("az, el", [(math.nan, 0.0), (0.0, math.nan),
                                        (math.inf, 0.0), (0.0, -math.inf)])
    def test_sample_rejects(self, az, el):
        p = cardioid_pattern(step_deg=10.0)
        with pytest.raises(ValueError, match="finite"):
            p.sample(np.array([10.0, az]), np.array([0.0, el]))

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_element_gains_rejects_heading(self, heading):
        with pytest.raises(ValueError, match="finite"):
            default_sharkfin_array().element_gains(np.array([[1.0, 0.0, 0.0]]), heading)

    def test_element_gains_rejects_direction(self):
        d = np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            default_sharkfin_array().element_gains(d, 0.0)


@pytest.mark.parametrize("shape", [(3, 2), (3, 4), (3,), (2, 3, 3)])
def test_element_gains_rejects_direction_shape(shape):
    # (3, 2) used to fail with IndexError and (3, 4) to read three columns
    d = np.full(shape, 0.5)
    with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
        default_sharkfin_array().element_gains(d, 0.0)


def _grid(seed: int, planes, n_az: int = 36, n_el: int = 19) -> np.ndarray:
    """A random grid with values in the listed planes (0 re V, 1 im V,
    2 re H, 3 im H) and +0.0 in the others, some nodes exactly zero."""
    rng = np.random.default_rng(seed)
    flat = np.zeros((n_az * n_el, 4))
    for plane in planes:
        flat[:, plane] = rng.standard_normal(n_az * n_el)
        flat[rng.random(n_az * n_el) < 0.1, plane] = 0.0
    return flat.view(complex).reshape(n_az, n_el, 2)


def _live_cases() -> dict:
    """Patterns with every kind of live set, and the live set expected."""
    neg_zero_h = _grid(4, (0,))
    neg_zero_h[..., 1] = complex(-0.0, -0.0)            # H planes hold only -0.0 nodes
    one_neg_zero = _grid(5, (0, 1))
    one_neg_zero[3, 4, 1] = complex(-0.0, 0.0)           # a single -0.0 keeps re H live
    return {
        "sharkfin": (cardioid_pattern(0.0, 5.0), (0,)),
        "isotropic": (isotropic_pattern(), (0,)),
        "complex-v": (AntennaPattern(_grid(1, (0, 1))), (0, 1)),
        "h-only": (AntennaPattern(_grid(2, (2, 3))), (2, 3)),
        "dual-pol": (AntennaPattern(_grid(3, (0, 1, 2, 3))), (0, 1, 2, 3)),
        "neg-zero-h": (AntennaPattern(neg_zero_h), (0, 2, 3)),
        "one-neg-zero": (AntennaPattern(one_neg_zero), (0, 1, 2)),
        "all-zero": (AntennaPattern(np.zeros((12, 7, 2), dtype=complex)), ()),
    }


@pytest.mark.parametrize("name", list(_live_cases()))
def test_live_planes_match_all_plane_kernel(name):
    pattern, live = _live_cases()[name]
    assert pattern.live == live
    assert pattern.planes.shape == (len(live), pattern.n_az * pattern.n_el)
    d = _directions()
    az, el = direction_to_angles(d)
    rng = np.random.default_rng(6)
    for a, e in ((az, el), (rng.uniform(-720.0, 720.0, 300), rng.uniform(-89.0, 89.0, 300))):
        assert np.array_equal(_bits(pattern.sample(a, e)), _bits(all_plane_sample(pattern, a, e)))
    layout = ArrayLayout([ArrayElement([0.0, 0.0, 0.0], pattern, 0.0),
                          ArrayElement([0.05, 0.0, 0.0], pattern, 131.5)])
    assert layout.live_pols == tuple(sorted({plane // 2 for plane in live}))
    for heading in (0.0, -2.5, 1e-15):
        got = layout.element_gains(d, heading)
        assert np.array_equal(_bits(got), _bits(all_plane_element_gains(layout, d, heading)))


@pytest.mark.parametrize("names, live_pols", [
    (("sharkfin", "h-only"), (0, 1)), (("complex-v", "isotropic", "neg-zero-h"), (0, 1)),
    (("isotropic", "complex-v"), (0,)), (("all-zero", "h-only", "one-neg-zero"), (0, 1)),
    (("all-zero",), ())], ids=["v-h", "v-negzero", "v-only", "with-empty", "empty"])
def test_layout_mixing_live_sets_matches_all_plane_kernel(names, live_pols):
    """A layout's table covers the union of its patterns' live planes, a
    pattern's other planes held as +0.0 rows."""
    cases = _live_cases()
    patterns = [cases[n][0] for n in names]
    elements = [ArrayElement([0.02 * k, 0.0, 0.0], patterns[k % len(patterns)], 47.0 * k)
                for k in range(2 * len(patterns))]
    layout = ArrayLayout(elements)
    union = tuple(sorted(set().union(*(cases[n][1] for n in names))))
    assert layout.live_pols == live_pols
    assert layout._planes.shape == (len(union), sum(p.n_az * p.n_el for p in patterns))
    d = _directions()
    for heading in (0.0, math.pi / 2, 7.0):
        got = layout.element_gains(d, heading)
        assert np.array_equal(_bits(got), _bits(all_plane_element_gains(layout, d, heading)))


def _pol_layouts() -> dict:
    """Layouts whose gains the kernel returns real (V only, real-valued),
    complex (V only with im V, H only) or both (dual-polarised), each with
    the reference it is pinned to."""
    cases = _live_cases()

    def two(name):
        pattern = cases[name][0]
        return ArrayLayout([ArrayElement([0.0, 0.0, 0.0], pattern, 0.0),
                            ArrayElement([0.05, 0.0, 0.0], pattern, 131.5)])

    return {"sharkfin": (default_sharkfin_array(), reference_element_gains),
            "mixed": (_mixed_layout(), reference_element_gains),
            "complex-v": (two("complex-v"), all_plane_element_gains),
            "h-only": (two("h-only"), all_plane_element_gains),
            "dual-pol": (two("dual-pol"), all_plane_element_gains),
            "v-and-h": (ArrayLayout([ArrayElement([0.0, 0.0, 0.0], cases["sharkfin"][0], 10.0),
                                     ArrayElement([0.05, 0.0, 0.0], cases["h-only"][0], 0.0)]),
                        all_plane_element_gains)}


def _wrap_directions(layout: ArrayLayout, heading: float) -> np.ndarray:
    """``_directions`` plus directions whose local azimuth at some element
    lies a few 1e-14 deg below 0, so that it reduces to 360."""
    offsets = np.array([-1e-15, -1e-14, -3e-14, -6e-14])
    az = (np.array([[e.boresight_az_deg] for e in layout.elements]) + math.degrees(heading)
          + offsets).ravel()
    el = np.resize([0.0, 30.0, -60.0], len(az))
    return np.concatenate((_directions(), angles_to_direction(az, el)))


@pytest.mark.parametrize("name", list(_pol_layouts()))
@pytest.mark.parametrize("heading", [0.0, -0.0, 2 * math.pi, 1e6, -1e6])
def test_gain_kernel_per_polarisation_bit_identical(name, heading):
    """The kernel gives one (M, N) array per live polarisation, real when
    only its real plane is live; with +0.0 in the planes it leaves out, and
    in the polarisations that are not live, they are the reference gains
    bit for bit, and so is ``element_gains`` that assembles them."""
    layout, reference = _pol_layouts()[name]
    d = _wrap_directions(layout, heading)
    want = reference(layout, d, heading)
    az, _ = direction_to_angles(d)
    bore = np.array([[e.boresight_az_deg] for e in layout.elements])
    if heading == 0.0:                   # the reduction to 360 is exercised
        assert np.any(((az - math.degrees(heading)) - bore) % 360.0 == 360.0)
    gains = layout._gains(d, heading)
    assert len(gains) == len(layout.live_pols)
    for pol in range(2):
        if pol not in layout.live_pols:
            assert not _bits(want[..., pol]).any()
            continue
        g = gains[layout.live_pols.index(pol)]
        assert g.shape == (layout.size, len(d))
        if 2 * pol + 1 in layout._live:
            assert g.dtype == complex
            assert np.array_equal(_bits(g), _bits(want[..., pol]))
        else:
            assert g.dtype == float
            assert np.array_equal(_bits(g), _bits(want[..., pol].real))
            assert not _bits(want[..., pol].imag).any()
    assert np.array_equal(_bits(layout.element_gains(d, heading)), _bits(want))


@pytest.mark.parametrize("name", ["sharkfin", "dual-pol"])
def test_sample_reduces_large_and_signed_zero_azimuths(name):
    pattern = _live_cases()[name][0]
    az = np.array([0.0, -0.0, 360.0, -360.0, 720.0, -1e-15, -1e-14, 1e6, -1e6,
                   5.7e7 + 0.25, -5.7e7 - 0.25])
    el = np.resize([0.0, 12.5, -89.0, 45.0], len(az))
    assert np.array_equal(_bits(pattern.sample(az, el)),
                          _bits(all_plane_sample(pattern, az, el)))


def test_wrap360_is_numpy_remainder():
    """The fmod reduction gives ``% 360.0`` bit for bit: -0.0 and negative
    multiples of 360 to +0.0, tiny negatives to 360.0, large angles exactly."""
    rng = np.random.default_rng(11)
    x = np.concatenate((rng.uniform(-1e7, 1e7, 2000), rng.uniform(-720.0, 720.0, 2000),
                        [0.0, -0.0, 360.0, -360.0, -720.0, 720.0, -1e-15, 1e-15, -5e-324,
                         359.99999999999994, -359.99999999999994, 5.7e7, -5.7e7]))
    assert np.array_equal(_bits(_wrap360(x)), _bits(x % 360.0))
    d = np.array([[1.0, -0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [1.0, -1e-300, 0.0],
                  [0.0, -1.0, 0.0]])
    az, _ = direction_to_angles(d)
    assert np.array_equal(_bits(az), _bits(np.degrees(np.arctan2(d[:, 1], d[:, 0])) % 360.0))
