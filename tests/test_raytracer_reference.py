"""Level-wise, pruned image tree and array polarimetric chain against references.

The enumeration reference is the depth-first search that
``image_method_specular`` used before it built the image tree as arrays:
every surface sequence without an immediate repeat is expanded (no
visibility pruning), and each one's reflection points are back-substituted
one sequence and one point-in-polygon test at a time, the test being the
per-edge loop of ``conftest.reference_contains``.  Its candidates are
grouped into order levels, which go in one call to the same
``_specular_paths`` stage (occlusion batch, polarimetric chain and the
sort), so what is compared is the enumeration: the path lists must agree
in order, surface sequence and value.

The stage reference is the path stage that ran once per order level before
one call took every level: an occlusion batch, a polarimetric chain and a
stable length sort per level, the levels then concatenated.  Given the
levels ``image_method_specular`` builds, the one-call stage must return the
same bytes in all eight ``PathSet`` columns.

The dump reference is the path-dump writer that formatted one
``PropagationPath`` per row before the writer read the columns.

The chain reference is the per-path polarimetric chain that the specular
stage ran before it was vectorised over paths: scalar Fresnel coefficients,
incidence-plane basis and 2x2 rotations, one bounce and one path at a time.

The diffuse reference is the diffuse stage before it bounded blocks of
tiles: it evaluates every tile of the table, sorts every front-facing one
and fan-tests each, so what is compared is the claim that skipping the
blocks below the lowest floor or facing away from an end, the blocks hidden
from an end and the fan tests of blocks clear from it, and testing the tiles
left in one pass per end instead of in strongest-first batches, leaves every
column of the result as it was.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from conftest import big_wall, l_roof_scene, reference_contains
from v2vchan import raytracer
from v2vchan.antenna import vh_basis
from v2vchan.raytracer import (MAX_SPECULAR_ORDER, SPEED_OF_LIGHT, PathSet, TracerConfig,
                               dump_paths_csv, _diffuse_blocks, _endpoints, _fresnel,
                               _pathset, _polarimetric_chain, _reflection_points, _rotation,
                               _rowdot, _specular_paths, fresnel_coefficients,
                               image_method_specular, lambertian_diffuse, trace_los,
                               trace_snapshot)
from v2vchan.scene import (DEFAULT_MATERIALS, Scene, Surface, _cross, _fan_planes,
                           extrude_footprint, load_scene, occlusion_test_batch,
                           occlusion_test_blocks, occlusion_test_fan)
from v2vchan.scenarios import (ANTENNA_HEIGHT, EW_STREET_WIDTH, NS_STREET_WIDTH,
                               data_path, ground_surface, intersection_scene,
                               intersection_trajectories, pec_ground_scene,
                               single_wall_scene)

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
        if not reference_contains(scene.surfaces[sid], q[None, :], strict=True)[0]:
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
    candidates = []     # (sequence, [tx, q_1, ..., q_k, rx]) in lexicographic order

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
    levels = []
    for order in range(1, max_order + 1):
        level = [(seq, pts) for seq, pts in candidates if len(seq) == order]
        seqs = np.array([seq for seq, _ in level], dtype=int).reshape(-1, order)
        pts = np.array([pts for _, pts in level], dtype=float).reshape(-1, order + 2, 3)
        levels.append((seqs, pts))
    return _specular_paths(scene, levels, frequency)


def _unit(v):
    return v / np.linalg.norm(v)


def _incidence_plane_basis(d, n):
    """Unit vector perpendicular to the incidence plane (s-polarization axis)."""
    s = np.cross(d, n)
    ns = np.linalg.norm(s)
    if ns < 1e-9:
        # normal incidence: incidence plane undefined, any transverse axis works
        e_v, e_h = vh_basis(d)
        return e_h[0]
    return s / ns


def _pol_rotation(from_v, from_h, to_a, to_b):
    """2x2 change of basis between two orthonormal transverse frames."""
    return np.array([[to_a @ from_v, to_a @ from_h],
                     [to_b @ from_v, to_b @ from_h]])


def reference_chain(points, surfaces, frequency, scene):
    """The 2x2 matrix mapping departure (V, H) to arrival (V, H) along one
    path [tx, q_1, ..., q_k, rx] over ``surfaces``, spreading loss excluded."""
    dirs = [_unit(points[i + 1] - points[i]) for i in range(len(points) - 1)]
    e_v, e_h = vh_basis(dirs[0])
    cur_v, cur_h = e_v[0], e_h[0]
    m = np.eye(2, dtype=complex)
    for b, sid in enumerate(surfaces):
        surf = scene.surfaces[sid]
        d_in, d_out = dirs[b], dirs[b + 1]
        n = surf.normal
        cos_i = abs(float(d_in @ n))
        theta = math.acos(min(1.0, cos_i))
        g_perp, g_par = fresnel_coefficients(surf.material, theta, frequency)
        s_hat = _incidence_plane_basis(d_in, n)
        p_in = np.cross(s_hat, d_in)
        p_out = np.cross(s_hat, d_out)
        t_in = _pol_rotation(cur_v, cur_h, s_hat, p_in)
        m = np.diag([g_perp, g_par]) @ t_in @ m
        ev_out, eh_out = vh_basis(d_out)
        cur_v, cur_h = ev_out[0], eh_out[0]
        t_out = _pol_rotation(s_hat, p_out, cur_v, cur_h).astype(complex)
        m = t_out @ m
    return m


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


def _courtyard():
    # a U-shaped block has two parallel facing walls, so fourth-order chains
    # between them and the ground exist
    concrete = DEFAULT_MATERIALS["concrete"]
    block = extrude_footprint([(0, 0), (40, 0), (40, 30), (30, 30), (30, 10), (10, 10),
                               (10, 30), (0, 30)], 12.0, concrete, tag="U")
    return Scene(block + [ground_surface(80.0)])


def test_order_4_courtyard_block_over_ground():
    scene = _courtyard()
    rng = np.random.default_rng(7)
    for _ in range(3):
        tx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), ANTENNA_HEIGHT])
        rx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), rng.uniform(1.0, 3.0)])
        want = reference_specular(scene, tx, rx, 4)
        assert any(p.order == 4 for p in want)
        _assert_same(image_method_specular(scene, tx, rx, 4, F), want)


L_ROOF_PLACEMENTS = [((14, 14, 1.7), (30, 12, 2.0)), ((12, 12, 10), (2, 3, 7)),
                     ((15, 15, 8), (18, 2, 9)), ((11, 16, 9), (16, 11, 7)),
                     ((14, -8, 2), (16, -30, 3)), ((10, 30, 1.7), (30, 10, 1.7))]


def test_orders_1_to_3_over_concave_roof_and_triangle():
    # in the L block's notch, above its roof (the third placement's roof
    # point falls in the notch) and by the triangular sign, so padded and
    # masked edges decide paths
    scene = l_roof_scene()
    roof, sign = 6, 7
    hit, orders = set(), set()
    for tx, rx in L_ROOF_PLACEMENTS:
        want = reference_specular(scene, tx, rx, 3)
        _assert_same(image_method_specular(scene, tx, rx, 3, F), want)
        hit.update(want.surfaces.ravel().tolist())
        orders.update(want.order.tolist())
    assert {roof, sign} <= hit and orders == {1, 2, 3}


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



CHAIN_RTOL = 1e-13


def _assert_chain_matches_reference(scene, tx, rx, max_order):
    """Trace the speculars; each amplitude must equal the free-space gain
    times the per-path reference chain, to CHAIN_RTOL of the matrix's
    largest entry.  Returns the paths."""
    tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
    paths = image_method_specular(scene, tx, rx, max_order, F)
    lam = SPEED_OF_LIGHT / F
    for p in paths:
        pts = [tx] + [q for _, q in p.interactions] + [rx]
        chain = reference_chain(pts, [sid for sid, _ in p.interactions], F, scene)
        want = lam / (4.0 * math.pi * p.length) * chain
        assert np.abs(p.amplitude - want).max() <= CHAIN_RTOL * np.abs(want).max()
    return paths


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "furnished"])
def test_chain_matches_reference_on_bundled_scenes(plain):
    scene = intersection_scene(plain=plain)
    n = 0
    for tx, rx in PLACEMENTS:
        n += len(_assert_chain_matches_reference(scene, tx, rx, 3))
    assert n >= 3 * len(PLACEMENTS)


def test_chain_matches_reference_on_order_4_courtyard():
    scene = _courtyard()
    rng = np.random.default_rng(11)
    orders = set()
    for _ in range(3):
        tx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), ANTENNA_HEIGHT])
        rx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), rng.uniform(1.0, 3.0)])
        orders.update(_assert_chain_matches_reference(scene, tx, rx, 4).order.tolist())
    assert orders == {1, 2, 3, 4}


def test_chain_matches_reference_over_pec_ground():
    paths = _assert_chain_matches_reference(pec_ground_scene(), (0, 0, 1.5), (30, 0, 2.0), 1)
    assert len(paths) == 1
    # a vertical dipole over PEC sees an in-phase image: V maps onto V with a positive sign
    assert paths.amplitude[0, 0, 0].real > 0


def test_chain_matches_reference_at_normal_incidence():
    # d_in is exactly anti-parallel to the wall normal, so cross(d_in, n) is
    # zero and s_hat comes from the transverse-basis fallback
    for material in (DEFAULT_MATERIALS["concrete"], DEFAULT_MATERIALS["metal"]):
        paths = _assert_chain_matches_reference(single_wall_scene(material), (0, 5, 1),
                                                (0, 10, 1), 1)
        assert len(paths) == 1
        d_in = paths.departure[0]
        assert np.array_equal(np.cross(d_in, [0.0, 1.0, 0.0]), np.zeros(3))


@pytest.mark.parametrize("scene", [pec_ground_scene(), intersection_scene(plain=True)],
                         ids=["pec", "intersection"])
def test_chain_matches_reference_at_grazing_incidence(scene):
    paths = _assert_chain_matches_reference(scene, (-60, 0.3, 0.02), (60, 0.5, 0.03), 2)
    ground = [p for p in paths if [sid for sid, _ in p.interactions] == [len(scene.surfaces) - 1]]
    assert len(ground) == 1
    cos_i = abs(ground[0].departure[2])
    assert cos_i < 1e-3     # incidence beyond 89.9 degrees


def _level_candidates(scene, tx, rx, seqs):
    """One level's candidates over ``seqs`` through the array back-substitution."""
    tx, rx = _endpoints(tx, rx)
    images = np.repeat(tx[None, None, :], len(seqs), axis=0)
    for j in range(seqs.shape[1]):
        n, off = scene.normals[seqs[:, j]], scene.offsets[seqs[:, j]]
        prev = images[:, -1]
        img = prev - 2.0 * (np.sum(prev * n, axis=1) - off)[:, None] * n
        images = np.concatenate((images, img[:, None, :]), axis=1)
    return _reflection_points(scene, tx, rx, seqs, images)


def _assert_empty(paths):
    shapes = {"kind": (0,), "surfaces": (0, MAX_SPECULAR_ORDER),
              "points": (0, MAX_SPECULAR_ORDER, 3), "tile": (0,), "length": (0,),
              "amplitude": (0, 2, 2), "departure": (0, 3), "arrival": (0, 3)}
    assert {name: getattr(paths, name).shape for name in shapes} == shapes
    dtypes = {name: getattr(paths, name).dtype.kind for name in shapes}
    assert dtypes == {"kind": "i", "surfaces": "i", "points": "f", "tile": "i", "length": "f",
                      "amplitude": "c", "departure": "f", "arrival": "f"}


def test_level_with_every_candidate_blocked_is_empty():
    # a panel between the endpoints and the mirror blocks both sub-segments
    concrete = DEFAULT_MATERIALS["concrete"]
    mirror = Surface([(-50, 0, -50), (-50, 0, 50), (50, 0, 50), (50, 0, -50)], concrete)
    screen = Surface([(-50, 2, -50), (50, 2, -50), (50, 2, 50), (-50, 2, 50)], concrete)
    scene = Scene([mirror, screen])
    seqs, pts = _level_candidates(scene, (0, 5, 1), (10, 5, 1), np.array([[0]]))
    assert seqs.tolist() == [[0]] and pts.shape == (1, 3, 3)
    _assert_empty(_specular_paths(scene, [(seqs, pts)], F))
    _assert_empty(image_method_specular(scene, (0, 5, 1), (10, 5, 1), 1, F))


def test_level_with_every_candidate_rejected_is_empty():
    # the reflection point of the small panel falls outside its polygon
    concrete = DEFAULT_MATERIALS["concrete"]
    panel = Surface([(20, 0, 0), (20, 0, 2), (22, 0, 2), (22, 0, 0)], concrete)
    scene = Scene([panel])
    seqs, pts = _level_candidates(scene, (0, 5, 1), (10, 5, 1), np.array([[0]]))
    assert seqs.shape == (0, 1) and seqs.dtype.kind == "i" and pts.shape == (0, 3, 3)
    _assert_empty(_specular_paths(scene, [(seqs, pts)], F))
    _assert_empty(image_method_specular(scene, (0, 5, 1), (10, 5, 1), 1, F))


def reference_level_chain(scene, seqs, dirs, frequency):
    """The polarimetric chain of one order level as the per-level stage ran
    it: ``seqs`` (P, k) surface ids and ``dirs`` (P, k + 1, 3) unit segment
    directions."""
    p, k = seqs.shape
    sid = seqs.ravel()
    d_in, d_out, n = dirs[:, :-1].reshape(-1, 3), dirs[:, 1:].reshape(-1, 3), scene.normals[sid]
    theta = np.arccos(np.minimum(1.0, np.abs(_rowdot(d_in, n))))
    gamma = np.zeros((p * k, 2, 2), dtype=complex)
    gamma[:, [0, 1], [0, 1]] = _fresnel([s.material for s in scene.surfaces], sid, theta,
                                        frequency)
    s = _cross(d_in, n)
    ns = np.sqrt(_rowdot(s, s))
    normal = ns < 1e-9
    basis_in = vh_basis(d_in)
    s_hat = np.where(normal[:, None], basis_in[1], s / np.where(normal, 1.0, ns)[:, None])
    t_in = (gamma @ _rotation(basis_in, (s_hat, _cross(s_hat, d_in)))).reshape(p, k, 2, 2)
    t_out = _rotation((s_hat, _cross(s_hat, d_out)), vh_basis(d_out)).astype(complex)
    t_out = t_out.reshape(p, k, 2, 2)
    m = np.broadcast_to(np.eye(2, dtype=complex), (p, 2, 2))
    for b in range(k):
        m = t_out[:, b] @ (t_in[:, b] @ m)
    return m


def reference_level_paths(scene, seqs, pts, frequency=F):
    """The unobstructed paths of one order level, sorted by length, as the
    per-level stage returned them: ``seqs`` (M, k), ``pts`` (M, k + 2, 3)."""
    m, k = seqs.shape
    blocked = occlusion_test_batch(scene, pts[:, :-1].reshape(-1, 3), pts[:, 1:].reshape(-1, 3))
    keep = ~blocked.reshape(m, k + 1).any(axis=1)
    seqs, pts = seqs[keep], pts[keep]
    seg = (pts[:, 1:] - pts[:, :-1]).reshape(-1, 3)
    seg_len = np.sqrt(_rowdot(seg, seg)).reshape(-1, k + 1)
    dirs = seg.reshape(-1, k + 1, 3) / seg_len[:, :, None]
    length = seg_len[:, 0]
    for j in range(1, k + 1):
        length = length + seg_len[:, j]
    lam = SPEED_OF_LIGHT / frequency
    chain = reference_level_chain(scene, seqs, dirs, frequency)
    amplitude = (lam / (4.0 * math.pi * length))[:, None, None] * chain
    paths = _pathset("specular", length, amplitude, dirs[:, 0], dirs[:, -1], seqs, pts[:, 1:-1])
    return paths.take(np.argsort(length, kind="stable"))


def _specular_and_levels(monkeypatch, scene, tx, rx, max_order):
    """``image_method_specular``'s paths and the order levels it handed the
    path stage, which must be called once."""
    seen = []
    monkeypatch.setattr(raytracer, "_specular_paths",
                        lambda *args: seen.append(args[1]) or _specular_paths(*args))
    got = image_method_specular(scene, tx, rx, max_order, F)
    assert len(seen) == 1
    return got, seen[0]


def _assert_stage_bytes(monkeypatch, scene, tx, rx, max_order):
    """Every column of ``image_method_specular`` byte for byte as the
    per-level stage gives it on the same levels.  Returns the paths and
    the levels."""
    got, levels = _specular_and_levels(monkeypatch, scene, tx, rx, max_order)
    want = PathSet.concat([reference_level_paths(scene, seqs, pts) for seqs, pts in levels])
    _assert_same_columns(got, want, (tuple(np.ravel(tx)), tuple(np.ravel(rx)), max_order))
    return got, levels


@pytest.mark.parametrize("case", range(len(PLACEMENTS)))
def test_stage_matches_per_level_stage_bytes(intersection, monkeypatch, case):
    tx, rx = PLACEMENTS[case]
    for order in (1, 2, 3):
        _assert_stage_bytes(monkeypatch, intersection, tx, rx, order)


def test_stage_matches_per_level_stage_bytes_on_order_4_courtyard(monkeypatch):
    scene = _courtyard()
    rng = np.random.default_rng(7)
    orders = set()
    for _ in range(3):
        tx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), ANTENNA_HEIGHT])
        rx = np.array([rng.uniform(11, 29), rng.uniform(11, 45), rng.uniform(1.0, 3.0)])
        orders.update(_assert_stage_bytes(monkeypatch, scene, tx, rx, 4)[0].order.tolist())
    assert orders == {1, 2, 3, 4}


def test_stage_matches_per_level_stage_bytes_over_concave_roof(monkeypatch):
    scene = l_roof_scene()
    orders = set()
    for tx, rx in L_ROOF_PLACEMENTS:
        orders.update(_assert_stage_bytes(monkeypatch, scene, tx, rx, 3)[0].order.tolist())
    assert orders == {1, 2, 3}


def _corridor():
    """Two facing walls at y = 0 and y = 10 and, 1 m in front of each, a
    panel facing its wall.  Between ``CORRIDOR_TX`` and ``CORRIDOR_RX`` the
    panels block both first-order paths and neither second-order one, and
    neither end sees a panel's front."""
    concrete = DEFAULT_MATERIALS["concrete"]

    def quad(y, x0, x1, z0, z1, facing):
        corners = [(x0, y, z0), (x1, y, z0), (x1, y, z1), (x0, y, z1)]
        surface = Surface(corners, concrete)
        return surface if surface.normal[1] * facing > 0 else Surface(corners[::-1], concrete)

    return Scene([quad(0, -50, 50, -50, 50, 1), quad(10, -50, 50, -50, 50, -1),
                  quad(1, 7, 13, 0, 4, -1), quad(9, 7, 13, 0, 4, 1)])


CORRIDOR_TX, CORRIDOR_RX = (0.0, 5.0, 1.0), (20.0, 5.0, 3.0)


def test_order_with_every_candidate_blocked_beside_one_that_survives(monkeypatch):
    got, levels = _assert_stage_bytes(monkeypatch, _corridor(), CORRIDOR_TX, CORRIDOR_RX, 2)
    assert [seqs.tolist() for seqs, _ in levels] == [[[0], [1]], [[0, 1], [1, 0]]]
    assert got.order.tolist() == [2, 2]
    assert got.surfaces[:, :2].tolist() == [[0, 1], [1, 0]]


def test_tree_that_stops_before_max_order(monkeypatch):
    # one wall: no order-2 sequence exists, so the tree stops after order 1
    scene = single_wall_scene(DEFAULT_MATERIALS["concrete"])
    got, levels = _assert_stage_bytes(monkeypatch, scene, (0, 5, 1), (10, 5, 1), 4)
    assert [seqs.shape for seqs, _ in levels] == [(1, 1)]
    assert got.order.tolist() == [1]


def test_stage_without_any_candidate_is_empty(monkeypatch):
    got, levels = _specular_and_levels(monkeypatch, Scene([]), (0, 0, 1), (10, 0, 1), 4)
    assert levels == []
    _assert_empty(got)
    _assert_empty(_specular_paths(Scene([]), [], F))
    scene = _corridor()
    no_candidates = [(np.zeros((0, k), dtype=int), np.zeros((0, k + 2, 3))) for k in (1, 2, 3)]
    _assert_empty(_specular_paths(scene, no_candidates, F))


def test_chain_rows_do_not_depend_on_the_batch():
    """A path's chain from a batch of one has the bits of its row in a batch
    of every order, whatever kernel numpy's matmul takes for each stack."""
    scene = _courtyard()
    tx, rx = np.array([20.0, 20.0, ANTENNA_HEIGHT]), np.array([15.0, 40.0, 2.0])
    paths = image_method_specular(scene, tx, rx, 4, F)
    assert set(paths.order.tolist()) == {1, 2, 3, 4} and len(paths) > 10
    order = paths.order
    sids = [paths.surfaces[i, :k] for i, k in enumerate(order.tolist())]
    seg = [np.diff(np.vstack((tx, paths.points[i, :k], rx)), axis=0)
           for i, k in enumerate(order.tolist())]
    dirs = [d / np.sqrt(_rowdot(d, d))[:, None] for d in seg]
    batch = _polarimetric_chain(scene, np.concatenate(sids), np.concatenate(dirs), order, F)
    lam = SPEED_OF_LIGHT / F
    for i in range(len(paths)):
        one = _polarimetric_chain(scene, sids[i], dirs[i], order[i:i + 1], F)
        assert one.tobytes() == batch[i:i + 1].tobytes(), i
        amplitude = (lam / (4.0 * math.pi * paths.length[i:i + 1]))[:, None, None] * one
        assert amplitude.tobytes() == paths.amplitude[i:i + 1].tobytes(), i


@pytest.mark.parametrize("max_order", [1, 2, 3, 4])
def test_one_occlusion_batch_and_one_chain_per_call(intersection, monkeypatch, max_order):
    calls = {"occlusion_test_batch": 0, "_polarimetric_chain": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(raytracer, name, wrapper)

    counted("occlusion_test_batch", occlusion_test_batch)
    counted("_polarimetric_chain", _polarimetric_chain)
    tx, rx = PLACEMENTS[0]
    paths = image_method_specular(intersection, tx, rx, max_order, F)
    assert set(paths.order.tolist()) == set(range(1, max_order + 1))
    assert calls == {"occlusion_test_batch": 1, "_polarimetric_chain": 1}


def reference_dump(paths, t, fh):
    for p, g in zip(paths, paths.gain_linear().tolist()):
        pts = ";".join(f"{q[0]:.6f}|{q[1]:.6f}|{q[2]:.6f}" for _, q in p.interactions)
        gain_db = 10.0 * math.log10(g) if g > 0 else -math.inf
        fh.write(f"{t!r},{p.kind},{p.order},{p.length!r},{p.delay!r},"
                 f"{gain_db:.6f},{p.order},{pts}\n")


def _dumps(paths, t):
    got, want = io.StringIO(), io.StringIO()
    dump_paths_csv(paths, t, got)
    reference_dump(paths, t, want)
    return got.getvalue(), want.getvalue()


def test_dump_matches_reference_writer():
    # every kind, orders 0 to 4, a zero-gain row (-inf dB), an empty set and
    # a set whose paths all have order 0
    scene = _courtyard()
    tx, rx = np.array([20.0, 20.0, ANTENNA_HEIGHT]), np.array([15.0, 40.0, 2.0])
    paths = trace_snapshot(scene, tx, rx, TracerConfig(frequency=F, max_order=4))
    assert set(paths.order.tolist()) == {0, 1, 2, 3, 4} and set(paths.kind.tolist()) == {0, 1, 2}
    silent = paths.amplitude.copy()
    silent[3] = 0.0
    los = trace_los(scene, tx, rx, F)
    cases = [(paths, 1.25), (dataclasses.replace(paths, amplitude=silent), np.float64(0.01)),
             (PathSet.concat([]), 0.0), (PathSet.concat([los, los]), 7.5e-3)]
    for p, t in cases:
        got, want = _dumps(p, t)
        assert got == want and got.count("\n") == len(p)
    assert ",-inf," in _dumps(*cases[1])[0]


def reference_diffuse(scene: Scene, tx, rx, tile_size: float, frequency: float = F, *,
                      cull_db: float | None = None, known_best_gain: float = 0.0) -> PathSet:
    """The diffuse stage that evaluates and sorts every front-facing tile of
    the table before its cull loop."""
    tx, rx = _endpoints(tx, rx)
    lam = SPEED_OF_LIGHT / frequency
    scatter = np.array([s.material.scattering_coefficient for s in scene.surfaces])
    sids, centers, areas, tids = scene.tiles(tile_size)
    v1 = centers - tx
    v2 = rx - centers
    r1 = np.linalg.norm(v1, axis=1)
    r2 = np.linalg.norm(v2, axis=1)
    valid = (r1 > 1e-9) & (r2 > 1e-9) & (scatter[sids] > 0.0)
    n = scene.normals[sids]
    cos_i = np.where(valid, -_rowdot(v1, n) / np.where(valid, r1, 1.0), 0.0)
    cos_s = np.where(valid, _rowdot(v2, n) / np.where(valid, r2, 1.0), 0.0)
    front = np.flatnonzero(valid & (cos_i > 1e-9) & (cos_s > 1e-9))
    sids, centers, tids, v1, v2, r1, r2 = (
        x[front] for x in (sids, centers, tids, v1, v2, r1, r2))
    mag = (scatter[sids] * np.sqrt(cos_i[front] * cos_s[front] / math.pi)
           * np.sqrt(areas[front]) / (r1 * r2) * lam / (4.0 * math.pi))
    order = np.lexsort((tids, sids, -mag))
    keep = np.zeros(len(order), dtype=bool)
    best_gain = known_best_gain
    rel = 10.0 ** (cull_db / 10.0) if cull_db is not None else 0.0
    chunk = 1024
    pos = 0
    while pos < len(order):
        sel = order[pos:pos + chunk]
        if cull_db is not None:
            above = mag[sel] ** 2 >= best_gain * rel
            if not above.any():
                break
            sel = sel[above]
        sel = sel[~occlusion_test_fan(scene, tx, centers[sel])]
        if len(sel):
            sel = sel[~occlusion_test_fan(scene, centers[sel], rx)]
        if len(sel):
            keep[sel] = True
            best_gain = max(best_gain, float(np.max(mag[sel]) ** 2))
        pos += chunk
    keep &= mag ** 2 >= best_gain * rel
    length = r1 + r2
    idx = np.flatnonzero(keep)
    idx = idx[np.argsort(length[idx], kind="stable")]
    v1, v2 = v1[idx], v2[idx]
    departure = v1 / np.sqrt(_rowdot(v1, v1))[:, None]
    arrival = v2 / np.sqrt(_rowdot(v2, v2))[:, None]
    amplitude = mag[idx, None, None] * np.eye(2, dtype=complex)
    return _pathset("diffuse", length[idx], amplitude, departure, arrival,
                    sids[idx, None], centers[idx, None], tile=tids[idx])


def _assert_same_columns(got: PathSet, want: PathSet, where=()):
    for f in dataclasses.fields(PathSet):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g.dtype == w.dtype and g.shape == w.shape, (*where, f.name)
        assert g.tobytes() == w.tobytes(), (*where, f.name)


#: 25 times along the criterion-7 drive, NLOS and LOS, two of them 5 ms
#: either side of the flip.  Each (scene, tile size) case at 1 m and 0.7 m
#: takes every fourth; at 0.3 m, with 11 times the tiles, every eighth.
DIFFUSE_TIMES = np.sort(np.concatenate((np.linspace(0.2, 5.9, 23),
                                        LOS_FLIP_T + np.array([-0.005, 0.005]))))
DIFFUSE_CASES = [("intersection_plain.json", 1.0, DIFFUSE_TIMES[0::4]),
                 ("intersection_plain.json", 0.7, DIFFUSE_TIMES[1::4]),
                 ("intersection.json", 1.0, DIFFUSE_TIMES[2::4]),
                 ("intersection.json", 0.7, DIFFUSE_TIMES[3::4]),
                 ("intersection_plain.json", 0.3, DIFFUSE_TIMES[2::8]),
                 ("intersection.json", 0.3, DIFFUSE_TIMES[6::8])]


@pytest.mark.parametrize("case", range(len(DIFFUSE_CASES)),
                         ids=[f"{f.split('.')[0]}-{t}" for f, t, _ in DIFFUSE_CASES])
def test_diffuse_matches_exhaustive_reference(case):
    """Every column bit for bit, at cull floors of -40, -10 and 0 dB and none,
    with no known best path, the snapshot's LOS/specular best and 1000 times
    that."""
    scene_file, tile_size, times = DIFFUSE_CASES[case]
    scene = load_scene(data_path(scene_file))
    tx_traj, rx_traj = intersection_trajectories()
    seen_los = set()
    for t in times:
        tx, rx = tx_traj.at(t)[0], rx_traj.at(t)[0]
        los = trace_los(scene, tx, rx, F)
        seen_los.add(los is not None)
        best = max(float(p.gain_linear().max(initial=0.0))
                   for p in [image_method_specular(scene, tx, rx, 2, F)] + [los] * (los is not None))
        runs = [(None, 0.0)] + [(c, g) for c in (-40.0, -10.0, 0.0) for g in (0.0, best, 1e3 * best)]
        for cull_db, gain in runs:
            got = lambertian_diffuse(scene, tx, rx, tile_size, F, cull_db=cull_db,
                                     known_best_gain=gain)
            want = reference_diffuse(scene, tx, rx, tile_size, F, cull_db=cull_db,
                                     known_best_gain=gain)
            _assert_same_columns(got, want, (t, cull_db, gain))
    assert seen_los == {False, True}


@pytest.mark.parametrize("tile_size", [1.0, 0.7])
@pytest.mark.parametrize("tx, rx", [((0.3, 1.2, 0.4), (2.9, 2.0, -1.1)),
                                    ((0.3, 30.0, 0.4), (1.1, 28.5, -0.3))],
                         ids=["near", "far"])
def test_diffuse_floor_on_a_tile_matches_reference(tile_size, tx, rx):
    """The floor set to the power of one tile after another, with both ends
    within a block radius of a scattering wall, or far from it and close
    together so that the tiles they face square on are nearly as strong as
    their blocks' bounds allow: the tile on the floor stays, and a bound a
    little too tight drops tiles it should keep."""
    scene = Scene([big_wall(0.0, DEFAULT_MATERIALS["concrete"], extent=30.0)])
    powers = np.sort(reference_diffuse(scene, tx, rx, tile_size).gain_linear())[::-1]
    assert len(powers) > 1000
    for rank in (0, 2, 7, 20, 60, 150, 400, len(powers) - 1):
        for known in (powers[0], 3.0 * powers[0]):
            # the floor, known * 10 ** (cull_db / 10), on the rank-th tile up to rounding
            cull_db = 10.0 * math.log10(powers[rank] / known)
            want = reference_diffuse(scene, tx, rx, tile_size, cull_db=cull_db,
                                     known_best_gain=known)
            assert rank <= len(want) <= rank + 1
            _assert_same_columns(lambertian_diffuse(scene, tx, rx, tile_size, F,
                                                    cull_db=cull_db, known_best_gain=known),
                                 want)


@pytest.fixture(scope="module")
def fine_plain_nlos():
    """The plain intersection, to be tiled at 0.3 m, and the ends of an NLOS
    snapshot of the criterion-7 drive, with its strongest specular gain."""
    scene = load_scene(data_path("intersection_plain.json"))
    tx_traj, rx_traj = intersection_trajectories()
    tx, rx = tx_traj.at(2.5)[0], rx_traj.at(2.5)[0]
    assert trace_los(scene, tx, rx, F) is None
    return scene, tx, rx, float(image_method_specular(scene, tx, rx, 2, F).gain_linear().max())


def test_diffuse_fan_tests_once_per_end(fine_plain_nlos, monkeypatch):
    """Thousands of tiles above the snapshot's floor take at most one fan
    call from TX and one from RX, whatever their number."""
    scene, tx, rx, best = fine_plain_nlos
    ends = []

    def counted(scene, starts, ends_, planes=None):
        ends.append("rx" if np.ndim(starts) == 2 else "tx")
        return occlusion_test_fan(scene, starts, ends_, planes)

    monkeypatch.setattr(raytracer, "occlusion_test_fan", counted)
    paths = lambertian_diffuse(scene, tx, rx, 0.3, F, cull_db=-40.0, known_best_gain=best)
    assert len(paths) > 1024        # so more tiles than that were left to fan-test
    assert ends.count("tx") <= 1 and ends.count("rx") <= 1


@pytest.mark.parametrize("cull_db", [-3.0, -40.0])
def test_diffuse_floor_set_by_a_tile_matches_reference(fine_plain_nlos, cull_db):
    """With no known path the strongest visible tile sets the floor, among
    more than 1024 candidates."""
    scene, tx, rx, _ = fine_plain_nlos
    assert len(reference_diffuse(scene, tx, rx, 0.3)) > 1024
    _assert_same_columns(lambertian_diffuse(scene, tx, rx, 0.3, F, cull_db=cull_db),
                         reference_diffuse(scene, tx, rx, 0.3, F, cull_db=cull_db))


def _tile_rows(scene, tile_size, paths):
    """The rows of ``scene.tiles(tile_size)`` of the diffuse ``paths``."""
    sids, _, _, tids = scene.tiles(tile_size)
    key = sids * (1 << 32) + tids
    rows = np.searchsorted(key, paths.surfaces[:, 0] * (1 << 32) + paths.tile)
    assert np.array_equal(key[rows], paths.surfaces[:, 0] * (1 << 32) + paths.tile)
    return rows


def _block_endpoints():
    """(tx, rx) pairs on the plain intersection: seeded random ones, some
    inside a block (behind its walls), and the edge cases of the block
    bounds: an end in the plane of two walls and of the ground, and 1e-12 m
    either side; an end grazing the ground from far away; an end within a
    block radius of a wall."""
    rng = np.random.default_rng(18)
    rx = np.array([3.5, -40.0, ANTENNA_HEIGHT])
    lo, hi = [-60, -60, 0.01], [60, 60, 20]
    out = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(4)]
    out.append((np.array([30.0, 30.0, 5.0]), rx))              # inside block_ne
    for dy in (0.0, 1e-12, -1e-12):                              # walls at y = -8.5
        out.append((np.array([-30.0, -8.5 + dy, ANTENNA_HEIGHT]), rx))
        out.append((np.array([-3.0, 20.0, dy]), rx))             # the ground plane
    out.append((np.array([-58.0, -4.0, 0.01]), np.array([4.0, 58.0, 0.02])))   # grazing
    out.append((np.array([20.3, -8.3, 2.1]), rx))              # 0.2 m from a wall ...
    out.append((np.array([20.3, -8.5 + 5e-10, 2.1]), np.array([15.0, 0.0, 1.5])))  # 0.5 nm
    return out


@pytest.mark.parametrize("tile_size", [1.0, 0.7])
def test_dropped_blocks_hold_no_kept_tile(tile_size):
    """No block that the height bound or block visibility drops holds a
    tile of the exhaustive result at the floor, and no tile of a block
    found clear from an end is blocked from it, at the edge-case endpoints
    of ``_block_endpoints`` and floors from 0 to the strongest tile."""
    scene = intersection_scene(plain=True)
    block = scene.tile_blocks(tile_size)[0]
    centers = scene.tiles(tile_size)[1]
    lam = SPEED_OF_LIGHT / F
    dropped = skipped = 0
    for tx, rx in _block_endpoints():
        every = reference_diffuse(scene, tx, rx, tile_size)     # every doubly visible tile
        rows, gain = _tile_rows(scene, tile_size, every), every.gain_linear()
        ranked = np.sort(gain)[::-1]
        floors = [0.0] + [float(ranked[k]) for k in (0, 3, 30, len(gain) // 2) if k < len(gain)]
        for floor in floors:
            ends = _endpoints(tx, rx)
            live, (fan_tx, fan_rx) = _diffuse_blocks(
                scene, ends, [_fan_planes(scene, end) for end in ends], tile_size, lam, floor)
            assert live[block[rows[gain >= floor]]].all(), (tx, rx, floor)
            dropped += np.count_nonzero(~live)
        for fan, toward_rx, end in ((fan_tx, False, tx), (fan_rx, True, rx)):
            clear = np.flatnonzero(live[block] & ~fan[block])
            hit = (occlusion_test_fan(scene, centers[clear], end) if toward_rx
                   else occlusion_test_fan(scene, end, centers[clear]))
            assert not hit.any(), (tx, rx, toward_rx)
            skipped += len(clear)
        _assert_same_columns(lambertian_diffuse(scene, tx, rx, tile_size, F), every, (tx, rx))
        best = float(gain.max(initial=0.0))
        _assert_same_columns(lambertian_diffuse(scene, tx, rx, tile_size, F, cull_db=-10.0,
                                                known_best_gain=best),
                             reference_diffuse(scene, tx, rx, tile_size, F, cull_db=-10.0,
                                               known_best_gain=best), (tx, rx, best))
    assert dropped and skipped


def _shadow_scene():
    """A scattering wall in the plane y = 0 (x in [-15, 15], z in [0, 10])
    over the ground, a panel at y = 5 that shades part of it, a poster in
    the wall's own plane and a sticker 1 nm in front of it.  From
    ``SHADOW_TX`` the panel's edges cast their shadows through tile centers
    on block corners: at 1 m tiles the wall's blocks span the cell centers
    x in ..., [-2.5, 0.5], [1.5, 4.5], ... and z in [0.5, 3.5], [4.5, 7.5],
    [8.5, 9.5], and the shadows of the panel's edges x = -9 and 2.5 and
    z = 2.25 and 6.25 fall on x = -18.5 and 4.5 and z = -0.5 and 7.5; its
    diagonal's shadow crosses blocks."""
    concrete, metal = DEFAULT_MATERIALS["concrete"], DEFAULT_MATERIALS["metal"]
    wall = Surface([(-15, 0, 0), (15, 0, 0), (15, 0, 10), (-15, 0, 10)], concrete, tag="wall")
    panel = Surface([(-9, 5, 2.25), (2.5, 5, 2.25), (2.5, 5, 6.25), (-9, 5, 6.25)], metal,
                    tag="panel")
    poster = Surface([(-5, 0, 2), (5, 0, 2), (5, 0, 4), (-5, 0, 4)], concrete, tag="poster")
    sticker = Surface([(6, 1e-9, 1), (9, 1e-9, 1), (9, 1e-9, 5), (6, 1e-9, 5)], concrete,
                      tag="sticker")
    return Scene([wall, panel, poster, sticker, ground_surface(40.0)])


SHADOW_TX = (0.5, 10.0, 5.0)


@pytest.mark.parametrize("tile_size", [1.0, 0.5])
@pytest.mark.parametrize("tx, rx", [
    (SHADOW_TX, (0.0, 12.0, 2.0)),
    ((0.5, 10.0, 5.0), (-2.0, 9.0, 6.0)),
    ((-20.0, 0.0, 5.0), (0.0, 12.0, 2.0)),           # TX in the wall's plane ...
    ((-20.0, 1e-12, 5.0), (0.0, 12.0, 2.0)),         # ... and 1e-12 m either side
    ((-20.0, -1e-12, 5.0), (0.0, 12.0, 2.0)),
    ((38.0, 0.3, 0.5), (-38.0, 0.2, 0.4)),           # grazing the wall from far away
    ((38.0, 12.0, 1e-12), (-30.0, 20.0, 0.0)),       # in the ground's plane
], ids=["shadow", "shadow-near", "in-plane", "plane+", "plane-", "grazing", "ground"])
def test_diffuse_block_edge_cases_match_reference(tx, rx, tile_size):
    """Blocks that straddle the shadow of a triangle edge or a shared
    diagonal, tiles on block corners, an apex in a block's plane and
    occluders in the block's own plane, bit for bit at several floors."""
    scene = _shadow_scene()
    every = reference_diffuse(scene, tx, rx, tile_size)
    best = float(every.gain_linear().max(initial=0.0))
    for cull_db, gain in ((None, 0.0), (-40.0, 0.0), (-40.0, best), (-6.0, best), (0.0, best)):
        _assert_same_columns(lambertian_diffuse(scene, tx, rx, tile_size, F, cull_db=cull_db,
                                                known_best_gain=gain),
                             reference_diffuse(scene, tx, rx, tile_size, F, cull_db=cull_db,
                                               known_best_gain=gain), (cull_db, gain))


def test_shadow_scene_puts_blocks_in_every_class():
    """From ``SHADOW_TX`` the wall has blocks in the panel's shadow, blocks
    clear of it and blocks its shadow edges cross, and a shadow edge runs
    through a tile center on a block corner."""
    scene = _shadow_scene()
    _, _, radius, _, surface, corners, count = scene.tile_blocks(1.0)
    wall = np.flatnonzero((surface == 0) & (count > 4))
    d = np.linalg.norm(corners[wall].mean(axis=1) - SHADOW_TX, axis=1)
    hidden, clear = occlusion_test_blocks(scene, np.array(SHADOW_TX), corners[wall],
                                          d - radius[wall], d + radius[wall])
    assert hidden.any() and clear.any() and (~hidden & ~clear).any()
    corner_tile = np.array([4.5, 0.0, 7.5])
    assert np.any(np.all(corners[wall] == corner_tile, axis=2))
    # the segment to that tile passes through the panel's corner vertex
    assert np.allclose((np.array(SHADOW_TX) + corner_tile) / 2, (2.5, 5.0, 6.25))
