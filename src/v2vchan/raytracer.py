"""Ray-optical multipath enumeration: LOS, image-method speculars, diffuse tiles.

For every snapshot the tracer returns the set of propagation paths between
the TX and RX reference points: the free-space line-of-sight ray when
unobstructed, specular reflections up to a configurable order found with the
image method and weighted by Fresnel coefficients, and single-bounce
Lambertian diffuse scattering from surface tiles.  Diffraction and
multi-bounce diffuse scattering are deliberately out of scope.

Polarimetric bookkeeping
------------------------
Each path carries a 2x2 complex matrix mapping (V, H) field components at
the departure direction onto (V, H) components at the arrival *propagation*
direction (so a LOS path is exactly ``gain * identity``).  At each specular
bounce the field is rotated into the local incidence plane, multiplied by
diag(Gamma_perp, Gamma_par) and rotated out again.  Sign convention: for a
perfect conductor Gamma_perp = -1 and Gamma_par = +1, where the parallel
component at incidence/exit is measured along ``cross(s_hat, d)`` with
``s_hat = unit(cross(d_in, n))``.  Under this convention a vertically
polarized antenna over a PEC ground sees an in-phase image, the textbook
result for a vertical dipole above a conducting plane.

The channel synthesizer queries receive patterns at the direction of
arrival (pointing from RX back along the ray) and flips the sign of the H
component to move between the two antipodal bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .antenna import vh_basis
from .scene import Material, Scene, occlusion_test, occlusion_test_batch

SPEED_OF_LIGHT = 299792458.0
VACUUM_PERMITTIVITY = 8.8541878128e-12

MAX_SPECULAR_ORDER = 4


class ComplexityError(ValueError):
    """Requested reflection order above the practical cap."""


def _require_finite(config) -> None:
    """ValueError naming every field of the dataclass ``config`` that is NaN or
    infinite; the range checks that follow cannot see NaN."""
    bad = [f.name for f in fields(config) if not math.isfinite(getattr(config, f.name))]
    if bad:
        raise ValueError(f"{type(config).__name__} fields must be finite: {', '.join(bad)}")


@dataclass
class TracerConfig:
    """Knobs for :func:`trace_snapshot`."""

    frequency: float = 5.9e9
    max_order: int = 2
    tile_size: float = 1.0
    enable_diffuse: bool = True
    cull_db: float = -40.0   # drop diffuse paths this far below the strongest path

    def __post_init__(self):
        _require_finite(self)
        if not self.frequency > 0:
            raise ValueError("frequency must be > 0")
        if not 1 <= self.max_order <= MAX_SPECULAR_ORDER:
            raise ValueError(f"max_order must be in 1..{MAX_SPECULAR_ORDER}")
        if not self.tile_size > 0:
            raise ValueError("tile_size must be > 0")


@dataclass
class PropagationPath:
    """One multipath component.

    ``interactions`` lists (surface_id, point) in propagation order;
    ``departure`` points from TX along the ray, ``arrival`` points along the
    ray toward RX (the DoA seen by the receiver is ``-arrival``).  The
    amplitude excludes antenna gains and the carrier phase term exp(-j 2 pi
    f tau), both applied during channel synthesis.
    """

    kind: str                       # 'los' | 'specular' | 'diffuse'
    order: int
    interactions: tuple             # ((surface_id, np.ndarray(3,)), ...)
    length: float
    delay: float
    amplitude: np.ndarray           # (2, 2) complex, departure (V,H) -> arrival (V,H)
    departure: np.ndarray           # (3,) unit
    arrival: np.ndarray             # (3,) unit
    tile: int | None = None         # tile id for diffuse paths

    def surface_ids(self) -> tuple[int, ...]:
        return tuple(sid for sid, _ in self.interactions)

    def match_key(self) -> tuple:
        """Identity used to match paths across snapshots during interpolation."""
        return (self.kind, self.surface_ids(), self.tile)

    def gain_linear(self) -> float:
        """Scalar power-gain proxy: mean squared singular gain of the matrix."""
        return float(np.sum(np.abs(self.amplitude) ** 2)) / 2.0

    def gain_db(self) -> float:
        g = self.gain_linear()
        return 10.0 * math.log10(g) if g > 0 else -math.inf


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def fresnel_coefficients(material: Material, incidence_angle: float,
                         frequency: float) -> tuple[complex, complex]:
    """Fresnel field reflection coefficients (Gamma_perp, Gamma_par).

    The half-space below the interface has complex relative permittivity
    eps = eps_r - j sigma / (2 pi f eps_0); the incidence angle is measured
    from the surface normal in [0, pi/2).  A PEC short-circuits the
    computation to (-1, +1); see the module docstring for the sign
    convention behind the +1.
    """
    if not 0.0 <= incidence_angle < math.pi / 2 + 1e-12:
        raise ValueError("incidence angle must lie in [0, pi/2)")
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    if material.is_pec:
        return (-1.0 + 0.0j, 1.0 + 0.0j)
    eps = material.relative_permittivity - 1j * material.conductivity / (
        2.0 * math.pi * frequency * VACUUM_PERMITTIVITY)
    cos_t = math.cos(incidence_angle)
    sin2 = math.sin(incidence_angle) ** 2
    root = np.sqrt(eps - sin2)
    g_perp = (cos_t - root) / (cos_t + root)
    g_par = (eps * cos_t - root) / (eps * cos_t + root)
    return (complex(g_perp), complex(g_par))


def _incidence_plane_basis(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Unit vector perpendicular to the incidence plane (s-polarization axis)."""
    s = np.cross(d, n)
    ns = np.linalg.norm(s)
    if ns < 1e-9:
        # normal incidence: incidence plane undefined, any transverse axis works
        e_v, e_h = vh_basis(d)
        return e_h[0]
    return s / ns


def _pol_rotation(from_v: np.ndarray, from_h: np.ndarray,
                  to_a: np.ndarray, to_b: np.ndarray) -> np.ndarray:
    """2x2 change of basis between two orthonormal transverse frames."""
    return np.array([[to_a @ from_v, to_a @ from_h],
                     [to_b @ from_v, to_b @ from_h]])


def _polarimetric_chain(points: list[np.ndarray], surfaces, frequency: float,
                        scene: Scene) -> np.ndarray:
    """Accumulate basis rotations and Fresnel matrices along a specular path.

    ``points`` is [tx, q_1, ..., q_k, rx]; ``surfaces`` the surface ids at
    the interior points.  Returns the 2x2 matrix mapping departure (V, H) to
    arrival (V, H), excluding spreading loss.
    """
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


def _endpoints(tx, rx) -> tuple[np.ndarray, np.ndarray]:
    """TX and RX as float arrays; non-finite or coinciding ones raise ValueError."""
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if not (np.isfinite(tx).all() and np.isfinite(rx).all()):
        raise ValueError("tx and rx positions must be finite")
    if np.array_equal(tx, rx):
        raise ValueError("tx and rx coincide")
    return tx, rx


def trace_los(scene: Scene, tx, rx, frequency: float = 5.9e9) -> PropagationPath | None:
    """Free-space line-of-sight path, or None when obstructed."""
    tx, rx = _endpoints(tx, rx)
    d = float(np.linalg.norm(rx - tx))
    if occlusion_test(scene, tx, rx):
        return None
    lam = SPEED_OF_LIGHT / frequency
    gain = lam / (4.0 * math.pi * d)
    direction = (rx - tx) / d
    return PropagationPath(
        kind="los", order=0, interactions=(),
        length=d, delay=d / SPEED_OF_LIGHT,
        amplitude=gain * np.eye(2, dtype=complex),
        departure=direction, arrival=direction.copy(),
    )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, rounded as ``a[i] @ b[i]`` is.

    ``einsum`` and a matrix-vector product sum in another order, which would
    move the reflection points by an ulp against the per-sequence solution.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def image_method_specular(scene: Scene, tx, rx, max_order: int,
                          frequency: float = 5.9e9) -> list[PropagationPath]:
    """All geometrically valid specular paths of order 1..max_order.

    The image tree is built one order level at a time, as arrays over every
    surviving surface sequence.  Each level

    1. expands every parent sequence by each surface other than its last,
       in lexicographic order;
    2. prunes a child, and with it its whole subtree, when the parent image
       is not strictly in front of the child surface's plane (the visibility
       pruning of Allen & Berkley 1979 and Funkhouser et al. 1998).  The
       point before that bounce lies between the parent image and the
       reflection point, so it could never pass the front-face test below;
    3. mirrors the surviving images across their new surfaces in one batch;
    4. back-substitutes the reflection points from RX to TX over the whole
       level, with one point-in-polygon call per surface per step.

    A candidate survives when every reflection point lies strictly inside
    its polygon, both adjacent points are on the front side, and every
    sub-segment is unobstructed.  Paths come out sorted by (order, length),
    ties in lexicographic order of the surface sequence.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_order > MAX_SPECULAR_ORDER:
        raise ComplexityError(
            f"specular order {max_order} above practical cap {MAX_SPECULAR_ORDER}")
    tx, rx = _endpoints(tx, rx)
    n_surf = len(scene.surfaces)
    if n_surf == 0:
        return []
    normals = np.array([s.normal for s in scene.surfaces])
    offsets = np.array([s.plane_offset for s in scene.surfaces])

    candidates: list[tuple[tuple[int, ...], list[np.ndarray]]] = []
    seqs = np.zeros((1, 0), dtype=int)     # the level's surface sequences
    images = tx[None, None, :]             # (sequence, tx and its images, xyz)
    for order in range(1, max_order + 1):
        parent = np.repeat(np.arange(len(seqs)), n_surf)
        sid = np.tile(np.arange(n_surf), len(seqs))
        keep = (images[:, -1] @ normals.T - offsets > 0.0).ravel()
        if order > 1:
            keep &= sid != seqs[parent, -1]
        parent, sid = parent[keep], sid[keep]
        if len(parent) == 0:
            break
        seqs = np.column_stack((seqs[parent], sid))
        prev, n = images[parent, -1], normals[sid]
        img = prev - 2.0 * (_rowdot(prev, n) - offsets[sid])[:, None] * n
        images = np.concatenate((images[parent], img[:, None, :]), axis=1)
        candidates.extend(_reflection_points(scene, tx, rx, seqs, images, normals, offsets))

    return _specular_paths(scene, candidates, frequency)


def _specular_paths(scene: Scene, candidates, frequency: float) -> list[PropagationPath]:
    """Paths of the (sequence, [tx, q_1, ..., rx]) candidates that are unobstructed.

    Every candidate's sub-segments go through one occlusion batch; the
    paths come out sorted by (order, length), ties kept in candidate order.
    """
    if not candidates:
        return []
    # batch the occlusion tests over every candidate's sub-segments
    seg_start, seg_end, seg_owner = [], [], []
    for ci, (_, pts) in enumerate(candidates):
        for i in range(len(pts) - 1):
            seg_start.append(pts[i])
            seg_end.append(pts[i + 1])
            seg_owner.append(ci)
    paths: list[PropagationPath] = []
    blocked = occlusion_test_batch(scene, np.array(seg_start), np.array(seg_end))
    bad = set(np.array(seg_owner)[blocked].tolist())
    lam = SPEED_OF_LIGHT / frequency
    for ci, (seq, pts) in enumerate(candidates):
        if ci in bad:
            continue
        length = float(sum(np.linalg.norm(pts[i + 1] - pts[i]) for i in range(len(pts) - 1)))
        m = _polarimetric_chain(pts, seq, frequency, scene)
        amp = (lam / (4.0 * math.pi * length)) * m
        paths.append(PropagationPath(
            kind="specular", order=len(seq),
            interactions=tuple((sid, pts[i + 1]) for i, sid in enumerate(seq)),
            length=length, delay=length / SPEED_OF_LIGHT,
            amplitude=amp,
            departure=_unit(pts[1] - pts[0]),
            arrival=_unit(pts[-1] - pts[-2]),
        ))
    paths.sort(key=lambda p: (p.order, p.length))
    return paths


def _reflection_points(scene: Scene, tx, rx, seqs: np.ndarray, images: np.ndarray,
                       normals: np.ndarray, offsets: np.ndarray):
    """Back-substitute the reflection points of one order level in batch.

    ``seqs`` is (M, k) surface ids and ``images[:, j]`` is tx mirrored
    through the first j surfaces.  Returns (sequence, [tx, q_1, ..., q_k,
    rx]) for every sequence that passes, in the order of ``seqs``.
    """
    m, k = seqs.shape
    rows = np.arange(m)
    pts = np.empty((m, k + 2, 3))
    pts[:, 0] = tx
    pts[:, -1] = rx
    cur = rx
    for j in range(k, 0, -1):
        sid = seqs[rows, j - 1]
        img = images[rows, j]
        n, diff = normals[sid], cur - img
        denom = _rowdot(n, diff)
        ok = np.abs(denom) >= 1e-12
        t = (offsets[sid] - _rowdot(n, img)) / np.where(ok, denom, 1.0)
        ok &= (t > 1e-12) & (t < 1.0 - 1e-12)
        q = img + t[:, None] * diff
        for s in range(len(normals)):
            on = ok & (sid == s)
            if on.any():
                ok[on] = scene.surfaces[s].contains(q[on], strict=True)
        rows, cur = rows[ok], q[ok]
        pts[rows, j] = cur
    # front-face checks: both neighbors of each bounce on the normal side
    seqs, pts = seqs[rows], pts[rows]
    ok = np.ones(len(rows), dtype=bool)
    for j in range(k):
        n, q = normals[seqs[:, j]], pts[:, j + 1]
        ok &= (_rowdot(pts[:, j] - q, n) > 1e-12) & (_rowdot(pts[:, j + 2] - q, n) > 1e-12)
    return [(tuple(seq), list(p)) for seq, p in zip(seqs[ok].tolist(), pts[ok])]


def lambertian_diffuse(scene: Scene, tx, rx, tile_size: float,
                       frequency: float = 5.9e9, *, cull_db: float | None = None,
                       known_best_gain: float = 0.0) -> list[PropagationPath]:
    """Single-bounce Lambertian diffuse paths from every doubly visible tile.

    Every tile of :meth:`Scene.tiles` on a scattering surface (S > 0) that
    is visible from both endpoints (front side, unobstructed) contributes
    one path with field magnitude

        S * sqrt(cos_i * cos_s / pi) * sqrt(A_tile) / (r1 * r2) * lambda/(4 pi)

    where the angles are measured from the tile normal.  The polarimetric
    matrix is diagonal (no cross-polarization) and the path's
    ``gain_linear()`` is exactly the squared magnitude.

    ``cull_db`` sets a power floor relative to the strongest path: the
    stronger of ``known_best_gain`` and the strongest tile returned.  Tiles
    below it are not returned, and tiles provably below it are skipped
    before their occlusion tests (strongest first, in chunks), so the result
    equals the exhaustive one filtered at the floor.  With ``cull_db=None``
    every doubly visible tile is returned.  Paths come out sorted by length,
    ties in (surface id, tile id) order.
    """
    if tile_size <= 0:
        raise ValueError("tile_size must be > 0")
    tx, rx = _endpoints(tx, rx)
    lam = SPEED_OF_LIGHT / frequency
    normals = np.array([s.normal for s in scene.surfaces]).reshape(-1, 3)
    scatter = np.array([s.material.scattering_coefficient for s in scene.surfaces])

    # candidate tiles (front side of both endpoints) with exact amplitudes;
    # occlusion is the only unknown left
    sids, centers, areas, tids = scene.tiles(tile_size)
    v1 = centers - tx                    # tx -> tile
    v2 = rx - centers                    # tile -> rx
    r1 = np.linalg.norm(v1, axis=1)
    r2 = np.linalg.norm(v2, axis=1)
    valid = (r1 > 1e-9) & (r2 > 1e-9) & (scatter[sids] > 0.0)
    n = normals[sids]
    cos_i = np.where(valid, -_rowdot(v1, n) / np.where(valid, r1, 1.0), 0.0)
    cos_s = np.where(valid, _rowdot(v2, n) / np.where(valid, r2, 1.0), 0.0)
    front = np.flatnonzero(valid & (cos_i > 1e-9) & (cos_s > 1e-9))
    sids, centers, tids, v1, v2, r1, r2 = (
        x[front] for x in (sids, centers, tids, v1, v2, r1, r2))
    mag = (scatter[sids] * np.sqrt(cos_i[front] * cos_s[front] / math.pi)
           * np.sqrt(areas[front]) / (r1 * r2) * lam / (4.0 * math.pi))

    # strongest candidates first so the cull floor is confirmed early
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
                break  # everything further down is weaker still
            sel = sel[above]
        blocked = occlusion_test_batch(scene, np.tile(tx, (len(sel), 1)), centers[sel])
        sel = sel[~blocked]
        if len(sel):
            blocked = occlusion_test_batch(scene, centers[sel], np.tile(rx, (len(sel), 1)))
            sel = sel[~blocked]
        if len(sel):
            keep[sel] = True
            best_gain = max(best_gain, float(np.max(mag[sel]) ** 2))
        pos += chunk
    # tiles kept before the strongest one was confirmed may sit below the floor
    keep &= mag ** 2 >= best_gain * rel

    length = r1 + r2
    idx = np.flatnonzero(keep)
    idx = idx[np.argsort(length[idx], kind="stable")]
    v1, v2 = v1[idx], v2[idx]
    departure = v1 / np.sqrt(_rowdot(v1, v1))[:, None]
    arrival = v2 / np.sqrt(_rowdot(v2, v2))[:, None]
    amplitude = mag[idx, None, None] * np.eye(2, dtype=complex)
    return [PropagationPath(kind="diffuse", order=1, interactions=((sid, c),),
                            length=d, delay=d / SPEED_OF_LIGHT, amplitude=a,
                            departure=u1, arrival=u2, tile=tid)
            for sid, c, d, a, u1, u2, tid in zip(
                sids[idx].tolist(), centers[idx], length[idx].tolist(), amplitude,
                departure, arrival, tids[idx].tolist())]


def trace_snapshot(scene: Scene, tx, rx, config: TracerConfig) -> list[PropagationPath]:
    """Union of LOS, specular and diffuse paths in deterministic order.

    Ordering: LOS first, then speculars by (order, length), then diffuse by
    length.  :func:`lambertian_diffuse` drops the diffuse paths more than
    ``cull_db`` below the strongest path of the snapshot, which keeps the
    component count bounded.
    """
    paths: list[PropagationPath] = []
    los = trace_los(scene, tx, rx, config.frequency)
    if los is not None:
        paths.append(los)
    paths.extend(image_method_specular(scene, tx, rx, config.max_order, config.frequency))
    if config.enable_diffuse:
        known_best = max((p.gain_linear() for p in paths), default=0.0)
        paths.extend(lambertian_diffuse(scene, tx, rx, config.tile_size, config.frequency,
                                        cull_db=config.cull_db, known_best_gain=known_best))
    return paths


PATH_DUMP_HEADER = ["snapshot_t", "kind", "order", "length_m", "delay_s",
                    "gain_db", "n_interactions", "points"]


def dump_paths_csv(paths: list[PropagationPath], t: float, fh) -> None:
    """Append one CSV row per path to an open file handle."""
    for p in paths:
        pts = ";".join(f"{q[0]:.6f}|{q[1]:.6f}|{q[2]:.6f}" for _, q in p.interactions)
        fh.write(f"{t!r},{p.kind},{p.order},{p.length!r},{p.delay!r},"
                 f"{p.gain_db():.6f},{len(p.interactions)},{pts}\n")
