"""Ray-optical multipath enumeration: LOS, image-method speculars, diffuse tiles.

For every snapshot the tracer returns the set of propagation paths between
the TX and RX reference points: the free-space line-of-sight ray when
unobstructed, specular reflections up to a configurable order found with the
image method and weighted by Fresnel coefficients, and single-bounce
Lambertian diffuse scattering from surface tiles.  Diffraction and
multi-bounce diffuse scattering are deliberately out of scope.  A snapshot's
paths are one :class:`PathSet`, the representation channel synthesis reads.

Specular paths stay arrays from the image tree to the :class:`PathSet`.
Each order level is a pair of arrays, surface sequences (M, k) and points
[tx, q_1, ..., q_k, rx] (M, k + 2, 3): :func:`_reflection_points` fills
and filters them.  Then :func:`_specular_paths` takes every level at
once, whatever the order: one occlusion batch over all sub-segments, one
polarimetric chain over all paths left and one stable (order, length)
sort.  The chain loops over the bounce index only, each step a batch over
the paths with that many bounces, and every reflection coefficient comes
from one array Fresnel kernel, of which :func:`fresnel_coefficients` is
the one-row case.

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
from .scene import (Material, Scene, _cross, _fan_planes, occlusion_test, occlusion_test_batch,
                    occlusion_test_blocks, occlusion_test_fan)

SPEED_OF_LIGHT = 299792458.0
VACUUM_PERMITTIVITY = 8.8541878128e-12

#: Default carrier frequency in Hz (the 5.9 GHz ITS band), of tracing and synthesis.
DEFAULT_CARRIER = 5.9e9

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

    frequency: float = DEFAULT_CARRIER
    max_order: int = 2
    tile_size: float = 1.0
    enable_diffuse: bool = True
    cull_db: float = -40.0   # drop diffuse paths this far below the strongest path, <= 0

    def __post_init__(self):
        _require_finite(self)
        if not self.frequency > 0:
            raise ValueError("frequency must be > 0")
        if not 1 <= self.max_order <= MAX_SPECULAR_ORDER:
            raise ValueError(f"max_order must be in 1..{MAX_SPECULAR_ORDER}")
        if not self.tile_size > 0:
            raise ValueError("tile_size must be > 0")
        if self.cull_db > 0:   # a floor above the strongest path would drop every diffuse path
            raise ValueError(f"'cull_db' must be <= 0 dB, not {self.cull_db!r}")


#: Path kinds by code.  The codes follow the names' alphabetical order, so
#: sorting by code sorts by name.
KINDS = ("diffuse", "los", "specular")


@dataclass
class PropagationPath:
    """One multipath component: the row type that iterating a :class:`PathSet`
    yields.  ``interactions`` lists (surface_id, point) in propagation order;
    ``tile`` is None unless the path is diffuse."""

    kind: str
    order: int
    interactions: tuple             # ((surface_id, np.ndarray(3,)), ...)
    length: float
    delay: float
    amplitude: np.ndarray           # (2, 2) complex
    departure: np.ndarray           # (3,) unit
    arrival: np.ndarray             # (3,) unit
    tile: int | None = None


@dataclass
class PathSet:
    """The multipath components of one snapshot, one row per path in columns.

    ``kind`` holds codes into :data:`KINDS`.  ``surfaces`` lists each path's
    surface ids in propagation order, padded with -1 to
    ``MAX_SPECULAR_ORDER``, and ``points`` the interaction points, padded
    with NaN.  ``tile`` is the diffuse tile id, -1 for the other kinds.
    ``departure`` points from TX along the ray and ``arrival`` along the ray
    toward RX (the DoA seen by the receiver is ``-arrival``).  The amplitude
    maps departure (V, H) onto arrival (V, H); it excludes antenna gains and
    the carrier phase term exp(-j 2 pi f tau), both applied during channel
    synthesis.  Delay (length / c) and order (the count of surface ids) are
    derived, not stored.
    """

    kind: np.ndarray                # (P,) int
    surfaces: np.ndarray            # (P, MAX_SPECULAR_ORDER) int
    points: np.ndarray              # (P, MAX_SPECULAR_ORDER, 3)
    tile: np.ndarray                # (P,) int
    length: np.ndarray              # (P,)
    amplitude: np.ndarray           # (P, 2, 2) complex
    departure: np.ndarray           # (P, 3) unit
    arrival: np.ndarray             # (P, 3) unit

    @property
    def delay(self) -> np.ndarray:
        return self.length / SPEED_OF_LIGHT

    @property
    def order(self) -> np.ndarray:
        return np.count_nonzero(self.surfaces >= 0, axis=1)

    def __len__(self) -> int:
        return len(self.length)

    def __iter__(self):
        columns = (c.tolist() for c in (self.kind, self.order, self.surfaces, self.tile,
                                        self.length))
        for i, (kind, order, sids, tile, length) in enumerate(zip(*columns)):
            yield PropagationPath(
                KINDS[kind], order, tuple(zip(sids[:order], self.points[i])), length,
                length / SPEED_OF_LIGHT, self.amplitude[i], self.departure[i],
                self.arrival[i], None if tile < 0 else tile)

    def take(self, rows) -> PathSet:
        """The given rows, in the given order."""
        return PathSet(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def concat(sets) -> PathSet:
        """The rows of every set in ``sets``, in order; no sets give an empty set."""
        sets = [_EMPTY, *sets]
        return PathSet(*(np.concatenate([getattr(s, f.name) for s in sets])
                         for f in fields(PathSet)))

    def gain_linear(self) -> np.ndarray:
        """Scalar power-gain proxy per path: mean squared singular gain of the
        amplitude matrix."""
        return np.sum(np.abs(self.amplitude.reshape(-1, 4)) ** 2, axis=1) / 2.0


def _pathset(kind: str, length, amplitude, departure, arrival, surfaces, points,
             tile=None) -> PathSet:
    """A PathSet of one kind; ``surfaces`` (P, k) and ``points`` (P, k, 3)
    are padded here to ``MAX_SPECULAR_ORDER`` columns."""
    p, k = surfaces.shape
    fill = MAX_SPECULAR_ORDER - k
    return PathSet(np.full(p, KINDS.index(kind)),
                   np.concatenate((surfaces, np.full((p, fill), -1)), axis=1),
                   np.concatenate((points, np.full((p, fill, 3), np.nan)), axis=1),
                   np.full(p, -1) if tile is None else tile, length, amplitude, departure, arrival)


_EMPTY = _pathset("los", np.zeros(0), np.zeros((0, 2, 2), dtype=complex), np.zeros((0, 3)),
                  np.zeros((0, 3)), np.zeros((0, 0), dtype=int), np.zeros((0, 0, 3)))


def fresnel_coefficients(material: Material, incidence_angle: float,
                         frequency: float) -> tuple[complex, complex]:
    """Fresnel field reflection coefficients (Gamma_perp, Gamma_par).

    The half-space below the interface has complex relative permittivity
    eps = eps_r - j sigma / (2 pi f eps_0); the incidence angle is measured
    from the surface normal in [0, pi/2).  A PEC gives (-1, +1); see the
    module docstring for the sign convention behind the +1.  This is the
    one-row case of the kernel the specular stage runs over every bounce.
    """
    if not 0.0 <= incidence_angle < math.pi / 2 + 1e-12:
        raise ValueError("incidence angle must lie in [0, pi/2)")
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    gamma = _fresnel([material], np.zeros(1, dtype=int), np.array([incidence_angle]), frequency)
    return complex(gamma[0, 0]), complex(gamma[0, 1])


def _fresnel(materials, index: np.ndarray, theta: np.ndarray, frequency: float) -> np.ndarray:
    """(N, 2) complex (Gamma_perp, Gamma_par) on ``materials[index]`` at the
    incidence angles ``theta`` (N,)."""
    eps = np.array([m.relative_permittivity - 1j * m.conductivity / (
        2.0 * math.pi * frequency * VACUUM_PERMITTIVITY) for m in materials])[index]
    pec = np.array([m.is_pec for m in materials], dtype=bool)[index]
    cos_t = np.cos(theta)
    sin2 = np.sin(theta) ** 2
    root = np.sqrt(eps - sin2)
    gamma = np.stack(((cos_t - root) / (cos_t + root),
                      (eps * cos_t - root) / (eps * cos_t + root)), axis=1)
    gamma[pec] = (-1.0, 1.0)
    return gamma


def _rotation(frm, to) -> np.ndarray:
    """(P, 2, 2) changes of basis between two orthonormal transverse frames,
    each a pair of (P, 3) unit-vector columns: entry [i, j] is to[i] . frm[j]."""
    return np.stack([np.stack([_rowdot(a, f) for f in frm], axis=1) for a in to], axis=1)


def _polarimetric_chain(scene: Scene, sids: np.ndarray, dirs: np.ndarray, order: np.ndarray,
                        frequency: float) -> np.ndarray:
    """Accumulate basis rotations and Fresnel matrices along specular paths.

    ``order`` (P,) holds each path's bounce count k, ``sids`` (B,) every
    path's k surface ids and ``dirs`` (B + P, 3) its k + 1 unit segment
    directions, TX to RX, path after path.  Returns the (P, 2, 2) matrices
    mapping departure (V, H) to arrival (V, H), excluding spreading loss.
    Every bounce's matrices are built in one batch over all (path, bounce)
    pairs, and the transverse bases once per segment, since a bounce's
    ``d_out`` is the next one's ``d_in``.  Only the products loop, over the
    bounce index b, each step over the paths of more than b bounces.
    """
    first = np.cumsum(order) - order                        # each path's first bounce
    into = np.arange(len(sids)) + np.repeat(np.arange(len(order)), order)  # d_in's row
    d_in, d_out, n = dirs[into], dirs[into + 1], scene.normals[sids]
    theta = np.arccos(np.minimum(1.0, np.abs(_rowdot(d_in, n))))
    gamma = np.zeros((len(sids), 2, 2), dtype=complex)
    gamma[:, [0, 1], [0, 1]] = _fresnel([s.material for s in scene.surfaces], sids, theta,
                                        frequency)
    # s_hat, the axis perpendicular to the incidence plane; at normal
    # incidence the plane is undefined and any transverse axis works
    s = _cross(d_in, n)
    ns = np.sqrt(_rowdot(s, s))
    normal = ns < 1e-9
    e_v, e_h = vh_basis(dirs)
    s_hat = np.where(normal[:, None], e_h[into], s / np.where(normal, 1.0, ns)[:, None])
    t_in = gamma @ _rotation((e_v[into], e_h[into]), (s_hat, _cross(s_hat, d_in)))
    t_out = _rotation((s_hat, _cross(s_hat, d_out)), (e_v[into + 1], e_h[into + 1]))
    t_out = t_out.astype(complex)
    m = np.tile(np.eye(2, dtype=complex), (len(order), 1, 1))
    for b in range(int(order.max(initial=0))):
        on = np.flatnonzero(order > b)
        rows = first[on] + b
        m[on] = t_out[rows] @ (t_in[rows] @ m[on])
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


def trace_los(scene: Scene, tx, rx, frequency: float = DEFAULT_CARRIER) -> PathSet | None:
    """The free-space line-of-sight path as a one-row set, or None when obstructed."""
    tx, rx = _endpoints(tx, rx)
    d = float(np.linalg.norm(rx - tx))
    if occlusion_test(scene, tx, rx):
        return None
    lam = SPEED_OF_LIGHT / frequency
    gain = lam / (4.0 * math.pi * d)
    direction = (rx - tx) / d
    return _pathset("los", np.array([d]), gain * np.eye(2, dtype=complex)[None],
                    direction[None], direction[None].copy(),
                    np.zeros((1, 0), dtype=int), np.zeros((1, 0, 3)))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, rounded as ``a[i] @ b[i]`` is.

    ``einsum`` and a matrix-vector product sum in another order, which would
    move the reflection points by an ulp against the per-sequence solution.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def image_method_specular(scene: Scene, tx, rx, max_order: int,
                          frequency: float = DEFAULT_CARRIER) -> PathSet:
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
       level, with one :meth:`Scene.contains` batch per step.

    The candidates of every level then go to :func:`_specular_paths` in one
    call, so a snapshot makes one occlusion batch and one polarimetric
    chain whatever ``max_order`` is.  A candidate survives when every
    reflection point lies strictly inside its polygon, both adjacent points
    are on the front side, and every sub-segment is unobstructed.  Paths
    come out sorted by (order, length), ties in lexicographic order of the
    surface sequence.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_order > MAX_SPECULAR_ORDER:
        raise ComplexityError(
            f"specular order {max_order} above practical cap {MAX_SPECULAR_ORDER}")
    tx, rx = _endpoints(tx, rx)
    n_surf = len(scene.surfaces)
    normals, offsets = scene.normals, scene.offsets
    levels = []
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
        levels.append(_reflection_points(scene, tx, rx, seqs, images))
    return _specular_paths(scene, levels, frequency)


def _specular_paths(scene: Scene, levels, frequency: float) -> PathSet:
    """The unobstructed paths of every order level's candidates, as one set.

    ``levels`` holds one pair per order k = 1, 2, ...: the surface sequences
    (M, k) and their points [tx, q_1, ..., q_k, rx] (M, k + 2, 3).  The
    sub-segments of every candidate go through one occlusion batch, the
    paths left of every order through one polarimetric chain, and one
    stable sort puts them in (order, length) order, ties kept in candidate
    order.  Each length is its segments' sum, left to right.
    """
    empty = [np.zeros((0, 3))]
    blocked = occlusion_test_batch(
        scene, np.concatenate(empty + [pts[:, :-1].reshape(-1, 3) for _, pts in levels]),
        np.concatenate(empty + [pts[:, 1:].reshape(-1, 3) for _, pts in levels]))
    n = sum(len(seqs) for seqs, _ in levels)
    surfaces = np.full((n, MAX_SPECULAR_ORDER), -1)
    points = np.full((n, MAX_SPECULAR_ORDER, 3), np.nan)
    seg, pos, p = list(empty), 0, 0
    for seqs, pts in levels:
        m, k = seqs.shape
        keep = ~blocked[pos:pos + m * (k + 1)].reshape(m, k + 1).any(axis=1)
        pos += m * (k + 1)
        seqs, pts = seqs[keep], pts[keep]
        surfaces[p:p + len(seqs), :k] = seqs
        points[p:p + len(seqs), :k] = pts[:, 1:-1]
        seg.append((pts[:, 1:] - pts[:, :-1]).reshape(-1, 3))
        p += len(seqs)
    surfaces, points, seg = surfaces[:p], points[:p], np.concatenate(seg)
    order = np.count_nonzero(surfaces >= 0, axis=1)
    seg_len = np.sqrt(_rowdot(seg, seg))
    dirs = seg / seg_len[:, None]
    first = np.cumsum(order + 1) - order - 1                # each path's first segment
    length = seg_len[first]
    # left to right, one term at a time: a reduction may pair the terms otherwise
    for j in range(1, int(order.max(initial=0)) + 1):
        on = np.flatnonzero(order >= j)
        length[on] = length[on] + seg_len[first[on] + j]
    lam = SPEED_OF_LIGHT / frequency
    chain = _polarimetric_chain(scene, surfaces[surfaces >= 0], dirs, order, frequency)
    amplitude = (lam / (4.0 * math.pi * length))[:, None, None] * chain
    paths = _pathset("specular", length, amplitude, dirs[first], dirs[first + order],
                     surfaces, points)
    return paths.take(np.lexsort((length, order)))


def _reflection_points(scene: Scene, tx, rx, seqs: np.ndarray,
                       images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute the reflection points of one order level in batch.

    ``seqs`` is (M, k) surface ids and ``images[:, j]`` is tx mirrored
    through the first j surfaces.  Returns the sequences that pass, in the
    order of ``seqs``, and their points (M', k + 2, 3), [tx, q_1, ..., q_k,
    rx].
    """
    normals, offsets = scene.normals, scene.offsets
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
        on = np.flatnonzero(ok)
        ok[on] = scene.contains(sid[on], q[on], strict=True)
        rows, cur = rows[ok], q[ok]
        pts[rows, j] = cur
    # front-face checks: both neighbors of each bounce on the normal side
    seqs, pts = seqs[rows], pts[rows]
    ok = np.ones(len(rows), dtype=bool)
    for j in range(k):
        n, q = normals[seqs[:, j]], pts[:, j + 1]
        ok &= (_rowdot(pts[:, j] - q, n) > 1e-12) & (_rowdot(pts[:, j + 2] - q, n) > 1e-12)
    return seqs[ok], pts[ok]


#: Tiles that the blocks left after step 1 of :func:`lambertian_diffuse` must
#: hold between them before :func:`_diffuse_blocks` tests them for visibility
#: as whole blocks; fewer go straight to the per-tile fan test.
_BLOCK_PASS_TILES = 1024


def _diffuse_blocks(scene: Scene, ends, planes, tile_size: float, lam: float,
                    floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1 and 2 of :func:`lambertian_diffuse` for the ``ends`` (TX, RX),
    whose fans have the ``planes`` of :func:`~v2vchan.scene._fan_planes`,
    at the lowest floor ``floor`` (a power) and wavelength ``lam``.

    Returns, for each block of :meth:`Scene.tile_blocks`, whether any of
    its tiles can be returned (live, (B,)), and whether its tiles need the
    fan test from TX and from RX ((2, B)).
    """
    _, center, radius, area, sid, corners, count = scene.tile_blocks(tile_size)
    scatter = scene.scattering[sid]
    reach = radius * (1.0 + 1e-9) + 1e-9
    # the heights' widening: |c| + R + X
    scale = (np.sqrt(np.einsum("bk,bk->b", center, center)) + reach
             + float(np.linalg.norm(np.abs(scene.bounding_box).max(axis=0))))
    dist, near, height = [], [], []
    for end in ends:
        rel = center - end
        dist.append(np.sqrt(np.einsum("bk,bk->b", rel, rel)))
        near.append(np.maximum(dist[-1] - reach, 0.0))
        height.append((scene.normals @ end - scene.offsets)[sid]
                      + 1e-9 * (1.0 + float(np.linalg.norm(end)) + scale))
    cosine = [np.divide(h, d, out=np.ones_like(h), where=(h > 0.0) & (h < d))
              for h, d in zip(height, near)]
    bound = (scatter ** 2 * area * (lam / (4.0 * math.pi)) ** 2 / math.pi * (1.0 + 1e-6)
             * cosine[0] * cosine[1])
    live = ((height[0] > 0.0) & (height[1] > 0.0) & (scatter > 0.0)
            & (bound >= floor * (near[0] * near[1]) ** 2))

    # blocks hidden from an end drop out; those clear from it skip its fan
    # tests.  A block is worth its four corners when it holds more tiles,
    # and a pass when its blocks hold more than _BLOCK_PASS_TILES tiles
    fan = np.ones((2, len(live)), dtype=bool)
    cand = np.flatnonzero(live & (count > 4))
    for k, end in enumerate(ends):
        if count[cand].sum() <= _BLOCK_PASS_TILES:
            break
        hidden, clear = occlusion_test_blocks(scene, end, corners[cand],
                                              dist[k][cand] - reach[cand],
                                              dist[k][cand] + reach[cand], k == 1, planes[k])
        live[cand[hidden]] = False
        fan[k, cand[clear]] = False
        cand = cand[~hidden]
    return live, fan


def lambertian_diffuse(scene: Scene, tx, rx, tile_size: float,
                       frequency: float = DEFAULT_CARRIER, *, cull_db: float | None = None,
                       known_best_gain: float = 0.0) -> PathSet:
    """Single-bounce Lambertian diffuse paths from every doubly visible tile.

    Every tile of :meth:`Scene.tiles` on a scattering surface (S > 0) that
    is visible from both endpoints (front side, unobstructed) contributes
    one path with field magnitude

        S * sqrt(cos_i * cos_s / pi) * sqrt(A_tile) / (r1 * r2) * lambda/(4 pi)

    where the angles are measured from the tile normal.  The polarimetric
    matrix is diagonal (no cross-polarization) and the path's
    :meth:`PathSet.gain_linear` is exactly the squared magnitude.

    ``cull_db`` sets a power floor relative to the strongest path: the
    stronger of ``known_best_gain`` and the strongest tile returned.  Tiles
    below it are not returned, and the result equals the exhaustive one
    (every doubly visible tile) filtered at that floor.  Work on tiles that
    cannot be returned is skipped in three steps, and a fourth decides the
    tiles left:

    1. Every tile of a block of :meth:`Scene.tile_blocks` (center c, radius
       R, largest area A, scattering coefficient S) lies within R of c, so
       r1 >= d1 - R and r2 >= d2 - R, d1 and d2 the distances of c from TX
       and RX.  Every tile also lies in its surface's plane (unit normal n,
       offset o), so cos_i = h1 / r1 and cos_s = h2 / r2, where h1 = n.tx - o
       and h2 = n.rx - o are the heights of the ends over that plane, the
       same for every tile of the surface.  Its power is therefore at most
       S^2 A / (pi (d1 - R)^2 (d2 - R)^2) (lambda / 4 pi)^2 times
       min(1, h1 / (d1 - R)) min(1, h2 / (d2 - R)).  A block is dropped
       before any of its tiles is evaluated when that bound is below
       ``known_best_gain`` times the relative floor, the lowest the floor
       can be, when either height is <= 0 (its tiles fail the front-side
       test), or when S = 0.  R is widened by a part in 1e9 and 1 nm, and
       the bound by a part in 1e6, so the rounding of the tiles' own values
       cannot put one of them above a bound it was dropped under.  Each
       height is widened by 1 nm plus a part in 1e9 of |end| + |c| + R + X,
       X the norm of the scene's largest vertex coordinates: a tile's
       computed n.(end - p) differs from the computed height by its center's
       distance from the plane (the rounding of ``v0 + u e_u + v e_v`` and
       of ``o``, a few u (|v0| + |p|): 0 on the axis-aligned bundled
       scenes, up to 3e-14 m on tilted 10 m quads 50 m from the origin)
       and by the rounding of :func:`_rowdot` and of the height itself, a
       few u (|end| + |p| + |o|); every such length is below |end| + 4X,
       and u = 2**-53 is seven orders below a part in 1e9.
    2. Of the blocks left, those holding more tiles than their four corners
       are tested for visibility as a whole from TX, then from RX
       (:func:`~v2vchan.scene.occlusion_test_blocks`, the fan test at the
       block's corners, at distances widened as R is), when together they
       hold more than ``_BLOCK_PASS_TILES`` tiles.  A block hidden from
       either end is dropped; the tiles of a block clear from one end skip
       that end's fan test.  Other blocks' tiles take the per-tile test.
    3. Of the tiles left, only those that face both ends and are at or
       above the lowest floor are kept.
    4. Every tile left takes one fan test from TX, and the tiles it leaves
       one from RX, one call per end.  The stronger of ``known_best_gain``
       and the strongest unblocked tile sets the final floor, and one mask
       keeps the unblocked tiles at or above it.

    A tile dropped in step 1 or 3 is below the lowest floor, so below the
    final one, or faces away from an end, and one dropped in step 2 is not
    visible: none is in the filtered exhaustive result.  Nor could one set
    the final floor, as a visible tile below the lowest floor is weaker
    than ``known_best_gain``.  The tiles left keep their table order, so
    ties sort as they would.  With ``cull_db=None`` every doubly visible
    tile is returned.  Paths come out sorted by length, ties in (surface
    id, tile id) order.
    """
    tx, rx = _endpoints(tx, rx)
    lam = SPEED_OF_LIGHT / frequency
    rel = 10.0 ** (cull_db / 10.0) if cull_db is not None else 0.0
    floor = known_best_gain * rel

    planes = [_fan_planes(scene, end) for end in (tx, rx)]
    live, fan = _diffuse_blocks(scene, (tx, rx), planes, tile_size, lam, floor)

    # candidate tiles (front side of both endpoints) with exact amplitudes;
    # occlusion is the only unknown left
    sids, centers, areas, tids = scene.tiles(tile_size)
    block = scene.tile_blocks(tile_size)[0]
    rows = np.flatnonzero(live[block])
    sids, centers, areas, tids, blk = (x[rows] for x in (sids, centers, areas, tids, block))
    v1 = centers - tx                    # tx -> tile
    v2 = rx - centers                    # tile -> rx
    r1 = np.linalg.norm(v1, axis=1)
    r2 = np.linalg.norm(v2, axis=1)
    valid = (r1 > 1e-9) & (r2 > 1e-9)
    n = scene.normals[sids]
    cos_i = np.where(valid, -_rowdot(v1, n) / np.where(valid, r1, 1.0), 0.0)
    cos_s = np.where(valid, _rowdot(v2, n) / np.where(valid, r2, 1.0), 0.0)
    front = np.flatnonzero(valid & (cos_i > 1e-9) & (cos_s > 1e-9))
    mag = (scene.scattering[sids[front]] * np.sqrt(cos_i[front] * cos_s[front] / math.pi)
           * np.sqrt(areas[front]) / (r1[front] * r2[front]) * lam / (4.0 * math.pi))
    above = mag ** 2 >= floor
    front, mag = front[above], mag[above]
    sids, centers, tids, v1, v2, r1, r2, blk = (
        x[front] for x in (sids, centers, tids, v1, v2, r1, r2, blk))
    fan = fan[:, blk]

    # step 4: the fan test from TX, then from RX, of the tiles whose block needs it
    sel = np.arange(len(mag))
    for k in (0, 1):
        t = fan[k, sel]
        blocked = np.zeros(len(sel), dtype=bool)
        blocked[t] = (occlusion_test_fan(scene, centers[sel[t]], rx, planes[1]) if k
                      else occlusion_test_fan(scene, tx, centers[sel[t]], planes[0]))
        sel = sel[~blocked]
    best_gain = max(known_best_gain, float(np.max(mag[sel], initial=0.0) ** 2))
    idx = sel[mag[sel] ** 2 >= best_gain * rel]
    length = r1 + r2
    idx = idx[np.argsort(length[idx], kind="stable")]
    v1, v2 = v1[idx], v2[idx]
    departure = v1 / np.sqrt(_rowdot(v1, v1))[:, None]
    arrival = v2 / np.sqrt(_rowdot(v2, v2))[:, None]
    amplitude = mag[idx, None, None] * np.eye(2, dtype=complex)
    return _pathset("diffuse", length[idx], amplitude, departure, arrival,
                    sids[idx, None], centers[idx, None], tile=tids[idx])


def trace_snapshot(scene: Scene, tx, rx, config: TracerConfig) -> PathSet:
    """Union of LOS, specular and diffuse paths in deterministic order.

    Ordering: LOS first, then speculars by (order, length), then diffuse by
    length.  :func:`lambertian_diffuse` drops the diffuse paths more than
    ``cull_db`` below the strongest path of the snapshot, which keeps the
    component count bounded.
    """
    los = trace_los(scene, tx, rx, config.frequency)
    parts = [] if los is None else [los]
    parts.append(image_method_specular(scene, tx, rx, config.max_order, config.frequency))
    if config.enable_diffuse:
        known_best = max(float(p.gain_linear().max(initial=0.0)) for p in parts)
        parts.append(lambertian_diffuse(scene, tx, rx, config.tile_size, config.frequency,
                                        cull_db=config.cull_db, known_best_gain=known_best))
    return PathSet.concat(parts)


PATH_DUMP_HEADER = ["snapshot_t", "kind", "order", "length_m", "delay_s",
                    "gain_db", "n_interactions", "points"]


#: The dump row of a path of each order after the snapshot time: kind, order,
#: length, delay, gain in dB, order again and the interaction points.
_DUMP_ROW = ["%s,%d,%r,%r,%.6f,%d," + ";".join(["%.6f|%.6f|%.6f"] * k) + "\n"
             for k in range(MAX_SPECULAR_ORDER + 1)]


def dump_paths_csv(paths: PathSet, t: float, fh) -> None:
    """Append one CSV row per path to an open file handle.

    The rows are formatted from the columns in one pass: each row's fields,
    then its valid interaction points, fill an object array in row order,
    and one format string per row's order takes them.  The fields are
    Python floats and ints, and the gain in dB comes from ``math.log10``,
    as numpy's may round differently.
    """
    order = paths.order
    n, k = len(paths), int(order.max(initial=0))
    gain = paths.gain_linear()
    gain_db = np.full(n, -math.inf)
    gain_db[gain > 0] = 10.0 * np.array(list(map(math.log10, gain[gain > 0].tolist())))
    cells = np.empty((n, 6 + 3 * k), dtype=object)
    cells[:, 0] = np.array(KINDS, dtype=object)[paths.kind]
    cells[:, 1] = cells[:, 5] = order
    cells[:, 2] = paths.length
    cells[:, 3] = paths.delay
    cells[:, 4] = gain_db
    cells[:, 6:] = paths.points[:, :k].reshape(n, 3 * k)
    used = np.ones(cells.shape, dtype=bool)
    used[:, 6:] = np.repeat(paths.surfaces[:, :k] >= 0, 3, axis=1)
    head = f"{t!r},"
    rows = "".join([head + _DUMP_ROW[j] for j in order.tolist()])
    fh.write(rows % tuple(cells[used].tolist()))
