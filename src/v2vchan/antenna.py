"""Polarimetric antenna patterns and the four-element roof-array layout.

Patterns are complex field-gain grids over azimuth [0, 360) x elevation
[-90, 90] with a (vertical, horizontal) polarization pair per node.  The
polarization basis for a propagation direction d is

    e_h(d) = unit(z x d)        (horizontal, falls back to +y near zenith)
    e_v(d) = unit(d x e_h(d))   (points up for horizontal propagation)

so (e_h, e_v, d) is right-handed.  Both the ray tracer and the channel
synthesizer use this basis.

Every :class:`AntennaPattern` keeps a read-only copy of its grid and, built
from it once, a real gather table ``planes`` of its live planes: of re V,
im V, re H and im H over its K nodes, those holding any value other than
+0.0 (the bundled shark-fin and isotropic patterns have only re V).  A grid
that cannot change cannot leave the table stale.  An :class:`ArrayLayout`
stacks the tables of its distinct patterns over the union of their live
planes, a pattern's missing planes as +0.0 rows, and keeps each element's
table offset, grid size, steps and boresight as (M, 1) columns, so its one
gain kernel interpolates all elements in one pass: one index computation
over (elements, directions) and four gathers of the live
planes.  :meth:`ArrayLayout.element_gains` assembles the (M, N, 2) complex
gains from the live planes' values; synthesis takes them per live
polarisation instead, as the real plane itself where that is all that is
live (the bundled patterns' V) and as the complex gains otherwise, so the
common case neither fills nor conjugates a complex buffer.  A plane that is
not live interpolates to +0.0 at every query, which is what is written for
it without a gather: its four corner terms are zeros, the g01 (1 - wa) we
term is +0.0 since neither weight is ever negative, and a sum with a +0.0
term of zeros is +0.0.  :meth:`AntennaPattern.sample` is the one-pattern
case of the same kernel.  The four shark-fin elements share one cardioid
pattern, turned by their boresights, so its table is held once.  Azimuths
are reduced into [0, 360] by ``np.fmod`` and a compare, bit for bit as
numpy's ``% 360.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import _cross


def vh_basis(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertical/horizontal polarization unit vectors for unit directions (N, 3)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    z = np.array([0.0, 0.0, 1.0])
    e_h = _cross(z, d)
    nh = np.linalg.norm(e_h, axis=1)
    degenerate = nh < 1e-9
    e_h[degenerate] = (0.0, 1.0, 0.0)
    nh = np.where(degenerate, 1.0, nh)
    e_h /= nh[:, None]
    e_v = _cross(d, e_h)
    e_v /= np.linalg.norm(e_v, axis=1)[:, None]
    return e_v, e_h


def _wrap360(deg: np.ndarray) -> np.ndarray:
    """``deg % 360.0`` bit for bit, for finite arrays.  numpy's remainder
    is the fmod remainder plus 360 where that is negative, and +0.0 for any
    zero; here the other remainders get +0.0 added, which turns -0.0 into
    +0.0 and changes nothing else."""
    r = np.fmod(deg, 360.0)
    return r + 360.0 * (r < 0.0)


def direction_to_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (N, 3) to (azimuth deg in [0, 360), elevation deg)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    az = _wrap360(np.degrees(np.arctan2(d[:, 1], d[:, 0])))
    el = np.degrees(np.arcsin(np.clip(d[:, 2], -1.0, 1.0)))
    return az, el


def angles_to_direction(az_deg, el_deg) -> np.ndarray:
    az = np.radians(np.asarray(az_deg, dtype=float))
    el = np.radians(np.asarray(el_deg, dtype=float))
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1)


class AntennaPattern:
    """Complex (V, H) field gain sampled on a uniform azimuth/elevation grid.

    ``grid`` has shape (n_az, n_el, 2); azimuth wraps (the sample at 360 deg
    equals the one at 0 deg and is not stored).  Queries interpolate
    bilinearly and are exact at grid nodes.  The pattern keeps a read-only
    copy of the grid and, from it, the gather table ``planes`` of the planes
    listed in ``live`` (0 re V, 1 im V, 2 re H, 3 im H), those holding any
    value other than +0.0.
    """

    def __init__(self, grid: np.ndarray):
        g = np.array(grid, dtype=complex)
        if g.ndim != 3 or g.shape[2] != 2 or g.shape[0] < 2 or g.shape[1] < 2:
            raise ValueError("pattern grid must have shape (n_az >= 2, n_el >= 2, 2)")
        if not np.all(np.isfinite(g)):
            raise ValueError("pattern grid must be finite everywhere")
        g.flags.writeable = False
        self.grid = g
        self.n_az, self.n_el = g.shape[0], g.shape[1]
        self.az_step = 360.0 / self.n_az
        self.el_step = 180.0 / (self.n_el - 1)
        # re V, im V, re H, im H, each over the nodes in (azimuth, elevation) order;
        # a -0.0 node keeps its plane live, as it can carry a sign into a result
        planes = np.moveaxis(g.view(float).reshape(-1, 4), 1, 0)
        self.live = tuple(np.flatnonzero(planes.view(np.uint64).any(axis=1)).tolist())
        self.planes = planes[list(self.live)]
        self.planes.flags.writeable = False

    def sample(self, az_deg, el_deg) -> np.ndarray:
        """Bilinear interpolation at (azimuth, elevation) in degrees; shape
        (..., 2) over the broadcast query shape.  Non-finite angles raise
        ValueError."""
        az, el = np.broadcast_arrays(np.asarray(az_deg, dtype=float),
                                     np.asarray(el_deg, dtype=float))
        if not (np.isfinite(az).all() and np.isfinite(el).all()):
            raise ValueError("pattern query angles must be finite")
        cols = tuple(np.array([[x]]) for x in (0, self.n_az, self.n_el,
                                                self.az_step, self.el_step))
        acc = _bilinear(self.planes, cols, _wrap360(az.reshape(1, -1)), el.reshape(-1))
        return _complex_gains(acc, self.live)[0].reshape(*az.shape, 2)


def _bilinear(planes: np.ndarray, cols, az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """Bilinear values of the live planes of M patterns that share one
    gather table.

    ``planes`` is an (L, K) table of node values of L planes.  ``cols``
    holds (M, 1) columns of each pattern's first node in the table, n_az,
    n_el, azimuth step and elevation step.  ``az`` (M, N) holds each
    pattern's azimuths, already reduced into [0, 360], ``el`` (N,) the
    shared elevations.  Returns (L, M, N) real.  The index arithmetic runs
    once over (M, N), the four corner gathers take the planes at once into
    two (L, M, N) buffers, and the weights apply in place in the order
    ``g00 (1 - wa) (1 - we) + g10 wa (1 - we) + g01 (1 - wa) we + g11 wa we``.
    Per component these are the products and sums of the complex form, so
    nonzero results agree with it bit for bit; a zero may differ in sign
    where a node carries a negative component.  Since az <= 360, an
    azimuth index wraps with a compare-and-subtract, not an integer modulo.
    """
    base, n_az, n_el, az_step, el_step = cols
    fa = az / az_step
    fe = (np.clip(el, -90.0, 90.0) + 90.0) / el_step
    floor_a = np.floor(fa)
    ia = np.where(floor_a >= n_az, floor_a - n_az, floor_a).astype(int)
    ie = np.minimum(np.floor(fe).astype(int), n_el - 2)
    wa = fa - floor_a
    we = fe - ie
    i00 = base + ia * n_el + ie
    i10 = i00 + n_el - n_az * n_el * (ia == n_az - 1)     # the next azimuth, wrapped
    ua, ue = 1 - wa, 1 - we
    # the indices are in the table by construction; "clip" lets take write
    # into ``out`` without an intermediate buffer
    acc = np.take(planes, i00, axis=1, mode="clip")                     # (L, M, N)
    acc *= ua
    acc *= ue
    term = np.empty_like(acc)
    for idx, w_a, w_e in ((i10, wa, ue), (i00 + 1, ua, we), (i10 + 1, wa, we)):
        np.take(planes, idx, axis=1, out=term, mode="clip")
        term *= w_a
        term *= w_e
        acc += term
    return acc


def _complex_gains(acc: np.ndarray, live) -> np.ndarray:
    """(M, N, 2) complex (V, H) gains from the (L, M, N) values of the L
    planes listed in ``live`` (0 re V, 1 im V, 2 re H, 3 im H), +0.0 in the
    other planes."""
    out = np.zeros((*acc.shape[1:], 2), dtype=complex)
    out.view(float).reshape(*acc.shape[1:], 4)[..., list(live)] = np.moveaxis(acc, 0, -1)
    return out


def pattern_gain(pattern: AntennaPattern, direction) -> np.ndarray:
    """Complex (V, H) field gain toward a unit direction in the antenna frame."""
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    az, el = direction_to_angles(d)
    return pattern.sample(az, el)[0]


def isotropic_pattern(gain: complex = 1.0, step_deg: float = 30.0) -> AntennaPattern:
    """Unit vertical-polarization pattern, constant over the sphere."""
    n_az = int(round(360.0 / step_deg))
    n_el = int(round(180.0 / step_deg)) + 1
    grid = np.zeros((n_az, n_el, 2), dtype=complex)
    grid[:, :, 0] = gain
    return AntennaPattern(grid)


def cardioid_pattern(boresight_az_deg: float = 0.0, peak_gain_dbi: float = 5.0,
                     step_deg: float = 2.0) -> AntennaPattern:
    """Directional vertical-pol pattern g(psi) = peak * (1 + cos(psi)) / 2.

    ``psi`` is the angle off boresight (horizontal boresight at the given
    azimuth).  Front-to-back ratio is infinite for the pure cardioid; a small
    back floor keeps the pattern nonzero so correlation metrics stay defined,
    while preserving >= 6 dB front-to-back.
    """
    n_az = int(round(360.0 / step_deg))
    n_el = int(round(180.0 / step_deg)) + 1
    az = np.arange(n_az) * step_deg
    el = -90.0 + np.arange(n_el) * step_deg
    azg, elg = np.meshgrid(az, el, indexing="ij")
    dirs = angles_to_direction(azg.ravel(), elg.ravel())
    bore = angles_to_direction(boresight_az_deg, 0.0)
    cospsi = np.clip(dirs @ bore, -1.0, 1.0).reshape(n_az, n_el)
    peak = 10.0 ** (peak_gain_dbi / 20.0)
    g = peak * (0.05 + 0.95 * (1.0 + cospsi) / 2.0)
    grid = np.zeros((n_az, n_el, 2), dtype=complex)
    grid[:, :, 0] = g
    return AntennaPattern(grid)


@dataclass
class ArrayElement:
    offset: np.ndarray        # (3,) meters in the vehicle frame (x forward)
    pattern: AntennaPattern
    boresight_az_deg: float = 0.0


@dataclass
class ArrayLayout:
    """Roof-mounted antenna array: element offsets, patterns, boresights.

    Construction reads the elements once: the distinct patterns' tables go
    into one gather table over the union of their live planes, and each
    element's table offset, grid shape, steps and boresight into (M, 1)
    columns that the gain kernel reads.  ``live_pols`` lists the
    polarisations (0 V, 1 H) in which some element's pattern has a live
    plane; in the others every gain is +0.0.
    """

    elements: list[ArrayElement]

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("array needs at least one element")
        for e in self.elements:
            e.offset = np.asarray(e.offset, dtype=float)
            if np.linalg.norm(e.offset) > 1.0:
                raise ValueError("element offsets must stay within 1 m of the array origin")
        distinct = list({id(e.pattern): e.pattern for e in self.elements}.values())
        starts = dict(zip(map(id, distinct),
                          np.cumsum([0] + [p.planes.shape[1] for p in distinct]).tolist()))
        self._live = tuple(sorted(set().union(*(p.live for p in distinct))))
        self.live_pols = tuple(sorted({plane // 2 for plane in self._live}))
        tables = []
        for p in distinct:                  # a plane live elsewhere is +0.0 here
            table = p.planes
            if p.live != self._live:
                table = np.zeros((len(self._live), p.planes.shape[1]))
                table[[self._live.index(plane) for plane in p.live]] = p.planes
            tables.append(table)
        self._planes = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)
        self._planes.flags.writeable = False
        rows = [(starts[id(p)], p.n_az, p.n_el, p.az_step, p.el_step)
                for p in (e.pattern for e in self.elements)]
        self._cols = tuple(np.array(col)[:, None] for col in zip(*rows))
        self._boresight = np.array([[e.boresight_az_deg] for e in self.elements], dtype=float)

    @property
    def size(self) -> int:
        return len(self.elements)

    def world_offsets(self, heading_rad: float) -> np.ndarray:
        """Element offsets rotated into the world frame by the vehicle yaw."""
        c, s = math.cos(heading_rad), math.sin(heading_rad)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return np.stack([rot @ e.offset for e in self.elements])

    def element_gains(self, directions: np.ndarray, heading_rad: float) -> np.ndarray:
        """(V, H) gains of every element toward world directions (N, 3).

        Returns an array of shape (n_elements, N, 2).  Element frames differ
        from the world frame by the vehicle yaw plus the element boresight
        azimuth (elevation is passed through unchanged).  Directions of any
        other shape, and non-finite directions or heading, raise ValueError.
        """
        return _complex_gains(self._planes_at(directions, heading_rad), self._live)

    def _gains(self, directions: np.ndarray, heading_rad) -> list[np.ndarray]:
        """The gains of :meth:`element_gains`, one (n_elements, N) array per
        polarisation in ``live_pols``: its real plane when that is all that
        is live, else its complex gains as :meth:`element_gains` has them.
        ``heading_rad`` is one heading or one per direction."""
        acc = self._planes_at(directions, heading_rad)
        full = _complex_gains(acc, self._live) if any(q % 2 for q in self._live) else None
        return [full[..., pol] if 2 * pol + 1 in self._live else acc[self._live.index(2 * pol)]
                for pol in self.live_pols]

    def _planes_at(self, directions: np.ndarray, heading_rad) -> np.ndarray:
        """The (L, n_elements, N) values of the table's live planes toward
        world directions (N, 3); see :meth:`element_gains`.  ``heading_rad``
        is one heading or an (N,) array of one per direction; ``np.degrees``
        is ``math.degrees``' one multiply by 180 / pi, bit for bit."""
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError(f"antenna query directions must have shape (N, 3), "
                             f"not {directions.shape}")
        if not (np.isfinite(directions).all() and np.isfinite(heading_rad).all()):
            raise ValueError("antenna query directions and heading must be finite")
        az, el = direction_to_angles(directions)
        az_local = _wrap360((az - np.degrees(heading_rad)) - self._boresight)
        az_local[az_local == 360.0] = 0.0   # a tiny negative azimuth reduces to 360
        return _bilinear(self._planes, self._cols, az_local, el)


def default_sharkfin_array(element_spacing: float = 0.05,
                           peak_gain_dbi: float = 5.0) -> ArrayLayout:
    """Four-element roof array: boresights left, back, front, right.

    Element order matches the measurement campaign's numbering: 1) left
    (+90 deg), 2) back (180 deg), 3) front (0 deg), 4) right (270 deg).
    Elements sit on a short line along the vehicle axis; the in-radome
    spacing is unpublished, so 5 cm is the configurable default.
    """
    boresights = [90.0, 180.0, 0.0, 270.0]
    n = len(boresights)
    pattern = cardioid_pattern(0.0, peak_gain_dbi)      # one pattern, turned per element
    elements = []
    for i, b in enumerate(boresights):
        offset = np.array([(i - (n - 1) / 2.0) * element_spacing, 0.0, 0.0])
        elements.append(ArrayElement(offset, pattern, b))
    return ArrayLayout(elements)


def isotropic_array(n_elements: int = 1, element_spacing: float = 0.05) -> ArrayLayout:
    """Array of isotropic V-pol elements; handy for oracle tests."""
    elements = []
    for i in range(n_elements):
        offset = np.array([(i - (n_elements - 1) / 2.0) * element_spacing, 0.0, 0.0])
        elements.append(ArrayElement(offset, isotropic_pattern(), 0.0))
    return ArrayLayout(elements)
