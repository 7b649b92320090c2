"""Polarimetric antenna patterns and the four-element roof-array layout.

Patterns are complex field-gain grids over azimuth [0, 360) x elevation
[-90, 90] with a (vertical, horizontal) polarization pair per node.  The
polarization basis for a propagation direction d is

    e_h(d) = unit(z x d)        (horizontal, falls back to +y near zenith)
    e_v(d) = unit(d x e_h(d))   (points up for horizontal propagation)

so (e_h, e_v, d) is right-handed.  Both the ray tracer and the channel
synthesizer use this basis.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def vh_basis(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertical/horizontal polarization unit vectors for unit directions (N, 3)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    z = np.array([0.0, 0.0, 1.0])
    e_h = np.cross(np.broadcast_to(z, d.shape), d)
    nh = np.linalg.norm(e_h, axis=1)
    degenerate = nh < 1e-9
    e_h[degenerate] = (0.0, 1.0, 0.0)
    nh = np.where(degenerate, 1.0, nh)
    e_h /= nh[:, None]
    e_v = np.cross(d, e_h)
    e_v /= np.linalg.norm(e_v, axis=1)[:, None]
    return e_v, e_h


def direction_to_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (N, 3) to (azimuth deg in [0, 360), elevation deg)."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    az = np.degrees(np.arctan2(d[:, 1], d[:, 0])) % 360.0
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
    bilinearly and are exact at grid nodes.
    """

    def __init__(self, grid: np.ndarray):
        g = np.asarray(grid, dtype=complex)
        if g.ndim != 3 or g.shape[2] != 2 or g.shape[0] < 2 or g.shape[1] < 2:
            raise ValueError("pattern grid must have shape (n_az >= 2, n_el >= 2, 2)")
        if not np.all(np.isfinite(g)):
            raise ValueError("pattern grid must be finite everywhere")
        self.grid = g
        self.n_az, self.n_el = g.shape[0], g.shape[1]
        self.az_step = 360.0 / self.n_az
        self.el_step = 180.0 / (self.n_el - 1)

    def sample(self, az_deg, el_deg) -> np.ndarray:
        """Bilinear interpolation at (azimuth, elevation) in degrees; (N, 2)."""
        az = np.asarray(az_deg, dtype=float) % 360.0
        el = np.clip(np.asarray(el_deg, dtype=float), -90.0, 90.0)
        fa = az / self.az_step
        fe = (el + 90.0) / self.el_step
        ia = np.floor(fa).astype(int) % self.n_az
        ie = np.minimum(np.floor(fe).astype(int), self.n_el - 2)
        wa = (fa - np.floor(fa))[..., None]
        we = (fe - ie)[..., None]
        ia1 = (ia + 1) % self.n_az
        g00 = self.grid[ia, ie]
        g10 = self.grid[ia1, ie]
        g01 = self.grid[ia, ie + 1]
        g11 = self.grid[ia1, ie + 1]
        return (g00 * (1 - wa) * (1 - we) + g10 * wa * (1 - we)
                + g01 * (1 - wa) * we + g11 * wa * we)


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
    """Roof-mounted antenna array: element offsets, patterns, boresights."""

    elements: list[ArrayElement]

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("array needs at least one element")
        for e in self.elements:
            e.offset = np.asarray(e.offset, dtype=float)
            if np.linalg.norm(e.offset) > 1.0:
                raise ValueError("element offsets must stay within 1 m of the array origin")

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
        azimuth (elevation is passed through unchanged).
        """
        az, el = direction_to_angles(directions)
        out = np.empty((self.size, len(az), 2), dtype=complex)
        for i, e in enumerate(self.elements):
            az_local = (az - math.degrees(heading_rad) - e.boresight_az_deg) % 360.0
            out[i] = e.pattern.sample(az_local, el)
        return out


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
    elements = []
    for i, b in enumerate(boresights):
        offset = np.array([(i - (n - 1) / 2.0) * element_spacing, 0.0, 0.0])
        elements.append(ArrayElement(offset, cardioid_pattern(0.0, peak_gain_dbi), b))
    return ArrayLayout(elements)


def isotropic_array(n_elements: int = 1, element_spacing: float = 0.05) -> ArrayLayout:
    """Array of isotropic V-pol elements; handy for oracle tests."""
    elements = []
    for i in range(n_elements):
        offset = np.array([(i - (n_elements - 1) / 2.0) * element_spacing, 0.0, 0.0])
        elements.append(ArrayElement(offset, isotropic_pattern(), 0.0))
    return ArrayLayout(elements)


def load_pattern(path) -> AntennaPattern:
    """Read a pattern CSV ``theta_deg,phi_deg,re_v,im_v,re_h,im_h``.

    theta is azimuth on [0, 360) and phi elevation on [-90, 90], both on the
    uniform grid declared by the file contents.
    """
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        expected = ["theta_deg", "phi_deg", "re_v", "im_v", "re_h", "im_h"]
        if header is None or [c.strip() for c in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            rows.append([float(c) for c in row])
    arr = np.asarray(rows)
    azs = np.unique(arr[:, 0])
    els = np.unique(arr[:, 1])
    grid = np.zeros((len(azs), len(els), 2), dtype=complex)
    ia = np.searchsorted(azs, arr[:, 0])
    ie = np.searchsorted(els, arr[:, 1])
    grid[ia, ie, 0] = arr[:, 2] + 1j * arr[:, 3]
    grid[ia, ie, 1] = arr[:, 4] + 1j * arr[:, 5]
    return AntennaPattern(grid)


def save_pattern(pattern: AntennaPattern, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta_deg", "phi_deg", "re_v", "im_v", "re_h", "im_h"])
        for i in range(pattern.n_az):
            for j in range(pattern.n_el):
                v, h = pattern.grid[i, j]
                w.writerow([i * pattern.az_step, -90.0 + j * pattern.el_step,
                            v.real, v.imag, h.real, h.imag])
