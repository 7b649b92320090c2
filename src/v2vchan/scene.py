"""3D environment representation: materials, planar surfaces, scenes, trajectories.

Coordinates are local Cartesian ENU in meters with z up.  A scene is a flat
list of planar polygonal surfaces (building walls, roofs, ground, obstacle
panels), each carrying an electromagnetic material.  Scenes are immutable
after construction and safe for concurrent reads.

Tolerances: vertices must be coplanar within ``PLANARITY_TOL`` (1e-6 m);
segment/surface intersections closer than ``INTERSECT_TOL`` (1e-9 m) to a
segment endpoint do not count as obstructions.  Both sit far below the
4.17 ns (about 1.25 m) delay resolution of the 240 MHz channel.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

PLANARITY_TOL = 1e-6
INTERSECT_TOL = 1e-9

EARTH_RADIUS = 6371000.0


class SceneFormatError(ValueError):
    """Scene or trajectory file does not parse or violates the schema."""


class MaterialReferenceError(ValueError):
    """A surface references a material name that is not defined."""


class GeometryError(ValueError):
    """Degenerate or inconsistent geometry (non-planar, self-intersecting, ...)."""


@dataclass(frozen=True)
class Material:
    """Electromagnetic surface material.

    ``is_pec`` marks a perfect electric conductor: reflection magnitude is
    exactly 1 at all incidence angles and permittivity/conductivity are
    ignored.  ``scattering_coefficient`` is the Lambertian S in [0, 1].
    """

    name: str
    relative_permittivity: float = 1.0
    conductivity: float = 0.0
    is_pec: bool = False
    scattering_coefficient: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.relative_permittivity < math.inf:
            raise ValueError(
                f"material {self.name!r}: relative_permittivity must be finite and >= 1")
        if not 0.0 <= self.conductivity < math.inf:
            raise ValueError(f"material {self.name!r}: conductivity must be finite and >= 0")
        if not 0.0 <= self.scattering_coefficient <= 1.0:
            raise ValueError(f"material {self.name!r}: scattering_coefficient must be in [0, 1]")


#: Literature values for common street materials; overridable via scene files.
DEFAULT_MATERIALS = {
    "concrete": Material("concrete", 5.0, 0.01, False, 0.4),
    "glass": Material("glass", 6.0, 0.005, False, 0.2),
    "metal": Material("metal", 1.0, 0.0, True, 0.1),
    "asphalt": Material("asphalt", 4.0, 0.02, False, 0.5),
}


def _newell_normal(vertices: np.ndarray) -> np.ndarray:
    """Area-weighted polygon normal (right-hand rule over the vertex order)."""
    v = vertices
    nxt = np.roll(v, -1, axis=0)
    n = np.array([
        np.sum((v[:, 1] - nxt[:, 1]) * (v[:, 2] + nxt[:, 2])),
        np.sum((v[:, 2] - nxt[:, 2]) * (v[:, 0] + nxt[:, 0])),
        np.sum((v[:, 0] - nxt[:, 0]) * (v[:, 1] + nxt[:, 1])),
    ])
    return n


def _ear_clip(poly2d: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple 2D polygon (CCW) by ear clipping.

    Returns index triples into ``poly2d``.  O(n^2), fine for the small
    polygons (walls, roofs, footprints) this simulator deals with.
    """
    n = len(poly2d)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if n == 3:
        return [(0, 1, 2)]
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * n * n:
            raise GeometryError("ear clipping failed; polygon may be degenerate")
        clipped = False
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = poly2d[i0], poly2d[i1], poly2d[i2]
            if cross(a, b, c) <= 0:  # reflex or collinear corner
                continue
            ear = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly2d[j]
                if (cross(a, b, p) >= 0 and cross(b, c, p) >= 0 and cross(c, a, p) >= 0):
                    ear = False
                    break
            if ear:
                tris.append((i0, i1, i2))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("ear clipping failed; polygon may be self-intersecting")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


class Surface:
    """A planar polygon with an outward normal and a material.

    Vertices are ordered counter-clockwise when viewed from the outward
    (normal) side.  The normal, area, a 2D in-plane frame and a
    triangulation are derived on construction.
    """

    def __init__(self, vertices, material: Material, tag: str = ""):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise GeometryError(f"surface {tag!r}: need >= 3 vertices of dimension 3")
        if not np.isfinite(v).all():
            raise GeometryError(f"surface {tag!r}: vertices must be finite")
        n = _newell_normal(v)
        area2 = np.linalg.norm(n)
        if not 0.0 < area2 < math.inf:   # NaN or inf when the coordinates overflow
            raise GeometryError(f"surface {tag!r}: zero or overflowing polygon area")
        normal = n / area2
        offset = float(normal @ v[0])
        dev = np.abs(v @ normal - offset)
        if dev.max() > PLANARITY_TOL:
            raise GeometryError(
                f"surface {tag!r}: vertices deviate from plane by {dev.max():.2e} m"
            )
        self.vertices = v
        self.material = material
        self.tag = tag
        self.normal = normal
        self.plane_offset = offset
        self.area = 0.5 * area2
        # In-plane orthonormal frame for 2D point-in-polygon tests.
        e_u = v[1] - v[0]
        e_u = e_u - (e_u @ normal) * normal
        e_u /= np.linalg.norm(e_u)
        e_v = np.cross(normal, e_u)
        self._frame = (e_u, e_v)
        self._poly2d = np.column_stack(((v - v[0]) @ e_u, (v - v[0]) @ e_v))
        self._tri_idx = _ear_clip(self._poly2d)

    def to_2d(self, points: np.ndarray) -> np.ndarray:
        """Project world points (N, 3) into the surface's in-plane frame."""
        e_u, e_v = self._frame
        rel = np.atleast_2d(points) - self.vertices[0]
        return np.column_stack((rel @ e_u, rel @ e_v))

    def contains(self, points: np.ndarray, *, strict: bool = True) -> np.ndarray:
        """Point-in-polygon test using the crossing number, vectorized.

        ``strict`` demands points strictly inside (edge hits rejected to a
        1e-9 margin); with ``strict=False`` edge points count as inside.
        """
        pts = self.to_2d(points)
        poly = self._poly2d
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        on_edge = np.zeros(len(pts), dtype=bool)
        n = len(poly)
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            # distance of each point to the (finite) edge
            ex, ey = x2 - x1, y2 - y1
            el2 = ex * ex + ey * ey
            tseg = np.clip(((x - x1) * ex + (y - y1) * ey) / el2, 0.0, 1.0)
            dx, dy = x - (x1 + tseg * ex), y - (y1 + tseg * ey)
            on_edge |= dx * dx + dy * dy < INTERSECT_TOL * INTERSECT_TOL
            crosses = ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * ex / np.where(ey == 0, np.inf, ey))
            inside ^= crosses
        if strict:
            return inside & ~on_edge
        return inside | on_edge

    def triangles(self) -> np.ndarray:
        """Triangulation as an array of shape (n_tri, 3, 3)."""
        return self.vertices[np.array(self._tri_idx)]

    def __repr__(self):
        return (f"Surface(tag={self.tag!r}, material={self.material.name!r}, "
                f"n_vertices={len(self.vertices)}, area={self.area:.3g})")


class Scene:
    """Immutable collection of surfaces plus lookup/intersection machinery.

    Surface ids are list indices.  ``ground`` is the index of the ground
    surface when one exists (required for scenes loaded from files; optional
    for in-memory scenes so that free-space oracle setups are expressible).
    """

    def __init__(self, surfaces: list[Surface], ground: int | None = None,
                 bounding_margin: float = 1.0):
        self.surfaces = list(surfaces)
        if ground is not None and not 0 <= ground < len(self.surfaces):
            raise GeometryError("ground index out of range")
        self.ground = ground
        if self.surfaces:
            allv = np.vstack([s.vertices for s in self.surfaces])
            lo = allv.min(axis=0) - bounding_margin
            hi = allv.max(axis=0) + bounding_margin
        else:
            lo = np.full(3, -bounding_margin)
            hi = np.full(3, bounding_margin)
        self.bounding_box = np.vstack((lo, hi))
        # Flattened triangle soup for vectorized occlusion tests.
        tris = [s.triangles() for s in self.surfaces]
        self._tri = np.concatenate(tris) if tris else np.zeros((0, 3, 3))
        self._tile_cache: dict[float, tuple[np.ndarray, ...]] = {}

    @property
    def ground_plane(self) -> Surface | None:
        return None if self.ground is None else self.surfaces[self.ground]

    def tiles(self, tile_size: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deterministic tessellation of every surface into square tiles, as one table.

        Returns (surface_ids (M,), centers (M, 3), areas (M,), tile_ids (M,)),
        rows grouped by surface in id order and, within a surface, in
        increasing tile id.  Tiles are laid on a grid in each surface's
        in-plane frame; a tile belongs to the surface when its center lies
        inside the polygon.  Tile ids are row-major grid indices, stable
        across calls, which path interpolation relies on when matching
        diffuse paths between snapshots.  The table is built once per tile
        size and shared read-only between callers.
        """
        key = float(tile_size)
        hit = self._tile_cache.get(key)
        if hit is not None:
            return hit
        # an empty first part gives a scene without surfaces typed, empty columns
        parts = [(np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int))]
        for sid, s in enumerate(self.surfaces):
            poly = s._poly2d
            lo, hi = poly.min(axis=0), poly.max(axis=0)
            nu = max(1, int(math.ceil((hi[0] - lo[0]) / tile_size)))
            nv = max(1, int(math.ceil((hi[1] - lo[1]) / tile_size)))
            u = lo[0] + (np.arange(nu) + 0.5) * (hi[0] - lo[0]) / nu
            v = lo[1] + (np.arange(nv) + 0.5) * (hi[1] - lo[1]) / nv
            uu, vv = np.meshgrid(u, v, indexing="ij")
            e_u, e_v = s._frame
            centers = s.vertices[0] + np.outer(uu.ravel(), e_u) + np.outer(vv.ravel(), e_v)
            ids = np.flatnonzero(s.contains(centers, strict=False))
            cell_area = ((hi[0] - lo[0]) / nu) * ((hi[1] - lo[1]) / nv)
            parts.append((np.full(len(ids), sid), centers[ids], np.full(len(ids), cell_area), ids))
        table = tuple(np.concatenate(col) for col in zip(*parts))
        for col in table:
            col.flags.writeable = False
        self._tile_cache[key] = table
        return table


def extrude_footprint(footprint, height: float, material: Material,
                      tag: str = "building") -> list[Surface]:
    """Extrude a simple 2D polygon into wall surfaces plus a roof.

    One wall per footprint edge, normals pointing outward from the footprint
    interior, plus a roof facing up.  Consecutive walls share their common
    vertical edge exactly.
    """
    fp = np.asarray(footprint, dtype=float)
    if fp.ndim != 2 or fp.shape[1] != 2 or len(fp) < 3:
        raise GeometryError("footprint needs >= 3 two-dimensional vertices")
    if not height > 0:
        raise GeometryError(f"footprint {tag!r}: height must be > 0")
    if _self_intersects(fp):
        raise GeometryError(f"footprint {tag!r} is self-intersecting")
    # normalize to CCW so that edge-right is outward
    area2 = np.sum(fp[:, 0] * np.roll(fp[:, 1], -1) - np.roll(fp[:, 0], -1) * fp[:, 1])
    if area2 == 0:
        raise GeometryError(f"footprint {tag!r} has zero area")
    if area2 < 0:
        fp = fp[::-1]
    n = len(fp)
    walls = []
    for i in range(n):
        p0, p1 = fp[i], fp[(i + 1) % n]
        verts = [
            (p0[0], p0[1], 0.0),
            (p1[0], p1[1], 0.0),
            (p1[0], p1[1], height),
            (p0[0], p0[1], height),
        ]
        walls.append(Surface(verts, material, tag=f"{tag}:wall{i}"))
    roof = Surface(np.column_stack((fp, np.full(n, height))), material, tag=f"{tag}:roof")
    return walls + [roof]


def _self_intersects(poly: np.ndarray) -> bool:
    """True when any two non-adjacent edges of the 2D polygon cross."""
    n = len(poly)

    def seg_cross(p, q, r, s):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        o1, o2 = orient(p, q, r), orient(p, q, s)
        o3, o4 = orient(r, s, p), orient(r, s, q)
        return (o1 * o2 < 0) and (o3 * o4 < 0)

    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = poly[j], poly[(j + 1) % n]
            if seg_cross(a, b, c, d):
                return True
    return False


def occlusion_test_batch(scene: Scene, starts, ends) -> np.ndarray:
    """Vectorized obstruction test for many segments against the whole scene.

    Returns a boolean array: True where some surface intersects the open
    segment.  Intersections within INTERSECT_TOL (1e-9 m) of either endpoint
    do not count, so segments that terminate exactly on a surface
    (reflection points) are not blocked by that surface.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    ends = np.atleast_2d(np.asarray(ends, dtype=float))
    n_seg = len(starts)
    blocked = np.zeros(n_seg, dtype=bool)
    tri = scene._tri
    if len(tri) == 0:
        return blocked
    v0 = tri[:, 0]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    d = ends - starts
    seg_len = np.linalg.norm(d, axis=1)
    ok = seg_len > 0
    # chunk over segments to bound memory at ~n_tri * chunk doubles
    chunk = max(1, int(4e6 / max(len(tri), 1)))
    for a in range(0, n_seg, chunk):
        b = min(a + chunk, n_seg)
        idx = np.flatnonzero(ok[a:b]) + a
        if len(idx) == 0:
            continue
        o = starts[idx][:, None, :]           # (S, 1, 3)
        dd = d[idx][:, None, :]               # (S, 1, 3)
        h = np.cross(dd, e2[None, :, :])      # (S, T, 3)
        det = np.einsum("tk,stk->st", e1, h)
        near = np.abs(det) > 1e-14
        inv = np.where(near, 1.0 / np.where(near, det, 1.0), 0.0)
        svec = o - v0[None, :, :]
        u = np.einsum("stk,stk->st", svec, h) * inv
        q = np.cross(svec, e1[None, :, :])
        v = np.einsum("stk,stk->st", dd, q) * inv
        t = np.einsum("tk,stk->st", e2, q) * inv
        tol = INTERSECT_TOL / seg_len[idx]
        hits = (near & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1 + 1e-12)
                & (t > tol[:, None]) & (t < 1.0 - tol[:, None]))
        blocked[idx] = hits.any(axis=1)
    return blocked


def occlusion_test(scene: Scene, start, end) -> bool:
    """True iff some surface blocks the open segment."""
    return bool(occlusion_test_batch(scene, [start], [end])[0])


@dataclass
class Trajectory:
    """Time-ordered antenna positions and velocities, uniformly sampled."""

    t: np.ndarray          # (N,) seconds, strictly increasing, uniform
    position: np.ndarray   # (N, 3) meters (antenna reference point)
    velocity: np.ndarray   # (N, 3) m/s
    antenna_height: float = 1.73

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.t.ndim != 1 or len(self.t) < 1:
            raise ValueError("trajectory needs at least one sample")
        if self.position.shape != (len(self.t), 3) or self.velocity.shape != (len(self.t), 3):
            raise ValueError("position/velocity must be (N, 3)")
        if not (np.isfinite(self.t).all() and np.isfinite(self.position).all()
                and np.isfinite(self.velocity).all()):
            raise ValueError("trajectory times, positions and velocities must be finite")
        if len(self.t) > 1:
            dt = np.diff(self.t)
            if np.any(dt <= 0):
                raise ValueError("trajectory times must be strictly increasing")
            if dt.max() - dt.min() > 1e-9:
                raise ValueError("trajectory sampling must be uniform within 1e-9 s")
        if self.antenna_height <= 0:
            raise ValueError("antenna_height must be > 0")

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Linearly interpolated (position, velocity) at time t (no extrapolation)."""
        if t < self.t[0] - 1e-12 or t > self.t[-1] + 1e-12:
            raise ValueError(f"time {t} outside trajectory span [{self.t[0]}, {self.t[-1]}]")
        if len(self.t) == 1:
            return self.position[0].copy(), self.velocity[0].copy()
        i = min(int(np.searchsorted(self.t, t, side="right")) - 1, len(self.t) - 2)
        i = max(i, 0)
        u = (t - self.t[i]) / (self.t[i + 1] - self.t[i])
        u = min(max(u, 0.0), 1.0)
        pos = (1 - u) * self.position[i] + u * self.position[i + 1]
        vel = (1 - u) * self.velocity[i] + u * self.velocity[i + 1]
        return pos, vel

    def heading(self, t: float) -> float:
        """Vehicle yaw in radians (atan2 of horizontal velocity); 0 when parked."""
        _, vel = self.at(t)
        if np.hypot(vel[0], vel[1]) < 1e-12:
            return 0.0
        return math.atan2(vel[1], vel[0])


def straight_trajectory(start, heading_deg: float, speed: float, duration: float,
                        dt: float, antenna_height: float = 1.73) -> Trajectory:
    """Constant-velocity straight drive starting at ``start`` (x, y, z)."""
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    h = math.radians(heading_deg)
    vel = np.tile([speed * math.cos(h), speed * math.sin(h), 0.0], (n, 1))
    pos = np.asarray(start, dtype=float) + vel * t[:, None]
    return Trajectory(t, pos, vel, antenna_height=antenna_height)


def _read_text(path) -> str:
    """The whole file as UTF-8 text; other bytes raise SceneFormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SceneFormatError(f"{path}: not UTF-8 text: {e}") from e


def load_trajectory(path, antenna_height: float | None = None) -> Trajectory:
    """Read a trajectory CSV with header ``t,x,y,z,vx,vy,vz`` (SI units).

    A malformed file, or samples that :class:`Trajectory` rejects, raise
    SceneFormatError.
    """
    rows = []
    reader = csv.reader(io.StringIO(_read_text(path)))
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["t", "x", "y", "z", "vx", "vy", "vz"]:
        raise SceneFormatError(f"{path}: expected header t,x,y,z,vx,vy,vz")
    for ln, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 7:
            raise SceneFormatError(f"{path}:{ln}: rows must have 7 columns")
        try:
            rows.append([float(c) for c in row])
        except ValueError as e:
            raise SceneFormatError(f"{path}:{ln}: {e}") from e
    if not rows:
        raise SceneFormatError(f"{path}: no samples")
    arr = np.asarray(rows)
    h = antenna_height if antenna_height is not None else float(arr[0, 3])
    try:
        return Trajectory(arr[:, 0], arr[:, 1:4], arr[:, 4:7], antenna_height=h)
    except ValueError as e:
        raise SceneFormatError(f"{path}: {e}") from e


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "x", "y", "z", "vx", "vy", "vz"])
        for i in range(len(traj.t)):
            w.writerow([repr(float(traj.t[i]))]
                       + [repr(float(x)) for x in traj.position[i]]
                       + [repr(float(x)) for x in traj.velocity[i]])


def latlon_to_enu(lat_deg, lon_deg, origin_lat_deg, origin_lon_deg):
    """Equirectangular projection of lat/lon (degrees) to local x/y meters."""
    x = EARTH_RADIUS * math.cos(math.radians(origin_lat_deg)) * math.radians(lon_deg - origin_lon_deg)
    y = EARTH_RADIUS * math.radians(lat_deg - origin_lat_deg)
    return x, y


def _material_from_dict(d: dict, where: str) -> Material:
    try:
        return Material(
            name=_json(d["name"], str, f"{where}: name"),
            relative_permittivity=float(d.get("relative_permittivity", 1.0)),
            conductivity=float(d.get("conductivity", 0.0)),
            is_pec=_json(d.get("is_pec", False), bool, f"{where}: is_pec"),
            scattering_coefficient=float(d.get("scattering_coefficient", 0.0)),
        )
    except KeyError as e:
        raise SceneFormatError(f"{where}: material missing field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise SceneFormatError(f"{where}: {e}") from e


def _floats(value, where: str, scalar: bool = False):
    """A float (``scalar``) or float array from JSON data; SceneFormatError if
    the data is not numeric or too large for a float."""
    try:
        return float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise SceneFormatError(f"{where}: {e}") from e


def _json(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind`` (dict, list, str or bool),
    else SceneFormatError."""
    if not isinstance(value, kind):
        raise SceneFormatError(f"{where}: expected a JSON {kind.__name__}, "
                               f"not {type(value).__name__}")
    return value


def load_scene(path) -> Scene:
    """Load and validate a scene file.

    Schema (JSON)::

        {
          "origin":     {"latitude": ..., "longitude": ...},      # optional
          "materials":  [{"name", "relative_permittivity",
                          "conductivity", "scattering_coefficient",
                          "is_pec"}, ...],                        # optional
          "footprints": [{"tag", "polygon": [[x, y], ...],
                          "height", "material"}, ...],            # optional
          "obstacles":  [{"tag", "material",
                          "surfaces": [[[x, y, z], ...], ...]}],  # optional
          "ground":     {"extent": [xmin, ymin, xmax, ymax],      # required
                         "material": ...}
                        or {"vertices": [[x, y, z], ...], "material": ...}
        }

    Material names resolve against the file's ``materials`` list first, then
    the built-in defaults.  Unknown names raise MaterialReferenceError;
    degenerate polygons raise GeometryError naming the surface; malformed
    files raise SceneFormatError with line/field information.
    """
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{path}: top level must be an object")

    materials = dict(DEFAULT_MATERIALS)
    for i, m in enumerate(_json(doc.get("materials", []), list, f"{path}: materials")):
        mat = _material_from_dict(m, f"{path}: materials[{i}]")
        materials[mat.name] = mat

    def resolve(name, where):
        if not isinstance(name, str) or name not in materials:
            raise MaterialReferenceError(f"{where}: unknown material {name!r}")
        return materials[name]

    surfaces: list[Surface] = []
    for i, fp in enumerate(_json(doc.get("footprints", []), list, f"{path}: footprints")):
        where = f"{path}: footprints[{i}]"
        _json(fp, dict, where)
        try:
            poly = _floats(fp["polygon"], f"{where}: polygon")
            height = _floats(fp["height"], f"{where}: height", scalar=True)
            mat = resolve(fp["material"], where)
        except KeyError as e:
            raise SceneFormatError(f"{where}: missing field {e}") from e
        tag = _json(fp.get("tag", f"footprint{i}"), str, f"{where}: tag")
        surfaces.extend(extrude_footprint(poly, height, mat, tag=tag))
    for i, ob in enumerate(_json(doc.get("obstacles", []), list, f"{path}: obstacles")):
        where = f"{path}: obstacles[{i}]"
        _json(ob, dict, where)
        try:
            mat = resolve(ob["material"], where)
            polys = _json(ob["surfaces"], list, f"{where}: surfaces")
        except KeyError as e:
            raise SceneFormatError(f"{where}: missing field {e}") from e
        tag = _json(ob.get("tag", f"obstacle{i}"), str, f"{where}: tag")
        for j, poly in enumerate(polys):
            sub_tag = tag if len(polys) == 1 else f"{tag}:{j}"
            surfaces.append(Surface(_floats(poly, f"{where}: surfaces[{j}]"), mat, tag=sub_tag))

    if "ground" not in doc:
        raise SceneFormatError(f"{path}: missing required field 'ground'")
    g = _json(doc["ground"], dict, f"{path}: ground")
    gmat = resolve(g.get("material", "asphalt"), f"{path}: ground")
    if "vertices" in g:
        ground = Surface(_floats(g["vertices"], f"{path}: ground"), gmat, tag="ground")
    elif "extent" in g:
        extent = _floats(g["extent"], f"{path}: ground")
        if extent.shape != (4,):
            raise SceneFormatError(f"{path}: ground extent must be [xmin, ymin, xmax, ymax]")
        x0, y0, x1, y1 = extent
        ground = Surface([(x0, y0, 0), (x1, y0, 0), (x1, y1, 0), (x0, y1, 0)], gmat, tag="ground")
    else:
        raise SceneFormatError(f"{path}: ground needs 'extent' or 'vertices'")
    ground_id = len(surfaces)
    surfaces.append(ground)
    return Scene(surfaces, ground=ground_id)


def save_scene(scene: Scene, path) -> None:
    """Write a scene as explicit surfaces; load_scene(save_scene(s)) == s."""
    materials = {}
    for s in scene.surfaces:
        materials[s.material.name] = s.material
    obstacles = []
    ground_doc = None
    for sid, s in enumerate(scene.surfaces):
        entry = {
            "tag": s.tag,
            "material": s.material.name,
            "surfaces": [[list(map(float, v)) for v in s.vertices]],
        }
        if sid == scene.ground:
            ground_doc = {"vertices": entry["surfaces"][0], "material": s.material.name}
        else:
            obstacles.append(entry)
    doc = {
        "materials": [
            {
                "name": m.name,
                "relative_permittivity": m.relative_permittivity,
                "conductivity": m.conductivity,
                "is_pec": m.is_pec,
                "scattering_coefficient": m.scattering_coefficient,
            }
            for m in materials.values()
        ],
        "obstacles": obstacles,
    }
    if ground_doc is not None:
        doc["ground"] = ground_doc
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
