"""3D environment representation: materials, planar surfaces, scenes, trajectories.

Coordinates are local Cartesian ENU in meters with z up.  A scene is a flat
list of planar polygonal surfaces (building walls, roofs, ground, obstacle
panels), each carrying an electromagnetic material.  Scenes are immutable
after construction and safe for concurrent reads.

Tolerances: vertices must be coplanar within ``PLANARITY_TOL`` (1e-6 m);
segment/surface intersections closer than ``INTERSECT_TOL`` (1e-9 m) to a
segment endpoint do not count as obstructions.  Both sit far below the
4.17 ns (about 1.25 m) delay resolution of the 240 MHz channel.

Occlusion
---------
:func:`occlusion_test_batch` is the exact test: Moller-Trumbore (1997)
against every scene triangle, a hit needing ``|det| > 1e-14``,
``u, v >= -1e-12``, ``u + v <= 1 + 1e-12`` and the crossing strictly
inside the segment, ``INTERSECT_TOL`` from either end.

:func:`occlusion_test_fan` decides segments that share one endpoint, the
apex ``o`` (the diffuse stage's TX -> tile and tile -> RX segments), with
per-fan constants: for each triangle the three edge-plane normals
``(v_i - o) x (v_j - o)``, the plane normal ``N`` and the offset
``N . (v_0 - o)``.  For a segment ``w = point - o`` their dot products with
``w`` are D u, D v, D (1 - u - v) and D with ``D = w . N``, and the plane
crossing is at offset / D, so a (segment, triangle) pair costs one
matrix-product column and a few comparisons instead of two cross products.
Every Moller-Trumbore threshold is compared in that scaled form, behind a
guard band that bounds the rounding of both formulations; a pair inside a
band, or a triangle whose plane passes within a few nanometres of the
apex, stays undecided.  A segment is blocked when some pair is a clear
hit, clear when every pair is a clear miss, and otherwise goes back
through :func:`occlusion_test_batch`, so the result equals the exact test
element for element.  LOS and specular sub-segments share no endpoint and
use the exact test directly.

:func:`occlusion_test_blocks` decides whole blocks of tiles for the fan at
once: the fan's values are affine in the far endpoint, so their extremes
over a block's rectangle are at its four corners, and a block is hidden
(one triangle a guarded hit at every corner) or clear (every triangle a
guarded miss at every corner) or left to the per-tile test.

Point in polygon
----------------
A scene builds one read-only edge table on construction: every surface's
polygon edges in its own 2D frame, padded to the largest vertex count with
NaN edges that decide nothing.  :meth:`Scene.contains` decides any mix of (point, surface id)
pairs in one crossing-number pass over that table; the image method's
back-substitution and the tile grid use it, and :meth:`Surface.contains`
is its one-surface case.

Construction
------------
Surfaces are built in one batched numpy pass: :func:`load_scene` builds
every surface of a file at once, after the whole file has been read and
checked, :func:`extrude_footprint` builds a building's walls and roof at
once, and ``Surface(...)`` is the one-polygon case.  The pass groups the
polygons by vertex count, without padding, and gives each polygon the bits
that one-polygon arithmetic gives it: each Newell component is summed along
the polygon's own contiguous vertex axis, and every dot product and norm is
a stacked ``(1, 3) @ (3, 1)`` matrix product, the BLAS dot that ``@`` and
``np.linalg.norm`` use on two 3-vectors (``einsum``, ``.sum(axis=1)`` and
``norm(axis=1)`` round some rows differently).  Each polygon then needs, in
this order, three or more vertices of dimension 3, finite vertices, a
finite non-zero area, its vertices within ``PLANARITY_TOL`` of its plane,
distinct first two vertices (the first edge sets the in-plane frame) and a
triangulation by ear clipping; the first polygon, in order, that fails
raises GeometryError.
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
BOUNDING_MARGIN = 1.0      # m around the vertices in Scene.bounding_box
TILE_BLOCK = 4             # grid cells along each side of a Scene.tile_blocks block
MAX_TILE_CELLS = 10 ** 7   # grid cells Scene.tiles lays at most (about 0.6 GB of candidates)


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of 3-vectors along the last axis, broadcast as
    ``np.cross`` is and bit-identical to it: each component is the same two
    products and one difference, without its per-call axis handling."""
    return np.stack((a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]), axis=-1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, rounded as ``a[i] @ b[i]`` is.

    The BLAS dot of two 3-vectors: ``einsum`` and a matrix-vector product
    sum in another order, which would move a surface frame or a reflection
    point by an ulp against the per-surface and per-sequence solutions.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ear_clip(poly2d) -> list[tuple[int, int, int]]:
    """Triangulate a simple 2D polygon (CCW) by ear clipping.

    ``poly2d`` holds the (x, y) points as an (n, 2) array or as a list of
    pairs of floats, which index faster and give the same comparisons.
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
        _build_surfaces([(vertices, material, tag)], into=[self])

    def contains(self, points: np.ndarray, *, strict: bool = True) -> np.ndarray:
        """Point-in-polygon test of world points (N, 3) against this surface:
        the one-surface case of :meth:`Scene.contains`, whose rules apply."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _contains(_edge_table([self]), np.zeros(len(pts), dtype=int), pts, strict)

    def triangles(self) -> np.ndarray:
        """Triangulation as an array of shape (n_tri, 3, 3)."""
        return self.vertices[np.array(self._tri_idx)]

    def __repr__(self):
        return (f"Surface(tag={self.tag!r}, material={self.material.name!r}, "
                f"n_vertices={len(self.vertices)}, area={self.area:.3g})")


#: What a fault code of :func:`_build_surfaces` reports after the surface's tag.
_FAULTS = ("", "need >= 3 vertices of dimension 3", "vertices must be finite",
           "zero or overflowing polygon area", "vertices deviate from plane by {:.2e} m",
           "first two vertices coincide")


def _build_surfaces(specs, into=None) -> list[Surface]:
    """The :class:`Surface` of each (vertices, material, tag) in ``specs``,
    built in one batched pass (module docstring, "Construction"); ``into``
    holds the surfaces to fill, new ones by default.  The first faulty
    surface in order raises GeometryError naming it, as building the
    surfaces one at a time would."""
    verts = [np.asarray(p, dtype=float) for p, _, _ in specs]
    out = [Surface.__new__(Surface) for _ in verts] if into is None else into
    faults = [(1, 0.0)] * len(verts)        # (fault code, plane deviation) of each surface
    groups: dict[int, list[int]] = {}       # surface indices by vertex count
    for i, v in enumerate(verts):
        if v.ndim == 2 and v.shape[1] == 3 and len(v) >= 3:
            groups.setdefault(len(v), []).append(i)

    for idx in groups.values():
        v = np.stack([verts[i] for i in idx])
        nxt = np.concatenate((v[:, 1:], v[:, :1]), axis=1)
        with np.errstate(all="ignore"):     # a faulty row's NaN and inf stay in that row
            # Newell's normal, each component summed along one polygon's vertices
            n = np.stack([np.sum((v[..., a] - nxt[..., a]) * (v[..., b] + nxt[..., b]), axis=1)
                          for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)
            area2 = np.sqrt(_rowdot(n, n))
            normal = n / area2[:, None]
            offset = _rowdot(normal, v[:, 0])
            dev = np.abs((v @ normal[:, :, None])[..., 0] - offset[:, None]).max(axis=1)
            # in-plane orthonormal frame for 2D point-in-polygon tests
            e_u = v[:, 1] - v[:, 0]
            e_u = e_u - _rowdot(e_u, normal)[:, None] * normal
            length = np.sqrt(_rowdot(e_u, e_u))
            e_u /= length[:, None]
            e_v = _cross(normal, e_u)
            rel = v - v[:, :1]
            poly = np.stack(((rel @ e_u[:, :, None])[..., 0], (rel @ e_v[:, :, None])[..., 0]),
                            axis=2)
        fault = np.stack((~np.isfinite(v).all(axis=(1, 2)), ~((area2 > 0) & (area2 < np.inf)),
                          dev > PLANARITY_TOL, ~(length > 0)))
        code = np.where(fault.any(axis=0), fault.argmax(axis=0) + 2, 0)
        for k, i in enumerate(idx):
            faults[i] = (code[k], dev[k])
            vars(out[i]).update(vertices=v[k], material=specs[i][1], tag=specs[i][2],
                                normal=normal[k], plane_offset=float(offset[k]),
                                area=0.5 * area2[k], _frame=(e_u[k], e_v[k]), _poly2d=poly[k])
    for s, (code, dev), (_, _, tag) in zip(out, faults, specs):
        if code:
            raise GeometryError(f"surface {tag!r}: " + _FAULTS[code].format(dev))
        try:
            s._tri_idx = _ear_clip(s._poly2d.tolist())
        except GeometryError as e:
            raise GeometryError(f"surface {tag!r}: {e}") from None
    return out


class Scene:
    """Immutable collection of surfaces plus lookup/intersection machinery.

    Surface ids are list indices.  ``ground`` is the index of the ground
    surface when one exists (required for scenes loaded from files; optional
    for in-memory scenes so that free-space oracle setups are expressible).
    ``normals`` (S, 3), ``offsets`` (S,) and ``scattering`` (S,) hold each
    surface's unit normal, plane offset and Lambertian scattering coefficient
    by id, built once and read-only.
    """

    def __init__(self, surfaces: list[Surface], ground: int | None = None):
        self.surfaces = list(surfaces)
        if ground is not None and not 0 <= ground < len(self.surfaces):
            raise GeometryError("ground index out of range")
        self.ground = ground
        allv = np.vstack([s.vertices for s in self.surfaces] or [np.zeros((1, 3))])
        self.bounding_box = np.vstack((allv.min(axis=0) - BOUNDING_MARGIN,
                                       allv.max(axis=0) + BOUNDING_MARGIN))
        self.normals = np.array([s.normal for s in self.surfaces]).reshape(-1, 3)
        self.offsets = np.array([s.plane_offset for s in self.surfaces], dtype=float)
        self.scattering = np.array([s.material.scattering_coefficient for s in self.surfaces],
                                   dtype=float)
        for a in (self.normals, self.offsets, self.scattering):
            a.flags.writeable = False
        # Flattened triangle soup for vectorized occlusion tests, with the
        # plane normal e1 x e2 and longer edge of each triangle for the fan test.
        tris = [s.triangles() for s in self.surfaces]
        self._tri = np.concatenate(tris) if tris else np.zeros((0, 3, 3))
        e1 = self._tri[:, 1] - self._tri[:, 0]
        e2 = self._tri[:, 2] - self._tri[:, 0]
        self._tri_normal = _cross(e1, e2)
        self._tri_area2 = np.linalg.norm(self._tri_normal, axis=1)
        self._tri_edge = np.maximum(np.linalg.norm(e1, axis=1), np.linalg.norm(e2, axis=1))
        self._tile_cache: dict[float, tuple[tuple[np.ndarray, ...], ...]] = {}
        self._edges = _edge_table(self.surfaces)

    def contains(self, sids, points, *, strict: bool = True) -> np.ndarray:
        """Point-in-polygon test of each point (N, 3) against the surface
        whose id is in ``sids`` (N,), in one batch.

        Each point is projected into its surface's in-plane frame and
        decided by the crossing number (Haines, "Point in Polygon
        Strategies", Graphics Gems IV, 1994) over that polygon's edges.  A
        point within ``INTERSECT_TOL`` of an edge is rejected with
        ``strict`` and accepted with ``strict=False``.
        """
        sids = np.asarray(sids, dtype=int)
        points = np.asarray(points, dtype=float)
        if sids.ndim != 1 or points.shape != (len(sids), 3):
            raise ValueError(f"need surface ids (N,) and points (N, 3), not {sids.shape} "
                             f"and {points.shape}")
        if len(sids) and not 0 <= sids.min() <= sids.max() < len(self.surfaces):
            raise IndexError("surface id out of range")
        return _contains(self._edges, sids, points, strict)

    def tiles(self, tile_size: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deterministic tessellation of every surface into square tiles, as one table.

        Returns (surface_ids (M,), centers (M, 3), areas (M,), tile_ids (M,)),
        rows grouped by surface in id order and, within a surface, in
        increasing tile id.  Tiles are laid on a grid in each surface's
        in-plane frame; a tile belongs to the surface when its center lies
        inside the polygon.  Tile ids are row-major grid indices, stable
        across calls, which path interpolation relies on when matching
        diffuse paths between snapshots.  The table is built once per tile
        size, with its :meth:`tile_blocks`, and shared read-only between
        callers.  A tile size that :meth:`tile_cells` refuses raises
        ValueError before anything is allocated.
        """
        return self._tile_tables(tile_size)[0]

    def tile_cells(self, tile_size: float) -> int:
        """The number of grid cells :meth:`tiles` lays at ``tile_size``,
        counted from each polygon's in-plane extent without building or
        caching any table.  A tile size that is not finite and > 0, or that
        lays more than ``MAX_TILE_CELLS`` cells, raises ValueError."""
        key = float(tile_size)
        if not (math.isfinite(key) and key > 0):
            raise ValueError(f"tile_size must be finite and > 0, not {tile_size!r}")
        cells = sum((math.prod(_grid_shape(s, key).tolist()) for s in self.surfaces), 0.0)
        if cells > MAX_TILE_CELLS:
            raise ValueError(f"tile_size {tile_size!r} lays {cells:.3g} grid cells on the "
                             f"scene, more than {MAX_TILE_CELLS}")
        return int(cells)

    def tile_blocks(self, tile_size: float) -> tuple[np.ndarray, ...]:
        """The rows of :meth:`tiles` grouped into blocks of neighbouring tiles,
        so that one bound can speak for a block's tiles.

        A block holds the tiles of up to ``TILE_BLOCK`` x ``TILE_BLOCK``
        neighbouring cells of one surface's grid.  Returns (block (M,),
        center (B, 3), radius (B,), area (B,), surface (B,), corners
        (B, 4, 3), count (B,)): each row's block id, and for each block the
        center of the rectangle its cells' centers span, half that
        rectangle's diagonal, which no tile center is farther from the block
        center, the largest tile area, its surface's id, the rectangle's
        four corners and the number of rows it holds.  The corners are the
        centers of the block's corner cells, computed as the tile centers
        are, so every tile center of the block is a convex combination of
        them up to the rounding of the centers.  A block whose cells all lie
        outside the polygon has no rows.
        """
        return self._tile_tables(tile_size)[1]

    def _tile_tables(self, tile_size: float) -> tuple[tuple[np.ndarray, ...], ...]:
        """The (tiles, tile blocks) tables of one tile size, built on first use."""
        key = float(tile_size)
        hit = self._tile_cache.get(key)
        if hit is not None:
            return hit
        self.tile_cells(key)
        # every surface's grid cells as candidates, with their blocks, decided
        # in one batch; empty first parts give a scene without surfaces typed,
        # empty columns
        parts = [((np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0),
                   np.zeros(0, dtype=int), np.zeros(0, dtype=int)),
                  (np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=int),
                   np.zeros((0, 4, 3))))]
        first_block = 0
        for sid, s in enumerate(self.surfaces):
            parts.append(_surface_cells(s, sid, tile_size, first_block))
            first_block += len(parts[-1][1][1])
        blocks = [np.concatenate(col) for col in zip(*(b for _, b in parts))]
        sids, centers, areas, ids, block = (np.concatenate(col)
                                            for col in zip(*(c for c, _ in parts)))
        del parts       # the candidates are held once while they are decided
        keep = self.contains(sids, centers, strict=False)
        block = block[keep]
        cols = _packed([c[keep] for c in (sids, centers, areas, ids)] + [block] + blocks
                       + [np.bincount(block, minlength=first_block)])
        self._tile_cache[key] = tables = (tuple(cols[:4]), tuple(cols[4:]))
        return tables


def _packed(arrays) -> list[np.ndarray]:
    """Read-only copies of ``arrays`` (of 8-byte items) as views of one
    allocation.  Tables that live as long as their scene then take one
    block of memory instead of one per column, which keeps them out of the
    heap that tracing's short-lived arrays reuse: peak RSS is lower."""
    buf = np.empty(sum(a.nbytes for a in arrays), dtype=np.uint8)
    views, pos = [], 0
    for a in arrays:
        view = buf[pos:pos + a.nbytes].view(a.dtype).reshape(a.shape)
        view[...] = a
        view.flags.writeable = False
        views.append(view)
        pos += a.nbytes
    return views


def _surface_cells(s: Surface, sid: int, tile_size: float, first_block: int):
    """One surface's grid cells and blocks for :meth:`Scene.tile_blocks`.

    Returns the cells' (surface ids, centers, areas, tile ids, block ids)
    and the blocks' (centers, radii, areas, surface ids, corners); block
    ids start at ``first_block``.
    """
    poly = s._poly2d
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    nu, nv = (int(n) for n in _grid_shape(s, tile_size))
    u = lo[0] + (np.arange(nu) + 0.5) * (hi[0] - lo[0]) / nu
    v = lo[1] + (np.arange(nv) + 0.5) * (hi[1] - lo[1]) / nv
    e_u, e_v = s._frame

    def points(uu, vv):
        return s.vertices[0] + np.outer(uu.ravel(), e_u) + np.outer(vv.ravel(), e_v)

    def spans(c):       # the first and last cell centers of each block along one axis
        first = np.arange(0, len(c), TILE_BLOCK)
        return c[first], c[np.minimum(first + TILE_BLOCK, len(c)) - 1]

    cell_area = ((hi[0] - lo[0]) / nu) * ((hi[1] - lo[1]) / nv)
    # a block's tile centers lie in the rectangle spanned by the centers of
    # its first and last cells along u and along v
    (u0, u1), (v0, v1) = spans(u), spans(v)
    block = (np.arange(nu)[:, None] // TILE_BLOCK * len(v0)
             + np.arange(nv) // TILE_BLOCK).ravel() + first_block
    radius = np.hypot(*np.meshgrid((u1 - u0) / 2, (v1 - v0) / 2, indexing="ij")).ravel()
    cells = (np.full(nu * nv, sid), points(*np.meshgrid(u, v, indexing="ij")),
             np.full(nu * nv, cell_area), np.arange(nu * nv), block)
    corners = np.stack([points(*np.meshgrid(uu, vv, indexing="ij"))
                        for uu, vv in ((u0, v0), (u1, v0), (u0, v1), (u1, v1))], axis=1)
    blocks = (points(*np.meshgrid((u0 + u1) / 2, (v0 + v1) / 2, indexing="ij")), radius,
              np.full(len(radius), cell_area), np.full(len(radius), sid), corners)
    return cells, blocks


def _grid_shape(s: Surface, tile_size: float) -> np.ndarray:
    """The (nu, nv) grid cells of ``s`` at ``tile_size``, as floats that may
    be inf: its in-plane extent over the tile size, rounded up, at least 1."""
    poly = s._poly2d
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.ceil((poly.max(axis=0) - poly.min(axis=0)) / tile_size))


def extrude_footprint(footprint, height: float, material: Material,
                      tag: str = "building") -> list[Surface]:
    """Extrude a simple 2D polygon into wall surfaces plus a roof.

    One wall per footprint edge, normals pointing outward from the footprint
    interior, plus a roof facing up.  Consecutive walls share their common
    vertical edge exactly.
    """
    return _build_surfaces([(p, material, t) for p, t in _extrusion(footprint, height, tag)])


def _extrusion(footprint, height: float, tag: str) -> list[tuple[np.ndarray, str]]:
    """The (polygon, tag) of each wall and the roof of :func:`extrude_footprint`."""
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
    roof, base = (np.column_stack((fp, np.full(n, z))) for z in (height, 0.0))
    # wall i runs from corner i to corner i + 1 at the ground and back at the roof
    walls = np.stack((base, np.roll(base, -1, axis=0), np.roll(roof, -1, axis=0), roof), axis=1)
    return list(zip([*walls, roof], [f"{tag}:wall{i}" for i in range(n)] + [f"{tag}:roof"]))


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


#: (segment, triangle) pairs per block in both occlusion kernels, which bounds
#: their temporaries at a few MB whatever the batch size; the point-in-polygon
#: kernel sizes its blocks from it.
_PAIR_CHUNK = 1 << 16


def _edge_table(surfaces) -> tuple[np.ndarray, ...]:
    """The point-in-polygon table of ``surfaces``, read by :func:`_contains`.

    Returns each surface's origin ``vertices[0]`` (S, 3), its in-plane frame
    ``(e_u, e_v)`` (S, 2, 3) and its polygon edges in that frame (7, S, V),
    V being the largest vertex count: rows x1, y1, y2, ex = x2 - x1,
    ey = y2 - y1, ex**2 + ey**2 and ey with 0 replaced by inf.  A surface
    with fewer vertices is padded with NaN edges, which fail every
    comparison and so neither cross nor touch any point.
    """
    counts = np.array([len(s.vertices) for s in surfaces], dtype=int)
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    poly = np.full(valid.shape + (2,), np.nan)
    if len(surfaces):
        poly[valid] = np.concatenate([s._poly2d for s in surfaces])
    nxt = poly[np.arange(len(surfaces))[:, None], (np.arange(valid.shape[1]) + 1) % counts[:, None]]
    (x1, y1), (x2, y2) = poly.transpose(2, 0, 1), nxt.transpose(2, 0, 1)
    ex, ey = x2 - x1, y2 - y1
    edges = np.stack((x1, y1, y2, ex, ey, ex * ex + ey * ey, np.where(ey == 0, np.inf, ey)))
    origin = np.array([s.vertices[0] for s in surfaces]).reshape(-1, 3)
    frame = np.array([s._frame for s in surfaces]).reshape(-1, 2, 3)
    for a in (origin, frame, edges):
        a.flags.writeable = False
    return origin, frame, edges


def _contains(table, sids: np.ndarray, points: np.ndarray, strict: bool) -> np.ndarray:
    """Crossing-number test of each point (N, 3) against polygon ``sids`` (N,)
    of an :func:`_edge_table`; see :meth:`Scene.contains`.

    Points go in blocks of a bounded number of (point, edge) pairs.  Each
    point is projected as three-term row sums, then tested against every
    edge of its polygon as the one-edge scalar test does: a squared
    distance to the finite edge below ``INTERSECT_TOL**2`` puts it on the
    boundary, and the half-open rule ``(y1 > y) != (y2 > y)`` with the point
    left of the crossing counts a crossing.
    """
    origin, frame, edges = table
    inside = np.zeros(len(points), dtype=bool)
    # a (point, edge) pair holds about 17 float temporaries, four times a
    # fan-test pair, so a block has a quarter of _PAIR_CHUNK pairs
    step = max(1, _PAIR_CHUNK // (4 * max(1, edges.shape[2])))
    for lo in range(0, len(points), step):
        sid = sids[lo:lo + step]
        rel, f = points[lo:lo + step] - origin[sid], frame[sid]
        px = (rel[:, 0] * f[:, 0, 0] + rel[:, 1] * f[:, 0, 1] + rel[:, 2] * f[:, 0, 2])[:, None]
        py = (rel[:, 0] * f[:, 1, 0] + rel[:, 1] * f[:, 1, 1] + rel[:, 2] * f[:, 1, 2])[:, None]
        x1, y1, y2, ex, ey, el2, ey_div = edges[:, sid]
        tseg = np.clip(((px - x1) * ex + (py - y1) * ey) / el2, 0.0, 1.0)
        dx, dy = px - (x1 + tseg * ex), py - (y1 + tseg * ey)
        on_edge = (dx * dx + dy * dy < INTERSECT_TOL * INTERSECT_TOL).any(axis=1)
        crosses = ((y1 > py) != (y2 > py)) & (px < x1 + (py - y1) * ex / ey_div)
        odd = np.count_nonzero(crosses, axis=1) % 2 == 1
        inside[lo:lo + step] = odd & ~on_edge if strict else odd | on_edge
    return inside


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
    chunk = max(1, _PAIR_CHUNK // len(tri))
    for a in range(0, n_seg, chunk):
        b = min(a + chunk, n_seg)
        idx = np.flatnonzero(ok[a:b]) + a
        if len(idx) == 0:
            continue
        o = starts[idx][:, None, :]           # (S, 1, 3)
        dd = d[idx][:, None, :]               # (S, 1, 3)
        h = _cross(dd, e2[None, :, :])        # (S, T, 3)
        det = np.einsum("tk,stk->st", e1, h)
        near = np.abs(det) > 1e-14
        inv = np.where(near, 1.0 / np.where(near, det, 1.0), 0.0)
        svec = o - v0[None, :, :]
        u = np.einsum("stk,stk->st", svec, h) * inv
        q = _cross(svec, e1[None, :, :])
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


# Guard bands of the fan test.  With W = |w| (largest over the call), L the
# largest distance from the apex to a vertex of the triangle, h its longer
# edge from v0 and S = |start - v0| in the Moller-Trumbore form (S <= L from
# the apex, S <= W + L toward it), every quantity either test compares is a
# triple product, which float64 evaluates to within 7u 3**1.5 < 37u times the
# product of its three vector lengths (u = 2**-53, the unit roundoff).  Scaled
# by D, where the thresholds become multiples of D:
#   - barycentric numerators: fan W L**2, Moller-Trumbore W S h (twice for
#     u + v) and its determinant W h**2, plus about 2u per term for the
#     divisions and sums;
#   - plane crossing: fan L h**2 (offset), Moller-Trumbore S h**2, both
#     determinants W h**2, and toward the apex u W h**2 more, because the
#     segment start is then not exactly apex + w.
# The sums stay below 128u W (L**2 + S h + h**2) and 128u ((L + S) h**2 + W h**2),
# the bands below.  A plane within 3 bands plus 2e-9 |N| of the apex leaves
# its pairs undecided, which keeps D's sign known wherever a test decides.
_FAN_GUARD = 128 * 2.0 ** -53


def occlusion_test_fan(scene: Scene, starts, ends, planes=None) -> np.ndarray:
    """:func:`occlusion_test_batch` for segments that share one endpoint.

    One of ``starts`` and ``ends`` is a single point (3,), the apex, and the
    other holds the segments' other endpoints (N, 3).  The result equals
    ``occlusion_test_batch`` on those segments element for element; the
    module docstring says how.  ``planes`` may hold the apex's
    :func:`_fan_planes`, for a caller that tests several batches from one
    apex.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    toward_apex = starts.ndim == 2
    apex, points = (ends, starts) if toward_apex else (starts, np.atleast_2d(ends))
    if apex.shape != (3,):
        raise ValueError("one of starts and ends must be a single point")
    blocked = np.zeros(len(points), dtype=bool)
    n_tri = len(scene._tri)
    if n_tri == 0 or len(points) == 0:
        return blocked
    w = points - apex
    length = np.linalg.norm(w, axis=1)
    ok = length > 0                 # as in occlusion_test_batch: empty or NaN segments are clear
    tol = INTERSECT_TOL / np.where(ok, length, 1.0)
    cols, offset, reach = _fan_planes(scene, apex) if planes is None else planes
    bary_hit, bary_miss, t_hit, t_miss = _fan_bands(scene, offset, reach,
                                                    length[ok].max(initial=0.0), toward_apex)
    unsure = np.zeros(len(points), dtype=bool)
    step = max(1, _PAIR_CHUNK // n_tri)
    for lo in range(0, len(points), step):
        hi = min(lo + step, len(points))
        m = w[lo:hi] @ cols                     # D times (u, v, 1 - u - v, 1)
        z_bary = np.minimum(np.minimum(m[:, :n_tri], m[:, n_tri:2 * n_tri]),
                            m[:, 2 * n_tri:3 * n_tri])
        z_t = (1.0 - tol[lo:hi])[:, None] * m[:, 3 * n_tri:] - offset
        hit = (z_bary > bary_hit) & (z_t > t_hit)
        miss = (z_bary < bary_miss) | (z_t < t_miss)
        blocked[lo:hi] = hit.any(axis=1) & ok[lo:hi]
        unsure[lo:hi] = ~blocked[lo:hi] & ~miss.all(axis=1) & ok[lo:hi]
    idx = np.flatnonzero(unsure)
    if len(idx):
        apexes = np.broadcast_to(apex, (len(idx), 3))
        blocked[idx] = (occlusion_test_batch(scene, points[idx], apexes) if toward_apex
                        else occlusion_test_batch(scene, apexes, points[idx]))
    return blocked


def _fan_planes(scene: Scene, apex: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-apex triangle constants of :func:`occlusion_test_fan`: the
    (3, 4T) columns whose products with ``w = point - apex`` are D u, D v,
    D (1 - u - v) and D, each triangle turned to face the apex, the offsets
    N . (v0 - apex) (T,) and the largest distances from the apex to each
    triangle's vertices (T,)."""
    # edge-plane normals through the apex, plane normal N and offset N.(v0 - apex)
    a = scene._tri - apex
    normal = scene._tri_normal
    offset = np.einsum("tk,tk->t", a[:, 0], normal)
    cols = np.concatenate((_cross(a[:, 2], a[:, 0]), _cross(a[:, 0], a[:, 1]),
                           _cross(a[:, 1], a[:, 2]), normal))
    cols = (cols * np.tile(np.where(offset < 0, -1.0, 1.0), 4)[:, None]).T    # (3, 4T)
    return cols, np.abs(offset), np.linalg.norm(a, axis=2).max(axis=1)


def _fan_bands(scene: Scene, offset: np.ndarray, reach: np.ndarray, wmax: float,
               toward_apex: bool) -> tuple[np.ndarray, ...]:
    """The guarded thresholds (bary_hit, bary_miss, t_hit, t_miss) (T,) of a
    hit and a miss in :func:`occlusion_test_fan` for segments no longer
    than ``wmax``; infinite for a triangle whose plane passes too close to
    the apex to decide."""
    edge, area2 = scene._tri_edge, scene._tri_area2
    band_t = _FAN_GUARD * edge ** 2 * ((2.0 if toward_apex else 1.0) * wmax + 2.0 * reach)
    band_bary = _FAN_GUARD * wmax * (reach ** 2 + reach * edge + edge ** 2
                                     + (wmax * edge if toward_apex else 0.0))
    regular = offset > 3.0 * band_t + 2e-9 * area2 + 3e-14
    return (np.where(regular, band_bary, np.inf),
            np.where(regular, -(band_bary + 2e-12 * wmax * area2), -np.inf),
            np.where(regular, band_t, np.inf),
            np.where(regular, -band_t, -np.inf))


def occlusion_test_blocks(scene: Scene, apex, corners, near, far, toward_apex: bool = False,
                          planes=None) -> tuple[np.ndarray, np.ndarray]:
    """Decide whole blocks of fan segments at once, from their corners.

    Block b holds segments between ``apex`` (3,) and points that are convex
    combinations of its ``corners[b]`` (4, 3) up to the rounding of
    :meth:`Scene.tiles` centers, at distances from the apex in
    [``near[b]``, ``far[b]``]; the segments run toward the apex with
    ``toward_apex``.  ``planes`` may hold the apex's :func:`_fan_planes`.
    Returns (hidden (B,), clear (B,)): :func:`occlusion_test_fan`, and so
    :func:`occlusion_test_batch`, finds every segment of a hidden block
    blocked and every segment of a clear block unblocked.  A block that is
    neither is undecided; so is every block with ``near`` at most 1e-6 m.

    The fan's per-point values ``w @ cols`` are affine in the far endpoint,
    so at any point of the block each lies between its smallest and its
    largest value at the four corners, widened by a guard.  A block is
    hidden when one triangle passes the fan's hit test at that worst case
    (every edge term and the plane term above their bands) and clear when
    every triangle fails it there (one edge term, or the plane term, below
    the miss band).  The plane term is ``(1 - tol) D - offset`` with
    ``tol = INTERSECT_TOL / |w|``, which is not affine; it is bounded with
    ``tol`` at ``near`` or ``far``, whichever gives the larger (for a miss)
    or smaller (for a hit) value.  The bands are the fan's at
    ``W = max(far)``, which holds every |w| of the call.

    Guard, for each column of length |col| (for an edge term, the longest
    of the triangle's three), with u = 2**-53 and X the norm of the largest
    vertex coordinates of the scene (the bounding box), so that every
    vertex, tile center and block corner lies within 4X of the origin and
    the apex within W + 4X:
      - the fan's value at a point and at a corner each round by at most
        4u |w| |col| (the difference ``w`` and a three-term product);
      - a tile center and the same combination of the corners differ by at
        most 45u X, the rounding of ``v0 + u e_u + v e_v`` at both;
      - the plane term's own factor, product and difference, at most
        u |N| (4W + 5X), as |offset| <= |N| (W + 5X).
    That is below 62u (W + X) |col|; the guard is 128u (W + X) |col|.
    """
    apex = np.asarray(apex, dtype=float)
    n_blk, n_tri = len(corners), len(scene._tri)
    if n_tri == 0 or n_blk == 0:
        return np.zeros(n_blk, dtype=bool), np.ones(n_blk, dtype=bool)
    cols, offset, reach = _fan_planes(scene, apex) if planes is None else planes
    bary_hit, bary_miss, t_hit, t_miss = _fan_bands(scene, offset, reach, float(np.max(far)),
                                                    toward_apex)
    # per (block, triangle): the corner extremes of each edge term and of the
    # plane term, and the guard, an edge's taken for the triangle's longest
    extent = float(np.linalg.norm(np.abs(scene.bounding_box).max(axis=0)))
    norm = np.linalg.norm(cols, axis=0).reshape(4, n_tri)
    scale = _FAN_GUARD * (far + extent)[:, None]
    guard_edge, guard_plane = scale * norm[:3].max(axis=0), scale * norm[3]
    m = ((corners.transpose(1, 0, 2) - apex).reshape(-1, 3) @ cols).reshape(4, n_blk, 4, n_tri)
    lo, hi = m.min(axis=0), m.max(axis=0)
    tol_near, tol_far = (INTERSECT_TOL / np.maximum(x, 1e-6)[:, None] for x in (near, far))
    # hidden: one triangle hit at every point; clear: every triangle missed
    plane_lo, plane_hi = lo[:, 3] - guard_plane, hi[:, 3] + guard_plane
    hit = ((lo[:, :3].min(axis=1) - guard_edge > bary_hit)
           & ((1.0 - tol_near) * plane_lo - offset > t_hit))
    miss = ((hi[:, :3].min(axis=1) + guard_edge < bary_miss)
            | (plane_hi - np.where(plane_hi >= 0.0, tol_far, tol_near) * plane_hi - offset
               < t_miss))
    hidden, clear = hit.any(axis=1), miss.all(axis=1)
    decided = near > 1e-6
    return hidden & decided, clear & decided & ~hidden


def _uniform_times(times, what: str) -> np.ndarray:
    """``times`` as a float array, checked to be a uniform time grid.

    Every time grid (trajectory samples, traced snapshots, synthesis steps)
    passes here: it must be 1-D, non-empty, finite, strictly increasing and
    evenly spaced within 1e-9 s.  Anything else raises ValueError naming
    ``what``.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError(f"{what} need at least one sample in a 1-D array")
    if not np.isfinite(t).all():
        raise ValueError(f"{what} must be finite")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError(f"{what} must be strictly increasing")
    if len(dt) and dt.max() - dt.min() > 1e-9:
        raise ValueError(f"{what} must be uniform within 1e-9 s")
    return t


@dataclass
class Trajectory:
    """Time-ordered antenna positions and velocities, uniformly sampled."""

    t: np.ndarray          # (N,) seconds, strictly increasing, uniform
    position: np.ndarray   # (N, 3) meters (antenna reference point)
    velocity: np.ndarray   # (N, 3) m/s
    antenna_height: float = 1.73

    def __post_init__(self):
        self.t = _uniform_times(self.t, "trajectory times")
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.position.shape != (len(self.t), 3) or self.velocity.shape != (len(self.t), 3):
            raise ValueError("position/velocity must be (N, 3)")
        if not (np.isfinite(self.position).all() and np.isfinite(self.velocity).all()):
            raise ValueError("trajectory positions and velocities must be finite")
        if not (np.isfinite(self.antenna_height) and self.antenna_height > 0):
            raise ValueError(f"antenna_height must be finite and > 0, not {self.antenna_height}")

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Linearly interpolated (position, velocity) at time t (no extrapolation).

        ``t`` is a time, giving two (3,) arrays, or an array of times, giving
        two arrays of its shape plus a last axis of 3, whose rows equal the
        one-time calls'.  A time outside the span, NaN included, raises
        ValueError naming the first such time.
        """
        times = np.asarray(t, dtype=float)
        lo, hi = self.t[0] - 1e-12, self.t[-1] + 1e-12
        if times.ndim == 0:
            x = float(times)
            bad = [] if lo <= x <= hi else [x]
        else:
            bad = times[~((times >= lo) & (times <= hi))]
        if len(bad):
            raise ValueError(f"time {bad[0]} outside trajectory span [{self.t[0]}, {self.t[-1]}]")
        if len(self.t) == 1:
            return tuple(np.broadcast_to(a[0], times.shape + (3,)).copy()
                         for a in (self.position, self.velocity))
        # each time's segment i and weight u; one time's in Python scalars,
        # which round as the arrays do at a quarter of their fixed cost
        if times.ndim == 0:
            i = min(max(int(np.searchsorted(self.t, x, side="right")) - 1, 0), len(self.t) - 2)
            u = min(max((x - self.t[i]) / (self.t[i + 1] - self.t[i]), 0.0), 1.0)
        else:
            i = np.clip(np.searchsorted(self.t, times, side="right") - 1, 0, len(self.t) - 2)
            u = np.clip((times - self.t[i]) / (self.t[i + 1] - self.t[i]), 0.0, 1.0)[..., None]
        return ((1 - u) * self.position[i] + u * self.position[i + 1],
                (1 - u) * self.velocity[i] + u * self.velocity[i + 1])

    def heading(self, t):
        """Vehicle yaw in radians (atan2 of horizontal velocity); 0 when parked.

        ``t`` is a time, giving a float, or an array of times, giving an
        array of the same shape whose entries equal the one-time calls'.
        The velocities come from one :meth:`at` call.
        """
        times = np.asarray(t, dtype=float)
        vel = self.at(times.reshape(-1))[1]
        moving = (np.hypot(vel[:, 0], vel[:, 1]) >= 1e-12).tolist()
        yaw = [math.atan2(y, x) if m else 0.0 for m, x, y in zip(moving, *vel[:, :2].T.tolist())]
        return yaw[0] if times.ndim == 0 else np.reshape(yaw, times.shape)


def straight_trajectory(start, heading_deg: float, speed: float, duration: float,
                        dt: float, antenna_height: float = 1.73) -> Trajectory:
    """Constant-velocity straight drive starting at ``start`` (x, y, z)."""
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    h = math.radians(heading_deg)
    vel = np.tile([speed * math.cos(h), speed * math.sin(h), 0.0], (n, 1))
    pos = np.asarray(start, dtype=float) + vel * t[:, None]
    return Trajectory(t, pos, vel, antenna_height=antenna_height)


def _read_text(path, error) -> str:
    """The whole file as UTF-8 text; other bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from e


def _read_table(path, error, header=None, floats=False, min_fields=2):
    """The header row and the ``(line, cells)`` rows of a CSV table, or with
    ``floats`` the rows as a float array.

    Every text table is read here and written by :func:`_write_table`.
    The file is UTF-8; rows whose cells are all blank are skipped.  The
    first row is the header, of at least ``min_fields`` fields, equal to
    ``header`` (fields stripped) when one is given; one or more rows
    follow, each as long as the header, and with ``floats`` every cell
    parses as a float.  Anything else raises ``error`` naming the file and,
    for a row, its line.
    """
    reader = csv.reader(io.StringIO(_read_text(path, error)))
    try:
        rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except csv.Error as e:
        raise error(f"{path}:{reader.line_num}: {e}") from e
    names = [c.strip() for c in rows[0][1]] if rows else []
    if len(names) < min_fields or (header is not None and names != list(header)):
        want = ",".join(header) if header else f"with {min_fields} or more fields"
        raise error(f"{path}: expected header {want}")
    if len(rows) < 2:
        raise error(f"{path}: no rows after the header")
    for line, cells in rows[1:]:
        if len(cells) != len(names):
            raise error(f"{path}:{line}: {len(cells)} fields, the header has {len(names)}")
        if floats:
            try:
                cells[:] = map(float, cells)
            except ValueError as e:
                raise error(f"{path}:{line}: {e}") from e
    if floats:
        return rows[0][1], np.array([cells for _, cells in rows[1:]])
    return rows[0][1], rows[1:]


def _write_table(path, header, rows) -> None:
    """Write a CSV table: the ``header`` row, then each of ``rows``.

    Every CSV file but the path dumps is written here, in one format: a
    float cell (a numpy float too) as its ``repr``, so it reads back to the
    same bits, and NaN as an empty cell; other cells as :mod:`csv` writes
    them; lines end in CRLF.
    """
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(
            [("" if c != c else repr(float(c))) if isinstance(c, float) else c for c in row]
            for row in [header, *rows])


def load_trajectory(path, antenna_height: float | None = None) -> Trajectory:
    """Read a trajectory CSV with header ``t,x,y,z,vx,vy,vz`` (SI units).

    A malformed file, or samples that :class:`Trajectory` rejects, raise
    SceneFormatError.
    """
    _, arr = _read_table(path, SceneFormatError, header=("t", "x", "y", "z", "vx", "vy", "vz"),
                         floats=True)
    h = antenna_height if antenna_height is not None else float(arr[0, 3])
    try:
        return Trajectory(arr[:, 0], arr[:, 1:4], arr[:, 4:7], antenna_height=h)
    except ValueError as e:
        raise SceneFormatError(f"{path}: {e}") from e


def save_trajectory(traj: Trajectory, path) -> None:
    """Write ``traj`` as the CSV file :func:`load_trajectory` reads."""
    _write_table(path, ["t", "x", "y", "z", "vx", "vy", "vz"],
                 np.column_stack((traj.t, traj.position, traj.velocity)).tolist())


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
        doc = json.loads(_read_text(path, SceneFormatError))
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

    # the whole file is read and checked first, then every surface is built in one pass
    specs = []      # (vertices, material, tag) of each surface
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
        specs += [(p, mat, t) for p, t in _extrusion(poly, height, tag)]
    for i, ob in enumerate(_json(doc.get("obstacles", []), list, f"{path}: obstacles")):
        where = f"{path}: obstacles[{i}]"
        _json(ob, dict, where)
        try:
            mat = resolve(ob["material"], where)
            polys = _json(ob["surfaces"], list, f"{where}: surfaces")
        except KeyError as e:
            raise SceneFormatError(f"{where}: missing field {e}") from e
        tag = _json(ob.get("tag", f"obstacle{i}"), str, f"{where}: tag")
        specs += [(_floats(poly, f"{where}: surfaces[{j}]"), mat,
                   tag if len(polys) == 1 else f"{tag}:{j}") for j, poly in enumerate(polys)]

    if "ground" not in doc:
        raise SceneFormatError(f"{path}: missing required field 'ground'")
    g = _json(doc["ground"], dict, f"{path}: ground")
    gmat = resolve(g.get("material", "asphalt"), f"{path}: ground")
    if "vertices" in g:
        ground = _floats(g["vertices"], f"{path}: ground")
    elif "extent" in g:
        extent = _floats(g["extent"], f"{path}: ground")
        if extent.shape != (4,) or not (extent[0] < extent[2] and extent[1] < extent[3]):
            raise SceneFormatError(f"{path}: ground extent must be [xmin, ymin, xmax, ymax] "
                                   "with xmin < xmax and ymin < ymax")
        x0, y0, x1, y1 = extent
        ground = [(x0, y0, 0), (x1, y0, 0), (x1, y1, 0), (x0, y1, 0)]
    else:
        raise SceneFormatError(f"{path}: ground needs 'extent' or 'vertices'")
    return Scene(_build_surfaces(specs + [(ground, gmat, "ground")]), ground=len(specs))
