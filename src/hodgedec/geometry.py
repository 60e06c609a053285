"""Poincare-disk geometry at curvature -a**2 (Euclidean plane at a = 0).

Model metric for a > 0: g = (2 / (a * (1 - |x|^2)))^2 * delta on the open
unit disk, so geodesic distances, areas and mesh generation all live in
dimensionless model coordinates while lengths carry the 1/a scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, MeshQualityError

__all__ = [
    "TriMesh",
    "pairwise_distances",
    "radial_distance",
    "model_radius",
    "mesh_area",
    "ball_mesh",
    "ball_ring_sizes",
    "cutoff_profile",
    "check_cutoff_scales",
]

@dataclass(frozen=True)
class TriMesh:
    """Triangulated geodesic ball in model coordinates.

    vertices : (V, 2) float array of model coordinates
    triangles : (F, 3) int array, counterclockwise in model coordinates
    curvature : a >= 0, the space has sectional curvature -a**2
    provenance : generation parameters (target radius, edge length, ...)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    curvature: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.asarray(self.triangles)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ConfigError("vertices must be an (V, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ConfigError("triangles must be an (F, 3) array")
        # a cast would truncate 0.5 to the index 0 and wrap indices past int64
        integral = t.dtype.kind in "iu" or (
            t.dtype.kind == "f" and bool(np.all(np.isfinite(t) & (t == np.trunc(t))))
        )
        if not integral or (t.size and (t.min() < 0 or t.max() >= v.shape[0])):
            raise ConfigError(f"triangle indices must be integers in [0, {v.shape[0]})")
        t = np.ascontiguousarray(t, dtype=np.int64)
        if not (math.isfinite(self.curvature) and np.all(np.isfinite(v))):
            raise ConfigError("curvature and vertices must be finite")
        if self.curvature < 0:
            raise DomainError("curvature parameter a must be >= 0")
        if self.curvature > 0 and np.any(np.sum(v * v, axis=1) >= 1.0):
            raise DomainError("vertices must lie strictly inside the unit disk when a > 0")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


# the vertex cap of ball_mesh, checked before anything is allocated
MAX_VERTICES = 1_000_000
# fixed irrational twist per ring: breaks the reflection symmetries that can
# make zigzag quads exactly cocircular (zero cotangent star weights)
_TWIST = 0.6180339887498949


def _as_complex(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[np.newaxis, :]
    return p[:, 0] + 1j * p[:, 1]


def _check_inside(z: np.ndarray, a: float):
    if a > 0 and np.any(np.abs(z) >= 1.0):
        raise DomainError("point outside the open unit disk for a > 0")


def pairwise_distances(p, q, a: float) -> np.ndarray:
    """Geodesic distances between matching rows of two point arrays."""
    zp, zq = _as_complex(p), _as_complex(q)
    _check_inside(zp, a)
    _check_inside(zq, a)
    if a == 0.0:
        return np.abs(zp - zq)
    # Moebius-invariant form: d = (2/a) artanh(|p-q| / |1 - conj(p) q|)
    delta = np.abs(zp - zq) / np.abs(1.0 - np.conj(zp) * zq)
    return (2.0 / a) * np.arctanh(delta)


def radial_distance(points, a: float) -> np.ndarray:
    """Geodesic distance from the origin (the fixed reference point)."""
    return pairwise_distances(points, (0.0, 0.0), a)


def model_radius(rho: float, a: float) -> float:
    """Model-coordinate radius of the geodesic circle of radius rho."""
    if rho < 0:
        raise DomainError("geodesic radius must be >= 0")
    if a == 0.0:
        return rho
    return math.tanh(a * rho / 2.0)


def heron_area(l1, l2, l3):
    """Areas of flat triangles from their side lengths (Heron's formula)."""
    s = (l1 + l2 + l3) / 2.0
    return np.sqrt(np.maximum(s * (s - l1) * (s - l2) * (s - l3), 0.0))


def _triangle_areas_hyperbolic(l1, l2, l3, a):
    # Excess formula tan(E/4) = sqrt(prod tanh(...)); stable for tiny triangles,
    # exactly equivalent to the angle-defect definition.
    s = a * (l1 + l2 + l3) / 2.0
    t = (
        np.tanh(s / 2.0)
        * np.tanh((s - a * l1) / 2.0)
        * np.tanh((s - a * l2) / 2.0)
        * np.tanh((s - a * l3) / 2.0)
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0))) / (a * a)


def edge_table(triangles: np.ndarray, num_vertices: int):
    """Undirected edges of a triangle list: (edges, face_edges, counts).

    edges (E, 2) has lo < hi in lexicographic order, because the key lo * V + hi
    sorts like the pair; column c of face_edges (F, 3) is the edge opposite
    corner c; counts is the number of faces on each edge.
    """
    t = np.asarray(triangles, dtype=np.int64)
    b, c = t[:, [1, 2, 0]], t[:, [2, 0, 1]]  # the side opposite corner k runs b -> c
    keys, inverse, counts = np.unique(
        np.minimum(b, c) * num_vertices + np.maximum(b, c), return_inverse=True, return_counts=True
    )
    edges = np.stack([keys // num_vertices, keys % num_vertices], axis=1)
    return edges, inverse.reshape(t.shape), counts


def edge_faces(face_edges: np.ndarray, num_edges: int) -> np.ndarray:
    """The faces on each edge of a manifold table, (E, 2): the lower index first,
    -1 in column 1 on the boundary.

    A stable argsort of the slots 3f + k groups each edge's faces in face order.
    """
    slots = np.asarray(face_edges).reshape(-1)
    order = np.argsort(slots, kind="stable")
    second = np.r_[False, slots[order][1:] == slots[order][:-1]]
    faces = np.full((num_edges, 2), -1, dtype=np.int64)
    faces[slots[order], second.astype(np.int64)] = order // 3
    return faces


def corner_cosines(L: np.ndarray) -> np.ndarray:
    """Clipped corner cosines of intrinsic triangles; L[:, c] is opposite corner c."""
    b, c = L[:, [1, 2, 0]], L[:, [2, 0, 1]]
    return np.clip((b * b + c * c - L * L) / (2 * b * c), -1.0, 1.0)


def mesh_area(mesh: TriMesh) -> float:
    """Total geodesic area, as the sum of geodesic triangle areas."""
    v, t, a = mesh.vertices, mesh.triangles, mesh.curvature
    l1 = pairwise_distances(v[t[:, 1]], v[t[:, 2]], a)
    l2 = pairwise_distances(v[t[:, 0]], v[t[:, 2]], a)
    l3 = pairwise_distances(v[t[:, 0]], v[t[:, 1]], a)
    if a == 0.0:
        return float(np.sum(heron_area(l1, l2, l3)))
    return float(np.sum(_triangle_areas_hyperbolic(l1, l2, l3, a)))


def _ring_sizes(a: float, rho_max: float, h: float) -> list[int]:
    """Vertex count of each ring; ConfigError before any placement past MAX_VERTICES.

    Rings hold at least 6 vertices each, and past a * r = 50 one ring alone
    holds more than 2*pi*sinh(50)/50 > 1e20, so sinh never overflows.
    """
    too_big = ConfigError(f"the ball would have more than {MAX_VERTICES} vertices; use a "
                          "larger edge length, a smaller radius or a smaller curvature")
    if rho_max / h > MAX_VERTICES / 6:
        raise too_big
    sizes, total = [], 1
    for i in range(1, round(rho_max / h) + 1):
        if a == 0.0:
            m = round(2.0 * math.pi * i)
        elif a * i * h > 50.0:
            raise too_big
        else:
            m = round(2.0 * math.pi * math.sinh(a * i * h) / (a * h))
        total += m
        if total > MAX_VERTICES:
            raise too_big
        sizes.append(int(m))
    return sizes


def ball_ring_sizes(a: float, rho_max: float, h: float) -> list[int]:
    """The ring sizes of `ball_mesh(a, rho_max, h)`, after every check it makes
    on its parameters and on the vertex cap; nothing is allocated."""
    if not all(math.isfinite(x) for x in (a, rho_max, h)):
        raise ConfigError("curvature, radius and edge length must be finite")
    if a < 0:
        raise DomainError("curvature parameter a must be >= 0")
    if rho_max <= 0:
        raise ConfigError("rho_max must be positive")
    if not 0 < h <= rho_max:
        raise ConfigError("edge length h must satisfy 0 < h <= rho_max")
    # model coordinates are about a h in size and the audit's cross products
    # about (a h)^2, which must not underflow
    if a > 0 and (a * h) * (a * h) < sys.float_info.min:
        raise ConfigError("curvature times edge length underflows; use curvature 0")
    diameter = 2.0 * (rho_max + h)  # bounds every length the law of cosines squares
    if not math.isfinite(diameter * diameter):
        raise ConfigError("radius too large: squared edge lengths would overflow")
    return _ring_sizes(a, rho_max, h)


def _place_rings(a: float, h: float, sizes: list[int]) -> np.ndarray:
    """The center, then ring i at geodesic radius i*h, uniform in angle."""
    points = [np.zeros((1, 2))]
    for i, m in enumerate(sizes, start=1):
        r = model_radius(i * h, a)
        theta = 2.0 * np.pi * np.arange(m) / m + _TWIST * i
        points.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    return np.concatenate(points)


def _stitch_rings(inner, outer, inner_start: float, outer_start: float) -> np.ndarray:
    """Zigzag triangulation of the annulus between two angle-ordered rings.

    Rings are uniform in angle but may start at different phases; the outer
    traversal begins at the vertex angularly closest above the inner start.
    The zigzag merges the angles at which the two rings advance, inner first
    on ties: inner step i follows the outer steps of smaller angle, outer step
    j the inner steps of angle at most its own.
    """
    m, big = len(inner), len(outer)
    step_i = 2.0 * math.pi / m
    step_j = 2.0 * math.pi / big
    offsets = np.mod(outer_start + step_j * np.arange(big) - inner_start, 2.0 * math.pi)
    j0 = int(np.argmin(offsets))
    i, j = np.arange(m), np.arange(big)
    ti, tj = (i + 1) * step_i, float(offsets[j0]) + (j + 1) * step_j
    ji, ij = np.searchsorted(tj, ti, side="left"), np.searchsorted(ti, tj, side="right")
    tris = np.empty((m + big, 3), dtype=np.int64)
    tris[i + ji] = np.stack([inner, outer[(j0 + ji) % big], inner[(i + 1) % m]], axis=1)
    tris[j + ij] = np.stack([inner[ij % m], outer[(j0 + j) % big], outer[(j0 + j + 1) % big]], axis=1)
    return tris


def _cot_sums(lengths: np.ndarray, face_edges: np.ndarray) -> np.ndarray:
    """Per-edge sums of the cotangents of the opposite intrinsic angles."""
    cos = corner_cosines(lengths[face_edges])
    cot = cos / np.sqrt(np.maximum(1.0 - cos * cos, 1e-300))
    return np.bincount(face_edges.reshape(-1), weights=cot.reshape(-1), minlength=lengths.shape[0])


def _ccw(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Whether each triangle runs counterclockwise in model coordinates."""
    corners = vertices[tris]  # (F, 3, 2)
    u, w = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    return u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0] > 0.0


def _flip_to_intrinsic_delaunay(vertices: np.ndarray, tris: np.ndarray, a: float):
    """Deterministic edge flips until every interior edge has cot sum >= 0;
    the flipped triangles and the geodesic length of every edge, one per slot.

    Raw zigzag stitching can leave a few locally non-Delaunay edges near the
    center, which would produce non-positive star weights downstream. Each
    round flips, at once, every non-Delaunay edge whose quad is convex and
    that is the lowest-index such edge on both of its faces, so no two flips
    of a round share a face. A flip reuses the slot of the removed edge for
    the new diagonal, whose length is the only distance it computes.
    """
    T = np.array(tris, dtype=np.int64)
    edges, FE, _ = edge_table(T, vertices.shape[0])
    EF = edge_faces(FE, edges.shape[0])
    L = pairwise_distances(vertices[edges[:, 0]], vertices[edges[:, 1]], a)
    t, fe = T.reshape(-1), FE.reshape(-1)  # t[3f + k]: corner k of face f; fe[3f + k]: edge opposite it
    budget = 20 * edges.shape[0]
    while True:
        e = np.flatnonzero((EF[:, 1] >= 0) & (_cot_sums(L, FE) < -1e-12))
        f = EF[e]  # (n, 2)
        # corner k of a face faces e, and e runs from corner k + 1 to corner k + 2
        k = np.argmax(FE[f] == e[:, None, None], axis=2)
        i, n, m = 3 * f + k, 3 * f + (k + 1) % 3, 3 * f + (k + 2) % 3
        swap = (t[n[:, 0]] > t[m[:, 0]])[:, None]  # order the faces so the first runs u -> v, u < v
        f, i, n, m = (np.where(swap, x[:, ::-1], x) for x in (f, i, n, m))
        u, v, p, q = t[n[:, 0]], t[m[:, 0]], t[i[:, 0]], t[i[:, 1]]
        new = np.stack([np.stack([u, q, p], axis=1), np.stack([v, p, q], axis=1)], axis=1)
        # a consistently oriented pair of faces whose quad is convex
        ok = (t[n[:, 1]] == v) & (t[m[:, 1]] == u) & _ccw(vertices, new[:, 0]) & _ccw(vertices, new[:, 1])
        # first[f]: the lowest such edge on face f; only those on both faces flip
        first = np.full(T.shape[0], edges.shape[0])
        np.minimum.at(first, f[ok].reshape(-1), np.repeat(e[ok], 2))
        go = np.all(first[f] == e[:, None], axis=1)
        if not go.any():
            return T, L
        budget -= np.count_nonzero(go)
        if budget < 0:
            raise MeshQualityError("intrinsic Delaunay flipping did not terminate")
        e, f, n, m, new, p, q = e[go], f[go], n[go], m[go], new[go], p[go], q[go]
        e_vp, e_pu, e_uq, e_qv = fe[n[:, 0]], fe[m[:, 0]], fe[n[:, 1]], fe[m[:, 1]]
        T[f] = new
        FE[f] = np.stack([np.stack([e, e_pu, e_uq], axis=1), np.stack([e, e_qv, e_vp], axis=1)], axis=1)
        # e_uq moves from the second face to the first, e_vp the other way
        sides, old = np.r_[e_uq, e_vp], np.r_[f[:, 1], f[:, 0]]
        EF[sides, (EF[sides, 0] != old).astype(np.int64)] = np.r_[f[:, 0], f[:, 1]]
        L[e] = pairwise_distances(vertices[p], vertices[q], a)


def _audit_mesh(mesh: TriMesh, h: float, lengths: np.ndarray):
    """Reject a triangle that is not counterclockwise, or any of `lengths` (one
    per edge, in any order) outside the band [h/2, 2h]."""
    if not np.all(_ccw(mesh.vertices, mesh.triangles)):
        raise MeshQualityError("generated triangle is not counterclockwise")
    slack = 1e-9 * h
    if np.any(lengths < h / 2 - slack) or np.any(lengths > 2 * h + slack):
        bad = float(lengths.min()), float(lengths.max())
        raise MeshQualityError(
            f"edge lengths {bad} leave the admissible band [{h / 2}, {2 * h}]"
        )


def ball_mesh(a: float, rho_max: float, h: float) -> TriMesh:
    """Concentric-ring triangulation of the geodesic ball of radius rho_max.

    Ring i sits at geodesic radius i*h and carries round(2*pi*sinh(a*i*h)/(a*h))
    vertices (round(2*pi*i) at a = 0); consecutive rings are stitched by a
    zigzag. Deterministic for fixed inputs. Every edge length must land in
    [h/2, 2h] or the mesh is rejected, and a ball of more than MAX_VERTICES
    vertices is rejected before anything is allocated.
    """
    sizes = ball_ring_sizes(a, rho_max, h)
    vertices = _place_rings(a, h, sizes)

    starts = np.cumsum([1] + sizes)
    rings = [np.arange(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
    tris = [np.stack([np.zeros_like(rings[0]), rings[0], np.roll(rings[0], -1)], axis=1)]
    for i, (inner, outer) in enumerate(zip(rings[:-1], rings[1:]), start=1):
        tris.append(_stitch_rings(inner, outer, _TWIST * i, _TWIST * (i + 1)))
    triangles, lengths = _flip_to_intrinsic_delaunay(vertices, np.concatenate(tris), a)

    mesh = TriMesh(
        vertices=vertices,
        triangles=triangles,
        curvature=float(a),
        provenance={
            "generator": "ball_mesh",
            "rho_max": float(rho_max),
            "edge_length": float(h),
            "rings": len(sizes),
            "realized_radius": float(len(sizes) * h),
        },
    )
    _audit_mesh(mesh, h, lengths)
    return mesh


def cutoff_profile(t):
    """Cubic profile phi: 1 on [0, 1], 0 on [2, inf), smoothstep between.

    Satisfies chi_[0,1) <= phi <= chi_[0,2) and sup |phi'| = 1.5.
    """
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    out = 1.0 - 3.0 * s * s + 2.0 * s * s * s
    return out if out.ndim else float(out)


def check_cutoff_scales(radii, mesh: TriMesh | None = None) -> None:
    """Reject a cutoff scale R that is not finite and above 1 and, given the
    mesh, one whose support 2R leaves the meshed ball."""
    for R in radii:
        if not (math.isfinite(R) and R > 1.0):
            raise DomainError(f"cutoff scale R must be finite and exceed 1, got {R!r}")
    rho_max = math.inf if mesh is None else float(radial_distance(mesh.vertices, mesh.curvature).max())
    for R in radii:
        if 2.0 * R > rho_max * (1.0 + 1e-12):
            raise DomainError(f"cutoff support 2R = {2 * R} exceeds the meshed radius {rho_max:.6g}")
