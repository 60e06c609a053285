"""Oriented simplicial bookkeeping: cochains, incidence operators, boundary flags.

Edges carry the canonical low-to-high vertex orientation so that incidence
signs are reproducible across runs. "Interior" simplices are those not
touching any boundary vertex (a one-layer collar models compact support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegreeError, TopologyError
from .geometry import TriMesh, edge_faces, edge_table

__all__ = ["Cochain", "SimplicialComplex", "build_complex", "apply_d", "interior_restriction"]


@dataclass
class Cochain:
    """One real value per oriented k-simplex (the integral of a k-form)."""

    degree: int
    values: np.ndarray

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DegreeError(f"cochain degree must be 0, 1 or 2, got {self.degree}")
        self.values = np.asarray(self.values, dtype=float)

    def copy(self) -> "Cochain":
        return Cochain(self.degree, self.values.copy())


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable incidence structure of a triangulated disk.

    d0 is the E x V signed incidence (exterior derivative on vertices),
    d1 the F x E one; d1 @ d0 = 0 as integer matrices.
    """

    num_vertices: int
    edges: np.ndarray  # (E, 2), each row (i, j) with i < j
    faces: np.ndarray  # (F, 3), counterclockwise triples
    face_edges: np.ndarray  # (F, 3), column c is the edge opposite corner c
    d0: sp.csr_matrix
    d1: sp.csr_matrix
    boundary_vertices: np.ndarray  # bool (V,)
    boundary_edges: np.ndarray  # bool (E,)
    interior_vertices: np.ndarray  # bool: not a boundary vertex
    interior_edges: np.ndarray  # bool: no endpoint on the boundary
    interior_faces: np.ndarray  # bool: no vertex on the boundary

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def simplex_count(self, degree: int) -> int:
        if degree == 0:
            return self.num_vertices
        if degree == 1:
            return self.num_edges
        if degree == 2:
            return self.num_faces
        raise DegreeError(f"no simplices of degree {degree}")


def build_complex(mesh: TriMesh) -> SimplicialComplex:
    """Enumerate oriented edges, build d0/d1, classify the boundary."""
    faces = mesh.triangles  # frozen int64 (F, 3), stored as it is
    num_v = int(mesh.num_vertices)
    if np.any(
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 0] == faces[:, 2])
    ):
        raise TopologyError("triangle with a repeated vertex")

    edges, face_edges, counts = edge_table(faces, num_v)
    num_e = edges.shape[0]
    num_f = faces.shape[0]

    if np.any(counts > 2):
        bad = edges[np.argmax(counts)]
        raise TopologyError(f"non-manifold edge {tuple(bad)} with more than 2 faces")
    if num_v - num_e + num_f != 1:
        raise TopologyError(
            f"not a simplicial disk: V - E + F = {num_v - num_e + num_f}, expected 1"
        )

    rows = np.repeat(np.arange(num_e), 2)
    cols = edges.reshape(-1)
    vals = np.tile(np.array([-1, 1], dtype=np.int64), num_e)
    d0 = sp.csr_matrix((vals, (rows, cols)), shape=(num_e, num_v))

    # the side opposite corner c runs from corner c + 1 to corner c + 2
    signs = np.where(faces[:, [1, 2, 0]] < faces[:, [2, 0, 1]], 1, -1).astype(np.int64)
    face_rows = np.repeat(np.arange(num_f), 3)
    d1 = sp.csr_matrix((signs.reshape(-1), (face_rows, face_edges.reshape(-1))), shape=(num_f, num_e))

    boundary_edges = counts == 1
    boundary_vertices = np.zeros(num_v, dtype=bool)
    boundary_vertices[edges[boundary_edges].reshape(-1)] = True
    _check_boundary_cycle(edges[boundary_edges], boundary_vertices)
    # faces linked through their shared edges: the dual graph must be connected
    fa, fb = edge_faces(face_edges, num_e)[counts == 2].T
    pieces = np.unique(_components(num_f, fa, fb)).size
    if pieces != 1:
        raise TopologyError(f"not a simplicial disk: the faces form {pieces} connected pieces")

    interior_vertices = ~boundary_vertices
    interior_edges = interior_vertices[edges[:, 0]] & interior_vertices[edges[:, 1]]
    interior_faces = (
        interior_vertices[faces[:, 0]]
        & interior_vertices[faces[:, 1]]
        & interior_vertices[faces[:, 2]]
    )

    edges.setflags(write=False)
    face_edges.setflags(write=False)
    return SimplicialComplex(
        num_vertices=num_v,
        edges=edges,
        faces=faces,
        face_edges=face_edges,
        d0=d0,
        d1=d1,
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
        interior_vertices=interior_vertices,
        interior_edges=interior_edges,
        interior_faces=interior_faces,
    )


def _check_boundary_cycle(bedges: np.ndarray, bverts: np.ndarray):
    """The boundary must be one closed cycle (disk topology)."""
    if bedges.shape[0] == 0:
        raise TopologyError("mesh has no boundary edges")
    degree = np.bincount(bedges.reshape(-1), minlength=bverts.shape[0])
    if np.any(degree[bverts] != 2):
        raise TopologyError("boundary is not a union of closed cycles")
    if np.unique(_components(bverts.shape[0], bedges[:, 0], bedges[:, 1])[bverts]).size != 1:
        raise TopologyError("boundary splits into more than one cycle")


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least node of each node's component, for n nodes and edges (u[i], v[i]).

    Each round hooks every root onto the least root next to it, then jumps
    pointers until every node points at its root; a pointer never exceeds its
    node, so the forest stays acyclic. (scipy.sparse.csgraph would do, but
    importing it costs every process ~11 MB.)
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        low = np.minimum(lu, lv)
        hooked = label.copy()
        np.minimum.at(hooked, lu, low)
        np.minimum.at(hooked, lv, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def apply_d(c: Cochain, cx: SimplicialComplex) -> Cochain:
    """Discrete exterior derivative: signed incidence times the value vector."""
    if c.degree == 0:
        return Cochain(1, cx.d0 @ c.values)
    if c.degree == 1:
        return Cochain(2, cx.d1 @ c.values)
    raise DegreeError("d of a 2-cochain is not defined on a surface")


def interior_restriction(c: Cochain, cx: SimplicialComplex) -> Cochain:
    """Zero the values on all boundary-touching simplices; idempotent."""
    out = c.copy()
    if c.degree == 0:
        out.values[cx.boundary_vertices] = 0.0
    elif c.degree == 1:
        out.values[~cx.interior_edges] = 0.0
    else:
        out.values[~cx.interior_faces] = 0.0
    return out
