"""Built-in test 1-forms spanning the decomposition's regimes.

dx      exact line integration of the model coordinate differential over each
        edge (the difference of x-coordinates, no quadrature), so its
        closedness is exact at the cochain level; on the curved disk this
        samples the square-integrable harmonic field of the model.
exact   d of a seeded random 0-cochain supported on interior vertices.
coexact delta of a seeded random 2-cochain supported on interior faces.
mixed   sum of the three above, each normalized to unit L2 norm.
"""

from __future__ import annotations

import numpy as np

from . import dec
from .errors import ConfigError
from .geometry import TriMesh
from .simplicial import Cochain, SimplicialComplex, apply_d

__all__ = ["BUILTIN_FORMS", "builtin_form", "coordinate_form"]

BUILTIN_FORMS = ("dx", "exact", "coexact", "mixed")


def coordinate_form(mesh: TriMesh, cx: SimplicialComplex) -> Cochain:
    """Edge integrals of dx: x_j - x_i along the canonical orientation."""
    x = mesh.vertices[:, 0]
    return Cochain(1, x[cx.edges[:, 1]] - x[cx.edges[:, 0]])


def _adjacency_smooth(values, adjacency, keep):
    """Damped neighbor averaging; keeps the field supported on `keep`."""
    deg = np.maximum(adjacency @ np.ones_like(values), 1.0)
    out = values.copy()
    for _ in range(8):
        out = 0.5 * out + 0.5 * (adjacency @ out) / deg
        out[~keep] = 0.0
    return out


def _random_interior_potentials(cx, seed):
    """Seeded noise on interior vertices/faces, smoothed to resolvable scale."""
    rng = np.random.default_rng(seed)
    beta = np.where(cx.interior_vertices, rng.standard_normal(cx.num_vertices), 0.0)
    vert_adj = (abs(cx.d0.T) @ abs(cx.d0)).tocsr()
    vert_adj.setdiag(0)
    beta = _adjacency_smooth(beta, vert_adj, cx.interior_vertices)

    omega = np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0)
    face_adj = (abs(cx.d1) @ abs(cx.d1.T)).tocsr()
    face_adj.setdiag(0)
    omega = _adjacency_smooth(omega, face_adj, cx.interior_faces)
    return Cochain(0, beta), Cochain(2, omega)


def builtin_form(
    name: str,
    mesh: TriMesh,
    cx: SimplicialComplex,
    disc: dec.Discretization,
    seed: int = 0,
) -> Cochain:
    """Construct one of the built-in 1-forms on `disc`, whose mesh and complex
    are `mesh` and `cx`; deterministic given the seed."""
    if mesh is not disc.mesh:
        raise ConfigError("builtin_form: the mesh is not the discretization's (disc.mesh)")
    if cx is not disc.cx:
        raise ConfigError("builtin_form: the complex is not the discretization's (disc.cx)")
    if name not in BUILTIN_FORMS:
        raise ConfigError(f"unknown builtin form {name!r}; choose from {BUILTIN_FORMS}")
    parts = {"dx": coordinate_form(mesh, cx)}
    if name != "dx":
        beta0, omega0 = _random_interior_potentials(cx, seed)
        parts["exact"] = apply_d(beta0, cx)
        parts["coexact"] = dec.codifferential(omega0, disc)
    if name != "mixed":
        return parts[name]
    return Cochain(1, sum(part.values / dec.norm(part, "l2", disc) for part in parts.values()))
