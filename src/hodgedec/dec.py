"""Metric structure on the complex: Hodge stars, codifferential, inner products,
Laplacians, and the conjugate-gradient solver backing the decompositions.

Star weights come from the intrinsic (secant) treatment of curved triangles:
each face is replaced by the Euclidean triangle with the same geodesic edge
lengths, then the usual cotangent / mixed-Voronoi constructions apply. The
codifferential is defined through exact discrete adjointness with the diagonal
L2 pairing, (d u, v) = (u, delta v); on a surface the classical coordinate
formula would read d* = (-1)^(N k + N + 1) star d star, see
`continuum_codifferential_sign`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ConvergenceError, DegreeError, MeshQualityError
from .geometry import TriMesh, corner_cosines, heron_area, pairwise_distances
from .simplicial import Cochain, SimplicialComplex, apply_d

__all__ = [
    "StarWeights",
    "SolveResult",
    "assemble_stars",
    "codifferential_matrix",
    "codifferential",
    "curvature_constant",
    "inner",
    "norm",
    "hodge_laplacian",
    "bochner",
    "solve_spd",
    "continuum_codifferential_sign",
]

SURFACE_DIM = 2
# iteration budget of one conjugate-gradient solve
MAX_CG_ITERATIONS = 200_000


def curvature_constant(a: float, k: int) -> float:
    """c = a^2 k (N - k), the curvature term of the H1 pairing on k-forms, N = 2."""
    return a**2 * k * (SURFACE_DIM - k)


def continuum_codifferential_sign(n_dim: int, degree: int) -> int:
    """Sign of the coordinate formula d* = sign * (star d star) on k-forms."""
    return (-1) ** (n_dim * degree + n_dim + 1)


@dataclass(frozen=True)
class StarWeights:
    """Positive diagonal Hodge-star weights; the discrete carrier of the metric.

    star0: dual (mixed Voronoi) areas per vertex
    star1: dual/primal length ratios per edge (half cotangent sums)
    star2: inverse intrinsic face areas
    """

    star0: np.ndarray
    star1: np.ndarray
    star2: np.ndarray
    curvature: float
    face_areas: np.ndarray
    edge_lengths: np.ndarray
    clamp_count: int

    def star(self, degree: int) -> np.ndarray:
        if degree == 0:
            return self.star0
        if degree == 1:
            return self.star1
        if degree == 2:
            return self.star2
        raise DegreeError(f"no star weights for degree {degree}")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float


def assemble_stars(mesh: TriMesh, cx: SimplicialComplex) -> StarWeights:
    """Diagonal Hodge stars via intrinsic cotangents and mixed Voronoi areas.

    Obtuse triangles fall back to the half/quarter area split (the clamp);
    the number of clamped faces is reported. Any non-positive weight rejects
    the mesh.
    """
    edge_lengths = pairwise_distances(
        mesh.vertices[cx.edges[:, 0]], mesh.vertices[cx.edges[:, 1]], mesh.curvature
    )
    L = edge_lengths[cx.face_edges]  # (F, 3), L[:, c] opposite corner c
    cos = corner_cosines(L)
    areas = heron_area(L[:, 0], L[:, 1], L[:, 2])
    if np.any(areas <= 0.0):
        raise MeshQualityError("degenerate face with non-positive intrinsic area")

    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    with np.errstate(divide="ignore"):
        cot = cos / sin
    if not np.all(np.isfinite(cot)):
        raise MeshQualityError("degenerate corner angle in intrinsic triangle")

    star1 = np.zeros(cx.num_edges)
    np.add.at(star1, cx.face_edges.reshape(-1), 0.5 * cot.reshape(-1))

    star0 = np.zeros(cx.num_vertices)
    obtuse = cos < 0.0
    clamped = np.any(obtuse, axis=1)
    # Voronoi corner at c: (1/8) (L_a^2 cot_a + L_b^2 cot_b), a, b the other corners
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        contrib = np.where(
            clamped,
            np.where(obtuse[:, c], areas / 2.0, areas / 4.0),
            (L[:, a] ** 2 * cot[:, a] + L[:, b] ** 2 * cot[:, b]) / 8.0,
        )
        np.add.at(star0, cx.faces[:, c], contrib)

    star2 = 1.0 / areas
    if np.any(star0 <= 0.0) or np.any(star1 <= 0.0) or np.any(star2 <= 0.0):
        raise MeshQualityError("non-positive Hodge star weight; mesh rejected")
    return StarWeights(
        star0=star0,
        star1=star1,
        star2=star2,
        curvature=mesh.curvature,
        face_areas=areas,
        edge_lengths=np.asarray(edge_lengths),
        clamp_count=int(np.count_nonzero(clamped)),
    )


def codifferential_matrix(degree: int, cx: SimplicialComplex, stars: StarWeights) -> sp.csr_matrix:
    """Matrix of delta_k = star_{k-1}^-1 d_{k-1}^T star_k (sign from adjointness)."""
    if degree == 1:
        return sp.diags(1.0 / stars.star0) @ cx.d0.T @ sp.diags(stars.star1)
    if degree == 2:
        return sp.diags(1.0 / stars.star1) @ cx.d1.T @ sp.diags(stars.star2)
    raise DegreeError("codifferential needs degree 1 or 2 (no (-1)-forms)")


def codifferential(c: Cochain, cx: SimplicialComplex, stars: StarWeights) -> Cochain:
    """Discrete codifferential, adjoint to d in the L2 pairing."""
    if c.degree == 1:
        return Cochain(0, (cx.d0.T @ (stars.star1 * c.values)) / stars.star0)
    if c.degree == 2:
        return Cochain(1, (cx.d1.T @ (stars.star2 * c.values)) / stars.star1)
    raise DegreeError("codifferential needs degree 1 or 2 (no (-1)-forms)")


def _l2(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(u, w * v))


def interior_mask(cx: SimplicialComplex, degree: int) -> np.ndarray:
    """Simplices not touching any boundary vertex (discrete compact support)."""
    if degree == 0:
        return cx.interior_vertices
    if degree == 1:
        return cx.interior_edges
    if degree == 2:
        return cx.interior_faces
    raise DegreeError(f"no simplices of degree {degree}")


def inner(
    u: Cochain,
    v: Cochain,
    space: str,
    cx: SimplicialComplex,
    stars: StarWeights,
) -> float:
    """L2 or H1 inner product of two cochains of one degree k.

    `space` is "l2" or "h1". The H1 pairing is (1 + c) (u, v) + (du, dv) +
    (delta u, delta v) with c = curvature_constant(a, k) and a the curvature
    carried by the stars; this is the polarization of the norm identity
    |grad u|^2 = |du|^2 + |d* u|^2 + c |u|^2 that holds on a space form of
    curvature -a^2. The derivative terms are summed over interior simplices
    only (testing against compact supports): the underlying space has no
    boundary, and the mesh boundary would otherwise inject an artificial flux
    layer that grows under refinement.
    """
    if space not in ("l2", "h1"):
        raise ConfigError(f"unknown inner-product space {space!r}; choose 'l2' or 'h1'")
    if u.degree != v.degree:
        raise DegreeError(f"degree mismatch: u={u.degree}, v={v.degree}")
    k = u.degree
    base = _l2(u.values, v.values, stars.star(k))
    if space == "l2":
        return base
    total = (1.0 + curvature_constant(stars.curvature, k)) * base
    if k < 2:
        du, dv = apply_d(u, cx), apply_d(v, cx)
        total += _l2(du.values, dv.values, stars.star(k + 1) * interior_mask(cx, k + 1))
    if k > 0:
        su, sv = codifferential(u, cx, stars), codifferential(v, cx, stars)
        total += _l2(su.values, sv.values, stars.star(k - 1) * interior_mask(cx, k - 1))
    return total


def norm(u: Cochain, space: str, cx: SimplicialComplex, stars: StarWeights) -> float:
    return math.sqrt(max(inner(u, u, space, cx, stars), 0.0))


def hodge_laplacian(c: Cochain, cx: SimplicialComplex, stars: StarWeights) -> Cochain:
    """-Delta = d delta + delta d, with degree-invalid terms dropped."""
    out = np.zeros_like(c.values)
    if c.degree < 2:
        out += codifferential(apply_d(c, cx), cx, stars).values
    if c.degree > 0:
        out += apply_d(codifferential(c, cx, stars), cx).values
    return Cochain(c.degree, out)


def bochner(c: Cochain, cx: SimplicialComplex, stars: StarWeights) -> Cochain:
    """Rough Laplacian: -Delta + a^2 k (N-k) * identity, per the space form identity."""
    lap = hodge_laplacian(c, cx, stars)
    return Cochain(c.degree, lap.values + curvature_constant(stars.curvature, c.degree) * c.values)


def solve_spd(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    residual_floor: float = 0.0,
) -> SolveResult:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Stops at |A x - b| <= tol * |b| (or at the absolute residual_floor,
    whichever is larger; callers use the floor when b itself is the result of
    heavy cancellation); tol must lie in (0, 1) and |b| must be finite.
    Deterministic: fixed iteration order, serial reductions. Raises
    ConvergenceError (carrying the final relative residual) when
    MAX_CG_ITERATIONS are exhausted.
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"solver tolerance must lie in (0, 1), got {tol!r}")
    A = A.tocsr()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    norm_b = float(np.linalg.norm(b))
    if not np.isfinite(norm_b):
        raise ConfigError(f"right-hand side norm is not finite ({norm_b}); rescale the input")
    if norm_b == 0.0:
        return SolveResult(np.zeros(n), 0, 0.0)

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has a non-positive diagonal entry; not SPD")
    inv_diag = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(np.dot(r, z))
    target = max(tol * norm_b, residual_floor)
    res = float(np.linalg.norm(r))
    it = 0
    while res > target:
        if it >= MAX_CG_ITERATIONS:
            raise ConvergenceError(
                f"conjugate gradients exceeded {MAX_CG_ITERATIONS} iterations "
                f"(relative residual {res / norm_b:.3e})",
                residual=res / norm_b,
                iterations=it,
            )
        Ap = A @ p
        alpha = rz / float(np.dot(p, Ap))
        x += alpha * p
        it += 1
        if it % 64 == 0:
            r = b - A @ x  # periodic refresh keeps the recursion honest
        else:
            r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
    true_res = float(np.linalg.norm(b - A @ x))
    if true_res > 10 * target:
        raise ConvergenceError(
            f"recursion residual converged but true residual {true_res / norm_b:.3e} "
            f"did not reach tolerance {tol:.3e}",
            residual=true_res / norm_b,
            iterations=it,
        )
    return SolveResult(x, it, true_res / norm_b)
