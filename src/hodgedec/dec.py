"""Metric structure on the complex: the discretization (a mesh with its complex
and Hodge stars), codifferential, inner products, and the conjugate-gradient
solver backing the decompositions.

Star weights come from the intrinsic (secant) treatment of curved triangles:
each face is replaced by the Euclidean triangle with the same geodesic edge
lengths, then the usual cotangent / mixed-Voronoi constructions apply. The
codifferential is defined through exact discrete adjointness with the diagonal
L2 pairing, (d u, v) = (u, delta v); the classical coordinate formula on
k-forms of an N-manifold reads d* = (-1)^(N k + N + 1) star d star, which is
-star d star on surface 1-forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ConvergenceError, DegreeError, MeshQualityError
from .geometry import TriMesh, corner_cosines, heron_area, pairwise_distances
from .simplicial import Cochain, SimplicialComplex, apply_d, build_complex

__all__ = [
    "Discretization",
    "SolveResult",
    "assemble_stars",
    "codifferential",
    "curvature_constant",
    "discretize",
    "inner",
    "interior_inner",
    "norm",
    "solve_spd",
]

SURFACE_DIM = 2
# iteration budget of one conjugate-gradient solve
MAX_CG_ITERATIONS = 200_000
# systems up to this size are preconditioned by Jacobi; multigrid coarsens down
# to it and solves that level densely
COARSE_SIZE = 300
# handshake rounds of one pairwise matching
MATCH_ROUNDS = 3
# coarsening stops at a level that keeps more than this share of the unknowns above it
MAX_COARSE_RATIO = 2 / 3


def curvature_constant(a: float, k: int) -> float:
    """c = a^2 k (N - k), the curvature term of the H1 pairing on k-forms, N = 2."""
    return a**2 * k * (SURFACE_DIM - k)


@dataclass(frozen=True, eq=False)
class Discretization:
    """A mesh with its complex and its positive diagonal Hodge stars, the
    discrete carrier of the metric.

    star0: dual (mixed Voronoi) areas per vertex
    star1: dual/primal length ratios per edge (half cotangent sums)
    star2: inverse intrinsic face areas
    """

    mesh: TriMesh
    cx: SimplicialComplex
    star0: np.ndarray
    star1: np.ndarray
    star2: np.ndarray
    face_areas: np.ndarray
    clamp_count: int

    @property
    def curvature(self) -> float:
        return self.mesh.curvature


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float
    levels: int  # coarse multigrid levels of the preconditioner; 0 means Jacobi


def assemble_stars(mesh: TriMesh, cx: SimplicialComplex) -> Discretization:
    """The discretization of `mesh` on its complex `cx`: diagonal Hodge stars
    via intrinsic cotangents and mixed Voronoi areas.

    Obtuse triangles fall back to the half/quarter area split (the clamp);
    the number of clamped faces is reported. A complex whose faces or vertex
    count are not the mesh's, or any non-positive weight, rejects the mesh.
    """
    if cx.num_vertices != mesh.num_vertices or not np.array_equal(cx.faces, mesh.triangles):
        raise ConfigError("the complex is not the mesh's: its faces or vertex count differ")
    lengths = pairwise_distances(
        mesh.vertices[cx.edges[:, 0]], mesh.vertices[cx.edges[:, 1]], mesh.curvature
    )
    L = lengths[cx.face_edges]  # (F, 3), L[:, c] opposite corner c
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
    return Discretization(
        mesh=mesh,
        cx=cx,
        star0=star0,
        star1=star1,
        star2=star2,
        face_areas=areas,
        clamp_count=int(np.count_nonzero(clamped)),
    )


def discretize(mesh: TriMesh) -> Discretization:
    """The mesh with its complex and stars, built from the mesh alone."""
    # called through module-level names, so a wrapper or test double bound there is reached
    return assemble_stars(mesh, build_complex(mesh))


def codifferential(c: Cochain, disc: Discretization) -> Cochain:
    """Discrete codifferential, adjoint to d in the L2 pairing."""
    if c.degree == 1:
        return Cochain(0, (disc.cx.d0.T @ (disc.star1 * c.values)) / disc.star0)
    if c.degree == 2:
        return Cochain(1, (disc.cx.d1.T @ (disc.star2 * c.values)) / disc.star1)
    raise DegreeError("codifferential needs degree 1 or 2 (no (-1)-forms)")


def _l2(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(u, w * v))


def interior_inner(u: Cochain, v: Cochain, disc: Discretization) -> float:
    """(u, v) weighted by star_k and summed over the interior simplices of degree k.

    Interior simplices touch no boundary vertex, so this pairing tests against
    compact supports (discrete weak derivatives).
    """
    k, cx = u.degree, disc.cx
    interior = (cx.interior_vertices, cx.interior_edges, cx.interior_faces)[k]
    return _l2(u.values, v.values, (disc.star0, disc.star1, disc.star2)[k] * interior)


def inner(u: Cochain, v: Cochain, space: str, disc: Discretization) -> float:
    """L2 or H1 inner product of two cochains of one degree k.

    `space` is "l2" or "h1". The H1 pairing is (1 + c) (u, v) + (du, dv) +
    (delta u, delta v) with c = curvature_constant(a, k) and a the curvature
    carried by the mesh; this is the polarization of the norm identity
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
    base = _l2(u.values, v.values, (disc.star0, disc.star1, disc.star2)[k])
    if space == "l2":
        return base
    total = (1.0 + curvature_constant(disc.curvature, k)) * base
    # a norm pairs u with itself: each derivative is taken once
    if k < 2:
        du = apply_d(u, disc.cx)
        total += interior_inner(du, du if v is u else apply_d(v, disc.cx), disc)
    if k > 0:
        su = codifferential(u, disc)
        total += interior_inner(su, su if v is u else codifferential(v, disc), disc)
    return total


def norm(u: Cochain, space: str, disc: Discretization) -> float:
    return math.sqrt(max(inner(u, u, space, disc), 0.0))


def _not_positive(value: float) -> bool:
    """True for a value that conjugate gradients on an SPD system never produces."""
    return not 0.0 < value < math.inf


def _breakdown(what: str, res: float, norm_b: float, it: int) -> ConvergenceError:
    return ConvergenceError(
        f"conjugate gradients broke down: {what} is not positive and finite after "
        f"{it} iterations (relative residual {res / norm_b:.3e}); the matrix is not SPD",
        residual=res / norm_b,
        iterations=it,
    )


def _match(A: sp.csr_matrix, diag: np.ndarray) -> tuple[np.ndarray, int]:
    """Aggregate ids from handshake matchings of the strongest negative couplings.

    Each unknown i picks the j maximizing -a_ij / sqrt(a_ii a_jj) over its
    negative off-diagonal entries, ties to the lowest j; i and j pair when j
    picks i back. Up to MATCH_ROUNDS rounds run among the still unmatched;
    the rest stay single. Aggregates are numbered by their lowest member.
    """
    n = A.shape[0]
    # the row factor 1 / sqrt(a_ii) does not change a row's pick; the diagonal
    # and positive couplings get strength 0 and never pair
    s = A.data / np.sqrt(diag)[A.indices]
    np.negative(s, out=s)
    np.maximum(s, 0.0, out=s)
    c = A.indices
    index = np.arange(n, dtype=np.int32)
    # the row-sorted candidates: segment q holds the couplings of row rows[q]
    rows, starts, counts = index, A.indptr[:-1], np.diff(A.indptr)
    partner = index.copy()
    best = np.full(n + 1, n, dtype=np.int32)  # best[n] = n: no pick
    for round_ in range(MATCH_ROUNDS):
        strongest = np.maximum.reduceat(s, starts)
        top = s == np.repeat(strongest, counts)
        picks = np.minimum.reduceat(np.where(top, c, n), starts)
        del top
        best[rows] = np.where(strongest > 0.0, picks, n)
        j = best[rows]
        mutual = best[j] == rows
        partner[rows[mutual]] = j[mutual]
        best[rows] = n
        if round_ == MATCH_ROUNDS - 1:
            break
        alone = partner == index
        keep = np.repeat(alone[rows], counts)
        keep &= alone[c]
        keep &= s > 0.0
        r = np.repeat(rows, counts)[keep]
        if r.size == 0:
            break
        s, c = s[keep], c[keep]
        del keep
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        rows, counts = r[starts], np.diff(np.r_[starts, r.size])
    leader = np.minimum(index, partner)
    ids = np.cumsum(leader == index, dtype=np.int32) - 1
    return ids[leader], int(ids[-1]) + 1


def _galerkin(A: sp.csr_matrix, agg: np.ndarray, k: int) -> sp.csr_matrix:
    """P^T A P for the piecewise-constant prolongation P[i, agg[i]] = 1.

    The CSR arrays are reindexed through agg; the COO to CSR conversion sums
    the duplicate entries.
    """
    coarse = sp.csr_matrix(
        (A.data, (np.repeat(agg, np.diff(A.indptr)), agg[A.indices])), shape=(k, k)
    )
    return coarse.copy()  # summing leaves views into the longer unsummed arrays


def _smoothing_weights(A: sp.csr_matrix, diag: np.ndarray) -> np.ndarray:
    """omega / a_ii with omega = 1 / max_i sum_j |a_ij| / a_ii.

    The Gershgorin bound gives omega lambda_max(D^-1 A) <= 1 for every SPD A,
    so damped Jacobi contracts the error in the A-norm.
    """
    row_abs = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
    return 1.0 / (float(np.max(row_abs / diag)) * diag)


def _multigrid(A: sp.csr_matrix, diag: np.ndarray):
    """Symmetric V-cycle over a pairwise-aggregation hierarchy built from A.

    Each level aggregates by two handshake matchings, about four unknowns per
    aggregate, with one damped Jacobi sweep before and after the coarse
    correction. Coarsening stops at COARSE_SIZE unknowns, which are solved
    densely, or before a level that would keep more than MAX_COARSE_RATIO of
    the unknowns above it; the last level is then preconditioned by Jacobi.
    Returns the preconditioner and the number of coarse levels; none means
    plain Jacobi.
    """
    levels = []
    while A.shape[0] > COARSE_SIZE:
        agg, coarse, coarse_diag = None, A, diag
        for _ in range(2):
            step, k = _match(coarse, coarse_diag)
            coarse = _galerkin(coarse, step, k)
            coarse_diag = coarse.diagonal()
            if np.any(coarse_diag <= 0.0):
                raise ConvergenceError(
                    "coarse-level diagonal is not positive; the matrix is not SPD",
                    residual=1.0,
                    iterations=0,
                )
            agg = step if agg is None else step[agg]
        if k > MAX_COARSE_RATIO * A.shape[0]:
            break
        # kept at the platform index width, which numpy gathers by fastest
        levels.append((A, _smoothing_weights(A, diag), agg.astype(np.intp), k))
        A, diag = coarse, coarse_diag

    if levels and A.shape[0] <= COARSE_SIZE:
        try:
            inv_chol = np.linalg.inv(np.linalg.cholesky(A.toarray()))
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "coarsest level is not positive definite; the matrix is not SPD",
                residual=1.0,
                iterations=0,
            ) from None

        def bottom(r):
            return inv_chol.T @ (inv_chol @ r)
    else:
        inv_diag = 1.0 / diag

        def bottom(r):
            return inv_diag * r

    # a module-level cycle, not a self-referencing closure, so the hierarchy is
    # freed as soon as the solve drops it
    return partial(_vcycle, levels, bottom), len(levels)


def _vcycle(levels: list, bottom, r: np.ndarray, depth: int = 0) -> np.ndarray:
    if depth == len(levels):
        return bottom(r)
    A, w, agg, k = levels[depth]
    x = w * r
    x += _vcycle(levels, bottom, np.bincount(agg, r - A @ x, minlength=k), depth + 1)[agg]
    x += w * (r - A @ x)
    return x


def solve_spd(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    residual_floor: float = 0.0,
) -> SolveResult:
    """Conjugate gradients for SPD systems, preconditioned by aggregation multigrid.

    Systems of more than COARSE_SIZE unknowns are preconditioned by one
    symmetric V-cycle over a pairwise-aggregation hierarchy built from A
    (`_multigrid`), smaller ones by Jacobi. Stops at |A x - b| <= tol * |b|
    (or at the absolute residual_floor, whichever is larger; callers use the
    floor when b itself is the result of heavy cancellation, and a b that
    x = 0 already meets builds no hierarchy); tol must lie in (0, 1) and |b|
    must be finite. Deterministic for a fixed BLAS thread count: the
    iteration order is fixed, but the dot products and norms are BLAS
    reductions whose summation order may follow the thread count.
    Raises ConvergenceError (carrying the final relative residual and the
    iteration count) when MAX_CG_ITERATIONS are exhausted, when the true
    residual misses the tolerance, or on breakdown: a curvature p.Ap or a
    preconditioned residual r.z that is not positive and finite, or a
    hierarchy that is not positive definite, each of which means that A is
    not SPD.
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
        return SolveResult(np.zeros(n), 0, 0.0, 0)

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ConvergenceError(
            "matrix has a non-positive diagonal entry; not SPD", residual=1.0, iterations=0
        )
    target = max(tol * norm_b, residual_floor)
    if norm_b <= target:  # x = 0 already meets the floor: nothing to build
        return SolveResult(np.zeros(n), 0, 1.0, 0)
    precondition, levels = _multigrid(A, diag)

    x = np.zeros(n)
    r = b.copy()
    res = norm_b
    it = 0
    while res > target:
        if it >= MAX_CG_ITERATIONS:
            raise ConvergenceError(
                f"conjugate gradients exceeded {MAX_CG_ITERATIONS} iterations "
                f"(relative residual {res / norm_b:.3e})",
                residual=res / norm_b,
                iterations=it,
            )
        z = precondition(r)
        rz_new = float(np.dot(r, z))
        if _not_positive(rz_new):
            raise _breakdown("r.z", res, norm_b, it)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        pAp = float(np.dot(p, Ap))
        if _not_positive(pAp):
            raise _breakdown("p.Ap", res, norm_b, it)
        alpha = rz / pAp
        x += alpha * p
        it += 1
        if it % 64 == 0:
            r = b - A @ x  # periodic refresh keeps the recursion honest
        else:
            r -= alpha * Ap
        res = float(np.linalg.norm(r))
    true_res = float(np.linalg.norm(b - A @ x))
    if true_res > 10 * target:
        raise ConvergenceError(
            f"recursion residual converged but true residual {true_res / norm_b:.3e} "
            f"did not reach tolerance {tol:.3e}",
            residual=true_res / norm_b,
            iterations=it,
        )
    return SolveResult(x, it, true_res / norm_b, levels)
