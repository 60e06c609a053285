"""Three-way splits of 1-cochains, harmonicity diagnostics, stream functions,
and the cutoff truncation experiment.

All of them act on one `Discretization`, which ties the complex and stars to
their mesh. `decompose` minimizes |alpha - d beta - delta omega| in L2 over
potentials supported away from the boundary collar; with such potentials the
L2 and H1 minimizers coincide, and the remainder gamma is the discrete harmonic
part. `stream_function` constructively realizes co-closed fields as delta of an
interior 2-cochain by integrating over a dual spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import dec, io
from .dec import StarWeights
from .errors import ConfigError, DegreeError, PreconditionError
from .geometry import TriMesh, check_cutoff_scales, cutoff_cochain, edge_faces
from .simplicial import Cochain, SimplicialComplex, apply_d, build_complex

__all__ = [
    "Discretization",
    "HodgeSplit",
    "StreamResult",
    "decompose",
    "harmonic_diagnostics",
    "stream_function",
    "truncation_distance",
]


@dataclass(frozen=True, eq=False)
class Discretization:
    """A mesh with its complex and Hodge stars, built once from the mesh alone.

    The checksum and the interior potential maps are built on first use, so a
    run that never needs them never pays for them.
    """

    mesh: TriMesh
    cx: SimplicialComplex = field(init=False)
    stars: StarWeights = field(init=False)

    def __post_init__(self):
        # called through module-level names, so a wrapper or test double bound there is reached
        object.__setattr__(self, "cx", build_complex(self.mesh))
        object.__setattr__(self, "stars", dec.assemble_stars(self.mesh, self.cx))

    @cached_property
    def checksum(self) -> str:
        return io.mesh_checksum(self.mesh)

    @cached_property
    def potential_maps(self):
        """Interior vertex and face indices vi, fi with P = d0[:, vi], Q = delta_2[:, fi]."""
        cx, stars = self.cx, self.stars
        vi = np.flatnonzero(cx.interior_vertices)
        fi = np.flatnonzero(cx.interior_faces)
        if vi.size == 0 or fi.size == 0:
            raise ConfigError("degenerate mesh: no interior vertices or faces to carry potentials")
        P = cx.d0.tocsc()[:, vi].tocsr()
        # delta_2 = star1^-1 d1^T star2, the sign fixed by adjointness
        delta2 = sp.diags(1.0 / stars.star1) @ cx.d1.T @ sp.diags(stars.star2)
        Q = delta2.tocsc()[:, fi].tocsr()
        return vi, fi, P, Q


@dataclass
class HodgeSplit:
    """alpha = d beta + delta omega + gamma, potentials supported on interior simplices;
    `diagnostics` and `solver` are the report blocks that decompose describes."""

    beta: Cochain
    omega: Cochain
    gamma: Cochain
    diagnostics: dict
    solver: dict


@dataclass
class StreamResult:
    """Per-face stream values f with omega = f * Vol and delta omega = input."""

    f: np.ndarray
    omega: Cochain
    residual: float  # |delta omega - v| / |v| in L2
    path_defect: float  # worst closure mismatch on non-tree dual edges


def _check_edge_values(c: Cochain, cx: SimplicialComplex, what: str):
    """A degree-1 cochain with one finite value per edge; checked before any work."""
    if c.degree != 1:
        raise DegreeError(f"{what} needs a degree-1 cochain")
    if c.values.shape != (cx.num_edges,):
        raise ConfigError(f"{what} needs {cx.num_edges} edge values, got shape {c.values.shape}")
    if not np.all(np.isfinite(c.values)):
        raise ConfigError(f"{what} needs finite cochain values")


def _optimality_terms(x: np.ndarray, P, Q, star1: np.ndarray) -> np.ndarray:
    """Norms of P^T star1 x and Q^T star1 x.

    Both vanish at x = gamma for the exact L2 split. Given |alpha|, |P| and |Q|
    they are the cancellation-aware sizes of the right-hand sides.
    """
    w = star1 * x
    return np.array([np.linalg.norm(P.T @ w), np.linalg.norm(Q.T @ w)])


def _solve_block(M, s1, s1_alpha: np.ndarray, tol: float, floor: float):
    """Solve the normal equations M^T s1 M x = M^T s1 alpha of one potential
    block; x and the block's solver statistics."""
    A = (M.T @ (s1 @ M).tocsc()).tocsr()
    sol = dec.solve_spd(A, M.T @ s1_alpha, tol, residual_floor=floor)
    stats = {
        "size": sol.x.size,
        "nnz": A.nnz,
        "levels": sol.levels,
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    return sol.x, stats


def decompose(alpha: Cochain, space: str, disc: Discretization, tol: float = 1e-10) -> HodgeSplit:
    """Split a 1-cochain into exact, co-exact and harmonic parts.

    Solves the L2 least-squares problem over interior potentials by conjugate
    gradients on the two decoupled block normal equations; gamma is the
    remainder. L2 optimality makes gamma closed and co-closed on the interior,
    which cancels every H1 cross term, so this is also the H1 split: `space`
    ("l2" or "h1") only selects the inner product of the diagnostics, and
    `tol` is the conjugate-gradient tolerance of both blocks.

    The diagnostics hold the norms of alpha and its three parts, the
    reconstruction residual (see _optimality_terms), the pairings of d beta and
    delta omega with gamma and the larger of the two relative to |alpha|^2
    (<d beta, delta omega> is round-off by dd = 0 and delta delta = 0, so it is
    not kept), and the Pythagoras defect relative to |alpha|^2. The solver
    block holds, for "vertex" and "face": size, nnz, levels (0 = Jacobi),
    iterations and residual.
    """
    cx, stars = disc.cx, disc.stars
    _check_edge_values(alpha, cx, "decompose")
    # the split of alpha * 2**-e, whose entries lie below 1 in size, scaled back
    # by 2**e: exact away from underflow and overflow, so a tiny alpha keeps its
    # norms and conjugate-gradient products from underflowing
    e = int(np.frexp(np.abs(alpha.values).max(initial=0.0))[1])
    alpha = Cochain(1, np.ldexp(alpha.values, -e))
    norm_alpha = dec.norm(alpha, space, cx, stars)  # also rejects an unknown space
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ldexp(norm_alpha * norm_alpha, 2 * e)):
            raise ConfigError(f"decompose: |alpha|^2 in {space} is not finite; rescale the input")

    vi, fi, P, Q = disc.potential_maps
    s1 = sp.diags(stars.star1).tocsr()
    s1_alpha = s1 @ alpha.values

    # the right-hand sides can be tiny relative to their ingredients, and a
    # purely rhs-relative stop would then demand sub-roundoff accuracy
    scales = np.maximum(
        _optimality_terms(np.abs(alpha.values), abs(P), abs(Q), stars.star1), np.finfo(float).tiny
    )
    floors = 100.0 * np.finfo(float).eps * scales
    x_b, stats_b = _solve_block(P, s1, s1_alpha, tol, floors[0])
    x_w, stats_w = _solve_block(Q, s1, s1_alpha, tol, floors[1])
    beta = np.zeros(cx.num_vertices)
    beta[vi] = x_b
    omega = np.zeros(cx.num_faces)
    omega[fi] = x_w

    d_beta = Cochain(1, P @ x_b)
    delta_omega = Cochain(1, Q @ x_w)
    gamma = Cochain(1, alpha.values - d_beta.values - delta_omega.values)

    norms_sq = [
        dec.inner(w, w, space, cx, stars) for w in (d_beta, delta_omega, gamma)
    ]
    ortho = [dec.inner(w, gamma, space, cx, stars) for w in (d_beta, delta_omega)]
    alpha_sq = max(norm_alpha**2, np.finfo(float).tiny)
    diagnostics = {
        "norm_alpha": float(np.ldexp(norm_alpha, e)),
        "norm_exact": float(np.ldexp(np.sqrt(max(norms_sq[0], 0.0)), e)),
        "norm_coexact": float(np.ldexp(np.sqrt(max(norms_sq[1], 0.0)), e)),
        "norm_gamma": float(np.ldexp(np.sqrt(max(norms_sq[2], 0.0)), e)),
        "reconstruction_residual": float(
            np.max(_optimality_terms(gamma.values, P, Q, stars.star1) / scales)
        ),
        "orthogonality": {
            "exact_harmonic": float(np.ldexp(ortho[0], 2 * e)),
            "coexact_harmonic": float(np.ldexp(ortho[1], 2 * e)),
            "defect": max(abs(ortho[0]), abs(ortho[1])) / alpha_sq,
        },
        "pythagoras_defect": abs(norm_alpha**2 - sum(norms_sq)) / alpha_sq,
    }
    return HodgeSplit(
        beta=Cochain(0, np.ldexp(beta, e)),
        omega=Cochain(2, np.ldexp(omega, e)),
        gamma=Cochain(1, np.ldexp(gamma.values, e)),
        diagnostics=diagnostics,
        solver={"vertex": stats_b, "face": stats_w},
    )


def harmonic_diagnostics(gamma: Cochain, disc: Discretization) -> dict:
    """Energy and closedness of a candidate harmonic 1-cochain: the report's
    "harmonic" block.

    The energy |d gamma|^2 + |delta gamma|^2 + c |gamma|^2 is the discrete
    gradient energy; for an exactly closed and co-closed input it reduces to
    c |gamma|^2, half of the 2 c |gamma|^2 ceiling. `bound_ratio` is the
    energy over that ceiling, None when c = 0; `d_residual` and
    `delta_residual` are |d gamma| / |gamma| and |delta gamma| / |gamma|. A
    zero cochain gives zeros and no ratio. Closedness is tested on interior
    simplices (against compact supports), consistent with the H1 pairing.
    """
    cx, stars = disc.cx, disc.stars
    _check_edge_values(gamma, cx, "harmonic diagnostics")
    c = dec.curvature_constant(stars.curvature, 1)
    norm_sq = dec.inner(gamma, gamma, "l2", cx, stars)
    if norm_sq == 0.0:
        return {"energy": 0.0, "bound_ratio": None, "d_residual": 0.0, "delta_residual": 0.0}
    d_gamma = apply_d(gamma, cx)
    d_sq = dec.interior_inner(d_gamma, d_gamma, cx, stars)
    s_gamma = dec.codifferential(gamma, cx, stars)
    s_sq = dec.interior_inner(s_gamma, s_gamma, cx, stars)
    energy = d_sq + s_sq + c * norm_sq
    return {
        "energy": energy,
        "bound_ratio": energy / (2.0 * c * norm_sq) if c > 0 else None,
        "d_residual": float(np.sqrt(d_sq / norm_sq)),
        "delta_residual": float(np.sqrt(s_sq / norm_sq)),
    }


def _coclosedness_residual(v: Cochain, cx: SimplicialComplex, stars: StarWeights):
    """Per-vertex relative defect of d0^T (star1 v) against its term magnitude."""
    w = stars.star1 * v.values
    resid = cx.d0.T @ w
    scale = abs(cx.d0).T @ np.abs(w)
    return resid, np.abs(resid) / np.maximum(scale, np.finfo(float).tiny)


def stream_function(v: Cochain, disc: Discretization, tol: float = 1e-10) -> StreamResult:
    """Reconstruct a co-closed interior 1-cochain as delta of a 2-cochain.

    Integrates star1 * v over a breadth-first spanning tree of the dual graph
    rooted at the lowest-index boundary-adjacent face, as one lower-triangular
    solve in visit order, so the stream values f vanish on faces touching the
    boundary; omega = f * area gives star2 omega = f and delta omega = v.
    Closure on the remaining dual edges is verified (path independence), as
    is the final reconstruction. `tol`,
    in (0, 1), bounds the collar values and the co-closedness defect relative
    to the input, and 100 tol the closure defect.
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"stream tolerance must lie in (0, 1), got {tol!r}")
    cx, stars = disc.cx, disc.stars
    _check_edge_values(v, cx, "stream function")
    collar = ~cx.interior_edges
    vmax = float(np.abs(v.values).max()) if v.values.size else 0.0
    if vmax == 0.0:
        f = np.zeros(cx.num_faces)
        return StreamResult(f, Cochain(2, f.copy()), 0.0, 0.0)
    if float(np.abs(v.values[collar]).max(initial=0.0)) > tol * vmax:
        raise PreconditionError("input does not vanish on the boundary collar")
    resid, rel = _coclosedness_residual(v, cx, stars)
    rel_int = rel[cx.interior_vertices]
    if rel_int.size and float(rel_int.max()) > tol:
        worst_local = int(np.argmax(rel_int))
        worst = int(np.flatnonzero(cx.interior_vertices)[worst_local])
        raise PreconditionError(
            f"input not co-closed: vertex {worst} has relative defect "
            f"{float(rel_int[worst_local]):.3e} (divergence {float(resid[worst]):.3e})"
        )

    # imported here: scipy.sparse.csgraph loads scipy.sparse.linalg, about 11 MB
    # of resident memory that commands without a stream function do not need
    from scipy.sparse import csgraph
    from scipy.sparse.linalg import spsolve_triangular

    w = stars.star1 * v.values
    # the dual graph links the two faces of every edge that has two
    links = edge_faces(cx.face_edges, cx.num_edges)
    linked = np.flatnonzero(links[:, 1] >= 0)
    fa, fb = links[linked, 0], links[linked, 1]
    dual = sp.csr_matrix((np.ones(linked.size), (fa, fb)), shape=(cx.num_faces,) * 2)

    boundary_adjacent = np.flatnonzero(~cx.interior_faces)
    root = int(boundary_adjacent[0]) if boundary_adjacent.size else 0
    # build_complex has checked that the dual graph is connected, so the tree spans it
    order, parent = csgraph.breadth_first_order(dual, root, directed=False)
    # tree edge e joining parent p to child c: s_p f[p] + s_c f[c] = w[e], one
    # row per child; in BFS order every parent precedes its child
    tree = (parent[fb] == fa) | (parent[fa] == fb)
    via = np.empty(cx.num_faces, dtype=np.int64)  # the tree edge from each face's parent
    via[np.where(parent[fb] == fa, fb, fa)[tree]] = linked[tree]
    rows = via[order[1:]]
    root_row = sp.csr_matrix(([1.0], ([0], [root])), shape=(1, cx.num_faces))
    lower = sp.vstack([root_row, cx.d1.T.tocsr()[rows]], format="csr")[:, order]
    f = np.empty(cx.num_faces)
    f[order] = spsolve_triangular(lower, np.r_[0.0, w[rows]], lower=True)
    f -= f[root]

    closure = cx.d1.T @ f - w
    defect_scale = max(vmax * float(stars.star1.max()), float(np.abs(f).max()), 1.0)
    path_defect = float(np.abs(closure).max()) / defect_scale
    if path_defect > 100 * tol:
        raise PreconditionError(
            f"path-dependent dual integration: closure defect {path_defect:.3e}"
        )

    omega = Cochain(2, f * stars.face_areas)
    delta_omega = dec.codifferential(omega, cx, stars)
    diff = delta_omega.values - v.values
    res = dec.norm(Cochain(1, diff), "l2", cx, stars) / dec.norm(v, "l2", cx, stars)
    return StreamResult(f, omega, float(res), path_defect)


def truncation_distance(gamma: Cochain, R: float, space: str, disc: Discretization) -> float:
    """Distance |gamma - phi_R gamma| in the chosen norm.

    phi_R multiplies each edge value by the mean of the cutoff at the edge
    endpoints. Requires a finite R > 1 whose support scale 2R stays inside the
    meshed ball.
    """
    cx = disc.cx
    _check_edge_values(gamma, cx, "truncation distance")
    check_cutoff_scales([R], disc.mesh)
    phi = cutoff_cochain(disc.mesh, R).values
    edge_factor = 0.5 * (phi[cx.edges[:, 0]] + phi[cx.edges[:, 1]])
    diff = Cochain(1, gamma.values - edge_factor * gamma.values)
    return dec.norm(diff, space, cx, disc.stars)
