"""Three-way splits of 1-cochains, harmonicity diagnostics, stream functions,
and the cutoff truncation experiment.

`decompose` minimizes |alpha - d beta - delta omega| in L2 over potentials
supported away from the boundary collar; with such potentials the L2 and H1
minimizers coincide, and the remainder gamma is the discrete harmonic part.
`stream_function` constructively realizes co-closed fields as delta of an
interior 2-cochain by integrating over a dual spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import dec
from .dec import StarWeights
from .errors import ConfigError, DegreeError, DomainError, PreconditionError
from .geometry import TriMesh, cutoff_cochain, edge_faces, radial_distance
from .simplicial import Cochain, SimplicialComplex, apply_d

__all__ = [
    "HodgeSplit",
    "SplitDiagnostics",
    "HarmonicReport",
    "StreamResult",
    "decompose",
    "harmonic_diagnostics",
    "stream_function",
    "truncation_distance",
]


@dataclass
class SplitDiagnostics:
    space: str
    norm_alpha: float
    norm_exact: float  # |d beta|
    norm_coexact: float  # |delta omega|
    norm_gamma: float
    reconstruction_residual: float  # L2 optimality of gamma, see _optimality_terms
    ortho_exact_coexact: float  # <d beta, delta omega> in the space
    ortho_exact_harmonic: float
    ortho_coexact_harmonic: float
    pythagoras_defect: float  # relative to |alpha|^2
    norm_d_gamma_l2: float
    norm_delta_gamma_l2: float
    iterations: int
    solver_residual: float

    def orthogonality_defect(self) -> float:
        """Largest pairwise inner product relative to |alpha|^2."""
        scale = max(self.norm_alpha**2, np.finfo(float).tiny)
        return (
            max(
                abs(self.ortho_exact_coexact),
                abs(self.ortho_exact_harmonic),
                abs(self.ortho_coexact_harmonic),
            )
            / scale
        )


@dataclass
class HodgeSplit:
    """alpha = d beta + delta omega + gamma, potentials supported on interior simplices."""

    beta: Cochain
    omega: Cochain
    gamma: Cochain
    diagnostics: SplitDiagnostics


@dataclass
class HarmonicReport:
    degenerate: bool
    energy: float  # |d gamma|^2 + |delta gamma|^2 + c |gamma|^2
    curvature_constant: float
    norm_l2_sq: float
    bound_ratio: Optional[float]  # energy / (2 c |gamma|^2), None when c = 0
    d_residual: float  # |d gamma| / |gamma|
    delta_residual: float


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


def _interior_l2_norm(c: Cochain, cx: SimplicialComplex, stars: StarWeights) -> float:
    """L2 norm over interior simplices (the weak-derivative test region)."""
    w = stars.star(c.degree) * dec.interior_mask(cx, c.degree)
    return float(np.sqrt(np.dot(c.values, w * c.values)))


def _potential_maps(cx: SimplicialComplex, stars: StarWeights):
    """Interior vertex and face indices vi, fi with P = d0[:, vi], Q = delta_2[:, fi]."""
    vi = np.flatnonzero(cx.interior_vertices)
    fi = np.flatnonzero(cx.interior_faces)
    if vi.size == 0 or fi.size == 0:
        raise ConfigError("degenerate mesh: no interior vertices or faces to carry potentials")
    P = cx.d0.tocsc()[:, vi].tocsr()
    Q = dec.codifferential_matrix(2, cx, stars).tocsc()[:, fi].tocsr()
    return vi, fi, P, Q


def _optimality_terms(x: np.ndarray, P, Q, star1: np.ndarray) -> np.ndarray:
    """Norms of P^T star1 x and Q^T star1 x.

    Both vanish at x = gamma for the exact L2 split. Given |alpha|, |P| and |Q|
    they are the cancellation-aware sizes of the right-hand sides.
    """
    w = star1 * x
    return np.array([np.linalg.norm(P.T @ w), np.linalg.norm(Q.T @ w)])


def decompose(
    alpha: Cochain,
    space: str,
    cx: SimplicialComplex,
    stars: StarWeights,
    tol: float = 1e-10,
) -> HodgeSplit:
    """Split a 1-cochain into exact, co-exact and harmonic parts.

    Solves the L2 least-squares problem over interior potentials by conjugate
    gradients on the two decoupled block normal equations; gamma is the
    remainder. L2 optimality makes gamma closed and co-closed on the interior,
    which cancels every H1 cross term, so this is also the H1 split: `space`
    ("l2" or "h1") only selects the inner product of the diagnostics, and
    `tol` is the conjugate-gradient tolerance of both blocks.
    """
    _check_edge_values(alpha, cx, "decompose")
    norm_alpha = dec.norm(alpha, space, cx, stars)  # also rejects an unknown space
    if not np.isfinite(norm_alpha):
        raise ConfigError(f"decompose: |alpha| in {space} is not finite; rescale the input")

    vi, fi, P, Q = _potential_maps(cx, stars)
    s1 = sp.diags(stars.star1).tocsr()
    s1_alpha = s1 @ alpha.values

    # the right-hand sides can be tiny relative to their ingredients, and a
    # purely rhs-relative stop would then demand sub-roundoff accuracy
    scales = np.maximum(
        _optimality_terms(np.abs(alpha.values), abs(P), abs(Q), stars.star1), np.finfo(float).tiny
    )
    floors = 100.0 * np.finfo(float).eps * scales
    sol_b = dec.solve_spd(
        (P.T @ (s1 @ P).tocsc()).tocsr(), P.T @ s1_alpha, tol, residual_floor=floors[0]
    )
    sol_w = dec.solve_spd(
        (Q.T @ (s1 @ Q).tocsc()).tocsr(), Q.T @ s1_alpha, tol, residual_floor=floors[1]
    )
    beta = np.zeros(cx.num_vertices)
    beta[vi] = sol_b.x
    omega = np.zeros(cx.num_faces)
    omega[fi] = sol_w.x

    d_beta = Cochain(1, P @ sol_b.x)
    delta_omega = Cochain(1, Q @ sol_w.x)
    gamma = Cochain(1, alpha.values - d_beta.values - delta_omega.values)

    norms_sq = [
        dec.inner(w, w, space, cx, stars) for w in (d_beta, delta_omega, gamma)
    ]
    diagnostics = SplitDiagnostics(
        space=space,
        norm_alpha=norm_alpha,
        norm_exact=float(np.sqrt(max(norms_sq[0], 0.0))),
        norm_coexact=float(np.sqrt(max(norms_sq[1], 0.0))),
        norm_gamma=float(np.sqrt(max(norms_sq[2], 0.0))),
        reconstruction_residual=float(
            np.max(_optimality_terms(gamma.values, P, Q, stars.star1) / scales)
        ),
        ortho_exact_coexact=dec.inner(d_beta, delta_omega, space, cx, stars),
        ortho_exact_harmonic=dec.inner(d_beta, gamma, space, cx, stars),
        ortho_coexact_harmonic=dec.inner(delta_omega, gamma, space, cx, stars),
        pythagoras_defect=abs(norm_alpha**2 - sum(norms_sq)) / max(norm_alpha**2, np.finfo(float).tiny),
        norm_d_gamma_l2=_interior_l2_norm(apply_d(gamma, cx), cx, stars),
        norm_delta_gamma_l2=_interior_l2_norm(dec.codifferential(gamma, cx, stars), cx, stars),
        iterations=sol_b.iterations + sol_w.iterations,
        solver_residual=max(sol_b.residual, sol_w.residual),
    )
    return HodgeSplit(
        beta=Cochain(0, beta), omega=Cochain(2, omega), gamma=gamma, diagnostics=diagnostics
    )


def harmonic_diagnostics(
    gamma: Cochain, cx: SimplicialComplex, stars: StarWeights
) -> HarmonicReport:
    """Energy and closedness report for a candidate harmonic 1-cochain.

    The energy |d gamma|^2 + |delta gamma|^2 + c |gamma|^2 is the discrete
    gradient energy; for an exactly closed and co-closed input it reduces to
    c |gamma|^2, half of the 2 c |gamma|^2 ceiling. Closedness is tested on
    interior simplices (against compact supports), consistent with the H1
    pairing.
    """
    if gamma.degree != 1:
        raise DegreeError("harmonic diagnostics need a degree-1 cochain")
    c = dec.curvature_constant(stars.curvature, 1)
    norm_sq = dec.inner(gamma, gamma, "l2", cx, stars)
    if norm_sq == 0.0:
        return HarmonicReport(True, 0.0, c, 0.0, None, 0.0, 0.0)
    d_sq = _interior_l2_norm(apply_d(gamma, cx), cx, stars) ** 2
    s_sq = _interior_l2_norm(dec.codifferential(gamma, cx, stars), cx, stars) ** 2
    energy = d_sq + s_sq + c * norm_sq
    ratio = energy / (2.0 * c * norm_sq) if c > 0 else None
    return HarmonicReport(
        degenerate=False,
        energy=energy,
        curvature_constant=c,
        norm_l2_sq=norm_sq,
        bound_ratio=ratio,
        d_residual=float(np.sqrt(d_sq / norm_sq)),
        delta_residual=float(np.sqrt(s_sq / norm_sq)),
    )


def _coclosedness_residual(v: Cochain, cx: SimplicialComplex, stars: StarWeights):
    """Per-vertex relative defect of d0^T (star1 v) against its term magnitude."""
    w = stars.star1 * v.values
    resid = cx.d0.T @ w
    scale = abs(cx.d0).T @ np.abs(w)
    return resid, np.abs(resid) / np.maximum(scale, np.finfo(float).tiny)


def stream_function(
    v: Cochain,
    cx: SimplicialComplex,
    stars: StarWeights,
    tol: float = 1e-10,
) -> StreamResult:
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
    order, parent = csgraph.breadth_first_order(dual, root, directed=False)
    if order.size != cx.num_faces:
        raise PreconditionError("dual graph is disconnected; cannot integrate stream values")
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


def truncation_distance(
    gamma: Cochain,
    R: float,
    space: str,
    mesh: TriMesh,
    cx: SimplicialComplex,
    stars: StarWeights,
) -> float:
    """Distance |gamma - phi_R gamma| in the chosen norm.

    phi_R multiplies each edge value by the mean of the cutoff at the edge
    endpoints. Requires a finite R > 1 whose support scale 2R stays inside the
    meshed ball.
    """
    _check_edge_values(gamma, cx, "truncation distance")
    phi = cutoff_cochain(mesh, R).values  # rejects an R that is not finite or not above 1
    rho_max = float(radial_distance(mesh.vertices, mesh.curvature).max())
    if 2.0 * R > rho_max * (1.0 + 1e-12):
        raise DomainError(
            f"cutoff support 2R = {2 * R} exceeds the meshed radius {rho_max:.6g}"
        )
    edge_factor = 0.5 * (phi[cx.edges[:, 0]] + phi[cx.edges[:, 1]])
    diff = Cochain(1, gamma.values - edge_factor * gamma.values)
    return dec.norm(diff, space, cx, stars)
