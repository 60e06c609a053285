"""Three-way splits of 1-cochains, harmonicity diagnostics, stream functions,
and the cutoff truncation experiment.

All of them act on one `dec.Discretization`, which ties the complex and stars
to their mesh. `decompose` minimizes |alpha - d beta - delta omega| in L2 over
potentials supported away from the boundary collar; with such potentials the
L2 and H1 minimizers coincide, and the remainder gamma is the discrete harmonic
part. `stream_function` constructively realizes co-closed fields as delta of an
interior 2-cochain by integrating over a dual spanning tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dec
from .dec import Discretization
from .errors import ConfigError, DegreeError, PreconditionError
from .geometry import check_cutoff_scales, cutoff_profile, edge_faces, radial_distance
from .simplicial import Cochain, apply_d

__all__ = [
    "HodgeSplit",
    "StreamResult",
    "decompose",
    "harmonic_diagnostics",
    "stream_function",
    "truncation_distance",
]


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


def _check_edge_values(c: Cochain, disc: Discretization, what: str, space: str = "l2"):
    """Check, before any work, that c is a degree-1 cochain with one finite
    value per edge and a finite squared norm in `space`; return c * 2**-e, e
    and the squared norm of c * 2**-e.

    The entries of c * 2**-e lie below 1 in size, so its norms and products
    do not underflow, and scaling results back by 2**e (squared ones by
    2**2e) is exact away from underflow and overflow.
    """
    cx = disc.cx
    if c.degree != 1:
        raise DegreeError(f"{what} needs a degree-1 cochain")
    if c.values.shape != (cx.num_edges,):
        raise ConfigError(f"{what} needs {cx.num_edges} edge values, got shape {c.values.shape}")
    if not np.all(np.isfinite(c.values)):
        raise ConfigError(f"{what} needs finite cochain values")
    e = int(np.frexp(np.abs(c.values).max(initial=0.0))[1])
    c = Cochain(1, np.ldexp(c.values, -e))
    sq = dec.inner(c, c, space, disc)  # also rejects an unknown space
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ldexp(sq, 2 * e)):
            raise ConfigError(f"{what}: the squared {space} norm is not finite; rescale the input")
    return c, e, sq


def _potential_maps(disc: Discretization) -> dict:
    """The two potential blocks of a split, "vertex" then "face": each block's
    interior mask and its map M, d0 on the interior vertices and delta_2 on the
    interior faces."""
    cx = disc.cx
    if not (cx.interior_vertices.any() and cx.interior_faces.any()):
        raise ConfigError("degenerate mesh: no interior vertices or faces to carry potentials")
    # delta_2 = star1^-1 d1^T star2, the sign fixed by adjointness
    delta2 = sp.diags(1.0 / disc.star1) @ cx.d1.T @ sp.diags(disc.star2)
    blocks = {"vertex": (cx.interior_vertices, cx.d0), "face": (cx.interior_faces, delta2)}
    return {name: (interior, M.tocsc()[:, np.flatnonzero(interior)].tocsr())
            for name, (interior, M) in blocks.items()}


def decompose(alpha: Cochain, space: str, disc: Discretization, tol: float = 1e-10) -> HodgeSplit:
    """Split a 1-cochain into exact, co-exact and harmonic parts.

    Solves the L2 least-squares problem over interior potentials by conjugate
    gradients on the two decoupled block normal equations M^T star1 M x =
    M^T star1 alpha, one per block of _potential_maps, vertex first; gamma is
    the remainder. L2 optimality makes gamma closed and co-closed on the
    interior, which cancels every H1 cross term, so this is also the H1 split:
    `space` ("l2" or "h1") only selects the inner product of the diagnostics,
    and `tol` is the conjugate-gradient tolerance of both blocks.

    The diagnostics hold the norms of alpha and its three parts, the
    reconstruction residual (the larger over the blocks of |M^T star1 gamma|,
    zero for the exact split, over its scale |(|M|^T star1 |alpha|)|), the
    pairings of d beta and delta omega with gamma and the larger of the two
    relative to |alpha|^2 (<d beta, delta omega> is round-off by dd = 0 and
    delta delta = 0, so it is not kept), and the Pythagoras defect relative to
    |alpha|^2. The solver block holds, for "vertex" and "face": size, nnz,
    levels (0 = Jacobi), iterations and residual.
    """
    # the split of alpha * 2**-e, scaled back by 2**e
    alpha, e, sq = _check_edge_values(alpha, disc, "decompose", space)
    norm_alpha = math.sqrt(max(sq, 0.0))

    s1 = sp.diags(disc.star1).tocsr()
    s1_alpha = s1 @ alpha.values
    solved, solver = [], {}
    for name, (interior, M) in _potential_maps(disc).items():
        # the right-hand side can be tiny relative to its ingredients, and a
        # purely rhs-relative stop would then demand sub-roundoff accuracy
        scale = np.maximum(
            np.linalg.norm(abs(M).T @ (disc.star1 * np.abs(alpha.values))), np.finfo(float).tiny
        )
        A = (M.T @ (s1 @ M).tocsc()).tocsr()
        sol = dec.solve_spd(A, M.T @ s1_alpha, tol, residual_floor=100.0 * np.finfo(float).eps * scale)
        solver[name] = {
            "size": sol.x.size,
            "nnz": A.nnz,
            "levels": sol.levels,
            "iterations": sol.iterations,
            "residual": sol.residual,
        }
        solved.append((interior, M, scale, sol.x))
    # scattered after both solves, so that no full-length vector of the vertex
    # block is resident while the face block is solved
    potentials, parts = [], []
    for interior, M, _, x in solved:
        potential = np.zeros(interior.size)
        potential[interior] = x
        potentials.append(potential)
        parts.append(Cochain(1, M @ x))
    (beta, omega), (d_beta, delta_omega) = potentials, parts
    gamma = Cochain(1, alpha.values - d_beta.values - delta_omega.values)
    s1_gamma = disc.star1 * gamma.values

    norms_sq = [dec.inner(w, w, space, disc) for w in (d_beta, delta_omega, gamma)]
    ortho = [dec.inner(w, gamma, space, disc) for w in (d_beta, delta_omega)]
    alpha_sq = max(norm_alpha**2, np.finfo(float).tiny)
    diagnostics = {
        "norm_alpha": float(np.ldexp(norm_alpha, e)),
        "norm_exact": float(np.ldexp(np.sqrt(max(norms_sq[0], 0.0)), e)),
        "norm_coexact": float(np.ldexp(np.sqrt(max(norms_sq[1], 0.0)), e)),
        "norm_gamma": float(np.ldexp(np.sqrt(max(norms_sq[2], 0.0)), e)),
        "reconstruction_residual": float(
            max(np.linalg.norm(M.T @ s1_gamma) / scale for _, M, scale, _ in solved)
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
        solver=solver,
    )


def harmonic_diagnostics(gamma: Cochain, disc: Discretization) -> dict:
    """Energy and closedness of a candidate harmonic 1-cochain: the report's
    "harmonic" block.

    The energy |d gamma|^2 + |delta gamma|^2 + c |gamma|^2 is the discrete
    gradient energy; for an exactly closed and co-closed input it reduces to
    c |gamma|^2, half of the 2 c |gamma|^2 ceiling. `bound_ratio` is the
    energy over that ceiling, None when c = 0; `d_residual` and
    `delta_residual` are |d gamma| / |gamma| and |delta gamma| / |gamma|. A
    zero cochain gives zeros and no ratio; an energy that overflows once
    scaled back is a ConfigError. Closedness is tested on interior
    simplices (against compact supports), consistent with the H1 pairing.
    """
    # the diagnostics of gamma * 2**-e: the energy is scaled back by 2**2e
    gamma, e, norm_sq = _check_edge_values(gamma, disc, "harmonic diagnostics")
    c = dec.curvature_constant(disc.curvature, 1)
    if norm_sq == 0.0:
        return {"energy": 0.0, "bound_ratio": None, "d_residual": 0.0, "delta_residual": 0.0}
    d_gamma = apply_d(gamma, disc.cx)
    d_sq = dec.interior_inner(d_gamma, d_gamma, disc)
    s_gamma = dec.codifferential(gamma, disc)
    s_sq = dec.interior_inner(s_gamma, s_gamma, disc)
    energy = d_sq + s_sq + c * norm_sq
    with np.errstate(over="ignore"):
        scaled_energy = float(np.ldexp(energy, 2 * e))
    if not math.isfinite(scaled_energy):
        raise ConfigError("harmonic diagnostics: the energy is not finite; rescale the input")
    return {
        "energy": scaled_energy,
        "bound_ratio": energy / (2.0 * c * norm_sq) if c > 0 else None,
        "d_residual": float(np.sqrt(d_sq / norm_sq)),
        "delta_residual": float(np.sqrt(s_sq / norm_sq)),
    }


def _coclosedness_residual(v: Cochain, disc: Discretization):
    """Per-vertex relative defect of d0^T (star1 v) against its term magnitude."""
    w = disc.star1 * v.values
    d0 = disc.cx.d0
    resid = d0.T @ w
    scale = abs(d0).T @ np.abs(w)
    return resid, np.abs(resid) / np.maximum(scale, np.finfo(float).tiny)


def stream_function(v: Cochain, disc: Discretization, tol: float = 1e-10) -> StreamResult:
    """Reconstruct a co-closed interior 1-cochain as delta of a 2-cochain.

    Integrates star1 * v over a breadth-first spanning tree of the dual graph
    rooted at the lowest-index boundary-adjacent face, walked level by level
    with each face's edges in d1's row order, so the stream values f vanish
    on faces touching the boundary; omega = f * area gives star2 omega = f
    and delta omega = v. Closure on the remaining dual edges is verified (path
    independence), as is the final reconstruction. `tol`, in (0, 1), bounds
    the collar values and the co-closedness defect relative to the input, and
    100 tol the closure defect.
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"stream tolerance must lie in (0, 1), got {tol!r}")
    cx = disc.cx
    # the stream function of v * 2**-e, scaled back by 2**e
    v, e, v_sq = _check_edge_values(v, disc, "stream function")
    collar = ~cx.interior_edges
    vmax = float(np.abs(v.values).max(initial=0.0))
    if vmax == 0.0:
        f = np.zeros(cx.num_faces)
        return StreamResult(f, Cochain(2, f.copy()), 0.0, 0.0)
    if float(np.abs(v.values[collar]).max(initial=0.0)) > tol * vmax:
        raise PreconditionError("input does not vanish on the boundary collar")
    resid, rel = _coclosedness_residual(v, disc)
    rel_int = rel[cx.interior_vertices]
    if rel_int.size and float(rel_int.max()) > tol:
        worst_local = int(np.argmax(rel_int))
        worst = int(np.flatnonzero(cx.interior_vertices)[worst_local])
        raise PreconditionError(
            f"input not co-closed: vertex {worst} has relative defect "
            f"{float(rel_int[worst_local]):.3e} (divergence {float(np.ldexp(resid[worst], e)):.3e})"
        )

    w = disc.star1 * v.values
    num_f = cx.num_faces
    # each face's three edges and their incidence signs, in d1's row order
    edges3 = cx.d1.indices.reshape(num_f, 3)
    signs3 = cx.d1.data.reshape(num_f, 3)
    # the face across edge k from face p is across[k] - p: -1 on the boundary
    across = edge_faces(cx.face_edges, cx.num_edges).sum(axis=1)
    root = int(np.flatnonzero(~cx.interior_faces)[0])
    # a newly reached face q solves s_p f[p] + s_q f[q] = w[k] for the first face p,
    # in queue order, that reaches it across edge k; build_complex has checked
    # that the walk reaches every face
    f = np.zeros(num_f)
    unset = 3 * num_f
    first = np.full(num_f, unset)  # where in its level's candidates a face is first reached
    first[root] = 0
    level = np.array([root])
    while level.size:
        p = np.repeat(level, 3)
        k = edges3[level].reshape(-1)
        s_p = signs3[level].reshape(-1)
        q = across[k] - p
        new = np.flatnonzero(q >= 0)
        new = new[first[q[new]] == unset]
        np.minimum.at(first, q[new], new)
        new = new[first[q[new]] == new]
        p, k, s_p, q = p[new], k[new], s_p[new], q[new]
        s_q = signs3[q][edges3[q] == k[:, None]]
        f[q] = s_q * (w[k] - s_p * f[p])
        level = q

    closure = cx.d1.T @ f - w
    defect_scale = max(vmax * float(disc.star1.max()), float(np.abs(f).max()))
    path_defect = float(np.abs(closure).max()) / defect_scale
    if path_defect > 100 * tol:
        raise PreconditionError(
            f"path-dependent dual integration: closure defect {path_defect:.3e}"
        )

    omega = Cochain(2, f * disc.face_areas)
    delta_omega = dec.codifferential(omega, disc)
    diff = delta_omega.values - v.values
    res = dec.norm(Cochain(1, diff), "l2", disc) / math.sqrt(v_sq)
    return StreamResult(np.ldexp(f, e), Cochain(2, np.ldexp(omega.values, e)), float(res), path_defect)


def truncation_distance(gamma: Cochain, radii, space: str, disc: Discretization) -> list[float]:
    """Distances |gamma - phi_R gamma| in the chosen norm, one per scale R in radii.

    phi_R gamma multiplies each edge value by the mean of phi_R(v) =
    cutoff_profile(rho(v) / R) at the edge endpoints. gamma and the scales, any
    iterable of real numbers, are checked once, before any distance: each R
    finite and above 1, with its support scale 2R inside the meshed ball.
    """
    cx = disc.cx
    # the distances of gamma * 2**-e, scaled back by 2**e
    gamma, e, _ = _check_edge_values(gamma, disc, "truncation distance")
    radii = check_cutoff_scales(radii, disc.mesh)
    rho = radial_distance(disc.mesh.vertices, disc.mesh.curvature)
    dists = []
    for R in radii:
        phi = cutoff_profile(rho / R)
        edge_factor = 0.5 * (phi[cx.edges[:, 0]] + phi[cx.edges[:, 1]])
        diff = Cochain(1, gamma.values - edge_factor * gamma.values)
        dists.append(float(np.ldexp(dec.norm(diff, space, disc), e)))
    return dists
