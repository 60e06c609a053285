"""Checks on hodgedec outputs, computed with the benchmark's own operators.

Meshes and reports are read as plain JSON and every discrete operator
(incidence matrices, geodesic lengths, Hodge stars, norms) is rebuilt here
from the triangles and the curvature, with formulas written apart from the
program's. A checker returns None when the output passes and raises
CheckFailed naming the first violated property otherwise. The bounds, and
where each comes from, are listed in README.md.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

# the CLI's default --tol: the relative residual at which both CG blocks stop
SOLVER_TOL = 1e-10
# d beta + delta omega + gamma = alpha holds up to the last digits in which the
# benchmark's stars and the program's differ, amplified by cancellation
RECON_BOUND = 1e-10
# the stream function integrates star1 v exactly along a tree, so delta(f area)
# misses v only by rounding; the program rejects path defects above 100 tol
STREAM_BOUND = 100 * SOLVER_TOL
DX_HARMONIC_SHARE = 0.999
RING_SLACK = 1e-9  # relative to h; the program's own audit allows the same
COT_FLOOR = -1e-12  # the program's intrinsic-Delaunay acceptance threshold


class CheckFailed(Exception):
    """An output violates a property the method must have."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _finite_array(values, size, what):
    arr = np.asarray(values, dtype=float)
    _require(arr.shape == (size,), f"{what} has shape {arr.shape}, expected ({size},)")
    _require(bool(np.all(np.isfinite(arr))), f"{what} has non-finite entries")
    return arr


def geodesic_lengths(p, q, a):
    """Distances between matching rows of p and q at curvature -a^2.

    Uses sinh^2(a d / 2) = |p - q|^2 / ((1 - |p|^2)(1 - |q|^2)) in the
    Poincare disk; the program uses the artanh form instead.
    """
    diff = np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
    if a == 0.0:
        return diff
    den = np.sqrt((1.0 - np.sum(p * p, axis=1)) * (1.0 - np.sum(q * q, axis=1)))
    return (2.0 / a) * np.arcsinh(diff / den)


def geodesic_radii(points, a):
    origin = np.zeros_like(points)
    return geodesic_lengths(origin, points, a)


class Disc:
    """The discretization of one mesh, rebuilt from its triangles.

    Edges are the sorted vertex pairs in lexicographic order, the order the
    file formats use for 1-cochains. Interior simplices touch no boundary
    vertex. Stars: star1 is half the sum of the intrinsic cotangents
    opposite an edge, star2 the inverse intrinsic face area, star0 the mixed
    Voronoi area.
    """

    def __init__(self, vertices, triangles, a):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.a = float(a)
        nv, t = len(self.vertices), self.triangles
        nf = len(t)
        tails = t.reshape(-1)
        heads = t[:, [1, 2, 0]].reshape(-1)
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        keys, slot, counts = np.unique(lo * nv + hi, return_inverse=True, return_counts=True)
        self.edges = np.stack([keys // nv, keys % nv], axis=1)
        self.edge_face_counts = counts
        ne = len(keys)
        self.d0 = sp.csr_matrix(
            (np.tile([-1.0, 1.0], ne), (np.repeat(np.arange(ne), 2), self.edges.reshape(-1))),
            shape=(ne, nv),
        )
        # face f, directed side s in (01, 12, 20): slot[3 f + s] is its edge
        self.d1 = sp.csr_matrix(
            (np.where(tails < heads, 1.0, -1.0), (np.repeat(np.arange(nf), 3), slot.reshape(-1))),
            shape=(nf, ne),
        )
        boundary = np.zeros(nv, dtype=bool)
        boundary[self.edges[counts == 1].reshape(-1)] = True
        self.interior_vertices = ~boundary
        self.interior_edges = self.interior_vertices[self.edges].all(axis=1)
        self.interior_faces = self.interior_vertices[t].all(axis=1)

        self.lengths = geodesic_lengths(
            self.vertices[self.edges[:, 0]], self.vertices[self.edges[:, 1]], self.a
        )
        # side s of face f joins corners s and s+1, so it lies opposite corner s+2
        side_len = self.lengths[slot.reshape(nf, 3)]
        opposite = side_len[:, [1, 2, 0]]  # opposite[:, c]: length opposite corner c
        sq = opposite**2
        p = opposite.sum(axis=1) / 2.0
        area = np.sqrt(np.maximum(p * (p - opposite[:, 0]) * (p - opposite[:, 1]) * (p - opposite[:, 2]), 0.0))
        _require(bool(np.all(area > 0.0)), "degenerate intrinsic triangle")
        self.areas = area
        # cot of the angle at corner c: (b^2 + c^2 - a^2) / (4 area)
        cot = (sq.sum(axis=1, keepdims=True) - 2.0 * sq) / (4.0 * area[:, None])
        opposite_slot = slot.reshape(nf, 3)[:, [1, 2, 0]]
        self.star1 = 0.5 * np.bincount(opposite_slot.reshape(-1), cot.reshape(-1), minlength=ne)
        self.star2 = 1.0 / area
        obtuse = cot < 0.0
        voronoi = (sq[:, [1, 2, 0]] * cot[:, [1, 2, 0]] + sq[:, [2, 0, 1]] * cot[:, [2, 0, 1]]) / 8.0
        fallback = np.where(obtuse, area[:, None] / 2.0, area[:, None] / 4.0)
        dual = np.where(obtuse.any(axis=1, keepdims=True), fallback, voronoi)
        self.star0 = np.bincount(t.reshape(-1), dual.reshape(-1), minlength=nv)

    @classmethod
    def from_mesh(cls, mesh):
        return cls(mesh["vertices"], mesh["triangles"], mesh["curvature"])

    def l2(self, u, v):
        return float(np.dot(u, self.star1 * v))

    def codiff2(self, omega):
        """delta of a 2-cochain: star1^-1 d1^T star2 omega."""
        return (self.d1.T @ (self.star2 * omega)) / self.star1

    def h1_sq(self, u):
        """Squared H1 norm of a 1-cochain, derivatives tested on interior simplices."""
        du = self.d1 @ u
        su = (self.d0.T @ (self.star1 * u)) / self.star0
        return (
            (1.0 + self.a**2) * self.l2(u, u)
            + float(np.sum((self.star2 * du * du)[self.interior_faces]))
            + float(np.sum((self.star0 * su * su)[self.interior_vertices]))
        )


def solver_bound(space, rho, h):
    """Bound on what a CG solve stopped at relative residual SOLVER_TOL leaves.

    The error is at most the condition number times the tolerance. The L2 blocks are
    second-order operators on a ball of rho / h rings, with condition number
    growing like (rho / h)^2; the H1 blocks are fourth order, (rho / h)^4.
    """
    return SOLVER_TOL * (rho / h) ** (2 if space == "l2" else 4)


def _relative_defect(op, values, terms, mask):
    """Largest |op values| on mask, against the RMS of |op| |terms|.

    |op| |terms| is the size of what cancelled; taking the largest residual
    keeps a defect on a single simplex from being averaged away.
    """
    resid = np.abs(op @ values)[mask]
    scale = (abs(op) @ terms)[mask]
    return float(resid.max()) / max(math.sqrt(float(np.mean(scale * scale))), np.finfo(float).tiny)


def check_split(disc, report, alpha, bound):
    """One decompose report: supports, harmonicity, reconstruction, orthogonality.

    `bound` is the `solver_bound` of the split's space.
    """
    ne, nv, nf = len(disc.edges), len(disc.vertices), len(disc.triangles)
    beta = _finite_array(report["beta"], nv, "beta")
    omega = _finite_array(report["omega"], nf, "omega")
    gamma = _finite_array(report["gamma"], ne, "gamma")
    _require(not np.any(beta[~disc.interior_vertices]), "beta is nonzero on a boundary vertex")
    _require(not np.any(omega[~disc.interior_faces]), "omega is nonzero on a face touching the boundary")

    exact = disc.d0 @ beta
    coexact = disc.codiff2(omega)
    norm_sq = disc.l2(alpha, alpha)
    recon = alpha - exact - coexact - gamma
    _require(
        disc.l2(recon, recon) <= RECON_BOUND**2 * norm_sq,
        "d beta + delta omega + gamma does not reproduce alpha",
    )
    terms = np.abs(alpha) + np.abs(exact) + np.abs(coexact)
    coclosed = _relative_defect(disc.d0.T, disc.star1 * gamma, disc.star1 * terms, disc.interior_vertices)
    _require(coclosed <= bound, f"gamma not co-closed at interior vertices ({coclosed:.2e})")
    closed = _relative_defect(disc.d1, gamma, terms, disc.interior_faces)
    _require(closed <= bound, f"gamma not closed on interior faces ({closed:.2e})")
    for (x, nx), (y, ny) in itertools.combinations(
        ((exact, "exact"), (coexact, "coexact"), (gamma, "harmonic")), 2
    ):
        ortho = abs(disc.l2(x, y)) / norm_sq
        _require(ortho <= bound, f"{nx} and {ny} parts not L2-orthogonal ({ortho:.2e})")
    return gamma


def check_splits_agree(disc, gamma_a, gamma_b, alpha, bound):
    diff = gamma_a - gamma_b
    rel = math.sqrt(disc.l2(diff, diff) / disc.l2(alpha, alpha))
    _require(rel <= bound, f"L2 and H1 harmonic parts differ by {rel:.2e}")


def coordinate_form(disc):
    """Edge integrals of dx: x_hi - x_lo."""
    x = disc.vertices[:, 0]
    return x[disc.edges[:, 1]] - x[disc.edges[:, 0]]


def check_harmonic_share(disc, gamma, alpha):
    share = disc.h1_sq(gamma) / disc.h1_sq(alpha)
    _require(share >= DX_HARMONIC_SHARE, f"gamma keeps {share:.6f} of the H1 content of dx")


def check_stream(disc, report, v):
    """delta(f * area) reproduces v, and f vanishes on faces touching the boundary."""
    f = _finite_array(report["f"], len(disc.triangles), "f")
    fmax = float(np.abs(f).max())
    _require(fmax > 0.0, "stream function is identically zero")
    collar = float(np.abs(f[~disc.interior_faces]).max(initial=0.0))
    _require(collar <= SOLVER_TOL * fmax, f"f is {collar:.2e} on a face touching the boundary")
    diff = disc.codiff2(f * disc.areas) - v
    rel = math.sqrt(disc.l2(diff, diff) / disc.l2(v, v))
    _require(rel <= STREAM_BOUND, f"delta(f area) misses the input by {rel:.2e}")


def dense_oracle_harmonic(disc, alpha):
    """gamma of the star1-weighted least-squares split, by a dense solve."""
    P = disc.d0.toarray()[:, disc.interior_vertices]
    Q = (sp.diags(1.0 / disc.star1) @ disc.d1.T @ sp.diags(disc.star2)).toarray()[:, disc.interior_faces]
    A = np.hstack([P, Q])
    w = np.sqrt(disc.star1)
    coef, *_ = np.linalg.lstsq(w[:, None] * A, w * alpha, rcond=None)
    return alpha - A @ coef


def check_oracle(disc, report, alpha, bound):
    gamma = check_split(disc, report, alpha, bound)
    diff = gamma - dense_oracle_harmonic(disc, alpha)
    rel = math.sqrt(disc.l2(diff, diff) / disc.l2(alpha, alpha))
    _require(rel <= bound, f"gamma differs from the dense least-squares split by {rel:.2e}")


def ring_sizes(a, h, rings):
    if a == 0.0:
        return [round(2.0 * math.pi * i) for i in range(1, rings + 1)]
    return [round(2.0 * math.pi * math.sinh(a * i * h) / (a * h)) for i in range(1, rings + 1)]


def exact_ball_area(a, rho):
    if a == 0.0:
        return math.pi * rho * rho
    return 2.0 * math.pi * (math.cosh(a * rho) - 1.0) / (a * a)


def area_deficit_bound(a, rho, h):
    """Twice the leading-order share of the ball outside its inscribed polygon.

    Each boundary chord of length ~h cuts off a sliver of area ~ k h^3 / 12,
    k the geodesic curvature of the circle: coth(a rho) a, or 1 / rho flat.
    """
    if a == 0.0:
        return 2.0 * h * h / (6.0 * rho * rho)
    c = math.cosh(a * rho)
    return 2.0 * a * a * c * h * h / (12.0 * (c - 1.0))


def geodesic_triangle_areas(disc):
    """Angle defects from the hyperbolic law of cosines; Heron when flat."""
    nf = len(disc.triangles)
    t = disc.triangles
    sides = np.stack(
        [
            geodesic_lengths(disc.vertices[t[:, (c + 1) % 3]], disc.vertices[t[:, (c + 2) % 3]], disc.a)
            for c in range(3)
        ],
        axis=1,
    )
    if disc.a == 0.0:
        p = sides.sum(axis=1) / 2.0
        return np.sqrt(np.maximum(p * np.prod(p[:, None] - sides, axis=1), 0.0))
    x = disc.a * sides
    angles = np.empty((nf, 3))
    for c in range(3):
        b, d = x[:, (c + 1) % 3], x[:, (c + 2) % 3]
        cos = (np.cosh(b) * np.cosh(d) - np.cosh(x[:, c])) / (np.sinh(b) * np.sinh(d))
        angles[:, c] = np.arccos(np.clip(cos, -1.0, 1.0))
    return (math.pi - angles.sum(axis=1)) / disc.a**2


def check_mesh(mesh, a, rho, h):
    """A generated geodesic ball: topology, orientation, rings, edge band, Delaunay, area."""
    _require(float(mesh["curvature"]) == a, f"mesh curvature {mesh['curvature']} != {a}")
    disc = Disc.from_mesh(mesh)
    v, t = disc.vertices, disc.triangles
    _require(bool(np.all(np.isfinite(v))), "non-finite vertex coordinates")
    nv, ne, nf = len(v), len(disc.edges), len(t)
    _require(int(disc.edge_face_counts.max()) <= 2, "an edge has more than two faces")
    _require(nv - ne + nf == 1, f"V - E + F = {nv - ne + nf}, expected 1")
    e1, e2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
    _require(bool(np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0)), "a triangle is not counterclockwise")

    rings = round(rho / h)
    expected = [1] + ring_sizes(a, h, rings)
    _require(nv == sum(expected), f"V = {nv}, ring formula gives {sum(expected)}")
    radii = geodesic_radii(v, a)
    ring = np.rint(radii / h).astype(np.int64)
    off = float(np.abs(radii - ring * h).max())
    _require(off <= RING_SLACK * h, f"a vertex lies {off:.3e} off its ring")
    _require(
        np.array_equal(np.bincount(ring, minlength=rings + 1), expected), "ring populations differ from the formula"
    )

    slack = RING_SLACK * h
    lo, hi = float(disc.lengths.min()), float(disc.lengths.max())
    _require(lo >= h / 2 - slack and hi <= 2 * h + slack, f"edge lengths [{lo:.4g}, {hi:.4g}] leave [h/2, 2h]")
    inner = disc.edge_face_counts == 2
    worst = float((2.0 * disc.star1[inner]).min())
    _require(worst >= COT_FLOOR, f"interior edge with cotangent sum {worst:.3e}")

    exact = exact_ball_area(a, rings * h)
    deficit = (exact - float(geodesic_triangle_areas(disc).sum())) / exact
    bound = area_deficit_bound(a, rings * h, h)
    _require(0.0 < deficit <= bound, f"area deficit {deficit:.3e} outside (0, {bound:.3e}]")
    return disc


def check_truncation(report, radii):
    rows = report["distances"]
    _require([r["R"] for r in rows] == list(radii), "truncation radii differ from the request")
    dist = np.array([r["distance"] for r in rows], dtype=float)
    _require(bool(np.all(np.isfinite(dist)) and np.all(dist > 0.0)), "truncation distance not finite and positive")
    _require(bool(np.all(np.diff(dist) < 0.0)), f"truncation distances {dist.tolist()} not decreasing in R")


def check_tensor_report(report, max_dim, trials, seed):
    _require(report["all_passed"] is True, "the exact suite reports a failure")
    _require((report["max_dim"], report["trials"], report["seed"]) == (max_dim, trials, seed), "report echoes other settings")
    pairs = [(r["N"], r["k"]) for r in report["results"]]
    wanted = [(n, k) for n in range(2, max_dim + 1) for k in range(n + 1)]
    _require(sorted(pairs) == wanted, f"{len(pairs)} (N, k) pairs, expected {len(wanted)}")
    for r in report["results"]:
        n, k = r["N"], r["k"]
        _require(r["passed"] is True and r["trials"] == trials, f"pair N={n} k={k} did not run {trials} passing trials")
        _require(r["star_sign"] == (-1) ** (n * k + k), f"pair N={n} k={k} has star sign {r['star_sign']}")


def riemann(metric, curvature):
    """R_ijkl = K (g_il g_jk - g_ik g_jl) at the given K, exact."""
    n = len(metric)
    return {
        (i, j, k, l): curvature * (metric[i][l] * metric[j][k] - metric[i][k] * metric[j][l])
        for i, j, k, l in itertools.product(range(n), repeat=4)
    }


def check_weitzenbock(sums, n_dim, degree, curvature, alpha):
    """The curvature sums equal (-K) k (N - k) alpha at every index tuple, exactly."""
    multiple = -Fraction(curvature) * degree * (n_dim - degree)
    for idx in itertools.product(range(n_dim), repeat=degree):
        want = multiple * alpha.get(idx, Fraction(0))
        _require(sums.get(idx, Fraction(0)) == want, f"Weitzenbock sum at {idx} differs from (-K) k (N - k) alpha")
