"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The full suite takes a few minutes on a laptop.
"""

import numpy as np
import pytest

import hodgedec as hd
from hodgedec import dec, weitzenbock
from hodgedec.forms import builtin_form, coordinate_form
from hodgedec.geometry import edge_table, pairwise_distances
from hodgedec.simplicial import Cochain

from test_hodge import dense_split_oracle, interior_potentials

MESH_GRID = [
    (a, rho, h) for a in (0.0, 1.0) for rho in (1.0, 3.0) for h in (0.2, 0.1, 0.05)
]

DX_NORM_SQ_TARGET = 2.5738860042923556  # pi * tanh(1.5)^2


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def grid(discretize):
    return {key: discretize(*key) for key in MESH_GRID}


@pytest.fixture(scope="module")
def dx_levels(discretize):
    """H1 decompositions of the sampled harmonic form at three resolutions."""
    out = {}
    space = "h1"
    for h in (0.2, 0.1, 0.05):
        disc = discretize(1.0, 3.0, h)
        mesh, cx = disc.mesh, disc.cx
        alpha = coordinate_form(mesh, cx)
        split = hd.decompose(alpha, space, disc)
        out[h] = (disc, alpha, split)
    return out


@pytest.fixture(scope="module")
def mixed_run(discretize):
    disc = discretize(1.0, 3.0, 0.1)
    mesh, cx = disc.mesh, disc.cx
    space = "h1"
    alpha = builtin_form("mixed", mesh, cx, disc, seed=7)
    split = hd.decompose(alpha, space, disc)
    return disc, alpha, split


def test_criterion_1_simplicial_identity(grid):
    worst = 0
    for disc in grid.values():
        cx = disc.cx
        prod = cx.d1 @ cx.d0  # integer matrices: the product is exact
        prod.eliminate_zeros()
        worst = max(worst, prod.nnz)
    report(1, worst == 0, f"d1@d0 = 0 exactly on all {len(grid)} meshes")


def test_criterion_2_exact_symbolic_suite():
    rep = weitzenbock.run_verification(max_dim=5, trials=50, seed=2024)
    pairs = len(rep["results"])
    report(
        2,
        rep["all_passed"] and pairs == 18,
        f"{pairs} (N,k) pairs x 50 exact trials (Riemann, Ricci, sums, star signs)",
    )


def test_criterion_3_adjointness(grid):
    worst = 0.0
    rng = np.random.default_rng(333)
    for disc in grid.values():
        cx = disc.cx
        counts = (cx.num_vertices, cx.num_edges, cx.num_faces)
        interior = (cx.interior_vertices, cx.interior_edges, cx.interior_faces)
        for k in (1, 2):
            nu, nv = counts[k - 1], counts[k]
            for _ in range(100):
                u = Cochain(k - 1, np.where(interior[k - 1], rng.standard_normal(nu), 0.0))
                v = Cochain(k, np.where(interior[k], rng.standard_normal(nv), 0.0))
                du = hd.apply_d(u, cx)
                lhs = dec.inner(du, v, "l2", disc)
                rhs = dec.inner(u, hd.codifferential(v, disc), "l2", disc)
                scale = dec.norm(du, "l2", disc) * dec.norm(v, "l2", disc)
                if scale > 0:
                    worst = max(worst, abs(lhs - rhs) / scale)
    report(3, worst <= 1e-12, f"max |(du,v)-(u,dv*)| / (|du||v|) = {worst:.2e} <= 1e-12")


def test_criterion_4_dense_oracle(discretize):
    rng = np.random.default_rng(44)
    worst = 0.0
    sizes = []
    for key in [(1.0, 0.6, 0.2), (0.0, 0.5, 0.16)]:
        disc = discretize(*key)
        cx = disc.cx
        total = cx.num_vertices + cx.num_edges + cx.num_faces
        sizes.append(total)
        assert total <= 200
        alpha = Cochain(1, rng.standard_normal(cx.num_edges))
        for tag in ("l2", "h1"):
            split = hd.decompose(alpha, tag, disc, tol=1e-12)
            exact, coexact, gamma = dense_split_oracle(alpha, tag, disc)
            scale = np.linalg.norm(alpha.values)
            errs = [
                np.linalg.norm((cx.d0 @ split.beta.values) - exact),
                np.linalg.norm(dec.codifferential(split.omega, disc).values - coexact),
                np.linalg.norm(split.gamma.values - gamma),
            ]
            worst = max(worst, max(errs) / scale)
    report(
        4,
        worst <= 1e-8,
        f"sparse vs dense-projection oracle on meshes of {sizes} simplices: "
        f"max component error {worst:.2e} <= 1e-8 (l2 and h1)",
    )


def test_criterion_5_decomposition_structure(mixed_run):
    _, alpha, split = mixed_run
    d = split.diagnostics
    ok = (
        d["reconstruction_residual"] <= 1e-8
        and d["orthogonality"]["defect"] <= 1e-8
        and d["pythagoras_defect"] <= 1e-6
    )
    report(
        5,
        ok,
        f"builtin:mixed (a=1, rho=3, h=0.1): recon={d['reconstruction_residual']:.1e}, "
        f"ortho={d['orthogonality']['defect']:.1e}, pythagoras={d['pythagoras_defect']:.1e}",
    )


def test_criterion_6_harmonic_regression(dx_levels):
    disc, alpha, split = dx_levels[0.05]
    cx = disc.cx
    l2 = "l2"
    norm_sq = dec.inner(alpha, alpha, l2, disc)
    norm_ok = abs(norm_sq - DX_NORM_SQ_TARGET) <= 0.02 * DX_NORM_SQ_TARGET

    frac = split.diagnostics["norm_gamma"] ** 2 / split.diagnostics["norm_alpha"] ** 2
    frac_ok = frac >= 0.90

    # refinement trend of the sampled form's closedness, tested against
    # compact supports: d(dx) vanishes identically by exact line integration,
    # the interior divergence must strictly decrease
    d_res, s_res = {}, {}
    for h, (d_h, a_h, _) in dx_levels.items():
        n = dec.norm(a_h, "l2", d_h)
        d_a, s_a = hd.apply_d(a_h, d_h.cx), dec.codifferential(a_h, d_h)
        d_res[h] = np.sqrt(dec.interior_inner(d_a, d_a, d_h)) / n
        s_res[h] = np.sqrt(dec.interior_inner(s_a, s_a, d_h)) / n
    closed_ok = all(v <= 1e-12 for v in d_res.values())
    trend_ok = s_res[0.2] > s_res[0.1] > s_res[0.05]

    report(
        6,
        norm_ok and frac_ok and closed_ok and trend_ok,
        f"|dx|^2={norm_sq:.4f} (target {DX_NORM_SQ_TARGET:.4f}, 2%), "
        f"gamma fraction={frac:.4f} >= 0.9, d-residual exactly 0 "
        f"(max {max(d_res.values()):.1e}), delta-residual "
        f"{s_res[0.2]:.3e} > {s_res[0.1]:.3e} > {s_res[0.05]:.3e}",
    )


def test_criterion_7_energy_bound(dx_levels, mixed_run, discretize):
    ratios = []
    # every decomposed gamma at a = 1 from the regression runs
    for h, (d_h, _, split) in dx_levels.items():
        rep = hd.harmonic_diagnostics(split.gamma, d_h)
        ratios.append((f"dx h={h}", rep["bound_ratio"]))
    d_mixed, _, split = mixed_run
    rep = hd.harmonic_diagnostics(split.gamma, d_mixed)
    ratios.append(("mixed h=0.1", rep["bound_ratio"]))
    bound_ok = all(r <= (1 + 0.1) / 2 + 1e-9 for _, r in ratios)  # E <= 2c|g|^2 (1+eps)/...

    # exactly one-sided inputs: the corresponding energy term drops out exactly
    disc = discretize(1.0, 1.0, 0.1)
    cx = disc.cx
    rng = np.random.default_rng(77)
    beta0, omega0 = interior_potentials(cx, rng)
    closed = hd.apply_d(beta0, cx)  # exactly closed
    coclosed = dec.codifferential(omega0, disc)  # exactly co-closed
    rep_c = hd.harmonic_diagnostics(closed, disc)
    rep_cc = hd.harmonic_diagnostics(coclosed, disc)
    exact_ok = rep_c["d_residual"] <= 1e-12 and rep_cc["delta_residual"] <= 1e-12

    # the decomposed gammas are exactly closed and co-closed on the test
    # region, so their energy sits at the half bound c |gamma|^2
    half_ok = all(abs(r - 0.5) <= 1e-6 for _, r in ratios)

    worst = max(r for _, r in ratios)
    report(
        7,
        bound_ok and exact_ok and half_ok,
        f"E(gamma) <= 2c|gamma|^2 (1+0.1): max ratio {worst:.6f} (= half bound); "
        f"one-sided exact inputs reduce exactly "
        f"(d-res {rep_c['d_residual']:.1e}, delta-res {rep_cc['delta_residual']:.1e})",
    )


def test_criterion_8_stream_constructive(discretize):
    worst_res = 0.0
    worst_f = 0.0
    n_runs = 0
    for key in [(0.0, 1.0, 0.2), (0.0, 1.0, 0.1), (1.0, 1.0, 0.2), (1.0, 1.0, 0.1)]:
        disc = discretize(*key)
        cx = disc.cx
        for seed in range(20):
            rng = np.random.default_rng(seed)
            omega0 = Cochain(
                2, np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0)
            )
            v = hd.codifferential(omega0, disc)
            res = hd.stream_function(v, disc)
            worst_res = max(worst_res, res.residual)
            fmax = max(np.abs(res.f).max(), 1.0)
            worst_f = max(worst_f, np.abs(res.f[~cx.interior_faces]).max() / fmax)
            n_runs += 1
    report(
        8,
        worst_res <= 1e-10 and worst_f <= 1e-10,
        f"{n_runs} seeded co-closed inputs: max reconstruction residual "
        f"{worst_res:.1e} <= 1e-10, boundary stream values {worst_f:.1e}",
    )


def test_criterion_9_cutoff_and_truncation(discretize):
    disc = discretize(1.0, 6.0, 0.15)
    mesh, cx = disc.mesh, disc.cx
    radii = (1.5, 2.0, 2.5)
    edges, _, _ = edge_table(mesh.triangles, mesh.num_vertices)
    lengths = pairwise_distances(mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]], mesh.curvature)
    slope_ok = True
    worst_slope = 0.0
    for R in radii:
        assert 0.15 <= R / 10  # the regime h <= R/10 the bound is stated for
        phi = hd.cutoff_cochain(mesh, R).values
        slopes = np.abs(phi[edges[:, 1]] - phi[edges[:, 0]]) / lengths
        worst_slope = max(worst_slope, slopes.max() * R / 2.0)
        slope_ok = slope_ok and slopes.max() <= 2.0 / R + 1e-12
    gamma = coordinate_form(mesh, cx)
    space = "h1"
    dists = [hd.truncation_distance(gamma, R, space, disc) for R in radii]
    trend_ok = dists[0] > dists[1] > dists[2]
    report(
        9,
        slope_ok and trend_ok,
        f"slope * R/2 <= {worst_slope:.3f} <= 1 on rho=6 mesh; truncation distances "
        f"{dists[0]:.4f} > {dists[1]:.4f} > {dists[2]:.4f} for R in {radii}",
    )


def cutoff_dx_form(mesh, cx, scale=0.9):
    """Compactly supported smooth 1-form: cutoff(rho/scale) times dx, edge
    integrals by Gauss quadrature (support rho <= 2 * scale = 1.8)."""
    V = mesh.vertices
    nodes, weights = np.polynomial.legendre.leggauss(8)
    e0, e1 = V[cx.edges[:, 0]], V[cx.edges[:, 1]]
    vals = np.zeros(cx.num_edges)
    for t, w in zip(nodes, weights):
        pt = 0.5 * (e0 + e1) + 0.5 * t * (e1 - e0)
        chi = hd.cutoff_profile(np.hypot(pt[:, 0], pt[:, 1]) / scale)
        vals += w * chi * 0.5 * (e1 - e0)[:, 0]
    return Cochain(1, vals)


def test_criterion_10_euclidean_regression(discretize):
    l2 = "l2"
    h1 = "h1"
    rels, absolutes = {}, {}
    for rho in (2.0, 3.0, 4.0):
        disc = discretize(0.0, rho, 0.1)
        mesh, cx = disc.mesh, disc.cx
        rng = np.random.default_rng(1010)
        beta0, omega0 = interior_potentials(cx, rng)
        parts = [
            cutoff_dx_form(mesh, cx),
            hd.apply_d(beta0, cx),
            dec.codifferential(omega0, disc),
        ]
        total = np.zeros(cx.num_edges)
        for p in parts:
            total += p.values / dec.norm(p, l2, disc)
        alpha = Cochain(1, total)
        split = hd.decompose(alpha, l2, disc, tol=1e-12)
        g_h1 = dec.norm(split.gamma, h1, disc)
        rels[rho] = g_h1 / dec.norm(alpha, h1, disc)
        absolutes[rho] = g_h1
    bound_ok = all(v <= 0.05 for v in rels.values())
    trend_ok = absolutes[2.0] > absolutes[3.0] > absolutes[4.0]
    report(
        10,
        bound_ok and trend_ok,
        f"compact mixed inputs on the flat disk: |gamma|_H1/|alpha|_H1 <= "
        f"{max(rels.values()):.4f} <= 0.05; remainder "
        f"{absolutes[2.0]:.4f} > {absolutes[3.0]:.4f} > {absolutes[4.0]:.4f} "
        f"as rho grows 2 -> 4",
    )
