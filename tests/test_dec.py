import numpy as np
import pytest
import scipy.sparse as sp

import hodgedec as hd
from hodgedec import dec
from hodgedec.errors import ConfigError, ConvergenceError, DegreeError, MeshQualityError
from hodgedec.forms import coordinate_form
from hodgedec.simplicial import Cochain

from conftest import make_lattice_mesh, make_rhombus_mesh, make_triangle_mesh

COT60 = 0.5773502691896258
INV_EQUILATERAL_AREA = 2.3094010767585034  # 1 / (sqrt(3)/4)
DX_NORM_SQ_RHO3 = 2.5738860042923556  # pi * tanh(1.5)^2


def setup(mesh):
    cx = hd.build_complex(mesh)
    return cx, hd.assemble_stars(mesh, cx)


class TestStarWeights:
    def test_shared_equilateral_edge(self):
        mesh = make_rhombus_mesh()
        cx, stars = setup(mesh)
        shared = [e for e, (i, j) in enumerate(cx.edges) if (i, j) == (0, 1)]
        assert stars.star1[shared[0]] == pytest.approx(COT60, rel=1e-12)

    def test_unit_equilateral_face_weight(self):
        mesh = make_triangle_mesh()
        _, stars = setup(mesh)
        assert stars.star2[0] == pytest.approx(INV_EQUILATERAL_AREA, rel=1e-12)

    def test_vertex_areas_partition_faces(self, discretize):
        for key in [(0.0, 1.0, 0.2), (1.0, 2.0, 0.1)]:
            _, _, stars = discretize(*key)
            total = stars.face_areas.sum()
            assert stars.star0.sum() == pytest.approx(total, rel=1e-9)

    def test_all_weights_positive(self, discretize):
        _, _, stars = discretize(1.0, 3.0, 0.1)
        assert stars.star0.min() > 0
        assert stars.star1.min() > 0
        assert stars.star2.min() > 0

    def test_right_angle_grid_rejected(self):
        # a square-grid split puts cot(pi/2) = 0 on every diagonal
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = hd.TriMesh(verts, tris, 0.0)
        with pytest.raises(MeshQualityError):
            setup(mesh)


class TestCodifferential:
    def test_degree_zero_rejected(self, discretize):
        _, cx, stars = discretize(0.0, 1.0, 0.2)
        with pytest.raises(DegreeError):
            hd.codifferential(Cochain(0, np.zeros(cx.num_vertices)), cx, stars)

    def test_continuum_sign_surface_one_forms(self):
        # (-1)^(N k + N + 1) at N=2, k=1: the coordinate formula d* = -star d star
        assert dec.continuum_codifferential_sign(2, 1) == -1
        assert dec.continuum_codifferential_sign(3, 1) == -1
        assert dec.continuum_codifferential_sign(2, 2) == -1

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_adjointness(self, discretize, rng, a):
        _, cx, stars = discretize(a, 1.0, 0.1)
        for k in (1, 2):
            for _ in range(20):
                u = hd.interior_restriction(
                    Cochain(k - 1, rng.standard_normal(cx.simplex_count(k - 1))), cx
                )
                v = hd.interior_restriction(
                    Cochain(k, rng.standard_normal(cx.simplex_count(k))), cx
                )
                du = hd.apply_d(u, cx)
                dv = hd.codifferential(v, cx, stars)
                lhs = dec.inner(du, v, "l2", cx, stars)
                rhs = dec.inner(u, dv, "l2", cx, stars)
                scale = dec.norm(du, "l2", cx, stars) * dec.norm(v, "l2", cx, stars)
                assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


class TestInnerProducts:
    def test_h1_coefficient_at_curvature_one(self, discretize, rng):
        # [u,u] = 2 (u,u) + |du|^2 + |delta u|^2 since c = a^2 k (N-k) = 1
        _, cx, stars = discretize(1.0, 1.0, 0.2)
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        h1 = "h1"
        l2 = "l2"
        du = hd.apply_d(u, cx)
        su = hd.codifferential(u, cx, stars)
        manual = (
            2.0 * dec.inner(u, u, l2, cx, stars)
            + float(np.dot(du.values, (stars.star2 * cx.interior_faces) * du.values))
            + float(np.dot(su.values, (stars.star0 * cx.interior_vertices) * su.values))
        )
        assert dec.inner(u, u, h1, cx, stars) == pytest.approx(manual, rel=1e-13)
        assert dec.curvature_constant(stars.curvature, 1) == 1.0

    def test_flat_h1_reduces_to_curl_div_form(self, discretize, rng):
        _, cx, stars = discretize(0.0, 1.0, 0.2)
        h1 = "h1"
        assert dec.curvature_constant(stars.curvature, 1) == 0.0
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        v = Cochain(1, rng.standard_normal(cx.num_edges))
        l2 = "l2"
        du, dv = hd.apply_d(u, cx), hd.apply_d(v, cx)
        su, sv = hd.codifferential(u, cx, stars), hd.codifferential(v, cx, stars)
        manual = (
            dec.inner(u, v, l2, cx, stars)
            + float(np.dot(du.values, (stars.star2 * cx.interior_faces) * dv.values))
            + float(np.dot(su.values, (stars.star0 * cx.interior_vertices) * sv.values))
        )
        assert dec.inner(u, v, h1, cx, stars) == pytest.approx(manual, rel=1e-12)

    def test_degenerate_degree_constants(self):
        assert dec.curvature_constant(2.0, 0) == 0.0
        assert dec.curvature_constant(2.0, 2) == 0.0

    def test_degree_mismatch_rejected(self, discretize):
        _, cx, stars = discretize(0.0, 1.0, 0.2)
        with pytest.raises(DegreeError):
            dec.inner(
                Cochain(0, np.zeros(cx.num_vertices)),
                Cochain(1, np.zeros(cx.num_edges)),
                "l2",
                cx,
                stars,
            )

    def test_unknown_space_rejected(self, discretize):
        _, cx, stars = discretize(0.0, 1.0, 0.2)
        u = Cochain(1, np.zeros(cx.num_edges))
        for space in ("h2", "H1", ""):
            with pytest.raises(ConfigError, match="space"):
                dec.inner(u, u, space, cx, stars)

    def test_h1_dominates_l2(self, discretize, rng):
        _, cx, stars = discretize(1.0, 1.0, 0.2)
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        h1 = "h1"
        l2 = "l2"
        uu = dec.inner(u, u, l2, cx, stars)
        assert dec.inner(u, u, h1, cx, stars) >= uu > 0

    def test_sampled_dx_l2_norm(self, discretize):
        mesh, cx, stars = discretize(1.0, 3.0, 0.1)
        dx = coordinate_form(mesh, cx)
        l2 = "l2"
        assert dec.inner(dx, dx, l2, cx, stars) == pytest.approx(DX_NORM_SQ_RHO3, rel=0.02)


def dense_laplacian_oracle(mesh, cx, stars):
    """Dense 0-form Laplacian assembled corner by corner, independent path."""
    V = mesh.vertices
    n = cx.num_vertices
    W = np.zeros((n, n))
    for (i, j, k) in map(tuple, mesh.triangles):
        for (a, b, c) in [(i, j, k), (j, k, i), (k, i, j)]:
            # cotangent at corner c, opposite edge (a, b)
            u = V[a] - V[c]
            w = V[b] - V[c]
            cot = float(np.dot(u, w) / abs(u[0] * w[1] - u[1] * w[0]))
            W[a, b] += 0.5 * cot
            W[b, a] += 0.5 * cot
    L = np.diag(W.sum(axis=1)) - W
    return np.diag(1.0 / stars.star0) @ L


class TestLaplacians:
    def test_constant_in_kernel(self, discretize):
        _, cx, stars = discretize(1.0, 1.0, 0.2)
        out = hd.hodge_laplacian(Cochain(0, np.ones(cx.num_vertices)), cx, stars)
        assert np.abs(out.values).max() < 1e-12

    def test_matches_dense_cotangent_oracle(self, rng):
        mesh = make_lattice_mesh()
        cx, stars = setup(mesh)
        assert cx.num_vertices <= 25
        L = dense_laplacian_oracle(mesh, cx, stars)
        f = rng.standard_normal(cx.num_vertices)
        ours = hd.hodge_laplacian(Cochain(0, f), cx, stars).values
        np.testing.assert_allclose(ours, L @ f, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_l2_self_adjoint(self, discretize, rng, k):
        _, cx, stars = discretize(1.0, 1.0, 0.1)
        l2 = "l2"
        n = cx.simplex_count(k)
        u, v = Cochain(k, rng.standard_normal(n)), Cochain(k, rng.standard_normal(n))
        lu, lv = hd.hodge_laplacian(u, cx, stars), hd.hodge_laplacian(v, cx, stars)
        lhs = dec.inner(lu, v, l2, cx, stars)
        rhs = dec.inner(u, lv, l2, cx, stars)
        scale = dec.norm(lu, l2, cx, stars) * dec.norm(v, l2, cx, stars)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    def test_bochner_shifts_by_curvature_constant(self, discretize, rng):
        _, cx, stars = discretize(1.0, 1.0, 0.2)
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        lap = hd.hodge_laplacian(u, cx, stars)
        boc = hd.bochner(u, cx, stars)
        scale = np.abs(lap.values).max() + np.abs(u.values).max()
        np.testing.assert_allclose(
            boc.values - lap.values,
            dec.curvature_constant(1.0, 1) * u.values,
            atol=1e-12 * scale,
        )

    def test_bochner_on_harmonic_remainder(self, discretize):
        # for gamma with d gamma = delta gamma = 0 on the test region, the
        # rough Laplacian reduces to c * gamma there
        mesh, cx, stars = discretize(1.0, 2.0, 0.1)
        dx = coordinate_form(mesh, cx)
        split = hd.decompose(dx, "h1", cx, stars)
        gamma = split.gamma
        boc = hd.bochner(gamma, cx, stars)
        rho = hd.radial_distance(mesh.vertices, 1.0)
        deep = (rho[cx.edges[:, 0]] < 2.0 - 0.25) & (rho[cx.edges[:, 1]] < 2.0 - 0.25)
        resid = boc.values[deep] - dec.curvature_constant(1.0, 1) * gamma.values[deep]
        assert np.abs(resid).max() <= 1e-6 * np.abs(gamma.values).max()


class TestSampledHarmonicForm:
    def test_exactly_closed(self, discretize):
        mesh, cx, stars = discretize(1.0, 2.0, 0.1)
        dx = coordinate_form(mesh, cx)
        ddx = hd.apply_d(dx, cx)
        assert np.abs(ddx.values).max() < 1e-14

    def test_interior_divergence_shrinks_linearly(self, discretize):
        from hodgedec.hodge import _interior_l2_norm

        norms = {}
        for h in (0.2, 0.1):
            mesh, cx, stars = discretize(1.0, 2.0, h)
            dx = coordinate_form(mesh, cx)
            l2 = "l2"
            norms[h] = _interior_l2_norm(
                hd.codifferential(dx, cx, stars), cx, stars
            ) / dec.norm(dx, l2, cx, stars)
        # O(h) or better
        assert norms[0.1] <= 0.75 * norms[0.2]


class TestSolver:
    def test_identity(self, rng):
        b = rng.standard_normal(10)
        res = dec.solve_spd(sp.identity(10, format="csr"), b)
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    def test_hand_solved_2x2(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        res = dec.solve_spd(A, np.array([3.0, 3.0]))
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_against_dense_oracle(self, rng):
        m = rng.standard_normal((50, 50))
        A = m @ m.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        expected = np.linalg.solve(A, b)
        res = dec.solve_spd(sp.csr_matrix(A), b, tol=1e-12)
        assert np.linalg.norm(res.x - expected) <= 1e-8 * np.linalg.norm(expected)
        assert res.residual <= 1e-12

    def test_zero_rhs(self):
        res = dec.solve_spd(sp.identity(5, format="csr"), np.zeros(5))
        assert np.all(res.x == 0.0) and res.iterations == 0

    def test_budget_exhaustion_reports_residual(self, rng, monkeypatch):
        m = rng.standard_normal((40, 40))
        A = sp.csr_matrix(m @ m.T + 0.01 * np.eye(40))
        monkeypatch.setattr(dec, "MAX_CG_ITERATIONS", 2)
        with pytest.raises(ConvergenceError) as err:
            dec.solve_spd(A, rng.standard_normal(40))
        assert err.value.iterations == 2
        assert err.value.residual > 0

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 1.0, float("inf")])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ConfigError, match="tolerance"):
            dec.solve_spd(sp.identity(3, format="csr"), np.ones(3), tol=tol)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("b", [[1e200, 1e200], [np.inf, 0.0], [np.nan, 1.0]])
    def test_non_finite_rhs_norm_rejected(self, b):
        # |b| overflows for the first case although every entry is finite
        with pytest.raises(ConfigError, match="not finite"):
            dec.solve_spd(sp.identity(2, format="csr"), np.array(b))

    def test_deterministic_repeat(self, rng):
        m = rng.standard_normal((30, 30))
        A = sp.csr_matrix(m @ m.T + 5 * np.eye(30))
        b = rng.standard_normal(30)
        r1 = dec.solve_spd(A, b)
        r2 = dec.solve_spd(A, b)
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations
