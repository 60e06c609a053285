import math

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
            stars = discretize(*key).stars
            total = stars.face_areas.sum()
            assert stars.star0.sum() == pytest.approx(total, rel=1e-9)

    def test_all_weights_positive(self, discretize):
        stars = discretize(1.0, 3.0, 0.1).stars
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
        disc = discretize(0.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        with pytest.raises(DegreeError):
            hd.codifferential(Cochain(0, np.zeros(cx.num_vertices)), cx, stars)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_adjointness(self, discretize, rng, a):
        disc = discretize(a, 1.0, 0.1)
        cx, stars = disc.cx, disc.stars
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
        disc = discretize(1.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
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
        disc = discretize(0.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
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
        disc = discretize(0.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        with pytest.raises(DegreeError):
            dec.inner(
                Cochain(0, np.zeros(cx.num_vertices)),
                Cochain(1, np.zeros(cx.num_edges)),
                "l2",
                cx,
                stars,
            )

    def test_unknown_space_rejected(self, discretize):
        disc = discretize(0.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        u = Cochain(1, np.zeros(cx.num_edges))
        for space in ("h2", "H1", ""):
            with pytest.raises(ConfigError, match="space"):
                dec.inner(u, u, space, cx, stars)

    def test_h1_norm_takes_each_derivative_once(self, discretize, rng, monkeypatch):
        disc = discretize(1.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        calls = {"apply_d": 0, "codifferential": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(dec, name, counted(name, getattr(dec, name)))
        norm = dec.norm(u, "h1", cx, stars)
        assert calls == {"apply_d": 1, "codifferential": 1}
        # a distinct but equal v takes both derivatives of both arguments, to the same bits
        assert norm == math.sqrt(dec.inner(u, Cochain(1, u.values.copy()), "h1", cx, stars))
        assert calls == {"apply_d": 3, "codifferential": 3}

    def test_h1_dominates_l2(self, discretize, rng):
        disc = discretize(1.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        u = Cochain(1, rng.standard_normal(cx.num_edges))
        h1 = "h1"
        l2 = "l2"
        uu = dec.inner(u, u, l2, cx, stars)
        assert dec.inner(u, u, h1, cx, stars) >= uu > 0

    def test_sampled_dx_l2_norm(self, discretize):
        disc = discretize(1.0, 3.0, 0.1)
        mesh, cx, stars = disc.mesh, disc.cx, disc.stars
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


def laplacian(c, cx, stars):
    """delta d + d delta, the terms that leave degrees 0..2 dropped."""
    out = np.zeros_like(c.values)
    if c.degree < 2:
        out += dec.codifferential(hd.apply_d(c, cx), cx, stars).values
    if c.degree > 0:
        out += hd.apply_d(dec.codifferential(c, cx, stars), cx).values
    return Cochain(c.degree, out)


class TestLaplacians:
    def test_constant_in_kernel(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        cx, stars = disc.cx, disc.stars
        out = laplacian(Cochain(0, np.ones(cx.num_vertices)), cx, stars)
        assert np.abs(out.values).max() < 1e-12

    def test_matches_dense_cotangent_oracle(self, rng):
        mesh = make_lattice_mesh()
        cx, stars = setup(mesh)
        assert cx.num_vertices <= 25
        L = dense_laplacian_oracle(mesh, cx, stars)
        f = rng.standard_normal(cx.num_vertices)
        ours = laplacian(Cochain(0, f), cx, stars).values
        np.testing.assert_allclose(ours, L @ f, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_l2_self_adjoint(self, discretize, rng, k):
        disc = discretize(1.0, 1.0, 0.1)
        cx, stars = disc.cx, disc.stars
        l2 = "l2"
        n = cx.simplex_count(k)
        u, v = Cochain(k, rng.standard_normal(n)), Cochain(k, rng.standard_normal(n))
        lu, lv = laplacian(u, cx, stars), laplacian(v, cx, stars)
        lhs = dec.inner(lu, v, l2, cx, stars)
        rhs = dec.inner(u, lv, l2, cx, stars)
        scale = dec.norm(lu, l2, cx, stars) * dec.norm(v, l2, cx, stars)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    def test_laplacian_vanishes_on_harmonic_remainder(self, discretize):
        # gamma is closed and co-closed on the test region, so delta d gamma
        # + d delta gamma vanishes on the edges well inside it
        disc = discretize(1.0, 2.0, 0.1)
        mesh, cx, stars = disc.mesh, disc.cx, disc.stars
        dx = coordinate_form(mesh, cx)
        gamma = hd.decompose(dx, "h1", disc).gamma
        lap = laplacian(gamma, cx, stars)
        rho = hd.radial_distance(mesh.vertices, 1.0)
        deep = (rho[cx.edges[:, 0]] < 2.0 - 0.25) & (rho[cx.edges[:, 1]] < 2.0 - 0.25)
        assert np.abs(lap.values[deep]).max() <= 1e-6 * np.abs(gamma.values).max()


class TestSampledHarmonicForm:
    def test_exactly_closed(self, discretize):
        disc = discretize(1.0, 2.0, 0.1)
        mesh, cx = disc.mesh, disc.cx
        dx = coordinate_form(mesh, cx)
        ddx = hd.apply_d(dx, cx)
        assert np.abs(ddx.values).max() < 1e-14

    def test_interior_divergence_shrinks_linearly(self, discretize):
        norms = {}
        for h in (0.2, 0.1):
            disc = discretize(1.0, 2.0, h)
            mesh, cx, stars = disc.mesh, disc.cx, disc.stars
            dx = coordinate_form(mesh, cx)
            l2 = "l2"
            div = hd.codifferential(dx, cx, stars)
            norms[h] = math.sqrt(dec.interior_inner(div, div, cx, stars)) / dec.norm(
                dx, l2, cx, stars
            )
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

    @pytest.mark.parametrize(
        "A", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]], ids=["singular", "indefinite"]
    )
    def test_breakdown_is_convergence_error(self, A):
        # p.Ap = 0 (singular) or < 0 (indefinite) at the first step
        with pytest.raises(ConvergenceError, match="broke down") as err:
            dec.solve_spd(sp.csr_matrix(np.array(A)), np.array([1.0, -1.0]))
        assert err.value.iterations == 0
        assert err.value.residual == 1.0

    def test_non_positive_diagonal_is_convergence_error(self):
        # like every other not-SPD detection: exit 2 through the CLI, not 1
        with pytest.raises(ConvergenceError, match="non-positive diagonal") as err:
            dec.solve_spd(sp.csr_matrix([[-1.0]]), np.array([1.0]))
        assert (err.value.iterations, err.value.residual) == (0, 1.0)

    def test_rhs_within_floor_builds_nothing(self, rng, monkeypatch):
        def unreachable(A, diag):
            raise AssertionError("hierarchy built for a right-hand side x = 0 already meets")

        monkeypatch.setattr(dec, "_multigrid", unreachable)
        A = positive_band(2000)
        b = 1e-14 * rng.standard_normal(2000)
        res = dec.solve_spd(A, b, residual_floor=1e-12)
        assert np.all(res.x == 0.0)
        assert (res.iterations, res.levels, res.residual) == (0, 0, 1.0)

    def test_large_indefinite_matrix_is_convergence_error(self, rng):
        # a shifted path Laplacian: positive diagonal, negative couplings, so
        # multigrid builds levels, but some eigenvalues are negative
        n = 2000
        A = sp.diags([-np.ones(n - 1), 1.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
        with pytest.raises(ConvergenceError):
            dec.solve_spd(A, rng.standard_normal(n))


def potential_blocks(disc):
    """The vertex and face blocks that `decompose` solves."""
    _, _, P, Q = disc.potential_maps
    s1 = sp.diags(disc.stars.star1)
    return (P.T @ s1 @ P).tocsr(), (Q.T @ s1 @ Q).tocsr()


def with_index_dtype(A, dtype):
    """A copy of a CSR matrix whose index arrays have the given dtype."""
    A = A.copy()
    A.indices, A.indptr = A.indices.astype(dtype), A.indptr.astype(dtype)
    return A


def positive_band(n):
    """5 I plus +1 couplings at offsets 1 and 2: SPD, no negative off-diagonal."""
    off = [np.ones(n - d) for d in (2, 1, 1, 2)]
    return sp.diags([off[0], off[1], 5.0 * np.ones(n), off[2], off[3]], [-2, -1, 0, 1, 2], format="csr")


def path_laplacian(n):
    """A weighted Dirichlet path Laplacian; unequal weights, so couplings rarely tie."""
    w = 1.0 + 0.5 * np.sin(np.arange(n + 1))
    return sp.diags([-w[1:n], w[:n] + w[1:], -w[1:n]], [-1, 0, 1], format="csr")


def path_laplacian_beside_band(n_lap, n_band):
    """A path Laplacian, which coarsens, beside a positive band, which does not."""
    return sp.block_diag([path_laplacian(n_lap), positive_band(n_band)], format="csr")


class TestMultigrid:
    @pytest.fixture(scope="class")
    def blocks(self, discretize):
        return potential_blocks(discretize(1.0, 3.0, 0.1))

    def test_coarse_size_splits_jacobi_from_multigrid(self, rng):
        for n, levels in ((dec.COARSE_SIZE, 0), (dec.COARSE_SIZE + 1, 1)):
            assert dec.solve_spd(path_laplacian(n), rng.standard_normal(n)).levels == levels

    def test_vcycle_is_symmetric_and_positive(self, blocks, rng):
        _, A = blocks
        precondition, levels = dec._multigrid(A, A.diagonal())
        assert levels >= 2
        for _ in range(5):
            u, v = rng.standard_normal((2, A.shape[0]))
            Mu, Mv = precondition(u), precondition(v)
            scale = np.linalg.norm(Mu) * np.linalg.norm(v)
            assert abs(np.dot(Mu, v) - np.dot(u, Mv)) <= 1e-12 * scale
            assert np.dot(u, Mu) > 0.0

    @pytest.mark.parametrize("block", [0, 1], ids=["vertex", "face"])
    def test_agrees_with_direct_solve(self, blocks, rng, block):
        from scipy.sparse.linalg import spsolve

        A = blocks[block]
        b = rng.standard_normal(A.shape[0])
        res = dec.solve_spd(A, b, tol=1e-13)
        assert res.levels >= 2
        expected = spsolve(A.tocsc(), b)
        assert np.linalg.norm(res.x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_repeat_is_bitwise(self, blocks, rng):
        _, A = blocks
        b = rng.standard_normal(A.shape[0])
        r1, r2 = dec.solve_spd(A, b), dec.solve_spd(A, b)
        assert np.array_equal(r1.x, r2.x)
        assert (r1.iterations, r1.levels) == (r2.iterations, r2.levels)

    def test_face_iterations_grow_slowly_under_refinement(self, discretize, rng):
        # Jacobi needs about twice the iterations per halving of h on this block
        its = []
        for h in (0.1, 0.05):
            _, A = potential_blocks(discretize(1.0, 3.0, h))
            its.append(dec.solve_spd(A, rng.standard_normal(A.shape[0])).iterations)
        assert its[1] < 1.5 * its[0]

    @pytest.mark.parametrize(
        "make", [lambda: positive_band(2000), lambda: path_laplacian_beside_band(1800, 200)],
        ids=["positive-band", "laplacian-beside-band"],
    )
    def test_coarsening_stops_where_pairing_stalls(self, make, rng):
        A = make()
        n = A.shape[0]
        b = rng.standard_normal(n)
        res = dec.solve_spd(A, b)
        assert np.linalg.norm(A @ res.x - b) <= 1e-9 * np.linalg.norm(b)
        assert res.levels <= math.log2(n)
        wide = dec.solve_spd(with_index_dtype(A, np.int64), b)
        assert np.array_equal(res.x, wide.x)
        assert (res.iterations, res.levels) == (wide.iterations, wide.levels)

    def test_index_width_does_not_change_the_solve(self, blocks, rng):
        _, A = blocks
        b = rng.standard_normal(A.shape[0])
        narrow = dec.solve_spd(with_index_dtype(A, np.int32), b)
        wide = dec.solve_spd(with_index_dtype(A, np.int64), b)
        assert np.array_equal(narrow.x, wide.x)
        assert (narrow.iterations, narrow.levels) == (wide.iterations, wide.levels)
