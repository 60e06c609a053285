from collections import deque

import numpy as np
import pytest

import hodgedec as hd
from hodgedec import dec
from hodgedec.errors import ConfigError, DomainError, PreconditionError
from hodgedec.forms import builtin_form, coordinate_form
from hodgedec.hodge import _check_edge_values
from hodgedec.simplicial import Cochain

from conftest import counted


# factors that make the squared norms of a unit-size input underflow; a power
# of two scales without rounding
TINY = pytest.mark.parametrize("factor", [2.0**-600, 1e-160, 1e-170], ids=["2**-600", "1e-160", "1e-170"])


def assert_scaled(got, want, factor):
    """got == want * factor: bitwise for a power of two, else within rtol 1e-12."""
    want = np.asarray(want) * factor
    if factor == 2.0**-600:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


def interior_potentials(cx, rng):
    beta = Cochain(0, np.where(cx.interior_vertices, rng.standard_normal(cx.num_vertices), 0.0))
    omega = Cochain(2, np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0))
    return beta, omega


def dense_split_oracle(alpha, space, disc):
    """Brute-force orthogonal projection: explicit basis, dense Gram solve.

    Independent of the sparse path: inner products are reassembled here from
    the raw star arrays and incidence matrices.
    """
    cx = disc.cx
    s0, s1, s2 = disc.star0, disc.star1, disc.star2
    m0 = s0 * cx.interior_vertices
    m2 = s2 * cx.interior_faces
    d0 = cx.d0.toarray().astype(float)
    d1 = cx.d1.toarray().astype(float)
    c = disc.curvature**2  # a^2 k (N - k) at k = 1, N = 2

    # delta on 1-forms and 2-forms as dense matrices
    delta1 = np.diag(1.0 / s0) @ d0.T @ np.diag(s1)
    delta2 = np.diag(1.0 / s1) @ d1.T @ np.diag(s2)

    def inner_pair(u, v):
        out = float(u @ (s1 * v))
        if space == "h1":
            out = (1 + c) * out
            out += float((d1 @ u) @ (m2 * (d1 @ v)))
            out += float((delta1 @ u) @ (m0 * (delta1 @ v)))
        return out

    basis = []
    for i in np.flatnonzero(cx.interior_vertices):
        e = np.zeros(cx.num_vertices)
        e[i] = 1.0
        basis.append(d0 @ e)
    n_beta = len(basis)
    for i in np.flatnonzero(cx.interior_faces):
        e = np.zeros(cx.num_faces)
        e[i] = 1.0
        basis.append(delta2 @ e)
    G = np.array([[inner_pair(u, v) for v in basis] for u in basis])
    rhs = np.array([inner_pair(u, alpha.values) for u in basis])
    coef = np.linalg.solve(G, rhs)
    exact = sum(cf * b for cf, b in zip(coef[:n_beta], basis[:n_beta]))
    coexact = sum(cf * b for cf, b in zip(coef[n_beta:], basis[n_beta:]))
    gamma = alpha.values - exact - coexact
    return exact, coexact, gamma


class TestDecompose:
    @pytest.mark.parametrize("tag", ["l2", "h1"])
    def test_exact_input_recovered(self, discretize, rng, tag):
        disc = discretize(1.0, 1.0, 0.1)
        cx = disc.cx
        beta0, _ = interior_potentials(cx, rng)
        alpha = hd.apply_d(beta0, cx)
        split = hd.decompose(alpha, tag, disc)
        d = split.diagnostics
        assert d["norm_gamma"] <= 1e-8 * d["norm_alpha"]
        assert d["norm_coexact"] <= 1e-8 * d["norm_alpha"]

    @pytest.mark.parametrize("tag", ["l2", "h1"])
    def test_coexact_input_recovered(self, discretize, rng, tag):
        disc = discretize(1.0, 1.0, 0.1)
        cx = disc.cx
        _, omega0 = interior_potentials(cx, rng)
        alpha = hd.codifferential(omega0, disc)
        split = hd.decompose(alpha, tag, disc)
        d = split.diagnostics
        assert d["norm_gamma"] <= 1e-8 * d["norm_alpha"]
        assert d["norm_exact"] <= 1e-8 * d["norm_alpha"]

    @pytest.mark.parametrize("tag", ["l2", "h1"])
    @pytest.mark.parametrize("key", [(1.0, 0.6, 0.2), (0.0, 0.5, 0.16)])
    def test_against_dense_oracle(self, discretize, rng, tag, key):
        disc = discretize(*key)
        cx = disc.cx
        total = cx.num_vertices + cx.num_edges + cx.num_faces
        assert total <= 200
        alpha = Cochain(1, rng.standard_normal(cx.num_edges))
        split = hd.decompose(alpha, tag, disc, tol=1e-12)
        exact, coexact, gamma = dense_split_oracle(alpha, tag, disc)
        scale = np.linalg.norm(alpha.values)
        d_beta = cx.d0 @ split.beta.values
        d_omega = dec.codifferential(split.omega, disc).values
        assert np.linalg.norm(d_beta - exact) <= 1e-8 * scale
        assert np.linalg.norm(d_omega - coexact) <= 1e-8 * scale
        assert np.linalg.norm(split.gamma.values - gamma) <= 1e-8 * scale

    def test_reconstruction_and_orthogonality(self, discretize, rng):
        disc = discretize(1.0, 1.5, 0.15)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, disc)
        d = split.diagnostics
        assert d["reconstruction_residual"] <= 10 * 1e-10
        assert d["orthogonality"]["defect"] <= 1e-8
        assert d["pythagoras_defect"] <= 1e-6

    def test_idempotent_on_harmonic_part(self, discretize):
        disc = discretize(1.0, 1.5, 0.15)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, disc)
        again = hd.decompose(split.gamma, space, disc)
        assert again.diagnostics["norm_exact"] <= 1e-6 * split.diagnostics["norm_gamma"]
        assert again.diagnostics["norm_coexact"] <= 1e-6 * split.diagnostics["norm_gamma"]
        drift = np.linalg.norm(again.gamma.values - split.gamma.values)
        assert drift <= 1e-6 * np.linalg.norm(split.gamma.values)

    def test_l2_and_h1_splits_coincide(self, discretize):
        # the interior potentials and the interior-harmonic remainder form a
        # direct sum, so the split does not depend on the chosen metric; the
        # one solve path returns the same bits for both
        disc = discretize(1.0, 1.5, 0.15)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=5)
        s_l2 = hd.decompose(alpha, "l2", disc, tol=1e-12)
        s_h1 = hd.decompose(alpha, "h1", disc, tol=1e-12)
        for part in ("beta", "omega", "gamma"):
            np.testing.assert_array_equal(getattr(s_l2, part).values, getattr(s_h1, part).values)
        assert s_l2.solver == s_h1.solver

    def test_reconstruction_residual_detects_perturbed_gamma(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=5)
        split = hd.decompose(alpha, "l2", disc)
        maps = [M for _, M in hd.hodge._potential_maps(disc).values()]

        def residual(gamma):
            # the larger over the blocks of |M^T star1 gamma| / |(|M|^T star1 |alpha|)|
            return max(
                float(np.linalg.norm(M.T @ (disc.star1 * gamma)))
                / float(np.linalg.norm(abs(M).T @ (disc.star1 * np.abs(alpha.values))))
                for M in maps
            )

        assert residual(split.gamma.values) == split.diagnostics["reconstruction_residual"] <= 1e-9
        bump = 1e-6 * np.abs(alpha.values).max()
        for e in np.flatnonzero(cx.interior_edges)[::7]:
            gamma = split.gamma.values.copy()
            gamma[e] += bump
            assert residual(gamma) > 1e-8

    def test_one_solve_per_block_vertex_first(self, discretize, monkeypatch):
        # the benchmark counts dec.solve_spd calls and names each block by the
        # length of b, its second positional argument
        disc = discretize(1.0, 1.5, 0.15)
        alpha = builtin_form("mixed", disc.mesh, disc.cx, disc, seed=5)
        solve, sizes = dec.solve_spd, []

        def recording(A, b, *args, **kwargs):
            sizes.append(len(b))
            return solve(A, b, *args, **kwargs)

        monkeypatch.setattr(dec, "solve_spd", recording)
        split = hd.decompose(alpha, "h1", disc)
        want = [int(disc.cx.interior_vertices.sum()), int(disc.cx.interior_faces.sum())]
        assert sizes == want
        assert [(name, block["size"]) for name, block in split.solver.items()] == [
            ("vertex", want[0]), ("face", want[1])
        ]

    def test_gamma_interior_harmonic_by_optimality(self, discretize):
        disc = discretize(1.0, 1.5, 0.15)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, disc)
        l2 = "l2"
        scale = dec.norm(split.gamma, l2, disc)
        d_gamma = hd.apply_d(split.gamma, cx)
        s_gamma = dec.codifferential(split.gamma, disc)
        assert np.sqrt(dec.interior_inner(d_gamma, d_gamma, disc)) <= 1e-6 * scale
        assert np.sqrt(dec.interior_inner(s_gamma, s_gamma, disc)) <= 1e-6 * scale

    @TINY
    def test_tiny_input_splits_as_the_input_times_its_factor(self, discretize, factor):
        # unscaled, the norms and conjugate-gradient products of these inputs underflow
        disc = discretize(1.0, 1.5, 0.3)
        alpha = builtin_form("mixed", disc.mesh, disc.cx, disc, seed=1)
        base = hd.decompose(alpha, "h1", disc)
        split = hd.decompose(Cochain(1, alpha.values * factor), "h1", disc)
        for part in ("beta", "omega", "gamma"):
            assert_scaled(getattr(split, part).values, getattr(base, part).values, factor)
        for key in ("norm_alpha", "norm_exact", "norm_coexact", "norm_gamma"):
            assert_scaled(split.diagnostics[key], base.diagnostics[key], factor)

    def test_degenerate_mesh_rejected(self):
        disc = hd.discretize(hd.ball_mesh(0.0, 0.1, 0.1))  # single ring: no interior faces
        with pytest.raises(ConfigError):
            hd.decompose(Cochain(1, np.zeros(disc.cx.num_edges)), "l2", disc)

    def test_dx_gamma_dominates_at_both_radii(self, discretize):
        # the sampled square-integrable harmonic field keeps essentially all
        # of its content at every truncation radius
        for rho in (2.0, 3.0):
            disc = discretize(1.0, rho, 0.2)
            mesh, cx = disc.mesh, disc.cx
            dx = coordinate_form(mesh, cx)
            split = hd.decompose(dx, "h1", disc)
            d = split.diagnostics
            assert d["norm_gamma"] ** 2 / d["norm_alpha"] ** 2 >= 0.9


class TestHarmonicDiagnostics:
    @TINY
    def test_tiny_input_diagnoses_as_the_input(self, discretize, factor):
        # unscaled, |gamma|^2 underflows, so the residuals read 0 or the ratio None
        disc = discretize(1.0, 1.5, 0.3)
        alpha = builtin_form("mixed", disc.mesh, disc.cx, disc, seed=1)
        gamma = hd.decompose(alpha, "h1", disc).gamma
        base = hd.harmonic_diagnostics(gamma, disc)
        rep = hd.harmonic_diagnostics(Cochain(1, gamma.values * factor), disc)
        for key in ("bound_ratio", "d_residual", "delta_residual"):
            if factor == 2.0**-600:
                assert rep[key] == base[key]
            else:  # d gamma and delta gamma are 1e-9 of gamma, so rounding gamma * factor shows
                assert rep[key] == pytest.approx(base[key], rel=1e-5)
        if factor == 2.0**-600:
            assert rep["energy"] == np.ldexp(base["energy"], -1200)

    def test_zero_input_degenerate(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        rep = hd.harmonic_diagnostics(Cochain(1, np.zeros(disc.cx.num_edges)), disc)
        assert rep == {"energy": 0.0, "bound_ratio": None, "d_residual": 0.0, "delta_residual": 0.0}

    def test_coclosed_input_energy_reduces(self, discretize, rng):
        # delta of a 2-cochain is co-closed up to roundoff: the delta term
        # contributes nothing and E = |dv|^2 + c |v|^2
        disc = discretize(1.0, 1.0, 0.1)
        cx = disc.cx
        _, omega0 = interior_potentials(cx, rng)
        v = hd.codifferential(omega0, disc)
        rep = hd.harmonic_diagnostics(v, disc)
        dv = hd.apply_d(v, cx)
        d_sq = dec.interior_inner(dv, dv, disc)
        c, norm_sq = dec.curvature_constant(disc.curvature, 1), dec.inner(v, v, "l2", disc)
        assert rep["delta_residual"] <= 1e-12
        assert rep["energy"] == pytest.approx(d_sq + c * norm_sq, rel=1e-12)

    def test_closed_input_energy_reduces(self, discretize, rng):
        disc = discretize(1.0, 1.0, 0.1)
        cx = disc.cx
        beta0, _ = interior_potentials(cx, rng)
        u = hd.apply_d(beta0, cx)
        rep = hd.harmonic_diagnostics(u, disc)
        su = dec.codifferential(u, disc)
        s_sq = dec.interior_inner(su, su, disc)
        c, norm_sq = dec.curvature_constant(disc.curvature, 1), dec.inner(u, u, "l2", disc)
        assert rep["d_residual"] <= 1e-12
        assert rep["energy"] == pytest.approx(s_sq + c * norm_sq, rel=1e-12)

    def test_harmonic_remainder_sits_at_half_bound(self, discretize):
        disc = discretize(1.0, 2.0, 0.1)
        mesh, cx = disc.mesh, disc.cx
        dx = coordinate_form(mesh, cx)
        space = "h1"
        split = hd.decompose(dx, space, disc)
        rep = hd.harmonic_diagnostics(split.gamma, disc)
        assert rep["bound_ratio"] == pytest.approx(0.5, abs=1e-6)
        assert rep["bound_ratio"] <= 1.0

    def test_flat_harmonic_energy_vanishes(self, discretize):
        # a = 0 and exactly harmonic: all three energy terms vanish
        disc = discretize(0.0, 1.0, 0.1)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=2)
        space = "h1"
        split = hd.decompose(alpha, space, disc)
        rep = hd.harmonic_diagnostics(split.gamma, disc)
        assert dec.curvature_constant(disc.curvature, 1) == 0.0
        assert rep["bound_ratio"] is None
        assert rep["energy"] <= 1e-10 * dec.inner(split.gamma, split.gamma, "l2", disc)


class TestStreamFunction:
    @TINY
    def test_tiny_input_streams_as_the_input_times_its_factor(self, discretize, factor):
        # unscaled, |v| underflows to 0 or the residual to a false 0
        disc = discretize(1.0, 1.5, 0.3)
        v = builtin_form("coexact", disc.mesh, disc.cx, disc, seed=2)
        base = hd.stream_function(v, disc)
        res = hd.stream_function(Cochain(1, v.values * factor), disc)
        assert_scaled(res.f, base.f, factor)
        assert_scaled(res.omega.values, base.omega.values, factor)
        for key in ("residual", "path_defect"):
            got, want = getattr(res, key), getattr(base, key)
            if factor == 2.0**-600:
                assert got == want
            else:  # round-off figures: the rounding of v * factor moves them by up to 66 %
                assert want / 4 <= got <= 4 * want

    def test_zero_input(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        cx = disc.cx
        res = hd.stream_function(Cochain(1, np.zeros(cx.num_edges)), disc)
        assert np.all(res.f == 0.0) and res.residual == 0.0

    def test_roundtrip_coexact(self, discretize, rng):
        disc = discretize(1.0, 1.5, 0.15)
        cx = disc.cx
        for seed in range(5):
            r = np.random.default_rng(seed)
            omega0 = Cochain(2, np.where(cx.interior_faces, r.standard_normal(cx.num_faces), 0.0))
            v = hd.codifferential(omega0, disc)
            res = hd.stream_function(v, disc)
            assert res.residual <= 1e-10
            collar = ~cx.interior_faces
            fmax = np.abs(res.f).max()
            assert np.abs(res.f[collar]).max() <= 1e-10 * max(fmax, 1.0)

    def test_stream_values_recover_potential(self, discretize, rng):
        # star2 * omega = f is the defining relation
        disc = discretize(1.0, 1.0, 0.1)
        cx = disc.cx
        omega0 = Cochain(2, np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0))
        v = hd.codifferential(omega0, disc)
        res = hd.stream_function(v, disc)
        np.testing.assert_allclose(disc.star2 * res.omega.values, res.f, atol=1e-12)

    def test_not_coclosed_names_vertex(self, discretize):
        disc = discretize(0.0, 1.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        bad = Cochain(1, np.where(cx.interior_edges, hd.apply_d(Cochain(0, mesh.vertices[:, 0]), cx).values, 0.0))
        with pytest.raises(PreconditionError, match="vertex"):
            hd.stream_function(bad, disc)

    def test_collar_support_required(self, discretize):
        disc = discretize(0.0, 1.0, 0.2)
        cx = disc.cx
        with pytest.raises(PreconditionError, match="collar"):
            hd.stream_function(Cochain(1, np.ones(cx.num_edges)), disc)

    @pytest.mark.parametrize("ball", [(1.0, 1.5, 0.1), (0.0, 1.5, 0.1)])
    def test_matches_reference_walk(self, discretize, ball):
        disc = discretize(*ball)
        mesh, cx = disc.mesh, disc.cx
        v = builtin_form("coexact", mesh, cx, disc, seed=4)
        f = hd.stream_function(v, disc).f
        ref = reference_stream_values(v, disc)
        assert np.array_equal(f, ref)

    def test_clockwise_faces_match_reference_walk(self, discretize):
        # a clockwise face beside a counterclockwise one has the same d1 sign
        # on their shared edge, so the walk must read both signs
        ball = discretize(1.0, 1.5, 0.15)
        mesh = ball.mesh
        T = np.array(mesh.triangles)
        turned = np.flatnonzero(ball.cx.interior_faces)[::3]
        T[turned] = T[turned][:, [0, 2, 1]]
        disc = hd.discretize(hd.TriMesh(mesh.vertices, T, mesh.curvature))
        assert np.any(np.abs(disc.cx.d1.sum(axis=0)) == 2)
        v = builtin_form("coexact", disc.mesh, disc.cx, disc, seed=4)
        res = hd.stream_function(v, disc)
        assert np.array_equal(res.f, reference_stream_values(v, disc))
        assert res.residual < 1e-12


def reference_stream_values(v, disc):
    """Stream values by a breadth-first walk over per-edge and per-face Python
    lists, marking unvisited faces with NaN: the loop that the tree solve of
    `stream_function` replaced, kept as its reference."""
    cx = disc.cx
    w = disc.star1 * v.values
    face_of_edge = [[] for _ in range(cx.num_edges)]
    d1_coo = cx.d1.tocoo()
    for fidx, eidx, s in zip(d1_coo.row, d1_coo.col, d1_coo.data):
        face_of_edge[eidx].append((int(fidx), int(s)))
    boundary_adjacent = np.flatnonzero(~cx.interior_faces)
    root = int(boundary_adjacent[0]) if boundary_adjacent.size else 0
    f = np.full(cx.num_faces, np.nan)
    f[root] = 0.0
    queue = deque([root])
    incident_edges = [[] for _ in range(cx.num_faces)]
    for eidx, pairs in enumerate(face_of_edge):
        if len(pairs) == 2:
            (fa, sa), (fb, sb) = pairs
            incident_edges[fa].append((eidx, fb, sa, sb))
            incident_edges[fb].append((eidx, fa, sb, sa))
    while queue:
        cur = queue.popleft()
        for eidx, other, s_cur, s_other in incident_edges[cur]:
            if np.isnan(f[other]):
                f[other] = (w[eidx] - s_cur * f[cur]) * s_other  # s_cur f[cur] + s_other f[other] = w[e]
                queue.append(other)
    assert not np.any(np.isnan(f))
    return f - f[root]


def _coexact_with_nan(discretize):
    disc = discretize(1.0, 1.0, 0.2)
    mesh, cx = disc.mesh, disc.cx
    values = builtin_form("coexact", mesh, cx, disc, seed=2).values.copy()
    values[np.flatnonzero(cx.interior_edges)[0]] = np.nan
    return Cochain(1, values), disc


def _no_work(*args, **kwargs):
    raise AssertionError("a rejected input reached the numerics")


class TestNonFiniteCochains:
    def test_decompose_rejects_nan(self, discretize, monkeypatch):
        alpha, disc = _coexact_with_nan(discretize)
        monkeypatch.setattr(hd.hodge, "_potential_maps", _no_work)
        for tag in ("l2", "h1"):
            with pytest.raises(ConfigError, match="finite"):
                hd.decompose(alpha, tag, disc)

    def test_stream_function_rejects_nan(self, discretize, monkeypatch):
        v, disc = _coexact_with_nan(discretize)
        monkeypatch.setattr(hd.hodge, "_coclosedness_residual", _no_work)
        with pytest.raises(ConfigError, match="finite"):
            hd.stream_function(v, disc)

    def test_truncation_distance_rejects_nan(self, discretize):
        gamma, disc = _coexact_with_nan(discretize)
        with pytest.raises(ConfigError, match="finite"):
            hd.truncation_distance(gamma, [1.2], "h1", disc)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_decompose_rejects_overflowing_norm(self, discretize, monkeypatch):
        disc = discretize(1.0, 1.0, 0.2)
        cx = disc.cx
        huge = Cochain(1, np.full(cx.num_edges, 1e300))
        monkeypatch.setattr(hd.hodge, "_potential_maps", _no_work)
        for tag in ("l2", "h1"):
            with pytest.raises(ConfigError, match="not finite"):
                hd.decompose(huge, tag, disc)

    def test_harmonic_energy_that_overflows_rejected(self, discretize):
        # the squared L2 norm of the scaled input is finite, its energy is not
        disc = discretize(1.0, 3.0, 0.1)
        alpha = builtin_form("mixed", disc.mesh, disc.cx, disc, seed=1)
        energy = hd.harmonic_diagnostics(Cochain(1, alpha.values * 1e150), disc)["energy"]
        assert 1e304 < energy < np.inf
        with pytest.raises(ConfigError, match="energy is not finite"):
            hd.harmonic_diagnostics(Cochain(1, alpha.values * 1e152), disc)

    def test_wrong_length_rejected(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        cx = disc.cx
        short = Cochain(1, np.zeros(cx.num_edges - 1))
        with pytest.raises(ConfigError, match="edge values"):
            hd.stream_function(short, disc)
        with pytest.raises(ConfigError, match="edge values"):
            hd.decompose(short, "l2", disc)


class TestRunParameters:
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 1.0])
    def test_tolerance_outside_unit_interval_rejected(self, discretize, monkeypatch, tol):
        disc = discretize(1.0, 1.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("coexact", mesh, cx, disc, seed=2)
        monkeypatch.setattr(hd.hodge, "_coclosedness_residual", _no_work)
        with pytest.raises(ConfigError, match="tolerance"):
            hd.decompose(alpha, "h1", disc, tol=tol)
        with pytest.raises(ConfigError, match="tolerance"):
            hd.stream_function(alpha, disc, tol=tol)

    def test_unknown_space_rejected_before_solving(self, discretize, monkeypatch):
        disc = discretize(1.0, 1.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        alpha = builtin_form("mixed", mesh, cx, disc, seed=2)
        monkeypatch.setattr(hd.hodge, "_potential_maps", _no_work)
        with pytest.raises(ConfigError, match="space"):
            hd.decompose(alpha, "h2", disc)


class TestBuiltinForm:
    def test_pieces_must_be_the_discretizations_own(self, discretize):
        disc = discretize(1.0, 1.0, 0.2)
        other = discretize(1.0, 1.5, 0.2)
        with pytest.raises(ConfigError, match="mesh is not the discretization's"):
            builtin_form("mixed", other.mesh, other.cx, disc, seed=1)
        # equal arrays are not enough: the pieces must be the objects disc holds
        with pytest.raises(ConfigError, match="mesh is not the discretization's"):
            builtin_form("dx", hd.ball_mesh(1.0, 1.0, 0.2), disc.cx, disc)
        with pytest.raises(ConfigError, match="complex is not the discretization's"):
            builtin_form("dx", disc.mesh, hd.build_complex(disc.mesh), disc)


class TestTruncation:
    @TINY
    def test_tiny_input_truncates_as_the_input_times_its_factor(self, discretize, factor):
        # unscaled, the squared norms underflow: 1.4 % low at 1e-160, 0 at 2**-600
        disc = discretize(1.0, 3.0, 0.3)
        dx = coordinate_form(disc.mesh, disc.cx)
        for space in ("l2", "h1"):
            base = hd.truncation_distance(dx, [1.2, 1.4], space, disc)
            got = hd.truncation_distance(Cochain(1, dx.values * factor), [1.2, 1.4], space, disc)
            assert_scaled(got, base, factor)

    def test_zero_gamma(self, discretize):
        disc = discretize(1.0, 3.0, 0.2)
        cx = disc.cx
        space = "h1"
        assert hd.truncation_distance(Cochain(1, np.zeros(cx.num_edges)), [1.2, 1.4], space, disc) == [0.0, 0.0]

    def test_supported_inside_cutoff(self, discretize):
        disc = discretize(1.0, 3.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        rho = hd.radial_distance(mesh.vertices, 1.0)
        inside = (rho[cx.edges[:, 0]] <= 1.0) & (rho[cx.edges[:, 1]] <= 1.0)
        gamma = Cochain(1, np.where(inside, 1.0, 0.0))
        space = "l2"
        assert hd.truncation_distance(gamma, [1.2], space, disc) == [0.0]

    def test_domain_checks(self, discretize):
        disc = discretize(1.0, 3.0, 0.2)
        cx = disc.cx
        space = "l2"
        g = Cochain(1, np.zeros(cx.num_edges))
        with pytest.raises(DomainError):
            hd.truncation_distance(g, [1.0], space, disc)
        with pytest.raises(DomainError):
            hd.truncation_distance(g, [1.7], space, disc)  # 2R > rho_max

    @pytest.mark.parametrize("R", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_rejected_first(self, discretize, monkeypatch, R):
        disc = discretize(1.0, 3.0, 0.2)
        cx = disc.cx
        g = Cochain(1, np.ones(cx.num_edges))
        monkeypatch.setattr(hd.geometry, "radial_distance", _no_work)
        with pytest.raises(DomainError, match="finite"):
            hd.truncation_distance(g, [R], "h1", disc)

    @pytest.mark.parametrize(
        "radii", [1.2, [], ["1.2"], [1.2, None]], ids=["scalar", "empty", "string", "none"]
    )
    def test_scales_that_are_not_real_numbers_rejected(self, discretize, monkeypatch, radii):
        disc = discretize(1.0, 3.0, 0.3)
        gamma = coordinate_form(disc.mesh, disc.cx)
        monkeypatch.setattr(hd.geometry, "radial_distance", _no_work)
        with pytest.raises(ConfigError, match="cutoff scale"):
            hd.truncation_distance(gamma, radii, "l2", disc)

    def test_scales_read_once_from_a_generator(self, discretize):
        disc = discretize(1.0, 3.0, 0.3)
        gamma = coordinate_form(disc.mesh, disc.cx)
        want = hd.truncation_distance(gamma, [1.2, 1.4], "l2", disc)
        assert len(want) == 2
        assert hd.truncation_distance(gamma, (R for R in [1.2, 1.4]), "l2", disc) == want

    def test_distances_decrease_and_bracket_tail_mass(self, discretize):
        disc = discretize(1.0, 6.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        dx = coordinate_form(mesh, cx)
        space = "l2"
        rho = hd.radial_distance(mesh.vertices, 1.0)

        def tail(r):
            beyond = (rho[cx.edges[:, 0]] >= r) & (rho[cx.edges[:, 1]] >= r)
            vals = np.where(beyond, dx.values, 0.0)
            return dec.norm(Cochain(1, vals), space, disc)

        dists = hd.truncation_distance(dx, (1.5, 2.0, 2.5), space, disc)
        assert dists[0] > dists[1] > dists[2]
        for R, dist in zip((1.5, 2.0, 2.5), dists):
            # tail-mass oracle: phi_R = 0 beyond 2R and = 1 inside R
            assert tail(2 * R) <= dist <= tail(R - 0.2) + 1e-12

    @pytest.mark.parametrize("factor", [1.0, 2.0**-600], ids=["1", "2**-600"])
    def test_one_pass_is_bitwise_the_per_scale_computation(self, discretize, factor):
        disc = discretize(1.0, 6.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        gamma = Cochain(1, coordinate_form(mesh, cx).values * factor)
        radii = (1.5, 2.0, 2.5)
        for space in ("l2", "h1"):
            want = []
            for R in radii:
                # the reference redoes the checks and the radial distances for each scale
                g, e, _ = _check_edge_values(gamma, disc, "truncation distance")
                hd.geometry.check_cutoff_scales([R], mesh)
                phi = hd.cutoff_profile(hd.radial_distance(mesh.vertices, mesh.curvature) / R)
                edge_factor = 0.5 * (phi[cx.edges[:, 0]] + phi[cx.edges[:, 1]])
                diff = Cochain(1, g.values - edge_factor * g.values)
                want.append(float(np.ldexp(dec.norm(diff, space, disc), e)))
            assert hd.truncation_distance(gamma, radii, space, disc) == want

    def test_one_call_checks_once_for_every_scale(self, discretize, monkeypatch):
        disc = discretize(1.0, 3.0, 0.2)
        gamma = coordinate_form(disc.mesh, disc.cx)
        calls = {"gate": 0, "radial": 0}
        radial = counted(calls, "radial", hd.geometry.radial_distance)
        monkeypatch.setattr(hd.geometry, "radial_distance", radial)
        monkeypatch.setattr(hd.hodge, "radial_distance", radial)
        monkeypatch.setattr(hd.hodge, "_check_edge_values", counted(calls, "gate", _check_edge_values))
        radii = (1.1, 1.2, 1.3, 1.4, 1.45)
        assert len(hd.truncation_distance(gamma, radii, "h1", disc)) == len(radii)
        assert calls["gate"] == 1
        assert calls["radial"] <= 2  # the domain check and the cutoff profile
