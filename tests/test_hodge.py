import numpy as np
import pytest

import hodgedec as hd
from hodgedec import dec
from hodgedec.errors import ConfigError, DomainError, PreconditionError
from hodgedec.forms import builtin_form, coordinate_form
from hodgedec.hodge import _interior_l2_norm, _optimality_terms, _potential_maps
from hodgedec.simplicial import Cochain


def interior_potentials(cx, rng):
    beta = Cochain(0, np.where(cx.interior_vertices, rng.standard_normal(cx.num_vertices), 0.0))
    omega = Cochain(2, np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0))
    return beta, omega


def dense_split_oracle(alpha, space, cx, stars):
    """Brute-force orthogonal projection: explicit basis, dense Gram solve.

    Independent of the sparse path: inner products are reassembled here from
    the raw star arrays and incidence matrices.
    """
    s0, s1, s2 = stars.star0, stars.star1, stars.star2
    m0 = s0 * cx.interior_vertices
    m2 = s2 * cx.interior_faces
    d0 = cx.d0.toarray().astype(float)
    d1 = cx.d1.toarray().astype(float)
    c = stars.curvature**2  # a^2 k (N - k) at k = 1, N = 2

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


@pytest.fixture(scope="module")
def small_hyp(discretize_module):
    return discretize_module(1.0, 0.6, 0.2)


@pytest.fixture(scope="session")
def discretize_module(discretize):
    return discretize


class TestDecompose:
    @pytest.mark.parametrize("tag", ["l2", "h1"])
    def test_exact_input_recovered(self, discretize, rng, tag):
        mesh, cx, stars = discretize(1.0, 1.0, 0.1)
        beta0, _ = interior_potentials(cx, rng)
        alpha = hd.apply_d(beta0, cx)
        split = hd.decompose(alpha, tag, cx, stars)
        d = split.diagnostics
        assert d.norm_gamma <= 1e-8 * d.norm_alpha
        assert d.norm_coexact <= 1e-8 * d.norm_alpha

    @pytest.mark.parametrize("tag", ["l2", "h1"])
    def test_coexact_input_recovered(self, discretize, rng, tag):
        mesh, cx, stars = discretize(1.0, 1.0, 0.1)
        _, omega0 = interior_potentials(cx, rng)
        alpha = hd.codifferential(omega0, cx, stars)
        split = hd.decompose(alpha, tag, cx, stars)
        d = split.diagnostics
        assert d.norm_gamma <= 1e-8 * d.norm_alpha
        assert d.norm_exact <= 1e-8 * d.norm_alpha

    @pytest.mark.parametrize("tag", ["l2", "h1"])
    @pytest.mark.parametrize("key", [(1.0, 0.6, 0.2), (0.0, 0.5, 0.16)])
    def test_against_dense_oracle(self, discretize, rng, tag, key):
        mesh, cx, stars = discretize(*key)
        total = cx.num_vertices + cx.num_edges + cx.num_faces
        assert total <= 200
        alpha = Cochain(1, rng.standard_normal(cx.num_edges))
        split = hd.decompose(alpha, tag, cx, stars, tol=1e-12)
        exact, coexact, gamma = dense_split_oracle(alpha, tag, cx, stars)
        scale = np.linalg.norm(alpha.values)
        d_beta = cx.d0 @ split.beta.values
        d_omega = dec.codifferential(split.omega, cx, stars).values
        assert np.linalg.norm(d_beta - exact) <= 1e-8 * scale
        assert np.linalg.norm(d_omega - coexact) <= 1e-8 * scale
        assert np.linalg.norm(split.gamma.values - gamma) <= 1e-8 * scale

    def test_reconstruction_and_orthogonality(self, discretize, rng):
        mesh, cx, stars = discretize(1.0, 1.5, 0.15)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, cx, stars)
        d = split.diagnostics
        assert d.reconstruction_residual <= 10 * 1e-10
        assert d.orthogonality_defect() <= 1e-8
        assert d.pythagoras_defect <= 1e-6

    def test_idempotent_on_harmonic_part(self, discretize):
        mesh, cx, stars = discretize(1.0, 1.5, 0.15)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, cx, stars)
        again = hd.decompose(split.gamma, space, cx, stars)
        assert again.diagnostics.norm_exact <= 1e-6 * split.diagnostics.norm_gamma
        assert again.diagnostics.norm_coexact <= 1e-6 * split.diagnostics.norm_gamma
        drift = np.linalg.norm(again.gamma.values - split.gamma.values)
        assert drift <= 1e-6 * np.linalg.norm(split.gamma.values)

    def test_l2_and_h1_splits_coincide(self, discretize):
        # the interior potentials and the interior-harmonic remainder form a
        # direct sum, so the split does not depend on the chosen metric; the
        # one solve path returns the same bits for both
        mesh, cx, stars = discretize(1.0, 1.5, 0.15)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=5)
        s_l2 = hd.decompose(alpha, "l2", cx, stars, tol=1e-12)
        s_h1 = hd.decompose(alpha, "h1", cx, stars, tol=1e-12)
        for part in ("beta", "omega", "gamma"):
            np.testing.assert_array_equal(getattr(s_l2, part).values, getattr(s_h1, part).values)
        assert s_l2.diagnostics.iterations == s_h1.diagnostics.iterations

    def test_reconstruction_residual_detects_perturbed_gamma(self, discretize):
        mesh, cx, stars = discretize(1.0, 1.0, 0.2)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=5)
        split = hd.decompose(alpha, "l2", cx, stars)
        _, _, P, Q = _potential_maps(cx, stars)
        scales = _optimality_terms(np.abs(alpha.values), abs(P), abs(Q), stars.star1)

        def residual(gamma):
            return float(np.max(_optimality_terms(gamma, P, Q, stars.star1) / scales))

        assert residual(split.gamma.values) == split.diagnostics.reconstruction_residual <= 1e-9
        bump = 1e-6 * np.abs(alpha.values).max()
        for e in np.flatnonzero(cx.interior_edges)[::7]:
            gamma = split.gamma.values.copy()
            gamma[e] += bump
            assert residual(gamma) > 1e-8

    def test_gamma_interior_harmonic_by_optimality(self, discretize):
        mesh, cx, stars = discretize(1.0, 1.5, 0.15)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=5)
        space = "h1"
        split = hd.decompose(alpha, space, cx, stars)
        l2 = "l2"
        scale = dec.norm(split.gamma, l2, cx, stars)
        assert _interior_l2_norm(hd.apply_d(split.gamma, cx), cx, stars) <= 1e-6 * scale
        assert (
            _interior_l2_norm(dec.codifferential(split.gamma, cx, stars), cx, stars)
            <= 1e-6 * scale
        )

    def test_degenerate_mesh_rejected(self):
        mesh = hd.ball_mesh(0.0, 0.1, 0.1)  # single ring: no interior faces
        cx = hd.build_complex(mesh)
        stars = hd.assemble_stars(mesh, cx)
        with pytest.raises(ConfigError):
            hd.decompose(
                Cochain(1, np.zeros(cx.num_edges)),
                "l2",
                cx,
                stars,
            )

    def test_dx_gamma_dominates_at_both_radii(self, discretize):
        # the sampled square-integrable harmonic field keeps essentially all
        # of its content at every truncation radius
        for rho in (2.0, 3.0):
            mesh, cx, stars = discretize(1.0, rho, 0.2)
            dx = coordinate_form(mesh, cx)
            split = hd.decompose(dx, "h1", cx, stars)
            d = split.diagnostics
            assert d.norm_gamma**2 / d.norm_alpha**2 >= 0.9


class TestHarmonicDiagnostics:
    def test_zero_input_degenerate(self, discretize):
        _, cx, stars = discretize(1.0, 1.0, 0.2)
        rep = hd.harmonic_diagnostics(
            Cochain(1, np.zeros(cx.num_edges)), cx, stars
        )
        assert rep.degenerate and rep.bound_ratio is None

    def test_coclosed_input_energy_reduces(self, discretize, rng):
        # delta of a 2-cochain is co-closed up to roundoff: the delta term
        # contributes nothing and E = |dv|^2 + c |v|^2
        _, cx, stars = discretize(1.0, 1.0, 0.1)
        _, omega0 = interior_potentials(cx, rng)
        v = hd.codifferential(omega0, cx, stars)
        rep = hd.harmonic_diagnostics(v, cx, stars)
        d_sq = _interior_l2_norm(hd.apply_d(v, cx), cx, stars) ** 2
        assert rep.delta_residual <= 1e-12
        assert rep.energy == pytest.approx(d_sq + rep.curvature_constant * rep.norm_l2_sq, rel=1e-12)

    def test_closed_input_energy_reduces(self, discretize, rng):
        _, cx, stars = discretize(1.0, 1.0, 0.1)
        beta0, _ = interior_potentials(cx, rng)
        u = hd.apply_d(beta0, cx)
        rep = hd.harmonic_diagnostics(u, cx, stars)
        s_sq = _interior_l2_norm(dec.codifferential(u, cx, stars), cx, stars) ** 2
        assert rep.d_residual <= 1e-12
        assert rep.energy == pytest.approx(s_sq + rep.curvature_constant * rep.norm_l2_sq, rel=1e-12)

    def test_harmonic_remainder_sits_at_half_bound(self, discretize):
        mesh, cx, stars = discretize(1.0, 2.0, 0.1)
        dx = coordinate_form(mesh, cx)
        space = "h1"
        split = hd.decompose(dx, space, cx, stars)
        rep = hd.harmonic_diagnostics(split.gamma, cx, stars)
        assert rep.bound_ratio == pytest.approx(0.5, abs=1e-6)
        assert rep.bound_ratio <= 1.0

    def test_flat_harmonic_energy_vanishes(self, discretize):
        # a = 0 and exactly harmonic: all three energy terms vanish
        mesh, cx, stars = discretize(0.0, 1.0, 0.1)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=2)
        space = "h1"
        split = hd.decompose(alpha, space, cx, stars)
        rep = hd.harmonic_diagnostics(split.gamma, cx, stars)
        assert rep.curvature_constant == 0.0
        assert rep.bound_ratio is None
        assert rep.energy <= 1e-10 * rep.norm_l2_sq


class TestStreamFunction:
    def test_zero_input(self, discretize):
        mesh, cx, stars = discretize(1.0, 1.0, 0.2)
        res = hd.stream_function(Cochain(1, np.zeros(cx.num_edges)), cx, stars)
        assert np.all(res.f == 0.0) and res.residual == 0.0

    def test_roundtrip_coexact(self, discretize, rng):
        mesh, cx, stars = discretize(1.0, 1.5, 0.15)
        for seed in range(5):
            r = np.random.default_rng(seed)
            omega0 = Cochain(2, np.where(cx.interior_faces, r.standard_normal(cx.num_faces), 0.0))
            v = hd.codifferential(omega0, cx, stars)
            res = hd.stream_function(v, cx, stars)
            assert res.residual <= 1e-10
            collar = ~cx.interior_faces
            fmax = np.abs(res.f).max()
            assert np.abs(res.f[collar]).max() <= 1e-10 * max(fmax, 1.0)

    def test_stream_values_recover_potential(self, discretize, rng):
        # star2 * omega = f is the defining relation
        mesh, cx, stars = discretize(1.0, 1.0, 0.1)
        omega0 = Cochain(2, np.where(cx.interior_faces, rng.standard_normal(cx.num_faces), 0.0))
        v = hd.codifferential(omega0, cx, stars)
        res = hd.stream_function(v, cx, stars)
        np.testing.assert_allclose(stars.star2 * res.omega.values, res.f, atol=1e-12)

    def test_not_coclosed_names_vertex(self, discretize):
        mesh, cx, stars = discretize(0.0, 1.0, 0.2)
        bad = hd.interior_restriction(hd.apply_d(Cochain(0, mesh.vertices[:, 0]), cx), cx)
        with pytest.raises(PreconditionError, match="vertex"):
            hd.stream_function(bad, cx, stars)

    def test_collar_support_required(self, discretize):
        mesh, cx, stars = discretize(0.0, 1.0, 0.2)
        with pytest.raises(PreconditionError, match="collar"):
            hd.stream_function(Cochain(1, np.ones(cx.num_edges)), cx, stars)


def _coexact_with_nan(discretize):
    mesh, cx, stars = discretize(1.0, 1.0, 0.2)
    values = builtin_form("coexact", mesh, cx, stars, seed=2).values.copy()
    values[np.flatnonzero(cx.interior_edges)[0]] = np.nan
    return Cochain(1, values), mesh, cx, stars


def _no_work(*args, **kwargs):
    raise AssertionError("a rejected input reached the numerics")


class TestNonFiniteCochains:
    def test_decompose_rejects_nan(self, discretize, monkeypatch):
        alpha, mesh, cx, stars = _coexact_with_nan(discretize)
        monkeypatch.setattr(hd.hodge, "_potential_maps", _no_work)
        for tag in ("l2", "h1"):
            with pytest.raises(ConfigError, match="finite"):
                hd.decompose(alpha, tag, cx, stars)

    def test_stream_function_rejects_nan(self, discretize, monkeypatch):
        v, mesh, cx, stars = _coexact_with_nan(discretize)
        monkeypatch.setattr(hd.hodge, "_coclosedness_residual", _no_work)
        with pytest.raises(ConfigError, match="finite"):
            hd.stream_function(v, cx, stars)

    def test_truncation_distance_rejects_nan(self, discretize):
        gamma, mesh, cx, stars = _coexact_with_nan(discretize)
        with pytest.raises(ConfigError, match="finite"):
            hd.truncation_distance(gamma, 1.2, "h1", mesh, cx, stars)

    def test_wrong_length_rejected(self, discretize):
        mesh, cx, stars = discretize(1.0, 1.0, 0.2)
        short = Cochain(1, np.zeros(cx.num_edges - 1))
        with pytest.raises(ConfigError, match="edge values"):
            hd.stream_function(short, cx, stars)
        with pytest.raises(ConfigError, match="edge values"):
            hd.decompose(short, "l2", cx, stars)


class TestRunParameters:
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 1.0])
    def test_tolerance_outside_unit_interval_rejected(self, discretize, monkeypatch, tol):
        mesh, cx, stars = discretize(1.0, 1.0, 0.2)
        alpha = builtin_form("coexact", mesh, cx, stars, seed=2)
        monkeypatch.setattr(hd.hodge, "_coclosedness_residual", _no_work)
        with pytest.raises(ConfigError, match="tolerance"):
            hd.decompose(alpha, "h1", cx, stars, tol=tol)
        with pytest.raises(ConfigError, match="tolerance"):
            hd.stream_function(alpha, cx, stars, tol=tol)

    def test_unknown_space_rejected_before_solving(self, discretize, monkeypatch):
        mesh, cx, stars = discretize(1.0, 1.0, 0.2)
        alpha = builtin_form("mixed", mesh, cx, stars, seed=2)
        monkeypatch.setattr(hd.hodge, "_potential_maps", _no_work)
        with pytest.raises(ConfigError, match="space"):
            hd.decompose(alpha, "h2", cx, stars)


class TestTruncation:
    def test_zero_gamma(self, discretize):
        mesh, cx, stars = discretize(1.0, 3.0, 0.2)
        space = "h1"
        assert hd.truncation_distance(Cochain(1, np.zeros(cx.num_edges)), 1.2, space, mesh, cx, stars) == 0.0

    def test_supported_inside_cutoff(self, discretize):
        mesh, cx, stars = discretize(1.0, 3.0, 0.2)
        rho = hd.radial_distance(mesh.vertices, 1.0)
        inside = (rho[cx.edges[:, 0]] <= 1.0) & (rho[cx.edges[:, 1]] <= 1.0)
        gamma = Cochain(1, np.where(inside, 1.0, 0.0))
        space = "l2"
        assert hd.truncation_distance(gamma, 1.2, space, mesh, cx, stars) == 0.0

    def test_domain_checks(self, discretize):
        mesh, cx, stars = discretize(1.0, 3.0, 0.2)
        space = "l2"
        g = Cochain(1, np.zeros(cx.num_edges))
        with pytest.raises(DomainError):
            hd.truncation_distance(g, 1.0, space, mesh, cx, stars)
        with pytest.raises(DomainError):
            hd.truncation_distance(g, 1.7, space, mesh, cx, stars)  # 2R > rho_max

    def test_distances_decrease_and_bracket_tail_mass(self, discretize):
        mesh, cx, stars = discretize(1.0, 6.0, 0.2)
        dx = coordinate_form(mesh, cx)
        space = "l2"
        rho = hd.radial_distance(mesh.vertices, 1.0)

        def tail(r):
            beyond = (rho[cx.edges[:, 0]] >= r) & (rho[cx.edges[:, 1]] >= r)
            vals = np.where(beyond, dx.values, 0.0)
            return dec.norm(Cochain(1, vals), space, cx, stars)

        dists = [hd.truncation_distance(dx, R, space, mesh, cx, stars) for R in (1.5, 2.0, 2.5)]
        assert dists[0] > dists[1] > dists[2]
        for R, dist in zip((1.5, 2.0, 2.5), dists):
            # tail-mass oracle: phi_R = 0 beyond 2R and = 1 inside R
            assert tail(2 * R) <= dist <= tail(R - 0.2) + 1e-12
