import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from hodgedec import weitzenbock as wb
from hodgedec.errors import PreconditionError

F = Fraction


def identity_metric(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def leibniz_det(m):
    """Exact determinant by the Leibniz formula, independent of any elimination."""
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = F((-1) ** inversions)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def rational_context(n, k, rng):
    """A context with a non-integer metric and K = -(p/q)^2, q > 1."""
    L = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    g = [
        [F(sum(L[m][i] * L[m][j] for m in range(n)), 6) + (F(2, 5) if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    comps = {
        idx: F(rng.randint(1, 9), rng.randint(2, 9)) for idx in itertools.combinations(range(n), k)
    }
    curvature = -F(rng.choice((1, 2, 4, 5, 7)), 3) ** 2
    ctx = wb.make_context(n, k, g, curvature, wb.antisymmetrize(n, comps))
    assert math.lcm(*(x.denominator for row in ctx.metric for x in row)) > 1
    assert ctx.curvature.denominator > 1
    return ctx


def brute_force_sums_oracle(ctx, R):
    """Naive re-implementation of the curvature sums: full loops, no skips.

    Independent code path from weitzenbock_sums (which prunes structurally
    zero terms).
    """
    n, k = ctx.n_dim, ctx.degree
    g_inv = ctx.metric_inv
    alpha = ctx.alpha

    def a(idx):
        return alpha.get(tuple(idx), F(0))

    lower = {}
    for i, j in itertools.product(range(n), repeat=2):
        lower[(i, j)] = sum(g_inv[p][q] * R[(p, i, j, q)] for p in range(n) for q in range(n))
    mixed = {}
    for i, j in itertools.product(range(n), repeat=2):
        mixed[(i, j)] = sum(g_inv[i][m] * lower[(m, j)] for m in range(n))

    def r4(h, b, c, i):
        return sum(
            g_inv[h][p] * g_inv[i][q] * R[(p, b, c, q)]
            for p in range(n)
            for q in range(n)
        )

    out = {}
    for idx in itertools.product(range(n), repeat=k):
        total = F(0)
        for nu in range(1, k + 1):
            rest = idx[: nu - 1] + idx[nu:]
            sign = F((-1) ** nu)
            for h in range(n):
                total += sign * mixed[(h, idx[nu - 1])] * a((h,) + rest)
        for mu in range(1, k + 1):
            for nu in range(mu + 1, k + 1):
                rest = idx[: mu - 1] + idx[mu : nu - 1] + idx[nu:]
                sign = F((-1) ** (mu + nu))
                for h in range(n):
                    for i in range(n):
                        total += -2 * sign * r4(h, idx[nu - 1], idx[mu - 1], i) * a((i, h) + rest)
        if total:
            out[idx] = total
    return out


class TestRiemann:
    def test_two_dim_identity_metric(self):
        ctx = wb.make_context(2, 1, identity_metric(2), F(-1), {(0,): F(1), (1,): F(0)})
        R = wb.riemann_constant_curvature(ctx)
        # R_1212 = K (g_12 g_21 - g_11 g_22) = 1 at K = -1
        assert R[(0, 1, 0, 1)] == F(1)
        assert R[(0, 1, 1, 0)] == F(-1)

    def test_flat_is_zero(self):
        ctx = wb.make_context(3, 1, identity_metric(3), F(0), {(0,): F(1)})
        R = wb.riemann_constant_curvature(ctx)
        assert all(v == 0 for v in R.values())

    def test_symmetries_random_metric(self):
        rng = random.Random(4)
        for _ in range(5):
            ctx = wb.random_context(3, 2, rng)
            R = wb.riemann_constant_curvature(ctx)
            assert wb.riemann_symmetries_hold(R, 3)


class TestRicci:
    def test_two_dim_proportional_to_metric(self):
        rng = random.Random(9)
        ctx = wb.random_context(2, 1, rng)
        R = wb.riemann_constant_curvature(ctx)
        lower, mixed = wb.ricci_contract(R, ctx)
        K = ctx.curvature
        for i, j in itertools.product(range(2), repeat=2):
            assert lower[(i, j)] == K * (2 - 1) * ctx.metric[i][j]
            assert mixed[(i, j)] == K * (2 - 1) * int(i == j)

    def test_flat_is_zero(self):
        ctx = wb.make_context(2, 1, identity_metric(2), F(0), {(0,): F(1)})
        R = wb.riemann_constant_curvature(ctx)
        lower, mixed = wb.ricci_contract(R, ctx)
        assert all(v == 0 for v in lower.values())
        assert all(v == 0 for v in mixed.values())

    def test_four_dim_identity_against_summation_oracle(self):
        ctx = wb.make_context(
            4, 1, identity_metric(4), F(-1), {(i,): F(1, i + 1) for i in range(4)}
        )
        R = wb.riemann_constant_curvature(ctx)
        _, mixed = wb.ricci_contract(R, ctx)
        # independent brute-force contraction
        for i, j in itertools.product(range(4), repeat=2):
            s = sum(R[(k, i, j, k)] for k in range(4))  # g inverse is identity
            assert mixed[(i, j)] == s
            assert mixed[(i, j)] == (F(-3) if i == j else F(0))


class TestWeitzenbockSums:
    def test_degree_zero_is_empty(self):
        ctx = wb.make_context(3, 0, identity_metric(3), F(-1), {(): F(5)})
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        assert wb.tensors_equal(sums, {}, 3, 0)
        assert wb.expected_weitzenbock_multiple(ctx) == 0

    def test_surface_one_forms_identity_metric(self):
        alpha = wb.antisymmetrize(2, {(0,): F(3, 7), (1,): F(-2, 5)})
        ctx = wb.make_context(2, 1, identity_metric(2), F(-1), alpha)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        # a^2 k (N - k) = 1: the sums reproduce alpha itself
        assert wb.tensors_equal(sums, ctx.alpha, 2, 1)

    def test_four_dim_two_forms_against_oracle(self):
        rng = random.Random(12)
        ctx = wb.random_context(4, 2, rng)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        oracle = brute_force_sums_oracle(ctx, R)
        assert wb.tensors_equal(sums, oracle, 4, 2)
        mult = wb.expected_weitzenbock_multiple(ctx)
        target = {idx: mult * v for idx, v in ctx.alpha.items()}
        assert wb.tensors_equal(sums, target, 4, 2)

    def test_four_dim_two_forms_unit_curvature_multiple(self):
        rng = random.Random(3)
        comps = {
            idx: F(rng.randint(-9, 9), rng.randint(1, 9))
            for idx in itertools.combinations(range(4), 2)
        }
        L = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        g = [
            [F(sum(L[m][i] * L[m][j] for m in range(4)) + int(i == j)) for j in range(4)]
            for i in range(4)
        ]
        ctx = wb.make_context(4, 2, g, F(-1), wb.antisymmetrize(4, comps))
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        target = {idx: 4 * v for idx, v in ctx.alpha.items()}  # a^2 k (N-k) = 4
        assert wb.tensors_equal(sums, target, 4, 2)

    def test_result_is_antisymmetric(self):
        rng = random.Random(21)
        ctx = wb.random_context(4, 3, rng)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        assert wb.is_antisymmetric(sums, 4, 3)

    def test_rejects_non_antisymmetric_alpha(self):
        bad = {(0, 1): F(1), (1, 0): F(1)}
        with pytest.raises(PreconditionError):
            wb.make_context(3, 2, identity_metric(3), F(-1), bad)

    def test_scale_covariance(self):
        # two exact cancellation checks: under g -> t^2 g with K -> K / t^2
        # the lower Ricci is unchanged; under g -> t^2 g with K fixed the
        # mixed Ricci and the Weitzenbock total are unchanged (they carry no
        # g-dependence once the contractions cancel)
        rng = random.Random(8)
        base = wb.random_context(3, 2, rng)
        t2 = F(9, 4)
        g_scaled = [[t2 * x for x in row] for row in base.metric]

        rescaled = wb.make_context(3, 2, g_scaled, base.curvature / t2, base.alpha)
        lower_base, _ = wb.ricci_contract(wb.riemann_constant_curvature(base), base)
        lower_res, _ = wb.ricci_contract(wb.riemann_constant_curvature(rescaled), rescaled)
        assert lower_base == lower_res

        same_k = wb.make_context(3, 2, g_scaled, base.curvature, base.alpha)
        _, mixed_base = wb.ricci_contract(wb.riemann_constant_curvature(base), base)
        _, mixed_same = wb.ricci_contract(wb.riemann_constant_curvature(same_k), same_k)
        assert mixed_base == mixed_same
        assert wb.expected_weitzenbock_multiple(base) == wb.expected_weitzenbock_multiple(same_k)
        sums = wb.weitzenbock_sums(same_k, wb.riemann_constant_curvature(same_k))
        target = {
            idx: wb.expected_weitzenbock_multiple(base) * v for idx, v in base.alpha.items()
        }
        assert wb.tensors_equal(sums, target, 3, 2)


class TestIntegerKernel:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_sums_match_oracle_on_rational_contexts(self, n, k):
        rng = random.Random(100 * n + k)
        for _ in range(2):
            ctx = rational_context(n, k, rng)
            R = wb.riemann_constant_curvature(ctx)
            sums = wb.weitzenbock_sums(ctx, R)
            assert sums == brute_force_sums_oracle(ctx, R)
            mult = wb.expected_weitzenbock_multiple(ctx)
            assert sums == {idx: mult * v for idx, v in ctx.alpha.items()}
            assert wb.verify_identities(ctx) is None

    @pytest.mark.parametrize("n,m", [(2, 0), (3, 2), (4, 1), (5, 4)])
    @pytest.mark.parametrize("below_zero", [F(0), F(1, 3)], ids=["zero", "negative"])
    def test_lowered_diagonal_fails_sylvester(self, n, m, below_zero):
        # lower g_mm until the leading minor of order m + 1 is 0 or negative
        ctx = wb.random_context(n, 1, random.Random(n + m))
        g = [list(row) for row in ctx.metric]
        minor = leibniz_det([row[: m + 1] for row in g[: m + 1]])
        outer = leibniz_det([row[:m] for row in g[:m]]) if m else F(1)
        g[m][m] -= minor / outer + below_zero
        assert leibniz_det([row[: m + 1] for row in g[: m + 1]]) == -below_zero * outer
        with pytest.raises(PreconditionError, match="positive definite"):
            wb.make_context(n, 1, g, ctx.curvature, ctx.alpha)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
    def test_wrong_antisymmetric_partner_fails_sums(self, n, k):
        rng = random.Random(7 * n + k)
        ctx = wb.random_context(n, k, rng)
        while ctx.curvature == 0:
            ctx = wb.random_context(n, k, rng)
        alpha = dict(ctx.alpha)
        key = min(alpha)
        partner = (key[1], key[0]) + key[2:]
        alpha[partner] += 1
        bad = dataclasses.replace(ctx, alpha=alpha)
        assert wb.verify_identities(bad) == "weitzenbock sums"
        with pytest.raises(PreconditionError, match="antisymmetry"):
            wb.weitzenbock_sums(bad, wb.riemann_constant_curvature(bad))

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_riemann_at_another_curvature_misses_the_target(self, n, k):
        ctx = rational_context(n, k, random.Random(n * k))
        other = dataclasses.replace(ctx, curvature=ctx.curvature / 2)
        sums = wb.weitzenbock_sums(ctx, wb.riemann_constant_curvature(other))
        mult = wb.expected_weitzenbock_multiple(ctx)
        assert not wb.tensors_equal(sums, {idx: mult * v for idx, v in ctx.alpha.items()}, n, k)
        half = wb.expected_weitzenbock_multiple(other)
        assert sums == {idx: half * v for idx, v in ctx.alpha.items()}


class TestStarInvolution:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 1, -1), (3, 1, 1), (2, 0, 1), (4, 2, 1), (5, 2, 1), (5, 3, 1), (6, 3, -1)],
    )
    def test_sign_table(self, n, k, expected):
        assert wb.star_involution_sign(n, k) == expected
        assert expected == (-1) ** (n * k + k)

    def test_scalars_always_positive(self):
        for n in range(2, 7):
            assert wb.star_involution_sign(n, 0) == 1


class TestContextValidation:
    def test_asymmetric_metric_rejected(self):
        g = [[F(1), F(2)], [F(0), F(1)]]
        with pytest.raises(PreconditionError):
            wb.make_context(2, 1, g, F(-1), {(0,): F(1)})

    def test_indefinite_metric_rejected(self):
        g = [[F(1), F(3)], [F(3), F(1)]]
        with pytest.raises(PreconditionError):
            wb.make_context(2, 1, g, F(-1), {(0,): F(1)})

    @pytest.mark.parametrize("key", [(5,), (-1,), (2,), (0, 1), (), 0, (F(1),)])
    @pytest.mark.parametrize("value", [F(1), F(0)])
    def test_malformed_alpha_key_rejected(self, key, value):
        with pytest.raises(PreconditionError, match="alpha key"):
            wb.make_context(2, 1, identity_metric(2), F(-1), {(0,): F(1), key: value})

    @pytest.mark.parametrize("metric", [
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    ])
    def test_wrongly_shaped_metric_rejected(self, metric):
        with pytest.raises(PreconditionError, match="3 x 3"):
            wb.make_context(3, 1, metric, F(-1), {(0,): F(1)})

    def test_inverse_is_exact(self):
        rng = random.Random(2)
        ctx = wb.random_context(4, 1, rng)
        n = ctx.n_dim
        for i, j in itertools.product(range(n), repeat=2):
            s = sum(ctx.metric[i][m] * ctx.metric_inv[m][j] for m in range(n))
            assert s == F(int(i == j))


def test_reduced_fuzz_contract():
    report = wb.run_verification(max_dim=3, trials=8, seed=123)
    assert report.all_passed
    assert len(report.results) == 2 + 1 + 4  # (N=2: k=0..2) + (N=3: k=0..3)


def test_six_dimensional_suite():
    report = wb.run_verification(max_dim=6, trials=1, seed=66)
    assert report.all_passed
    assert len(report.results) == sum(n + 1 for n in range(2, 7))


def test_verification_report_serializes():
    report = wb.run_verification(max_dim=2, trials=2, seed=0)
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert {r["N"] for r in payload["results"]} == {2}
    assert "note" in payload
