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
    ctx = wb.make_context(n, k, g, curvature, wb.antisymmetrize(comps))
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


def nonzero(t):
    return {idx: v for idx, v in t.items() if v}


def full_scan_is_antisymmetric(alpha, n_dim, k):
    """The transposition scan over all n_dim ** k index tuples: the reference
    for is_antisymmetric, which scans the stored entries only."""
    for idx in itertools.product(range(n_dim), repeat=k):
        v = alpha.get(idx, 0)
        if len(set(idx)) != len(idx):
            if v != 0:
                return False
            continue
        for swap in range(k - 1):
            j = list(idx)
            j[swap], j[swap + 1] = j[swap + 1], j[swap]
            if alpha.get(tuple(j), 0) != -v:
                return False
    return True


def drawn_tensors(rng, n, k):
    """A sparse antisymmetric tensor, then single edits of it: a stored zero,
    an entry with a repeated index, a missing partner, partners of equal sign
    and of unequal size."""
    combos = list(itertools.combinations(range(n), k))
    chosen = rng.sample(combos, rng.randint(0, len(combos)))
    base = wb.antisymmetrize({idx: F(rng.randint(-3, 3), rng.randint(1, 3)) for idx in chosen})
    yield base
    tuples = list(itertools.product(range(n), repeat=k))
    yield {**base, rng.choice(tuples): F(0)}
    repeated = [t for t in tuples if len(set(t)) < k]
    if repeated:
        t = rng.choice(repeated)
        yield {**base, t: F(0)}
        yield {**base, t: F(rng.choice((-2, 1)))}
    if base:
        key = rng.choice(sorted(base))
        yield {idx: v for idx, v in base.items() if idx != key}
        for v in (F(0), -base[key], base[key] + 1):
            yield {**base, key: v}


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
    # verify_identities checks the contraction against K (N - 1) g, lower, and
    # K (N - 1) delta, mixed, exactly
    def test_two_dim_proportional_to_metric(self):
        rng = random.Random(9)
        for k in (0, 1, 2):
            assert wb.verify_identities(wb.random_context(2, k, rng)) is None

    def test_flat_is_zero(self):
        ctx = wb.make_context(2, 1, identity_metric(2), F(0), {(0,): F(1)})
        assert wb.verify_identities(ctx) is None
        assert wb.weitzenbock_sums(ctx, wb.riemann_constant_curvature(ctx)) == {}

    def test_four_dim_identity_against_summation_oracle(self):
        ctx = wb.make_context(
            4, 1, identity_metric(4), F(-1), {(i,): F(1, i + 1) for i in range(4)}
        )
        R = wb.riemann_constant_curvature(ctx)
        # independent brute-force contraction, g inverse the identity
        for i, j in itertools.product(range(4), repeat=2):
            assert sum(R[(k, i, j, k)] for k in range(4)) == (F(-3) if i == j else F(0))
        assert wb.verify_identities(ctx) is None
        # on 1-forms the first sum is -R^h_i alpha_h = 3 alpha_i, the second is empty
        assert wb.weitzenbock_sums(ctx, R) == {idx: 3 * v for idx, v in ctx.alpha.items()}


class TestWeitzenbockSums:
    def test_degree_zero_is_empty(self):
        ctx = wb.make_context(3, 0, identity_metric(3), F(-1), {(): F(5)})
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        assert sums == {}
        assert wb.expected_weitzenbock_multiple(ctx) == 0

    def test_surface_one_forms_identity_metric(self):
        alpha = wb.antisymmetrize({(0,): F(3, 7), (1,): F(-2, 5)})
        ctx = wb.make_context(2, 1, identity_metric(2), F(-1), alpha)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        # a^2 k (N - k) = 1: the sums reproduce alpha itself
        assert sums == nonzero(ctx.alpha)

    def test_four_dim_two_forms_against_oracle(self):
        rng = random.Random(12)
        ctx = wb.random_context(4, 2, rng)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        oracle = brute_force_sums_oracle(ctx, R)
        assert sums == nonzero(oracle)
        mult = wb.expected_weitzenbock_multiple(ctx)
        assert sums == nonzero({idx: mult * v for idx, v in ctx.alpha.items()})

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
        ctx = wb.make_context(4, 2, g, F(-1), wb.antisymmetrize(comps))
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        target = {idx: 4 * v for idx, v in ctx.alpha.items()}  # a^2 k (N-k) = 4
        assert sums == nonzero(target)

    def test_result_is_antisymmetric(self):
        rng = random.Random(21)
        ctx = wb.random_context(4, 3, rng)
        R = wb.riemann_constant_curvature(ctx)
        sums = wb.weitzenbock_sums(ctx, R)
        assert wb.is_antisymmetric(sums, 3)

    @pytest.mark.parametrize("k", range(5))
    def test_stored_entry_scan_matches_full_scan(self, k):
        rng = random.Random(k)
        verdicts = set()
        for n in range(2, 6):
            for _ in range(10):
                for t in drawn_tensors(rng, n, k):
                    expected = full_scan_is_antisymmetric(t, n, k)
                    assert wb.is_antisymmetric(t, k) == expected, (n, t)
                    verdicts.add(expected)
        # with no pair of slots to swap, every tensor of degree 0 or 1 is antisymmetric
        assert verdicts == ({True, False} if k >= 2 else {True})

    def test_rejects_non_antisymmetric_alpha(self):
        bad = {(0, 1): F(1), (1, 0): F(1)}
        with pytest.raises(PreconditionError):
            wb.make_context(3, 2, identity_metric(3), F(-1), bad)

    def test_scale_covariance(self):
        # verify_identities pins the lower Ricci to K (N - 1) g, which g -> t^2 g
        # with K -> K / t^2 leaves unchanged, and the mixed Ricci to
        # K (N - 1) delta; with K fixed the Weitzenbock total is unchanged too
        # (it carries no g-dependence once the contractions cancel)
        rng = random.Random(8)
        base = wb.random_context(3, 2, rng)
        t2 = F(9, 4)
        g_scaled = [[t2 * x for x in row] for row in base.metric]

        rescaled = wb.make_context(3, 2, g_scaled, base.curvature / t2, base.alpha)
        assert wb.verify_identities(rescaled) is None

        same_k = wb.make_context(3, 2, g_scaled, base.curvature, base.alpha)
        assert wb.verify_identities(same_k) is None
        assert wb.expected_weitzenbock_multiple(base) == wb.expected_weitzenbock_multiple(same_k)
        sums = wb.weitzenbock_sums(same_k, wb.riemann_constant_curvature(same_k))
        target = {
            idx: wb.expected_weitzenbock_multiple(base) * v for idx, v in base.alpha.items()
        }
        assert sums == nonzero(target)
        assert sums == wb.weitzenbock_sums(base, wb.riemann_constant_curvature(base))


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
        assert sums != nonzero({idx: mult * v for idx, v in ctx.alpha.items()})
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
    assert report["all_passed"]
    assert len(report["results"]) == 2 + 1 + 4  # (N=2: k=0..2) + (N=3: k=0..3)


def test_six_dimensional_suite():
    report = wb.run_verification(max_dim=6, trials=1, seed=66)
    assert report["all_passed"]
    assert len(report["results"]) == sum(n + 1 for n in range(2, 7))


def test_verification_report_serializes():
    payload = wb.run_verification(max_dim=2, trials=2, seed=0)
    assert payload["all_passed"] is True
    assert {r["N"] for r in payload["results"]} == {2}
    assert "note" in payload
