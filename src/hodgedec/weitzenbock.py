"""Exact-rational verification of the constant-curvature tensor identities.

For a metric of constant sectional curvature K the Riemann tensor is
R_ijkl = K (g_il g_jk - g_ik g_jl), the Ricci contraction gives
R^i_j = K (N - 1) delta^i_j, and the curvature terms of the rough-vs-Hodge
Laplacian comparison on antisymmetric k-tensors collapse to a single multiple
of the tensor:

    sum_nu (-1)^nu R^h_{i_nu} alpha_{h i1 ... ^i_nu ... ik}
      - 2 sum_{mu<nu} (-1)^(mu+nu) R^{h   i}_{ i_nu i_mu} alpha_{i h ... ^i_mu ... ^i_nu ...}
    = (-K) k (N - k) alpha .

Everything here runs in fractions.Fraction; equality means equality. Note
that this combination is sometimes quoted with the opposite sign, as
K k (N - k) alpha; the sign verified here is the one consistent with the
Ricci convention R^i_j = K (N - 1) delta^i_j above (at K = -a^2 the multiple
is the nonnegative a^2 k (N - k)).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConfigError, PreconditionError

__all__ = [
    "RationalTensorContext",
    "make_context",
    "random_context",
    "rational_inverse",
    "riemann_constant_curvature",
    "riemann_symmetries_hold",
    "ricci_contract",
    "weitzenbock_sums",
    "expected_weitzenbock_multiple",
    "star_involution_sign",
    "antisymmetrize",
    "is_antisymmetric",
    "tensors_equal",
    "verify_identities",
    "run_verification",
    "VerificationReport",
    "SIGN_CONVENTION_NOTE",
]

ZERO = Fraction(0)

SIGN_CONVENTION_NOTE = (
    "verified multiple is (-K) k (N - k), matching Ricci = K (N - 1) g; "
    "statements quoting +K k (N - k) use the opposite curvature sign convention"
)


def rational_inverse(g: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse of a rational matrix."""
    n = len(g)
    aug = [[Fraction(g[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _leading_minors_positive(g: list[list[Fraction]]) -> bool:
    n = len(g)
    for m in range(1, n + 1):
        sub = [row[:m] for row in g[:m]]
        # exact determinant by fraction-free-ish elimination on Fractions
        det = Fraction(1)
        a = [row[:] for row in sub]
        for col in range(m):
            pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
            if pivot is None:
                return False
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, m):
                if a[r][col] != 0:
                    f = a[r][col] * inv
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        if det <= 0:
            return False
    return True


def _perm_sign(t: tuple[int, ...]) -> int:
    sign = 1
    lst = list(t)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
            elif lst[i] == lst[j]:
                return 0
    return sign


def antisymmetrize(n_dim: int, components: dict[tuple[int, ...], Fraction]) -> dict:
    """Spread components given on increasing index tuples to all permutations."""
    out: dict[tuple[int, ...], Fraction] = {}
    for idx, val in components.items():
        if val == 0:
            continue
        if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
            raise ValueError("components must be keyed by strictly increasing tuples")
        for perm in itertools.permutations(idx):
            out[perm] = _perm_sign(perm) * val if len(idx) else val
        if len(idx) == 0:
            out[()] = val
    return out


def is_antisymmetric(alpha: dict, n_dim: int, k: int) -> bool:
    """Exact transposition scan over every index tuple."""
    for idx in itertools.product(range(n_dim), repeat=k):
        v = alpha.get(idx, ZERO)
        if len(set(idx)) != len(idx):
            if v != 0:
                return False
            continue
        for swap in range(k - 1):
            j = list(idx)
            j[swap], j[swap + 1] = j[swap + 1], j[swap]
            if alpha.get(tuple(j), ZERO) != -v:
                return False
    return True


def tensors_equal(a: dict, b: dict, n_dim: int, k: int) -> bool:
    for idx in itertools.product(range(n_dim), repeat=k):
        if a.get(idx, ZERO) != b.get(idx, ZERO):
            return False
    return True


@dataclass(frozen=True)
class RationalTensorContext:
    """Exact metric, curvature constant and antisymmetric test tensor."""

    n_dim: int
    degree: int
    metric: tuple  # tuple of tuples of Fraction, SPD
    metric_inv: tuple
    curvature: Fraction  # sectional curvature K
    alpha: dict  # antisymmetric degree-tensor, sparse over nonzeros


def make_context(n_dim, degree, metric, curvature, alpha) -> RationalTensorContext:
    """Validate and freeze a context; every check is exact."""
    if not 2 <= n_dim <= 6:
        raise PreconditionError("dimension must be between 2 and 6")
    if not 0 <= degree <= n_dim:
        raise PreconditionError("degree must satisfy 0 <= k <= N")
    g = [[Fraction(x) for x in row] for row in metric]
    if any(g[i][j] != g[j][i] for i in range(n_dim) for j in range(n_dim)):
        raise PreconditionError("metric must be symmetric")
    if not _leading_minors_positive(g):
        raise PreconditionError("metric must be positive definite (exact minor check)")
    g_inv = rational_inverse(g)
    ident = [[Fraction(int(i == j)) for j in range(n_dim)] for i in range(n_dim)]
    prod = [
        [sum(g[i][m] * g_inv[m][j] for m in range(n_dim)) for j in range(n_dim)]
        for i in range(n_dim)
    ]
    if prod != ident:
        raise PreconditionError("metric inverse is inexact")
    alpha = {tuple(k): Fraction(v) for k, v in alpha.items() if Fraction(v) != 0}
    if not is_antisymmetric(alpha, n_dim, degree):
        raise PreconditionError("alpha fails the exact antisymmetry scan")
    return RationalTensorContext(
        n_dim=n_dim,
        degree=degree,
        metric=tuple(tuple(row) for row in g),
        metric_inv=tuple(tuple(row) for row in g_inv),
        curvature=Fraction(curvature),
        alpha=alpha,
    )


def random_context(n_dim: int, degree: int, rng: random.Random) -> RationalTensorContext:
    """Seeded random SPD metric (L^T L + I with small integer L), rational K <= 0."""
    L = [[rng.randint(-3, 3) for _ in range(n_dim)] for _ in range(n_dim)]
    g = [
        [
            Fraction(sum(L[m][i] * L[m][j] for m in range(n_dim)) + int(i == j))
            for j in range(n_dim)
        ]
        for i in range(n_dim)
    ]
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    curvature = -a * a
    comps = {}
    for idx in itertools.combinations(range(n_dim), degree):
        comps[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    alpha = antisymmetrize(n_dim, comps)
    return make_context(n_dim, degree, g, curvature, alpha)


def riemann_constant_curvature(ctx: RationalTensorContext) -> dict:
    """R_ijkl = K (g_il g_jk - g_ik g_jl), exact."""
    n, g, K = ctx.n_dim, ctx.metric, ctx.curvature
    R = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        R[(i, j, k, l)] = K * (g[i][l] * g[j][k] - g[i][k] * g[j][l])
    return R


def riemann_symmetries_hold(R: dict, n_dim: int) -> bool:
    """R_ijkl = -R_jikl = -R_ijlk = R_klij over every index tuple, exact."""
    for i, j, k, l in itertools.product(range(n_dim), repeat=4):
        v = R[(i, j, k, l)]
        if R[(j, i, k, l)] != -v or R[(i, j, l, k)] != -v or R[(k, l, i, j)] != v:
            return False
    return True


def ricci_contract(R: dict, ctx: RationalTensorContext) -> tuple[dict, dict]:
    """Ricci tensor R_ij = g^{km} R_kijm and its mixed form R^i_j."""
    n, g_inv = ctx.n_dim, ctx.metric_inv
    lower = {}
    for i, j in itertools.product(range(n), repeat=2):
        lower[(i, j)] = sum(
            g_inv[k][m] * R[(k, i, j, m)] for k in range(n) for m in range(n)
        )
    mixed = {}
    for i, j in itertools.product(range(n), repeat=2):
        mixed[(i, j)] = sum(g_inv[i][m] * lower[(m, j)] for m in range(n))
    return lower, mixed


def expected_weitzenbock_multiple(ctx: RationalTensorContext) -> Fraction:
    """(-K) k (N - k); equals a^2 k (N - k) when K = -a^2."""
    return -ctx.curvature * ctx.degree * (ctx.n_dim - ctx.degree)


def weitzenbock_sums(ctx: RationalTensorContext, R: dict) -> dict:
    """Direct exact evaluation of the two curvature sums at every index tuple.

    Returns the total as a dense dict over all N^k tuples; for a context with
    constant curvature K it must equal expected_weitzenbock_multiple(ctx)
    times alpha, exactly.
    """
    n, k = ctx.n_dim, ctx.degree
    alpha = ctx.alpha
    if not is_antisymmetric(alpha, n, k):
        raise PreconditionError("alpha fails the exact antisymmetry scan")
    g_inv = ctx.metric_inv
    lower, mixed = ricci_contract(R, ctx)
    # R with first and fourth slots raised: R4[h][b][c][i] = g^{ha} g^{il} R_abcl,
    # contracted one slot at a time
    T1 = {
        (a_, b, c, i): sum(g_inv[i][l] * R[(a_, b, c, l)] for l in range(n))
        for a_ in range(n)
        for b in range(n)
        for c in range(n)
        for i in range(n)
    }
    R4 = [
        [
            [
                [
                    sum(g_inv[h][a_] * T1[(a_, b, c, i)] for a_ in range(n))
                    for i in range(n)
                ]
                for c in range(n)
            ]
            for b in range(n)
        ]
        for h in range(n)
    ]

    out: dict[tuple[int, ...], Fraction] = {}
    for idx in itertools.product(range(n), repeat=k):
        total = ZERO
        # first sum: sum_nu (-1)^nu R^h_{i_nu} alpha_{h, idx without nu}
        for nu in range(1, k + 1):
            rest = idx[: nu - 1] + idx[nu:]
            if len(set(rest)) != len(rest):
                continue  # every alpha_{h, rest} vanishes
            acc = ZERO
            for h in range(n):
                if h in rest:
                    continue
                av = alpha.get((h,) + rest, ZERO)
                if av:
                    acc += mixed[(h, idx[nu - 1])] * av
            total += acc if nu % 2 == 0 else -acc
        # second sum: -2 sum_{mu<nu} (-1)^(mu+nu) R^{h i}_{i_nu i_mu} alpha_{i h rest}
        for mu in range(1, k + 1):
            for nu in range(mu + 1, k + 1):
                rest = idx[: mu - 1] + idx[mu:nu - 1] + idx[nu:]
                if len(set(rest)) != len(rest):
                    continue
                acc = ZERO
                i_nu, i_mu = idx[nu - 1], idx[mu - 1]
                for h in range(n):
                    if h in rest:
                        continue
                    row = R4[h][i_nu][i_mu]
                    for i in range(n):
                        if i == h or i in rest:
                            continue
                        av = alpha.get((i, h) + rest, ZERO)
                        if av:
                            acc += row[i] * av
                sign = -1 if (mu + nu) % 2 else 1
                total += (-2) * sign * acc
        if total:
            out[idx] = total
    return out


def star_involution_sign(n_dim: int, degree: int) -> int:
    """Apply the orthonormal-basis Hodge star twice and return the common sign.

    Asserts the verified sign equals (-1)^(N k + k).
    """
    if not 0 <= degree <= n_dim:
        raise PreconditionError("degree must satisfy 0 <= k <= N")
    signs = set()
    for idx in itertools.combinations(range(n_dim), degree):
        comp = tuple(i for i in range(n_dim) if i not in idx)
        s1 = _perm_sign(idx + comp)
        s2 = _perm_sign(comp + idx)
        signs.add(s1 * s2)
    assert len(signs) == 1
    sign = signs.pop()
    assert sign == (-1) ** (n_dim * degree + degree)
    return sign


@dataclass
class PairResult:
    n_dim: int
    degree: int
    trials: int
    passed: bool
    star_sign: int
    failure: Optional[dict] = None


@dataclass
class VerificationReport:
    max_dim: int
    trials: int
    seed: int
    results: list[PairResult]
    all_passed: bool
    note: str = SIGN_CONVENTION_NOTE

    def to_dict(self) -> dict:
        return {
            "max_dim": self.max_dim,
            "trials": self.trials,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "note": self.note,
            "results": [
                {
                    "N": r.n_dim,
                    "k": r.degree,
                    "trials": r.trials,
                    "passed": r.passed,
                    "star_sign": r.star_sign,
                    **({"failure": r.failure} if r.failure else {}),
                }
                for r in self.results
            ],
        }


def _serialize_context(ctx: RationalTensorContext) -> dict:
    return {
        "N": ctx.n_dim,
        "k": ctx.degree,
        "K": str(ctx.curvature),
        "metric": [[str(x) for x in row] for row in ctx.metric],
        "alpha": {",".join(map(str, k)): str(v) for k, v in sorted(ctx.alpha.items())},
    }


def verify_identities(ctx: RationalTensorContext) -> Optional[str]:
    """Run every exact identity on one context; None on success, else reason."""
    R = riemann_constant_curvature(ctx)
    if not riemann_symmetries_hold(R, ctx.n_dim):
        return "riemann symmetries"
    lower, mixed = ricci_contract(R, ctx)
    n, K, g = ctx.n_dim, ctx.curvature, ctx.metric
    for i, j in itertools.product(range(n), repeat=2):
        if lower[(i, j)] != K * (n - 1) * g[i][j]:
            return "ricci lower"
        if mixed[(i, j)] != K * (n - 1) * int(i == j):
            return "ricci mixed"
    sums = weitzenbock_sums(ctx, R)
    target_mult = expected_weitzenbock_multiple(ctx)
    target = {idx: target_mult * v for idx, v in ctx.alpha.items()}
    if not tensors_equal(sums, target, n, ctx.degree):
        return "weitzenbock sums"
    if not is_antisymmetric(sums, n, ctx.degree):
        return "weitzenbock antisymmetry"
    return None


def run_verification(max_dim: int = 5, trials: int = 50, seed: int = 0) -> VerificationReport:
    """Seeded exact suite over every (N, k), 2 <= N <= max_dim, 0 <= k <= N.

    max_dim must lie in [2, 6], the dimensions a context accepts, and trials
    must be at least 1, so that a run checks something.
    """
    if not 2 <= max_dim <= 6:
        raise ConfigError(f"max_dim must lie between 2 and 6, got {max_dim}")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    results = []
    for n in range(2, max_dim + 1):
        for k in range(0, n + 1):
            star = star_involution_sign(n, k)
            failure = None
            for t in range(trials):
                rng = random.Random(seed * 1_000_003 + n * 10_007 + k * 101 + t)
                ctx = random_context(n, k, rng)
                reason = verify_identities(ctx)
                if reason is not None:
                    failure = {"trial": t, "reason": reason, "context": _serialize_context(ctx)}
                    break
            results.append(
                PairResult(
                    n_dim=n,
                    degree=k,
                    trials=trials,
                    passed=failure is None,
                    star_sign=star,
                    failure=failure,
                )
            )
    return VerificationReport(
        max_dim=max_dim,
        trials=trials,
        seed=seed,
        results=results,
        all_passed=all(r.passed for r in results),
    )
