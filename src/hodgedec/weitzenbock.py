"""Exact verification of the constant-curvature tensor identities.

For a metric of constant sectional curvature K the Riemann tensor is
R_ijkl = K (g_il g_jk - g_ik g_jl), the Ricci contraction gives
R^i_j = K (N - 1) delta^i_j, and the curvature terms of the rough-vs-Hodge
Laplacian comparison on antisymmetric k-tensors collapse to a single multiple
of the tensor:

    sum_nu (-1)^nu R^h_{i_nu} alpha_{h i1 ... ^i_nu ... ik}
      - 2 sum_{mu<nu} (-1)^(mu+nu) R^{h   i}_{ i_nu i_mu} alpha_{i h ... ^i_mu ... ^i_nu ...}
    = (-K) k (N - k) alpha .

Inputs and results are fractions.Fraction; the checks run on the integers
left after clearing denominators, and equality means equality. Note that
this combination is sometimes quoted with the opposite sign, as
K k (N - k) alpha; the sign verified here is the one consistent with the
Ricci convention R^i_j = K (N - 1) delta^i_j above (at K = -a^2 the multiple
is the nonnegative a^2 k (N - k)).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .errors import ConfigError, PreconditionError

__all__ = [
    "RationalTensorContext",
    "make_context",
    "random_context",
    "riemann_constant_curvature",
    "riemann_symmetries_hold",
    "weitzenbock_sums",
    "expected_weitzenbock_multiple",
    "star_involution_sign",
    "antisymmetrize",
    "is_antisymmetric",
    "verify_identities",
    "run_verification",
    "SIGN_CONVENTION_NOTE",
]

SIGN_CONVENTION_NOTE = (
    "verified multiple is (-K) k (N - k), matching Ricci = K (N - 1) g; "
    "statements quoting +K k (N - k) use the opposite curvature sign convention"
)


def _cleared(values: dict) -> tuple[int, dict]:
    """(d, {key: d * v}) for d the lcm of the denominators of the rational values."""
    d = math.lcm(*(v.denominator for v in values.values()))
    return d, {key: v.numerator * (d // v.denominator) for key, v in values.items()}


def _cleared_matrix(m) -> tuple[int, list[list[int]]]:
    """(d, d * m) for d the lcm of the denominators of the rational matrix m."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _bareiss_adjugate(G: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det G, adj G) by one fraction-free (Bareiss) Gauss-Jordan pass on [G | I].

    Every division is exact and the pivot of step m is the leading principal
    minor of order m + 1, so a pivot <= 0 fails Sylvester's criterion.
    """
    n = len(G)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(G)]
    prev = 1
    for m in range(n):
        pivot = M[m][m]
        if pivot <= 0:
            raise PreconditionError("metric must be positive definite (exact minor check)")
        for i in range(n):
            if i != m:
                f = M[i][m]
                M[i] = [(pivot * x - f * y) // prev for x, y in zip(M[i], M[m])]
        prev = pivot
    return prev, [row[n:] for row in M]


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


def antisymmetrize(components: dict[tuple[int, ...], Fraction]) -> dict:
    """Spread components given on increasing index tuples to all permutations."""
    out: dict[tuple[int, ...], Fraction] = {}
    for idx, val in components.items():
        if val == 0:
            continue
        if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
            raise ValueError("components must be keyed by strictly increasing tuples")
        for perm in itertools.permutations(idx):
            out[perm] = _perm_sign(perm) * val
    return out


def is_antisymmetric(alpha: dict, k: int) -> bool:
    """Exact transposition scan over the stored entries of a tensor keyed by
    k indices.

    Each nonzero entry must have the negated value at every adjacent swap.
    That rules out a nonzero entry with a repeated index too: adjacent swaps
    lead from it to an entry that is its own partner, which must be zero. An
    absent or zero entry needs no visit: if a partner of it is nonzero, the
    scan of that partner finds the mismatch.
    """
    for idx, v in alpha.items():
        if v == 0:
            continue
        for swap in range(k - 1):
            j = idx[:swap] + (idx[swap + 1], idx[swap]) + idx[swap + 2:]
            if alpha.get(j, 0) != -v:
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
    if len(metric) != n_dim or any(len(row) != n_dim for row in metric):
        raise PreconditionError(f"metric must be a {n_dim} x {n_dim} matrix")
    g = [[Fraction(x) for x in row] for row in metric]
    if any(g[i][j] != g[j][i] for i in range(n_dim) for j in range(n_dim)):
        raise PreconditionError("metric must be symmetric")
    d_g, G = _cleared_matrix(g)
    D, A = _bareiss_adjugate(G)
    if any(_dot(G[i], col) != D * (i == j) for i in range(n_dim) for j, col in enumerate(zip(*A))):
        raise PreconditionError("metric inverse is inexact")
    for key in alpha:
        if not (isinstance(key, tuple) and len(key) == degree
                and all(isinstance(i, int) and 0 <= i < n_dim for i in key)):
            raise PreconditionError(f"alpha key {key!r} is not {degree} indices in range({n_dim})")
    alpha = {key: f for key, v in alpha.items() if (f := Fraction(v)) != 0}
    if not is_antisymmetric(alpha, degree):
        raise PreconditionError("alpha fails the exact antisymmetry scan")
    return RationalTensorContext(
        n_dim=n_dim,
        degree=degree,
        metric=tuple(tuple(row) for row in g),
        # g = G / d_g, so g^-1 = d_g G^-1 = d_g adj(G) / det G
        metric_inv=tuple(tuple(Fraction(d_g * a, D) for a in row) for row in A),
        curvature=Fraction(curvature),
        alpha=alpha,
    )


def random_context(n_dim: int, degree: int, rng: random.Random) -> RationalTensorContext:
    """Seeded random SPD metric (L^T L + I with small integer L), rational K <= 0."""
    r = range(n_dim)
    L = [[rng.randint(-3, 3) for _ in r] for _ in r]
    g = [[sum(L[m][i] * L[m][j] for m in r) + (i == j) for j in r] for i in r]
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    comps = {
        idx: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for idx in itertools.combinations(r, degree)
    }
    return make_context(n_dim, degree, g, -a * a, antisymmetrize(comps))


def _riemann(g, K) -> dict:
    r = range(len(g))
    return {
        (i, j, k, l): K * (g[i][l] * g[j][k] - g[i][k] * g[j][l])
        for i, j, k, l in itertools.product(r, repeat=4)
    }


def riemann_constant_curvature(ctx: RationalTensorContext) -> dict:
    """R_ijkl = K (g_il g_jk - g_ik g_jl), exact."""
    return _riemann(ctx.metric, ctx.curvature)


def riemann_symmetries_hold(R: dict, n_dim: int) -> bool:
    """R_ijkl = -R_jikl = -R_ijlk = R_klij over every index tuple, exact."""
    for i, j, k, l in itertools.product(range(n_dim), repeat=4):
        v = R[(i, j, k, l)]
        if R[(j, i, k, l)] != -v or R[(i, j, l, k)] != -v or R[(k, l, i, j)] != v:
            return False
    return True


def _ricci(A: list[list[int]], R: dict) -> tuple[list[list[int]], list[list[int]]]:
    """lower_ij = sum_{k,m} A_km R_kijm and mixed = A lower, on integers."""
    r = range(len(A))
    lower = [[sum(A[k][m] * R[(k, i, j, m)] for k in r for m in r) for j in r] for i in r]
    columns = list(zip(*lower))
    return lower, [[_dot(A[i], columns[j]) for j in r] for i in r]


def _raised(A: list[list[int]], R: dict) -> list:
    """out[b][c][h][i] = sum_{a,l} A_ha A_il R_abcl: R with its outer slots raised."""
    r = range(len(A))

    def block(b, c):
        rows = [[R[(a, b, c, l)] for l in r] for a in r]
        t = [[_dot(A_i, row) for row in rows] for A_i in A]  # t[i][a] = sum_l A_il R_abcl
        return [[_dot(A_h, t_i) for t_i in t] for A_h in A]

    return [[block(b, c) for c in r] for b in r]


def _sums(k: int, mixed: list, raised: list, alpha: dict) -> dict:
    """The two curvature sums at every index tuple, on integers; nonzero entries only.

    mixed[h][j] stands for R^h_j, raised[b][c][h][i] for R^{h i}_{b c}, all with
    one common integer scale. Each term holds one nonzero alpha entry, so the
    loops run over those and add each term into the index tuple it belongs to.
    """
    r = range(len(mixed))
    out = {}
    get = out.get
    for key, av in alpha.items():
        # first sum: sum_nu (-1)^nu R^h_{i_nu} alpha_{h, idx without nu}, so
        # alpha_{h, rest} meets every idx that is rest with i_nu put at nu
        for nu in range(1, k + 1):
            h, rest = key[0], key[1:]
            s = av if nu % 2 == 0 else -av
            head, tail = rest[: nu - 1], rest[nu - 1:]
            for i_nu, v in zip(r, mixed[h]):
                if v:
                    idx = head + (i_nu,) + tail
                    out[idx] = get(idx, 0) + s * v
        # second sum: -2 sum_{mu<nu} (-1)^(mu+nu) R^{h i}_{i_nu i_mu} alpha_{i h rest}
        for mu in range(1, k + 1):
            for nu in range(mu + 1, k + 1):
                i, h, rest = key[0], key[1], key[2:]
                s = 2 * av if (mu + nu) % 2 else -2 * av
                head, mid, tail = rest[: mu - 1], rest[mu - 1:nu - 2], rest[nu - 2:]
                for i_nu in r:
                    block = raised[i_nu]
                    for i_mu in r:
                        v = block[i_mu][h][i]
                        if v:
                            idx = head + (i_mu,) + mid + (i_nu,) + tail
                            out[idx] = get(idx, 0) + s * v
    return {idx: v for idx, v in out.items() if v}


def expected_weitzenbock_multiple(ctx: RationalTensorContext) -> Fraction:
    """(-K) k (N - k); equals a^2 k (N - k) when K = -a^2."""
    return -ctx.curvature * ctx.degree * (ctx.n_dim - ctx.degree)


def weitzenbock_sums(ctx: RationalTensorContext, R: dict) -> dict:
    """Direct exact evaluation of the two curvature sums at every index tuple.

    R is any rational 4-tensor keyed by index tuples. Returns the nonzero
    totals; for constant curvature K they equal expected_weitzenbock_multiple(ctx)
    times alpha, exactly.
    """
    k = ctx.degree
    d_a, alpha = _cleared(ctx.alpha)
    if not is_antisymmetric(alpha, k):
        raise PreconditionError("alpha fails the exact antisymmetry scan")
    # with g^-1 = A / e and R = Ri / d_r, R^h_j and R^{h i}_{b c} carry 1 / (e^2 d_r)
    d_r, Ri = _cleared(R)
    e, A = _cleared_matrix(ctx.metric_inv)
    _, mixed = _ricci(A, Ri)
    scale = e * e * d_r * d_a
    return {idx: Fraction(v, scale) for idx, v in _sums(k, mixed, _raised(A, Ri), alpha).items()}


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


def _serialize_context(ctx: RationalTensorContext) -> dict:
    return {
        "N": ctx.n_dim,
        "k": ctx.degree,
        "K": str(ctx.curvature),
        "metric": [[str(x) for x in row] for row in ctx.metric],
        "alpha": {",".join(map(str, k)): str(v) for k, v in sorted(ctx.alpha.items())},
    }


def verify_identities(ctx: RationalTensorContext) -> Optional[str]:
    """Run every exact identity on one context; None on success, else reason.

    On integers: with g = G / d_g, g^-1 = A / e (so G A = D I for D = d_g e),
    K = p / q and alpha = a / d_a, R = p / (q d_g^2) S for S = _riemann(G, 1),
    and each check compares with its target scaled by the same factors.
    """
    n, k = ctx.n_dim, ctx.degree
    d_g, G = _cleared_matrix(ctx.metric)
    e, A = _cleared_matrix(ctx.metric_inv)
    D = d_g * e
    S = _riemann(G, 1)
    if not riemann_symmetries_hold(S, n):
        return "riemann symmetries"
    lower, mixed = _ricci(A, S)
    if lower != [[(n - 1) * D * x for x in row] for row in G]:
        return "ricci lower"
    if mixed != [[(n - 1) * D * D * (i == j) for j in range(n)] for i in range(n)]:
        return "ricci mixed"
    # both sides of the sums identity carry the factor p: at K = 0 each is 0
    if ctx.curvature == 0:
        return None
    _, alpha = _cleared(ctx.alpha)
    sums = _sums(k, mixed, _raised(A, S), alpha)
    # both dicts hold nonzero entries only, so dict equality is tensor equality;
    # sums equal to a multiple of alpha are antisymmetric, as make_context has
    # found alpha to be
    multiple = -k * (n - k) * D * D
    target = {idx: multiple * v for idx, v in alpha.items() if multiple and v}
    if sums != target:
        return "weitzenbock sums"
    return None


def run_verification(max_dim: int = 5, trials: int = 50, seed: int = 0) -> dict:
    """Seeded exact suite over every (N, k), 2 <= N <= max_dim, 0 <= k <= N.

    max_dim must lie in [2, 6], the dimensions a context accepts, and trials
    must be at least 1, so that a run checks something. Returns the report as
    plain data: one entry per (N, k) in "results", with the failing trial's
    reason and context under "failure" when a pair fails.
    """
    if not 2 <= max_dim <= 6:
        raise ConfigError(f"max_dim must lie between 2 and 6, got {max_dim}")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    results = []
    for n in range(2, max_dim + 1):
        for k in range(0, n + 1):
            result = {"N": n, "k": k, "trials": trials, "passed": True,
                      "star_sign": star_involution_sign(n, k)}
            for t in range(trials):
                rng = random.Random(seed * 1_000_003 + n * 10_007 + k * 101 + t)
                ctx = random_context(n, k, rng)
                reason = verify_identities(ctx)
                if reason is not None:
                    result["passed"] = False
                    result["failure"] = {"trial": t, "reason": reason,
                                         "context": _serialize_context(ctx)}
                    break
            results.append(result)
    return {
        "max_dim": max_dim,
        "trials": trials,
        "seed": seed,
        "all_passed": all(r["passed"] for r in results),
        "note": SIGN_CONVENTION_NOTE,
        "results": results,
    }
