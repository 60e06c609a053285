"""The benchmark's checkers pass real outputs and reject corrupted ones.

Run from the repository root: python3 -m pytest hodgebench/tests -q
"""

import contextlib
import io
import json
import random

import numpy as np
import pytest

import checks as C
import hodgedec as hd
import spans
from hodgedec import cli

SMALL = (1.0, 1.5, 0.15)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def _mesh(tmp_path, a, rho, h, name="mesh.json"):
    path = tmp_path / name
    _cli("mesh", "--curvature", a, "--radius", rho, "--edge", h, "--out", path, "--deterministic")
    return path, json.loads(path.read_text())


def _forms(mesh_path, names, seed):
    mesh = hd.load_mesh(mesh_path)
    cx = hd.build_complex(mesh)
    stars = hd.assemble_stars(mesh, cx)
    return [hd.builtin_form(n, mesh, cx, stars, seed=seed).values for n in names]


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("split")
    path, mesh = _mesh(tmp, *SMALL)
    out = tmp / "split.json"
    _cli("decompose", "--mesh", path, "--form", "builtin:mixed", "--space", "l2", "--seed", 3, "--out", out)
    stream = tmp / "stream.json"
    _cli("stream", "--mesh", path, "--form", "builtin:coexact", "--seed", 3, "--out", stream)
    mixed, coexact = _forms(path, ["mixed", "coexact"], 3)
    disc = C.Disc.from_mesh(mesh)
    return disc, json.loads(out.read_text()), mixed, json.loads(stream.read_text()), coexact


def _bound(space):
    return C.solver_bound(space, SMALL[1], SMALL[2])


def _interior_edge(disc):
    return int(np.flatnonzero(disc.interior_edges)[len(disc.edges) // 4])


def test_split_checks_pass_and_match_the_dense_oracle(small_split):
    disc, report, alpha, _, _ = small_split
    C.check_oracle(disc, report, alpha, _bound("l2"))


def test_split_rejects_gamma_with_one_interior_edge_perturbed(small_split):
    disc, report, alpha, _, _ = small_split
    bad = dict(report, gamma=list(report["gamma"]))
    bad["gamma"][_interior_edge(disc)] += 1e-6 * float(np.abs(alpha).max())
    with pytest.raises(C.CheckFailed, match="reproduce alpha"):
        C.check_split(disc, bad, alpha, _bound("l2"))


def test_split_rejects_a_perturbed_gamma_even_when_alpha_matches_it(small_split):
    # the reconstruction then holds; harmonicity must catch the change
    disc, report, alpha, _, _ = small_split
    e = _interior_edge(disc)
    bump = 1e-6 * float(np.abs(alpha).max())
    bad = dict(report, gamma=list(report["gamma"]))
    bad["gamma"][e] += bump
    shifted = alpha.copy()
    shifted[e] += bump
    with pytest.raises(C.CheckFailed, match="not co-closed|not closed"):
        C.check_split(disc, bad, shifted, _bound("l2"))


def test_split_rejects_beta_on_the_boundary(small_split):
    disc, report, alpha, _, _ = small_split
    bad = dict(report, beta=list(report["beta"]))
    bad["beta"][int(np.flatnonzero(~disc.interior_vertices)[0])] = 1e-3
    with pytest.raises(C.CheckFailed, match="boundary vertex"):
        C.check_split(disc, bad, alpha, _bound("l2"))


def test_split_rejects_nan(small_split):
    disc, report, alpha, _, _ = small_split
    bad = dict(report, gamma=list(report["gamma"]))
    bad["gamma"][_interior_edge(disc)] = float("nan")
    with pytest.raises(C.CheckFailed, match="non-finite"):
        C.check_split(disc, bad, alpha, _bound("l2"))


def test_stream_checks_pass_and_reject_a_perturbed_face(small_split):
    disc, _, _, stream, coexact = small_split
    C.check_stream(disc, stream, coexact)
    bad = dict(stream, f=list(stream["f"]))
    face = int(np.flatnonzero(disc.interior_faces)[0])
    bad["f"][face] += 1e-6 * float(np.abs(stream["f"]).max())
    with pytest.raises(C.CheckFailed, match="misses the input"):
        C.check_stream(disc, bad, coexact)


def test_dx_share_rejects_a_split_that_moved_dx_into_the_exact_part(small_split):
    disc = small_split[0]
    dx = C.coordinate_form(disc)
    C.check_harmonic_share(disc, dx, dx)
    with pytest.raises(C.CheckFailed, match="H1 content"):
        C.check_harmonic_share(disc, 0.9 * dx, dx)


@pytest.mark.parametrize("params", [(1.0, 3.0, 0.3), (0.0, 4.0, 0.25)])
def test_mesh_rejects_a_vertex_moved_off_its_ring(tmp_path, params):
    _, mesh = _mesh(tmp_path, *params)
    C.check_mesh(mesh, *params)
    a, _, h = params
    radii = C.geodesic_radii(np.array(mesh["vertices"]), a)
    v = int(np.flatnonzero(np.isclose(radii, 3 * h))[0])
    x, y = mesh["vertices"][v]
    scale = 1.0 + 0.05 * h  # a small radial move, inside the edge-length band
    bad = dict(mesh, vertices=[list(p) for p in mesh["vertices"]])
    bad["vertices"][v] = [x * scale, y * scale]
    with pytest.raises(C.CheckFailed, match="off its ring"):
        C.check_mesh(bad, *params)


def test_mesh_rejects_a_flipped_triangle(tmp_path):
    params = (1.0, 3.0, 0.3)
    _, mesh = _mesh(tmp_path, *params)
    bad = dict(mesh, triangles=[list(t) for t in mesh["triangles"]])
    i, j, k = bad["triangles"][7]
    bad["triangles"][7] = [i, k, j]
    with pytest.raises(C.CheckFailed, match="counterclockwise"):
        C.check_mesh(bad, *params)


def test_truncation_rejects_distances_that_do_not_decrease():
    rows = [{"R": 1.5, "distance": 1.6}, {"R": 2.0, "distance": 1.1}, {"R": 2.5, "distance": 0.7}]
    C.check_truncation({"distances": rows}, (1.5, 2.0, 2.5))
    rows[2]["distance"] = 1.2
    with pytest.raises(C.CheckFailed, match="not decreasing"):
        C.check_truncation({"distances": rows}, (1.5, 2.0, 2.5))


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
def test_weitzenbock_flags_a_riemann_tensor_at_another_curvature(n_dim):
    rng = random.Random(7)
    for k in range(1, n_dim):
        ctx = hd.weitzenbock.random_context(n_dim, k, rng)
        while not ctx.alpha:
            ctx = hd.weitzenbock.random_context(n_dim, k, rng)
        good = hd.weitzenbock.weitzenbock_sums(ctx, C.riemann(ctx.metric, ctx.curvature))
        C.check_weitzenbock(good, n_dim, k, ctx.curvature, ctx.alpha)
        wrong = hd.weitzenbock.weitzenbock_sums(ctx, C.riemann(ctx.metric, ctx.curvature - 1))
        with pytest.raises(C.CheckFailed, match="differs"):
            C.check_weitzenbock(wrong, n_dim, k, ctx.curvature, ctx.alpha)


def test_tensor_report_checks(tmp_path):
    out = tmp_path / "tensor.json"
    _cli("verify-tensor", "--max-dim", 3, "--trials", 1, "--seed", 4, "--out", out, "--deterministic")
    report = json.loads(out.read_text())
    C.check_tensor_report(report, 3, 1, 4)
    for corrupt, message in (
        (lambda r: r.update(all_passed=False), "reports a failure"),
        (lambda r: r["results"][2].update(star_sign=-r["results"][2]["star_sign"]), "star sign"),
        (lambda r: r["results"].pop(), "pairs"),
        (lambda r: r["results"][0].update(trials=0), "passing trials"),
    ):
        bad = json.loads(out.read_text())
        corrupt(bad)
        with pytest.raises(C.CheckFailed, match=message):
            C.check_tensor_report(bad, 3, 1, 4)


def test_tracer_records_nested_spans_with_repeatable_counts(tmp_path):
    path, _ = _mesh(tmp_path, 1.0, 1.0, 0.2)
    argv = ["decompose", "--mesh", str(path), "--form", "builtin:mixed", "--space", "h1",
            "--out", str(tmp_path / "s.json"), "--deterministic"]
    original = hd.dec.solve_spd
    tracer = spans.Tracer()
    tracer.install(hd)
    try:
        assert hd.dec.solve_spd is not original
        per_round = []
        for _ in range(2):
            first = len(tracer)
            tracer.enabled = True
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.span("cli.decompose", cli.main, argv) == 0
            tracer.enabled = False
            per_round.append(spans.round_metrics(tracer, first, len(tracer), {}))
    finally:
        tracer.uninstall()
    assert hd.dec.solve_spd is original
    names = [tracer.names[i] for i in tracer.name_id]
    solve = names.index("dec.solve_spd")
    assert names[tracer.parent[solve]] == "hodge.decompose"
    counts = [{k: v for k, v in r.items() if not k.endswith("s")} for r in per_round]
    assert counts[0] == counts[1]
    assert per_round[0]["io.mesh_checksum.calls"] == 1
    assert per_round[0]["dec.solve_spd.calls"] == 4
    assert per_round[0]["io.bytes_written"] == (tmp_path / "s.json").stat().st_size
    rm = per_round[0]
    assert rm["hodge.decompose.self_s"] < rm["hodge.decompose.s"] <= rm["cli.decompose.s"]
