import copy
import gc
import hashlib
import importlib
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hodgedec as hd
from hodgedec import dec, geometry, hodge, io, weitzenbock
from hodgedec.cli import main
from hodgedec.errors import ChecksumError, ConfigError
from hodgedec.simplicial import Cochain

from conftest import counted, make_lattice_mesh, make_triangle_beside_torus, unreachable_placement

# sha256 of the report of `verify-tensor --max-dim 5 --trials 2 --seed 7 --deterministic`
# without its `command` key, re-dumped with indent 2: the suite is exact, so its report
# is the same everywhere
VERIFY_TENSOR_SHA256 = "de1adc7f0a8e83c78129c82d7f85768e7c08cbc04adab2b2b3e2c351885b5e81"


def json_text_stamp(mesh):
    """The stamp of files written before the array digest: sha256 of the mesh
    as compact, key-sorted JSON text."""
    text = json.dumps({"curvature": mesh.curvature, "vertices": mesh.vertices.tolist(),
                       "triangles": mesh.triangles.tolist()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def small_mesh(tmp_path, discretize):
    disc = discretize(1.0, 1.0, 0.2)
    mesh, cx = disc.mesh, disc.cx
    path = tmp_path / "mesh.json"
    io.save_mesh(mesh, path)
    return mesh, cx, disc, path


class TestFiles:
    def test_mesh_roundtrip(self, small_mesh):
        mesh, _, _, path = small_mesh
        loaded = io.load_mesh(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)
        assert loaded.curvature == mesh.curvature
        assert io.mesh_checksum(loaded) == io.mesh_checksum(mesh)

    def test_cochain_roundtrip(self, small_mesh, tmp_path, rng):
        mesh, cx, _, _ = small_mesh
        c = Cochain(1, rng.standard_normal(cx.num_edges))
        path = tmp_path / "form.json"
        io.save_cochain(c, mesh, path)
        loaded = io.load_cochain(path, io.mesh_checksum(mesh))
        assert loaded.degree == 1
        np.testing.assert_array_equal(loaded.values, c.values)

    def test_checksum_mismatch_rejected(self, small_mesh, tmp_path, rng):
        mesh, cx, _, _ = small_mesh
        c = Cochain(1, rng.standard_normal(cx.num_edges))
        path = tmp_path / "form.json"
        io.save_cochain(c, mesh, path)
        other = hd.ball_mesh(1.0, 1.0, 0.25)
        with pytest.raises(ChecksumError):
            io.load_cochain(path, io.mesh_checksum(other))

    def test_checksum_pinned(self):
        # cochain files carry these digests; they must not change with the encoder
        flat = make_lattice_mesh()
        curved = hd.TriMesh(0.5 * flat.vertices, flat.triangles, 0.75)
        assert io.mesh_checksum(flat) == (
            "4853268aa64a7e9fcb45f262e30c0a8f3661a81c773637759b3cc815ea949fce"
        )
        assert io.mesh_checksum(curved) == (
            "2a21b90f9c0641d6fa1f86a2b931cb804ead56b43dc2e5af31f440962402d065"
        )

    @pytest.mark.parametrize("change", ["ulp", "signed-zero", "curvature-ulp"])
    def test_checksum_sees_every_bit(self, change):
        # the digest tells the meshes apart by their bits
        flat = make_lattice_mesh()
        base = hd.TriMesh(0.5 * flat.vertices, flat.triangles, 0.75)
        vertices, curvature = base.vertices.copy(), base.curvature
        if change == "ulp":
            vertices[7, 1] = np.nextafter(vertices[7, 1], np.inf)
        elif change == "signed-zero":
            assert vertices[0, 0] == 0.0
            vertices[0, 0] = -0.0
        else:
            curvature = float(np.nextafter(curvature, 1.0))
        other = hd.TriMesh(vertices, base.triangles, curvature)
        assert io.mesh_checksum(other) != io.mesh_checksum(base)

    def test_checksum_ignores_index_dtype_and_layout(self):
        mesh = make_lattice_mesh()
        expected = io.mesh_checksum(mesh)
        # every other row of arrays that hold each row twice: strided views
        wide = np.asfortranarray(np.repeat(mesh.vertices, 2, axis=0))[::2]
        tri = np.repeat(mesh.triangles, 2, axis=0)[::2]
        assert not wide.flags.c_contiguous and not tri.flags.c_contiguous
        for triangles in (tri, tri.astype(np.int32), mesh.triangles.astype(np.int32)):
            # the checksum converts the arrays itself, whatever TriMesh would do
            raw = SimpleNamespace(vertices=wide, triangles=triangles, curvature=mesh.curvature)
            assert io.mesh_checksum(raw) == expected
            assert io.mesh_checksum(hd.TriMesh(wide, triangles, mesh.curvature)) == expected

    def test_json_text_stamp_rejected(self, small_mesh, tmp_path, rng):
        mesh, cx, _, _ = small_mesh
        path = tmp_path / "form.json"
        for stamped in (mesh, hd.ball_mesh(1.0, 1.0, 0.25)):
            io.save_json({"degree": 1, "values": rng.standard_normal(cx.num_edges),
                          "mesh_checksum": json_text_stamp(stamped)}, path)
            with pytest.raises(ChecksumError):
                io.load_cochain(path, io.mesh_checksum(mesh))


class TestCli:
    def test_mesh_then_decompose_then_stream(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        assert main(["mesh", "--curvature", "1", "--radius", "1", "--edge", "0.2",
                     "--out", str(mesh_path)]) == 0
        split_path = tmp_path / "split.json"
        assert main(["decompose", "--mesh", str(mesh_path), "--form", "builtin:mixed",
                     "--space", "h1", "--seed", "2", "--out", str(split_path)]) == 0
        report = json.loads(split_path.read_text())
        assert report["diagnostics"]["reconstruction_residual"] <= 1e-8
        assert report["diagnostics"]["orthogonality"]["defect"] <= 1e-8
        stream_path = tmp_path / "stream.json"
        assert main(["stream", "--mesh", str(mesh_path), "--form", "builtin:coexact",
                     "--seed", "2", "--out", str(stream_path)]) == 0
        stream = json.loads(stream_path.read_text())
        assert stream["residual"] <= 1e-10

    @pytest.mark.parametrize("command", ["decompose", "stream"])
    @pytest.mark.parametrize("defect", ["nan", "short", "degree", "huge"])
    def test_malformed_cochain_is_validation_error(self, small_mesh, tmp_path, command, defect):
        mesh, cx, disc, path = small_mesh
        values = hd.builtin_form("coexact", mesh, cx, disc, seed=2).values.copy()
        degree = 1
        if defect == "nan":
            values[np.flatnonzero(cx.interior_edges)[0]] = np.nan
        elif defect == "short":
            values = values[:-1]
        elif defect == "huge":  # finite, but every squared norm overflows
            values *= 1e300
        else:
            degree, values = 2, np.zeros(cx.num_faces)
        form_path = tmp_path / "form.json"
        # written directly: io.save_json refuses the NaN
        form_path.write_text(json.dumps({"degree": degree, "values": values.tolist(),
                                         "mesh_checksum": io.mesh_checksum(mesh)}))
        out = tmp_path / "out.json"
        argv = [command, "--mesh", str(path), "--form", str(form_path), "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()

    def test_verify_tensor_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify-tensor", "--max-dim", "4", "--trials", "10", "--seed", "7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert len(payload["results"]) == 3 + 4 + 5  # every (N, k) pair up to N=4
        printed = capsys.readouterr().out
        assert "N=4 k=2" in printed

    def test_verify_tensor_reports_a_failing_pair(self, tmp_path, capsys, monkeypatch):
        passing = weitzenbock.verify_identities

        def fail_n3_k1(ctx):
            if (ctx.n_dim, ctx.degree) == (3, 1):
                fail_n3_k1.trials += 1
                if fail_n3_k1.trials == 2:
                    return "weitzenbock sums"
            return passing(ctx)

        fail_n3_k1.trials = 0
        monkeypatch.setattr(weitzenbock, "verify_identities", fail_n3_k1)
        out = tmp_path / "verify.json"
        assert main(["verify-tensor", "--max-dim", "3", "--trials", "3",
                     "--deterministic", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is False
        failed = [r for r in payload["results"] if not r["passed"]]
        assert [(r["N"], r["k"]) for r in failed] == [(3, 1)]
        failure = failed[0]["failure"]
        assert (failure["trial"], failure["reason"]) == (1, "weitzenbock sums")
        assert (failure["context"]["N"], failure["context"]["k"]) == (3, 1)
        assert all("failure" not in r for r in payload["results"] if r["passed"])
        captured = capsys.readouterr()
        assert "N=3 k=1: 3 trials FAIL (star sign +1)" in captured.out
        assert "verification FAILED" in captured.err

    def test_verify_tensor_report_is_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        argv = ["verify-tensor", "--max-dim", "5", "--trials", "2", "--seed", "7",
                "--deterministic", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report.pop("command") == "hodgedec " + " ".join(argv)
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        assert hashlib.sha256((text + "\n").encode()).hexdigest() == VERIFY_TENSOR_SHA256

    @pytest.mark.parametrize("space", ["l2", "h1"])
    def test_decompose_orthogonality_is_the_two_pairings_with_gamma(
        self, small_mesh, tmp_path, space
    ):
        path = tmp_path / "split.json"
        assert main(["decompose", "--mesh", str(small_mesh[3]), "--form", "builtin:mixed",
                     "--space", space, "--seed", "2", "--deterministic", "--out", str(path)]) == 0
        diag = json.loads(path.read_text())["diagnostics"]
        assert set(diag) == {"norm_alpha", "norm_exact", "norm_coexact", "norm_gamma",
                             "reconstruction_residual", "orthogonality", "pythagoras_defect"}
        ortho = diag["orthogonality"]
        assert set(ortho) == {"exact_harmonic", "coexact_harmonic", "defect"}
        larger = max(abs(ortho["exact_harmonic"]), abs(ortho["coexact_harmonic"]))
        assert ortho["defect"] == larger / max(diag["norm_alpha"] ** 2, sys.float_info.min)

    @pytest.mark.parametrize("form, space", [("mixed", "h1"), ("dx", "l2")])
    def test_decompose_report_blocks_are_the_library_results(self, small_mesh, tmp_path, form, space):
        path = tmp_path / "split.json"
        assert main(["decompose", "--mesh", str(small_mesh[3]), "--form", f"builtin:{form}",
                     "--space", space, "--seed", "4", "--deterministic", "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        disc = hd.discretize(io.load_mesh(small_mesh[3]))
        alpha = hd.builtin_form(form, disc.mesh, disc.cx, disc, seed=4)
        split = hd.decompose(alpha, space, disc)
        assert report["diagnostics"] == split.diagnostics
        assert report["harmonic"] == hd.harmonic_diagnostics(split.gamma, disc)
        assert report["solver"] == split.solver

    def test_disconnected_mesh_file_is_validation_error(self, tmp_path, capsys):
        mesh_path, out = tmp_path / "m.json", tmp_path / "out.json"
        io.save_mesh(make_triangle_beside_torus(), mesh_path)
        assert main(["decompose", "--mesh", str(mesh_path), "--form", "builtin:dx",
                     "--out", str(out)]) == 1
        assert "connected pieces" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_is_validation_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["decompose", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_checksum_mismatch_exit_code(self, tmp_path, rng):
        mesh_a = tmp_path / "a.json"
        mesh_b = tmp_path / "b.json"
        main(["mesh", "--curvature", "0", "--radius", "1", "--edge", "0.2", "--out", str(mesh_a)])
        main(["mesh", "--curvature", "0", "--radius", "1", "--edge", "0.25", "--out", str(mesh_b)])
        mesh = io.load_mesh(mesh_a)
        cx = hd.build_complex(mesh)
        form_path = tmp_path / "form.json"
        io.save_cochain(Cochain(1, np.zeros(cx.num_edges)), mesh, form_path)
        code = main(["decompose", "--mesh", str(mesh_b), "--form", str(form_path),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1

    def test_json_text_stamp_rejected(self, discretize, tmp_path, capsys):
        disc = discretize(1.0, 3.0, 0.2)  # wide enough for the cutoff scale R = 1.2
        mesh, mesh_path, form_path = disc.mesh, tmp_path / "mesh.json", tmp_path / "form.json"
        io.save_mesh(mesh, mesh_path)
        stamp = json_text_stamp(mesh)
        coexact = hd.builtin_form("coexact", mesh, disc.cx, disc, seed=1)
        io.save_json({"degree": 1, "values": coexact.values, "mesh_checksum": stamp}, form_path)
        for command in ("decompose", "stream", "truncate"):
            out = tmp_path / f"{command}.json"
            extra = ["--radii", "1.2"] if command == "truncate" else []
            assert main([command, "--mesh", str(mesh_path), "--form", str(form_path), *extra,
                         "--out", str(out)]) == 1
            printed = capsys.readouterr()
            assert f"was built against mesh {stamp[:12]}" in printed.err
            assert printed.out == "" and not out.exists()

    def test_json_text_stamp_of_another_mesh_exit_code(self, small_mesh, tmp_path, capsys):
        _, _, _, mesh_path = small_mesh
        other = hd.ball_mesh(1.0, 1.0, 0.25)
        form_path, out = tmp_path / "form.json", tmp_path / "out.json"
        io.save_json({"degree": 1, "values": [0.0] * hd.build_complex(other).num_edges,
                      "mesh_checksum": json_text_stamp(other)}, form_path)
        assert main(["decompose", "--mesh", str(mesh_path), "--form", str(form_path),
                     "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert f"was built against mesh {json_text_stamp(other)[:12]}" in printed.err
        assert printed.out == "" and not out.exists()

    def test_written_files_redump_to_themselves(self, tmp_path):
        mesh_path, form_path = tmp_path / "m.json", tmp_path / "form.json"
        assert main(["mesh", "--curvature", "1", "--radius", "3", "--edge", "0.3",
                     "--out", str(mesh_path)]) == 0
        mesh = io.load_mesh(mesh_path)
        cx = hd.build_complex(mesh)
        io.save_cochain(hd.builtin_form("coexact", mesh, cx, hd.assemble_stars(mesh, cx), seed=4),
                        mesh, form_path)
        paths = [mesh_path, form_path]
        for i, argv in enumerate([
            ["decompose", "--mesh", str(mesh_path), "--form", "builtin:mixed"],
            ["decompose", "--mesh", str(mesh_path), "--form", str(form_path), "--deterministic"],
            ["stream", "--mesh", str(mesh_path), "--form", str(form_path)],
            ["truncate", "--mesh", str(mesh_path), "--radii", "1.2,1.4"],
            ["verify-tensor", "--max-dim", "3", "--trials", "2"],
        ]):
            paths.append(tmp_path / f"out{i}.json")
            assert main(argv + ["--out", str(paths[-1])]) == 0
        for path in paths:
            text = path.read_text()
            assert json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n" == text

    def test_indent_2_files_give_the_same_report(self, small_mesh, tmp_path):
        # files written before save_json dropped the indentation keep loading
        mesh, cx, disc, _ = small_mesh
        mesh_path, form_path, out = tmp_path / "m.json", tmp_path / "form.json", tmp_path / "out.json"
        io.save_mesh(mesh, mesh_path)
        io.save_cochain(hd.builtin_form("mixed", mesh, cx, disc, seed=3), mesh, form_path)
        argv = ["decompose", "--mesh", str(mesh_path), "--form", str(form_path),
                "--deterministic", "--out", str(out)]
        assert main(argv) == 0
        compact = out.read_bytes()
        for path in (mesh_path, form_path):
            path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n")
            assert path.read_text().startswith("{\n  ")
        assert main(argv) == 0
        assert out.read_bytes() == compact

    def test_decompose_reports_solver_statistics_per_block(self, tmp_path, discretize):
        disc = discretize(1.0, 3.0, 0.1)  # both blocks above dec.COARSE_SIZE
        mesh_path = tmp_path / "m.json"
        io.save_mesh(disc.mesh, mesh_path)
        sizes = {
            "vertex": int(disc.cx.interior_vertices.sum()),
            "face": int(disc.cx.interior_faces.sum()),
        }
        s1 = sp.diags(disc.star1)
        nnz = {name: (M.T @ s1 @ M).tocsr().nnz for name, (_, M) in hodge._potential_maps(disc).items()}
        reports = {}
        for form in ("mixed", "dx", "mixed"):
            path = tmp_path / "split.json"
            assert main(["decompose", "--mesh", str(mesh_path), "--form", f"builtin:{form}",
                         "--seed", "3", "--deterministic", "--out", str(path)]) == 0
            if form in reports:  # the multigrid path is deterministic too
                assert path.read_bytes() == reports[form]
            reports[form] = path.read_bytes()
        solvers = {form: json.loads(report)["solver"] for form, report in reports.items()}
        assert set(solvers["mixed"]) == {"vertex", "face"}
        for name, block in solvers["mixed"].items():
            assert set(block) == {"size", "nnz", "levels", "iterations", "residual"}
            assert block["size"] == sizes[name]
            assert block["nnz"] == nnz[name]
            assert block["levels"] >= 2 and block["iterations"] >= 1
            assert block["residual"] <= 1e-8
        # dx is exact: its face right-hand side is roundoff, which x = 0 already
        # meets, so that solve builds no hierarchy
        face = solvers["dx"]["face"]
        assert (face["size"], face["nnz"], face["levels"], face["iterations"]) == (
            sizes["face"], nnz["face"], 0, 0
        )

    def test_deterministic_reports_are_byte_identical(self, tmp_path):
        mesh_path = tmp_path / "m.json"
        main(["mesh", "--curvature", "1", "--radius", "1", "--edge", "0.2",
              "--out", str(mesh_path)])
        path = tmp_path / "report.json"
        outs = []
        for _ in range(2):
            assert main(["decompose", "--mesh", str(mesh_path), "--form", "builtin:mixed",
                         "--seed", "5", "--deterministic", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert b"wall_clock" not in outs[0]

    @pytest.mark.parametrize("deterministic", [False, True], ids=["timed", "deterministic"])
    @pytest.mark.parametrize("argv", [
        ["decompose", "--form", "builtin:mixed"],
        ["stream", "--form", "builtin:coexact"],
        ["truncate", "--radii", "1.2"],
        ["verify-tensor", "--max-dim", "3", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_main_stamps_every_report(self, discretize, tmp_path, argv, deterministic):
        # every report names its command line and is timed exactly when not
        # deterministic; a report of a mesh carries that mesh's checksum
        mesh_path, out = tmp_path / "ball.json", tmp_path / "report.json"
        if argv[0] != "verify-tensor":
            io.save_mesh(discretize(1.0, 3.0, 0.3).mesh, mesh_path)
            argv = argv + ["--mesh", str(mesh_path)]
        argv = argv + ["--deterministic"] * deterministic + ["--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "hodgedec " + " ".join(argv)
        if argv[0] != "verify-tensor":
            assert report["mesh_checksum"] == io.mesh_checksum(io.load_mesh(mesh_path))
        if deterministic:
            assert "wall_clock_seconds" not in report
        else:
            seconds = report["wall_clock_seconds"]
            assert type(seconds) is float and math.isfinite(seconds) and seconds >= 0.0

    @pytest.mark.parametrize("argv", [
        ["decompose", "--mesh", "ball.json", "--form", "builtin:mixed"],
        ["convergence", "--curvature", "1", "--radius", "1", "--levels", "1"],
    ], ids=lambda argv: argv[0])
    def test_non_convergence_exits_2_and_writes_nothing(
        self, discretize, tmp_path, monkeypatch, capsys, argv
    ):
        io.save_mesh(discretize(1.0, 1.0, 0.2).mesh, tmp_path / "ball.json")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(dec, "MAX_CG_ITERATIONS", 1)
        assert main(argv + ["--out", "out.json"]) == 2
        assert capsys.readouterr().err.startswith("numerical non-convergence:")
        assert not (tmp_path / "out.json").exists()

    def test_mesh_output_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for p in (p1, p2):
            main(["mesh", "--curvature", "1", "--radius", "1.2", "--edge", "0.15",
                  "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_convergence_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "1.5", "--levels", "2",
                     "--edge", "0.2", "--form", "builtin:dx", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["level", "h"]
        assert "delta_residual_input" in header
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 2
        r0 = float(rows[0]["delta_residual_input"])
        r1 = float(rows[1]["delta_residual_input"])
        assert r1 < r0

    def test_truncate_distances_decrease(self, tmp_path):
        mesh_path, out = tmp_path / "ball.json", tmp_path / "trunc.json"
        assert main(["mesh", "--curvature", "1", "--radius", "3", "--edge", "0.15",
                     "--out", str(mesh_path)]) == 0
        assert main(["truncate", "--radii", "1.1,1.3,1.5", "--mesh", str(mesh_path),
                     "--form", "builtin:dx", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        dists = [row["distance"] for row in payload["distances"]]
        assert dists[0] > dists[1] > dists[2]

    def test_truncate_checks_once_per_stage(self, tmp_path, monkeypatch):
        mesh_path, out = tmp_path / "ball.json", tmp_path / "trunc.json"
        assert main(["mesh", "--curvature", "1", "--radius", "3", "--edge", "0.15",
                     "--out", str(mesh_path)]) == 0
        calls = {"gate": 0, "radial": 0, "scales": 0}
        radial = counted(calls, "radial", geometry.radial_distance)
        scales = counted(calls, "scales", geometry.check_cutoff_scales)
        monkeypatch.setattr(hodge, "_check_edge_values", counted(calls, "gate", hodge._check_edge_values))
        for module in (geometry, hodge):
            monkeypatch.setattr(module, "radial_distance", radial)
        for module in (geometry, hodge, sys.modules["hodgedec.cli"]):
            monkeypatch.setattr(module, "check_cutoff_scales", scales)
        assert main(["truncate", "--radii", "1.1,1.3,1.5", "--mesh", str(mesh_path),
                     "--form", "builtin:dx", "--out", str(out)]) == 0
        # after parsing, before the discretization, and once in truncation_distance
        assert calls["gate"] == 1 and calls["radial"] <= 3 and calls["scales"] <= 3

    def test_truncate_rejects_oversized_cutoff(self, tmp_path, monkeypatch, capsys):
        mesh_path, out = tmp_path / "ball.json", tmp_path / "t.json"
        assert main(["mesh", "--curvature", "1", "--radius", "3", "--edge", "0.15",
                     "--out", str(mesh_path)]) == 0
        monkeypatch.setattr(dec, "assemble_stars", _unreachable)
        assert main(["truncate", "--radii", "2.0", "--mesh", str(mesh_path),
                     "--form", "builtin:dx", "--out", str(out)]) == 1
        assert "exceeds the meshed radius" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--curvature", "--radius", "--edge"])
    def test_truncate_takes_its_ball_only_from_mesh(self, small_mesh, tmp_path, monkeypatch,
                                                    capsys, flag):
        # the ball comes from --mesh alone: a meshing flag is a usage error
        monkeypatch.setattr(io, "load_mesh", _unreachable)
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--mesh", str(small_mesh[3]), flag, "2", "--radii", "1.2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err and "usage:" in err
        assert not out.exists()

    def test_truncate_needs_mesh(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--radii", "1.2", "--out", str(out)]) == 1
        assert "--mesh" in capsys.readouterr().err
        assert not out.exists()


def _unreachable(*args, **kwargs):
    raise AssertionError("a rejected run reached the numerics")


class TestRunParameters:
    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "1"])
    @pytest.mark.parametrize("command", ["decompose", "stream"])
    def test_tolerance_outside_unit_interval(self, small_mesh, tmp_path, capsys, command, tol):
        path = small_mesh[3]
        out = tmp_path / "out.json"
        argv = [command, "--mesh", str(path), "--form", "builtin:coexact", f"--tol={tol}",
                "--out", str(out)]
        assert main(argv) == 1
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_convergence_needs_a_level(self, tmp_path, monkeypatch, levels):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "1", f"--levels={levels}",
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "1"])
    def test_convergence_tolerance_checked_before_meshing(self, tmp_path, monkeypatch, capsys, tol):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "1", "--levels", "2",
                     f"--tol={tol}", "--out", str(out)]) == 1
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_rejects_a_zero_form_before_solving(self, tmp_path, monkeypatch, capsys):
        mesh = hd.ball_mesh(1.0, 1.5, 0.3)
        form = tmp_path / "zero.json"
        io.save_cochain(Cochain(1, np.zeros(hd.build_complex(mesh).num_edges)), mesh, form)
        monkeypatch.setattr(hodge, "decompose", _unreachable)
        out = tmp_path / "c.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "1.5", "--edge", "0.3",
                     "--levels", "1", "--form", str(form), "--out", str(out)]) == 1
        assert "zero L2 norm" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_rejects_an_overflowing_energy_before_solving(
        self, discretize, tmp_path, monkeypatch, capsys
    ):
        disc = discretize(1.0, 3.0, 0.1)  # the ball that the command meshes
        alpha = hd.builtin_form("mixed", disc.mesh, disc.cx, disc, seed=1)
        form = tmp_path / "huge.json"
        io.save_cochain(Cochain(1, alpha.values * 1e152), disc.mesh, form)
        monkeypatch.setattr(hodge, "decompose", _unreachable)
        out = tmp_path / "c.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "3", "--edge", "0.1",
                     "--levels", "1", "--space", "l2", "--form", str(form), "--out", str(out)]) == 1
        assert "energy is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_rejects_a_cochain_file_for_several_levels(self, tmp_path, monkeypatch, capsys):
        mesh = hd.ball_mesh(1.0, 1.5, 0.3)
        form = tmp_path / "form.json"
        io.save_cochain(Cochain(1, np.ones(hd.build_complex(mesh).num_edges)), mesh, form)
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "c.csv"
        assert main(["convergence", "--curvature", "1", "--radius", "1.5", "--edge", "0.3",
                     "--levels", "2", "--form", str(form), "--out", str(out)]) == 1
        assert "cochain file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, reason", [
        (["--curvature", "1", "--radius", "3", "--edge", "0.2", "--levels", "6"], "more than"),
        (["--curvature", "1e-153", "--radius", "1", "--edge", "0.2", "--levels", "2"], "underflows"),
        (["--curvature", "1", "--radius", "1", "--edge", "0.2", "--levels", "5000"], "0 < h"),
    ], ids=["vertex-cap", "underflow", "edge-underflows-to-zero"])
    def test_convergence_checks_the_finest_level_before_meshing(
        self, tmp_path, monkeypatch, capsys, argv, reason
    ):
        # level 0 alone would pass every check; the finest level does not
        geometry.ball_ring_sizes(float(argv[1]), float(argv[3]), float(argv[5]))
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "c.csv"
        assert main(["convergence", *argv, "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["", ","])
    def test_truncate_needs_a_radius(self, small_mesh, tmp_path, capsys, radii):
        out = tmp_path / "trunc.json"
        assert main(["truncate", f"--radii={radii}", "--mesh", str(small_mesh[3]),
                     "--out", str(out)]) == 1
        assert "cutoff scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["nan", "inf", "1.5,nan"])
    def test_truncate_rejects_non_finite_radius(self, small_mesh, tmp_path, monkeypatch, capsys, radii):
        monkeypatch.setattr(dec, "assemble_stars", _unreachable)
        out = tmp_path / "trunc.json"
        assert main(["truncate", f"--radii={radii}", "--mesh", str(small_mesh[3]),
                     "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert "finite" in printed.err and "nan" not in printed.out
        assert not out.exists()

    def test_cochain_file_checksummed_once(self, discretize, tmp_path, monkeypatch):
        disc = discretize(1.0, 3.0, 0.2)  # wide enough for the cutoff scale R = 1.2
        path, form = tmp_path / "mesh.json", tmp_path / "form.json"
        io.save_mesh(disc.mesh, path)
        coexact = hd.builtin_form("coexact", disc.mesh, disc.cx, disc, seed=1)
        io.save_cochain(coexact, disc.mesh, form)
        calls = []

        def counted(m):
            calls.append(1)
            return checksum(m)

        checksum = io.mesh_checksum
        monkeypatch.setattr(io, "mesh_checksum", counted)
        for command in ("decompose", "stream", "truncate"):
            calls.clear()
            extra = ["--radii", "1.2"] if command == "truncate" else []
            assert main([command, "--mesh", str(path), "--form", str(form), *extra,
                         "--out", str(tmp_path / f"{command}.json")]) == 0
            assert len(calls) == 1
        calls.clear()
        assert main(["convergence", "--curvature", "1", "--radius", "1", "--levels", "1",
                     "--out", str(tmp_path / "conv.csv")]) == 0
        assert calls == []

    @pytest.mark.parametrize("max_dim, trials", [(1, 5), (7, 5), (5, 0), (5, -2)])
    def test_verify_tensor_needs_pairs_and_trials(self, tmp_path, monkeypatch, max_dim, trials):
        monkeypatch.setattr(weitzenbock, "random_context", _unreachable)
        with pytest.raises(hd.ConfigError):
            weitzenbock.run_verification(max_dim=max_dim, trials=trials)
        out = tmp_path / "verify.json"
        assert main(["verify-tensor", f"--max-dim={max_dim}", f"--trials={trials}",
                     "--out", str(out)]) == 1
        assert not out.exists()

    # each command with arguments that would otherwise start its work
    @pytest.mark.parametrize("argv", [
        ["mesh", "--curvature", "1", "--radius", "1", "--edge", "0.2"],
        ["decompose", "--mesh", "mesh.json", "--form", "builtin:dx"],
        ["stream", "--mesh", "mesh.json", "--form", "builtin:coexact"],
        ["verify-tensor", "--max-dim", "4", "--trials", "3"],
        ["convergence", "--curvature", "1", "--radius", "1", "--levels", "1"],
        ["truncate", "--radii", "1.2", "--mesh", "mesh.json"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out", ["", "a_directory", "missing/out.json", "missing/"])
    def test_unwritable_out_rejected_before_work(self, tmp_path, monkeypatch, capsys, argv, out):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        monkeypatch.setattr(io, "load_mesh", _unreachable)
        monkeypatch.setattr(weitzenbock, "random_context", _unreachable)
        (tmp_path / "a_directory").mkdir()
        assert main(argv + ["--out", f"{tmp_path}/{out}" if out else ""]) == 1
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


def _valid_files(directory):
    """A small mesh file and a degree-1 cochain file that belongs to it."""
    mesh = hd.ball_mesh(1.0, 0.6, 0.2)
    cx = hd.build_complex(mesh)
    disc = hd.assemble_stars(mesh, cx)
    mesh_path, form_path = directory / "mesh.json", directory / "form.json"
    io.save_mesh(mesh, mesh_path)
    io.save_cochain(hd.builtin_form("coexact", mesh, cx, disc, seed=1), mesh, form_path)
    return mesh_path, form_path


def _run_on(mesh_path, form, tmp_path, command="decompose"):
    out = tmp_path / "out.json"
    code = main([command, "--mesh", str(mesh_path), "--form", form, "--out", str(out)])
    return code, out


class TestMalformedFiles:
    @pytest.mark.parametrize("target, edit", [
        ("mesh", lambda d: [d]),
        ("mesh", lambda d: {**d, "curvature": [1]}),
        ("mesh", lambda d: {**d, "curvature": True}),
        ("mesh", lambda d: {**d, "curvature": 10**400}),
        ("mesh", lambda d: {**d, "vertices": [[10**400, 0]] + d["vertices"][1:]}),
        # int() would truncate the index back to a valid mesh
        ("mesh", lambda d: {**d, "triangles": [d["triangles"][0][:2] + [d["triangles"][0][2] + 0.5]]
                            + d["triangles"][1:]}),
        ("cochain", lambda d: [d]),
        ("cochain", lambda d: {**d, "degree": [1]}),
        ("cochain", lambda d: {**d, "degree": 1.7}),
        ("cochain", lambda d: {**d, "degree": True}),
        ("cochain", lambda d: {**d, "values": {"0": 1.0}}),
    ], ids=["mesh-list", "curvature-list", "curvature-bool", "curvature-huge-int",
            "vertex-huge-int", "triangle-half",
            "cochain-list", "degree-list", "degree-float", "degree-bool", "values-object"])
    def test_rejected_with_exit_1(self, tmp_path, capsys, target, edit):
        mesh_path, form_path = _valid_files(tmp_path)
        path = mesh_path if target == "mesh" else form_path
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, out = _run_on(mesh_path, str(form_path), tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target, key", [
        ("mesh", "vertices"), ("mesh", "triangles"), ("cochain", "values"),
    ])
    def test_ragged_row_names_the_file_and_field(self, tmp_path, capsys, target, key):
        mesh_path, form_path = _valid_files(tmp_path)
        path = mesh_path if target == "mesh" else form_path
        data = json.loads(path.read_text())
        # a mesh row one entry short; a cochain entry that is a row of its own
        data[key][1] = data[key][1][:-1] if target == "mesh" else [data[key][1]]
        path.write_text(json.dumps(data))
        code, out = _run_on(mesh_path, str(form_path), tmp_path)
        assert code == 1
        assert f"{target} file {path}: field {key!r} is not a numeric array" in capsys.readouterr().err
        assert not out.exists()


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=4),
    st.sampled_from([0.5, -1, 0, 1, 2, 1e308, -1e-300]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_FIELDS = {
    "mesh": ["curvature", "vertices", "triangles", "provenance"],
    "cochain": ["degree", "values", "mesh_checksum"],
}


def _mutate(data, key, kind, value, index):
    """data with one field replaced, deleted, or one entry of it replaced."""
    if kind == "top":
        return value
    data = copy.deepcopy(data)
    if kind == "delete":
        del data[key]
    elif kind == "entry" and isinstance(data[key], list) and data[key]:
        field = data[key]
        i = index % len(field)
        if isinstance(field[i], list):
            field[i][index % len(field[i])] = value
        else:
            field[i] = value
    else:
        data[key] = value
    return data


def _all_finite(obj):
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


class TestMalformedFileProperty:
    @settings(settings.get_profile("cli"))
    @given(
        target=st.sampled_from(sorted(_FIELDS)),
        command=st.sampled_from(["decompose", "stream"]),
        field_index=st.integers(0, 3),
        kind=st.sampled_from(["value", "entry", "delete", "top"]),
        value=_json_values,
        index=st.integers(0, 10**6),
    )
    def test_one_mutated_field_ends_cleanly(
        self, tmp_path_factory, target, command, field_index, kind, value, index
    ):
        tmp_path = tmp_path_factory.mktemp("files")
        mesh_path, form_path = _valid_files(tmp_path)
        path = mesh_path if target == "mesh" else form_path
        fields = _FIELDS[target]
        data = _mutate(json.loads(path.read_text()), fields[field_index % len(fields)], kind, value, index)
        path.write_text(json.dumps(data))
        form = str(form_path) if target == "cochain" else "builtin:coexact"
        code, out = _run_on(mesh_path, form, tmp_path, command)
        assert code in (0, 1, 2)
        if code == 0:
            assert _all_finite(json.loads(out.read_text()))
        else:
            assert not out.exists()


_edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1]),
)
_edge_ints = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80), st.booleans())
_edge_strings = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "\u00e9t\u00e9", "a\nb", '"', "\\", "\u2028", "\x00", "\U0001f600"]),
)
# flat lists and rows, some equal-length, some ragged, some mixing ints, floats and bools
_edge_lists = st.one_of(
    st.lists(_edge_floats, max_size=5),
    st.lists(_edge_ints, max_size=5),
    st.lists(_edge_floats | _edge_ints, max_size=5),
    st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(_edge_floats, min_size=w, max_size=w) | st.lists(_edge_ints, min_size=w, max_size=w),
        min_size=1, max_size=4)),
    st.lists(st.lists(_edge_floats | _edge_ints, max_size=3), max_size=4),
)
_json_like = st.recursive(
    st.one_of(st.none(), _edge_floats, _edge_ints, _edge_strings, _edge_lists),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_edge_strings, kids, max_size=3),
    max_leaves=8,
)
_documents = st.dictionaries(_edge_strings, _json_like, max_size=5)


def _plant(value, bad, path):
    """value with `bad` in place of the part that the integers in `path` lead to."""
    if path and isinstance(value, dict) and value:
        key = sorted(value)[path[0] % len(value)]
        return {**value, key: _plant(value[key], bad, path[1:])}
    if path and isinstance(value, list) and value:
        i = path[0] % len(value)
        return value[:i] + [_plant(value[i], bad, path[1:])] + value[i + 1:]
    return bad


class TestSaveJson:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=_documents)
    def test_bytes_are_those_of_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        io.save_json(doc, path)
        expected = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_bytes() == expected.encode()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=_documents.filter(bool), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           path=st.lists(st.integers(0, 10), min_size=1, max_size=5))
    def test_non_finite_value_anywhere_writes_nothing(self, tmp_path_factory, doc, bad, path):
        out = tmp_path_factory.mktemp("json") / "doc.json"
        with pytest.raises(ConfigError, match="not finite"):
            io.save_json(_plant(doc, bad, path), out)
        assert not out.exists()


_array_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_float_arrays = hnp.arrays(np.float64, _array_shapes, elements=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1]),
))
_int_arrays = hnp.arrays(np.int64, _array_shapes, elements=st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, -1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]),
))


class TestSaveJsonArrays:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(doc=st.dictionaries(_edge_strings, _float_arrays | _int_arrays | _json_like, max_size=5))
    def test_arrays_are_written_as_their_lists(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        io.save_json(doc, path)
        plain = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in doc.items()}
        expected = json.dumps(plain, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_bytes() == expected.encode()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(array=_float_arrays.filter(lambda a: a.size), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           index=st.integers(0, 10**6))
    def test_non_finite_entry_anywhere_writes_nothing(self, tmp_path_factory, array, bad, index):
        out = tmp_path_factory.mktemp("json") / "doc.json"
        array = array.copy()
        array.flat[index % array.size] = bad
        with pytest.raises(ConfigError, match="not finite"):
            io.save_json({"a": [1.0], "values": array}, out)
        assert not out.exists()

    @pytest.mark.parametrize("array", [
        np.zeros(3, np.int32), np.zeros(3, np.float32), np.zeros(2, bool), np.zeros((1, 1, 1)),
    ], ids=["int32", "float32", "bool", "3-D"])
    def test_other_arrays_are_refused(self, tmp_path, array):
        out = tmp_path / "doc.json"
        with pytest.raises(TypeError, match="float64 or int64"):
            io.save_json({"a": array}, out)
        assert not out.exists()


def _assert_written_as_list(path, a):
    """`_array_text(a)`, and `save_json` of a dict holding a, give the bytes of
    json.dumps of a.tolist()."""
    expected = json.dumps(a.tolist())
    assert io._array_text(a) == expected
    io.save_json({"a": a}, path)
    assert path.read_bytes() == ('{"a": ' + expected + "}\n").encode()


_MANTISSAS = ("1", "1.5", "2.5", "3.374932751386761", "5", "7.25", "9.999999999999999")
# |x| where the notation of the shortest digits changes
_NOTATION_BOUNDARIES = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e16)


class TestArrayTextNotation:
    """Each array below reaches one notation rewrite, or none, on its own, so a
    rewrite whose gate misses a band shows as a wrong byte."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_one_array_per_decade(self, tmp_path, sign):
        for exponent in range(-324, 309):
            a = sign * np.array([float(f"{m}e{exponent}") for m in _MANTISSAS])
            a = a[np.isfinite(a) & (a != 0)]
            _assert_written_as_list(tmp_path / "a.json", a)

    @pytest.mark.parametrize("boundary", _NOTATION_BOUNDARIES)
    def test_each_boundary_alone_and_beside_its_neighbours(self, tmp_path, boundary):
        below, above = np.nextafter(boundary, 0.0), np.nextafter(boundary, np.inf)
        for sign in (1.0, -1.0):
            for values in ([below], [boundary], [above], [below, boundary, above]):
                a = sign * np.array(values)
                _assert_written_as_list(tmp_path / "a.json", a)
                _assert_written_as_list(tmp_path / "a.json", a.reshape(-1, 1))

    @pytest.mark.parametrize("band", [1e-5, 3.374932751386761e-05, -9.999999999999999e-05])
    def test_band_value_after_a_longer_number_with_the_same_tail(self, tmp_path, band):
        for values in ([10.00001, band], [band, 10.00001, -10.00003374932751386761, band]):
            _assert_written_as_list(tmp_path / "a.json", np.array(values))
        _assert_written_as_list(tmp_path / "a.json", np.array([[10.00001, band], [band, 100.00002]]))

    def test_random_bit_patterns(self):
        # `_array_text` alone: json.dumps of these 10**6 floats takes most of the time
        bits = np.random.default_rng(20180).integers(0, 2**64, 1_010_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:1_000_000]
        assert values.size == 1_000_000
        for a in (values[:600_000], values[600_000:].reshape(-1, 2)):
            assert io._array_text(a) == json.dumps(a.tolist())


_LAYOUT_BASES = {
    "float64": np.array([[1.5, -3.374932751386761e-05, 1e16, 2.5e-7],
                         [-0.0, 10.00001, 5e-324, -1.7976931348623157e308],
                         [0.1, 1e-10, -7e-6, 123456.789],
                         [9.999999999999999e-05, 1e-4, -1e22, 2.0],
                         [3.0, -4.0, 1e-300, 6e-9],
                         [0.5, 0.25, -0.125, 1e15]]),
    "int64": np.arange(-12, 12, dtype=np.int64).reshape(6, 4) * (2**59 // 12),
}


class TestArrayTextLayouts:
    @pytest.mark.parametrize("layout", [
        lambda a: a[::2], lambda a: a.ravel()[::3], lambda a: a.T, np.asfortranarray,
    ], ids=["strided", "strided-1-D", "transposed", "fortran"])
    @pytest.mark.parametrize("dtype", sorted(_LAYOUT_BASES))
    def test_a_view_writes_its_c_ordered_copy(self, tmp_path, layout, dtype):
        view = layout(_LAYOUT_BASES[dtype])
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and copy.flags.c_contiguous
        io.save_json({"a": view}, tmp_path / "view.json")
        io.save_json({"a": copy}, tmp_path / "copy.json")
        assert io._array_text(view) == io._array_text(copy) == json.dumps(copy.tolist())
        assert (tmp_path / "view.json").read_bytes() == (tmp_path / "copy.json").read_bytes()


class TestLoadJson:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    @pytest.mark.parametrize("text", ['{"a": [[1, 2.5]]}', '{"a": [[1, 2.5]'], ids=["valid", "truncated"])
    def test_parses_with_the_collector_paused_and_restores_it(self, tmp_path, monkeypatch, enabled, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        during, parse = [], json.loads

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return parse(*args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if text.endswith("}"):
                assert io.load_json(path) == {"a": [[1, 2.5]]}
            else:
                with pytest.raises(json.JSONDecodeError):
                    io.load_json(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]


def _holding_itself():
    items = []
    items.append(items)
    return items


class TestSaveJsonCause:
    @pytest.mark.parametrize("value,cause", [
        (10**5000, "integer string conversion"),
        (_holding_itself(), "Circular reference"),
    ], ids=["long-int", "self-containing-list"])
    def test_other_encoder_errors_name_their_cause(self, tmp_path, value, cause):
        out = tmp_path / "doc.json"
        with pytest.raises(ConfigError, match=cause) as err:
            io.save_json({"n": value}, out)
        assert "not finite" not in str(err.value)
        assert not out.exists()


# valid draws stay small (at most 20 rings, a * rho <= 5, a few thousand vertices)
_valid_mesh_args = st.builds(
    lambda n, frac, h, t: (t * min(3.0, 5.0 / (h * (n + frac))), h * (n + frac), h),
    st.integers(1, 20), st.floats(0.0, 0.45), st.floats(0.05, 1.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
)
_finite = st.floats(0.05, 5.0)


def _replace(values, index, value):
    return tuple(value if i == index else v for i, v in enumerate(values))


_invalid_mesh_args = st.one_of(
    # a non-finite value in any position
    st.builds(_replace, st.tuples(_finite, _finite, _finite), st.integers(0, 2),
              st.sampled_from([math.nan, math.inf, -math.inf])),
    # a negative curvature, radius or edge length
    st.tuples(st.floats(-1e6, -1e-6), _finite, _finite).map(lambda t: (t[0], 1.0 + t[1], 0.5)),
    st.tuples(_finite, st.floats(-1e6, 0.0)).map(lambda t: (t[0], t[1], 0.1)),
    st.tuples(_finite, st.floats(-1e6, 0.0)).map(lambda t: (t[0], 1.0, t[1])),
    # an edge longer than the radius
    st.tuples(_finite, _finite, st.floats(1.01, 100.0)).map(lambda t: (t[0], t[1], t[1] * t[2])),
    # huge curvature or huge radius: more vertices than the cap, or lengths too large
    st.tuples(st.floats(50.0, 1e300), st.floats(1.0, 10.0), st.floats(0.1, 1.0)),
    st.tuples(st.floats(0.0, 3.0), st.floats(1e4, 1e300), st.floats(0.01, 1.0)),
)


class TestMeshArguments:
    @settings(settings.get_profile("cli"))
    @given(params=_valid_mesh_args)
    def test_valid_draw_writes_a_mesh_that_reloads(self, tmp_path_factory, params):
        out = tmp_path_factory.mktemp("mesh") / "m.json"
        assert main(_mesh_argv(params, out)) == 0
        assert io.mesh_checksum(io.load_mesh(out)) == io.mesh_checksum(hd.ball_mesh(*params))

    @settings(settings.get_profile("cli"))
    @given(params=_invalid_mesh_args)
    def test_invalid_draw_exits_1_before_placing_vertices(self, tmp_path_factory, params):
        out = tmp_path_factory.mktemp("mesh") / "m.json"
        original = geometry._place_rings
        geometry._place_rings = unreachable_placement  # a regressed check fails here, not in memory
        try:
            assert main(_mesh_argv(params, out)) == 1
        finally:
            geometry._place_rings = original
        assert not out.exists()


def _mesh_argv(params, out):
    a, rho, h = params
    return ["mesh", f"--curvature={a!r}", f"--radius={rho!r}", f"--edge={h!r}", "--out", str(out)]


def test_cli_import_leaves_scipy_graph_and_solver_modules_unloaded():
    # each costs resident memory, and no command needs them
    src = str(Path(hd.__file__).resolve().parent.parent)
    probe = ("import sys, hodgedec.cli; "
             "print([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_commands_leave_scipy_graph_and_solver_modules_unloaded(tmp_path):
    # about 9 MB of resident memory each; no command needs them
    src = str(Path(hd.__file__).resolve().parent.parent)
    probe = """
import sys
from hodgedec.cli import main
out = sys.argv[1]
for argv in (
    ["mesh", "--curvature", "1", "--radius", "3", "--edge", "0.3", "--out", out + "/ball.json"],
    ["truncate", "--radii", "1.2,1.5", "--mesh", out + "/ball.json", "--out", out + "/t.json"],
    ["verify-tensor", "--max-dim", "3", "--trials", "1", "--out", out + "/v.json"],
    ["decompose", "--mesh", out + "/ball.json", "--form", "builtin:mixed", "--out", out + "/d.json"],
    ["stream", "--mesh", out + "/ball.json", "--form", "builtin:coexact", "--out", out + "/s.json"],
    ["convergence", "--curvature", "1", "--radius", "1.5", "--edge", "0.3", "--levels", "1",
     "--out", out + "/c.csv"],
):
    assert main(argv) == 0, argv
print([m for m in ("scipy.sparse.csgraph", "scipy.sparse.linalg") if m in sys.modules])
"""
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ball.json", "c.csv", "d.json", "s.json", "t.json", "v.json"]


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(hd.__path__)))
def test_every_name_in_a_module_all_resolves(name):
    # a traced benchmark run looks up every listed name, so a stale one breaks it
    module = importlib.import_module(f"hodgedec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
