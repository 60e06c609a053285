import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgedec as hd
from hodgedec import geometry, io, weitzenbock
from hodgedec.cli import main
from hodgedec.errors import ChecksumError
from hodgedec.simplicial import Cochain

from conftest import make_lattice_mesh, unreachable_placement


@pytest.fixture()
def small_mesh(tmp_path, discretize):
    mesh, cx, stars = discretize(1.0, 1.0, 0.2)
    path = tmp_path / "mesh.json"
    io.save_mesh(mesh, path)
    return mesh, cx, stars, path


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
        # cochain files carry this digest; it must not change with the encoder
        flat = make_lattice_mesh()
        curved = hd.TriMesh(0.5 * flat.vertices, flat.triangles, 0.75)
        assert io.mesh_checksum(flat) == (
            "c2cd7e33344d95a2ea5fd0cbcccaac3939eb9ab9b50323e11d6cffa709cf3e70"
        )
        assert io.mesh_checksum(curved) == (
            "aad33aefbc83c1fa97f06abf8d7e0d36240c840c7d87c3e5785d15edb8cb1863"
        )


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
        mesh, cx, stars, path = small_mesh
        values = hd.builtin_form("coexact", mesh, cx, stars, seed=2).values.copy()
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
        out = tmp_path / "trunc.json"
        assert main(["truncate", "--radii", "1.1,1.3,1.5", "--curvature", "1",
                     "--radius", "3", "--edge", "0.15", "--form", "builtin:dx",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        dists = [row["distance"] for row in payload["distances"]]
        assert dists[0] > dists[1] > dists[2]

    def test_truncate_rejects_oversized_cutoff(self, tmp_path):
        code = main(["truncate", "--radii", "2.0", "--curvature", "1",
                     "--radius", "3", "--edge", "0.15", "--form", "builtin:dx",
                     "--out", str(tmp_path / "t.json")])
        assert code == 1


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

    @pytest.mark.parametrize("radii", ["", ","])
    def test_truncate_needs_a_radius(self, small_mesh, tmp_path, radii):
        out = tmp_path / "trunc.json"
        assert main(["truncate", f"--radii={radii}", "--mesh", str(small_mesh[3]),
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["nan", "inf"])
    def test_truncate_rejects_non_finite_radius(self, small_mesh, tmp_path, capsys, radii):
        out = tmp_path / "trunc.json"
        assert main(["truncate", f"--radii={radii}", "--mesh", str(small_mesh[3]),
                     "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert "finite" in printed.err and "nan" not in printed.out
        assert not out.exists()

    def test_cochain_file_checksummed_once(self, small_mesh, tmp_path, monkeypatch):
        mesh, cx, stars, path = small_mesh
        form = tmp_path / "form.json"
        io.save_cochain(hd.builtin_form("coexact", mesh, cx, stars, seed=1), mesh, form)
        calls = []

        def counted(m):
            calls.append(1)
            return checksum(m)

        checksum = io.mesh_checksum
        monkeypatch.setattr(io, "mesh_checksum", counted)
        for command in ("decompose", "stream"):
            calls.clear()
            assert main([command, "--mesh", str(path), "--form", str(form),
                         "--out", str(tmp_path / f"{command}.json")]) == 0
            assert len(calls) == 1

    @pytest.mark.parametrize("max_dim, trials", [(1, 5), (7, 5), (5, 0), (5, -2)])
    def test_verify_tensor_needs_pairs_and_trials(self, tmp_path, monkeypatch, max_dim, trials):
        monkeypatch.setattr(weitzenbock, "random_context", _unreachable)
        with pytest.raises(hd.ConfigError):
            weitzenbock.run_verification(max_dim=max_dim, trials=trials)
        out = tmp_path / "verify.json"
        assert main(["verify-tensor", f"--max-dim={max_dim}", f"--trials={trials}",
                     "--out", str(out)]) == 1
        assert not out.exists()


def _valid_files(directory):
    """A small mesh file and a degree-1 cochain file that belongs to it."""
    mesh = hd.ball_mesh(1.0, 0.6, 0.2)
    cx = hd.build_complex(mesh)
    stars = hd.assemble_stars(mesh, cx)
    mesh_path, form_path = directory / "mesh.json", directory / "form.json"
    io.save_mesh(mesh, mesh_path)
    io.save_cochain(hd.builtin_form("coexact", mesh, cx, stars, seed=1), mesh, form_path)
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
