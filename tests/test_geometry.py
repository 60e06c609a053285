import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgedec as hd
from hodgedec import geometry, io
from hodgedec.errors import ConfigError, DomainError
from hodgedec.geometry import _triangle_areas_hyperbolic, edge_table, heron_area
from hodgedec.simplicial import Cochain

from conftest import unreachable_placement

# Frozen oracle outputs (see the oracle functions below, evaluated at high
# precision during development).
LN3 = 1.0986122886681098
EQUILATERAL_HYP_AREA = 0.38519903705571113  # sides (1,1,1) at a=1
FLAT_EQUILATERAL_AREA = 0.4330127018922193
BALL_AREA_RHO3 = 56.973800622341584  # 2*pi*(cosh 3 - 1)


def radial_integral_oracle(r, n=20000):
    """Independent oracle: midpoint quadrature of the radial metric 2/(1-s^2)."""
    s = (np.arange(n) + 0.5) * (r / n)
    return float(np.sum(2.0 / (1.0 - s * s)) * (r / n))


def geodesic_tangent(p, q):
    """Euclidean unit tangent at p of the model geodesic arc p -> q."""
    cross = np.imag(np.conj(p) * q)
    if abs(cross) < 1e-14 * max(1.0, abs(p) * abs(q)):
        t = q - p
        return t / abs(t)
    A = np.array([[p.real, p.imag], [q.real, q.imag]])
    b = np.array([(1 + abs(p) ** 2) / 2, (1 + abs(q) ** 2) / 2])
    cx, cy = np.linalg.solve(A, b)
    t = 1j * (p - complex(cx, cy))
    t /= abs(t)
    if t.real * (q - p).real + t.imag * (q - p).imag < 0:
        t = -t
    return t


def angle_defect_oracle(pts):
    """Area oracle from pure circle geometry: angles between geodesic arcs
    are Euclidean angles (the model is conformal), area = angle defect."""
    total = 0.0
    for i in range(3):
        p, q, r = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
        t1, t2 = geodesic_tangent(p, q), geodesic_tangent(p, r)
        total += math.acos(np.clip(t1.real * t2.real + t1.imag * t2.imag, -1, 1))
    return math.pi - total


def edge_lengths(vertices, triangles, a):
    """The sorted edges of a triangle list and their geodesic lengths."""
    edges, _, _ = edge_table(triangles, len(vertices))
    return edges, geometry.pairwise_distances(vertices[edges[:, 0]], vertices[edges[:, 1]], a)


def radial_reference(points, a):
    """The two-branch formula of the distance from the origin, written out."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[np.newaxis, :]
    r = np.abs(p[:, 0] + 1j * p[:, 1])
    return r if a == 0.0 else (2.0 / a) * np.arctanh(r)


class TestDistance:
    def test_coincident(self):
        assert geometry.pairwise_distances([(0, 0)], [(0, 0)], 1.0).tolist() == [0.0]

    def test_flat_3_4_5(self):
        assert geometry.pairwise_distances([(0, 0)], [(0.3, 0.4)], 0.0)[0] == pytest.approx(0.5, rel=1e-15)

    def test_radial_log3(self):
        assert radial_integral_oracle(0.5) == pytest.approx(LN3, rel=1e-7)
        assert geometry.pairwise_distances([(0, 0)], [(0.5, 0)], 1.0)[0] == pytest.approx(LN3, rel=1e-12)

    def test_curvature_rescales_lengths(self):
        d1, d2 = (geometry.pairwise_distances([(0.1, 0.2)], [(-0.3, 0.4)], a)[0] for a in (1.0, 2.0))
        assert d2 == pytest.approx(d1 / 2, rel=1e-12)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            geometry.pairwise_distances([(0, 0)], [(1.0, 0.0)], 1.0)
        # same point is fine on the plane
        assert geometry.pairwise_distances([(0, 0)], [(1.0, 0.0)], 0.0).tolist() == [1.0]

    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.5, 1.0, 2.5])
    def test_radial_distance_is_bitwise_the_two_branch_formula(self, rng, a):
        tiny = [0.0, -0.0, 1e-300, -1e-300]
        angle = rng.uniform(0.0, 2.0 * np.pi, 2000)
        radius = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 2000))
        points = np.vstack([
            [(x, y) for x in tiny for y in tiny],
            np.c_[radius * np.cos(angle), radius * np.sin(angle)],
        ])
        for p in (points, points[5]):
            assert hd.radial_distance(p, a).tobytes() == radial_reference(p, a).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.tuples(
            *[st.floats(-0.65, 0.65) for _ in range(6)],
        ),
        a=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_symmetry_and_triangle_inequality(self, data, a):
        p, q, r = (data[0], data[1]), (data[2], data[3]), (data[4], data[5])
        dpq, dqp, dpr, drq = geometry.pairwise_distances([p, q, p, r], [q, p, r, q], a)
        assert dpq == pytest.approx(dqp, abs=1e-12)
        assert dpq <= dpr + drq + 1e-9


class TestTriangleArea:
    def test_flat_equilateral(self):
        assert heron_area(1, 1, 1) == pytest.approx(FLAT_EQUILATERAL_AREA, rel=1e-14)

    def test_degenerate(self):
        assert heron_area(1, 1, 2) == 0.0

    def test_hyperbolic_equilateral_vs_model_oracle(self):
        # place the equilateral triangle of side 1 in model coordinates
        delta = math.tanh(0.5)
        d2 = delta * delta
        u = ((3 - d2) - math.sqrt((3 - d2) ** 2 - 4 * d2 * d2)) / (2 * d2)
        r0 = math.sqrt(u)
        pts = [r0 * np.exp(2j * math.pi * k / 3) for k in range(3)]
        side = geometry.pairwise_distances([(pts[0].real, pts[0].imag)], [(pts[1].real, pts[1].imag)], 1.0)[0]
        assert side == pytest.approx(1.0, rel=1e-12)
        assert angle_defect_oracle(pts) == pytest.approx(EQUILATERAL_HYP_AREA, rel=1e-12)
        assert _triangle_areas_hyperbolic(1, 1, 1, 1.0) == pytest.approx(EQUILATERAL_HYP_AREA, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        l1=st.floats(2e-4, 1e-3),
        l2=st.floats(2e-4, 1e-3),
        frac=st.floats(0.25, 0.95),
    )
    def test_flat_limit_for_tiny_triangles(self, l1, l2, frac):
        # third side strictly inside the admissible interval
        lo, hi = abs(l1 - l2), l1 + l2
        l3 = lo + frac * (hi - lo)
        if l3 <= 1e-7:
            return
        flat = heron_area(l1, l2, l3)
        hyp = _triangle_areas_hyperbolic(l1, l2, l3, 1.0)
        if flat > 1e-12:
            assert hyp == pytest.approx(flat, rel=1e-5)


class TestBallMesh:
    def test_single_ring_example(self):
        mesh = hd.ball_mesh(0.0, 0.1, 0.1)
        assert mesh.num_vertices == 1 + round(2 * math.pi)  # center + 6
        v, t = mesh.vertices, mesh.triangles
        cross = (v[t[:, 1], 0] - v[t[:, 0], 0]) * (v[t[:, 2], 1] - v[t[:, 0], 1]) - (
            v[t[:, 1], 1] - v[t[:, 0], 1]
        ) * (v[t[:, 2], 0] - v[t[:, 0], 0])
        assert np.all(cross > 0)

    def test_ring_counts_hyperbolic(self):
        mesh = hd.ball_mesh(1.0, 0.4, 0.2)
        m1 = round(2 * math.pi * math.sinh(0.2) / 0.2)
        m2 = round(2 * math.pi * math.sinh(0.4) / 0.2)
        assert mesh.num_vertices == 1 + m1 + m2

    def test_hyperbolic_ball_area(self, discretize):
        mesh = discretize(1.0, 3.0, 0.1).mesh
        assert hd.mesh_area(mesh) == pytest.approx(BALL_AREA_RHO3, rel=0.02)

    def test_flat_ball_area(self, discretize):
        mesh = discretize(0.0, 1.0, 0.1).mesh
        assert hd.mesh_area(mesh) == pytest.approx(math.pi, rel=0.02)

    def test_edge_lengths_in_band(self, discretize):
        for (a, rho, h) in [(0.0, 1.0, 0.2), (1.0, 1.0, 0.2), (1.0, 2.0, 0.1)]:
            mesh = discretize(a, rho, h).mesh
            _, lengths = edge_lengths(mesh.vertices, mesh.triangles, a)
            assert lengths.min() >= h / 2 * (1 - 1e-9)
            assert lengths.max() <= 2 * h * (1 + 1e-9)

    def test_determinism(self):
        m1 = hd.ball_mesh(1.0, 1.2, 0.15)
        m2 = hd.ball_mesh(1.0, 1.2, 0.15)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            hd.ball_mesh(1.0, -1.0, 0.1)
        with pytest.raises(ConfigError):
            hd.ball_mesh(1.0, 0.5, 0.8)
        with pytest.raises(DomainError):
            hd.ball_mesh(-1.0, 1.0, 0.1)

    def test_realized_radius_recorded(self):
        mesh = hd.ball_mesh(0.0, 1.05, 0.2)  # rounds to 5 rings
        assert mesh.provenance["rings"] == 5
        assert mesh.provenance["realized_radius"] == pytest.approx(1.0)


# mesh_checksum (the array digest) of ball_mesh(a, rho, h), pinned so that any
# change to the mesh bytes (face order, corner order, flipped edges) shows; each
# of these meshes flips between 27 and 3,054 edges, the most at the wide ball
# (1, 6, 0.2)
PINNED_MESHES_V2 = {
    (1.0, 1.2, 0.15): "dc75a579b77fec56e08ea7d1e8705a3e90969adcf12ab7c7dc32ccad0979f919",
    (1.0, 3.0, 0.3): "3a89b8275d8fc33423d65e265411a0ff6d3002c8d68e43be9255a21182dc4c73",
    (2.0, 2.0, 0.1): "bbdea36741ceff2c6ae24641cb5e3491113697591f66f5ab2f164e910f287ea7",
    (0.0, 1.0, 0.1): "74f1eb682e3f97e7fdd43ba4520fa89884b94a480a2f87c24550552272136f9f",
    (1.0, 6.0, 0.2): "b7d2ea2d1c6255a20862b723133f4f090711c4cdd976ed93284a5391e1f3e1a1",
}


class TestFlipPass:
    @pytest.mark.parametrize("params", sorted(PINNED_MESHES_V2))
    def test_meshes_pinned_and_intrinsic_delaunay(self, params):
        mesh = hd.ball_mesh(*params)
        assert io.mesh_checksum(mesh) == PINNED_MESHES_V2[params]
        _, face_edges, counts = edge_table(mesh.triangles, mesh.num_vertices)
        _, lengths = edge_lengths(mesh.vertices, mesh.triangles, mesh.curvature)
        sums = geometry._cot_sums(lengths, face_edges)
        assert sums[counts == 2].min() >= -1e-12

    def test_raw_stitching_is_not_delaunay(self, monkeypatch):
        # without the flip pass the pinned meshes do have negative cotangent sums
        monkeypatch.setattr(geometry, "_flip_to_intrinsic_delaunay",
                            lambda v, t, a: (t, edge_lengths(v, t, a)[1]))
        mesh = hd.ball_mesh(2.0, 2.0, 0.1)
        _, face_edges, counts = edge_table(mesh.triangles, mesh.num_vertices)
        sums = geometry._cot_sums(edge_lengths(mesh.vertices, mesh.triangles, 2.0)[1], face_edges)
        assert sums[counts == 2].min() < -1e-12

    def test_non_delaunay_edges_sharing_a_face_flip_in_turn(self):
        # flat: AB (opposite angles 100 and 100 degrees) and BC (40 and 150) are
        # both non-Delaunay and share face ABC, so only one of them may flip at a time
        t40 = math.tan(math.radians(40.0))
        B, C = np.array([1.0, 0.0]), np.array([0.5, 0.5 * t40])
        bc = C - B
        normal = np.array([bc[1], -bc[0]]) / np.linalg.norm(bc)
        E = (B + C) / 2 + (np.linalg.norm(bc) / 2) / math.tan(math.radians(75.0)) * normal
        vertices = np.array([[0.0, 0.0], B, C, [0.5, -0.5 * t40], E])
        tris = np.array([[0, 1, 2], [1, 0, 3], [2, 1, 4]])
        edges, face_edges, _ = edge_table(tris, 5)
        lengths = geometry.pairwise_distances(vertices[edges[:, 0]], vertices[edges[:, 1]], 0.0)
        sums = geometry._cot_sums(lengths, face_edges)
        assert {tuple(x) for x in edges[sums < -1e-12]} == {(0, 1), (1, 2)}
        flipped, flipped_lengths = geometry._flip_to_intrinsic_delaunay(vertices, tris, 0.0)
        np.testing.assert_array_equal(flipped, [[0, 3, 2], [1, 4, 3], [2, 3, 4]])
        # one length per edge slot, the new diagonal in the removed edge's slot
        np.testing.assert_array_equal(np.sort(flipped_lengths), np.sort(edge_lengths(vertices, flipped, 0.0)[1]))

    def test_one_edge_table_per_mesh(self, monkeypatch):
        # the audit checks the flip pass's lengths instead of building a second table
        calls = []

        def counted(*args):
            calls.append(args)
            return edge_table(*args)

        monkeypatch.setattr(geometry, "edge_table", counted)
        hd.ball_mesh(1.0, 1.2, 0.15)
        assert len(calls) == 1

    def test_edge_table_matches_axis_unique_reference(self, discretize):
        mesh = discretize(1.0, 1.0, 0.2).mesh
        t = mesh.triangles
        pairs = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
        ref, ref_counts = np.unique(pairs, axis=0, return_counts=True)
        edges, face_edges, counts = edge_table(t, mesh.num_vertices)
        np.testing.assert_array_equal(edges, ref)
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(np.sort(edges[face_edges], axis=2),
                                      np.sort(np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], 1), axis=2))


def stitch_rings_loop(inner, outer, inner_start, outer_start):
    """Reference: the zigzag as a step-by-step walk, inner ring first on ties."""
    m, big = len(inner), len(outer)
    step_i = 2.0 * math.pi / m
    step_j = 2.0 * math.pi / big
    offsets = np.mod(outer_start + step_j * np.arange(big) - inner_start, 2.0 * math.pi)
    j0 = int(np.argmin(offsets))
    phi0 = float(offsets[j0])
    tris = []
    i = j = 0
    while i < m or j < big:
        if i < m and j < big:
            advance_inner = (i + 1) * step_i <= phi0 + (j + 1) * step_j
        else:
            advance_inner = i < m
        oj = outer[(j0 + j) % big]
        if advance_inner:
            tris.append((inner[i % m], oj, inner[(i + 1) % m]))
            i += 1
        else:
            tris.append((inner[i % m], oj, outer[(j0 + j + 1) % big]))
            j += 1
    return np.array(tris, dtype=np.int64)


def test_stitch_rings_matches_loop_reference():
    rng = np.random.default_rng(7)
    pairs = [(6, 6), (6, 12), (7, 13), (12, 6), (50, 57), (6920, 20447)]
    pairs += [tuple(sorted(rng.integers(3, 400, size=2))) for _ in range(40)]
    for m, big in pairs:
        inner, outer = np.arange(1, 1 + m), np.arange(1 + m, 1 + m + big)
        for inner_start, outer_start in [(0.0, 0.0), (0.618, 1.236)] + [tuple(rng.uniform(0, 20, 2))]:
            np.testing.assert_array_equal(
                geometry._stitch_rings(inner, outer, inner_start, outer_start),
                stitch_rings_loop(inner, outer, inner_start, outer_start),
            )


class TestBallMeshLimits:
    @pytest.mark.parametrize("a, rho, h", [
        (1.0, math.inf, 0.2), (math.nan, 1.0, 0.2), (1.0, 1.0, math.nan),
        (math.inf, 1.0, 0.2), (1.0, 1.0, -math.inf),
    ])
    def test_non_finite_rejected(self, monkeypatch, a, rho, h):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        with pytest.raises(ConfigError, match="finite"):
            hd.ball_mesh(a, rho, h)

    @pytest.mark.parametrize("a, rho, h", [
        (50.0, 1.0, 0.2),  # ring 2 alone would hold about 1.5e8 vertices
        (1.0, 1000.0, 1000.0),  # sinh(1000) overflows
        (0.0, 1e6, 0.1),  # 1e7 rings
        (1.0, 1e100, 1e-100),  # 1e200 rings
        (1e300, 1e10, 1.0),
    ])
    def test_vertex_cap_checked_before_placement(self, monkeypatch, a, rho, h):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        with pytest.raises(ConfigError, match="vertices"):
            hd.ball_mesh(a, rho, h)

    def test_ring_sizes_at_the_cap(self):
        # flat rings hold round(2 pi i) vertices: 1 + sum over i <= n passes 1e6 at n = 564
        flat = geometry.ball_ring_sizes(0.0, 563.0, 1.0)
        assert 1 + sum(flat) <= geometry.MAX_VERTICES
        with pytest.raises(ConfigError):
            geometry.ball_ring_sizes(0.0, 564.0, 1.0)
        assert geometry.ball_ring_sizes(1.0, 0.4, 0.2) == [
            round(2 * math.pi * math.sinh(0.2) / 0.2), round(2 * math.pi * math.sinh(0.4) / 0.2)
        ]

    def test_underflowing_curvature_rejected(self):
        with pytest.raises(ConfigError, match="underflows"):
            hd.ball_mesh(5e-324, 1.0, 0.5)

    @pytest.mark.parametrize("a", [1e-200, 1e-160])
    def test_underflowing_squared_scale_rejected(self, monkeypatch, a):
        # coordinates are about a h and the audit's cross products about (a h)^2,
        # which underflows while a h is still a normal float
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        with pytest.raises(ConfigError, match="use curvature 0"):
            hd.ball_mesh(a, 1.0, 0.2)

    @pytest.mark.parametrize("a, rho, h", [
        (0.0, 1.5e308, 1e308),  # the second ring would sit at radius inf
        (0.0, 1e200, 1e199),  # squared lengths overflow, so no cotangent is finite
        (1e-300, 1e200, 1e199),
    ])
    def test_overflowing_lengths_rejected(self, monkeypatch, a, rho, h):
        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        with pytest.raises(ConfigError, match="too large"):
            hd.ball_mesh(a, rho, h)

    def test_non_finite_vertices_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            hd.TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]), np.array([[0, 1, 2]]), 0.0)

    @pytest.mark.parametrize("triangles", [[[0, 1, 0.5]], [[0, 1, -1]], [[0, 1, 3]], [[0, 1, 2**63]]])
    def test_triangle_indices_must_be_vertex_integers(self, triangles):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError, match="triangle indices"):
            hd.TriMesh(verts, np.array(triangles), 0.0)

    @pytest.mark.parametrize("argv", [
        ["--curvature", "1", "--radius", "inf", "--edge", "0.2"],
        ["--curvature", "1", "--radius", "1000", "--edge", "1000"],
        ["--curvature", "nan", "--radius", "1", "--edge", "0.2"],
        ["--curvature", "50", "--radius", "1", "--edge", "0.2"],
        ["--curvature", "1e-200", "--radius", "1", "--edge", "0.2"],
    ])
    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys, argv):
        from hodgedec.cli import main

        monkeypatch.setattr(geometry, "_place_rings", unreachable_placement)
        out = tmp_path / "m.json"
        assert main(["mesh", *argv, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestCutoff:
    def test_profile_bounds(self):
        t = np.linspace(0, 3, 301)
        phi = hd.cutoff_profile(t)
        assert np.all((phi >= 0) & (phi <= 1))
        assert np.all(phi[t <= 1.0] == 1.0)
        assert np.all(phi[t >= 2.0] == 0.0)
        assert hd.cutoff_profile(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_profile_slope_below_two(self):
        t = np.linspace(0, 3, 20001)
        phi = hd.cutoff_profile(t)
        slopes = np.abs(np.diff(phi) / np.diff(t))
        assert slopes.max() <= 1.5 + 1e-6

    def test_vertex_values(self, discretize):
        mesh = discretize(1.0, 3.0, 0.2).mesh
        R = 1.2
        rho = hd.radial_distance(mesh.vertices, 1.0)
        phi = hd.cutoff_profile(rho / R)
        assert np.all(phi[rho <= R] == 1.0)
        assert np.all(phi[rho >= 2 * R] == 0.0)

    def test_requires_scale_above_one(self, discretize):
        # one bad scale rejects the whole call, wherever it stands
        disc = discretize(1.0, 3.0, 0.2)
        gamma = Cochain(1, np.ones(disc.cx.num_edges))
        with pytest.raises(DomainError, match="exceed 1"):
            hd.truncation_distance(gamma, [1.2, 1.0], "l2", disc)
        with pytest.raises(DomainError, match="meshed radius"):
            hd.truncation_distance(gamma, [1.2, 1.7], "l2", disc)  # 2R > rho_max

    @pytest.mark.parametrize("R", [float("nan"), float("inf")])
    def test_requires_finite_scale(self, discretize, R):
        disc = discretize(1.0, 3.0, 0.2)
        gamma = Cochain(1, np.ones(disc.cx.num_edges))
        with pytest.raises(DomainError, match="finite"):
            hd.truncation_distance(gamma, [1.2, R], "l2", disc)

    def test_scales_returned_as_floats_with_their_bits(self):
        scales = hd.geometry.check_cutoff_scales(iter([np.float64(1.1), 2, Fraction(5, 2)]))
        assert scales == [1.1, 2.0, 2.5]
        assert all(type(R) is float for R in scales)

    def test_per_edge_slope_bound(self, discretize):
        # discrete form of the gradient bound |grad phi_R| <= 2/R, h <= R/10
        mesh = discretize(1.0, 3.0, 0.1).mesh
        edges, lengths = edge_lengths(mesh.vertices, mesh.triangles, mesh.curvature)
        for R in (1.2, 1.5):
            phi = hd.cutoff_profile(hd.radial_distance(mesh.vertices, mesh.curvature) / R)
            slopes = np.abs(phi[edges[:, 1]] - phi[edges[:, 0]]) / lengths
            assert slopes.max() <= 2.0 / R + 1e-12
