import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgedec as hd
from hodgedec.errors import DegreeError, TopologyError
from hodgedec.simplicial import Cochain

from conftest import make_lattice_mesh, make_rhombus_mesh, make_triangle_mesh


class TestBuildComplex:
    def test_single_triangle(self):
        cx = hd.build_complex(make_triangle_mesh())
        assert (cx.num_vertices, cx.num_edges, cx.num_faces) == (3, 3, 1)
        prod = cx.d1 @ cx.d0
        prod.eliminate_zeros()
        assert prod.nnz == 0

    def test_euler_characteristic(self, discretize):
        for (a, rho, h) in [(0.0, 1.0, 0.2), (1.0, 1.0, 0.1), (1.0, 2.0, 0.2)]:
            _, cx, _ = discretize(a, rho, h)
            assert cx.num_vertices - cx.num_edges + cx.num_faces == 1

    def test_dd_zero_integer(self, discretize):
        _, cx, _ = discretize(1.0, 2.0, 0.2)
        prod = cx.d1 @ cx.d0  # integer product, exact
        prod.eliminate_zeros()
        assert prod.nnz == 0

    def test_boundary_is_cycle(self, discretize):
        mesh, cx, _ = discretize(0.0, 0.2, 0.1)
        assert cx.boundary_edges.sum() == cx.boundary_vertices.sum()

    def test_orientation_coherence(self, discretize):
        # interior edges see their two faces with opposite induced orientations
        _, cx, _ = discretize(1.0, 1.0, 0.2)
        col_sums = np.asarray(cx.d1.sum(axis=0)).ravel()
        interior = ~cx.boundary_edges
        assert np.all(col_sums[interior] == 0)
        assert np.all(np.abs(col_sums[~interior]) == 1)

    def test_edge_canonical_orientation(self, discretize):
        _, cx, _ = discretize(0.0, 1.0, 0.2)
        assert np.all(cx.edges[:, 0] < cx.edges[:, 1])

    def test_face_edges_join_the_other_two_corners(self, discretize):
        for cx in (hd.build_complex(make_lattice_mesh()), discretize(1.0, 1.0, 0.2)[1]):
            assert cx.face_edges.shape == (cx.num_faces, 3)
            for f, tri in enumerate(cx.faces):
                for c in range(3):
                    u, v = np.delete(tri, c)
                    assert tuple(cx.edges[cx.face_edges[f, c]]) == (min(u, v), max(u, v))

    def test_matches_axis_unique_reference(self, discretize):
        # reference: edges as unique sorted vertex pairs, np.unique(axis=0)
        for mesh in (make_lattice_mesh(), discretize(1.0, 2.0, 0.2)[0]):
            cx = hd.build_complex(mesh)
            faces = mesh.triangles
            directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
            edges, inverse = np.unique(np.sort(directed, axis=1), axis=0, return_inverse=True)
            num_e, num_f = edges.shape[0], faces.shape[0]
            d0 = sp.csr_matrix(
                (np.tile([-1, 1], num_e), (np.repeat(np.arange(num_e), 2), edges.reshape(-1))),
                shape=(num_e, mesh.num_vertices),
            )
            signs = np.where(directed[:, 0] < directed[:, 1], 1, -1)
            d1 = sp.csr_matrix(
                (signs, (np.tile(np.arange(num_f), 3), inverse.reshape(-1))), shape=(num_f, num_e)
            )
            np.testing.assert_array_equal(cx.edges, edges)
            for ours, ref in ((cx.d0, d0), (cx.d1, d1)):
                for attr in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(ours, attr), getattr(ref, attr))

    def test_nonmanifold_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])  # (0,1) borders 3 faces
        with pytest.raises(TopologyError):
            hd.build_complex(hd.TriMesh(verts, tris, 0.0))

    def test_degenerate_face_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        with pytest.raises(TopologyError):
            hd.build_complex(hd.TriMesh(verts, np.array([[0, 1, 1]]), 0.0))


class TestApplyD:
    def test_constant_has_zero_gradient(self, discretize):
        _, cx, _ = discretize(0.0, 1.0, 0.2)
        out = hd.apply_d(Cochain(0, np.full(cx.num_vertices, 3.7)), cx)
        assert np.all(out.values == 0.0)

    def test_dd_is_zero_on_values(self, discretize, rng):
        _, cx, _ = discretize(1.0, 1.0, 0.2)
        f = Cochain(0, rng.standard_normal(cx.num_vertices))
        ddf = hd.apply_d(hd.apply_d(f, cx), cx)
        assert np.abs(ddf.values).max() < 1e-13

    def test_coordinate_differences(self, discretize):
        mesh, cx, _ = discretize(0.0, 1.0, 0.2)
        x = mesh.vertices[:, 0]
        out = hd.apply_d(Cochain(0, x), cx)
        expected = x[cx.edges[:, 1]] - x[cx.edges[:, 0]]
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=0)

    def test_top_degree_rejected(self, discretize):
        _, cx, _ = discretize(0.0, 1.0, 0.2)
        with pytest.raises(DegreeError):
            hd.apply_d(Cochain(2, np.zeros(cx.num_faces)), cx)

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(-5, 5), t=st.floats(-5, 5), seed=st.integers(0, 2**16))
    def test_linearity(self, s, t, seed):
        mesh = make_lattice_mesh()
        cx = hd.build_complex(mesh)
        r = np.random.default_rng(seed)
        u = r.standard_normal(cx.num_vertices)
        v = r.standard_normal(cx.num_vertices)
        lhs = hd.apply_d(Cochain(0, s * u + t * v), cx).values
        rhs = s * hd.apply_d(Cochain(0, u), cx).values + t * hd.apply_d(Cochain(0, v), cx).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + abs(s) + abs(t)))


class TestInteriorRestriction:
    def test_idempotent(self, discretize, rng):
        _, cx, _ = discretize(1.0, 1.0, 0.2)
        c = Cochain(1, rng.standard_normal(cx.num_edges))
        once = hd.interior_restriction(c, cx)
        twice = hd.interior_restriction(once, cx)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_single_triangle_all_boundary(self):
        cx = hd.build_complex(make_triangle_mesh())
        out = hd.interior_restriction(Cochain(0, np.ones(3)), cx)
        assert np.all(out.values == 0.0)

    def test_two_ring_faces_against_enumeration(self, discretize):
        mesh, cx, _ = discretize(0.0, 0.2, 0.1)
        out = hd.interior_restriction(Cochain(2, np.ones(cx.num_faces)), cx)
        # oracle: enumerate boundary vertices straight from the triangle list
        bnd = set()
        edge_count = {}
        for tri in map(tuple, mesh.triangles):
            for e in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]:
                edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
        for e, n in edge_count.items():
            if n == 1:
                bnd |= set(e)
        expected = np.array(
            [0.0 if (set(tri) & bnd) else 1.0 for tri in map(tuple, mesh.triangles)]
        )
        np.testing.assert_array_equal(out.values, expected)
        assert expected.sum() > 0  # the 2-ring mesh does have interior faces

    def test_keeps_interior_values(self, discretize, rng):
        _, cx, _ = discretize(1.0, 1.0, 0.2)
        c = Cochain(1, rng.standard_normal(cx.num_edges))
        out = hd.interior_restriction(c, cx)
        np.testing.assert_array_equal(out.values[cx.interior_edges], c.values[cx.interior_edges])
        assert np.all(out.values[~cx.interior_edges] == 0.0)


def test_rhombus_complex_shape():
    cx = hd.build_complex(make_rhombus_mesh())
    assert (cx.num_vertices, cx.num_edges, cx.num_faces) == (4, 5, 2)
    assert cx.boundary_edges.sum() == 4
