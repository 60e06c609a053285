import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgedec as hd
from hodgedec.errors import DegreeError, TopologyError
from hodgedec.geometry import edge_table
from hodgedec.simplicial import Cochain, _check_boundary_cycle, _components

from conftest import (
    make_lattice_mesh,
    make_rhombus_mesh,
    make_triangle_beside_torus,
    make_triangle_mesh,
)


class TestBuildComplex:
    def test_single_triangle(self):
        cx = hd.build_complex(make_triangle_mesh())
        assert (cx.num_vertices, cx.num_edges, cx.num_faces) == (3, 3, 1)
        prod = cx.d1 @ cx.d0
        prod.eliminate_zeros()
        assert prod.nnz == 0

    def test_euler_characteristic(self, discretize):
        for (a, rho, h) in [(0.0, 1.0, 0.2), (1.0, 1.0, 0.1), (1.0, 2.0, 0.2)]:
            cx = discretize(a, rho, h).cx
            assert cx.num_vertices - cx.num_edges + cx.num_faces == 1

    def test_dd_zero_integer(self, discretize):
        cx = discretize(1.0, 2.0, 0.2).cx
        prod = cx.d1 @ cx.d0  # integer product, exact
        prod.eliminate_zeros()
        assert prod.nnz == 0

    def test_boundary_is_cycle(self, discretize):
        disc = discretize(0.0, 0.2, 0.1)
        cx = disc.cx
        counts = edge_table(cx.faces, cx.num_vertices)[2]
        assert np.count_nonzero(counts == 1) == np.count_nonzero(~cx.interior_vertices)

    def test_orientation_coherence(self, discretize):
        # interior edges see their two faces with opposite induced orientations
        cx = discretize(1.0, 1.0, 0.2).cx
        col_sums = np.asarray(cx.d1.sum(axis=0)).ravel()
        interior = edge_table(cx.faces, cx.num_vertices)[2] == 2
        assert np.all(col_sums[interior] == 0)
        assert np.all(np.abs(col_sums[~interior]) == 1)

    def test_edge_canonical_orientation(self, discretize):
        cx = discretize(0.0, 1.0, 0.2).cx
        assert np.all(cx.edges[:, 0] < cx.edges[:, 1])

    def test_face_edges_join_the_other_two_corners(self, discretize):
        for cx in (hd.build_complex(make_lattice_mesh()), discretize(1.0, 1.0, 0.2).cx):
            assert cx.face_edges.shape == (cx.num_faces, 3)
            for f, tri in enumerate(cx.faces):
                for c in range(3):
                    u, v = np.delete(tri, c)
                    assert tuple(cx.edges[cx.face_edges[f, c]]) == (min(u, v), max(u, v))

    def test_matches_axis_unique_reference(self, discretize):
        # reference: edges as unique sorted vertex pairs, np.unique(axis=0)
        for mesh in (make_lattice_mesh(), discretize(1.0, 2.0, 0.2).mesh):
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

    def test_bowtie_boundary_rejected(self):
        # two triangles sharing vertex 0: V - E + F = 5 - 6 + 2 = 1, but vertex 0
        # lies on four boundary edges
        verts = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, -0.5], [-1.0, 0.5], [-1.0, -0.5]])
        tris = np.array([[0, 2, 1], [0, 3, 4]])
        with pytest.raises(TopologyError, match="not a union of closed cycles"):
            hd.build_complex(hd.TriMesh(verts, tris, 0.0))

    def test_triangle_beside_annulus_rejected(self):
        # a triangle (chi = 1) beside a 3 + 3 vertex annulus (chi = 0): the Euler
        # count is 1, every boundary vertex has degree 2, yet there are three cycles
        inner = [(0.1 * np.cos(t), 0.1 * np.sin(t)) for t in np.radians([0, 120, 240])]
        outer = [(0.3 * np.cos(t), 0.3 * np.sin(t)) for t in np.radians([60, 180, 300])]
        verts = np.array(inner + outer + [(1.0, 0.0), (1.2, 0.0), (1.1, 0.2)])
        tris = [[i, 3 + i, (i + 1) % 3] for i in range(3)]
        tris += [[3 + i, 3 + (i + 1) % 3, (i + 1) % 3] for i in range(3)]
        tris.append([6, 7, 8])
        mesh = hd.TriMesh(verts, np.array(tris), 0.0)
        with pytest.raises(TopologyError, match="more than one cycle"):
            hd.build_complex(mesh)

    def test_triangle_beside_torus_rejected(self):
        with pytest.raises(TopologyError, match="2 connected pieces"):
            hd.build_complex(make_triangle_beside_torus())


def reference_components(n, u, v):
    """The least node of each node's component, by union-find over Python ints."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(u.tolist(), v.tolist()):
        ri, rj = root(i), root(j)
        parent[max(ri, rj)] = min(ri, rj)
    return np.array([root(i) for i in range(n)])


@pytest.mark.parametrize("n, m", [(1, 0), (2, 1), (50, 20), (50, 49), (300, 280), (2000, 2100)])
def test_components_match_union_find(n, m):
    rng = np.random.default_rng(n + m)
    u, v = rng.integers(0, n, size=(2, m))
    assert np.array_equal(_components(n, u, v), reference_components(n, u, v))


def reference_single_cycle(bedges, bverts):
    """Whether a degree-2 boundary is one cycle, by the depth-first walk over a
    dict adjacency that `_check_boundary_cycle` replaced, kept as its reference."""
    adj = {}
    for i, j in bedges:
        adj.setdefault(int(i), []).append(int(j))
        adj.setdefault(int(j), []).append(int(i))
    start = int(np.flatnonzero(bverts)[0])
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == int(bverts.sum())


@pytest.mark.parametrize("lengths", [(3,), (8,), (9,), (65,), (3, 3), (4, 7), (3, 3, 3), (2000, 5)])
def test_boundary_cycle_count_matches_reference_walk(lengths):
    # disjoint cycles on shuffled vertex labels, with some non-boundary vertices
    rng = np.random.default_rng(sum(lengths))
    labels = rng.permutation(sum(lengths) + 4)
    bedges, start = [], 0
    for n in lengths:
        ring = labels[start : start + n]
        bedges += [sorted((ring[i], ring[(i + 1) % n])) for i in range(n)]
        start += n
    bedges = rng.permutation(np.array(bedges))
    bverts = np.zeros(labels.size, dtype=bool)
    bverts[labels[:start]] = True
    assert reference_single_cycle(bedges, bverts) == (len(lengths) == 1)
    if len(lengths) == 1:
        _check_boundary_cycle(bedges, bverts)
    else:
        with pytest.raises(TopologyError, match="more than one cycle"):
            _check_boundary_cycle(bedges, bverts)


class TestApplyD:
    def test_constant_has_zero_gradient(self, discretize):
        cx = discretize(0.0, 1.0, 0.2).cx
        out = hd.apply_d(Cochain(0, np.full(cx.num_vertices, 3.7)), cx)
        assert np.all(out.values == 0.0)

    def test_dd_is_zero_on_values(self, discretize, rng):
        cx = discretize(1.0, 1.0, 0.2).cx
        f = Cochain(0, rng.standard_normal(cx.num_vertices))
        ddf = hd.apply_d(hd.apply_d(f, cx), cx)
        assert np.abs(ddf.values).max() < 1e-13

    def test_coordinate_differences(self, discretize):
        disc = discretize(0.0, 1.0, 0.2)
        mesh, cx = disc.mesh, disc.cx
        x = mesh.vertices[:, 0]
        out = hd.apply_d(Cochain(0, x), cx)
        expected = x[cx.edges[:, 1]] - x[cx.edges[:, 0]]
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=0)

    def test_top_degree_rejected(self, discretize):
        cx = discretize(0.0, 1.0, 0.2).cx
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
    def test_single_triangle_all_boundary(self):
        cx = hd.build_complex(make_triangle_mesh())
        assert not cx.interior_vertices.any()

    def test_two_ring_faces_against_enumeration(self, discretize):
        disc = discretize(0.0, 0.2, 0.1)
        mesh, cx = disc.mesh, disc.cx
        # oracle: enumerate boundary vertices straight from the triangle list
        bnd = set()
        edge_count = {}
        for tri in map(tuple, mesh.triangles):
            for e in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]:
                edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
        for e, n in edge_count.items():
            if n == 1:
                bnd |= set(e)
        expected = np.array([not (set(tri) & bnd) for tri in map(tuple, mesh.triangles)])
        np.testing.assert_array_equal(cx.interior_faces, expected)
        assert expected.any()  # the 2-ring mesh does have interior faces


def test_rhombus_complex_shape():
    cx = hd.build_complex(make_rhombus_mesh())
    assert (cx.num_vertices, cx.num_edges, cx.num_faces) == (4, 5, 2)
    assert np.count_nonzero(edge_table(cx.faces, cx.num_vertices)[2] == 1) == 4
