import numpy as np
import pytest
from hypothesis import settings

import hodgedec as hd

# fixed profile for property tests that drive whole CLI commands: the same
# examples on every run, few of them, each within a deadline
settings.register_profile("cli", derandomize=True, max_examples=40, deadline=3000)


def unreachable_placement(a, h, sizes):
    """Stand-in for geometry._place_rings where the parameters must be rejected first."""
    raise AssertionError("ring placement reached for parameters that must be rejected")


def counted(calls, key, fn):
    """fn, adding one to calls[key] on each call."""

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="session")
def discretize():
    """Cached factory: (a, rho_max, h) -> the Discretization of that ball."""
    cache = {}

    def build(a, rho_max, h):
        key = (a, rho_max, h)
        if key not in cache:
            cache[key] = hd.discretize(hd.ball_mesh(a, rho_max, h))
        return cache[key]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def make_triangle_mesh():
    """Single flat unit equilateral triangle."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    return hd.TriMesh(verts, np.array([[0, 1, 2]]), 0.0, {"edge_length": 1.0})


def make_rhombus_mesh():
    """Two flat unit equilateral triangles glued along edge (0, 1)."""
    s = np.sqrt(3) / 2
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, s], [0.5, -s]])
    tris = np.array([[0, 1, 2], [0, 3, 1]])
    return hd.TriMesh(verts, tris, 0.0, {"edge_length": 1.0})


def make_lattice_mesh(rows=5, cols=5, step=0.25):
    """Flat offset-row triangular lattice (near-equilateral grid patch)."""
    verts = []
    for r in range(rows):
        for c in range(cols):
            verts.append((c * step + (r % 2) * step / 2, r * step * np.sqrt(3) / 2))
    tris = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            i = r * cols + c
            j = i + 1
            k = i + cols
            m = k + 1
            if r % 2 == 0:
                tris += [[i, j, k], [j, m, k]]
            else:
                tris += [[i, j, m], [i, m, k]]
    return hd.TriMesh(np.array(verts), np.array(tris), 0.0, {"edge_length": step})


def make_triangle_beside_torus():
    """A triangle beside the 7-vertex torus, drawn overlapping in the plane.

    V - E + F = 10 - 24 + 15 = 1 and the only boundary is the triangle's one
    cycle, so only the connectivity of the faces tells it from a disk.
    """
    ring = [(np.cos(t), np.sin(t)) for t in np.linspace(0.0, 2 * np.pi, 8)[:7]]
    verts = np.array([(3.0, 0.0), (3.5, 0.0), (3.0, 0.5)] + ring)
    tris = [[0, 1, 2]]
    for i in range(7):
        tris += [[3 + i, 3 + (i + 1) % 7, 3 + (i + 3) % 7], [3 + i, 3 + (i + 2) % 7, 3 + (i + 3) % 7]]
    return hd.TriMesh(verts, np.array(tris), 0.0)
