"""Discrete exterior calculus on geodesic balls of the hyperbolic plane.

Decomposes discrete 1-forms into exact, co-exact and harmonic parts under
both the L2 and H1 inner products, reconstructs stream functions for
co-closed fields, and certifies the constant-curvature Bochner identities in
exact rational arithmetic.
"""

from .dec import (
    Discretization,
    assemble_stars,
    codifferential,
    discretize,
    inner,
    norm,
    solve_spd,
)
from .errors import (
    ChecksumError,
    ConfigError,
    ConvergenceError,
    DegreeError,
    DomainError,
    MeshQualityError,
    PreconditionError,
    TopologyError,
)
from .forms import builtin_form
from .geometry import (
    TriMesh,
    ball_mesh,
    cutoff_profile,
    mesh_area,
    radial_distance,
)
from .hodge import (
    HodgeSplit,
    StreamResult,
    decompose,
    harmonic_diagnostics,
    stream_function,
    truncation_distance,
)
from .io import load_cochain, load_mesh, mesh_checksum, save_cochain, save_mesh
from .simplicial import Cochain, SimplicialComplex, apply_d, build_complex
from .weitzenbock import run_verification, star_involution_sign

__version__ = "0.1.0"
