"""JSON interchange formats: meshes, cochains, decomposition and stream reports.

Cochain and report files carry the sha256 checksum of the mesh they were
computed against; a mismatch on load is an error. All files are written with
sorted keys so identical runs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ConfigError
from .geometry import TriMesh
from .simplicial import Cochain

__all__ = [
    "mesh_checksum",
    "save_mesh",
    "load_mesh",
    "save_cochain",
    "load_cochain",
    "save_json",
    "load_json",
]


def _canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def mesh_checksum(mesh: TriMesh) -> str:
    payload = {
        "curvature": float(mesh.curvature),
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
    }
    return hashlib.sha256(_canonical_dumps(payload).encode()).hexdigest()


def save_json(obj: dict, path) -> None:
    """Write obj as JSON; a NaN or infinite number is an error and nothing is written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ConfigError(f"not writing {path}: a value is not finite (NaN or infinity)") from None
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_mesh(mesh: TriMesh, path) -> None:
    save_json(
        {
            "curvature": float(mesh.curvature),
            "vertices": mesh.vertices.tolist(),
            "triangles": mesh.triangles.tolist(),
            "provenance": mesh.provenance,
        },
        path,
    )


def _load_object(path, what: str) -> dict:
    data = load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data


def _field(data: dict, key: str, path, what: str):
    try:
        return data[key]
    except KeyError:
        raise ConfigError(f"{what} file {path} lacks field {key!r}") from None


def _array(data: dict, key: str, path, what: str, dtype=None) -> np.ndarray:
    try:
        return np.array(_field(data, key, path, what), dtype=dtype)
    except (TypeError, OverflowError) as err:
        raise ConfigError(f"{what} file {path}: field {key!r} is not a numeric array ({err})") from None


def load_mesh(path) -> TriMesh:
    data = _load_object(path, "mesh")
    curvature = _field(data, "curvature", path, "mesh")
    if isinstance(curvature, bool) or not isinstance(curvature, (int, float)):
        raise ConfigError(f"mesh file {path}: curvature must be a real number")
    try:
        curvature = float(curvature)
    except OverflowError:
        raise ConfigError(f"mesh file {path}: curvature is too large") from None
    return TriMesh(
        vertices=_array(data, "vertices", path, "mesh", dtype=float),
        triangles=_array(data, "triangles", path, "mesh"),  # TriMesh checks the indices
        curvature=curvature,
        provenance=data.get("provenance", {}),
    )


def save_cochain(c: Cochain, mesh: TriMesh, path) -> None:
    save_json(
        {
            "degree": c.degree,
            "values": [float(x) for x in c.values],
            "mesh_checksum": mesh_checksum(mesh),
        },
        path,
    )


def load_cochain(path, checksum: str) -> Cochain:
    """Read a cochain file stamped with `checksum`, the `mesh_checksum` of its mesh."""
    data = _load_object(path, "cochain")
    degree = _field(data, "degree", path, "cochain")
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ConfigError(f"cochain file {path}: degree must be an integer")
    values = _array(data, "values", path, "cochain", dtype=float)
    stamp = str(_field(data, "mesh_checksum", path, "cochain"))
    if stamp != checksum:
        raise ChecksumError(
            f"cochain file {path} was built against mesh {stamp[:12]}..., "
            f"not the supplied mesh {checksum[:12]}..."
        )
    return Cochain(degree, values)
