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
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


def load_mesh(path) -> TriMesh:
    data = load_json(path)
    try:
        return TriMesh(
            vertices=np.array(data["vertices"], dtype=float),
            triangles=np.array(data["triangles"], dtype=np.int64),
            curvature=float(data["curvature"]),
            provenance=data.get("provenance", {}),
        )
    except KeyError as missing:
        raise ConfigError(f"mesh file {path} lacks field {missing}") from None


def save_cochain(c: Cochain, mesh: TriMesh, path) -> None:
    save_json(
        {
            "degree": c.degree,
            "values": [float(x) for x in c.values],
            "mesh_checksum": mesh_checksum(mesh),
        },
        path,
    )


def load_cochain(path, mesh: TriMesh) -> Cochain:
    data = load_json(path)
    try:
        degree = int(data["degree"])
        values = np.array(data["values"], dtype=float)
        stamp = data["mesh_checksum"]
    except KeyError as missing:
        raise ConfigError(f"cochain file {path} lacks field {missing}") from None
    actual = mesh_checksum(mesh)
    if stamp != actual:
        raise ChecksumError(
            f"cochain file {path} was built against mesh {stamp[:12]}..., "
            f"not the supplied mesh {actual[:12]}..."
        )
    return Cochain(degree, values)
