"""JSON interchange formats: meshes, cochains, decomposition and stream reports.

Cochain and report files carry the sha256 checksum of the mesh they were
computed against; a mismatch on load is an error. All files are written on
one line with sorted keys, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ConfigError
from .geometry import TriMesh
from .simplicial import Cochain

__all__ = [
    "mesh_checksum",
    "legacy_mesh_checksum",
    "save_mesh",
    "load_mesh",
    "save_cochain",
    "load_cochain",
    "save_json",
    "load_json",
]


def mesh_checksum(mesh: TriMesh) -> str:
    """sha256 over the mesh's raw arrays: a fixed header, then the curvature
    (float64), the shapes (V, 2, F, 3) (int64), the vertices (float64) and
    the triangles (int64), all little-endian and C-ordered.

    Two meshes get equal digests exactly when their curvature and vertex bits
    and their triangles are equal, as for `legacy_mesh_checksum`.
    """
    vertices = np.ascontiguousarray(mesh.vertices, dtype="<f8")
    triangles = np.ascontiguousarray(mesh.triangles, dtype="<i8")
    digest = hashlib.sha256(b"hodgedec mesh v2")
    digest.update(np.array([mesh.curvature], dtype="<f8"))
    digest.update(np.array(vertices.shape + triangles.shape, dtype="<i8"))
    digest.update(vertices)
    digest.update(triangles)
    return digest.hexdigest()


def legacy_mesh_checksum(mesh: TriMesh) -> str:
    """The digest that cochain files carried before `mesh_checksum` hashed raw
    arrays: sha256 of the mesh as compact, key-sorted JSON text."""
    payload = {
        "curvature": float(mesh.curvature),
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_NOT_FINITE = "a value is not finite (NaN or infinity)"
_NUMBER_FORMATS = {np.dtype(np.float64): "%r", np.dtype(np.int64): "%d"}


def _array_text(a: np.ndarray) -> str:
    """The text of json.dumps(a.tolist()) for a 1-D or 2-D float64 or int64
    array: one row template, "[%r, %r]" say, repeated and applied to the flat
    values at once, so that no Python list is built per row. `%r` of a float
    and `%d` of an int are the digits json writes for them."""
    spec = _NUMBER_FORMATS.get(a.dtype)
    if spec is None or a.ndim not in (1, 2):
        raise TypeError(f"cannot write a {a.ndim}-D {a.dtype} array; "
                        "save_json takes 1-D or 2-D float64 or int64 arrays")
    if spec == "%r" and not np.isfinite(a).all():
        raise ValueError(_NOT_FINITE)
    row = ", ".join([spec] * a.shape[-1])
    if a.ndim == 2:
        row = ", ".join(["[" + row + "]"] * a.shape[0])
    return ("[" + row + "]") % tuple(a.ravel().tolist())


def save_json(obj: dict, path) -> None:
    """Write obj as JSON; a value the encoder refuses (a NaN or infinite number,
    an int too long to print, a container that holds itself) is an error and
    nothing is written.

    The bytes are those of json.dumps(obj, sort_keys=True, allow_nan=False)
    followed by a newline, with each top-level numpy array (1-D or 2-D,
    float64 or int64) written as its tolist() would be: one line, from json's
    C encoder and `_array_text`. The value of each key is written as its own
    piece, never joined into one text, which keeps the peak memory of a large
    report down.
    """
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    try:
        if type(obj) is dict and obj and all(type(key) is str for key in obj):
            pieces = ["{"]
            for key in sorted(obj):
                value = obj[key]
                text = _array_text(value) if isinstance(value, np.ndarray) else encode(value)
                pieces += [encode(key), ": ", text, ", "]
            pieces[-1] = "}\n"
        else:
            pieces = [encode(obj), "\n"]
    except ValueError as err:
        reason = str(err)
        if reason.startswith("Out of range float values"):  # the encoder's allow_nan message
            reason = _NOT_FINITE
        raise ConfigError(f"not writing {path}: {reason}") from None
    with open(path, "w") as fh:
        fh.writelines(pieces)


def load_json(path) -> dict:
    """Parse a JSON file with the cyclic garbage collector paused, then restore
    its state. A parse builds only lists and dicts, which cannot form a cycle;
    the one list per mesh row would otherwise trigger collector passes."""
    text = Path(path).read_text()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def save_mesh(mesh: TriMesh, path) -> None:
    save_json(
        {
            "curvature": float(mesh.curvature),
            "vertices": mesh.vertices,
            "triangles": mesh.triangles,
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
    value = _field(data, key, path, what)
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as err:  # ValueError: ragged rows
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
            "values": c.values,
            "mesh_checksum": mesh_checksum(mesh),
        },
        path,
    )


def load_cochain(path, checksum: str, mesh: TriMesh) -> Cochain:
    """Read a cochain file stamped with `checksum`, the `mesh_checksum` of `mesh`,
    or with the mesh's `legacy_mesh_checksum`, as files written before the
    array digest were."""
    data = _load_object(path, "cochain")
    degree = _field(data, "degree", path, "cochain")
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ConfigError(f"cochain file {path}: degree must be an integer")
    values = _array(data, "values", path, "cochain", dtype=float)
    stamp = str(_field(data, "mesh_checksum", path, "cochain"))
    if stamp != checksum and stamp != legacy_mesh_checksum(mesh):
        raise ChecksumError(
            f"cochain file {path} was built against mesh {stamp[:12]}..., "
            f"not the supplied mesh {checksum[:12]}..."
        )
    return Cochain(degree, values)
