"""JSON interchange formats: meshes, cochains, decomposition and stream reports.

Cochain and report files carry the sha256 checksum of the mesh they were
computed against; a mismatch on load is an error. All files are written on
one line with sorted keys, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import orjson

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


def mesh_checksum(mesh: TriMesh) -> str:
    """sha256 over the mesh's raw arrays: a fixed header, then the curvature
    (float64), the shapes (V, 2, F, 3) (int64), the vertices (float64) and
    the triangles (int64), all little-endian and C-ordered.

    Two meshes get equal digests exactly when their curvature and vertex bits
    and their triangles are equal.
    """
    vertices = np.ascontiguousarray(mesh.vertices, dtype="<f8")
    triangles = np.ascontiguousarray(mesh.triangles, dtype="<i8")
    digest = hashlib.sha256(b"hodgedec mesh v2")
    digest.update(np.array([mesh.curvature], dtype="<f8"))
    digest.update(np.array(vertices.shape + triangles.shape, dtype="<i8"))
    digest.update(vertices)
    digest.update(triangles)
    return digest.hexdigest()


_NOT_FINITE = "a value is not finite (NaN or infinity)"
_ARRAY_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))
_FIXED_BAND = re.compile(rb"0\.0000([1-9])(\d*)")


def _band_repr(match: re.Match) -> bytes:
    """repr's d.ddde-05 for Ryū's 0.0000ddd, unless the match is the tail of a
    longer number such as 10.00001 (the text starts with "[", so start() > 0)."""
    if match.string[match.start() - 1] in b"0123456789":
        return match[0]
    head, tail = match.groups()
    return head + b"." + tail + b"e-05" if tail else head + b"e-05"


def _repr_exponents(text: bytes) -> bytes:
    """Ryū's exponents as repr writes them: a one-digit negative exponent gets
    a 0, e-7 -> e-07, and a positive one a +, e16 -> e+16. One insertion pass
    over the bytes serves every exponent, where fixed bytes.replace passes
    (e-6 to e-9, each before "," and "]") would rescan the text eight times.
    An e is followed by its sign or digits and then by at least the "," or
    "]" after the number, so e + 3 is inside the text."""
    buf = np.frombuffer(text, np.uint8)
    e = np.flatnonzero(buf == ord("e"))
    negative = buf[e + 1] == ord("-")
    one_digit = negative & np.isin(buf[e + 3], np.frombuffer(b",]", np.uint8))
    zeros, pluses = e[one_digit] + 2, e[~negative] + 1
    at = np.concatenate([zeros, pluses])
    fill = np.repeat(np.frombuffer(b"0+", np.uint8), [len(zeros), len(pluses)])
    return np.insert(buf, at, fill).tobytes()


def _array_text(a: np.ndarray) -> str:
    """The text of json.dumps(a.tolist()) for a 1-D or 2-D float64 or int64
    array.

    The digits come from orjson, which writes each float with Ryū's shortest
    round-trip digits (Adams 2018), the digits of repr, and each int as json
    does. Only the notation differs, and three rewrites make it json's:
    1. orjson separates with "," and json with ", ";
    2. Ryū writes 1e-5 <= |x| < 1e-4 as 0.0000ddd, repr as d.ddde-05;
    3. Ryū writes exponents bare, e-7 and e16, repr as e-07 and e+16; only
       1e-9 <= |x| < 1e-5 and |x| >= 1e16 have such exponents.
    Rewrites 2 and 3 run only when |x| falls in their band for some x, so an
    array with no such value pays three masks of |x| and no pass over the
    text; an int64 array takes rewrite 1 alone. The finiteness check comes
    first because orjson writes NaN and inf as null.
    """
    if a.dtype not in _ARRAY_DTYPES or a.ndim not in (1, 2):
        raise TypeError(f"cannot write a {a.ndim}-D {a.dtype} array; "
                        "save_json takes 1-D or 2-D float64 or int64 arrays")
    if a.dtype == np.float64 and not np.isfinite(a).all():
        raise ValueError(_NOT_FINITE)
    text = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)
    text = text.replace(b",", b", ")
    if a.dtype == np.float64:
        magnitude = np.abs(a)
        if ((magnitude >= 1e-5) & (magnitude < 1e-4)).any():
            text = _FIXED_BAND.sub(_band_repr, text)
        if ((magnitude >= 1e-9) & (magnitude < 1e-5)).any() or (magnitude >= 1e16).any():
            text = _repr_exponents(text)
    return text.decode()


def save_json(obj: dict, path) -> None:
    """Write obj as JSON; a value the encoder refuses (a NaN or infinite number,
    an int too long to print, a container that holds itself) is an error and
    nothing is written.

    The bytes are those of json.dumps(obj, sort_keys=True, allow_nan=False)
    followed by a newline, with each top-level numpy array (1-D or 2-D,
    float64 or int64) written as its tolist() would be: one line, from json's
    C encoder and `_array_text`, whose digits are orjson's shortest round-trip
    digits, those of repr, put into json's notation by byte rewrites that run
    only for the arrays that need them. The value of each key is written as
    its own piece, never joined into one text, which keeps the peak memory of
    a large report down.
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


def load_cochain(path, checksum: str) -> Cochain:
    """Read a cochain file stamped with `checksum`, the `mesh_checksum` of the
    mesh it is to be used on."""
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
