"""The QSFM binary matrix format.

Layout: 24-byte header -- magic "QSFM", format version u32 LE, rows u64 LE,
cols u64 LE -- followed by the row-major payload.  Version 1 stores float32
and is what corpus feature files use; version 2 stores float64 and is used
for checkpoint tensors, where training state must round-trip bit-exactly.
Loads always return float64.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, VersionError

__all__ = ["write_matrix", "load_feature_matrix", "matrix_bytes", "matrix_from_bytes",
           "encode_matrix", "parse_matrix_header", "HEADER_SIZE"]

MAGIC = b"QSFM"
_HEADER = struct.Struct("<4sIQQ")
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
HEADER_SIZE = _HEADER.size


def encode_matrix(arr: np.ndarray, version: int = 1) -> tuple[bytes, np.ndarray]:
    """The header and the contiguous payload array of a 2-d matrix.

    Version 1 casts to float32; version 2 keeps float64 and copies nothing
    when the input is already contiguous little-endian float64.
    """
    if version not in _DTYPES:
        raise VersionError(f"unsupported QSFM version {version}")
    a = np.ascontiguousarray(arr, dtype=_DTYPES[version])
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise FormatError(f"QSFM stores nonempty matrices, got shape {arr.shape}")
    return _HEADER.pack(MAGIC, version, a.shape[0], a.shape[1]), a


def matrix_bytes(arr: np.ndarray, version: int = 1) -> bytes:
    """Serialize a 2-d array; version 1 casts to float32, version 2 keeps float64."""
    head, a = encode_matrix(arr, version)
    return head + a.tobytes()


def parse_matrix_header(head: bytes, payload_len: int, source: str) -> tuple[np.dtype, int, int]:
    """Check a header against the payload length that follows it.

    Returns (dtype, rows, cols).  Every QSFM read goes through this check.
    """
    if len(head) < _HEADER.size:
        raise FormatError(
            f"{source}: QSFM header needs {_HEADER.size} bytes, file has {len(head)}"
        )
    magic, version, rows, cols = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {MAGIC!r}")
    if version not in _DTYPES:
        raise VersionError(f"{source}: unsupported QSFM version {version}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{source}: rows and cols must be >= 1, got {rows}x{cols}")
    dtype = _DTYPES[version]
    want = rows * cols * dtype.itemsize
    if payload_len != want:
        raise FormatError(
            f"{source}: payload has {payload_len} bytes, {rows}x{cols} needs {want}"
        )
    return dtype, rows, cols


def matrix_from_bytes(buf: bytes, source: str = "<bytes>") -> np.ndarray:
    dtype, rows, cols = parse_matrix_header(buf, len(buf) - _HEADER.size, source)
    arr = np.frombuffer(buf, dtype=dtype, offset=_HEADER.size).reshape(rows, cols)
    return arr.astype(np.float64)


def write_matrix(path, arr: np.ndarray, version: int = 1) -> None:
    """Write atomically: temp file in the same directory, then rename."""
    data = matrix_bytes(arr, version=version)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load_feature_matrix(path) -> np.ndarray:
    """Load a QSFM file as a float64 matrix."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return matrix_from_bytes(buf, source=str(path))
