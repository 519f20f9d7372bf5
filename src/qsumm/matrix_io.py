"""How qsumm reads and writes files, and the QSFM binary matrix format.

write_atomic does every whole-file write, readinto and read_exact every
read of a known length, and parse_json every parse of outside JSON.

QSFM: 24-byte header -- magic "QSFM", format version u32 LE, rows u64
LE, cols u64 LE -- followed by the row-major payload.  Version 1 stores
float32 and is what corpus feature files use; version 2 stores float64
and is used for checkpoint tensors, where training state must
round-trip bit-exactly.  Loads return the file's dtype: corpus features
stay float32 in memory, and the models widen them to float64 as they
read them.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import FormatError, VersionError

__all__ = ["write_atomic", "write_matrix", "load_feature_matrix", "matrix_bytes",
           "matrix_from_bytes", "readinto", "read_exact", "parse_json", "encode_matrix",
           "parse_matrix_header", "HEADER_SIZE"]

MAGIC = b"QSFM"
_HEADER = struct.Struct("<4sIQQ")
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
HEADER_SIZE = _HEADER.size
# write_atomic's buffer; a part larger than it is written from its own memory
_WRITE_BUFFER = 8 << 20


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
    """A writable copy of the matrix a QSFM buffer holds, in its dtype."""
    dtype, rows, cols = parse_matrix_header(buf, len(buf) - _HEADER.size, source)
    return np.frombuffer(buf, dtype=dtype, offset=_HEADER.size).reshape(rows, cols).copy()


def readinto(fh, buf, source: str) -> None:
    """Fill buf, a contiguous array or bytearray, from the open file fh."""
    view = memoryview(buf).cast("B")
    if fh.readinto(view) != len(view):
        raise FormatError(f"{source}: file ended early; it changed while being read")


def read_exact(fh, n: int, source: str) -> bytearray:
    """The next n bytes of the open file fh."""
    buf = bytearray(n)
    readinto(fh, buf, source)
    return buf


def parse_json(data: bytes, error: type, message: str):
    """The JSON value of data, decoded strictly as UTF-8.  Bad UTF-8 or
    JSON, an int of too many digits or too deep nesting raise
    error(f"{message}: {reason}")."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise error(f"{message}: {e}") from None


def write_atomic(path, *parts) -> None:
    """Write parts in order, a str as UTF-8 and bytes or a contiguous
    array as they are, to a temp file beside path, then rename it over
    path.  A failed write leaves path as it was and no temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb", buffering=_WRITE_BUFFER) as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_matrix(path, arr: np.ndarray, version: int = 1) -> None:
    """Write a QSFM file straight from the array, with no bytes copy."""
    write_atomic(path, *encode_matrix(arr, version))


def load_feature_matrix(path) -> np.ndarray:
    """Load a QSFM file as a matrix of its dtype, read straight into it."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        payload_len = os.fstat(fh.fileno()).st_size - len(head)
        dtype, rows, cols = parse_matrix_header(head, payload_len, str(path))
        arr = np.empty((rows, cols), dtype=dtype)
        readinto(fh, arr, str(path))
    return arr
