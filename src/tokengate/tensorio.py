"""QTN1 tensor files and weight manifests.

A tensor file is: magic ``QTN1``, little-endian uint32 version,
uint32 rank, rank uint64 dimensions, then the float64 row-major
payload.  A manifest is UTF-8 text, one ``name shape checksum filename``
line per tensor, checksummed over the whole tensor file so a single
flipped byte is caught and attributed.  Filenames are bare names inside
the manifest's directory; anything with a path component is rejected.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import InputError, MissingResourceError, ShapeError

MAGIC = b"QTN1"
VERSION = 1


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 2:
        raise ShapeError(f"QTN1 stores rank-1 or rank-2 tensors, got rank {arr.ndim}")
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype("<f8").tobytes(order="C")
    atomic_write_bytes(path, header + payload)


def read_tensor(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingResourceError(f"tensor file not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise InputError(f"{path}: bad magic at offset 0 (expected QTN1)")
    if len(blob) < 12:
        raise InputError(f"{path}: truncated header at offset {len(blob)}")
    version, rank = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise InputError(f"{path}: unsupported version {version} at offset 4")
    if rank not in (1, 2):
        raise InputError(f"{path}: unsupported rank {rank} at offset 8")
    dims_end = 12 + 8 * rank
    if len(blob) < dims_end:
        raise InputError(f"{path}: truncated dimensions at offset {len(blob)}")
    dims = struct.unpack_from(f"<{rank}Q", blob, 12)
    count = math.prod(dims)  # exact: a numpy product can wrap to 0
    expected = dims_end + 8 * count
    if len(blob) != expected:
        raise InputError(
            f"{path}: payload length mismatch at offset {min(len(blob), expected)} "
            f"(expected {expected} bytes, got {len(blob)})"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=dims_end, count=count)
    return data.astype(np.float64).reshape(dims)


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def shape_token(arr: np.ndarray) -> str:
    return "x".join(str(s) for s in arr.shape)


def write_manifest(path: str | Path, entries: list[tuple[str, str, str, str]]) -> None:
    lines = [" ".join(entry) for entry in entries]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> list[tuple[str, str, str, str]]:
    path = Path(path)
    if not path.exists():
        raise MissingResourceError(f"manifest not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    entries = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        filename = parts[3]
        if filename in (".", "..") or "/" in filename or "\\" in filename:
            raise InputError(f"{path}: line {lineno}: filename {filename!r} is not a bare file name")
        entries.append(tuple(parts))
    return entries


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Write via temp file + rename so readers never see partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
