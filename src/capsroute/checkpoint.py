"""Versioned binary parameter container: named tensors plus a config fingerprint.

Layout: magic, little-endian uint64 header length, JSON header (version,
fingerprint, tensor index with dtype/shape/offset), then the raw
little-endian tensor blob. Any malformed or truncated file raises
``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .signal import atomic_write

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"CRCKPT01"
_PREFIX = len(_MAGIC) + 8  # magic + uint64 header length
_VERSION = 1
_DTYPES = ("<f8", "<f4")  # a tuple: membership must not hash JSON lists


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path: Path, named_arrays: dict[str, np.ndarray], fingerprint: dict) -> None:
    index = {}
    arrays = []
    offset = 0
    for name, arr in named_arrays.items():
        arr = np.asarray(arr)
        # the tensor's own buffer, written as it is, unless it needs a cast or a C-order copy
        arr = np.asarray(arr, "<f4" if arr.dtype == np.float32 else "<f8", order="C")
        index[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        arrays.append(arr)
        offset += arr.nbytes
    header = json.dumps(
        {"version": _VERSION, "fingerprint": fingerprint, "tensors": index},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr)


def load_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX)
        if not prefix.startswith(_MAGIC):
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        if len(prefix) < _PREFIX:
            raise CheckpointError(f"{path} is truncated inside its header length")
        (header_len,) = struct.unpack("<Q", prefix[len(_MAGIC) :])
        if size < _PREFIX + header_len:  # checked before reading, so a corrupt length allocates nothing
            raise CheckpointError(f"{path} is truncated inside its header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
        if not isinstance(header, dict) or header.get("version") != _VERSION:
            raise CheckpointError(f"{path} has an unsupported header version")
        fingerprint, tensors = header.get("fingerprint"), header.get("tensors")
        if not isinstance(fingerprint, dict) or not isinstance(tensors, dict):
            raise CheckpointError(f"{path} header lacks a fingerprint or tensor index")
        blob_start = _PREFIX + header_len
        arrays = {}
        for name, meta in tensors.items():
            arrays[name] = _read_tensor(path, name, meta, fh, blob_start, size - blob_start)
    return arrays, fingerprint


def _read_tensor(path: Path, name: str, meta, fh, blob_start: int, blob_size: int) -> np.ndarray:
    """Read one tensor straight into a fresh array, after checking that the
    file holds all of its bytes."""
    if not isinstance(meta, dict) or meta.get("dtype") not in _DTYPES:
        raise CheckpointError(f"{path} tensor {name!r} has no supported dtype")
    shape, offset, nbytes = meta.get("shape"), meta.get("offset"), meta.get("nbytes")
    if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
        raise CheckpointError(f"{path} tensor {name!r} has a malformed shape {shape!r}")
    if not (type(offset) is int and offset >= 0 and type(nbytes) is int):
        raise CheckpointError(f"{path} tensor {name!r} has a malformed offset or size")
    if nbytes != math.prod(shape) * np.dtype(meta["dtype"]).itemsize:
        raise CheckpointError(f"{path} tensor {name!r} holds {nbytes} bytes, which does not fit shape {shape}")
    if offset + nbytes > blob_size:
        raise CheckpointError(f"{path} is truncated at tensor {name!r}")
    arr = np.empty(shape, dtype=meta["dtype"])
    fh.seek(blob_start + offset)
    if fh.readinto(arr) != nbytes:  # the file shrank since it was opened
        raise CheckpointError(f"{path} is truncated at tensor {name!r}")
    return arr

