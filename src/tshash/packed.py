"""Bit-packed code blocks and their on-disk format.

Layout: point-major, ceil(m/64) words per point, 64-bit words with
little-endian bit order (bit k of a code lives in word k >> 6 at bit
position k & 63). Bit k is 1 iff hash k emitted +1. Padding bits in the
last word are always zero.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PackedCodes",
    "CodesFormatError",
    "words_per_code",
    "pack_signs",
    "write_codes_file",
    "read_codes_file",
]

MAGIC = b"TSHC"
VERSION = 1
_HEADER = struct.Struct("<4sIQI")


class CodesFormatError(ValueError):
    """Corrupt or inconsistent packed-codes data."""


def words_per_code(m: int) -> int:
    return (m + 63) // 64


def _padding_mask(m: int) -> np.uint64:
    """Mask of the used bits in the last word."""
    used = m - 64 * (words_per_code(m) - 1)
    if used == 64:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << used) - 1)


@dataclass(eq=False)
class PackedCodes:
    """n codes of m bits each, packed into an (n, ceil(m/64)) uint64 array."""

    words: np.ndarray
    m: int

    def __post_init__(self):
        self.words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if self.m < 1:
            raise CodesFormatError("m must be >= 1")
        if self.words.ndim != 2 or self.words.shape[1] != words_per_code(self.m):
            raise CodesFormatError(
                f"expected {words_per_code(self.m)} words per code, got shape {self.words.shape}"
            )
        if self.n and (self.words[:, -1] & ~_padding_mask(self.m)).any():
            raise CodesFormatError("padding bits must be zero")
        self.words.flags.writeable = False

    @property
    def n(self) -> int:
        return self.words.shape[0]

    def signs(self) -> np.ndarray:
        """Unpack to an (n, m) int8 matrix of {-1, +1} codes."""
        raw = self.words.astype("<u8").view(np.uint8)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.m].view(np.int8) * 2 - 1


def pack_signs(signs: np.ndarray) -> PackedCodes:
    """Pack an (n, m) matrix of {-1, +1} (or 0/1) values, one word group per row.

    The signs go through one np.packbits into zero-padded bytes, which are
    the little-endian words.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] < 1:
        raise CodesFormatError("need a 2-D sign matrix with at least one column")
    n, m = signs.shape
    raw = np.zeros((n, 8 * words_per_code(m)), dtype=np.uint8)
    raw[:, : (m + 7) // 8] = np.packbits(signs > 0, axis=1, bitorder="little")
    return PackedCodes(raw.view("<u8"), m)


def write_codes_file(path, codes: PackedCodes) -> None:
    """Write magic, version, N, m, then the packed words, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, codes.n, codes.m))
        fh.write(codes.words.astype("<u8").tobytes())


def read_codes_file(path) -> PackedCodes:
    """Read a codes file; a malformed one raises CodesFormatError.

    A file whose size matches its header is read once, straight into the
    array that holds the codes. Anything else (a wrong size, or a pipe,
    whose size is known only once read) is read whole before it is checked,
    so a corrupt header never sizes an allocation.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CodesFormatError(f"corrupt codes file {path}: truncated header")
        magic, version, n, m = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CodesFormatError(f"corrupt codes file {path}: bad magic {magic!r}")
        if version != VERSION:
            raise CodesFormatError(f"unsupported codes file version {version}")
        if m < 1:
            raise CodesFormatError(f"corrupt codes file {path}: m={m}")
        expected = n * words_per_code(m) * 8
        if os.fstat(fh.fileno()).st_size == _HEADER.size + expected:
            payload = np.empty(expected, dtype=np.uint8)
            size = fh.readinto(payload)
        else:
            payload = fh.read()
            size = len(payload)
        if size != expected:
            raise CodesFormatError(
                f"corrupt codes file {path}: expected {expected} payload bytes, got {size}"
            )
    return PackedCodes(np.frombuffer(payload, dtype="<u8").reshape(n, words_per_code(m)), m)
