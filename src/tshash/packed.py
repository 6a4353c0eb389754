"""Bit-packed code blocks and their on-disk format.

Layout: point-major, ceil(m/64) words per point, 64-bit words with
little-endian bit order (bit k of a code lives in word k >> 6 at bit
position k & 63). Bit k is 1 iff hash k emitted +1. Padding bits in the
last word are always zero.
"""

from __future__ import annotations

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


@dataclass
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

    def bits01(self) -> np.ndarray:
        """Unpack to an (n, m) uint8 matrix of 0/1 bits."""
        raw = self.words.astype("<u8").view(np.uint8)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.m]

    def signs(self) -> np.ndarray:
        """Unpack to an (n, m) int8 matrix of {-1, +1} codes."""
        return (self.bits01().astype(np.int8) * 2 - 1).astype(np.int8)


def pack_signs(signs: np.ndarray) -> PackedCodes:
    """Pack an (n, m) matrix of {-1, +1} (or 0/1) values, one word group per row."""
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] < 1:
        raise CodesFormatError("need a 2-D sign matrix with at least one column")
    n, m = signs.shape
    bits = (signs > 0).astype(np.uint8)
    w = words_per_code(m)
    padded = np.zeros((n, w * 64), dtype=np.uint8)
    padded[:, :m] = bits
    raw = np.packbits(padded, axis=1, bitorder="little")
    words = raw.view("<u8").astype(np.uint64)
    return PackedCodes(words, m)


def write_codes_file(path, codes: PackedCodes) -> None:
    """Write magic, version, N, m, then the packed words, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, codes.n, codes.m))
        fh.write(codes.words.astype("<u8").tobytes())


def read_codes_file(path) -> PackedCodes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CodesFormatError(f"corrupt codes file {path}: truncated header")
    magic, version, n, m = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CodesFormatError(f"corrupt codes file {path}: bad magic {magic!r}")
    if version != VERSION:
        raise CodesFormatError(f"unsupported codes file version {version}")
    if m < 1:
        raise CodesFormatError(f"corrupt codes file {path}: m={m}")
    body = blob[_HEADER.size :]
    expected = n * words_per_code(m) * 8
    if len(body) != expected:
        raise CodesFormatError(
            f"corrupt codes file {path}: expected {expected} payload bytes, got {len(body)}"
        )
    words = np.frombuffer(body, dtype="<u8").astype(np.uint64).reshape(n, words_per_code(m))
    return PackedCodes(words, m)
