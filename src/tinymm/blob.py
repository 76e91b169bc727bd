"""Binary weight blob format.

Little-endian layout:

    magic  "TMMW"
    u32    version (currently 1)
    u32    record count
    per record:
        u32   name length, then UTF-8 name bytes
        u8    dtype tag: 0 = f32, 1 = i8, 2 = i4-packed
        u8    rank
        u32*  dims
        u32   payload byte length, then payload
        u32   CRC32 over everything from the name length through the payload

i4-packed stores two signed 4-bit values per byte, low nibble first; an
odd element count leaves the final high nibble zero.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ChecksumMismatchError, ParseError

MAGIC = b"TMMW"
VERSION = 1

DTYPE_F32 = "f32"
DTYPE_I8 = "i8"
DTYPE_I4 = "i4"
_TAGS = {DTYPE_F32: 0, DTYPE_I8: 1, DTYPE_I4: 2}
_NAMES = {v: k for k, v in _TAGS.items()}


def _payload_len(dtype: str, n: int) -> int:
    """Bytes that n values of dtype take in a record's payload."""
    return 4 * n if dtype == DTYPE_F32 else n if dtype == DTYPE_I8 else (n + 1) // 2


@dataclass
class Record:
    """One named tensor in a blob; integer payloads are held unpacked."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    values: np.ndarray  # float32 for f32, int32 for i8 / i4

    @property
    def payload_bytes(self) -> int:
        return _payload_len(self.dtype, int(np.prod(self.shape)) if self.shape else 0)


def pack_i4(values: np.ndarray) -> bytes:
    v = np.asarray(values, dtype=np.int64).reshape(-1)
    if v.size and (v.min() < -8 or v.max() > 7):
        raise ParseError("i4 values must lie in [-8, 7]")
    nibbles = (v & 0xF).astype(np.uint8)
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, dtype=np.uint8)])
    return (nibbles[0::2] | (nibbles[1::2] << 4)).tobytes()


def unpack_i4(data: bytes, count: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    lo = raw & 0xF
    hi = raw >> 4
    nibbles = np.empty(raw.size * 2, dtype=np.uint8)
    nibbles[0::2] = lo
    nibbles[1::2] = hi
    vals = nibbles[:count].astype(np.int32)
    vals[vals > 7] -= 16
    return vals


def _encode_record(rec: Record) -> bytes:
    name = rec.name.encode("utf-8")
    head = struct.pack("<I", len(name)) + name
    head += struct.pack("<BB", _TAGS[rec.dtype], len(rec.shape))
    head += struct.pack(f"<{len(rec.shape)}I", *rec.shape)
    n = int(np.prod(rec.shape))
    flat = np.asarray(rec.values).reshape(-1)
    if flat.size != n:
        raise ParseError(f"record {rec.name!r}: {flat.size} values for shape {rec.shape}")
    if rec.dtype == DTYPE_F32:
        payload = flat.astype("<f4").tobytes()
    elif rec.dtype == DTYPE_I8:
        v = flat.astype(np.int64)
        if v.size and (v.min() < -128 or v.max() > 127):
            raise ParseError(f"record {rec.name!r}: i8 values out of range")
        payload = v.astype(np.int8).tobytes()
    elif rec.dtype == DTYPE_I4:
        payload = pack_i4(flat)
    else:
        raise ParseError(f"record {rec.name!r}: unknown dtype {rec.dtype!r}")
    body = head + struct.pack("<I", len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def write_blob(path, records: list[Record]) -> None:
    out = MAGIC + struct.pack("<II", VERSION, len(records))
    for rec in records:
        out += _encode_record(rec)
    with open(path, "wb") as fh:
        fh.write(out)


def read_blob(path) -> dict[str, Record]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise ParseError(f"{path}: not a weight blob (bad magic)")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise ParseError(f"{path}: unsupported blob version {version}")
    pos = 12
    records: dict[str, Record] = {}
    for _ in range(count):
        start = pos
        try:
            (name_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos : pos + name_len].decode("utf-8")  # before the CRC check
            pos += name_len
            tag, rank = struct.unpack_from("<BB", raw, pos)
            pos += 2
            shape = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            (payload_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            payload = raw[pos : pos + payload_len]
            if len(payload) != payload_len:
                raise ParseError(f"{path}: truncated record {name!r}")
            pos += payload_len
            (crc,) = struct.unpack_from("<I", raw, pos)
            pos += 4
        except struct.error as exc:
            raise ParseError(f"{path}: truncated blob") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: record name is not UTF-8") from exc
        if zlib.crc32(raw[start : pos - 4]) & 0xFFFFFFFF != crc:
            raise ChecksumMismatchError(f"{path}: CRC mismatch in record {name!r}")
        if tag not in _NAMES:
            raise ParseError(f"{path}: unknown dtype tag {tag} in record {name!r}")
        dtype = _NAMES[tag]
        n = int(np.prod(shape)) if rank else 0
        if payload_len != _payload_len(dtype, n):
            raise ParseError(f"{path}: bad payload size in record {name!r}")
        if dtype == DTYPE_F32:
            values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
        elif dtype == DTYPE_I8:
            values = np.frombuffer(payload, dtype=np.int8).astype(np.int32)
        else:
            values = unpack_i4(payload, n)
        records[name] = Record(name, dtype, tuple(int(d) for d in shape), values)
    return records


def payload_size(records: dict[str, Record] | list[Record]) -> int:
    """Total tensor payload bytes (headers and checksums excluded)."""
    if isinstance(records, dict):
        records = list(records.values())
    return sum(r.payload_bytes for r in records)
