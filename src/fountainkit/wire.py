"""Frame format for coded packets.

Layout, all integers big-endian:

    magic 0xEC | version 0x02 | scheme_id u8 | k u32 | B u32 |
    header_kind u8 | header_len u16 | header bytes | payload

Every frame is self-describing: its scheme, k, B, header kind and header
bytes are all a receiver needs to build the stream's decoder from the
first frame it holds.  Header encodings by kind:

    0  GF(2) coefficients: k symbols bit-packed one bit per symbol,
       LSB-first within each byte.
    4  GF(256) coefficients: k symbols, one byte per symbol.
    1  seed + degree: u64 seed, u16 degree.  Raptor packets append
       u64 precode_seed, u32 redundant_count, u16 row_weight; a
       redundant_count above k + 64 (`MAX_EXTRA_REDUNDANT`) is malformed,
       since the decoder allocates per redundant packet.
    2  row index of the Vandermonde generator: u32.
    5  row index of the systematic generator: u32.
    3  shift list: u16 count (= k), then count u16 slots; 0xFFFF marks
       an input absent from the packet.

k and B are at least 1.  Payload length is B except for shift-list
packets, which carry B + ceil(max_shift / 8) bytes.  A packet-stream file
is a plain concatenation of frames.
"""

from __future__ import annotations

import struct
from typing import Iterator

from .core import (
    CodedPacket,
    CoefficientVector,
    HeaderKind,
    RaptorSeed,
    RowIndex,
    SchemeId,
    SeedDegree,
    ShiftList,
)
from .errors import (
    BadMagicError,
    PacketFormatError,
    TruncatedFrameError,
    UnknownSchemeError,
)
from .gf import GF2, GF256

MAGIC = 0xEC
VERSION = 0x02

#: A raptor frame's redundant_count may exceed its k by at most this.
MAX_EXTRA_REDUNDANT = 64

_ABSENT = 0xFFFF
_FIXED = struct.Struct(">BBBIIBH")  # magic, version, scheme, k, B, kind, header_len


def _encode_header(packet: CodedPacket) -> bytes:
    h = packet.header
    if isinstance(h, CoefficientVector):
        coeffs = h.coefficients
        if len(coeffs) != packet.k:
            raise PacketFormatError("coefficient vector length must equal k")
        if any(not 0 <= c < h.spec.order for c in coeffs):
            raise PacketFormatError(f"coefficient outside GF({h.spec.order})")
        if h.spec.m == 1:
            out = bytearray((packet.k + 7) // 8)
            for j, c in enumerate(coeffs):
                if c:
                    out[j // 8] |= 1 << (j % 8)
            return bytes(out)
        return bytes(coeffs)
    if isinstance(h, RaptorSeed):
        return struct.pack(
            ">QHQIH", h.seed, h.degree, h.precode_seed, h.redundant_count, h.row_weight
        )
    if isinstance(h, SeedDegree):
        return struct.pack(">QH", h.seed, h.degree)
    if isinstance(h, RowIndex):
        return struct.pack(">I", h.index)
    if isinstance(h, ShiftList):
        if len(h.slots) != packet.k:
            raise PacketFormatError("shift list must have one slot per input")
        vals = [_ABSENT if s is None else s for s in h.slots]
        if any(not 0 <= v <= 0xFFFF for v in vals):
            raise PacketFormatError("shift outside u16 range")
        return struct.pack(f">H{len(vals)}H", len(vals), *vals)
    raise PacketFormatError(f"unknown header type {type(h).__name__}")


def serialize(packet: CodedPacket) -> bytes:
    header = _encode_header(packet)
    expected = packet.packet_len + packet.header.pad_bytes
    if len(packet.payload) != expected:
        raise PacketFormatError(
            f"payload is {len(packet.payload)} bytes, frame needs {expected}"
        )
    fixed = _FIXED.pack(
        MAGIC, VERSION, packet.scheme, packet.k, packet.packet_len,
        packet.header.kind, len(header),
    )
    return fixed + header + packet.payload


def _decode_header(scheme: SchemeId, k: int, kind: int, data: bytes):
    if kind == HeaderKind.GF2_COEFFICIENTS:
        if len(data) != (k + 7) // 8:
            raise PacketFormatError(
                f"GF(2) coefficient header of {len(data)} bytes, k={k} needs {(k + 7) // 8}"
            )
        return CoefficientVector(tuple((data[j // 8] >> (j % 8)) & 1 for j in range(k)), GF2)
    if kind == HeaderKind.GF256_COEFFICIENTS:
        if len(data) != k:
            raise PacketFormatError(
                f"GF(256) coefficient header of {len(data)} bytes, k={k} needs {k}"
            )
        return CoefficientVector(tuple(data), GF256)
    if kind == HeaderKind.SEED_DEGREE:
        if scheme == SchemeId.RAPTOR:
            if len(data) != 24:
                raise PacketFormatError("raptor header must be 24 bytes")
            seed, degree, pseed, j, w = struct.unpack(">QHQIH", data)
            if j > k + MAX_EXTRA_REDUNDANT:
                raise PacketFormatError(
                    f"raptor redundant_count {j} exceeds k + {MAX_EXTRA_REDUNDANT}"
                )
            return RaptorSeed(seed, degree, pseed, j, w)
        if len(data) != 10:
            raise PacketFormatError("seed+degree header must be 10 bytes")
        seed, degree = struct.unpack(">QH", data)
        return SeedDegree(seed, degree)
    if kind in (HeaderKind.ROW_INDEX, HeaderKind.SYSTEMATIC_ROW_INDEX):
        if len(data) != 4:
            raise PacketFormatError("row index header must be 4 bytes")
        index = struct.unpack(">I", data)[0]
        return RowIndex(index, kind == HeaderKind.SYSTEMATIC_ROW_INDEX)
    if kind == HeaderKind.SHIFT_LIST:
        if len(data) < 2:
            raise PacketFormatError("shift list header too short")
        (count,) = struct.unpack(">H", data[:2])
        if count != k:
            raise PacketFormatError(f"shift list has {count} slots, expected k={k}")
        if len(data) != 2 + 2 * count:
            raise PacketFormatError("shift list length mismatch")
        vals = struct.unpack(f">{count}H", data[2:])
        slots = tuple(None if v == _ABSENT else v for v in vals)
        if all(s is None for s in slots):
            raise PacketFormatError("shift list with no participants")
        return ShiftList(slots)
    raise PacketFormatError(f"unknown header kind {kind}")


def decode_frame(data: bytes, offset: int = 0) -> tuple[CodedPacket, int]:
    """Parse one frame starting at `offset`; returns the packet and the
    offset just past it."""
    if len(data) - offset < 1:
        raise TruncatedFrameError("empty frame")
    if data[offset] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC:#x}, found {data[offset]:#x}")
    if len(data) - offset < _FIXED.size:
        raise TruncatedFrameError("frame shorter than fixed fields")
    magic, version, scheme_raw, k, b, kind, header_len = _FIXED.unpack_from(
        data, offset
    )
    if version != VERSION:
        raise PacketFormatError(f"unsupported frame version {version}")
    if k < 1 or b < 1:
        raise PacketFormatError(f"frame has k={k} and B={b}; both must be at least 1")
    try:
        scheme = SchemeId(scheme_raw)
    except ValueError:
        raise UnknownSchemeError(f"unknown scheme id {scheme_raw}") from None
    pos = offset + _FIXED.size
    if len(data) - pos < header_len:
        raise TruncatedFrameError("frame ends inside header")
    header = _decode_header(scheme, k, kind, data[pos : pos + header_len])
    pos += header_len
    payload_len = b + header.pad_bytes
    if len(data) - pos < payload_len:
        raise TruncatedFrameError("frame ends inside payload")
    payload = data[pos : pos + payload_len]
    return CodedPacket(scheme, k, b, header, payload), pos + payload_len


def deserialize(data: bytes) -> CodedPacket:
    """Parse exactly one frame; trailing bytes are an error."""
    packet, end = decode_frame(data)
    if end != len(data):
        raise PacketFormatError(f"{len(data) - end} trailing bytes after frame")
    return packet


def read_stream(data: bytes) -> Iterator[CodedPacket]:
    """Iterate the frames of a packet-stream file."""
    offset = 0
    while offset < len(data):
        packet, offset = decode_frame(data, offset)
        yield packet


def write_stream(packets) -> bytes:
    return b"".join(serialize(p) for p in packets)
