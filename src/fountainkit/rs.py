"""Fixed-rate Reed-Solomon-style erasure codec over GF(256).

Coding vectors are rows of a Vandermonde matrix built on distinct nonzero
evaluation points, so any k of the n coded packets form an invertible
system.  Headers carry the row index and the systematic flag; since row j
is the same for every n > j, a receiver rebuilds it from the spec with
the largest n, `MAX_ROWS`.  The optional systematic variant right-multiplies
the generator by the inverse of its first k rows, which turns those rows
into the identity while keeping every k-subset invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    InputBlock,
    LinearDecoder,
    RowIndex,
    SchemeId,
    check_packet,
    linear_combine,
)
from .errors import (
    DuplicatePacketError,
    InsufficientPacketsError,
    PacketFormatError,
    SchemeMismatchError,
)
from .gf import GF256, field
from .linalg import FieldMatrix, OpCounter, invert, solve


#: Rows of the largest code: one per nonzero point of GF(256).
MAX_ROWS = GF256.order - 1


def default_points(n: int) -> tuple[int, ...]:
    """First n nonzero elements of GF(256) in generator-power order."""
    if n > MAX_ROWS:
        raise ValueError(f"GF(256) has only {MAX_ROWS} nonzero points")
    return tuple(field(GF256).exp_table[:n])


@dataclass(frozen=True)
class VandermondeSpec:
    """Generator description: n rows [1, a, a^2, ..., a^(k-1)] over GF(256)."""

    k: int
    n: int
    points: tuple[int, ...]
    systematic: bool = False

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise ValueError(f"need n >= k >= 1, got k={self.k} n={self.n}")
        if self.n > MAX_ROWS:
            raise ValueError(f"n={self.n} exceeds the {MAX_ROWS} nonzero points of GF(256)")
        if len(self.points) != self.n:
            raise ValueError("one evaluation point per row required")
        if len(set(self.points)) != self.n:
            raise ValueError("evaluation points must be distinct")
        if any(not 0 < a <= MAX_ROWS for a in self.points):
            raise ValueError("evaluation points must be nonzero field elements")

    @classmethod
    @lru_cache(maxsize=64)
    def default(cls, k: int, n: int, systematic: bool = False) -> "VandermondeSpec":
        """The spec on the first n points, built and validated once per
        argument tuple: every session client of an RS stream asks for it."""
        return cls(k=k, n=n, points=default_points(n), systematic=systematic)


def vandermonde_row(vspec: VandermondeSpec, index: int) -> list[int]:
    gf = field(GF256)
    a = vspec.points[index]
    return [gf.pow(a, e) for e in range(vspec.k)]


@lru_cache(maxsize=64)
def _systematic_transform(vspec: VandermondeSpec) -> tuple[tuple[int, ...], ...]:
    head = FieldMatrix.from_rows(
        GF256, [vandermonde_row(vspec, j) for j in range(vspec.k)]
    )
    return tuple(tuple(r) for r in invert(head).to_rows())


def coding_row(vspec: VandermondeSpec, index: int) -> list[int]:
    """Coefficient vector of coded packet `index`."""
    if not 0 <= index < vspec.n:
        raise ValueError(f"row index {index} outside 0..{vspec.n - 1}")
    row = vandermonde_row(vspec, index)
    if not vspec.systematic:
        return row
    gf = field(GF256)
    t = _systematic_transform(vspec)
    out = [0] * vspec.k
    for j, v in enumerate(row):
        if v:
            trow = t[j]
            for i in range(vspec.k):
                if trow[i]:
                    out[i] ^= gf.mul(v, trow[i])
    return out


def rs_encode(block: InputBlock, vspec: VandermondeSpec) -> list[CodedPacket]:
    if block.k != vspec.k:
        raise ValueError(f"block has k={block.k}, spec expects {vspec.k}")
    return [
        CodedPacket(
            SchemeId.RS,
            vspec.k,
            block.packet_len,
            RowIndex(j, vspec.systematic),
            linear_combine(block.packets, coding_row(vspec, j), GF256),
        )
        for j in range(vspec.n)
    ]


def _row_index(vspec: VandermondeSpec, packet: CodedPacket) -> int:
    """The packet's row index: a row-index header of the spec's generator
    (plain or systematic) inside its n rows, or an error."""
    h = packet.header
    if not isinstance(h, RowIndex):
        raise SchemeMismatchError(
            f"RS packets carry row-index headers, got {type(h).__name__}"
        )
    if h.systematic != vspec.systematic:
        raise SchemeMismatchError(
            f"packet is a row of the {'systematic' if h.systematic else 'plain'} "
            f"generator, decoder expects the other"
        )
    if not 0 <= h.index < vspec.n:
        raise PacketFormatError(f"row index {h.index} outside 0..{vspec.n - 1}")
    return h.index


def rs_decode(
    packets: Sequence[CodedPacket],
    vspec: VandermondeSpec,
    counter: Optional[OpCounter] = None,
) -> InputBlock:
    """Exact recovery from any k packets with distinct row indices.

    Every packet must be an RS packet with the spec's k, the first
    packet's B and a row-index header that `_row_index` accepts; anything
    else raises rather than decoding to a wrong block.
    """
    for p in packets:
        check_packet(p, vspec.k, packets[0].packet_len, SchemeId.RS)
        _row_index(vspec, p)
    seen: set[int] = set()
    chosen: list[CodedPacket] = []
    for p in packets:
        idx = p.header.index
        if idx in seen:
            raise DuplicatePacketError(f"row index {idx} received twice")
        seen.add(idx)
        chosen.append(p)
        if len(chosen) == vspec.k:
            break
    if len(chosen) < vspec.k:
        raise InsufficientPacketsError(
            f"need {vspec.k} distinct packets, have {len(chosen)}"
        )
    m = FieldMatrix.from_rows(
        GF256, [coding_row(vspec, p.header.index) for p in chosen]
    )
    xs = solve(m, [p.payload for p in chosen], counter)
    return InputBlock(tuple(xs))


def make_decoder(vspec: VandermondeSpec, packet_len: int) -> LinearDecoder:
    """Incremental decoder; innovation is rank-checked."""
    return LinearDecoder(
        GF256,
        vspec.k,
        packet_len,
        SchemeId.RS,
        lambda p: coding_row(vspec, _row_index(vspec, p)),
    )
