"""Shared packet model and decoder contract used by all five codecs.

A coded packet is a payload plus a header from which the coding vector
can be rebuilt knowing only (scheme, k); decodability never depends on
hidden encoder state.  Four header shapes cover the schemes: an explicit
coefficient vector, a (seed, degree) pair that deterministically
regenerates a neighbor set, a generator-matrix row index, and a per-input
bit-shift list for the triangular scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Optional, Sequence

from .errors import SchemeMismatchError
from .gf import FieldSpec, field
from .linalg import FieldMatrix, OpCounter, back_substitute, mul_int, scale_bytes
from .prng import SplitMix64


class SchemeId(IntEnum):
    RS = 1
    RL = 2
    LT = 3
    RAPTOR = 4
    TRIANGULAR = 5


class HeaderKind(IntEnum):
    COEFFICIENTS = 0
    SEED_DEGREE = 1
    ROW_INDEX = 2
    SHIFT_LIST = 3


@dataclass(frozen=True)
class CoefficientVector:
    """Explicit coding vector; one symbol per input packet."""

    coefficients: tuple[int, ...]

    kind = HeaderKind.COEFFICIENTS


@dataclass(frozen=True)
class SeedDegree:
    """LT header: the packet PRNG seed and the sampled degree."""

    seed: int
    degree: int

    kind = HeaderKind.SEED_DEGREE


@dataclass(frozen=True)
class RaptorSeed:
    """LT header extended with the precode parameters the decoder needs."""

    seed: int
    degree: int
    precode_seed: int
    redundant_count: int
    row_weight: int

    kind = HeaderKind.SEED_DEGREE


@dataclass(frozen=True)
class RowIndex:
    """Generator-matrix row index (fixed-rate schemes)."""

    index: int

    kind = HeaderKind.ROW_INDEX


@dataclass(frozen=True)
class ShiftList:
    """Per-input bit shifts; None marks inputs absent from the packet."""

    slots: tuple[Optional[int], ...]

    kind = HeaderKind.SHIFT_LIST

    @property
    def max_shift(self) -> int:
        return max(s for s in self.slots if s is not None)


Header = CoefficientVector | SeedDegree | RaptorSeed | RowIndex | ShiftList


@dataclass(frozen=True)
class CodedPacket:
    scheme: SchemeId
    k: int
    packet_len: int
    header: Header
    payload: bytes


@dataclass(frozen=True)
class InputBlock:
    """k source packets of equal byte length."""

    packets: tuple[bytes, ...]

    def __post_init__(self):
        if not self.packets:
            raise ValueError("block needs at least one packet")
        b = len(self.packets[0])
        if b < 1:
            raise ValueError("packet length must be at least 1 byte")
        if any(len(p) != b for p in self.packets):
            raise ValueError("all packets must have equal length")

    @property
    def k(self) -> int:
        return len(self.packets)

    @property
    def packet_len(self) -> int:
        return len(self.packets[0])


def linear_combine(
    packets: Sequence[bytes], coefficients: Sequence[int], spec: FieldSpec
) -> bytes:
    """Coded payload: the coefficient vector applied to the packet rows."""
    if len(packets) != len(coefficients):
        raise ValueError("one coefficient per packet required")
    gf = field(spec)
    acc = 0
    for c, p in zip(coefficients, packets):
        if c:
            acc ^= mul_int(gf, c, p)
    return acc.to_bytes(len(packets[0]), "big")


def regenerate_neighbors(seed: int, degree: int, n: int) -> list[int]:
    """Neighbor set encoded by a SeedDegree header: `degree` distinct
    indices from [0, n), drawn from splitmix64(seed) with duplicate
    rejection."""
    return SplitMix64(seed).sample_distinct(n, degree)


class DecodeStatus(IntEnum):
    NEEDS_MORE = 0
    DECODABLE = 1
    DECODED = 2


class LinearDecoder:
    """Rank-tracking decoder for the linear schemes.

    Incoming coding vectors are reduced against the accepted echelon
    basis; packets that do not increase rank are counted and dropped,
    so the stored set is exactly the innovative packets.  Once rank
    reaches k the status turns DECODABLE and `decode()` back-substitutes
    the (upper-triangular) basis.
    """

    def __init__(
        self,
        spec: FieldSpec,
        k: int,
        packet_len: int,
        scheme: SchemeId,
        coefficients_of: Callable[[CodedPacket], Sequence[int]],
    ):
        self.spec = spec
        self.k = k
        self.packet_len = packet_len
        self.scheme = scheme
        self._coefficients_of = coefficients_of
        self.counter = OpCounter()
        self.status = DecodeStatus.NEEDS_MORE
        self.non_innovative_count = 0
        self.accepted_count = 0
        self._block: Optional[InputBlock] = None
        self._gf = field(spec)
        # basis[i] exists when pivot column i is covered; GF(2) rows are
        # bit-packed ints with payloads as big ints, GF(256) rows are
        # coefficient bytes with byte payloads.
        self._rows: list = [None] * k
        self._pays: list = [None] * k

    @property
    def rank(self) -> int:
        return self.accepted_count

    def ingest(self, packet: CodedPacket) -> DecodeStatus:
        if packet.scheme != self.scheme:
            raise SchemeMismatchError(
                f"decoder expects {self.scheme.name}, got {packet.scheme.name}"
            )
        if packet.k != self.k:
            raise SchemeMismatchError(
                f"decoder expects k={self.k}, packet has k={packet.k}"
            )
        if packet.packet_len != self.packet_len or len(packet.payload) != self.packet_len:
            raise SchemeMismatchError(
                f"decoder expects B={self.packet_len}, packet has B={packet.packet_len} "
                f"and a {len(packet.payload)}-byte payload"
            )
        if self.status is DecodeStatus.DECODED:
            self.non_innovative_count += 1
            return self.status
        coeffs = list(self._coefficients_of(packet))
        if len(coeffs) != self.k:
            raise ValueError("coding vector length must equal k")
        if self.spec.m == 1:
            innovative = self._reduce_gf2(coeffs, packet.payload)
        else:
            innovative = self._reduce_gfq(coeffs, packet.payload)
        if innovative:
            self.accepted_count += 1
            if self.accepted_count == self.k:
                self.status = DecodeStatus.DECODABLE
        else:
            self.non_innovative_count += 1
        return self.status

    def _reduce_gf2(self, coeffs, payload) -> bool:
        row = 0
        for j, c in enumerate(coeffs):
            if c:
                row |= 1 << j
        pay = int.from_bytes(payload, "big")
        while row:
            lead = (row & -row).bit_length() - 1
            if self._rows[lead] is None:
                self._rows[lead] = row
                self._pays[lead] = pay
                return True
            row ^= self._rows[lead]
            pay ^= self._pays[lead]
            self.counter.row_xor_count += 1
        return False

    def _reduce_gfq(self, coeffs, payload) -> bool:
        # Coefficient rows are bytes and the working payload is one int,
        # so each step is two `mul_int` calls and two XORs.
        gf = self._gf
        k, plen = self.k, self.packet_len
        row = bytes(coeffs)
        pay = int.from_bytes(payload, "big")
        for lead in range(k):
            c = row[lead]
            if not c:
                continue
            brow = self._rows[lead]
            if brow is None:
                pay_bytes = pay.to_bytes(plen, "big")
                if c != 1:
                    inv = gf.inv(c)
                    row = scale_bytes(gf, inv, row)
                    pay_bytes = scale_bytes(gf, inv, pay_bytes)
                    self.counter.row_scale_count += 1
                    self.counter.symbol_mul_count += k - row.count(0) + plen
                self._rows[lead] = row
                self._pays[lead] = pay_bytes
                return True
            if c != 1:
                self.counter.symbol_mul_count += k - brow.count(0) + plen
            row = (int.from_bytes(row, "big") ^ mul_int(gf, c, brow)).to_bytes(k, "big")
            pay ^= mul_int(gf, c, self._pays[lead])
            self.counter.row_xor_count += 1
        return False

    def decode(self) -> InputBlock:
        if self._block is not None:
            return self._block
        if self.status is not DecodeStatus.DECODABLE:
            raise RuntimeError(
                f"need k={self.k} innovative packets, have {self.accepted_count}"
            )
        if self.spec.m == 1:
            u = FieldMatrix(self.spec, self.k, self.k, _bits=list(self._rows))
            rhs = [p.to_bytes(self.packet_len, "big") for p in self._pays]
        else:
            u = FieldMatrix.from_rows(self.spec, self._rows)
            rhs = list(self._pays)
        xs = back_substitute(u, rhs, self.counter)
        self._block = InputBlock(tuple(xs))
        self.status = DecodeStatus.DECODED
        return self._block

    @property
    def decoded_block(self) -> Optional[InputBlock]:
        return self._block


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite graph between input and coded packets; edges mark the
    nonzero coefficient positions."""

    input_count: int
    coded_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def degrees(self) -> list[int]:
        out = [0] * self.coded_count
        for coded, _ in self.edges:
            out[coded] += 1
        return out

    @property
    def is_regular(self) -> bool:
        degs = self.degrees
        return len(set(degs)) <= 1


def packet_support(packet: CodedPacket, n: Optional[int] = None) -> list[int]:
    """Input indices with nonzero GF(2) coefficients, for graph export.

    `n` overrides the input count for headers that regenerate neighbor
    sets (the raptor LT stage runs over k + redundant packets).
    """
    h = packet.header
    if isinstance(h, CoefficientVector):
        if any(c > 1 for c in h.coefficients):
            raise SchemeMismatchError("non-binary coefficients have no Tanner graph")
        return [j for j, c in enumerate(h.coefficients) if c]
    if isinstance(h, RaptorSeed):
        total = n if n is not None else packet.k + h.redundant_count
        return sorted(regenerate_neighbors(h.seed, h.degree, total))
    if isinstance(h, SeedDegree):
        total = n if n is not None else packet.k
        return sorted(regenerate_neighbors(h.seed, h.degree, total))
    raise SchemeMismatchError(
        f"{packet.scheme.name} packets are not binary linear codes"
    )


def tanner_graph(packets: Iterable[CodedPacket], k: int) -> TannerGraph:
    edges = []
    count = 0
    for idx, p in enumerate(packets):
        count += 1
        for j in packet_support(p, k):
            edges.append((idx, j))
    return TannerGraph(input_count=k, coded_count=count, edges=tuple(edges))
