"""Shared packet model and decoder contract used by all five codecs.

A coded packet is a payload plus a header from which the coding vector
can be rebuilt knowing only (scheme, k); decodability never depends on
hidden encoder state.  Four header shapes cover the schemes: an explicit
coefficient vector, a (seed, degree) pair that deterministically
regenerates a neighbor set, a generator-matrix row index, and a per-input
bit-shift list for the triangular scheme.

Every decoder is a `Decoder`, which owns the contract:

- Refusal is atomic: `ingest` checks scheme, k and B (`check_packet`),
  then the header (the decoder's `_check`, which draws no neighbour set),
  before it changes any state.
- `packets_seen` counts every packet taken, and `late` those taken after
  DECODABLE, which do no work.
- `contradictions` counts equations left with no unknown but a non-zero
  payload: packets that disagree with earlier ones, as in a spliced or
  corrupted stream.  `LinearDecoder` and `lt.Peeler` (LT, raptor's
  peeling) count them; the triangular bit decoder and raptor's core
  solve do not yet, so 0 proves nothing there.
- `decode()` before DECODABLE raises RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import PacketFormatError, SchemeMismatchError
from .gf import GF2, GF256, FieldSpec, field
from .linalg import FieldMatrix, OpCounter, back_substitute, mul_int, row_ops
from .prng import SplitMix64


class SchemeId(IntEnum):
    RS = 1
    RL = 2
    LT = 3
    RAPTOR = 4
    TRIANGULAR = 5


class HeaderKind(IntEnum):
    """Wire kind of a header.  For the linear schemes the kind also names
    the code: the coefficient field of an RL packet, and whether an RS row
    index points into the plain or the systematic generator."""

    GF2_COEFFICIENTS = 0
    SEED_DEGREE = 1
    ROW_INDEX = 2
    SHIFT_LIST = 3
    GF256_COEFFICIENTS = 4
    SYSTEMATIC_ROW_INDEX = 5


class _Header:
    """Defaults shared by the header shapes: no stream parameters beyond
    the kind, and a payload of exactly B bytes."""

    stream_params: tuple = ()
    pad_bytes = 0


@dataclass(frozen=True)
class CoefficientVector(_Header):
    """Explicit coding vector over GF(2) or GF(256); one symbol per input
    packet.  Without a `spec` the field is the smaller of the two that
    holds every coefficient."""

    coefficients: tuple[int, ...]
    spec: Optional[FieldSpec] = None

    def __post_init__(self):
        if self.spec is None:
            binary = all(c <= 1 for c in self.coefficients)
            object.__setattr__(self, "spec", GF2 if binary else GF256)
        elif self.spec not in (GF2, GF256):
            raise ValueError("coefficient vectors are over GF(2) or GF(256)")

    @property
    def kind(self) -> HeaderKind:
        if self.spec.m == 1:
            return HeaderKind.GF2_COEFFICIENTS
        return HeaderKind.GF256_COEFFICIENTS


@dataclass(frozen=True)
class SeedDegree(_Header):
    """LT header: the packet PRNG seed and the sampled degree."""

    seed: int
    degree: int

    kind = HeaderKind.SEED_DEGREE


@dataclass(frozen=True)
class RaptorSeed(_Header):
    """LT header extended with the precode parameters the decoder needs."""

    seed: int
    degree: int
    precode_seed: int
    redundant_count: int
    row_weight: int

    kind = HeaderKind.SEED_DEGREE

    @property
    def stream_params(self) -> tuple:
        return (
            ("precode_seed", self.precode_seed),
            ("redundant_count", self.redundant_count),
            ("row_weight", self.row_weight),
        )


@dataclass(frozen=True)
class RowIndex(_Header):
    """Generator-matrix row index (fixed-rate schemes), into the
    systematic generator when `systematic` is set."""

    index: int
    systematic: bool = False

    @property
    def kind(self) -> HeaderKind:
        if self.systematic:
            return HeaderKind.SYSTEMATIC_ROW_INDEX
        return HeaderKind.ROW_INDEX


@dataclass(frozen=True)
class ShiftList(_Header):
    """Per-input bit shifts; None marks inputs absent from the packet."""

    slots: tuple[Optional[int], ...]

    kind = HeaderKind.SHIFT_LIST

    @property
    def max_shift(self) -> int:
        return max(s for s in self.slots if s is not None)

    @property
    def pad_bytes(self) -> int:
        """Bytes the payload carries beyond B: the shifted tails."""
        return (self.max_shift + 7) // 8


Header = CoefficientVector | SeedDegree | RaptorSeed | RowIndex | ShiftList


class StreamContext(NamedTuple):
    """What every frame of one stream shares: scheme, k, B, the header
    kind and the header's stream parameters as (name, value) pairs."""

    scheme: SchemeId
    k: int
    packet_len: int
    kind: HeaderKind
    params: tuple

    def __str__(self) -> str:
        params = "".join(f", {name}={value}" for name, value in self.params)
        return (
            f"{self.scheme.name} with k={self.k}, B={self.packet_len}, "
            f"{self.kind.name} header{params}"
        )


@dataclass(frozen=True)
class CodedPacket:
    scheme: SchemeId
    k: int
    packet_len: int
    header: Header
    payload: bytes

    @property
    def context(self) -> StreamContext:
        h = self.header
        return StreamContext(self.scheme, self.k, self.packet_len, h.kind, h.stream_params)


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


# The last draw, (seed, degree, n, neighbors), replaced in one
# assignment.  In process, the decoders fed a packet right after it was
# encoded (a session's clients, the decoder of `lt_overhead_trial`) reuse
# the encoder's draw; a decoder of parsed frames misses and draws anew.
_last_draw: tuple = (None, None, None, ())


def regenerate_neighbors(seed: int, degree: int, n: int) -> list[int]:
    """Neighbor set encoded by a SeedDegree header: `degree` distinct
    indices from [0, n), drawn from splitmix64(seed) with duplicate
    rejection.  Each call returns a fresh list."""
    global _last_draw
    last = _last_draw
    if last[0] == seed and last[1] == degree and last[2] == n:
        return list(last[3])
    neighbors = SplitMix64(seed).sample_distinct(n, degree)
    _last_draw = (seed, degree, n, tuple(neighbors))
    return neighbors


def check_packet(
    packet: CodedPacket, k: int, packet_len: int, *schemes: SchemeId
) -> None:
    """Raise SchemeMismatchError unless the packet has one of `schemes`,
    this k, and B = `packet_len` in its header and, beyond the header's pad
    bytes, in its payload."""
    if packet.scheme not in schemes:
        expected = " or ".join(s.name for s in schemes)
        raise SchemeMismatchError(
            f"decoder expects {expected}, got {packet.scheme.name}"
        )
    if packet.k != k:
        raise SchemeMismatchError(f"decoder expects k={k}, packet has k={packet.k}")
    if (
        packet.packet_len != packet_len
        or len(packet.payload) != packet_len + packet.header.pad_bytes
    ):
        raise SchemeMismatchError(
            f"decoder expects B={packet_len}, packet has B={packet.packet_len} "
            f"and a {len(packet.payload)}-byte payload"
        )


class DecodeStatus(IntEnum):
    NEEDS_MORE = 0
    DECODABLE = 1
    DECODED = 2


class Decoder:
    """Base of every decoder: the contract above, written once.  A
    subclass names the schemes it takes in `schemes` and supplies:

    - `_check(packet)`, which raises SchemeMismatchError or
      PacketFormatError for a header it cannot take, changes no state,
      draws no neighbour set and returns what `_add` is passed;
    - `_add(packet, checked)`, which takes a packet before the block is
      determined and returns whether it is now;
    - `_solve()`, which returns the determined block.
    """

    schemes: tuple[SchemeId, ...] = ()

    def __init__(self, k: int, packet_len: int):
        self.k = k
        self.packet_len = packet_len
        self.counter = OpCounter()
        self.status = DecodeStatus.NEEDS_MORE
        self.packets_seen = 0
        self.late = 0
        self.contradictions = 0

    def ingest(self, packet: CodedPacket) -> DecodeStatus:
        check_packet(packet, self.k, self.packet_len, *self.schemes)
        checked = self._check(packet)
        self.packets_seen += 1
        if self.status is not DecodeStatus.NEEDS_MORE:
            # A late packet: checked and counted, but no work.
            self.late += 1
        elif self._add(packet, checked):
            self.status = DecodeStatus.DECODABLE
        return self.status

    def decode(self) -> InputBlock:
        """The decoded block.  Before DECODABLE this raises RuntimeError,
        since the packets taken do not determine the block yet."""
        if self.status is DecodeStatus.NEEDS_MORE:
            raise RuntimeError("the packets taken do not determine the block yet")
        self.status = DecodeStatus.DECODED
        return self._solve()


class LinearDecoder(Decoder):
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
        super().__init__(k, packet_len)
        self.spec = spec
        self.schemes = (scheme,)
        self._coefficients_of = coefficients_of
        self.accepted_count = 0
        self._block: Optional[InputBlock] = None
        self._gf = field(spec)
        self._ops = row_ops(spec)
        # basis[i] exists when pivot column i is covered: (row in the
        # field's row format with leading symbol 1, payload bytes for
        # `mul_int`, payload int for coefficient 1, symbols multiplied
        # when a multiple other than 1 of it is applied).
        self._basis: list = [None] * k

    @property
    def rank(self) -> int:
        return self.accepted_count

    @property
    def non_innovative_count(self) -> int:
        """Packets taken that did not raise the rank, late ones included."""
        return self.packets_seen - self.accepted_count

    def _check(self, packet: CodedPacket) -> list[int]:
        coeffs = list(self._coefficients_of(packet))
        if len(coeffs) != self.k:
            raise PacketFormatError(f"coding vector of {len(coeffs)} entries, k={self.k}")
        if not 0 <= min(coeffs) <= max(coeffs) < self.spec.order:
            raise SchemeMismatchError(
                f"coefficients outside GF({self.spec.order}) in a {packet.scheme.name} packet"
            )
        return coeffs

    def _add(self, packet: CodedPacket, coeffs: list[int]) -> bool:
        if self._reduce(self._ops.pack(coeffs), packet.payload):
            self.accepted_count += 1
        return self.accepted_count == self.k

    def _reduce(self, row, payload: bytes) -> bool:
        """Reduce one row against the basis; store it if innovative.

        Each step is one `addmul` on the coefficient row; the working
        payload is one int, combined by one XOR (coefficient 1) or one
        `mul_int` and XOR (any other coefficient).  A row that reduces to
        zero with a non-zero payload is a contradiction.
        """
        ops, gf, counter, basis = self._ops, self._gf, self.counter, self._basis
        lead, addmul, plen = ops.lead, ops.addmul, self.packet_len
        pay = int.from_bytes(payload, "big")
        col, c = lead(row)
        while col >= 0:
            entry = basis[col]
            if entry is None:
                cost = ops.weight(row) + plen
                if c != 1:
                    inv = gf.inv(c)
                    row = ops.scale(row, inv)
                    pay = mul_int(gf, inv, pay.to_bytes(plen, "big"))
                    counter.row_scale_count += 1
                    counter.symbol_mul_count += cost
                basis[col] = (row, pay.to_bytes(plen, "big"), pay, cost)
                return True
            brow, bpay, bpay_int, cost = entry
            if c == 1:
                pay ^= bpay_int
            else:
                counter.symbol_mul_count += cost
                pay ^= mul_int(gf, c, bpay)
            row = addmul(row, c, brow)
            counter.row_xor_count += 1
            col, c = lead(row)
        if pay:
            self.contradictions += 1
        return False

    def _solve(self) -> InputBlock:
        if self._block is None:
            u = FieldMatrix(self.spec, self.k, [e[0] for e in self._basis])
            xs = back_substitute(u, [e[1] for e in self._basis], self.counter)
            self._block = InputBlock(tuple(xs))
        return self._block


@dataclass
class DecodeResult:
    """What `decode_all` returns: the block, or else the decoder's stall
    report, and the decoder's operation counter."""

    block: Optional[InputBlock]
    stall: object
    counter: OpCounter

    @property
    def success(self) -> bool:
        return self.block is not None


def decode_all(decoder: Decoder, packets: Sequence[CodedPacket]) -> DecodeResult:
    """Feed every packet to `decoder`, late ones included.  A decoder that
    does not reach DECODABLE must have a `stall_report`."""
    for p in packets:
        decoder.ingest(p)
    if decoder.status is DecodeStatus.NEEDS_MORE:
        return DecodeResult(None, decoder.stall_report(), decoder.counter)
    return DecodeResult(decoder.decode(), None, decoder.counter)


def check_binary_header(packet: CodedPacket, n: Optional[int] = None) -> Optional[int]:
    """The checks of `packet_support` that draw no neighbours: binary
    coefficients, one per input, or a degree inside 1..n.  Returns n for a
    seeded header (None for a coefficient vector), which `support_of`
    takes, so a decoder checks each header once and draws a neighbour set
    only for a packet it peels."""
    h = packet.header
    if isinstance(h, CoefficientVector):
        if len(h.coefficients) != packet.k:
            raise PacketFormatError(
                f"coefficient vector of {len(h.coefficients)} entries, k={packet.k}"
            )
        if any(c > 1 for c in h.coefficients):
            raise SchemeMismatchError("non-binary coefficients in a binary decoder")
        return None
    if isinstance(h, (RaptorSeed, SeedDegree)):
        if n is None:
            n = packet.k + (h.redundant_count if isinstance(h, RaptorSeed) else 0)
        if not 1 <= h.degree <= n:
            raise PacketFormatError(f"degree {h.degree} outside 1..{n}")
        return n
    raise SchemeMismatchError(
        f"{packet.scheme.name} packets are not binary linear codes"
    )


def support_of(packet: CodedPacket, n: Optional[int]) -> list[int]:
    """Input indices with nonzero GF(2) coefficients of a packet whose
    header `check_binary_header` passed, given the n it returned."""
    h = packet.header
    if n is None:
        return [j for j, c in enumerate(h.coefficients) if c]
    return sorted(regenerate_neighbors(h.seed, h.degree, n))


def packet_support(packet: CodedPacket, n: Optional[int] = None) -> list[int]:
    """Input indices with nonzero GF(2) coefficients.

    `n` overrides the input count for headers that regenerate neighbor
    sets (the raptor LT stage runs over k + redundant packets).  A degree
    outside 1..n is a malformed header and raises PacketFormatError.
    """
    return support_of(packet, check_binary_header(packet, n))
