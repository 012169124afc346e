"""Triangular codes: shift-then-XOR encoding, bit-level back-substitution.

A participant packet is multiplied by 2^shift (its bits move `shift`
positions toward the tail-zero end, i.e. an integer left shift with the
payload read big-endian) and the shifted bitstreams are XORed with tails
aligned.  Heads are zero-padded out to a common length of 8B + max(shift)
bits, so the wire payload is B bytes plus ceil(max_shift / 8) pad bytes.

Decoding makes each bit of each input an unknown and each coded bit one
XOR equation over the input bits its shifts align there, then peels that
system with `lt.Peeler` and 1-bit rows: solve an equation with a single
unknown bit and substitute the bit everywhere it appears.  No field
multiplication, no matrix inversion: the operation counters of a
successful decode show zeros there.  Plain input packets and classic XOR
packets take part as shift-0 packets, so a client can combine what it
already holds with shifted retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    SchemeId,
    SeedDegree,
    ShiftList,
    check_packet,
    packet_support,
)
from .errors import SchemeMismatchError
from .linalg import OpCounter
from .lt import Peeler
from .prng import SplitMix64


@dataclass(frozen=True)
class ShiftVector:
    """Participants of one coded packet and their tail-zero counts."""

    participants: tuple[int, ...]
    shifts: tuple[int, ...]

    def __post_init__(self):
        if not self.participants:
            raise ValueError("at least one participant required")
        if len(self.participants) != len(self.shifts):
            raise ValueError("one shift per participant required")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("participants must be distinct")
        if any(s < 0 for s in self.shifts):
            raise ValueError("shifts cannot be negative")

    @property
    def max_shift(self) -> int:
        return max(self.shifts)

    def to_header(self, k: int) -> ShiftList:
        slots: list[Optional[int]] = [None] * k
        for i, s in zip(self.participants, self.shifts):
            if not 0 <= i < k:
                raise ValueError(f"participant {i} outside block of {k}")
            slots[i] = s
        return ShiftList(tuple(slots))

    @classmethod
    def from_header(cls, header: ShiftList) -> "ShiftVector":
        pairs = [(i, s) for i, s in enumerate(header.slots) if s is not None]
        return cls(tuple(i for i, _ in pairs), tuple(s for _, s in pairs))


def tri_encode(block: InputBlock, sv: ShiftVector) -> CodedPacket:
    """XOR of the participants' bitstreams, each shifted by 2^shift."""
    if sv.max_shift > block.k - 1:
        raise ValueError(
            f"shift {sv.max_shift} exceeds the cap k-1 = {block.k - 1}"
        )
    acc = 0
    for i, s in zip(sv.participants, sv.shifts):
        if not 0 <= i < block.k:
            raise ValueError(f"participant {i} outside block of {block.k}")
        acc ^= int.from_bytes(block.packets[i], "big") << s
    pad_bytes = (sv.max_shift + 7) // 8
    payload = acc.to_bytes(block.packet_len + pad_bytes, "big")
    return CodedPacket(
        SchemeId.TRIANGULAR,
        block.k,
        block.packet_len,
        sv.to_header(block.k),
        payload,
    )


def _shifts_of(packet: CodedPacket) -> list[tuple[int, int]]:
    """(participant, shift) pairs of a packet: native shift lists, or any
    binary-linear header treated as an all-shift-0 packet.  An all-zero
    coefficient vector has no pairs, and every bit equation it gives has
    no unknowns: the engine counts them redundant, as `PeelingDecoder`
    counts the packet."""
    h = packet.header
    if isinstance(h, ShiftList):
        sv = ShiftVector.from_header(h)
        return list(zip(sv.participants, sv.shifts))
    if isinstance(h, (CoefficientVector, SeedDegree)):
        return [(i, 0) for i in packet_support(packet)]
    raise SchemeMismatchError(
        f"{type(h).__name__} packets cannot join a bit-substitution decode"
    )


@dataclass
class BitStallReport:
    """Bits the substitution pass could not isolate."""

    unresolved_bits: int
    unresolved_inputs: tuple[int, ...]
    decoded_bits: int


@dataclass
class TriResult:
    block: Optional[InputBlock]
    stall: Optional[BitStallReport]
    counter: OpCounter

    @property
    def success(self) -> bool:
        return self.block is not None


class BitSubstitutionDecoder:
    """Equation system over the individual payload bits, peeled by
    `lt.Peeler` with 1-bit rows.

    Unknown i·8B + s is bit s (counted from the tail) of input packet i;
    every coded bit is one equation: the XOR of its unknowns equals it.
    """

    # LT and GF(2) random linear packets join as shift-0 packets.
    schemes = (SchemeId.TRIANGULAR, SchemeId.LT, SchemeId.RL)

    def __init__(self, k: int, packet_len: int):
        self.k = k
        self.packet_len = packet_len
        self.bits_per_packet = packet_len * 8
        self.counter = OpCounter()
        self.status = DecodeStatus.NEEDS_MORE
        self.packets_seen = 0
        self._peeler = Peeler(k * self.bits_per_packet, 1, self.counter)

    @property
    def decoded_bits(self) -> int:
        return len(self._peeler.value) - self._peeler.unresolved

    @property
    def decoded_count(self) -> int:
        """Inputs with every bit resolved."""
        return self.k - len(self.stall_report().unresolved_inputs)

    def ingest(self, packet: CodedPacket) -> DecodeStatus:
        check_packet(packet, self.k, self.packet_len, *self.schemes)
        pairs = _shifts_of(packet)
        self.packets_seen += 1
        if self.status is not DecodeStatus.NEEDS_MORE:
            return self.status
        nbits = self.bits_per_packet
        value = int.from_bytes(packet.payload, "big")
        # Coded bit t holds bit t - s of each participant whose shift s
        # places that bit inside it: unknown base + t with base = i·8B - s.
        spans = [(i * nbits - s, s, s + nbits) for i, s in pairs]
        add = self._peeler.add
        for t in range(nbits + max((s for _, s in pairs), default=0)):
            add([base + t for base, lo, hi in spans if lo <= t < hi], (value >> t) & 1)
        if not self._peeler.unresolved:
            self.status = DecodeStatus.DECODABLE
        return self.status

    def decode(self) -> InputBlock:
        if self.status is DecodeStatus.NEEDS_MORE:
            raise RuntimeError("bit system still has unknowns")
        nbits, bits = self.bits_per_packet, self._peeler.value
        out = []
        for i in range(self.k):
            acc = 0
            base = i * nbits
            for s in range(nbits):
                if bits[base + s]:
                    acc |= 1 << s
            out.append(acc.to_bytes(self.packet_len, "big"))
        self.status = DecodeStatus.DECODED
        return InputBlock(tuple(out))

    def stall_report(self) -> BitStallReport:
        nbits = self.bits_per_packet
        pending_inputs = sorted(
            {uid // nbits for uid, v in enumerate(self._peeler.value) if v is None}
        )
        return BitStallReport(
            unresolved_bits=self._peeler.unresolved,
            unresolved_inputs=tuple(pending_inputs),
            decoded_bits=self.decoded_bits,
        )


def tri_decode(
    packets: Sequence[CodedPacket], k: int, packet_len: int
) -> TriResult:
    """Bit-by-bit back substitution over a mixed packet set."""
    dec = BitSubstitutionDecoder(k, packet_len)
    for p in packets:
        dec.ingest(p)
    if dec.status is not DecodeStatus.NEEDS_MORE:
        return TriResult(dec.decode(), None, dec.counter)
    return TriResult(None, dec.stall_report(), dec.counter)


def planned_shift_stream(k: int, seed: int):
    """Endless planned shift vectors: every input participates and the
    shifts within a packet are a fresh random permutation of 0..k-1,
    which builds the head-bit staircase that seeds the substitution."""
    rng = SplitMix64(seed)
    participants = tuple(range(k))
    while True:
        shifts = list(range(k))
        rng.shuffle(shifts)
        yield ShiftVector(participants, tuple(shifts))


def tri_plan_shifts(k: int, count: int, seed: int) -> list[ShiftVector]:
    """The first `count` vectors of the planned stream."""
    if count < 1:
        raise ValueError("need at least one shift vector")
    stream = planned_shift_stream(k, seed)
    return [next(stream) for _ in range(count)]
