"""Triangular codes: shift-then-XOR encoding, bit-level back-substitution.

A participant packet is multiplied by 2^shift (its bits move `shift`
positions toward the tail-zero end, i.e. an integer left shift with the
payload read big-endian) and the shifted bitstreams are XORed with tails
aligned.  Heads are zero-padded out to a common length of 8B + max(shift)
bits, so the wire payload is B bytes plus ceil(max_shift / 8) pad bytes.

Decoding makes each bit of each input an unknown and each coded bit one
XOR equation over the input bits its shifts align there, then peels that
system: solve an equation with a single unknown bit and substitute the
bit everywhere it appears.  The shifts fix where a bit appears (once in
each packet holding its input), so the peeling engine keeps no incidence
lists and no per-equation lists, only one int per equation, and it peels
in the order `lt.Peeler` would.  No field multiplication, no matrix
inversion: the operation counters of a successful decode show zeros
there.  Plain input packets and classic XOR packets take part as shift-0
packets, so a client can combine what it already holds with shifted
retransmissions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    CoefficientVector,
    DecodeResult,
    Decoder,
    InputBlock,
    SchemeId,
    SeedDegree,
    ShiftList,
    check_binary_header,
    decode_all,
    support_of,
)
from .errors import PacketFormatError, SchemeMismatchError
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


def _check_header(packet: CodedPacket) -> Optional[int]:
    """Raise unless the header is a shift list of k slots or a
    binary-linear header; draws no LT neighbour set.  Returns what
    `_pairs` takes: `check_binary_header`'s n, None for a shift list."""
    h = packet.header
    if isinstance(h, ShiftList):
        if len(h.slots) != packet.k:
            raise PacketFormatError(
                f"shift list has {len(h.slots)} slots, expected k={packet.k}"
            )
        ShiftVector.from_header(h)
        return None
    if isinstance(h, (CoefficientVector, SeedDegree)):
        return check_binary_header(packet)
    raise SchemeMismatchError(
        f"{type(h).__name__} packets cannot join a bit-substitution decode"
    )


def _pairs(packet: CodedPacket, n: Optional[int]) -> list[tuple[int, int]]:
    """(participant, shift) pairs of a packet `_check_header` passed,
    given the n it returned: native shift lists, or any binary-linear
    header treated as an all-shift-0 packet.  An all-zero coefficient
    vector has no pairs, and every bit equation it gives has no unknowns:
    the engine drops them, as `PeelingDecoder` counts the packet
    redundant."""
    h = packet.header
    if isinstance(h, ShiftList):
        return [(i, s) for i, s in enumerate(h.slots) if s is not None]
    return [(i, 0) for i in support_of(packet, n)]


def _shifts_of(packet: CodedPacket) -> list[tuple[int, int]]:
    """The checked (participant, shift) pairs of a packet."""
    return _pairs(packet, _check_header(packet))


@dataclass
class BitStallReport:
    """Bits the substitution pass could not isolate."""

    unresolved_bits: int
    unresolved_inputs: tuple[int, ...]
    decoded_bits: int


# bytes.translate table from bit values 0/1 to the digits int(_, 2) reads.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class BitSubstitutionDecoder(Decoder):
    """Equation system over the individual payload bits, peeled on the
    structure of the code.

    Unknown (i, u) is bit u (counted from the tail) of input packet i.
    Coded bit t of a packet is one equation: the XOR of the bits
    (i, t - s) of its participants (i, s).  So bit (i, u) sits in exactly
    one equation of each packet holding i, at t = u + s, and incidence
    needs no lists.  Each equation is one int of three fields, low to
    high: the coded bit plus the values substituted into it (its parity
    is the right-hand side), the sum of i + 1 over its unresolved
    unknowns (which names the last one) and their count.  Each input
    bit is one int too: its value once resolved, and before that the
    amount it adds to every equation holding it.  So a packet fills its
    equations with one C-level `map` per participant, and substituting a
    bit is one subtraction in each packet holding its input.

    Peeling follows `lt.Peeler` fed one equation per coded bit in packet
    order, t ascending: an equation with one unknown left drains the
    ripple (first in, first out) as soon as it is reached, and an
    equation of the packet being added that is not reached yet takes
    substitutions but does not fire.  So statuses, counters and blocks
    equal that engine's, even for corrupted packets.  `row_xor` counts
    each known bit substituted into an equation, `resolve` each bit an
    equation isolates.
    """

    # LT and GF(2) random linear packets join as shift-0 packets.
    schemes = (SchemeId.TRIANGULAR, SchemeId.LT, SchemeId.RL)

    def __init__(self, k: int, packet_len: int):
        super().__init__(k, packet_len)
        self.bits_per_packet = nbits = packet_len * 8
        self._unresolved = k * nbits
        # Field offsets: values sum to at most k + 1, ids to k(k + 1)/2.
        self._id_at = (k + 1).bit_length()
        self._one = 1 << (self._id_at + (k * (k + 1) // 2).bit_length())
        # Per input: its bits, the unresolved count and one
        # (equations, shift, shifts) entry per packet holding the input.
        self._bits = [
            [self._one + ((i + 1) << self._id_at)] * nbits for i in range(k)
        ]
        self._left = [nbits] * k
        self._holders: list[list[tuple]] = [[] for _ in range(k)]

    @property
    def decoded_bits(self) -> int:
        return self.k * self.bits_per_packet - self._unresolved

    @property
    def decoded_count(self) -> int:
        """Inputs with every bit resolved."""
        return self._left.count(0)

    _check = staticmethod(_check_header)

    def _add(self, packet: CodedPacket, checked: Optional[int]) -> bool:
        pairs = _pairs(packet, checked)
        nbits = self.bits_per_packet
        size = nbits + max((s for _, s in pairs), default=0)
        coded = int.from_bytes(packet.payload, "big")
        eqs = [(coded >> t) & 1 for t in range(size)]
        shifts = dict(pairs)
        known = 0
        for i, s in pairs:
            eqs[s:s + nbits] = map(add, eqs[s:s + nbits], self._bits[i])
            known += nbits - self._left[i]
            self._holders[i].append((eqs, s, shifts))
        self.counter.row_xor_count += known
        one, two = self._one, 2 * self._one
        for t, n in enumerate(eqs):
            if one <= n < two:
                self._drain(eqs, shifts, t)
                if not self._unresolved:
                    return True
        return False

    def _drain(self, current: list, shifts: dict, reached: int) -> None:
        """Resolve equations with one unknown left, starting with equation
        `reached` of the packet being added, until the ripple is empty.
        A queued equation whose count fell to 0 has lost its unknown to
        another equation and is dead."""
        bits, left, holders = self._bits, self._left, self._holders
        id_at, one = self._id_at, self._one
        two = 2 * one
        ripple = deque([(current, shifts, reached)])
        substituted = resolved = 0
        while ripple:
            eqs, shifts, t = ripple.popleft()
            n = eqs[t]
            if n < one:
                continue
            j = ((n - one) >> id_at) - 1
            v = t - shifts[j]
            bit = n & 1
            delta = bits[j][v] - bit
            bits[j][v] = bit
            left[j] -= 1
            resolved += 1
            entries = holders[j]
            # Every other equation holding the bit substitutes it.
            substituted += len(entries) - 1
            for c, s, cs in entries:
                w = v + s
                n = c[w] - delta
                c[w] = n
                if one <= n < two and (c is not current or w <= reached):
                    ripple.append((c, cs, w))
        self._unresolved -= resolved
        self.counter.resolve_count += resolved
        self.counter.row_xor_count += substituted

    def _solve(self) -> InputBlock:
        return InputBlock(
            tuple(
                int(bytes(reversed(bits)).translate(_DIGITS), 2).to_bytes(
                    self.packet_len, "big"
                )
                for bits in self._bits
            )
        )

    def stall_report(self) -> BitStallReport:
        return BitStallReport(
            unresolved_bits=self._unresolved,
            unresolved_inputs=tuple(i for i, n in enumerate(self._left) if n),
            decoded_bits=self.decoded_bits,
        )


def tri_decode(
    packets: Sequence[CodedPacket], k: int, packet_len: int
) -> DecodeResult:
    """Bit-by-bit back substitution over a mixed packet set."""
    return decode_all(BitSubstitutionDecoder(k, packet_len), packets)


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
