"""Differential oracles for triangular bit-substitution decoding.

`test_pinned_digest` feeds 200 seeded small systems (k <= 12, B <= 3)
packet by packet into a `BitSubstitutionDecoder` and hashes, per system,
the first prefix at which it turns DECODABLE, the decoded block, the
`BitStallReport` fields and the `resolve` count.  Each system mixes
planned and randomly shifted triangular packets with shift-0 packets:
LT, GF(2) random linear, and triangular packets whose shifts are all
zero, with duplicates.  `row_xor` is left out on purpose: it depends on
whether the engine counts the known bits it folds into a new equation.
The digest was recorded while the bit decoder still had its own peeling
code, before it moved onto `lt.Peeler` and then onto its shift-indexed
engine.

`PeelerBitDecoder` is the bit decoder as it was on `lt.Peeler`: one
list-backed equation per coded bit.  The differential tests feed it and
the shift-indexed engine the same packets and compare status, counters
and stall report after every packet, and the blocks at the end: 300
mixed systems like the digest's, about 30% of their packets with a
flipped bit so that the order in which bits resolve decides the block,
and two planned k = 16, B = 64 streams with 20% erasures.

The hypothesis property checks the bit decoder against packet-level
peeling: fed shift-0 copies of LT and random linear packets, it turns
DECODABLE at the same prefix as `PeelingDecoder` and returns the same
block.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fountainkit.core import (
    CodedPacket,
    DecodeStatus,
    InputBlock,
    SchemeId,
    packet_support,
)
from fountainkit.gf import GF2
from fountainkit.linalg import OpCounter
from fountainkit.lt import (
    LTEncoder,
    Peeler,
    PeelingDecoder,
    ideal_soliton,
    regular_distribution,
)
from fountainkit.rl import RlConfig, RlEncoder
from fountainkit.triangular import (
    BitSubstitutionDecoder,
    ShiftVector,
    _shifts_of,
    planned_shift_stream,
    tri_encode,
)

SYSTEMS = 200

#: SHA-256 of every record `_records` yields.
PINNED = "aade127e91bb61811720393b650cd895d0ced48ed4df8d032edbba6a194444fd"


def _shift0_copy(packet: CodedPacket) -> CodedPacket:
    """The same XOR packet under a triangular header with every shift 0."""
    support = packet_support(packet)
    sv = ShiftVector(tuple(support), (0,) * len(support))
    return CodedPacket(
        SchemeId.TRIANGULAR, packet.k, packet.packet_len, sv.to_header(packet.k),
        packet.payload,
    )


def _binary_encoders(block, degree, seed):
    """An LT encoder (ideal Soliton, or regular of `degree` when nonzero)
    and a GF(2) random linear encoder over `block`."""
    k = block.k
    dist = regular_distribution(k, min(degree, k)) if degree else ideal_soliton(k)
    return (
        LTEncoder(dist, block, seed),
        RlEncoder(RlConfig(GF2, k, sparsity=0.5, seed=seed ^ 0x5EED), block),
    )


def _system(rng):
    """(k, B, packets) mixing shifted and shift-0 packets."""
    k = rng.randint(1, 12)
    b = rng.randint(1, 3)
    block = InputBlock(tuple(rng.randbytes(b) for _ in range(k)))
    lt, rl = _binary_encoders(block, rng.choice((0, 2, 3)), rng.getrandbits(32))
    planned = planned_shift_stream(k, rng.getrandbits(32))
    packets = []
    for _ in range(rng.randint(max(1, k - 2), 2 * k + 4)):
        roll = rng.random()
        if roll < 0.3:
            packets.append(tri_encode(block, next(planned)))
        elif roll < 0.5:
            participants = rng.sample(range(k), rng.randint(1, k))
            shifts = tuple(rng.randrange(k) for _ in participants)
            packets.append(tri_encode(block, ShiftVector(tuple(participants), shifts)))
        elif roll < 0.65:
            packets.append(lt.next_packet())
        elif roll < 0.8:
            packets.append(rl.next_packet())
        else:
            packets.append(_shift0_copy((lt if roll < 0.9 else rl).next_packet()))
    for _ in range(rng.randint(0, 3)):
        packets.insert(rng.randrange(len(packets) + 1), rng.choice(packets))
    return k, b, packets


def _records():
    rng = random.Random("triangular-oracle")
    for _ in range(SYSTEMS):
        k, b, packets = _system(rng)
        dec = BitSubstitutionDecoder(k, b)
        decodable_at = None
        for m, p in enumerate(packets, start=1):
            if dec.ingest(p) is DecodeStatus.DECODABLE and decodable_at is None:
                decodable_at = m
        stall = dec.stall_report()
        yield (
            decodable_at,
            dec.decode().packets if decodable_at else None,
            (stall.unresolved_bits, stall.unresolved_inputs, stall.decoded_bits),
            dec.counter.resolve_count,
        )


def test_pinned_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
    assert h.hexdigest() == PINNED


class PeelerBitDecoder:
    """Reference bit decoder: `lt.Peeler` over k·8B unknowns with 1-bit
    rows; unknown i·8B + u is bit u of input i."""

    def __init__(self, k, packet_len):
        self.k = k
        self.packet_len = packet_len
        self.bits_per_packet = packet_len * 8
        self.counter = OpCounter()
        self.status = DecodeStatus.NEEDS_MORE
        self.packets_seen = 0
        self._peeler = Peeler(k * self.bits_per_packet, 1, self.counter)

    @property
    def decoded_bits(self):
        return len(self._peeler.value) - self._peeler.unresolved

    def ingest(self, packet):
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

    def decode(self):
        nbits, bits = self.bits_per_packet, self._peeler.value
        out = []
        for i in range(self.k):
            acc = 0
            for u in range(nbits):
                if bits[i * nbits + u]:
                    acc |= 1 << u
            out.append(acc.to_bytes(self.packet_len, "big"))
        return InputBlock(tuple(out))

    def stall_report(self):
        nbits = self.bits_per_packet
        pending = sorted(
            {uid // nbits for uid, v in enumerate(self._peeler.value) if v is None}
        )
        return (self._peeler.unresolved, tuple(pending), self.decoded_bits)


def _flip_bit(packet, rng):
    """The packet with one bit of its B data bytes inverted."""
    payload = int.from_bytes(packet.payload, "big") ^ (1 << rng.randrange(8 * packet.packet_len))
    return CodedPacket(
        packet.scheme, packet.k, packet.packet_len, packet.header,
        payload.to_bytes(len(packet.payload), "big"),
    )


def _assert_same_run(k, b, packets):
    """Feed both decoders the packets; they agree after every packet and,
    once decodable, on the block.  Returns whether the system decoded."""
    ref, dec = PeelerBitDecoder(k, b), BitSubstitutionDecoder(k, b)
    for m, p in enumerate(packets):
        assert dec.ingest(p) is ref.ingest(p), m
        stall = dec.stall_report()
        assert (
            dec.packets_seen,
            dec.decoded_bits,
            (stall.unresolved_bits, stall.unresolved_inputs, stall.decoded_bits),
            dec.counter.row_xor_count,
            dec.counter.resolve_count,
        ) == (
            ref.packets_seen,
            ref.decoded_bits,
            ref.stall_report(),
            ref.counter.row_xor_count,
            ref.counter.resolve_count,
        ), m
    if dec.status is DecodeStatus.NEEDS_MORE:
        return False
    assert dec.decode() == ref.decode()
    return True


def test_matches_peeler_engine_on_corrupted_mixed_systems():
    rng = random.Random("triangular-differential")
    decoded = 0
    for _ in range(300):
        k, b, packets = _system(rng)
        packets = [_flip_bit(p, rng) if rng.random() < 0.3 else p for p in packets]
        decoded += _assert_same_run(k, b, packets)
    assert 100 <= decoded < 300


def test_matches_peeler_engine_on_planned_sessions_with_erasures():
    rng = random.Random("triangular-differential-planned")
    k, b = 16, 64
    for seed in (1, 2):
        block = InputBlock(tuple(rng.randbytes(b) for _ in range(k)))
        planned = planned_shift_stream(k, seed)
        packets = [tri_encode(block, next(planned)) for _ in range(3 * k)]
        survivors = [p for p in packets if rng.random() >= 0.2]
        assert _assert_same_run(k, b, survivors)


@st.composite
def binary_streams(draw):
    """(block, packets): LT and GF(2) random linear packets, some repeated."""
    k = draw(st.integers(1, 8))
    b = draw(st.integers(1, 2))
    data = random.Random(draw(st.integers(0, 2**32)))
    block = InputBlock(tuple(data.randbytes(b) for _ in range(k)))
    lt, rl = _binary_encoders(
        block, draw(st.sampled_from((0, 2, 3))), draw(st.integers(0, 2**32))
    )
    packets = [
        (lt if draw(st.booleans()) else rl).next_packet()
        for _ in range(draw(st.integers(1, 2 * k + 4)))
    ]
    for i in draw(st.lists(st.integers(0, len(packets) - 1), max_size=3)):
        packets.insert(draw(st.integers(0, len(packets))), packets[i])
    return block, packets


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(binary_streams())
def test_shift0_bit_decoding_agrees_with_peeling(stream):
    block, packets = stream
    k, b = block.k, block.packet_len
    peel = PeelingDecoder(k, b)
    bits = BitSubstitutionDecoder(k, b)
    for p in packets:
        assert bits.ingest(_shift0_copy(p)) is peel.ingest(p)
    if peel.status is DecodeStatus.DECODABLE:
        assert bits.decode() == peel.decode() == block
