"""Packet model, wire format round trips, rank-tracking ingest and the
packet checks every decoder applies."""

import dataclasses
import random

import pytest

from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    LinearDecoder,
    RaptorSeed,
    RowIndex,
    SchemeId,
    SeedDegree,
    ShiftList,
    linear_combine,
    packet_support,
    regenerate_neighbors,
)
from fountainkit.errors import (
    BadMagicError,
    PacketFormatError,
    SchemeMismatchError,
    TruncatedFrameError,
    UnknownSchemeError,
)
from fountainkit.gf import GF2, GF256
from fountainkit.linalg import FieldMatrix, rank, xor_bytes
from fountainkit.lt import LTEncoder, PeelingDecoder, robust_soliton
from fountainkit.prng import SplitMix64
from fountainkit.raptor import PrecodeSpec, RaptorDecoder, RaptorEncoder
from fountainkit.rl import RlConfig, RlEncoder, make_decoder
from fountainkit.wire import deserialize, read_stream, serialize, write_stream


def block(k=3, b=4, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def coeff_packet(coeffs, payload, scheme=SchemeId.RL, b=None):
    return CodedPacket(
        scheme, len(coeffs), b if b is not None else len(payload),
        CoefficientVector(tuple(coeffs)), payload,
    )


class TestInputBlock:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            InputBlock((b"ab", b"c"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InputBlock(())

    def test_dimensions(self):
        blk = block(k=5, b=7)
        assert blk.k == 5 and blk.packet_len == 7


class TestLinearCombine:
    def test_gf2_xor(self):
        blk = block(k=2)
        assert linear_combine(blk.packets, (1, 1), GF2) == xor_bytes(*blk.packets)

    def test_unit_vector(self):
        blk = block(k=3)
        assert linear_combine(blk.packets, (0, 1, 0), GF256) == blk.packets[1]


class TestWireRoundTrip:
    def _random_packet(self, rng, scheme):
        k = rng.randrange(1, 20)
        b = rng.randrange(1, 12)
        payload = bytes(rng.randrange(256) for _ in range(b))
        if scheme == SchemeId.RS:
            header = RowIndex(rng.randrange(1 << 32))
        elif scheme == SchemeId.RL:
            if rng.random() < 0.5:
                header = CoefficientVector(tuple(rng.randrange(2) for _ in range(k)))
            else:
                header = CoefficientVector(tuple(rng.randrange(256) for _ in range(k)))
        elif scheme == SchemeId.LT:
            header = SeedDegree(rng.randrange(1 << 64), rng.randrange(1, k + 1))
        elif scheme == SchemeId.RAPTOR:
            header = RaptorSeed(
                rng.randrange(1 << 64), rng.randrange(1, k + 1),
                rng.randrange(1 << 64), rng.randrange(k + 65), rng.randrange(1, k + 1),
            )
        else:
            slots = [None] * k
            participants = rng.sample(range(k), rng.randrange(1, k + 1))
            for i in participants:
                slots[i] = rng.randrange(k)
            header = ShiftList(tuple(slots))
            pad = (header.max_shift + 7) // 8
            payload = payload + bytes(rng.randrange(256) for _ in range(pad))
        return CodedPacket(scheme, k, b, header, payload)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_round_trip_identity(self, scheme):
        rng = random.Random(scheme)
        for _ in range(1000):
            p = self._random_packet(rng, scheme)
            frame = serialize(p)
            assert deserialize(frame) == p
            assert serialize(deserialize(frame)) == frame

    def test_empty_input_is_truncation(self):
        with pytest.raises(TruncatedFrameError):
            deserialize(b"")

    def test_bad_magic(self):
        frame = bytearray(serialize(coeff_packet([1, 0], b"hi")))
        frame[0] = 0x00
        with pytest.raises(BadMagicError):
            deserialize(bytes(frame))

    def test_unknown_scheme(self):
        frame = bytearray(serialize(coeff_packet([1, 0], b"hi")))
        frame[2] = 0x7F
        with pytest.raises(UnknownSchemeError):
            deserialize(bytes(frame))

    def test_truncated_payload(self):
        frame = serialize(coeff_packet([1, 0], b"hi"))
        with pytest.raises(TruncatedFrameError):
            deserialize(frame[:-1])

    def test_trailing_bytes_rejected(self):
        frame = serialize(coeff_packet([1, 0], b"hi"))
        with pytest.raises(PacketFormatError):
            deserialize(frame + b"\x00")

    def test_binary_header_is_bit_packed(self):
        # k coefficients over GF(2) cost k bits on the wire: one byte at k=8.
        p = coeff_packet([1, 0, 1, 1, 0, 0, 1, 0], b"x" * 3)
        frame = serialize(p)
        header_len = int.from_bytes(frame[12:14], "big")
        assert header_len == 1

    def test_byte_header_for_large_field(self):
        p = coeff_packet([200, 3, 17, 0, 9, 1, 77, 255], b"x" * 3)
        frame = serialize(p)
        header_len = int.from_bytes(frame[12:14], "big")
        assert header_len == 8

    def test_stream_concatenation(self):
        rng = random.Random(99)
        packets = [self._random_packet(rng, SchemeId.LT) for _ in range(20)]
        data = write_stream(packets)
        assert list(read_stream(data)) == packets

    def test_raptor_redundant_count_bounded_by_k_plus_64(self):
        # The decoder allocates per redundant packet, so a frame may carry
        # at most k + 64 of them.
        def packet(redundant):
            return CodedPacket(SchemeId.RAPTOR, 7, 2, RaptorSeed(1, 1, 0, redundant, 1), b"ab")

        assert deserialize(serialize(packet(7 + 64))) == packet(7 + 64)
        with pytest.raises(PacketFormatError, match="redundant_count 72 exceeds"):
            deserialize(serialize(packet(7 + 65)))

    def test_version_mismatch_rejected(self):
        frame = bytearray(serialize(coeff_packet([1, 0], b"hi")))
        frame[1] = 0x01
        with pytest.raises(PacketFormatError):
            deserialize(bytes(frame))

    def test_fuzzed_frames_fail_cleanly(self):
        # Any mutation either still parses or raises a parse error; the
        # parser must never crash with anything else.
        rng = random.Random(1234)
        for scheme in SchemeId:
            base = serialize(self._random_packet(rng, scheme))
            for _ in range(400):
                mutated = bytearray(base)
                for _ in range(rng.randrange(1, 4)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                if rng.random() < 0.3:
                    mutated = mutated[: rng.randrange(len(mutated) + 1)]
                try:
                    deserialize(bytes(mutated))
                except PacketFormatError:
                    pass


class TestLinearDecoder:
    def _decoder(self, k=3, b=4, spec=GF2):
        return LinearDecoder(
            spec, k, b, SchemeId.RL, lambda p: p.header.coefficients
        )

    def test_duplicate_discarded(self):
        blk = block()
        dec = self._decoder()
        p = coeff_packet([1, 1, 0], linear_combine(blk.packets, (1, 1, 0), GF2))
        assert dec.ingest(p) is DecodeStatus.NEEDS_MORE
        before = dec.rank
        assert dec.ingest(p) is DecodeStatus.NEEDS_MORE
        assert dec.rank == before
        assert dec.non_innovative_count == 1

    def test_kth_innovative_flips_status(self):
        blk = block()
        dec = self._decoder()
        vectors = [(1, 1, 0), (0, 1, 1), (1, 1, 1)]
        statuses = [
            dec.ingest(coeff_packet(v, linear_combine(blk.packets, v, GF2)))
            for v in vectors
        ]
        assert statuses == [
            DecodeStatus.NEEDS_MORE,
            DecodeStatus.NEEDS_MORE,
            DecodeStatus.DECODABLE,
        ]

    def test_worked_example_stream_decodes(self):
        blk = block(seed=5)
        dec = self._decoder()
        for v in [(1, 1, 0), (0, 1, 1), (1, 1, 1)]:
            dec.ingest(coeff_packet(v, linear_combine(blk.packets, v, GF2)))
        assert dec.decode() == blk
        assert dec.status is DecodeStatus.DECODED

    def test_scheme_mismatch(self):
        dec = self._decoder()
        p = coeff_packet([1, 0, 0], b"abcd", scheme=SchemeId.LT)
        with pytest.raises(SchemeMismatchError):
            dec.ingest(p)

    @pytest.mark.parametrize("spec", [GF2, GF256])
    def test_packet_length_mismatch(self, spec):
        blk = block(k=3, b=4)
        dec = self._decoder(spec=spec)
        good = coeff_packet([1, 1, 0], linear_combine(blk.packets, (1, 1, 0), spec))
        dec.ingest(good)
        with pytest.raises(SchemeMismatchError):
            dec.ingest(coeff_packet([1, 1, 0], good.payload + b"\x00"))
        with pytest.raises(SchemeMismatchError):
            dec.ingest(coeff_packet([1, 1, 0], good.payload, b=5))
        assert dec.rank == 1

    def test_rank_matches_matrix_rank_on_prefixes(self):
        rng = random.Random(21)
        for spec in (GF2, GF256):
            blk = block(k=5, b=3, seed=22)
            dec = LinearDecoder(spec, 5, 3, SchemeId.RL, lambda p: p.header.coefficients)
            seen = []
            for _ in range(12):
                v = tuple(rng.randrange(spec.order) for _ in range(5))
                seen.append(v)
                dec.ingest(coeff_packet(v, linear_combine(blk.packets, v, spec)))
                assert dec.rank == rank(FieldMatrix.from_rows(spec, seen))

    def test_order_independence(self):
        rng = random.Random(23)
        blk = block(k=4, b=5, seed=24)
        vectors = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 1, 1)]
        packets = [
            coeff_packet(v, linear_combine(blk.packets, v, GF2)) for v in vectors
        ]
        for _ in range(10):
            shuffled = packets[:]
            rng.shuffle(shuffled)
            dec = self._decoder(k=4, b=5)
            for p in shuffled:
                dec.ingest(p)
            assert dec.decode() == blk

    def test_gf256_stream(self):
        rng = random.Random(25)
        blk = block(k=4, b=6, seed=26)
        dec = LinearDecoder(GF256, 4, 6, SchemeId.RL, lambda p: p.header.coefficients)
        while dec.status is DecodeStatus.NEEDS_MORE:
            v = tuple(rng.randrange(256) for _ in range(4))
            dec.ingest(coeff_packet(v, linear_combine(blk.packets, v, GF256)))
        assert dec.decode() == blk

    def test_late_packets_do_no_work(self):
        blk = block(k=8, b=16, seed=27)
        config = RlConfig(GF256, 8, seed=28)
        enc, dec = RlEncoder(config, blk), make_decoder(config, 16)
        while dec.status is DecodeStatus.NEEDS_MORE:
            dec.ingest(enc.next_packet())
        row_xor, sym_mul = dec.counter.row_xor_count, dec.counter.symbol_mul_count
        non_innovative = dec.non_innovative_count
        for _ in range(5):
            assert dec.ingest(enc.next_packet()) is DecodeStatus.DECODABLE
        assert (dec.counter.row_xor_count, dec.counter.symbol_mul_count) == (row_xor, sym_mul)
        assert dec.non_innovative_count == non_innovative + 5
        assert dec.decode() == blk

    def test_late_packet_is_still_checked(self):
        blk = block()
        dec = self._decoder()
        for v in [(1, 1, 0), (0, 1, 1), (1, 1, 1)]:
            dec.ingest(coeff_packet(v, linear_combine(blk.packets, v, GF2)))
        assert dec.decode() == blk
        with pytest.raises(SchemeMismatchError):
            dec.ingest(coeff_packet([2, 0, 0], bytes(4)))
        assert dec.non_innovative_count == 0


class TestNeighborMemo:
    def test_returned_list_is_the_callers_own(self):
        first = regenerate_neighbors(11, 5, 40)
        expected = list(first)
        first.append(99)
        first[0] = -1
        assert regenerate_neighbors(11, 5, 40) == expected
        again = regenerate_neighbors(11, 5, 40)
        again.clear()
        assert regenerate_neighbors(11, 5, 40) == expected

    def test_other_header_gets_its_own_support(self):
        k = 32
        p = LTEncoder(robust_soliton(k, 0.2, 0.5), block(k, 4), seed=6).next_packet()
        d = p.header.degree
        other = dataclasses.replace(p, header=SeedDegree(p.header.seed + 1, d))
        assert packet_support(other) == sorted(
            SplitMix64(p.header.seed + 1).sample_distinct(k, d)
        )
        assert packet_support(other) != packet_support(p)


def fountain(kind, k, b, seed=3):
    """(decoder, encoder) of an LT or raptor stream over `block(k, b, seed)`."""
    blk = block(k, b, seed)
    if kind == "lt":
        return PeelingDecoder(k, b), LTEncoder(robust_soliton(k, 0.2, 0.5), blk, seed)
    spec = PrecodeSpec.default(k)
    dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
    return RaptorDecoder(k, b), RaptorEncoder(blk, dist, spec, seed)


class TestFountainDecodersRefuseForeignPackets:
    @pytest.mark.parametrize("kind", ["lt", "raptor"])
    @pytest.mark.parametrize("degree", [0, "n + 1"])
    @pytest.mark.parametrize("when", ["fresh", "late"])
    def test_degree_outside_range_is_format_error(self, kind, degree, when):
        dec, enc = fountain(kind, 16, 8)
        p = enc.next_packet()
        if when == "late":
            while dec.status is DecodeStatus.NEEDS_MORE:
                dec.ingest(enc.next_packet())
        seen = dec.packets_seen
        n = 16 if kind == "lt" else PrecodeSpec.default(16).intermediate_count
        header = dataclasses.replace(p.header, degree=n + 1 if degree else 0)
        with pytest.raises(PacketFormatError, match="degree"):
            dec.ingest(dataclasses.replace(p, header=header))
        assert dec.packets_seen == seen
