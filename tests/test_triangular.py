"""Triangular codec: shift alignment, bit-level substitution, planning."""

import random

import pytest

from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    SchemeId,
    SeedDegree,
    ShiftList,
)
from fountainkit.errors import PacketFormatError
from fountainkit.linalg import xor_bytes
from fountainkit.lt import peel_decode
from fountainkit.prng import SplitMix64
from fountainkit.rl import rl_success_probability
from fountainkit.triangular import (
    BitSubstitutionDecoder,
    ShiftVector,
    tri_decode,
    tri_encode,
    tri_plan_shifts,
)


def block(k, b=2, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def xor_packet(indices, payload, k):
    coeffs = tuple(int(j in indices) for j in range(k))
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(coeffs), payload)


class TestShiftVector:
    def test_distinct_participants_required(self):
        with pytest.raises(ValueError):
            ShiftVector((0, 0), (0, 1))

    def test_header_round_trip(self):
        sv = ShiftVector((0, 2), (3, 1))
        assert ShiftVector.from_header(sv.to_header(4)) == sv


class TestEncode:
    def test_figure_alignment_rule(self):
        # c1 = 1011, c2 = 0110 with shifts (0, 1):
        # 01011 xor 01100 = 00111.
        blk = InputBlock((bytes([0b1011]), bytes([0b0110])))
        p = tri_encode(blk, ShiftVector((0, 1), (0, 1)))
        assert int.from_bytes(p.payload, "big") == 0b00111
        assert len(p.payload) == 2  # one data byte + one pad byte

    def test_single_participant_identity(self):
        blk = block(3, seed=1)
        p = tri_encode(blk, ShiftVector((1,), (0,)))
        assert p.payload == blk.packets[1]

    def test_zero_shifts_reduce_to_plain_xor(self):
        blk = block(3, seed=2)
        p = tri_encode(blk, ShiftVector((0, 1, 2), (0, 0, 0)))
        assert p.payload == xor_bytes(xor_bytes(*blk.packets[:2]), blk.packets[2])

    def test_shift_cap(self):
        blk = block(3, seed=3)
        with pytest.raises(ValueError):
            tri_encode(blk, ShiftVector((0, 1), (0, 3)))

    def test_pad_bytes_match_max_shift(self):
        blk = block(16, b=4, seed=4)
        p = tri_encode(blk, ShiftVector(tuple(range(16)), tuple(range(16))))
        assert len(p.payload) == 4 + (15 + 7) // 8


class TestDecode:
    def test_table_one_third_client(self):
        # Client holding c1+c2 receives the packet shifted as c1 + 2*c2
        # and recovers both inputs by the bit chain.
        blk = block(2, seed=5)
        held = tri_encode(blk, ShiftVector((0, 1), (0, 0)))
        shifted = tri_encode(blk, ShiftVector((0, 1), (0, 1)))
        res = tri_decode([held, shifted], 2, blk.packet_len)
        assert res.success
        assert res.block == blk

    def test_table_one_systematic_clients(self):
        blk = block(2, seed=6)
        shifted = tri_encode(blk, ShiftVector((0, 1), (0, 1)))
        for have in (0, 1):
            held = tri_encode(blk, ShiftVector((have,), (0,)))
            res = tri_decode([held, shifted], 2, blk.packet_len)
            assert res.success and res.block == blk

    def test_duplicate_equations_stall(self):
        blk = block(2, seed=7)
        sv = ShiftVector((0, 1), (1, 0))
        res = tri_decode([tri_encode(blk, sv), tri_encode(blk, sv)], 2, blk.packet_len)
        assert not res.success
        assert res.stall.unresolved_bits > 0
        assert res.stall.unresolved_inputs == (0, 1)

    def test_decoder_is_multiplication_free(self):
        blk = block(4, seed=8)
        plans = tri_plan_shifts(4, 6, seed=9)
        packets = [tri_encode(blk, sv) for sv in plans]
        res = tri_decode(packets, 4, blk.packet_len)
        assert res.success
        assert res.counter.symbol_mul_count == 0
        assert res.counter.row_scale_count == 0
        assert res.counter.row_xor_count > 0

    def test_incremental_status_transitions(self):
        blk = block(2, seed=10)
        dec = BitSubstitutionDecoder(2, blk.packet_len)
        assert dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 0)))) is DecodeStatus.NEEDS_MORE
        assert dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 1)))) is DecodeStatus.DECODABLE
        assert dec.decode() == blk
        assert dec.status is DecodeStatus.DECODED

    def test_all_zero_binary_packet_is_redundant(self):
        # A GF(2) random linear packet with no participants adds nothing:
        # `PeelingDecoder` counts it redundant, and the bit decoder must
        # take it too rather than raise.
        blk = block(2, seed=14)
        dec = BitSubstitutionDecoder(2, blk.packet_len)
        assert dec.ingest(xor_packet(set(), bytes(blk.packet_len), 2)) is DecodeStatus.NEEDS_MORE
        assert dec.decoded_bits == 0
        dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 0))))
        assert dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 1)))) is DecodeStatus.DECODABLE
        assert dec.decode() == blk

    @pytest.mark.parametrize("degree", [0, 3])
    def test_late_lt_packet_degree_still_checked(self, degree):
        blk = block(2, seed=15)
        dec = BitSubstitutionDecoder(2, blk.packet_len)
        dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 0))))
        assert dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 1)))) is DecodeStatus.DECODABLE
        bad = CodedPacket(SchemeId.LT, 2, blk.packet_len, SeedDegree(7, degree), bytes(2))
        with pytest.raises(PacketFormatError):
            dec.ingest(bad)
        assert dec.packets_seen == 2
        assert dec.decode() == blk

    @pytest.mark.parametrize("header", ["shift list", "coefficients"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_vector_of_another_length_refused(self, header, length):
        # A k = 2 decoder refuses a shift list or a GF(2) vector of 1 or 3
        # entries and is left as it was: a shorter one is no packet over
        # the first input, and a longer one raises no IndexError.
        blk = block(2, seed=16)
        dec = BitSubstitutionDecoder(2, blk.packet_len)
        dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 0))))
        before = (dec.packets_seen, dec.decoded_bits, dec.counter)
        if header == "shift list":
            bad = CodedPacket(
                SchemeId.TRIANGULAR, 2, blk.packet_len, ShiftList((0,) * length),
                bytes(blk.packet_len),
            )
        else:
            bad = xor_packet(set(range(length)), bytes(blk.packet_len), length)
            bad = CodedPacket(SchemeId.RL, 2, blk.packet_len, bad.header, bad.payload)
        with pytest.raises(PacketFormatError):
            dec.ingest(bad)
        assert (dec.packets_seen, dec.decoded_bits, dec.counter) == before
        assert dec.ingest(tri_encode(blk, ShiftVector((0, 1), (0, 1)))) is DecodeStatus.DECODABLE
        assert dec.decode() == blk

    def test_zero_shift_agreement_with_peeling(self):
        rng = random.Random(11)
        for trial in range(40):
            k = rng.randrange(2, 8)
            blk = block(k, b=1, seed=trial + 20)
            packets = []
            for _ in range(k + 2):
                deg = rng.randrange(1, k + 1)
                idx = set(rng.sample(range(k), deg))
                payload = bytes(blk.packet_len)
                for i in idx:
                    payload = xor_bytes(payload, blk.packets[i])
                packets.append(xor_packet(idx, payload, k))
            peel = peel_decode(packets, k, blk.packet_len)
            tri = tri_decode(packets, k, blk.packet_len)
            assert peel.success == tri.success
            if peel.success:
                assert peel.block == tri.block == blk


class TestPlanning:
    def test_k2_plans_are_the_two_permutations(self):
        seen = set()
        for seed in range(40):
            for sv in tri_plan_shifts(2, 1, seed):
                assert sv.participants == (0, 1)
                seen.add(sv.shifts)
        assert seen == {(0, 1), (1, 0)}

    def test_shifts_always_pairwise_distinct(self):
        for seed in range(1000):
            for sv in tri_plan_shifts(8, 8, seed):
                assert sorted(sv.shifts) == list(range(8))

    def test_deterministic(self):
        assert tri_plan_shifts(6, 4, seed=3) == tri_plan_shifts(6, 4, seed=3)

    def test_small_k_any_k_beats_binary_random_linear(self):
        # Decode probability from exactly k planned packets must clear the
        # GF(2) random-linear full-rank probability at the same k.
        rng = SplitMix64(123)
        for k in range(2, 7):
            wins = 0
            trials = 300
            for t in range(trials):
                blk = block(k, b=1, seed=k * 1000 + t)
                plans = tri_plan_shifts(k, k, seed=rng.next_u64())
                packets = [tri_encode(blk, sv) for sv in plans]
                res = tri_decode(packets, k, blk.packet_len)
                if res.success:
                    assert res.block == blk
                    wins += 1
            assert wins / trials >= rl_success_probability(2, k)


class TestRoundTrip:
    def test_erasure_round_trip_with_fountain_continuation(self):
        # Encode k+3 planned packets, drop any 3; when the surviving k
        # stall, keep drawing planned packets (rateless) until decoded.
        rng = random.Random(13)
        for trial in range(60):
            k = rng.randrange(2, 17)
            b = rng.randrange(1, 5)
            blk = block(k, b=b, seed=trial + 500)
            plans = tri_plan_shifts(k, k + 3 + 4 * k, seed=trial)
            packets = [tri_encode(blk, sv) for sv in plans]
            first = packets[: k + 3]
            dropped = set(rng.sample(range(k + 3), 3))
            survivors = [p for i, p in enumerate(first) if i not in dropped]
            dec = BitSubstitutionDecoder(k, b)
            for p in survivors:
                dec.ingest(p)
            extra = 0
            while dec.status is DecodeStatus.NEEDS_MORE:
                dec.ingest(packets[k + 3 + extra])
                extra += 1
            assert dec.decode() == blk
            assert dec.counter.symbol_mul_count == 0
            for p in survivors:
                pad_bits = (len(p.payload) - b) * 8
                assert pad_bits <= ((k - 1 + 7) // 8) * 8
