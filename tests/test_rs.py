"""Reed-Solomon-style codec: row construction, any-k decoding, op growth."""

import itertools
import math
import random
from dataclasses import replace

import pytest

from fountainkit.core import CoefficientVector, DecodeStatus, InputBlock
from fountainkit.errors import (
    DuplicatePacketError,
    InsufficientPacketsError,
    SchemeMismatchError,
)
from fountainkit.gf import GF256, field
from fountainkit.linalg import OpCounter, xor_bytes
from fountainkit.rs import (
    VandermondeSpec,
    coding_row,
    default_points,
    make_decoder,
    rs_decode,
    rs_encode,
)


def block(k, b=5, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


class TestSpec:
    def test_default_points_are_generator_powers(self):
        assert default_points(5) == (1, 2, 4, 8, 16)

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            VandermondeSpec.default(2, 256)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            VandermondeSpec(k=2, n=3, points=(1, 2, 2))

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            VandermondeSpec(k=2, n=2, points=(0, 1))


class TestEncode:
    def test_rows_for_points_one_and_two(self):
        g = field(GF256)
        blk = block(2)
        vs = VandermondeSpec(k=2, n=2, points=(1, 2))
        p1, p2 = rs_encode(blk, vs)
        assert p1.payload == xor_bytes(*blk.packets)
        expected = bytes(
            a ^ g.mul(2, b) for a, b in zip(blk.packets[0], blk.packets[1])
        )
        assert p2.payload == expected

    def test_k1_every_packet_is_the_input(self):
        blk = block(1)
        for p in rs_encode(blk, VandermondeSpec.default(1, 6)):
            assert p.payload == blk.packets[0]

    def test_systematic_prefix_is_the_block(self):
        blk = block(3)
        vs = VandermondeSpec.default(3, 7, systematic=True)
        packets = rs_encode(blk, vs)
        for i in range(3):
            assert packets[i].payload == blk.packets[i]
        # First k coding rows reduce to the identity.
        for i in range(3):
            assert coding_row(vs, i) == [int(i == j) for j in range(3)]


class TestDecode:
    def test_exhaustive_small_case(self):
        blk = block(3, seed=1)
        vs = VandermondeSpec.default(3, 6)
        packets = rs_encode(blk, vs)
        for sub in itertools.combinations(range(6), 3):
            assert rs_decode([packets[i] for i in sub], vs) == blk

    def test_two_point_hand_case(self):
        blk = block(2, seed=2)
        vs = VandermondeSpec(k=2, n=2, points=(1, 2))
        assert rs_decode(rs_encode(blk, vs), vs) == blk

    def test_duplicate_row_rejected(self):
        blk = block(2, seed=3)
        vs = VandermondeSpec.default(2, 4)
        packets = rs_encode(blk, vs)
        with pytest.raises(DuplicatePacketError):
            rs_decode([packets[0], packets[0]], vs)

    def test_insufficient_rejected(self):
        blk = block(3, seed=4)
        vs = VandermondeSpec.default(3, 5)
        with pytest.raises(InsufficientPacketsError):
            rs_decode(rs_encode(blk, vs)[:2], vs)

    def test_packets_of_another_k_rejected(self):
        # k = 4 packets under a k = 3 spec used to decode to 3 wrong packets.
        packets = rs_encode(block(4, seed=6), VandermondeSpec.default(4, 6))
        with pytest.raises(SchemeMismatchError):
            rs_decode(packets, VandermondeSpec.default(3, 6))

    def test_header_without_row_index_rejected(self):
        vs = VandermondeSpec.default(3, 5)
        packets = rs_encode(block(3, seed=7), vs)
        packets[1] = replace(packets[1], header=CoefficientVector((1, 0, 0)))
        with pytest.raises(SchemeMismatchError):
            rs_decode(packets, vs)

    def test_systematic_subset_needs_no_multiplication(self):
        blk = block(3, seed=5)
        vs = VandermondeSpec.default(3, 7, systematic=True)
        packets = rs_encode(blk, vs)
        counter = OpCounter()
        assert rs_decode(packets[:3], vs, counter) == blk
        assert counter.symbol_mul_count == 0
        assert counter.row_scale_count == 0

    def test_incremental_decoder_ignores_redundant(self):
        blk = block(4, seed=6)
        vs = VandermondeSpec.default(4, 9)
        dec = make_decoder(vs, blk.packet_len)
        packets = rs_encode(blk, vs)
        for p in packets[:4]:
            dec.ingest(p)
        assert dec.status is DecodeStatus.DECODABLE
        dec.ingest(packets[5])
        assert dec.non_innovative_count == 1
        assert dec.decode() == blk


class TestCost:
    def test_dense_elimination_growth(self):
        # Symbol multiplications across k in {8, 16, 32} should fit a
        # power law with exponent >= 2.5 (cubic-style Gaussian cost).
        rng = random.Random(7)
        muls = []
        for k in (8, 16, 32):
            blk = block(k, b=1, seed=k)
            vs = VandermondeSpec.default(k, 2 * k)
            packets = rs_encode(blk, vs)
            chosen = rng.sample(packets, k)
            counter = OpCounter()
            assert rs_decode(chosen, vs, counter) == blk
            assert counter.symbol_mul_count > 0
            muls.append(counter.symbol_mul_count)
        slope = math.log(muls[2] / muls[0]) / math.log(32 / 8)
        assert slope >= 2.5
