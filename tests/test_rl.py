"""Random linear codec: sampling, rank law, determinism."""

import random
from dataclasses import replace

import pytest

from fountainkit.core import DecodeStatus, InputBlock, SeedDegree
from fountainkit.errors import SchemeMismatchError
from fountainkit.gf import GF2, GF256, FieldSpec
from fountainkit.rl import RlConfig, RlEncoder, make_decoder, rl_success_probability
from fountainkit.wire import serialize


def block(k, b=4, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


class TestConfig:
    def test_field_restricted(self):
        with pytest.raises(ValueError):
            RlConfig(FieldSpec(m=4, modulus=0b10011, generator=2), 4)

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            RlConfig(GF2, 4, sparsity=0.0)
        with pytest.raises(ValueError):
            RlConfig(GF2, 4, sparsity=1.5)


class TestEncoder:
    def test_never_emits_zero_vector(self):
        enc = RlEncoder(RlConfig(GF2, 3, seed=1), block(3))
        for _ in range(200):
            assert any(enc.next_packet().header.coefficients)

    def test_seeded_replay_identical(self):
        blk = block(5, seed=2)
        streams = []
        for _ in range(2):
            enc = RlEncoder(RlConfig(GF256, 5, seed=42), blk)
            streams.append([serialize(enc.next_packet()) for _ in range(50)])
        assert streams[0] == streams[1]

    def test_different_seeds_differ(self):
        blk = block(5, seed=2)
        a = RlEncoder(RlConfig(GF2, 5, seed=1), blk).next_packet()
        b = RlEncoder(RlConfig(GF2, 5, seed=2), blk).next_packet()
        assert serialize(a) != serialize(b)

    def test_sparse_mode_density(self):
        cfg = RlConfig(GF2, 64, sparsity=0.2, seed=3)
        enc = RlEncoder(cfg, block(64, b=1, seed=3))
        nz = total = 0
        for _ in range(300):
            coeffs = enc.next_packet().header.coefficients
            nz += sum(coeffs)
            total += len(coeffs)
        assert 0.15 < nz / total < 0.25

    def test_decode_round_trip_both_fields(self):
        for spec in (GF2, GF256):
            blk = block(6, seed=4)
            cfg = RlConfig(spec, 6, seed=11)
            enc = RlEncoder(cfg, blk)
            dec = make_decoder(cfg, blk.packet_len)
            while dec.status is DecodeStatus.NEEDS_MORE:
                dec.ingest(enc.next_packet())
            assert dec.decode() == blk

    def test_gf2_decoder_refuses_gf256_coefficients(self):
        # A GF(2) decoder must not read GF(256) coefficients as bits: that
        # reached DECODABLE after 4 sparse packets with a wrong block.
        blk = block(4, b=8, seed=5)
        enc = RlEncoder(RlConfig(GF256, 4, sparsity=0.4, seed=3), blk)
        dec = make_decoder(RlConfig(GF2, 4), blk.packet_len)
        packet = enc.next_packet()
        while max(packet.header.coefficients) <= 1:
            dec.ingest(packet)
            packet = enc.next_packet()
        with pytest.raises(SchemeMismatchError, match=r"outside GF\(2\)"):
            dec.ingest(packet)
        assert dec.status is DecodeStatus.NEEDS_MORE

    def test_decoder_refuses_other_header_shapes(self):
        blk = block(4, b=8, seed=5)
        packet = RlEncoder(RlConfig(GF256, 4, seed=3), blk).next_packet()
        dec = make_decoder(RlConfig(GF256, 4), blk.packet_len)
        with pytest.raises(SchemeMismatchError, match="SeedDegree"):
            dec.ingest(replace(packet, header=SeedDegree(7, 2)))
        assert (dec.accepted_count, dec.non_innovative_count) == (0, 0)

    def test_sparse_vectors_cost_fewer_row_ops(self):
        # Sparse streams eliminate cheaper, though plain Gaussian
        # elimination densifies rows as it reduces, so the saving is
        # partial; the full k*omega win needs a substitution decoder.
        k = 64

        def decode_cost(sparsity, seed):
            blk = block(k, b=1, seed=seed)
            cfg = RlConfig(GF2, k, sparsity=sparsity, seed=seed)
            enc = RlEncoder(cfg, blk)
            dec = make_decoder(cfg, blk.packet_len)
            while dec.status is DecodeStatus.NEEDS_MORE:
                dec.ingest(enc.next_packet())
            assert dec.decode() == blk
            return dec.counter.row_xor_count

        dense = sum(decode_cost(1.0, s) for s in range(10))
        sparse = sum(decode_cost(0.1, s + 100) for s in range(10))
        assert sparse < 0.8 * dense


class TestSuccessProbability:
    def test_binary_k3_matches_census(self):
        # 168 of the 512 binary 3x3 matrices are invertible.
        assert rl_success_probability(2, 3) == pytest.approx(168 / 512)
        assert rl_success_probability(2, 3) == pytest.approx(0.328125)

    def test_single_coefficient(self):
        assert rl_success_probability(2, 1) == pytest.approx(0.5)

    def test_large_field_k3(self):
        expected = 1.0
        for i in range(1, 4):
            expected *= 1.0 - 256.0 ** -i
        assert rl_success_probability(256, 3) == pytest.approx(expected)
        assert abs(rl_success_probability(256, 3) - 0.99608) < 5e-6

    def test_extra_receptions_help(self):
        assert rl_success_probability(2, 8, 12) > rl_success_probability(2, 8)

    def test_short_reception_impossible(self):
        assert rl_success_probability(2, 8, 7) == 0.0

    def test_large_field_dominates_binary(self):
        for k in range(1, 20):
            assert rl_success_probability(256, k) > rl_success_probability(2, k)
