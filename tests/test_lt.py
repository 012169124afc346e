"""LT codec: Soliton shapes, encoder sampling, peeling decoder behavior."""

import math
import random

import pytest

from fountainkit import core
from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    SchemeId,
    SeedDegree,
    regenerate_neighbors,
)
from fountainkit.errors import PacketFormatError
from fountainkit.gf import GF2
from fountainkit.linalg import FieldMatrix, rank, xor_bytes
from fountainkit.lt import (
    LTEncoder,
    PeelingDecoder,
    custom_distribution,
    ideal_soliton,
    lt_overhead_trial,
    peel_decode,
    regular_distribution,
    robust_soliton,
)
from fountainkit.prng import SplitMix64
from fountainkit.wire import serialize


def block(k, b=3, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def xor_packet(indices, payload, k):
    coeffs = tuple(int(j in indices) for j in range(k))
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(coeffs), payload)


class TestDistributions:
    def test_ideal_k4_closed_form(self):
        pmf = ideal_soliton(4).pmf
        assert pmf == pytest.approx((1 / 4, 1 / 2, 1 / 6, 1 / 12), abs=1e-12)
        assert sum(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_k1(self):
        assert ideal_soliton(1).pmf == (1.0,)

    def test_robust_matches_direct_evaluation(self):
        k, c, delta = 100, 0.1, 0.5
        got = robust_soliton(k, c, delta).pmf
        s = c * math.log(k / delta) * math.sqrt(k)
        pivot = math.ceil(k / s)
        rho = [1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, k + 1)]
        tau = [0.0] * k
        for d in range(1, pivot):
            tau[d - 1] = s / (d * k)
        tau[pivot - 1] = s * math.log(s / delta) / k
        total = sum(rho) + sum(tau)
        expected = [(r + t) / total for r, t in zip(rho, tau)]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_robust_parameter_errors(self):
        with pytest.raises(ValueError):
            robust_soliton(2, 0.01, 0.5)  # S < 1
        with pytest.raises(ValueError):
            robust_soliton(100, -1.0, 0.5)
        with pytest.raises(ValueError):
            robust_soliton(100, 0.1, 1.5)

    def test_inverse_cdf_draws(self):
        dist = ideal_soliton(4)
        assert dist.sample_degree(0.74) == 2
        assert dist.sample_degree(0.1) == 1
        assert dist.sample_degree(0.25) == 1
        assert dist.sample_degree(0.76) == 3
        assert dist.sample_degree(0.999) == 4

    def test_regular_all_mass_on_one_degree(self):
        dist = regular_distribution(10, 3)
        assert dist.pmf[2] == 1.0
        assert dist.sample_degree(0.01) == 3
        assert dist.sample_degree(0.99) == 3

    def test_custom_must_normalize(self):
        with pytest.raises(ValueError):
            custom_distribution(2, [0.5, 0.4999])
        custom_distribution(2, [0.5, 0.5])

    def test_sampled_mean_tracks_pmf_mean(self):
        dist = robust_soliton(100, 0.1, 0.5)
        rng = SplitMix64(77)
        n = 100_000
        total = sum(dist.sample_degree(rng.next_float()) for _ in range(n))
        assert abs(total / n - dist.mean()) / dist.mean() < 0.01


class TestEncoder:
    def test_full_degree_packet_is_xor_of_all(self):
        blk = block(4, seed=1)
        enc = LTEncoder(regular_distribution(4, 4), blk, seed=5)
        p = enc.next_packet()
        acc = bytes(blk.packet_len)
        for src in blk.packets:
            acc = bytes(a ^ b for a, b in zip(acc, src))
        assert p.payload == acc
        assert p.header.degree == 4

    def test_header_regenerates_neighbor_set(self):
        blk = block(12, seed=2)
        enc = LTEncoder(robust_soliton(12, 0.2, 0.5), blk, seed=9)
        for _ in range(30):
            p = enc.next_packet()
            nbrs = regenerate_neighbors(p.header.seed, p.header.degree, 12)
            acc = bytes(blk.packet_len)
            for i in nbrs:
                acc = bytes(a ^ b for a, b in zip(acc, blk.packets[i]))
            assert acc == p.payload

    def test_stream_replay_identical(self):
        blk = block(8, seed=3)
        dist = robust_soliton(8, 0.3, 0.5)
        first = [serialize(LTEncoder(dist, blk, seed=4).next_packet()) for _ in range(1)]
        enc_a = LTEncoder(dist, blk, seed=4)
        enc_b = LTEncoder(dist, blk, seed=4)
        for _ in range(40):
            assert serialize(enc_a.next_packet()) == serialize(enc_b.next_packet())
        assert serialize(LTEncoder(dist, blk, seed=4).next_packet()) == first[0]


class TestPeeling:
    def test_two_step_chain(self):
        blk = block(2, seed=4)
        x1 = blk.packets[0]
        x2 = bytes(a ^ b for a, b in zip(*blk.packets))
        result = peel_decode(
            [xor_packet({0}, x1, 2), xor_packet({0, 1}, x2, 2)], 2, blk.packet_len
        )
        assert result.success
        assert result.block == blk

    def test_single_pair_stalls(self):
        result = peel_decode([xor_packet({0, 1}, b"\x07", 2)], 2, 1)
        assert not result.success
        assert result.stall.undecoded == (0, 1)

    def test_worked_full_rank_set_stalls(self):
        # x1=c1+c2, x2=c2+c3, x3=c1+c2+c3 has rank 3 yet no degree-1 packet:
        # elimination would decode it, peeling cannot start.
        blk = block(3, seed=5)
        c1, c2, c3 = blk.packets
        pkts = [
            xor_packet({0, 1}, bytes(a ^ b for a, b in zip(c1, c2)), 3),
            xor_packet({1, 2}, bytes(a ^ b for a, b in zip(c2, c3)), 3),
            xor_packet({0, 1, 2}, bytes(a ^ b ^ c for a, b, c in zip(c1, c2, c3)), 3),
        ]
        result = peel_decode(pkts, 3, blk.packet_len)
        assert not result.success
        assert result.stall.undecoded == (0, 1, 2)
        m = FieldMatrix.from_rows(GF2, [[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        assert rank(m) == 3

    def test_success_implies_full_rank(self):
        rng = random.Random(6)
        successes = 0
        for trial in range(200):
            k = rng.randrange(2, 13)
            blk = block(k, b=1, seed=trial)
            rows = []
            pkts = []
            for _ in range(k + rng.randrange(0, 4)):
                deg = rng.randrange(1, k + 1)
                idx = set(rng.sample(range(k), deg))
                payload = bytes(blk.packet_len)
                for i in idx:
                    payload = bytes(a ^ b for a, b in zip(payload, blk.packets[i]))
                pkts.append(xor_packet(idx, payload, k))
                rows.append([int(j in idx) for j in range(k)])
            result = peel_decode(pkts, k, blk.packet_len)
            if result.success:
                successes += 1
                assert result.block == blk
                assert rank(FieldMatrix.from_rows(GF2, rows)) == k
        assert successes > 0

    def test_xor_only_op_counts(self):
        blk = block(6, seed=7)
        enc = LTEncoder(robust_soliton(6, 0.2, 0.5), blk, seed=8)
        dec = PeelingDecoder(6, blk.packet_len)
        while dec.status is DecodeStatus.NEEDS_MORE:
            dec.ingest(enc.next_packet())
        assert dec.decode() == blk
        assert dec.counter.row_xor_count > 0
        assert dec.counter.row_scale_count == 0
        assert dec.counter.symbol_mul_count == 0

    def test_decoded_packets_bit_identical(self):
        for seed in range(10):
            blk = block(10, b=5, seed=seed + 50)
            enc = LTEncoder(robust_soliton(10, 0.2, 0.5), blk, seed=seed)
            dec = PeelingDecoder(10, blk.packet_len)
            while dec.status is DecodeStatus.NEEDS_MORE:
                dec.ingest(enc.next_packet())
            assert dec.decode() == blk

    def _decoded(self, k, b, seed):
        blk = block(k, b, seed=seed)
        enc = LTEncoder(robust_soliton(k, 0.1, 0.5), blk, seed=seed)
        dec = PeelingDecoder(k, b)
        while dec.status is DecodeStatus.NEEDS_MORE:
            dec.ingest(enc.next_packet())
        return blk, enc, dec

    def test_late_packets_draw_no_neighbours(self, monkeypatch):
        blk, enc, dec = self._decoded(64, 2, seed=60)
        late = [enc.next_packet() for _ in range(5)]
        redundant, seen = dec.redundant_count, dec.packets_seen
        draws = []
        original = core.regenerate_neighbors
        monkeypatch.setattr(
            core, "regenerate_neighbors", lambda *a: draws.append(a) or original(*a)
        )
        for p in late:
            assert dec.ingest(p) is DecodeStatus.DECODABLE
        assert draws == []
        assert dec.redundant_count == redundant + 5
        assert dec.packets_seen == seen + 5
        assert dec.decode() == blk

    @pytest.mark.parametrize("degree", [0, 65])
    def test_late_packet_degree_still_checked(self, degree):
        _, _, dec = self._decoded(64, 2, seed=61)
        redundant, seen = dec.redundant_count, dec.packets_seen
        bad = CodedPacket(SchemeId.LT, 64, 2, SeedDegree(7, degree), bytes(2))
        with pytest.raises(PacketFormatError):
            dec.ingest(bad)
        assert (dec.redundant_count, dec.packets_seen) == (redundant, seen)


    @pytest.mark.parametrize("length", [3, 5])
    def test_vector_of_another_length_refused(self, length):
        # A k = 4 decoder refuses a GF(2) vector of 3 or 5 entries and is
        # left as it was: a shorter vector is no packet over the first
        # inputs, and a longer one raises no IndexError.
        blk = block(4, b=1, seed=62)
        dec = PeelingDecoder(4, 1)
        dec.ingest(xor_packet({0, 1}, xor_bytes(blk.packets[0], blk.packets[1]), 4))
        before = (dec.packets_seen, dec.redundant_count, dec.decoded_count, dec.counter)
        bad = CodedPacket(SchemeId.RL, 4, 1, CoefficientVector((1,) * length), bytes(1))
        with pytest.raises(PacketFormatError, match="entries"):
            dec.ingest(bad)
        assert (dec.packets_seen, dec.redundant_count, dec.decoded_count, dec.counter) == before
        for i in range(4):
            dec.ingest(xor_packet({i}, blk.packets[i], 4))
        assert dec.decode() == blk


class TestOverheadTrials:
    def test_k1_no_overhead(self):
        t = lt_overhead_trial(ideal_soliton(1), seed=1)
        assert t.consumed == 1
        assert t.overhead == 0.0
        assert not t.aborted

    def test_unpeelable_distribution_hits_cap(self):
        # Fixed degree 4 of 4 never yields a degree-1 packet.
        t = lt_overhead_trial(regular_distribution(4, 4), seed=2)
        assert t.aborted
        assert t.consumed == 40

    def test_small_k_overhead_is_high(self):
        dist = robust_soliton(20, 0.1, 0.5)
        trials = [lt_overhead_trial(dist, seed=s) for s in range(60)]
        mean = sum(t.overhead for t in trials) / len(trials)
        assert all(not t.aborted for t in trials)
        assert mean >= 0.20


class TestRegularGraph:
    def test_regular_three_stream_classification(self):
        blk = block(9, seed=8)
        enc = LTEncoder(regular_distribution(9, 3), blk, seed=10)
        packets = [enc.next_packet() for _ in range(15)]
        assert {p.header.degree for p in packets} == {3}
