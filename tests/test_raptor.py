"""Raptor codec: precode, LT stage over the intermediate block, inactivation."""

import dataclasses
import random

import pytest

from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    SchemeId,
    regenerate_neighbors,
)
from fountainkit.errors import PacketFormatError, SchemeMismatchError
from fountainkit.linalg import OpCounter, xor_bytes
from fountainkit.lt import LTEncoder, robust_soliton
from fountainkit.raptor import (
    PrecodeSpec,
    RaptorDecoder,
    RaptorEncoder,
    dense_ge_decode,
    inactivation_decode,
    parity_sources,
    precode,
)
from fountainkit.wire import serialize


def block(k, b=4, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def xor_packet(indices, payload, k):
    coeffs = tuple(int(j in indices) for j in range(k))
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(coeffs), payload)


class TestPrecode:
    def test_degenerate_precode_is_identity(self):
        blk = block(4)
        spec = PrecodeSpec(k=4, redundant_count=0, row_weight=1)
        assert precode(blk, spec) == blk.packets

    def test_only_weight_two_choice(self):
        blk = block(2, seed=1)
        spec = PrecodeSpec(k=2, redundant_count=1, row_weight=2, seed=3)
        inter = precode(blk, spec)
        assert inter[2] == xor_bytes(*blk.packets)

    def test_replay_deterministic(self):
        blk = block(10, seed=2)
        spec = PrecodeSpec(k=10, redundant_count=4, row_weight=3, seed=7)
        assert precode(blk, spec) == precode(blk, spec)
        assert parity_sources(spec) == parity_sources(spec)

    def test_default_sizing(self):
        spec = PrecodeSpec.default(64)
        assert spec.redundant_count == 8  # ceil(0.05 * 64) + 4
        assert spec.row_weight == 3
        assert PrecodeSpec.default(2).row_weight == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecodeSpec(k=4, redundant_count=1, row_weight=0)
        with pytest.raises(ValueError):
            PrecodeSpec(k=4, redundant_count=1, row_weight=5)
        with pytest.raises(ValueError):
            PrecodeSpec(k=4, redundant_count=-1, row_weight=2)


class TestEncoder:
    def _encoder(self, k=6, j=2, seed=5, block_seed=3):
        blk = block(k, seed=block_seed)
        spec = PrecodeSpec(k=k, redundant_count=j, row_weight=2, seed=seed)
        dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
        return blk, spec, RaptorEncoder(blk, dist, spec, seed=seed + 1)

    def test_degree_one_packets_expose_intermediates(self):
        blk, spec, enc = self._encoder()
        inter = precode(blk, spec)
        hit_input = hit_parity = False
        for _ in range(300):
            p = enc.next_packet()
            if p.header.degree != 1:
                continue
            (idx,) = regenerate_neighbors(p.header.seed, 1, spec.intermediate_count)
            assert p.payload == inter[idx]
            if idx < spec.k:
                hit_input = True
            else:
                hit_parity = True
        assert hit_input and hit_parity

    def test_header_carries_precode_parameters(self):
        _, spec, enc = self._encoder()
        h = enc.next_packet().header
        assert (h.precode_seed, h.redundant_count, h.row_weight) == (
            spec.seed, spec.redundant_count, spec.row_weight,
        )

    def test_stream_replay(self):
        blk, spec, _ = self._encoder()
        dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
        a = RaptorEncoder(blk, dist, spec, seed=9)
        b = RaptorEncoder(blk, dist, spec, seed=9)
        for _ in range(40):
            assert serialize(a.next_packet()) == serialize(b.next_packet())


class TestInactivation:
    def test_peelable_stream_needs_no_inactivation(self):
        blk = block(3, seed=4)
        c1, c2, c3 = blk.packets
        pkts = [
            xor_packet({0}, c1, 3),
            xor_packet({0, 1}, xor_bytes(c1, c2), 3),
            xor_packet({1, 2}, xor_bytes(c2, c3), 3),
        ]
        spec = PrecodeSpec(k=3, redundant_count=0, row_weight=1)
        res = inactivation_decode(pkts, spec)
        assert res.success
        assert res.block == blk
        assert res.inactivated == ()
        assert res.core_size == 0

    def test_worked_stalled_set_needs_one_inactivation(self):
        # Rank-3 set with no degree-1 packet: one inactivation unlocks it.
        blk = block(3, seed=5)
        c1, c2, c3 = blk.packets
        pkts = [
            xor_packet({0, 1}, xor_bytes(c1, c2), 3),
            xor_packet({1, 2}, xor_bytes(c2, c3), 3),
            xor_packet({0, 1, 2}, xor_bytes(xor_bytes(c1, c2), c3), 3),
        ]
        spec = PrecodeSpec(k=3, redundant_count=0, row_weight=1)
        res = inactivation_decode(pkts, spec)
        assert res.success
        assert res.block == blk
        assert len(res.inactivated) == 1
        assert res.core_size == 1

    def test_insufficient_packets_fail_with_rank(self):
        blk = block(4, seed=6)
        pkts = [xor_packet({0, 1}, xor_bytes(blk.packets[0], blk.packets[1]), 4)]
        spec = PrecodeSpec(k=4, redundant_count=0, row_weight=1)
        res = inactivation_decode(pkts, spec)
        assert not res.success
        assert res.block is None
        assert res.rank < 4

    def test_round_trip_through_real_streams(self):
        rng = random.Random(7)
        for trial in range(30):
            k = rng.randrange(4, 24)
            blk = block(k, b=3, seed=trial)
            spec = PrecodeSpec(
                k=k,
                redundant_count=rng.randrange(0, 4),
                row_weight=rng.randrange(1, min(k, 4)),
                seed=trial,
            )
            dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
            enc = RaptorEncoder(blk, dist, spec, seed=trial * 13 + 1)
            pkts = [enc.next_packet() for _ in range(int(1.6 * k) + 6)]
            res = inactivation_decode(pkts)
            if res.success:
                assert res.block == blk

    def test_matches_dense_ge_and_costs_less(self):
        rng = random.Random(8)
        wins = comparisons = 0
        for trial in range(60):
            k = rng.randrange(8, 40)
            blk = block(k, b=2, seed=trial + 100)
            spec = PrecodeSpec(k=k, redundant_count=4, row_weight=3, seed=trial)
            dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
            enc = RaptorEncoder(blk, dist, spec, seed=trial)
            pkts = [enc.next_packet() for _ in range(int(1.4 * k) + 4)]
            c_inact = OpCounter()
            c_dense = OpCounter()
            res = inactivation_decode(pkts, counter=c_inact)
            dense = dense_ge_decode(pkts, counter=c_dense)
            assert res.success == (dense is not None)
            if not res.success:
                continue
            comparisons += 1
            assert res.block == dense == blk
            assert c_inact.row_xor_count <= c_dense.row_xor_count
            if c_inact.row_xor_count < c_dense.row_xor_count:
                wins += 1
        assert comparisons >= 40
        assert wins / comparisons >= 0.9

    def test_inactivation_bounded_by_core_and_received(self):
        rng = random.Random(9)
        for trial in range(20):
            k = rng.randrange(6, 30)
            blk = block(k, b=2, seed=trial + 200)
            spec = PrecodeSpec(k=k, redundant_count=3, row_weight=2, seed=trial)
            dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
            enc = RaptorEncoder(blk, dist, spec, seed=trial + 5)
            pkts = [enc.next_packet() for _ in range(int(1.5 * k) + 4)]
            res = inactivation_decode(pkts)
            assert len(res.inactivated) == res.core_size
            assert res.core_size <= len(pkts)

    def test_precode_reduces_never_selected_inputs(self):
        # Fraction of inputs absent from every equation of a short stream:
        # the parity rows protect inputs the LT stage never samples.
        k, n_packets, trials = 40, 44, 50
        raptor_uncovered = lt_uncovered = 0
        for trial in range(trials):
            spec = PrecodeSpec(k=k, redundant_count=6, row_weight=3, seed=trial)
            blk = block(k, b=1, seed=trial)
            renc = RaptorEncoder(
                blk, robust_soliton(spec.intermediate_count, 0.1, 0.5), spec,
                seed=trial * 3,
            )
            lenc = LTEncoder(robust_soliton(k, 0.1, 0.5), blk, seed=trial * 3 + 1)
            covered_r: set[int] = set()
            for srcs in parity_sources(spec):
                covered_r.update(srcs)
            covered_l: set[int] = set()
            for _ in range(n_packets):
                p = renc.next_packet()
                covered_r.update(
                    i
                    for i in regenerate_neighbors(
                        p.header.seed, p.header.degree, spec.intermediate_count
                    )
                    if i < k
                )
                q = lenc.next_packet()
                covered_l.update(
                    regenerate_neighbors(q.header.seed, q.header.degree, k)
                )
            raptor_uncovered += k - len(covered_r)
            lt_uncovered += k - len(covered_l)
        assert raptor_uncovered < lt_uncovered


class TestDecoderPrecodeHeaders:
    def _packets(self, precode_seed):
        spec = PrecodeSpec(k=12, redundant_count=5, row_weight=3, seed=precode_seed)
        dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
        enc = RaptorEncoder(block(12), dist, spec, seed=4)
        return [enc.next_packet() for _ in range(2)]

    def test_later_packet_with_other_precode_refused(self):
        dec = RaptorDecoder(12, 4)
        dec.ingest(self._packets(precode_seed=1)[0])
        with pytest.raises(SchemeMismatchError, match="precode"):
            dec.ingest(self._packets(precode_seed=2)[1])

    @pytest.mark.parametrize("length", [12, 12 + 5 + 1])
    def test_later_packet_without_precode_header_refused(self, length):
        # A coefficient vector of length k would be peeled over the
        # intermediate slots; a longer one would index past them.
        first, second = self._packets(precode_seed=1)
        dec = RaptorDecoder(12, 4)
        dec.ingest(first)
        counter = dataclasses.replace(dec.counter)
        header = CoefficientVector(tuple(j % 2 for j in range(length)))
        with pytest.raises(SchemeMismatchError, match="precode"):
            dec.ingest(dataclasses.replace(second, header=header))
        assert (dec.packets_seen, dec.counter) == (1, counter)

    def test_refused_first_packet_fixes_no_precode(self):
        # A degree-0 first packet of a stream with precode seed 1 is
        # refused, so the stream with precode seed 2 that follows decodes
        # to its own block.
        def encoder(precode_seed):
            spec = PrecodeSpec.default(16, precode_seed)
            dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
            return RaptorEncoder(block(16, seed=precode_seed), dist, spec, seed=5)

        first = encoder(1).next_packet()
        bad = dataclasses.replace(first, header=dataclasses.replace(first.header, degree=0))
        dec = RaptorDecoder(16, 4)
        with pytest.raises(PacketFormatError, match="degree"):
            dec.ingest(bad)
        enc = encoder(2)
        while dec.status is DecodeStatus.NEEDS_MORE:
            dec.ingest(enc.next_packet())
        assert dec.decode() == block(16, seed=2)

    def test_impossible_precode_header_is_format_error(self):
        p = self._packets(precode_seed=1)[0]
        bad = dataclasses.replace(p, header=dataclasses.replace(p.header, row_weight=13))
        with pytest.raises(PacketFormatError, match="precode"):
            RaptorDecoder(12, 4).ingest(bad)
