"""Erasure-channel sessions: determinism, forced patterns, ARQ baseline."""

import random

import pytest

from fountainkit.bec import (
    ChannelSpec,
    Session,
    make_codec_session,
    run_arq_baseline,
)
from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    InputBlock,
    SchemeId,
)
from fountainkit.linalg import xor_bytes
from fountainkit.raptor import PrecodeSpec
from fountainkit.rl import rl_success_probability


def block(k, b=4, seed=0):
    rng = random.Random(seed)
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def xor_packet(indices, payload, k):
    coeffs = tuple(int(j in indices) for j in range(k))
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(coeffs), payload)


class TestChannelSpec:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ChannelSpec(-0.1, 1)
        with pytest.raises(ValueError):
            ChannelSpec(1.1, 1)
        with pytest.raises(ValueError):
            ChannelSpec(0.5, 0)

    def test_client_streams_are_prefix_stable(self):
        a = [s.next_u64() for s in ChannelSpec(0.1, 2, seed=9).client_streams()]
        b = [s.next_u64() for s in ChannelSpec(0.1, 4, seed=9).client_streams()]
        assert b[:2] == a


class TestCodedSessions:
    def test_lossless_exact_rate_schemes_finish_in_k(self):
        blk = block(8, seed=1)
        for scheme, kwargs in (("rl", {"field_order": 256}), ("triangular", {})):
            codec = make_codec_session(scheme, blk, seed=2, **kwargs)
            report = Session(codec, ChannelSpec(0.0, 3, seed=3)).run()
            assert report.all_decoded
            assert report.total_transmissions == 8
            assert report.mean_overhead() == 0.0

    def test_total_loss_hits_cap(self):
        blk = block(6, seed=2)
        codec = make_codec_session("lt", blk, seed=4)
        report = Session(codec, ChannelSpec(1.0, 1, seed=5)).run()
        assert not report.all_decoded
        assert report.total_transmissions == 60  # cap 10k
        assert report.failed_clients == (0,)

    def test_replay_is_bit_identical(self):
        blk = block(10, seed=3)
        reports = [
            Session(
                make_codec_session("raptor", blk, seed=6), ChannelSpec(0.25, 2, seed=7)
            ).run()
            for _ in range(2)
        ]
        a, b = reports
        assert a.total_transmissions == b.total_transmissions
        assert a.per_client_received == b.per_client_received
        assert a.per_client_useful == b.per_client_useful
        assert a.op_counter == b.op_counter

    def test_raptor_precode_defaults_to_the_spec_default(self):
        blk = block(40, seed=4)
        header = next(make_codec_session("raptor", blk, seed=9).stream_factory()).header
        default = PrecodeSpec.default(40, seed=9)
        assert (header.redundant_count, header.precode_seed) == (
            default.redundant_count, default.seed,
        )
        custom = make_codec_session("raptor", blk, seed=9, redundant_count=3)
        assert next(custom.stream_factory()).header.redundant_count == 3

    def test_every_scheme_survives_loss(self):
        blk = block(8, seed=4)
        for scheme in ("rs", "rl", "lt", "raptor", "triangular"):
            codec = make_codec_session(scheme, blk, seed=8, n=40)
            report = Session(codec, ChannelSpec(0.3, 2, seed=9)).run()
            assert report.all_decoded, scheme
            assert all(e is not None and e >= 0 for e in report.per_client_overhead)

    def test_rateless_schemes_terminate_under_cap(self):
        for seed in range(12):
            blk = block(6, b=1, seed=seed + 20)
            for scheme in ("rl", "lt", "raptor", "triangular"):
                codec = make_codec_session(scheme, blk, seed=seed)
                report = Session(codec, ChannelSpec(0.5, 1, seed=seed)).run()
                assert report.all_decoded, (scheme, seed)

    def test_fixed_rate_budget_exhaustion_flagged(self):
        blk = block(4, seed=5)
        codec = make_codec_session("rs", blk, seed=1, n=5)
        report = Session(codec, ChannelSpec(0.9, 1, seed=11)).run()
        assert not report.all_decoded
        assert report.fixed_rate_exhausted

    def test_rl_mean_receptions_tracks_rank_law(self):
        # Mean packets needed by one client over GF(256) should stay close
        # to k plus the expected surplus implied by the rank law.
        k, trials = 8, 300
        total = 0
        for t in range(trials):
            blk = block(k, b=1, seed=t)
            codec = make_codec_session("rl", blk, seed=t, field_order=256)
            report = Session(codec, ChannelSpec(0.0, 1, seed=t)).run()
            assert report.all_decoded
            total += report.per_client_useful[0]
        expected = k
        surplus = 0.0
        for extra in range(0, 10):
            surplus += 1.0 - rl_success_probability(256, k, k + extra)
        assert abs(total / trials - (expected + surplus)) < 0.1


class TestForcedPatterns:
    def test_all_receive_equals_lossless(self):
        blk = block(5, seed=6)
        codec = make_codec_session("rl", blk, seed=12, field_order=256)
        stochastic = Session(codec, ChannelSpec(0.0, 2, seed=13)).run()
        forced = Session(codec, ChannelSpec(0.5, 2, seed=13)).run(
            pattern=[[0, 1]] * 10,
        )
        assert forced.all_decoded
        assert forced.total_transmissions == stochastic.total_transmissions

    @pytest.mark.parametrize("kind", ["coded", "arq"])
    def test_pattern_too_short_is_an_error(self, kind):
        # Coded and ARQ sessions share the scripted draw and its check.
        blk = block(5, seed=7)
        channel = ChannelSpec(0.5, 2, seed=15)
        with pytest.raises(ValueError, match="shorter than the session"):
            if kind == "arq":
                run_arq_baseline(blk, channel, pattern=[[0, 1], [0, 1]])
            else:
                codec = make_codec_session("rl", blk, seed=14, field_order=2)
                Session(codec, channel).run(pattern=[[0, 1], [0, 1]])

    def test_crossover_coded_beats_arq(self):
        # Two clients each miss a different packet; one XOR packet repairs
        # both, the ARQ baseline resends each missing packet separately.
        blk = block(2, seed=8)
        c1, c2 = blk.packets
        arq = run_arq_baseline(
            blk, ChannelSpec(0.5, 2, seed=16),
            pattern=[[0], [1], [0, 1], [0, 1]],
        )
        assert arq.total_transmissions == 4
        assert arq.retransmissions == 2
        codec = make_codec_session("rl", blk, seed=17, field_order=2)
        codec.stream_factory = lambda: iter(
            [
                xor_packet({0}, c1, 2),
                xor_packet({1}, c2, 2),
                xor_packet({0, 1}, xor_bytes(c1, c2), 2),
            ]
        )
        coded = Session(codec, ChannelSpec(0.5, 2, seed=18)).run(
            pattern=[[0], [1], [0, 1]]
        )
        assert coded.all_decoded
        assert coded.retransmissions == 1


class TestArqBaseline:
    def test_lossless_single_client(self):
        blk = block(7, seed=9)
        report = run_arq_baseline(blk, ChannelSpec(0.0, 1, seed=19))
        assert report.total_transmissions == 7
        assert report.ack_frames == 7
        assert report.all_decoded

    def test_geometric_retransmission_count(self):
        # With one client, each packet needs Geometric(1-p) sends: the mean
        # transmissions per packet approach 1/(1-p).
        loss, k, trials = 0.3, 5, 10_000
        total = 0
        for t in range(trials):
            blk = block(k, b=1, seed=t)
            report = run_arq_baseline(blk, ChannelSpec(loss, 1, seed=t))
            assert report.all_decoded
            total += report.total_transmissions
        per_packet = total / (trials * k)
        assert abs(per_packet - 1 / (1 - loss)) / (1 / (1 - loss)) < 0.05

    def test_transmissions_non_decreasing_in_clients(self):
        # Per-client erasure streams are prefix-stable, so adding clients
        # can only add retransmissions at a fixed seed.
        for seed in range(30):
            blk = block(6, b=1, seed=seed)
            counts = [
                run_arq_baseline(blk, ChannelSpec(0.25, n, seed=seed)).total_transmissions
                for n in (1, 2, 4)
            ]
            assert counts[0] <= counts[1] <= counts[2]

    def test_lossy_acks_trigger_spurious_retransmissions(self):
        loss, k = 0.4, 6
        base = spurious = 0
        for seed in range(200):
            blk = block(k, b=1, seed=seed)
            base += run_arq_baseline(
                blk, ChannelSpec(loss, 1, seed=seed)
            ).total_transmissions
            spurious += run_arq_baseline(
                blk, ChannelSpec(loss, 1, seed=seed), lossy_acks=True
            ).total_transmissions
        assert spurious > base


class TestGf256CounterPins:
    """Exact operation counts of one seeded GF(256) session per scheme.

    The counters are semantic (one symbol multiplication per nonzero
    symbol scaled by a coefficient other than 1), so no change of row
    kernel may move them.
    """

    #: (row_xor, sym_mul, resolve, row_scale, row_swap), four clients summed.
    PINNED = {
        "rl": (948, 1041102, 64, 64, 0),
        "rs": (960, 923466, 64, 60, 0),
    }

    @pytest.mark.parametrize("scheme", sorted(PINNED))
    def test_session_counters(self, scheme):
        rng = random.Random(f"pin/{scheme}")
        data = rng.randbytes(16 * 1024)
        blk = InputBlock(tuple(data[i * 1024 : (i + 1) * 1024] for i in range(16)))
        codec = make_codec_session(scheme, blk, seed=rng.getrandbits(64))
        report = Session(codec, ChannelSpec(0.2, 4, seed=rng.getrandbits(64))).run()
        assert report.all_decoded
        c = report.op_counter
        counts = (
            c.row_xor_count, c.symbol_mul_count, c.resolve_count,
            c.row_scale_count, c.row_swap_count,
        )
        assert counts == self.PINNED[scheme]
