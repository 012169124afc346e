"""Acceptance suite: one test per release criterion, in order.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Monte-Carlo criteria run on frozen master seeds, so every
number below is a deterministic regression value.
"""

import itertools
import math
import random
import time

from fountainkit.bec import ChannelSpec, Session, make_codec_session, run_arq_baseline
from fountainkit.cli import main as cli_main
from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    LinearDecoder,
    SchemeId,
)
from fountainkit.gf import GF2, GF256
from fountainkit.linalg import FieldMatrix, OpCounter, back_substitute, invert, rank, solve, xor_bytes
from fountainkit.lt import custom_distribution, lt_overhead_trial, peel_decode, robust_soliton
from fountainkit.prng import SplitMix64
from fountainkit.raptor import (
    PrecodeSpec,
    RaptorEncoder,
    dense_ge_decode,
    inactivation_decode,
)
from fountainkit.rl import RlConfig, RlEncoder, rl_success_probability
from fountainkit.rs import VandermondeSpec, rs_decode, rs_encode
from fountainkit.triangular import (
    BitSubstitutionDecoder,
    ShiftVector,
    tri_decode,
    tri_encode,
    tri_plan_shifts,
)

WORKED_MATRIX = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
WORKED_INVERSE = [[0, 1, 1], [1, 1, 1], [1, 0, 1]]


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n:2d}: {text}")


def _random_block(k: int, b: int, rng) -> InputBlock:
    return InputBlock(tuple(bytes(rng.randrange(256) for _ in range(b)) for _ in range(k)))


def xor_packet(indices, payload, k):
    coeffs = tuple(int(j in indices) for j in range(k))
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(coeffs), payload)


def test_criterion_01_worked_binary_inversion():
    m = FieldMatrix.from_rows(GF2, WORKED_MATRIX)
    rng = random.Random(1)
    c = [bytes(rng.randrange(256) for _ in range(4)) for _ in range(3)]
    x1 = xor_bytes(c[0], c[1])
    x2 = xor_bytes(c[1], c[2])
    x3 = xor_bytes(xor_bytes(c[0], c[1]), c[2])

    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        inverse = invert(m)
        decoded = solve(m, [x1, x2, x3])
        best = min(best, time.perf_counter() - start)

    assert inverse.to_rows() == WORKED_INVERSE
    assert decoded[0] == xor_bytes(x2, x3)
    assert decoded[1] == xor_bytes(x1, xor_bytes(x2, x3))
    assert decoded[2] == xor_bytes(x1, x3)
    assert decoded == c
    assert best < 1e-3
    _report(1, f"worked 3x3 inversion exact, {best * 1e6:.0f} us")


def test_criterion_02_vandermonde_every_subset_decodes():
    rng = random.Random(2)
    subsets = 0
    for k in range(1, 7):
        for n in range(k, 11):
            blk = _random_block(k, 2, rng)
            vspec = VandermondeSpec.default(k, n)
            packets = rs_encode(blk, vspec)
            for subset in itertools.combinations(range(n), k):
                assert rs_decode([packets[i] for i in subset], vspec) == blk
                subsets += 1
    _report(2, f"all {subsets} k-subsets (k<=6, n<=10) decoded exactly")


def test_criterion_03_back_substitution_step_counts():
    for k in (2, 4, 8, 16):
        u = FieldMatrix.from_rows(GF2, [[0] * i + [1] * (k - i) for i in range(k)])
        counter = OpCounter()
        back_substitute(u, [bytes([i]) for i in range(k)], counter)
        assert counter.elementary_steps == k * (k + 1) // 2
        assert counter.row_xor_count == k * (k + 1) // 2 - k
        assert counter.resolve_count == k
    _report(3, "dense triangular back-substitution costs exactly k(k+1)/2 steps")


def test_criterion_04_random_linear_rank_law():
    # Exhaustive census at (q=2, k=3): 168 of 512 binary 3x3 matrices.
    full = sum(
        1
        for packed in range(512)
        if rank(
            FieldMatrix.from_rows(
                GF2, [[(packed >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            )
        )
        == 3
    )
    assert full == 168
    assert rl_success_probability(2, 3) == 168 / 512 == 0.328125

    trials = 10_000
    measured = {}
    for q, k in ((2, 8), (2, 16), (256, 8)):
        spec = GF2 if q == 2 else GF256
        blk = _random_block(k, 1, random.Random(k * q))
        rng = SplitMix64(9000 + q + k)
        successes = 0
        for t in range(trials):
            enc = RlEncoder(RlConfig(spec, k, seed=rng.next_u64()), blk)
            packets = [enc.next_packet() for _ in range(k)]
            vectors = [p.header.coefficients for p in packets]
            full_rank = rank(FieldMatrix.from_rows(spec, vectors)) == k
            if full_rank:
                successes += 1
            if t % 500 == 0:
                # Spot-check that full rank is exactly decode success.
                dec = LinearDecoder(spec, k, 1, SchemeId.RL, lambda p: p.header.coefficients)
                for p in packets:
                    dec.ingest(p)
                assert (dec.status is DecodeStatus.DECODABLE) == full_rank
                if full_rank:
                    assert dec.decode() == blk
        freq = successes / trials
        law = rl_success_probability(q, k)
        assert abs(freq - law) <= 0.02, (q, k, freq, law)
        measured[(q, k)] = (freq, law)
    _report(4, "decode-success matches the rank law within 0.02: " + ", ".join(
        f"q={q},k={k}: {f:.4f} vs {l:.4f}" for (q, k), (f, l) in measured.items()
    ))


def test_criterion_05_lt_finite_length_overhead():
    small = robust_soliton(20, 0.1, 0.5)
    small_trials = [lt_overhead_trial(small, seed=s) for s in range(1000)]
    small_mean = sum(t.overhead for t in small_trials) / len(small_trials)
    assert small_mean >= 0.20

    large = robust_soliton(10_000, 0.03, 0.5)
    large_trials = [lt_overhead_trial(large, seed=s) for s in range(100)]
    assert not any(t.aborted for t in large_trials)
    large_mean = sum(t.overhead for t in large_trials) / len(large_trials)
    assert large_mean <= 0.08
    _report(
        5,
        f"LT overhead mean {small_mean:.3f} at k=20 (>=0.20), "
        f"{large_mean:.4f} at k=10000 (<=0.08)",
    )


def test_criterion_06_peeling_success_implies_full_rank():
    rng = random.Random(6)
    stalled_full_rank = 0
    successes = 0
    for trial in range(1000):
        k = rng.randrange(2, 13)
        blk = _random_block(k, 1, rng)
        rows = []
        packets = []
        for _ in range(k + rng.randrange(0, 4)):
            degree = rng.randrange(1, k + 1)
            idx = set(rng.sample(range(k), degree))
            payload = bytes(blk.packet_len)
            for i in idx:
                payload = xor_bytes(payload, blk.packets[i])
            packets.append(xor_packet(idx, payload, k))
            rows.append([int(j in idx) for j in range(k)])
        result = peel_decode(packets, k, blk.packet_len)
        full_rank = rank(FieldMatrix.from_rows(GF2, rows)) == k
        if result.success:
            successes += 1
            assert result.block == blk
            assert full_rank
        elif full_rank:
            stalled_full_rank += 1

    # Forced witness: the worked x1, x2, x3 set has rank 3 yet stalls.
    blk = _random_block(3, 2, rng)
    c1, c2, c3 = blk.packets
    witness = [
        xor_packet({0, 1}, xor_bytes(c1, c2), 3),
        xor_packet({1, 2}, xor_bytes(c2, c3), 3),
        xor_packet({0, 1, 2}, xor_bytes(xor_bytes(c1, c2), c3), 3),
    ]
    result = peel_decode(witness, 3, blk.packet_len)
    assert not result.success
    assert rank(FieldMatrix.from_rows(GF2, WORKED_MATRIX)) == 3
    stalled_full_rank += 1
    assert successes > 0
    assert stalled_full_rank >= 1
    _report(
        6,
        f"{successes} peeling successes all full-rank; "
        f"{stalled_full_rank} full-rank stalls observed",
    )


def test_criterion_07_inactivation_cost_bounded_by_dense_ge():
    rng = SplitMix64(424242)
    successes = strict = attempts = 0
    while successes < 500:
        attempts += 1
        assert attempts < 900
        seed = rng.next_u64()
        srng = SplitMix64(seed)
        k = 8 + srng.next_below(57)
        j = srng.next_below(7)
        w = 1 + srng.next_below(3)
        blk = InputBlock(
            tuple(bytes(srng.next_below(256) for _ in range(2)) for _ in range(k))
        )
        spec = PrecodeSpec(k=k, redundant_count=j, row_weight=min(w, k), seed=seed)
        dist = robust_soliton(spec.intermediate_count, 0.2, 0.5)
        enc = RaptorEncoder(blk, dist, spec, seed=seed ^ 0x5EED)
        packets = [enc.next_packet() for _ in range(int(1.4 * k) + 4)]
        c_inact, c_dense = OpCounter(), OpCounter()
        result = inactivation_decode(packets, counter=c_inact)
        dense = dense_ge_decode(packets, counter=c_dense)
        assert result.success == (dense is not None)
        if not result.success:
            continue
        assert result.block == dense == blk
        successes += 1
        assert c_inact.row_xor_count <= c_dense.row_xor_count
        if c_inact.row_xor_count < c_dense.row_xor_count:
            strict += 1
    assert strict / successes >= 0.90
    _report(
        7,
        f"inactivation row_xor <= dense GE in all {successes} trials, "
        f"strictly fewer in {strict / successes:.1%}",
    )


def _raptor_acceptance_distribution(m: int):
    # Robust Soliton body with 12% of the mass moved to two dense degrees,
    # which buys the rank margin a 7-equation surplus allows.
    base = robust_soliton(m, 0.1, 0.5)
    pmf = [p * 0.88 for p in base.pmf]
    pmf[m // 2 - 1] += 0.08
    pmf[(3 * m) // 4 - 1] += 0.04
    return custom_distribution(m, pmf)


def test_criterion_08_raptor_coverage_regression():
    k, j, row_weight = 64, 8, 32
    received = math.ceil(1.1 * k)
    trials = 200
    rng = SplitMix64(11)  # frozen master seed; baseline 199/200
    successes = 0
    for _ in range(trials):
        seed = rng.next_u64()
        srng = SplitMix64(seed)
        blk = InputBlock(
            tuple(bytes(srng.next_below(256) for _ in range(1)) for _ in range(k))
        )
        spec = PrecodeSpec(k=k, redundant_count=j, row_weight=row_weight, seed=seed)
        dist = _raptor_acceptance_distribution(spec.intermediate_count)
        enc = RaptorEncoder(blk, dist, spec, seed=seed ^ 0xABCD)
        packets = [enc.next_packet() for _ in range(received)]
        result = inactivation_decode(packets)
        if result.success and result.block == blk:
            successes += 1
    assert successes / trials >= 0.99
    _report(8, f"raptor k=64 j=8 at 10% overhead decoded {successes}/{trials}")


def test_criterion_09_triangular_beats_binary_coding():
    rng = random.Random(9)
    blk = _random_block(2, 1, rng)
    c1, c2 = blk.packets

    # No nonzero binary combination of {c1, c2} is innovative for all
    # three clients at once.
    held_vectors = {0: (1, 0), 1: (0, 1), 2: (1, 1)}
    for combo in ((1, 0), (0, 1), (1, 1)):
        innovative_for_all = True
        for client, held in held_vectors.items():
            m = FieldMatrix.from_rows(GF2, [list(held), list(combo)])
            if rank(m) < 2:
                innovative_for_all = False
        assert not innovative_for_all

    # The shifted packet c1 + 2*c2 is new information for everyone.
    held_packets = {
        0: tri_encode(blk, ShiftVector((0,), (0,))),
        1: tri_encode(blk, ShiftVector((1,), (0,))),
        2: tri_encode(blk, ShiftVector((0, 1), (0, 0))),
    }
    shifted = tri_encode(blk, ShiftVector((0, 1), (0, 1)))

    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        results = [
            tri_decode([held_packets[i], shifted], 2, blk.packet_len)
            for i in range(3)
        ]
        best = min(best, time.perf_counter() - start)
    for result in results:
        assert result.success
        assert result.block == blk
    assert best < 1e-3
    _report(9, f"one shifted packet completes all three clients, {best * 1e6:.0f} us")


def test_criterion_10_triangular_purity_and_round_trip():
    rng = random.Random(10)
    exact_k_successes = 0
    for trial in range(1000):
        k = rng.randrange(2, 17)
        b = rng.randrange(1, 4)
        blk = _random_block(k, b, rng)
        plans = tri_plan_shifts(k, 6 * k + 3, seed=trial)
        packets = [tri_encode(blk, sv) for sv in plans]
        for p in packets[: k + 3]:
            assert (len(p.payload) - b) * 8 <= ((k - 1 + 7) // 8) * 8
            assert max(s for s in p.header.slots if s is not None) <= k - 1
        dropped = set(rng.sample(range(k + 3), 3))
        survivors = [p for i, p in enumerate(packets[: k + 3]) if i not in dropped]
        decoder = BitSubstitutionDecoder(k, b)
        for p in survivors:
            decoder.ingest(p)
        if decoder.status is not DecodeStatus.NEEDS_MORE:
            exact_k_successes += 1
        extra = k + 3
        while decoder.status is DecodeStatus.NEEDS_MORE:
            decoder.ingest(packets[extra])
            extra += 1
        assert decoder.decode() == blk
        assert decoder.counter.symbol_mul_count == 0
        assert decoder.counter.row_scale_count == 0
    # Planned vectors decode from exactly k survivors far more often than
    # binary random linear coding would; stalls continue the fountain.
    assert exact_k_successes / 1000 >= 0.33
    _report(
        10,
        f"1000 round trips exact and multiplication-free; "
        f"{exact_k_successes / 1000:.1%} decoded from exactly k packets",
    )


def test_criterion_11_single_coded_retransmission():
    rng = random.Random(11)
    blk = _random_block(2, 4, rng)
    c1, c2 = blk.packets
    arq = run_arq_baseline(
        blk, ChannelSpec(0.5, 2, seed=1), pattern=[[0], [1], [0, 1], [0, 1]]
    )
    assert arq.total_transmissions == 4
    assert arq.retransmissions == 2

    codec = make_codec_session("rl", blk, seed=1, field_order=2)
    codec.stream_factory = lambda: iter(
        [
            xor_packet({0}, c1, 2),
            xor_packet({1}, c2, 2),
            xor_packet({0, 1}, xor_bytes(c1, c2), 2),
        ]
    )
    coded = Session(codec, ChannelSpec(0.5, 2, seed=1)).run(
        pattern=[[0], [1], [0, 1]]
    )
    assert coded.all_decoded
    assert coded.retransmissions == 1
    _report(11, "crossover repair: ARQ retransmits 2 frames, coded needs 1")


def test_criterion_12_bench_csv_determinism(tmp_path):
    argv = [
        "bench", "--schemes", "rl", "lt", "--k-values", "8", "16",
        "--loss", "0.0", "0.2", "--trials", "3", "--seed", "77",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(argv + ["--output", str(out_a)]) == 0
    assert cli_main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_bytes().splitlines()) == 9  # header + 8 rows
    _report(12, "bench CSV byte-identical across runs at a fixed seed")
