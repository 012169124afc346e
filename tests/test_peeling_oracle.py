"""Differential oracle for LT peeling decoding.

`test_pinned_digest` hashes what `peel_decode` returns on 200 seeded small
systems (k <= 24, B <= 8): the block or the stall report (`undecoded`,
`pending_packets`, `decoded_count`), the decoder's `redundant_count` and
`packets_seen`, and all five operation counters.  The systems mix LT
`SeedDegree` packets with GF(2) random linear coefficient-vector packets,
and add duplicates, zero rows and rows that are the XOR of two others.
The digest was recorded before LT and raptor came to share one peeling
engine, so any change of result, stall or count shows up here.

The hypothesis property checks peeling against GF(2) Gaussian
elimination: a peeling success has GF(2) rank k and returns the block
`LinearDecoder` returns, and a stall accounts for every input as either
decoded or undecoded.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    SchemeId,
    packet_support,
)
from fountainkit.gf import GF2
from fountainkit.linalg import OpCounter
from fountainkit.lt import (
    LTEncoder,
    PeelingDecoder,
    ideal_soliton,
    peel_decode,
    regular_distribution,
)
from fountainkit.rl import RlConfig, RlEncoder, make_decoder

SYSTEMS = 200

#: SHA-256 of every record `_records` yields.
PINNED = "011170293e542142a147e09bee4f2a279c1e747cb7510c95446b44cc2e28becf"


def _counts(c: OpCounter) -> tuple:
    return (
        c.row_xor_count, c.row_scale_count, c.row_swap_count,
        c.symbol_mul_count, c.resolve_count,
    )


def _vector(p: CodedPacket) -> tuple[int, ...]:
    vec = [0] * p.k
    for i in packet_support(p):
        vec[i] = 1
    return tuple(vec)


def _rl_packet(k: int, vec, payload: bytes) -> CodedPacket:
    return CodedPacket(SchemeId.RL, k, len(payload), CoefficientVector(tuple(vec)), payload)


def _system(k, b, lt_share, degree, sparsity, seed, count, extras, rng):
    """(block, packets): `count` coded packets, each LT with probability
    `lt_share` (ideal Soliton, or regular of `degree` when it is nonzero)
    and GF(2) random linear otherwise, then `extras` duplicates, zero rows
    and XORs of two earlier packets inserted at random places."""
    block = InputBlock(tuple(rng.randbytes(b) for _ in range(k)))
    dist = regular_distribution(k, min(degree, k)) if degree else ideal_soliton(k)
    lt = LTEncoder(dist, block, seed)
    rl = RlEncoder(RlConfig(GF2, k, sparsity=sparsity, seed=seed ^ 0x5EED), block)
    packets = [
        (lt if rng.random() < lt_share else rl).next_packet() for _ in range(count)
    ]
    for _ in range(extras):
        roll = rng.random()
        if roll < 0.4:
            extra = rng.choice(packets)
        elif roll < 0.55:
            extra = _rl_packet(k, [0] * k, bytes(b))
        else:
            p, q = rng.choice(packets), rng.choice(packets)
            vec = [x ^ y for x, y in zip(_vector(p), _vector(q))]
            payload = bytes(x ^ y for x, y in zip(p.payload, q.payload))
            extra = _rl_packet(k, vec, payload)
        packets.insert(rng.randrange(len(packets) + 1), extra)
    return block, packets


def _records():
    rng = random.Random("peeling-oracle")
    for _ in range(SYSTEMS):
        k = rng.randint(1, 24)
        b = rng.randint(1, 8)
        _, packets = _system(
            k, b, rng.choice((1.0, 0.7, 0.0)), rng.choice((0, 0, 2, 3)),
            rng.choice((1.0, 0.3)), rng.getrandbits(32),
            rng.randint(max(1, k - 3), 2 * k + 6), rng.randint(0, 4), rng,
        )
        res = peel_decode(packets, k, b)
        dec = PeelingDecoder(k, b)
        for p in packets:
            dec.ingest(p)
        assert _counts(dec.counter) == _counts(res.counter)
        stall = res.stall
        yield (
            res.block.packets if res.success else None,
            (stall.undecoded, stall.pending_packets, stall.decoded_count)
            if stall else None,
            dec.redundant_count, dec.packets_seen, _counts(res.counter),
        )


def test_pinned_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
    assert h.hexdigest() == PINNED


@st.composite
def systems(draw):
    k = draw(st.integers(1, 12))
    params = (
        k, draw(st.integers(1, 4)), draw(st.sampled_from((1.0, 0.5, 0.0))),
        draw(st.sampled_from((0, 2, 3))), draw(st.sampled_from((1.0, 0.3))),
        draw(st.integers(0, 2**32)), draw(st.integers(1, 2 * k + 6)),
        draw(st.integers(0, 4)),
    )
    return k, params[1], _system(*params, random.Random(draw(st.integers(0, 2**32))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(systems())
def test_peeling_agrees_with_gf2_elimination(system):
    k, b, (block, packets) = system
    res = peel_decode(packets, k, b)
    linear = make_decoder(RlConfig(GF2, k), b)
    for p in packets:
        linear.ingest(_rl_packet(k, _vector(p), p.payload))
    if res.success:
        assert linear.status is DecodeStatus.DECODABLE
        assert res.block == linear.decode() == block
    else:
        stall = res.stall
        assert stall.decoded_count + len(stall.undecoded) == k
        assert stall.decoded_count < k
