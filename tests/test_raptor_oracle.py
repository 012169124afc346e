"""Differential oracle for raptor inactivation decoding.

`test_pinned_digest` hashes the blocks, inactivated unknowns, core sizes,
ranks and operation counters of batch `inactivation_decode` on 200 seeded
small systems (k <= 24, B <= 8, with duplicate packets and precode
parameters read from the headers or passed explicitly).  The digest was
recorded before the decoder became a resumable engine, so any change of
result, inactivation choice or count shows up here.  It was re-recorded
twice: when failed attempts began to report the true rank of their rows
(three records moved, in rank only), and when the peeling engine stopped
keeping sets, which changed raptor's ripple order (three records moved,
in `row_xor` and `row_swap` only).

The first hypothesis property feeds a raptor stream packet by packet into
a `RaptorDecoder`: it must turn DECODABLE at exactly the first prefix at
which batch `inactivation_decode` and `dense_ge_decode` both succeed, and
return the same block.  The second checks that a failed attempt reports
the GF(2) rank of the rows it read: every packet plus the parity
constraints.

`ScanInactivation` is the engine as it was before its stall choice read
one sorted order per attempt: a `max()` over every unknown at each stall,
and an evaluation that walks every bit of each mask.  The differential
tests run it and the engine in use on k = 256 and 1,024 streams (B = 1,
degree-2 regular streams full of degree ties and the default robust
Soliton streams), through `inactivation_decode` and through
`RaptorDecoder` sessions with failed attempts, and compare inactivated
unknowns, core sizes, ranks, counters and blocks.  A hand-built system
with two busiest unknowns of equal degree pins the lowest-index
tie-break.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fountainkit import raptor
from fountainkit.bec import default_distribution
from fountainkit.core import DecodeStatus, InputBlock, packet_support
from fountainkit.errors import SingularMatrixError
from fountainkit.gf import GF2
from fountainkit.linalg import FieldMatrix, OpCounter, rank, solve
from fountainkit.lt import ideal_soliton, regular_distribution
from fountainkit.raptor import (
    InactivationResult,
    PrecodeSpec,
    RaptorDecoder,
    RaptorEncoder,
    dense_ge_decode,
    inactivation_decode,
    parity_sources,
)

SYSTEMS = 200

#: SHA-256 of every record `_records` yields.
PINNED = "2c9687166bd39c47fa58dd51ca8acf3a171e24db61c6883e438372b3d2f4ed20"


def _counts(c: OpCounter) -> tuple:
    return (
        c.row_xor_count, c.row_scale_count, c.row_swap_count,
        c.symbol_mul_count, c.resolve_count,
    )


def _stream(k, b, redundant, weight, pseed, eseed, regular, count, rng_bytes):
    """(spec, block, first `count` packets of a raptor stream)."""
    spec = PrecodeSpec(k=k, redundant_count=redundant, row_weight=weight, seed=pseed)
    n = spec.intermediate_count
    # Degree-2 streams stall often, so they exercise inactivation and
    # singular cores; ideal Soliton streams mostly peel.
    dist = regular_distribution(n, min(2, n)) if regular else ideal_soliton(n)
    block = InputBlock(tuple(rng_bytes(b) for _ in range(k)))
    enc = RaptorEncoder(block, dist, spec, seed=eseed)
    return spec, block, [enc.next_packet() for _ in range(count)]


def _records():
    rng = random.Random("raptor-oracle")
    for _ in range(SYSTEMS):
        k = rng.randint(1, 24)
        spec, _, packets = _stream(
            k, rng.randint(1, 8), rng.randint(0, 4), rng.randint(1, min(k, 4)),
            rng.getrandbits(16), rng.getrandbits(32), rng.random() < 0.4,
            rng.randint(max(1, k - 3), 2 * k + 6), rng.randbytes,
        )
        for _ in range(rng.randint(0, 3)):
            packets.insert(rng.randrange(len(packets) + 1), rng.choice(packets))
        res = inactivation_decode(packets, spec if rng.random() < 0.3 else None)
        yield (
            res.block.packets if res.success else None,
            res.inactivated, res.core_size, res.rank, _counts(res.counter),
        )


def test_pinned_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
    assert h.hexdigest() == PINNED


@st.composite
def streams(draw, max_k=12, short=False):
    """A raptor stream with some packets repeated; `short` streams stop
    near k packets and always repeat some, so attempts often fail with
    dependent core rows."""
    k = draw(st.integers(1, max_k))
    count = st.integers(max(1, k - 3), k + 1) if short else st.integers(1, 2 * k + 6)
    params = (
        k, draw(st.integers(1, 4)), draw(st.integers(0, 4)),
        draw(st.integers(1, min(k, 4))), draw(st.integers(0, 2**16)),
        draw(st.integers(0, 2**32)), draw(st.booleans()), draw(count),
    )
    data = random.Random(draw(st.integers(0, 2**32)))
    spec, block, packets = _stream(*params, data.randbytes)
    # Repeat some packets so that duplicates are common.
    repeats = st.integers(0, len(packets) - 1)
    for i in draw(st.lists(repeats, min_size=int(short), max_size=3)):
        packets.insert(draw(st.integers(0, len(packets))), packets[i])
    return spec, block, packets


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(streams())
def test_incremental_decoder_matches_batch(stream):
    spec, block, packets = stream
    dec = RaptorDecoder(spec.k, len(block.packets[0]))
    decoded_at = None
    for m, packet in enumerate(packets, start=1):
        status = dec.ingest(packet)
        if decoded_at is None and m >= spec.k:
            batch = inactivation_decode(packets[:m])
            dense = dense_ge_decode(packets[:m])
            assert batch.success == (dense is not None)
            if batch.success:
                assert batch.block == dense == block
                decoded_at = m
        expected = DecodeStatus.NEEDS_MORE if decoded_at is None else DecodeStatus.DECODABLE
        assert status is expected
    if decoded_at is not None:
        assert dec.decode() == block


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(streams(max_k=24, short=True))
def test_failed_attempt_reports_the_rank_of_its_rows(stream):
    spec, _, packets = stream
    res = inactivation_decode(packets)
    if res.success:
        return
    n = spec.intermediate_count
    supports = [packet_support(p, n) for p in packets]
    supports += [srcs + [spec.k + i] for i, srcs in enumerate(parity_sources(spec))]
    rows = [sum(1 << u for u in support) for support in supports]
    assert res.rank == rank(FieldMatrix(GF2, n, rows))


class ScanInactivation(raptor._Inactivation):
    """Reference engine: a full scan per stall and a walk over every mask
    bit, as `_Inactivation.attempt` was."""

    def attempt(self):
        incidence, inactive, shift = self.incidence, self.inactive, self.shift
        while self.unresolved:
            if self.ripple:
                self.drain()
            else:
                u = max(
                    (v for v, row in enumerate(self.value) if row is None),
                    key=lambda v: (len(incidence[v]), -v),
                )
                slot = len(inactive)
                inactive.append(u)
                self.resolve(u, 1 << (shift + slot), count_rows=False)

        t = len(inactive)
        n = self.spec.intermediate_count
        counter, plen = self.counter, self.packet_len
        low = (1 << shift) - 1
        inactive_values = []
        if t:
            core = FieldMatrix(GF2, t, [row >> shift for row in self.core_rows])
            rhs = [(row & low).to_bytes(plen, "big") for row in self.core_rows]
            try:
                xs = solve(core, rhs, counter)
            except SingularMatrixError as exc:
                return InactivationResult(
                    None, tuple(inactive), t, n - t + exc.rank, counter
                )
            inactive_values = [int.from_bytes(x, "big") for x in xs]

        out = []
        for row in self.value[: self.spec.k]:
            mask, v = row >> shift, row & low
            slot = 0
            while mask:
                if mask & 1:
                    v ^= inactive_values[slot]
                    counter.row_xor_count += 1
                mask >>= 1
                slot += 1
            out.append(v.to_bytes(plen, "big"))
        return InactivationResult(InputBlock(tuple(out)), tuple(inactive), t, n, counter)


def _result(res):
    return (
        res.block.packets if res.success else None,
        res.inactivated, res.core_size, res.rank, _counts(res.counter),
    )


def _b1_stream(k, regular, seed, count):
    """`count` packets of a B = 1 stream under the default precode."""
    spec = PrecodeSpec.default(k, seed)
    n = spec.intermediate_count
    dist = regular_distribution(n, 2) if regular else default_distribution(n, 0.1, 0.5)
    rng = random.Random(seed)
    block = InputBlock(tuple(rng.randbytes(1) for _ in range(k)))
    enc = RaptorEncoder(block, dist, spec, seed)
    return [enc.next_packet() for _ in range(count)]


def _session(packets):
    """Per packet: the status and the last attempt's result."""
    dec = RaptorDecoder(packets[0].k, packets[0].packet_len)
    records = []
    for p in packets:
        status = dec.ingest(p)
        res = dec.last_result
        records.append((status, None if res is None else _result(res)))
        if status is DecodeStatus.DECODABLE:
            break
    return records


def _against_reference(monkeypatch, run):
    """`run()` on the engine in use, then on `ScanInactivation`."""
    ours = run()
    with monkeypatch.context() as m:
        m.setattr(raptor, "_Inactivation", ScanInactivation)
        reference = run()
    return ours, reference


def test_batch_decode_matches_scan_reference_at_scale(monkeypatch):
    outcomes = set()
    for k in (256, 1024):
        for regular in (True, False):
            for seed in (1, 2, 3):
                packets = _b1_stream(k, regular, seed, k + k // 20)
                ours, reference = _against_reference(
                    monkeypatch, lambda: _result(inactivation_decode(packets))
                )
                assert ours == reference, (k, regular, seed)
                assert ours[1], "every system stalls"
                outcomes.add(ours[0] is not None)
    assert outcomes == {True, False}


def test_sessions_with_failed_attempts_match_scan_reference(monkeypatch):
    failed = 0
    for k, regular, seed, count in (
        (256, False, 1, 300), (256, False, 2, 300), (256, False, 3, 300),
        (1024, False, 1, 1100), (1024, False, 2, 1100), (256, True, 1, 300),
        (1024, True, 1, 1060),
    ):
        packets = _b1_stream(k, regular, seed, count)
        ours, reference = _against_reference(monkeypatch, lambda: _session(packets))
        assert ours == reference, (k, regular, seed)
        failed += sum(res is not None and res[0] is None for _, res in ours)
    assert failed >= 10


def test_stall_ties_go_to_the_lowest_index():
    # Unknowns 1 and 2 each sit in three equations, 0 in two and 3 in
    # one, and no equation has one unknown: the first stall must
    # inactivate 1.
    x = [0x5A, 0xC3, 0x17, 0xE8]
    supports = [[1, 2], [1, 3], [0, 2], [0, 1, 2]]
    spec = PrecodeSpec(k=4, redundant_count=0, row_weight=1)
    results = []
    for engine_type in (raptor._Inactivation, ScanInactivation):
        engine = engine_type(spec, 1, OpCounter())
        for support in supports:
            rhs = 0
            for u in support:
                rhs ^= x[u]
            engine.add(support, rhs)
        results.append(_result(engine.attempt()))
    assert results[0] == results[1]
    block, inactivated, core_size, rank_, _ = results[0]
    assert (inactivated, core_size, rank_) == ((1,), 1, 4)
    assert block == tuple(bytes([v]) for v in x)
