"""The decoder contract of `core.Decoder`, checked for every scheme.

Every decoder here comes from `bec.decoder_for` of its stream's first
packet, as session clients and `decode` build them:

- A refused packet leaves the decoder equal to a twin that never saw it:
  in its tallies, its operation counter and the block it decodes.
- A late packet adds 1 to `late`, changes no counter and draws no
  neighbour set.
- `decode()` before DECODABLE raises RuntimeError.
- On random erasure prefixes of a clean stream, DECODABLE means the
  encoded block, and no packet on the way is a contradiction.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fountainkit import core
from fountainkit.bec import SCHEMES, decoder_for, make_codec_session
from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    RaptorSeed,
    RowIndex,
    SchemeId,
    SeedDegree,
    ShiftList,
)
from fountainkit.errors import PacketFormatError, SchemeMismatchError

TALLIES = (
    "status", "packets_seen", "late", "contradictions", "accepted_count",
    "non_innovative_count", "redundant_count", "decoded_count", "decoded_bits",
    "rank",
)


def _state(dec) -> tuple:
    """Every tally the decoder has, and its operation counter."""
    tallies = tuple(getattr(dec, name, None) for name in TALLIES)
    return tallies, dataclasses.astuple(dec.counter)


def _block(k: int, b: int, seed: int) -> InputBlock:
    rng = random.Random(seed)
    return InputBlock(tuple(rng.randbytes(b) for _ in range(k)))


def _stream(scheme: str, block: InputBlock, seed: int):
    return make_codec_session(scheme, block, seed=seed).stream_factory()


def _until_decodable(scheme: str, block: InputBlock, seed: int, extra: int) -> list:
    """The stream's packets up to the one that makes a decoder DECODABLE,
    then up to `extra` more."""
    stream = _stream(scheme, block, seed)
    packets = []
    dec = None
    for p in stream:
        packets.append(p)
        dec = dec or decoder_for(p)
        if dec.ingest(p) is not DecodeStatus.NEEDS_MORE:
            break
    return packets + list(itertools.islice(stream, extra))


def _coefficient_packet(k: int, b: int, coefficients) -> CodedPacket:
    return CodedPacket(SchemeId.RL, k, b, CoefficientVector(tuple(coefficients)), bytes(b))


def _foreign(kind: str, packet: CodedPacket) -> CodedPacket:
    """A packet that the decoder of `packet`'s stream must refuse."""
    k, b, h = packet.k, packet.packet_len, packet.header
    if kind == "scheme":
        other = SchemeId.RL if packet.scheme is SchemeId.RS else SchemeId.RS
        return dataclasses.replace(packet, scheme=other)
    if kind == "k":
        return dataclasses.replace(packet, k=k + 1)
    if kind == "B":
        return dataclasses.replace(packet, packet_len=b + 1)
    if kind == "short payload":
        return dataclasses.replace(packet, payload=packet.payload[:-1])
    if kind == "long payload":
        return dataclasses.replace(packet, payload=packet.payload + b"\0")
    if kind in ("longer vector", "shorter vector"):
        n = k + 1 if kind == "longer vector" else k - 1
        if isinstance(h, ShiftList):
            return CodedPacket(packet.scheme, k, b, ShiftList((0,) * n), bytes(b))
        return _coefficient_packet(k, b, (1,) * n)
    if kind == "field":
        # Outside GF(2) for the binary decoders, outside GF(256) for rl.
        return _coefficient_packet(k, b, (2, 256) + (1,) * (k - 2))
    if kind == "header shape":
        header = SeedDegree(1, 1) if isinstance(h, RowIndex) else RowIndex(0)
        return CodedPacket(packet.scheme, k, b, header, bytes(b))
    if kind == "precode":
        return dataclasses.replace(
            packet, header=dataclasses.replace(h, precode_seed=h.precode_seed + 1)
        )
    assert kind == "degree"
    if isinstance(h, RaptorSeed):
        # Another precode too: a refused first packet that fixed the
        # decoder's precode would then refuse the rest of the stream.
        header = dataclasses.replace(h, degree=0, precode_seed=h.precode_seed + 1)
        return dataclasses.replace(packet, header=header)
    if isinstance(h, SeedDegree):
        return dataclasses.replace(packet, header=SeedDegree(h.seed, 0))
    return CodedPacket(SchemeId.LT, k, b, SeedDegree(1, 0), bytes(b))


REFUSALS = (
    "scheme", "k", "B", "short payload", "long payload", "longer vector",
    "shorter vector", "field", "header shape", "degree",
)

#: Refusals that may be of a malformed header (PacketFormatError); every
#: other one is of a packet of another stream (SchemeMismatchError).
MALFORMED = ("longer vector", "shorter vector", "degree")


@pytest.mark.parametrize(
    "scheme,kind",
    [(s, kind) for s in SCHEMES for kind in REFUSALS] + [("raptor", "precode")],
)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(k=st.integers(3, 8), b=st.integers(1, 4), seed=st.integers(0, 2**16), at=st.integers(0, 40))
def test_refused_packet_leaves_the_decoder_as_its_twin(scheme, kind, k, b, seed, at):
    block = _block(k, b, seed)
    packets = _until_decodable(scheme, block, seed, extra=2)
    # The precode is fixed by the first packet taken, so a packet of
    # another precode is refused only after it.
    at = min(max(at, kind == "precode"), len(packets))
    foreign = _foreign(kind, packets[min(at, len(packets) - 1)])
    dec, twin = decoder_for(packets[0]), decoder_for(packets[0])
    for i, p in enumerate(packets + [None]):
        if i == at:
            refusal = (SchemeMismatchError, PacketFormatError)
            with pytest.raises(refusal if kind in MALFORMED else SchemeMismatchError):
                dec.ingest(foreign)
            assert _state(dec) == _state(twin)
        if p is not None:
            assert dec.ingest(p) is twin.ingest(p)
    assert _state(dec) == _state(twin)
    assert dec.decode() == twin.decode() == block


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(k=st.integers(3, 8), b=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_late_packet_is_counted_and_does_no_work(scheme, k, b, seed):
    block = _block(k, b, seed)
    packets = _until_decodable(scheme, block, seed, extra=3)
    dec = decoder_for(packets[0])
    decodable_at = next(
        i for i, p in enumerate(packets) if dec.ingest(p) is not DecodeStatus.NEEDS_MORE
    )
    late = packets[decodable_at + 1:]
    assert late
    seen, counter = dec.packets_seen, dataclasses.astuple(dec.counter)
    draws = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "regenerate_neighbors", lambda *a: draws.append(a))
        for p in late:
            assert dec.ingest(p) is DecodeStatus.DECODABLE
    assert draws == []
    assert dataclasses.astuple(dec.counter) == counter
    assert (dec.late, dec.packets_seen) == (len(late), seen + len(late))
    assert dec.contradictions == 0
    assert dec.decode() == block


@pytest.mark.parametrize("scheme", SCHEMES)
def test_decode_before_decodable_raises(scheme):
    first = next(_stream(scheme, _block(8, 2, 1), 1))
    dec = decoder_for(first)
    with pytest.raises(RuntimeError):
        dec.decode()
    assert dec.ingest(first) is DecodeStatus.NEEDS_MORE
    with pytest.raises(RuntimeError):
        dec.decode()
    assert dec.status is DecodeStatus.NEEDS_MORE


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES), k=st.integers(3, 10), b=st.integers(1, 4),
    seed=st.integers(0, 2**16), loss=st.sampled_from((0.0, 0.3, 0.6)),
    erasures=st.integers(0, 2**16),
)
def test_decodable_means_the_encoded_block(scheme, k, b, seed, loss, erasures):
    # Clean prefixes of every stream under random erasures: no packet is
    # ever a contradiction, and DECODABLE means the encoded block, at full
    # rank where the decoder tracks one.
    block = _block(k, b, seed)
    rng = random.Random(erasures)
    dec = None
    for p in itertools.islice(_stream(scheme, block, seed), 10 * k + 10):
        if rng.random() < loss:
            continue
        dec = dec or decoder_for(p)
        status = dec.ingest(p)
        assert dec.contradictions == 0
        if status is not DecodeStatus.NEEDS_MORE:
            assert dec.decode() == block
            assert getattr(dec, "rank", k) == k
            break
