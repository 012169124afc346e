"""Binary-erasure-channel multicast simulator.

A server transmits to N clients; each transmission independently reaches
each client or is erased.  Note the sign convention: `loss_prob` is the
per-packet ERASURE probability (the reception probability is its
complement), which avoids double negatives in reports.

Erasure draws come from one splitmix64 stream per client whose seeds are
a prefix of a master stream, so adding clients never perturbs the
erasures existing clients see, and every session replays bit-identically
from its seed.  A scripted reception pattern can stand in for the draw.
Coded sessions run until every client decodes or the transmission cap /
fixed-rate budget runs out; each client builds its decoder from the
first packet it receives (`decoder_for`), as the CLI's `decode` does from
a stream's first frame.  The ARQ baseline resends every packet until all
clients acknowledge it, with ACK frames tallied separately (lossless by
default, optionally erased like data).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .core import (
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
from .errors import PacketFormatError, SchemeMismatchError
from .gf import GF2, GF256
from .linalg import OpCounter
from .lt import DegreeDistribution, LTEncoder, PeelingDecoder, robust_soliton
from .prng import SplitMix64
from .raptor import PrecodeSpec, RaptorDecoder, RaptorEncoder
from .rl import RlConfig, RlEncoder
from .rl import make_decoder as rl_make_decoder
from .rs import MAX_ROWS, VandermondeSpec, make_decoder as rs_make_decoder, rs_encode
from .triangular import BitSubstitutionDecoder, planned_shift_stream, tri_encode

#: Scheme names, as the CLI and `make_codec_session` take them.
SCHEMES = tuple(s.name.lower() for s in SchemeId)

_ACK_STREAM_SALT = 0xAC4AC4AC4AC4AC4A


def default_distribution(k: int, c: float, delta: float) -> DegreeDistribution:
    """Robust Soliton, with c raised to whatever keeps the ripple size S
    at least 1 when k is too small for the requested c."""
    c_floor = 1.0000001 / (math.log(k / delta) * math.sqrt(k))
    return robust_soliton(k, max(c, c_floor), delta)


@dataclass(frozen=True)
class ChannelSpec:
    """Erasure probability per client per transmission, client count, seed."""

    loss_prob: float
    clients: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if self.clients < 1:
            raise ValueError("need at least one client")

    def client_streams(self, salt: int = 0) -> list[SplitMix64]:
        master = SplitMix64(self.seed ^ salt)
        return [SplitMix64(master.next_u64()) for _ in range(self.clients)]

    def default_cap(self, k: int) -> int:
        if self.loss_prob >= 1.0:
            return 10 * k
        return math.ceil(10 * k / (1.0 - self.loss_prob))

    def receptions(
        self, pattern: Optional[Sequence[Sequence[int]]] = None
    ) -> Iterator[list[int]]:
        """The clients each transmission reaches, in transmission order.

        They are drawn from the clients' erasure streams, or read from a
        scripted `pattern`, which must last until the session ends:
        running out of scripted transmissions first is an error."""
        if pattern is not None:
            yield from (list(reached) for reached in pattern)
            raise ValueError(
                f"pattern of {len(pattern)} transmissions is shorter than the session"
            )
        streams, loss = self.client_streams(), self.loss_prob
        while True:
            yield [i for i, s in enumerate(streams) if s.next_float() >= loss]


@dataclass
class SessionReport:
    scheme: str
    k: int
    packet_len: int
    clients: int
    loss_prob: float
    seed: int
    total_transmissions: int
    retransmissions: int
    ack_frames: int
    per_client_received: tuple[int, ...]
    per_client_useful: tuple[int, ...]
    per_client_overhead: tuple[Optional[float], ...]
    all_decoded: bool
    failed_clients: tuple[int, ...]
    fixed_rate_exhausted: bool
    op_counter: OpCounter
    wall_time_s: float

    def mean_overhead(self) -> Optional[float]:
        values = [e for e in self.per_client_overhead if e is not None]
        return sum(values) / len(values) if values else None


def _report(
    scheme: str,
    block: InputBlock,
    channel: ChannelSpec,
    start: float,
    transmissions: int,
    received: list[int],
    done_at: list[Optional[int]],
    counter: OpCounter,
    ack_frames: int = 0,
    exhausted: bool = False,
) -> SessionReport:
    """The report of a session that began at `start`.  `done_at[i]` is the
    reception count at which client i held the block, None if it never
    did; `exhausted` says that a fixed-rate stream ran out."""
    k = block.k
    failed = tuple(i for i, d in enumerate(done_at) if d is None)
    return SessionReport(
        scheme=scheme,
        k=k,
        packet_len=block.packet_len,
        clients=channel.clients,
        loss_prob=channel.loss_prob,
        seed=channel.seed,
        total_transmissions=transmissions,
        retransmissions=max(transmissions - k, 0),
        ack_frames=ack_frames,
        per_client_received=tuple(received),
        per_client_useful=tuple(
            d if d is not None else r for d, r in zip(done_at, received)
        ),
        per_client_overhead=tuple(
            (d / k - 1.0) if d is not None else None for d in done_at
        ),
        all_decoded=not failed,
        failed_clients=failed,
        fixed_rate_exhausted=exhausted and bool(failed),
        op_counter=counter,
        wall_time_s=time.perf_counter() - start,
    )


@dataclass
class CodecSession:
    """What the simulator needs from a codec: a fresh packet stream, a
    deterministic function of the seed.  Decoders come from the packets."""

    name: str
    rateless: bool
    stream_factory: Callable[[], Iterator[CodedPacket]]
    block: InputBlock


def make_codec_session(
    scheme: str,
    block: InputBlock,
    seed: int = 0,
    *,
    n: Optional[int] = None,
    systematic: bool = False,
    field_order: int = 256,
    sparsity: float = 1.0,
    soliton_c: float = 0.1,
    soliton_delta: float = 0.5,
    redundant_count: Optional[int] = None,
    row_weight: Optional[int] = None,
) -> CodecSession:
    """Bundle one of the five codecs' packet streams for a simulated
    session.  The rateless streams never end."""
    k = block.k
    if scheme == "rs":
        vspec = VandermondeSpec.default(k, n if n is not None else 2 * k, systematic)
        return CodecSession("rs", False, lambda: iter(rs_encode(block, vspec)), block)
    if scheme == "rl":
        spec = GF2 if field_order == 2 else GF256
        config = RlConfig(spec, k, sparsity=sparsity, seed=seed)
        return CodecSession(
            "rl", True, lambda: iter(RlEncoder(config, block).next_packet, None), block
        )
    if scheme == "lt":
        lt_dist = default_distribution(k, soliton_c, soliton_delta)
        return CodecSession(
            "lt", True, lambda: iter(LTEncoder(lt_dist, block, seed).next_packet, None),
            block,
        )
    if scheme == "raptor":
        default = PrecodeSpec.default(k, seed)
        if redundant_count is None:
            redundant_count = default.redundant_count
        if row_weight is None:
            row_weight = default.row_weight
        pre = PrecodeSpec(
            k=k, redundant_count=redundant_count, row_weight=row_weight, seed=seed
        )
        r_dist = default_distribution(pre.intermediate_count, soliton_c, soliton_delta)
        return CodecSession(
            "raptor", True,
            lambda: iter(RaptorEncoder(block, r_dist, pre, seed).next_packet, None),
            block,
        )
    if scheme == "triangular":

        def tri_stream() -> Iterator[CodedPacket]:
            for sv in planned_shift_stream(k, seed):
                yield tri_encode(block, sv)

        return CodecSession("triangular", True, tri_stream, block)
    raise ValueError(f"unknown scheme {scheme!r}")


def decoder_for(frame: CodedPacket):
    """A fresh decoder for the stream that `frame` belongs to.

    A frame carries everything its decoder needs: scheme, k and B, and in
    its header the RS generator (plain or systematic), the RL field and
    the raptor precode.  An RS decoder spans all `MAX_ROWS` rows, since
    row j is the same for every n > j.  A header of another shape than
    the scheme's raises SchemeMismatchError.
    """
    k, b, h = frame.k, frame.packet_len, frame.header
    scheme = frame.scheme
    if scheme is SchemeId.RS and isinstance(h, RowIndex):
        if k > MAX_ROWS:
            raise PacketFormatError(
                f"RS frame with k={k} above the {MAX_ROWS} rows of GF(256)"
            )
        return rs_make_decoder(VandermondeSpec.default(k, MAX_ROWS, h.systematic), b)
    if scheme is SchemeId.RL and isinstance(h, CoefficientVector):
        return rl_make_decoder(RlConfig(h.spec, k), b)
    if scheme is SchemeId.LT and isinstance(h, SeedDegree):
        return PeelingDecoder(k, b)
    if scheme is SchemeId.RAPTOR and isinstance(h, RaptorSeed):
        return RaptorDecoder(k, b)
    if scheme is SchemeId.TRIANGULAR and isinstance(h, ShiftList):
        return BitSubstitutionDecoder(k, b)
    raise SchemeMismatchError(
        f"{scheme.name} frames do not carry {type(h).__name__} headers"
    )


class Session:
    """One multicast delivery of one block to N clients.  Each client's
    decoder is `decoder_for` of the first packet that client receives."""

    def __init__(self, codec: CodecSession, channel: ChannelSpec):
        self.codec = codec
        self.channel = channel

    def run(self, pattern: Optional[Sequence[Sequence[int]]] = None) -> SessionReport:
        """Transmit until every client decodes, the channel's cap is
        reached or a fixed-rate stream ends.  A scripted `pattern` replaces
        the erasure draw (`ChannelSpec.receptions`)."""
        start = time.perf_counter()
        block = self.codec.block
        n_clients = self.channel.clients
        cap = self.channel.default_cap(block.k)
        receptions = self.channel.receptions(pattern)
        decoders: list = [None] * n_clients
        received = [0] * n_clients
        useful: list[Optional[int]] = [None] * n_clients
        stream = self.codec.stream_factory()
        transmissions = 0
        exhausted = False
        while any(u is None for u in useful) and transmissions < cap:
            packet = next(stream, None)
            if packet is None:
                exhausted = True
                break
            reached = next(receptions)
            transmissions += 1
            for i in reached:
                received[i] += 1
                if useful[i] is not None:
                    continue
                if decoders[i] is None:
                    decoders[i] = decoder_for(packet)
                status = decoders[i].ingest(packet)
                if status is not DecodeStatus.NEEDS_MORE:
                    useful[i] = received[i]
                    if decoders[i].decode() != block:
                        raise AssertionError("decoder returned a wrong block")
        counter = OpCounter()
        for d in decoders:
            if d is not None:
                counter.merge(d.counter)
        return _report(
            self.codec.name, block, self.channel, start, transmissions, received,
            useful, counter, exhausted=exhausted,
        )


def run_arq_baseline(
    block: InputBlock,
    channel: ChannelSpec,
    lossy_acks: bool = False,
    pattern: Optional[Sequence[Sequence[int]]] = None,
) -> SessionReport:
    """Uncoded send-and-acknowledge baseline.

    Every packet is retransmitted until the server holds an ACK from every
    client for it.  ACK frames are lossless unless `lossy_acks`, in which
    case they are erased with the data loss probability and the server
    retransmits packets it believes missing.  A scripted `pattern`
    replaces the data erasure draw, as in `Session.run`.
    """
    start = time.perf_counter()
    n_clients = channel.clients
    k = block.k
    cap = channel.default_cap(k)
    receptions = channel.receptions(pattern)
    ack_streams = channel.client_streams(_ACK_STREAM_SALT)
    holds = [[False] * k for _ in range(n_clients)]
    acked = [[False] * k for _ in range(n_clients)]
    received = [0] * n_clients
    done_at: list[Optional[int]] = [None] * n_clients
    transmissions = 0
    ack_frames = 0

    # Round-robin sweeps: each pass sends every packet some client has
    # not yet acknowledged, until all are acknowledged everywhere.
    pending = True
    while pending and transmissions < cap:
        pending = False
        for packet in range(k):
            if all(acked[i][packet] for i in range(n_clients)):
                continue
            if transmissions >= cap:
                break
            pending = True
            reached = next(receptions)
            transmissions += 1
            for i in reached:
                received[i] += 1
                holds[i][packet] = True
                if done_at[i] is None and all(holds[i]):
                    done_at[i] = received[i]
                # The client acknowledges every reception.
                ack_frames += 1
                ack_lost = (
                    lossy_acks and ack_streams[i].next_float() < channel.loss_prob
                )
                if not ack_lost:
                    acked[i][packet] = True
    return _report(
        "arq", block, channel, start, transmissions, received, done_at,
        OpCounter(), ack_frames=ack_frames,
    )
