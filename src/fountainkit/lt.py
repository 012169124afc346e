"""LT codec: Soliton degree distributions, two-step random encoding, and
the peeling (belief-propagation) decoder.

Encoding samples a degree from the distribution, then that many distinct
input indices; the payload is their XOR.  The header stores the packet
seed and degree, so the decoder regenerates the neighbor set instead of
reading a coefficient list.  Decoding repeatedly resolves coded packets
with a single unknown neighbor and substitutes the result everywhere,
which is back-substitution on a sparse system: no row scaling, no matrix
inversion, XOR only.  A stall is a status, not an error; the regular
fixed-degree configuration doubles as a sparse-parity-code demonstrator.

`Peeler` is the sparse XOR peeling engine of the packet-level decoders,
with two users: `PeelingDecoder` (k inputs, B-byte rows) and raptor's
inactivation decoder (the intermediate block, the inactive-slot mask
above each payload).  Triangular's bit decoder peels with the same rule
and order on its own engine, whose incidence follows from the shifts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    DecodeResult,
    Decoder,
    DecodeStatus,
    InputBlock,
    SchemeId,
    SeedDegree,
    check_binary_header,
    decode_all,
    regenerate_neighbors,
    support_of,
)
from .linalg import OpCounter
from .prng import SplitMix64

_PMF_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability mass over degrees 1..k, with its cumulative form."""

    k: int
    pmf: tuple[float, ...]
    cdf: tuple[float, ...]
    kind: str = "custom"

    def __post_init__(self):
        if self.k < 1 or len(self.pmf) != self.k:
            raise ValueError("pmf must cover degrees 1..k")
        if any(p < 0 for p in self.pmf):
            raise ValueError("pmf entries must be non-negative")
        if abs(sum(self.pmf) - 1.0) > _PMF_TOLERANCE:
            raise ValueError("pmf must sum to 1")
        if any(b < a - _PMF_TOLERANCE for a, b in zip(self.cdf, self.cdf[1:])):
            raise ValueError("cdf must be monotone")
        if self.cdf[-1] != 1.0:
            raise ValueError("cdf must end at exactly 1")

    def sample_degree(self, u: float) -> int:
        """Inverse-CDF draw: smallest degree whose cumulative mass covers u."""
        return bisect_left(self.cdf, u) + 1

    def mean(self) -> float:
        return sum(d * p for d, p in enumerate(self.pmf, start=1))


def _finish(k: int, weights: list[float], kind: str) -> DegreeDistribution:
    total = sum(weights)
    pmf = tuple(w / total for w in weights)
    acc = 0.0
    cdf = []
    for p in pmf:
        acc += p
        cdf.append(acc)
    cdf[-1] = 1.0
    return DegreeDistribution(k=k, pmf=pmf, cdf=tuple(cdf), kind=kind)


def ideal_soliton(k: int) -> DegreeDistribution:
    """rho(1) = 1/k, rho(d) = 1/(d(d-1)) for d = 2..k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    weights = [1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, k + 1)]
    return _finish(k, weights, "ideal")


def robust_soliton(k: int, c: float, delta: float) -> DegreeDistribution:
    """Ideal Soliton plus the spike-and-tail term tau, renormalized.

    S = c * ln(k/delta) * sqrt(k); tau(d) = S/(dk) up to the pivot degree
    ceil(k/S) - 1, tau(pivot) = S * ln(S/delta) / k, zero beyond.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if c <= 0 or not 0 < delta < 1:
        raise ValueError("need c > 0 and 0 < delta < 1")
    s = c * math.log(k / delta) * math.sqrt(k)
    if s < 1:
        raise ValueError(f"ripple size S={s:.3f} below 1; increase c or k")
    pivot = math.ceil(k / s)
    if pivot > k:
        raise ValueError(f"pivot degree {pivot} exceeds k={k}")
    weights = [1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, k + 1)]
    for d in range(1, pivot):
        weights[d - 1] += s / (d * k)
    weights[pivot - 1] += s * math.log(s / delta) / k
    return _finish(k, weights, "robust")


def regular_distribution(k: int, degree: int) -> DegreeDistribution:
    """All mass on one degree; every coded packet combines `degree` inputs."""
    if not 1 <= degree <= k:
        raise ValueError(f"degree {degree} outside 1..{k}")
    pmf = [0.0] * k
    pmf[degree - 1] = 1.0
    return _finish(k, pmf, "regular")


def custom_distribution(k: int, pmf: Sequence[float]) -> DegreeDistribution:
    weights = list(pmf)
    if abs(sum(weights) - 1.0) > _PMF_TOLERANCE:
        raise ValueError("custom pmf must sum to 1")
    return _finish(k, weights, "custom")


class LTEncoder:
    """Rateless encoder over one block; one instance per stream.  Each
    packet draws its degree, then its seed, then that many distinct rows:
    the block's packets, or raptor's intermediate block."""

    scheme = SchemeId.LT

    def __init__(self, dist: DegreeDistribution, block: InputBlock, seed: int):
        if dist.k != block.k:
            raise ValueError(f"distribution is for k={dist.k}, encoder has {block.k} rows")
        self.dist = dist
        self.block = block
        self._rng = SplitMix64(seed)
        self._rows = [int.from_bytes(p, "big") for p in block.packets]

    def next_packet(self) -> CodedPacket:
        degree = self.dist.sample_degree(self._rng.next_float())
        packet_seed = self._rng.next_u64()
        rows = self._rows
        acc = 0
        for i in regenerate_neighbors(packet_seed, degree, len(rows)):
            acc ^= rows[i]
        return CodedPacket(
            self.scheme,
            self.block.k,
            self.block.packet_len,
            self._header(packet_seed, degree),
            acc.to_bytes(self.block.packet_len, "big"),
        )

    def _header(self, seed: int, degree: int) -> SeedDegree:
        return SeedDegree(seed, degree)


@dataclass
class StallReport:
    """Peeling ran out of degree-1 packets before finishing."""

    undecoded: tuple[int, ...]
    pending_packets: int
    decoded_count: int


class Peeler:
    """Sparse XOR peeling over n unknowns with a ripple queue, holding no
    sets: the "pure cell" rule of invertible Bloom lookup tables.

    Equation `eid` is `equations[eid] = [count, xor, row]`: the number of
    its unresolved unknowns, the XOR of their indices and one int row,
    payload in the low `shift` bits and anything above them (raptor's
    inactive-slot mask) carried along.  When the count reaches 1, `xor`
    names the last unknown.  A dead equation is None.  A row always equals
    the original row XOR the values substituted into it; an equation left
    with no unknowns is a core row when it has bits above `shift`,
    redundant when its row is zero and a contradiction otherwise.
    `value[u]` is the row unknown u resolved to, None while unresolved;
    `incidence[u]` is the append-only list of the equations u joined, so
    its length is an unresolved u's live degree.  A support passed to
    `add` must not repeat an index.
    """

    def __init__(self, n: int, shift: int, counter: OpCounter):
        self.shift = shift
        self.counter = counter
        self.value: list[Optional[int]] = [None] * n
        self.unresolved = n
        self.equations: list[Optional[list]] = []  # eid -> [count, xor, row]
        self.live = 0
        self.incidence: list[list[int]] = [[] for _ in range(n)]
        self.ripple: deque[int] = deque()
        self.core_rows: list[int] = []
        self.redundant = 0
        self.contradictions = 0

    def add(self, support, row: int) -> None:
        """Substitute the resolved unknowns of one equation and peel."""
        value, counter = self.value, self.counter
        remaining = []
        for u in support:
            v = value[u]
            if v is None:
                remaining.append(u)
            else:
                row ^= v
                counter.row_xor_count += 1
        if not remaining:
            self._exhausted(row)
            return
        eid = len(self.equations)
        xor = 0
        incidence = self.incidence
        for u in remaining:
            incidence[u].append(eid)
            xor ^= u
        self.equations.append([len(remaining), xor, row])
        self.live += 1
        if len(remaining) == 1:
            self.ripple.append(eid)
            self.drain()

    def _exhausted(self, row: int) -> None:
        if row >> self.shift:
            self.core_rows.append(row)
        elif row:
            self.contradictions += 1
        else:
            self.redundant += 1

    def resolve(self, u: int, row: int, count_rows: bool) -> None:
        """Set unknown u to `row` and substitute it into every live
        equation.  Substituting a resolved row is a row combination; an
        inactivated unknown merely moves its column into the core, so the
        caller passes `count_rows=False` for that bookkeeping."""
        self.value[u] = row
        self.unresolved -= 1
        equations, counter = self.equations, self.counter
        for eid in self.incidence[u]:
            eq = equations[eid]
            if eq is None:
                continue
            eq[0] -= 1
            eq[1] ^= u
            eq[2] ^= row
            if count_rows:
                counter.row_xor_count += 1
            if eq[0] == 1:
                self.ripple.append(eid)
            elif not eq[0]:
                equations[eid] = None
                self.live -= 1
                self._exhausted(eq[2])
        self.incidence[u].clear()

    def drain(self) -> None:
        """Resolve degree-1 equations until the ripple is empty.  A queued
        equation that is still live has exactly one unknown left."""
        ripple, equations = self.ripple, self.equations
        while ripple:
            eid = ripple.popleft()
            eq = equations[eid]
            if eq is None:
                continue
            equations[eid] = None
            self.live -= 1
            self.counter.resolve_count += 1
            self.resolve(eq[1], eq[2], count_rows=True)


class PeelingDecoder(Decoder):
    """LT decoding by pure peeling: one `Peeler` over the k inputs, whose
    rows are bare payloads.  Peeling stops at a stall; more packets may
    restart it."""

    # GF(2) random linear packets peel too: their coefficient vectors are
    # neighbor sets.
    schemes = (SchemeId.LT, SchemeId.RL)

    def __init__(self, k: int, packet_len: int):
        super().__init__(k, packet_len)
        self._peeler = Peeler(k, 8 * packet_len, self.counter)

    @property
    def decoded_count(self) -> int:
        return self.k - self._peeler.unresolved

    @property
    def redundant_count(self) -> int:
        return self._peeler.redundant + self.late

    def _check(self, packet: CodedPacket) -> Optional[int]:
        return check_binary_header(packet, self.k)

    def _add(self, packet: CodedPacket, n: Optional[int]) -> bool:
        self._peeler.add(support_of(packet, n), int.from_bytes(packet.payload, "big"))
        self.contradictions = self._peeler.contradictions
        return not self._peeler.unresolved

    def _solve(self) -> InputBlock:
        return InputBlock(
            tuple(v.to_bytes(self.packet_len, "big") for v in self._peeler.value)
        )

    def stall_report(self) -> StallReport:
        peeler = self._peeler
        return StallReport(
            undecoded=tuple(i for i, v in enumerate(peeler.value) if v is None),
            pending_packets=peeler.live,
            decoded_count=self.decoded_count,
        )


def peel_decode(
    packets: Sequence[CodedPacket], k: int, packet_len: int
) -> DecodeResult:
    """Run peeling over a packet set; returns the block or a stall report."""
    return decode_all(PeelingDecoder(k, packet_len), packets)


@dataclass
class OverheadTrial:
    consumed: int
    overhead: float
    aborted: bool
    counter: OpCounter


def lt_overhead_trial(dist: DegreeDistribution, seed: int) -> OverheadTrial:
    """Feed a fresh encoder into a peeling decoder until the block decodes;
    returns the packets consumed, with overhead = consumed/k - 1.

    The block is k one-byte payloads drawn from the trial seed, and the
    decode is verified bit-exact.  A trial is aborted after 10k packets.
    """
    k = dist.k
    rng = SplitMix64(seed ^ 0xB10CDA7A)
    block = InputBlock(tuple(bytes(rng.below_many(256, 1)) for _ in range(k)))
    encoder = LTEncoder(dist, block, seed)
    decoder = PeelingDecoder(k, 1)
    while decoder.status is DecodeStatus.NEEDS_MORE and decoder.packets_seen < 10 * k:
        decoder.ingest(encoder.next_packet())
    consumed = decoder.packets_seen
    aborted = decoder.status is DecodeStatus.NEEDS_MORE
    if not aborted and decoder.decode() != block:
        raise AssertionError("peeling produced a wrong block")
    return OverheadTrial(consumed, consumed / k - 1.0, aborted, decoder.counter)
