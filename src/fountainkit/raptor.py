"""Raptor-style codec: sparse random XOR precode + LT stage, decoded by
inactivation.

The intermediate block is the k inputs followed by `redundant_count`
parity packets, each the XOR of `row_weight` distinct inputs chosen by
the precode seed.  Coded packets are plain LT packets over that
intermediate block; their headers carry the precode parameters so a
decoder can rebuild the parity constraints (each parity XOR its sources
equals zero) without side channels.

Inactivation decoding peels (with `lt.Peeler`, the LT decoder's engine)
until no 1-sparse equation remains, then marks one unresolved unknown
inactive (treated as symbolically known) and keeps peeling.  Resolved
unknowns become affine expressions over the inactive set, held in one
int per row: the payload in the low `8·B` bits, the mask over the
inactive slots above them.  Equations whose unknowns are exhausted with
a nonzero mask turn into rows of a small dense core, which one Gaussian
elimination solves.  The peeled expressions are then evaluated.  Work is
far below dense elimination on the full system whenever the LT stage is
sparse.

The decoding state survives a failed attempt: every unknown is then an
affine expression over the inactive set, so each later packet becomes
one core row, and the next attempt solves only the small core again.
`RaptorDecoder` peels each packet in once as it arrives and attempts the
core solve from the k-th packet on; `inactivation_decode` runs the same
engine once over a packet list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    Decoder,
    InputBlock,
    RaptorSeed,
    SchemeId,
    check_binary_header,
    packet_support,
    support_of,
)
from .gf import GF2
from .errors import PacketFormatError, SchemeMismatchError, SingularMatrixError
from .linalg import FieldMatrix, OpCounter, solve
from .lt import DegreeDistribution, LTEncoder, Peeler
from .prng import SplitMix64


@dataclass(frozen=True)
class PrecodeSpec:
    k: int
    redundant_count: int
    row_weight: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.redundant_count < 0:
            raise ValueError("redundant packet count cannot be negative")
        if not 1 <= self.row_weight <= self.k:
            raise ValueError(f"row weight must be in 1..{self.k}")

    @property
    def intermediate_count(self) -> int:
        return self.k + self.redundant_count

    @classmethod
    def default(cls, k: int, seed: int = 0) -> "PrecodeSpec":
        """ceil(0.05k) + 4 parity packets of row weight 3 (k when k < 3)."""
        return cls(
            k=k, redundant_count=math.ceil(0.05 * k) + 4, row_weight=min(3, k),
            seed=seed,
        )


def parity_sources(spec: PrecodeSpec) -> list[list[int]]:
    """Input indices XORed into each parity packet, from the precode seed."""
    rng = SplitMix64(spec.seed)
    return [
        rng.sample_distinct(spec.k, spec.row_weight)
        for _ in range(spec.redundant_count)
    ]


def precode(block: InputBlock, spec: PrecodeSpec) -> tuple[bytes, ...]:
    """Intermediate block: the inputs followed by the parity packets."""
    if block.k != spec.k:
        raise ValueError(f"block has k={block.k}, spec expects {spec.k}")
    ints = [int.from_bytes(p, "big") for p in block.packets]
    parities = []
    for srcs in parity_sources(spec):
        acc = 0
        for i in srcs:
            acc ^= ints[i]
        parities.append(acc.to_bytes(block.packet_len, "big"))
    return block.packets + tuple(parities)


class RaptorEncoder(LTEncoder):
    """LT encoder whose rows are the precoded intermediate block, so `dist`
    covers its k + redundant_count packets, and whose headers carry the
    precode parameters."""

    scheme = SchemeId.RAPTOR

    def __init__(
        self,
        block: InputBlock,
        dist: DegreeDistribution,
        precode_spec: PrecodeSpec,
        seed: int,
    ):
        super().__init__(dist, InputBlock(precode(block, precode_spec)), seed)
        self.block = block
        self.precode_spec = precode_spec

    def _header(self, seed: int, degree: int) -> RaptorSeed:
        spec = self.precode_spec
        return RaptorSeed(seed, degree, spec.seed, spec.redundant_count, spec.row_weight)


@dataclass
class InactivationResult:
    block: Optional[InputBlock]
    inactivated: tuple[int, ...]
    core_size: int
    rank: int
    counter: OpCounter

    @property
    def success(self) -> bool:
        return self.block is not None


def _header_spec(header, k: int) -> PrecodeSpec:
    """The precode a packet header announces."""
    if not isinstance(header, RaptorSeed):
        raise SchemeMismatchError(
            "packets without precode headers need an explicit PrecodeSpec"
        )
    return _precode_spec(k, header.redundant_count, header.row_weight, header.precode_seed)


@lru_cache(maxsize=64)
def _precode_spec(k: int, redundant_count: int, row_weight: int, seed: int) -> PrecodeSpec:
    """Built and validated once per parameter tuple: every packet of a
    stream announces the same one, and a decoder parses each."""
    try:
        return PrecodeSpec(k, redundant_count, row_weight, seed)
    except ValueError as exc:
        raise PacketFormatError(f"bad precode header: {exc}") from None


def _precode_of(packets: Sequence[CodedPacket]) -> PrecodeSpec:
    specs = {_header_spec(p.header, packets[0].k) for p in packets}
    if len(specs) != 1:
        raise SchemeMismatchError("packets disagree on precode parameters")
    return specs.pop()


def _system_rows(
    packets: Sequence[CodedPacket], spec: PrecodeSpec
) -> list[tuple[list[int], int]]:
    """(support, rhs) pairs: one per received packet plus one weight-
    (row_weight + 1) parity constraint per redundant packet."""
    n = spec.intermediate_count
    rows = [
        (packet_support(p, n), int.from_bytes(p.payload, "big")) for p in packets
    ]
    for i, srcs in enumerate(parity_sources(spec)):
        rows.append((srcs + [spec.k + i], 0))
    return rows


class _Inactivation(Peeler):
    """Resumable inactivation decoder over one precode system.

    `Peeler` peels; this class loads the parity constraints, inactivates
    on stalls, solves the core and evaluates the block.  A row's mask
    sits above its `8·B` payload bits.  After a failed attempt every
    unknown stays an affine expression over the inactive set, so each
    later equation becomes one core row through `add` and the next
    attempt only re-solves the core.

    The inactivation choice is the unresolved unknown incident to the
    most live equations, ties broken by lowest index, so runs replay
    deterministically.
    """

    def __init__(self, spec: PrecodeSpec, packet_len: int, counter: OpCounter):
        super().__init__(spec.intermediate_count, 8 * packet_len, counter)
        self.spec = spec
        self.packet_len = packet_len
        self.inactive: list[int] = []
        # Parity constraints are known from the spec alone, so they go in
        # before any packet.
        for i, srcs in enumerate(parity_sources(spec)):
            self.add(srcs + [spec.k + i], 0)

    def attempt(self) -> InactivationResult:
        """Inactivate until peeling completes, solve the core, evaluate.

        A singular core is a failure report, not an exception, and leaves
        the state live for more equations.
        """
        incidence, inactive, shift = self.incidence, self.inactive, self.shift
        while self.unresolved:
            if self.ripple:
                self.drain()
            else:
                # Stall: inactivate the busiest unresolved unknown.
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


def inactivation_decode(
    packets: Sequence[CodedPacket],
    spec: Optional[PrecodeSpec] = None,
    counter: Optional[OpCounter] = None,
) -> InactivationResult:
    """Peel, inactivate on stalls, solve the dense core, back-substitute.

    Packets are taken in order until peeling alone resolves every
    unknown; the rest are not read.  A singular core is a failure report,
    not an exception.  `spec` is read from the packet headers when omitted.
    """
    if not packets:
        raise ValueError("need at least one packet")
    counter = counter if counter is not None else OpCounter()
    if spec is None:
        spec = _precode_of(packets)
    n = spec.intermediate_count
    engine = _Inactivation(spec, packets[0].packet_len, counter)
    for p in packets:
        if not engine.unresolved:
            break
        engine.add(packet_support(p, n), int.from_bytes(p.payload, "big"))
    return engine.attempt()


class RaptorDecoder(Decoder):
    """Streaming inactivation decoder for simulated sessions and the CLI.

    One `_Inactivation` engine is built on the first packet taken
    (precode parameters from its header) and every packet is peeled into
    it once.  From the k-th packet on, each packet is followed by one
    decode attempt; after the first attempt only the small dense core is
    solved again.  `counter` is the engine's counter, so it holds all the
    work the session did, failed attempts included.
    """

    schemes = (SchemeId.RAPTOR,)

    def __init__(self, k: int, packet_len: int):
        super().__init__(k, packet_len)
        self._spec: Optional[PrecodeSpec] = None
        self._engine: Optional[_Inactivation] = None
        self.last_result: Optional[InactivationResult] = None

    def _check(self, packet: CodedPacket) -> PrecodeSpec:
        """The packet's precode, which must be the decoder's once the
        first packet taken has fixed it."""
        spec = _header_spec(packet.header, self.k)
        if self._spec is not None and spec != self._spec:
            raise SchemeMismatchError("packets disagree on precode parameters")
        check_binary_header(packet, spec.intermediate_count)
        return spec

    def _add(self, packet: CodedPacket, spec: PrecodeSpec) -> bool:
        if self._engine is None:
            self._spec = spec
            self._engine = _Inactivation(spec, self.packet_len, self.counter)
        engine, n = self._engine, spec.intermediate_count
        engine.add(support_of(packet, n), int.from_bytes(packet.payload, "big"))
        if self.packets_seen >= self.k:
            self.last_result = engine.attempt()
            if self.last_result.success:
                self._engine = None  # the block is determined
        self.contradictions = engine.contradictions
        return self._engine is None

    @property
    def rank(self) -> int:
        """Rank over the k inputs.  The last attempt's rank is over the
        k + redundant_count intermediate slots, and each parity row adds
        exactly one to it, since each alone holds its own parity slot."""
        if self.last_result is None:
            return 0
        return self.last_result.rank - self._spec.redundant_count

    def _solve(self) -> InputBlock:
        return self.last_result.block


def dense_ge_decode(
    packets: Sequence[CodedPacket],
    spec: Optional[PrecodeSpec] = None,
    counter: Optional[OpCounter] = None,
) -> Optional[InputBlock]:
    """Decode the identical system by full dense Gaussian elimination.

    Comparison baseline for the inactivation path; returns None when the
    system is rank deficient.
    """
    counter = counter if counter is not None else OpCounter()
    if spec is None:
        spec = _precode_of(packets)
    n = spec.intermediate_count
    packet_len = packets[0].packet_len
    bits = []
    rhs = []
    for support, const in _system_rows(packets, spec):
        row = 0
        for u in support:
            row |= 1 << u
        bits.append(row)
        rhs.append(const.to_bytes(packet_len, "big"))
    m = FieldMatrix(GF2, n, bits)
    try:
        xs = solve(m, rhs, counter)
    except SingularMatrixError:
        return None
    return InputBlock(tuple(xs[: spec.k]))
