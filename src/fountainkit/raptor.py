"""Raptor-style codec: sparse random XOR precode + LT stage, decoded by
inactivation.

The intermediate block is the k inputs followed by `redundant_count`
parity packets, each the XOR of `row_weight` distinct inputs chosen by
the precode seed.  Coded packets are plain LT packets over that
intermediate block; their headers carry the precode parameters so a
decoder can rebuild the parity constraints (each parity XOR its sources
equals zero) without side channels.

Inactivation decoding peels until no 1-sparse equation remains, then
marks one unresolved unknown inactive (treated as symbolically known) and
keeps peeling.  Resolved unknowns become affine expressions over the
inactive set; equations whose unknowns are exhausted turn into rows of a
small dense core, which one Gaussian elimination solves.  The peeled
expressions are then evaluated.  Work is far below dense elimination on
the full system whenever the LT stage is sparse.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CodedPacket,
    DecodeStatus,
    InputBlock,
    RaptorSeed,
    SchemeId,
    packet_support,
    regenerate_neighbors,
)
from .gf import GF2
from .errors import SchemeMismatchError, SingularMatrixError
from .linalg import FieldMatrix, OpCounter, solve
from .lt import DegreeDistribution
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
        return cls(k=k, redundant_count=math.ceil(0.05 * k) + 4, seed=seed)


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


class RaptorEncoder:
    """LT encoder whose inputs are the precoded intermediate block."""

    scheme = SchemeId.RAPTOR

    def __init__(
        self,
        block: InputBlock,
        dist: DegreeDistribution,
        precode_spec: PrecodeSpec,
        seed: int,
    ):
        if dist.k != precode_spec.intermediate_count:
            raise ValueError(
                f"distribution must cover the {precode_spec.intermediate_count} "
                f"intermediate packets, covers {dist.k}"
            )
        self.block = block
        self.dist = dist
        self.precode_spec = precode_spec
        self._rng = SplitMix64(seed)
        self._intermediate = [
            int.from_bytes(p, "big") for p in precode(block, precode_spec)
        ]

    def next_packet(self) -> CodedPacket:
        degree = self.dist.sample_degree(self._rng.next_float())
        packet_seed = self._rng.next_u64()
        neighbors = regenerate_neighbors(
            packet_seed, degree, self.precode_spec.intermediate_count
        )
        acc = 0
        for i in neighbors:
            acc ^= self._intermediate[i]
        header = RaptorSeed(
            seed=packet_seed,
            degree=degree,
            precode_seed=self.precode_spec.seed,
            redundant_count=self.precode_spec.redundant_count,
            row_weight=self.precode_spec.row_weight,
        )
        return CodedPacket(
            self.scheme,
            self.block.k,
            self.block.packet_len,
            header,
            acc.to_bytes(self.block.packet_len, "big"),
        )


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


def _precode_of(packets: Sequence[CodedPacket]) -> PrecodeSpec:
    heads = set()
    for p in packets:
        h = p.header
        if not isinstance(h, RaptorSeed):
            raise SchemeMismatchError(
                "packets without precode headers need an explicit PrecodeSpec"
            )
        heads.add((h.precode_seed, h.redundant_count, h.row_weight))
    if len(heads) != 1:
        raise SchemeMismatchError("packets disagree on precode parameters")
    seed, j, w = heads.pop()
    return PrecodeSpec(k=packets[0].k, redundant_count=j, row_weight=w, seed=seed)


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


def inactivation_decode(
    packets: Sequence[CodedPacket],
    spec: Optional[PrecodeSpec] = None,
    counter: Optional[OpCounter] = None,
) -> InactivationResult:
    """Peel, inactivate on stalls, solve the dense core, back-substitute.

    The inactivation choice is the unresolved unknown incident to the
    most live equations, ties broken by lowest index, so runs replay
    deterministically.  A singular core is a failure report, not an
    exception.  `spec` is read from the packet headers when omitted.
    """
    if not packets:
        raise ValueError("need at least one packet")
    counter = counter if counter is not None else OpCounter()
    if spec is None:
        spec = _precode_of(packets)
    k, n = spec.k, spec.intermediate_count
    packet_len = packets[0].packet_len

    # resolved[u] = (mask over inactive slots, payload constant)
    resolved: dict[int, tuple[int, int]] = {}
    inactive: list[int] = []
    equations: dict[int, list] = {}  # eid -> [unresolved set, const, mask]
    incidence: list[set[int]] = [set() for _ in range(n)]
    core_rows: list[tuple[int, int]] = []
    ripple: deque[int] = deque()
    next_eid = 0

    def settle(eid: int) -> None:
        eq = equations.pop(eid)
        if eq[2]:
            core_rows.append((eq[2], eq[1]))
        # mask 0: redundant equation, nothing to keep

    def propagate(u: int, mask: int, const: int, count_rows: bool) -> None:
        # Substituting a resolved expression is a row combination; marking
        # an unknown inactive merely moves its column into the core, so
        # that propagation is bookkeeping, not row work.
        resolved[u] = (mask, const)
        for eid in list(incidence[u]):
            eq = equations.get(eid)
            if eq is None:
                continue
            eq[0].discard(u)
            eq[1] ^= const
            eq[2] ^= mask
            if count_rows:
                counter.row_xor_count += 1
            if len(eq[0]) == 1:
                ripple.append(eid)
            elif not eq[0]:
                settle(eid)
        incidence[u].clear()

    def drain() -> None:
        while ripple:
            eid = ripple.popleft()
            eq = equations.get(eid)
            if eq is None or len(eq[0]) != 1:
                continue
            (u,) = eq[0]
            del equations[eid]
            incidence[u].discard(eid)
            counter.resolve_count += 1
            propagate(u, eq[2], eq[1], count_rows=True)

    def add_equation(support, rhs: int) -> None:
        nonlocal next_eid
        remaining = set()
        const, mask = rhs, 0
        for u in support:
            known = resolved.get(u)
            if known is None:
                remaining.add(u)
            else:
                mask ^= known[0]
                const ^= known[1]
                counter.row_xor_count += 1
        if not remaining:
            if mask:
                core_rows.append((mask, const))
            return
        eid = next_eid
        next_eid += 1
        equations[eid] = [remaining, const, mask]
        for u in remaining:
            incidence[u].add(eid)
        if len(remaining) == 1:
            ripple.append(eid)
            drain()

    # Parity constraints are known from the spec alone; packets stream in
    # afterwards and ingestion stops as soon as peeling completes.
    for i, srcs in enumerate(parity_sources(spec)):
        add_equation(srcs + [spec.k + i], 0)
    drain()
    for p in packets:
        if len(resolved) == n:
            break
        add_equation(packet_support(p, n), int.from_bytes(p.payload, "big"))

    while len(resolved) < n:
        if ripple:
            drain()
        else:
            # Stall: inactivate the busiest unresolved unknown.
            candidates = (u for u in range(n) if u not in resolved)
            u = max(candidates, key=lambda v: (len(incidence[v]), -v))
            slot = len(inactive)
            inactive.append(u)
            propagate(u, 1 << slot, 0, count_rows=False)

    t = len(inactive)
    peeled_rank = n - t
    if t:
        live = [(mask, const) for mask, const in core_rows if mask]
        core = FieldMatrix(GF2, t, [mask for mask, _ in live])
        rhs = [const.to_bytes(packet_len, "big") for _, const in live]
        try:
            xs = solve(core, rhs, counter)
        except SingularMatrixError as exc:
            return InactivationResult(
                None, tuple(inactive), t, peeled_rank + exc.rank, counter
            )
        inactive_values = [int.from_bytes(x, "big") for x in xs]
    else:
        inactive_values = []

    out = []
    for i in range(k):
        mask, const = resolved[i]
        v = const
        slot = 0
        while mask:
            if mask & 1:
                v ^= inactive_values[slot]
                counter.row_xor_count += 1
            mask >>= 1
            slot += 1
        out.append(v.to_bytes(packet_len, "big"))
    return InactivationResult(
        InputBlock(tuple(out)), tuple(inactive), t, n, counter
    )


class RaptorDecoder:
    """Incremental wrapper for simulated sessions.

    Packets accumulate and a batch inactivation decode is attempted once
    at least k have arrived; the reported operation counts are those of
    the successful attempt (a streaming decoder would not repeat the
    abandoned partial work).
    """

    def __init__(self, k: int, packet_len: int, spec: Optional[PrecodeSpec] = None):
        self.k = k
        self.packet_len = packet_len
        self.counter = OpCounter()
        self.status = DecodeStatus.NEEDS_MORE
        self._spec = spec
        self._packets: list[CodedPacket] = []
        self._block: Optional[InputBlock] = None
        self.last_result: Optional[InactivationResult] = None

    def ingest(self, packet: CodedPacket) -> DecodeStatus:
        if packet.k != self.k:
            raise SchemeMismatchError(
                f"decoder expects k={self.k}, packet has k={packet.k}"
            )
        if self._spec is None and not isinstance(packet.header, RaptorSeed):
            raise SchemeMismatchError(
                "packets without precode headers need an explicit PrecodeSpec"
            )
        self._packets.append(packet)
        if self.status is not DecodeStatus.NEEDS_MORE:
            return self.status
        if len(self._packets) >= self.k:
            result = inactivation_decode(self._packets, self._spec)
            self.last_result = result
            if result.success:
                self._block = result.block
                self.counter = result.counter
                self.status = DecodeStatus.DECODABLE
        return self.status

    @property
    def rank(self) -> int:
        return self.last_result.rank if self.last_result else 0

    def decode(self) -> InputBlock:
        if self._block is None:
            raise RuntimeError("not enough innovative packets yet")
        self.status = DecodeStatus.DECODED
        return self._block


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
