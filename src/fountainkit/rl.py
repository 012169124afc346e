"""Rateless random linear codec over GF(2) or GF(256).

Dense mode draws every coefficient uniformly from the field (all-zero
vectors are redrawn, never emitted); sparse mode draws a Bernoulli mask
and is what the benchmarks use to exercise sparse decoding cost.  Headers
carry the explicit coefficient vector and its field, so decoding needs no
shared PRNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CodedPacket, CoefficientVector, InputBlock, LinearDecoder, SchemeId, linear_combine
from .errors import SchemeMismatchError
from .gf import GF2, GF256, FieldSpec
from .prng import SplitMix64


@dataclass(frozen=True)
class RlConfig:
    spec: FieldSpec
    k: int
    sparsity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.spec not in (GF2, GF256):
            raise ValueError("random linear codec supports GF(2) and GF(256) only")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")


class RlEncoder:
    """Stateful encoder; one instance per stream, unbounded output."""

    def __init__(self, config: RlConfig, block: InputBlock):
        if block.k != config.k:
            raise ValueError(f"block has k={block.k}, config expects {config.k}")
        self.config = config
        self.block = block
        self._rng = SplitMix64(config.seed)

    def _draw_vector(self) -> tuple[int, ...]:
        cfg = self.config
        order = cfg.spec.order
        while True:
            if cfg.sparsity >= 1.0:
                vec = tuple(self._rng.below_many(order, cfg.k))
            else:
                vec = tuple(
                    (self._rng.next_below(order - 1) + 1)
                    if self._rng.next_float() < cfg.sparsity
                    else 0
                    for _ in range(cfg.k)
                )
            if any(vec):
                return vec

    def next_packet(self) -> CodedPacket:
        vec = self._draw_vector()
        return CodedPacket(
            SchemeId.RL,
            self.config.k,
            self.block.packet_len,
            CoefficientVector(vec, self.config.spec),
            linear_combine(self.block.packets, vec, self.config.spec),
        )


def rl_success_probability(q: int, k: int, received: int | None = None) -> float:
    """Probability that `received` uniform coding vectors over GF(q) span
    all k dimensions: prod over i = received-k+1 .. received of (1 - q^-i)."""
    if received is None:
        received = k
    if received < k:
        return 0.0
    prob = 1.0
    for i in range(received - k + 1, received + 1):
        prob *= 1.0 - float(q) ** -i
    return prob


def _coefficients(packet: CodedPacket) -> tuple[int, ...]:
    h = packet.header
    if not isinstance(h, CoefficientVector):
        raise SchemeMismatchError(
            f"RL packets carry coefficient vectors, got {type(h).__name__}"
        )
    return h.coefficients


def make_decoder(config: RlConfig, packet_len: int) -> LinearDecoder:
    return LinearDecoder(config.spec, config.k, packet_len, SchemeId.RL, _coefficients)
