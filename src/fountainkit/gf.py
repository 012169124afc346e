"""Arithmetic over GF(2^m), 1 <= m <= 16.

Field elements are plain integers in [0, 2^m); a payload byte is one
GF(256) symbol.  Addition is XOR.  Multiplication is available along three
routes: a schoolbook shift-and-reduce (`mul_schoolbook`), a table-driven
form (`mul`) backed by exp/log tables built from the spec's generator, and,
for GF(256) only, per-coefficient 256-byte product tables (`mul_table`)
that multiply a whole payload row by one coefficient in a single
`bytes.translate`.  Table construction doubles as a primitivity check: the
generator's powers must enumerate every nonzero element exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import FieldConstructionError


@dataclass(frozen=True)
class FieldSpec:
    """Defining data for GF(2^m).

    m : extension degree (bits per symbol)
    modulus : irreducible polynomial as an (m+1)-bit integer, top bit set
    generator : primitive element used to build the exp/log tables
    """

    m: int
    modulus: int
    generator: int

    def __post_init__(self):
        if not 1 <= self.m <= 16:
            raise FieldConstructionError(f"extension degree {self.m} outside 1..16")
        if self.modulus.bit_length() != self.m + 1:
            raise FieldConstructionError(
                f"modulus {self.modulus:#x} does not have degree {self.m}"
            )
        if not 0 < self.generator < (1 << self.m):
            raise FieldConstructionError(
                f"generator {self.generator} outside field of 2^{self.m} elements"
            )

    @property
    def order(self) -> int:
        return 1 << self.m


#: GF(2), the XOR-only field.
GF2 = FieldSpec(m=1, modulus=0b11, generator=1)

#: GF(256) with the conventional Reed-Solomon erasure polynomial
#: x^8 + x^4 + x^3 + x^2 + 1 and generator 2.
GF256 = FieldSpec(m=8, modulus=0x11D, generator=2)


class GF:
    """Arithmetic context for one FieldSpec, with precomputed exp/log tables."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.m = spec.m
        self.order = spec.order
        self._mask = self.order - 1
        self._exp, self._log = self._build_tables()
        self._mul_tables: Optional[list[bytes]] = None

    # -- construction -------------------------------------------------

    def mul_schoolbook(self, a: int, b: int) -> int:
        """Polynomial product reduced by the modulus, no tables.

        Kept as the independent reference route; `mul` must agree with it
        on every pair.
        """
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.spec.modulus
        return p

    def _build_tables(self) -> tuple[list[int], list[int]]:
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        x = 1
        for i in range(n):
            if log[x] != -1:
                raise FieldConstructionError(
                    f"generator {self.spec.generator} is not primitive for "
                    f"modulus {self.spec.modulus:#x} (cycle at power {i})"
                )
            exp[i] = x
            log[x] = i
            x = self.mul_schoolbook(x, self.spec.generator)
        if x != 1:
            # A reducible modulus collapses the multiplicative group.
            raise FieldConstructionError(
                f"modulus {self.spec.modulus:#x} is reducible or generator "
                f"{self.spec.generator} is not primitive"
            )
        return exp, log

    # -- operations ----------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        n = self.order - 1
        return self._exp[(self._log[a] * e) % n]

    def mul_table(self, c: int) -> bytes:
        """The 256-byte table T with T[v] = c * v, for `bytes.translate`.

        Defined for GF(256) only; all 256 tables are built on first use.
        Table c maps each nonzero byte through its log into the exp table
        rotated by log(c), so each costs one slice and one translate.
        """
        if self._mul_tables is None:
            if self.m != 8:
                raise ValueError(f"product tables need GF(2^8), not GF(2^{self.m})")
            exp = bytes(self._exp)
            logs = bytes(self._log[1:])
            # Logs are 0..254, so the padding byte at index 255 is never read.
            self._mul_tables = [bytes(256)] + [
                b"\0" + logs.translate(exp[lc:] + exp[:lc] + b"\0") for lc in self._log[1:]
            ]
        return self._mul_tables[c]

    @property
    def exp_table(self) -> tuple[int, ...]:
        return tuple(self._exp)


@lru_cache(maxsize=None)
def field(spec: FieldSpec) -> GF:
    """Shared GF instance per spec; tables are immutable once built."""
    return GF(spec)
