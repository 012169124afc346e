"""Matrices over GF(2) and GF(256) with exact operation counting.

Gaussian elimination is deliberately split into the two phases whose costs
the codecs care about: `triangularize` (row echelon via row interchange,
row addition and, over GF(256), row scaling) and `back_substitute`
(solving an upper-triangular system).  Every row-level operation is
tallied in an `OpCounter`.

Counting unit: one `row_xor` is one full row combination regardless of
row width; one `resolve` is the resolution of one unknown during
back-substitution.  `symbol_mul_count` is finer grained and counts field
multiplications per symbol (matrix entries and payload bytes alike), so
XOR-only schemes show an exact zero there.  It is a semantic count, one
per nonzero symbol multiplied by a coefficient other than 1, whatever
kernel computes the products; GF(256) rows are in fact multiplied a whole
row at a time by `mul_int`, one `bytes.translate` through a `GF.mul_table`
product table.  A dense GF(2) triangular k x k system back-substitutes in
k(k-1)/2 row combinations plus k resolutions, i.e. k(k+1)/2 elementary
steps.

Each field has one row format, and `row_ops` returns the handful of row
operations on it, so every routine has one body for both fields.  A GF(2)
row is one arbitrary-width Python int (bit j is column j), so row addition
is a single integer XOR; a GF(256) row is `bytes`, one symbol per column,
combined through `mul_int`.  Payload rows are `bytes` in both fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import SingularMatrixError
from .gf import GF, FieldSpec, field


@dataclass
class OpCounter:
    """Tallies of elimination work."""

    row_xor_count: int = 0
    row_scale_count: int = 0
    row_swap_count: int = 0
    symbol_mul_count: int = 0
    resolve_count: int = 0

    @property
    def elementary_steps(self) -> int:
        """Row-level steps: combinations, scalings, swaps and resolutions."""
        return (
            self.row_xor_count
            + self.row_scale_count
            + self.row_swap_count
            + self.resolve_count
        )

    def merge(self, other: "OpCounter") -> None:
        self.row_xor_count += other.row_xor_count
        self.row_scale_count += other.row_scale_count
        self.row_swap_count += other.row_swap_count
        self.symbol_mul_count += other.symbol_mul_count
        self.resolve_count += other.resolve_count


# -- payload row helpers ------------------------------------------------


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def mul_int(gf: GF, c: int, a: bytes) -> int:
    """c*a, symbol-wise over GF(256), as a big-endian int.

    The one GF(256) row kernel: a product-table translate and one
    `int.from_bytes`, so callers accumulate rows with a single int XOR and
    convert back to bytes once.  With c = 1 it is field-independent, which
    is how GF(2) payloads use it.
    """
    if c == 1:
        return int.from_bytes(a, "big")
    return int.from_bytes(a.translate(gf.mul_table(c)), "big")


def scale_bytes(gf: GF, c: int, a: bytes) -> bytes:
    """c*a, symbol-wise."""
    if c == 0:
        return bytes(len(a))
    if c == 1:
        return bytes(a)
    return a.translate(gf.mul_table(c))


def _payload_len(rhs: Sequence[bytes]) -> int:
    lengths = set(map(len, rhs))
    if len(lengths) > 1:
        raise ValueError("rhs rows must have equal length")
    return lengths.pop() if lengths else 0


# -- row formats ---------------------------------------------------------


class _Bits:
    """GF(2) rows: one int, bit j = column j.  Every nonzero is 1, so the
    coefficient of `addmul` and `scale` is always 1."""

    @staticmethod
    def pack(row: Iterable[int]) -> int:
        acc = 0
        for j, v in enumerate(row):
            if v:
                acc |= 1 << j
        return acc

    @staticmethod
    def unpack(row: int, cols: int) -> list[int]:
        return [(row >> j) & 1 for j in range(cols)]

    @staticmethod
    def lead(row: int) -> tuple[int, int]:
        """(first nonzero column, its symbol); column -1 for a zero row."""
        return (row & -row).bit_length() - 1, 1

    @staticmethod
    def get(row: int, j: int) -> int:
        return (row >> j) & 1

    @staticmethod
    def column(rows: list[int], j: int, start: int, stop: int) -> list[tuple[int, int]]:
        """(r, symbol) for each nonzero symbol j of rows[start:stop]."""
        return [(r, 1) for r in range(start, stop) if (rows[r] >> j) & 1]

    @staticmethod
    def addmul(acc: int, c: int, row: int) -> int:
        return acc ^ row

    @staticmethod
    def scale(row: int, c: int) -> int:
        return row

    weight = staticmethod(int.bit_count)


class _Bytes:
    """GF(256) rows: `bytes`, symbol j = column j."""

    def __init__(self, gf: GF):
        self.gf = gf

    pack = staticmethod(bytes)

    @staticmethod
    def unpack(row: bytes, cols: int) -> list[int]:
        return list(row)

    @staticmethod
    def lead(row: bytes) -> tuple[int, int]:
        """(first nonzero column, its symbol); column -1 for a zero row."""
        rest = row.lstrip(b"\0")
        return (len(row) - len(rest), rest[0]) if rest else (-1, 0)

    @staticmethod
    def get(row: bytes, j: int) -> int:
        return row[j]

    @staticmethod
    def column(rows: list[bytes], j: int, start: int, stop: int) -> list[tuple[int, int]]:
        """(r, symbol) for each nonzero symbol j of rows[start:stop]."""
        return [(r, rows[r][j]) for r in range(start, stop) if rows[r][j]]

    def addmul(self, acc: bytes, c: int, row: bytes) -> bytes:
        """acc + c*row."""
        return (int.from_bytes(acc, "big") ^ mul_int(self.gf, c, row)).to_bytes(len(acc), "big")

    def scale(self, row: bytes, c: int) -> bytes:
        return scale_bytes(self.gf, c, row)

    @staticmethod
    def weight(row: bytes) -> int:
        return len(row) - row.count(0)


@lru_cache(maxsize=None)
def row_ops(spec: FieldSpec):
    """The row format of a field: `_Bits` for GF(2), `_Bytes` for GF(256)."""
    if spec.m == 1:
        return _Bits
    if spec.m == 8:
        return _Bytes(field(spec))
    raise ValueError(f"matrices need GF(2) or GF(256), not GF(2^{spec.m})")


class FieldMatrix:
    """Matrix over GF(2) or GF(256), one row per entry of `packed` in the
    field's row format (see `row_ops`)."""

    __slots__ = ("spec", "rows", "cols", "_rows", "_ops")

    def __init__(self, spec: FieldSpec, cols: int, packed: list):
        self.spec = spec
        self.rows = len(packed)
        self.cols = cols
        self._rows = packed
        self._ops = row_ops(spec)

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Sequence[int]]) -> "FieldMatrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        order = spec.order
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for v in r:
                if not 0 <= v < order:
                    raise ValueError(f"symbol {v} outside GF(2^{spec.m})")
        pack = row_ops(spec).pack
        return cls(spec, ncols, [pack(r) for r in data])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls.from_rows(spec, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        return cls.from_rows(spec, [[0] * cols for _ in range(rows)])

    # -- inspection ----------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return self._ops.get(self._rows[i], j)

    def to_rows(self) -> list[list[int]]:
        """Symbol rows."""
        return [self._ops.unpack(r, self.cols) for r in self._rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.spec == other.spec
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix(GF(2^{self.spec.m}), {self.rows}x{self.cols})"

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ops = self._ops
        out = [ops.pack([0] * other.cols)] * self.rows
        for j, orow in enumerate(other._rows):
            for i, v in ops.column(self._rows, j, 0, self.rows):
                out[i] = ops.addmul(out[i], v, orow)
        return FieldMatrix(self.spec, other.cols, out)


# -- elimination ---------------------------------------------------------


@dataclass
class Triangularization:
    """Result of `triangularize`.

    `matrix` is a row-echelon equivalent of the input; `permutation` lists
    source row indices in pivot order, so eliminating the permuted input
    without further swaps reproduces `matrix`.  `rhs`, when payload rows
    were carried along, holds them after the same row operations.
    """

    matrix: "FieldMatrix"
    permutation: tuple[int, ...]
    rank: int
    rhs: Optional[list[bytes]] = None


def triangularize(
    m: FieldMatrix,
    counter: Optional[OpCounter] = None,
    rhs: Optional[Sequence[bytes]] = None,
) -> Triangularization:
    """Row-echelon reduction by column order, pivot = first nonzero top-down.

    The input matrix is not modified.  Rank deficiency is reported via the
    result, never raised.  Payload rows are carried as ints: one XOR per
    coefficient 1, one `mul_int` per other coefficient.
    """
    counter = counter if counter is not None else OpCounter()
    if rhs is not None and len(rhs) != m.rows:
        raise ValueError("rhs row count must match matrix rows")
    plen = _payload_len(rhs) if rhs is not None else 0
    ops, gf = m._ops, field(m.spec)
    column, addmul, weight = ops.column, ops.addmul, ops.weight
    rows = list(m._rows)
    pay = [int.from_bytes(p, "big") for p in rhs] if rhs is not None else None
    perm = list(range(m.rows))
    pivot = 0
    for col in range(m.cols):
        if pivot >= m.rows:
            break
        hits = column(rows, col, pivot, m.rows)
        if not hits:
            continue
        hit, lead = hits[0]
        if hit != pivot:
            rows[pivot], rows[hit] = rows[hit], rows[pivot]
            perm[pivot], perm[hit] = perm[hit], perm[pivot]
            if pay is not None:
                pay[pivot], pay[hit] = pay[hit], pay[pivot]
            counter.row_swap_count += 1
        prow = rows[pivot]
        if lead != 1:
            inv = gf.inv(lead)
            prow = rows[pivot] = ops.scale(prow, inv)
            counter.symbol_mul_count += weight(prow)
            if pay is not None:
                counter.symbol_mul_count += plen
                pay[pivot] = mul_int(gf, inv, pay[pivot].to_bytes(plen, "big"))
            counter.row_scale_count += 1
        if pay is not None:
            ppay = pay[pivot]
            ppay_bytes = ppay.to_bytes(plen, "big")
        pweight = weight(prow) + plen
        for r, factor in hits[1:]:
            rows[r] = addmul(rows[r], factor, prow)
            if factor != 1:
                counter.symbol_mul_count += pweight
            if pay is not None:
                pay[r] ^= ppay if factor == 1 else mul_int(gf, factor, ppay_bytes)
            counter.row_xor_count += 1
        pivot += 1
    echelon = FieldMatrix(m.spec, m.cols, rows)
    out_rhs = [p.to_bytes(plen, "big") for p in pay] if pay is not None else None
    return Triangularization(echelon, tuple(perm), pivot, out_rhs)


def back_substitute(
    u: FieldMatrix,
    rhs: Sequence[bytes],
    counter: Optional[OpCounter] = None,
) -> list[bytes]:
    """Solve u x = rhs for upper-triangular square u.

    One row combination is counted per structural nonzero above the
    diagonal; resolving each unknown counts one `resolve` (plus a
    `row_scale` when the diagonal is not 1).  A zero diagonal raises
    SingularMatrixError carrying the number of resolvable unknowns.
    """
    counter = counter if counter is not None else OpCounter()
    n = u.rows
    if u.cols != n:
        raise ValueError("back substitution needs a square matrix")
    if len(rhs) != n:
        raise ValueError("rhs row count must match matrix rows")
    plen = _payload_len(rhs)
    ops, gf, rows = u._ops, field(u.spec), u._rows
    diag = [ops.get(row, i) for i, row in enumerate(rows)]
    if 0 in diag:
        raise SingularMatrixError(
            f"zero diagonal at row {diag.index(0)}", rank=n - diag.count(0)
        )

    # Column by column from the last unknown: once x_i is known it is
    # folded into every row above that uses it.  Each row's pending value
    # is one int: one XOR per coefficient 1, one `mul_int` per other one.
    acc = [int.from_bytes(p, "big") for p in rhs]
    xs: list[bytes] = [b""] * n
    for i in range(n - 1, -1, -1):
        value = acc[i]
        x = value.to_bytes(plen, "big")
        d = diag[i]
        if d != 1:
            counter.symbol_mul_count += plen
            x = scale_bytes(gf, gf.inv(d), x)
            value = int.from_bytes(x, "big")
            counter.row_scale_count += 1
        xs[i] = x
        counter.resolve_count += 1
        for r, c in ops.column(rows, i, 0, i):
            if c == 1:
                acc[r] ^= value
            else:
                counter.symbol_mul_count += plen
                acc[r] ^= mul_int(gf, c, x)
            counter.row_xor_count += 1
    return xs


def rank(m: FieldMatrix) -> int:
    return triangularize(m).rank


def solve(
    m: FieldMatrix,
    rhs: Sequence[bytes],
    counter: Optional[OpCounter] = None,
) -> list[bytes]:
    """Solve m x = rhs exactly; m needs full column rank (rows >= cols).

    Rows beyond the pivots are assumed consistent with the rest, as they
    are for any coding system built from real payloads.  Otherwise
    SingularMatrixError carries the rank of m; with fewer rows than
    unknowns that rank is computed off the counter.
    """
    if m.rows < m.cols:
        raise SingularMatrixError(
            f"{m.rows} rows cannot determine {m.cols} unknowns", rank=rank(m)
        )
    counter = counter if counter is not None else OpCounter()
    tri = triangularize(m, counter, rhs)
    if tri.rank < m.cols:
        raise SingularMatrixError(
            f"matrix rank {tri.rank} < {m.cols}", rank=tri.rank
        )
    n = m.cols
    square = FieldMatrix(m.spec, n, tri.matrix._rows[:n])
    return back_substitute(square, tri.rhs[:n], counter)


def invert(m: FieldMatrix, counter: Optional[OpCounter] = None) -> FieldMatrix:
    """Inverse over the field; raises SingularMatrixError with achieved rank.

    Solves m X = I with the identity rows as payloads, one byte per
    symbol, so row j of the solution is row j of the inverse.
    """
    if m.rows != m.cols:
        raise ValueError("inversion needs a square matrix")
    n = m.rows
    identity = [bytes(int(i == j) for j in range(n)) for i in range(n)]
    return FieldMatrix.from_rows(m.spec, solve(m, identity, counter))
