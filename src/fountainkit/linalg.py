"""Matrices over GF(2) and GF(2^m) with exact operation counting.

Gaussian elimination is deliberately split into the two phases whose costs
the codecs care about: `triangularize` (row echelon via row interchange,
row addition and, over GF(2^m>1), row scaling) and `back_substitute`
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

GF(2) rows are bit-packed into arbitrary-width Python ints (bit j is
column j), so row addition is a single integer XOR.  GF(2^m>1) matrices
are stored dense (row-major symbol lists) or sparse (per-row sorted
(column, symbol) pairs) depending on construction density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import SingularMatrixError
from .gf import GF, FieldSpec, field

#: Construction densities below this fraction store GF(2^m>1) rows sparse.
SPARSE_THRESHOLD = 0.25


@dataclass
class OpCounter:
    """Tallies of elimination work; resettable between runs."""

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

    def reset(self) -> None:
        self.row_xor_count = 0
        self.row_scale_count = 0
        self.row_swap_count = 0
        self.symbol_mul_count = 0
        self.resolve_count = 0

    def merge(self, other: "OpCounter") -> None:
        self.row_xor_count += other.row_xor_count
        self.row_scale_count += other.row_scale_count
        self.row_swap_count += other.row_swap_count
        self.symbol_mul_count += other.symbol_mul_count
        self.resolve_count += other.resolve_count


class FieldMatrix:
    """Matrix over GF(2^m).

    Construction picks the representation: bit-packed rows for GF(2),
    dense symbol rows or sparse (column, symbol) rows for larger fields
    (sparse when construction density < `sparse_threshold`).  Conversions
    between representations are lossless.
    """

    __slots__ = ("spec", "rows", "cols", "_bits", "_dense", "_sparse")

    def __init__(
        self,
        spec: FieldSpec,
        rows: int,
        cols: int,
        *,
        _bits=None,
        _dense=None,
        _sparse=None,
    ):
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self._bits: Optional[list[int]] = _bits
        self._dense: Optional[list[list[int]]] = _dense
        self._sparse: Optional[list[list[tuple[int, int]]]] = _sparse

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        spec: FieldSpec,
        rows: Iterable[Sequence[int]],
        sparse_threshold: float = SPARSE_THRESHOLD,
    ) -> "FieldMatrix":
        data = [list(r) for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for v in r:
                if not 0 <= v < spec.order:
                    raise ValueError(f"symbol {v} outside GF(2^{spec.m})")
        if spec.m == 1:
            bits = [_pack_bits(r) for r in data]
            return cls(spec, nrows, ncols, _bits=bits)
        nnz = sum(1 for r in data for v in r if v)
        if nrows and ncols and nnz / (nrows * ncols) < sparse_threshold:
            sp = [[(j, v) for j, v in enumerate(r) if v] for r in data]
            return cls(spec, nrows, ncols, _sparse=sp)
        return cls(spec, nrows, ncols, _dense=data)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls.from_rows(spec, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "FieldMatrix":
        return cls.from_rows(spec, [[0] * cols for _ in range(rows)])

    # -- inspection ----------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    @property
    def is_bit_packed(self) -> bool:
        return self._bits is not None

    def get(self, i: int, j: int) -> int:
        if self._bits is not None:
            return (self._bits[i] >> j) & 1
        if self._dense is not None:
            return self._dense[i][j]
        for col, v in self._sparse[i]:
            if col == j:
                return v
            if col > j:
                break
        return 0

    def row_support(self, i: int) -> list[tuple[int, int]]:
        """Nonzero (column, symbol) pairs of row i in ascending column order."""
        if self._bits is not None:
            row = self._bits[i]
            out = []
            while row:
                low = row & -row
                out.append((low.bit_length() - 1, 1))
                row ^= low
            return out
        if self._dense is not None:
            return [(j, v) for j, v in enumerate(self._dense[i]) if v]
        return list(self._sparse[i])

    def to_rows(self) -> list[list[int]]:
        """Dense symbol rows, whatever the internal representation."""
        if self._dense is not None:
            return [list(r) for r in self._dense]
        out = [[0] * self.cols for _ in range(self.rows)]
        for i in range(self.rows):
            for j, v in self.row_support(i):
                out[i][j] = v
        return out

    def density(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        nnz = sum(len(self.row_support(i)) for i in range(self.rows))
        return nnz / (self.rows * self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
            and self.cols == other.cols
            and self.to_rows() == other.to_rows()
        )

    def __repr__(self) -> str:
        return f"FieldMatrix(GF(2^{self.spec.m}), {self.rows}x{self.cols})"

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        gf = field(self.spec)
        ocols = other.cols
        orows = other.to_rows()
        out = []
        for i in range(self.rows):
            acc = [0] * ocols
            for j, v in self.row_support(i):
                orow = orows[j]
                if v == 1:
                    for t in range(ocols):
                        acc[t] ^= orow[t]
                else:
                    for t in range(ocols):
                        if orow[t]:
                            acc[t] ^= gf.mul(v, orow[t])
            out.append(acc)
        return FieldMatrix.from_rows(self.spec, out)


def _pack_bits(row: Sequence[int]) -> int:
    acc = 0
    for j, v in enumerate(row):
        if v:
            acc |= 1 << j
    return acc


# -- payload row helpers ------------------------------------------------


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def mul_int(gf: GF, c: int, a: bytes) -> int:
    """c*a, symbol-wise over GF(256), as a big-endian int.

    The one GF(256) row kernel: a product-table translate and one
    `int.from_bytes`, so callers accumulate rows with a single int XOR and
    convert back to bytes once.
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


def addmul_bytes(gf: GF, acc: bytes, c: int, a: bytes) -> bytes:
    """acc XOR c*a, symbol-wise."""
    if c == 0:
        return bytes(acc)
    return (int.from_bytes(acc, "big") ^ mul_int(gf, c, a)).to_bytes(len(acc), "big")


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
    result, never raised.
    """
    counter = counter if counter is not None else OpCounter()
    if rhs is not None and len(rhs) != m.rows:
        raise ValueError("rhs row count must match matrix rows")
    if m.spec.m == 1:
        return _triangularize_gf2(m, counter, rhs)
    return _triangularize_gfq(m, counter, rhs)


def _triangularize_gf2(m, counter, rhs):
    rows = list(m._bits) if m._bits is not None else [_pack_bits(r) for r in m.to_rows()]
    pay = [int.from_bytes(p, "big") for p in rhs] if rhs is not None else None
    plen = len(rhs[0]) if rhs else 0
    perm = list(range(m.rows))
    pivot = 0
    for col in range(m.cols):
        if pivot >= m.rows:
            break
        mask = 1 << col
        hit = -1
        for r in range(pivot, m.rows):
            if rows[r] & mask:
                hit = r
                break
        if hit < 0:
            continue
        if hit != pivot:
            rows[pivot], rows[hit] = rows[hit], rows[pivot]
            perm[pivot], perm[hit] = perm[hit], perm[pivot]
            if pay is not None:
                pay[pivot], pay[hit] = pay[hit], pay[pivot]
            counter.row_swap_count += 1
        prow = rows[pivot]
        for r in range(pivot + 1, m.rows):
            if rows[r] & mask:
                rows[r] ^= prow
                if pay is not None:
                    pay[r] ^= pay[pivot]
                counter.row_xor_count += 1
        pivot += 1
    echelon = FieldMatrix(m.spec, m.rows, m.cols, _bits=rows)
    out_rhs = [p.to_bytes(plen, "big") for p in pay] if pay is not None else None
    return Triangularization(echelon, tuple(perm), pivot, out_rhs)


def _triangularize_gfq(m, counter, rhs):
    gf = field(m.spec)
    rows = m.to_rows()
    pay = [bytes(p) for p in rhs] if rhs is not None else None
    perm = list(range(m.rows))
    pivot = 0
    for col in range(m.cols):
        if pivot >= m.rows:
            break
        hit = -1
        for r in range(pivot, m.rows):
            if rows[r][col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != pivot:
            rows[pivot], rows[hit] = rows[hit], rows[pivot]
            perm[pivot], perm[hit] = perm[hit], perm[pivot]
            if pay is not None:
                pay[pivot], pay[hit] = pay[hit], pay[pivot]
            counter.row_swap_count += 1
        prow = rows[pivot]
        lead = prow[col]
        if lead != 1:
            inv = gf.inv(lead)
            for j in range(col, m.cols):
                if prow[j]:
                    prow[j] = gf.mul(inv, prow[j])
                    counter.symbol_mul_count += 1
            if pay is not None:
                counter.symbol_mul_count += len(pay[pivot])
                pay[pivot] = scale_bytes(gf, inv, pay[pivot])
            counter.row_scale_count += 1
        for r in range(pivot + 1, m.rows):
            factor = rows[r][col]
            if not factor:
                continue
            rrow = rows[r]
            for j in range(col, m.cols):
                if prow[j]:
                    rrow[j] ^= gf.mul(factor, prow[j])
                    if factor != 1:
                        counter.symbol_mul_count += 1
            if pay is not None:
                if factor != 1:
                    counter.symbol_mul_count += len(pay[r])
                pay[r] = addmul_bytes(gf, pay[r], factor, pay[pivot])
            counter.row_xor_count += 1
        pivot += 1
    echelon = FieldMatrix.from_rows(m.spec, rows)
    return Triangularization(echelon, tuple(perm), pivot, pay)


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
    for i in range(n):
        if u.get(i, i) == 0:
            nz = sum(1 for t in range(n) if u.get(t, t) != 0)
            raise SingularMatrixError(f"zero diagonal at row {i}", rank=nz)

    if u.spec.m == 1:
        plen = len(rhs[0]) if n else 0
        acc = [int.from_bytes(p, "big") for p in rhs]
        x: list[int] = [0] * n
        bits = u._bits if u._bits is not None else [_pack_bits(r) for r in u.to_rows()]
        for i in range(n - 1, -1, -1):
            v = acc[i]
            row = bits[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    v ^= x[j]
                    counter.row_xor_count += 1
                row >>= 1
                j += 1
            x[i] = v
            counter.resolve_count += 1
        return [xi.to_bytes(plen, "big") for xi in x]

    # Each unknown is accumulated on one int, one `mul_int` per term.
    gf = field(u.spec)
    xs: list[bytes] = [b""] * n
    for i in range(n - 1, -1, -1):
        plen = len(rhs[i])
        v = int.from_bytes(rhs[i], "big")
        for j, c in u.row_support(i):
            if j <= i:
                continue
            if c != 1:
                counter.symbol_mul_count += plen
            v ^= mul_int(gf, c, xs[j])
            counter.row_xor_count += 1
        x = v.to_bytes(plen, "big")
        d = u.get(i, i)
        if d != 1:
            counter.symbol_mul_count += plen
            x = scale_bytes(gf, gf.inv(d), x)
            counter.row_scale_count += 1
        xs[i] = x
        counter.resolve_count += 1
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
    are for any coding system built from real payloads.
    """
    if m.rows < m.cols:
        raise SingularMatrixError(
            f"{m.rows} rows cannot determine {m.cols} unknowns", rank=m.rows
        )
    counter = counter if counter is not None else OpCounter()
    tri = triangularize(m, counter, rhs)
    if tri.rank < m.cols:
        raise SingularMatrixError(
            f"matrix rank {tri.rank} < {m.cols}", rank=tri.rank
        )
    n = m.cols
    if m.rows == n:
        square, srhs = tri.matrix, tri.rhs
    elif tri.matrix._bits is not None:
        square = FieldMatrix(m.spec, n, n, _bits=tri.matrix._bits[:n])
        srhs = tri.rhs[:n]
    else:
        square = FieldMatrix.from_rows(m.spec, tri.matrix.to_rows()[:n])
        srhs = tri.rhs[:n]
    return back_substitute(square, srhs, counter)


def invert(m: FieldMatrix, counter: Optional[OpCounter] = None) -> FieldMatrix:
    """Inverse over the field; raises SingularMatrixError with achieved rank."""
    if m.rows != m.cols:
        raise ValueError("inversion needs a square matrix")
    counter = counter if counter is not None else OpCounter()
    n = m.rows
    if m.spec.m == 1:
        rows = [r | (1 << (n + i)) for i, r in enumerate(
            m._bits if m._bits is not None else [_pack_bits(r) for r in m.to_rows()]
        )]
        # Gauss-Jordan on [A | I].
        pivot = 0
        for col in range(n):
            hit = -1
            for r in range(pivot, n):
                if rows[r] & (1 << col):
                    hit = r
                    break
            if hit < 0:
                continue
            if hit != pivot:
                rows[pivot], rows[hit] = rows[hit], rows[pivot]
                counter.row_swap_count += 1
            mask = 1 << col
            for r in range(n):
                if r != pivot and rows[r] & mask:
                    rows[r] ^= rows[pivot]
                    counter.row_xor_count += 1
            pivot += 1
        if pivot < n:
            raise SingularMatrixError(f"matrix rank {pivot} < {n}", rank=pivot)
        inv_bits = [r >> n for r in rows]
        return FieldMatrix(m.spec, n, n, _bits=inv_bits)

    gf = field(m.spec)
    rows = [r + [int(i == j) for j in range(n)] for i, r in enumerate(m.to_rows())]
    pivot = 0
    for col in range(n):
        hit = -1
        for r in range(pivot, n):
            if rows[r][col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != pivot:
            rows[pivot], rows[hit] = rows[hit], rows[pivot]
            counter.row_swap_count += 1
        prow = rows[pivot]
        lead = prow[col]
        if lead != 1:
            inv_lead = gf.inv(lead)
            for j in range(2 * n):
                if prow[j]:
                    prow[j] = gf.mul(inv_lead, prow[j])
                    counter.symbol_mul_count += 1
            counter.row_scale_count += 1
        for r in range(n):
            if r == pivot:
                continue
            factor = rows[r][col]
            if not factor:
                continue
            rrow = rows[r]
            for j in range(2 * n):
                if prow[j]:
                    rrow[j] ^= gf.mul(factor, prow[j])
                    if factor != 1:
                        counter.symbol_mul_count += 1
            counter.row_xor_count += 1
        pivot += 1
    if pivot < n:
        raise SingularMatrixError(f"matrix rank {pivot} < {n}", rank=pivot)
    return FieldMatrix.from_rows(m.spec, [r[n:] for r in rows])
