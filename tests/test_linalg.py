"""Elimination, inversion, rank and the step-count accounting."""

import random

import pytest

from fountainkit.core import linear_combine
from fountainkit.errors import SingularMatrixError
from fountainkit.gf import GF2, GF256, FieldSpec, field
from fountainkit.linalg import (
    FieldMatrix,
    OpCounter,
    back_substitute,
    invert,
    rank,
    row_ops,
    scale_bytes,
    solve,
    triangularize,
    xor_bytes,
)

# The three received coded packets x1 = c1+c2, x2 = c2+c3, x3 = c1+c2+c3
# give this binary coefficient matrix; its inverse is known in closed form.
H = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
H_INV = [[0, 1, 1], [1, 1, 1], [1, 0, 1]]


def bits(rows):
    return FieldMatrix.from_rows(GF2, rows)


class TestTriangularize:
    def test_identity_fixed_point(self):
        m = FieldMatrix.identity(GF2, 3)
        tri = triangularize(m)
        assert tri.matrix == m
        assert tri.permutation == (0, 1, 2)
        assert tri.rank == 3

    def test_worked_binary_matrix_full_rank(self):
        assert triangularize(bits(H)).rank == 3

    def test_duplicate_rows_rank_one(self):
        assert triangularize(bits([[1, 1], [1, 1]])).rank == 1

    def test_input_not_modified(self):
        m = bits(H)
        before = m.to_rows()
        triangularize(m)
        assert m.to_rows() == before

    def test_echelon_is_upper_triangular(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [[rng.randrange(2) for _ in range(5)] for _ in range(5)]
            tri = triangularize(bits(rows))
            echelon = tri.matrix.to_rows()
            lead = -1
            for r in echelon[: tri.rank]:
                this = r.index(1)
                assert this > lead
                lead = this

    def test_permutation_replays_without_swaps(self):
        rng = random.Random(8)
        for spec in (GF2, GF256):
            for _ in range(30):
                rows = [
                    [rng.randrange(spec.order) for _ in range(4)] for _ in range(6)
                ]
                m = FieldMatrix.from_rows(spec, rows)
                tri = triangularize(m)
                permuted = FieldMatrix.from_rows(
                    spec, [rows[i] for i in tri.permutation]
                )
                counter = OpCounter()
                replay = triangularize(permuted, counter)
                assert replay.matrix == tri.matrix
                assert counter.row_swap_count == 0

    def test_rank_preserved(self):
        rng = random.Random(9)
        for _ in range(30):
            rows = [[rng.randrange(2) for _ in range(6)] for _ in range(4)]
            m = bits(rows)
            assert triangularize(triangularize(m).matrix).rank == rank(m)


class TestBackSubstitute:
    def test_identity_system(self):
        rng = random.Random(10)
        rhs = [bytes(rng.randrange(256) for _ in range(4)) for _ in range(3)]
        counter = OpCounter()
        out = back_substitute(FieldMatrix.identity(GF2, 3), rhs, counter)
        assert out == rhs
        assert counter.row_xor_count == 0
        assert counter.resolve_count == 3

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_dense_triangular_step_count(self, k):
        # Full upper-triangular system: k(k+1)/2 elementary steps, of which
        # k(k-1)/2 are row combinations and k are resolutions.
        u = bits([[0] * i + [1] * (k - i) for i in range(k)])
        rhs = [bytes([i + 1]) for i in range(k)]
        counter = OpCounter()
        back_substitute(u, rhs, counter)
        assert counter.row_xor_count == k * (k + 1) // 2 - k
        assert counter.resolve_count == k
        assert counter.elementary_steps == k * (k + 1) // 2

    def test_diagonal_takes_k_steps(self):
        k = 6
        counter = OpCounter()
        back_substitute(
            FieldMatrix.identity(GF2, k), [bytes(2)] * k, counter
        )
        assert counter.elementary_steps == k

    def test_zero_diagonal_rejected(self):
        u = bits([[1, 1], [0, 0]])
        with pytest.raises(SingularMatrixError) as exc:
            back_substitute(u, [b"\x01", b"\x02"])
        assert exc.value.rank == 1

    def test_solution_satisfies_system(self):
        rng = random.Random(11)
        g = field(GF256)
        k = 5
        rows = [[0] * i + [rng.randrange(1, 256)] +
                [rng.randrange(256) for _ in range(k - i - 1)] for i in range(k)]
        u = FieldMatrix.from_rows(GF256, rows)
        rhs = [bytes(rng.randrange(256) for _ in range(3)) for _ in range(k)]
        xs = back_substitute(u, rhs)
        for i in range(k):
            acc = bytes(3)
            for j in range(k):
                if rows[i][j]:
                    acc = bytes(
                        a ^ g.mul(rows[i][j], b) for a, b in zip(acc, xs[j])
                    )
            assert acc == rhs[i]


class TestInvert:
    def test_worked_binary_inverse(self):
        assert invert(bits(H)).to_rows() == H_INV

    def test_identity(self):
        m = FieldMatrix.identity(GF256, 4)
        assert invert(m) == m

    def test_gf256_multiply_back(self):
        m = FieldMatrix.from_rows(GF256, [[1, 1], [1, 2]])
        assert m.matmul(invert(m)) == FieldMatrix.identity(GF256, 2)

    def test_singular_carries_rank(self):
        with pytest.raises(SingularMatrixError) as exc:
            invert(bits([[1, 1], [1, 1]]))
        assert exc.value.rank == 1

    def test_exhaustive_3x3_binary_inverses(self):
        ident = FieldMatrix.identity(GF2, 3)
        invertible = 0
        for packed in range(512):
            rows = [[(packed >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            m = bits(rows)
            try:
                inv = invert(m)
            except SingularMatrixError:
                continue
            invertible += 1
            assert m.matmul(inv) == ident
        assert invertible == 168  # |GL(3, 2)|


class TestRank:
    def test_zero_matrix(self):
        assert rank(FieldMatrix.zeros(GF2, 3, 3)) == 0

    def test_worked_matrix(self):
        assert rank(bits(H)) == 3

    def test_census_of_3x3_binary_matrices(self):
        full = sum(
            1
            for packed in range(512)
            if rank(
                bits([[(packed >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)])
            ) == 3
        )
        assert full == 168


class TestSolve:
    def test_identity(self):
        rhs = [b"ab", b"cd", b"ef"]
        assert solve(FieldMatrix.identity(GF2, 3), rhs) == rhs

    def test_worked_decode_relations(self):
        # Payloads coded as x1=c1+c2, x2=c2+c3, x3=c1+c2+c3; the solve must
        # reproduce c1=x2+x3, c2=x1+x2+x3, c3=x1+x3.
        rng = random.Random(12)
        c = [bytes(rng.randrange(256) for _ in range(6)) for _ in range(3)]
        x1 = xor_bytes(c[0], c[1])
        x2 = xor_bytes(c[1], c[2])
        x3 = xor_bytes(xor_bytes(c[0], c[1]), c[2])
        got = solve(bits(H), [x1, x2, x3])
        assert got == c
        assert got[0] == xor_bytes(x2, x3)
        assert got[1] == xor_bytes(x1, xor_bytes(x2, x3))
        assert got[2] == xor_bytes(x1, x3)

    def test_gf2_never_scales(self):
        rng = random.Random(13)
        for _ in range(20):
            rows = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
            m = bits(rows)
            if rank(m) < 4:
                continue
            counter = OpCounter()
            solve(m, [bytes([rng.randrange(256)]) for _ in range(4)], counter)
            assert counter.row_scale_count == 0
            assert counter.symbol_mul_count == 0

    def test_gf256_multiply_back_random(self):
        rng = random.Random(14)
        g = field(GF256)
        k = 8
        while True:
            rows = [[rng.randrange(256) for _ in range(k)] for _ in range(k)]
            m = FieldMatrix.from_rows(GF256, rows)
            if rank(m) == k:
                break
        rhs = [bytes(rng.randrange(256) for _ in range(4)) for _ in range(k)]
        xs = solve(m, rhs)
        for i in range(k):
            acc = bytes(4)
            for j in range(k):
                if rows[i][j]:
                    acc = bytes(a ^ g.mul(rows[i][j], b) for a, b in zip(acc, xs[j]))
            assert acc == rhs[i]

    def test_singular_reports_rank(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve(bits([[1, 0], [1, 0]]), [b"a", b"b"])
        assert exc.value.rank == 1

    def test_too_few_rows_report_their_rank_not_their_number(self):
        counter = OpCounter()
        with pytest.raises(SingularMatrixError) as exc:
            solve(bits([[1, 1, 0], [1, 1, 0]]), [b"a", b"a"], counter)
        assert exc.value.rank == 1
        assert counter == OpCounter()


class TestRepresentations:
    def test_gf2_always_bit_packed(self):
        ops = row_ops(GF2)
        assert ops.pack([0, 0, 1]) == 0b100
        assert ops.unpack(0b100, 3) == [0, 0, 1]
        assert bits([[0, 0, 1], [0, 0, 0], [1, 0, 0]]).get(0, 2) == 1

    def test_conversion_round_trip(self):
        rng = random.Random(15)
        for spec in (GF2, GF256):
            rows = [
                [rng.randrange(spec.order) if rng.random() < 0.3 else 0 for _ in range(12)]
                for _ in range(12)
            ]
            m = FieldMatrix.from_rows(spec, rows)
            assert m.to_rows() == rows
            assert m == FieldMatrix.from_rows(spec, m.to_rows())
            assert [m.get(i, j) for i in range(12) for j in range(12)] == sum(rows, [])

    def test_other_fields_rejected(self):
        g16 = FieldSpec(m=4, modulus=0b10011, generator=2)
        with pytest.raises(ValueError):
            FieldMatrix.from_rows(g16, [[1, 2], [3, 4]])


class TestRhsLength:
    """Payload rows of unequal length are rejected, not silently combined."""

    @pytest.mark.parametrize("spec", [GF2, GF256], ids=["gf2", "gf256"])
    @pytest.mark.parametrize("rhs", [[b"abc", b"de"], [b"de", b"abc"]], ids=["long-first", "short-first"])
    def test_solve_rejects_ragged_rhs(self, spec, rhs):
        m = FieldMatrix.from_rows(spec, [[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="equal length"):
            solve(m, rhs)
        with pytest.raises(ValueError, match="equal length"):
            triangularize(m, rhs=rhs)
        with pytest.raises(ValueError, match="equal length"):
            back_substitute(m, rhs)


KERNEL_COEFFICIENTS = (0, 1, 2, 0x8E, 0xFF)


def per_byte_scale(c, a):
    g = field(GF256)
    return bytes(g.mul(c, v) for v in a)


class TestRowKernels:
    """The table-lookup row kernels against a per-byte `gf.mul` reference."""

    @pytest.mark.parametrize("c", KERNEL_COEFFICIENTS)
    def test_scale_bytes(self, c):
        rng = random.Random(c)
        for size in (1, 7, 1024):
            a = rng.randbytes(size)
            assert scale_bytes(field(GF256), c, a) == per_byte_scale(c, a)

    @pytest.mark.parametrize("c", KERNEL_COEFFICIENTS)
    def test_addmul_bytes(self, c):
        rng = random.Random(100 + c)
        for size in (1, 7, 1024):
            acc, a = rng.randbytes(size), rng.randbytes(size)
            expected = bytes(x ^ y for x, y in zip(acc, per_byte_scale(c, a)))
            assert row_ops(GF256).addmul(acc, c, a) == expected

    @pytest.mark.parametrize("c", KERNEL_COEFFICIENTS)
    def test_linear_combine(self, c):
        rng = random.Random(200 + c)
        packets = [rng.randbytes(33) for _ in range(5)]
        # The coefficient under test, next to random ones and a zero.
        coeffs = [c, rng.randrange(256), 0, c, rng.randrange(2, 256)]
        expected = bytes(33)
        for ci, p in zip(coeffs, packets):
            expected = bytes(x ^ y for x, y in zip(expected, per_byte_scale(ci, p)))
        assert linear_combine(packets, coeffs, GF256) == expected

    def test_leading_zero_bytes_kept(self):
        # The int accumulators must not drop leading zero bytes.
        packets = [b"\x00\x00\x05", b"\x00\x00\x07"]
        assert linear_combine(packets, [1, 1], GF256) == b"\x00\x00\x02"
        assert row_ops(GF256).addmul(b"\x00\x01", 2, b"\x00\x00") == b"\x00\x01"
