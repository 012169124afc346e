"""GF(2^m) arithmetic: worked values, field axioms, table/schoolbook agreement."""

import random

import pytest

from fountainkit.errors import FieldConstructionError
from fountainkit.gf import GF2, GF256, FieldSpec, field

G = field(GF256)


class TestAdd:
    def test_self_inverse(self):
        assert G.add(1, 1) == 0

    def test_identity(self):
        for v in (0, 1, 0x53, 0xFF):
            assert G.add(v, 0) == v

    def test_xor_value(self):
        assert G.add(0x53, 0xCA) == 0x99


class TestMul:
    def test_absorbing_zero(self):
        for v in (0, 1, 7, 255):
            assert G.mul(0, v) == 0

    def test_identity(self):
        for v in (0, 1, 7, 255):
            assert G.mul(1, v) == v

    def test_overflow_reduction(self):
        # 142 << 1 = 0x11C overflows, so the modulus 0x11D folds it to 1.
        assert G.mul(2, 142) == 1

    def test_commutative_sampled(self):
        g = field(GF256)
        rng = random.Random(1)
        for _ in range(500):
            a, b = rng.randrange(256), rng.randrange(256)
            assert g.mul(a, b) == g.mul(b, a)

    def test_distributive_sampled(self):
        g = field(GF256)
        rng = random.Random(2)
        for _ in range(500):
            a, b, c = (rng.randrange(256) for _ in range(3))
            assert g.mul(a, b ^ c) == g.mul(a, b) ^ g.mul(a, c)


class TestInv:
    def test_one(self):
        assert G.inv(1) == 1

    def test_two_gf256(self):
        assert G.inv(2) == 142

    def test_gf2(self):
        assert field(GF2).inv(1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            G.inv(0)

    def test_exhaustive_gf256(self):
        g = field(GF256)
        for a in range(1, 256):
            assert g.mul(a, g.inv(a)) == 1


class TestTables:
    def test_gf2_tables(self):
        g = field(GF2)
        assert g.exp_table == (1,)

    def test_first_generator_power(self):
        assert field(GF256).exp_table[1] == 2

    def test_table_matches_schoolbook_sampled(self):
        g = field(GF256)
        rng = random.Random(3)
        for _ in range(1000):
            a, b = rng.randrange(256), rng.randrange(256)
            assert g.mul(a, b) == g.mul_schoolbook(a, b)

    def test_table_matches_schoolbook_exhaustive(self):
        g = field(GF256)
        for a in range(256):
            for b in range(256):
                assert g.mul(a, b) == g.mul_schoolbook(a, b)

    def test_non_primitive_generator_rejected(self):
        with pytest.raises(FieldConstructionError):
            field(FieldSpec(m=8, modulus=0x11D, generator=1))

    def test_reducible_modulus_rejected(self):
        # x^8 + x^4 + x^3 + x^2 + x = x * (x^7 + ...) is reducible.
        with pytest.raises(FieldConstructionError):
            field(FieldSpec(m=8, modulus=0x11E, generator=2))


#: One primitive polynomial per degree 1..16.
PRIMITIVE_MODULI = {
    1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
    6: 0b1000011, 7: 0b10001001, 8: 0x11D, 9: 0b1000010001,
    10: 0b10000001001, 11: 0b100000000101, 12: 0b1000001010011,
    13: 0b10000000011011, 14: 0b100010001000011,
    15: 0b1000000000000011, 16: 0b10001000000001011,
}


class TestProductTables:
    def test_matches_schoolbook_exhaustive(self):
        g = field(GF256)
        for c in range(256):
            table = g.mul_table(c)
            assert len(table) == 256
            for v in range(256):
                assert table[v] == g.mul_schoolbook(c, v)

    def test_other_fields_build_no_tables(self):
        # Every degree but 8 constructs as before and never builds tables.
        for m, mod in PRIMITIVE_MODULI.items():
            if m == 8:
                continue
            g = field(FieldSpec(m=m, modulus=mod, generator=2 if m > 1 else 1))
            with pytest.raises(ValueError):
                g.mul_table(1)
            assert g._mul_tables is None


class TestFieldSpec:
    def test_degree_enforced(self):
        with pytest.raises(FieldConstructionError):
            FieldSpec(m=8, modulus=0x1D, generator=2)

    def test_m_range(self):
        with pytest.raises(FieldConstructionError):
            FieldSpec(m=0, modulus=0b1, generator=1)
        with pytest.raises(FieldConstructionError):
            FieldSpec(m=17, modulus=1 << 17 | 1, generator=2)

    def test_supported_range_constructs(self):
        # One primitive polynomial per degree 1..16.
        moduli = {
            1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
            6: 0b1000011, 7: 0b10001001, 8: 0x11D, 9: 0b1000010001,
            10: 0b10000001001, 11: 0b100000000101, 12: 0b1000001010011,
            13: 0b10000000011011, 14: 0b100010001000011,
            15: 0b1000000000000011, 16: 0b10001000000001011,
        }
        for m, mod in moduli.items():
            g = field(FieldSpec(m=m, modulus=mod, generator=2 if m > 1 else 1))
            assert len(g.exp_table) == (1 << m) - 1


class TestAxioms:
    @pytest.mark.parametrize("m,mod,gen", [(1, 0b11, 1), (4, 0b10011, 2), (8, 0x11D, 2)])
    def test_sampled_triples(self, m, mod, gen):
        g = field(FieldSpec(m=m, modulus=mod, generator=gen))
        rng = random.Random(m)
        n = 1 << m
        for _ in range(300):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert a ^ a == 0
            assert g.mul(a, b ^ c) == g.mul(a, b) ^ g.mul(a, c)
        for a in range(1, n):
            assert g.mul(a, g.inv(a)) == 1
