"""Entropy values, the generic MI engine, the closed form, the shell-sum identity."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bfmi.boolfn import Class1, Dictator, TruthTable, complement, make_class
from bfmi.channel import joint_yz
from bfmi.mi import binary_entropy, mi_class1_closed, mutual_information, qlogq_identity_check, xlog2x

GRID = tuple(Fraction(k, 64) for k in range(33))


def direct_mi(table, p):
    """Independent double-sum oracle over all 2^(n+1) joint entries."""
    n = table.n
    py = Fraction(1, 1 << n)
    ones = [x for x in range(1 << n) if (table.mask >> x) & 1]
    # p(x, y) = (1-p)^(n-d) * p^d / 2^n, d the Hamming distance of x and y
    weight = [(1 - p) ** (n - d) * p**d * py for d in range(n + 1)]
    rows = []
    for y in range(1 << n):
        p1 = sum((weight[(x ^ y).bit_count()] for x in ones), Fraction(0))
        rows.append((py - p1, p1))
    pz = (1 - sum((r[1] for r in rows), Fraction(0)), sum((r[1] for r in rows), Fraction(0)))
    terms = []
    for row in rows:
        for z in (0, 1):
            if row[z] > 0:
                terms.append(float(row[z]) * math.log2(float(row[z] / (py * pz[z]))))
    return math.fsum(terms)


def fraction_cell_mi(j):
    """Reference reduction over one Fraction per cell, grouping equal rows."""
    py = Fraction(1, 1 << j.n)
    pz = (j.pz0, j.pz1)
    terms = []
    for row, count in Counter(j.rows).items():
        for z in (0, 1):
            mass = row[z]
            if mass > 0:
                terms.append(count * float(mass) * math.log2(float(mass / (py * pz[z]))))
    return math.fsum(terms)


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(
            2 - 0.75 * math.log2(3), abs=1e-15
        )
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_symmetry(self):
        for p in (Fraction(1, 8), Fraction(3, 16), Fraction(5, 11)):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            binary_entropy(Fraction(9, 8))

    def test_xlog2x_zero_convention(self):
        assert xlog2x(0) == 0.0
        assert xlog2x(Fraction(1, 2)) == -0.5

    def test_xlog2x_rejects_negative_and_rounds_once(self):
        with pytest.raises(ValueError):
            xlog2x(Fraction(-1, 3))
        for v in (Fraction(1, 3), Fraction(13, 64), Fraction(2**70 + 1, 3**50), 5):
            assert xlog2x(v) == xlog2x(float(v)) == float(v) * math.log2(float(v))


class TestMutualInformation:
    def test_half_noise_gives_zero(self):
        rng = random.Random(13)
        for n in (1, 2, 4):
            table = TruthTable(n, rng.getrandbits(1 << n))
            assert mutual_information(joint_yz(table, Fraction(1, 2))).mi_bits == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_dictator_attains_the_bound(self, n):
        for p in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(31, 64)):
            result = mutual_information(joint_yz(make_class(n, Dictator(1)), p))
            assert abs(result.mi_bits - result.bound_bits) <= 1e-12
            assert abs(result.margin_bits) <= 1e-12

    def test_single_one_matches_direct_summation(self):
        j = joint_yz(make_class(2, Class1(0)), Fraction(1, 4))
        value = mutual_information(j).mi_bits
        assert value == pytest.approx(0.13167462567018207, abs=1e-15)
        assert value == pytest.approx(direct_mi(make_class(2, Class1(0)), Fraction(1, 4)), abs=1e-13)

    def test_random_tables_match_direct_summation(self):
        rng = random.Random(37)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                table = TruthTable(n, rng.getrandbits(1 << n))
                p = Fraction(rng.randrange(33), 64)
                got = mutual_information(joint_yz(table, p)).mi_bits
                assert got == pytest.approx(direct_mi(table, p), abs=1e-13)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    def test_bit_identical_to_fraction_cell_reduction(self, p):
        rng = random.Random(59)
        for n in range(1, 11):
            for mask in (rng.getrandbits(1 << n), 1 << rng.randrange(1 << n)):
                j = joint_yz(TruthTable(n, mask), p)
                assert mutual_information(j).mi_bits == fraction_cell_mi(j)

    def test_result_bounds(self):
        rng = random.Random(41)
        for n in (1, 3, 6):
            table = TruthTable(n, rng.getrandbits(1 << n))
            for p in (Fraction(0), Fraction(5, 64), Fraction(1, 2)):
                result = mutual_information(joint_yz(table, p))
                assert result.mi_bits >= -1e-12
                assert result.mi_bits <= 1 + 1e-12  # Z is a single bit

    def test_complement_invariance_is_exact_at_the_table_level(self):
        rng = random.Random(43)
        for n in (2, 3, 5):
            table = TruthTable(n, rng.getrandbits(1 << n))
            p = Fraction(7, 64)
            a = joint_yz(table, p)
            b = joint_yz(complement(table), p)
            pooled = lambda j: Counter(v for row in j.rows for v in row)
            assert pooled(a) == pooled(b)
            assert abs(mutual_information(a).mi_bits - mutual_information(b).mi_bits) <= 1e-12

    def test_endpoints(self):
        rng = random.Random(47)
        for n in (1, 2, 4, 6):
            table = TruthTable(n, rng.getrandbits(1 << n))
            noiseless = mutual_information(joint_yz(table, Fraction(0))).mi_bits
            assert noiseless == pytest.approx(
                binary_entropy(Fraction(table.ones_count(), 1 << n)), abs=1e-12
            )
            assert mutual_information(joint_yz(table, Fraction(1, 2))).mi_bits <= 1e-12

    def test_monotone_in_p_for_all_two_variable_functions(self):
        for mask in range(16):
            table = TruthTable(2, mask)
            values = [mutual_information(joint_yz(table, p)).mi_bits for p in GRID]
            for lo, hi in zip(values, values[1:]):
                assert lo >= hi - 1e-12


class TestClosedForm:
    def test_single_variable_reduces_to_capacity(self):
        for p in (Fraction(0), Fraction(1, 8), Fraction(1, 2)):
            assert mi_class1_closed(1, p) == pytest.approx(1 - binary_entropy(p), abs=1e-12)

    def test_matches_generic_engine(self):
        for n in (2, 3, 5, 8):
            table = make_class(n, Class1(0))
            for p in (Fraction(0), Fraction(1, 64), Fraction(1, 4), Fraction(1, 2)):
                generic = mutual_information(joint_yz(table, p)).mi_bits
                assert abs(mi_class1_closed(n, p) - generic) <= 1e-12

    def test_witness_location_is_irrelevant(self):
        p = Fraction(5, 32)
        values = {
            round(mutual_information(joint_yz(make_class(3, Class1(i)), p)).mi_bits, 15)
            for i in range(8)
        }
        assert len(values) == 1

    def test_noiseless_case(self):
        assert mi_class1_closed(10, 0) == pytest.approx(
            binary_entropy(Fraction(1, 1024)), abs=1e-12
        )


class TestShellSumIdentity:
    def test_frozen_example(self):
        lhs, rhs = qlogq_identity_check(2, Fraction(1, 4))
        assert lhs == pytest.approx(-0.9056390622295665, abs=1e-14)
        assert rhs == pytest.approx(-0.9056390622295665, abs=1e-14)

    def test_half_noise_value(self):
        lhs, rhs = qlogq_identity_check(3, Fraction(1, 2))
        assert rhs == pytest.approx(-0.75, abs=1e-15)
        assert abs(lhs - rhs) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_identity_across_p(self, n):
        for p in (Fraction(0), Fraction(3, 8), Fraction(1, 2), Fraction(11, 64)):
            lhs, rhs = qlogq_identity_check(n, p)
            assert abs(lhs - rhs) <= 1e-12
