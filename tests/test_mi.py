"""Entropy values, the generic MI engine, the closed form, the shell-sum identity."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import bfmi._kernel
import bfmi.mi
from bfmi._kernel import _KERNEL_ROWS, _block_terms, _cell_quotients, _distinct_rows, _mi_bits
from bfmi.boolfn import (
    Class1,
    Class2,
    Class3,
    Class4,
    Dictator,
    Lex,
    ProfileHistogram,
    TruthTable,
    complement,
    make_class,
    profile_histogram,
)
from bfmi.channel import _fold, joint_yz
from bfmi.mi import (
    _profile_rows,
    _ratio_scales,
    binary_entropy,
    histogram_mutual_information,
    mi_class1_closed,
    mutual_information,
    qlogq_identity_check,
    xlog2x,
)
from test_boolfn import brute_force_profiles, histogram_classes
from test_channel import joint_from_nums, p1_nums

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
    pz = (1 - j.pz1, j.pz1)
    terms = []
    for row, count in Counter(j.rows).items():
        for z in (0, 1):
            mass = row[z]
            if mass > 0:
                terms.append(count * float(mass) * math.log2(float(mass / (py * pz[z]))))
    return math.fsum(terms)


def reference_scales(j):
    """(den/2^n, up, down) of ``j``: p_yz / (p_y * p_z) = mass * up[z] / down[z] with p_y = 1/2^n."""
    pz = (1 - j.pz1, j.pz1)
    up = [q.denominator << j.n for q in pz]
    down = [j.den * q.numerator for q in pz]
    return j.den >> j.n, up, down


def loop_mi(j):
    """The per-cell reduction the kernel replaced: one Python int per cell, int / int quotients."""
    den, (py_num, up, down) = j.den, reference_scales(j)
    terms = []
    for num, count in Counter(p1_nums(j)).items():
        for z, mass in enumerate((py_num - num, num)):
            if mass > 0:
                terms.append(count * (mass / den) * math.log2(mass * up[z] / down[z]))
    return math.fsum(terms)


def record_exact_rows(monkeypatch):
    """Patch ``_exact_terms`` to log how many rows each call takes; returns the log."""
    log, exact = [], bfmi.mi._exact_terms
    monkeypatch.setattr(bfmi._kernel, "_exact_terms", lambda nums, *args: log.append(len(nums)) or exact(nums, *args))
    return log


def term_bits(terms):
    """The multiset of a block's terms, bit for bit and in no particular order."""
    return sorted(map(float.hex, terms))


def kernel_fallbacks(j):
    """Reduce the distinct rows of ``j`` through ``_mi_bits`` and count the cells it divides as Python ints.

    The grouping is checked against Python ints, every quotient the kernel
    decides against ``int / int``, and the MI against ``mutual_information``.
    Returns how many cells went to the exact ``int / int`` path: each cell
    the kernel left undecided, or every cell when den >= 2^1022 keeps the
    kernel out.
    """
    rows, counts = _distinct_rows(j.words)
    nums = _fold(rows)
    assert dict(zip(nums, counts.tolist())) == Counter(p1_nums(j))
    want, runs = mutual_information(j).mi_bits, []
    kernel = bfmi._kernel._cell_quotients
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bfmi._kernel, "_cell_quotients", lambda *args: runs.append(kernel(*args)) or runs[-1])
        exact_rows = record_exact_rows(m)
        assert _mi_bits(rows, counts, j.n, j.den, j.pz1) == want
    if not runs:
        return 2 * sum(exact_rows)
    # each block sends the kernel's undecided rows, and only those, to int / int
    assert exact_rows == [np.count_nonzero(undecided.any(axis=0)) for _, undecided in runs]
    (c1, c2), undecided = (np.concatenate(parts, axis=-1) for parts in zip(*runs))
    den, (py_num, up, down) = j.den, reference_scales(j)
    for i, num in enumerate(nums):
        for z, mass in enumerate((py_num - num, num)):
            if not undecided[z, i]:
                assert c1[z, i] == mass / den, (z, num)
                assert not mass or c2[z, i] == mass * up[z] / down[z], (z, num)
    return int(np.count_nonzero(undecided))


def cells_near_midpoints(j, rel):
    """How many cells have a quotient within ``rel``·q of a float64 rounding midpoint.

    The kernel's analysis says every such cell falls back when rel <= 2^-100
    (its approximation errs by less than 2^-98.9 and its test pushes by at
    least 2^-97), and none does when rel >= 2^-93 (the push is at most 2^-94).
    """
    den, (py_num, up, down) = j.den, reference_scales(j)

    def near(q):
        r = float(q)
        side = math.nextafter(r, math.inf if q > r else 0.0)
        return abs(q - (Fraction(r) + Fraction(side)) / 2) <= rel * q

    return sum(
        near(Fraction(mass, den)) or near(Fraction(mass * up[z], down[z]))
        for num in set(p1_nums(j))
        for z, mass in enumerate((py_num - num, num))
        if mass
    )


def byte_sort_rows(words):
    """The grouping the uint64 keys replaced: one sort of every row's bytes as a string."""
    keys = np.sort(np.ascontiguousarray(words).view(f"S{8 * words.shape[1]}")[:, 0])
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts].view("<u8").reshape(len(starts), -1), np.diff(starts, append=len(keys))


def assert_groups_match_the_oracles(words):
    """``_distinct_rows`` lists every distinct row once, with its count, as both oracles do."""
    rows, counts = _distinct_rows(words)
    assert rows.dtype == words.dtype and rows.shape == (len(counts), words.shape[1])
    groups = sorted(zip(_fold(rows), counts.tolist()))
    assert groups == sorted(Counter(_fold(words)).items())
    old_rows, old_counts = byte_sort_rows(words)
    assert groups == sorted(zip(_fold(old_rows), old_counts.tolist()))


def mi_under_the_byte_sort(j, monkeypatch):
    """MI of ``j`` with the old grouping in place of ``_distinct_rows``."""
    with monkeypatch.context() as m:
        m.setattr(bfmi._kernel, "_distinct_rows", byte_sort_rows)
        return mutual_information(j).mi_bits


def words_of(nums, width):
    """Hand-built ``(len(nums), width)`` little-endian words of Python ints."""
    return np.array([[(x >> (64 * k)) & (2**64 - 1) for k in range(width)] for x in nums], dtype=np.uint64)


def _interleaved():
    # equal keys (the top word has bit 63 set, so the key is that word alone) whose two
    # lower words differ, in an order that keeps no group's rows together
    tops, mids, lows = (2**63 + 5, 2**63 + 9), (0, 7), (1, 2)
    return [t << 128 | m << 64 | lo for _ in range(2) for lo in lows for m in mids for t in tops]


def _four_words():
    rng = random.Random(71)
    values = [rng.getrandbits(250) for _ in range(4)]
    values += [v ^ 1 for v in values]  # the same 64 top bits, a different last word
    return [rng.choice(values) for _ in range(40)], 4


HAND_BUILT = {
    # every key distinct: the fast exit returns the words themselves
    "distinct-keys": ([random.Random(67 + i).getrandbits(100) for i in range(50)], 2),
    "equal-keys-interleaved": (_interleaved(), 3),
    # the top word holds 8 bits, so the key keeps word 0's top 56; rows differ in its low 8
    "below-the-aligned-key": ([0xFF << 64 | 0xABCDEF << 40 | d for d in (0, 1, 2, 1, 0, 255, 2)], 2),
    # rows differ only in the highest set bit of the top word
    "top-bit-only": ([1 << 104 | 12345, 12345, 1 << 104 | 12345, 12345, 6789], 2),
    "top-word-zero": ([5, 5 | 1 << 64, 5, 7 | 1 << 64, 5 | 1 << 64, 4], 3),
    "one-word": ([3, 1, 3, 3, 0, 1, 2**64 - 1, 2**63], 1),
    "four-words": _four_words(),
    "all-zero": ([0] * 6, 2),
    "one-row": ([2**70 + 1], 2),
}


KERNEL_P = (Fraction(0), Fraction(1, 2), Fraction(13, 64), Fraction(1, 3), Fraction(2047, 4096),
            Fraction(12345, 100003))


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


class TestDoubleDoubleKernel:
    """The NumPy double-double quotients reproduce the per-cell Python-int loop bit for bit."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_tables_match_the_loop(self, n):
        # every lane width (56/48/40/32/24 bits) and one to four words per row
        table = TruthTable(n, random.Random(100 + n).getrandbits(1 << n))
        # one p per n from n = 13 on, where the loop oracle costs about 0.1 s per call
        grid = KERNEL_P if n <= 12 else [KERNEL_P[{13: 5, 14: 4, 15: 2, 16: 3}[n]]]
        for p in grid:
            j = joint_yz(table, p)
            assert mutual_information(j).mi_bits == loop_mi(j), p
            assert kernel_fallbacks(j) == 0, p

    @pytest.mark.parametrize("n", [5, 10])
    def test_structured_and_constant_tables_match_the_loop(self, n):
        r = n // 2
        tables = [make_class(n, cls) for cls in (Class1(3), Class2(5), Class3(r, 1), Class4(r, 2), Dictator(2))]
        tables += [TruthTable(n, 0), TruthTable(n, (1 << (1 << n)) - 1)]
        for p in KERNEL_P:
            for table in tables:
                j = joint_yz(table, p)
                assert mutual_information(j).mi_bits == loop_mi(j), (table, p)
                assert kernel_fallbacks(j) == 0, (table, p)

    def test_exact_rounding_midpoints(self):
        # den = 2^120: c1 = num·2^-120 exactly, and a 54-bit odd num·2^40 lies on a midpoint
        ties = [((1 << 53) + 2 * i + 1) << 40 for i in range(4)]
        nums = [m + d for m in ties for d in (0, 1, -1, 1 << 39)]  # and its near neighbours
        assert len(nums) == 16
        j = joint_from_nums(4, Fraction(1, 4), 1 << 120, nums, Fraction(sum(nums), 1 << 120))
        assert mutual_information(j).mi_bits == loop_mi(j)
        # masses above 2^105: the ties must fall back; their neighbours lie 2^-94 away
        assert cells_near_midpoints(j, Fraction(1, 2**100)) == cells_near_midpoints(j, Fraction(0)) == 4
        assert 4 <= kernel_fallbacks(j) <= cells_near_midpoints(j, Fraction(1, 2**93))
        # below 2^105 a dyadic den makes every step exact, and ties round to even in the kernel
        small = [m >> 20 for m in nums]
        j = joint_from_nums(4, Fraction(1, 4), 1 << 100, small, Fraction(sum(small), 1 << 100))
        assert mutual_information(j).mi_bits == loop_mi(j)
        assert cells_near_midpoints(j, Fraction(0)) == 4
        assert kernel_fallbacks(j) == 0

    def test_near_midpoints_of_a_non_dyadic_den(self):
        # den = 2^4·3^80: masses rounded from the c1 midpoints (2^53 + 2i + 1)·2^-60 lie within
        # 2^-123 of them, and offsets of 2^(b - 104) and 2^(b - 102) for b-bit masses move c1
        # about 2^-104 and 2^-102 away: all inside the kernel's margin; 2^(b - 85) is outside
        den = 3**80 << 4
        centres = [((((1 << 53) + 2 * i + 1) * den) >> 59) + 1 >> 1 for i in range(4)]
        b = centres[0].bit_length()
        nums = [m + d for m in centres for d in (0, 1 << (b - 104), -1 << (b - 102), 1 << (b - 85))]
        j = joint_from_nums(4, Fraction(1, 4), den, nums, Fraction(sum(nums), den))
        assert mutual_information(j).mi_bits == loop_mi(j)
        close = cells_near_midpoints(j, Fraction(1, 2**100))
        assert close >= 12
        assert close <= kernel_fallbacks(j) <= cells_near_midpoints(j, Fraction(1, 2**93))

    def test_equal_floats_of_distinct_rows_stay_apart(self):
        # 2^60 and 2^60 + 1 round to the same float; grouping must still tell them apart
        nums = [1 << 60, (1 << 60) + 1, 1 << 60, (1 << 60) + 1]
        j = joint_from_nums(2, Fraction(1, 4), 1 << 72, nums, Fraction(sum(nums), 1 << 72))
        assert sorted(_distinct_rows(j.words)[1].tolist()) == [2, 2]
        assert mutual_information(j).mi_bits == loop_mi(j)
        assert kernel_fallbacks(j) == 0

    def test_den_at_the_top_of_the_exponent_range(self):
        inside = joint_yz(make_class(8, Class1(0)), Fraction(1, 2**125 + 1))
        assert inside.den.bit_length() == 1017
        assert mutual_information(inside).mi_bits == loop_mi(inside)
        assert kernel_fallbacks(inside) == 0
        outside = joint_yz(make_class(8, Class1(0)), Fraction(1, 2**126 + 1))
        assert outside.den.bit_length() == 1025  # every cell goes to int / int
        assert mutual_information(outside).mi_bits == loop_mi(outside)
        assert kernel_fallbacks(outside) == 2 * 9  # both cells of the 9 Hamming-shell rows

    def test_quotients_below_the_smallest_subnormal(self):
        # class 1 at p = 2^-200: the far shells' masses are below 2^-1074 of den, so c1 and c2
        # round to 0.0; the old loop took log2(0.0) there and raised
        j = joint_yz(make_class(6, Class1(0)), Fraction(1, 2**200))
        assert kernel_fallbacks(j) == 2 * 7
        with pytest.raises(ValueError, match="math domain error"):
            loop_mi(j)
        den, (py_num, up, down) = j.den, reference_scales(j)
        terms = [
            count * (mass / den) * math.log2(mass * up[z] / down[z])
            for num, count in Counter(p1_nums(j)).items()
            for z, mass in enumerate((py_num - num, num))
            if mass / den > 0
        ]
        assert len(terms) < 2 * 7
        assert mutual_information(j).mi_bits == math.fsum(terms)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dens_below_the_ratio_scale_match_the_fraction_oracle(self, n):
        # noiseless tables, den = 2^n: every p1 numerator is 0 or 1, and up = total·2^n outgrows
        # down[z] = 2^n·(total - ones or ones), so _scaled_dd shifts den up, not num
        size = 1 << n
        masks = range(1 << size) if n <= 3 else random.Random(n).sample(range(1 << size), 64)
        for mask in masks:
            nums = [mask >> y & 1 for y in range(size)]
            j = joint_from_nums(n, Fraction(0), size, nums, Fraction(sum(nums), size))
            assert mutual_information(j).mi_bits == fraction_cell_mi(j), mask
        assert mutual_information(joint_from_nums(1, Fraction(0), 2, [1, 0], Fraction(1, 2))).mi_bits == 1.0

    @pytest.mark.parametrize("n", range(8, 13))
    def test_rows_the_kernel_leaves_undecided_match_the_loop(self, n, monkeypatch):
        # every cell flagged: each kernel block sends all of its rows to int / int
        kernel = bfmi._kernel._round_products

        def undecided_everywhere(*args):
            r, undecided = kernel(*args)
            return r, np.ones_like(undecided)

        monkeypatch.setattr(bfmi._kernel, "_round_products", undecided_everywhere)
        exact_rows = record_exact_rows(monkeypatch)
        table = TruthTable(n, random.Random(300 + n).getrandbits(1 << n))
        for p in (Fraction(13, 64), Fraction(12345, 100003)):
            j = joint_yz(table, p)
            exact_rows.clear()
            assert mutual_information(j).mi_bits == loop_mi(j), p
            assert sum(exact_rows) == len(set(p1_nums(j))), p


# (n, p) for random tables whose rows take one to four words, at dyadic and non-dyadic den
BLOCK_CASES = {
    "1w-13/64": (8, Fraction(13, 64)),
    "1w-1/3": (8, Fraction(1, 3)),
    "2w-13/64": (10, Fraction(13, 64)),
    "2w-12345/100003": (6, Fraction(12345, 100003)),
    "3w-2047/4096": (10, Fraction(2047, 4096)),
    "3w-12345/100003": (10, Fraction(12345, 100003)),
    "4w-2^-35": (6, Fraction(1, 2**35)),
    "4w-12345/100003": (12, Fraction(12345, 100003)),
}


def record_kernel_rows(monkeypatch):
    """Patch ``_round_products`` to log how many rows each kernel run takes; returns the log."""
    log, kernel = [], bfmi._kernel._round_products
    monkeypatch.setattr(bfmi._kernel, "_round_products", lambda hi, *args: log.append(hi.shape[-1]) or kernel(hi, *args))
    return log


class TestKernelBlocks:
    """Blocks of table rows of any size run the kernel; only its undecided rows are divided as Python ints."""

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_small_blocks_take_the_kernel_and_match_int_division_bit_for_bit(self, case, monkeypatch):
        n, p = BLOCK_CASES[case]
        j = joint_yz(TruthTable(n, random.Random(n).getrandbits(1 << n)), p)
        rows = _distinct_rows(j.words)[0]
        assert rows.shape[1] == int(case[0]) and len(rows) > 41
        scales, (py_num, up, down) = _ratio_scales(n, j.den, j.pz1), reference_scales(j)
        exact = bfmi.mi._exact_terms
        kernel_rows, exact_rows = record_kernel_rows(monkeypatch), record_exact_rows(monkeypatch)
        for size in (1, 2, 17, 39, 40, 41):
            part, counts = rows[:size], np.arange(1.0, size + 1)
            kernel_rows.clear()
            exact_rows.clear()
            terms = term_bits(_block_terms(part, counts, j.den, scales))
            assert kernel_rows == [size], size
            (c1, c2), undecided = _cell_quotients(part, j.den, *scales)
            # one kernel run, and only the rows it leaves undecided reach int / int
            assert exact_rows == [np.count_nonzero(undecided.any(axis=0))], size
            by_ints = term_bits(exact(_fold(part), counts.tolist(), j.den, *scales))
            assert terms == by_ints, size
            for i, num in enumerate(_fold(part)):
                for z, mass in enumerate((py_num - num, num)):
                    if not undecided[z, i]:
                        assert c1[z, i] == mass / j.den
                        assert not mass or c2[z, i] == mass * up[z] / down[z]

    def test_class_and_random_tables_take_the_kernel_once(self, monkeypatch):
        kernel_rows, exact_rows = record_kernel_rows(monkeypatch), record_exact_rows(monkeypatch)
        p = Fraction(13, 64)
        for cls in (Class1(3), Class2(5), Class3(4, 1), Class4(4, 2), Dictator(2)):
            j = joint_yz(make_class(10, cls), p)
            rows = _distinct_rows(j.words)[0]
            assert len(rows) <= 11
            kernel_rows.clear()
            exact_rows.clear()
            assert mutual_information(j).mi_bits == loop_mi(j), cls
            assert kernel_rows == [len(rows)] and exact_rows == [0], cls  # the kernel decides every cell
        j = joint_yz(TruthTable(10, random.Random(10).getrandbits(1 << 10)), p)
        rows = _distinct_rows(j.words)[0]
        kernel_rows.clear()
        exact_rows.clear()
        assert mutual_information(j).mi_bits == loop_mi(j)
        assert kernel_rows == [len(rows)] and exact_rows == [0]

    def test_a_short_last_block_takes_the_kernel(self, monkeypatch):
        # the first _KERNEL_ROWS + 17 distinct rows of a random n = 12 table, repeated to fill
        # its 2^12 rows: the kernel takes the full block and then the 17-row tail
        p = Fraction(13, 64)
        j = joint_yz(TruthTable(12, random.Random(12).getrandbits(1 << 12)), p)
        distinct = list(dict.fromkeys(p1_nums(j)))[: _KERNEL_ROWS + 17]
        assert len(distinct) == _KERNEL_ROWS + 17
        nums = [distinct[y % len(distinct)] for y in range(1 << 12)]
        j = joint_from_nums(12, p, j.den, nums, Fraction(sum(nums), j.den))
        kernel_rows, exact_rows = record_kernel_rows(monkeypatch), record_exact_rows(monkeypatch)
        assert mutual_information(j).mi_bits == loop_mi(j)
        # neither block leaves a row undecided
        assert kernel_rows == [_KERNEL_ROWS, 17] and exact_rows == [0, 0]


class TestDistinctRows:
    """The uint64-key grouping against a Counter of the folded ints and the old byte sort."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_tables_match_the_oracles(self, n, monkeypatch):
        table = TruthTable(n, random.Random(200 + n).getrandbits(1 << n))
        for p in KERNEL_P:  # one to four words per row
            j = joint_yz(table, p)
            assert_groups_match_the_oracles(j.words)
            assert mutual_information(j).mi_bits == mi_under_the_byte_sort(j, monkeypatch), p

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_structured_and_constant_tables_match_the_oracles(self, n, monkeypatch):
        r = n // 2
        classes = (Class1(1), Class2(2), Class3(r, 1), Class4(r, 0), Dictator(2), Lex(3 << (n - 2)))
        tables = [make_class(n, c) for c in classes] + [TruthTable(n, 0), TruthTable(n, (1 << (1 << n)) - 1)]
        for p in KERNEL_P:
            for table in tables:
                j = joint_yz(table, p)
                assert_groups_match_the_oracles(j.words)
                assert mutual_information(j).mi_bits == mi_under_the_byte_sort(j, monkeypatch), (table, p)

    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built_words_match_the_oracles(self, case):
        assert_groups_match_the_oracles(words_of(*HAND_BUILT[case]))

    def test_a_non_dyadic_table_with_repeated_rows_matches_the_oracles(self):
        # p = 1/3 weighs distance d by 2^(n - d), so a random table's rows collide and are ranked
        j = joint_yz(TruthTable(15, random.Random(15).getrandbits(1 << 15)), Fraction(1, 3))
        assert_groups_match_the_oracles(j.words)
        assert len(_distinct_rows(j.words)[1]) < len(j.words)

    def test_distinct_keys_return_the_words_themselves(self):
        words = words_of(*HAND_BUILT["distinct-keys"])
        rows, counts = _distinct_rows(words)
        assert rows is words and counts.tolist() == [1] * len(words)


HISTOGRAM_P = KERNEL_P + (Fraction(3, 8),)


class TestHistogramPath:
    """MI from a closed-form profile histogram against the same class's joint table."""

    @pytest.mark.parametrize("p", HISTOGRAM_P, ids=lambda p: str(p).replace("/", "_"))
    def test_rows_and_counts_are_the_grouped_table_rows(self, p):
        # at p = 1/2 every profile has the same numerator, at p = 0 every profile with N_0 = 0
        for n in (1, 2, 3, 5, 8):
            for c in histogram_classes(n):
                table, h = make_class(n, c), profile_histogram(n, c)
                j = joint_yz(table, p)
                merged, den = _profile_rows(h, p)
                assert den == j.den
                grouped, grouped_counts = _distinct_rows(j.words)
                assert merged == dict(zip(_fold(grouped), grouped_counts.tolist())), (n, c)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16])
    def test_bit_identical_to_the_table_path(self, n):
        classes = histogram_classes(n)
        if n > 6:  # the subcube sizes at the ends and in the middle
            classes = [c for c in classes if getattr(c, "r", 1) in (1, n // 2, n - 1)]
        for c in classes:
            table, h = make_class(n, c), profile_histogram(n, c)
            for p in HISTOGRAM_P:
                want = mutual_information(joint_yz(table, p))
                got = histogram_mutual_information(h, p)
                assert got.mi_bits.hex() == want.mi_bits.hex(), (c, p)
                assert got == want, (c, p)

    @pytest.mark.parametrize("c", [Class1(0x5A5A5), Class2(0xFFFFF)], ids=["class1", "class2"])
    def test_bit_identical_to_the_table_path_at_n_20(self, c):
        p = Fraction(3, 8)
        want = mutual_information(joint_yz(make_class(20, c), p))
        assert histogram_mutual_information(profile_histogram(20, c), p) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_any_tables_own_profiles_give_its_mi(self, n):
        # the producer is not tied to the closed forms: every table at n <= 3, random ones above
        rng = random.Random(2600 + n)
        masks = range(1 << (1 << n)) if n <= 3 else [rng.getrandbits(1 << n) for _ in range(6)] + [0]
        for mask in masks:
            table = TruthTable(n, mask)
            profiles = brute_force_profiles(table)
            h = ProfileHistogram(n, table.ones_count(), tuple(profiles), tuple(profiles.values()))
            for p in KERNEL_P:
                assert histogram_mutual_information(h, p) == mutual_information(joint_yz(table, p)), (mask, p)

    def test_every_family_reduces_without_the_table_machinery(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a histogram reached the table path")

        for name in ("_mi_bits", "_masses", "_distinct_rows", "_fold_words"):
            monkeypatch.setattr(bfmi._kernel, name, unreachable)
        for n in range(1, 25):
            for c in histogram_classes(n):
                h = profile_histogram(n, c)
                for p in KERNEL_P:
                    result = histogram_mutual_information(h, p)
                    assert -1e-12 <= result.mi_bits <= result.bound_bits + 1e-12, (n, c, p)

    def test_p_outside_the_channel_range_raises(self):
        with pytest.raises(ValueError):
            histogram_mutual_information(profile_histogram(3, Class1()), Fraction(3, 4))


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

    def test_n_below_1_raises(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            mi_class1_closed(0, Fraction(1, 4))


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

    def test_n_below_1_raises(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            qlogq_identity_check(0, Fraction(1, 4))
