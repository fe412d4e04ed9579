"""Exact channel model: pairwise joint probabilities, the marginal identity, joint tables.

The transform-based ``joint_yz`` is checked for exact equality against
a naive oracle that sums the pairwise ``joint_xy`` over the preimage of
1, term by term, and, at sizes that oracle cannot reach, against the
same scaled inverse transform run on Python ints.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from bfmi.boolfn import MAX_N, Class1, Class3, Dictator, TruthTable, _bits, complement, make_class
import bfmi.channel
from bfmi.channel import (_DUMP_ROWS, JointYZ, _decimal, _lane_bits, _lowest_terms, _nums, _shift_right,
                          _trailing_zeros, _wht, joint_yz, marginal_sum)
from bfmi.mi import _distinct_rows
from test_boolfn import _brute_force_image

P_SET = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))


def joint_xy(x_index, y_index, n, p):
    """Exact joint probability p(X = x, Y = y) for n-bit indices.

    Equals (1-p)^(n-d) * p^d / 2^n with d the Hamming distance between
    the index bit patterns.
    """
    if not (0 <= x_index < 1 << n and 0 <= y_index < 1 << n):
        raise ValueError(f"indices out of range for n={n}")
    q = Fraction(p)
    d = (x_index ^ y_index).bit_count()
    return (1 - q) ** (n - d) * q**d / Fraction(1 << n)


def naive_joint_yz(table, p):
    """Independent oracle: literal preimage sums, one joint_xy call per term."""
    n = table.n
    py = Fraction(1, 1 << n)
    rows = []
    for y in range(1 << n):
        p1 = sum(
            (joint_xy(x, y, n, p) for x in range(1 << n) if (table.mask >> x) & 1),
            Fraction(0),
        )
        rows.append((py - p1, p1))
    return rows


def python_int_joint_nums(table, p):
    """Oracle: the scaled inverse transform on an object array of Python ints (no overflow).

    Returns the p1 numerators over 4^n·d^n for p = s/d, as ``joint_yz`` does.
    """
    q = Fraction(p)
    n, den = table.n, q.denominator
    t = den - 2 * q.numerator
    spectrum = _bits(table).astype(np.int64)
    _wht(spectrum)
    scale = np.array([t**k * den ** (n - k) for k in range(n + 1)], dtype=object)
    spectrum = scale[np.bitwise_count(np.arange(table.size, dtype=np.uint32))] * spectrum
    _wht(spectrum)
    return tuple(spectrum.tolist())


def inner_product_bent(n):
    """The bent function x1·x2 + x3·x4 + ... (mod 2) on an even number n of inputs."""
    pairs = int("01" * (n // 2), 2)
    return TruthTable(n, sum(1 << x for x in range(1 << n) if (x & (x >> 1) & pairs).bit_count() & 1))


def python_int_lane_peak(table, p, bits):
    """Largest |value| that any lane of ``joint_yz``'s inverse ends its transform with.

    Each lane's digit·F(w) is transformed on Python ints, and the carry it
    takes from the lane below is added, as ``joint_yz`` does in int64.
    """
    q = Fraction(p)
    n, den = table.n, q.denominator
    t = den - 2 * q.numerator
    spectrum = _bits(table).astype(np.int64)
    _wht(spectrum)
    scale = [t**k * den ** (n - k) for k in range(n + 1)]
    weight = np.bitwise_count(np.arange(table.size, dtype=np.uint32))
    peak, carry = 0, 0
    for j in range(-(-max(scale).bit_length() // bits)):
        digits = np.array([(c >> (bits * j)) & ((1 << bits) - 1) for c in scale], dtype=object)
        lane = digits[weight] * spectrum.astype(object)
        _wht(lane)
        lane = lane + carry
        peak = max(peak, *map(abs, lane.tolist()))
        carry = lane >> bits
    return peak


def p1_nums(joint):
    """The p1 numerators of ``joint`` as Python ints, folded from its words."""
    return tuple(_nums(joint.words))


def gcd_loop_csv(joint):
    """Oracle: the CSV text of the per-cell writer, every cell reduced by a ``math.gcd`` with den."""
    den, py_num = joint.den, joint.den >> joint.n
    lines = ["y_index,p0_num,p0_den,p1_num,p1_den\r\n"]
    for y, num in enumerate(p1_nums(joint)):
        g0 = math.gcd(py_num - num, den)
        g1 = math.gcd(num, den)
        lines.append(f"{y},{(py_num - num) // g0},{den // g0},{num // g1},{den // g1}\r\n")
    return "".join(lines)


def spy(monkeypatch, name):
    """Record the arguments of every call of ``bfmi.channel.<name>`` and let each call through."""
    calls, real = [], getattr(bfmi.channel, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bfmi.channel, name, wrapper)
    return calls


def joint_from_nums(n, p, den, nums, pz1):
    """A JointYZ built from Python-int p1 numerators packed into little-endian uint64 words.

    Each row gets the word count of den/2^n (at least one word).  A negative
    numerator is packed as its two's-complement image modulo 2^(64W), which
    the constructor then sees as a numerator far above den/2^n.
    """
    width = max(1, -(-(max(den, 0) >> n).bit_length() // 64))
    rows = [[(num >> (64 * k)) & (2**64 - 1) for k in range(width)] for num in nums]
    return JointYZ(n, p, den, np.array(rows, dtype=np.uint64).reshape(len(nums), width), pz1)


class TestJointXY:
    def test_examples(self):
        assert joint_xy(0b00, 0b00, 2, Fraction(1, 4)) == Fraction(9, 64)
        assert joint_xy(0b00, 0b11, 2, Fraction(1, 4)) == Fraction(1, 64)
        for n in (1, 3, 5):
            x = (1 << n) - 1
            assert joint_xy(x, x, n, 0) == Fraction(1, 1 << n)

    def test_depends_only_on_hamming_distance(self):
        p = Fraction(3, 8)
        assert joint_xy(0b0101, 0b0110, 4, p) == joint_xy(0b1000, 0b0100, 4, p)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            joint_xy(4, 0, 2, Fraction(1, 4))


class TestMarginalSum:
    def test_examples(self):
        assert marginal_sum(0, 3, Fraction(1, 4)) == Fraction(1, 8)
        assert marginal_sum(0, 1, 0) == Fraction(1, 2)
        assert marginal_sum(0b1010, 4, Fraction(3, 8)) == Fraction(1, 16)

    def test_against_literal_term_by_term_sum(self):
        p = Fraction(3, 8)
        for k, y in ((1, 0), (3, 5), (4, 0b1010), (5, 17)):
            expected = sum((joint_xy(x, y, k, p) for x in range(1 << k)), Fraction(0))
            assert marginal_sum(y, k, p) == expected

    @pytest.mark.parametrize("p", P_SET)
    def test_identity_exhaustive_small_k(self, p):
        for k in (1, 2, 3, 4, 5):
            for y in range(1 << k):
                assert marginal_sum(y, k, p) == Fraction(1, 1 << k)

    def test_identity_random_large_k(self):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randint(6, 14)
            y = rng.randrange(1 << k)
            p = rng.choice(P_SET)
            assert marginal_sum(y, k, p) == Fraction(1, 1 << k)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            marginal_sum(0, 0, Fraction(1, 4))

    @pytest.mark.parametrize("y", [4, -1])
    def test_y_index_outside_the_k_cube_raises(self, y):
        with pytest.raises(ValueError, match="^y_index out of range for k=2$"):
            marginal_sum(y, 2, Fraction(1, 4))

    @pytest.mark.parametrize("k", [MAX_N + 1, 30])
    def test_k_above_max_n_is_rejected_before_enumerating(self, k):
        with pytest.raises(ValueError, match=f"k must be in 1..{MAX_N}, got {k}"):
            marginal_sum(0, k, Fraction(1, 4))


class TestJointYZ:
    def test_single_one_table_by_hamming_shells(self):
        j = joint_yz(make_class(2, Class1(0)), Fraction(1, 4))
        assert [r[1] for r in j.rows] == [
            Fraction(9, 64),
            Fraction(3, 64),
            Fraction(3, 64),
            Fraction(1, 64),
        ]

    def test_all_ones_puts_everything_on_z1(self):
        for p in (Fraction(0), Fraction(1, 4)):
            j = joint_yz(TruthTable(3, 0xFF), p)
            assert all(r == (Fraction(0), Fraction(1, 8)) for r in j.rows)

    def test_dictator_rows(self):
        j = joint_yz(make_class(2, Dictator(1)), Fraction(1, 4))
        assert [r[1] for r in j.rows] == [
            Fraction(1, 16),
            Fraction(1, 16),
            Fraction(3, 16),
            Fraction(3, 16),
        ]

    def test_matches_naive_preimage_sums_exactly(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4, 5):
            for _ in range(6):
                table = TruthTable(n, rng.getrandbits(1 << n))
                p = rng.choice(P_SET)
                assert joint_yz(table, p).rows == tuple(naive_joint_yz(table, p))
        # large denominators; n = 1, 2 tables are narrower than the byte they unpack from
        for p in (Fraction(1, 3), Fraction(2047, 4096)):
            for n in (1, 2, 3, 6):
                for mask in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
                    table = TruthTable(n, mask)
                    assert joint_yz(table, p).rows == tuple(naive_joint_yz(table, p))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 11, 12, 13, 16])
    def test_int64_lanes_match_python_int_inverse(self, n):
        # n = 1..3, 4..8, 9..14 and 15..19 run 56-, 48-, 40- and 32-bit lanes (24 bits: see below)
        grid = [Fraction(0), Fraction(1, 2), Fraction(13, 64), Fraction(1, 3), Fraction(2047, 4096),
                Fraction(12345, 100003)]
        tables = [
            TruthTable(n, (1 << (1 << n)) - 1),  # |F(0)| = 2^n, the largest spectrum entry
            TruthTable(n, random.Random(n).getrandbits(1 << n)),
        ]
        if n <= 12:
            tables += [make_class(n, Dictator(n)), make_class(n, Class1(n // 2))]
        else:
            grid = grid[3::2]  # the Python-int oracle alone takes about 0.1 s per call at n = 16
        for p in grid:
            for table in tables:
                assert p1_nums(joint_yz(table, p)) == python_int_joint_nums(table, p), (table, p)
        # from n = 7 on, 12345/100003 carries across at least two lane boundaries
        lanes = -(-(100003**n).bit_length() // _lane_bits(n))
        assert n < 7 or lanes >= 3

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_wht_matches_the_hadamard_sum(self, dtype):
        # out[u] = sum_x (-1)^|u & x| v[x]; object arrays are what the Python-int oracle runs
        rng = np.random.default_rng(7)
        for n in range(0, 11):
            v = rng.integers(-(1 << 40), 1 << 40, size=1 << n).astype(dtype)
            idx = np.arange(1 << n)
            signs = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.int64)
            expected = (signs.astype(dtype) @ v).tolist()
            _wht(v)
            assert v.tolist() == expected, n
        # past one block of 16-column rows: the transform is its own inverse up to 2^n
        v = rng.integers(-1000, 1000, size=1 << 19)
        w = v.copy()
        _wht(w)
        _wht(w)
        assert (w == v << 19).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_digits_near_the_int64_limit(self, n):
        # d = 2^62 + 1 fills every 56- and 48-bit digit; a digit one byte wider would not fit int64
        for p in (Fraction(1, 2**62 + 1), Fraction(2**61 - 1, 2**62 + 1)):
            for mask in ((1 << (1 << n)) - 1, random.Random(n).getrandbits(1 << n)):
                table = TruthTable(n, mask)
                assert p1_nums(joint_yz(table, p)) == python_int_joint_nums(table, p), (table, p)

    @pytest.mark.parametrize("n", [8, 14])
    def test_lanes_near_the_int64_limit(self, n):
        # the inner-product bent function has |F(w)| = 2^(n/2 - 1) at every w != 0, so its
        # sum of |F(w)| is within a factor 2 of the 2^(3n/2) that _lane_bits allows for, and
        # d = 2^62 + 1 fills the digits: a lane reaches 2^56, so one byte more would pass 2^63
        table = inner_product_bent(n)
        spectrum = _bits(table).astype(np.int64)
        _wht(spectrum)
        assert 2 ** (3 * n / 2 - 1) < np.abs(spectrum).sum() <= 2 ** (3 * n / 2)
        p = Fraction(1, 2**62 + 1)
        assert python_int_lane_peak(table, p, _lane_bits(n)) >= 2**56
        assert p1_nums(joint_yz(table, p)) == python_int_joint_nums(table, p)

    def test_24_bit_lanes_match_the_shell_closed_form(self):
        # 24-bit lanes start at n = 20, where the Python-int inverse takes seconds; a single-one
        # table's p1 numerator over 4^n·d^n is 2^n·(d - s)^(n - k)·s^k at distance k from its
        # one, and its complement (|F(0)| = 2^n - 1) has 2^n·d^n minus that
        n, witness, p = 20, 0x5A5A5, Fraction(1, 3)
        assert _lane_bits(n) == 24
        s, d = p.numerator, p.denominator
        shell = [(d - s) ** (n - k) * s**k << n for k in range(n + 1)]
        distance = np.bitwise_count(np.arange(1 << n, dtype=np.uint32) ^ witness).tolist()
        nums = [shell[k] for k in distance]
        one = make_class(n, Class1(witness))
        assert p1_nums(joint_yz(one, p)) == tuple(nums)
        top = d**n << n
        assert p1_nums(joint_yz(complement(one), p)) == tuple(top - x for x in nums)

    def test_lane_width_bound_holds_for_every_n(self):
        brackets = {1: 56, 3: 56, 4: 48, 8: 48, 9: 40, 14: 40, 15: 32, 19: 32, 20: 24, 24: 24}
        assert {n: _lane_bits(n) for n in brackets} == brackets
        for n in range(1, MAX_N + 1):
            bits = _lane_bits(n)
            # a lane sums 2^n terms digit·F(w) with digit < 2^bits, and sum_w |F(w)| <= 2^m with
            # m = ceil(3n/2): Cauchy-Schwarz with Parseval's sum_w F(w)^2 = 2^n·|f| <= 2^(2n).
            # Every partial sum is at most the lane bound, the butterfly doubles one, and the
            # carry stays at most 2^(m + 1) from lane to lane (an arithmetic shift floors)
            m = math.ceil(3 * n / 2)
            lane = ((1 << bits) - 1) << m
            carry = 1 << (m + 1)
            assert ((lane + carry) >> bits) + 1 <= carry
            assert 2 * lane < 1 << 63 and lane + carry < 1 << 63
            # the widest whole-byte digit the bound allows
            assert bits % 8 == 0 and bits >= 8 and bits + m <= 61 < bits + 8 + m

    @pytest.mark.parametrize("p", P_SET)
    def test_numerators_are_python_ints(self, p):
        j = joint_yz(TruthTable(5, random.Random(11).getrandbits(32)), p)
        assert all(type(num) is int for num in p1_nums(j))

    def test_rejects_p_above_half(self):
        with pytest.raises(ValueError):
            joint_yz(TruthTable(2, 0b0101), Fraction(5, 8))

    def test_invariants_on_random_tables(self):
        rng = random.Random(29)
        for n in (2, 4, 7, 10):
            table = TruthTable(n, rng.getrandbits(1 << n))
            p = rng.choice(P_SET[1:])
            j = joint_yz(table, p)
            py = Fraction(1, 1 << n)
            assert all(p0 + p1 == py for p0, p1 in j.rows)
            assert sum((p0 + p1 for p0, p1 in j.rows), Fraction(0)) == 1
            assert j.pz1 == Fraction(table.ones_count(), 1 << n)

    def test_pz1_is_independent_of_p(self):
        table = TruthTable(4, 0b1011_0010_0111_0001)
        values = {joint_yz(table, p).pz1 for p in P_SET}
        assert values == {Fraction(table.ones_count(), 16)}

    def test_pz1_structured_classes(self):
        assert joint_yz(make_class(3, Class1(2)), Fraction(1, 8)).pz1 == Fraction(1, 8)
        assert joint_yz(make_class(4, Dictator(2)), Fraction(1, 4)).pz1 == Fraction(1, 2)
        assert joint_yz(make_class(5, Class3(2)), Fraction(3, 8)).pz1 == Fraction(1, 4)


class TestSymmetries:
    def test_coordinate_permutation_permutes_rows(self):
        rng = random.Random(31)
        p = Fraction(1, 4)
        for n in (2, 3, 4):
            table = TruthTable(n, rng.getrandbits(1 << n))
            base = joint_yz(table, p)
            for perm in list(permutations(range(n)))[:4]:
                moved = _brute_force_image(table, perm, 0)
                assert Counter(joint_yz(moved, p).rows) == Counter(base.rows)

    def test_complement_swaps_columns(self):
        table = TruthTable(3, 0b1100_1010)
        p = Fraction(1, 8)
        base = joint_yz(table, p)
        flipped = joint_yz(complement(table), p)
        assert flipped.rows == tuple((p1, p0) for p0, p1 in base.rows)


class TestJointYZContainer:
    def test_constructor_validates_integer_numerators(self):
        # n = 1, den = 8: each numerator must lie in [0, 4]
        joint_from_nums(1, Fraction(1, 4), 8, (1, 3), Fraction(1, 2))
        with pytest.raises(ValueError, match="outside"):  # negative p1 entry (wrapped in the words)
            joint_from_nums(1, Fraction(1, 4), 8, (-1, 3), Fraction(1, 4))
        with pytest.raises(ValueError, match="outside"):  # p1 above 1/2^n, so p0 < 0
            joint_from_nums(1, Fraction(1, 4), 8, (5, 3), Fraction(1))
        with pytest.raises(ValueError, match="multiple of 2\\^n"):
            joint_from_nums(2, Fraction(1, 4), 6, (0, 0, 0, 0), Fraction(0))
        with pytest.raises(ValueError, match="multiple of 2\\^n"):
            joint_from_nums(1, Fraction(1, 4), 0, (0, 0), Fraction(0))
        with pytest.raises(ValueError, match="pz1"):
            joint_from_nums(1, Fraction(1, 4), 8, (1, 3), Fraction(1, 4))
        with pytest.raises(ValueError, match="rows"):
            joint_from_nums(2, Fraction(1, 4), 8, (1, 1), Fraction(1, 4))

    def test_constructor_names_the_row_and_checks_the_words(self):
        # n = 2, den = 2^70: the bound den/2^n = 2^68 spans two words
        nums = [2**68, 2**64 + 5, 0, 2**68 + 1]
        with pytest.raises(ValueError, match=f"row 3: p1 numerator {2**68 + 1} outside"):
            joint_from_nums(2, Fraction(1, 4), 2**70, nums, Fraction(sum(nums), 2**70))
        nums[3] = 2**68 - 1  # the low word is all ones, the high word equals the bound's
        joint = joint_from_nums(2, Fraction(1, 4), 2**70, nums, Fraction(sum(nums), 2**70))
        assert p1_nums(joint) == tuple(nums) and not joint.words.flags.writeable
        with pytest.raises(ValueError, match="2 words per row"):
            JointYZ(2, Fraction(1, 4), 2**70, np.zeros((4, 1), dtype=np.uint64), Fraction(0))
        with pytest.raises(ValueError, match="uint64"):
            JointYZ(1, Fraction(1, 4), 8, (1, 3), Fraction(1, 2))

    def test_transform_bug_is_an_assertion(self, monkeypatch):
        # a wrong pz1 is joint_yz's own fault, not bad input: it must not surface as ValueError
        monkeypatch.setattr(TruthTable, "ones_count", lambda self: 0)
        with pytest.raises(AssertionError, match="transform bug: pz1"):
            joint_yz(TruthTable(3, 0b1011_0001), Fraction(1, 4))

    def test_distinct_rows_compresses_structured_tables(self):
        j = joint_yz(make_class(3, Class3(1)), Fraction(1, 4))
        assert sorted(_distinct_rows(j.words)[1].tolist()) == [4, 4]
        # a subcube's rows depend only on the distance k of y's first r bits from the prefix
        j = joint_yz(make_class(16, Class3(8)), Fraction(3, 8))
        rows, counts = _distinct_rows(j.words)
        assert j.words.shape[1] == 2 and len(rows) == 9
        assert sorted(counts.tolist()) == sorted(math.comb(8, k) << 8 for k in range(9))

    def test_csv_dump(self, tmp_path):
        j = joint_yz(make_class(2, Class1(0)), Fraction(1, 4))
        path = tmp_path / "joint.csv"
        j.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "y_index,p0_num,p0_den,p1_num,p1_den"
        assert len(lines) == 5
        assert lines[1] == "0,7,64,9,64"

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(3, 16), Fraction(1, 2)])
    def test_csv_dump_matches_naive_fractions(self, tmp_path, p):
        table = TruthTable(6, random.Random(53).getrandbits(64))
        path = tmp_path / "joint.csv"
        joint_yz(table, p).write_csv(path)
        expected = ["y_index,p0_num,p0_den,p1_num,p1_den"] + [
            f"{y},{p0.numerator},{p0.denominator},{p1.numerator},{p1.denominator}"
            for y, (p0, p1) in enumerate(naive_joint_yz(table, p))
        ]
        lines = path.read_text().splitlines()
        assert lines == expected
        if p == 0:
            # noiseless: every row is (0, 1/64) or (1/64, 0); the 0 cell dumps as 0,1
            for line in lines[1:]:
                cells = line.split(",")[1:]
                assert ["0", "1"] in (cells[:2], cells[2:])

    @pytest.mark.parametrize(
        ("p", "ns", "numpy_ns"),
        [(p, range(1, 13), numpy_ns) for p, numpy_ns in (
            (Fraction(0), range(1, 13)), (Fraction(1, 2), range(1, 13)), (Fraction(13, 64), range(1, 13)),
            (Fraction(1, 3), ()), (Fraction(2047, 4096), range(1, 9)), (Fraction(12345, 100003), ()),
            (Fraction(1, 2**70), (1,)))]
        # each side of the NumPy writer's gate, den/2^n < 2^106: at n = 15, p = 31/64 a mass can be
        # 2^105; at n = 16, p = 1/64 den/2^n is 2^112, and den = 12^15 has an odd factor
        + [(Fraction(31, 64), (15,), (15,)), (Fraction(1, 64), (16,), ()), (Fraction(1, 3), (15,), ())],
        ids=[f"p{i}" for i in range(7)] + ["n15-31_64", "n16-1_64", "n15-1_3"],
    )
    def test_csv_dump_matches_the_gcd_loop(self, tmp_path, monkeypatch, p, ns, numpy_ns):
        # the odd part of den is 1 for the dyadic p, 3^n or 100003^n (several words) for the
        # others.  den/2^n = 2^(13n) at p = 2047/4096 reaches 2^106 at n = 9; at 2^-70 every cell
        # spans several words, and den/2^n = 2^71 only at n = 1
        blocks = spy(monkeypatch, "_dyadic_lines")
        rng = random.Random(p.denominator)
        path = tmp_path / "joint.csv"
        for n in ns:
            tables = [TruthTable(n, rng.getrandbits(1 << n))]
            if n in (1, 4, 11):
                tables += [TruthTable(n, 0), TruthTable(n, (1 << (1 << n)) - 1)]  # zero cells dump as 0,1
            for table in tables:
                joint = joint_yz(table, p)
                blocks.clear()
                joint.write_csv(path)
                assert path.read_bytes() == gcd_loop_csv(joint).encode(), (table, p)
                assert len(blocks) == (-(-table.size // _DUMP_ROWS) if n in numpy_ns else 0), (table, p)

    @pytest.mark.parametrize("table", [TruthTable(9, random.Random(9).getrandbits(512)), TruthTable(9, 0),
                                       TruthTable(13, 0), TruthTable(13, (1 << (1 << 13)) - 1)],
                             ids=["n9-random", "n9-zero", "n13-zero", "n13-one"])
    def test_one_word_and_constant_tables_take_the_numpy_writer(self, tmp_path, monkeypatch, table):
        # n = 9, p = 13/64: den/2^n = 2^63, one word per mass; a constant table has a zero
        # column, which prints as 0 over 1
        blocks = spy(monkeypatch, "_dyadic_lines")
        joint = joint_yz(table, Fraction(13, 64))
        path = tmp_path / "joint.csv"
        joint.write_csv(path)
        assert path.read_bytes() == gcd_loop_csv(joint).encode()
        assert len(blocks) == -(-table.size // _DUMP_ROWS)
        assert (joint.words.shape[1] == 1) == (table.n == 9)
        if table.mask in (0, (1 << table.size) - 1):
            assert all(line.count(b",0,1") == 1 for line in path.read_bytes().splitlines()[1:])

    def test_decimal_digits_match_str(self):
        # the float64 estimate of v // 10^16 is corrected exactly: values at and next to
        # multiples of 10^16 at the largest quotients, across the word boundary and at 2^106
        rng = random.Random(106)
        ten16 = 10**16
        values = [0, 1, ten16 - 1, ten16, 2**64 - 1, 2**64, 2**64 + 1, 2**105, 2**106 - 1]
        values += [q * ten16 + d for q in (2**52, 2**53 - 1) for d in range(-3, 4)]
        values += [rng.getrandbits(rng.randrange(1, 107)) for _ in range(10**5)]
        hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
        assert _decimal(hi, lo).tolist() == [str(v).encode() for v in values]

    def test_shift_right_of_one_and_two_word_masses(self):
        # every count from 0 to 127 on two-word masses, the word boundary at 64 included, and
        # counts past the word on one-word masses
        rng = random.Random(64)
        for width, counts in ((1, range(0, 80)), (2, range(0, 128))):
            nums = [0, 1, (1 << (64 * width)) - 1] + [rng.getrandbits(64 * width) for _ in range(40)]
            cases = [(num, t) for num in nums for t in counts]
            words = np.array([[(num >> (64 * k)) & (2**64 - 1) for k in range(width)] for num, _ in cases],
                             dtype=np.uint64)
            hi, lo = _shift_right(words, np.array([t for _, t in cases]))
            assert [(h << 64) | low for h, low in zip(hi.tolist(), lo.tolist())] == [num >> t for num, t in cases]

    @pytest.mark.parametrize("den", [2**130, 2**300 * 3**60 * 5], ids=["2^130", "2^300*3^60*5"])
    def test_csv_dump_of_hand_built_cells(self, tmp_path, den):
        # n = 3.  den = 2^130: den/2^n fills two words exactly, so a zero mass has 128 trailing
        # zeros, fewer than a = 130, and an odd mass takes no bit from its high word.
        # den = 2^300·m with m = 3^60·5 past one word: masses whose count reaches a, passes it
        # (m > 2^n·6, so the cell still fits), crosses a word boundary or exceeds 255, and
        # masses that share 3, 5 or both with m
        py_num = den >> 3
        a = (den & -den).bit_length() - 1
        nums = [0, py_num, 5 << 64, 7 << 63]
        nums += [1, 15 << 100, (3 << 64) + 1, 3 << 64] if a == 130 else [1 << a, 3 << (a + 1), 1 << 260, 5**30 << 70]
        assert all(0 <= num <= py_num for num in nums)
        joint = joint_from_nums(3, Fraction(1, 4), den, nums, Fraction(sum(nums), den))
        path = tmp_path / "joint.csv"
        joint.write_csv(path)
        assert path.read_bytes() == gcd_loop_csv(joint).encode()

    def test_trailing_zeros_and_shifts_of_multiword_rows(self):
        # rows of 1..5 words with runs of zero words at the bottom; den = 2^a caps every shift
        # at a, from 0 through the row's width in bits and beyond
        rng = random.Random(61)
        for width in range(1, 6):
            nums = [0, 1, 1 << (64 * width - 1), (1 << (64 * width)) - 1]
            nums += [rng.getrandbits(64 * width - 64 * k) << (64 * k + rng.randrange(64))
                     for k in range(width) for _ in range(20)]
            nums = [num & ((1 << (64 * width)) - 1) for num in nums]
            words = np.array([[(num >> (64 * k)) & (2**64 - 1) for k in range(width)] for num in nums],
                             dtype=np.uint64).reshape(len(nums), width)
            zeros = _trailing_zeros(words).tolist()
            assert zeros == [(num & -num).bit_length() - 1 if num else 1 << 62 for num in nums]
            for a in [0, 1, 63, 64, 65, 64 * width - 1, 64 * width, 64 * width + 70]:
                dens = [str(1 << (a - k)) for k in range(a + 1)]
                shifted, cells = _lowest_terms(words, 1 << a, dens)
                shifts = [min(z, a) for z in zeros]
                assert shifted == [num >> t for num, t in zip(nums, shifts)], a
                assert cells == [dens[t] for t in shifts], a
