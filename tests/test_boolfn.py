"""Truth-table constructors, the symmetry group, canonical forms, file format."""

import json
import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from bfmi._orbit import _index_maps
from bfmi.boolfn import (
    Class1,
    Class2,
    Class3,
    Class4,
    Dictator,
    Lex,
    TruthTable,
    canonical_form,
    complement,
    format_class_spec,
    make_class,
    orbit,
    parse_class_spec,
    profile_histogram,
)


def bits(t):
    """The table as a tuple of 0/1 ints, index 0 first."""
    return tuple((t.mask >> i) & 1 for i in range(t.size))


def ones(t):
    """Indices of inputs mapped to 1, ascending."""
    return [i for i, b in enumerate(bits(t)) if b]


# (n, class) pairs where the class does not exist
OUT_OF_RANGE = [
    (2, Class1(4)),
    (2, Class1(-1)),
    (3, Class3(0)),
    (3, Class3(3)),
    (3, Class3(2, fixed_prefix=4)),
    (3, Dictator(0)),
    (3, Dictator(4)),
    (2, Lex(5)),
]


class TestConstructors:
    def test_class1_single_one_at_witness(self):
        assert bits(make_class(2, Class1(0))) == (1, 0, 0, 0)
        assert bits(make_class(3, Class1(5))) == (0, 0, 0, 0, 0, 1, 0, 0)
        for n in (1, 2, 3, 4, 6):
            assert make_class(n, Class1(0)).ones_count() == 1

    def test_class2_single_zero(self):
        assert bits(make_class(2, Class2(0))) == (0, 1, 1, 1)
        assert bits(make_class(3, Class2(7))).count(0) == 1

    def test_class2_is_complement_of_class1(self):
        for n in (2, 3, 4):
            for i in (0, 1, (1 << n) - 1):
                assert make_class(n, Class2(i)) == complement(make_class(n, Class1(i)))

    def test_dictator_reads_one_coordinate(self):
        # x_1 is the most significant index bit
        assert bits(make_class(2, Dictator(1))) == (0, 0, 1, 1)
        assert bits(make_class(2, Dictator(2))) == (0, 1, 0, 1)
        t = make_class(4, Dictator(3))
        assert bits(t) == tuple((i >> 1) & 1 for i in range(16))

    def test_class3_is_prefix_subcube_indicator(self):
        t = make_class(3, Class3(2, fixed_prefix=0b10))
        assert ones(t) == [4, 5]
        assert t.ones_count() == 2 ** (3 - 2)
        for n, r in ((3, 1), (4, 2), (5, 3)):
            assert make_class(n, Class3(r)).ones_count() == 2 ** (n - r)

    def test_class3_r1_is_a_dictator(self):
        assert make_class(3, Class3(1, fixed_prefix=1)) == make_class(3, Dictator(1))

    def test_class4_complements_class3(self):
        for n, r in ((3, 1), (4, 2), (5, 4)):
            assert make_class(n, Class4(r, 1)) == complement(make_class(n, Class3(r, 1)))

    def test_subcube_and_dictator_masks_match_a_per_index_loop(self):
        def loop_mask(n, keep):
            mask = 0
            for i in range(1 << n):
                if keep(i):
                    mask |= 1 << i
            return mask

        full = lambda n: (1 << (1 << n)) - 1
        for n in range(1, 11):
            for j in range(1, n + 1):
                expected = loop_mask(n, lambda i: (i >> (n - j)) & 1)
                assert make_class(n, Dictator(j)).mask == expected
            for r in range(1, n):
                for prefix in range(1 << r):
                    expected = loop_mask(n, lambda i: i >> (n - r) == prefix)
                    assert make_class(n, Class3(r, prefix)).mask == expected
                    assert make_class(n, Class4(r, prefix)).mask == expected ^ full(n)

    def test_lex_takes_smallest_indices(self):
        assert ones(make_class(3, Lex(3))) == [0, 1, 2]
        assert make_class(2, Lex(0)).mask == 0
        assert make_class(2, Lex(4)).mask == 0b1111

    @pytest.mark.parametrize("n, cls", OUT_OF_RANGE)
    def test_out_of_range_parameters_raise(self, n, cls):
        with pytest.raises(ValueError):
            make_class(n, cls)

    @pytest.mark.parametrize("n, cls", OUT_OF_RANGE + [(3, "class1")])
    def test_profile_histogram_judges_as_make_class(self, n, cls):
        # one rule for where a class exists: the same exception, message and all
        with pytest.raises((ValueError, TypeError)) as built:
            make_class(n, cls)
        with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
            profile_histogram(n, cls)

    @pytest.mark.parametrize("build", [make_class, profile_histogram])
    @pytest.mark.parametrize("n", [25, 64])
    @pytest.mark.parametrize("cls", [Class1(0), Class2(0), Class3(1), Class4(1), Dictator(1), Lex(0)],
                             ids=["class1", "class2", "class3", "class4", "dictator", "lex"])
    def test_n_is_checked_before_the_mask_is_built(self, n, cls, build):
        # at n = 25 a whole mask is 4 MiB, at n = 64 it cannot be built at all
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^n must be in 1..24, got {n}$"):
                build(n, cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def histogram_classes(n):
    """A class of every family with a closed-form histogram at n, witnesses and prefixes off their defaults."""
    last = (1 << n) - 1
    classes = [Class1(), Class1(last), Class2(last // 3), Dictator(1), Dictator(n)]
    for r in range(1, n):
        classes += [Class3(r, (1 << r) - 1), Class4(r), Class4(r, 1)]
    return classes


def brute_force_profiles(t):
    """Counter of (N_0(y), ..., N_n(y)) over every y, N_d counting the ones of ``t`` at distance d."""
    xs = np.flatnonzero(np.array(bits(t)))
    dist = np.bitwise_count(xs[:, None] ^ np.arange(t.size)[None, :])  # [one, y]
    return Counter(tuple(np.bincount(col, minlength=t.n + 1).tolist()) for col in dist.T)


class TestProfileHistograms:
    """The closed forms behind every class check against the tables they stand for."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_histograms_are_the_tables_own_profiles(self, n):
        for c in histogram_classes(n):
            t, h = make_class(n, c), profile_histogram(n, c)
            assert h.n == n and h.ones == t.ones_count(), c
            assert Counter(dict(zip(h.profiles, h.counts))) == brute_force_profiles(t), c
            assert len(set(h.profiles)) == len(h.profiles), c

    def test_dictator_at_n_1_is_the_single_one(self):
        h = profile_histogram(1, Dictator())
        assert (h.ones, h.profiles, h.counts) == (1, ((1, 0), (0, 1)), (1, 1))
        assert h == profile_histogram(1, Class1(1))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_counts_cover_every_y_and_columns_sum_to_ones_times_shells(self, n):
        families = [Class1(), Class2(), Dictator()] + [f(r) for r in range(1, n) for f in (Class3, Class4)]
        for c in families:
            h = profile_histogram(n, c)
            assert sum(h.counts) == 1 << n, c
            for d in range(n + 1):
                assert all(0 <= prof[d] <= math.comb(n, d) for prof in h.profiles), c
                assert sum(k * prof[d] for prof, k in zip(h.profiles, h.counts)) == h.ones * math.comb(n, d), c

    def test_lex_has_no_histogram(self):
        assert profile_histogram(4, Lex(5)) is None


class TestTruthTable:
    def test_counts_partition_the_table(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            t = TruthTable(n, rng.getrandbits(1 << n))
            assert t.ones_count() == sum(bits(t))
            assert t.ones_count() + bits(t).count(0) == 1 << n

    def test_dimension_and_mask_validation(self):
        with pytest.raises(ValueError):
            TruthTable(0, 0)
        with pytest.raises(ValueError):
            TruthTable(25, 0)
        with pytest.raises(ValueError):
            TruthTable(2, 1 << 16)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mask_range_boundaries(self, n):
        full = (1 << (1 << n)) - 1
        assert TruthTable(n, full).ones_count() == 1 << n
        for mask in (full + 1, -1):
            with pytest.raises(ValueError, match="^mask does not fit in 2\\^n bits$"):
                TruthTable(n, mask)

    def test_mask_range_check_builds_no_bound(self):
        # the bound 2^(2^24) alone would be a 2 MiB integer
        tracemalloc.start()
        try:
            TruthTable(24, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_json_round_trip(self):
        rng = random.Random(11)
        for n in (1, 2, 4, 6):
            t = TruthTable(n, rng.getrandbits(1 << n))
            assert TruthTable.from_json(t.to_json()) == t

    def test_bits_hex_is_little_endian_by_index(self):
        t = TruthTable(2, 0b0011)
        assert json.loads(t.to_json()) == {"n": 2, "bits_hex": "03"}
        t = TruthTable(4, 1 << 8)  # bit 8 -> byte 1, position 0
        assert json.loads(t.to_json())["bits_hex"] == "0001"

    def test_from_json_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            TruthTable.from_json('{"n": 2}')
        with pytest.raises(ValueError):
            TruthTable.from_json('{"n": 2, "bits_hex": "0102"}')  # wrong length


class TestComplement:
    def test_examples(self):
        assert bits(complement(TruthTable(2, 0b0001))) == (0, 1, 1, 1)
        assert complement(TruthTable(2, 0)).mask == 0b1111

    def test_involution(self):
        rng = random.Random(3)
        for n in (1, 2, 4):
            t = TruthTable(n, rng.getrandbits(1 << n))
            assert complement(complement(t)) == t


def _brute_force_source(n, perm, neg, i):
    """The index that entry i reads under x_j -> x_perm[j] xor neg_j, one coordinate at a time."""
    coords = [(i >> (n - 1 - j)) & 1 for j in range(n)]
    src = 0
    for j in range(n):
        src = (src << 1) | (coords[perm[j]] ^ ((neg >> j) & 1))
    return src


def _brute_force_image(t, perm, neg):
    """``t`` under x_j -> x_perm[j] xor neg_j, read one index at a time."""
    sources = (_brute_force_source(t.n, perm, neg, i) for i in range(t.size))
    return TruthTable(t.n, sum(((t.mask >> src) & 1) << i for i, src in enumerate(sources)))


def _brute_force_orbits(n):
    """Independent orbit enumeration acting on bit tuples."""

    def act(bits, perm, neg, comp):
        return tuple(bits[_brute_force_source(n, perm, neg, i)] ^ comp for i in range(2**n))

    seen = set()
    count = 0
    for mask in range(2 ** (2**n)):
        bits = tuple((mask >> i) & 1 for i in range(2**n))
        if bits in seen:
            continue
        count += 1
        for perm in permutations(range(n)):
            for neg in range(2**n):
                for comp in (0, 1):
                    seen.add(act(bits, perm, neg, comp))
    return count


class TestIndexMaps:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_input_index_map_matches_per_index_loop(self, n):
        elements = [(perm, neg) for perm in permutations(range(n)) for neg in range(1 << n)]
        expected = [[_brute_force_source(n, perm, neg, i) for i in range(1 << n)] for perm, neg in elements]
        assert _index_maps(n).tolist() == expected


class TestCanonicalForm:
    def test_all_ones_maps_to_all_zeros(self):
        t = TruthTable(3, (1 << 8) - 1)
        assert canonical_form(t).mask == 0

    def test_dictators_share_one_canonical_form(self):
        for n in (2, 3, 4):
            forms = {canonical_form(make_class(n, Dictator(j))) for j in range(1, n + 1)}
            assert len(forms) == 1

    def test_idempotent_and_orbit_constant(self):
        rng = random.Random(19)
        for n in (2, 3, 4, 5, 6):
            elements = [(perm, rng.randrange(1 << n)) for perm in permutations(range(n))]
            for _ in range(20 if n < 6 else 3):  # an n = 6 canonical form costs about 0.3 s
                t = TruthTable(n, rng.getrandbits(1 << n))
                canon = canonical_form(t)
                assert canonical_form(canon) == canon
                moved = _brute_force_image(t, *rng.choice(elements))
                if rng.random() < 0.5:
                    moved = complement(moved)
                assert canonical_form(moved) == canon

    @pytest.mark.parametrize("n, expected_orbits", [(1, 2), (2, 4), (3, 14)])
    def test_orbit_counts_match_brute_force(self, n, expected_orbits):
        assert _brute_force_orbits(n) == expected_orbits
        forms = {canonical_form(TruthTable(n, m)).mask for m in range(2 ** (2**n))}
        assert len(forms) == expected_orbits

    @pytest.mark.parametrize("n, expected_orbits", [(1, 2), (2, 4), (3, 14), (4, 222)])
    def test_orbit_walk_counts_orbits_and_finds_lex_min(self, n, expected_orbits):
        # NPN orbit counts, OEIS A000370; n = 4 walks all 2^16 tables
        seen = set()
        count = 0
        for mask in range(2 ** (2**n)):
            if mask in seen:
                continue
            members = orbit(TruthTable(n, mask))
            seen |= members
            count += 1
            lex_min = min(members, key=lambda m: bits(TruthTable(n, m)))
            assert canonical_form(TruthTable(n, mask)).mask == lex_min
        assert count == expected_orbits

    def test_orbit_enumeration_contains_whole_equivalence_class(self):
        t = make_class(2, Dictator(1))
        # dictators, anti-dictators on both variables: 4 of them
        assert orbit(t) == {0b0011, 0b1100, 0b0101, 0b1010}

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(TruthTable(7, 0))


class TestClassSpecs:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("class1:i=0", Class1(0)),
            ("class2:i=3", Class2(3)),
            ("class3:r=2:prefix=1", Class3(2, 1)),
            ("class4:r=1", Class4(1, 0)),
            ("dictator:j=2", Dictator(2)),
            ("dictator", Dictator(1)),
            ("lex:n1=5", Lex(5)),
            # a value other than the default for every key of every spec name
            ("class1:i=6", Class1(6)),
            ("class2:i=1", Class2(1)),
            ("class3:r=1:prefix=1", Class3(1, 1)),
            ("class4:r=3:prefix=5", Class4(3, 5)),
            ("dictator:j=3", Dictator(3)),
            ("lex:n1=0", Lex(0)),
        ],
    )
    def test_parse_round_trip(self, text, expected):
        parsed = parse_class_spec(text)
        assert parsed == expected
        assert parse_class_spec(format_class_spec(parsed)) == parsed

    @pytest.mark.parametrize("value", ["class1:i=0", (0,), None])
    def test_format_of_a_non_class_raises(self, value):
        with pytest.raises(TypeError, match="^unknown function class: "):
            format_class_spec(value)

    @pytest.mark.parametrize(
        "text", ["nope", "class3", "class3:r", "class1:i=x", "lex", "class1:i=0:z=1"]
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ValueError):
            parse_class_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("class3:prefix=1", "missing required key 'r'"),
            ("foo:x=1", "unknown function class 'foo'"),
            ("class1:i=0:z=1", "unexpected keys ['z']"),
            ("class3:r=2:r=5", "repeated key 'r'"),
        ],
    )
    def test_error_names_the_real_problem(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_class_spec(text)
        assert message in str(exc.value)
