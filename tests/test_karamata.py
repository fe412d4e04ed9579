"""Majorization machinery: sequences, exact certificates, the bound equivalence.

``check_majorization`` walks run boundaries over integer numerators; the
dense elementwise prefix scan below is its independent oracle, and
``fraction_reference`` rebuilds every instance value from the module
docstring's formulas in ``Fraction`` arithmetic.
"""

import csv
import dataclasses
import io
import math
import random
from fractions import Fraction

import pytest

from bfmi import karamata
from bfmi.karamata import (
    DescendingSeq,
    MajorizationCertificate,
    bound_equivalence_check,
    build_karamata_sequences,
    certify,
    certify_instance,
    check_majorization,
    karamata_conclusion,
)
from bfmi.mi import xlog2x

GRID = tuple(Fraction(k, 64) for k in range(33))


def seq_of(values, den=None):
    """A DescendingSeq of an explicit nonincreasing list of rationals.

    Its denominator is ``den`` when given, else the lcm of the values' denominators.
    """
    values = [Fraction(v) for v in values]
    if den is None:
        den = math.lcm(*(v.denominator for v in values)) if values else 1
    return DescendingSeq([(v.numerator * (den // v.denominator), 1) for v in values], den)


def w_max(inst):
    """The largest w value of an instance, as a Fraction."""
    return Fraction(inst.y_seq.runs[0][0], inst.den)


def dense(seq):
    """The dense sequence as a list of Fractions (beware: may be astronomically long)."""
    return [Fraction(num, seq.den) for num, count in seq.runs for _ in range(count)]


def rational_runs(seq):
    """The runs read as (Fraction value, count) pairs."""
    return tuple((Fraction(num, seq.den), count) for num, count in seq.runs)


def merge_runs(runs):
    merged = []
    for value, count in runs:
        if merged and merged[-1][0] == value:
            merged[-1] = (value, merged[-1][1] + count)
        else:
            merged.append((value, count))
    return tuple(merged)


def fraction_reference(n, p):
    """(a, b, c, x runs, y runs) straight from the module docstring, in Fractions."""
    size = 1 << n
    a = (1 - p) / 2 ** (n - 1)
    c = Fraction(1, size)
    b = p / 2 ** (n - 1)
    big_k = 2 ** (n - 1) * (size - n)
    x_runs = merge_runs([(a, big_k), (c, size * (n - 1)), (b, big_k)])
    y_runs = merge_runs(
        ((1 - (1 - p) ** (n - k) * p**k) / (size - 1), math.comb(n, k) * (size - 1))
        for k in range(n, -1, -1)
    )
    return a, b, c, x_runs, y_runs


def dense_majorization(xs, ys):
    """Naive oracle: scan every prefix of the dense sequences."""
    assert len(xs) == len(ys)
    sx = sy = Fraction(0)
    first_violation = None
    for k, (xv, yv) in enumerate(zip(xs, ys), start=1):
        sx += xv
        sy += yv
        if sy > sx and first_violation is None:
            first_violation = k
    totals_equal = sx == sy
    return first_violation is None and totals_equal, first_violation, totals_equal


def outcome(cert):
    return cert.holds, cert.first_violation, cert.totals_equal


class TestDescendingSeq:
    def test_compression_and_length(self):
        seq = seq_of([3, 3, 2, 1, 1, 1])
        assert seq.runs == ((3, 2), (2, 1), (1, 3))
        assert seq.den == 1
        assert rational_runs(seq) == ((Fraction(3), 2), (Fraction(2), 1), (Fraction(1), 3))
        assert seq.length == 6
        assert seq.total() == 11
        assert dense(seq) == [3, 3, 2, 1, 1, 1]

    def test_adjacent_equal_runs_merge(self):
        seq = DescendingSeq([(1, 2), (1, 3)], 2)
        assert rational_runs(seq) == ((Fraction(1, 2), 5),)

    def test_rejects_ascending_and_empty(self):
        with pytest.raises(ValueError):
            seq_of([1, 2])
        with pytest.raises(ValueError):
            DescendingSeq([])
        with pytest.raises(ValueError):
            DescendingSeq([(1, 0)])

    def test_rejects_nonpositive_denominator_and_non_integers(self):
        for den in (0, -3):
            with pytest.raises(ValueError):
                DescendingSeq([(1, 1)], den)
        with pytest.raises(TypeError):
            DescendingSeq([(Fraction(1, 2), 1)])
        with pytest.raises(TypeError):
            DescendingSeq([(1, 1.0)])

    def test_rational_accessors(self):
        seq = DescendingSeq([(9, 1), (6, 2), (3, 1)], 12)
        assert seq.total() == Fraction(2)
        assert seq.total_num == 24

    def test_equality_is_by_denominator_and_runs(self):
        small = DescendingSeq([(3, 1), (1, 2)], 4)
        again = DescendingSeq([(3, 1), (1, 1), (1, 1)], 4)
        assert small == again and hash(small) == hash(again)
        # the same values over another denominator are another sequence
        lifted = DescendingSeq([(9, 1), (3, 2)], 12)
        assert small != lifted
        assert small != DescendingSeq([(3, 1), (1, 2)], 5)
        assert repr(lifted) == repr(small) == "DescendingSeq(3/4x1, 1/4x2)"


class TestCheckMajorization:
    def test_identical_sequences_hold(self):
        seq = seq_of([Fraction(3, 2), 1, 1, Fraction(1, 2)])
        cert = check_majorization(seq, seq)
        assert cert.holds and cert.totals_equal and cert.first_violation is None

    def test_constructed_counterexample(self):
        cert = check_majorization(seq_of([1, 1]), seq_of([2, 0]))
        assert not cert.holds
        assert cert.first_violation == 1
        assert cert.totals_equal

    def test_unequal_totals_fail_without_violation_index(self):
        cert = check_majorization(seq_of([3, 1]), seq_of([2, 1]))
        assert not cert.holds
        assert cert.first_violation is None
        assert not cert.totals_equal

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_majorization(seq_of([1, 1]), seq_of([2]))

    def test_non_descending_input_raises(self):
        with pytest.raises(ValueError):
            check_majorization(seq_of([1, 2]), seq_of([2, 1]))

    def test_certificate_consistency_enforced(self):
        with pytest.raises(ValueError):
            MajorizationCertificate(holds=True, first_violation=3, totals_equal=True)

    def test_different_denominators_raise(self):
        xs = seq_of([Fraction(2, 3), Fraction(1, 3), 0])
        ys = seq_of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        assert (xs.den, ys.den) == (3, 4)
        with pytest.raises(ValueError, match="^denominator mismatch: 3 vs 4$"):
            check_majorization(xs, ys)
        # over one shared denominator the same pair is certified
        assert outcome(check_majorization(seq_of(dense(xs), 12), seq_of(dense(ys), 12))) == (True, None, True)

    def test_against_dense_oracle_on_random_sequences(self):
        rng = random.Random(61)
        for _ in range(200):
            length = rng.randint(1, 12)
            xs = sorted(
                (Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(length)),
                reverse=True,
            )
            ys = sorted(
                (Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(length)),
                reverse=True,
            )
            den = math.lcm(*(v.denominator for v in xs + ys))
            cert = check_majorization(seq_of(xs, den), seq_of(ys, den))
            holds, first, totals = dense_majorization(xs, ys)
            assert cert.holds == holds
            assert cert.first_violation == first
            assert cert.totals_equal == totals


class TestSequenceConstruction:
    def test_frozen_instance_n2(self):
        inst = build_karamata_sequences(2, Fraction(1, 4))
        assert (inst.a, inst.b, inst.c) == (Fraction(3, 8), Fraction(1, 8), Fraction(1, 4))
        assert inst.K == 4
        assert rational_runs(inst.x_seq) == (
            (Fraction(3, 8), 4),
            (Fraction(1, 4), 4),
            (Fraction(1, 8), 4),
        )
        assert rational_runs(inst.y_seq) == (
            (Fraction(5, 16), 3),
            (Fraction(13, 48), 6),
            (Fraction(7, 48), 3),
        )
        assert inst.x_seq.total() == inst.y_seq.total() == 3

    def test_symmetric_point_collapses_everything(self):
        inst = build_karamata_sequences(2, Fraction(1, 2))
        assert inst.a == inst.b == inst.c == Fraction(1, 4)
        assert rational_runs(inst.x_seq) == ((Fraction(1, 4), 12),)
        assert rational_runs(inst.y_seq) == ((Fraction(1, 4), 12),)

    def test_noiseless_point_has_one_vanishing_shell(self):
        for n in (2, 3, 5):
            inst = build_karamata_sequences(n, 0)
            size = 1 << n
            assert rational_runs(inst.y_seq) == (
                (Fraction(1, size - 1), (size - 1) ** 2),
                (Fraction(0), size - 1),
            )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_integer_runs_match_the_fraction_reference(self, n):
        size = 1 << n
        for p in GRID:
            inst = build_karamata_sequences(n, p)
            a, b, c, x_runs, y_runs = fraction_reference(n, p)
            assert (inst.a, inst.b, inst.c) == (a, b, c)
            assert rational_runs(inst.x_seq) == x_runs
            assert rational_runs(inst.y_seq) == y_runs
            # one shared denominator D = 2^n * d^n * (2^n - 1)
            assert inst.den == inst.x_seq.den == inst.y_seq.den == size * p.denominator**n * (size - 1)
            assert inst.x_seq.total_num == inst.y_seq.total_num == (size - 1) * inst.den
            # the plain run lists certify reads are the instance's, ties merged
            q, den, a_num, b_num, c_num, big_k, plain_x, plain_y = karamata._runs(n, p)
            assert (q, den, a_num, b_num, c_num, big_k) == (inst.p, inst.den, inst.a_num, inst.b_num, inst.c_num, inst.K)
            assert (tuple(plain_x), tuple(plain_y)) == (inst.x_seq.runs, inst.y_seq.runs)

    def test_instance_rejects_sequences_off_its_denominator(self):
        inst = build_karamata_sequences(3, Fraction(1, 8))
        lifted = DescendingSeq([(num * 2, count) for num, count in inst.y_seq.runs], inst.den * 2)
        assert rational_runs(lifted) == rational_runs(inst.y_seq)
        with pytest.raises(ValueError):
            dataclasses.replace(inst, y_seq=lifted)

    def test_scope_and_domain(self):
        with pytest.raises(ValueError):
            build_karamata_sequences(1, Fraction(1, 4))
        with pytest.raises(ValueError):
            build_karamata_sequences(3, Fraction(2, 3))

    def test_construction_asserts_the_totals(self, monkeypatch):
        # one value per shell instead of C(n, k): the w side no longer sums to 2^n - 1
        monkeypatch.setattr(karamata.math, "comb", lambda n, k: 1)
        with pytest.raises(AssertionError, match="totals"):
            build_karamata_sequences(3, Fraction(1, 8))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_filler_count_identity(self, n):
        size = 1 << n
        big_k = (size // 2) * (size - n)
        assert size * (size - 1) - 2 * big_k == (n - 1) * size

    def test_order_chain_and_shell_monotonicity(self):
        for n in (2, 3, 6):
            for p in (Fraction(0), Fraction(1, 64), Fraction(1, 4), Fraction(1, 2)):
                inst = build_karamata_sequences(n, p)
                assert inst.a >= inst.c >= inst.b
                runs = inst.y_seq.runs
                assert all(u > v for (u, _), (v, _) in zip(runs, runs[1:]))
                # 2^n shell values in all, each repeated 2^n - 1 times
                assert all(count % ((1 << n) - 1) == 0 for _, count in runs)
                assert sum(count // ((1 << n) - 1) for _, count in runs) == 1 << n

    def test_sequence_lengths(self):
        for n in (2, 3, 4, 7):
            inst = build_karamata_sequences(n, Fraction(3, 16))
            size = 1 << n
            assert inst.x_seq.length == inst.y_seq.length == size * (size - 1)
        # beyond sys.maxsize, where len() could not report it
        inst = build_karamata_sequences(40, Fraction(13, 64))
        assert inst.x_seq.length == inst.y_seq.length == 2**40 * (2**40 - 1)


class TestCertificates:
    def test_ledger_values_n2(self):
        inst = build_karamata_sequences(2, Fraction(1, 4))
        cert = certify_instance(inst)
        assert w_max(inst) == Fraction(5, 16) <= inst.a
        assert 2 * w_max(inst) == inst.a + inst.c  # equality case
        assert cert.holds
        assert cert.sub_inequalities == {
            "w_max_le_a": True,
            "two_wmax_le_a_plus_c": True,
            "w_min_ge_b": True,
            "totals": True,
            "middle_prefix_sums_direct": True,
        }

    def test_pairing_lemma_is_tight_then_false_inside_n2(self):
        # at n = 2 the scalar pairing comparison fails strictly between
        # p = 1/4 and p = 1/2 (both endpoints are exact ties); the
        # majorization itself still holds, via the direct middle-segment
        # prefix sums, so the certificate does too
        inst = build_karamata_sequences(2, Fraction(3, 8))
        assert 2 * w_max(inst) == Fraction(55, 96) > inst.a + inst.c == Fraction(9, 16)
        cert = certify_instance(inst)
        assert cert.sub_inequalities["two_wmax_le_a_plus_c"] is False
        assert cert.sub_inequalities["middle_prefix_sums_direct"] is True
        assert cert.holds
        assert check_majorization(inst.x_seq, inst.y_seq).holds
        for p in (Fraction(1, 4), Fraction(1, 2)):
            tight = build_karamata_sequences(2, p)
            assert 2 * w_max(tight) == tight.a + tight.c

    def test_pairing_lemma_holds_from_three_variables_up(self):
        for n in (3, 4, 5, 8):
            for p in GRID:
                inst = build_karamata_sequences(n, p)
                assert 2 * w_max(inst) <= inst.a + inst.c

    def test_ledger_at_symmetric_point(self):
        for n in (2, 4, 6):
            inst = build_karamata_sequences(n, Fraction(1, 2))
            assert w_max(inst) == Fraction(1, 1 << n) == inst.b
            assert certify_instance(inst).holds

    def test_instances_majorize_exactly(self):
        for n in (2, 3, 4, 6, 8):
            for p in (Fraction(0), Fraction(1, 64), Fraction(1, 4), Fraction(1, 2)):
                inst = build_karamata_sequences(n, p)
                assert check_majorization(inst.x_seq, inst.y_seq).holds
                assert certify_instance(inst).holds

    def test_run_walk_matches_dense_scan_on_instances(self):
        for n in (2, 3, 4):
            for p in (Fraction(0), Fraction(3, 64), Fraction(1, 4), Fraction(1, 2)):
                inst = build_karamata_sequences(n, p)
                holds, first, totals = dense_majorization(dense(inst.x_seq), dense(inst.y_seq))
                cert = check_majorization(inst.x_seq, inst.y_seq)
                assert (cert.holds, cert.first_violation, cert.totals_equal) == (
                    holds,
                    first,
                    totals,
                )


class TestCertify:
    """``certify`` runs the object path's construction, walk and ledger on plain run lists."""

    @pytest.mark.parametrize("n", range(2, 21))
    def test_equals_the_certificate_of_the_instance(self, n):
        # the 64ths grid holds the ties at p = 0 and p = 1/2
        for p in GRID + (Fraction(1, 3), Fraction(12345, 100003), Fraction(2047, 4096)):
            assert certify(n, p) == certify_instance(build_karamata_sequences(n, p))

    @pytest.mark.parametrize("n, p", [(1, Fraction(1, 4)), (3, Fraction(3, 4))])
    def test_raises_what_the_construction_raises(self, n, p):
        with pytest.raises(ValueError) as built:
            build_karamata_sequences(n, p)
        with pytest.raises(ValueError) as certified:
            certify(n, p)
        assert str(certified.value) == str(built.value)


class TestMutations:
    """Perturbed instances must fail the certificate the way the dense oracle says."""

    @pytest.mark.parametrize("n, p", [(2, Fraction(1, 4)), (3, Fraction(13, 64)), (8, Fraction(1, 64))])
    def test_one_extra_y_numerator_breaks_the_totals(self, n, p):
        inst = build_karamata_sequences(n, p)
        (top, count), *rest = inst.y_seq.runs
        bumped = DescendingSeq([(top + 1, count), *rest], inst.den)
        cert = certify_instance(dataclasses.replace(inst, y_seq=bumped))
        assert not cert.totals_equal and not cert.holds
        assert not check_majorization(inst.x_seq, bumped).totals_equal

    def test_mass_moved_between_y_runs_matches_the_dense_oracle(self):
        seen = set()
        for n in (2, 3, 4):
            for p in (Fraction(3, 64), Fraction(13, 64), Fraction(1, 4)):
                inst = build_karamata_sequences(n, p)
                runs = inst.y_seq.runs
                x_dense = dense(inst.x_seq)
                for j in range(len(runs)):
                    for k in range(j + 1, len(runs)):
                        for shift in range(4, 12):
                            # +count_k*step on run j and -count_j*step on run k keep the total
                            step = inst.den >> (n + shift)
                            moved = list(runs)
                            moved[j] = (runs[j][0] + runs[k][1] * step, runs[j][1])
                            moved[k] = (runs[k][0] - runs[j][1] * step, runs[k][1])
                            if any(u < v for (u, _), (v, _) in zip(moved, moved[1:])):
                                continue  # not a descending sequence any more
                            ys = DescendingSeq(moved, inst.den)
                            assert ys.total_num == inst.y_seq.total_num
                            expected = dense_majorization(x_dense, dense(ys))
                            assert outcome(check_majorization(inst.x_seq, ys)) == expected
                            seen.add(expected[1])
        # the moves reach violations at the first prefix and at deeper ones
        assert None in seen and 1 in seen
        assert len(seen - {None, 1}) >= 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_swapping_a_and_b_fails_the_certificate(self, n):
        for p in (Fraction(1, 64), Fraction(13, 64), Fraction(31, 64)):
            inst = build_karamata_sequences(n, p)
            swapped = dataclasses.replace(inst, a_num=inst.b_num, b_num=inst.a_num)
            ledger = certify_instance(swapped).sub_inequalities
            assert not ledger["w_max_le_a"]
            assert not ledger["w_min_ge_b"]
            assert not certify_instance(swapped).holds
            # the swapped majorizing side [b, c, a] is not descending at all
            with pytest.raises(ValueError):
                DescendingSeq(
                    [(inst.b_num, inst.K), (inst.c_num, (1 << n) * (n - 1)), (inst.a_num, inst.K)],
                    inst.den,
                )

    def test_n2_pairing_lemma_false_inside_the_quarter_to_half_interval(self):
        for p in GRID:
            cert = certify_instance(build_karamata_sequences(2, p))
            subs = cert.sub_inequalities
            assert subs["two_wmax_le_a_plus_c"] is not (Fraction(1, 4) < p < Fraction(1, 2))
            assert subs["middle_prefix_sums_direct"] is True
            assert cert.holds


class TestPrefixSumDump:
    def test_matches_fraction_prefix_sums(self, tmp_path):
        path = tmp_path / "sums.csv"
        for n in (2, 3, 4):
            for p in (Fraction(0), Fraction(3, 64), Fraction(1, 4), Fraction(1, 2)):
                inst = build_karamata_sequences(n, p)
                inst.write_prefix_sums(path)
                expected = io.StringIO()
                writer = csv.writer(expected)
                writer.writerow(["k", "SL_num", "SL_den", "SR_num", "SR_den", "ok"])
                sl = sr = Fraction(0)
                for k, (xv, yv) in enumerate(zip(dense(inst.x_seq), dense(inst.y_seq)), start=1):
                    sl += yv
                    sr += xv
                    writer.writerow([k, sl.numerator, sl.denominator, sr.numerator, sr.denominator, sl <= sr])
                assert path.read_bytes() == expected.getvalue().encode()


class TestConclusion:
    def test_identical_sequences_tie(self):
        seq = seq_of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        lhs, rhs = karamata_conclusion(seq, seq)
        assert lhs == rhs

    def test_strict_inequality_on_the_n2_instance(self):
        inst = build_karamata_sequences(2, Fraction(1, 4))
        lhs, rhs = karamata_conclusion(inst.x_seq, inst.y_seq)
        assert lhs < rhs

    def test_equality_at_the_symmetric_point(self):
        inst = build_karamata_sequences(2, Fraction(1, 2))
        lhs, rhs = karamata_conclusion(inst.x_seq, inst.y_seq)
        assert lhs == rhs

    def test_rejects_non_majorizing_pair(self):
        with pytest.raises(ValueError):
            karamata_conclusion(seq_of([1, 1]), seq_of([2, 0]))

    def test_floats_equal_the_fraction_evaluation(self):
        # num / den is correctly rounded, exactly as float(Fraction(num, den))
        for n in (2, 5, 9, 12):
            for p in GRID[::3]:
                inst = build_karamata_sequences(n, p)
                _, _, _, x_runs, y_runs = fraction_reference(n, p)
                assert karamata_conclusion(inst.x_seq, inst.y_seq) == (
                    math.fsum(count * xlog2x(value) for value, count in y_runs),
                    math.fsum(count * xlog2x(value) for value, count in x_runs),
                )

    def test_convexity_direction_across_instances(self):
        for n in (2, 3, 5):
            for p in (Fraction(1, 64), Fraction(1, 4), Fraction(15, 32)):
                inst = build_karamata_sequences(n, p)
                lhs, rhs = karamata_conclusion(inst.x_seq, inst.y_seq)
                assert lhs <= rhs + 1e-12


class TestBoundEquivalence:
    def test_signs_oppose_below_half(self):
        mi_minus_bound, gap = bound_equivalence_check(2, Fraction(1, 4))
        assert mi_minus_bound < 0 < gap

    def test_both_vanish_at_half(self):
        mi_minus_bound, gap = bound_equivalence_check(3, Fraction(1, 2))
        assert abs(mi_minus_bound) <= 1e-10
        assert abs(gap) <= 1e-10

    @pytest.mark.parametrize("n, p", [(2, Fraction(1, 4)), (3, Fraction(1, 8)), (5, Fraction(3, 8)),
                                      (20, Fraction(3, 8)), (24, Fraction(31, 64))])
    def test_scaling_identity(self, n, p):
        # the two formulations differ exactly by a factor of -2^n
        mi_minus_bound, gap = bound_equivalence_check(n, p)
        assert abs(mi_minus_bound + gap / (1 << n)) <= 1e-10

    def test_n_below_2_raises(self):
        with pytest.raises(ValueError, match="^the construction needs n >= 2, got n=1$"):
            bound_equivalence_check(1, Fraction(1, 4))

    def test_sign_agreement_across_grid(self):
        for n in (2, 4):
            for p in GRID[::4]:
                mi_minus_bound, gap = bound_equivalence_check(n, p)
                if abs(mi_minus_bound) > 1e-10:
                    assert (mi_minus_bound < 0) == (gap > 0)
