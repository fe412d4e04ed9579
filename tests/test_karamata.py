"""Majorization machinery: sequences, exact certificates, the bound equivalence.

``check_majorization`` walks run boundaries; the dense elementwise
prefix scan below is its independent oracle.
"""

import csv
import random
from fractions import Fraction

import pytest

from bfmi.karamata import (
    DescendingSeq,
    MajorizationCertificate,
    bound_equivalence_check,
    build_karamata_sequences,
    certify_instance,
    check_majorization,
    karamata_conclusion,
    sub_inequality_ledger,
)

GRID = tuple(Fraction(k, 64) for k in range(33))


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


class TestDescendingSeq:
    def test_compression_and_length(self):
        seq = DescendingSeq.from_values([3, 3, 2, 1, 1, 1])
        assert seq.runs == ((Fraction(3), 2), (Fraction(2), 1), (Fraction(1), 3))
        assert seq.length == 6
        assert seq.total() == 11
        assert list(seq.values()) == [3, 3, 2, 1, 1, 1]

    def test_adjacent_equal_runs_merge(self):
        seq = DescendingSeq([(Fraction(1, 2), 2), (Fraction(1, 2), 3)])
        assert seq.runs == ((Fraction(1, 2), 5),)

    def test_rejects_ascending_and_empty(self):
        with pytest.raises(ValueError):
            DescendingSeq.from_values([1, 2])
        with pytest.raises(ValueError):
            DescendingSeq([])
        with pytest.raises(ValueError):
            DescendingSeq([(1, 0)])


class TestCheckMajorization:
    def test_identical_sequences_hold(self):
        seq = DescendingSeq.from_values([Fraction(3, 2), 1, 1, Fraction(1, 2)])
        cert = check_majorization(seq, seq)
        assert cert.holds and cert.totals_equal and cert.first_violation is None

    def test_constructed_counterexample(self):
        cert = check_majorization([1, 1], [2, 0])
        assert not cert.holds
        assert cert.first_violation == 1
        assert cert.totals_equal

    def test_unequal_totals_fail_without_violation_index(self):
        cert = check_majorization([3, 1], [2, 1])
        assert not cert.holds
        assert cert.first_violation is None
        assert not cert.totals_equal

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_majorization([1, 1], [2])

    def test_non_descending_input_raises(self):
        with pytest.raises(ValueError):
            check_majorization([1, 2], [2, 1])

    def test_certificate_consistency_enforced(self):
        with pytest.raises(ValueError):
            MajorizationCertificate(holds=True, first_violation=3, totals_equal=True)

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
            cert = check_majorization(xs, ys)
            holds, first, totals = dense_majorization(xs, ys)
            assert cert.holds == holds
            assert cert.first_violation == first
            assert cert.totals_equal == totals


class TestSequenceConstruction:
    def test_frozen_instance_n2(self):
        inst = build_karamata_sequences(2, Fraction(1, 4))
        assert (inst.a, inst.b, inst.c) == (Fraction(3, 8), Fraction(1, 8), Fraction(1, 4))
        assert inst.K == 4
        assert inst.x_seq.runs == (
            (Fraction(3, 8), 4),
            (Fraction(1, 4), 4),
            (Fraction(1, 8), 4),
        )
        assert inst.y_seq.runs == (
            (Fraction(5, 16), 3),
            (Fraction(13, 48), 6),
            (Fraction(7, 48), 3),
        )
        assert inst.x_seq.total() == inst.y_seq.total() == 3

    def test_symmetric_point_collapses_everything(self):
        inst = build_karamata_sequences(2, Fraction(1, 2))
        assert inst.a == inst.b == inst.c == Fraction(1, 4)
        assert inst.x_seq.runs == ((Fraction(1, 4), 12),)
        assert inst.y_seq.runs == ((Fraction(1, 4), 12),)

    def test_noiseless_point_has_one_vanishing_shell(self):
        for n in (2, 3, 5):
            inst = build_karamata_sequences(n, 0)
            size = 1 << n
            assert inst.y_seq.runs == (
                (Fraction(1, size - 1), (size - 1) ** 2),
                (Fraction(0), size - 1),
            )

    def test_scope_and_domain(self):
        with pytest.raises(ValueError):
            build_karamata_sequences(1, Fraction(1, 4))
        with pytest.raises(ValueError):
            build_karamata_sequences(3, Fraction(2, 3))

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
        cert = sub_inequality_ledger(inst)
        assert inst.y_seq.max() == Fraction(5, 16) <= inst.a
        assert 2 * inst.y_seq.max() == inst.a + inst.c  # equality case
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
        assert 2 * inst.y_seq.max() == Fraction(55, 96) > inst.a + inst.c == Fraction(9, 16)
        cert = sub_inequality_ledger(inst)
        assert cert.sub_inequalities["two_wmax_le_a_plus_c"] is False
        assert cert.sub_inequalities["middle_prefix_sums_direct"] is True
        assert cert.holds
        assert check_majorization(inst.x_seq, inst.y_seq).holds
        for p in (Fraction(1, 4), Fraction(1, 2)):
            tight = build_karamata_sequences(2, p)
            assert 2 * tight.y_seq.max() == tight.a + tight.c

    def test_pairing_lemma_holds_from_three_variables_up(self):
        for n in (3, 4, 5, 8):
            for p in GRID:
                inst = build_karamata_sequences(n, p)
                assert 2 * inst.y_seq.max() <= inst.a + inst.c

    def test_ledger_at_symmetric_point(self):
        for n in (2, 4, 6):
            inst = build_karamata_sequences(n, Fraction(1, 2))
            assert inst.y_seq.max() == Fraction(1, 1 << n) == inst.b
            assert sub_inequality_ledger(inst).holds

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
                holds, first, totals = dense_majorization(
                    list(inst.x_seq.values()), list(inst.y_seq.values())
                )
                cert = check_majorization(inst.x_seq, inst.y_seq)
                assert (cert.holds, cert.first_violation, cert.totals_equal) == (
                    holds,
                    first,
                    totals,
                )


class TestPrefixSumDump:
    def test_matches_fraction_prefix_sums(self, tmp_path):
        path = tmp_path / "sums.csv"
        for n in (2, 3, 4):
            for p in (Fraction(0), Fraction(3, 64), Fraction(1, 4), Fraction(1, 2)):
                inst = build_karamata_sequences(n, p)
                inst.write_prefix_sums(path)
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                expected = [["k", "SL_num", "SL_den", "SR_num", "SR_den", "ok"]]
                sl = sr = Fraction(0)
                for k, (xv, yv) in enumerate(zip(inst.x_seq.values(), inst.y_seq.values()), start=1):
                    sl += yv
                    sr += xv
                    expected.append([str(v) for v in (
                        k, sl.numerator, sl.denominator, sr.numerator, sr.denominator, sl <= sr
                    )])
                assert rows == expected


class TestConclusion:
    def test_identical_sequences_tie(self):
        seq = DescendingSeq.from_values([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
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
            karamata_conclusion([1, 1], [2, 0])

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

    @pytest.mark.parametrize("n, p", [(2, Fraction(1, 4)), (3, Fraction(1, 8)), (5, Fraction(3, 8))])
    def test_scaling_identity(self, n, p):
        # the two formulations differ exactly by a factor of -2^n
        mi_minus_bound, gap = bound_equivalence_check(n, p)
        assert abs(mi_minus_bound + gap / (1 << n)) <= 1e-10

    def test_sign_agreement_across_grid(self):
        for n in (2, 4):
            for p in GRID[::4]:
                mi_minus_bound, gap = bound_equivalence_check(n, p)
                if abs(mi_minus_bound) > 1e-10:
                    assert (mi_minus_bound < 0) == (gap > 0)
