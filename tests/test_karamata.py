"""Majorization machinery: run lists, exact certificates, the bound equivalence.

``_first_violation`` walks run boundaries over integer numerators; the
dense elementwise prefix scan below is its independent oracle, and
``fraction_reference`` rebuilds every instance value from the module
docstring's formulas in ``Fraction`` arithmetic.
"""

import csv
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
    write_prefix_sums,
)

GRID = tuple(Fraction(k, 64) for k in range(33))


def replaced(record, **changes):
    """A new record of ``record``'s type with ``changes`` applied; its ``__post_init__`` runs again."""
    return type(record)(**{**vars(record), **changes})


def walk(xs, ys):
    """(holds, first violation, totals equal) of two nonincreasing lists of rationals.

    Both sides become integer run lists over one denominator through
    ``_merge``, and ``_first_violation`` walks them.
    """
    den = math.lcm(*(Fraction(v).denominator for v in [*xs, *ys]))
    (x_runs, _, x_total), (y_runs, _, y_total) = (
        karamata._merge((int(v * den), 1) for v in values) for values in (xs, ys)
    )
    first = karamata._first_violation(x_runs, y_runs)
    return first is None and x_total == y_total, first, x_total == y_total


def rational_runs(runs, den):
    """Integer runs read as (Fraction value, count) pairs."""
    return tuple((Fraction(num, den), count) for num, count in runs)


def dense(runs):
    """Every value of a run list, in order (beware: may be astronomically long)."""
    return [value for value, count in runs for _ in range(count)]


def instance(n, p):
    """(a, b, c, K, x runs, y runs) that ``_runs`` builds, values read as Fractions."""
    _, den, a_num, b_num, c_num, big_k, x_runs, y_runs = karamata._runs(n, p)
    return (Fraction(a_num, den), Fraction(b_num, den), Fraction(c_num, den), big_k,
            rational_runs(x_runs, den), rational_runs(y_runs, den))


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


class TestMerge:
    def test_compression_and_length(self):
        runs = [(3, 1), (3, 1), (2, 1), (1, 1), (1, 1), (1, 1)]
        assert karamata._merge(runs) == ([(3, 2), (2, 1), (1, 3)], 6, 11)
        assert DescendingSeq(runs).runs == ((3, 2), (2, 1), (1, 3))

    def test_adjacent_equal_runs_merge(self):
        assert karamata._merge([(1, 2), (1, 3)]) == ([(1, 5)], 5, 5)

    @pytest.mark.parametrize("runs", [[(1, 1), (2, 1)], [], [(1, 0)], [(2, 1), (1, -1)]],
                             ids=["ascending", "empty", "zero-count", "negative-count"])
    def test_rejects_what_is_not_a_descending_run_list(self, runs):
        with pytest.raises(ValueError):
            karamata._merge(runs)
        with pytest.raises(ValueError):
            DescendingSeq(runs)

    def test_sequence_rejects_non_integers(self):
        with pytest.raises(TypeError):
            DescendingSeq([(Fraction(1, 2), 1)])
        with pytest.raises(TypeError):
            DescendingSeq([(1, 1.0)])


class TestRunWalk:
    def test_identical_sequences_hold(self):
        values = [Fraction(3, 2), 1, 1, Fraction(1, 2)]
        assert walk(values, values) == (True, None, True)

    def test_constructed_counterexample(self):
        assert walk([1, 1], [2, 0]) == (False, 1, True)

    def test_unequal_totals_fail_without_violation_index(self):
        assert walk([3, 1], [2, 1]) == (False, None, False)

    def test_equal_prefix_sums_are_no_violation(self):
        # the gap reaches 0 and never crosses it: ties hold
        assert walk([Fraction(1, 4)] * 12, [Fraction(1, 4)] * 12) == (True, None, True)
        assert walk([3, 1], [2, 2]) == (True, None, True)
        assert walk([2, 2, 0], [2, 1, 1]) == (True, None, True)
        assert walk([2, 2], [3, 1]) == (False, 1, True)

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
            assert walk(xs, ys) == dense_majorization(xs, ys)


class TestSequenceConstruction:
    def test_frozen_instance_n2(self):
        a, b, c, big_k, x_runs, y_runs = instance(2, Fraction(1, 4))
        assert (a, b, c) == (Fraction(3, 8), Fraction(1, 8), Fraction(1, 4))
        assert big_k == 4
        assert x_runs == (
            (Fraction(3, 8), 4),
            (Fraction(1, 4), 4),
            (Fraction(1, 8), 4),
        )
        assert y_runs == (
            (Fraction(5, 16), 3),
            (Fraction(13, 48), 6),
            (Fraction(7, 48), 3),
        )
        assert sum(dense(x_runs)) == sum(dense(y_runs)) == 3

    def test_symmetric_point_collapses_everything(self):
        a, b, c, _, x_runs, y_runs = instance(2, Fraction(1, 2))
        assert a == b == c == Fraction(1, 4)
        assert x_runs == ((Fraction(1, 4), 12),)
        assert y_runs == ((Fraction(1, 4), 12),)

    def test_noiseless_point_has_one_vanishing_shell(self):
        for n in (2, 3, 5):
            size = 1 << n
            assert instance(n, 0)[5] == (
                (Fraction(1, size - 1), (size - 1) ** 2),
                (Fraction(0), size - 1),
            )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_integer_runs_match_the_fraction_reference(self, n):
        size = 1 << n
        for p in GRID:
            a, b, c, big_k, x_runs, y_runs = instance(n, p)
            assert (a, b, c, x_runs, y_runs) == fraction_reference(n, p)
            # one shared denominator D = 2^n * d^n * (2^n - 1)
            q, den, a_num, b_num, c_num, big_k, plain_x, plain_y = karamata._runs(n, p)
            assert den == size * p.denominator**n * (size - 1)
            # the instance holds the same numbers and run lists, ties merged
            inst = build_karamata_sequences(n, p)
            assert (q, den, a_num, b_num, c_num, big_k) == (inst.p, inst.den, inst.a_num, inst.b_num, inst.c_num, inst.K)
            assert (tuple(plain_x), tuple(plain_y)) == (inst.x_seq.runs, inst.y_seq.runs)
            assert inst.x_seq.total_num == inst.y_seq.total_num == (size - 1) * den

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
                _, _, a_num, b_num, c_num, _, _, runs = karamata._runs(n, p)
                assert a_num >= c_num >= b_num
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
        a, _, c, _, _, y_runs = instance(2, Fraction(1, 4))
        w_max = y_runs[0][0]
        assert w_max == Fraction(5, 16) <= a
        assert 2 * w_max == a + c  # equality case
        cert = certify(2, Fraction(1, 4))
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
        a, _, c, _, _, y_runs = instance(2, Fraction(3, 8))
        assert 2 * y_runs[0][0] == Fraction(55, 96) > a + c == Fraction(9, 16)
        cert = certify(2, Fraction(3, 8))
        assert cert.sub_inequalities["two_wmax_le_a_plus_c"] is False
        assert cert.sub_inequalities["middle_prefix_sums_direct"] is True
        assert cert.holds and cert.first_violation is None
        for p in (Fraction(1, 4), Fraction(1, 2)):
            a, _, c, _, _, y_runs = instance(2, p)
            assert 2 * y_runs[0][0] == a + c

    def test_pairing_lemma_holds_from_three_variables_up(self):
        for n in (3, 4, 5, 8):
            for p in GRID:
                a, _, c, _, _, y_runs = instance(n, p)
                assert 2 * y_runs[0][0] <= a + c

    def test_ledger_at_symmetric_point(self):
        for n in (2, 4, 6):
            _, b, _, _, _, y_runs = instance(n, Fraction(1, 2))
            assert y_runs[0][0] == Fraction(1, 1 << n) == b
            assert certify(n, Fraction(1, 2)).holds

    def test_instances_majorize_exactly(self):
        for n in (2, 3, 4, 6, 8):
            for p in (Fraction(0), Fraction(1, 64), Fraction(1, 4), Fraction(1, 2)):
                cert = certify(n, p)
                assert cert.holds and cert.first_violation is None and cert.totals_equal

    def test_run_walk_matches_dense_scan_on_instances(self):
        for n in (2, 3, 4):
            for p in (Fraction(0), Fraction(3, 64), Fraction(1, 4), Fraction(1, 2)):
                *_, x_runs, y_runs = fraction_reference(n, p)
                holds, first, totals = dense_majorization(dense(x_runs), dense(y_runs))
                cert = certify(n, p)
                assert (cert.holds, cert.first_violation, cert.totals_equal) == (holds, first, totals)


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
        bumped = DescendingSeq([(top + 1, count), *rest])
        cert = certify_instance(replaced(inst, y_seq=bumped))
        assert not cert.totals_equal and not cert.holds
        assert not cert.sub_inequalities["totals"]

    @pytest.mark.parametrize("n, p", [(2, Fraction(1, 4)), (5, Fraction(13, 64))])
    def test_length_mismatch_raises(self, n, p):
        inst = build_karamata_sequences(n, p)
        for side in ("x_seq", "y_seq"):
            *head, (last, count) = runs = getattr(inst, side).runs
            longer = DescendingSeq([*runs, (0, 1)])
            shorter = DescendingSeq([*head, (last, count - 1)])
            for doctored in (longer, shorter):
                with pytest.raises(ValueError, match="^length mismatch"):
                    certify_instance(replaced(inst, **{side: doctored}))

    def test_mass_moved_between_y_runs_matches_the_dense_oracle(self):
        seen = set()
        for n in (2, 3, 4):
            for p in (Fraction(3, 64), Fraction(13, 64), Fraction(1, 4)):
                inst = build_karamata_sequences(n, p)
                runs = inst.y_seq.runs
                x_dense = dense(rational_runs(inst.x_seq.runs, inst.den))
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
                            ys = DescendingSeq(moved)
                            assert ys.total_num == inst.y_seq.total_num
                            holds, first, totals = dense_majorization(x_dense, dense(rational_runs(ys.runs, inst.den)))
                            cert = certify_instance(replaced(inst, y_seq=ys))
                            # the ledger may fail on its own (a moved w_max above a), never pass a violation
                            assert (cert.first_violation, cert.totals_equal) == (first, totals)
                            assert cert.holds <= holds
                            seen.add(first)
        # the moves reach violations at the first prefix and at deeper ones
        assert None in seen and 1 in seen
        assert len(seen - {None, 1}) >= 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_swapping_a_and_b_fails_the_certificate(self, n):
        for p in (Fraction(1, 64), Fraction(13, 64), Fraction(31, 64)):
            inst = build_karamata_sequences(n, p)
            swapped = replaced(inst, a_num=inst.b_num, b_num=inst.a_num)
            ledger = certify_instance(swapped).sub_inequalities
            assert not ledger["w_max_le_a"]
            assert not ledger["w_min_ge_b"]
            assert not certify_instance(swapped).holds
            # the swapped majorizing side [b, c, a] is not descending at all
            with pytest.raises(ValueError):
                DescendingSeq([(inst.b_num, inst.K), (inst.c_num, (1 << n) * (n - 1)), (inst.a_num, inst.K)])

    def test_n2_pairing_lemma_false_inside_the_quarter_to_half_interval(self):
        for p in GRID:
            cert = certify(2, p)
            subs = cert.sub_inequalities
            assert subs["two_wmax_le_a_plus_c"] is not (Fraction(1, 4) < p < Fraction(1, 2))
            assert subs["middle_prefix_sums_direct"] is True
            assert cert.holds


class TestPrefixSumDump:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_fraction_prefix_sums(self, n, tmp_path):
        path = tmp_path / "sums.csv"
        for p in GRID[::4]:
            write_prefix_sums(n, p, path)
            # the reference sides are the docstring's a, c, b and w_k with their run counts
            *_, x_runs, y_runs = fraction_reference(n, p)
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(["k", "SL_num", "SL_den", "SR_num", "SR_den", "ok"])
            sl = sr = Fraction(0)
            for k, (xv, yv) in enumerate(zip(dense(x_runs), dense(y_runs)), start=1):
                sl += yv
                sr += xv
                writer.writerow([k, sl.numerator, sl.denominator, sr.numerator, sr.denominator, sl <= sr])
            assert path.read_bytes() == expected.getvalue().encode()


class TestBoundEquivalence:
    def test_signs_oppose_below_half(self):
        mi_minus_bound, gap = bound_equivalence_check(2, Fraction(1, 4))
        assert mi_minus_bound < 0 < gap

    def test_both_vanish_at_half(self):
        mi_minus_bound, gap = bound_equivalence_check(3, Fraction(1, 2))
        assert abs(mi_minus_bound) <= 1e-10
        assert abs(gap) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_convexity_gap_is_nonnegative_and_vanishes_at_half(self, n):
        # Karamata's inequality on the certified pair: sum g(w) <= sum g(x)
        for p in GRID:
            assert bound_equivalence_check(n, p)[1] >= -1e-12
        # every value is 1/2^n at p = 1/2, and each g(1/2^n) = -n/2^n is exact
        assert bound_equivalence_check(n, Fraction(1, 2))[1] == 0

    @pytest.mark.parametrize("n, p", [(2, Fraction(1, 4)), (3, Fraction(1, 8)), (5, Fraction(3, 8)),
                                      (20, Fraction(3, 8)), (24, Fraction(31, 64))])
    def test_scaling_identity(self, n, p):
        # the two formulations differ exactly by a factor of -2^n
        mi_minus_bound, gap = bound_equivalence_check(n, p)
        assert abs(mi_minus_bound + gap / (1 << n)) <= 1e-10

    def test_n_below_2_raises(self):
        with pytest.raises(ValueError, match="^the construction needs n >= 2, got n=1$"):
            bound_equivalence_check(1, Fraction(1, 4))

    def test_a_reconstruction_mismatch_is_an_assertion(self, monkeypatch):
        # MI rebuilt from the w-decomposition must agree with the histogram MI within 1e-9
        real = karamata.histogram_mutual_information

        def shifted(h, p):
            result = real(h, p)
            return replaced(result, mi_bits=result.mi_bits + 1e-6)

        monkeypatch.setattr(karamata, "histogram_mutual_information", shifted)
        with pytest.raises(AssertionError, match="^MI reconstructed from the w-decomposition disagrees"):
            bound_equivalence_check(4, Fraction(1, 4))

    def test_sign_agreement_across_grid(self):
        for n in (2, 4):
            for p in GRID[::4]:
                mi_minus_bound, gap = bound_equivalence_check(n, p)
                if abs(mi_minus_bound) > 1e-10:
                    assert (mi_minus_bound < 0) == (gap > 0)
