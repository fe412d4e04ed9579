"""Harness behaviour: class sweeps, exhaustive scans, reduction, reports."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from bfmi import boolfn, verify
from bfmi.boolfn import Class1, Class2, Class3, Dictator, Lex, TruthTable, canonical_form, make_class
from bfmi.channel import joint_yz
from bfmi.cli import main
from bfmi.karamata import MajorizationCertificate
from bfmi.mi import binary_entropy, mutual_information
from bfmi.verify import (
    PASS_MARGIN_TOLERANCE,
    VerifyReport,
    _kernel_matrix,
    _mi_from_bits,
    _scan_chunk,
    class3_reduction_check,
    exhaustive_check,
    marginal_spot_check,
    p_grid,
    reports_to_csv,
    reports_to_json,
    summaries_to_csv,
    summaries_to_json,
    sweep,
    verify_class,
)

SMALL_GRID = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


class TestVerifyClass:
    def test_single_one_class_passes_with_certificates(self):
        reports = verify_class(Class1(), range(2, 6), SMALL_GRID)
        assert len(reports) == 4 * len(SMALL_GRID)
        assert all(r.status == "pass" for r in reports)
        assert all(r.karamata_certificate is not None for r in reports)
        assert all(r.karamata_certificate.holds for r in reports)

    def test_single_zero_class_has_identical_mi(self):
        a = verify_class(Class1(0), range(2, 5), SMALL_GRID)
        b = verify_class(Class2(0), range(2, 5), SMALL_GRID)
        for ra, rb in zip(a, b):
            assert abs(ra.mi_bits - rb.mi_bits) <= 1e-12

    def test_subcube_r1_sits_on_the_bound(self):
        reports = verify_class(Class3(1), range(2, 7), SMALL_GRID)
        assert all(abs(r.margin_bits) <= 1e-12 for r in reports)
        assert all(r.karamata_certificate is None for r in reports)

    def test_invalid_dimensions_are_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            reports = verify_class(Class3(3), range(2, 6), (Fraction(1, 4),))
        assert sorted({r.n for r in reports}) == [4, 5]
        assert any("skipping" in rec.message for rec in caplog.records)

    def test_status_is_derived_from_margin_and_certificate(self):
        def status(margin, cert=None):
            return VerifyReport("class1:i=0", 2, Fraction(1, 4), 0.5, 0.5, margin, cert).status

        assert status(-PASS_MARGIN_TOLERANCE) == "pass"
        assert status(-2 * PASS_MARGIN_TOLERANCE) == "fail"
        assert status(0.0, MajorizationCertificate(holds=True, totals_equal=True)) == "pass"
        assert status(0.0, MajorizationCertificate(holds=False, first_violation=3)) == "fail"

    def test_lex_runs_without_certificate(self):
        reports = verify_class(Lex(3), range(2, 4), (Fraction(1, 8),))
        assert all(r.karamata_certificate is None for r in reports)
        assert all(r.status == "pass" for r in reports)


class TestReduction:
    def test_equal_within_tolerance(self):
        full, reduced = class3_reduction_check(5, 2, Fraction(1, 4))
        assert abs(full - reduced) <= 1e-12

    def test_r1_is_the_capacity_case(self):
        full, reduced = class3_reduction_check(4, 1, Fraction(3, 8))
        target = 1 - binary_entropy(Fraction(3, 8))
        assert abs(full - target) <= 1e-12
        assert abs(reduced - target) <= 1e-12

    def test_noiseless_case(self):
        full, reduced = class3_reduction_check(3, 2, Fraction(0))
        target = binary_entropy(Fraction(1, 4))
        assert abs(full - target) <= 1e-12
        assert abs(reduced - target) <= 1e-12

    def test_r_range_checked(self):
        with pytest.raises(ValueError):
            class3_reduction_check(4, 4, Fraction(1, 4))


class TestVectorEngine:
    """The float scan engine against the exact-rational engine."""

    def test_matches_exact_engine_on_random_tables(self):
        rng = random.Random(53)
        for n in (1, 2, 3, 4):
            size = 1 << n
            masks = [rng.getrandbits(size) for _ in range(20)] + [0, (1 << size) - 1]
            bits = np.array(
                [[(m >> i) & 1 for i in range(size)] for m in masks], dtype=np.float64
            )
            for p in SMALL_GRID:
                got = _mi_from_bits(bits, _kernel_matrix(n, p), n)
                for mask, value in zip(masks, got):
                    exact = mutual_information(joint_yz(TruthTable(n, mask), p)).mi_bits
                    assert abs(value - exact) <= 1e-12


class TestExhaustive:
    def test_n2_max_is_the_dictator_value(self):
        summaries = exhaustive_check(2, (Fraction(1, 4),))
        s = summaries[0]
        assert s.num_functions_scanned == 16
        assert abs(s.max_mi_bits - (1 - binary_entropy(Fraction(1, 4)))) <= 1e-12
        assert s.max_margin >= -1e-9
        dictator_canon = canonical_form(make_class(2, Dictator(1)))
        assert dictator_canon in s.argmax_canonical_tables

    def test_n2_half_noise_flattens_everything(self):
        s = exhaustive_check(2, (Fraction(1, 2),))[0]
        assert abs(s.max_mi_bits) <= 1e-12

    def test_n3_scan(self):
        s = exhaustive_check(3, (Fraction(1, 8),))[0]
        assert s.num_functions_scanned == 256
        assert abs(s.max_mi_bits - (1 - binary_entropy(Fraction(1, 8)))) <= 1e-12
        exact_dictator = mutual_information(
            joint_yz(make_class(3, Dictator(1)), Fraction(1, 8))
        ).mi_bits
        assert s.max_mi_bits - exact_dictator <= 1e-12

    def test_argmax_never_empty(self):
        for s in exhaustive_check(2, SMALL_GRID):
            assert len(s.argmax_canonical_tables) >= 1

    def test_gating(self):
        with pytest.raises(ValueError):
            exhaustive_check(6, (Fraction(1, 4),))
        with pytest.raises(ValueError):
            exhaustive_check(0, (Fraction(1, 4),))

    def test_n5_dispatches_to_the_chunked_tier(self, monkeypatch, capsys):
        # a cheap stand-in for the chunk worker: every chunk reports 3
        # tables; chunks 7 and 4000 attain the maximum (4000 within the
        # tie tolerance), chunk 9 falls just short of it
        top = 1 / 8
        values = {7: top, 4000: top - 1e-13, 9: top - 1e-6}

        def stub(args):
            n, grid, start, stop = args
            assert n == 5 and grid == (Fraction(1, 4),) and stop - start == 1 << 20
            value = values.get(start >> 20, 1 / 16)
            return [(3, value, [(start, value)])]

        monkeypatch.setattr(verify, "_scan_chunk", stub)
        expected = sorted(canonical_form(TruthTable(5, k << 20)).mask for k in (7, 4000))
        [s] = exhaustive_check(5, (Fraction(1, 4),))
        assert s.num_functions_scanned == 3 * 4096
        assert s.max_mi_bits == top
        assert [t.mask for t in s.argmax_canonical_tables] == expected

        assert main(["exhaustive", "--n", "5", "--p", "1/4"]) == 0
        [entry] = json.loads(capsys.readouterr().out)["summaries"]
        assert entry["num_functions_scanned"] == 3 * 4096
        assert entry["max_mi_bits"] == top
        assert entry["argmax_canonical_tables"] == [
            json.loads(TruthTable(5, m).to_json()) for m in expected
        ]

    def test_n4_is_one_unfiltered_chunk(self, monkeypatch):
        seen = []

        def spy(args):
            seen.append(args[2:])
            return _scan_chunk(args)

        monkeypatch.setattr(verify, "_scan_chunk", spy)
        [s] = exhaustive_check(4, (Fraction(1, 4),), jobs=4)
        assert seen == [(0, 1 << 16)]
        assert s.num_functions_scanned == 1 << 16

    def test_n5_chunk_worker(self):
        # tiny index slice; the filter keeps even masks with <= 16 ones
        grid = (Fraction(1, 4), Fraction(1, 2))
        results = _scan_chunk((5, grid, 0, 4096))
        assert len(results) == len(grid)
        for p, (count, local_max, top) in zip(grid, results):
            assert count == 2048
            assert local_max <= 1 - binary_entropy(p) + 1e-9
            assert top and all(v <= local_max for _, v in top)
            assert all(m % 2 == 0 and m.bit_count() <= 16 for m, _ in top)
        assert len(results[1][2]) == 8 * verify.ARGMAX_CAP  # p = 1/2: every table ties

    def test_argmax_lists_are_pinned(self):
        # canonical masks of every argmax orbit over the 8ths grid at n = 3;
        # p = 0 and p = 1/2 are tie-heavy (at 1/2 all 14 orbits tie at 0)
        got = {s.p: [t.mask for t in s.argmax_canonical_tables] for s in exhaustive_check(3, p_grid(8))}
        assert got == {
            Fraction(0): [60, 120, 150, 216, 232, 240],
            Fraction(1, 8): [240],
            Fraction(1, 4): [240],
            Fraction(3, 8): [240],
            Fraction(1, 2): [0, 24, 60, 96, 104, 120, 128, 150, 152, 192, 216, 224, 232, 240],
        }

    def test_dedupe_walks_each_argmax_orbit_once(self, monkeypatch):
        # at n = 4, p = 13/64 the 8 dictator tables x_j, 1 - x_j tie; their
        # one orbit is walked once, one call per input map (4! * 2^4 = 384)
        calls = []
        real = boolfn.apply_index_map
        monkeypatch.setattr(boolfn, "apply_index_map", lambda *a: calls.append(1) or real(*a))
        [s] = exhaustive_check(4, (Fraction(13, 64),))
        assert len(calls) == 384
        assert s.argmax_canonical_tables == (canonical_form(make_class(4, Dictator(1))),)


class TestSweep:
    def test_dictator_margins_vanish(self):
        rows = list(sweep(Dictator(1), 3, p_grid(4)))
        assert [p for p, *_ in rows] == [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
        assert all(abs(margin) <= 1e-12 for *_, margin in rows)

    def test_endpoint_margins_for_single_one(self):
        rows = list(sweep(Class1(0), 3, p_grid(2)))
        by_p = {p: margin for p, _, _, margin in rows}
        assert abs(by_p[Fraction(1, 2)]) <= 1e-12
        assert abs(by_p[Fraction(0)] - (1 - binary_entropy(Fraction(1, 8)))) <= 1e-12

    def test_subcube_row_count_and_margins(self):
        rows = list(sweep(Class3(2), 6, p_grid(64)))
        assert len(rows) == 33
        assert all(margin >= -1e-9 for *_, margin in rows)

    def test_denominator_capped(self):
        for den in (0, 5000):
            with pytest.raises(ValueError):
                p_grid(den)


class TestSpotChecks:
    def test_all_pass_and_deterministic(self):
        a = marginal_spot_check(samples=12, seed=5)
        b = marginal_spot_check(samples=12, seed=5)
        assert a == b
        assert all(c["ok"] for c in a)


class TestReports:
    def test_json_schema(self):
        reports = verify_class(Class1(), range(2, 4), (Fraction(1, 4),))
        doc = json.loads(reports_to_json(reports))
        assert doc["version"] == 1
        assert len(doc["reports"]) == 2
        first = doc["reports"][0]
        assert first["class_spec"] == "class1:i=0"
        assert first["p"] == "1/4"
        assert first["status"] == "pass"
        assert first["karamata_certificate"]["holds"] is True

    def test_csv_layout(self):
        reports = verify_class(Dictator(1), range(2, 3), (Fraction(0),))
        lines = reports_to_csv(reports).strip().splitlines()
        assert lines[0].startswith("class_spec,n,p,mi_bits")
        assert len(lines) == 2

    def test_reports_are_byte_stable(self):
        make = lambda: verify_class(Class1(), range(2, 5), SMALL_GRID)
        assert reports_to_json(make()) == reports_to_json(make())
        assert reports_to_csv(make()) == reports_to_csv(make())

    def test_summary_serialization(self):
        summaries = exhaustive_check(2, (Fraction(1, 4),))
        doc = json.loads(summaries_to_json(summaries))
        assert doc["version"] == 1
        entry = doc["summaries"][0]
        assert entry["num_functions_scanned"] == 16
        assert entry["argmax_canonical_tables"][0]["n"] == 2
        csv_text = summaries_to_csv(summaries)
        assert csv_text.splitlines()[0].startswith("n,p,num_functions_scanned")
        assert summaries_to_json(exhaustive_check(2, (Fraction(1, 4),))) == summaries_to_json(
            summaries
        )
