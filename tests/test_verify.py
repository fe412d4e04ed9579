"""Harness behaviour: class sweeps, exhaustive scans, reduction, reports."""

import json
import math
import enum
import os
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from bfmi import cli, verify
from bfmi.boolfn import (
    Class1,
    Class2,
    Class3,
    Dictator,
    Lex,
    TruthTable,
    canonical_form,
    make_class,
    profile_histogram,
)
from bfmi.channel import joint_yz
from bfmi.cli import main
from bfmi.karamata import MajorizationCertificate
from bfmi.mi import _profile_rows, binary_entropy, mutual_information
from bfmi.verify import (
    ATTAINMENT_TOLERANCE,
    PASS_MARGIN_TOLERANCE,
    VerifyReport,
    _mi_from_codes,
    _scan_chunk,
    _space_codes,
    class3_reduction_check,
    exhaustive_check,
    p_grid,
    reports_to_csv,
    reports_to_json,
    summaries_to_csv,
    summaries_to_json,
    verify_class,
)
from test_golden import CASES as GOLDEN_CASES
from test_golden import run_case as run_golden_case

SMALL_GRID = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


def _brute_force_codes(n, masks):
    """Profile codes, shape (2^n, len(masks)): sum_d N_d(y) * stride_d per y and mask.

    N_d(y) counts the ones of the mask at Hamming distance d from y; the
    strides are 1, then stride_d * (C(n, d) + 1).
    """
    strides = [1]
    for d in range(n):
        strides.append(strides[-1] * (math.comb(n, d) + 1))
    x = np.arange(1 << n)
    weights = np.array(strides)[np.bitwise_count(x[:, None] ^ x[None, :])]  # [y, x]
    ones = (np.asarray(masks, dtype=np.int64)[None, :] >> x[:, None]) & 1  # [x, mask]
    return weights @ ones


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

    def test_a_class_absent_at_every_n_raises_and_logs_nothing(self, caplog):
        with caplog.at_level("WARNING"):
            with pytest.raises(ValueError, match=r"^r must be in 1\.\.n-1, got r=9 for n=7$"):
                verify_class(Class3(9), [7])
            with pytest.raises(ValueError, match=r"got r=9 for n=2$"):  # the first n's error
                verify_class(Class3(9), range(2, 6))
        assert not caplog.records

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

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 2), Fraction(13, 64), Fraction(1, 3),
                                   Fraction(12345, 100003)])
    def test_the_subcube_histogram_is_the_single_one_histogram_scaled(self, p):
        # rows times (2d)^(n - r) and counts times 2^(n - r): every count·c1 product is the same
        # float, so the two sides agree bit for bit
        for n in range(2, 11):
            for r in range(1, n):
                merged, den = _profile_rows(profile_histogram(n, Class3(r)), p)
                merged_r, den_r = _profile_rows(profile_histogram(r, Class1()), p)
                scale = (2 * p.denominator) ** (n - r)
                assert den == den_r * scale << (n - r)
                assert merged == {num * scale: k << (n - r) for num, k in merged_r.items()}
                full, reduced = class3_reduction_check(n, r, p)
                assert full.hex() == reduced.hex(), (n, r)


class TestVectorEngine:
    """The float scan kernel against the exact-rational engine."""

    def test_matches_exact_engine_on_random_tables(self):
        rng = random.Random(53)
        grid = SMALL_GRID + (Fraction(1, 3), Fraction(2047, 4096))
        for n in (1, 2, 3, 4, 5):
            size = 1 << n
            masks = [rng.getrandbits(size) for _ in range(20)] + [0, (1 << size) - 1]
            codes = _space_codes(n)[:, masks] if n <= 4 else _brute_force_codes(n, masks)
            for p in grid:
                got = _mi_from_codes(codes, n, p)
                for mask, value in zip(masks, got):
                    exact = mutual_information(joint_yz(TruthTable(n, mask), p)).mi_bits
                    assert abs(value - exact) <= 1e-12

    def test_constant_tables_have_mi_zero_at_non_dyadic_p(self):
        # the float p1 of the all-ones profile can round below p_Y and leave
        # mass in its empty z = 0 column, whose log2 p_Z is -inf
        for n in (1, 2, 3, 4):
            codes = _space_codes(n)[:, [0, (1 << (1 << n)) - 1]]
            for p in (Fraction(3, 10), Fraction(2, 5), Fraction(19, 55), *p_grid(9)):
                assert _mi_from_codes(codes, n, p).tolist() == [0.0, 0.0], (n, p)

    def test_matches_pure_python_bit_for_bit(self):
        # every table at n <= 3: the same operations in the same order, logs from
        # math.log2, so the kernel's floats depend on libm alone, not on SIMD or BLAS
        for n in (1, 2, 3):
            size = 1 << n
            py = 1.0 / size
            profiles = {}  # (mask, y) -> N_d(y)
            for mask in range(1 << size):
                ones = [x for x in range(size) if mask >> x & 1]
                for y in range(size):
                    profiles[mask, y] = [sum((x ^ y).bit_count() == d for x in ones) for d in range(n + 1)]
            codes = _space_codes(n)
            for p in p_grid(64) + (Fraction(3, 10),):
                h = [float((1 - p) ** (n - d) * p**d / size) for d in range(n + 1)]
                expected = []
                for mask in range(1 << size):
                    weight = mask.bit_count()
                    mi = 0.0
                    for y in range(size):
                        p1 = 0.0
                        for count, h_d in zip(profiles[mask, y], h):
                            p1 += count * h_d
                        p1 = min(max(p1, 0.0), py)
                        term = 0.0
                        if 0 < weight < size:  # a constant table's terms are exactly 0
                            for pc, w in ((p1, weight), (py - p1, size - weight)):
                                term += pc * ((math.log2(pc) if pc > 0.0 else 0.0) - math.log2(py * w / size))
                        mi += term
                    expected.append(mi)
                assert _mi_from_codes(codes, n, p).tobytes() == np.array(expected).tobytes(), (n, p)

    def test_largest_code_fits_the_code_dtype(self):
        # the all-ones table has the full profile C(5, d) at every y
        assert _brute_force_codes(5, [(1 << 32) - 1])[:, 0].tolist() == [17423] * 32
        low = _space_codes(5)
        assert low.dtype == np.int16 and np.iinfo(low.dtype).max >= 17423
        # its high half codes at y as its low half does at y xor 16
        assert (low[:, 0xFFFF] + low[np.arange(32) ^ 16, 0xFFFF]).tolist() == [17423] * 32
        assert low[:, 0].tolist() == [0] * 32

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_space_codes_are_the_codes_of_every_mask(self, n):
        # every mask at n <= 4; the 2^16 low halves at n = 5
        size, space = 1 << n, 1 << min(1 << n, 16)
        codes = _space_codes(n)
        assert codes.shape == (size, space) and codes.dtype == np.int16
        assert np.array_equal(codes, _brute_force_codes(n, np.arange(space)))
        # brute force: sum_d N_d(y) * stride_d, N_d(y) counting the ones at distance d from y
        strides = [1]
        for d in range(n):
            strides.append(strides[-1] * (math.comb(n, d) + 1))
        rng = random.Random(n)
        for mask in [0, space - 1] + [rng.randrange(space) for _ in range(40)]:
            for y in range(size):
                ones = (x for x in range(size) if mask >> x & 1)
                assert codes[y, mask] == sum(strides[(x ^ y).bit_count()] for x in ones)


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

    def test_n5_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and maps in-process, over a
        # stand-in chunk worker: no process is started
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize):
                return [fn(a) for a in args]

        monkeypatch.setattr(verify, "Pool", FakePool)
        monkeypatch.setattr(verify, "_scan_chunk", lambda args: [(1, 0.0, [(0, 0.0)]) for _ in args[1]])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        [s] = exhaustive_check(5, (Fraction(1, 4),), jobs=64)
        assert sizes == [2]
        assert s.num_functions_scanned == 4096
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one in-process worker
        exhaustive_check(5, (Fraction(1, 4),), jobs=64)
        assert sizes == [2]

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

    def test_n5_chunk_across_a_high_half_boundary(self):
        # an unaligned range over masks whose high 16 bits are 2, then 3
        start, stop = 3 * (1 << 16) - 1024, 3 * (1 << 16) + 1024
        kept = [m for m in range(start, stop) if m % 2 == 0 and m.bit_count() <= 16]
        grid = (Fraction(13, 64), Fraction(1, 3))
        codes = _brute_force_codes(5, kept)
        for p, result in zip(grid, _scan_chunk((5, grid, start, stop)), strict=True):
            mi = _mi_from_codes(codes, 5, p)
            top = [(m, float(v)) for m, v in zip(kept, mi) if v >= mi.max() - ATTAINMENT_TOLERANCE]
            assert result == (len(kept), float(mi.max()), top[: 8 * verify.ARGMAX_CAP])

    def test_a_chunk_that_keeps_nothing_is_empty_and_skipped_by_the_merge(self, monkeypatch):
        # masks 2^32 - 2 and 2^32 - 1 have more than 16 ones, so the filter keeps neither
        grid = (Fraction(1, 4), Fraction(1, 3))
        assert _scan_chunk((5, grid, 2**32 - 2, 2**32)) == [(0, -math.inf, [])] * len(grid)
        top = 1 / 8

        def stub(args):
            start = args[2]
            if start >> 20 in (0, 9, 4095):
                return [(0, -math.inf, [])]
            value = top if start >> 20 == 7 else 1 / 16
            return [(3, value, [(start, value)])]

        monkeypatch.setattr(verify, "_scan_chunk", stub)
        [s] = exhaustive_check(5, (Fraction(1, 4),))
        assert s.num_functions_scanned == 3 * 4093
        assert s.max_mi_bits == top
        assert [t.mask for t in s.argmax_canonical_tables] == [canonical_form(TruthTable(5, 7 << 20)).mask]

    @pytest.mark.parametrize(
        "chunk, kept, max_mi, top_mask",
        [
            (0, 524097, 0.24894689433833309, 65534),
            (37, 507624, 0.18405210722348275, 39780606),
            (4095, 5036, 0.2718657621309444, 0xFFFF0000),  # near-empty: the last chunk
        ],
        ids=["chunk0", "chunk37", "chunk4095"],
    )
    def test_n5_chunks_are_pinned(self, chunk, kept, max_mi, top_mask):
        # kept-table counts, float maxima and argmax masks of the byte-gather kernel
        [result] = _scan_chunk((5, (Fraction(13, 64),), chunk << 20, (chunk + 1) << 20))
        assert result == (kept, max_mi, [(top_mask, max_mi)])

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
        # n = 4: at p = 0 and p = 1/2 the ties exceed ARGMAX_CAP, so these are
        # the first 16 orbits met in mask order
        grid = (Fraction(0), Fraction(13, 64), Fraction(1, 2))
        got = {s.p: [t.mask for t in s.argmax_canonical_tables] for s in exhaustive_check(4, grid)}
        assert got == {
            Fraction(0): [
                16320, 31680, 32448, 32640, 48064, 48832, 56256, 60352,
                62400, 63168, 63360, 64192, 64704, 64896, 65152, 65280,
            ],
            Fraction(13, 64): [65280],
            Fraction(1, 2): [
                0, 6144, 15360, 24576, 26624, 30720, 32768, 38912,
                48128, 49152, 55296, 57344, 59392, 61440, 63488, 64512,
            ],
        }

    def test_dedupe_walks_each_argmax_orbit_once(self, monkeypatch):
        # at n = 4, p = 13/64 the 8 dictator tables x_j, 1 - x_j tie; they
        # form one orbit, which the dedupe walks once
        calls = []
        real = verify._orbit_images
        monkeypatch.setattr(verify, "_orbit_images", lambda f: calls.append(f) or real(f))
        [s] = exhaustive_check(4, (Fraction(13, 64),))
        assert len(calls) == 1
        assert s.argmax_canonical_tables == (canonical_form(make_class(4, Dictator(1))),)


class TestSweep:
    """One class at one n over a p grid, the reports ``mi sweep`` projects."""

    def test_dictator_margins_vanish(self):
        reports = verify_class(Dictator(1), [3], p_grid(4))
        assert [r.p for r in reports] == [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
        assert all(abs(r.margin_bits) <= 1e-12 for r in reports)

    def test_endpoint_margins_for_single_one(self):
        reports = verify_class(Class1(0), [3], p_grid(2))
        by_p = {r.p: r.margin_bits for r in reports}
        assert abs(by_p[Fraction(1, 2)]) <= 1e-12
        assert abs(by_p[Fraction(0)] - (1 - binary_entropy(Fraction(1, 8)))) <= 1e-12

    def test_subcube_row_count_and_margins(self):
        reports = verify_class(Class3(2), [6], p_grid(64))
        assert len(reports) == 33
        assert all(r.margin_bits >= -1e-9 for r in reports)

    def test_denominator_capped(self):
        for den in (0, 5000):
            with pytest.raises(ValueError):
                p_grid(den)


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


# every character class the JSON encoder treats apart: plain ASCII, the two escaped printables,
# control characters, DEL, non-ASCII in and beyond the BMP, U+2028, a lone surrogate and U+FFFE
_JSON_CHARS = 'aZ09 /"\\\x00\x01\x08\t\n\x1f\x7f\xe9\u2028\ud800\ufffe\U0001f600'
_JSON_FLOATS = (0.0, -0.0, 0.1, -2.5, 1e-310, 5e-324, 1.7976931348623157e308, 1e16, math.nan,
                math.inf, -math.inf)
_JSON_INTS = (0, -1, 2**63, 2**64, -(2**64) - 1, 10**40)


def _random_text(rng):
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))


def _random_json(rng, depth=0):
    """A seeded JSON tree: dicts, lists and tuples (empty ones too) down to depth 4, then scalars."""
    kind = rng.randrange(11 if depth < 4 else 8)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice(_JSON_INTS)
    if kind == 2:
        return rng.randint(-(2**70), 2**70)
    if kind == 3:
        return rng.choice(_JSON_FLOATS)
    if kind == 4:  # any bit pattern: subnormals, NaN payloads, both zeros
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if kind == 5:
        return rng.random() * 10 ** rng.randint(-20, 20)
    if kind in (6, 7):
        return _random_text(rng)
    items = rng.randrange(4)
    if kind == 8:
        return {_random_text(rng): _random_json(rng, depth + 1) for _ in range(items)}
    values = [_random_json(rng, depth + 1) for _ in range(items)]
    return values if kind == 9 else tuple(values)


# the golden cases whose report is JSON (CSV reports and ``sweep`` never reach the JSON writer)
JSON_GOLDEN_CASES = [c for c in GOLDEN_CASES if c[1][0] != "sweep" and c[1][-1] != "csv"]


class TestJsonText:
    """The one JSON writer equals ``json.dumps(doc, indent=2)`` on every value it can be given."""

    @pytest.mark.parametrize("case_id, argv, written", JSON_GOLDEN_CASES, ids=[c[0] for c in JSON_GOLDEN_CASES])
    def test_every_golden_document_matches_the_json_encoder(self, case_id, argv, written, tmp_path, monkeypatch):
        docs = []

        def record(doc):
            docs.append(doc)
            return json_text(doc)

        json_text = verify._json_text
        monkeypatch.setattr(verify, "_json_text", record)
        monkeypatch.setattr(cli, "_json_text", record)
        run_golden_case(argv, written, tmp_path)
        assert len(docs) == 1
        assert json_text(docs[0]) == json.dumps(docs[0], indent=2)

    def test_every_token_kind_matches_the_json_encoder(self):
        doc = {
            "floats": [0.0, -0.0, 1.5, -1e-300, 5e-324, 1e16, math.nan, math.inf, -math.inf],
            "ints": [0, -7, 2**64, -(2**64) - 1, 10**40],
            "literals": [True, False, None],
            "text": ["", "plain", 'quote " back \\ slash', "\x00\x1f\x7f\t\n", "\xe9 \U0001f600"],
            "\xe9 key \x01": "\ud800",
            "empty": [{}, [], ()],
            "nested": {"a": {"b": [[], {"c": ()}]}, "tuple": (1, (2.0, "x"))},
        }
        assert verify._json_text(doc) == json.dumps(doc, indent=2)
        for scalar in (-0.0, math.nan, -math.inf, 2**70, "\xe9", None, {}, (), []):
            assert verify._json_text(scalar) == json.dumps(scalar, indent=2)

    def test_seeded_random_trees_match_the_json_encoder(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            doc = _random_json(rng)
            assert verify._json_text(doc) == json.dumps(doc, indent=2), doc

    def test_non_string_keys_and_subclasses_are_written_as_the_json_encoder_writes_them(self):
        class Text(str):
            pass

        doc = [
            {1: "int", -0.0: "zero", math.nan: "nan", math.inf: "inf", None: "none"},
            {True: "bool", 2**70: "big"},  # one dict cannot hold both 1 and True
            {Text("k"): [Text("v"), enum.IntEnum("E", "A")(1), np.float64(0.25)]},
        ]
        assert verify._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 3), np.int64(1), b"x", object()])
    @pytest.mark.parametrize("where", ["top", "in a list", "in a dict", "as a key"])
    def test_an_unsupported_value_raises_type_error_from_both(self, value, where):
        doc = {"top": value, "in a list": [1, value], "in a dict": {"k": value}, "as a key": {value: 1}}[where]
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            verify._json_text(doc)
