"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from bfmi.boolfn import (
    Class1,
    Class2,
    Class3,
    Class4,
    Dictator,
    TruthTable,
    complement,
    make_class,
)
from bfmi.channel import joint_yz, marginal_sum
from bfmi.karamata import build_karamata_sequences, check_majorization
from bfmi.mi import binary_entropy, mi_class1_closed, mutual_information, qlogq_identity_check
from bfmi.verify import (
    DEFAULT_P_GRID,
    _mi_from_codes,
    _space_codes,
    class3_reduction_check,
    exhaustive_check,
    verify_class,
)
from test_boolfn import _brute_force_image

P_FIVE = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))


def _conclude(number, label, ok, started, limit=None):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    budget = f", budget {limit:.0f}s" if limit else ""
    print(f"criterion {number} {verdict}: {label} [{elapsed:.1f}s{budget}]")
    assert ok, f"criterion {number} failed: {label}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_dictator_equality():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        table = make_class(n, Dictator(1))
        for p in DEFAULT_P_GRID:
            result = mutual_information(joint_yz(table, p))
            worst = max(worst, abs(result.mi_bits - result.bound_bits))
    _conclude(
        1,
        f"dictator MI equals 1-H(p) for n=2..10, 33 grid p (worst |diff| {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
        started,
        limit=5.0,
    )


def test_criterion_2_bound_for_all_four_classes():
    started = time.perf_counter()
    reports = []
    for n in range(2, 11):
        classes = [Class1(), Class2()]
        for r in range(1, n):
            classes.append(Class3(r))
            classes.append(Class4(r))
        for cls in classes:
            reports.extend(verify_class(cls, [n], DEFAULT_P_GRID))
    worst = min(r.margin_bits for r in reports)
    ok = all(r.status == "pass" for r in reports) and worst >= -1e-9
    _conclude(
        2,
        f"classes 1-4 (all r), n=2..10, 33 grid p: {len(reports)} margins >= -1e-9 "
        f"(worst {worst:.2e})",
        ok,
        started,
        limit=120.0,
    )


def test_criterion_3_majorization_certificates_exact():
    started = time.perf_counter()
    ok = True
    for n in range(2, 13):
        target = Fraction((1 << n) - 1)
        for p in DEFAULT_P_GRID:
            inst = build_karamata_sequences(n, p)
            cert = check_majorization(inst.x_seq, inst.y_seq)
            ok = (
                ok
                and cert.holds
                and inst.x_seq.total() == target
                and inst.y_seq.total() == target
            )
    _conclude(
        3,
        "exact majorization certificate holds, totals = 2^n - 1, n=2..12, 33 grid p "
        "(zero tolerance)",
        ok,
        started,
        limit=300.0,
    )


def test_criterion_4_closed_form_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        table = make_class(n, Class1(0))
        for p in DEFAULT_P_GRID:
            generic = mutual_information(joint_yz(table, p)).mi_bits
            worst = max(worst, abs(mi_class1_closed(n, p) - generic))
    _conclude(
        4,
        f"closed form vs generic engine, n<=12, 33 grid p (worst |diff| {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
        started,
    )


def test_criterion_5_shell_sum_identity():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        for p in DEFAULT_P_GRID:
            lhs, rhs = qlogq_identity_check(n, p)
            worst = max(worst, abs(lhs - rhs))
    _conclude(
        5,
        f"sum q*log2(q) identity, n<=12, 33 grid p (worst |diff| {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
        started,
    )


def test_criterion_6_marginal_identity():
    started = time.perf_counter()
    ok = True
    for k in range(1, 9):
        expected = Fraction(1, 1 << k)
        for p in P_FIVE:
            for y in range(1 << k):
                ok = ok and marginal_sum(y, k, p) == expected
    rng = random.Random(2024)
    for _ in range(1000):
        k = rng.randint(9, 16)
        y = rng.randrange(1 << k)
        expected = Fraction(1, 1 << k)
        for p in P_FIVE:
            ok = ok and marginal_sum(y, k, p) == expected
    _conclude(
        6,
        "marginal sum = 1/2^k exactly: exhaustive y for k<=8, 1000 random y for k<=16, "
        "p in {0,1/8,1/4,3/8,1/2}",
        ok,
        started,
    )


def test_criterion_7_subcube_reduction():
    started = time.perf_counter()
    worst = 0.0
    reduced_cache = {}
    for n in range(2, 11):
        for r in range(1, n):
            table = make_class(n, Class3(r))
            for p in DEFAULT_P_GRID:
                full = mutual_information(joint_yz(table, p)).mi_bits
                key = (r, p)
                if key not in reduced_cache:
                    reduced_cache[key] = mutual_information(
                        joint_yz(make_class(r, Class1(0)), p)
                    ).mi_bits
                worst = max(worst, abs(full - reduced_cache[key]))
    # the public entry point agrees with the cached sweep
    full, reduced = class3_reduction_check(5, 2, Fraction(1, 4))
    worst = max(worst, abs(full - reduced))
    _conclude(
        7,
        f"subcube MI on n reduces to single-one MI on r, n<=10, all r, 33 grid p "
        f"(worst |diff| {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
        started,
    )


def test_criterion_8_exhaustive_desk_scale():
    started = time.perf_counter()
    ok = True
    n4_started = time.perf_counter()
    n4_elapsed = None
    for n in (2, 3, 4):
        if n == 4:
            n4_started = time.perf_counter()
        summaries = exhaustive_check(n, DEFAULT_P_GRID)
        if n == 4:
            n4_elapsed = time.perf_counter() - n4_started
        dictator = make_class(n, Dictator(1))
        for s in summaries:
            ok = ok and s.max_margin >= -1e-9
            ok = ok and s.num_functions_scanned == 1 << (1 << n)
            ok = ok and len(s.argmax_canonical_tables) >= 1
            if s.p < Fraction(1, 2):
                dictator_mi = mutual_information(joint_yz(dictator, s.p)).mi_bits
                ok = ok and s.max_mi_bits - dictator_mi <= 1e-12
    ok = ok and n4_elapsed is not None and n4_elapsed < 60.0
    _conclude(
        8,
        f"all 2^(2^n) functions obey the bound for n=2..4, 33 grid p; dictator attains "
        f"the max (n=4 scan {n4_elapsed:.1f}s < 60s)",
        ok,
        started,
    )


def test_criterion_9_property_suites():
    started = time.perf_counter()
    rng = random.Random(99)
    ok = True

    # symmetry invariance, exact at the joint-table level
    p = Fraction(1, 4)
    for n in range(1, 7):
        perms = None
        for _ in range(200):
            table = TruthTable(n, rng.getrandbits(1 << n))
            perm = list(range(n))
            rng.shuffle(perm)
            moved = _brute_force_image(table, perm, rng.randrange(1 << n))
            if rng.random() < 0.5:
                moved = complement(moved)
            a = joint_yz(table, p)
            b = joint_yz(moved, p)
            pooled_a = Counter(v for row in a.rows for v in row)
            pooled_b = Counter(v for row in b.rows for v in row)
            ok = ok and pooled_a == pooled_b
            ok = ok and abs(
                mutual_information(a).mi_bits - mutual_information(b).mi_bits
            ) <= 1e-12

    # monotonicity in p and endpoint identities for every function with n <= 3
    for n in (1, 2, 3):
        size = 1 << n
        masks = np.arange(1 << size, dtype=np.int64)
        codes = _space_codes(n)
        previous = None
        for p_grid in DEFAULT_P_GRID:
            mi = _mi_from_codes(codes, n, p_grid)
            if previous is not None:
                ok = ok and bool(np.all(previous >= mi - 1e-12))
            previous = mi
        noiseless = _mi_from_codes(codes, n, Fraction(0))
        targets = np.array(
            [binary_entropy(Fraction(int(m).bit_count(), size)) for m in masks]
        )
        ok = ok and bool(np.all(np.abs(noiseless - targets) <= 1e-12))
        flat = _mi_from_codes(codes, n, Fraction(1, 2))
        ok = ok and bool(np.all(np.abs(flat) <= 1e-12))

    _conclude(
        9,
        "symmetry invariance exact for 200 random tables per n<=6; MI monotone in p and "
        "endpoint identities hold for every function with n<=3",
        ok,
        started,
    )
