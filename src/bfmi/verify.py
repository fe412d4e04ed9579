"""Bound-verification harnesses, exhaustive desk-scale scans, reports.

``verify_class`` sweeps a function class over (n, p) grids, computing
MI, the bound 1 - H(p) and the margin, attaching the exact
majorization certificate for the single-one/single-zero classes.
``exhaustive_check`` scans every truth table of a small dimension with
a vectorized float engine (the exact engine is its oracle in the test
suite).  Report emission is deterministic: fixed iteration order,
fixed summation order, shortest-roundtrip float formatting.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, Optional

import numpy as np

from .boolfn import (
    Class1,
    Class2,
    Class3,
    Dictator,
    FunctionClass,
    TruthTable,
    canonical_form,
    format_class_spec,
    make_class,
    parse_class_spec,
)
from .channel import Rational, as_probability, joint_yz, marginal_sum
from .karamata import MajorizationCertificate, build_karamata_sequences, certify_instance
from .mi import binary_entropy, mutual_information

logger = logging.getLogger(__name__)


def p_grid(den: int) -> tuple[Fraction, ...]:
    """The exact grid p = k/den for k = 0..den/2, both endpoints included.

    Raises
    ------
    ValueError
        Unless 1 <= den <= 4096.
    """
    if not 1 <= den <= 4096:
        raise ValueError(f"p_den must be in 1..4096, got {den}")
    return tuple(Fraction(k, den) for k in range(den // 2 + 1))


DEFAULT_P_GRID: tuple[Fraction, ...] = p_grid(64)

# Float MI of an exactly-true rational inequality can dip below zero by
# accumulated rounding; 1e-9 sits three orders above the error observed
# at n <= 12 and well below any meaningful violation.
PASS_MARGIN_TOLERANCE = 1e-9

ATTAINMENT_TOLERANCE = 1e-12

# Exhaustive scans list at most this many argmax orbits (ties are
# combinatorially large at p in {0, 1/2}); the n = 5 tier cuts its 2^32
# index space into chunks of 2^CHUNK_BITS, which keeps per-chunk arrays
# modest.
ARGMAX_CAP = 16
CHUNK_BITS = 20


@dataclass(frozen=True)
class VerifyReport:
    """Per (class, n, p) outcome of a bound check.

    ``status`` is derived from the other fields, the one place pass/fail
    is decided: "pass" when ``margin_bits >= -PASS_MARGIN_TOLERANCE`` and
    the certificate, if any, holds; "fail" otherwise.
    """

    class_spec: str
    n: int
    p: Fraction
    mi_bits: float
    bound_bits: float
    margin_bits: float
    karamata_certificate: Optional[MajorizationCertificate]

    @property
    def status(self) -> str:
        passed = self.margin_bits >= -PASS_MARGIN_TOLERANCE and (
            self.karamata_certificate is None or self.karamata_certificate.holds
        )
        return "pass" if passed else "fail"


@dataclass(frozen=True)
class ExhaustiveSummary:
    """Outcome of scanning every truth table of one dimension at one p."""

    n: int
    p: Fraction
    num_functions_scanned: int
    max_mi_bits: float
    argmax_canonical_tables: tuple[TruthTable, ...]
    bound_bits: float
    max_margin: float


def _resolve_class(class_spec) -> FunctionClass:
    if isinstance(class_spec, str):
        return parse_class_spec(class_spec)
    return class_spec


def verify_class(class_spec, n_range: Iterable[int], p_grid=DEFAULT_P_GRID) -> list[VerifyReport]:
    """Verify MI <= 1 - H(p) for one class across an (n, p) grid.

    ``class_spec`` is a :class:`FunctionClass` or a spec string such as
    ``"class3:r=2:prefix=1"``.  Invalid class/n combinations are
    skipped with a logged diagnostic.  For the single-one and
    single-zero classes each report carries the full exact majorization
    certificate.
    """
    cls = _resolve_class(class_spec)
    spec_str = format_class_spec(cls)
    reports = []
    for n in n_range:
        try:
            table = make_class(n, cls)
        except ValueError as exc:
            logger.warning("skipping %s at n=%d: %s", spec_str, n, exc)
            continue
        attach_certificate = isinstance(cls, (Class1, Class2)) and n >= 2
        for p in p_grid:
            result = mutual_information(joint_yz(table, p))
            cert = None
            if attach_certificate:
                cert = certify_instance(build_karamata_sequences(n, p))
            reports.append(
                VerifyReport(
                    class_spec=spec_str,
                    n=n,
                    p=Fraction(p),
                    mi_bits=result.mi_bits,
                    bound_bits=result.bound_bits,
                    margin_bits=result.margin_bits,
                    karamata_certificate=cert,
                )
            )
    return reports


def class3_reduction_check(n: int, r: int, p: Rational) -> tuple[float, float]:
    """MI of the r-subcube indicator on n variables vs the single-one MI on r.

    The two agree exactly; both sides are evaluated through the generic
    exact-table engine.  For r = 1 both equal 1 - H(p).
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    mi_full = mutual_information(joint_yz(make_class(n, Class3(r)), p)).mi_bits
    mi_reduced = mutual_information(joint_yz(make_class(r, Class1()), p)).mi_bits
    return mi_full, mi_reduced


def sweep(class_spec, n: int, grid=DEFAULT_P_GRID):
    """Yield (p, mi_bits, bound_bits, margin_bits) for each p of the grid."""
    table = make_class(n, _resolve_class(class_spec))
    for p in grid:
        result = mutual_information(joint_yz(table, p))
        yield Fraction(p), result.mi_bits, result.bound_bits, result.margin_bits


def marginal_spot_check(samples: int = 32, max_k: int = 12, seed: int = 0) -> list[dict]:
    """Randomized spot checks of the exact marginal identity sum = 1/2^k."""
    rng = random.Random(seed)
    p_values = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))
    out = []
    for _ in range(samples):
        k = rng.randint(1, max_k)
        y = rng.randrange(1 << k)
        p = rng.choice(p_values)
        ok = marginal_sum(y, k, p) == Fraction(1, 1 << k)
        out.append({"k": k, "y": y, "p": str(p), "ok": ok})
    return out


# ---------------------------------------------------------------------------
# Vectorized scan engine
# ---------------------------------------------------------------------------


def _kernel_matrix(n: int, p: Fraction) -> np.ndarray:
    """float64 matrix of joint_xy(x, y) values, built from exact rationals."""
    size = 1 << n
    q = Fraction(p)
    powers = np.asarray(
        [float((1 - q) ** (n - d) * q**d / size) for d in range(n + 1)], dtype=np.float64
    )
    idx = np.arange(size, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    return powers[dist]


def _mi_from_bits(bits: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """MI(Y; Z) per row of a 0/1 bit matrix (one truth table per row)."""
    size = 1 << n
    py = 1.0 / size
    p1 = np.clip(bits @ kernel, 0.0, py)
    p0 = py - p1
    pz1 = bits.sum(axis=1) / size
    pz0 = 1.0 - pz1
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = p1 * (np.log2(p1) - np.log2(py * pz1)[:, None])
        t0 = p0 * (np.log2(p0) - np.log2(py * pz0)[:, None])
    t1 = np.where(p1 > 0.0, t1, 0.0)
    t0 = np.where(p0 > 0.0, t0, 0.0)
    return (t1 + t0).sum(axis=1)


def _bit_matrix(masks: np.ndarray, size: int) -> np.ndarray:
    return ((masks[:, None] >> np.arange(size, dtype=masks.dtype)) & 1).astype(np.float64)


def _canonical_dedupe(n: int, masks) -> list[int]:
    seen = set()
    out = []
    for mask in masks:
        canon = canonical_form(TruthTable(n, int(mask))).mask
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
            if len(out) >= ARGMAX_CAP:
                break
    return sorted(out)


def _scan_chunk_n5(args) -> tuple[int, float, list[tuple[int, float]]]:
    """Scan one index chunk of the n=5 space, symmetry-filtered.

    Keeps only tables with f(0...0) = 0 and at most 2^(n-1) ones; every
    orbit has such a representative, so the global maximum over kept
    tables equals the maximum over all tables.
    """
    p_str, start, stop = args
    n = 5
    size = 1 << n
    kernel = _kernel_matrix(n, Fraction(p_str))
    idx = np.arange(start, stop, 2, dtype=np.int64)  # f(0...0) = 0: even masks only
    idx = idx[np.bitwise_count(idx) <= size // 2]
    if idx.size == 0:
        return 0, -math.inf, []
    mi = _mi_from_bits(_bit_matrix(idx, size), kernel, n)
    local_max = float(mi.max())
    top = np.flatnonzero(mi >= local_max - ATTAINMENT_TOLERANCE)[:8]
    return int(idx.size), local_max, [(int(idx[i]), float(mi[i])) for i in top]


def _dense_tier(n: int, grid):
    """Yield (scanned, max MI, argmax candidate masks) per p over all tables."""
    size = 1 << n
    masks = np.arange(1 << size, dtype=np.int64)
    bits = _bit_matrix(masks, size)
    for p in grid:
        mi = _mi_from_bits(bits, _kernel_matrix(n, p), n)
        max_mi = float(mi.max())
        arg_idx = np.flatnonzero(mi >= max_mi - ATTAINMENT_TOLERANCE)
        yield int(masks.size), max_mi, masks[arg_idx[: 8 * ARGMAX_CAP]]


def _chunked_tier_n5(grid, jobs: int):
    """Yield (scanned, max MI, argmax candidate masks) per p, n = 5.

    One worker pool serves the whole grid when ``jobs`` > 1.
    """
    total = 1 << 32
    chunk = 1 << CHUNK_BITS
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for p in grid:
            args = [(str(p), start, min(start + chunk, total)) for start in range(0, total, chunk)]
            if pool is None:
                results = [_scan_chunk_n5(a) for a in args]
            else:
                results = pool.map(_scan_chunk_n5, args, chunksize=1)
            max_mi = max(r[1] for r in results)
            candidates = [m for r in results for (m, v) in r[2] if v >= max_mi - ATTAINMENT_TOLERANCE]
            yield sum(r[0] for r in results), max_mi, candidates


def exhaustive_check(n: int, p_grid=DEFAULT_P_GRID, jobs: int = 1) -> list[ExhaustiveSummary]:
    """Scan all 2^(2^n) truth tables for each grid p; one summary per p.

    n <= 4 runs dense.  n = 5 runs the long-running symmetry-reduced
    tier: the index space is cut into chunks (fanned out over ``jobs``
    workers when ``jobs`` > 1) and each chunk keeps one representative
    per cheap exact symmetry filter.  ``argmax_canonical_tables`` lists
    up to ``ARGMAX_CAP`` distinct canonical forms attaining the maximum
    within 1e-12.
    """
    grid = [as_probability(p, Fraction(1, 2)) for p in p_grid]
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 5:
        raise ValueError(f"exhaustive scan of n={n} (2^{1 << n} tables) is not supported")
    tier = _dense_tier(n, grid) if n <= 4 else _chunked_tier_n5(grid, jobs)
    summaries = []
    for p, (scanned, max_mi, candidates) in zip(grid, tier, strict=True):
        canon = _canonical_dedupe(n, candidates)
        bound = 1.0 - binary_entropy(p)
        summaries.append(
            ExhaustiveSummary(
                n=n,
                p=p,
                num_functions_scanned=scanned,
                max_mi_bits=max_mi,
                argmax_canonical_tables=tuple(TruthTable(n, m) for m in canon),
                bound_bits=bound,
                max_margin=bound - max_mi,
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: Optional[MajorizationCertificate]):
    if cert is None:
        return None
    return {
        "holds": cert.holds,
        "first_violation": cert.first_violation,
        "totals_equal": cert.totals_equal,
        "sub_inequalities": dict(cert.sub_inequalities),
    }


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "class_spec": report.class_spec,
        "n": report.n,
        "p": str(report.p),
        "mi_bits": report.mi_bits,
        "bound_bits": report.bound_bits,
        "margin_bits": report.margin_bits,
        "karamata_certificate": certificate_to_dict(report.karamata_certificate),
        "status": report.status,
    }


def reports_to_json(reports: Iterable[VerifyReport]) -> str:
    return json.dumps({"version": 1, "reports": [report_to_dict(r) for r in reports]}, indent=2)


def reports_to_csv(reports: Iterable[VerifyReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["class_spec", "n", "p", "mi_bits", "bound_bits", "margin_bits", "certificate_holds", "status"]
    )
    for r in reports:
        cert = "" if r.karamata_certificate is None else r.karamata_certificate.holds
        writer.writerow(
            [r.class_spec, r.n, str(r.p), repr(r.mi_bits), repr(r.bound_bits), repr(r.margin_bits), cert, r.status]
        )
    return buf.getvalue()


def summary_to_dict(s: ExhaustiveSummary) -> dict:
    return {
        "n": s.n,
        "p": str(s.p),
        "num_functions_scanned": s.num_functions_scanned,
        "max_mi_bits": s.max_mi_bits,
        "bound_bits": s.bound_bits,
        "max_margin": s.max_margin,
        "argmax_canonical_tables": [json.loads(t.to_json()) for t in s.argmax_canonical_tables],
    }


def summaries_to_json(summaries: Iterable[ExhaustiveSummary]) -> str:
    return json.dumps(
        {"version": 1, "summaries": [summary_to_dict(s) for s in summaries]}, indent=2
    )


def summaries_to_csv(summaries: Iterable[ExhaustiveSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "p", "num_functions_scanned", "max_mi_bits", "bound_bits", "max_margin", "argmax_bits_hex"]
    )
    for s in summaries:
        hexes = ";".join(json.loads(t.to_json())["bits_hex"] for t in s.argmax_canonical_tables)
        writer.writerow(
            [
                s.n,
                str(s.p),
                s.num_functions_scanned,
                repr(s.max_mi_bits),
                repr(s.bound_bits),
                repr(s.max_margin),
                hexes,
            ]
        )
    return buf.getvalue()
