"""Bound-verification harnesses, exhaustive desk-scale scans, reports.

``verify_class`` sweeps a function class over (n, p) grids, computing
MI, the bound 1 - H(p) and the margin, attaching the exact
majorization certificate for the single-one/single-zero classes.
``exhaustive_check`` scans every truth table of a small dimension with
a vectorized float engine (the exact engine is its oracle in the test
suite): one chunk worker scans a slice of the table space for the whole
p grid, and one merge picks the maximum and the argmax orbits, walking
each orbit once.  Report emission is deterministic: fixed iteration order,
fixed summation order, shortest-roundtrip float formatting.
"""

from __future__ import annotations

import csv
import io
import json
import logging
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
    FunctionClass,
    TruthTable,
    _lex_key,
    format_class_spec,
    make_class,
    orbit,
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

# Both sides of an exact identity (the subcube reduction), each evaluated
# in float, must agree within this.
IDENTITY_TOLERANCE = 1e-12

ATTAINMENT_TOLERANCE = 1e-12

# Exhaustive scans list at most this many argmax orbits (ties are
# combinatorially large at p in {0, 1/2}) and cut the table space into
# chunks of 2^CHUNK_BITS masks, which keeps per-chunk arrays modest.
ARGMAX_CAP = 16
CHUNK_BITS = 20


def margin_passes(margin_bits: float) -> bool:
    """The one margin rule: MI <= 1 - H(p) up to float rounding."""
    return margin_bits >= -PASS_MARGIN_TOLERANCE


@dataclass(frozen=True)
class VerifyReport:
    """Per (class, n, p) outcome of a bound check.

    ``status`` is derived from the other fields: "pass" when
    :func:`margin_passes` accepts ``margin_bits`` and the certificate, if
    any, holds; "fail" otherwise.
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
        passed = margin_passes(self.margin_bits) and (
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


def verify_class(class_spec, n_range: Iterable[int], p_grid=DEFAULT_P_GRID) -> list[VerifyReport]:
    """Verify MI <= 1 - H(p) for one :class:`FunctionClass` across an (n, p) grid.

    The n where the class does not exist are skipped, with one logged
    warning that lists them.  For the single-one and single-zero
    classes each report carries the full exact majorization certificate.
    """
    spec_str = format_class_spec(class_spec)
    reports = []
    skipped = []
    for n in n_range:
        try:
            table = make_class(n, class_spec)
        except ValueError as exc:
            skipped.append((n, exc))
            continue
        attach_certificate = isinstance(class_spec, (Class1, Class2)) and n >= 2
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
    if skipped:
        ns = ", ".join(str(n) for n, _ in skipped)
        logger.warning("skipping %s at n=%s: %s", spec_str, ns, skipped[0][1])
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


def sweep(class_spec: FunctionClass, n: int, grid=DEFAULT_P_GRID):
    """Yield (p, mi_bits, bound_bits, margin_bits) for each p of the grid."""
    table = make_class(n, class_spec)
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
    """MI(Y; Z) per row of a 0/1 bit matrix (one truth table per row).

    Holds three buffers of the bit matrix's shape; p1's takes the p0 term.
    """
    size = 1 << n
    py = 1.0 / size
    p1 = bits @ kernel
    np.clip(p1, 0.0, py, out=p1)
    p0 = py - p1
    pz1 = bits.sum(axis=1) / size
    pz0 = 1.0 - pz1
    terms = np.empty_like(p1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p, pz, out in ((p1, pz1, terms), (p0, pz0, p1)):
            np.log2(p, out=out)
            out -= np.log2(py * pz)[:, None]
            out *= p
            out[p <= 0.0] = 0.0
    terms += p1
    return terms.sum(axis=1)


def _canonical_dedupe(n: int, masks) -> list[int]:
    """Sorted canonical forms of the first ``ARGMAX_CAP`` orbits met in ``masks``.

    Each orbit is walked once; later masks inside a walked orbit are skipped.
    """
    size = 1 << n
    walked: set[int] = set()
    out = []
    for mask in masks:
        if mask in walked:
            continue
        members = orbit(TruthTable(n, mask))
        walked |= members
        out.append(min(members, key=lambda m: _lex_key(m, size)))
        if len(out) >= ARGMAX_CAP:
            break
    return sorted(out)


def _scan_chunk(args) -> list[tuple[int, float, list[tuple[int, float]]]]:
    """Scan the masks start..stop-1 of the n-variable table space.

    Returns, for every grid p, (tables scanned, max MI, up to
    ``8 * ARGMAX_CAP`` (mask, MI) pairs within ``ATTAINMENT_TOLERANCE``
    of that max, in mask order).  When the space needs more than one
    chunk (n = 5), only tables with f(0...0) = 0 and at most 2^(n-1)
    ones are kept; every orbit has such a member, so the maximum over
    the kept tables is the maximum over all tables.  A chunk start
    k * 2^CHUNK_BITS is itself kept (k has at most 12 bits), so no
    chunk comes out empty.
    """
    n, grid, start, stop = args
    size = 1 << n
    if size <= CHUNK_BITS:
        masks = np.arange(start, stop, dtype=np.int64)
    else:
        masks = np.arange(start, stop, 2, dtype=np.int64)  # chunks start even
        masks = masks[np.bitwise_count(masks) <= size // 2]
    bits = ((masks[:, None] >> np.arange(size, dtype=np.int64)) & 1).astype(np.float64)
    out = []
    for p in grid:
        mi = _mi_from_bits(bits, _kernel_matrix(n, p), n)
        max_mi = float(mi.max())
        top = np.flatnonzero(mi >= max_mi - ATTAINMENT_TOLERANCE)[: 8 * ARGMAX_CAP]
        out.append((int(masks.size), max_mi, [(int(masks[i]), float(mi[i])) for i in top]))
    return out


def exhaustive_check(n: int, p_grid=DEFAULT_P_GRID, jobs: int = 1) -> list[ExhaustiveSummary]:
    """Scan all 2^(2^n) truth tables for each grid p; one summary per p.

    The table space is cut into chunks of 2^CHUNK_BITS masks, each
    scanned once for the whole grid by :func:`_scan_chunk`: n <= 4 is a
    single unfiltered chunk run in-process; n = 5 is 4096
    symmetry-filtered chunks, fanned out over min(``jobs``, 4096)
    worker processes when ``jobs`` > 1.  ``argmax_canonical_tables``
    lists up to ``ARGMAX_CAP`` distinct canonical forms attaining the
    maximum within 1e-12.
    """
    grid = tuple(as_probability(p, Fraction(1, 2)) for p in p_grid)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 5:
        raise ValueError(f"exhaustive scan of n={n} (2^{1 << n} tables) is not supported")
    total = 1 << (1 << n)
    step = 1 << CHUNK_BITS
    args = [(n, grid, start, min(start + step, total)) for start in range(0, total, step)]
    workers = min(jobs, len(args))
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        chunks = pool.map(_scan_chunk, args, chunksize=1) if pool else [_scan_chunk(a) for a in args]
    summaries = []
    for p, results in zip(grid, zip(*chunks), strict=True):
        max_mi = max(r[1] for r in results)
        candidates = [m for r in results for m, v in r[2] if v >= max_mi - ATTAINMENT_TOLERANCE]
        canon = _canonical_dedupe(n, candidates)
        bound = 1.0 - binary_entropy(p)
        summaries.append(
            ExhaustiveSummary(
                n=n,
                p=p,
                num_functions_scanned=sum(r[0] for r in results),
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
