"""Bound-verification harnesses, exhaustive desk-scale scans, reports.

``verify_class`` sweeps a function class over (n, p) grids, computing
MI, the bound 1 - H(p) and the margin, attaching the exact
majorization certificate for the single-one/single-zero classes.
``exhaustive_check`` scans every truth table of a small dimension with
a vectorized float kernel (the exact engine is its oracle in the test
suite).  p_YZ(y, 1) depends on f only through the distance profile
(N_0(y), ..., N_n(y)), N_d(y) counting the ones of f at Hamming
distance d from y.  Because the channel depends on x and y only
through |x xor y|, the code of a mask's high half at y is the code of
the same ones in its low half at y xor (half width), so every code is
built by XOR doubling from the one-bit table.  One chunk worker scans a
slice of the table space: it codes every (table, y) profile as one small
integer, once for the whole p grid, and per p gathers the MI terms from
one table over the codes.  One merge picks the maximum and the argmax
orbits, walking each orbit once.

Each output format is declared once, by its record's dataclass.  A JSON
record is the record's fields in field order; only derived values are
spelled out: ``p`` as an exact string, the verify ``status`` (appended),
and the argmax tables as the truth-table file's ``{n, bits_hex}`` dicts.
A CSV report has the same columns, its one nested value flattened in
place.  One writer lays out each format, ``_json_text`` and
``_csv_text``; ``mi`` passes the documents it builds itself
(``compute``, ``karamata``, ``reduce-check``) to them too.
``_json_text`` writes the standard ``json`` encoder's ``indent=2`` text
itself, byte for byte: with an indent that encoder leaves its C path
for a pure-Python one, while this walk quotes strings with the C helper
and writes each scalar with one lookup.  Emission is deterministic:
fixed iteration order, fixed summation order, shortest-roundtrip float
formatting.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from multiprocessing import Pool
from typing import Iterable, Optional

import numpy as np

from .boolfn import (
    Class1,
    Class2,
    Class3,
    TruthTable,
    _lex_min,
    _orbit_images,
    _table_dict,
    format_class_spec,
    make_class,
    profile_histogram,
)
from .channel import Rational, as_probability, joint_yz
from .karamata import MajorizationCertificate, certify
from .mi import binary_entropy, histogram_mutual_information, mutual_information

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
    bound_bits: float
    max_margin: float
    argmax_canonical_tables: tuple[TruthTable, ...]


def verify_class(class_spec, n_range: Iterable[int], p_grid=DEFAULT_P_GRID) -> list[VerifyReport]:
    """Verify MI <= 1 - H(p) for one :class:`FunctionClass` across an (n, p) grid.

    The n where the class does not exist are skipped with one logged
    warning that lists them, unless it exists at no n of the range; then
    :func:`profile_histogram`'s ValueError is raised and nothing logged.
    MI comes from the class's closed-form profile histogram where it has
    one, and from its joint table (``lex``, the only class whose table is
    built) otherwise; both give the same bits.  Class 1 and 2 reports
    carry the exact certificate.
    """
    spec_str = format_class_spec(class_spec)
    hists, skipped = {}, []
    for n in n_range:
        try:
            hists[n] = profile_histogram(n, class_spec)
        except ValueError as exc:
            skipped.append((n, exc))
    if skipped and not hists:
        raise skipped[0][1]
    if skipped:
        ns = ", ".join(str(n) for n, _ in skipped)
        logger.warning("skipping %s at n=%s: %s", spec_str, ns, skipped[0][1])
    reports = []
    for n, hist in hists.items():
        attach_certificate = isinstance(class_spec, (Class1, Class2)) and n >= 2
        table = make_class(n, class_spec) if hist is None else None
        for p in p_grid:
            if hist is None:
                result = mutual_information(joint_yz(table, p))
            else:
                result = histogram_mutual_information(hist, p)
            cert = None
            if attach_certificate:
                cert = certify(n, p)
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

    Both sides come from profile histograms, with no truth table, and
    the two histograms agree up to exact scalings.  For p = s/d the
    subcube's distinct rows are the single one's times (2d)^(n - r), over
    a den larger by (2d)^(n - r)*2^(n - r), and its counts are theirs
    times 2^(n - r).  So each count*c1 product is the same float and the
    two MI values agree bit for bit (pinned for n <= 10 by the test
    suite); callers still compare them within ``IDENTITY_TOLERANCE``.
    For r = 1 both equal 1 - H(p).

    Raises
    ------
    ValueError
        Where :func:`profile_histogram` finds the subcube absent: r
        outside 1..n-1, or n outside 1..MAX_N.
    """
    full = histogram_mutual_information(profile_histogram(n, Class3(r)), p).mi_bits
    reduced = histogram_mutual_information(profile_histogram(r, Class1()), p).mi_bits
    return full, reduced


# ---------------------------------------------------------------------------
# Vectorized scan engine
# ---------------------------------------------------------------------------


def _profile_strides(n: int) -> np.ndarray:
    """Mixed-radix strides of the profile code: 1, then stride_d * (C(n, d) + 1).

    The last entry is the number of codes.
    """
    return np.cumprod([1] + [math.comb(n, d) + 1 for d in range(n + 1)])


def _space_codes(n: int) -> np.ndarray:
    """int16 distance-profile codes of every mask of min(2^n, 16) bits, shape (2^n, masks).

    The code of y under a table is sum_d N_d(y) * stride_d, N_d(y)
    counting its ones at Hamming distance d from y; column m holds the
    codes of mask m.  Since p(x, y) depends only on |x xor y|, the ones
    of the high half of a 2b-bit mask code at y as the same ones in the
    low half code at y xor b.  So one doubling step from the one-bit
    table (mask 1 codes stride_|y|) gives every 2b-bit code as a sum of
    two b-bit ones, the high half outermost.  This is the whole space at
    n <= 4 and the 2^16 low halves at n = 5.  Codes stay below 700 at
    n = 4 and below 17 424 at n = 5.
    """
    size = 1 << n
    y = np.arange(size)
    codes = np.zeros((size, 2), dtype=np.int16)
    codes[:, 1] = _profile_strides(n)[np.bitwise_count(y)]
    b = 1
    while b < min(size, 16):
        codes = (codes[y ^ b][:, :, None] + codes[:, None, :]).reshape(size, -1)
        b *= 2
    return codes


def _mi_from_codes(codes: np.ndarray, n: int, p: Fraction) -> np.ndarray:
    """MI(Y; Z) per table from its profile codes.

    One term table over the codes holds both cells' p log2(p / (p_Y p_Z))
    terms: p1 = sum_d N_d * h_d, summed in d order, with h_d the float of
    the exact (1-p)^(n-d) p^d / 2^n, and p_Z(1) = w / 2^n for the column
    weight w = sum_d N_d, since every profile counts all ones of f.  The
    cells of a constant f (w = 0 or 2^n) add exactly 0, their exact value,
    even where the float p1 of the all-ones profile rounds below p_Y and
    would leave mass in its empty column.  Every log is ``math.log2``,
    taken once per code and cell and once per column weight, so the
    floats depend on libm alone, not on NumPy's SIMD dispatch or BLAS.
    MI sums one gather per y, in y order.
    """
    size = 1 << n
    py = 1.0 / size
    strides = _profile_strides(n)
    radix = strides[1:] // strides[:-1]
    profiles = np.arange(strides[-1])[:, None] // strides[:-1] % radix  # N_d of every code
    t, den = Fraction(p).as_integer_ratio()
    p1 = np.zeros(len(profiles))
    for d in range(n + 1):  # int / int rounds h_d correctly
        p1 += profiles[:, d] * ((den - t) ** (n - d) * t**d / (den**n * size))
    p1 = np.clip(p1, 0.0, py)
    ones = profiles.sum(axis=1)
    live = (ones > 0) & (ones < size)  # a constant f's cells add exactly 0, their exact value
    log_yz = np.array([math.log2(py * w / size) if w else 0.0 for w in range(size + 1)])
    terms = np.zeros_like(p1)
    for pc, w in ((p1, ones), (py - p1, size - ones)):
        # log2(1) = 0 stands in for log2(0): 0 log 0 = 0
        log_pc = np.fromiter(map(math.log2, np.where(pc > 0.0, pc, 1.0).tolist()), float, len(pc))
        terms += np.where(live, pc * (log_pc - log_yz[w]), 0.0)
    # every code fits the code dtype, so none wrapped and "clip" never clamps;
    # mode="raise" would buffer out on every gather
    assert strides[-1] <= np.iinfo(codes.dtype).max + 1
    mi = np.zeros(codes.shape[1])
    buf = np.empty_like(mi)
    for column in codes:  # y = 0 .. 2^n - 1 into one reused buffer
        np.take(terms, column, out=buf, mode="clip")
        mi += buf
    return mi


def _canonical_dedupe(n: int, masks) -> list[int]:
    """Sorted canonical forms of the first ``ARGMAX_CAP`` orbits met in ``masks``.

    Each orbit is walked once; later masks inside a walked orbit are skipped.
    """
    walked: set[int] = set()
    out = []
    for mask in masks:
        if mask in walked:
            continue
        images = _orbit_images(TruthTable(n, mask))
        walked.update(images.tolist())
        out.append(_lex_min(images))
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
    k * 2^CHUNK_BITS is itself kept (k has at most 12 bits), but a
    range that starts elsewhere, or a tighter filter, can keep no table
    at all: such a chunk reports (0, -inf, []) for every p, which the
    merge in :func:`exhaustive_check` skips.  The profile codes are
    built once per chunk from :func:`_space_codes`: the single n <= 4
    chunk slices it, and a filtered n = 5 chunk adds the code of each
    kept mask's low 16 bits at y to that of its high 16 bits at y xor 16,
    one block of masks per high half, into one C-contiguous (2^n, kept)
    array.  Each p then
    costs one term table and one gather per y (:func:`_mi_from_codes`).
    """
    n, grid, start, stop = args
    size = 1 << n
    if size <= CHUNK_BITS:
        masks = range(start, stop)
        codes = _space_codes(n)[:, start:stop]
    else:
        masks = np.arange(start, stop, 2, dtype=np.int64)  # chunks start even
        masks = masks[np.bitwise_count(masks) <= size // 2]
        low = _space_codes(n)
        flip = np.arange(size) ^ 16  # the high 16 bits code at y as low ones at y xor 16
        codes = np.empty((size, masks.size), dtype=np.int16)
        firsts = np.flatnonzero(np.diff(masks >> 16, prepend=-1))
        for i, j in zip(firsts, [*firsts[1:], masks.size]):  # one block per high half
            high = low[flip, masks[i] >> 16]
            np.add(np.take(low, masks[i:j] & 0xFFFF, axis=1), high[:, None], out=codes[:, i:j])
    if not len(masks):
        return [(0, -math.inf, [])] * len(grid)
    out = []
    for p in grid:
        mi = _mi_from_codes(codes, n, p)
        max_mi = float(mi.max())
        top = np.flatnonzero(mi >= max_mi - ATTAINMENT_TOLERANCE)[: 8 * ARGMAX_CAP]
        out.append((len(masks), max_mi, [(int(masks[i]), float(mi[i])) for i in top]))
    return out


def exhaustive_check(n: int, p_grid=DEFAULT_P_GRID, jobs: int = 1) -> list[ExhaustiveSummary]:
    """Scan all 2^(2^n) truth tables for each grid p; one summary per p.

    The table space is cut into chunks of 2^CHUNK_BITS masks, each
    scanned once for the whole grid by :func:`_scan_chunk`: n <= 4 is a
    single unfiltered chunk run in-process; n = 5 is 4096
    symmetry-filtered chunks, fanned out over min(``jobs``, CPU count,
    4096) worker processes when that is more than one.
    ``argmax_canonical_tables`` lists up to ``ARGMAX_CAP`` distinct
    canonical forms attaining the maximum within 1e-12.
    """
    grid = tuple(as_probability(p, Fraction(1, 2)) for p in p_grid)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 5:
        raise ValueError(f"exhaustive scan of n={n} (2^{1 << n} tables) is not supported")
    total = 1 << (1 << n)
    step = 1 << CHUNK_BITS
    args = [(n, grid, start, min(start + step, total)) for start in range(0, total, step)]
    workers = min(jobs, os.cpu_count() or 1, len(args))
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        chunks = pool.map(_scan_chunk, args, chunksize=1) if pool else [_scan_chunk(a) for a in args]
    summaries = []
    for p, results in zip(grid, zip(*chunks), strict=True):
        results = [r for r in results if r[0]]  # a chunk that kept no table has nothing to merge
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
                bound_bits=bound,
                max_margin=bound - max_mi,
                argmax_canonical_tables=tuple(TruthTable(n, m) for m in canon),
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def report_to_dict(report: VerifyReport) -> dict:
    row = vars(report) | {"p": str(report.p), "status": report.status}
    if report.karamata_certificate is not None:
        row["karamata_certificate"] = vars(report.karamata_certificate).copy()
    return row


def reports_to_json(reports: Iterable[VerifyReport]) -> str:
    return _json_text({"version": 1, "reports": [report_to_dict(r) for r in reports]})


def _json_text(doc) -> str:
    """The JSON text of every report: two-space indent, ASCII escapes, no trailing newline.

    The text is the standard ``json`` encoder's at ``indent=2``, byte for
    byte, but built without the pure-Python encoder that ``indent``
    selects there: one walk appends each line to a list, joined once.
    """
    parts: list[str] = []
    _json_parts(doc, "\n", parts)
    return "".join(parts)


def _json_float(x: float) -> str:
    """A float as the ``json`` encoder writes it: its repr, or NaN, Infinity, -Infinity (``allow_nan``)."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of each exact scalar type; containers and subclasses take the slow path
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_scalar(value) -> str:
    """A non-container value's text; a subclass of str, int or float is written as its base."""
    fmt = _JSON_SCALARS.get(type(value))
    if fmt is None:  # the json encoder's order of isinstance checks
        base = next((t for t in (str, int, float) if isinstance(value, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        fmt = _JSON_SCALARS[base]
    return fmt(value)


def _json_key(key) -> str:
    """A quoted dict key; int, float, bool and None keys are quoted as their text, as in ``json``."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _json_scalar(key)
    return encode_basestring_ascii(key)


def _json_parts(value, nl: str, parts: list[str]) -> None:
    """Append ``value``'s text to ``parts``; ``nl`` is a newline and the indent of ``value``'s line.

    A non-empty container opens, puts each item on its own line two
    spaces deeper, and closes on a line at ``nl``; an empty one is ``{}``
    or ``[]``.  A scalar item of an exact built-in type is written in the
    loop itself, without recursing.
    """
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            fmt = _JSON_SCALARS.get(type(item))
            if fmt is not None:
                parts.append(f"{sep}{_json_key(key)}: {fmt(item)}")
            else:
                parts.append(f"{sep}{_json_key(key)}: ")
                _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        sep = "[" + inner
        for item in value:
            fmt = _JSON_SCALARS.get(type(item))
            if fmt is not None:
                parts.append(sep + fmt(item))
            else:
                parts.append(sep)
                _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        parts.append(_json_scalar(value))


def _csv_text(header: list[str], rows: Iterable[dict]) -> str:
    """CSV text of a header row and the ``header`` fields of each row dict (None writes empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([row[field] for field in header] for row in rows)
    return buf.getvalue()


def _columns(record_type, nested: str, column: str, *derived: str) -> list[str]:
    """A record type's CSV header: its fields in order, ``nested`` renamed ``column``, then ``derived``."""
    return [column if f.name == nested else f.name for f in fields(record_type)] + list(derived)


def reports_to_csv(reports: Iterable[VerifyReport]) -> str:
    rows = [report_to_dict(r) for r in reports]
    for row in rows:
        cert = row["karamata_certificate"]
        row["certificate_holds"] = None if cert is None else cert["holds"]
    return _csv_text(_columns(VerifyReport, "karamata_certificate", "certificate_holds", "status"), rows)


def summary_to_dict(s: ExhaustiveSummary) -> dict:
    tables = [_table_dict(t) for t in s.argmax_canonical_tables]
    return vars(s) | {"p": str(s.p), "argmax_canonical_tables": tables}


def summaries_to_json(summaries: Iterable[ExhaustiveSummary]) -> str:
    return _json_text({"version": 1, "summaries": [summary_to_dict(s) for s in summaries]})


def summaries_to_csv(summaries: Iterable[ExhaustiveSummary]) -> str:
    rows = [summary_to_dict(s) for s in summaries]
    for row in rows:
        row["argmax_bits_hex"] = ";".join(t["bits_hex"] for t in row["argmax_canonical_tables"])
    return _csv_text(_columns(ExhaustiveSummary, "argmax_canonical_tables", "argmax_bits_hex"), rows)
