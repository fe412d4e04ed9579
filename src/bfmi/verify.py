"""Bound-verification harnesses, exhaustive desk-scale scans, reports.

``verify_class`` sweeps a function class over (n, p) grids, computing
MI, the bound 1 - H(p) and the margin, attaching the exact
majorization certificate for the single-one/single-zero classes.
``exhaustive_check`` scans every truth table of a small dimension with
a vectorized float kernel (the exact engine is its oracle in the test
suite); one merge here picks the maximum and the argmax orbits.  The
kernel is in ``bfmi._scan`` and the joint table in ``bfmi.channel``:
``exhaustive_check`` and the ``lex`` branch of ``verify_class`` import
them when they run, so this module imports neither NumPy nor
``multiprocessing``, which only the n = 5 pool needs.

Each output format is declared once, by its record's fields: the
annotations of a ``bfmi.boolfn._Record`` subclass.  A JSON record is the
record's fields in field order; only derived values are spelled out:
``p`` as an exact string, the verify ``status`` (appended), and the
argmax tables as the truth-table file's ``{n, bits_hex}`` dicts.
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
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional

from .boolfn import (
    Class1,
    Class2,
    Class3,
    TruthTable,
    _Record,
    _table_dict,
    format_class_spec,
    make_class,
    profile_histogram,
)
from .karamata import MajorizationCertificate, certify
from .mi import (Rational, _conditional_rows, as_probability, binary_entropy, histogram_mutual_information,
                 mutual_information)


def p_grid(den: int) -> tuple[Fraction, ...]:
    """The exact grid p = k/den for k = 0..den/2, both endpoints included.

    Raises
    ------
    ValueError
        Unless 1 <= den <= 4096.
    """
    if not 1 <= den <= 4096:
        raise ValueError(f"grid denominator must be in 1..4096, got {den}")
    return tuple(Fraction(k, den) for k in range(den // 2 + 1))


DEFAULT_P_GRID: tuple[Fraction, ...] = p_grid(64)

# Float MI of an exactly-true rational inequality can dip below zero by
# accumulated rounding; 1e-9 sits three orders above the error observed
# at n <= 12 and well below any meaningful violation.
PASS_MARGIN_TOLERANCE = 1e-9


def margin_passes(margin_bits: float) -> bool:
    """The one margin rule: MI <= 1 - H(p) up to float rounding."""
    return margin_bits >= -PASS_MARGIN_TOLERANCE


class VerifyReport(_Record):
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


class ExhaustiveSummary(_Record):
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
        import logging  # only a skip needs it: imported here, it stays off every start-up

        ns = ", ".join(str(n) for n, _ in skipped)
        logging.getLogger(__name__).warning("skipping %s at n=%s: %s", spec_str, ns, skipped[0][1])
    reports = []
    for n, hist in hists.items():
        attach_certificate = isinstance(class_spec, (Class1, Class2)) and n >= 2
        if hist is None:  # lex, the one class whose joint table is built
            from .channel import joint_yz

            table = make_class(n, class_spec)
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


def class3_reduction_check(n: int, r: int, p: Rational) -> tuple[float, float, bool]:
    """(mi_full, mi_reduced, identical): the r-subcube indicator on n variables vs a single one on r.

    Both MI values come from profile histograms, with no truth table.
    ``identical`` is the exact verdict: the two tables' maps
    {P(Z = 1 | y): share of y} are equal as Fractions, which proves the
    two MI values equal with no float compared.  The floats agree too:
    for p = s/d the subcube's distinct rows are the single one's times
    (2d)^(n - r), over a den larger by (2d)^(n - r)*2^(n - r), and its
    counts are theirs times 2^(n - r), so the two MI values agree bit for
    bit (pinned for n <= 10 by the test suite).  For r = 1 both equal
    1 - H(p).

    Raises
    ------
    ValueError
        Where :func:`profile_histogram` finds the subcube absent: r
        outside 1..n-1, or n outside 1..MAX_N.
    """
    full_h, reduced_h = profile_histogram(n, Class3(r)), profile_histogram(r, Class1())
    q = as_probability(p, Fraction(1, 2))
    full, reduced = (histogram_mutual_information(h, q).mi_bits for h in (full_h, reduced_h))
    identical = _conditional_rows(full_h, q) == _conditional_rows(reduced_h, q)
    return full, reduced, identical


# ---------------------------------------------------------------------------
# Exhaustive scan
# ---------------------------------------------------------------------------


def exhaustive_check(n: int, p_grid=DEFAULT_P_GRID) -> list[ExhaustiveSummary]:
    """Scan all 2^(2^n) truth tables for each grid p; one summary per p.

    The table space is cut into chunks of 2^CHUNK_BITS masks, each
    scanned once for the whole grid by :func:`_scan_chunk`: n <= 4 is a
    single unfiltered chunk run in-process; n = 5 is 4096
    symmetry-filtered chunks, fanned out over min(usable CPUs, 4096)
    worker processes when that is two or more; ``os.sched_getaffinity``
    gives the usable CPUs (``taskset`` limits them), else ``os.cpu_count()``.
    ``argmax_canonical_tables`` lists up to ``ARGMAX_CAP`` distinct
    canonical forms attaining the maximum within 1e-12.
    """
    from ._scan import ATTAINMENT_TOLERANCE, CHUNK_BITS, _canonical_dedupe, _scan_chunk

    grid = tuple(as_probability(p, Fraction(1, 2)) for p in p_grid)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 5:
        raise ValueError(f"exhaustive scan of n={n} (2^{1 << n} tables) is not supported")
    total = 1 << (1 << n)
    step = 1 << CHUNK_BITS
    args = [(n, grid, start, min(start + step, total)) for start in range(0, total, step)]
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
                  len(args))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            chunks = pool.map(_scan_chunk, args, chunksize=1)
    else:
        chunks = [_scan_chunk(a) for a in args]
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


# the text of each scalar type a report holds, by exact type; any other non-container is a TypeError
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_parts(value, nl: str, parts: list[str]) -> None:
    """Append ``value``'s text to ``parts``; ``nl`` is a newline and the indent of ``value``'s line.

    A non-empty container opens, puts each item on its own line two
    spaces deeper, and closes on a line at ``nl``; an empty one is ``{}``
    or ``[]``.  A scalar item of an exact built-in type is written in the
    loop itself, without recursing.  A key that is not a str raises
    ``TypeError`` in ``encode_basestring_ascii``; no report has one.
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
                parts.append(f"{sep}{encode_basestring_ascii(key)}: {fmt(item)}")
            else:
                parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
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
        fmt = _JSON_SCALARS.get(type(value))
        if fmt is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        parts.append(fmt(value))


def _csv_text(header: list[str], rows: Iterable[dict]) -> str:
    """CSV text of a header row and the ``header`` fields of each row dict (None writes empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([row[field] for field in header] for row in rows)
    return buf.getvalue()


def _columns(record_type, nested: str, column: str, *derived: str) -> list[str]:
    """A record type's CSV header: its fields in order, ``nested`` renamed ``column``, then ``derived``."""
    return [column if name == nested else name for name in record_type._fields] + list(derived)


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
