"""The exhaustive scan's float kernel: every truth table of a small n, coded by distance profile.

:func:`bfmi.verify.exhaustive_check` imports this module and the scan's
tuning constants when it is called, and its pool's worker processes
import it to run :func:`_scan_chunk`; of the exact side it loads only
``boolfn``.  p_YZ(y, 1) depends on f only through the distance
profile (N_0(y), ..., N_n(y)), N_d(y) counting the ones of f at Hamming
distance d from y.  Because the channel depends on x and y only through
|x xor y|, the code of a mask's high half at y is the code of the same
ones in its low half at y xor (half width), so every code is built by
XOR doubling from the one-bit table.  One chunk worker scans a slice of
the table space: it codes every (table, y) profile as one small integer,
once for the whole p grid, and per p gathers the MI terms from one table
over the codes.  ``_canonical_dedupe`` serves the merge, which picks the
maximum and the argmax orbits, walking each orbit once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._orbit import _lex_min, _orbit_images
from .boolfn import TruthTable

ATTAINMENT_TOLERANCE = 1e-12

# Exhaustive scans list at most this many argmax orbits (ties are
# combinatorially large at p in {0, 1/2}) and cut the table space into
# chunks of 2^CHUNK_BITS masks, which keeps per-chunk arrays modest.
ARGMAX_CAP = 16
CHUNK_BITS = 20


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
