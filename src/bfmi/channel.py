"""Exact-rational model of the memoryless binary symmetric channel.

Inputs are i.i.d. Bernoulli(1/2) vectors X of length n; the channel
flips each coordinate independently with error probability p <= 1/2,
producing Y.  For a Boolean function f, Z = f(X).  Everything here is
exact: scalar probabilities are :class:`fractions.Fraction` values and
joint tables are integers over one shared denominator.  No floating
point enters before the logarithm stage in :mod:`bfmi.mi`.

The joint probability p(x, y) depends on (x, y) only through their
Hamming distance d:  p(x, y) = (1-p)^(n-d) * p^d / 2^n.  Summing over
x at fixed y therefore telescopes through the binomial theorem, which
is the marginal identity checked by :func:`marginal_sum`.

``joint_yz`` assembles the full table p_YZ(y, z) for z in {0, 1}.  It
uses the xor-convolution structure of the channel: with
h(v) = (1-p)^(n-|v|) * p^|v| / 2^n one has p_YZ(., 1) = f * h (xor
convolution), which a Walsh-Hadamard transform evaluates with integer
arithmetic only.  One in-place NumPy butterfly does both passes, in
int64 throughout: the forward transform of the 0/1 indicator (every
partial sum is at most 2^n), then the scaled inverse, once per
byte-aligned digit of the scale constants, with carries rippling from
the low digit up.  The digit width shrinks as n grows so that no lane
can overflow (see ``_lane_bits``).  Each cell's digits are packed into
the bytes of its little-endian 64-bit words, as many words as
den/2^n needs, and :class:`JointYZ` keeps that ``(2^n, W)`` uint64 array
as it is: for p = s/d every cell is an integer numerator over 4^n·d^n.
Validation runs in NumPy on the words (a multiword comparison against
den/2^n and a column sum in 32-bit halves), and nothing is cached
between calls.  Here Python ints appear only in the ``rows`` view and
in the CSV dump of a den that is not a power of two or has
den/2^n >= 2^106; :mod:`bfmi.mi` folds the words of a row into ints only
for a cell its kernel cannot round and for den >= 2^1022, and reduces a
class's profile histogram as ints throughout.  The dump takes no
``math.gcd`` per cell: with den = 2^a·m and m odd, it forms both masses
of a block of rows by a multiword subtraction, counts each mass's
trailing zeros t across its words (capped at a) and reads the reduced
denominator from a table of den >> t.  For m = 1 and masses below 2^106
it shifts the masses on their words and writes their exact decimal
digits in NumPy; otherwise it folds them into Python ints, shifts each
right by its t and, for m > 1 (a non-dyadic p), takes a gcd with m.
The result is exact.  The test suite checks it against a naive oracle
that sums p(x, y) over the preimage f^{-1}(1) term by term, and against
the same inverse run on Python ints for every lane width up to n = 20.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat

import numpy as np

from ._orbit import _bits
from .boolfn import MAX_N, TruthTable, _Record
from .mi import Rational, as_probability

# rows per block of the passes that would otherwise hold a whole-table temporary: the
# ``rows`` view folds this many rows into Python ints at a time, and ``_wht`` multiplies
# this many 16-entry blocks by the Hadamard matrix at once
_READ_ROWS = 1 << 12
# rows per rendered and written block of the CSV dump; with 4096 the random-tables benchmark
# (n = 13 and 15 dumps) read 42.4 MB of peak RSS against 41.2 MB, and 9 % fewer checks/s
_DUMP_ROWS = 1 << 10
# the dump renders masses below 2^106 in NumPy: their quotients by 10^16 stay below 2^53
_DECIMAL_BITS = 106
_TEN16 = 10**16
# the ASCII digits of 0..9999, four bytes to an entry, most significant first: every choice
# of four digits in index order, built in uint8 so that importing this module does not raise
# the peak RSS
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_DIGITS4 = _DIGITS4.reshape(10_000, 4).view("<u4")[:, 0]
_WORD = (1 << 64) - 1
# Sylvester-Hadamard matrix of order 16; its leading 2^k x 2^k block is the one of order 2^k
_HADAMARD = np.array([[(-1) ** (i & j).bit_count() for j in range(16)] for i in range(16)],
                     dtype=np.int64)


def marginal_sum(y_index: int, k: int, p: Rational) -> Fraction:
    """Sum of p(x, y) over all 2^k values of x, exactly.

    The contract (and the identity this library repeatedly leans on) is
    that the result equals 1/2^k for every y and p.  The sum is
    evaluated by literal enumeration: Hamming distances of all 2^k
    x-patterns from y are counted and each exact term is added with its
    observed count.  Nothing here assumes the binomial identity.
    Like a truth table, k is limited to 1..MAX_N; outside it a
    ValueError is raised before anything is allocated.
    """
    if not 1 <= k <= MAX_N:
        raise ValueError(f"k must be in 1..{MAX_N}, got {k}")
    if not 0 <= y_index < 1 << k:
        raise ValueError(f"y_index out of range for k={k}")
    q = Fraction(p)
    xs = np.arange(1 << k, dtype=np.uint64)
    dist = np.bitwise_count(xs ^ np.uint64(y_index))
    counts = np.bincount(dist, minlength=k + 1)
    total = Fraction(0)
    for d in range(k + 1):
        if counts[d]:
            total += int(counts[d]) * ((1 - q) ** (k - d) * q**d)
    return total / Fraction(1 << k)


# ---------------------------------------------------------------------------
# Joint distribution of (Y, Z = f(X))
# ---------------------------------------------------------------------------


class JointYZ(_Record):
    """Exact table of p_YZ(y, z) for all y in {0,1}^n and z in {0,1}.

    The table is stored as integers over one shared denominator:
    p_YZ(y, 1) = num_y / ``den`` and p_YZ(y, 0) = (den/2^n - num_y) / den.
    ``words`` holds every num_y as little-endian 64-bit words, one row
    per y: a read-only ``(2^n, W)`` uint64 array with
    num_y = sum_k words[y, k]·2^(64k), where W is the word count of
    den/2^n.  ``joint_yz`` uses den = 4^n·d^n for p = s/d.  Invariants
    (validated on construction, in NumPy on the words): ``den`` is a
    positive multiple of 2^n, every numerator lies in
    [0, den/2^n] (so entries are nonnegative and every row sums to
    exactly 1/2^n, the uniform Y marginal), and ``pz1`` is the exact sum
    of the p1 column.  ``rows`` (Fractions) is a view built on each
    access; nothing in the MI reduction reads it.  The CSV dump counts
    the cells' powers of two on the words and reduces the cells by them
    one block of rows at a time, in NumPy for a dyadic den below
    2^(n + 106) and on folded Python ints otherwise.
    """

    n: int
    p: Fraction
    den: int
    words: np.ndarray
    pz1: Fraction

    # equal only to itself: equality by fields would compare the words arrays
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        size = 1 << self.n
        if self.den <= 0 or self.den % size:
            raise ValueError(f"den must be a positive multiple of 2^n, got {self.den}")
        py_num, words = self.den >> self.n, self.words
        width = _word_count(py_num)
        if not isinstance(words, np.ndarray) or words.dtype != np.dtype("<u8") or words.ndim != 2:
            raise ValueError("words must be a 2-d array of little-endian uint64 words")
        if len(words) != size:
            raise ValueError(f"expected {size} rows, got {len(words)}")
        if words.shape[1] != width:
            raise ValueError(f"expected {width} words per row (as den/2^n needs), got {words.shape[1]}")
        words = np.ascontiguousarray(words)
        words.flags.writeable = False
        object.__setattr__(self, "words", words)
        above = _rows_above(words, py_num)
        if above.any():
            y = int(np.argmax(above))
            (num,) = _fold(words[y : y + 1])
            raise ValueError(f"row {y}: p1 numerator {num} outside [0, den/2^n]")
        # column sums of the 32-bit halves stay below 2^24·2^32; Python ints combine them
        halves = words.view("<u4").sum(axis=0, dtype=np.uint64).tolist()
        total = sum(h << (32 * k) for k, h in enumerate(halves))
        if total * self.pz1.denominator != self.pz1.numerator * self.den:
            raise ValueError("pz1 does not match the p1 column sum")

    @property
    def rows(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """``rows[y] = (p0, p1)`` as exact Fractions; a read-only view built per access."""
        den, py_num = self.den, self.den >> self.n
        return tuple((Fraction(py_num - num, den), Fraction(num, den)) for num in _nums(self.words))

    def write_csv(self, path) -> None:
        """Dump as CSV rows: y_index, p0_num, p0_den, p1_num, p1_den, in lowest terms.

        Each block of ``_DUMP_ROWS`` rows is reduced by the power of two its
        cells share with den, counted in NumPy on the words, and written
        before the next block is read.  den alone picks the renderer: for
        den = 2^a with den/2^n < 2^106, ``_dyadic_lines`` shifts the masses
        and writes their decimal digits in NumPy, with no Python int per
        cell; any other den takes ``_formatted_lines``, which folds the
        masses into Python ints and, for a den with an odd factor, gives
        each a ``math.gcd`` (see ``_lowest_terms``).
        """
        den, py_num = self.den, self.den >> self.n
        a = (den & -den).bit_length() - 1
        if den == 1 << a and py_num.bit_length() <= _DECIMAL_BITS:
            dens = [den >> t for t in range(a + 1)]
            render = partial(_dyadic_lines, a=a, mids=np.array([b",%d," % d for d in dens]),
                             ends=np.array([b",%d\r\n" % d for d in dens]))
        else:
            render = partial(_formatted_lines, den=den, dens=[str(den >> t) for t in range(a + 1)])
        with open(path, "wb") as fh:
            fh.write(b"y_index,p0_num,p0_den,p1_num,p1_den\r\n")
            for lo in range(0, len(self.words), _DUMP_ROWS):
                masses = _masses(self.words[lo : lo + _DUMP_ROWS], py_num)
                fh.write(render(lo, masses.reshape(2 * masses.shape[1], -1)))


def _dyadic_lines(first: int, masses: np.ndarray, a: int, mids: np.ndarray, ends: np.ndarray) -> bytes:
    """CSV lines of rows first, first + 1, ... for den = 2^a, rendered in NumPy.

    ``masses`` holds the z = 0 masses of the block's rows above their
    z = 1 masses, one or two words each and below 2^106.  Each mass is
    shifted right by t, its trailing-zero count capped at a, and written
    by ``_decimal``; ``mids[t]`` is ``,den >> t,`` and ``ends[t]`` is
    ``,den >> t\r\n``, so five string additions make every line.
    """
    size = len(masses) // 2
    t = np.minimum(_trailing_zeros(masses), a)
    digits = _decimal(*_shift_right(masses, t))
    ys = np.strings.add(_digits(np.arange(first, first + size), 8), b",")
    fields = (ys, digits[:size], mids[t[:size]], digits[size:], ends[t[size:]])
    return b"".join(reduce(np.strings.add, fields).tolist())


def _formatted_lines(first: int, masses: np.ndarray, den: int, dens: list[str]) -> bytes:
    """CSV lines of rows first, first + 1, ..., one Python int and one ``%`` format per cell."""
    size = len(masses) // 2
    nums, cells = _lowest_terms(masses, den, dens)
    lines = zip(range(first, first + size), nums[:size], cells[:size], nums[size:], cells[size:])
    return "".join(map("%d,%d,%s,%d,%s\r\n".__mod__, lines)).encode()


def _shift_right(masses: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of every one- or two-word mass shifted right by its t.

    NumPy defines an unsigned shift by 64 or more bits as 0, and the
    uint64 counts 64 - t and t - 64 wrap to such counts where they would
    be negative, so each of the three shifts below vanishes where it does
    not apply: the low word takes lo >> t and hi << (64 - t) for t <= 64,
    and hi >> (t - 64) for t >= 64.  A nonzero mass has t < 128.
    """
    t = t.astype(np.uint64)
    lo = masses[:, 0]
    if masses.shape[1] == 1:
        return np.zeros_like(lo), lo >> t
    hi = masses[:, 1]
    return hi >> t, (lo >> t) | (hi << (64 - t)) | (hi >> (t - 64))


def _decimal(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Decimal digits of every v = hi·2^64 + lo < 2^53·10^16, as bytes without leading zeros.

    Let v = Q·10^16 + R with 0 <= R < 10^16, so Q < 2^53.  The float64
    estimate q = floor(fl(fl(fl(hi)·2^64 + fl(lo)) / 10^16)) is within
    ±2 of Q.  fl(hi)·2^64 is exact (hi < 2^43), fl(lo) is off by at most
    2^10, and the sum, below 2^107, by at most 2^53 more: less than
    0.91·10^16 in all.  10^16 is exact, and the division's rounding adds
    at most 1 (half an ulp at 2^53), so the quotient is within 1.91 of
    v/10^16 and its floor within 2 of Q.  Hence v - q·10^16 lies in
    [-2·10^16, 3·10^16), inside int64, and equals lo - q·10^16 modulo
    2^64: that uint64 difference read as int64 is exact, and one floor
    division by 10^16 corrects q and R.  ``_digits`` writes both.
    """
    q = np.floor((hi.astype(np.float64) * 2.0**64 + lo.astype(np.float64)) / 1e16).astype(np.int64)
    r = (lo - q.view(np.uint64) * np.uint64(_TEN16)).view(np.int64)
    fix = r // _TEN16
    q += fix
    r -= fix * _TEN16
    return _digits(np.stack((q, r), axis=1), 16)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Decimal text of every row of ``values``, each entry below 10^width, without leading zeros.

    A row's entries are its digits ``width`` at a time (4, 8 or 16), the
    most significant first.  Scalar divisions halve every entry down to
    groups of four digits, each group's ASCII bytes are read from
    ``_DIGITS4``, ``np.strings.lstrip`` drops the leading zeros, and a row
    of zeros prints as ``0``.
    """
    groups = values
    for _ in range(width.bit_length() - 3):  # halve the digits per entry down to 4
        width //= 2
        high = groups // 10**width
        groups = np.stack((high, groups - high * 10**width), axis=-1)
    text = _DIGITS4[groups.reshape(len(values), -1)].view(f"S{4 * groups[0].size}")[:, 0]
    text = np.strings.lstrip(text, b"0")
    text[text == b""] = b"0"
    return text


def _masses(rows: np.ndarray, py_num: int) -> np.ndarray:
    """(2, R, W) words of the cell masses: den/2^n - num (z = 0) above num (z = 1).

    The z = 0 masses come from a multiword borrow subtraction.
    """
    masses = np.empty((2, *rows.shape), dtype=np.uint64)
    masses[1] = rows
    borrow = 0
    for k in range(rows.shape[1]):
        lim, col = np.uint64((py_num >> (64 * k)) & _WORD), rows[:, k]
        diff = lim - col
        masses[0, :, k] = diff - borrow
        if k + 1 < rows.shape[1]:
            borrow = ((col > lim) | ((diff == 0) & (borrow == 1))).astype(np.uint64)
    return masses


def _lowest_terms(masses: np.ndarray, den: int, dens: list[str]) -> tuple[list[int], list[str]]:
    """Numerators and denominator strings of every mass/den in lowest terms.

    ``masses`` holds one multiword number per row, and ``dens[t]`` is
    str(den >> t) for t = 0..a, where den = 2^a·m with m odd.  A mass
    shares 2^t with den, t its trailing-zero count capped at a (a zero
    mass has t = a), and gcd(mass >> t, m) beyond that.  t is counted on
    the words in NumPy, the masses are folded into Python ints and shifted
    right by t; only when m > 1 does each int take a ``math.gcd`` with m.
    """
    a = len(dens) - 1
    t = np.minimum(_trailing_zeros(masses), a).tolist()
    nums = list(map(operator.rshift, _fold(masses), t))
    odd = den >> a
    if odd == 1:
        return nums, list(map(dens.__getitem__, t))
    gs = list(map(math.gcd, nums, repeat(odd)))
    reduced = {g: [str((den >> k) // g) for k in range(a + 1)] for g in set(gs)}  # g -> dens // g
    cells = list(map(list.__getitem__, map(reduced.__getitem__, gs), t))
    return list(map(operator.floordiv, nums, gs)), cells


def _trailing_zeros(words: np.ndarray) -> np.ndarray:
    """Trailing zero bits of every row's multiword number, as int64; a zero row gets 2^62."""
    low = words[:, 0]
    count = np.bitwise_count((low & -low) - 1).astype(np.int64)  # 64 for a zero word
    zero = low == 0
    for k in range(1, words.shape[1]):
        col = words[:, k]
        count += np.where(zero, np.bitwise_count((col & -col) - 1), 0)
        zero &= col == 0
    count[zero] = 1 << 62
    return count


def _fold(words: np.ndarray) -> list[int]:
    """Python ints sum_k words[y, k]·2^(64k) of a block of rows."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    # one little-endian bytes object per row; the bytes dtype drops trailing zero bytes, the
    # high ones here, so every value is kept
    rows = np.ascontiguousarray(words).view(f"S{8 * words.shape[1]}")[:, 0].tolist()
    return list(map(int.from_bytes, rows, repeat("little")))


def _nums(words: np.ndarray) -> Iterator[int]:
    """``_fold`` of every row, one block of ``_READ_ROWS`` rows alive at a time."""
    return chain.from_iterable(_fold(words[lo : lo + _READ_ROWS]) for lo in range(0, len(words), _READ_ROWS))


def _word_count(x: int) -> int:
    """Number of 64-bit words that hold the nonnegative integer x (at least one)."""
    return max(1, -(-x.bit_length() // 64))


def _rows_above(words: np.ndarray, limit: int) -> np.ndarray:
    """Boolean mask of the rows whose number exceeds ``limit``, compared from the top word down."""
    lims = [np.uint64((limit >> (64 * k)) & _WORD) for k in range(words.shape[1])]
    col, lim = words[:, -1], lims[-1]
    above, tied = col > lim, col == lim
    for k in reversed(range(words.shape[1] - 1)):
        col, lim = words[:, k], lims[k]
        above |= tied & (col > lim)
        tied &= col == lim
    return above


def _wht(v: np.ndarray) -> None:
    # unnormalized Walsh-Hadamard transform, in place; applying it twice gives len(v) * identity.
    # The four lowest levels are one product with the 16 x 16 Sylvester matrix per block of
    # rows, the rest are butterflies; every intermediate value is a sum of inputs over a
    # subcube, with signs, either way
    k = min(4, len(v).bit_length() - 1)
    rows = v.reshape(-1, 1 << k)
    for lo in range(0, len(rows), _READ_ROWS):
        block = rows[lo : lo + _READ_ROWS]
        block[...] = block @ _HADAMARD[: 1 << k, : 1 << k]
    h = 1 << k
    while h < len(v):
        pairs = v.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        a += b
        b *= -2
        b += a  # (a + b) - 2b = a - b
        h *= 2


def _lane_bits(n: int) -> int:
    """Digit width of the int64 lanes in which ``joint_yz`` runs its inverse.

    A lane transforms digit·F(w) with digit < 2^bits, where F is the
    transform of a 0/1 table.  Every partial sum, of the butterflies and of
    the 16 x 16 matrix products alike, is a signed sum of some of those
    2^n terms, so it is at most 2^bits·S with S = sum_w |F(w)|.  Parseval
    gives sum_w F(w)^2 = 2^n·|f| <= 2^(2n), and Cauchy-Schwarz over the
    2^n terms then S <= 2^(3n/2) <= 2^m with m = ceil(3n/2).  With
    bits + m <= 61 every partial sum is below 2^61, the doubled
    ``b *= -2`` one below 2^62, and the carry a lane passes up stays at
    most 2^(m + 1), so nothing reaches 2^63.  Digits are whole bytes so
    that lanes pack into bytes.
    """
    bits = 8 * ((61 - (3 * n + 1) // 2) // 8)
    assert bits >= 8, f"no int64 lane width for n={n}"
    return bits


def _le_bytes(v: np.ndarray) -> np.ndarray:
    # (len(v), 8) little-endian bytes of an int64 vector; a view on little-endian hosts
    return v.astype("<i8", copy=False).view(np.uint8).reshape(len(v), 8)


def joint_yz(f: TruthTable, p: Rational) -> JointYZ:
    """Exact joint distribution of (Y, Z = f(X)) under error probability p.

    p_YZ(y, 1) is the sum of p(x, y) over the preimage f^{-1}(1), which
    the test suite's naive oracle evaluates term by term;
    p_YZ(y, 0) = 1/2^n - p_YZ(y, 1).

    Raises
    ------
    ValueError
        If p is outside [0, 1/2].
    """
    q = as_probability(p, Fraction(1, 2))
    n = f.n
    size = f.size
    s, den = q.numerator, q.denominator
    t = den - 2 * s  # numerator of 1 - 2p over den

    # forward transform of the indicator; int64 is exact, every partial sum is at most 2^n
    ones = _bits(f).astype(np.int64)
    _wht(ones)
    # scale the transform by (1-2p)^|w|, common denominator den^n pulled out, and invert it
    # in int64 lanes: lane j transforms the j-th base-2^bits digit of the scale, low digit
    # first, keeps its own digit and passes the rest up as a carry; the top lane keeps it all
    scale = [t**k * den ** (n - k) for k in range(n + 1)]
    bits = _lane_bits(n)
    mask = (1 << bits) - 1
    lanes = -(-max(scale).bit_length() // bits)
    step = bits // 8
    # every cell is at most 2^n·den^n, which fits the whole 64-bit words of width bytes; per
    # y, little-endian, the low digits come first and the top lane takes the bytes left over
    # (its value is below 2^(n + bits) < 2^61, so at most 8 of them)
    width = 8 * _word_count(den**n << n)
    top_bytes = min(8, width - (lanes - 1) * step)
    packed = np.zeros((size, width), dtype=np.uint8)
    weight = np.bitwise_count(np.arange(size, dtype=np.uint32))
    carry = np.zeros(size, dtype=np.int64)
    for j in range(lanes):
        lane = np.array([(c >> (bits * j)) & mask for c in scale], dtype=np.int64)[weight]
        lane *= ones
        _wht(lane)
        lane += carry
        if j == lanes - 1:
            break
        np.right_shift(lane, bits, out=carry)  # arithmetic: negative lanes borrow
        lane &= mask
        packed[:, j * step : (j + 1) * step] = _le_bytes(lane)[:, :step]
    if lane.min() < 0 or int(lane.max()) >> (8 * top_bytes):  # would not survive the packing
        raise AssertionError("joint mass outside [0, 1/2^n]; transform bug")
    packed[:, j * step : j * step + top_bytes] = _le_bytes(lane)[:, :top_bytes]
    del ones, weight, lane, carry
    # JointYZ validates the cells in NumPy; on joint_yz's own output a failure is a bug here
    try:
        return JointYZ(n, q, 4**n * den**n, packed.view("<u8"), Fraction(f.ones_count(), size))
    except ValueError as exc:
        raise AssertionError(f"joint table fails its invariants; transform bug: {exc}") from exc
