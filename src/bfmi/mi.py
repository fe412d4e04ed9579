"""Entropy and mutual information in bits, evaluated from exact rationals.

Logarithms are base 2 throughout: the channel bound 1 - H(p) only
reads as "one bit of capacity" in base 2.  The convention
0 * log 0 := 0 applies everywhere; it is required at p in {0, 1/2}
and for constant functions.

Each rational quantity is converted to float exactly once per log
term and terms are accumulated with :func:`math.fsum`, which keeps
results reproducible bit-for-bit and the rounding error well below
the 1e-12 tolerances used by the callers (calibrated for n <= 20).

Two producers give the same distinct rows and counts, so MI the same
bits.  ``mutual_information`` reads a joint table's 64-bit words and
groups equal rows by exact word equality (uint64 sorts of each row's top
64 bits, then a check of the lower words); ``_mi_bits`` reduces them.
``histogram_mutual_information`` builds no table: a class with a
closed-form histogram of distance profiles (every class but ``lex``) has
at most n + 1 distinct rows, and ``_profile_rows`` forms each one's
numerator from its profile as a Python int and merges equal numerators
exactly.  Every cell's term (count·c1)·log2(c2) needs two correctly
rounded quotients, and the representation picks the arithmetic.
``_exact_terms`` divides Python ints: it reduces every histogram.  A
block of table rows, whatever its size, has both cell masses of each row
formed by a multiword borrow subtraction and the quotients rounded in
NumPy double-double arithmetic (Dekker 1971; Shewchuk 1997): the masses
are converted once from exact 32-bit pieces and multiplied by the
double-double of each exact factor.  A proven error bound decides which
products round correctly, and a row with a cell it cannot decide goes to
``_exact_terms``, as does every row of a table whose denominator leaves
the kernel's exponent range.  Either way every quotient is bit for bit
what ``int / int`` gives, so the path never moves an MI value.  The kernel
uses only IEEE +, -, × and comparisons, and the logarithms are
``math.log2`` per cell, so MI depends on the platform's libm alone, like
every other float here outside the exhaustive scan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .boolfn import ProfileHistogram
from .channel import JointYZ, Rational, _fold as _fold_words, _masses, as_probability


def xlog2x(v: Rational | float) -> float:
    """x * log2(x) with the 0 log 0 := 0 convention; x is rounded to float once."""
    if v < 0:
        raise ValueError(f"xlog2x needs a nonnegative argument, got {v}")
    if v == 0:
        return 0.0
    x = float(v)
    return x * math.log2(x)


def binary_entropy(p: Rational) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), in bits.

    Defined for exact rational p in [0, 1]; H(0) = H(1) = 0 and
    H(1/2) = 1 exactly.
    """
    q = as_probability(p)
    s, d = q.numerator, q.denominator
    # s / d and (d - s) / d are float(q) and float(1 - q): int division rounds correctly
    return -(xlog2x(s / d) + xlog2x((d - s) / d))


@dataclass(frozen=True)
class MIResult:
    """Mutual information together with the channel bound 1 - H(p)."""

    mi_bits: float
    bound_bits: float
    margin_bits: float


def mutual_information(j: JointYZ) -> MIResult:
    """MI(Y; Z) = sum_{y,z} p_yz * log2(p_yz / (p_y * p_z)), in bits.

    Terms with p_yz = 0 contribute 0.  ``bound_bits`` is 1 - H(p) for
    the channel error probability carried by the table and
    ``margin_bits = bound_bits - mi_bits``.  Equal rows are grouped by
    exact word equality, and ``_mi_bits`` reduces the distinct rows.
    """
    rows, counts = _distinct_rows(j.words)
    return _result(_mi_bits(rows, counts, j.n, j.den, j.pz1), j.p)


def histogram_mutual_information(h: ProfileHistogram, p: Rational) -> MIResult:
    """:func:`mutual_information` of a table with distance-profile histogram ``h``, bit for bit.

    No joint table is built: ``_profile_rows`` turns the histogram into
    the distinct numerators and counts that grouping the table's rows
    would give, and ``_exact_terms`` reduces them as Python ints.

    Raises
    ------
    ValueError
        If p is outside [0, 1/2].
    """
    q = as_probability(p, Fraction(1, 2))
    merged, den = _profile_rows(h, q)
    scales = _ratio_scales(h.n, den, Fraction(h.ones, 1 << h.n))
    return _result(math.fsum(_exact_terms(merged, merged.values(), den, *scales)), q)


def _result(mi: float, p: Fraction) -> MIResult:
    bound = 1.0 - binary_entropy(p)
    return MIResult(mi_bits=mi, bound_bits=bound, margin_bits=bound - mi)


def _profile_rows(h: ProfileHistogram, p: Fraction) -> tuple[dict[int, int], int]:
    """({numerator: count}, den): the distinct p1 numerators of ``h``'s table over den, with their counts.

    For p = s/d the table has den = 4^n·d^n, and a y with profile
    (N_0, ..., N_n) has the numerator 2^n·sum_d N_d·s^d·(d - s)^(n - d),
    as ``joint_yz`` would build it.  Profiles with equal numerators, as
    every profile at p = 1/2 and the profiles with N_0 = 0 at p = 0, are
    merged exactly, so each distinct numerator occurs once with its total
    count, as ``_distinct_rows`` gives it, and every count·c1 product
    rounds as on the table.
    """
    n, s, d = h.n, p.numerator, p.denominator
    weights = [s**k * (d - s) ** (n - k) for k in range(n + 1)]
    merged: dict[int, int] = {}
    for prof, count in zip(h.profiles, h.counts):
        num = sum(map(operator.mul, prof, weights)) << n
        merged[num] = merged.get(num, 0) + count
    return merged, 4**n * d**n


def _mi_bits(rows: np.ndarray, counts: np.ndarray, n: int, den: int, pz1: Fraction) -> float:
    """MI in bits of the n-variable table whose distinct rows ``rows`` occur ``counts`` times.

    ``rows`` holds the p1 numerators over ``den`` as little-endian words,
    one row per distinct numerator, and ``pz1`` is the exact P(Z = 1).
    Each nonzero cell of a row with multiplicity ``count`` adds
    (count·c1)·log2(c2), where c1 = p_yz and c2 = p_yz / (p_y * p_z) are
    the correctly rounded floats of the exact rationals.  Rows are taken
    ``_KERNEL_ROWS`` at a time (see ``_block_terms``), and every block's
    terms stream into one :func:`math.fsum`.
    """
    scales = _ratio_scales(n, den, pz1)
    counts = counts.astype(np.float64)
    blocks = (slice(lo, lo + _KERNEL_ROWS) for lo in range(0, len(rows), _KERNEL_ROWS))
    return math.fsum(chain.from_iterable(_block_terms(rows[b], counts[b], den, scales) for b in blocks))


def _block_terms(rows: np.ndarray, counts: np.ndarray, den: int, scales: tuple) -> Iterable[float]:
    """Terms of a block of distinct rows, each quotient rounded by the kernel or divided as Python ints.

    The kernel rounds every cell, and each row with a cell it cannot
    decide goes to ``_exact_terms``; a block of a table with
    den >= 2^1022 goes there whole.
    """
    if den.bit_length() > _KERNEL_DEN_BITS:
        return _exact_terms(_fold_words(rows), counts.tolist(), den, *scales)
    (c1, c2), undecided = _cell_quotients(rows, den, *scales)
    redo = undecided.any(axis=0)
    return chain(_terms(counts, c1, c2, ~redo),
                 _exact_terms(_fold_words(rows[redo]), counts[redo].tolist(), den, *scales))


def _terms(counts: np.ndarray, c1: np.ndarray, c2: np.ndarray, decided: np.ndarray) -> list[float]:
    """(count·c1)·log2(c2) for every cell of the ``decided`` rows of a block whose c1 is positive.

    A cell whose c1 rounds to 0.0 would add ±0.0, which cannot change the fsum.
    """
    keep = (c1 > 0) & decided
    weights = (counts * c1)[keep]
    logs = np.fromiter(map(math.log2, c2[keep].tolist()), dtype=np.float64, count=len(weights))
    return (weights * logs).tolist()


def _exact_terms(nums: Iterable[int], counts: Iterable[float], den: int, py_num: int, up: int,
                 down: tuple[int, int]) -> Iterator[float]:
    """``_terms`` of the rows with p1 numerators ``nums``, each quotient ``int / int``: the same floats."""
    for num, count in zip(nums, counts):
        for mass, d in zip((py_num - num, num), down):
            if mass and (c1 := mass / den):
                yield count * c1 * math.log2(mass * up / d)


# ---------------------------------------------------------------------------
# Correctly rounded cell quotients in double-double arithmetic
# ---------------------------------------------------------------------------

_MASS_SCALE = 64  # the kernel reads mass·2^-64: in [2^-64, 2^958) when den < 2^1022
_KERNEL_DEN_BITS = 1022  # larger den: a quotient could be subnormal, every cell goes exact
_EXACT_MASS_BITS = 105  # masses below 2^105 convert to double-double without error
_PUSH = 1.0 + 2.0**-41  # Ziv's rounding-test factor for a 2^-97 error; see _round_products
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for binary64
_KERNEL_ROWS = 1 << 11  # distinct rows per block, which bounds the kernel's temporaries


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``words`` and their multiplicities, grouped by exact word equality.

    Each row's key is its 64 most significant bits: the highest word that
    is nonzero in some row, shifted left by the leading zeros every row
    shares there, with the freed bits taken from the word below.  If the
    sorted keys are all distinct, so are the rows, and ``words`` itself
    comes back with counts of 1.  Otherwise rows are grouped by the dense
    rank of their key, set through one argsort, and each lower word is
    checked by one scatter and one gather to agree inside every group; a
    group it splits is re-ranked by the pair (group, rank of the word),
    packed into one int64.  Only uint64 sorts and exact comparisons run, so no two
    distinct rows share a group.  Rows come back in no promised order.
    """
    top = words.shape[1] - 1
    while not (high := int(np.bitwise_or.reduce(words[:, top]))):
        if not top:  # every row is zero
            return words[:1], np.array([len(words)])
        top -= 1
    shift = 64 - high.bit_length()
    key = words[:, top] << shift
    if shift and top:
        key |= words[:, top - 1] >> (64 - shift)
    ordered = np.sort(key)
    new = ordered[1:] != ordered[:-1]
    if new.all():
        return words, np.ones(len(words), dtype=np.int64)
    group = np.empty(len(key), dtype=np.intp)
    group[np.argsort(key)] = np.concatenate(([0], np.cumsum(new)))
    groups = int(np.count_nonzero(new)) + 1
    del key, ordered, new
    bits = len(words).bit_length()  # ranks are below len(words), so a pair stays below 2^(2·bits)
    for k in reversed(range(top)):
        col = words[:, k]
        seen = np.empty(groups, dtype=np.uint64)
        seen[group] = col
        if (seen[group] == col).all():
            continue
        pair = group << bits | np.searchsorted(np.unique(col), col)
        distinct = np.unique(pair)
        group = np.searchsorted(distinct, pair)
        groups = len(distinct)
        del pair
    first = np.empty(groups, dtype=np.intp)
    first[group] = np.arange(len(words))
    return words[first], np.bincount(group, minlength=groups)


def _two_sum(a, b):
    # Knuth: s + e == a + b exactly
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    # Veltkamp: hi + lo == a exactly, each half at most 26 significant bits
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _mass_dd(masses: np.ndarray, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-double (hi, lo) of every mass·2^-64 from its exact 32-bit pieces.

    Pieces are added from the top one down: each step is an exact two-sum
    of hi with the next piece, one rounded add into lo and an exact
    renormalization, so each of the at most ``pieces`` - 2 rounded adds
    errs by at most 2u²·mass (u = 2^-53).  Below 2^105 nothing is lost:
    the add into lo is then an integer of at most 53 bits.
    """
    quads = masses.view("<u4")

    def piece(k):
        return quads[..., k] * 2.0 ** (32 * k - _MASS_SCALE)

    if pieces == 1:
        return piece(0), np.zeros(quads.shape[:-1])
    hi, lo = _two_sum(piece(pieces - 1), piece(pieces - 2))
    for k in range(pieces - 3, -1, -1):
        s, e = _two_sum(hi, piece(k))
        e += lo
        hi = s + e
        lo = e - (hi - s)
    return hi, lo


def _scaled_dd(num: int, den: int, exact_masses: bool) -> tuple[float, ...]:
    """g = 2^a·num/den in (1/2, 2) as a double-double, its split, 2^(64 - a) and the test factor.

    hi = float(g) and lo = float(g - hi) are correctly rounded integer
    divisions, so hi + lo is within u²·g of g.  The rounding-test factor
    is 1 when the products are exact: g is 1 and the masses are exact.
    Every c1 quotient of a power-of-two den with masses below 2^105
    takes it, and it pays: on a random n = 9 table at
    p = 13/64 (den = 2^72, masses of up to 64 bits) the factor 1 + 2^-41
    would flag 512 of the 1024 c1 cells, one in each distinct row, and
    send every row to ``_exact_terms``; MI then took 1.46 ms instead of
    0.34 ms (best of 7, shared 2-vCPU VM).
    A zero ``den`` (p_z = 0, so every mass in that column is 0) gives g = 0.
    """
    if num == 0 or den == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0, 1.0
    a = den.bit_length() - num.bit_length()
    if a >= 0:
        num <<= a
    else:
        den <<= -a
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    push = 1.0 if num == den and exact_masses else _PUSH
    return (hi, lo, *_split(hi), math.ldexp(1.0, _MASS_SCALE - a), push)


def _round_products(hi, lo, factors):
    """Round every (hi + lo)·g to float64 and flag the products the error bound cannot round.

    ``factors`` holds ``_scaled_dd`` fields as arrays broadcast against the
    cells.  Per product, with u = 2^-53 and K <= 32 pieces per mass:
    hi·g_hi is exact by Dekker's two-product (the Veltkamp halves multiply
    exactly since hi lies in [2^-64, 2^958) and g in (1/2, 2)); the cross
    terms hi·g_lo and lo·g_hi are rounded once each and lo·g_lo is dropped.
    With the mass error 2(K - 2)·u² and the factor error u², the
    approximation r + t (exact after a fast two-sum, |t| <= ulp(r)/2)
    differs from the exact scaled quotient Q by at most
    (2K + 9)·u²·Q < 2^-99·Q <= 2^-98.9·r.

    Rounding test (Ziv's): r is the correctly rounded Q when
    r + t·(1 + 2^-41) still rounds to r.  If |t| is at most half of the
    half-gap h next to r (h >= 2^-55·r), then |Q - r| < h whatever the
    test says.  Otherwise |t| > 2^-56·r, so the push |t|·2^-41, less its
    own rounding, exceeds 2^-97·r > |Q - (r + t)|: Q lies no further from
    r than a point that rounds to r, ties to even included.  Every other
    product is flagged for the exact path.  When g is 1 and every mass is
    below 2^105, each step is exact, r + t = Q, and the factor is 1, so r
    is Q rounded to nearest even.  Scaling back by 2^(64 - a) is exact
    because every nonzero result is normal (den < 2^1022).
    """
    g_hi, g_lo, g_hi_hi, g_hi_lo, back, push = factors
    h_hi, h_lo = _split(hi)
    p = hi * g_hi
    e = (((h_hi * g_hi_hi - p) + h_hi * g_hi_lo) + h_lo * g_hi_hi) + h_lo * g_hi_lo
    e += hi * g_lo + lo * g_hi
    r = p + e
    t = e - (r - p)
    undecided = r + t * push != r
    return r * back, undecided


def _cell_quotients(rows: np.ndarray, den: int, py_num: int, up: int,
                    down: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(quotients, undecided): the double-double kernel over a block of distinct rows.

    ``quotients[0][z, i]`` = mass/den and ``quotients[1][z, i]`` =
    mass·up/down[z] are the two quotients of the z cell of ``rows[i]``.
    Where ``undecided[z, i]`` is False both are the correctly rounded
    float64, what ``int / int`` gives.  den must be below 2^1022.
    """
    exact = py_num.bit_length() <= _EXACT_MASS_BITS
    per_den = _scaled_dd(1, den, exact)
    factors = np.array([[per_den, per_den], [_scaled_dd(up, d, exact) for d in down]])
    factors = factors.transpose(2, 0, 1)[..., None]  # field, quotient, z, broadcast row
    pieces = -(-py_num.bit_length() // 32)
    quotients, flagged = _round_products(*_mass_dd(_masses(rows, py_num), pieces), factors)
    return quotients, flagged.any(axis=0)


def _ratio_scales(n: int, den: int, pz1: Fraction) -> tuple[int, int, tuple[int, int]]:
    """(den/2^n, up, down): p_yz / (p_y * p_z) = mass·up/down[z] with p_y = 1/2^n."""
    ones, total = pz1.numerator, pz1.denominator
    return den >> n, total << n, (den * (total - ones), den * ones)


def mi_class1_closed(n: int, p: Rational) -> float:
    """Closed-form MI(Y; Z) for a single-one truth table, in bits.

    Evaluates 2n + sum_i (2^n - 1) p_i log2 p_i + sum_i q_i log2 q_i
    with q over Hamming shells of the witness (multiplicity C(n, k)),
    q_k = (1-p)^(n-k) p^k / 2^n and p_k = (1 - 2^n q_k) / ((2^n-1) 2^n).
    Must agree with the generic engine on the class-1 joint table; the
    test suite pins that equivalence to 1e-12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = as_probability(p, Fraction(1, 2))
    size = 1 << n
    terms = []
    for k in range(n + 1):
        mult = math.comb(n, k)
        qk = (1 - q) ** (n - k) * q**k / size
        pk = (1 - size * qk) / ((size - 1) * size)
        terms.append(mult * (size - 1) * xlog2x(pk))
        terms.append(mult * xlog2x(qk))
    return 2 * n + math.fsum(terms)


def qlogq_identity_check(n: int, p: Rational) -> tuple[float, float]:
    """Both sides of the shell-sum identity for sum_i q_i log2 q_i.

    lhs sums C(n, k) * q_k * log2(q_k) over the Hamming shells;
    rhs is the closed form -n/2^n - (n/2^n) * H(p).  The two must agree
    to 1e-12 for n <= 12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = as_probability(p)
    size = 1 << n
    lhs = math.fsum(
        math.comb(n, k) * xlog2x((1 - q) ** (n - k) * q**k / size) for k in range(n + 1)
    )
    rhs = -n / size - (n / size) * binary_entropy(q)
    return lhs, rhs
