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
bits.  ``mutual_information`` reads a joint table's 64-bit words, and
``bfmi._kernel`` groups its equal rows and reduces them in NumPy.
``histogram_mutual_information`` builds no table: a class with a
closed-form histogram of distance profiles (every class but ``lex``) has
at most n + 1 distinct rows, and ``_profile_rows`` forms each one's
numerator from its profile as a Python int and merges equal numerators
exactly.  Every cell's term (count·c1)·log2(c2) needs two correctly
rounded quotients, and the representation picks the arithmetic.
``_exact_terms`` divides Python ints: it reduces every histogram, and
the rows of a table that the kernel's double-double arithmetic cannot
round.  Either way every quotient is bit for bit what ``int / int``
gives, so the path never moves an MI value.

This module is the exact side and imports no NumPy: ``as_probability``
coerces every p here, and ``mutual_information`` imports the kernel
when it is called, so the class checks, which reduce histograms, start
without NumPy.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .boolfn import ProfileHistogram, _Record

if TYPE_CHECKING:
    from .channel import JointYZ

Rational = Fraction | int


def as_probability(p, upper: Fraction = Fraction(1)) -> Fraction:
    """Coerce to an exact Fraction in [0, upper]; a Fraction comes back as itself."""
    q = p if type(p) is Fraction else Fraction(p)
    if not 0 <= q <= upper:
        raise ValueError(f"probability {q} outside [0, {upper}]")
    return q


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


class MIResult(_Record):
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
    from ._kernel import _distinct_rows, _mi_bits

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


def _conditional_rows(h: ProfileHistogram, p: Fraction) -> dict[Fraction, Fraction]:
    """{P(Z = 1 | y): share of y} of ``h``'s table, exactly: num·2^n/den and count/2^n.

    MI depends on a table only through this map (P(Z = 1) is its mean),
    so two tables with equal maps have equal MI, whatever their n.
    """
    merged, den = _profile_rows(h, p)
    size = 1 << h.n
    return {Fraction(num * size, den): Fraction(count, size) for num, count in merged.items()}


def _exact_terms(nums: Iterable[int], counts: Iterable[float], den: int, py_num: int, up: int,
                 down: tuple[int, int]) -> Iterator[float]:
    """``_kernel._terms`` of the rows with p1 numerators ``nums``, each quotient ``int / int``: the same floats."""
    for num, count in zip(nums, counts):
        for mass, d in zip((py_num - num, num), down):
            if mass and (c1 := mass / den):
                yield count * c1 * math.log2(mass * up / d)


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
