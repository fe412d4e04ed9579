"""Entropy and mutual information in bits, evaluated from exact rationals.

Logarithms are base 2 throughout: the channel bound 1 - H(p) only
reads as "one bit of capacity" in base 2.  The convention
0 * log 0 := 0 applies everywhere; it is required at p in {0, 1/2}
and for constant functions.

Each rational quantity is converted to float exactly once per log
term and terms are accumulated with :func:`math.fsum`, which keeps
results reproducible bit-for-bit and the rounding error well below
the 1e-12 tolerances used by the callers (calibrated for n <= 20).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .channel import JointYZ, Rational, as_probability


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
    return -(xlog2x(q) + xlog2x(1 - q))


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
    ``margin_bits = bound_bits - mi_bits``.
    """
    den, py_num = j.den, j.den >> j.n
    # p_yz / (p_y * p_z) = mass * up[z] / down[z] with p_y = 1/2^n
    up = [q.denominator << j.n for q in (j.pz0, j.pz1)]
    down = [den * q.numerator for q in (j.pz0, j.pz1)]
    terms = []
    # identical rows are frequent for structured classes; group them
    for num, count in Counter(j.p1_nums).items():
        for z, mass in enumerate((py_num - num, num)):
            if mass > 0:
                # int true division is correctly rounded, exactly as float(Fraction) is
                terms.append(count * (mass / den) * math.log2(mass * up[z] / down[z]))
    mi = math.fsum(terms)
    bound = 1.0 - binary_entropy(j.p)
    return MIResult(mi_bits=mi, bound_bits=bound, margin_bits=bound - mi)


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
