"""Majorization certificates for the weighted w*log(w) inequality.

The single-one mutual-information bound MI <= 1 - H(p) is equivalent
to an inequality between two finite nonincreasing sequences of length
2^n * (2^n - 1) built from

    a = (1-p) / 2^(n-1),   c = 1 / 2^n,   b = p / 2^(n-1),
    w_k = (1 - (1-p)^(n-k) * p^k) / (2^n - 1),   k = 0..n,

namely that the (a, c, b) sequence majorizes the w sequence.  Once
majorization holds, convexity of g(x) = x * log2(x) (Karamata's
inequality) yields the bound.

The majorization conditions are log-free, so they are certified here
with exact rational arithmetic and zero tolerance.  Sequences are
stored run-length encoded: the prefix-sum gap between the two sides is
affine in the prefix length wherever both runs are constant, so its
maximum over a run segment is attained at a segment endpoint, and
checking every merged run boundary certifies every prefix exactly.
A dense elementwise scan is kept as an independent oracle in the test
suite.  Only :func:`karamata_conclusion` and
:func:`bound_equivalence_check` touch floating point (they involve
logarithms).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .boolfn import Class1, make_class
from .channel import Rational, as_probability, joint_yz
from .mi import binary_entropy, mutual_information, xlog2x


class DescendingSeq:
    """A nonincreasing sequence of exact rationals, run-length encoded.

    ``runs`` is a tuple of (value, count) pairs with strictly
    decreasing values and positive counts; equal neighbours supplied by
    the caller are merged.  Ties inside the underlying sequence are
    therefore permitted (p in {0, 1/2} produces them).  ``length`` is
    the number of elements; it is an attribute, not ``len()``, because
    from n = 32 on it exceeds ``sys.maxsize``.
    """

    __slots__ = ("runs", "length", "_total")

    def __init__(self, runs: Iterable[tuple[Rational, int]]):
        merged: list[tuple[Fraction, int]] = []
        for value, count in runs:
            value = Fraction(value)
            count = int(count)
            if count <= 0:
                raise ValueError("run counts must be positive")
            if merged and merged[-1][0] == value:
                merged[-1] = (value, merged[-1][1] + count)
            elif merged and merged[-1][0] < value:
                raise ValueError("sequence is not descending")
            else:
                merged.append((value, count))
        if not merged:
            raise ValueError("sequence must be non-empty")
        self.runs = tuple(merged)
        self.length = sum(count for _, count in merged)
        self._total = sum((v * c for v, c in merged), Fraction(0))

    @classmethod
    def from_values(cls, values: Iterable[Rational]) -> "DescendingSeq":
        """Compress an explicit nonincreasing list of values."""
        return cls((v, 1) for v in values)

    def __eq__(self, other) -> bool:
        return isinstance(other, DescendingSeq) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}x{c}" for v, c in self.runs)
        return f"DescendingSeq({inner})"

    def total(self) -> Fraction:
        return self._total

    def prefix_sum(self, t: int) -> Fraction:
        """Exact sum of the first ``t`` elements (0 <= t <= length)."""
        if not 0 <= t <= self.length:
            raise ValueError(f"prefix length {t} out of range")
        acc = Fraction(0)
        for value, count in self.runs:
            if t <= 0:
                break
            take = min(t, count)
            acc += value * take
            t -= take
        return acc

    def values(self):
        """Iterate the dense sequence (beware: may be astronomically long)."""
        for v, c in self.runs:
            for _ in range(c):
                yield v

    def max(self) -> Fraction:
        return self.runs[0][0]

    def min(self) -> Fraction:
        return self.runs[-1][0]


@dataclass(frozen=True)
class MajorizationCertificate:
    """Outcome of an exact majorization check.

    ``holds`` requires every prefix-sum comparison to pass and the
    totals to agree; ``first_violation`` is the smallest 1-based prefix
    length whose comparison fails, when one exists.
    ``sub_inequalities`` carries the named scalar comparisons of the
    construction (filled by :func:`sub_inequality_ledger`).
    """

    holds: bool
    first_violation: Optional[int] = None
    totals_equal: bool = False
    sub_inequalities: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.holds and (self.first_violation is not None or not self.totals_equal):
            raise ValueError("certificate cannot hold with a violation or unequal totals")


def _coerce_seq(seq) -> DescendingSeq:
    if isinstance(seq, DescendingSeq):
        return seq
    return DescendingSeq.from_values(seq)


def _merged_runs(xs: DescendingSeq, ys: DescendingSeq):
    """Yield (x value, y value, length) over the common refinement of two run lists.

    Both sequences must have the same length.
    """
    y_runs = iter(ys.runs)
    yv = rem_y = 0
    for xv, rem_x in xs.runs:
        while rem_x:
            if not rem_y:
                yv, rem_y = next(y_runs)
            step = min(rem_x, rem_y)
            yield xv, yv, step
            rem_x -= step
            rem_y -= step


def check_majorization(x, y) -> MajorizationCertificate:
    """Does ``x`` majorize ``y``?  Exact, zero tolerance.

    Certifies sum_{j<=k} y_j <= sum_{j<=k} x_j for every prefix length
    k, plus equality of the grand totals.  Accepts
    :class:`DescendingSeq` or any iterable of nonincreasing rationals.

    Raises
    ------
    ValueError
        On length mismatch or non-descending input.
    """
    xs = _coerce_seq(x)
    ys = _coerce_seq(y)
    if xs.length != ys.length:
        raise ValueError(f"length mismatch: {xs.length} vs {ys.length}")

    first_violation = None
    gap = Fraction(0)  # prefix(y) - prefix(x); must stay <= 0
    position = 0
    for xv, yv, step in _merged_runs(xs, ys):
        delta = yv - xv
        new_gap = gap + step * delta
        if new_gap > 0:
            # gap <= 0 at the segment start, so delta > 0; solve for the
            # earliest prefix inside the segment that crosses zero
            first_violation = position + (-gap) // delta + 1
            break
        gap = new_gap
        position += step

    totals_equal = xs.total() == ys.total()
    holds = first_violation is None and totals_equal
    return MajorizationCertificate(
        holds=holds, first_violation=first_violation, totals_equal=totals_equal
    )


# ---------------------------------------------------------------------------
# The channel-specific sequence construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KaramataInstance:
    """The exact sequence pair for dimension n and error probability p.

    ``x_seq`` is the majorizing side [a repeated K, c repeated
    2^n*(n-1), b repeated K] and ``y_seq`` the majorized side: shell k's
    value w_k repeated C(n, k)*(2^n - 1) times, both nonincreasing.
    K = 2^(n-1) * (2^n - n).  Both sequence totals equal 2^n - 1
    exactly.
    """

    n: int
    p: Fraction
    a: Fraction
    b: Fraction
    c: Fraction
    K: int
    x_seq: DescendingSeq
    y_seq: DescendingSeq

    def write_prefix_sums(self, path) -> None:
        """Dump every prefix sum as CSV rows: k, SL_num, SL_den, SR_num, SR_den, ok.

        SL is the sum of the first k entries of ``y_seq`` (the majorized
        side), SR that of ``x_seq``, each in lowest terms, and ``ok`` is
        SL <= SR.  The sums are kept as integers over the lcm of the
        run-value denominators and reduced only on output.
        """
        den = math.lcm(*(v.denominator for seq in (self.x_seq, self.y_seq) for v, _ in seq.runs))
        sl = sr = k = 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "SL_num", "SL_den", "SR_num", "SR_den", "ok"])
            for xv, yv, step in _merged_runs(self.x_seq, self.y_seq):
                x_num = xv.numerator * (den // xv.denominator)
                y_num = yv.numerator * (den // yv.denominator)
                for _ in range(step):
                    k += 1
                    sl += y_num
                    sr += x_num
                    gl = math.gcd(sl, den)
                    gr = math.gcd(sr, den)
                    writer.writerow([k, sl // gl, den // gl, sr // gr, den // gr, sl <= sr])


def build_karamata_sequences(n: int, p: Rational) -> KaramataInstance:
    """Construct the exact majorization instance for (n, p).

    Requires n >= 2 and rational p in [0, 1/2].  The returned sequences
    are descending with ties permitted (at p = 1/2 all entries of both
    sides collapse to 1/2^n).
    """
    if n < 2:
        raise ValueError(f"the construction needs n >= 2, got n={n}")
    q = as_probability(p, Fraction(1, 2))
    size = 1 << n
    a = (1 - q) / (size // 2)
    b = q / (size // 2)
    c = Fraction(1, size)
    big_k = (size // 2) * (size - n)

    # shell k holds C(n, k) values w_k, each repeated 2^n - 1 times
    y_runs = [
        ((1 - (1 - q) ** (n - k) * q**k) / (size - 1), math.comb(n, k) * (size - 1))
        for k in range(n, -1, -1)
    ]
    x_seq = DescendingSeq([(a, big_k), (c, size * (n - 1)), (b, big_k)])
    y_seq = DescendingSeq(y_runs)
    target = Fraction(size - 1)
    if x_seq.total() != target or y_seq.total() != target:
        raise AssertionError("sequence totals must equal 2^n - 1; construction bug")
    return KaramataInstance(n=n, p=q, a=a, b=b, c=c, K=big_k, x_seq=x_seq, y_seq=y_seq)


def sub_inequality_ledger(inst: KaramataInstance) -> MajorizationCertificate:
    """Exact scalar comparisons used by the majorization argument.

    Checks w_max <= a, 2*w_max <= a + c, w_min >= b, and equality of
    both sequence totals with 2^n - 1, all by exact rational
    comparison.

    The pairing lemma 2*w_max <= a + c only enters the argument for
    n >= 3 and is genuinely false at n = 2 for p strictly between 1/4
    and 1/2 (it is tight at both ends of that interval).  At n = 2 the
    middle-segment prefix sums it would bridge are instead verified
    directly (entry ``middle_prefix_sums_direct``), the raw scalar
    comparison stays in the ledger for transparency, and ``holds``
    requires only the comparisons applicable at the given dimension.
    """
    target = Fraction((1 << inst.n) - 1)
    subs = {
        "w_max_le_a": inst.y_seq.max() <= inst.a,
        "two_wmax_le_a_plus_c": 2 * inst.y_seq.max() <= inst.a + inst.c,
        "w_min_ge_b": inst.y_seq.min() >= inst.b,
        "totals": inst.x_seq.total() == target and inst.y_seq.total() == target,
    }
    required = dict(subs)
    if inst.n == 2:
        filler = (1 << inst.n) * (inst.n - 1)
        subs["middle_prefix_sums_direct"] = all(
            inst.y_seq.prefix_sum(t) <= inst.x_seq.prefix_sum(t)
            for t in range(inst.K + 1, inst.K + filler + 1)
        )
        required.pop("two_wmax_le_a_plus_c")
        required["middle_prefix_sums_direct"] = subs["middle_prefix_sums_direct"]
    return MajorizationCertificate(
        holds=all(required.values()),
        first_violation=None,
        totals_equal=subs["totals"],
        sub_inequalities=subs,
    )


def certify_instance(inst: KaramataInstance) -> MajorizationCertificate:
    """Full certificate: prefix-sum majorization plus the scalar ledger."""
    major = check_majorization(inst.x_seq, inst.y_seq)
    ledger = sub_inequality_ledger(inst)
    return MajorizationCertificate(
        holds=major.holds and ledger.holds,
        first_violation=major.first_violation,
        totals_equal=major.totals_equal and ledger.totals_equal,
        sub_inequalities=dict(ledger.sub_inequalities),
    )


def karamata_conclusion(x, y) -> tuple[float, float]:
    """Evaluate (sum g(y_i), sum g(x_i)) with g(t) = t * log2(t).

    Requires that ``x`` majorizes ``y`` (checked; ValueError otherwise).
    By convexity of g the left component never exceeds the right beyond
    float rounding.
    """
    xs = _coerce_seq(x)
    ys = _coerce_seq(y)
    if not check_majorization(xs, ys).holds:
        raise ValueError("karamata_conclusion called on a non-majorizing pair")
    lhs = math.fsum(count * xlog2x(value) for value, count in ys.runs)
    rhs = math.fsum(count * xlog2x(value) for value, count in xs.runs)
    return lhs, rhs


def bound_equivalence_check(n: int, p: Rational) -> tuple[float, float]:
    """Compare the direct MI margin with the weighted-sum formulation.

    Returns ``(mi_minus_bound, karamata_gap)`` where ``mi_minus_bound``
    is MI - (1 - H(p)) from the generic exact-table engine on a
    single-one function, and ``karamata_gap`` is

        [-n(n-1) + (2^n - n) 2^(n-1) (a log2 a + b log2 b)]
            - sum_i (2^n - 1) w_i log2 w_i ,

    the slack of the weighted inequality.  The two formulations satisfy
    mi_minus_bound = -karamata_gap / 2^n up to float rounding, so in
    particular they always agree on which side wins.  The function also
    reconstructs MI from the w-decomposition
    (n - (n/2^n) H(p) + ((2^n-1)/2^n) sum w log2 w) and raises if that
    disagrees with the generic engine beyond 1e-9.
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got n={n}")
    inst = build_karamata_sequences(n, p)
    size = 1 << n
    sum_w_log_w = math.fsum(count // (size - 1) * xlog2x(value) for value, count in inst.y_seq.runs)
    lhs_w = (size - 1) * sum_w_log_w
    rhs_w = -n * (n - 1) + (size - n) * (size // 2) * (xlog2x(inst.a) + xlog2x(inst.b))
    karamata_gap = rhs_w - lhs_w

    result = mutual_information(joint_yz(make_class(n, Class1()), inst.p))
    mi_minus_bound = result.mi_bits - result.bound_bits

    reconstructed = (
        n - (n / size) * binary_entropy(inst.p) + ((size - 1) / size) * sum_w_log_w
    )
    if abs(reconstructed - result.mi_bits) > 1e-9:
        raise AssertionError(
            "MI reconstructed from the w-decomposition disagrees with the "
            f"generic engine: {reconstructed} vs {result.mi_bits}"
        )
    return mi_minus_bound, karamata_gap
