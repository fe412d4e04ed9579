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
exactly and with zero tolerance.  For p = s/d in lowest terms every
value above is an integer numerator over the one shared denominator
D = 2^n * d^n * (2^n - 1):

    A = 2(d-s) * d^(n-1) * (2^n - 1),   C = d^n * (2^n - 1),
    B = 2s * d^(n-1) * (2^n - 1),       W_k = 2^n * (d^n - (d-s)^(n-k) * s^k),

and both sequence totals are (2^n - 1) * D.  The construction, the
run walk, the scalar ledger and the prefix-sum dump do integer
arithmetic only.  Sequences are stored run-length encoded as plain
``(numerator, count)`` lists: the prefix-sum gap between the two sides
is affine in the prefix length wherever both runs are constant, so its
maximum over a run segment is attained at a segment endpoint, and
checking every merged run boundary certifies every prefix exactly.

Three private steps do the work, each written once: ``_runs`` builds
the two run lists as plain ``(numerator, count)`` ints (ties merged,
descending order, positive counts, equal lengths and totals checked),
``_first_violation`` walks their common refinement, and ``_ledger``
makes the scalar comparisons.  :func:`certify` chains them and is what
``mi karamata`` and the class 1/2 checks of ``mi verify`` call for every
p; :func:`write_prefix_sums` writes ``--dump-sums`` from the same run
lists.

:func:`build_karamata_sequences`, :func:`certify_instance` and the bare
:class:`KaramataInstance` and :class:`DescendingSeq` they pass between
them build no second path: they wrap the same steps, and stay only
because the benchmark's span counter (``perfbench/spans.py``) counts
certificates on ``certify_instance`` and reads its instance's runs.

A dense elementwise scan is kept as an independent oracle in the test
suite.  Only :func:`bound_equivalence_check` touches floating point (it
involves logarithms, and its ``karamata_gap`` is the convexity step);
each value enters it as one correctly rounded division ``num / den``,
the same float that ``float(Fraction(num, den))`` gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import index
from typing import Iterable, Optional

from .boolfn import MAX_N, Class1, _Record, profile_histogram
from .mi import Rational, as_probability, binary_entropy, histogram_mutual_information, xlog2x


_HALF = Fraction(1, 2)


def _merge(runs: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, int]], int, int]:
    """(merged runs, length, total numerator) of integer (numerator, count) runs.

    Equal neighbours are merged.  Raises ValueError unless the counts are
    positive, the numerators nonincreasing and the runs non-empty.
    """
    merged: list[tuple[int, int]] = []
    length = total = 0
    last = None
    for num, count in runs:
        if count <= 0:
            raise ValueError("run counts must be positive")
        length += count
        total += num * count
        if last is None or num < last:
            merged.append((num, count))
        elif num == last:
            merged[-1] = (num, merged[-1][1] + count)
        else:
            raise ValueError("sequence is not descending")
        last = num
    if not merged:
        raise ValueError("sequence must be non-empty")
    return merged, length, total


def _check_lengths(x_length: int, y_length: int) -> None:
    if x_length != y_length:
        raise ValueError(f"length mismatch: {x_length} vs {y_length}")


def _dense(runs):
    """Every element of a run list, in order."""
    return chain.from_iterable(repeat(num, count) for num, count in runs)


class DescendingSeq:
    """A run list as ``_merge`` returns it: ``runs``, ``length`` and ``total_num``.

    ``runs`` is a tuple of (integer numerator, count) pairs over the
    instance denominator, ties merged and validated by ``_merge``;
    numerators and counts that are not integers raise TypeError.
    ``length`` is an attribute, not ``len()``, because from n = 32 on it
    exceeds ``sys.maxsize``.
    """

    __slots__ = ("runs", "length", "total_num")

    def __init__(self, runs: Iterable[tuple[int, int]]):
        merged, self.length, self.total_num = _merge((index(num), index(count)) for num, count in runs)
        self.runs = tuple(merged)


class MajorizationCertificate(_Record):
    """Outcome of an exact majorization check.

    ``holds`` requires every prefix-sum comparison to pass and the
    totals to agree; ``first_violation`` is the smallest 1-based prefix
    length whose comparison fails, when one exists.
    ``sub_inequalities`` carries the named scalar comparisons of the
    construction (filled by :func:`certify_instance` and :func:`certify`).
    """

    holds: bool
    first_violation: Optional[int] = None
    totals_equal: bool = False
    sub_inequalities: dict = {}  # a fresh dict per certificate

    def __post_init__(self):
        if self.holds and (self.first_violation is not None or not self.totals_equal):
            raise ValueError("certificate cannot hold with a violation or unequal totals")


def _first_violation(x_runs, y_runs) -> Optional[int]:
    """The smallest 1-based prefix length k with sum_{j<=k} y_j > sum_{j<=k} x_j, or None.

    Walks the common refinement of two run lists over one denominator,
    which must cover the same length.  Inside a segment where both runs
    are constant the gap is affine in k, so checking each segment's end
    certifies every prefix.
    """
    gap = position = 0  # prefix(y) - prefix(x), in numerators; must stay <= 0
    y_iter = iter(y_runs)
    yv = rem_y = 0
    for xv, rem_x in x_runs:
        while rem_x:
            if not rem_y:
                yv, rem_y = next(y_iter)
            step = rem_x if rem_x < rem_y else rem_y
            new_gap = gap + step * (yv - xv)
            if new_gap > 0:
                # gap <= 0 at the segment start, so yv > xv; solve for the
                # earliest prefix inside the segment that crosses zero
                return position + (-gap) // (yv - xv) + 1
            gap = new_gap
            position += step
            rem_x -= step
            rem_y -= step
    return None


# ---------------------------------------------------------------------------
# The channel-specific sequence construction
# ---------------------------------------------------------------------------


class KaramataInstance(_Record):
    """The exact sequence pair for dimension n and error probability p.

    ``x_seq`` is the majorizing side [a repeated K, c repeated
    2^n*(n-1), b repeated K] and ``y_seq`` the majorized side: shell k's
    value w_k repeated C(n, k)*(2^n - 1) times, both nonincreasing.
    K = 2^(n-1) * (2^n - n).  Every value is an integer numerator over
    the shared denominator ``den`` (D in the module docstring);
    ``a_num``, ``b_num`` and ``c_num`` are those of a, b and c.  Both
    sequence totals equal 2^n - 1 exactly.
    """

    n: int
    p: Fraction
    K: int
    den: int
    a_num: int
    b_num: int
    c_num: int
    x_seq: DescendingSeq
    y_seq: DescendingSeq


def _runs(n: int, p: Rational):
    """(p, D, A, B, C, K, x runs, y runs) for (n, p), as plain ints with ties merged.

    The numerators and D are the module docstring's; each run list is
    checked to be descending with positive counts, both to have the
    same length, and both totals to equal (2^n - 1) * D.
    """
    if n < 2:
        raise ValueError(f"the construction needs n >= 2, got n={n}")
    q = as_probability(p, _HALF)
    s, d = q.numerator, q.denominator
    size = 1 << n
    d_pow = d ** (n - 1)
    den = size * d_pow * d * (size - 1)
    a_num = 2 * (d - s) * d_pow * (size - 1)
    b_num = 2 * s * d_pow * (size - 1)
    c_num = d_pow * d * (size - 1)
    big_k = (size // 2) * (size - n)

    x_runs, x_length, x_total = _merge(((a_num, big_k), (c_num, size * (n - 1)), (b_num, big_k)))
    # shell k holds C(n, k) values w_k, each repeated 2^n - 1 times
    y_runs, y_length, y_total = _merge(
        (size * (d_pow * d - (d - s) ** (n - k) * s**k), math.comb(n, k) * (size - 1))
        for k in range(n, -1, -1)
    )
    target = (size - 1) * den
    if x_total != target or y_total != target:
        raise AssertionError("sequence totals must equal 2^n - 1; construction bug")
    _check_lengths(x_length, y_length)
    return q, den, a_num, b_num, c_num, big_k, x_runs, y_runs


def _ledger(n, den, a_num, b_num, c_num, x_runs, y_runs, x_total, y_total) -> tuple[bool, dict]:
    """(holds, named comparisons) of the scalar ledger of one instance.

    Checks w_max <= a, 2*w_max <= a + c, w_min >= b, and equality of
    both sequence totals with 2^n - 1, all by exact comparison of
    numerators over the instance denominator.

    The pairing lemma 2*w_max <= a + c only enters the argument for
    n >= 3 and is genuinely false at n = 2 for p strictly between 1/4
    and 1/2 (it is tight at both ends of that interval).  At n = 2 the
    middle-segment prefix sums it would bridge are instead verified
    directly (entry ``middle_prefix_sums_direct``), the raw scalar
    comparison stays in the ledger for transparency, and ``holds``
    requires only the comparisons applicable at the given dimension.
    """
    target = ((1 << n) - 1) * den
    w_max = y_runs[0][0]
    subs = {
        "w_max_le_a": w_max <= a_num,
        "two_wmax_le_a_plus_c": 2 * w_max <= a_num + c_num,
        "w_min_ge_b": y_runs[-1][0] >= b_num,
        "totals": x_total == target and y_total == target,
    }
    if n == 2:
        # prefix(y) - prefix(x) after each element; K = 4 and the middle segment is t = 5 .. 8
        gaps = accumulate(yv - xv for xv, yv in zip(_dense(x_runs), _dense(y_runs)))
        subs["middle_prefix_sums_direct"] = all(gap <= 0 for gap in islice(gaps, 4, 8))
        return all(ok for name, ok in subs.items() if name != "two_wmax_le_a_plus_c"), subs
    return all(subs.values()), subs


def _certificate(n, den, a_num, b_num, c_num, x_runs, y_runs, x_total, y_total) -> MajorizationCertificate:
    """The prefix walk and the scalar ledger of one instance, given as plain run lists of one length."""
    first_violation = _first_violation(x_runs, y_runs)
    ledger_holds, subs = _ledger(n, den, a_num, b_num, c_num, x_runs, y_runs, x_total, y_total)
    # the ledger's totals entry (both equal 2^n - 1) implies the walk's (equal to each other)
    return MajorizationCertificate(
        holds=first_violation is None and ledger_holds,
        first_violation=first_violation,
        totals_equal=subs["totals"],
        sub_inequalities=subs,
    )


def build_karamata_sequences(n: int, p: Rational) -> KaramataInstance:
    """Construct the exact majorization instance for (n, p).

    Requires n >= 2 and rational p in [0, 1/2].  The returned sequences
    are descending with ties permitted (at p = 1/2 all entries of both
    sides collapse to 1/2^n).
    """
    q, den, a_num, b_num, c_num, big_k, x_runs, y_runs = _runs(n, p)
    return KaramataInstance(
        n=n, p=q, K=big_k, den=den, a_num=a_num, b_num=b_num, c_num=c_num,
        x_seq=DescendingSeq(x_runs), y_seq=DescendingSeq(y_runs),
    )


def certify_instance(inst: KaramataInstance) -> MajorizationCertificate:
    """Full certificate: prefix-sum majorization plus the scalar ledger.

    ``sub_inequalities`` holds the ledger's named comparisons.
    """
    xs, ys = inst.x_seq, inst.y_seq
    _check_lengths(xs.length, ys.length)
    return _certificate(inst.n, inst.den, inst.a_num, inst.b_num, inst.c_num, xs.runs, ys.runs,
                        xs.total_num, ys.total_num)


def certify(n: int, p: Rational) -> MajorizationCertificate:
    """The certificate of (n, p), equal to ``certify_instance(build_karamata_sequences(n, p))``.

    Runs the same construction, walk and ledger on plain run lists and
    builds no sequence or instance object.
    """
    _, den, a_num, b_num, c_num, _, x_runs, y_runs = _runs(n, p)
    total = ((1 << n) - 1) * den  # both totals, as _runs checked
    return _certificate(n, den, a_num, b_num, c_num, x_runs, y_runs, total, total)


def write_prefix_sums(n: int, p: Rational, path) -> None:
    """Dump every prefix sum of (n, p) as CSV rows: k, SL_num, SL_den, SR_num, SR_den, ok.

    SL is the sum of the first k w values (the majorized side), SR that
    of the (a, c, b) side, each in lowest terms, and ``ok`` is SL <= SR.
    The sums are kept as integer numerators over D and reduced only on
    output.

    Raises
    ------
    ValueError
        If there are more than 2^MAX_N prefixes (n >= 13), the joint
        table dump's ceiling, checked before the file is opened.
    """
    _, den, _, _, _, _, x_runs, y_runs = _runs(n, p)
    rows = sum(count for _, count in x_runs)  # the length _runs checked on both sides
    if rows > 1 << MAX_N:
        raise ValueError(f"the prefix-sum dump would write {rows} rows, more than 2^{MAX_N}")

    def lines():
        yield "k,SL_num,SL_den,SR_num,SR_den,ok\r\n"
        sl = sr = 0
        for k, (xv, yv) in enumerate(zip(_dense(x_runs), _dense(y_runs)), start=1):
            sl += yv
            sr += xv
            gl = math.gcd(sl, den)
            gr = math.gcd(sr, den)
            yield f"{k},{sl // gl},{den // gl},{sr // gr},{den // gr},{sl <= sr}\r\n"

    with open(path, "w", newline="") as fh:
        fh.writelines(lines())


def bound_equivalence_check(n: int, p: Rational) -> tuple[float, float]:
    """Compare the direct MI margin with the weighted-sum formulation.

    Returns ``(mi_minus_bound, karamata_gap)`` where ``mi_minus_bound``
    is MI - (1 - H(p)) of a single-one function from its closed-form
    profile histogram, and ``karamata_gap`` is

        [-n(n-1) + (2^n - n) 2^(n-1) (a log2 a + b log2 b)]
            - sum_i (2^n - 1) w_i log2 w_i ,

    the slack of the weighted inequality.  The two formulations satisfy
    mi_minus_bound = -karamata_gap / 2^n up to float rounding, so in
    particular they always agree on which side wins.  The function also
    reconstructs MI from the w-decomposition
    (n - (n/2^n) H(p) + ((2^n-1)/2^n) sum w log2 w) and raises if that
    disagrees with that MI beyond 1e-9.
    """
    q, den, a_num, b_num, _, big_k, _, y_runs = _runs(n, p)
    size = 1 << n
    sum_w_log_w = math.fsum(count // (size - 1) * xlog2x(num / den) for num, count in y_runs)
    lhs_w = (size - 1) * sum_w_log_w
    rhs_w = -n * (n - 1) + big_k * (xlog2x(a_num / den) + xlog2x(b_num / den))
    karamata_gap = rhs_w - lhs_w

    result = histogram_mutual_information(profile_histogram(n, Class1()), q)
    mi_minus_bound = result.mi_bits - result.bound_bits

    reconstructed = (
        n - (n / size) * binary_entropy(q) + ((size - 1) / size) * sum_w_log_w
    )
    if abs(reconstructed - result.mi_bits) > 1e-9:
        raise AssertionError(
            "MI reconstructed from the w-decomposition disagrees with the "
            f"generic engine: {reconstructed} vs {result.mi_bits}"
        )
    return mi_minus_bound, karamata_gap
