"""Walk through the exact majorization certificate for one (n, p).

The bound for single-one functions reduces to "one explicit sequence
majorizes another".  Everything below is exact rational arithmetic;
the logarithms only appear at the very end, in the convexity step.
"""

from fractions import Fraction

from bfmi import (
    bound_equivalence_check,
    build_karamata_sequences,
    certify_instance,
    check_majorization,
    karamata_conclusion,
)

n, p = 3, Fraction(1, 8)
inst = build_karamata_sequences(n, p)

print(f"n = {n}, p = {p}")
print(f"a = {inst.a}, c = {inst.c}, b = {inst.b}, K = {inst.K}")
print(f"majorizing side  X = {inst.x_seq}")
print(f"majorized side   Y = {inst.y_seq}")
print(f"totals: {inst.x_seq.total()} = {inst.y_seq.total()} = 2^n - 1")
print()

cert = check_majorization(inst.x_seq, inst.y_seq)
print(f"every prefix sum dominated exactly: {cert.holds}")

for name, value in certify_instance(inst).sub_inequalities.items():
    print(f"  {name}: {value}")
print()

lhs, rhs = karamata_conclusion(inst.x_seq, inst.y_seq)
print(f"convexity step, g(t) = t*log2(t):  sum g(Y) = {lhs:.9f}  <=  sum g(X) = {rhs:.9f}")

mi_minus_bound, gap = bound_equivalence_check(n, p)
print(f"direct margin MI - (1 - H(p)) = {mi_minus_bound:.9f}")
print(f"weighted-sum slack            = {gap:.9f}")
print(f"scaled agreement (should be ~0): {mi_minus_bound + gap / 2**n:.3e}")
