"""Walk through the exact majorization certificate for one (n, p).

The bound for single-one functions reduces to "one explicit sequence
majorizes another".  Everything below is exact rational arithmetic;
the logarithms only appear at the very end, in the convexity step.
"""

from fractions import Fraction
from math import comb

from bfmi import bound_equivalence_check, certify

n, p = 3, Fraction(1, 8)
size = 2**n

# the majorizing side: a repeated K times, c repeated 2^n (n-1) times, b repeated K times
a, c, b = (1 - p) / 2 ** (n - 1), Fraction(1, size), p / 2 ** (n - 1)
K = 2 ** (n - 1) * (size - n)
x_runs = [(a, K), (c, size * (n - 1)), (b, K)]
# the majorized side: shell k's value w_k repeated C(n, k) (2^n - 1) times
y_runs = [((1 - (1 - p) ** (n - k) * p**k) / (size - 1), comb(n, k) * (size - 1)) for k in range(n, -1, -1)]

print(f"n = {n}, p = {p}")
print(f"a = {a}, c = {c}, b = {b}, K = {K}")
print("majorizing side  X = " + ", ".join(f"{v}x{count}" for v, count in x_runs))
print("majorized side   Y = " + ", ".join(f"{v}x{count}" for v, count in y_runs))
print(f"totals: {sum(v * count for v, count in x_runs)} = {sum(v * count for v, count in y_runs)} = 2^n - 1")
print()

# certify builds the same two sides as integers over one denominator and walks every prefix
cert = certify(n, p)
print(f"every prefix sum dominated exactly: {cert.holds}")
for name, value in cert.sub_inequalities.items():
    print(f"  {name}: {value}")
print()

# Karamata's inequality with g(t) = t*log2(t): the slack sum g(X) - sum g(Y) is the weighted-sum gap
mi_minus_bound, gap = bound_equivalence_check(n, p)
print(f"convexity step, g(t) = t*log2(t):  sum g(X) - sum g(Y) = {gap:.9f} >= 0")
print(f"direct margin MI - (1 - H(p)) = {mi_minus_bound:.9f}")
print(f"scaled agreement (should be ~0): {mi_minus_bound + gap / 2**n:.3e}")
