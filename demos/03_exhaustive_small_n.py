"""Scan every Boolean function of 2, 3 and 4 variables against the bound.

For each p the maximum MI over all 2^(2^n) truth tables is compared to
1 - H(p), and the maximizing orbits are reported in canonical form.
The dictator orbit tops the ranking at every p < 1/2.
"""

from fractions import Fraction

from bfmi import Dictator, canonical_form, exhaustive_check, make_class

P_GRID = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]

for n in (2, 3, 4):
    print(f"== n = {n}: {2 ** (2 ** n)} functions ==")
    dictator_canon = canonical_form(make_class(n, Dictator(1)))
    for s in exhaustive_check(n, P_GRID):
        attained = dictator_canon in s.argmax_canonical_tables
        print(
            f"  p = {str(s.p):>4}: max MI = {s.max_mi_bits:.9f}, "
            f"bound = {s.bound_bits:.9f}, margin = {s.max_margin:+.2e}, "
            f"argmax orbits = {len(s.argmax_canonical_tables)}"
            f"{' (incl. dictator)' if attained else ''}"
        )
    print()
