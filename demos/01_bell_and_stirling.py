"""Exact Bell and Stirling tables, and the two recurrences that build them.

B_n counts the partitions of an n-element set; {n, k} counts those with
exactly k blocks.  The package builds both from scratch with exact
integers: the Stirling triangle by its two-term recurrence, and the Bell
table either by summing triangle rows or directly by the binomial
convolution B_{n+1} = sum_d B_d * C(n, n-d).
"""

from bellshift import bell_from_stirling, build_bell_binomial, build_stirling

tri = build_stirling(8)
print("Stirling triangle, rows 0..8 (k = 0..n):")
for n, row in enumerate(tri):
    print(f"  n={n}: {list(row)}")

bell = build_bell_binomial(20)
print("\nBell numbers from the binomial recurrence:")
print(" ", list(bell[:11]))

print("\nRow sums of the triangle give the same sequence:")
print(" ", [bell_from_stirling(tri, n) for n in range(9)])

big = build_bell_binomial(100)
print(f"\nThe tables are exact at any depth: B_100 has "
      f"{len(str(big[100]))} digits,")
print(f"  B_100 = {big[100]}")
