"""Set partitions under rotation: orbits, fixed points, and why m + 1.

Rotating the ground set Z/nZ by one position permutes its partitions.
Orbit sizes divide n, so for n = p^m every orbit has size a power of p,
and B_{p^m} mod p is decided entirely by the size-1 orbits.  Exactly
m + 1 partitions are fixed: the congruence-class partitions, one for
each block size p^j.  That count is the residue (m+1) mod p seen in the
modular demo.
"""

from bellshift import (
    PrimePower,
    SetPartition,
    congruence_class_partition,
    count_by_blocks,
    enumerate_partitions,
    fixed_partitions,
    orbit_decomposition,
)

print("All 15 partitions of a 4-element set, as blocks:")
for rgs in enumerate_partitions(4):
    print(f"  {SetPartition(rgs)}")

print(f"\nTallies by block count for n=4: {count_by_blocks(4)} (sums to 15)")

for p, m in [(2, 2), (3, 1), (2, 3)]:
    pp = PrimePower(p, m)
    n = pp.value
    orbits = tuple(orbit_decomposition(n))  # (representative, size) pairs
    hist: dict[int, int] = {}
    for _, size in orbits:
        hist[size] = hist.get(size, 0) + 1
    total = sum(size for _, size in orbits)
    print(f"\nRotation orbits for n = {p}^{m} = {n} "
          f"(B_{n} = {total} partitions, {len(orbits)} orbits):")
    for size in sorted(hist):
        print(f"  size {size}: {hist[size]} orbit(s)")
    fixed = fixed_partitions(pp)
    print(f"  fixed partitions ({len(fixed)}, expected m+1 = {m + 1}):")
    for part in fixed:
        print(f"    {part}")
    classes = [congruence_class_partition(pp, j) for j in range(m + 1)]
    print(f"  congruence-class partitions match: {set(fixed) == set(classes)}")
