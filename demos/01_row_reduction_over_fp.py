"""Exact linear algebra over F_p: the layer everything else stands on.

Row reduction, kernels and subquotient representatives are all deterministic:
leftmost pivot, topmost row, representatives greedily chosen from the input.
"""

import numpy as np

from gradss.linfp import Subquotient, kernel_basis, rank, rref

# a matrix over F_p is the pair (p, a) with `a` any 2-d integer array
p = 5
m = np.array([[2, 4, 1], [1, 2, 3], [0, 0, 2]])
red, pivots = rref(p, m)
print("matrix over F_5:")
print(m)
print("reduced row-echelon form (pivots", pivots, "):")
print(red)
print("rank:", rank(p, m), " kernel:", [v.tolist() for v in kernel_basis(p, m)])

print()
print("a subquotient: cycles e1, e2 modulo the boundary e1 + e2")
e = np.eye(3, dtype=np.int64)
sq = Subquotient(p, 3, [e[0], e[1]], [(e[0] + e[1]) % p])
print("representatives:", [v.tolist() for v in sq.reps])
print("one class survives, as the dimension count 2 - 1 says it must")
print("e2 in that class's coordinates:", sq.coords(e[1]).tolist(), "(e2 = -e1 modulo e1 + e2)")
print("e1 in that class's coordinates:", sq.coords(e[0]).tolist())
print("e1 + e2 in them:", sq.coords(e[0] + e[1]).tolist(), "(zero: it is a boundary)")
print("e3 is a class:", sq.coords(e[2]) is not None)
