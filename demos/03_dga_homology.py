"""Homology of a differential graded algebra, degree by degree.

The running example: P_{p-1}(u) (x) E(su, l1) (x) P(m1) with the single
differential d(m1) = u^{p-2} su, extended everywhere by the signed Leibniz
rule.  Its homology is spanned by four monomial families (times E(l1)); the
dimension table below shows the survivors.
"""

from gradss import algebra as alg
from gradss.algebra import Presentation, ext, monomial_element, poly, trunc
from gradss.dga import check_d_squared, d_element, extend_derivation, homology
from gradss.thhku import full_basis_count

p = 5
pres = Presentation(
    p,
    (
        trunc("u", p - 1, (0, 2)),
        ext("su", (3, 0)),
        ext("l1", (2 * p - 1, 0)),
        poly("m1", (2 * p, 0)),
    ),
    60,
)
d = extend_derivation(
    pres, {"m1": monomial_element(pres, {"u": p - 2, "su": 1})}, 2 * p - 3
)

m1sq = monomial_element(pres, {"m1": 2})
print("d(m1^2) =", alg.element_str(pres, d_element(d, m1sq)), "(Leibniz)")
print("d^2 violations up to degree 60:", check_d_squared(d, 60))

H = homology(pres, d, 60)
print()
print(f"homology certified through total degree {H.cert_bound}")
print("degree: dimension (and the closed-form family count)")
for deg in range(0, 26):
    print(f"  {deg:3d}: {H.dim_total(deg)}   formula {full_basis_count(p, deg)}")

print()
print("representatives in degree 12:")
for n in H.columns(12):
    for rep in H.reps((n, 12 - n)):
        print(f"  {(n, 12 - n)}: {alg.element_str(pres, rep)}")
