"""The multiplicative page engine on the absolute run at p = 5.

The E2 page is built as the pipeline builds it: V(1)_* ku tensored with the
result of the relative run (steps 1 and 2).  Classes live as elements of the
E2 monomial basis on every page.  The demo walks the whole argument: infer
the only differential that can kill u^{p-2} su, certify that every earlier
page is forced to be zero, turn the page, and certify the collapse of
everything after it.
"""

from gradss import algebra as alg
from gradss.algebra import monomial_element
from gradss.specseq import (
    DifferentialSpec,
    certify_collapse,
    certify_zero_differentials,
    infer_forced_differentials,
    init_page,
    turn_page,
)
from gradss.thhku import absolute_e2, step1_tor, step2_v0

p = 5
relative_result, _ = step2_v0(step1_tor(p)[0], 60)
pres = absolute_e2(relative_result, 60)
page = init_page(pres)
u = monomial_element(pres, {"u": 1})
must_die = monomial_element(pres, {"u": p - 2, "su": 1})

candidates = infer_forced_differentials(page, must_die, permanent=[u])
print("classes that could kill u^3 su:",
      [(r, alg.element_str(pres, src)) for r, src in candidates])

while page.r < 2 * p - 3:
    cert = certify_zero_differentials(page, permanent=[u])
    print(f"page {page.r}: d = 0 because", cert.reasons)
    page = turn_page(page, [])

r, source = candidates[0]
spec = DifferentialSpec(r, source, must_die, provenance="forced")
after = turn_page(page, [spec])
print()
print(f"turned page {r}; on page {after.r}:")
print("  (3, 6) now has dimension", after.dim((3, 6)), "(u^3 su died)")
print("  (10, 0) now has dimension", after.dim((10, 0)), "(m1 died)")

collapse = certify_collapse(after)
print()
print("collapse certificate full:", collapse.full,
      "- uncertified classes near the boundary:", len(collapse.uncertified))
print("sample chart lines (page, n, m, representative):")
for bd, i, rep in after.classes():
    if sum(bd) <= 13:
        print(f"  {after.r}\t{bd[0]}\t{bd[1]}\t{alg.element_str(pres, rep)}")
