"""The multiplicative page engine on the absolute run at p = 5.

The E2 page is built as the pipeline builds it: V(1)_* ku tensored with the
result of the relative run (steps 1 and 2).  Classes live as elements of the
E2 monomial basis on every page.  The demo walks the whole argument through
specseq.forced_run and prints its certificates: the only differential that
can kill u^{p-2} su, every earlier page forced to be zero, the page turned,
and the collapse of everything after it.
"""

from gradss import algebra as alg
from gradss.algebra import monomial_element
from gradss.specseq import forced_run, init_page
from gradss.thhku import absolute_e2, step1_tor, step2_v0

p = 5
relative_result, _ = step2_v0(step1_tor(p)[0], 60)
pres = absolute_e2(relative_result, 60)
u = monomial_element(pres, {"u": 1})
must_die = monomial_element(pres, {"u": p - 2, "su": 1})
after, certs = forced_run(init_page(pres), must_die, permanent=[u])
(forced, _), (zero, _), (collapse, _) = certs

print("classes that could kill u^3 su:", forced["candidates"])
for cert in zero["pages"]:
    print(f"page {cert['page']}: d = 0 because", cert["reasons"])

r, _ = forced["candidates"][0]
print()
print(f"turned page {r}; on page {after.r}:")
print("  (3, 6) now has dimension", after.dim((3, 6)), "(u^3 su died)")
print("  (10, 0) now has dimension", after.dim((10, 0)), "(m1 died)")

print()
print("collapse certificate full:", collapse["full"],
      "- uncertified classes near the boundary:", len(collapse["uncertified"]))
print("sample chart lines (page, n, m, representative):")
for bd, i, rep in after.classes():
    if sum(bd) <= 13:
        print(f"  {after.r}\t{bd[0]}\t{bd[1]}\t{alg.element_str(pres, rep)}")
