"""Finite-type bigraded graded-commutative F_p-algebra presentations.

A presentation is an ordered list of generators, each polynomial, exterior or
truncated, with a first-quadrant bidegree (n, m) and a weight residue mod p-1.
Monomials are exponent tuples in generator order; elements are homogeneous
F_p-combinations of monomials.  Enumeration is bounded by the presentation's
max total degree N, and any product that would land past N raises
BeyondTruncation rather than being dropped silently.  Each monomial's bidegree
and its position in the basis of its bidegree are computed once and kept on
the presentation, and so is each algebra map out of it (monomial_map) and
each derivation on it (dga.extend_derivation).  A map evaluates a monomial on
exponent tuples into a {monomial: coefficient} dict, no Element built.  A
relation is one RelationSpec, built as an element once per presentation.

Conventions: column n is the filtration degree, row m the coefficient degree.
Koszul signs use the total degree n + m.  p is an odd prime >= 5, so exterior
generators are exactly the odd-degree ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import add as _add

from .linfp import check_index, check_prime

LEAST_PRIME = 5  # the least prime of every presentation and every pipeline run

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
TRUNCATED = "truncated"

Monomial = tuple  # exponent tuple aligned with Presentation.generators
Bidegree = tuple  # (n, m)


class BeyondTruncation(Exception):
    """A product landed beyond the presentation's enumeration bound."""

    def __init__(self, total_degree, bound):
        super().__init__(
            f"product of total degree {total_degree} exceeds the bound {bound}"
        )
        self.total_degree = total_degree
        self.bound = bound


@dataclass(frozen=True)
class GeneratorSpec:
    """One algebra generator: name, kind, bidegree (n, m), weight mod p-1."""

    name: str
    kind: str
    bidegree: Bidegree
    weight: int = 0
    height: int | None = None  # truncation height, only for kind "truncated"

    def __post_init__(self):
        n, m = self.bidegree
        if n < 0 or m < 0:
            raise ValueError(f"generator {self.name}: bidegree outside first quadrant")
        if n + m == 0:
            raise ValueError(f"generator {self.name}: total degree must be positive")
        if self.kind == EXTERIOR:
            if (n + m) % 2 == 0:
                raise ValueError(
                    f"generator {self.name}: exterior generator of even total degree"
                )
            if self.height is not None:
                raise ValueError(f"generator {self.name}: exterior has no height")
        elif self.kind in (POLYNOMIAL, TRUNCATED):
            if (n + m) % 2 == 1:
                raise ValueError(
                    f"generator {self.name}: even-kind generator of odd total degree"
                )
            if self.kind == TRUNCATED:
                if self.height is None or self.height < 2:
                    raise ValueError(
                        f"generator {self.name}: truncation height must be >= 2"
                    )
            elif self.height is not None:
                raise ValueError(f"generator {self.name}: polynomial has no height")
        else:
            raise ValueError(f"generator {self.name}: unknown kind {self.kind!r}")

    @property
    def total_degree(self) -> int:
        return self.bidegree[0] + self.bidegree[1]

    @property
    def odd(self) -> bool:
        return self.total_degree % 2 == 1


def poly(name, bidegree, weight=0):
    return GeneratorSpec(name, POLYNOMIAL, tuple(bidegree), weight)


def ext(name, bidegree, weight=0):
    return GeneratorSpec(name, EXTERIOR, tuple(bidegree), weight)


def trunc(name, height, bidegree, weight=0):
    return GeneratorSpec(name, TRUNCATED, tuple(bidegree), weight, height)


@dataclass(frozen=True)
class Presentation:
    """Bigraded graded-commutative F_p-algebra, enumerated up to degree N.

    Each generator is stored with its weight reduced mod p - 1.
    """

    p: int
    generators: tuple
    max_degree: int
    # per generator, derived once: total degree, odd flag, exponent cap
    # (exponents must stay below it; None for polynomial generators)
    degrees: tuple = field(init=False, repr=False, compare=False)
    odd: tuple = field(init=False, repr=False, compare=False)
    caps: tuple = field(init=False, repr=False, compare=False)
    # plain-value identity, hashed once: monomial_table's cache hashes and
    # compares the presentation on every lookup
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    # per-monomial facts, filled on first use and gone with the presentation:
    # monomial -> bidegree, and bidegree -> {monomial: position in its basis}
    _bidegrees: dict = field(init=False, repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)
    # objects built on the presentation, keyed by what built them: monomial
    # maps out of it, derivations on it and relation elements in it, also
    # gone with the presentation; _index maps a generator name to its position
    _built: dict = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = check_prime(self.p, LEAST_PRIME)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "max_degree", check_index(self.max_degree, "max degree"))
        gens = tuple(replace(g, weight=g.weight % (p - 1)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        key = (self.p, self.max_degree, tuple(
            (g.name, g.kind, g.bidegree, g.weight, g.height) for g in gens
        ))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_bidegrees", {})
        object.__setattr__(self, "_positions", {})
        object.__setattr__(self, "_built", {})
        object.__setattr__(self, "degrees", tuple(g.total_degree for g in gens))
        object.__setattr__(self, "odd", tuple(g.odd for g in gens))
        object.__setattr__(
            self, "caps", tuple(2 if g.kind == EXTERIOR else g.height for g in gens)
        )
        index = {g.name: i for i, g in enumerate(gens)}
        object.__setattr__(self, "_index", index)
        if len(index) != len(gens):
            raise ValueError("generator names must be unique")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._hash

    def index(self, name: str) -> int:
        return self._index[name]

    def gen(self, name: str) -> GeneratorSpec:
        return self.generators[self.index(name)]

    @property
    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def monomial(self, exponents: dict) -> Monomial:
        """Monomial from a name -> exponent mapping; bounds are checked."""
        e = [0] * len(self.generators)
        for name, k in exponents.items():
            i = self.index(name)
            if k < 0 or (self.caps[i] is not None and k >= self.caps[i]):
                raise ValueError(f"exponent {k} out of range for {name}")
            e[i] = k
        return tuple(e)


class Element:
    """Homogeneous F_p-linear combination of monomials of one bidegree.

    Zero coefficients are never stored; the zero element has no monomials and
    belongs to every bidegree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = dict(coeffs) if coeffs else {}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Element({self.coeffs!r})"

    def items(self):
        return self.coeffs.items()


ZERO = Element()


def element(pres: Presentation, pairs) -> Element:
    """Build an Element, normalizing coefficients mod p and checking homogeneity."""
    coeffs = {}
    for mono, c in dict(pairs).items():
        c %= pres.p
        if c:
            coeffs[tuple(mono)] = c
    el = Element(coeffs)
    bidegree_of(pres, el)  # homogeneity check
    return el


def monomial_element(pres: Presentation, exponents: dict, coeff: int = 1) -> Element:
    return element(pres, {pres.monomial(exponents): coeff})


def bidegree(pres: Presentation, mono: Monomial) -> Bidegree:
    """The bidegree of a monomial, computed once per presentation."""
    bd = pres._bidegrees.get(mono)
    if bd is None:
        n = m = 0
        for e, g in zip(mono, pres.generators):
            n += e * g.bidegree[0]
            m += e * g.bidegree[1]
        bd = pres._bidegrees[mono] = (n, m)
    return bd


def total_degree(pres: Presentation, mono: Monomial) -> int:
    n, m = bidegree(pres, mono)
    return n + m


def bidegree_of(pres: Presentation, el: Element) -> Bidegree | None:
    """Common bidegree of a nonzero element, None for zero; raises if mixed."""
    bd = None
    for mono in el.coeffs:
        b = bidegree(pres, mono)
        if bd is None:
            bd = b
        elif bd != b:
            raise ValueError(f"inhomogeneous element: bidegrees {bd} and {b}")
    return bd


def weight_of(pres: Presentation, mono: Monomial) -> int:
    """Weight of a monomial in Z/(p-1): sum of exponent * generator weight."""
    return sum(e * g.weight for e, g in zip(mono, pres.generators)) % (pres.p - 1)


def weight_of_element(pres: Presentation, el: Element) -> int | None:
    """Common weight of the monomials of el, or None if they disagree."""
    w = None
    for mono in el.coeffs:
        wm = weight_of(pres, mono)
        if w is None:
            w = wm
        elif w != wm:
            return None
    return w


def multiply_monomials(pres: Presentation, a: Monomial, b: Monomial):
    """(sign, monomial) for a*b, or (0, None) when the product vanishes.

    The sign is the Koszul sign from moving the odd-degree factors of b past
    the later odd-degree factors of a into generator order.
    """
    out = tuple(map(_add, a, b))
    for e, cap in zip(out, pres.caps):
        if cap is not None and e >= cap:
            return 0, None
    swaps = 0
    later = 0  # odd-degree factors of a in the slots after the current one
    for x, y, odd in zip(reversed(a), reversed(b), reversed(pres.odd)):
        if odd:
            swaps += y * later
            later += x
    return (-1 if swaps & 1 else 1), out


def multiply(pres: Presentation, a: Element, b: Element) -> Element:
    """Product in the presented algebra.

    Raises BeyondTruncation when the target degree exceeds the bound, so a
    vanishing product past the bound is never mistaken for a real zero.
    """
    if not a or not b:
        return ZERO
    da = total_degree(pres, next(iter(a.coeffs)))
    db = total_degree(pres, next(iter(b.coeffs)))
    if da + db > pres.max_degree:
        raise BeyondTruncation(da + db, pres.max_degree)
    coeffs: dict = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            sign, mono = multiply_monomials(pres, ma, mb)
            if sign == 0:
                continue
            coeffs[mono] = (coeffs.get(mono, 0) + sign * ca * cb) % pres.p
    return Element({m: c for m, c in coeffs.items() if c})


def monomial_map(source: Presentation, target: Presentation, images: dict):
    """The algebra map source -> target fixed by generator images, on monomials.

    Returns a memoized f with f(1) = 1 and f(m) = f(m / g) * images[g] for g
    the last generator dividing m, as a {monomial: coefficient} dict without
    zeros: the factors are multiplied left to right in generator order, one
    product per new monomial by multiply_monomials, reduced mod p once.  A
    nonzero product past the target's box raises BeyondTruncation.  Equal
    target and generator images give the same f, kept on the source
    presentation, so every caller shares its cache.
    """
    gen_images = tuple(images[g.name] for g in source.generators)
    key = ("monomial_map", target, gen_images)
    if key in source._built:
        return source._built[key]
    p, bound = target.p, target.max_degree
    # each image's terms and total degree, read once
    factors = [(tuple(img.items()), total_degree(target, min(img.coeffs)) if img else 0)
               for img in gen_images]
    cache = {source.unit_monomial: {target.unit_monomial: 1}}

    def f(mono: Monomial) -> dict:
        chain = []  # (monomial, its last generator), peeled down to a cached one
        while mono not in cache:
            i = len(mono) - 1
            while not mono[i]:
                i -= 1
            chain.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
        out = cache[mono]
        for mono, i in reversed(chain):
            terms, d = factors[i]
            prod: dict = {}
            if out and terms:
                d += total_degree(target, next(iter(out)))
                if d > bound:
                    raise BeyondTruncation(d, bound)
                for ma, ca in out.items():
                    for mb, cb in terms:
                        sign, m = multiply_monomials(target, ma, mb)
                        if sign:
                            prod[m] = prod.get(m, 0) + sign * ca * cb
            out = cache[mono] = {m: r for m, c in prod.items() if (r := c % p)}
        return out

    source._built[key] = f
    return f


@dataclass(frozen=True)
class RelationSpec:
    """lhs = sum c * rhs on generator names: lhs is a tuple of (name,
    exponent), rhs a tuple of (coefficient, lhs-style monomial), empty for
    lhs = 0.  Exponents may exceed the kind bounds (u^{p-1}, a^2)."""

    label: str
    lhs: tuple
    rhs: tuple = ()

    def monomial(self, pres: Presentation, factors) -> Monomial:
        """factors, a tuple like lhs, as an exponent tuple of pres."""
        e = [0] * len(pres.generators)
        for name, k in factors:
            try:
                e[pres.index(name)] += k
            except KeyError:
                raise ValueError(f"relation {self.label}: unknown generator {name}") from None
        return tuple(e)

    def element(self, pres: Presentation) -> Element:
        """lhs - sum c * rhs in pres, equal monomials summed mod p; ValueError,
        naming the label, when the terms' bidegrees differ.  Built once per
        presentation and kept on it, so every certificate reads one element."""
        key = ("relation", self)
        if key not in pres._built:
            coeffs = {}
            for c, factors in [(1, self.lhs), *((-c, mono) for c, mono in self.rhs)]:
                mono = self.monomial(pres, factors)
                coeffs[mono] = coeffs.get(mono, 0) + c
            if len({bidegree(pres, mono) for mono in coeffs}) > 1:
                raise ValueError(f"relation {self.label}: terms of different bidegrees")
            pres._built[key] = element(pres, coeffs)
        return pres._built[key]


@lru_cache(maxsize=None)
def monomial_table(pres: Presentation):
    """All admissible monomials of total degree <= N, grouped by bidegree.

    Within a bidegree the order is lexicographic on exponent tuples, which is
    graded-lex here since all monomials of one bidegree share a total degree.
    """
    gens = pres.generators
    table: dict = {}

    def rec(i, expo, n, m):
        if i == len(gens):
            table.setdefault((n, m), []).append(tuple(expo))
            return
        dn, dm = gens[i].bidegree
        d = dn + dm
        for e in range(pres.caps[i] or (pres.max_degree - n - m) // d + 1):
            if n + m + e * d > pres.max_degree:
                break
            expo.append(e)
            rec(i + 1, expo, n + e * dn, m + e * dm)
            expo.pop()

    rec(0, [], 0, 0)
    for key in table:
        table[key].sort()
    return table


def standard_monomials(pres: Presentation, leads, bound: int) -> dict:
    """Monomials of total degree <= bound divisible by no lead, by bidegree.

    They form an order ideal, m is standard iff it is not a lead and every
    m / g is standard, grown one generator at a time: each standard monomial
    over the earlier generators is raised in the new one until that fails.
    The list stays in lex order, so every m / g is decided before m; only the
    standard monomials and one refusal each are visited.

    A monomial is tested by its mixed-radix code, sum of e_j * place_j with
    radix_j one past the largest exponent the walk can reach, so m / g_j is
    code - place_j.  A lead outside those radices is never reached, and is
    dropped before its code could alias one that is.
    """
    radix = [max(1, cap or bound // d + 1) for d, cap in zip(pres.degrees, pres.caps)]
    place = [1]
    for r in radix[:-1]:
        place.append(place[-1] * r)
    lead_codes = {
        sum(e * w for e, w in zip(lead, place))
        for lead in set(leads)
        if all(e < r for e, r in zip(lead, radix))
    }
    # (monomial, total degree, code, places of the generators dividing it)
    standard = [] if 0 in lead_codes else [(pres.unit_monomial, 0, 0, ())]
    seen = {0} if standard else set()
    for i, (d, cap, w) in enumerate(zip(pres.degrees, pres.caps, place)):
        grown = []
        for mono, deg, code, below in standard:
            grown.append((mono, deg, code, below))
            for e in range(1, cap or bound // d + 1):
                c = code + e * w
                # m / g_i is the monomial grown just before m
                if deg + e * d > bound or c in lead_codes or any(
                    c - v not in seen for v in below
                ):
                    break
                seen.add(c)
                grown.append((mono[:i] + (e,) + mono[i + 1 :], deg + e * d, c, below + (w,)))
        standard = grown
    table: dict = {}
    for mono, *_ in standard:
        table.setdefault(bidegree(pres, mono), []).append(mono)
    return table


def basis_in_bidegree(pres: Presentation, bd: Bidegree) -> list:
    """Admissible monomials of the given bidegree, in the fixed order.

    The list is the monomial table's own; callers must not mutate it.
    """
    n, m = bd
    if n + m > pres.max_degree:
        raise BeyondTruncation(n + m, pres.max_degree)
    return monomial_table(pres).get((n, m), [])


def basis_positions(pres: Presentation, bd: Bidegree) -> dict:
    """{monomial: its position in basis_in_bidegree(pres, bd)}, built once."""
    index = pres._positions.get(bd)
    if index is None:
        basis = basis_in_bidegree(pres, bd)
        index = pres._positions[bd] = {m: i for i, m in enumerate(basis)}
    return index


def dimension_series(pres: Presentation, n_max: int) -> list[int]:
    """Dimensions of the algebra per total degree 0..n_max."""
    if n_max > pres.max_degree:
        raise BeyondTruncation(n_max, pres.max_degree)
    dims = [0] * (n_max + 1)
    for (n, m), monos in monomial_table(pres).items():
        if n + m <= n_max:
            dims[n + m] += len(monos)
    return dims


def monomial_str(pres: Presentation, mono: Monomial) -> str:
    parts = []
    for e, g in zip(mono, pres.generators):
        if e == 1:
            parts.append(g.name)
        elif e > 1:
            parts.append(f"{g.name}^{e}")
    return " ".join(parts) if parts else "1"


def element_str(pres: Presentation, el: Element) -> str:
    if not el:
        return "0"
    terms = []
    for mono in sorted(el.coeffs):
        c = el.coeffs[mono] % pres.p
        ms = monomial_str(pres, mono)
        if c == 1 and ms != "1":
            terms.append(ms)
        elif ms == "1":
            terms.append(str(c))
        else:
            terms.append(f"{c} {ms}")
    return " + ".join(terms)
