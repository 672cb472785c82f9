"""Line-oriented presentation files: parser and normalizing printer.

Grammar (whitespace-separated tokens, '#' starts a comment):

    file    := header block* diff*
    header  := "prime" INT NL "maxdeg" INT NL
    block   := "algebra" NAME "{" genline+ "}"
    genline := "gen" NAME kind "bideg" INT INT ["weight" INT] NL
    kind    := "poly" | "ext" | "trunc" INT
    diff    := "d" INT NAME "->" expr NL
    expr    := "0" | term ("+" term)*
    term    := [INT] factor+;  factor := NAME["^"INT]

A file parses to exactly one presentation (all blocks are tensored together in
order) plus a list of page differentials.  An image's terms are summed mod p
into one element, built once: a monomial whose coefficients sum to 0 mod p
drops out before homogeneity is checked, so the terms' order never matters,
and an image whose coefficients all vanish is the zero image and prints as
"0".  Every refusal is a ParseError naming its line.  The printer emits the
normalized single-block form; parse-print-parse is the identity on the parsed
data, and `run` treats the printed file as it treats the original.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import algebra as alg
from .algebra import Presentation, ext, poly, trunc
from .dga import d_target
from .linfp import check_prime
from .specseq import DifferentialSpec

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class ParsedFile:
    presentation: Presentation
    differentials: list


def _tokenize(text: str):
    """(line number, tokens) for every nonempty line, comments stripped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"expected an integer {what}, got {tok!r}")


def _name(tok: str, line: int) -> str:
    if not NAME_RE.match(tok):
        raise ParseError(line, f"invalid name {tok!r}")
    return tok


def _parse_factor(tok: str, line: int):
    if "^" in tok:
        name, _, exp = tok.partition("^")
        return _name(name, line), _int(exp, line, "exponent")
    return _name(tok, line), 1


def parse_expression(pres: Presentation, tokens: list, line: int):
    """expr := "0" | term ("+" term)*, evaluated to an element of pres."""
    if tokens == ["0"]:
        return alg.ZERO
    terms = [[]]
    for tok in tokens:
        if tok == "+":
            if not terms[-1]:
                raise ParseError(line, "empty term before '+'")
            terms.append([])
        else:
            terms[-1].append(tok)
    if not terms[-1]:
        raise ParseError(line, "empty term in expression")
    coeffs: dict = {}
    for term in terms:
        coeff = 1
        if term and term[0].lstrip("-").isdigit():
            coeff = _int(term[0], line, "coefficient")
            term = term[1:]
        if not term:
            raise ParseError(line, "term has no generator factors")
        exponents: dict = {}
        for tok in term:
            name, e = _parse_factor(tok, line)
            exponents[name] = exponents.get(name, 0) + e
        try:
            mono = pres.monomial(exponents)
        except (KeyError, ValueError) as err:
            raise ParseError(line, str(err))
        coeffs[mono] = coeffs.get(mono, 0) + coeff
    try:
        return alg.element(pres, coeffs)
    except ValueError as err:
        raise ParseError(line, str(err))


def parse(text: str) -> ParsedFile:
    """Parse a presentation file; diagnostics carry the offending line."""
    lines = list(_tokenize(text))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(lines) + 1, "unexpected end of file")
        out = lines[pos]
        pos += 1
        return out

    ln, toks = take() if lines else (1, [])
    if not lines or toks[0] != "prime" or len(toks) != 2:
        raise ParseError(ln if lines else 1, "missing prime declaration")
    p = _int(toks[1], ln, "prime")
    try:
        check_prime(p, alg.LEAST_PRIME)
    except ValueError as err:
        raise ParseError(ln, str(err)) from None
    ln, toks = take()
    if toks[0] != "maxdeg" or len(toks) != 2:
        raise ParseError(ln, "missing maxdeg declaration")
    maxdeg = _int(toks[1], ln, "maxdeg")
    if maxdeg < 0:
        raise ParseError(ln, "max_degree must be non-negative")

    gens = []
    gen_lines = {}
    diff_lines = []
    seen_diff = False
    while pos < len(lines):
        ln, toks = take()
        if toks[0] == "algebra":
            if seen_diff:
                raise ParseError(ln, "algebra block after differential lines")
            if len(toks) != 3 or toks[2] != "{":
                raise ParseError(ln, "expected: algebra NAME {")
            _name(toks[1], ln)
            closed = False
            block_had_gen = False
            while pos < len(lines):
                ln2, toks2 = take()
                if toks2 == ["}"]:
                    closed = True
                    break
                if toks2[0] != "gen":
                    raise ParseError(ln2, f"expected a gen line, got {toks2[0]!r}")
                gens.append(_parse_genline(toks2, ln2))
                gen_lines[gens[-1].name] = ln2
                block_had_gen = True
            if not closed:
                raise ParseError(ln, "unclosed algebra block")
            if not block_had_gen:
                raise ParseError(ln, "algebra block has no generators")
        elif toks[0] == "d":
            seen_diff = True
            diff_lines.append((ln, toks))
        else:
            raise ParseError(ln, f"unexpected token {toks[0]!r}")

    names = [g.name for g in gens]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(gen_lines[name], f"duplicate generator {name!r}")
    try:
        pres = Presentation(p, tuple(gens), maxdeg)
    except ValueError as err:
        raise ParseError(min(gen_lines.values(), default=1), str(err))

    diffs = []
    for ln, toks in diff_lines:
        if len(toks) < 5 or toks[3] != "->":
            raise ParseError(ln, "expected: d PAGE NAME -> expr")
        page = _int(toks[1], ln, "page")
        if page < 2:
            raise ParseError(ln, f"page {page} must be >= 2")
        name = _name(toks[2], ln)
        if name not in names:
            raise ParseError(ln, f"unknown generator {name!r}")
        g = pres.gen(name)
        image = parse_expression(pres, toks[4:], ln)
        bd = alg.bidegree_of(pres, image)
        want = d_target(g.bidegree, page)
        if bd is not None and bd != want:
            raise ParseError(
                ln,
                f"d_{page}({name}) must land in bidegree {want}, got {bd}",
            )
        source = alg.element(pres, {pres.monomial({name: 1}): 1})
        diffs.append(DifferentialSpec(page, source, image))
    return ParsedFile(pres, diffs)


def _parse_genline(toks: list, line: int):
    # gen NAME kind bideg INT INT [weight INT]
    if len(toks) < 3:
        raise ParseError(line, "truncated gen line")
    name = _name(toks[1], line)
    kind = toks[2]
    rest = toks[3:]
    height = None
    if kind == "trunc":
        if not rest:
            raise ParseError(line, "trunc needs a height")
        height = _int(rest[0], line, "height")
        rest = rest[1:]
    elif kind not in ("poly", "ext"):
        raise ParseError(line, f"unknown kind {kind!r}")
    if len(rest) < 3 or rest[0] != "bideg":
        raise ParseError(line, "expected: bideg INT INT")
    n = _int(rest[1], line, "column")
    m = _int(rest[2], line, "row")
    rest = rest[3:]
    weight = 0
    if rest:
        if len(rest) != 2 or rest[0] != "weight":
            raise ParseError(line, "expected: weight INT")
        weight = _int(rest[1], line, "weight")
    try:
        if kind == "poly":
            return poly(name, (n, m), weight)
        if kind == "ext":
            return ext(name, (n, m), weight)
        return trunc(name, height, (n, m), weight)
    except ValueError as err:
        raise ParseError(line, str(err))


def print_file(parsed: ParsedFile) -> str:
    """Normalized text form: one block, weights only when nonzero."""
    pres = parsed.presentation
    out = [f"prime {pres.p}", f"maxdeg {pres.max_degree}"]
    if pres.generators:
        out.append("algebra A {")
        for g in pres.generators:
            kind = {"polynomial": "poly", "exterior": "ext", "truncated": "trunc"}[
                g.kind
            ]
            if g.kind == "truncated":
                kind = f"trunc {g.height}"
            piece = f"  gen {g.name} {kind} bideg {g.bidegree[0]} {g.bidegree[1]}"
            if g.weight:
                piece += f" weight {g.weight}"
            out.append(piece)
        out.append("}")
    for spec in parsed.differentials:
        name = spec.source_generator(pres)
        out.append(f"d {spec.page} {name} -> {alg.element_str(pres, spec.image)}")
    return "\n".join(out) + "\n"
