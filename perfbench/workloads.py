"""The three workloads: inputs made from the seed, the op, and its check.

Every workload is a closed loop with one client: the next op starts after
the previous one has returned and been checked.  Checks run outside the
timed interval, except in `oracle`, whose op is itself a comparison of two
independent routes.

Op costs within a workload spread widely (the shape of the input decides
them), so a run that drew its inputs independently would see a different
cost mix on every seed, and its median would move with the seed rather than
with the code.  `thhku` and `oracle` therefore walk a fixed grid of inputs,
sorted by expected cost, in mirrored pairs (cheapest with dearest) in van der
Corput order from a seeded start; every stretch of that walk covers the whole
cost range, nearly symmetrically.  `charts` has hundreds of
ops per run and draws them from a fixed deck of command kinds instead.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import re
from pathlib import Path

# Library calls go through module attributes, so the traced run's wrappers
# (installed on these modules) see them.
from gradss import cli, dga, filtered, specseq, thhku
from gradss.algebra import Presentation, ext, monomial_element, poly, trunc

REPO = Path(__file__).resolve().parents[1]


def balanced(cards: list, rng: random.Random, count: int) -> list:
    """`count` cards from `cards` (sorted by cost), cheap and dear in pairs.

    Card i is paired with its mirror, card len - 1 - i, and the pairs are
    visited in van der Corput order (pair i at step bitreverse(i)) from a
    seeded start, wrapping around.  Any window of the result then spreads
    evenly over the sorted list, and is nearly symmetric about its middle,
    so the median and mean cost of a window hardly depend on where it starts.
    """
    half = (len(cards) + 1) // 2
    pairs = [(cards[i], cards[-1 - i]) if i != len(cards) - 1 - i else (cards[i],)
             for i in range(half)]
    bits = max(1, (half - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    order = [i for i in order if i < half]
    start = rng.randrange(len(order))
    out: list = []
    step = 0
    while len(out) < count:
        out.extend(pairs[order[(start + step) % len(order)]])
        step += 1
    return out[:count]


# ------------------------------------------------------------------ thhku

class Thhku:
    """The flagship `reproduce thh-ku` at p = 5, one box size per op.

    A box holds every relation (none skipped or beyond truncation) from
    N = 88 at p = 5 but only from N = 176 at p = 7, where an op takes 8 to
    11 s, so a run would hold three or four ops, too few for a steady median.
    The boxes N = 100..107, around the acceptance box N = 103, cost 0.7 to
    1.4 s an op, within a factor of two, so a run of about thirty ops walks
    the grid several times and its median hardly depends on the seed.
    Consecutive ops differ in N; a box recurs every eight ops, so result
    caching across calls would show as dga.verify_presentation_iso.calls
    below 1 per op in the traced run.
    """

    name = "thhku"
    prime = 5
    boxes = list(range(100, 108))
    max_ops_per_s = 1.5
    trace_ops_per_s = 0.5

    def inputs(self, seed: int, count: int, workdir: Path) -> list:
        return balanced(self.boxes, random.Random(seed), count)

    def op(self, N):
        return thhku.reproduce_thh_ku(self.prime, N)

    def check(self, N, report) -> str | None:
        if not report.ok:
            return "report is not ok"
        step3 = report.steps[-1]
        certs = {c["kind"]: c for c in step3.certificates}
        if certs["presentation-iso"]["skipped_relations"]:
            return "presentation-iso skipped relations"
        abutment = certs["abutment"]
        if abutment["unresolved"] or abutment["beyond_truncation"]:
            return "abutment left relations unresolved or beyond the box"
        totals: dict = {}
        for key, dim in abutment["einf_dims"].items():
            n, m = map(int, key.split(","))
            totals[n + m] = totals.get(n + m, 0) + dim
        for d in range(step3.cert_bound + 1):
            want = thhku.full_basis_count(self.prime, d)
            if totals.get(d, 0) != want:
                return f"E-infinity has {totals.get(d, 0)} classes in degree {d}, want {want}"
        return None


# ------------------------------------------------------------------ oracle

def _complex_dim(h, j, k, extra, N) -> int:
    """Monomials u^a s^b m^c y^d of total degree <= N: the complex's size."""
    sigma = 2 * k - (2 * j + 1)
    count = 0
    for a in range(h):
        for b in (0, 1):
            for d in (0, 1) if extra else (0,):
                rest = N - 2 * a - sigma * b - (2 * k + 1) * d
                if rest >= 0:
                    count += rest // (2 * k) + 1
    return count


class Oracle:
    """Engine pages against the exact-couple oracle on seeded filtered DGAs.

    The DGA shape is that of the repository's random_dga_instance: P_h(u),
    exterior s, polynomial m, optionally an exterior y, d(m) = u^j s on page
    2j + 1, N in [6k, 8k].  The grid keeps k <= 3 so that a run holds several
    dozen ops; larger k only repeats the same code on bigger complexes.
    """

    name = "oracle"
    max_ops_per_s = 10.0
    trace_ops_per_s = 1.0

    def __init__(self):
        cards = []
        for h in (2, 3, 4):
            for j in range(1, h):
                for k in range(j + 1, min(j + 3, 3) + 1):
                    for extra in (False, True):
                        for t in range(5):
                            N = 6 * k + (2 * k * t) // 4
                            cards.append((h, j, k, extra, N))
        cards.sort(key=lambda c: (_complex_dim(*c) * c[4], c))
        self.cards = cards

    def inputs(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        return [(rng.choice((5, 7)),) + card for card in balanced(self.cards, rng, count)]

    def op(self, card):
        p, h, j, k, extra, N = card
        r = 2 * j + 1
        gens = [trunc("u", h, (0, 2)), ext("s", (2 * k - r, 0)), poly("m", (2 * k, 0))]
        if extra:
            gens.append(ext("y", (2 * k + 1, 0)))
        pres = Presentation(p, tuple(gens), N)
        image = monomial_element(pres, {"u": j, "s": 1})
        spec = specseq.DifferentialSpec(r, monomial_element(pres, {"m": 1}), image)
        fc = filtered.realize_filtered_dga(pres, dga.extend_derivation(pres, {"m": image}, r), N)
        run = filtered.exact_couple_run(fc, r_max=r + 2)
        mismatches = []
        page = specseq.init_page(pres)
        while page.r <= r + 2:
            bound = page.cert_bound
            engine = {bd: v for bd, v in page.dims_by_bidegree().items() if sum(bd) <= bound}
            oracle = {bd: v for bd, v in run.page_dims(page.r).items() if v and sum(bd) <= bound}
            if engine != oracle:
                mismatches.append(f"page {page.r} dims differ")
            page = specseq.turn_page(page, [spec] if page.r == r else [])
        for d, (got, want, same) in filtered.compare_with_total_homology(fc, run).items():
            if not same:
                mismatches.append(f"degree {d}: E-infinity {got}, homology {want}")
        return mismatches

    def check(self, card, mismatches) -> str | None:
        return "; ".join(mismatches) or None


# ------------------------------------------------------------------ charts

def _brunku2_text(p: int, maxdeg: int) -> str:
    return (
        f"prime {p}\nmaxdeg {maxdeg}\n"
        f"algebra Rows {{\n  gen u trunc {p - 1} bideg 0 2 weight 1\n}}\n"
        f"algebra Columns {{\n  gen su ext bideg 3 0 weight 1\n"
        f"  gen l1 ext bideg {2 * p - 1} 0\n  gen m1 poly bideg {2 * p} 0\n}}\n"
        f"d {2 * p - 3} m1 -> u^{p - 2} su\n"
    )


def _truncated_text(p: int, h: int, maxdeg: int) -> str:
    return f"prime {p}\nmaxdeg {maxdeg}\nalgebra A {{\n  gen u trunc {h} bideg 0 2\n}}\n"


# Tor over Z_p[u] (|u| = 2) with F_p on the left, from the resolutions of
# F_p, Z_p and F_p[u]: every differential dies after tensoring with F_p.
TOR_ZPU = {
    "fp": {(0, 0): 1, (1, 0): 1, (1, 2): 1, (2, 2): 1},
    "zp": {(0, 0): 1, (1, 2): 1},
    "fpu": {(0, 0): 1, (1, 0): 1},
}

PAIR_RE = re.compile(r"\((\d+),(\d+)\): (\d+)$")


def _pairs(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        match = PAIR_RE.match(line)
        if match is None:
            raise ValueError(f"unexpected line {line!r}")
        a, b, v = map(int, match.groups())
        out[(a, b)] = v
    return out


def _chart_last_page(text: str) -> dict:
    rows = [line.split("\t") for line in text.splitlines()]
    last = max(int(row[0]) for row in rows)
    dims: dict = {}
    for row in rows:
        if int(row[0]) == last:
            bd = (int(row[1]), int(row[2]))
            dims[bd] = dims.get(bd, 0) + 1
    return dims


def _homology_dims(text: str) -> tuple:
    """(certified bound, dims by bidegree) from `gradss homology` output."""
    lines = text.splitlines()
    bound = int(lines[0].rsplit(" ", 1)[1])
    dims: dict = {}
    for line in lines[1:]:
        n, m, _, _ = line.split("\t", 3)
        dims[(int(n), int(m))] = dims.get((int(n), int(m)), 0) + 1
    return bound, dims


def _within(dims: dict, bound: int) -> dict:
    return {bd: v for bd, v in dims.items() if sum(bd) <= bound}


def _load_dense_hochschild():
    spec = importlib.util.spec_from_file_location(
        "gradss_test_oracles", REPO / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dense_hochschild


class Charts:
    """Interactive CLI traffic: one `gradss` command per op, run in process."""

    name = "charts"
    max_ops_per_s = 150.0
    trace_ops_per_s = 30.0
    deck = ["run"] * 4 + ["homology"] * 4 + ["hh"] * 3 + ["tor"] * 3 + ["oracle"] * 2
    maxdegs = list(range(100, 301, 20))
    # (h, s, t) for hh on P_h(u), in order of the bar complex size h^(s+1)
    hh_grid = sorted(
        ((h, s, t) for h in range(3, 7) for s in (1, 2, 3) for t in (16, 28)),
        key=lambda c: (c[0] ** (c[1] + 1), c[2]),
    )

    def __init__(self):
        self._written: set = set()
        self._other: dict = {}
        self._dense: dict = {}
        self.dense_hochschild = _load_dense_hochschild()

    def inputs(self, seed: int, count: int, workdir: Path) -> list:
        rng = random.Random(seed)
        # sizes of the costlier kinds walk their grids in balanced order
        sizes = {
            "run": iter(balanced(self.maxdegs, rng, count)),
            "homology": iter(balanced(self.maxdegs, rng, count)),
            "hh": iter(balanced(self.hh_grid, rng, count)),
        }
        out = []
        while len(out) < count:
            kinds = list(self.deck)
            rng.shuffle(kinds)
            out.extend(self._card(kind, rng, workdir, sizes) for kind in kinds)
        return out[:count]

    def _file(self, workdir: Path, name: str, text: str) -> str:
        path = workdir / name
        if path not in self._written:
            path.write_text(text)
            self._written.add(path)
        return str(path)

    def _card(self, kind: str, rng: random.Random, workdir: Path, sizes: dict) -> tuple:
        p = rng.choice((5, 7))
        if kind in ("run", "homology"):
            maxdeg = next(sizes[kind])
            path = self._file(workdir, f"brunku2_p{p}_{maxdeg}.ss", _brunku2_text(p, maxdeg))
            return kind, [kind, path], None
        if kind == "hh":
            h, s, t = next(sizes["hh"])
            path = self._file(workdir, f"trunc_p{p}_h{h}_{t}.ss", _truncated_text(p, h, t))
            return kind, ["hh", path, "--smax", str(s), "--tmax", str(t)], (p, h, s, t)
        if kind == "tor":
            right, top = rng.choice(sorted(TOR_ZPU)), rng.randrange(10, 201)
            argv = ["tor", "--base", "zpu", "--left", "fp", "--right", right,
                    "--max", str(top), "--prime", str(p)]
            return kind, argv, (right, top)
        cases = rng.randint(2, 4)
        argv = ["oracle", "filtered", "--seed", str(rng.randrange(10**6)),
                "--cases", str(cases), "--prime", str(p)]
        return kind, argv, cases

    def op(self, card):
        _, argv, _ = card
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
        return code, out.getvalue()

    def _run_and_homology(self, path: str) -> tuple:
        """Last chart page and homology of one file, from the other command."""
        if path not in self._other:
            _, chart = self.op(("run", ["run", path], None))
            _, hom = self.op(("homology", ["homology", path], None))
            self._other[path] = (_chart_last_page(chart), _homology_dims(hom))
        return self._other[path]

    def expected_hh(self, p, h, s, t) -> dict:
        key = (p, h, s, t)
        if key not in self._dense:
            self._dense[key] = self.dense_hochschild(p, h, 2, s, t)
        return self._dense[key]

    def expected_tor(self, right, top) -> dict:
        return {bd: v for bd, v in TOR_ZPU[right].items() if bd[1] <= top}

    def check(self, card, result) -> str | None:
        kind, argv, meta = card
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if kind in ("run", "homology"):
            chart, (bound, hom) = self._run_and_homology(argv[1])
            if kind == "run":
                chart = _chart_last_page(text)
            else:
                bound, hom = _homology_dims(text)
            if _within(chart, bound) != _within(hom, bound):
                return "last chart page and homology disagree inside the certified range"
            return None
        if kind == "hh":
            return None if _pairs(text) == self.expected_hh(*meta) else "HH differs from the dense bar complex"
        if kind == "tor":
            return None if _pairs(text) == self.expected_tor(*meta) else "Tor differs from the closed form"
        last = text.splitlines()[-1]
        return None if last == f"{meta}/{meta} converged" else f"oracle printed {last!r}"


WORKLOADS = {w.name: w for w in (Thhku, Oracle, Charts)}
