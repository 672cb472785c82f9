"""Command-line surface: run, homology, tor, hh, oracle, reproduce.

Chart format (TSV): one line per class, columns r, n, m, index, representative;
index is 1-based within the bidegree.  Rows are emitted in (r, n, m, index)
order, page by page and bidegree by bidegree, not sorted afterwards, and each
class is printed straight from the cell that stores it.  Reports are JSON with
sorted keys.  All computation is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import algebra as alg
from .dga import DifferentialError, extend_derivation, homology
from .dsl import ParseError, ParsedFile, parse
from .filtered import compare_with_total_homology, exact_couple_run, random_filtered_complex
from .homalg import BaseRing, ResourceLimit, hochschild_homology, koszul_tor
from .linfp import SubquotientError
from .specseq import PageError, init_page, spec_images, turn_page
from .thhku import PipelineError, reproduce_thh_ku


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="gradss",
        description="graded-algebra and spectral-sequence computations over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the spectral sequence of a presentation file")
    p_run.add_argument("file")
    p_run.add_argument("--out", help="write the chart TSV here instead of stdout")
    p_run.add_argument("--svg", help="also write a static dot-chart")

    p_hom = sub.add_parser("homology", help="homology of the file's differential")
    p_hom.add_argument("file")

    p_tor = sub.add_parser("tor", help="Tor table over a one-variable base ring")
    p_tor.add_argument("--base", required=True, help="zpu | fpu | fpu-trunc:h")
    p_tor.add_argument("--left", required=True, choices=["fp"])
    p_tor.add_argument("--right", required=True, choices=["fp", "zp", "fpu"])
    p_tor.add_argument("--max", required=True, type=int, dest="max_internal")
    p_tor.add_argument("--prime", type=int, default=5)

    p_hh = sub.add_parser("hh", help="Hochschild homology of the file's algebra")
    p_hh.add_argument("file")
    p_hh.add_argument("--smax", required=True, type=int)
    p_hh.add_argument("--tmax", required=True, type=int)

    p_or = sub.add_parser("oracle", help="property runs on randomized inputs")
    p_or.add_argument("kind", choices=["filtered"])
    p_or.add_argument("--seed", required=True, type=int)
    p_or.add_argument("--cases", required=True, type=int)
    p_or.add_argument("--prime", type=int, default=5)

    p_rep = sub.add_parser("reproduce", help="run a shipped end-to-end computation")
    p_rep.add_argument("target", choices=["thh-ku"])
    p_rep.add_argument("--prime", required=True, type=int)
    p_rep.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    p_rep.add_argument("--report", help="write the JSON report here instead of stdout")
    return parser


def chart_rows(parsed: ParsedFile) -> list:
    """(r, n, m, index, representative) for page 2 and every post-turn page."""
    pres = parsed.presentation
    by_page: dict = {}
    for spec in parsed.differentials:
        by_page.setdefault(spec.page, []).append(spec)
    emit = sorted({2} | {r + 1 for r in by_page})
    page = init_page(pres)
    rows = []
    while True:
        if page.r in emit:
            for n, m in sorted(page.subquotients):
                for i, text in enumerate(page.class_strs((n, m)), 1):
                    rows.append((page.r, n, m, i, text))
        if page.r >= emit[-1]:
            break
        page = turn_page(page, by_page.get(page.r, []))
    return rows


def chart_tsv(rows: list) -> str:
    return "".join(f"{r}\t{n}\t{m}\t{i}\t{text}\n" for r, n, m, i, text in rows)


def chart_svg(parsed: ParsedFile) -> str:
    """Static dot-chart of the front page with the declared differentials."""
    pres = parsed.presentation
    cells = {bd: len(ms) for bd, ms in sorted(alg.monomial_table(pres).items()) if ms}
    n_max = max((n for n, _ in cells), default=0)
    m_max = max((m for _, m in cells), default=0)
    unit = 24
    pad = 30
    width = pad * 2 + unit * (n_max + 1)
    height = pad * 2 + unit * (m_max + 1)

    def x(n):
        return pad + unit * n

    def y(m):
        return height - pad - unit * m

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for spec in parsed.differentials:
        src = alg.bidegree_of(pres, spec.source)
        dst = alg.bidegree_of(pres, spec.image)
        if dst is None:
            continue
        parts.append(
            f'<line x1="{x(src[0])}" y1="{y(src[1])}" x2="{x(dst[0])}" '
            f'y2="{y(dst[1])}" stroke="red" stroke-width="1"/>'
        )
    for (n, m), count in cells.items():
        parts.append(f'<circle cx="{x(n)}" cy="{y(m)}" r="3" fill="black"/>')
        if count > 1:
            parts.append(
                f'<text x="{x(n) + 5}" y="{y(m) - 5}" font-size="10">{count}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_destination(label: str, path: str | None):
    """Refuse, before any computing, an output path that cannot be a file.

    A refused run writes nothing; an existing file is only replaced once its
    new content is complete.
    """
    if path and os.path.isdir(path):
        raise IsADirectoryError(f"{label} path {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(f"{label} path {path}: no such directory")


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    _check_destination("chart", args.out)
    _check_destination("svg", args.svg)
    with open(args.file) as fh:
        parsed = parse(fh.read())
    rows = chart_rows(parsed)
    _write(chart_tsv(rows), args.out)
    if args.svg:
        _write(chart_svg(parsed), args.svg)
    return 0


def _cmd_homology(args) -> int:
    with open(args.file) as fh:
        parsed = parse(fh.read())
    pres = parsed.presentation
    pages = {spec.page for spec in parsed.differentials}
    if len(pages) > 1:
        print("homology needs all differentials on one page", file=sys.stderr)
        return 2
    page = pages.pop() if pages else 2
    images = spec_images(pres, parsed.differentials)
    H = homology(pres, extend_derivation(pres, images, page), pres.max_degree)
    out = [f"# certified through total degree {H.cert_bound}\n"]
    for n, m in sorted(H.subquotients):
        for i, text in enumerate(H.class_strs((n, m)), 1):
            out.append(f"{n}\t{m}\t{i}\t{text}\n")
    sys.stdout.write("".join(out))
    return 0


def _parse_base(text: str, p: int) -> BaseRing:
    if text == "zpu":
        return BaseRing("zp", p)
    if text == "fpu":
        return BaseRing("fp", p)
    if text.startswith("fpu-trunc:"):
        return BaseRing("fp", p, height=int(text.split(":", 1)[1]))
    raise ValueError(f"unknown base ring {text!r}")


def _cmd_tor(args) -> int:
    if args.max_internal < 0:
        raise ValueError(f"--max {args.max_internal}: need a degree >= 0")
    base = _parse_base(args.base, args.prime)
    table = koszul_tor(base, args.left, args.right, args.max_internal)
    for (n, m), v in table.nonzero():
        sys.stdout.write(f"({n},{m}): {v}\n")
    return 0


def _cmd_hh(args) -> int:
    for flag, value in (("--smax", args.smax), ("--tmax", args.tmax)):
        if value < 0:
            raise ValueError(f"{flag} {value}: need a degree >= 0")
    with open(args.file) as fh:
        parsed = parse(fh.read())
    dims = hochschild_homology(parsed.presentation, args.smax, args.tmax)
    for (s, t) in sorted(dims):
        sys.stdout.write(f"({s},{t}): {dims[(s, t)]}\n")
    return 0


def _cmd_oracle(args) -> int:
    if args.cases < 1:
        raise ValueError(f"--cases {args.cases}: need at least 1 case")
    failures = 0
    for case in range(args.cases):
        rng = random.Random(args.seed + case)
        fc = random_filtered_complex(rng, p=args.prime)
        run = exact_couple_run(fc)
        comparison = compare_with_total_homology(fc, run)
        bad = {d: c for d, c in comparison.items() if not c[2]}
        if bad:
            failures += 1
            sys.stdout.write(f"case {case}: FAIL {bad}\n")
        else:
            sys.stdout.write(f"case {case}: ok\n")
    sys.stdout.write(f"{args.cases - failures}/{args.cases} converged\n")
    return 1 if failures else 0


def _cmd_reproduce(args) -> int:
    _check_destination("report", args.report)
    report = reproduce_thh_ku(args.prime, args.max_degree)
    _write(report.to_json(), args.report)
    return 0


def run_command(argv) -> int:
    """Dispatch one invocation; 0 on success, 1 on certificate failure, 2 on usage."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    handlers = {
        "run": _cmd_run,
        "homology": _cmd_homology,
        "tor": _cmd_tor,
        "hh": _cmd_hh,
        "oracle": _cmd_oracle,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except PipelineError as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        if err.report is not None:
            payload = err.report.to_json_dict()
            print(json.dumps(payload, sort_keys=True, indent=2), file=sys.stderr)
        return 1
    except (PageError, DifferentialError, ResourceLimit, SubquotientError) as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1
    except (ParseError, OSError, ValueError, alg.BeyondTruncation) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
