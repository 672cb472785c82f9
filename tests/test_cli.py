import contextlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gradss import algebra as alg
from gradss import cli, dga, filtered, thhku
from gradss.cli import chart_rows, run_command
from gradss.dga import DifferentialError, d_target, extend_derivation
from gradss.dsl import ParsedFile, ParseError, parse, parse_expression, print_file
from gradss.linfp import Subquotient
from gradss.specseq import DifferentialSpec, PageError
from helpers import random_derivations
from oracles import reference_chart_rows


def data_text(name):
    return (files("gradss") / "data" / name).read_text()


def test_parse_shipped_absolute_run():
    parsed = parse(data_text("brunku2_p5.ss"))
    pres = parsed.presentation
    assert [g.name for g in pres.generators] == ["u", "su", "l1", "m1"]
    assert pres.gen("u").height == 4
    assert pres.gen("u").weight == 1
    (spec,) = parsed.differentials
    assert spec.page == 7
    assert alg.element_str(pres, spec.image) == "u^3 su"


def test_parse_rejects_even_exterior():
    text = "prime 5\nmaxdeg 10\nalgebra A {\n gen x ext bideg 2 0\n}\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "even total degree" in str(err.value)
    assert err.value.line == 4


def test_parse_rejects_empty_file():
    with pytest.raises(ParseError) as err:
        parse("")
    assert "prime" in str(err.value)


def test_parse_rejects_duplicate_generator():
    text = (
        "prime 5\nmaxdeg 10\nalgebra A {\n gen x ext bideg 1 0\n"
        " gen x ext bideg 3 0\n}\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "duplicate" in str(err.value)


def test_parse_rejects_wrong_bidegree_differential():
    text = (
        "prime 5\nmaxdeg 30\nalgebra A {\n gen u trunc 4 bideg 0 2\n"
        " gen m poly bideg 10 0\n}\nd 7 m -> u\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "bidegree" in str(err.value)


BRUNKU2_P5_HEAD = (
    "prime 5\nmaxdeg 30\nalgebra A {\n gen u trunc 4 bideg 0 2 weight 1\n"
    " gen su ext bideg 3 0 weight 1\n gen m1 poly bideg 10 0\n}\n"
)


def test_parse_names_the_line_of_an_inhomogeneous_image():
    text = BRUNKU2_P5_HEAD + "\n# a comment\nd 7 m1 -> u^3 su + u\n"
    with pytest.raises(ParseError, match="^line 10: inhomogeneous element") as err:
        parse(text)
    assert err.value.line == 10


@pytest.mark.parametrize("image", [
    "u + 4 u + u^3 su", "u^3 su + u + 4 u", "u + u^3 su + 4 u", "2 u^3 su + 3 u^3 su + u^3 su",
])
def test_parse_sums_an_image_in_any_term_order(image):
    # u + 4 u vanishes mod 5, so every order leaves the same homogeneous image
    (spec,) = parse(BRUNKU2_P5_HEAD + f"d 7 m1 -> {image}\n").differentials
    pres = parse(BRUNKU2_P5_HEAD).presentation
    assert spec.image == alg.monomial_element(pres, {"u": 3, "su": 1})


def test_parse_rejects_non_prime():
    with pytest.raises(ParseError):
        parse("prime 9\nmaxdeg 10\n")


@pytest.mark.parametrize("header, line, message", [
    ("# a comment\nprime 9\nmaxdeg 10\n", 2, "need a prime"),
    ("prime 5\n\nmaxdeg -1\n", 3, "max_degree must be non-negative"),
])
def test_a_bad_header_field_is_reported_at_its_line(header, line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse(header + "algebra A {\n gen x ext bideg 1 0\n}\n")
    assert err.value.line == line


def test_round_trip_shipped_files():
    for name in ("brunku1_p5.ss", "brunku1_p7.ss", "brunku2_p5.ss", "brunku2_p7.ss"):
        parsed = parse(data_text(name))
        printed = print_file(parsed)
        again = parse(printed)
        assert again.presentation == parsed.presentation
        assert [
            (s.page, s.source, s.image) for s in again.differentials
        ] == [(s.page, s.source, s.image) for s in parsed.differentials]
        assert print_file(again) == printed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_random_presentations(data):
    n_gens = data.draw(st.integers(1, 4))
    gens = []
    for i in range(n_gens):
        kind = data.draw(st.sampled_from(["poly", "ext", "trunc"]))
        w = data.draw(st.integers(-10, 10))
        if kind == "ext":
            gens.append(alg.ext(f"g{i}", (2 * data.draw(st.integers(0, 4)) + 1, 0), w))
        elif kind == "poly":
            gens.append(alg.poly(f"g{i}", (2 * data.draw(st.integers(1, 4)), 2), w))
        else:
            gens.append(
                alg.trunc(
                    f"g{i}",
                    data.draw(st.integers(2, 5)),
                    (0, 2 * data.draw(st.integers(1, 3))),
                    w,
                )
            )
    picks = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2, unique=True))
    rows = sum(g.bidegree[1] for g in picks)
    if rows:
        # one more generator a d_r shift above a product of the others, so
        # that its d_r has monomials to land on
        r = data.draw(st.integers(2, min(5, rows + 1)))
        n, m = sum(g.bidegree[0] for g in picks) + r, rows - r + 1
        gens.append((alg.ext if (n + m) % 2 else alg.poly)(f"g{n_gens}", (n, m)))
    p = data.draw(st.sampled_from([5, 7]))
    top = max(g.total_degree for g in gens)
    pres = alg.Presentation(p, tuple(gens), data.draw(st.integers(max(10, top), 40)))
    # differentials with coefficients in [-2p, 2p]: some images vanish mod p;
    # a page whose target holds monomials is drawn where there is one
    table = alg.monomial_table(pres)
    specs = []
    for g in pres.generators:
        if g.name != f"g{n_gens}" and not data.draw(st.booleans()):
            continue
        pages = [r for r in range(2, 6) if table.get(d_target(g.bidegree, r))]
        page = data.draw(st.sampled_from(pages or range(2, 6)))
        target = table.get(d_target(g.bidegree, page), [])
        coeffs = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=len(target),
                                    max_size=len(target)))
        image = alg.element(pres, dict(zip(target, coeffs)))
        specs.append(DifferentialSpec(page, alg.monomial_element(pres, {g.name: 1}), image))
    parsed = ParsedFile(pres, specs)
    printed = print_file(parsed)
    again = parse(printed)
    assert again.presentation == pres
    assert [(s.page, s.source, s.image) for s in again.differentials] == [
        (s.page, s.source, s.image) for s in specs
    ]
    assert print_file(again) == printed

    def chart(parsed_file):
        try:
            return chart_rows(parsed_file)
        except PageError as err:  # a random d need not square to zero
            return str(err)

    assert chart(again) == chart(parsed)


@pytest.mark.parametrize("page, image", [(7, "u"), (6, "u^3 su"), (8, "u^3 su")])
def test_parser_and_extend_derivation_refuse_the_same_off_shift_image(
    page, image, tmp_path, capsys
):
    text = data_text("brunku2_p5.ss")
    pres = parse(text).presentation
    bad = text.replace("d 7 m1 -> u^3 su", f"d {page} m1 -> {image}")
    with pytest.raises(ParseError, match="must land in bidegree"):
        parse(bad)
    path = tmp_path / "off_shift.ss"
    path.write_text(bad)
    assert run_command(["run", str(path)]) == 2
    assert "must land in bidegree" in capsys.readouterr().err
    with pytest.raises(DifferentialError, match="expected"):
        extend_derivation(pres, {"m1": parse_expression(pres, image.split(), 1)}, page)


def test_run_emits_expected_chart_line(tmp_path):
    out = tmp_path / "chart.tsv"
    src = files("gradss") / "data" / "brunku1_p5.ss"
    assert run_command(["run", str(src), "--out", str(out)]) == 0
    assert "2\t9\t0\t1\tl1\n" in out.read_text()


def test_run_chart_is_sorted_and_indexed():
    parsed = parse(data_text("brunku2_p5.ss"))
    rows = chart_rows(parsed)
    assert rows == sorted(rows, key=lambda t: t[:4])
    pages = {r for r, *_ in rows}
    assert pages == {2, 8}


def brunku2_text(p, maxdeg):
    """The shipped brunku2 file at p with its box moved to maxdeg."""
    text = data_text(f"brunku2_p{p}.ss")
    assert "maxdeg 100\n" in text
    return text.replace("maxdeg 100\n", f"maxdeg {maxdeg}\n")


@pytest.mark.parametrize("name", ["brunku1_p5", "brunku1_p7", "brunku2_p5", "brunku2_p7"])
def test_chart_rows_match_the_element_printing_reference_on_shipped_files(name):
    parsed = parse(data_text(f"{name}.ss"))
    assert chart_rows(parsed) == reference_chart_rows(parsed)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("maxdeg", [100, 200, 300])
def test_chart_rows_match_the_element_printing_reference_on_brunku2(p, maxdeg):
    parsed = parse(brunku2_text(p, maxdeg))
    rows = chart_rows(parsed)
    assert rows == reference_chart_rows(parsed)
    assert {r for r, *_ in rows} == {2, 2 * p - 2}


@settings(max_examples=100, deadline=None)
@given(random_derivations(min_page=2))
def test_chart_rows_match_the_element_printing_reference_on_random_files(d):
    # one differential, on the first generator with a nonzero image; a
    # random d need not square to zero, and then both refuse alike
    pres = d.base
    name = next((g.name for g in pres.generators if g.name in d.images), None)
    specs = []
    if name is not None:
        source = alg.monomial_element(pres, {name: 1})
        specs.append(DifferentialSpec(d.page, source, d.images[name]))
    parsed = ParsedFile(pres, specs)

    def chart(rows_of):
        try:
            return rows_of(parsed)
        except PageError as err:
            return str(err)

    assert chart(chart_rows) == chart(reference_chart_rows)


def test_printing_a_whole_cell_builds_no_element(monkeypatch, tmp_path, capsys):
    # brunku2 at (5, 100): run prints pages 2 and 8, homology one page of
    # classes; only the cells d touches read their reps as elements, and
    # here every one of them is empty, so no element is built at all
    src = tmp_path / "brunku2.ss"
    src.write_text(brunku2_text(5, 100))
    built = []
    monkeypatch.setattr(dga, "Element", lambda coeffs: built.append(coeffs) or alg.Element(coeffs))
    read = []
    reps = dga.Page.reps
    monkeypatch.setattr(dga.Page, "reps", lambda self, bd: read.append(
        self.subquotients[bd]) or reps(self, bd))
    for command in ("run", "homology"):
        assert run_command([command, str(src)]) == 0
    lines = capsys.readouterr().out.count("\n")
    assert read and not any(sub.is_whole for sub in read)
    assert lines == 399 and built == [] and sum(len(sub) for sub in read) == 0


def test_svg_emission(tmp_path):
    out = tmp_path / "chart.svg"
    src = files("gradss") / "data" / "brunku2_p5.ss"
    assert run_command(["run", str(src), "--svg", str(out), "--out", str(tmp_path / "c.tsv")]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "circle" in svg and "line" in svg


def test_tor_command_output(capsys):
    assert run_command(["tor", "--base", "zpu", "--left", "fp", "--right", "zp", "--max", "10"]) == 0
    out = capsys.readouterr().out
    assert out == "(0,0): 1\n(1,2): 1\n"


def test_tor_command_truncated_base(capsys):
    code = run_command(
        ["tor", "--base", "fpu-trunc:3", "--left", "fp", "--right", "fp", "--max", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["(0,0): 1", "(1,2): 1", "(2,6): 1"]


def test_run_p7_collapse_page(tmp_path):
    out = tmp_path / "chart.tsv"
    src = files("gradss") / "data" / "brunku2_p7.ss"
    assert run_command(["run", str(src), "--out", str(out)]) == 0
    pages = {line.split("\t")[0] for line in out.read_text().splitlines()}
    assert pages == {"2", "12"}


def test_hh_command(capsys, tmp_path):
    path = tmp_path / "trunc.ss"
    path.write_text("prime 5\nmaxdeg 16\nalgebra A {\n gen u trunc 4 bideg 0 2\n}\n")
    assert run_command(["hh", str(path), "--smax", "1", "--tmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "(0,0): 1" in out


def test_oracle_command(capsys):
    assert run_command(["oracle", "filtered", "--seed", "5", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("3/3 converged\n")


@pytest.mark.parametrize("prime", [1, 4, 9, 2147483659])
def test_oracle_refuses_a_bad_prime(prime, capsys):
    argv = ["oracle", "filtered", "--seed", "1", "--cases", "2", "--prime", str(prime)]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p = {prime}: need a prime in [2, 2147483647]\n"


def _drop_last_cycle(monkeypatch):
    original = filtered._kernel
    monkeypatch.setattr(filtered, "_kernel", lambda *at: original(*at)[:-1])


def _lose_coordinates(monkeypatch):
    monkeypatch.setattr(Subquotient, "coords", lambda self, v: None)


@pytest.mark.parametrize("damage", [_drop_last_cycle, _lose_coordinates])
def test_oracle_certificate_failure_exits_one(damage, monkeypatch, capsys):
    # a damaged cycle space, or a d_r image outside its target page
    damage(monkeypatch)
    assert run_command(["oracle", "filtered", "--seed", "5", "--cases", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certificate failure: ") and err.count("\n") == 1


def test_reproduce_failure_names_the_surviving_relation(monkeypatch, capsys):
    # u^{p-2} a_{p-1} = 0 is wrong: that class survives, and the printed
    # presentation-iso certificate says which relation and where
    bogus = alg.RelationSpec("bogus", (("u", 3), ("a4", 1)))
    relations = thhku.abutment_relations
    monkeypatch.setattr(thhku, "abutment_relations", lambda p: relations(p) + [bogus])
    assert run_command(["reproduce", "thh-ku", "--prime", "5", "--max-degree", "103"]) == 1
    err = capsys.readouterr().err
    first, report = err.split("\n", 1)
    assert first == "certificate failure: E-infinity is not the expected presentation"
    iso = json.loads(report)["certificates"][-1]
    assert iso["kind"] == "presentation-iso" and iso["ok"] is False
    assert iso["relation_failures"] == [["bogus", [43, 6], "image u^3 su m1^4 survives"]]
    # the empty failure list is left out, as success leaves out all four
    assert "generator_failures" not in iso
    assert iso["dimension_mismatches"][0] == [[43, 6], 0, 1]


def test_homology_command(capsys):
    src = files("gradss") / "data" / "brunku2_p5.ss"
    assert run_command(["homology", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# certified through total degree 99\n")
    assert "50\t0\t1\tm1^5\n" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ss"
    bad.write_text("prime 9\nmaxdeg 4\n")
    assert run_command(["run", str(bad)]) == 2
    assert run_command(["run", str(tmp_path / "missing.ss")]) == 2
    assert run_command(["nonsense"]) == 2
    assert run_command(["reproduce", "thh-ku", "--prime", "5", "--max-degree", "10"]) == 2
    capsys.readouterr()


def test_shared_parser_answers_like_fresh_ones(capsys):
    # the parser is built once per process; valid and invalid argv in turn
    # must get the exit codes and messages a fresh parser gives them
    homology = ["homology", str(files("gradss") / "data" / "brunku1_p5.ss")]
    tor = ["tor", "--base", "zpu", "--left", "fp", "--right", "zp", "--max", "6"]
    argvs = [
        tor,
        ["nonsense"],
        homology,
        ["tor", "--base", "zpu", "--left", "fp", "--right", "zp"],
        ["run"],
        tor + ["--prime", "x"],
        ["oracle", "filtered", "--seed", "1", "--cases", "1"],
        ["reproduce", "thh-ku", "--prime", "5"],
        homology + ["--extra"],
        tor,
        ["--help"],
        homology,
    ]

    def answers(fresh):
        cli._build_parser.cache_clear()
        out = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code = run_command(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    shared = answers(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert shared == answers(fresh=True)
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 2, 2, 0, 2, 2, 0, 0, 0]


def test_reproduce_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_command(
        ["reproduce", "thh-ku", "--prime", "5", "--max-degree", "60", "--report", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["prime"] == 5


@pytest.mark.parametrize("target", ["{tmp}", "{tmp}/missing/report.json"])
def test_reproduce_refuses_unwritable_report_before_computing(target, tmp_path, monkeypatch, capsys):
    def not_called(*args):
        raise AssertionError("the pipeline ran before the report path was checked")

    monkeypatch.setattr(cli, "reproduce_thh_ku", not_called)
    argv = ["reproduce", "thh-ku", "--prime", "5", "--max-degree", "100",
            "--report", target.format(tmp=tmp_path)]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("N", [10, 11, 12, 51])
def test_reproduce_names_the_step3_bound_before_computing(N, monkeypatch, capsys):
    # the box must hold mu2 in degree 2p^2 = 50: every smaller box is refused
    # with the one bound that suffices, before step 1 runs
    def not_called(*args):
        raise AssertionError("step 1 ran before the box was checked")

    monkeypatch.setattr(thhku, "step1_tor", not_called)
    argv = ["reproduce", "thh-ku", "--prime", "5", "--max-degree", str(N)]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == (
        f"error: max degree {N} too small for p = 5: the abutment generators "
        "reach total degree 50, need at least 52\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--svg", "{tmp}/missing/chart.svg"],
        ["--svg", "{tmp}/out"],
        ["--out", "{tmp}/out/chart.tsv", "--svg", "{tmp}/out"],
        ["--out", "{tmp}/out/chart.tsv", "--svg", "{tmp}/missing/chart.svg"],
        ["--out", "{tmp}/out"],
        ["--out", "{tmp}/missing/chart.tsv", "--svg", "{tmp}/out/chart.svg"],
    ],
)
def test_run_refuses_unwritable_destinations_before_computing(flags, tmp_path, monkeypatch, capsys):
    def not_called(*args):
        raise AssertionError("the chart was computed before its destinations were checked")

    monkeypatch.setattr(cli, "chart_rows", not_called)
    (tmp_path / "out").mkdir()
    src = str(files("gradss") / "data" / "brunku2_p5.ss")
    assert run_command(["run", src] + [f.format(tmp=tmp_path) for f in flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not any((tmp_path / "out").iterdir())


def test_failed_reproduce_keeps_existing_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("previous report\n")
    argv = ["reproduce", "thh-ku", "--prime", "5", "--max-degree", "10", "--report", str(out)]
    assert run_command(argv) == 2
    assert out.read_text() == "previous report\n"
    capsys.readouterr()


def test_determinism_across_runs_and_thread_caps(tmp_path):
    # three runs give the same bytes; no setting caps threads any more
    src = files("gradss") / "data" / "brunku2_p5.ss"
    outputs = []
    for run in range(3):
        chart = tmp_path / f"chart{run}.tsv"
        report = tmp_path / f"report{run}.json"
        assert run_command(["run", str(src), "--out", str(chart)]) == 0
        assert (
            run_command(
                [
                    "reproduce",
                    "thh-ku",
                    "--prime",
                    "5",
                    "--max-degree",
                    "60",
                    "--report",
                    str(report),
                ]
            )
            == 0
        )
        outputs.append((chart.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


# the shipped file up to its differential's image: a fuzzed tail after it
# reaches the expression parser, its sums ("+") and its coefficients ("2 u")
FUZZ_HEAD = data_text("brunku2_p5.ss").rpartition("->")[0] + "->"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["", FUZZ_HEAD]),
    st.text(alphabet="prime algebr{}gen ext poly trunc bideg weight d\n->^#0123456789 uxms+",
            max_size=200),
)
@example(FUZZ_HEAD, " u^3 su + u")
@example(FUZZ_HEAD, " 2 u^3 su + u^3 su")
def test_parser_fuzz_only_raises_parse_errors(head, text):
    try:
        parse(head + text)
    except ParseError:
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["hh", "{data}/brunku2_p5.ss", "--smax", "1", "--tmax", "200"],
        ["run", "{tmp}"],
        ["run", "{tmp}/missing.ss"],
        ["run", "{tmp}/binary.ss"],
        ["homology", "{tmp}/past_bound.ss"],
        ["tor", "--base", "fpu-trunc:1", "--left", "fp", "--right", "fp", "--max", "4"],
        ["tor", "--base", "fpu-trunc:x", "--left", "fp", "--right", "fp", "--max", "4"],
        ["tor", "--base", "zpu", "--left", "fp", "--right", "fpu", "--max", "4", "--prime", "9"],
        ["tor", "--base", "zpu", "--left", "fp", "--right", "zp", "--max", "4", "--prime", "4294967311"],
        ["oracle", "filtered", "--seed", "1", "--cases", "1", "--prime", "4"],
        ["oracle", "filtered", "--seed", "1", "--cases", "1", "--prime", "4294967311"],
        ["oracle", "filtered", "--seed", "1", "--cases", "0"],
        ["oracle", "filtered", "--seed", "1", "--cases", "-1"],
        ["reproduce", "thh-ku", "--prime", "9", "--max-degree", "100"],
        ["reproduce", "thh-ku", "--prime", "4294967311", "--max-degree", "100"],
        ["reproduce", "thh-ku", "--prime", "5", "--max-degree", "-3"],
        ["tor", "--base", "fpu", "--left", "fp", "--right", "fpu", "--max", "6", "--prime", "4"],
        ["tor", "--base", "fpu", "--left", "fp", "--right", "fpu", "--max", "6", "--prime", "2147483659"],
        ["tor", "--base", "fpu-trunc:3", "--left", "fp", "--right", "fpu", "--max", "6", "--prime", "4"],
        ["tor", "--base", "fpu", "--left", "fp", "--right", "fp", "--max", "-3"],
        ["hh", "{data}/brunku2_p5.ss", "--smax", "-1", "--tmax", "4"],
        ["hh", "{data}/brunku2_p5.ss", "--smax", "1", "--tmax", "-5"],
    ],
)
def test_usage_errors_exit_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "binary.ss").write_bytes(b"\xff\xfe")
    (tmp_path / "past_bound.ss").write_text("prime 2147483659\nmaxdeg 10\n")
    data = str(files("gradss") / "data")
    argv = [a.format(data=data, tmp=tmp_path) for a in argv]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(
    smax=st.integers(-2, 3),
    tmax=st.integers(-2, 20),
    base=st.sampled_from(["zpu", "fpu", "fpu-trunc:1", "fpu-trunc:3", "qpu"]),
    prime=st.sampled_from([2, 4, 5, 7, 2147483647, 2147483659]),
    top=st.integers(-2, 10),
)
def test_cli_fuzz_exit_codes(tmp_path_factory, smax, tmax, base, prime, top):
    src = tmp_path_factory.mktemp("hh") / "pu.ss"
    src.write_text("prime 5\nmaxdeg 12\nalgebra A {\n gen u trunc 4 bideg 0 2\n}\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [
            run_command(["hh", str(src), "--smax", str(smax), "--tmax", str(tmax)]),
            run_command(
                ["tor", "--base", base, "--left", "fp", "--right", "fpu",
                 "--max", str(top), "--prime", str(prime)]
            ),
        ]
    assert set(codes) <= {0, 1, 2}
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", ["brunku1_p5", "brunku1_p7", "brunku2_p5", "brunku2_p7"])
@pytest.mark.parametrize("command, suffix", [("run", "tsv"), ("homology", "txt")])
def test_shipped_outputs_match_golden_bytes(command, suffix, name, capsys, tmp_path):
    # pages, dot-charts and homology representatives are canonical: these
    # bytes never change
    golden = Path(__file__).parent / "data" / f"{command}_{name}"
    argv = [command, str(files("gradss") / "data" / f"{name}.ss")]
    svg = tmp_path / "chart.svg"
    if command == "run":
        argv += ["--svg", str(svg)]
    assert run_command(argv) == 0
    assert capsys.readouterr().out.encode() == golden.with_suffix(f".{suffix}").read_bytes()
    if command == "run":
        assert svg.read_bytes() == golden.with_suffix(".svg").read_bytes()


def test_run_and_homology_refuse_two_differentials_on_one_generator(tmp_path, capsys):
    src = tmp_path / "twice.ss"
    src.write_text(
        "prime 5\nmaxdeg 8\nalgebra A {\n gen x poly bideg 2 0\n"
        " gen y ext bideg 0 1\n gen z ext bideg 0 1\n}\nd 2 x -> y\nd 2 x -> z\n"
    )
    for command in ("run", "homology"):
        assert run_command([command, str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "certificate failure: two differentials on generator x\n"
        assert not captured.out
