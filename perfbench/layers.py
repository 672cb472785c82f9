"""Which gradss functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `src/gradss`.  Each traced function becomes a span
named `<module>.<function>`; `RowSpan.add` and `Page.class_coords` are
patched on their classes.  Three wrappers also move counters: enlarging
`RowSpan.add` calls, cells reduced by row reduction, and `monomial_table`
cache misses with the monomials those misses enumerate.
"""

from __future__ import annotations

import statistics

from gradss import algebra, cli, dga, dsl, filtered, homalg, linfp, specseq, thhku

FUNCTIONS = [
    ("linfp.kernel_basis", linfp, "kernel_basis"),
    ("linfp.solve", linfp, "solve"),
    ("linfp.subquotient_basis", linfp, "subquotient_basis"),
    ("linfp.is_prime", linfp, "is_prime"),
    # every row reduction, whether from rref, rank, kernel_basis or solve
    ("linfp.rref", linfp, "_rref_inplace"),
    ("algebra.multiply", algebra, "multiply"),
    ("algebra.monomial_table", algebra, "monomial_table"),
    ("dga.d_monomial", dga, "d_monomial"),
    ("dga.homology", dga, "homology"),
    ("dga.verify_presentation_iso", dga, "verify_presentation_iso"),
    ("homalg.koszul_tor", homalg, "koszul_tor"),
    ("homalg.hochschild_homology", homalg, "hochschild_homology"),
    ("specseq.init_page", specseq, "init_page"),
    ("specseq.turn_page", specseq, "turn_page"),
    ("specseq.certify_collapse", specseq, "certify_collapse"),
    ("specseq.certify_zero_differentials", specseq, "certify_zero_differentials"),
    ("specseq.infer_forced_differentials", specseq, "infer_forced_differentials"),
    ("specseq.assemble_abutment", specseq, "assemble_abutment"),
    ("filtered.realize_filtered_dga", filtered, "realize_filtered_dga"),
    ("filtered.exact_couple_run", filtered, "exact_couple_run"),
    ("filtered.compare_with_total_homology", filtered, "compare_with_total_homology"),
    ("thhku.step1_tor", thhku, "step1_tor"),
    ("thhku.step2_v0", thhku, "step2_v0"),
    ("thhku.step3_v1", thhku, "step3_v1"),
    ("thhku.reproduce_thh_ku", thhku, "reproduce_thh_ku"),
    ("dsl.parse", dsl, "parse"),
    ("cli.run_command", cli, "run_command"),
    ("cli.chart_rows", cli, "chart_rows"),
]

METHODS = [
    ("linfp.rowspan_add", linfp.RowSpan, "add"),
    ("specseq.page_class_coords", specseq.Page, "class_coords"),
]

# name -> unit; per op unless the name says otherwise
PER_LAYER = {
    "dga.verify_presentation_iso.self_s": "s",
    "dga.verify_presentation_iso.calls": "count",
    "dga.homology.self_s": "s",
    "dga.d_monomial.calls": "count",
    "linfp.rowspan_add.calls": "count",
    "linfp.rowspan_add.self_s": "s",
    "linfp.rowspan_add.useful_ratio": "ratio",
    "linfp.kernel_basis.calls": "count",
    "linfp.kernel_basis.self_s": "s",
    "linfp.solve.calls": "count",
    "linfp.solve.self_s": "s",
    "linfp.subquotient_basis.self_s": "s",
    "linfp.rref.cells": "count",
    "linfp.is_prime.calls": "count",
    "algebra.multiply.calls": "count",
    "algebra.multiply.self_s": "s",
    "algebra.monomial_table.self_s": "s",
    "algebra.monomial_table.misses": "count",
    "algebra.monomial_table.monomials": "count",
    "filtered.exact_couple_run.self_s": "s",
    "filtered.realize_filtered_dga.self_s": "s",
    "filtered.compare_with_total_homology.self_s": "s",
    "specseq.init_page.self_s": "s",
    "specseq.turn_page.self_s": "s",
    "specseq.turn_page.calls": "count",
    "specseq.page_class_coords.calls": "count",
    "specseq.certify_collapse.self_s": "s",
    "specseq.certify_zero_differentials.self_s": "s",
    "specseq.infer_forced_differentials.self_s": "s",
    "specseq.assemble_abutment.self_s": "s",
    "homalg.hochschild_homology.self_s": "s",
    "homalg.koszul_tor.self_s": "s",
    "thhku.step1_tor.calls": "count",
    "thhku.step2_v0.calls": "count",
    "thhku.step3_v1.self_s": "s",
    "dsl.parse.self_s": "s",
    "cli.run_command.self_s": "s",
    "cli.chart_rows.self_s": "s",
    # median traced op time; minus the untraced op_s_p50 it is the tracing overhead
    "trace.op_s_p50": "s",
}


def _count_enlarging(counters):
    def around(fn, args, kwargs):
        grew = fn(*args, **kwargs)
        if grew:
            counters["linfp.rowspan_add.enlarging"] += 1
        return grew

    return around


def _count_cells(counters):
    def around(fn, args, kwargs):
        rows, cols = args[0].shape
        counters["linfp.rref.cells"] += rows * cols
        return fn(*args, **kwargs)

    return around


def _count_table_misses(counters):
    def around(fn, args, kwargs):
        misses = fn.cache_info().misses
        table = fn(*args, **kwargs)
        if fn.cache_info().misses > misses:
            counters["algebra.monomial_table.misses"] += 1
            counters["algebra.monomial_table.monomials"] += sum(
                len(monos) for monos in table.values()
            )
        return table

    return around


def install(tracer):
    """Patch every traced function and method; `tracer.uninstall()` undoes it."""
    counting = {
        "linfp.rowspan_add": _count_enlarging,
        "linfp.rref": _count_cells,
        "algebra.monomial_table": _count_table_misses,
    }
    for name, module, attr in FUNCTIONS:
        hook = counting.get(name)
        tracer.patch_function(name, module, attr, hook and hook(tracer.counters))
    for name, cls, attr in METHODS:
        hook = counting.get(name)
        tracer.patch_method(name, cls, attr, hook and hook(tracer.counters))


def layer_metrics(summary: dict, op_counters, n_ops: int) -> dict:
    """Every PER_LAYER metric, as a mean per op over the traced ops."""
    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric == "trace.op_s_p50":
            value = statistics.median(summary["op_s"])
        elif metric == "linfp.rowspan_add.useful_ratio":
            adds = summary["calls"].get(base, 0)
            value = op_counters["linfp.rowspan_add.enlarging"] / adds if adds else 0.0
        elif kind == "self_s":
            value = summary["self_s"].get(base, 0.0) / n_ops
        elif kind == "calls":
            value = summary["calls"].get(base, 0) / n_ops
        else:
            value = op_counters[metric] / n_ops
        out[metric] = value
    return out
