"""The library names the benchmark's traced run patches must stay in place.

`perfbench/run.py --trace 1` wraps library functions and methods by name
(`perfbench/layers.py`): among them `linfp.RowSpan.add`, `linfp.solve` and
`linfp.subquotient_basis`, which the pipeline itself never calls,
`specseq.Page.__dict__["class_coords"]`, and `algebra.monomial_table`, whose
`cache_info()` counts table misses.  Moving or deleting any of them breaks
the traced benchmark run until the benchmark reads spans owned by the
library instead; this test fails first.
"""

from importlib.resources import files
from pathlib import Path

from gradss import cli, thhku

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_patches_and_runs_the_pipeline(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert thhku.reproduce_thh_ku(5, 103).ok
        data = files("gradss") / "data" / "brunku2_p5.ss"
        assert cli.run_command(["homology", str(data)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    traced = {tracer.names[i] for i in set(tracer.name_ids)}
    assert {"thhku.reproduce_thh_ku", "algebra.monomial_table", "cli.run_command"} <= traced
