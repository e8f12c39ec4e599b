"""Miniature versions of every paper exhibit: shapes, renderers and a
golden fixture.

These run the real experiment drivers at a tiny cycle count — enough to
verify plumbing, result shapes, and renderers, while the full-length runs
live in benchmarks/.  The same runs are also pinned exactly:
every Table I/II cell, Table II's [4] baseline, Table III's rows, the
Fig. 8 curves and the Table IV/V model outputs must equal
``golden_exhibits.json``, so a refactor cannot move a paper number
unnoticed.

The fixture records intended behaviour.  After a deliberate behaviour
change, regenerate it from the repository root with::

    PYTHONPATH=src python -m tests.experiments.test_exhibits

which prints every value that moved before rewriting the file.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.experiments.fig8 import knee_index, render as render_fig8, run_fig8
from repro.experiments.table1 import render as render_t1, run_table1
from repro.experiments.table2 import render as render_t2, run_table2
from repro.experiments.table3 import render as render_t3, run_table3
from repro.experiments.table4 import render as render_t4, run_table4
from repro.experiments.table5 import render as render_t5, run_table5
from repro.sim.config import DdrGeneration, NocDesign

TINY = dict(cycles=1_500, warmup=300, seeds=(2010,))
FIG8_TINY = dict(cycles=1_200, warmup=240, seeds=(2010,), max_routers=3)

FIXTURE = pathlib.Path(__file__).with_name("golden_exhibits.json")


@pytest.fixture(scope="module")
def table1_result():
    return run_table1(**TINY)


@pytest.fixture(scope="module")
def table2_result():
    return run_table2(**TINY)


@pytest.fixture(scope="module")
def table3_rows():
    return run_table3(**TINY)


@pytest.fixture(scope="module")
def fig8_curves():
    return run_fig8(**FIG8_TINY)


class TestTable1:
    def test_covers_all_cells(self, table1_result):
        assert len(table1_result.cells) == 9 * 4

    def test_averages_have_all_designs(self, table1_result):
        averages = table1_result.averages()
        assert set(averages) == set(table1_result.designs)
        for values in averages.values():
            assert values["utilization"] > 0

    def test_ratio_normalized_to_baseline(self, table1_result):
        ratios = table1_result.ratios(NocDesign.SDRAM_AWARE)
        baseline = ratios[NocDesign.SDRAM_AWARE]
        assert all(v == pytest.approx(1.0) for v in baseline.values())

    def test_render_contains_rows(self, table1_result):
        text = render_t1(table1_result)
        assert "bluray" in text and "Ratio" in text

    def test_cell_lookup(self, table1_result):
        cell = table1_result.cell("bluray", DdrGeneration.DDR1,
                                  NocDesign.CONV)
        assert cell.clock_mhz == 133
        with pytest.raises(KeyError):
            table1_result.cell("bluray", DdrGeneration.DDR1, NocDesign.CONV_PFS)


class TestTable2:
    def test_runs_and_renders(self, table2_result):
        result = table2_result
        assert len(result.comparison.cells) == 9 * 4
        ratios = result.ratios()
        assert NocDesign.GSS_SAGM in ratios
        text = render_t2(result)
        assert "Ratio vs Table I [4]" in text


class TestTable3:
    def test_three_rows_with_improvements(self, table3_rows):
        rows = table3_rows
        assert len(rows) == 3
        for row in rows:
            assert row.with_sti.utilization > 0
            # improvements are finite percentages
            assert -1 < row.utilization_improvement < 1
        text = render_t3(rows)
        assert "Average" in text


class TestTable4:
    def test_static_model(self):
        data = run_table4()
        assert data["noc_3x3"]["conv"] > data["noc_3x3"]["gss+sagm+sti"]
        assert "Table IV" in render_t4(data)


class TestTable5:
    def test_static_model(self):
        data = run_table5()
        assert len(data) == 3
        assert "Table V" in render_t5(data)


class TestFig8:
    def test_sweep_shapes(self, fig8_curves):
        curves = fig8_curves
        assert len(curves) == 3
        for curve in curves:
            assert curve.gss_router_counts == [0, 1, 2, 3]
            assert len(curve.utilization) == 4
        text = render_fig8(curves)
        assert "#GSS" in text

    def test_knee_index_finds_threshold(self):
        from repro.experiments.fig8 import Fig8Curve
        curve = Fig8Curve(
            app="x", ddr=DdrGeneration.DDR1, clock_mhz=200,
            gss_router_counts=[0, 1, 2, 3, 4],
            utilization=[0.4, 0.55, 0.62, 0.64, 0.645],
            latency_all=[0] * 5, latency_priority=[0] * 5,
        )
        assert knee_index(curve) in (2, 3)

    def test_knee_with_flat_curve(self):
        from repro.experiments.fig8 import Fig8Curve
        curve = Fig8Curve(
            app="x", ddr=DdrGeneration.DDR1, clock_mhz=200,
            gss_router_counts=[0, 1], utilization=[0.5, 0.5],
            latency_all=[0, 0], latency_priority=[0, 0],
        )
        assert knee_index(curve) == 0


# --------------------------------------------------------------------- #
# Golden fixture
# --------------------------------------------------------------------- #

def _cells(comparison) -> dict:
    return {
        f"{cell.app}/{cell.ddr.value}@{cell.clock_mhz}MHz/"
        f"{cell.design.value}.{key}": value
        for cell in comparison.cells
        for key, value in dataclasses.asdict(cell.metrics).items()
    }


def _flat(table: dict) -> dict:
    return {
        f"{row}.{column}": value
        for row, columns in table.items()
        for column, value in columns.items()
    }


def observe(table1, table2, table3, fig8) -> dict:
    """``{exhibit: {key: value}}`` of every pinned number, JSON-normalised."""
    observed = {
        "table1": _cells(table1),
        "table2": _cells(table2.comparison),
        "table3": {
            f"{row.app}@{row.clock_mhz}MHz.{variant}.{key}": value
            for row in table3
            for variant in ("without_sti", "with_sti")
            for key, value in dataclasses.asdict(
                getattr(row, variant)).items()
        },
        "fig8": {
            f"{curve.app}/{curve.ddr.value}@{curve.clock_mhz}MHz/"
            f"gss{k}.{series}": getattr(curve, series)[i]
            for curve in fig8
            for i, k in enumerate(curve.gss_router_counts)
            for series in ("utilization", "latency_all", "latency_priority")
        },
        "table4": _flat(run_table4()),
        "table5": _flat(run_table5()),
    }
    observed["table2"].update(
        (f"baseline.{key}", value)
        for key, value in table2.baseline_averages.items()
    )
    return json.loads(json.dumps(observed))


def differences(expected: dict, fresh: dict) -> str:
    """Per exhibit, one line per key whose fixture and fresh values
    differ; empty when they all match."""
    lines = []
    for exhibit in sorted(set(expected) | set(fresh)):
        old, new = expected.get(exhibit, {}), fresh.get(exhibit, {})
        changed = [
            f"  {key}: fixture={old.get(key, '<absent>')!r} "
            f"fresh={new.get(key, '<absent>')!r}"
            for key in sorted(set(old) | set(new))
            if old.get(key, "<absent>") != new.get(key, "<absent>")
        ]
        if changed:
            lines += [f"{exhibit}:", *changed]
    return "\n".join(lines)


def test_exhibits_match_golden_fixture(table1_result, table2_result,
                                       table3_rows, fig8_curves):
    expected = json.loads(FIXTURE.read_text())
    fresh = observe(table1_result, table2_result, table3_rows, fig8_curves)
    changed = differences(expected, fresh)
    assert not changed, f"exhibits diverged from {FIXTURE.name}:\n{changed}"


def regenerate() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fresh = observe(run_table1(**TINY), run_table2(**TINY),
                    run_table3(**TINY), run_fig8(**FIG8_TINY))
    changed = differences(old, fresh)
    if changed:
        print(changed)
    FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
