"""Smoke + shape tests for every experiment module (tiny parameters).

These validate that each table/figure generator runs, produces the
published headers, and exhibits the paper's qualitative shape on small
inputs — the full-size runs live in benchmarks/.
"""

import pytest

from repro.experiments import (
    ablations,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    table1,
)
from repro.experiments.datasets import DATASETS, make_pairs
from repro.errors import ConstructionError


class TestDatasets:
    def test_registry_complete(self):
        assert set(DATASETS) == {
            "unif",
            "gauss",
            "zipf0.1",
            "zipf2",
            "real_web",
            "real_xml",
        }

    def test_make_pairs_sizes(self):
        for name in DATASETS:
            assert len(make_pairs(name, 500, seed=1)) == 500

    def test_unknown_dataset(self):
        with pytest.raises(ConstructionError):
            make_pairs("nope", 10)


class TestTable1:
    def test_rows_pair_ours_with_paper(self):
        table = table1.run(n_web=3000, n_xml=2000, seed=0)
        assert len(table.rows) == 8
        sources = table.column("source")
        assert sources == ["ours", "paper"] * 4
        medians = dict(zip(table.column("dataset"), table.column("median")))
        assert medians  # every dataset present


class TestFig11:
    def test_shape(self):
        table = fig11.run(join_size=1500, ks=(5, 10), datasets=("unif", "zipf2"))
        assert len(table.rows) == 4
        dom_pct = table.column("Dom %")
        assert all(0.0 < pct < 100.0 for pct in dom_pct)
        # |Dom| grows with K within a dataset.
        doms = table.column("|Dom|")
        assert doms[0] <= doms[1] and doms[2] <= doms[3]
        # |Sep| <= pairs possible and non-negative.
        assert all(sep >= 0 for sep in table.column("|Sep|"))


class TestFig12:
    def test_counts_and_plot(self):
        table, picture = fig12.run(join_size=2000, k=20, seed=0)
        assert table.rows[0][0] == 2000
        assert "#" in picture and "." in picture
        lines = picture.splitlines()
        assert len(lines) == 24
        assert all(len(line) == 72 for line in lines)

    def test_plot_optional(self):
        _, picture = fig12.run(join_size=500, k=5, plot=False)
        assert picture == ""


class TestFig13:
    def test_dom_stays_flat_as_join_grows(self):
        table = fig13.run(
            sizes=(2000, 8000), ks=(10,), datasets=("unif",), seed=0
        )
        doms = table.column("|Dom|")
        # 4x join growth must NOT mean 4x dominating points (paper's point).
        assert doms[1] < doms[0] * 3


class TestFig14:
    def test_breakdown_sums(self):
        panel_a, panel_b = fig14.run(
            sizes=(1000, 2000), fixed_k=10, ks=(5, 10), fixed_size=1000
        )
        for panel in (panel_a, panel_b):
            parts = zip(
                panel.column("tDom (s)"),
                panel.column("tSep walk (s)"),
                panel.column("tBLoad (s)"),
            )
            for total, part in zip(panel.column("total (s)"), parts):
                # Components are rounded to 4 decimals independently of
                # the total, so allow that much slack.
                assert total == pytest.approx(sum(part), abs=2e-4)
            assert all(t >= 0 for t in panel.column("tSep all-pairs (s)"))

    def test_tdom_grows_with_join_size(self):
        panel_a, _ = fig14.run(
            sizes=(1000, 16000), fixed_k=10, ks=(5,), fixed_size=1000
        )
        tdom = panel_a.column("tDom (s)")
        assert tdom[1] > tdom[0]


class TestFig15:
    def test_tables_and_speedup(self):
        timing, disk_io = fig15.run(
            join_size=2000, ks=(5, 10), datasets=("unif",), n_queries=30
        )
        assert len(timing.rows) == 2
        assert len(disk_io.rows) == 2
        for row in timing.rows:
            assert row[2] > 0.0  # RJI us
            assert row[5] > 0.0  # speedup defined
        for row in disk_io.rows:
            assert row[2] >= 1.0  # RJI pages


class TestFig16:
    def test_rji_smaller_than_rtree(self):
        # Below K ~ 25 the 4 KiB page granularity swamps both structures;
        # from K = 50 on, the paper's headline ratio emerges.
        table = fig16.run(join_size=8000, ks=(50,), datasets=("unif", "zipf2"))
        ratios = table.column("RJI / R-tree")
        assert all(ratio <= 0.75 for ratio in ratios)


class TestAblations:
    def test_merge_slack_reduces_regions(self):
        table = ablations.run_merge(
            join_size=2000, k=10, slacks=(0, 5), n_queries=20
        )
        regions = table.column("regions")
        assert min(regions[1:]) <= regions[0]
        widths = table.column("max region width")
        strategies = table.column("strategy")
        budgets = table.column("slack m")
        for strategy, slack, width in zip(strategies, budgets, widths):
            if strategy != "none":
                assert width <= 10 + slack

    def test_variants_table(self):
        table = ablations.run_variants(join_size=1500, k=8, n_queries=20)
        assert table.column("variant") == [
            "standard",
            "merged (m=K)",
            "ordered (fast query)",
        ]
        regions = table.column("regions")
        assert regions[1] <= regions[0] <= regions[2]

    def test_baselines_table(self):
        table = ablations.run_baselines(
            scales=(500,), multiplicity=5, k=5, n_queries=10
        )
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row[0] > 0  # join size
        assert row[2] > 0.0 and row[3] > 0.0  # both query times measured
