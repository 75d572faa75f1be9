"""Benchmark-harness unit tests (small scale)."""

import os


from repro.bench import harness
from repro.bench.figures import figure_8_9, figure_10, render_figure, render_figure_10
from repro.core import ALL, EXIST


class TestConfig:
    def test_reduced_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not harness.full_run()
        assert harness.n_values() == (500, 2000, 4000)

    def test_full_run_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert harness.full_run()
        assert harness.n_values() == harness.PAPER_N_VALUES
        assert harness.k_values() == harness.PAPER_K_VALUES


class TestBuilders:
    def test_relation_cached(self):
        a = harness.relation(60, "small", seed=5)
        b = harness.relation(60, "small", seed=5)
        assert a is b
        assert len(a) == 60

    def test_dual_planner_cached(self):
        a = harness.dual_planner(60, "small", 2, seed=5)
        b = harness.dual_planner(60, "small", 2, seed=5)
        assert a is b
        assert a.index.size == 60

    def test_rplus_planner_cached(self):
        a = harness.rplus_planner(60, "small", seed=5)
        assert a is harness.rplus_planner(60, "small", seed=5)

    def test_queries_calibrated(self):
        queries = harness.queries_for(60, "small", EXIST, 2, count=3, seed=5)
        assert len(queries) == 3
        lo, hi = harness.interior_slope_range(2)
        assert all(lo <= q.slope_2d <= hi for q in queries)


class TestMeasurement:
    def test_batch_stats(self):
        planner = harness.dual_planner(60, "small", 2, seed=5)
        queries = harness.queries_for(60, "small", ALL, 2, count=3, seed=5)
        stats = harness.QueryBatchStats.measure(planner.query, queries)
        assert stats.total_accesses >= stats.index_accesses > 0
        assert stats.candidates >= stats.results

    def test_cross_check_passes(self):
        dual = harness.dual_planner(60, "small", 2, seed=5)
        rplus = harness.rplus_planner(60, "small", seed=5)
        queries = harness.queries_for(60, "small", EXIST, 2, count=2, seed=5)
        harness.cross_check(dual, rplus, queries)


class TestReporting:
    def test_format_table(self):
        text = harness.format_table(
            "demo", ["a", "bb"], [[1, 2.5], [30, 4.25]]
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "bb" in lines[2]
        assert "4.2" in lines[-1]

    def test_emit_saves(self, tmp_path, monkeypatch):
        import repro.bench.harness as h

        monkeypatch.setattr(
            os.path, "join",
            lambda *parts: os.sep.join(parts) if "results" not in parts[-1]
            else str(tmp_path / parts[-1]),
        )
        # emit must not raise even with patched paths
        h.emit("hello world")


class TestFigureDrivers:
    def test_figure_series_shape(self):
        series = figure_8_9(
            "small", EXIST, n_values=(60,), k_values=(2,)
        )
        labels = [s.label for s in series]
        assert labels == ["T2 k=2", "R+-tree"]
        assert 60 in series[0].points
        text = render_figure("demo", series)
        assert "T2 k=2" in text and "R+-tree" in text
        assert "summary_pages" not in text
        # Total accesses show the summary-file share of the line that
        # reads one (the dual planner's), and no column for the R+-tree.
        total = render_figure("demo", series, metric="total_accesses")
        assert "T2 k=2 (summary_pages)" in total
        assert "R+-tree (summary_pages)" not in total

    def test_figure_10_rows(self):
        rows = figure_10("small", n_values=(60,), k_values=(2,))
        structures = [r.structure for r in rows]
        assert "R+-tree" in structures and "T2 k=2" in structures
        rplus = next(r for r in rows if r.structure == "R+-tree")
        assert rplus.ratio_to_rplus == 1.0
        text = render_figure_10(rows)
        assert "ratio vs R+" in text
