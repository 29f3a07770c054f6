"""Integration tests for the benchmark harness (tiny scale).

These exercise each experiment end-to-end on minuscule inputs; the
numbers are meaningless at this size, but the plumbing — training,
caching, mixing, formatting — must work.
"""

import multiprocessing

import numpy as np
import pytest

from repro.bench import BenchContext
from repro.bench.dynamic_exp import figure7, figure8, format_figure7, format_figure8
from repro.bench.figure2 import comparison_graph, missing_edge_fraction
from repro.bench.reporting import format_seconds, render_table
from repro.bench.robustness import figure11, format_figure11
from repro.bench.rules_exp import format_table6, table6
from repro.bench.static import (
    figure3,
    figure4,
    format_figure3,
    format_figure4,
    format_table3,
    format_table4,
    table3,
    table4,
)
from repro.scale import Scale


@pytest.fixture(scope="module")
def tiny_scale() -> Scale:
    return Scale(
        name="tiny",
        row_fraction=0.1,
        train_queries=120,
        test_queries=60,
        nn_epochs=2,
        naru_epochs=2,
        update_queries=60,
        synthetic_rows=2000,
        naru_samples=32,
    )


@pytest.fixture(scope="module")
def ctx(tiny_scale) -> BenchContext:
    return BenchContext(tiny_scale, seed=11)


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "22"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_format_seconds(self):
        assert format_seconds(0.005) == "5.0ms"
        assert format_seconds(5.0) == "5.0s"
        assert format_seconds(300.0) == "5.0min"


class TestContext:
    def test_tables_cached(self, ctx):
        assert ctx.table("census") is ctx.table("census")

    def test_estimators_cached(self, ctx):
        a = ctx.estimator("postgres", "census")
        assert ctx.estimator("postgres", "census") is a

    def test_fresh_estimator_not_cached(self, ctx):
        a = ctx.fresh_estimator("postgres", "census")
        assert ctx.fresh_estimator("postgres", "census") is not a

    def test_row_scaling(self, ctx):
        from repro.datasets.realworld import DEFAULT_ROWS

        assert ctx.table("census").num_rows == int(DEFAULT_ROWS["census"] * 0.1)


class TestStaticExperiments:
    def test_table3(self, ctx):
        rows = table3(ctx)
        assert [r["dataset"] for r in rows] == ["census", "forest", "power", "dmv"]
        assert "10^" in format_table3(rows)

    def test_figure3(self, ctx):
        series = figure3(ctx)
        for fracs in series.values():
            assert fracs.sum() == pytest.approx(1.0, abs=1e-6)
        assert "census" in format_figure3(series)

    def test_table4_subset(self, ctx):
        results = table4(ctx, datasets=["census"], methods=["postgres", "deepdb"])
        assert set(results["census"]) == {"postgres", "deepdb"}
        text = format_table4(results)
        assert "L v.s. T" in text

    def test_figure4_subset(self, ctx):
        rows = figure4(ctx, datasets=["census"], methods=["postgres", "lw-xgb", "naru"])
        by_method = {r.method: r for r in rows}
        assert by_method["naru"].train_seconds_gpu < by_method["naru"].train_seconds_cpu
        assert by_method["postgres"].train_seconds_gpu == by_method["postgres"].train_seconds_cpu
        assert "Figure 4" in format_figure4(rows)


class TestDynamicExperiments:
    def test_figure7_shape(self, ctx):
        points = figure7(ctx, datasets=("census",), epoch_grid=(1, 2))
        assert len(points) == 2
        assert points[0].epochs == 1
        # More epochs -> longer update.
        assert points[1].update_seconds > points[0].update_seconds
        assert "Figure 7" in format_figure7(points)

    def test_figure8_gpu_never_slower_for_naru(self, ctx):
        cells = figure8(ctx, datasets=("census",), methods=("naru", "lw-nn"))
        by = {(c.method, c.device): c for c in cells}
        assert (
            by[("naru", "gpu")].update_seconds
            <= by[("naru", "cpu")].update_seconds
        )
        assert "Figure 8" in format_figure8(cells)


class TestRobustnessExperiments:
    def test_figure11_spread(self, ctx):
        result = figure11(ctx, repeats=40)
        assert len(result.estimates) == 40
        assert result.spread >= 0.0
        assert "Figure 11" in format_figure11(result)


class TestRulesExperiment:
    def test_table6_subset(self, ctx):
        results = table6(ctx, methods=["lw-xgb", "deepdb"], num_checks=10)
        text = format_table6(results)
        assert "monotonicity" in text
        assert all(r.satisfied for r in results["deepdb"].values())


class TestFigure2:
    def test_graph_nodes(self):
        g = comparison_graph()
        assert g.number_of_nodes() == 5

    def test_missing_fraction_over_half(self):
        assert missing_edge_fraction() > 0.5


class TestCli:
    def test_cli_runs_table3(self, capsys, tiny_scale, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_cli_rejects_unknown(self, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_help_lists_every_experiment(self, capsys):
        from repro.bench.__main__ import EXPERIMENTS, main

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "--trace-out" in out

    def test_trace_out_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.bench.__main__ import main
        from repro.obs import parse_exposition

        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert main(["figure2", "--trace-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        exposition = (tmp_path / "figure2_metrics.prom").read_text()
        parse_exposition(exposition)  # must lint
        snapshot = json.loads((tmp_path / "figure2_metrics.json").read_text())
        assert isinstance(snapshot, dict)
        assert (tmp_path / "figure2_spans.jsonl").exists()
        assert (tmp_path / "figure2_events.jsonl").exists()


class TestParallelJobs:
    """--jobs must change wall-clock only: identical tables at any N."""

    def test_jobs_validated(self, tiny_scale):
        with pytest.raises(ValueError):
            BenchContext(tiny_scale, jobs=0)

    def test_executor_only_with_jobs(self, tiny_scale):
        assert BenchContext(tiny_scale, jobs=1).executor() is None
        parallel_ctx = BenchContext(tiny_scale, jobs=2)
        assert parallel_ctx.executor() is not None
        assert parallel_ctx.executor() is parallel_ctx.executor()

    def test_prefit_fills_the_estimator_cache(self, tiny_scale):
        jctx = BenchContext(tiny_scale, seed=11, jobs=2)
        pairs = [("postgres", "census"), ("lw-xgb", "census")]
        jctx.prefit(pairs)
        assert set(jctx._fitted) == set(pairs)
        # A second prefit is a no-op (nothing retrains).
        fitted_before = dict(jctx._fitted)
        jctx.prefit(pairs)
        assert all(jctx._fitted[k] is fitted_before[k] for k in pairs)

    def test_table4_cell_identical_at_any_job_count(self, tiny_scale):
        serial_ctx = BenchContext(tiny_scale, seed=11)
        jobs_ctx = BenchContext(tiny_scale, seed=11, jobs=2)
        kwargs = dict(datasets=["census"], methods=["postgres", "lw-nn"])
        serial = table4(serial_ctx, **kwargs)
        parallel = table4(jobs_ctx, **kwargs)
        for method in kwargs["methods"]:
            assert (
                serial["census"][method].as_tuple()
                == parallel["census"][method].as_tuple()
            ), method


class TestInterrupt:
    """Graceful shutdown: Ctrl-C / SIGTERM flush partial artifacts."""

    @staticmethod
    def _install(monkeypatch, name, fn):
        from repro.bench.__main__ import EXPERIMENTS

        monkeypatch.setitem(EXPERIMENTS, name, fn)

    def test_keyboard_interrupt_exits_130_and_reports_progress(
        self, capsys, monkeypatch
    ):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")
        self._install(monkeypatch, "quick", lambda ctx: "quick done")

        def boom(ctx):
            raise KeyboardInterrupt

        self._install(monkeypatch, "boom", boom)
        assert main(["quick", "boom"]) == 130
        captured = capsys.readouterr()
        assert "quick done" in captured.out
        assert "interrupted during boom" in captured.err
        assert "completed: quick" in captured.err

    def test_interrupt_still_flushes_trace(self, capsys, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")

        def boom(ctx):
            raise KeyboardInterrupt

        self._install(monkeypatch, "boom", boom)
        assert main(["boom", "--trace-out", str(tmp_path)]) == 130
        assert "trace written" in capsys.readouterr().out
        assert (tmp_path / "boom_spans.jsonl").exists()
        assert (tmp_path / "boom_events.jsonl").exists()

    def test_sigterm_takes_the_interrupt_path(self, capsys, monkeypatch):
        import os
        import signal

        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")

        def self_terminate(ctx):
            os.kill(os.getpid(), signal.SIGTERM)
            return "unreachable"

        self._install(monkeypatch, "terminating", self_terminate)
        assert main(["terminating"]) == 130
        assert "interrupted during terminating" in capsys.readouterr().err
        # The handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_sigterm_handler_restored_after_clean_run(self, capsys, monkeypatch):
        import signal

        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", "ci")
        self._install(monkeypatch, "quick", lambda ctx: "quick done")
        assert main(["quick"]) == 0
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

class TestObsReport:
    """The obs-report experiment: SLO dashboard and exemplars."""

    pytestmark = pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork on platform",
    )

    def test_obs_report_plumbing(self, ctx, tmp_path):
        import json

        from repro.bench.obs_report import (
            format_obs_report,
            obs_report_experiment,
        )

        result = obs_report_experiment(
            ctx,
            replay=256,
            num_shards=1,
            workers_per_shard=1,
            mode="fork",
            out_dir=tmp_path,
        )
        assert result.queries == 256
        assert set(result.tenants) == {"t0", "t1", "t2", "t3"}
        assert result.telemetry_consistent
        assert result.worker_spans > 0
        assert result.worker_spans_reparented is True
        assert any(s.objective == "latency" for s in result.statuses)
        # the q-error feedback stride must label every tenant
        qerror_tenants = {
            s.tenant for s in result.statuses if s.objective == "qerror"
        }
        assert qerror_tenants == {"t0", "t1", "t2", "t3"}

        records = [
            json.loads(line)
            for line in open(result.jsonl_path)  # noqa: SIM115
        ]
        kinds = {r["record"] for r in records}
        assert {"slo_status", "exemplar"} <= kinds

        report = format_obs_report(result)
        assert "Telemetry invariant" in report
        assert "CONSISTENT" in report

    def test_trace_out_includes_merged_worker_spans(
        self, capsys, tmp_path, monkeypatch
    ):
        """--trace-out artifacts must carry the forked workers' spans,
        re-parented under the dispatching serve.batch spans."""
        import json

        from repro.bench import __main__ as bench_main
        from repro.bench.obs_report import obs_report_experiment

        monkeypatch.setenv("REPRO_SCALE", "ci")
        monkeypatch.setitem(
            bench_main.EXPERIMENTS,
            "obs-report",
            lambda ctx: str(
                obs_report_experiment(
                    ctx,
                    replay=128,
                    num_shards=1,
                    workers_per_shard=1,
                    mode="fork",
                    out_dir=None,
                ).worker_spans
            ),
        )
        assert bench_main.main(["obs-report", "--trace-out", str(tmp_path)]) == 0
        assert "trace written" in capsys.readouterr().out
        spans_path = tmp_path / "obs-report_spans.jsonl"
        spans = [
            json.loads(line) for line in spans_path.read_text().splitlines()
        ]
        worker_spans = [
            s for s in spans if s.get("attrs", {}).get("worker_pid")
        ]
        assert worker_spans, "no merged worker span in the trace dump"
        batch_ids = {
            s["span_id"] for s in spans if s["name"] == "serve.batch"
        }
        assert any(s.get("parent_id") in batch_ids for s in worker_spans)


class TestBenchServeWrite:
    """BENCH_serve.json holds one section, ``guard``, written whole."""

    def fake_guard_result(self):
        from repro.bench.guard_exp import (
            GuardBenchResult,
            GuardScenarioResult,
            QuarantineCycleResult,
        )

        scenario = GuardScenarioResult(
            scenario="correlated-shift",
            queries=10,
            worst_q_off=120.0,
            p95_q_off=80.0,
            worst_q_on=6.0,
            p95_q_on=4.0,
            improvement=20.0,
            availability=1.0,
            clamped=5,
            ood_rerouted=0,
            demotions=0,
        )
        cycle = QuarantineCycleResult(
            serves=24,
            demoted_after=8,
            demotions=1,
            probes_failed=0,
            readmissions=1,
            final_state="healthy",
        )
        return GuardBenchResult(
            method="lw-xgb",
            dataset="census",
            scenarios=[scenario],
            quarantine=cycle,
            p50_off_us=100.0,
            p50_on_us=104.0,
            p50_overhead_fraction=0.04,
            worst_case_improvement=20.0,
            availability=1.0,
        )

    def test_guard_write_replaces_the_whole_file(self, ctx, tmp_path):
        import json

        from repro.bench.guard_exp import write_guard_artifacts

        # The writer never reads the old file: a corrupt one is replaced.
        json_path = tmp_path / "BENCH_serve.json"
        json_path.write_text('{"experiment": "scale_serving", not json')
        write_guard_artifacts(
            ctx, self.fake_guard_result(), json_path, tmp_path / "guard.txt"
        )
        written = json.loads(json_path.read_text())
        assert set(written) == {"guard"}
        assert written["guard"]["worst_case_improvement"] == 20.0
        assert written["guard"]["quarantine"]["readmissions"] == 1

    def test_guard_cli_experiment_is_registered(self):
        from repro.bench.__main__ import EXPERIMENTS

        assert "guard" in EXPERIMENTS
