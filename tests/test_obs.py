"""The observability plane: spooling, the collector, ``top``, HTML reports."""

import io
import json
import os

import pytest

from repro.__main__ import main
from repro.analysis import RunSpec, sweep
from repro.obs import (
    SPOOL_SCHEMA,
    SweepTop,
    collect,
    new_spool_dir,
    read_spool,
    spool_snapshot,
    write_campaign_report,
)
from repro.telemetry import MetricsRegistry


def _grid():
    return [
        RunSpec(algorithm="improved_tradeoff", n=16, seeds=(0, 1)),
        RunSpec(algorithm="afek_gafni", n=16, seeds=(0, 1, 2)),
        RunSpec(algorithm="las_vegas", n=8, seeds=(0,)),
    ]


class TestSpool:
    def test_snapshot_roundtrip(self, tmp_path):
        spool = str(tmp_path / "obs")
        registry = MetricsRegistry()
        registry.counter("sweep.records").inc(3)
        assert spool_snapshot(spool, cell=0, wall_s=0.5, metrics=registry.as_dict())
        assert spool_snapshot(spool, cell=1, wall_s=0.25, metrics=registry.as_dict())
        snapshots = read_spool(spool)
        assert len(snapshots) == 2
        worker, payload = snapshots[0]
        assert worker.startswith("worker-") and payload["cell"] == 0
        assert payload["wall_s"] == 0.5
        # The header line names the schema and is not a snapshot.
        files = os.listdir(spool)
        assert len(files) == 1
        with open(os.path.join(spool, files[0]), encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["schema"] == SPOOL_SCHEMA

    def test_read_skips_garbage_lines(self, tmp_path):
        spool = tmp_path / "obs"
        spool.mkdir()
        (spool / "worker-1.jsonl").write_text(
            '{"schema": "%s", "pid": 1}\n'
            "not json\n"
            '["a", "list"]\n'
            '{"cell": 4, "wall_s": 0.1, "metrics": {}}\n' % SPOOL_SCHEMA
        )
        snapshots = read_spool(str(spool))
        assert [payload["cell"] for _, payload in snapshots] == [4]
        assert snapshots.torn == 1

    def test_line_torn_mid_json_is_counted_but_not_canonical(self, tmp_path):
        spool = str(tmp_path / "obs")
        for cell in range(3):
            assert spool_snapshot(spool, cell=cell, wall_s=0.1, metrics={})
        (shard,) = os.listdir(spool)
        path = os.path.join(spool, shard)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # a writer killed mid-line
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert read_spool(spool).torn == 1
        report = collect(spool)
        assert report.torn_lines == 1 and report.cells == 2
        assert report.as_dict()["torn_lines"] == 1
        assert "1 torn line(s) skipped" in report.summary()
        assert "torn_lines" not in report.canonical()

    def test_write_failures_are_swallowed(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not directory")
        assert not spool_snapshot(
            str(target / "spool"), cell=0, wall_s=0.0, metrics={}
        )

    def test_new_spool_dir_is_fresh(self, tmp_path):
        root = str(tmp_path / "obs-root")
        first = new_spool_dir(root, sweep_id="alpha")
        assert os.path.isdir(first)
        assert first == os.path.join(root, "alpha")


class TestCollect:
    def test_report_identical_across_worker_counts(self, tmp_path):
        reports = {}
        for workers in (1, 4):
            spool = str(tmp_path / f"spool-{workers}")
            records = sweep(_grid(), workers=workers, spool_dir=spool)
            assert len(records) == 6
            reports[workers] = collect(spool)
        assert (
            reports[1].canonical_bytes() == reports[4].canonical_bytes()
        )
        report = reports[4]
        assert report.cells >= len(_grid())
        assert report.records == 6
        assert report.messages > 0
        assert report.canonical()["counters"]["sweep.records"] == 6
        # Wall-clock stays out of the canonical projection.
        assert "wall" not in json.dumps(report.canonical()).lower()

    def test_profile_fold_identical_and_populated(self, tmp_path):
        pytest.importorskip("numpy")
        spec = RunSpec(
            algorithm="improved_tradeoff", n=256, engine="fast",
            seeds=(0, 1), profile=True,
        )
        canonicals = []
        for workers in (1, 2):
            spool = str(tmp_path / f"spool-{workers}")
            registry = MetricsRegistry()
            sweep([spec], workers=workers, registry=registry, spool_dir=spool)
            report = collect(spool)
            canonicals.append(report.canonical_bytes())
            # Satellite: child-process profiling folds into the merged
            # registry as profile.<phase> histograms.
            payload = registry.as_dict()
            profile_hists = {
                name: h for name, h in payload["histograms"].items()
                if name.startswith("profile.")
            }
            assert profile_hists, "profile phases missing from merged metrics"
            assert all(h["count"] > 0 for h in profile_hists.values())
            assert set(report.profile) == {
                name[len("profile."):] for name in profile_hists
            }
        assert canonicals[0] == canonicals[1]

    def test_summary_names_workers(self, tmp_path):
        spool = str(tmp_path / "spool")
        sweep(_grid()[:1], workers=1, spool_dir=spool)
        report = collect(spool)
        text = report.summary()
        assert "sweep report:" in text
        assert "worker-" in text

    def test_collect_empty_spool(self, tmp_path):
        spool = tmp_path / "empty"
        spool.mkdir()
        report = collect(str(spool))
        assert report.cells == 0 and report.records == 0


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestSweepTop:
    def test_multiline_dashboard_on_tty(self):
        stream = _TtyStream()
        top = SweepTop(stream=stream, live=True)
        assert top.multiline
        sweep(_grid()[:2], workers=1, progress=top)
        top.finalize()
        out = stream.getvalue()
        assert "worker 0" in out
        assert "cells/s" in out
        assert "monitor: (none attached)" in out

    def test_monitor_row_after_finalize(self):
        from repro.monitor import SweepMonitor

        stream = _TtyStream()
        monitor = SweepMonitor()
        top = SweepTop(stream=stream, live=True, monitor=monitor)
        sweep(_grid()[:2], workers=1, progress=top, monitor=monitor)
        top.finalize(monitor)
        final = stream.getvalue()
        assert "conformance 5/5" in final

    def test_degrades_to_one_line_off_tty(self):
        stream = io.StringIO()  # not a TTY
        top = SweepTop(stream=stream, live=True)
        assert not top.multiline
        sweep(_grid()[:1], workers=1, progress=top)
        out = stream.getvalue()
        assert "worker 0" not in out  # parent's one-line rendering only
        assert "\x1b[2K" not in out or "\n" in out

    def test_cli_top_offline(self, capsys):
        assert main([
            "top", "--algorithms", "improved_tradeoff", "--ns", "16",
            "--seeds", "0", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep report:" in out
        assert "conformance: 2/2" in out or "conformance" in out


class TestHtmlReport:
    def _ledger(self, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        from repro.monitor import SweepMonitor

        monitor = SweepMonitor(ledger=ledger, label="unit")
        sweep(_grid(), workers=1, monitor=monitor)
        return ledger

    def test_report_is_self_contained(self, tmp_path):
        ledger = self._ledger(tmp_path)
        out = str(tmp_path / "report.html")
        assert write_campaign_report(out, ledger_path=ledger) == out
        with open(out, encoding="utf-8") as fh:
            html = fh.read()
        # Standalone: no external fetches of any kind.
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and "link rel" not in html
        # Ledger and tradeoff sections are populated.
        assert "Run ledger" in html and "unit" in html
        assert "Messages vs rounds" in html
        assert html.count('class="pt"') >= 3  # one point per algorithm
        assert 'class="envelope"' in html  # theorem guides
        assert "Critical paths" in html

    def test_report_ranks_critical_paths(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path)
        trace = str(tmp_path / "t.jsonl")
        assert main(["trace", "record", "improved_tradeoff", "--n", "16",
                     "--seed", "0", "-o", trace]) == 0
        capsys.readouterr()
        out = str(tmp_path / "report.html")
        write_campaign_report(out, ledger_path=ledger, traces=(trace,))
        with open(out, encoding="utf-8") as fh:
            html = fh.read()
        assert "causal summary" in html
        assert "critical path 4 rounds" in html

    def test_empty_ledger_still_renders(self, tmp_path):
        out = str(tmp_path / "report.html")
        write_campaign_report(
            out,
            ledger_path=str(tmp_path / "missing.jsonl"),
            bench_dirs=(str(tmp_path / "nothing"),),
        )
        with open(out, encoding="utf-8") as fh:
            html = fh.read()
        assert "the ledger is empty" in html
        assert "no BENCH_" in html

    def test_cli_report_html(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path)
        out = str(tmp_path / "cli.html")
        assert main(["report", "--html", out, "--ledger", ledger]) == 0
        assert "wrote" in capsys.readouterr().out
        assert os.path.getsize(out) > 1000

    def test_bench_baselines_section(self, tmp_path):
        bench_dir = tmp_path / "baselines"
        bench_dir.mkdir()
        (bench_dir / "BENCH_demo.json").write_text(
            json.dumps({"bench": "demo", "metrics": {"messages": 123.0}})
        )
        out = str(tmp_path / "report.html")
        write_campaign_report(
            out,
            ledger_path=str(tmp_path / "missing.jsonl"),
            bench_dirs=(str(bench_dir),),
        )
        with open(out, encoding="utf-8") as fh:
            html = fh.read()
        assert "demo" in html and "123" in html


class TestHistoryPrune:
    def test_prune_keeps_newest(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        from repro.monitor import SweepMonitor

        for label in ("first", "second", "third"):
            monitor = SweepMonitor(ledger=ledger, label=label)
            sweep(_grid()[:1], workers=1, monitor=monitor)
        assert main(["history", "prune", "--keep", "2",
                     "--ledger", ledger]) == 0
        assert "kept 2, dropped 1" in capsys.readouterr().out
        from repro.monitor import read_ledger

        labels = [e["label"] for e in read_ledger(ledger)]
        assert labels == ["second", "third"]

    def test_prune_rejects_negative(self, tmp_path, capsys):
        assert main(["history", "prune", "--keep", "-1",
                     "--ledger", str(tmp_path / "l.jsonl")]) == 2
        assert "keep must be" in capsys.readouterr().err

    def test_history_still_lists_without_subcommand(self, tmp_path, capsys):
        assert main(["history", "--ledger", str(tmp_path / "l.jsonl")]) == 0
        assert "is empty" in capsys.readouterr().out
