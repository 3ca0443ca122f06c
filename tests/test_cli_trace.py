"""``repro trace`` and the ``--trace`` recording flags."""

import pytest

from repro.__main__ import main
from repro.telemetry import SCHEMA, load_trace
from repro.telemetry.stats import sends_per_round


class TestTraceRecord:
    def test_sync_record_writes_per_message_trace(self, tmp_path, capsys):
        out = str(tmp_path / "sync.jsonl")
        assert main(["trace", "record", "improved_tradeoff", "--n", "32",
                     "-o", out]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        trace = load_trace(out)
        assert trace.schema == SCHEMA
        assert trace.run_context.engine == "sync"
        assert len(trace.of_kind("send")) > 0
        assert len(trace.of_kind("decide")) == 32

    def test_fast_record_writes_aggregates(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        out = str(tmp_path / "fast.jsonl")
        assert main(["trace", "record", "improved_tradeoff", "--n", "48",
                     "--engine", "fast", "-o", out]) == 0
        assert "aggregate events" in capsys.readouterr().out
        trace = load_trace(out)
        assert trace.run_context.engine == "fast"
        assert trace.context["mode"] == "exact"
        rounds = trace.of_kind("round")
        assert rounds and not trace.of_kind("send")

    def test_fast_aggregates_match_object_engine_bit_exactly(self, tmp_path):
        """Exact mode: the recorded fast counters equal an object-engine
        replay of the same wiring, round for round."""
        pytest.importorskip("numpy")
        from repro.telemetry import trace_fast_lane

        out = str(tmp_path / "fast.jsonl")
        assert main(["trace", "record", "improved_tradeoff", "--n", "48",
                     "--seed", "7", "--engine", "fast", "-o", out]) == 0
        trace = load_trace(out)
        lane = trace_fast_lane(48, "improved_tradeoff", seed=7)
        assert lane.matches, lane.mismatches
        assert sends_per_round(trace) == dict(lane.sync_result.metrics.sends_by_round)

    def test_bad_algorithm_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "record", "nope", "-o", str(tmp_path / "x.jsonl")])


class TestRunTraceFlag:
    def test_run_trace_records(self, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        assert main(["run", "improved_tradeoff", "--n", "32",
                     "--trace", out]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        assert load_trace(out).run_context.algorithm == "improved_tradeoff"

    def test_trace_needs_single_seed(self, tmp_path, capsys):
        assert main(["run", "improved_tradeoff", "--n", "32", "--seeds", "0", "1",
                     "--trace", str(tmp_path / "x.jsonl")]) == 2
        assert "exactly one seed" in capsys.readouterr().err

    def test_batched_trace_records_every_lane(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        out = str(tmp_path / "batched.jsonl")
        assert main(["run", "improved_tradeoff", "--n", "32", "--engine",
                     "fast", "--seeds", "0", "1", "--batch", "2",
                     "--trace", out]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        from repro.telemetry import trace_lanes

        assert trace_lanes(load_trace(out)) == [0, 1]

    def test_trace_rejects_multiple_batched_runs(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        assert main(["run", "improved_tradeoff", "--n", "32", "--engine", "fast",
                     "--seeds", "0", "1", "2", "--batch", "2",
                     "--trace", str(tmp_path / "x.jsonl")]) == 2
        assert "at most --batch seeds" in capsys.readouterr().err


class TestScenarioAndAdversaryTrace:
    def test_scenario_trace_carries_act_annotations(self, tmp_path, capsys):
        out = str(tmp_path / "scen.jsonl")
        assert main(["scenarios", "run", "flapping_leader", "--n", "8",
                     "--trace", out]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        trace = load_trace(out)
        assert trace.run_context.scenario == "flapping_leader"
        acts = {a.get("act") for a in trace.annotations if "act" in a}
        assert acts  # mid-scenario events are stamped with act coordinates
        assert any(a.get("trigger") == "baseline" for a in trace.annotations)

    def test_scenario_trace_rejects_fast_engine(self, tmp_path, capsys):
        assert main(["scenarios", "run", "election_storm", "--n", "16",
                     "--engine", "fast",
                     "--trace", str(tmp_path / "x.jsonl")]) == 2
        assert "no per-event recorder hooks" in capsys.readouterr().err

    def test_adversary_trace_records_tampering(self, tmp_path, capsys):
        out = str(tmp_path / "adv.jsonl")
        assert main(["adversary", "run", "--n", "9", "--byzantine", "0",
                     "--tamper", "forge:compete", "--trace", out]) == 0
        assert "trace: wrote" in capsys.readouterr().out
        trace = load_trace(out)
        assert len(trace.of_kind("tamper")) > 0

    def test_adversary_trace_needs_single_seed(self, tmp_path, capsys):
        assert main(["adversary", "run", "--n", "9", "--seeds", "0", "1",
                     "--trace", str(tmp_path / "x.jsonl")]) == 2
        assert "exactly one seed" in capsys.readouterr().err


class TestTraceInspect:
    @pytest.fixture
    def trace_path(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", out])
        return out

    def test_inspect_prints_header_and_events(self, trace_path, capsys):
        assert main(["trace", "inspect", trace_path, "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "schema repro.trace/1" in out
        assert "decide" in out

    def test_kind_and_node_filters(self, trace_path, capsys):
        assert main(["trace", "inspect", trace_path, "--kind", "decide",
                     "--node", "3"]) == 0
        out = capsys.readouterr().out
        assert "1 of" in out
        assert "wake" not in out

    def test_limit_truncates(self, trace_path, capsys):
        assert main(["trace", "inspect", trace_path, "--limit", "2"]) == 0
        assert "raise --limit" in capsys.readouterr().out

    def test_timeline_renders_grid(self, trace_path, capsys):
        assert main(["trace", "inspect", trace_path, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "node  0" in out.replace("node 0", "node  0")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "inspect", str(tmp_path / "no.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_trace_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nope": 1}\n')
        assert main(["trace", "inspect", str(bad)]) == 2
        assert "schema" in capsys.readouterr().err


class TestTraceStats:
    def test_stats_summary(self, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", out])
        capsys.readouterr()
        assert main(["trace", "stats", out]) == 0
        text = capsys.readouterr().out
        assert "events:" in text
        assert "payload kinds:" in text
        assert "decides: 16" in text

    def test_stats_json_export(self, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", out])
        json_path = tmp_path / "stats.json"
        assert main(["trace", "stats", out, "--json", str(json_path)]) == 0
        import json

        payload = json.loads(json_path.read_text())
        assert payload["stats"]["decides"] == 16
        assert payload["context"]["algorithm"] == "improved_tradeoff"


class TestTraceDiff:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", a])
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", b])
        capsys.readouterr()
        assert main(["trace", "diff", a, b]) == 0
        assert "traces agree" in capsys.readouterr().out

    def test_injected_divergence_is_localized_to_first_round(self, tmp_path, capsys):
        """An event dropped from round 2 moves exactly one send total; the
        diff must name round 2, not just report a mismatch."""
        import json

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", str(a)])
        lines = a.read_text().splitlines()
        kept = []
        dropped = False
        for line in lines:
            row = json.loads(line)
            if not dropped and row.get("k") == "send" and row.get("t") == 2.0:
                dropped = True
                continue
            kept.append(line)
        assert dropped
        b.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at round 2" in out

    def test_cross_engine_diff_reports_context(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        a = str(tmp_path / "sync.jsonl")
        b = str(tmp_path / "fast.jsonl")
        main(["trace", "record", "las_vegas", "--n", "32", "-o", a])
        main(["trace", "record", "las_vegas", "--n", "32", "--engine", "fast",
              "-o", b])
        capsys.readouterr()
        main(["trace", "diff", a, b])
        out = capsys.readouterr().out
        assert "context[engine]: 'sync' vs 'fast'" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        main(["trace", "record", "improved_tradeoff", "--n", "16", "-o", a])
        assert main(["trace", "diff", a, str(tmp_path / "no.jsonl")]) == 2
