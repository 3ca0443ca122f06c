"""The ``python -m repro scenarios`` subcommand."""

import json

import pytest

from repro.__main__ import build_parser, main

from tests.helpers import run_cli


class TestParsing:
    def test_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["scenarios", "list"]).scenario_command == "list"
        args = parser.parse_args(
            ["scenarios", "run", "partition_heal", "--n", "64", "--seed", "1",
             "--json", "-"]
        )
        assert args.name == "partition_heal" and args.json == "-"
        args = parser.parse_args(
            ["scenarios", "sweep", "election_storm", "--ns", "16", "32",
             "--seeds", "0", "1"]
        )
        assert args.ns == [16, 32]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "run", "nope"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestList:
    def test_lists_all_named_scenarios(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("partition_heal", "rolling_restart", "flapping_leader",
                     "staggered_joins", "election_storm"):
            assert name in out


class TestRun:
    def test_partition_heal_acceptance(self, capsys):
        """The acceptance-criteria invocation: JSON on stdout, exit 0."""
        assert main(
            ["scenarios", "run", "partition_heal", "--n", "64", "--seed", "1",
             "--json", "-"]
        ) == 0
        out = capsys.readouterr().out
        assert "agreed by all up nodes" in out
        payload = json.loads(out[out.index("{"):])
        metrics = payload["metrics"]
        assert metrics["final_agreed"] is True
        assert metrics["final_leader_id"] is not None
        assert metrics["mean_failover_latency"] > 0
        assert metrics["epoch_churn"] >= 4
        assert metrics["message_overhead"] > 1.0
        triggers = [e["trigger"] for e in payload["epochs"]]
        assert triggers == ["initial", "partition", "heal"]

    def test_json_file_output(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(
            ["scenarios", "run", "election_storm", "--n", "16",
             "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["scenario"] == "election_storm"
        assert len(payload["records"]) == payload["metrics"]["elections"]

    def test_fast_engine_subset(self, capsys):
        pytest.importorskip("numpy")
        assert main(
            ["scenarios", "run", "rolling_restart", "--n", "16", "--engine", "fast"]
        ) == 0
        assert "agreed by all up nodes" in capsys.readouterr().out

    def test_partitioned_scenario_runs_on_fast(self, capsys):
        pytest.importorskip("numpy")
        assert main(
            ["scenarios", "run", "partition_heal", "--n", "16", "--engine", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "fast engine" in out
        assert "partition" in out

    def test_async_engine(self, capsys):
        assert main(
            ["scenarios", "run", "flapping_leader", "--n", "12",
             "--engine", "async"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch_churn=4" in out


class TestSweep:
    def test_sweep_table_and_json(self, capsys):
        assert main(
            ["scenarios", "sweep", "rolling_restart", "--ns", "8", "12",
             "--seeds", "0", "1", "--json", "-"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario sweep" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["scenario"] == "rolling_restart"
        assert "n=8/seed=0/messages" in payload["metrics"]

    @pytest.mark.parametrize("engine", ["sync", "fast"])
    def test_worker_count_does_not_change_output(self, engine):
        if engine == "fast":
            pytest.importorskip("numpy")
        argv = ["scenarios", "sweep", "rolling_restart", "--ns", "8", "12",
                "--seeds", "0", "1", "--engine", engine, "--json", "-"]
        one = run_cli(*argv, "--workers", "1")
        two = run_cli(*argv, "--workers", "2")
        assert one.returncode == two.returncode == 0, (one.stderr, two.stderr)
        assert "scenario sweep" in one.stdout
        assert one.stdout == two.stdout

    def test_batch_flag_is_gone(self):
        proc = run_cli(
            "scenarios", "sweep", "election_storm", "--ns", "16", "--seeds", "0",
            "--engine", "fast", "--batch",
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --batch" in proc.stderr


class TestUsageErrors:
    """Bad ``--inner``/``--lag`` values fail before any act runs."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "election_storm", "--n", "16", "--engine", "fast",
              "--inner", "monarchical"], "no vectorized port"),
            (["sweep", "election_storm", "--ns", "16", "--seeds", "0",
              "--inner", "nosuch"], "unknown algorithm"),
            (["sweep", "election_storm", "--ns", "16", "--seeds", "0",
              "--inner", "nosuch", "--workers", "2"], "unknown algorithm"),
            (["sweep", "election_storm", "--ns", "16", "--seeds", "0",
              "--engine", "async", "--inner", "improved_tradeoff"],
             "runs on the sync engine"),
            (["run", "election_storm", "--n", "16", "--lag", "nan"],
             "detector lag must be >= 0"),
            (["sweep", "election_storm", "--ns", "16", "--seeds", "0",
              "--lag", "nan"], "detector lag must be >= 0"),
        ],
        ids=["run-fast-no-port", "sweep-unknown", "sweep-unknown-workers",
             "sweep-async-wrong-engine", "run-lag-nan", "sweep-lag-nan"],
    )
    def test_one_error_line_and_exit_2(self, argv, message):
        if "fast" in argv:
            pytest.importorskip("numpy")
        proc = run_cli("scenarios", *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert message in lines[0]
