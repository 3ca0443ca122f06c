"""The ``python -m repro adversary`` subcommand."""

import json

import pytest

from repro.__main__ import build_parser, main

from tests.helpers import run_cli


class TestParsing:
    def test_run_flags_parse(self):
        args = build_parser().parse_args(
            ["adversary", "run", "--n", "9", "--slander", "0:8@5-60",
             "--crash", "3@10", "--byzantine", "0", "--tamper", "forge:compete"]
        )
        assert args.adversary_command == "run"
        assert args.slander[0].accuser == 0
        assert args.slander[0].victims == (8,)
        assert args.slander[0].start == 5.0 and args.slander[0].end == 60.0
        assert args.tamper[0].mode == "forge"
        assert args.tamper[0].kinds == ("compete",)

    def test_open_ended_slander(self):
        args = build_parser().parse_args(
            ["adversary", "run", "--slander", "0:3@5"]
        )
        assert args.slander[0].end is None

    def test_bad_specs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "run", "--slander", "oops"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "run", "--tamper", "gaslight"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary"])

    def test_semantic_slander_errors_keep_their_message(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "run", "--slander", "0:0@5"])
        assert "slander itself" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "run", "--slander", "0:3@9-5"])
        assert "after its start" in capsys.readouterr().err

    def test_bad_threshold_is_a_usage_error(self, capsys):
        assert main(
            ["adversary", "run", "--n", "5", "--slander", "0:4@5-60",
             "--threshold", "0.3", "--seeds", "0"]
        ) == 2
        assert "majority" in capsys.readouterr().err
        assert main(
            ["adversary", "sweep", "--ns", "8", "--seeds", "0",
             "--threshold", "0.2"]
        ) == 2
        assert "majority" in capsys.readouterr().err



class TestRun:
    def test_slander_crash_quorum_run(self, capsys):
        assert main(
            ["adversary", "run", "--n", "9", "--slander", "0:8@5-60",
             "--crash", "3@10", "--seeds", "0", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "quorum_reelect" in out

    def test_forge_run_counts_tampering(self, capsys):
        assert main(
            ["adversary", "run", "--n", "8", "--byzantine", "0",
             "--tamper", "forge:compete", "--seeds", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "tampers=1" in out

    def test_no_quorum_slander_fails_nonzero_exit(self, capsys):
        """The plain wrapper loses under slander — split brain (the
        deposed victim also commits LEADER) or a stall, depending on
        when the rumor lands relative to the commit window."""
        assert main(
            ["adversary", "run", "--n", "7", "--slander", "0:6@5",
             "--no-quorum", "--seeds", "0"]
        ) == 1
        out = capsys.readouterr().out
        assert "STALLED" in out or "without a unique surviving leader" in out

    def test_quorum_wins_where_plain_fails(self, capsys):
        """Same slander schedule, quorum gating on: clean convergence."""
        assert main(
            ["adversary", "run", "--n", "7", "--slander", "0:6@5", "--seeds", "0"]
        ) == 0

    def test_tamper_without_byzantine_is_a_usage_error(self, capsys):
        """--tamper alone must not silently run an honest election."""
        assert main(
            ["adversary", "run", "--n", "8", "--tamper", "forge:compete",
             "--seeds", "0"]
        ) == 2
        assert "byzantine" in capsys.readouterr().err

    def test_invalid_plan_is_a_usage_error(self, capsys):
        assert main(
            ["adversary", "run", "--n", "4", "--byzantine", "0", "1",
             "--tamper", "corrupt", "--seeds", "0"]
        ) == 2
        assert "f >= n/2" in capsys.readouterr().err

    def test_async_engine_run(self, capsys):
        assert main(
            ["adversary", "run", "--n", "6", "--slander", "0:5@2",
             "--engine", "async", "--seeds", "0"]
        ) == 0


class TestSweep:
    def test_no_quorum_stall_is_reported_not_raised(self, capsys):
        assert main(
            ["adversary", "sweep", "--ns", "7", "--seeds", "0",
             "--mode", "slander", "--no-quorum"]
        ) == 1
        assert "STALLED" in capsys.readouterr().out

    def test_sweep_json_metrics(self, capsys):
        assert main(
            ["adversary", "sweep", "--ns", "8", "--seeds", "0",
             "--mode", "both", "--json", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        metrics = payload["metrics"]
        assert metrics["n=8/byzantine_messages"] > metrics["n=8/honest_messages"]
        assert metrics["n=8/overhead"] > 1.0


class TestInnerEngineMismatch:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--engine", "async", "--inner", "afek_gafni"],
            ["--inner", "async_tradeoff"],
        ],
    )
    def test_one_line_error_without_traceback(self, argv):
        proc = run_cli("adversary", "run", "--n", "16", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
