"""The ``python -m repro faults`` subcommand."""

import pytest

from repro.__main__ import build_parser, main

from tests.helpers import run_cli


class TestParsing:
    def test_crash_spec(self):
        args = build_parser().parse_args(
            ["faults", "monarchical", "--crash", "3@2", "--crash", "5@4.5"]
        )
        assert [(c.node, c.at) for c in args.crash] == [(3, 2.0), (5, 4.5)]

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "monarchical", "--crash", "nope"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "nope"])


class TestRuns:
    def test_monarchical_crash(self, capsys):
        assert main(["faults", "monarchical", "--n", "16", "--crash", "15@2"]) == 0
        out = capsys.readouterr().out
        assert "survivor leader" in out
        assert "yes" in out

    def test_reelect_kill_leader(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "reelect",
                    "--n",
                    "24",
                    "--kill-leader",
                    "--param",
                    "inner=afek_gafni",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kill-leader" in out
        assert "yes" in out

    def test_async_engine(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "monarchical",
                    "--n",
                    "12",
                    "--engine",
                    "async",
                    "--crash",
                    "11@0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "async engine" in out

    def test_crash_oblivious_algorithm_fails_visibly(self, capsys):
        # The paper's algorithms are crash-oblivious by design; the CLI
        # must report the failed failover (exit 1) rather than hide it.
        assert (
            main(["faults", "kutten16", "--n", "64", "--duplicate", "0.05"]) == 1
        )
        out = capsys.readouterr().out
        assert "kutten16" in out
        assert "without a unique surviving leader" in out

    def test_engine_mismatch_errors(self, capsys):
        assert main(["faults", "las_vegas", "--engine", "async"]) == 2
        assert "las_vegas runs on the sync engine, not async" in capsys.readouterr().err

    def test_inner_engine_mismatch_is_a_one_line_error(self):
        proc = run_cli(
            "faults", "reelect", "--n", "16", "--engine", "async",
            "--param", "inner=afek_gafni",
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: afek_gafni runs on the sync engine, not async\n"

    @pytest.mark.parametrize(
        "argv,who",
        [
            (("async_tradeoff", "--n", "16", "--duplicate", "0.3"), "async_tradeoff"),
            (("async_afek_gafni", "--n", "16", "--duplicate", "0.3"), "async_afek_gafni"),
            (("reelect", "--n", "16", "--engine", "async", "--duplicate", "0.05",
              "--seeds", "1"), "reelect's inner election async_tradeoff"),
        ],
        ids=["async_tradeoff", "async_afek_gafni", "async-reelect"],
    )
    def test_async_duplicates_for_exactly_once_elections_are_refused(self, argv, who):
        proc = run_cli("faults", *argv)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {who} assumes exactly-once delivery on the async engine, "
            "but the fault plan duplicates messages (duplicate_prob > 0)\n"
        )

    def test_duplicates_stay_allowed_where_delivery_may_repeat(self, capsys):
        # The sync wrapper and the detector-driven async monarchical
        # take duplicated messages.
        assert main(["faults", "reelect", "--n", "16", "--duplicate", "0.3",
                     "--seeds", "0"]) == 0
        assert main(["faults", "monarchical", "--n", "16", "--engine", "async",
                     "--duplicate", "0.3", "--seeds", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("faults", "reelect", "--engine", "async", "--n", "8", "--seeds", "0",
             "--crash", "3@nan"),
            ("faults", "reelect", "--n", "8", "--seeds", "0", "--crash", "3@inf"),
            ("faults", "reelect", "--n", "8", "--seeds", "0", "--crash", "3@1",
             "--lag", "nan"),
            ("faults", "reelect", "--n", "8", "--seeds", "0", "--kill-leader",
             "--kill-delay", "nan"),
            ("run", "improved_tradeoff", "--n", "8", "--partition", "4@nan-3"),
            ("run", "improved_tradeoff", "--n", "8", "--partition", "4@1-nan"),
        ],
        ids=["crash-nan", "crash-inf", "lag-nan", "kill-delay-nan",
             "partition-start-nan", "partition-end-nan"],
    )
    def test_nan_fault_times_are_one_line_errors(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, proc.stderr
        assert "nan" in errors[0] or "inf" in errors[0]

    def test_eventually_perfect_flags(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "monarchical",
                    "--n",
                    "16",
                    "--detector",
                    "eventually_perfect",
                    "--lag",
                    "1",
                    "--noise-horizon",
                    "3",
                    "--false-prob",
                    "0.2",
                    "--param",
                    "stable_rounds=6",
                    "--crash",
                    "15@2",
                ]
            )
            == 0
        )
        assert "eventually_perfect" in capsys.readouterr().out
