"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.core import ALGORITHMS

from tests.helpers import run_cli


class TestList:
    def test_lists_all_algorithms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "improved_tradeoff",
            "afek_gafni",
            "small_id",
            "kutten16",
            "las_vegas",
            "adversarial_2round",
            "async_tradeoff",
            "async_afek_gafni",
        ):
            assert name in out

    def test_engine_column_lists_the_async_twins(self, capsys):
        assert main(["list"]) == 0
        rows = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()[3:]
        }
        assert set(rows) == set(ALGORITHMS)
        for name, engine in rows.items():
            if name in ("monarchical", "reelect", "quorum_reelect"):
                assert engine == "sync+async"
            else:
                assert engine == ALGORITHMS[name].engine


class TestRun:
    def test_run_sync_deterministic(self, capsys):
        assert main(["run", "improved_tradeoff", "--n", "64", "--param", "ell=3"]) == 0
        out = capsys.readouterr().out
        assert "unique leader" in out
        assert "yes" in out

    def test_run_multiple_seeds(self, capsys):
        assert (
            main(["run", "las_vegas", "--n", "64", "--seeds", "0", "1", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert out.count("yes") >= 3

    def test_run_adversarial_roots(self, capsys):
        assert (
            main(
                [
                    "run",
                    "adversarial_2round",
                    "--n",
                    "128",
                    "--roots",
                    "4",
                    "--param",
                    "epsilon=0.02",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Theorem 4.1" in out

    def test_run_async(self, capsys):
        assert main(["run", "async_tradeoff", "--n", "64", "--param", "k=2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 5.1" in out

    def test_run_async_ag_simultaneous(self, capsys):
        assert main(["run", "async_afek_gafni", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out

    def test_run_monarchical_on_its_async_twin(self, capsys):
        # Simultaneous wake-up per the registry: every node polls, and
        # the detector-driven election settles on one leader.
        assert main(["run", "monarchical", "--n", "16", "--engine", "async"]) == 0
        out = capsys.readouterr().out
        assert "engine=async" in out
        seed, unique, _elected, _msgs, _time, decided = out.splitlines()[-1].split()
        assert (seed, unique, decided) == ("0", "yes", "16")

    def test_run_small_id_gets_small_universe(self, capsys):
        assert main(["run", "small_id", "--n", "64", "--param", "d=8"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])


class TestBounds:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3.8" in out
        assert "Thm 5.14" in out
        assert "262,144" in out  # (n/2)^2 at n=1024

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunFastBatch:
    """``repro run --engine fast --batch`` and the fast wake-up flags."""

    def test_batched_run_prints_one_row_per_seed(self, capsys):
        pytest.importorskip("numpy")
        assert (
            main(
                ["run", "improved_tradeoff", "--n", "64", "--engine", "fast",
                 "--seeds", "0", "1", "2", "3", "--batch", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("yes") >= 4

    def test_batched_rows_match_unbatched_in_exact_mode(self, capsys):
        pytest.importorskip("numpy")
        # Lanes of one chunk share the first seed's ID assignment, so a
        # one-chunk batch reproduces the unbatched first-seed workload.
        main(["run", "las_vegas", "--n", "64", "--engine", "fast",
              "--seeds", "0", "1", "--batch", "2"])
        batched = capsys.readouterr().out
        main(["run", "las_vegas", "--n", "64", "--engine", "fast",
              "--seeds", "0", "1"])
        plain = capsys.readouterr().out

        def rows(text):
            return [
                line.split()[:6] for line in text.splitlines()
                if line and line.split()[0] in ("0", "1")
            ]

        assert rows(batched) == rows(plain)

    def test_fast_roots_for_adversarial_2round(self, capsys):
        pytest.importorskip("numpy")
        assert (
            main(["run", "adversarial_2round", "--n", "128", "--engine", "fast",
                  "--roots", "4", "--param", "epsilon=0.02"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Theorem 4.1" in out

    def test_fast_kutten16_runs(self, capsys):
        pytest.importorskip("numpy")
        assert main(["run", "kutten16", "--n", "256", "--engine", "fast"]) == 0
        assert "[16]" in capsys.readouterr().out

    def test_batch_requires_fast_engine(self, capsys):
        assert main(["run", "improved_tradeoff", "--n", "64", "--batch", "2"]) == 2
        assert "--engine fast" in capsys.readouterr().err

    def test_batch_must_be_positive(self, capsys):
        pytest.importorskip("numpy")
        assert main(["run", "improved_tradeoff", "--n", "64", "--engine", "fast",
                     "--batch", "0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_roots_rejected_for_simultaneous_only_ports(self, capsys):
        pytest.importorskip("numpy")
        assert main(["run", "afek_gafni", "--n", "64", "--engine", "fast",
                     "--roots", "2"]) == 2
        assert "simultaneous" in capsys.readouterr().err

    def test_list_reports_fast_ports_for_every_sync_algorithm(self, capsys):
        pytest.importorskip("numpy")
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            name = line.split()[0] if line.strip() else ""
            if name in ("kutten16", "adversarial_2round", "small_id"):
                assert "yes" in line, line


class TestWorkloadSizeErrors:
    """Bad sizes, parameters and flags fail with one ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("run improved_tradeoff --n 8 --roots 9", "--roots must be in [1, n=8], got 9"),
            ("faults monarchical --n 8 --roots 9", "--roots must be in [1, n=8], got 9"),
            ("run improved_tradeoff --n 8 --roots 0", "--roots must be in [1, n=8], got 0"),
            ("faults reelect --engine async --n 8 --roots 0",
             "--roots must be in [1, n=8], got 0"),
            ("run adversarial_2round --engine fast --n 8 --roots 0",
             "--roots must be in [1, n=8], got 0"),
            ("run improved_tradeoff --n 0", "--n must be >= 2, got 0"),
            ("faults reelect --n 0", "--n must be >= 1, got 0"),
            ("trace record improved_tradeoff --n 8 --roots 9 -o unused.jsonl",
             "--roots must be in [1, n=8], got 9"),
            ("run improved_tradeoff --n 16 --param foo=1",
             "ImprovedTradeoffElection.__init__() got an unexpected keyword argument 'foo'"),
            ("run improved_tradeoff --n 16 --engine fast --param foo=1",
             "VectorImprovedTradeoffElection.__init__() got an unexpected keyword "
             "argument 'foo'"),
            ("run improved_tradeoff --n 16 --param ell=4",
             "Theorem 3.10 requires an odd round budget ell >= 3"),
            ("run async_tradeoff --n 16 --param k=0", "Theorem 5.1 requires k >= 2"),
            ("run small_id --n 16",
             "SmallIdElection.__init__() missing 1 required positional argument: 'd'"),
            ("monitor check --ns 16 --seeds 0 --param d=4",
             "ImprovedTradeoffElection.__init__() got an unexpected keyword argument 'd'"),
            ("top --ns 16 --seeds 0 --param foo=1",
             "ImprovedTradeoffElection.__init__() got an unexpected keyword argument 'foo'"),
            ("faults reelect --n 16 --param foo=1",
             "AfekGafniElection.__init__() got an unexpected keyword argument 'foo'"),
        ],
    )
    def test_one_line_error(self, argv, message):
        if "fast" in argv:
            pytest.importorskip("numpy")
        proc = run_cli(*argv.split())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("run improved_tradeoff --param ell",
             "argument --param: parameter 'ell' is not KEY=VALUE"),
            ("faults reelect --param ell",
             "argument --param: parameter 'ell' is not KEY=VALUE"),
            ("trace record improved_tradeoff --param ell -o unused.jsonl",
             "argument --param: parameter 'ell' is not KEY=VALUE"),
            ("bounds 0", "argument n: must be >= 1, got 0"),
            ("report --n 1", "argument --n: must be >= 2, got 1"),
            ("monitor check --workers 0", "argument --workers: must be >= 1, got 0"),
            ("top --workers -1", "argument --workers: must be >= 1, got -1"),
            ("scenarios sweep election_storm --workers 0",
             "argument --workers: must be >= 1, got 0"),
        ],
    )
    def test_one_argparse_error_line(self, argv, message):
        proc = run_cli(*argv.split())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0], proc.stderr

    def test_stalled_run_is_a_row(self):
        proc = run_cli("run", "afek_gafni", "--n", "64", "--partition", "32@2-6")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        row = proc.stdout.splitlines()[3].split()
        assert row[:2] == ["0", "STALLED"], proc.stdout
