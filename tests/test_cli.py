"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.core import ALGORITHMS


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

    def test_batch_requires_fast_engine(self):
        with pytest.raises(SystemExit, match="--engine fast"):
            main(["run", "improved_tradeoff", "--n", "64", "--batch", "2"])

    def test_batch_must_be_positive(self):
        pytest.importorskip("numpy")
        with pytest.raises(SystemExit, match=">= 1"):
            main(["run", "improved_tradeoff", "--n", "64", "--engine", "fast",
                  "--batch", "0"])

    def test_roots_rejected_for_simultaneous_only_ports(self):
        pytest.importorskip("numpy")
        with pytest.raises(SystemExit, match="simultaneous"):
            main(["run", "afek_gafni", "--n", "64", "--engine", "fast",
                  "--roots", "2"])

    def test_list_reports_fast_ports_for_every_sync_algorithm(self, capsys):
        pytest.importorskip("numpy")
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            name = line.split()[0] if line.strip() else ""
            if name in ("kutten16", "adversarial_2round", "small_id"):
                assert "yes" in line, line
