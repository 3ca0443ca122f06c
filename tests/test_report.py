"""The Table 1 report generator."""

import pytest

from repro.analysis.report import table1_report


class TestTable1Report:
    @pytest.fixture(scope="class")
    def report_text(self):
        return table1_report(n=128, seeds=(0,)).render()

    def test_every_row_group_present(self, report_text):
        for fragment in (
            "LB Thm 3.8",
            "Alg Thm 3.10 (ell=3)",
            "Alg Thm 3.10 (ell=5)",
            "LB Thm 3.11",
            "Alg Thm 3.15",
            "Alg [1] AG",
            "LB [1]",
            "Alg Thm 3.16 (Las Vegas)",
            "LB Thm 3.16",
            "Alg [16] (Monte Carlo)",
            "Alg Thm 4.1",
            "LB Thm 4.2",
            "Alg Thm 5.1 (k=2)",
            "Alg Thm 5.1 (k=4)",
            "Alg [14]",
            "Alg Thm 5.14",
        ):
            assert fragment in report_text, fragment

    def test_sections_match_paper_groups(self, report_text):
        assert "synchronous / deterministic / simultaneous wake-up" in report_text
        assert "synchronous / deterministic / adversarial wake-up" in report_text
        assert "synchronous / randomized / simultaneous wake-up" in report_text
        assert "synchronous / randomized / adversarial wake-up" in report_text
        assert "asynchronous / randomized" in report_text

    def test_deterministic_rows_always_succeed(self, report_text):
        # the deterministic algorithms must print success == yes
        for line in report_text.splitlines():
            if line.startswith(("Alg Thm 3.10", "Alg Thm 3.15", "Alg [1] AG", "Alg Thm 5.14")):
                assert line.rstrip().endswith("yes"), line

    def test_cli_report_command(self, capsys):
        from repro.__main__ import main

        assert main(["report", "--n", "64", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "Table 1, regenerated at n=64" in out
