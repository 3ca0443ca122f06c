"""``repro monitor check``, ``repro history``, ``repro compare`` and the
``trace diff --json`` export.

The CLI acceptance bar: a fault-free monitored smoke sweep exits 0 with
100% conformance and a non-empty ledger, and ``repro compare`` exits
non-zero when message counts regress beyond slack.
"""

import json

import pytest

from repro.__main__ import main
from repro.monitor import append_entry, make_entry, read_ledger
from tests.test_monitor_ledger import record


def check(tmp_path, *extra):
    """A tiny monitored sweep with a tmp ledger; returns (rc, ledger)."""
    ledger = str(tmp_path / "ledger.jsonl")
    rc = main(
        ["monitor", "check", "--algorithms", "las_vegas", "improved_tradeoff",
         "--ns", "16", "--seeds", "0", "1", "--ledger", ledger, *extra]
    )
    return rc, ledger


class TestMonitorCheck:
    def test_smoke_sweep_conforms_and_appends_ledger(self, tmp_path, capsys):
        rc, ledger = check(tmp_path, "--label", "smoke")
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations: 0" in out
        assert "conformance: 4/4 (100.0%)" in out
        assert "Thm 3.16" in out and "Thm 3.10" in out
        assert f"ledger: appended to {ledger}" in out
        entries = read_ledger(ledger)
        assert len(entries) == 1
        assert entries[0]["label"] == "smoke"
        assert entries[0]["runs"] == 4
        assert entries[0]["context"]["cli"] == "monitor check"

    def test_impossible_slack_exits_nonzero(self, tmp_path, capsys):
        rc, _ = check(tmp_path, "--slack", "0.0001")
        out = capsys.readouterr().out
        assert rc == 1
        assert "OUT OF ENVELOPE" in out

    def test_json_report(self, tmp_path, capsys):
        rc, _ = check(tmp_path, "--json", "-")
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert payload["conformance"]["total"] == 4
        assert payload["ledger_path"]

    def test_records_export(self, tmp_path):
        from repro.analysis.export import records_from_jsonl

        records_path = tmp_path / "records.jsonl"
        rc, _ = check(tmp_path, "--records", str(records_path))
        assert rc == 0
        records = records_from_jsonl(records_path.read_text())
        assert len(records) == 4
        assert {r.extra["algorithm"] for r in records} == {
            "las_vegas", "improved_tradeoff",
        }

    def test_progress_flag_renders_line(self, tmp_path, capsys):
        rc, _ = check(tmp_path, "--progress")
        assert rc == 0
        err = capsys.readouterr().err
        assert "cells" in err and "done" in err

    def test_bad_n_is_usage_error(self, tmp_path, capsys):
        rc = main(["monitor", "check", "--algorithms", "las_vegas",
                   "--ns", "0", "--seeds", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_all_digit_label_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            check(tmp_path, "--label", "2024")
        assert exc.value.code == 2
        assert "entry index" in capsys.readouterr().err
        assert read_ledger(str(tmp_path / "ledger.jsonl")) == []


class TestHistory:
    def test_empty_ledger(self, tmp_path, capsys):
        path = str(tmp_path / "none.jsonl")
        assert main(["history", "--ledger", path]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_lists_entries(self, tmp_path, capsys):
        rc, ledger = check(tmp_path, "--label", "first")
        capsys.readouterr()
        assert main(["history", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "run ledger" in out and "first" in out
        assert "100.0%" in out

    def test_torn_lines_are_counted_on_stderr(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        append_entry(make_entry([record("las_vegas")], label="kept"), ledger)
        with open(ledger, "a") as fh:
            fh.write('{"label": "cut", "runs"\n')
        assert main(["history", "--ledger", ledger]) == 0
        captured = capsys.readouterr()
        assert "kept" in captured.out and "(1 entries)" in captured.out
        assert captured.err == f"warning: skipped 1 torn line(s) in {ledger}\n"

    def test_clean_ledger_prints_nothing_on_stderr(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        append_entry(make_entry([record("las_vegas")], label="kept"), ledger)
        assert main(["history", "--ledger", ledger]) == 0
        assert capsys.readouterr().err == ""

    def test_limit_and_json(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        for label in ("alpha", "beta", "gamma"):
            append_entry(
                make_entry([record("las_vegas")], label=label), ledger
            )
        assert main(["history", "--ledger", ledger, "--limit", "2",
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert "alpha" not in out and "gamma" in out
        payload = json.loads(out[out.index("{"):])
        assert [e["label"] for e in payload["entries"]] == ["beta", "gamma"]


class TestCompare:
    def seed_ledger(self, tmp_path, base_messages, new_messages):
        ledger = str(tmp_path / "ledger.jsonl")
        for label, messages in (("base", base_messages), ("new", new_messages)):
            append_entry(
                make_entry(
                    [record("las_vegas", messages=messages, seed=s)
                     for s in (0, 1)],
                    label=label,
                ),
                ledger,
            )
        return ledger

    def test_stable_entries_exit_zero(self, tmp_path, capsys):
        ledger = self.seed_ledger(tmp_path, 100, 102)
        assert main(["compare", "0", "--ledger", ledger]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_message_regression_exits_nonzero(self, tmp_path, capsys):
        ledger = self.seed_ledger(tmp_path, 100, 150)
        assert main(["compare", "0", "--to", "-1", "--ledger", ledger]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "verdict: REGRESSED" in out

    def test_slack_widens_the_gate(self, tmp_path):
        ledger = self.seed_ledger(tmp_path, 100, 150)
        assert main(["compare", "0", "--ledger", ledger, "--slack", "0.6"]) == 0

    def test_unknown_ref_exits_two(self, tmp_path, capsys):
        ledger = self.seed_ledger(tmp_path, 100, 100)
        assert main(["compare", "zzz", "--ledger", ledger]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_export(self, tmp_path, capsys):
        ledger = self.seed_ledger(tmp_path, 100, 150)
        assert main(["compare", "0", "--ledger", ledger, "--json", "-"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["regressed"] is True


class TestTraceDiffJson:
    def test_diff_json_export(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["trace", "record", "las_vegas", "--n", "16", "-o", a])
        main(["trace", "record", "las_vegas", "--n", "16", "--seed", "5",
              "-o", b])
        capsys.readouterr()
        json_path = tmp_path / "diff.json"
        rc = main(["trace", "diff", a, b, "--json", str(json_path)])
        payload = json.loads(json_path.read_text())
        assert payload["a"] == a and payload["b"] == b
        assert payload["diff"]["identical"] is (rc == 0)
        assert "summary" in payload

    def test_identical_diff_json_to_stdout(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        main(["trace", "record", "las_vegas", "--n", "16", "-o", a])
        capsys.readouterr()
        assert main(["trace", "diff", a, a, "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["diff"]["identical"] is True
