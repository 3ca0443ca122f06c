"""The persistent run ledger: entries, refs, and cross-entry regression diffs.

Everything runs against tmp_path ledgers; ``spec_hash`` stability is the
load-bearing property (same workload on a later commit must land on the
same hash so ``repro compare`` pairs the entries).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.runner import RunRecord
from repro.monitor import (
    SweepMonitor,
    Violation,
    append_entry,
    compare_entries,
    make_entry,
    read_ledger,
    resolve_ref,
    spec_hash,
)
from repro.monitor.ledger import LEDGER_SCHEMA, git_sha, prune_ledger
from repro.sweep import RunSpec, sweep


def record(name, messages=100, time=3.0, n=16, seed=0):
    return RunRecord(
        n=n, seed=seed, messages=messages, time=time, unique_leader=True,
        elected_id=n, leaders=1, decided=n, awake=n, params={},
        extra={"algorithm": name},
    )


def entry(messages=100, violations=(), label=None, specs=None):
    return make_entry(
        [record("las_vegas", messages=messages, seed=s) for s in (0, 1)],
        specs=specs,
        violations=violations,
        label=label,
    )


class TestSpecHash:
    def test_stable_across_equal_workloads(self):
        a = [RunSpec(algorithm="las_vegas", n=16, seeds=(0, 1))]
        b = [RunSpec(algorithm="las_vegas", n=16, seeds=(0, 1))]
        assert spec_hash(a) == spec_hash(b)
        assert len(spec_hash(a)) == 16

    @pytest.mark.parametrize(
        "other",
        [
            dict(algorithm="kutten16"),
            dict(n=32),
            dict(seeds=(0, 2)),
            dict(params={"d": 4}),
        ],
    )
    def test_sensitive_to_workload_coordinates(self, other):
        base = dict(algorithm="las_vegas", n=16, seeds=(0, 1))
        assert spec_hash([RunSpec(**base)]) != spec_hash(
            [RunSpec(**{**base, **other})]
        )

    def test_callable_algorithms_hash_by_qualname(self):
        class Toy:
            pass

        spec = RunSpec(algorithm=Toy, n=4)
        assert spec_hash([spec]) == spec_hash([RunSpec(algorithm=Toy, n=4)])


class TestEntries:
    def test_make_entry_shape(self):
        violations = [Violation(monitor="agreement", message="boom")]
        e = entry(violations=violations, label="smoke",
                  specs=[RunSpec(algorithm="las_vegas", n=16, seeds=(0, 1))])
        assert e["schema"] == LEDGER_SCHEMA
        assert e["runs"] == 2 and e["label"] == "smoke"
        assert e["spec_hash"] is not None
        assert e["messages"]["mean"] == 100.0
        assert e["by_algorithm"]["messages"]["las_vegas"]["count"] == 2
        assert e["violations"][0]["monitor"] == "agreement"
        # git_sha inside a checkout; the entry just mirrors it.
        assert e["git_sha"] == git_sha()
        json.dumps(e)  # JSON-safe end to end

    def test_append_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "deep" / "ledger.jsonl")
        assert append_entry(entry(label="a"), path) == path
        append_entry(entry(label="b"), path)
        entries = read_ledger(path)
        assert [e["label"] for e in entries] == ["a", "b"]

    def test_read_skips_garbage_lines(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_entry(entry(label="good"), path)
        with open(path, "a") as fh:
            fh.write("not json\n\n[1, 2]\n")
        entries = read_ledger(path)
        assert len(entries) == 1 and entries[0]["label"] == "good"
        assert entries.torn == 1  # "not json"; the list parses, it is just no entry

    def test_read_counts_a_line_torn_mid_json(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_entry(entry(label="a"), path)
        append_entry(entry(label="b"), path)
        with open(path) as fh:
            first, second = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write(first[: len(first) // 2] + "\n" + second + "\n")
        entries = read_ledger(path)
        assert [e["label"] for e in entries] == ["b"]
        assert entries.torn == 1

    def test_read_missing_ledger(self, tmp_path):
        entries = read_ledger(str(tmp_path / "absent.jsonl"))
        assert entries == [] and entries.torn == 0


#: One appender process: ``argv[1]`` is the ledger, ``argv[2]`` its tag.
_APPENDER = """
import sys
from repro.monitor.ledger import append_entry
for i in range(150):
    append_entry({"label": f"{sys.argv[2]}-{i}"}, sys.argv[1])
"""


class TestConcurrentPrune:
    def test_appends_racing_a_pruner_are_never_lost(self, tmp_path):
        # Four appender processes on two cores, against a pruner that
        # keeps everything and rewrites the file as fast as it can: an
        # append landing between a prune's read and its replace would
        # vanish.
        path = str(tmp_path / "ledger.jsonl")
        append_entry({"label": "seed"}, path)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        tags = [f"w{k}" for k in range(4)]
        procs = [
            subprocess.Popen([sys.executable, "-c", _APPENDER, path, tag], env=env)
            for tag in tags
        ]
        deadline = time.monotonic() + 120
        prunes = 0
        try:
            while any(p.poll() is None for p in procs) and time.monotonic() < deadline:
                prune_ledger(path, keep=10**6)
                prunes += 1
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait(timeout=10)
        assert [p.returncode for p in procs] == [0] * len(tags)
        assert prunes > 0
        labels = [e["label"] for e in read_ledger(path)]
        want = ["seed"] + [f"{tag}-{i}" for tag in tags for i in range(150)]
        assert sorted(labels) == sorted(want)
        # Every prune cleaned up its own temp file.
        assert sorted(os.listdir(tmp_path)) == ["ledger.jsonl", "ledger.jsonl.lock"]


class TestResolveRef:
    def test_by_index_and_negative_index(self):
        entries = [entry(label=f"e{i}") for i in range(3)]
        assert resolve_ref(entries, "0")["label"] == "e0"
        assert resolve_ref(entries, "-1")["label"] == "e2"

    def test_by_hash_prefix_newest_wins(self):
        old = entry(label="old")
        new = entry(label="new")
        old["git_sha"] = new["git_sha"] = "deadbeef" * 5
        assert resolve_ref([old, new], "deadbeef")["label"] == "new"

    def test_by_spec_hash_prefix(self):
        e = entry(specs=[RunSpec(algorithm="las_vegas", n=16)])
        assert resolve_ref([e], e["spec_hash"][:6]) is e

    def test_by_exact_label_newest_wins(self):
        old, new = entry(label="nightly"), entry(label="nightly")
        new["messages"]["mean"] = 999.0
        assert resolve_ref([old, new], "nightly") is new
        # Prefixes of a label do not match — only hashes match by prefix.
        with pytest.raises(LookupError):
            resolve_ref([old, new], "night")

    def test_lookup_errors(self):
        with pytest.raises(LookupError, match="empty"):
            resolve_ref([], "0")
        with pytest.raises(LookupError, match="zzz"):
            resolve_ref([entry()], "zzz")
        with pytest.raises(LookupError):
            resolve_ref([entry()], "7")  # index out of range

    def test_digits_are_indices_and_short_prefixes_never_match(self):
        e = entry(label="x")
        e["git_sha"] = "7" + "c" * 39
        with pytest.raises(LookupError, match=r"valid range is -1\.\.0"):
            resolve_ref([e], "7")
        with pytest.raises(LookupError, match="7cc"):
            resolve_ref([e], "7cc")  # under git's 4-character minimum
        assert resolve_ref([e], "7ccc") is e
        assert resolve_ref([e], "x") is e  # labels match at any length

    @pytest.mark.parametrize("label", ["2024", "0", "-1"])
    def test_all_digit_labels_are_refused_where_entries_are_written(self, label):
        # resolve_ref reads such a ref as an index, so the entry could
        # never be reached by its label.
        with pytest.raises(ValueError, match="entry index"):
            entry(label=label)
        with pytest.raises(ValueError, match="entry index"):
            SweepMonitor(label=label)

    def test_labels_with_a_non_digit_resolve(self):
        for label in ("v2024", "2024-10", "+1", "1.5"):
            assert resolve_ref([entry(label=label)], label)["label"] == label


class TestCompareEntries:
    def test_identical_entries_ok(self):
        e = entry()
        diff = compare_entries(e, e)
        assert not diff.regressed
        assert "verdict: ok" in diff.summary()

    def test_message_regression_beyond_slack(self):
        diff = compare_entries(entry(messages=100), entry(messages=150))
        assert diff.regressed
        assert diff.deltas["messages/las_vegas"]["rel"] == pytest.approx(0.5)
        assert any("REGRESSION" in line for line in diff.lines)
        assert "verdict: REGRESSED" in diff.summary()

    def test_within_slack_ok_and_slack_configurable(self):
        base, new = entry(messages=100), entry(messages=108)
        assert not compare_entries(base, new).regressed
        assert compare_entries(base, new, slack=0.05).regressed

    def test_improvement_never_regresses(self):
        assert not compare_entries(entry(messages=100), entry(messages=50)).regressed

    def test_new_violations_regress(self):
        bad = entry(violations=[Violation(monitor="agreement", message="boom")])
        diff = compare_entries(entry(), bad)
        assert diff.regressed
        # And the mirror image — violations fixed — is fine.
        assert not compare_entries(bad, entry()).regressed

    def test_differing_spec_hashes_noted(self):
        a = entry(specs=[RunSpec(algorithm="las_vegas", n=16)])
        b = entry(specs=[RunSpec(algorithm="las_vegas", n=32)])
        diff = compare_entries(a, b)
        assert any("spec hashes differ" in line for line in diff.lines)

    def test_algorithm_only_in_one_entry(self):
        other = make_entry([record("kutten16")])
        diff = compare_entries(entry(), other)
        assert any("only in" in line for line in diff.lines)

    def test_to_dict_roundtrips_through_json(self):
        diff = compare_entries(entry(messages=100), entry(messages=150))
        payload = json.loads(json.dumps(diff.to_dict()))
        assert payload["regressed"] is True


class TestSweepMonitorLedger:
    def test_monitored_sweep_appends_an_entry(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        monitor = SweepMonitor(ledger=path, label="pin")
        specs = [RunSpec(algorithm="las_vegas", n=16, seeds=(0, 1))]
        sweep(specs, monitor=monitor)
        assert monitor.ledger_path == path
        entries = read_ledger(path)
        assert len(entries) == 1
        e = entries[0]
        assert e["label"] == "pin" and e["runs"] == 2
        assert e["spec_hash"] == spec_hash(specs)
        assert e["conformance"]["ok"] is True
        assert e["wall_time_s"] > 0
