"""Result export/import round-trips (repro.analysis.export)."""

import pytest

from repro.analysis.export import (
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
)
from repro.analysis import RunSpec, sweep
from repro.analysis.runner import RunRecord
from repro.core import ImprovedTradeoffElection


@pytest.fixture(scope="module")
def sample_records():
    return sweep(
        RunSpec(
            algorithm=lambda: ImprovedTradeoffElection(ell=3),
            n=n,
            engine="sync",
            seeds=(0, 1),
            params={"ell": 3, "label": "demo"},
        )
        for n in (16, 32)
    )


class TestJsonl:
    def test_roundtrip(self, sample_records):
        text = records_to_jsonl(sample_records)
        back = records_from_jsonl(text)
        assert back == sample_records

    def test_one_line_per_record(self, sample_records):
        text = records_to_jsonl(sample_records)
        assert len(text.strip().splitlines()) == len(sample_records)

    def test_empty(self):
        assert records_to_jsonl([]) == ""
        assert records_from_jsonl("") == []

    def test_blank_lines_tolerated(self, sample_records):
        text = records_to_jsonl(sample_records) + "\n\n"
        assert len(records_from_jsonl(text)) == len(sample_records)


class TestCsv:
    def test_roundtrip_core_fields(self, sample_records):
        text = records_to_csv(sample_records)
        back = records_from_csv(text)
        for a, b in zip(sample_records, back):
            assert (a.n, a.seed, a.messages, a.time) == (b.n, b.seed, b.messages, b.time)
            assert a.unique_leader == b.unique_leader
            assert a.elected_id == b.elected_id

    def test_param_columns_flattened(self, sample_records):
        text = records_to_csv(sample_records)
        header = text.splitlines()[0]
        assert "param_ell" in header
        assert "param_label" in header
        back = records_from_csv(text)
        assert back[0].params["ell"] == 3
        assert back[0].params["label"] == "demo"

    def test_extra_columns(self, sample_records):
        text = records_to_csv(sample_records)
        back = records_from_csv(text)
        assert back[0].extra["rounds_executed"] == sample_records[0].extra["rounds_executed"]

    def test_heterogeneous_params(self):
        a = RunRecord(4, 0, 1, 1.0, True, 4, 1, 4, 4, params={"x": 1}, extra={})
        b = RunRecord(4, 1, 1, 1.0, True, 4, 1, 4, 4, params={"y": "z"}, extra={})
        text = records_to_csv([a, b])
        back = records_from_csv(text)
        assert back[0].params == {"x": 1}
        assert back[1].params == {"y": "z"}
