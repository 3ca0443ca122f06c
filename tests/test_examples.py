"""Smoke tests: the example scripts must run end to end.

The heavyweight scenario examples are exercised at reduced size where
they accept one, and skipped here when they would dominate the suite's
runtime (the benchmarks run them implicitly at full size anyway).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *argv, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "elected ID" in out
        assert "unique leader" in out

    def test_tradeoff_frontier_small(self):
        out = run_example("tradeoff_frontier.py", "128")
        assert "Thm 3.10 (measured)" in out
        assert "Afek-Gafni (measured)" in out
        assert "k = 2" in out

    @pytest.mark.slow
    def test_small_id_universe(self):
        out = run_example("small_id_universe.py")
        assert "o(n log n)!" in out
        assert "ValueError" in out  # the guard-rail demo

    @pytest.mark.slow
    def test_sensor_wakeup(self):
        out = run_example("sensor_wakeup.py")
        assert "reliability" in out
        assert "Theorem 4.2 floor" in out

    @pytest.mark.slow
    def test_datacenter_failover(self):
        out = run_example("datacenter_failover.py", timeout=600)
        assert "new coordinator" in out

    @pytest.mark.slow
    def test_adversary_stress(self):
        out = run_example("adversary_stress.py", timeout=600)
        assert "same winner everywhere" in out

    def test_trace_walkthrough(self):
        out = run_example("trace_walkthrough.py")
        assert "compete" in out
        assert "you-win!" in out
        assert "leader id 99" in out

    def test_partition_drill(self):
        out = run_example("partition_drill.py", "16")
        assert "split-brain window measured" in out
        assert "single agreed coordinator" in out
        assert "SPLIT/NONE" in out

    @pytest.mark.slow
    def test_complexity_scaling_runs(self):
        # full size but fast enough (~1 min); asserts the table and fits print.
        out = run_example("complexity_scaling.py", timeout=400)
        assert "fitted power laws" in out
        assert "monte carlo [16]" in out
