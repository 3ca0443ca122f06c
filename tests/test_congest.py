"""The CONGEST audit (repro.monitor.CongestMonitor).

§2: "our algorithms have their claimed complexities also under the
CONGEST model" — every message must fit in O(log n) bits.  The monitor
sizes each sent payload and reports a Violation, never raises.
"""

import pytest

from repro.analysis import RunSpec, run
from repro.monitor import CongestMonitor, MonitorSuite
from repro.monitor.invariants import congest_budget, payload_bits
from repro.trace import CompositeRecorder, MemoryRecorder, TraceEvent


def send(payload, when=1.0, node=0):
    return TraceEvent("send", when, node, (0, 1, 0, payload))


HUGE = 2 ** (64 * 20)  # 1280 bits, far over the budget at n=1024


def audit(payloads, n=1024):
    monitor = CongestMonitor()
    suite = MonitorSuite(monitors=[monitor], n=n)
    suite.replay([send(p) for p in payloads]).finish()
    return monitor, suite


class TestPayloadBits:
    def test_tag_only(self):
        assert payload_bits(("win",)) == 8

    def test_int_field(self):
        assert payload_bits(("compete", 255)) == 8 + 8
        assert payload_bits(("compete", 1)) == 8 + 1

    def test_bool_field(self):
        assert payload_bits(("confirm_reply", True)) == 8 + 1

    def test_nested_fields(self):
        assert payload_bits(("rank", 7, 3)) == 8 + 3 + 2

    def test_none(self):
        assert payload_bits(None) == 1

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            payload_bits(("x", [1, 2]))

    def test_budget_scales_with_log_n(self):
        assert congest_budget(2**20) > congest_budget(2**10)

    @pytest.mark.parametrize(
        "n,budget", [(1, 16), (2, 16), (16, 40), (128, 64), (1024, 88)]
    )
    def test_budget_is_eight_words_plus_a_tag(self, n, budget):
        assert congest_budget(n) == budget

    def test_zero_and_kind_tag_widths(self):
        assert payload_bits(0) == 1
        assert payload_bits(("a",)) == payload_bits(("a_much_longer_kind",)) == 8


class TestCongestMonitor:
    def test_fitting_payloads_are_tallied(self):
        monitor, suite = audit([("compete", 100), ("win",), None])
        assert suite.ok
        assert monitor.messages == 3
        assert monitor.total_bits == (8 + 7) + 8 + 1
        assert monitor.max_bits == 15

    def test_oversized_payload_is_a_violation(self):
        monitor, suite = audit([("huge", HUGE)])
        [violation] = suite.violations
        assert violation.monitor == "congest"
        assert "CONGEST budget" in violation.message
        assert violation.node == 0 and violation.when == 1.0

    def test_unsizable_field_is_a_violation(self):
        monitor, suite = audit([("x", [1, 2]), ("compete", 3)])
        [violation] = suite.violations
        assert "cannot be sized" in violation.message
        assert monitor.messages == 2
        assert monitor.total_bits == 8 + 2  # only the sized send

    def test_one_violation_per_kind(self):
        _, suite = audit([("a", HUGE), ("a", HUGE), ("b", HUGE)])
        assert len(suite.violations) == 2

    def test_other_events_are_ignored(self):
        monitor = CongestMonitor()
        suite = MonitorSuite(monitors=[monitor], n=8)
        suite.replay([TraceEvent("wake", 0.0, 0, ())])
        assert monitor.messages == 0

    def test_needs_n(self):
        with pytest.raises(ValueError, match="needs a suite with n"):
            MonitorSuite(monitors=[CongestMonitor()])

    def test_not_a_default_monitor(self):
        assert "congest" not in {m.name for m in MonitorSuite(n=4).monitors}

    def test_budget_boundary(self):
        # n=16: budget 8*4 + 8 = 40 bits; a tag plus a 32-bit field fits.
        _, suite = audit([("k", 2**32 - 1)], n=16)
        assert suite.ok
        _, suite = audit([("k", 2**32)], n=16)
        assert "41 bits > CONGEST budget 40 bits for n=16" in suite.violations[0].message

    def test_budget_follows_inferred_n(self):
        monitor = CongestMonitor()
        MonitorSuite(monitors=[monitor], ids=list(range(1, 1025)))
        assert monitor.budget == congest_budget(1024)

    def test_tallying_continues_after_a_violation(self):
        monitor, suite = audit([("huge", HUGE), ("compete", 3)])
        assert len(suite.violations) == 1
        assert monitor.messages == 2
        assert monitor.total_bits == payload_bits(("huge", HUGE)) + 8 + 2
        assert monitor.max_bits == payload_bits(("huge", HUGE))


class TestAlgorithmsAreCongest:
    """Every paper algorithm at n=128: zero violations, every send sized."""

    @pytest.mark.parametrize(
        "algorithm,engine,params",
        [
            ("improved_tradeoff", "sync", {}),
            ("afek_gafni", "sync", {}),
            ("small_id", "sync", {"d": 4}),
            ("las_vegas", "sync", {}),
            ("kutten16", "sync", {}),
            ("adversarial_2round", "sync", {}),
            ("async_tradeoff", "async", {}),
            ("async_afek_gafni", "async", {}),
        ],
    )
    def test_every_message_fits(self, algorithm, engine, params):
        n = 128
        monitor = CongestMonitor()
        suite = MonitorSuite(monitors=[monitor], n=n)
        record = run(
            RunSpec(
                algorithm=algorithm, n=n, engine=engine, seeds=(1,), params=params
            ),
            recorder=suite,
        )
        suite.finish()
        assert suite.violations == []
        assert monitor.messages == record.messages > 0
        assert 0 < monitor.max_bits <= congest_budget(n)
        assert monitor.total_bits >= monitor.messages

    def test_total_bits_match_the_recorded_sends(self):
        n = 32
        memory = MemoryRecorder()
        monitor = CongestMonitor()
        suite = MonitorSuite(monitors=[monitor], n=n)
        run(
            RunSpec(algorithm="improved_tradeoff", n=n, engine="sync", seeds=(2,)),
            recorder=CompositeRecorder(memory, suite),
        )
        sends = [e.detail[3] for e in memory.events if e.kind == "send"]
        assert monitor.messages == len(sends) > 0
        assert monitor.total_bits == sum(payload_bits(p) for p in sends)
        assert monitor.max_bits == max(payload_bits(p) for p in sends)

    def test_replay_matches_live_attachment(self):
        n = 32
        memory = MemoryRecorder()
        live = CongestMonitor()
        suite = MonitorSuite(monitors=[live], n=n)
        run(
            RunSpec(algorithm="async_tradeoff", n=n, engine="async", seeds=(2,)),
            recorder=CompositeRecorder(memory, suite),
        )
        replayed = CongestMonitor()
        MonitorSuite(monitors=[replayed], n=n).replay(memory.events).finish()
        assert (replayed.messages, replayed.total_bits, replayed.max_bits) == (
            live.messages,
            live.total_bits,
            live.max_bits,
        )
