"""Golden pin of a *faulted* fast-engine trace, diffed against its twin.

``tests/data/golden_trace_partition_heal_fast_n64.jsonl`` was recorded
with::

    python -m repro trace record improved_tradeoff --n 64 --engine fast \
        --partition 32@2-4 --param ell=11 --seed 0 -o <golden>

i.e. a 64-node run whose bisection is cut for rounds [2, 4) and healed
afterwards — the vectorized fault runtime blocks the cross-component
traffic, demotes the starved frontrunners, and the post-heal survivors
still elect.  Two pins:

* re-recording the same CLI invocation must reproduce the golden file
  byte for byte (the vectorized fault path is deterministic end to end);
* the object-engine twin of the same run — same IDs, same seed, same
  fault plan, and the *shared port matrix* from the fast engine (the
  twin contract) — must satisfy ``repro trace diff`` with exit 0: the
  aggregate fast trace and the per-message object trace agree on every
  per-round send total and on the per-kind message census.
"""

import os
import random

import pytest

pytest.importorskip("numpy")

from repro.__main__ import _ids_for, main  # noqa: E402
from repro.core.registry import get_algorithm  # noqa: E402
from repro.faults import FaultPlan, PartitionMask  # noqa: E402
from repro.fastsync import FastSyncNetwork, get_fast_algorithm  # noqa: E402
from repro.sync.engine import SyncNetwork  # noqa: E402
from repro.telemetry import JsonlRecorder, RunContext, load_trace  # noqa: E402

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_trace_partition_heal_fast_n64.jsonl"
)
N = 64
SEED = 0
PARAMS = {"ell": 11}
PLAN = FaultPlan(
    partitions=(
        PartitionMask(
            components=(tuple(range(32)), tuple(range(32, N))), start=2, end=4
        ),
    )
)


def record_cli_args(out):
    return [
        "trace", "record", "improved_tradeoff", "--n", str(N),
        "--engine", "fast", "--partition", "32@2-4",
        "--param", "ell=11", "--seed", str(SEED), "-o", out,
    ]


class TestGoldenFaultedTrace:
    def test_cli_rerecord_matches_golden_bytes(self, tmp_path):
        out = str(tmp_path / "fresh.jsonl")
        assert main(record_cli_args(out)) == 0
        with open(out) as fh:
            fresh = fh.read()
        with open(GOLDEN) as fh:
            golden = fh.read()
        assert fresh == golden

    def test_golden_is_loadable_and_sane(self):
        trace = load_trace(GOLDEN)
        assert trace.run_context.algorithm == "improved_tradeoff"
        assert trace.run_context.n == N
        assert trace.run_context.engine == "fast"
        assert len(trace.of_kind("round")) > 4  # the run outlived the heal
        assert len(trace.of_kind("decide")) == 1

    def test_object_twin_diffs_clean(self, tmp_path, capsys):
        # The object twin runs the same plan over the fast engine's port
        # matrix (the twin contract); its per-message trace must carry
        # the same per-round send totals and kind census as the golden
        # aggregate trace.
        ids = _ids_for("improved_tradeoff", N, PARAMS, random.Random(f"cli:{N}:{SEED}"))
        fast_net = FastSyncNetwork(N, ids=ids, seed=SEED, mode="exact", faults=PLAN)
        result = fast_net.run(get_fast_algorithm("improved_tradeoff")(**PARAMS))
        assert result.fault_metrics.partition_blocked > 0

        twin_path = str(tmp_path / "object_twin.jsonl")
        recorder = JsonlRecorder(
            twin_path,
            context=RunContext(
                algorithm="improved_tradeoff", n=N, seed=SEED,
                engine="sync", params=PARAMS,
            ),
        )
        spec = get_algorithm("improved_tradeoff")
        net = SyncNetwork(
            N,
            lambda: spec.factory(**PARAMS),
            ids=ids,
            seed=SEED,
            port_map=fast_net.port_map(),
            faults=PLAN,
            recorder=recorder,
        )
        net.run()
        recorder.close()

        assert [net.ids[u] for u in net.leaders] == result.leader_ids
        assert main(["trace", "diff", GOLDEN, twin_path]) == 0
        assert "traces agree" in capsys.readouterr().out


class TestPartitionFlagValidation:
    def test_cut_out_of_range_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.jsonl")
        args = record_cli_args(out)
        args[args.index("32@2-4")] = "64@2-4"
        assert main(args) == 2
        assert "cut must be in" in capsys.readouterr().err

    def test_malformed_spec_rejected(self, tmp_path):
        out = str(tmp_path / "x.jsonl")
        args = record_cli_args(out)
        args[args.index("32@2-4")] = "half"
        with pytest.raises(SystemExit):
            main(args)

    def test_sync_engine_accepts_the_flag(self, tmp_path):
        # The flag is engine-agnostic: the object engines run the same
        # plan through FaultRuntime (their own port draw, so counters
        # differ from the golden — the twin diff above shares ports).
        out = str(tmp_path / "sync_part.jsonl")
        args = record_cli_args(out)
        args[args.index("fast")] = "sync"
        assert main(args) == 0
        trace = load_trace(out)
        assert trace.run_context.engine == "sync"
        assert len(trace.of_kind("send")) > 0
