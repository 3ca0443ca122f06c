"""Documentation consistency: the docs must reference real artifacts."""

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest


ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


def bench_names():
    """The benches ``benchmarks/benches.py`` declares in ``BENCHES``."""
    for node in ast.parse(read("benchmarks/benches.py")).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "BENCHES":
            return {key.value for key in node.value.keys}
    raise AssertionError("benchmarks/benches.py declares no BENCHES")


def driver_targets(text: str):
    """The bench names a doc runs through the driver (``run.py name``)."""
    return set(re.findall(r"run\.py ([a-z0-9_]+)", text)) - {"all"}


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        targets = driver_targets(read("DESIGN.md"))
        assert targets, "DESIGN.md should reference bench targets"
        assert targets <= bench_names(), targets - bench_names()

    def test_every_bench_file_is_indexed(self):
        indexed = driver_targets(read("DESIGN.md"))
        assert bench_names() <= indexed, f"unindexed benches: {bench_names() - indexed}"

    def test_mentions_all_algorithms(self):
        text = read("DESIGN.md")
        for module in (
            "improved_tradeoff",
            "afek_gafni",
            "small_id",
            "kutten16",
            "las_vegas",
            "adversarial_2round",
            "async_tradeoff",
            "async_afek_gafni",
        ):
            assert module in text, module


class TestReadme:
    def test_every_example_listed_exists(self):
        text = read("README.md")
        examples = set(re.findall(r"examples/(\w+\.py)", text))
        for name in examples:
            assert (ROOT / "examples" / name).exists(), name

    def test_every_example_on_disk_is_listed(self):
        text = read("README.md")
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        listed = set(re.findall(r"examples/(\w+\.py)", text))
        assert on_disk <= listed, f"unlisted examples: {on_disk - listed}"

    def test_quickstart_snippet_runs(self):
        text = read("README.md")
        match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
        assert match, "README quickstart snippet missing"
        snippet = match.group(1).replace("1024", "64")  # shrink for test speed
        namespace = {}
        exec(compile(snippet, "<README>", "exec"), namespace)  # noqa: S102

    def test_cli_commands_parse(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        text = read("README.md")
        for line in re.findall(r"^python -m repro (.+)$", text, re.MULTILINE):
            argv = line.split("#")[0].split()
            args = parser.parse_args(argv)
            assert args.command


class TestExperimentsDoc:
    def test_references_only_real_benches(self):
        text = read("EXPERIMENTS.md")
        # The experiment index's last column names each row's benches.
        rows = re.findall(r"^\| (?:T1\.\d+|F\d|CH1|S\d+b?) \|.*\|(.*)\|$", text, re.MULTILINE)
        indexed = {name for column in rows for name in re.findall(r"`(\w+)`", column)}
        assert len(rows) >= 24 and indexed
        assert indexed | driver_targets(text) <= bench_names(), (
            (indexed | driver_targets(text)) - bench_names()
        )

    def test_covers_every_table1_experiment_id(self):
        text = read("EXPERIMENTS.md")
        for exp_id in ("T1.1", "T1.2", "T1.3", "T1.4", "T1.6", "T1.8",
                       "T1.9", "T1.10", "T1.11", "T1.12", "T1.14", "F1", "F2"):
            assert exp_id in text, exp_id


class TestCIConsistency:
    """The CI workflow, benches and docs must agree on the smoke recipes."""

    def workflow(self) -> str:
        return read(".github/workflows/ci.yml")

    def test_ci_smoke_benches_exist_and_are_documented(self):
        text = self.workflow()
        smoke = set(re.findall(r"benchmarks/run\.py (\w+) --smoke", text))
        assert smoke, "CI should run smoke benchmarks"
        experiments = read("EXPERIMENTS.md")
        for bench in smoke:
            assert bench in bench_names(), bench
            assert f"run.py {bench} --smoke" in experiments, (
                f"{bench} smoke run not in EXPERIMENTS.md"
            )

    def test_ci_runs_the_scale_and_churn_smokes(self):
        text = self.workflow()
        assert "run.py fastsync_scale --smoke" in text
        assert "run.py failover_churn --smoke" in text

    def test_ci_gates_bench_regressions(self):
        text = self.workflow()
        assert "check_regression.py" in text
        assert "bench-artifacts" in text
        assert "upload-artifact" in text

    def test_every_json_emitting_smoke_has_a_baseline(self):
        text = self.workflow()
        emits = re.findall(
            r"run\.py (\w+) --smoke(?:\s+--workers \d+)?"
            r"\s+--json bench-artifacts/(BENCH_\w+\.json)",
            text,
        )
        assert len(emits) == len(re.findall(r"--json bench-artifacts/", text))
        for bench, name in emits:
            assert name == f"BENCH_{bench}.json", (bench, name)
            assert (ROOT / "benchmarks" / "baselines" / name).exists(), (
                f"CI emits {name} but benchmarks/baselines/ has no baseline for it"
            )

    def test_ci_checks_campaign_pins(self):
        text = self.workflow()
        for workload in ("table1_campaign", "fault_fleet"):
            assert f"perfbench/run.py --workload {workload}" in text, workload

    def test_ci_matrix_covers_supported_pythons(self):
        text = self.workflow()
        assert '"3.10"' in text and '"3.11"' in text and '"3.12"' in text

    def test_lint_job_runs_ruff_with_config(self):
        assert "ruff check" in self.workflow()
        assert (ROOT / "ruff.toml").exists()

    def test_experiments_documents_the_regression_gate(self):
        experiments = read("EXPERIMENTS.md")
        assert "check_regression.py" in experiments
        assert "baselines" in experiments


class TestApiDoc:
    """docs/API.md must describe the surface that actually exists."""

    def doc(self) -> str:
        return read("docs/API.md")

    def test_every_dotted_path_resolves(self):
        """Every backticked ``repro.xxx.Yyy`` path imports and resolves."""
        import importlib

        paths = set(re.findall(r"`(repro(?:\.\w+)+)`", self.doc()))
        assert paths, "API.md should reference dotted repro paths"
        for path in paths:
            parts = path.split(".")
            obj = None
            for split in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:split]))
                except ImportError:
                    continue
                for attr in parts[split:]:
                    assert hasattr(obj, attr), f"{path}: missing {attr}"
                    obj = getattr(obj, attr)
                break
            assert obj is not None, f"{path} does not import"

    def test_documented_signatures_match(self):
        """Keyword arguments named in the signature blocks must exist."""
        import inspect

        from repro.analysis import RunSpec, run
        from repro.fastsync import FastSyncNetwork
        import repro.scenarios
        from repro.scenarios import ScenarioRunner

        for func, required in [
            (FastSyncNetwork.__init__,
             {"ids", "seed", "seeds", "batch", "mode", "exact_limit",
              "max_rounds", "roots", "faults"}),
            (RunSpec, {"seeds", "batch", "ids", "mode", "roots", "faults",
                       "profile"}),
            (run, {"recorder", "telemetry", "scheduler", "keep_result"}),
            (ScenarioRunner.__init__,
             {"engine", "seed", "inner", "lag", "quorum"}),
        ]:
            parameters = set(inspect.signature(func).parameters)
            missing = required - parameters
            assert not missing, f"{func.__qualname__} lost kwargs {missing}"
        # A crash schedule is a FaultPlan; the crash-mask kwargs are gone.
        for func in (FastSyncNetwork.__init__, RunSpec):
            parameters = set(inspect.signature(func).parameters)
            assert not {"crashes", "lane_crashes"} & parameters
        # Every scenario sweep shards (n, seed) cells; no lockstep batcher.
        assert not hasattr(repro.scenarios, "run_scenario_batch")

    def test_capability_flags_exist(self):
        from repro.fastsync import VectorAlgorithm

        for flag in ("supports_roots", "supports_faults"):
            assert flag in self.doc()
            assert hasattr(VectorAlgorithm, flag), flag
        assert not hasattr(VectorAlgorithm, "supports_crashes")

    def test_fast_registry_listing_is_complete(self):
        from repro.fastsync import FAST_ALGORITHMS

        for name in FAST_ALGORITHMS:
            assert f"`{name}`" in self.doc(), f"API.md misses fast port {name}"

    def test_named_scenarios_listing_is_complete(self):
        from repro.scenarios import NAMED_SCENARIOS

        for name in NAMED_SCENARIOS:
            assert name in self.doc(), f"API.md misses scenario {name}"

    def test_readme_links_the_reference(self):
        assert "docs/API.md" in read("README.md")
        assert "docs/TUTORIAL.md" in read("README.md")


class TestTutorialDoc:
    """Every TUTORIAL.md command and code block must still work."""

    def doc(self) -> str:
        return read("docs/TUTORIAL.md")

    def cli_lines(self):
        for line in re.findall(
            r"^(?:PYTHONPATH=src )?python -m repro (.+)$", self.doc(), re.MULTILINE
        ):
            yield line.split("#")[0].split()

    def test_cli_commands_parse(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        lines = list(self.cli_lines())
        assert len(lines) >= 10, "tutorial should walk through the CLI"
        for argv in lines:
            args = parser.parse_args(argv)
            assert args.command

    def test_python_blocks_execute(self):
        blocks = re.findall(r"```python\n(.*?)```", self.doc(), re.DOTALL)
        assert blocks, "tutorial should carry runnable code"
        for block in blocks:
            snippet = block.replace("1024", "64").replace("100_000", "256")
            snippet = snippet.replace("4096", "256")
            exec(compile(snippet, "<TUTORIAL>", "exec"), {})  # noqa: S102

    def test_json_timeline_loads(self):
        from repro.scenarios import scenario_from_json

        blocks = re.findall(r"```json\n(.*?)```", self.doc(), re.DOTALL)
        assert blocks, "tutorial should carry a JSON timeline"
        for block in blocks:
            scenario = scenario_from_json(block)
            assert scenario.events

    def test_referenced_bench_files_exist(self):
        targets = driver_targets(self.doc())
        assert targets and targets <= bench_names(), targets - bench_names()
        assert "check_regression.py" in self.doc()

    def test_mentions_the_speedup_contract(self):
        assert "3x" in self.doc()
        assert "--batch" in self.doc()


class TestModelDoc:
    def test_deviations_match_code_markers(self):
        """Every deviation documented in MODEL.md is also documented at
        the implementation site."""
        model = read("docs/MODEL.md")
        assert "receipt" in model
        adversarial = read("src/repro/core/adversarial_2round.py")
        assert "reading note" in adversarial or "receipt" in adversarial
        ag = read("src/repro/core/async_afek_gafni.py")
        assert "(level, id)" in ag



#: Flags whose value names a file the command writes, not one it reads.
OUTPUT_FLAGS = {"-o", "--out", "--trace", "--json", "--html", "--records",
                "--ledger", "--spool"}


def documented_cli_lines():
    """``(argv, comment)`` for every documented ``python -m repro`` line.

    README.md, EXPERIMENTS.md, docs/*.md and the CLI module docstring,
    each in file order.
    """
    import repro.__main__

    sources = [read("README.md"), read("EXPERIMENTS.md")]
    sources += [path.read_text() for path in sorted((ROOT / "docs").glob("*.md"))]
    sources.append(repro.__main__.__doc__)
    for text in sources:
        for line in re.findall(
            r"^\s*(?:PYTHONPATH=src )?python -m repro (.+)$", text, re.MULTILINE
        ):
            command, _, comment = line.partition("#")
            yield shlex.split(command), comment


def unmet_inputs(argv, cwd):
    """What ``argv`` reads that no earlier line wrote.

    That is a trace or timeline file that is neither in ``cwd`` nor in
    the checkout, or, for ``compare``, a ledger with fewer than the two
    entries it diffs.
    """
    missing = []
    for i, token in enumerate(argv):
        if not token.endswith((".json", ".jsonl")):
            continue
        if i and argv[i - 1] in OUTPUT_FLAGS:
            continue
        if not (cwd / token).exists() and not (ROOT / token).exists():
            missing.append(token)
    if argv[0] == "compare":
        ledger = cwd / (
            argv[argv.index("--ledger") + 1] if "--ledger" in argv
            else ".repro/ledger.jsonl"
        )
        if not ledger.exists() or len(ledger.read_text().splitlines()) < 2:
            missing.append(str(ledger))
    return missing


@pytest.mark.slow
def test_documented_cli_examples_run(tmp_path):
    """Every documented command runs without a traceback.

    The commands run in order in one scratch directory, so a trace one
    line records is there for the next line to read.  A line whose
    input no earlier line writes (a user's own timeline) is skipped, and
    so is a shell-loop body; a line that already ran is not run again.
    Exit 0 is expected; exit 1 is also the documented verdict of
    ``compare`` (a regression), of ``trace diff`` (the traces differ)
    and of a line whose comment names the failure mode it shows (a
    stall).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    ran, failed = set(), []
    for argv, comment in documented_cli_lines():
        if (
            tuple(argv) in ran
            or any("$" in token for token in argv)
            or unmet_inputs(argv, tmp_path)
        ):
            continue
        ran.add(tuple(argv))
        # Repository files (the golden traces) are read from the checkout.
        argv = [
            str(ROOT / token)
            if not (tmp_path / token).exists() and (ROOT / token).is_file()
            else token
            for token in argv
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        verdict = (
            argv[0] == "compare" or argv[:2] == ["trace", "diff"] or "stall" in comment
        )
        allowed = (0, 1) if verdict else (0,)
        if proc.returncode not in allowed or "Traceback" in proc.stderr:
            failed.append((" ".join(argv), proc.returncode, proc.stderr[-300:]))
    assert len(ran) >= 50, f"only {len(ran)} documented commands ran"
    assert not failed, failed
