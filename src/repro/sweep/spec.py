"""RunSpec: one declarative, picklable description of an election run.

A :class:`RunSpec` is the whole configuration space of the three
engines as plain data — algorithm, clique size, engine, seeds,
parameters, fault and adversary plans, trace/profile flags — with two
properties:

* **picklable**: a spec (and the :class:`~repro.analysis.RunRecord` rows
  it produces) crosses process boundaries, which is what lets the sweep
  scheduler shard a grid across workers (``algorithm`` is normally a
  registry *name*; zero-argument factories are accepted for in-process
  runs but pin their cells to the parent process);
* **uniform**: ``run(spec)`` and ``sweep(grid)`` are the one front door
  for every engine, so every bench, table and CLI path schedules
  through one executor.

Specs are frozen; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["RunSpec", "canonical_record"]

_ENGINES = ("auto", "sync", "async", "fast")
_MODES = ("auto", "exact", "scale")

#: ``extra`` keys that vary run-to-run on identical configurations
#: (wall clocks, profiler timings, raw engine results).  Everything
#: else in a record is seed-deterministic, which is what the sharded
#: scheduler's bit-identity contract quantifies over.
VOLATILE_EXTRA_KEYS = ("wall_time_s", "profile", "result", "trace")


def _int_tuple(value: Any, label: str) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class RunSpec:
    """Everything one election run (or seed-batch) needs, as data.

    ``algorithm`` is a registry name (see ``repro list``); ``engine``
    ``"auto"`` resolves to the registry engine, upgraded to ``"fast"``
    for large fault-free runs with a vectorized port.  ``seeds`` is the
    seed axis (``run()`` wants exactly one; ``sweep()`` fans out);
    ``batch`` groups fast-engine seeds into multi-lane engine runs of
    that many lanes.  ``faults``/``adversary``/``quorum`` configure the
    fault layer of every engine — a crash schedule is
    ``faults=FaultPlan(crashes=...)``, and faulted fast specs run one
    lane per seed.  An async spec whose plan duplicates messages for an
    election that assumes exactly-once delivery fails at construction
    (:func:`repro.core.registry.refuse_duplicates`).  ``roots`` is the
    fast engine's adversarial wake-up schedule; ``trace`` records the
    (single-seed) run to a JSONL path and ``profile`` attaches kernel
    phase timers (fast engine).
    """

    algorithm: Any
    n: int
    engine: str = "auto"
    seeds: Tuple[int, ...] = (0,)
    batch: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    ids: Optional[Tuple[int, ...]] = None
    awake: Optional[Tuple[int, ...]] = None
    wake_times: Optional[Dict[int, float]] = None
    roots: Optional[Tuple[int, ...]] = None
    mode: str = "auto"
    max_rounds: Optional[int] = None
    max_events: Optional[int] = None
    faults: Optional[Any] = None
    adversary: Optional[Any] = None
    quorum: bool = False
    trace: Optional[str] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {_ENGINES}"
            )
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown port-model mode {self.mode!r}; expected one of {_MODES}"
            )
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        object.__setattr__(self, "seeds", seeds)
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"need batch >= 1, got {self.batch}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "ids", _int_tuple(self.ids, "ids"))
        object.__setattr__(self, "awake", _int_tuple(self.awake, "awake"))
        object.__setattr__(self, "roots", _int_tuple(self.roots, "roots"))
        if self.wake_times is not None:
            object.__setattr__(
                self,
                "wake_times",
                {int(u): float(t) for u, t in dict(self.wake_times).items()},
            )
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise ValueError(
                    "RunSpec.faults must be a repro.faults.FaultPlan, "
                    f"got {type(self.faults).__name__}"
                )
            from repro.core.registry import ALGORITHMS, refuse_duplicates

            if self.algorithm_name in ALGORITHMS and self.resolved_engine() == "async":
                refuse_duplicates(*self.object_election(), self.faults.links)
        if self.adversary is not None:
            from repro.adversary.plan import AdversaryPlan

            if not isinstance(self.adversary, AdversaryPlan):
                raise ValueError(
                    "RunSpec.adversary must be a repro.adversary.AdversaryPlan, "
                    f"got {type(self.adversary).__name__}"
                )
            if self.faults is not None and self.faults.adversary is not None:
                raise ValueError(
                    "both RunSpec.adversary and RunSpec.faults.adversary are "
                    "set; attach the adversary in one place"
                )
        if self.trace is not None:
            if self.batch is not None:
                # A batched fast spec is ONE engine run; its trace carries
                # every lane (lane-annotated).  More seeds than lanes would
                # mean multiple engine runs overwriting the same file.
                if len(seeds) > self.batch:
                    raise ValueError(
                        "trace with batch records one batched engine run; "
                        "pass at most batch seeds"
                    )
            elif len(seeds) != 1:
                raise ValueError("trace records one run; pass exactly one seed")

    @property
    def algorithm_name(self) -> Optional[str]:
        """The registry name, or ``None`` for factory-valued specs."""
        return self.algorithm if isinstance(self.algorithm, str) else None

    def object_election(self) -> Tuple[str, Dict[str, Any]]:
        """The registry name and params an object engine runs (named specs).

        A quorum spec of any other election runs ``quorum_reelect``
        with the named election as ``inner``; ``params`` configure the
        wrapper (e.g. ``threshold=``), so they cannot name ``inner``.
        """
        name = self.algorithm
        if self.quorum and name != "quorum_reelect":
            return "quorum_reelect", dict(inner=name, **self.params)
        return name, self.params

    def resolved_engine(self) -> str:
        """Resolve ``engine="auto"`` deterministically.

        Named algorithms default to their registry engine; a sync spec
        whose clique exceeds the exact-mode limit (2048) and whose
        algorithm has a vectorized port upgrades to ``"fast"``.  Faulted
        specs take the upgrade too when the port declares a FaultPlan
        fold (``supports_faults``), so one plan drives whichever engine
        the size calls for; quorum specs stay on the object engines
        (``quorum=`` wraps the election in ``quorum_reelect`` there,
        which has no vectorized twin — the fast engine's quorum gate is
        explicit ``engine="fast"`` territory).  Factory-valued specs
        default to ``"sync"``.
        """
        if self.engine != "auto":
            return self.engine
        if self.algorithm_name is None:
            return "sync"
        from repro.core.registry import get_algorithm

        spec = get_algorithm(self.algorithm_name)
        faulted = self.faults is not None or self.adversary is not None
        if (
            spec.engine == "sync"
            and self.n > 2048
            and not self.quorum
            and spec.has_fast
            and (not faulted or spec.has_fast_faults)
        ):
            return "fast"
        return spec.engine

    def effective_faults(self) -> Optional[Any]:
        """The fault plan the object engines receive (adversary attached)."""
        if self.adversary is None:
            return self.faults
        from repro.faults.plan import FaultPlan

        plan = self.faults if self.faults is not None else FaultPlan()
        return dataclasses.replace(plan, adversary=self.adversary)


def canonical_record(record: Any) -> Dict[str, Any]:
    """A record as comparable data: volatile fields stripped.

    Wall-clock ``extra`` entries (``wall_time_s``, ``profile`` timings,
    raw ``result`` handles, trace receipts) differ between machines and
    between runs of the *same* seed; everything else is deterministic
    per ``(n, seed, configuration)``.  The scheduler equivalence suite
    and the parallel-sweep bench compare records through this view.
    """
    return {
        "n": record.n,
        "seed": record.seed,
        "messages": record.messages,
        "time": record.time,
        "unique_leader": record.unique_leader,
        "elected_id": record.elected_id,
        "leaders": record.leaders,
        "decided": record.decided,
        "awake": record.awake,
        "params": dict(record.params),
        "extra": {
            key: value
            for key, value in record.extra.items()
            if key not in VOLATILE_EXTRA_KEYS
        },
    }
