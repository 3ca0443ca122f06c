"""Sharded multi-process sweep scheduling behind the RunSpec API.

One declarative :class:`RunSpec` describes an election run on any
engine; :func:`run` executes one, :func:`sweep` shards a grid of them
across worker processes with bit-identical results for every worker
count.  See DESIGN.md ("Sweep scheduler") for the scheduling model and
the equivalence contract.
"""

from repro._exports import lazy_exports


def _api():
    from repro.sweep.api import execute_spec, run, sweep  # noqa: F401

    return locals()


def _scheduler():
    from repro.sweep.scheduler import SweepCell, run_cells  # noqa: F401

    return locals()


def _spec():
    from repro.sweep.spec import RunSpec, canonical_record  # noqa: F401

    return locals()


__all__ = [
    "RunSpec",
    "run",
    "sweep",
    "execute_spec",
    "canonical_record",
    "SweepCell",
    "run_cells",
]

__getattr__ = lazy_exports(globals(), _api, _scheduler, _spec)
