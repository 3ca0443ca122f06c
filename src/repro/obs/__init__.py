"""The cross-worker observability plane.

Four pieces, layered over the telemetry and monitor subsystems:

* :mod:`repro.obs.spool` — per-worker JSONL telemetry spooling under
  ``.repro/obs/<sweep-id>/worker-<pid>.jsonl``; workers write metric and
  profile snapshots as each cell finishes, with zero coordination.
* :mod:`repro.obs.collect` — the deterministic collector: merges spooled
  snapshots into a :class:`SweepReport` whose :meth:`~SweepReport.canonical`
  projection is byte-identical for any worker count.
* :mod:`repro.obs.top` — :class:`SweepTop`, the ``repro top`` live TTY
  dashboard (per-worker rows over the SweepProgress hook protocol;
  degrades to the one-line display off a TTY).
* :mod:`repro.obs.html` — ``repro report --html``: one self-contained
  static HTML campaign report (ledger, tradeoff-vs-envelope scatter,
  bench baselines, top-k critical paths), no dependencies.

Everything imports without numpy; the HTML builder touches the monitor
and causal layers lazily.
"""

from repro._exports import lazy_exports


def _collect():
    from repro.obs.collect import SweepReport, WorkerTimeline, collect  # noqa: F401

    return locals()


def _html():
    from repro.obs.html import build_campaign_report, write_campaign_report  # noqa: F401

    return locals()


def _spool():
    from repro.obs.spool import (  # noqa: F401
        DEFAULT_OBS_ROOT,
        SPOOL_SCHEMA,
        new_spool_dir,
        read_spool,
        spool_snapshot,
    )

    return locals()


def _top():
    from repro.obs.top import SweepTop  # noqa: F401

    return locals()


__all__ = [
    "DEFAULT_OBS_ROOT",
    "SPOOL_SCHEMA",
    "SweepReport",
    "SweepTop",
    "WorkerTimeline",
    "build_campaign_report",
    "collect",
    "new_spool_dir",
    "read_spool",
    "spool_snapshot",
    "write_campaign_report",
]

__getattr__ = lazy_exports(globals(), _collect, _html, _spool, _top)
