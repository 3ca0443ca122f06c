"""Experiment harness: runners, power-law fitting, tables.

This package turns raw simulator runs into the paper-shaped artifacts the
benchmarks print: message-complexity exponents fitted over sweeps of
``n``, success rates over seeds, and aligned text tables with
paper-bound columns next to measured columns.
"""

from repro._exports import lazy_exports


def _fit():
    from repro.analysis.fit import PowerLawFit, fit_power_law, fit_polylog  # noqa: F401

    return locals()


def _runner():
    from repro.analysis.runner import RunRecord  # noqa: F401

    return locals()


def _stats():
    from repro.analysis.stats import Summary, success_rate, summarize  # noqa: F401

    return locals()


def _api():
    from repro.sweep.api import execute_spec, run, sweep  # noqa: F401

    return locals()


def _spec():
    from repro.sweep.spec import RunSpec, canonical_record  # noqa: F401

    return locals()


def _tables():
    from repro.analysis.tables import Table, format_quantity  # noqa: F401

    return locals()


__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_polylog",
    "RunRecord",
    "RunSpec",
    "run",
    "sweep",
    "execute_spec",
    "canonical_record",
    "Summary",
    "summarize",
    "success_rate",
    "Table",
    "format_quantity",
]

__getattr__ = lazy_exports(globals(), _fit, _runner, _stats, _api, _spec, _tables)
