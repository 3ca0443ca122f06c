"""Experiment harness: runners, power-law fitting, tables.

This package turns raw simulator runs into the paper-shaped artifacts the
benchmarks print: message-complexity exponents fitted over sweeps of
``n``, success rates over seeds, and aligned text tables with
paper-bound columns next to measured columns.
"""

from repro.analysis.fit import PowerLawFit, fit_power_law, fit_polylog
from repro.analysis.runner import RunRecord
from repro.analysis.stats import Summary, success_rate, summarize
from repro.sweep.api import execute_spec, run, sweep
from repro.sweep.spec import RunSpec, canonical_record
from repro.analysis.tables import Table, format_quantity

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
