"""Measurement post-processing: fits, tables, plots and execution
timelines."""

from repro.analysis.ascii_plot import line_plot
from repro.analysis.growth import (
    ExponentialFit,
    LinearFit,
    classify_growth,
    fit_exponential,
    fit_linear,
    find_crossover,
)
from repro.analysis.tables import Table, format_float
from repro.analysis.timeline import render_event, render_timeline

__all__ = [
    "ExponentialFit",
    "LinearFit",
    "Table",
    "classify_growth",
    "find_crossover",
    "fit_exponential",
    "fit_linear",
    "format_float",
    "line_plot",
    "render_event",
    "render_timeline",
]
